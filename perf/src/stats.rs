//! Order statistics and span arithmetic used by the runner and `compare`.

/// Median of the values (mean of the two middle ones for an even count);
/// `None` for an empty slice.
#[must_use]
pub fn median(values: &[f64]) -> Option<f64> {
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let n = sorted.len();
    match n {
        0 => None,
        _ if n % 2 == 1 => Some(sorted[n / 2]),
        _ => Some((sorted[n / 2 - 1] + sorted[n / 2]) / 2.0),
    }
}

/// Nearest-rank percentile `q ∈ [0, 1]` of unsorted nanosecond samples — the
/// same rank rule as `sbqa_metrics::LatencyRecorder::percentiles`, so inline
/// and threaded workloads report comparable tails. Sorts `samples` in place.
#[must_use]
pub fn percentile(samples: &mut [u64], q: f64) -> Option<u64> {
    if samples.is_empty() {
        return None;
    }
    samples.sort_unstable();
    let rank = ((samples.len() as f64 - 1.0) * q.clamp(0.0, 1.0)).round() as usize;
    Some(samples[rank.min(samples.len() - 1)])
}

/// A span's self time: its duration minus the part of it its children cover.
/// Children are `(start, end)` pairs inside the parent and may overlap.
#[must_use]
pub fn self_time(start: u64, end: u64, children: &[(u64, u64)]) -> u64 {
    let mut clipped: Vec<(u64, u64)> = children
        .iter()
        .map(|&(s, e)| (s.clamp(start, end), e.clamp(start, end)))
        .filter(|&(s, e)| e > s)
        .collect();
    clipped.sort_unstable();
    let mut covered = 0;
    let mut frontier = start;
    for (s, e) in clipped {
        let s = s.max(frontier);
        if e > s {
            covered += e - s;
            frontier = e;
        }
    }
    (end - start) - covered
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_even_and_empty() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), Some(2.0));
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), Some(2.5));
        assert_eq!(median(&[]), None);
    }

    #[test]
    fn percentile_uses_the_nearest_rank() {
        let mut samples: Vec<u64> = (1..=100).rev().collect();
        assert_eq!(percentile(&mut samples, 0.5), Some(51));
        assert_eq!(percentile(&mut samples, 0.99), Some(99));
        assert_eq!(percentile(&mut samples, 1.0), Some(100));
        assert_eq!(percentile(&mut [], 0.5), None);
    }

    #[test]
    fn self_time_subtracts_the_union_of_children() {
        assert_eq!(self_time(0, 100, &[]), 100);
        assert_eq!(self_time(0, 100, &[(10, 30), (50, 60)]), 70);
        // Overlapping and out-of-range children count once, clipped.
        assert_eq!(self_time(10, 100, &[(0, 30), (20, 40), (90, 120)]), 50);
    }
}
