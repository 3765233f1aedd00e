//! Tail-latency instrumentation.
//!
//! The sharded mediation service measures how long each query spends between
//! ingest and decision, in *wall-clock nanoseconds* — unlike the rest of the
//! crate, which works in virtual seconds, latency here is a property of the
//! machine, not of the simulated world. [`LatencyRecorder`] accumulates the
//! per-query samples of one shard (or one baseline run) and answers the
//! percentile questions every service comparison needs: p50, p95 and p99.
//!
//! The recorder is deliberately exact, not a sketch: scenario-scale runs
//! observe at most a few hundred thousand queries, so keeping the raw `u64`
//! samples is cheap and makes percentiles reproducible to the nanosecond.
//! Shards record independently and their recorders [`merge`] into the
//! aggregate view at report time.
//!
//! [`merge`]: LatencyRecorder::merge

use serde::{Deserialize, Serialize};

/// Collector of per-query latency samples with percentile queries.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize, Default)]
pub struct LatencyRecorder {
    /// Raw samples in nanoseconds, in arrival order.
    samples: Vec<u64>,
    /// Running sum, for the O(1) mean. Saturating: 2^64 ns is ~584 years of
    /// accumulated latency, far beyond any run this crate measures.
    total_nanos: u64,
}

impl LatencyRecorder {
    /// Creates an empty recorder.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Records one latency sample, in nanoseconds.
    pub fn record_nanos(&mut self, nanos: u64) {
        self.samples.push(nanos);
        self.total_nanos = self.total_nanos.saturating_add(nanos);
    }

    /// Records one latency sample from a wall-clock duration.
    pub fn record(&mut self, elapsed: std::time::Duration) {
        self.record_nanos(u64::try_from(elapsed.as_nanos()).unwrap_or(u64::MAX));
    }

    /// Folds another recorder's samples into this one (used to aggregate the
    /// per-shard views into a whole-service distribution).
    pub fn merge(&mut self, other: &LatencyRecorder) {
        self.samples.extend_from_slice(&other.samples);
        self.total_nanos = self.total_nanos.saturating_add(other.total_nanos);
    }

    /// Number of recorded samples.
    #[must_use]
    pub fn count(&self) -> usize {
        self.samples.len()
    }

    /// `true` if nothing has been recorded.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.samples.is_empty()
    }

    /// Largest recorded sample in nanoseconds, or 0 if empty.
    #[must_use]
    pub fn max_nanos(&self) -> u64 {
        self.samples.iter().copied().max().unwrap_or(0)
    }

    /// The nearest-rank position of the `q`-quantile among `count` sorted
    /// samples (`count ≥ 1`).
    fn rank(q: f64, count: usize) -> usize {
        let rank = ((count as f64 - 1.0) * q.clamp(0.0, 1.0)).round() as usize;
        rank.min(count - 1)
    }

    /// Answers several quantile queries (each 0 ≤ q ≤ 1, in any order) from
    /// **one** copy of the sample — the way to read a whole percentile row
    /// (p50/p95/p99). Nearest-rank, the values a full sort would give; 0s
    /// if empty.
    ///
    /// The copy is not sorted: the requested ranks are selected in ascending
    /// order, each over the part of the copy the previous selection left
    /// unpartitioned (everything from its rank on), so a row of three
    /// percentiles over a million samples is three linear passes over a
    /// shrinking tail instead of a sort.
    #[must_use]
    pub fn percentiles(&self, qs: &[f64]) -> Vec<u64> {
        let mut values = vec![0; qs.len()];
        if self.samples.is_empty() {
            return values;
        }
        let mut ranks: Vec<(usize, usize)> = qs
            .iter()
            .enumerate()
            .map(|(at, &q)| (Self::rank(q, self.samples.len()), at))
            .collect();
        ranks.sort_unstable();
        let mut scratch = self.samples.clone();
        // `scratch[selected]` is in its sorted place, nothing after it smaller.
        let mut selected = None;
        for (rank, at) in ranks {
            if selected != Some(rank) {
                let from = selected.unwrap_or(0);
                scratch[from..].select_nth_unstable(rank - from);
                selected = Some(rank);
            }
            values[at] = scratch[rank];
        }
        values
    }

    /// The `q`-quantile (0 ≤ q ≤ 1) in nanoseconds, nearest-rank on the
    /// sorted sample; 0 if empty. For several quantiles at once, prefer
    /// [`LatencyRecorder::percentiles`], which copies the sample once.
    #[must_use]
    fn percentile_nanos(&self, q: f64) -> u64 {
        self.percentiles(&[q])[0]
    }

    /// Median latency (p50) in nanoseconds.
    #[must_use]
    pub fn p50(&self) -> u64 {
        self.percentile_nanos(0.50)
    }

    /// 95th-percentile latency in nanoseconds.
    #[must_use]
    pub fn p95(&self) -> u64 {
        self.percentile_nanos(0.95)
    }

    /// 99th-percentile latency — the tail the sharding comparison is about.
    #[must_use]
    pub fn p99(&self) -> u64 {
        self.percentile_nanos(0.99)
    }

    /// Formats a nanosecond figure with an adaptive unit (`ns`, `µs`, `ms`,
    /// `s`), for the scenario tables.
    ///
    /// The unit is chosen **per value**, which reads well for a single
    /// figure but makes a column of figures hard to compare (`980.00µs` next
    /// to `1.02ms`). When formatting a row or column of related figures —
    /// per-shard percentile tables, notably — pick one [`LatencyUnit`] for
    /// the whole group instead.
    #[must_use]
    pub fn display_nanos(nanos: u64) -> String {
        LatencyUnit::for_nanos(nanos).format(nanos)
    }
}

/// A fixed latency display unit, for formatting groups of related figures
/// (e.g. every shard row of a `ServiceReport` table) with **one shared
/// unit** so the magnitudes compare at a glance.
///
/// Pick the unit from the group's largest figure with
/// [`LatencyUnit::for_nanos`], then format every member with
/// [`LatencyUnit::format`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum LatencyUnit {
    /// Nanoseconds (`ns`).
    Nanos,
    /// Microseconds (`µs`).
    Micros,
    /// Milliseconds (`ms`).
    Millis,
    /// Seconds (`s`).
    Secs,
}

impl LatencyUnit {
    /// The unit [`LatencyRecorder::display_nanos`] would pick for this
    /// figure — call it on a group's *largest* member to get a shared unit
    /// every smaller member still reads naturally in.
    #[must_use]
    pub fn for_nanos(nanos: u64) -> Self {
        if nanos < 1_000 {
            LatencyUnit::Nanos
        } else if nanos < 1_000_000 {
            LatencyUnit::Micros
        } else if nanos < 1_000_000_000 {
            LatencyUnit::Millis
        } else {
            LatencyUnit::Secs
        }
    }

    /// The unit's display suffix.
    #[must_use]
    pub fn label(self) -> &'static str {
        match self {
            LatencyUnit::Nanos => "ns",
            LatencyUnit::Micros => "µs",
            LatencyUnit::Millis => "ms",
            LatencyUnit::Secs => "s",
        }
    }

    /// Converts a nanosecond figure into this unit.
    #[must_use]
    fn convert(self, nanos: u64) -> f64 {
        let nanos = nanos as f64;
        match self {
            LatencyUnit::Nanos => nanos,
            LatencyUnit::Micros => nanos / 1_000.0,
            LatencyUnit::Millis => nanos / 1_000_000.0,
            LatencyUnit::Secs => nanos / 1_000_000_000.0,
        }
    }

    /// Formats a nanosecond figure in this unit (no decimals for `ns`, two
    /// otherwise).
    #[must_use]
    pub fn format(self, nanos: u64) -> String {
        match self {
            LatencyUnit::Nanos => format!("{nanos}ns"),
            unit => format!("{:.2}{}", unit.convert(nanos), unit.label()),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_recorder_has_benign_defaults() {
        let recorder = LatencyRecorder::new();
        assert!(recorder.is_empty());
        assert_eq!(recorder.count(), 0);
        assert_eq!(recorder.max_nanos(), 0);
        assert_eq!(recorder.p50(), 0);
        assert_eq!(recorder.p99(), 0);
    }

    #[test]
    fn percentiles_use_nearest_rank_on_sorted_samples() {
        let mut recorder = LatencyRecorder::new();
        // Recorded out of order on purpose.
        for nanos in [500u64, 100, 300, 200, 400] {
            recorder.record_nanos(nanos);
        }
        assert_eq!(recorder.count(), 5);
        assert_eq!(recorder.p50(), 300);
        assert_eq!(recorder.percentile_nanos(0.0), 100);
        assert_eq!(recorder.percentile_nanos(1.0), 500);
        assert_eq!(recorder.p95(), 500);
        assert_eq!(recorder.max_nanos(), 500);
    }

    #[test]
    fn p99_tracks_the_tail() {
        let mut recorder = LatencyRecorder::new();
        for _ in 0..98 {
            recorder.record_nanos(1_000);
        }
        // A 2% tail: nearest-rank p99 (index 98 of 100) lands inside it.
        recorder.record_nanos(1_000_000);
        recorder.record_nanos(2_000_000);
        assert_eq!(recorder.p50(), 1_000);
        assert_eq!(recorder.p95(), 1_000);
        assert_eq!(recorder.p99(), 1_000_000);
    }

    #[test]
    fn percentiles_answers_many_quantiles_from_one_sort() {
        let mut recorder = LatencyRecorder::new();
        for nanos in [500u64, 100, 300, 200, 400] {
            recorder.record_nanos(nanos);
        }
        assert_eq!(recorder.percentiles(&[0.0, 0.5, 1.0]), vec![100, 300, 500]);
        assert_eq!(
            recorder.percentiles(&[0.5, 0.95, 0.99]),
            vec![recorder.p50(), recorder.p95(), recorder.p99()]
        );
        assert_eq!(LatencyRecorder::new().percentiles(&[0.5, 0.99]), vec![0, 0]);
    }

    /// The full sort `percentiles` replaced, as the reference.
    fn percentiles_by_sorting(samples: &[u64], qs: &[f64]) -> Vec<u64> {
        if samples.is_empty() {
            return vec![0; qs.len()];
        }
        let mut sorted = samples.to_vec();
        sorted.sort_unstable();
        qs.iter()
            .map(|q| sorted[LatencyRecorder::rank(*q, sorted.len())])
            .collect()
    }

    proptest::proptest! {
        #[test]
        fn percentiles_equal_a_full_sort(
            // A narrow value range, so samples repeat; 0 and 1 sample included.
            samples in proptest::collection::vec(0u64..40, 0..300),
            qs in proptest::collection::vec(-0.1f64..1.1, 0..8),
        ) {
            let mut recorder = LatencyRecorder::new();
            for &nanos in &samples {
                recorder.record_nanos(nanos);
            }
            // `qs` is unsorted as drawn; the fixed row covers the extremes,
            // a repeated rank and a descending pair.
            for qs in [&qs[..], &[1.0, 0.5, 0.5, 0.0, 0.99, 0.95]] {
                proptest::prop_assert_eq!(
                    recorder.percentiles(qs),
                    percentiles_by_sorting(&samples, qs)
                );
            }
        }
    }

    #[test]
    fn merge_combines_shard_distributions() {
        let mut a = LatencyRecorder::new();
        a.record_nanos(100);
        a.record_nanos(200);
        let mut b = LatencyRecorder::new();
        b.record_nanos(300);
        b.record_nanos(400);
        a.merge(&b);
        assert_eq!(a.count(), 4);
        assert_eq!(a.percentile_nanos(1.0), 400);

        // Merging an empty recorder changes nothing.
        a.merge(&LatencyRecorder::new());
        assert_eq!(a.count(), 4);
    }

    #[test]
    fn record_accepts_std_durations() {
        let mut recorder = LatencyRecorder::new();
        recorder.record(std::time::Duration::from_micros(3));
        assert_eq!(recorder.max_nanos(), 3_000);
    }

    #[test]
    fn display_adapts_units() {
        assert_eq!(LatencyRecorder::display_nanos(750), "750ns");
        assert_eq!(LatencyRecorder::display_nanos(1_500), "1.50µs");
        assert_eq!(LatencyRecorder::display_nanos(2_500_000), "2.50ms");
        assert_eq!(LatencyRecorder::display_nanos(3_000_000_000), "3.00s");
    }

    #[test]
    fn shared_unit_formats_a_whole_group_comparably() {
        // The per-recorder adaptive display renders these two figures in
        // *different* units — visually incomparable in a table column.
        assert_eq!(LatencyRecorder::display_nanos(980_000), "980.00µs");
        assert_eq!(LatencyRecorder::display_nanos(1_020_000), "1.02ms");

        // A shared unit picked from the group's maximum fixes that.
        let unit = LatencyUnit::for_nanos(1_020_000);
        assert_eq!(unit, LatencyUnit::Millis);
        assert_eq!(unit.format(980_000), "0.98ms");
        assert_eq!(unit.format(1_020_000), "1.02ms");
        assert_eq!(unit.label(), "ms");
    }

    #[test]
    fn unit_selection_matches_the_adaptive_display() {
        for nanos in [1u64, 999, 1_000, 999_999, 1_000_000, 5_000_000_000] {
            let unit = LatencyUnit::for_nanos(nanos);
            assert_eq!(unit.format(nanos), LatencyRecorder::display_nanos(nanos));
        }
        assert_eq!(LatencyUnit::Nanos.convert(750), 750.0);
        assert!((LatencyUnit::Secs.convert(1_500_000_000) - 1.5).abs() < 1e-12);
    }
}
