//! Provider ranking (the vector `R` of Section III).
//!
//! Once every provider in `Kn` has a score, the mediator builds the ranking
//! vector `R`: `R[1]` is the best-scored provider, `R[2]` the second best,
//! and so on. The query is then allocated to the first `min(q.n, kn)` entries
//! of `R`.
//!
//! Ties are broken by provider id so that the process stays deterministic
//! under a fixed RNG stream, which matters for reproducible experiments.

/// Maps non-finite scores to the bottom of the ranking (they should not
/// occur — Definition 3 is total — but a baseline plugged into the same
/// interface could misbehave).
fn finite_or_bottom(score: f64) -> f64 {
    if score.is_finite() {
        score
    } else {
        f64::NEG_INFINITY
    }
}

/// Fills `order` with the indices `0..scores.len()` ranked from the highest
/// to the lowest score — the index form of the vector `R`, used by the
/// zero-allocation mediation path (the caller reuses `order` as scratch).
///
/// Non-finite scores rank last; ties break by `tie_key(index)` ascending, so
/// the ranking is deterministic whenever the keys are distinct (the engine
/// passes the provider id).
pub fn rank_indices_by_score<K, F>(scores: &[f64], tie_key: F, order: &mut Vec<u32>)
where
    K: Ord,
    F: Fn(usize) -> K,
{
    order.clear();
    order.extend(0..scores.len() as u32);
    order.sort_unstable_by(|&a, &b| {
        let sa = finite_or_bottom(scores[a as usize]);
        let sb = finite_or_bottom(scores[b as usize]);
        sbqa_types::f64_total_cmp(sb, sa)
            .then_with(|| tie_key(a as usize).cmp(&tie_key(b as usize)))
    });
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use sbqa_types::ProviderId;

    fn pid(raw: u64) -> ProviderId {
        ProviderId::new(raw)
    }

    /// The vector `R` of `(provider, score)` pairs, ties broken by provider
    /// id the way the engine does.
    fn rank_by_score(scored: &[(ProviderId, f64)]) -> Vec<ProviderId> {
        let scores: Vec<f64> = scored.iter().map(|(_, score)| *score).collect();
        // A dirty scratch vector: the ranking must clear it first.
        let mut order = vec![7, 7, 7];
        rank_indices_by_score(&scores, |i| scored[i].0, &mut order);
        order.into_iter().map(|i| scored[i as usize].0).collect()
    }

    #[test]
    fn ranks_highest_score_first() {
        let ranked = rank_by_score(&[(pid(1), 0.2), (pid(2), 0.9), (pid(3), -0.5)]);
        assert_eq!(ranked, vec![pid(2), pid(1), pid(3)]);
    }

    #[test]
    fn ties_break_by_provider_id() {
        let ranked = rank_by_score(&[(pid(9), 0.5), (pid(3), 0.5), (pid(7), 0.5)]);
        assert_eq!(ranked, vec![pid(3), pid(7), pid(9)]);
    }

    #[test]
    fn non_finite_scores_sink_to_the_bottom() {
        let ranked = rank_by_score(&[(pid(1), f64::NAN), (pid(2), -5.0), (pid(3), 0.1)]);
        assert_eq!(ranked, vec![pid(3), pid(2), pid(1)]);
    }

    #[test]
    fn empty_input_gives_empty_ranking() {
        assert!(rank_by_score(&[]).is_empty());
    }

    proptest! {
        #[test]
        fn prop_ranking_is_permutation(
            scores in proptest::collection::vec(-10.0f64..10.0, 0..30)
        ) {
            let scored: Vec<(ProviderId, f64)> = scores
                .iter()
                .enumerate()
                .map(|(i, s)| (pid(i as u64), *s))
                .collect();
            let ranked = rank_by_score(&scored);
            prop_assert_eq!(ranked.len(), scored.len());
            let mut ids: Vec<u64> = ranked.iter().map(|p| p.raw()).collect();
            ids.sort_unstable();
            let expected: Vec<u64> = (0..scores.len() as u64).collect();
            prop_assert_eq!(ids, expected);
        }

        #[test]
        fn prop_scores_descend_along_ranking(
            scores in proptest::collection::vec(-10.0f64..10.0, 1..30)
        ) {
            let scored: Vec<(ProviderId, f64)> = scores
                .iter()
                .enumerate()
                .map(|(i, s)| (pid(i as u64), *s))
                .collect();
            let ranked = rank_by_score(&scored);
            let score_of = |id: ProviderId| scored.iter().find(|(p, _)| *p == id).unwrap().1;
            for pair in ranked.windows(2) {
                prop_assert!(score_of(pair[0]) >= score_of(pair[1]) - 1e-12);
            }
        }
    }
}
