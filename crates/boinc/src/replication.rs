//! Result-validation replication.
//!
//! "As providers may be malicious, consumers may create several instances of
//! a query so as to validate results returned by providers." This module
//! captures that sizing decision: given the expected fraction of malicious
//! volunteers and the desired confidence that a majority of the returned
//! results is honest, how many replicas (`q.n`) should a project request?
//!
//! The model is deliberately simple — independent malicious volunteers, a
//! majority vote over replicas — because allocation behaviour, not Byzantine
//! fault tolerance, is what the scenarios study.

use serde::{Deserialize, Serialize};

/// A project's replication policy.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub enum ReplicationPolicy {
    /// Always use a fixed number of replicas.
    Fixed(usize),
    /// Choose the smallest odd number of replicas such that the probability
    /// of a malicious majority stays below `failure_probability`, assuming
    /// each replica lands on a malicious volunteer independently with
    /// probability `malicious_fraction`.
    MajorityVote {
        /// Fraction of malicious volunteers in the population.
        malicious_fraction: f64,
        /// Acceptable probability that the vote is corrupted.
        failure_probability: f64,
        /// Upper bound on replicas (resource budget).
        max_replicas: usize,
    },
}

impl Default for ReplicationPolicy {
    fn default() -> Self {
        ReplicationPolicy::Fixed(1)
    }
}

impl ReplicationPolicy {
    /// The number of replicas (`q.n`) this policy requests.
    #[must_use]
    pub fn replicas(&self) -> usize {
        match *self {
            ReplicationPolicy::Fixed(n) => n.max(1),
            ReplicationPolicy::MajorityVote {
                malicious_fraction,
                failure_probability,
                max_replicas,
            } => {
                let p = if malicious_fraction.is_finite() {
                    malicious_fraction.clamp(0.0, 1.0)
                } else {
                    0.0
                };
                let target = if failure_probability.is_finite() {
                    failure_probability.clamp(0.0, 1.0)
                } else {
                    0.0
                };
                let max_replicas = max_replicas.max(1);
                if p == 0.0 {
                    return 1;
                }
                if p >= 0.5 {
                    // A majority vote cannot help when most volunteers are
                    // malicious; fall back to the budget cap.
                    return max_replicas;
                }
                let mut n = 1usize;
                while n <= max_replicas {
                    if corrupted_majority_probability(n, p) <= target {
                        return n;
                    }
                    n += 2; // keep the replica count odd so votes cannot tie
                }
                max_replicas
            }
        }
    }
}

/// Probability that at least ⌈(n+1)/2⌉ of `n` independent replicas are
/// malicious when each is malicious with probability `p`.
#[must_use]
fn corrupted_majority_probability(n: usize, p: f64) -> f64 {
    if n == 0 {
        return 1.0;
    }
    let p = p.clamp(0.0, 1.0);
    let needed = n / 2 + 1;
    let mut total = 0.0;
    for k in needed..=n {
        total += binomial(n, k) * p.powi(k as i32) * (1.0 - p).powi((n - k) as i32);
    }
    total.clamp(0.0, 1.0)
}

fn binomial(n: usize, k: usize) -> f64 {
    if k > n {
        return 0.0;
    }
    let k = k.min(n - k);
    let mut result = 1.0;
    for i in 0..k {
        result = result * (n - i) as f64 / (i + 1) as f64;
    }
    result
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn fixed_policy_returns_at_least_one() {
        assert_eq!(ReplicationPolicy::Fixed(0).replicas(), 1);
        assert_eq!(ReplicationPolicy::Fixed(3).replicas(), 3);
        assert_eq!(ReplicationPolicy::default().replicas(), 1);
    }

    #[test]
    fn corrupted_majority_probability_known_values() {
        // One replica: corrupted with probability p.
        assert!((corrupted_majority_probability(1, 0.1) - 0.1).abs() < 1e-12);
        // Three replicas, p = 0.1: P(≥2 malicious) = 3·0.01·0.9 + 0.001 = 0.028.
        assert!((corrupted_majority_probability(3, 0.1) - 0.028).abs() < 1e-12);
        // No malicious volunteers: never corrupted.
        assert_eq!(corrupted_majority_probability(5, 0.0), 0.0);
        // Zero replicas: trivially corrupted.
        assert_eq!(corrupted_majority_probability(0, 0.1), 1.0);
    }

    #[test]
    fn majority_vote_policy_scales_with_threat() {
        let low_threat = ReplicationPolicy::MajorityVote {
            malicious_fraction: 0.01,
            failure_probability: 0.05,
            max_replicas: 15,
        };
        let high_threat = ReplicationPolicy::MajorityVote {
            malicious_fraction: 0.2,
            failure_probability: 0.01,
            max_replicas: 15,
        };
        assert!(low_threat.replicas() <= high_threat.replicas());
        assert_eq!(low_threat.replicas() % 2, 1, "replica counts stay odd");
    }

    #[test]
    fn majority_vote_handles_degenerate_parameters() {
        // No malicious volunteers: one replica suffices.
        let none = ReplicationPolicy::MajorityVote {
            malicious_fraction: 0.0,
            failure_probability: 0.01,
            max_replicas: 9,
        };
        assert_eq!(none.replicas(), 1);
        // Majority malicious: give up and use the budget cap.
        let hopeless = ReplicationPolicy::MajorityVote {
            malicious_fraction: 0.6,
            failure_probability: 0.01,
            max_replicas: 9,
        };
        assert_eq!(hopeless.replicas(), 9);
        // Impossible target within the budget: capped.
        let strict = ReplicationPolicy::MajorityVote {
            malicious_fraction: 0.4,
            failure_probability: 1e-12,
            max_replicas: 5,
        };
        assert_eq!(strict.replicas(), 5);
        // NaN inputs do not panic.
        let nan = ReplicationPolicy::MajorityVote {
            malicious_fraction: f64::NAN,
            failure_probability: f64::NAN,
            max_replicas: 3,
        };
        assert!(nan.replicas() >= 1);
    }

    proptest! {
        #[test]
        fn prop_probability_in_unit_interval(n in 1usize..20, p in 0.0f64..=1.0) {
            let prob = corrupted_majority_probability(n, p);
            prop_assert!((0.0..=1.0).contains(&prob));
        }

        #[test]
        fn prop_more_replicas_never_hurt_below_half(p in 0.0f64..0.49) {
            // With p < 0.5, growing an odd replica count cannot increase the
            // corruption probability.
            let three = corrupted_majority_probability(3, p);
            let five = corrupted_majority_probability(5, p);
            let seven = corrupted_majority_probability(7, p);
            prop_assert!(five <= three + 1e-12);
            prop_assert!(seven <= five + 1e-12);
        }

        #[test]
        fn prop_policy_respects_budget(p in 0.0f64..=1.0, target in 0.0f64..=1.0, max in 1usize..20) {
            let policy = ReplicationPolicy::MajorityVote {
                malicious_fraction: p,
                failure_probability: target,
                max_replicas: max,
            };
            let n = policy.replicas();
            prop_assert!(n >= 1 && n <= max.max(1));
        }
    }
}
