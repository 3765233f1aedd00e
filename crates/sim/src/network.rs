//! Network latency model.
//!
//! All messages (query dispatch, result delivery) traverse the same simple
//! network: a fixed base latency plus exponentially-distributed jitter. This
//! is the part of SimJava the paper actually relied on — a way to make
//! communication take time — and it is deliberately symmetrical and
//! topology-free: allocation effects, not routing effects, are what the
//! scenarios study.

use sbqa_types::Duration;

use crate::config::NetworkConfig;
use crate::rng::SimRng;

/// Samples message latencies according to a [`NetworkConfig`].
#[derive(Debug, Clone)]
pub struct NetworkModel {
    config: NetworkConfig,
}

impl NetworkModel {
    /// Creates a model from its configuration.
    #[must_use]
    pub fn new(config: NetworkConfig) -> Self {
        Self { config }
    }

    /// The configuration in use.
    #[must_use]
    pub fn config(&self) -> &NetworkConfig {
        &self.config
    }

    /// Samples a one-way message latency.
    #[must_use]
    pub fn sample_latency(&self, rng: &mut SimRng) -> Duration {
        let jitter = if self.config.jitter_mean > 0.0 {
            rng.exponential(1.0 / self.config.jitter_mean)
        } else {
            0.0
        };
        Duration::new(self.config.base_latency + jitter)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn instantaneous_network_has_zero_latency() {
        let model = NetworkModel::new(NetworkConfig::instantaneous());
        let mut rng = SimRng::new(1);
        for _ in 0..10 {
            assert_eq!(model.sample_latency(&mut rng), Duration::ZERO);
        }
    }

    #[test]
    fn latency_is_at_least_the_base() {
        let model = NetworkModel::new(NetworkConfig {
            base_latency: 0.5,
            jitter_mean: 0.1,
        });
        let mut rng = SimRng::new(2);
        for _ in 0..100 {
            assert!(model.sample_latency(&mut rng).seconds() >= 0.5);
        }
    }

    #[test]
    fn mean_latency_approximates_base_plus_jitter() {
        let model = NetworkModel::new(NetworkConfig {
            base_latency: 0.1,
            jitter_mean: 0.2,
        });
        let mut rng = SimRng::new(3);
        let n = 20_000;
        let mean: f64 = (0..n)
            .map(|_| model.sample_latency(&mut rng).seconds())
            .sum::<f64>()
            / n as f64;
        assert!((mean - 0.3).abs() < 0.01, "mean latency {mean}");
    }

    #[test]
    fn config_accessor_round_trips() {
        let config = NetworkConfig {
            base_latency: 0.25,
            jitter_mean: 0.0,
        };
        let model = NetworkModel::new(config);
        assert_eq!(*model.config(), config);
    }
}
