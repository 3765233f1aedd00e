//! Simulation configuration.

use sbqa_satisfaction::{ConsumerSatisfaction, ProviderView};
use sbqa_types::{Duration, SbqaError, SbqaResult, SystemConfig};

/// Network latency model parameters.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct NetworkConfig {
    /// Fixed one-way latency added to every message, in virtual seconds.
    pub base_latency: f64,
    /// Mean of the exponential jitter added on top of the base latency.
    pub jitter_mean: f64,
}

impl Default for NetworkConfig {
    fn default() -> Self {
        Self {
            base_latency: 0.05,
            jitter_mean: 0.02,
        }
    }
}

impl NetworkConfig {
    /// A zero-latency network, useful for tests that want to reason about
    /// service times alone.
    #[must_use]
    pub const fn instantaneous() -> Self {
        Self {
            base_latency: 0.0,
            jitter_mean: 0.0,
        }
    }

    /// Validates the parameters.
    pub fn validate(&self) -> SbqaResult<()> {
        if !self.base_latency.is_finite() || self.base_latency < 0.0 {
            return Err(SbqaError::invalid_config(
                "network base latency must be a non-negative finite number",
            ));
        }
        if !self.jitter_mean.is_finite() || self.jitter_mean < 0.0 {
            return Err(SbqaError::invalid_config(
                "network jitter mean must be a non-negative finite number",
            ));
        }
        Ok(())
    }
}

/// Whether (and when) participants may leave the system.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub enum DeparturePolicy {
    /// Captive environment (Scenarios 1 and 3): participants cannot leave.
    #[default]
    Captive,
    /// Autonomous environment (Scenarios 2 and 4): a participant departs for
    /// good as soon as its satisfaction falls below its threshold, provided
    /// it has accumulated at least `min_interactions` interactions (so a
    /// single unlucky first mediation does not expel a newcomer). One rule
    /// for both loops: [`consumer_leaves`](Self::consumer_leaves) and
    /// [`provider_leaves`](Self::provider_leaves).
    Autonomous {
        /// Consumers leave below this satisfaction (the paper uses 0.5).
        consumer_threshold: f64,
        /// Providers leave below this satisfaction (the paper uses 0.35).
        provider_threshold: f64,
        /// Minimum number of recorded interactions before the rule applies.
        min_interactions: usize,
    },
}

impl DeparturePolicy {
    /// The autonomous policy with the thresholds stated in the paper
    /// (providers leave below 0.35, consumers below 0.5).
    #[must_use]
    pub const fn paper_autonomous() -> Self {
        DeparturePolicy::Autonomous {
            consumer_threshold: 0.5,
            provider_threshold: 0.35,
            min_interactions: 10,
        }
    }

    /// `true` if participants may leave.
    #[must_use]
    pub const fn is_autonomous(&self) -> bool {
        matches!(self, DeparturePolicy::Autonomous { .. })
    }

    /// `true` if a consumer with this history leaves: it has seen at least
    /// `min_interactions` queries — capped at its window, so a window shorter
    /// than the protection cannot make departure impossible — and its
    /// satisfaction is below `consumer_threshold`. Never under `Captive`.
    #[must_use]
    pub fn consumer_leaves(&self, tracker: &ConsumerSatisfaction) -> bool {
        match *self {
            DeparturePolicy::Captive => false,
            DeparturePolicy::Autonomous {
                consumer_threshold,
                min_interactions,
                ..
            } => {
                tracker.observed_queries() >= min_interactions.min(tracker.window_size())
                    && tracker.satisfaction().is_below(consumer_threshold)
            }
        }
    }

    /// The same rule for a provider, over the proposals it has seen and
    /// `provider_threshold`.
    #[must_use]
    pub fn provider_leaves(&self, tracker: ProviderView<'_>) -> bool {
        match *self {
            DeparturePolicy::Captive => false,
            DeparturePolicy::Autonomous {
                provider_threshold,
                min_interactions,
                ..
            } => {
                tracker.observed_proposals() >= min_interactions.min(tracker.window_size())
                    && tracker.satisfaction().is_below(provider_threshold)
            }
        }
    }

    /// Validates thresholds.
    pub fn validate(&self) -> SbqaResult<()> {
        if let DeparturePolicy::Autonomous {
            consumer_threshold,
            provider_threshold,
            ..
        } = self
        {
            for (label, value) in [
                ("consumer", consumer_threshold),
                ("provider", provider_threshold),
            ] {
                if !value.is_finite() || !(0.0..=1.0).contains(value) {
                    return Err(SbqaError::invalid_config(format!(
                        "{label} departure threshold must lie in [0, 1], got {value}"
                    )));
                }
            }
        }
        Ok(())
    }
}

/// Full configuration of a simulation run.
#[derive(Debug, Clone, PartialEq)]
pub struct SimulationConfig {
    /// Mediator / allocation configuration (KnBest parameters, ω policy,
    /// satisfaction window).
    pub system: SystemConfig,
    /// Length of the run in virtual seconds.
    pub duration: f64,
    /// Interval between metric samples (and departure checks), in virtual
    /// seconds.
    pub sample_interval: f64,
    /// Network latency model.
    pub network: NetworkConfig,
    /// Departure policy (captive vs autonomous).
    pub departure: DeparturePolicy,
    /// Master seed for all random streams.
    pub seed: u64,
}

impl Default for SimulationConfig {
    fn default() -> Self {
        Self {
            system: SystemConfig::default(),
            duration: 1_000.0,
            sample_interval: 10.0,
            network: NetworkConfig::default(),
            departure: DeparturePolicy::Captive,
            seed: 42,
        }
    }
}

impl SimulationConfig {
    /// Validates every component of the configuration.
    pub fn validate(&self) -> SbqaResult<()> {
        self.system.validate()?;
        self.network.validate()?;
        self.departure.validate()?;
        if !self.duration.is_finite() || self.duration <= 0.0 {
            return Err(SbqaError::invalid_config(
                "simulation duration must be a positive finite number of virtual seconds",
            ));
        }
        if !self.sample_interval.is_finite() || self.sample_interval <= 0.0 {
            return Err(SbqaError::invalid_config(
                "sample interval must be a positive finite number of virtual seconds",
            ));
        }
        Ok(())
    }

    /// The run length as a [`Duration`].
    #[must_use]
    pub fn run_length(&self) -> Duration {
        Duration::new(self.duration)
    }

    /// Builder-style seed override.
    #[must_use]
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Builder-style system-configuration override.
    #[must_use]
    pub fn with_system(mut self, system: SystemConfig) -> Self {
        self.system = system;
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sbqa_satisfaction::SatisfactionRegistry;
    use sbqa_types::{ConsumerId, Intention, ProviderId, QueryId};

    #[test]
    fn default_configuration_is_valid() {
        SimulationConfig::default().validate().unwrap();
    }

    #[test]
    fn network_validation_rejects_bad_latencies() {
        NetworkConfig::default().validate().unwrap();
        NetworkConfig::instantaneous().validate().unwrap();
        assert!(NetworkConfig {
            base_latency: -1.0,
            jitter_mean: 0.0
        }
        .validate()
        .is_err());
        assert!(NetworkConfig {
            base_latency: 0.0,
            jitter_mean: f64::NAN
        }
        .validate()
        .is_err());
    }

    #[test]
    fn departure_policy_validation() {
        DeparturePolicy::Captive.validate().unwrap();
        DeparturePolicy::paper_autonomous().validate().unwrap();
        assert!(DeparturePolicy::paper_autonomous().is_autonomous());
        assert!(!DeparturePolicy::Captive.is_autonomous());
        assert!(DeparturePolicy::Autonomous {
            consumer_threshold: 1.5,
            provider_threshold: 0.35,
            min_interactions: 5
        }
        .validate()
        .is_err());
        assert!(DeparturePolicy::Autonomous {
            consumer_threshold: 0.5,
            provider_threshold: -0.1,
            min_interactions: 5
        }
        .validate()
        .is_err());
    }

    #[test]
    fn simulation_validation_rejects_degenerate_durations() {
        let bad = SimulationConfig {
            duration: 0.0,
            ..SimulationConfig::default()
        };
        assert!(bad.validate().is_err());
        let bad = SimulationConfig {
            sample_interval: -1.0,
            ..SimulationConfig::default()
        };
        assert!(bad.validate().is_err());
    }

    #[test]
    fn builder_overrides_apply() {
        let cfg = SimulationConfig {
            duration: 100.0,
            departure: DeparturePolicy::paper_autonomous(),
            ..SimulationConfig::default()
        }
        .with_seed(7);
        assert_eq!(cfg.seed, 7);
        assert_eq!(cfg.duration, 100.0);
        assert!(cfg.departure.is_autonomous());
        assert_eq!(cfg.run_length().seconds(), 100.0);
    }

    fn autonomous(min_interactions: usize) -> DeparturePolicy {
        DeparturePolicy::Autonomous {
            consumer_threshold: 0.5,
            provider_threshold: 0.35,
            min_interactions,
        }
    }

    /// A registry of window `window` in which consumer 1 and provider 1
    /// went through `n` mediations, every intention `intention`.
    fn history(window: usize, n: u64, intention: f64) -> SatisfactionRegistry {
        let mut registry = SatisfactionRegistry::new(window);
        for i in 0..n {
            registry.record_mediation(
                QueryId::new(i),
                ConsumerId::new(1),
                1,
                &[(ProviderId::new(1), Intention::new(intention))],
                &[(ProviderId::new(1), Intention::new(intention), true)],
            );
        }
        registry
    }

    /// Both predicates for participant 1, as the loops call them.
    fn leaves(policy: DeparturePolicy, registry: &SatisfactionRegistry) -> (bool, bool) {
        (
            policy.consumer_leaves(registry.consumer(ConsumerId::new(1)).unwrap()),
            policy.provider_leaves(registry.provider(ProviderId::new(1)).unwrap()),
        )
    }

    #[test]
    fn captive_participants_never_leave() {
        let registry = history(10, 20, -1.0);
        assert_eq!(leaves(DeparturePolicy::Captive, &registry), (false, false));
    }

    #[test]
    fn dissatisfied_participants_leave_in_autonomous_mode() {
        let registry = history(10, 20, -1.0);
        assert_eq!(leaves(autonomous(5), &registry), (true, true));
    }

    #[test]
    fn newcomers_are_protected_by_min_interactions() {
        let registry = history(10, 3, -1.0);
        assert_eq!(leaves(autonomous(10), &registry), (false, false));
    }

    #[test]
    fn satisfied_participants_stay() {
        let registry = history(10, 20, 1.0);
        assert_eq!(leaves(autonomous(5), &registry), (false, false));
    }

    #[test]
    fn min_interactions_above_the_window_still_lets_a_participant_leave() {
        // A window of 10 never holds 50 interactions: the protection is
        // capped at the window, or nobody could ever leave.
        let registry = history(10, 20, -1.0);
        assert_eq!(leaves(autonomous(50), &registry), (true, true));
        let newcomer = history(10, 9, -1.0);
        assert_eq!(leaves(autonomous(50), &newcomer), (false, false));
    }

    #[test]
    fn unknown_participants_without_history_are_skipped() {
        // The loops ask the registry first; a participant it does not know
        // has no tracker and is never handed to the rule.
        let registry = SatisfactionRegistry::new(10);
        let policy = autonomous(0);
        assert!(!registry
            .consumer(ConsumerId::new(9))
            .is_some_and(|tracker| policy.consumer_leaves(tracker)));
        assert!(!registry
            .provider(ProviderId::new(9))
            .is_some_and(|tracker| policy.provider_leaves(tracker)));
    }

    #[test]
    fn paper_autonomous_matches_scenario_thresholds() {
        match DeparturePolicy::paper_autonomous() {
            DeparturePolicy::Autonomous {
                consumer_threshold,
                provider_threshold,
                ..
            } => {
                assert_eq!(consumer_threshold, 0.5);
                assert_eq!(provider_threshold, 0.35);
            }
            DeparturePolicy::Captive => panic!("expected autonomous policy"),
        }
    }
}
