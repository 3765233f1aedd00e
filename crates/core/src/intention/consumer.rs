//! Consumer-side intention strategies.
//!
//! A consumer's intention `CIq[p]` expresses how much it wants its query `q`
//! to be performed by provider `p`. The paper's examples are preferences
//! based on reputation or expected quality of service; Scenario 5 switches
//! consumers to caring only about response times.

use std::collections::BTreeMap;

use sbqa_types::{Intention, ProviderId};

use super::load_to_intention;
use crate::allocator::ProviderSnapshot;

/// How a consumer derives its intention towards a provider.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub enum ConsumerIntentionStrategy {
    /// Intention is the consumer's static preference for the provider
    /// (reputation, trust, past experience). This is the default behaviour
    /// in the BOINC scenarios.
    #[default]
    Preference,
    /// Intention depends only on the provider's current load: the less
    /// utilized the provider, the sooner the results, the higher the
    /// intention (Scenario 5 consumers).
    ResponseTimeDriven {
        /// Backlog (in virtual seconds) the consumer considers acceptable.
        acceptable_backlog: f64,
    },
    /// Blend of preference and expected response time.
    /// `preference_weight = 1` degenerates to [`Self::Preference`],
    /// `0` to pure response-time-driven behaviour.
    Hybrid {
        /// Weight of the static preference in `[0, 1]`.
        preference_weight: f64,
        /// Backlog (in virtual seconds) the consumer considers acceptable.
        acceptable_backlog: f64,
    },
}

/// A consumer's intention-producing profile.
#[derive(Debug, Clone, PartialEq)]
pub struct ConsumerProfile {
    /// The strategy used to combine the signals below.
    pub strategy: ConsumerIntentionStrategy,
    preferences: BTreeMap<ProviderId, Intention>,
    default_preference: Intention,
}

impl Default for ConsumerProfile {
    fn default() -> Self {
        Self::new(ConsumerIntentionStrategy::Preference, Intention::NEUTRAL)
    }
}

impl ConsumerProfile {
    /// Creates a profile with the given strategy and default preference for
    /// providers that have no explicit entry.
    #[must_use]
    pub fn new(strategy: ConsumerIntentionStrategy, default_preference: Intention) -> Self {
        Self {
            strategy,
            preferences: BTreeMap::new(),
            default_preference,
        }
    }

    /// Sets the static preference towards one provider.
    pub fn set_preference(&mut self, provider: ProviderId, preference: Intention) {
        self.preferences.insert(provider, preference);
    }

    /// Builder-style version of [`ConsumerProfile::set_preference`].
    #[must_use]
    pub fn with_preference(mut self, provider: ProviderId, preference: Intention) -> Self {
        self.set_preference(provider, preference);
        self
    }

    /// The static preference towards a provider (falling back to the default).
    #[must_use]
    fn preference_for(&self, provider: ProviderId) -> Intention {
        self.preferences
            .get(&provider)
            .copied()
            .unwrap_or(self.default_preference)
    }

    /// Number of providers with an explicit preference.
    #[must_use]
    pub fn explicit_preferences(&self) -> usize {
        self.preferences.len()
    }

    /// Computes the intention `CIq[p]` towards the provider described by
    /// `snapshot`, given the chosen strategy.
    #[must_use]
    pub fn intention_for(&self, snapshot: &ProviderSnapshot) -> Intention {
        let preference = self.preference_for(snapshot.id);
        match self.strategy {
            ConsumerIntentionStrategy::Preference => preference,
            ConsumerIntentionStrategy::ResponseTimeDriven { acceptable_backlog } => {
                load_to_intention(snapshot.utilization, acceptable_backlog)
            }
            ConsumerIntentionStrategy::Hybrid {
                preference_weight,
                acceptable_backlog,
            } => {
                let load = load_to_intention(snapshot.utilization, acceptable_backlog);
                // blend(a, b, t) returns a when t = 0, so t is the weight of
                // the *load* signal.
                preference.blend(load, 1.0 - preference_weight.clamp(0.0, 1.0))
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sbqa_types::CapabilitySet;

    fn snapshot(id: u64, utilization: f64) -> ProviderSnapshot {
        ProviderSnapshot {
            id: ProviderId::new(id),
            capabilities: CapabilitySet::ALL,
            capacity: 1.0,
            utilization,
            queue_length: 0,
            online: true,
        }
    }

    #[test]
    fn preference_strategy_reads_the_preference_map() {
        let profile =
            ConsumerProfile::new(ConsumerIntentionStrategy::Preference, Intention::new(-0.2))
                .with_preference(ProviderId::new(1), Intention::new(0.9));

        assert_eq!(
            profile.intention_for(&snapshot(1, 100.0)),
            Intention::new(0.9),
            "preference-driven consumers ignore load"
        );
        assert_eq!(
            profile.intention_for(&snapshot(2, 0.0)),
            Intention::new(-0.2),
            "unknown providers get the default preference"
        );
        assert_eq!(profile.explicit_preferences(), 1);
    }

    #[test]
    fn response_time_strategy_prefers_idle_providers() {
        let profile = ConsumerProfile::new(
            ConsumerIntentionStrategy::ResponseTimeDriven {
                acceptable_backlog: 2.0,
            },
            Intention::new(0.9),
        );
        let idle = profile.intention_for(&snapshot(1, 0.0));
        let busy = profile.intention_for(&snapshot(1, 10.0));
        assert_eq!(idle, Intention::MAX);
        assert!(busy < idle);
        assert!(busy.value() < 0.0);
    }

    #[test]
    fn hybrid_strategy_interpolates_between_signals() {
        let mut profile = ConsumerProfile::new(
            ConsumerIntentionStrategy::Hybrid {
                preference_weight: 0.5,
                acceptable_backlog: 1.0,
            },
            Intention::NEUTRAL,
        );
        profile.set_preference(ProviderId::new(1), Intention::new(1.0));

        // Idle provider: both signals are +1.
        assert_eq!(profile.intention_for(&snapshot(1, 0.0)), Intention::MAX);
        // Heavily loaded provider: load signal ≈ -1, preference = +1, blend ≈ 0.
        let loaded = profile.intention_for(&snapshot(1, 1e9));
        assert!(loaded.value().abs() < 0.01);

        // preference_weight = 1 behaves exactly like Preference.
        let pure = ConsumerProfile::new(
            ConsumerIntentionStrategy::Hybrid {
                preference_weight: 1.0,
                acceptable_backlog: 1.0,
            },
            Intention::new(0.4),
        );
        assert_eq!(pure.intention_for(&snapshot(3, 1e9)), Intention::new(0.4));
    }

    #[test]
    fn default_profile_is_neutral_preference() {
        let profile = ConsumerProfile::default();
        assert_eq!(profile.intention_for(&snapshot(1, 0.0)), Intention::NEUTRAL);
    }
}
