//! Provider-side intention strategies.
//!
//! A provider's intention `PIq[p]` expresses how much it wants to perform a
//! query. The paper's running example is a volunteer that prefers some
//! projects over others (the BOINC resource shares); Scenario 5 switches
//! providers to caring only about their own load, and the SQLB framework more
//! generally lets a provider *trade its preferences for its utilization*.

use std::collections::BTreeMap;

use serde::{Deserialize, Serialize};

use sbqa_types::{ConsumerId, Intention, Query, QueryClass};

use super::load_to_intention;

/// How a provider derives its intention towards a query.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize, Default)]
pub enum ProviderIntentionStrategy {
    /// Intention is the provider's static preference for the issuing
    /// consumer (and, secondarily, the query class).
    #[default]
    Preference,
    /// Intention depends only on the provider's own current load
    /// (Scenario 5 providers): idle providers want work, overloaded
    /// providers refuse it.
    LoadDriven {
        /// Backlog (in virtual seconds) the provider considers acceptable.
        acceptable_backlog: f64,
    },
    /// Blend of preference and load — the provider "trades its preferences
    /// for its utilization". `preference_weight = 1` is pure preference,
    /// `0` pure load.
    Hybrid {
        /// Weight of the static preference in `[0, 1]`.
        preference_weight: f64,
        /// Backlog (in virtual seconds) the provider considers acceptable.
        acceptable_backlog: f64,
    },
}

/// A provider's intention-producing profile.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ProviderProfile {
    /// The strategy used to combine the signals below.
    pub strategy: ProviderIntentionStrategy,
    consumer_preferences: BTreeMap<ConsumerId, Intention>,
    class_preferences: BTreeMap<QueryClass, Intention>,
    default_preference: Intention,
}

impl Default for ProviderProfile {
    fn default() -> Self {
        Self::new(ProviderIntentionStrategy::Preference, Intention::NEUTRAL)
    }
}

impl ProviderProfile {
    /// Creates a profile with the given strategy and default preference for
    /// consumers without an explicit entry.
    #[must_use]
    pub fn new(strategy: ProviderIntentionStrategy, default_preference: Intention) -> Self {
        Self {
            strategy,
            consumer_preferences: BTreeMap::new(),
            class_preferences: BTreeMap::new(),
            default_preference,
        }
    }

    /// Sets the preference towards queries issued by one consumer.
    pub fn set_consumer_preference(&mut self, consumer: ConsumerId, preference: Intention) {
        self.consumer_preferences.insert(consumer, preference);
    }

    /// Builder-style version of [`ProviderProfile::set_consumer_preference`].
    #[must_use]
    pub fn with_consumer_preference(mut self, consumer: ConsumerId, preference: Intention) -> Self {
        self.set_consumer_preference(consumer, preference);
        self
    }

    /// Adds a preference for a class of queries (e.g. a volunteer that
    /// dislikes long work units). Class preferences are averaged with the
    /// consumer preference when present.
    #[must_use]
    pub fn with_class_preference(mut self, class: QueryClass, preference: Intention) -> Self {
        self.class_preferences.insert(class, preference);
        self
    }

    /// The static preference component for a query.
    #[must_use]
    pub fn preference_for(&self, query: &Query) -> Intention {
        let consumer_pref = self
            .consumer_preferences
            .get(&query.consumer)
            .copied()
            .unwrap_or(self.default_preference);
        match self.class_preferences.get(&query.class) {
            Some(class_pref) => Intention::mean(&[consumer_pref, *class_pref]),
            None => consumer_pref,
        }
    }

    /// Number of consumers with an explicit preference.
    #[must_use]
    pub fn explicit_preferences(&self) -> usize {
        self.consumer_preferences.len()
    }

    /// Computes the intention `PIq[p]` towards `query`, given the provider's
    /// current utilization (virtual seconds of queued work).
    #[must_use]
    pub fn intention_for(&self, query: &Query, utilization: f64) -> Intention {
        let preference = self.preference_for(query);
        match self.strategy {
            ProviderIntentionStrategy::Preference => preference,
            ProviderIntentionStrategy::LoadDriven { acceptable_backlog } => {
                load_to_intention(utilization, acceptable_backlog)
            }
            ProviderIntentionStrategy::Hybrid {
                preference_weight,
                acceptable_backlog,
            } => {
                let load = load_to_intention(utilization, acceptable_backlog);
                preference.blend(load, 1.0 - preference_weight.clamp(0.0, 1.0))
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sbqa_types::{Capability, QueryId};

    fn query(consumer: u64, class: QueryClass) -> Query {
        Query::builder(
            QueryId::new(1),
            ConsumerId::new(consumer),
            Capability::new(0),
        )
        .class(class)
        .build()
    }

    #[test]
    fn preference_strategy_uses_consumer_preferences() {
        let profile =
            ProviderProfile::new(ProviderIntentionStrategy::Preference, Intention::new(-0.3))
                .with_consumer_preference(ConsumerId::new(1), Intention::new(0.8));

        assert_eq!(
            profile.intention_for(&query(1, QueryClass::Medium), 1e9),
            Intention::new(0.8),
            "pure preference ignores load"
        );
        assert_eq!(
            profile.intention_for(&query(9, QueryClass::Medium), 0.0),
            Intention::new(-0.3)
        );
        assert_eq!(profile.explicit_preferences(), 1);
    }

    #[test]
    fn class_preference_is_averaged_in() {
        let profile = ProviderProfile::new(ProviderIntentionStrategy::Preference, Intention::MAX)
            .with_class_preference(QueryClass::Long, Intention::MIN);
        // Consumer preference +1, long-query preference -1: averaged to 0.
        assert_eq!(
            profile.intention_for(&query(1, QueryClass::Long), 0.0),
            Intention::NEUTRAL
        );
        // Classes without an entry keep the plain consumer preference.
        assert_eq!(
            profile.intention_for(&query(1, QueryClass::Short), 0.0),
            Intention::MAX
        );
    }

    #[test]
    fn load_driven_strategy_refuses_when_overloaded() {
        let profile = ProviderProfile::new(
            ProviderIntentionStrategy::LoadDriven {
                acceptable_backlog: 2.0,
            },
            Intention::MAX,
        );
        let q = query(1, QueryClass::Medium);
        assert_eq!(profile.intention_for(&q, 0.0), Intention::MAX);
        assert!(profile.intention_for(&q, 50.0).value() < -0.8);
    }

    #[test]
    fn hybrid_strategy_trades_preference_for_utilization() {
        let profile = ProviderProfile::new(
            ProviderIntentionStrategy::Hybrid {
                preference_weight: 0.5,
                acceptable_backlog: 1.0,
            },
            Intention::MAX,
        );
        let q = query(1, QueryClass::Medium);
        let idle = profile.intention_for(&q, 0.0);
        let busy = profile.intention_for(&q, 1e9);
        assert_eq!(idle, Intention::MAX);
        // Preference +1 and load ≈ -1 blend to ≈ 0: still more willing than a
        // provider that hates the consumer, less than an idle one.
        assert!(busy < idle);
        assert!(busy.value().abs() < 0.01);
    }

    #[test]
    fn default_profile_is_neutral() {
        let profile = ProviderProfile::default();
        assert_eq!(
            profile.intention_for(&query(1, QueryClass::Medium), 0.0),
            Intention::NEUTRAL
        );
    }
}
