//! The two deterministic intention oracles of the open-loop experiments.
//!
//! Both are pure functions of a seed and the ids involved, built on one
//! [`mix`]: [`HashIntentions`] draws a fresh preference per `(query,
//! provider)` pair — stateless, so shard threads share it freely — and
//! [`AdaptiveOracle`] fixes one per `(consumer, provider)` pair and blends a
//! load term into the provider's side, which is what closes the feedback
//! loop of the [`LoadFeedback`](crate::LoadFeedback) world.

use sbqa_core::allocator::IntentionOracle;
use sbqa_core::intention::load_to_intention;
use sbqa_types::{Intention, ProviderId, Query, SbqaError, SbqaResult};

use crate::provider::ProviderSpec;

/// SplitMix64's finalizer over `seed + salt + a·φ + b·ψ`: every seeded hash
/// of the open-loop experiments (both oracles, the registry churn).
#[must_use]
pub fn mix(seed: u64, salt: u64, a: u64, b: u64) -> u64 {
    let mut x = seed
        .wrapping_add(salt)
        .wrapping_add(a.wrapping_mul(0x9E37_79B9_7F4A_7C15))
        .wrapping_add(b.wrapping_mul(0xC2B2_AE3D_27D4_EB4F));
    x ^= x >> 30;
    x = x.wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x ^= x >> 27;
    x = x.wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^ (x >> 31)
}

/// [`mix`], its top 53 bits mapped into `[-1, 1]`.
fn mix_intention(seed: u64, salt: u64, a: u64, b: u64) -> Intention {
    let unit = (mix(seed, salt, a, b) >> 11) as f64 / (1u64 << 53) as f64;
    Intention::new(unit * 2.0 - 1.0)
}

/// A deterministic, thread-safe intention oracle for service-level runs:
/// intentions are a pure hash of `(seed, consumer-or-provider id, query id)`
/// mapped into `[-1, 1]`, so both fronts consult identical values without
/// sharing any mutable participant state across shard threads.
#[derive(Debug, Clone, Copy)]
pub struct HashIntentions {
    seed: u64,
}

impl HashIntentions {
    /// Creates an oracle for the given seed.
    #[must_use]
    pub fn new(seed: u64) -> Self {
        Self { seed }
    }
}

impl IntentionOracle for HashIntentions {
    fn consumer_intention(&self, query: &Query, provider: ProviderId) -> Intention {
        mix_intention(self.seed, 0x5151, query.id.raw(), provider.raw())
    }

    fn provider_intention(&self, provider: ProviderId, query: &Query) -> Intention {
        mix_intention(self.seed, 0xACAC, provider.raw(), query.id.raw())
    }
}

/// A deterministic oracle with **persistent mutual preferences** and
/// **load-blended provider intentions**.
///
/// * The consumer's intention towards a provider is a pure seeded hash of
///   `(consumer, provider)` in `[-1, 1]` — the same pair always answers the
///   same value, so preferences concentrate rather than wash out.
/// * The provider's intention blends its persistent preference for the
///   issuing consumer with a load term ([`load_to_intention`]) read from the
///   experiment's utilization mirror: an overloaded provider wants nothing,
///   however much it likes the consumer.
///
/// The mirror is a dense column over the id-sorted population, written
/// between batches through `&mut self` — which keeps the oracle on the
/// inline driver (the right front for satisfaction experiments, where
/// wall-clock interleaving is noise).
#[derive(Debug, Clone)]
pub struct AdaptiveOracle {
    seed: u64,
    /// Weight of the persistent preference in the provider blend, in
    /// `[0, 1]`; the remainder is the load term.
    preference_weight: f64,
    /// Backlog (virtual seconds) a provider considers acceptable.
    acceptable_backlog: f64,
    /// The population's ids, ascending; `utilization` is aligned with it.
    ids: Vec<ProviderId>,
    utilization: Vec<f64>,
}

impl AdaptiveOracle {
    /// Creates an oracle for the given seed and provider blend over
    /// `providers`.
    ///
    /// # Errors
    ///
    /// [`SbqaError::InvalidConfiguration`] unless `providers` is sorted by
    /// strictly ascending id (the mirror is looked up by binary search).
    pub fn new(
        seed: u64,
        preference_weight: f64,
        acceptable_backlog: f64,
        providers: &[ProviderSpec],
    ) -> SbqaResult<Self> {
        if !providers.windows(2).all(|pair| pair[0].id < pair[1].id) {
            return Err(SbqaError::invalid_config(
                "the adaptive oracle needs its providers in ascending id order",
            ));
        }
        Ok(Self {
            seed,
            preference_weight: preference_weight.clamp(0.0, 1.0),
            acceptable_backlog: if acceptable_backlog.is_finite() && acceptable_backlog > 0.0 {
                acceptable_backlog
            } else {
                1.0
            },
            ids: providers.iter().map(|spec| spec.id).collect(),
            utilization: vec![0.0; providers.len()],
        })
    }

    /// Size of the population the oracle was built over.
    #[must_use]
    pub fn population(&self) -> usize {
        self.ids.len()
    }

    /// A provider's position in the population it was built over.
    #[must_use]
    pub fn position(&self, provider: ProviderId) -> Option<usize> {
        self.ids.binary_search(&provider).ok()
    }

    /// Mirrors the current backlog (virtual seconds of queued work) of the
    /// provider at `position` into the oracle.
    pub fn set_utilization(&mut self, position: usize, backlog_seconds: f64) {
        self.utilization[position] = backlog_seconds.max(0.0);
    }
}

impl IntentionOracle for AdaptiveOracle {
    fn consumer_intention(&self, query: &Query, provider: ProviderId) -> Intention {
        mix_intention(self.seed, 0xC0A5, query.consumer.raw(), provider.raw())
    }

    fn provider_intention(&self, provider: ProviderId, query: &Query) -> Intention {
        let preference = mix_intention(self.seed, 0xF00D, provider.raw(), query.consumer.raw());
        let backlog = self
            .position(provider)
            .map_or(0.0, |position| self.utilization[position]);
        let load = load_to_intention(backlog, self.acceptable_backlog);
        preference.blend(load, 1.0 - self.preference_weight)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sbqa_core::intention::ProviderProfile;
    use sbqa_types::{Capability, CapabilitySet, ConsumerId, QueryId};

    fn query(id: u64, consumer: u64) -> Query {
        Query::builder(
            QueryId::new(id),
            ConsumerId::new(consumer),
            Capability::new(0),
        )
        .build()
    }

    #[test]
    fn hash_oracle_is_pure_and_in_range() {
        let oracle = HashIntentions::new(4);
        let q = query(3, 1);
        let a = oracle.consumer_intention(&q, ProviderId::new(8));
        let b = oracle.consumer_intention(&q, ProviderId::new(8));
        assert_eq!(a, b);
        // Different providers see different values (overwhelmingly likely).
        let c = oracle.consumer_intention(&q, ProviderId::new(9));
        assert_ne!(a, c);
        assert!((-1.0..=1.0).contains(&a.value()));
        assert!((-1.0..=1.0).contains(&oracle.provider_intention(ProviderId::new(8), &q).value()));
    }

    #[test]
    fn oracle_preferences_are_persistent_and_load_erodes_willingness() {
        let p = ProviderId::new(9);
        let spec = |id| {
            ProviderSpec::new(
                id,
                CapabilitySet::singleton(Capability::new(0)),
                1.0,
                ProviderProfile::default(),
            )
        };
        let mut oracle = AdaptiveOracle::new(5, 0.5, 2.0, &[spec(p)]).unwrap();

        // Persistent: two different queries from the same consumer see the
        // same mutual preference.
        assert_eq!(
            oracle.consumer_intention(&query(100, 1), p),
            oracle.consumer_intention(&query(777, 1), p)
        );
        let idle = oracle.provider_intention(p, &query(100, 1));
        oracle.set_utilization(oracle.position(p).unwrap(), 1e9);
        let slammed = oracle.provider_intention(p, &query(100, 1));
        assert!(slammed < idle, "load must erode willingness");
        // With weight 0.5 the load term has real authority: the drop is at
        // least half the idle-vs-refusing swing.
        assert!((idle.value() - slammed.value()) > 0.4);

        // The mirror is a binary search over ascending ids.
        let unsorted = [spec(ProviderId::new(2)), spec(ProviderId::new(1))];
        assert!(AdaptiveOracle::new(5, 0.5, 2.0, &unsorted).is_err());
    }
}
