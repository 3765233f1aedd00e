//! Property tests pinning the candidate-plan cache to its specification:
//! resolution through the cache must be *observably identical* to a
//! brute-force filter of the slab, for any population, churn history and
//! requirement sequence — the cache may only change how fast an answer
//! arrives, never the answer.
//!
//! Three layers are pinned:
//!
//! * the registry layer — `candidates` through a roomy cache and through a
//!   one-plan (thrashing) cache equals the brute-force slab filter, with
//!   churn interleaved *between* probes so hit, stale-rebuild, miss and
//!   eviction paths all execute;
//! * the LRU layer — a requirement working set larger than the cache
//!   capacity (evictions on every probe) stays correct;
//! * populous class lists — about 10 000 providers in one 2^16-id chunk,
//!   where every mentioned class keeps bitset words and one holds more than
//!   [`ARRAY_MAX`] keys: a cold miss, a warm hit, a stale rebuild and
//!   evictions each answer like the slab filter and count as what they are;
//! * the mediation layer — full `submit_batch` mediation with the default
//!   cache and with a one-plan cache is decision-for-decision and
//!   satisfaction-bit-for-bit identical to a [`Reference`] step that shares
//!   none of the resolution path: no postings, no merge kernel, no cache.

use proptest::prelude::*;

use sbqa_core::postings::{ARRAY_MAX, WORDS_MIN};
use sbqa_core::{
    AllocationDecision, Candidates, Mediator, PlanCacheStats, ProviderRegistry, ProviderSnapshot,
    QueryAllocator, SbqaAllocator, StaticIntentions,
};
use sbqa_satisfaction::SatisfactionRegistry;
use sbqa_types::{
    Capability, CapabilityRequirement, CapabilitySet, ConsumerId, Intention, ProviderId, Query,
    QueryId, SystemConfig,
};

/// Capability classes the generated populations draw from.
const CLASSES: u8 = 6;

fn capability_set(mask: u8) -> CapabilitySet {
    CapabilitySet::from_capabilities(
        (0..CLASSES)
            .filter(|class| mask & (1 << class) != 0)
            .map(Capability::new),
    )
}

fn requirement(mask: u8, conjunctive: bool) -> CapabilityRequirement {
    let set = capability_set(mask);
    if conjunctive {
        CapabilityRequirement::All(set)
    } else {
        CapabilityRequirement::Any(set)
    }
}

fn query(req: CapabilityRequirement) -> Query {
    Query::requiring(QueryId::new(1), ConsumerId::new(1), req).build()
}

/// The specification: filter the whole slab with `can_perform`, sort by id.
fn brute_force(registry: &ProviderRegistry, req: CapabilityRequirement) -> Vec<u64> {
    let q = query(req);
    let mut ids: Vec<u64> = registry
        .iter()
        .filter(|p| p.can_perform(&q))
        .map(|p| p.id.raw())
        .collect();
    ids.sort_unstable();
    ids
}

fn resolve(registry: &mut ProviderRegistry, req: CapabilityRequirement) -> Vec<u64> {
    registry
        .candidates(&query(req))
        .iter()
        .map(|p| p.id.raw())
        .collect()
}

/// One interleaved churn step against both registries.
#[derive(Debug, Clone, Copy)]
enum Churn {
    Register(u64, u8),
    Unregister(u64),
    SetOnline(u64, bool),
    UpdateLoad(u64, u8),
}

/// Raw churn encoding for the minimal vendored proptest (no `prop_oneof`):
/// (kind, provider id, capability mask / load, online flag).
type RawChurn = (u8, u64, u8, bool);

fn churn_strategy() -> impl Strategy<Value = RawChurn> {
    (0u8..4, 0u64..40, 1u8..64, proptest::bool::ANY)
}

fn decode((kind, id, mask, online): RawChurn) -> Churn {
    match kind {
        0 => Churn::Register(id, mask),
        1 => Churn::Unregister(id),
        2 => Churn::SetOnline(id, online),
        _ => Churn::UpdateLoad(id, mask % 20),
    }
}

fn apply(registry: &mut ProviderRegistry, churn: Churn) {
    match churn {
        Churn::Register(id, mask) => {
            registry.register(ProviderId::new(id), capability_set(mask), 1.0);
        }
        Churn::Unregister(id) => {
            registry.unregister(ProviderId::new(id));
        }
        // Both may address a never-registered provider: an error is as valid
        // an outcome as success, as long as both registries agree.
        Churn::SetOnline(id, online) => {
            let _ = registry.set_online(ProviderId::new(id), online);
        }
        Churn::UpdateLoad(id, load) => {
            let _ = registry.update_load(ProviderId::new(id), f64::from(load) * 0.5, load as usize);
        }
    }
}

/// The dumbest correct mediation step, as the oracle for the mediation
/// layer: `Pq` by scanning every registered provider, sorted by id and
/// handed over as a plain slice; the same allocation technique under the
/// same seed; the same feedback. It reads the registry's rows and nothing
/// else of it.
struct Reference {
    providers: ProviderRegistry,
    allocator: SbqaAllocator,
    satisfaction: SatisfactionRegistry,
}

impl Reference {
    fn new(config: SystemConfig, seed: u64) -> Self {
        Self {
            providers: ProviderRegistry::new(),
            satisfaction: SatisfactionRegistry::new(config.satisfaction_window),
            allocator: SbqaAllocator::new(config, seed).unwrap(),
        }
    }

    fn register_provider(&mut self, id: ProviderId, capabilities: CapabilitySet) {
        self.providers.register(id, capabilities, 1.0);
        self.satisfaction.register_provider(id);
    }

    /// One mediation; `None` when no capable provider is online.
    fn submit(&mut self, query: &Query, oracle: &StaticIntentions) -> Option<AllocationDecision> {
        let mut pq: Vec<ProviderSnapshot> = self
            .providers
            .iter()
            .filter(|p| p.can_perform(query))
            .collect();
        pq.sort_unstable_by_key(|p| p.id);
        if pq.is_empty() {
            return None;
        }
        let mut decision = AllocationDecision::default();
        self.allocator
            .allocate_into(
                query,
                Candidates::from_slice(&pq),
                oracle,
                &self.satisfaction,
                &mut decision,
            )
            .unwrap();
        let (mut consumer_view, mut provider_view) = (Vec::new(), Vec::new());
        decision.consumer_view_into(&mut consumer_view);
        decision.provider_view_into(&mut provider_view);
        self.satisfaction.record_mediation(
            query.id,
            query.consumer,
            query.replication,
            &consumer_view,
            &provider_view,
        );
        Some(decision)
    }
}

proptest! {
    /// Resolution through a roomy cache and through a one-plan cache agrees
    /// with the brute-force filter after every churn step. Each probe runs
    /// *twice* against the roomy registry so the second resolution exercises
    /// the pure hit path, not just the rebuild.
    #[test]
    fn cached_resolution_is_invisible(
        seed_providers in proptest::collection::vec((0u64..40, 1u8..64), 1..24),
        steps in proptest::collection::vec(
            (churn_strategy(), 1u8..64, proptest::bool::ANY),
            1..24,
        ),
    ) {
        let mut cached = ProviderRegistry::new();
        let mut thrashing = ProviderRegistry::new();
        thrashing.set_plan_cache_capacity(1);

        for (id, mask) in &seed_providers {
            cached.register(ProviderId::new(*id), capability_set(*mask), 1.0);
            thrashing.register(ProviderId::new(*id), capability_set(*mask), 1.0);
        }

        for &(churn, mask, conjunctive) in &steps {
            let churn = decode(churn);
            apply(&mut cached, churn);
            apply(&mut thrashing, churn);

            let req = requirement(mask, conjunctive);
            let expected = brute_force(&cached, req);
            prop_assert_eq!(&resolve(&mut cached, req), &expected, "rebuild probe {}", req);
            prop_assert_eq!(&resolve(&mut cached, req), &expected, "hit probe {}", req);
            prop_assert_eq!(&resolve(&mut thrashing, req), &expected, "thrashing probe {}", req);
        }

        // The roomy registry must have taken the hit path on every repeated
        // probe; the one-plan registry never holds more than its bound.
        let stats = cached.plan_cache_stats();
        let multi_probes = steps
            .iter()
            .filter(|(_, mask, _)| mask.count_ones() >= 2)
            .count() as u64;
        prop_assert!(stats.hits >= multi_probes, "every second probe must hit");
        prop_assert!(thrashing.plan_cache_stats().entries <= 1);
    }

    /// A working set wider than the cache thrashes the LRU (evictions on
    /// nearly every multi-class probe) without ever corrupting an answer.
    #[test]
    fn lru_thrash_stays_correct(
        providers in proptest::collection::vec((0u64..40, 1u8..64), 1..24),
        probes in proptest::collection::vec((3u8..64, proptest::bool::ANY), 8..40),
        capacity in 1usize..3,
    ) {
        let mut registry = ProviderRegistry::new();
        registry.set_plan_cache_capacity(capacity);
        for (id, mask) in &providers {
            registry.register(ProviderId::new(*id), capability_set(*mask), 1.0);
        }
        for &(mask, conjunctive) in &probes {
            let req = requirement(mask, conjunctive);
            let expected = brute_force(&registry, req);
            prop_assert_eq!(&resolve(&mut registry, req), &expected, "{}", req);
        }
        prop_assert!(registry.plan_cache_stats().entries <= capacity);
    }

    /// Full mediation through the default cache and through a one-plan cache
    /// equals the reference step: same winners, same proposals, same RNG
    /// consumption, the same satisfaction on both sides bit for bit,
    /// regardless of requirement repetition inside batches or churn between
    /// them.
    #[test]
    fn mediation_matches_the_brute_force_reference(
        providers in proptest::collection::vec((0u64..40, 1u8..64), 4..24),
        batches in proptest::collection::vec(
            (
                proptest::collection::vec((1u8..64, proptest::bool::ANY), 1..12),
                churn_strategy(),
            ),
            1..5,
        ),
        seed in 0u64..1_000,
    ) {
        let oracle =
            StaticIntentions::new().with_defaults(Intention::new(0.4), Intention::new(0.3));
        let config = SystemConfig::default().with_knbest(6, 2);
        let consumer = ConsumerId::new(1);
        let mut roomy = Mediator::sbqa(config.clone(), seed).unwrap();
        let mut thrashing = Mediator::sbqa(config.clone(), seed).unwrap();
        thrashing.set_plan_cache_capacity(1);
        let mut reference = Reference::new(config, seed);
        for (id, mask) in &providers {
            let (id, caps) = (ProviderId::new(*id), capability_set(*mask));
            roomy.register_provider(id, caps, 1.0);
            thrashing.register_provider(id, caps, 1.0);
            reference.register_provider(id, caps);
        }
        roomy.register_consumer(consumer);
        thrashing.register_consumer(consumer);
        reference.satisfaction.register_consumer(consumer);

        let mut next_query = 0u64;
        for (probes, churn) in &batches {
            let batch: Vec<Query> = probes
                .iter()
                .map(|&(mask, conjunctive)| {
                    next_query += 1;
                    Query::requiring(
                        QueryId::new(next_query),
                        consumer,
                        requirement(mask, conjunctive),
                    )
                    .replication(2)
                    .build()
                })
                .collect();

            let run = |mediator: &mut Mediator| {
                let mut outcomes = Vec::new();
                mediator.submit_batch(&batch, &oracle, |_, _, result| {
                    outcomes.push(result.ok().cloned());
                });
                outcomes
            };
            let expected: Vec<Option<AllocationDecision>> =
                batch.iter().map(|q| reference.submit(q, &oracle)).collect();
            prop_assert_eq!(&run(&mut roomy), &expected);
            prop_assert_eq!(&run(&mut thrashing), &expected);

            // Feedback landed identically: the consumer's satisfaction and
            // that of every provider a decision of this batch touched.
            let want = &reference.satisfaction;
            for mediator in [&roomy, &thrashing] {
                let got = mediator.satisfaction();
                prop_assert_eq!(
                    got.consumer_satisfaction(consumer).value().to_bits(),
                    want.consumer_satisfaction(consumer).value().to_bits()
                );
                for proposal in expected.iter().flatten().flat_map(|d| &d.proposals) {
                    prop_assert_eq!(
                        got.provider_satisfaction(proposal.provider).value().to_bits(),
                        want.provider_satisfaction(proposal.provider).value().to_bits(),
                        "provider {}", proposal.provider
                    );
                }
            }

            // Churn between batches, applied to all three alike.
            let churn = decode(*churn);
            for mediator in [&mut roomy, &mut thrashing] {
                match churn {
                    Churn::Register(id, mask) => {
                        mediator.register_provider(ProviderId::new(id), capability_set(mask), 1.0);
                    }
                    Churn::Unregister(id) => {
                        mediator.unregister_provider(ProviderId::new(id));
                    }
                    Churn::SetOnline(id, online) => {
                        let _ = mediator.set_provider_online(ProviderId::new(id), online);
                    }
                    Churn::UpdateLoad(id, load) => {
                        let _ = mediator.update_provider_load(
                            ProviderId::new(id),
                            f64::from(load) * 0.5,
                            load as usize,
                        );
                    }
                }
            }
            if let Churn::Register(id, mask) = churn {
                reference.register_provider(ProviderId::new(id), capability_set(mask));
            } else {
                apply(&mut reference.providers, churn);
            }
        }

        prop_assert!(thrashing.plan_cache_stats().entries <= 1);
    }
}

/// The plan cache over class lists that keep bitset words, a shape the
/// proptests above (at most 40 ids) never build: ids `1..=10 000`, all in
/// chunk 0, where class `c` holds the multiples of `DIVISORS[c]` — 5 000,
/// 3 333, 2 000 and 1 428 members, so every mentioned list is past
/// [`WORDS_MIN`] and one past [`ARRAY_MAX`]. Each 2- and 3-way `All` and
/// `Any` requirement goes through a cold miss, a warm hit, a stale rebuild
/// after provider 210 (a member of every class) goes offline, and a miss that
/// evicts under a one-plan bound. After every resolution the set equals the
/// brute-force slab filter and that step's counter has moved by one.
#[test]
fn populous_class_lists_resolve_like_the_slab_through_every_cache_path() {
    const PROVIDERS: u64 = 10_000;
    const DIVISORS: [u64; 4] = [2, 3, 5, 7];
    let mut registry = ProviderRegistry::new();
    for id in 1..=PROVIDERS {
        // Class 4, which no requirement mentions, keeps every profile non-empty.
        let mask = DIVISORS
            .iter()
            .enumerate()
            .filter(|&(_, d)| id % d == 0)
            .fold(1u8 << 4, |mask, (class, _)| mask | 1 << class);
        registry.register(ProviderId::new(id), capability_set(mask), 1.0);
    }
    for class in 0..DIVISORS.len() {
        let members = brute_force(&registry, requirement(1 << class, true)).len();
        assert!(members >= WORDS_MIN, "class {class} holds {members} ids");
    }
    assert!(brute_force(&registry, requirement(1, true)).len() > ARRAY_MAX);

    let requirements = [
        requirement(0b0011, true),
        requirement(0b0111, true),
        requirement(0b1100, false),
        requirement(0b1110, false),
    ];
    let step = |registry: &mut ProviderRegistry,
                req: CapabilityRequirement,
                counter: fn(&PlanCacheStats) -> u64,
                label: &str| {
        let before = registry.plan_cache_stats();
        let expected = brute_force(registry, req);
        assert!(!expected.is_empty(), "{label} {req}");
        assert_eq!(resolve(registry, req), expected, "{label} {req}");
        let after = registry.plan_cache_stats();
        assert_eq!(counter(&after), counter(&before) + 1, "{label} {req}");
        assert_eq!(after.lookups(), before.lookups() + 1, "{label} {req}");
    };

    for req in requirements {
        step(&mut registry, req, |s| s.misses, "cold miss");
    }
    for req in requirements {
        step(&mut registry, req, |s| s.hits, "warm hit");
    }
    registry.set_online(ProviderId::new(210), false).unwrap();
    for req in requirements {
        step(&mut registry, req, |s| s.stale_rebuilds, "stale rebuild");
    }
    registry.set_plan_cache_capacity(1);
    step(&mut registry, requirements[3], |s| s.misses, "refill");
    for req in requirements {
        step(&mut registry, req, |s| s.evictions, "eviction");
    }
    assert_eq!(registry.plan_cache_stats().entries, 1);
}
