//! Property tests holding the *maintained* satisfaction values to the
//! definitions they replace: whatever sequence of records, clones, in-place
//! copies, copies materialised from registry rows and registry hand-offs a
//! tracker goes through, `satisfaction()` must be bit-equal to a
//! from-scratch evaluation of Definition 1 (consumer) or Definition 2
//! (provider) over `interactions()`.
//! Release builds have no `debug_assert`, so this is the proof there.
//!
//! Inside a registry a provider's state is a pooled row, not a tracker; the
//! third property drives a small registry through every mutator beside a
//! shadow of standalone trackers fed the same records and holds each row to
//! its shadow — and to the definition — after every step.

use std::collections::BTreeMap;

use proptest::prelude::*;

use sbqa_satisfaction::{
    ConsumerSatisfaction, ProviderInteraction, ProviderSatisfaction, SatisfactionRegistry,
};
use sbqa_types::{ConsumerId, Intention, ProviderId, QueryId, Satisfaction};

/// Intentions drawn by index: the extremes, neutral, and repeated inexact
/// values whose sums depend on the order of addition.
const INTENTIONS: [f64; 8] = [-1.0, 0.0, 1.0, 0.1, 0.1, -0.7, 0.3, 0.3];

/// Definition 2 evaluated from nothing but the remembered proposals,
/// oldest first — the loop `ProviderSatisfaction::satisfaction` used to run.
fn definition_two<'a>(interactions: impl Iterator<Item = &'a ProviderInteraction>) -> Satisfaction {
    let mut observed = 0usize;
    let mut sum = 0.0;
    let mut performed = 0usize;
    for interaction in interactions {
        observed += 1;
        if interaction.performed {
            sum += interaction.intention.to_unit().value();
            performed += 1;
        }
    }
    if observed == 0 {
        return Satisfaction::MAX;
    }
    if performed == 0 {
        return Satisfaction::MIN;
    }
    Satisfaction::new(sum / performed as f64)
}

/// Definition 1 evaluated from nothing but the remembered interactions.
fn definition_one(tracker: &ConsumerSatisfaction) -> Satisfaction {
    let count = tracker.interactions().count();
    if count == 0 {
        return Satisfaction::MAX;
    }
    let sum: f64 = tracker
        .interactions()
        .map(|interaction| interaction.satisfaction().value())
        .sum();
    Satisfaction::new(sum / count as f64)
}

fn assert_exact(provider: &ProviderSatisfaction, consumer: &ConsumerSatisfaction, what: &str) {
    assert_eq!(
        provider.satisfaction().value().to_bits(),
        definition_two(provider.interactions()).value().to_bits(),
        "provider after {what}"
    );
    assert_eq!(
        provider.performed_count(),
        provider.interactions().filter(|i| i.performed).count(),
        "performed count after {what}"
    );
    assert_eq!(
        consumer.satisfaction().value().to_bits(),
        definition_one(consumer).value().to_bits(),
        "consumer after {what}"
    );
}

/// Records one proposal and one query outcome decoded from `(a, b)`.
fn record(
    provider: &mut ProviderSatisfaction,
    consumer: &mut ConsumerSatisfaction,
    query: u64,
    a: u8,
    b: u8,
) {
    let intention = Intention::new(INTENTIONS[a as usize % INTENTIONS.len()]);
    provider.record_proposal(intention, !b.is_multiple_of(3));
    let performers: Vec<(ProviderId, Intention)> = (0..b % 4)
        .map(|i| {
            let value = INTENTIONS[(a as usize + i as usize) % INTENTIONS.len()];
            (ProviderId::new(u64::from(i)), Intention::new(value))
        })
        .collect();
    consumer.record_outcome(QueryId::new(query), 1 + a as usize % 3, &performers);
}

proptest! {
    #[test]
    fn maintained_values_equal_the_definitions_after_every_step(
        k in 1usize..9,
        // (op, a, b): 0–3 record, 4 clone, 5 clone_from over the stale copy,
        // 6 copy materialised from a registry row, 7 extract/adopt hand-off,
        // 8 record on the stale copy only (so it ends up longer, shorter or
        // rotated).
        ops in proptest::collection::vec((0u8..9, 0u8..=255, 0u8..=255), 1..120),
    ) {
        let mut provider = ProviderSatisfaction::new(k);
        let mut consumer = ConsumerSatisfaction::new(k);
        // Stale copies: `clone_from` targets of another length and rotation.
        let mut stale_provider = ProviderSatisfaction::new(k + 3);
        let mut stale_consumer = ConsumerSatisfaction::new(k + 3);
        let mut home = SatisfactionRegistry::new(k);
        let mut away = SatisfactionRegistry::new(k + 1);
        let id = ProviderId::new(7);

        for (step, &(op, a, b)) in ops.iter().enumerate() {
            let query = step as u64;
            match op {
                0..=3 => record(&mut provider, &mut consumer, query, a, b),
                4 => {
                    provider = provider.clone();
                    consumer = consumer.clone();
                }
                5 => {
                    stale_provider.clone_from(&provider);
                    stale_consumer.clone_from(&consumer);
                    prop_assert_eq!(&stale_provider, &provider);
                    prop_assert_eq!(&stale_consumer, &consumer);
                    std::mem::swap(&mut stale_provider, &mut provider);
                    std::mem::swap(&mut stale_consumer, &mut consumer);
                }
                6 => {
                    // The copies stand in for the originals: the provider's
                    // rebuilt from a row, the consumer's copied into a
                    // fresh tracker.
                    home.adopt_provider(id, provider);
                    let copy = home.provider(id).expect("just adopted").to_tracker();
                    prop_assert_eq!(&copy, &home.extract_provider(id).expect("just adopted"));
                    provider = copy;
                    let mut fresh = ConsumerSatisfaction::new(k);
                    fresh.clone_from(&consumer);
                    prop_assert_eq!(&fresh, &consumer);
                    consumer = fresh;
                }
                7 => {
                    home.adopt_provider(id, provider);
                    let moved = home.extract_provider(id).expect("just adopted");
                    away.adopt_provider(id, moved);
                    prop_assert_eq!(
                        away.provider_satisfaction(id).value().to_bits(),
                        definition_two(away.provider(id).expect("adopted").interactions())
                            .value()
                            .to_bits()
                    );
                    provider = away.extract_provider(id).expect("just adopted");
                }
                _ => record(&mut stale_provider, &mut stale_consumer, query, b, a),
            }
            assert_exact(&provider, &consumer, &format!("step {step} (op {op})"));
            assert_exact(&stale_provider, &stale_consumer, &format!("step {step}, stale copy"));
        }
    }

    /// The same through the registry's own recording path: one probe per
    /// participant, unknown ones registered on first record.
    #[test]
    fn registry_reads_equal_the_definitions_after_every_mediation(
        k in 1usize..9,
        mediations in proptest::collection::vec((0u8..3, 0u8..=255, 0u8..=255), 1..80),
    ) {
        let mut registry = SatisfactionRegistry::new(k);
        for (step, &(who, a, b)) in mediations.iter().enumerate() {
            let consumer = ConsumerId::new(u64::from(who));
            let proposals: Vec<(ProviderId, Intention, bool)> = (0..1 + b % 4)
                .map(|i| {
                    let value = INTENTIONS[(a as usize + i as usize) % INTENTIONS.len()];
                    let provider = ProviderId::new(u64::from((a.wrapping_add(i)) % 5));
                    (provider, Intention::new(value), (b >> i) & 1 == 1)
                })
                .collect();
            let performed_by: Vec<(ProviderId, Intention)> = proposals
                .iter()
                .filter(|(.., performed)| *performed)
                .map(|&(provider, intention, _)| (provider, intention))
                .collect();
            registry.record_mediation(
                QueryId::new(step as u64),
                consumer,
                1 + a as usize % 3,
                &performed_by,
                &proposals,
            );
            prop_assert_eq!(
                registry.consumer_satisfaction(consumer).value().to_bits(),
                definition_one(registry.consumer(consumer).expect("registered")).value().to_bits()
            );
            for (provider, ..) in &proposals {
                prop_assert_eq!(
                    registry.provider_satisfaction(*provider).value().to_bits(),
                    definition_two(
                        registry.provider(*provider).expect("registered").interactions()
                    )
                    .value()
                    .to_bits()
                );
            }
        }
    }
}

/// Every tracker of a registry rendered in ascending id order: the text
/// `sbqa_replication::satisfaction_digest` folds.
fn rendering(registry: &SatisfactionRegistry) -> String {
    let consumers: BTreeMap<_, _> = registry
        .consumer_satisfactions()
        .map(|(id, _)| (id, registry.consumer(id)))
        .collect();
    let providers: BTreeMap<_, _> = registry
        .provider_satisfactions()
        .map(|(id, _)| (id, registry.provider(id).map(|view| view.to_tracker())))
        .collect();
    format!("{consumers:?} {providers:?}")
}

/// Holds every row of `registry` to its shadow tracker and to Definition 2,
/// and the registry to holding nothing else.
fn assert_rows_equal_shadow(
    registry: &SatisfactionRegistry,
    shadow: &BTreeMap<ProviderId, ProviderSatisfaction>,
    population: u64,
    what: &str,
) {
    assert_eq!(registry.provider_count(), shadow.len(), "{what}");
    for raw in 0..population {
        let id = ProviderId::new(raw);
        let (Some(view), Some(tracker)) = (registry.provider(id), shadow.get(&id)) else {
            assert!(
                registry.provider(id).is_none() && !shadow.contains_key(&id),
                "{id} is on one side only, {what}"
            );
            assert_eq!(registry.provider_satisfaction(id), Satisfaction::MAX);
            continue;
        };
        let proposals: Vec<ProviderInteraction> = view.interactions().copied().collect();
        let expected: Vec<ProviderInteraction> = tracker.interactions().copied().collect();
        assert_eq!(proposals, expected, "{id} interactions, {what}");
        for satisfaction in [
            registry.provider_satisfaction(id),
            tracker.satisfaction(),
            definition_two(proposals.iter()),
        ] {
            assert_eq!(
                view.satisfaction().value().to_bits(),
                satisfaction.value().to_bits(),
                "{id} satisfaction, {what}"
            );
        }
        assert_eq!(view.performed_count(), tracker.performed_count(), "{what}");
        assert_eq!(view.observed_proposals(), proposals.len(), "{what}");
        assert_eq!(view.window_size(), tracker.window_size(), "{what}");
        assert_eq!(
            view.selection_rate().to_bits(),
            tracker.selection_rate().to_bits(),
            "{what}"
        );
        // Equality of the materialised tracker covers the lifetime count.
        assert_eq!(&view.to_tracker(), tracker, "{id} tracker, {what}");
    }
}

proptest! {
    /// A registry's pooled rows against a shadow of standalone trackers,
    /// through every mutator. Query ids are the step number, so a block a
    /// removed provider gave back would show its proposals under the next
    /// owner as interactions the shadow does not have.
    #[test]
    fn pooled_rows_equal_a_shadow_of_trackers_after_every_step(
        k in 1usize..12,
        population in 1u64..7,
        // (op, a, b): 0–5 record, 6 remove, 7 re-register, 8 extract → adopt
        // across the two registries, 9 clone, 10 rebuild from the trackers,
        // 11 armed sync onto the stale copy.
        ops in proptest::collection::vec((0u8..12, 0u8..=255, 0u8..=255), 1..120),
    ) {
        let consumer = ConsumerId::new(1);
        let mut home = SatisfactionRegistry::new(k);
        let mut away = SatisfactionRegistry::new(k + 1);
        let mut home_shadow: BTreeMap<ProviderId, ProviderSatisfaction> = BTreeMap::new();
        let mut away_shadow: BTreeMap<ProviderId, ProviderSatisfaction> = BTreeMap::new();
        home.track_touched();
        let mut stale = home.clone();

        for (step, &(op, a, b)) in ops.iter().enumerate() {
            let id = ProviderId::new(u64::from(a) % population);
            match op {
                0..=5 => {
                    // One to three proposals, to consecutive providers.
                    let proposals: Vec<(ProviderId, Intention, bool)> = (0..1 + u64::from(b) % 3)
                        .map(|i| {
                            let value = INTENTIONS[(a as usize + i as usize) % INTENTIONS.len()];
                            let provider = ProviderId::new((id.raw() + i) % population);
                            (provider, Intention::new(value), (b >> (2 + i)) & 1 == 1)
                        })
                        .collect();
                    let (registry, shadow, window) = if op == 5 {
                        (&mut away, &mut away_shadow, k + 1)
                    } else {
                        (&mut home, &mut home_shadow, k)
                    };
                    registry.record_mediation(QueryId::new(step as u64), consumer, 1, &[], &proposals);
                    for (provider, intention, performed) in proposals {
                        shadow
                            .entry(provider)
                            .or_insert_with(|| ProviderSatisfaction::new(window))
                            .record_proposal(intention, performed);
                    }
                }
                6 => {
                    prop_assert_eq!(home.remove_provider(id), home_shadow.remove(&id).is_some());
                }
                7 => {
                    let fresh = !home_shadow.contains_key(&id);
                    prop_assert_eq!(home.register_provider(id), fresh);
                    home_shadow.entry(id).or_insert_with(|| ProviderSatisfaction::new(k));
                }
                8 => {
                    // Towards whichever side lacks the provider; the tracker
                    // keeps its own window size and replaces nothing.
                    let (from, from_shadow, to, to_shadow) = if home_shadow.contains_key(&id) {
                        (&mut home, &mut home_shadow, &mut away, &mut away_shadow)
                    } else {
                        (&mut away, &mut away_shadow, &mut home, &mut home_shadow)
                    };
                    let moved = from.extract_provider(id);
                    prop_assert_eq!(moved.as_ref(), from_shadow.get(&id));
                    if let (Some(moved), Some(tracker)) = (moved, from_shadow.remove(&id)) {
                        to.adopt_provider(id, moved);
                        to_shadow.insert(id, tracker);
                    }
                }
                9 => {
                    // The fork replaces the original, which is dropped.
                    let fork = away.clone();
                    prop_assert_eq!(rendering(&fork), rendering(&away));
                    away = fork;
                }
                10 => {
                    // Every provider handed off, in ascending id order, into
                    // a fresh registry that replaces the original.
                    let mut rebuilt = SatisfactionRegistry::new(k + 1);
                    for raw in 0..population {
                        let id = ProviderId::new(raw);
                        if let Some(tracker) = away.extract_provider(id) {
                            rebuilt.adopt_provider(id, tracker);
                        }
                    }
                    away = rebuilt;
                }
                _ => {
                    prop_assert!(home.sync_touched_into(&mut stale).is_some());
                    prop_assert_eq!(rendering(&stale), rendering(&home.clone()));
                    assert_rows_equal_shadow(&stale, &home_shadow, population, "synced copy");
                }
            }
            let what = format!("step {step} (op {op})");
            assert_rows_equal_shadow(&home, &home_shadow, population, &what);
            assert_rows_equal_shadow(&away, &away_shadow, population, &what);
        }
    }
}
