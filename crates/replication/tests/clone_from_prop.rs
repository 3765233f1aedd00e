//! `SatisfactionRegistry::clone_from` reads nothing of what it overwrites.
//!
//! A registry copied with `clone_from` into another registry — one with more
//! or fewer provider rows, pool chunks and consumers, another window size,
//! a removed provider of its own, touched-id tracking armed — must be the
//! registry a plain `clone` gives: equal at once, and equal after every step
//! of one stream of records, removals, registrations and hand-offs sent to
//! both. Equal means the same `satisfaction_digest`, the same satisfaction
//! iterators in the same row order, and the same view of every provider and
//! consumer. A copy that kept a stale free-list link, pool chunk, directory
//! slot or window record of the registry it overwrote parts from the clone
//! as soon as the stream reaches it.
//!
//! The vendored proptest stub does not shrink, so streams stay short and a
//! failing case is printed whole.

use proptest::prelude::*;

use sbqa_replication::satisfaction_digest;
use sbqa_satisfaction::SatisfactionRegistry;
use sbqa_types::{ConsumerId, Intention, ProviderId, QueryId, Satisfaction};

/// Registry shapes: (providers, consumers, rounds of one proposal to every
/// provider). 1 100 providers hold two pool chunks of a size class (1 024
/// blocks a chunk); 9 rounds move them from 8-slot to 16-slot blocks, so
/// the smaller class ends with two chunks of free blocks.
const SHAPES: [(u64, u64, u64); 4] = [(0, 0, 0), (5, 1, 2), (40, 3, 12), (1_100, 2, 9)];

/// A registry of window `k` in shape `shape`, its intentions salted by
/// `salt`, with provider 1 removed when `removed`.
fn grown(k: usize, shape: usize, salt: u64, removed: bool) -> SatisfactionRegistry {
    let (providers, consumers, rounds) = SHAPES[shape];
    let mut registry = SatisfactionRegistry::new(k);
    for c in 0..consumers {
        registry.register_consumer(ConsumerId::new(c));
    }
    for p in 0..providers {
        registry.register_provider(ProviderId::new(p));
    }
    for round in 0..rounds {
        for first in (0..providers).step_by(4) {
            let proposals: Vec<(ProviderId, Intention, bool)> = (first..(first + 4).min(providers))
                .map(|p| {
                    let bits = (p ^ round ^ salt).wrapping_mul(0x9E37_79B9_7F4A_7C15);
                    let intention = Intention::new((bits >> 11) as f64 / (1u64 << 53) as f64);
                    (ProviderId::new(p), intention, bits.is_multiple_of(3))
                })
                .collect();
            let performed = [(proposals[0].0, proposals[0].1)];
            registry.record_mediation(
                QueryId::new(round * providers + first),
                ConsumerId::new((round + first) % consumers.max(1)),
                1 + (round % 2) as usize,
                &performed,
                &proposals,
            );
        }
    }
    if removed {
        registry.remove_provider(ProviderId::new(1));
    }
    registry
}

/// One step of the stream both registries receive.
fn apply(registry: &mut SatisfactionRegistry, step: u64, (op, a, b): (u8, u64, u64)) {
    let provider = ProviderId::new(b);
    match op {
        0..=5 => {
            let proposals = [
                (
                    provider,
                    Intention::new(0.5 - a as f64 / 8.0),
                    a.is_multiple_of(2),
                ),
                (ProviderId::new(b + 7), Intention::new(-0.25), false),
                (
                    ProviderId::new(b / 3),
                    Intention::new(0.75),
                    a.is_multiple_of(3),
                ),
            ];
            let performed: Vec<(ProviderId, Intention)> = proposals
                .iter()
                .filter(|(_, _, performed)| *performed)
                .map(|&(p, intention, _)| (p, intention))
                .collect();
            registry.record_mediation(
                QueryId::new(1_000_000 + step),
                ConsumerId::new(a % 5),
                1 + (a % 3) as usize,
                &performed,
                &proposals,
            );
        }
        6 => {
            registry.remove_provider(provider);
        }
        7 => {
            registry.register_provider(provider);
        }
        8 => {
            registry.register_consumer(ConsumerId::new(a % 7));
        }
        _ => {
            if let Some(tracker) = registry.extract_provider(provider) {
                registry.adopt_provider(ProviderId::new(b + 5_000), tracker);
            }
        }
    }
}

/// Holds `copy` to `clone`: digest, iterators in row order, and every view.
fn assert_same(copy: &SatisfactionRegistry, clone: &SatisfactionRegistry, what: &str) {
    assert_eq!(
        satisfaction_digest(copy),
        satisfaction_digest(clone),
        "digest {what}"
    );
    assert_eq!(copy.window(), clone.window(), "window {what}");
    let bits = |(id, s): (ProviderId, Satisfaction)| (id, s.value().to_bits());
    let providers: Vec<_> = clone.provider_satisfactions().map(bits).collect();
    assert_eq!(
        copy.provider_satisfactions().map(bits).collect::<Vec<_>>(),
        providers,
        "provider rows {what}"
    );
    let consumer_bits = |(id, s): (ConsumerId, Satisfaction)| (id, s.value().to_bits());
    let consumers: Vec<_> = clone.consumer_satisfactions().map(consumer_bits).collect();
    assert_eq!(
        copy.consumer_satisfactions()
            .map(consumer_bits)
            .collect::<Vec<_>>(),
        consumers,
        "consumer rows {what}"
    );
    for (id, _) in providers {
        let (ours, theirs) = (copy.provider(id), clone.provider(id));
        let (ours, theirs) = (ours.expect("listed"), theirs.expect("listed"));
        assert_eq!(
            ours.to_tracker(),
            theirs.to_tracker(),
            "provider {id} {what}"
        );
        assert_eq!(ours.performed_count(), theirs.performed_count());
        assert_eq!(
            ours.selection_rate().to_bits(),
            theirs.selection_rate().to_bits()
        );
        assert_eq!(ours.window_size(), theirs.window_size());
    }
    for (id, _) in consumers {
        assert_eq!(
            copy.consumer(id),
            clone.consumer(id),
            "consumer {id} {what}"
        );
    }
}

proptest! {
    #[test]
    fn clone_from_equals_a_clone_whatever_it_overwrites(
        source_shape in 0usize..4,
        target_shape in 0usize..4,
        // (source window, target window) and which side lost provider 1.
        windows in (1usize..24, 1usize..24),
        removed in (proptest::bool::ANY, proptest::bool::ANY),
        armed in proptest::bool::ANY,
        salt in 0u64..1_000,
        // (op, a, b): 0–5 a mediation, 6 a removal, 7 a registration, 8 a
        // consumer registration, 9 a hand-off to another id.
        stream in proptest::collection::vec((0u8..10, 0u64..64, 0u64..1_200), 1..40),
    ) {
        let source = grown(windows.0, source_shape, salt, removed.0);
        let mut copy = grown(windows.1, target_shape, salt + 1, removed.1);
        if armed {
            copy.track_touched();
        }
        copy.clone_from(&source);
        let mut clone = source.clone();
        assert_same(&copy, &clone, "after the copy");
        assert_same(&copy, &source, "against the source");
        let mut probe = SatisfactionRegistry::new(1);
        prop_assert_eq!(copy.sync_touched_into(&mut probe), None, "a copy is untracked");

        for (step, &op) in stream.iter().enumerate() {
            apply(&mut copy, step as u64, op);
            apply(&mut clone, step as u64, op);
            assert_same(&copy, &clone, &format!("after step {step} ({op:?})"));
        }
    }
}
