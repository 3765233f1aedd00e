//! Property tests pinning the candidate index to its specification: for any
//! population, churn history and capability requirement, the postings-list
//! answer (`ProviderRegistry::candidates`) must equal the brute-force slab
//! filter — same providers, ascending id order, no duplicates — for both
//! `All` (k-way intersection) and `Any` (k-way union) semantics, including
//! the borrowed single-capability fast path. The views name their members by
//! id and find each member's row through the column store's directory, so a
//! second property holds every read of every view (`get`, `load_keys`, `iter`,
//! `gather_all_into`) to a shadow of the rows after every registry mutation —
//! including the `unregister` that has just moved a row under a cached plan,
//! and gathered into one block per requirement that lives across them all.
//! On top of such a view, KnBest's bounded-insertion filter must return
//! exactly what a partition-and-sort of the same draw returns.

use std::collections::BTreeMap;

use proptest::prelude::*;
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;

use sbqa_core::{CandidateBlock, IndexPool, KnBestScratch, KnBestSelector, ProviderRegistry};
use sbqa_types::{
    Capability, CapabilityRequirement, CapabilitySet, ConsumerId, ProviderId, ProviderSnapshot,
    Query, QueryId,
};

/// Capability classes the generated populations draw from. Small on purpose:
/// overlap (several providers per class, several classes per provider) is
/// what makes merges interesting.
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

fn indexed(registry: &mut ProviderRegistry, req: CapabilityRequirement) -> Vec<u64> {
    registry
        .candidates(&query(req))
        .iter()
        .map(|p| p.id.raw())
        .collect()
}

/// Holds every read of the view of every requirement to the shadow: the
/// members are the shadow's online, capable rows in ascending id order, and
/// each position returns that member's row — not whichever row sits where
/// the member used to be. `blocks[i]` is requirement `i`'s gather block,
/// reused across calls the way a baseline technique keeps its own, so a
/// gather that served a previous call's columns would fail here.
fn assert_views_read_the_shadow_rows(
    registry: &mut ProviderRegistry,
    shadow: &BTreeMap<u64, ProviderSnapshot>,
    requirements: &[CapabilityRequirement],
    blocks: &mut [CandidateBlock],
) {
    for (&req, block) in requirements.iter().zip(blocks) {
        let q = query(req);
        let expected: Vec<ProviderSnapshot> = shadow
            .values()
            .filter(|row| row.can_perform(&q))
            .copied()
            .collect();
        let view = registry.candidates(&q);
        assert_eq!(view.len(), expected.len(), "{req}: len");
        for (pos, row) in expected.iter().enumerate() {
            assert_eq!(view.get(pos), *row, "{req}: get({pos})");
        }
        assert_eq!(view.iter().collect::<Vec<_>>(), expected, "{req}: iter");

        let positions: Vec<u32> = (0..expected.len() as u32).rev().collect();
        let mut keys = Vec::new();
        view.load_keys(&positions, &mut keys);
        assert_eq!(keys.len(), positions.len());
        for (key, &position) in keys.iter().zip(&positions) {
            let row = expected[position as usize];
            assert_eq!(
                (key.id, key.utilization, key.position),
                (row.id, row.utilization, position),
                "{req}: load_keys at {position}"
            );
        }

        view.gather_all_into(block);
        let column = |field: fn(&ProviderSnapshot) -> f64| -> Vec<f64> {
            expected.iter().map(field).collect()
        };
        let ids: Vec<ProviderId> = expected.iter().map(|row| row.id).collect();
        assert_eq!(block.ids(), ids, "{req}: gathered ids");
        assert_eq!(block.utilization(), column(|row| row.utilization));
        assert_eq!(block.capacity(), column(|row| row.capacity));
        let queues: Vec<usize> = expected.iter().map(|row| row.queue_length).collect();
        assert_eq!(block.queue_length(), queues);
    }
}

proptest! {
    /// Random register / unregister / `set_online` / load sequences: after
    /// every one, every position of every single-class view, of the
    /// all-online view and of six cached merged views returns the row of the
    /// id its set names. Every unregister but that of the last row moves a
    /// row; a plan whose classes the leaver does not advertise stays cached
    /// across it and must still find the moved member. Each requirement
    /// gathers into the same block for the whole sequence.
    #[test]
    fn every_view_reads_the_row_its_set_names_after_every_mutation(
        // (op, provider, capability mask): 0–2 register, 3–4 unregister,
        // 5 offline, 6 online, 7 load.
        ops in proptest::collection::vec((0u8..8, 0u64..40, 1u8..64), 1..60),
    ) {
        let mut requirements: Vec<CapabilityRequirement> = (0..CLASSES)
            .map(|class| requirement(1 << class, true))
            .collect();
        requirements.push(CapabilityRequirement::All(CapabilitySet::EMPTY));
        requirements.extend([
            requirement(0b00_0011, true),
            requirement(0b00_0011, false),
            requirement(0b00_1110, true),
            requirement(0b01_0100, false),
            requirement(0b10_0001, true),
            requirement(0b11_1000, false),
        ]);
        let mut blocks = vec![CandidateBlock::new(); requirements.len()];
        let mut registry = ProviderRegistry::new();
        let mut shadow: BTreeMap<u64, ProviderSnapshot> = BTreeMap::new();
        for (step, &(op, provider, mask)) in ops.iter().enumerate() {
            // Three id chunks; capacity and load name the step that wrote
            // them, so no two rows are ever equal.
            let raw = (provider % 3) << 16 | provider;
            let id = ProviderId::new(raw);
            let stamp = 1.0 + step as f64;
            match op {
                0..=2 => {
                    registry.register(id, capability_set(mask), stamp);
                    shadow.insert(raw, ProviderSnapshot::idle(id, capability_set(mask), stamp));
                }
                3 | 4 => {
                    prop_assert_eq!(registry.unregister(id), shadow.remove(&raw).is_some());
                }
                5 | 6 => {
                    let known = registry.set_online(id, op == 6).is_ok();
                    prop_assert_eq!(known, shadow.contains_key(&raw));
                    if let Some(row) = shadow.get_mut(&raw) {
                        row.online = op == 6;
                    }
                }
                _ => {
                    let known = registry.update_load(id, stamp, step).is_ok();
                    prop_assert_eq!(known, shadow.contains_key(&raw));
                    if let Some(row) = shadow.get_mut(&raw) {
                        (row.utilization, row.queue_length) = (stamp, step);
                    }
                }
            }
            prop_assert_eq!(registry.len(), shadow.len());
            assert_views_read_the_shadow_rows(&mut registry, &shadow, &requirements, &mut blocks);
        }
    }

    #[test]
    fn candidates_equal_brute_force_filter(
        // (id, capability mask) per provider; duplicate ids re-register.
        providers in proptest::collection::vec((0u64..60, 1u8..64), 1..40),
        // Providers toggled offline, providers unregistered (by position).
        offline in proptest::collection::vec(0usize..40, 0..10),
        removed in proptest::collection::vec(0usize..40, 0..6),
        // Requirements to probe, covering single- and multi-class sets.
        probes in proptest::collection::vec((1u8..64, proptest::bool::ANY), 1..8),
    ) {
        let mut registry = ProviderRegistry::new();
        for (id, mask) in &providers {
            registry.register(ProviderId::new(*id), capability_set(*mask), 1.0);
        }
        for &position in &offline {
            let (id, _) = providers[position % providers.len()];
            // May hit an already-offline or unregistered provider: both fine.
            let _ = registry.set_online(ProviderId::new(id), false);
        }
        for &position in &removed {
            let (id, _) = providers[position % providers.len()];
            registry.unregister(ProviderId::new(id));
        }

        for &(mask, conjunctive) in &probes {
            let req = requirement(mask, conjunctive);
            let expected = brute_force(&registry, req);
            let got = indexed(&mut registry, req);
            prop_assert_eq!(&got, &expected, "requirement {}", req);
            // Ascending ids also imply no duplicates.
            prop_assert!(got.windows(2).all(|w| w[0] < w[1]));
        }

        // Degenerate requirements follow quantifier semantics.
        let online: Vec<u64> = brute_force(&registry, CapabilityRequirement::All(CapabilitySet::EMPTY));
        prop_assert_eq!(
            indexed(&mut registry, CapabilityRequirement::All(CapabilitySet::EMPTY)),
            online
        );
        prop_assert!(indexed(&mut registry, CapabilityRequirement::Any(CapabilitySet::EMPTY)).is_empty());
    }

    #[test]
    fn starvation_classification_matches_slab_scan(
        providers in proptest::collection::vec((0u64..30, 1u8..64), 0..20),
        all_offline in proptest::bool::ANY,
        probes in proptest::collection::vec((1u8..64, proptest::bool::ANY), 1..6),
    ) {
        let mut registry = ProviderRegistry::new();
        for (id, mask) in &providers {
            registry.register(ProviderId::new(*id), capability_set(*mask), 1.0);
        }
        if all_offline {
            let ids: Vec<ProviderId> = registry.iter().map(|p| p.id).collect();
            for id in ids {
                registry.set_online(id, false).unwrap();
            }
        }
        for &(mask, conjunctive) in &probes {
            let req = requirement(mask, conjunctive);
            let q = query(req);
            // Only meaningful when the query actually starves.
            if !registry.candidates(&q).is_empty() {
                continue;
            }
            let any_registered_capable = registry
                .iter()
                .any(|p| req.matched_by(p.capabilities));
            let err = registry.starvation_error(&q);
            if any_registered_capable {
                prop_assert!(
                    matches!(err, sbqa_types::SbqaError::NoProviderOnline { .. }),
                    "requirement {}: expected NoProviderOnline, got {err:?}", req
                );
            } else {
                prop_assert!(
                    matches!(err, sbqa_types::SbqaError::NoCapableProvider { .. }),
                    "requirement {}: expected NoCapableProvider, got {err:?}", req
                );
            }
        }
    }

    /// `select_block` equals the reference it replaced — `select_nth` to
    /// the kn least utilized of the drawn k, then a sort by
    /// `(utilization, id)` — over the same draw of the same seed: for kn = 1,
    /// the default 4 and kn = k, for views smaller than k, and with
    /// utilizations that tie so the id decides.
    #[test]
    fn select_block_equals_partition_and_sort_of_the_same_draw(
        // (id, utilization level) per provider; few levels force ties.
        providers in proptest::collection::vec((0u64..200_000, 0u8..6), 1..120),
        k in 1usize..40,
        seed in 0u64..1_000,
    ) {
        let mut registry = ProviderRegistry::new();
        for (id, level) in &providers {
            registry.register(ProviderId::new(*id), capability_set(1), 1.0);
            registry
                .update_load(ProviderId::new(*id), f64::from(*level) * 0.25, 0)
                .unwrap();
        }
        let q = query(requirement(1, true));
        let view = registry.candidates(&q);
        let by_load = |a: &(f64, u64, u32), b: &(f64, u64, u32)| {
            sbqa_types::f64_total_cmp(a.0, b.0).then_with(|| a.1.cmp(&b.1))
        };
        let mut scratch = KnBestScratch::new();
        for kn in [1, 4, k] {
            let selector = KnBestSelector::new(k, kn);
            let mut rng = ChaCha8Rng::seed_from_u64(seed);
            let got = selector.select_block(view, &mut rng, &mut scratch);

            let mut rng = ChaCha8Rng::seed_from_u64(seed);
            let mut keys: Vec<(f64, u64, u32)> = IndexPool::new()
                .draw(view.len(), selector.k, &mut rng)
                .iter()
                .map(|&pos| {
                    let row = view.get(pos as usize);
                    (row.utilization, row.id.raw(), pos)
                })
                .collect();
            let keep = selector.kn.min(keys.len());
            if keep < keys.len() {
                keys.select_nth_unstable_by(keep - 1, by_load);
                keys.truncate(keep);
            }
            keys.sort_unstable_by(by_load);

            prop_assert_eq!(got.len(), keys.len(), "k {} kn {}", k, kn);
            for (rank, &(utilization, id, pos)) in keys.iter().enumerate() {
                prop_assert_eq!(
                    (got.utilization[rank], got.ids[rank].raw(), got.positions[rank]),
                    (utilization, id, pos),
                    "k {} kn {} rank {}", k, kn, rank
                );
            }
        }
    }
}
