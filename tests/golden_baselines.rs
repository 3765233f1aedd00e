//! Golden decision digests of the three baselines (Capacity, Economic,
//! Random) through a registry-backed `Mediator` draining batches with
//! `submit_batch`.
//!
//! The queries mix single-class requirements (a class's postings map is the
//! view) with `All` and `Any` requirements (merged views), replication 1–3,
//! varied work and a class nobody advertises (starvation); loads move
//! between batches, so the rankings change. The digest folds every
//! decision's selected providers and every proposal's provider, both
//! intentions, score bits and selected flag, and the oracle folds the order
//! in which it was asked (which side, which provider). If a change
//! legitimately alters a baseline's decisions, re-pin the constants
//! deliberately from the values this test prints.

use std::cell::Cell;

use sbqa::baselines::build_allocator;
use sbqa::core::allocator::{AllocationDecision, IntentionOracle};
use sbqa::core::Mediator;
use sbqa::types::{
    AllocationPolicyKind, Capability, CapabilityRequirement, CapabilitySet, ConsumerId, Intention,
    ProviderId, Query, QueryId, SystemConfig,
};

/// Expected `(decision digest, oracle-call digest, mediated, starved)` per
/// baseline, in `[Capacity, Economic, Random]` order.
const GOLDEN: [(u64, u64, usize, usize); 3] = [
    (
        12_108_935_995_403_015_090,
        4_766_585_013_218_436_933,
        467,
        13,
    ),
    (
        18_398_104_375_866_979_174,
        6_097_118_404_310_114_613,
        467,
        13,
    ),
    (
        4_931_125_981_472_202_395,
        15_843_131_185_431_886_893,
        467,
        13,
    ),
];

const PROVIDERS: u64 = 240;
const BATCHES: u64 = 12;
const BATCH: u64 = 40;

/// One FNV-1a step over a 64-bit word.
fn fold(hash: u64, word: u64) -> u64 {
    (hash ^ word).wrapping_mul(0x0000_0100_0000_01b3)
}

/// SplitMix64: a fixed, well-spread hash of a word.
fn mix(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
    x = (x ^ (x >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    x ^ (x >> 31)
}

/// A value in `[-1, 1]` from a hash.
fn unit(hash: u64) -> f64 {
    (hash % 2001) as f64 / 1000.0 - 1.0
}

/// Hash-derived intentions that also fold the order of the questions asked.
struct TracingOracle {
    calls: Cell<u64>,
}

impl IntentionOracle for TracingOracle {
    fn consumer_intention(&self, query: &Query, provider: ProviderId) -> Intention {
        self.calls
            .set(fold(fold(self.calls.get(), 1), provider.raw()));
        Intention::new(unit(mix(query.id.raw() << 20 ^ provider.raw())))
    }

    fn provider_intention(&self, provider: ProviderId, query: &Query) -> Intention {
        self.calls
            .set(fold(fold(self.calls.get(), 2), provider.raw()));
        Intention::new(unit(mix(provider.raw() << 24 ^ query.id.raw() ^ 0x5555)))
    }
}

fn set(classes: &[u8]) -> CapabilitySet {
    CapabilitySet::from_capabilities(classes.iter().copied().map(Capability::new))
}

/// Query `id`: a single class, an `All` or an `Any` pair, or (rarely) a
/// class nobody advertises.
fn query(id: u64) -> Query {
    let h = mix(id);
    let a = (h % 4) as u8;
    let b = ((h >> 8) % 4) as u8;
    let required = match (h >> 16) % 8 {
        0..=2 => CapabilityRequirement::single(Capability::new(a)),
        3 | 4 => CapabilityRequirement::All(set(&[a, (a + 1 + b % 3) % 4])),
        5 | 6 => CapabilityRequirement::Any(set(&[a, (a + 1 + b % 3) % 4])),
        _ if id.is_multiple_of(5) => CapabilityRequirement::single(Capability::new(9)),
        _ => CapabilityRequirement::single(Capability::new(b)),
    };
    Query::requiring(QueryId::new(id), ConsumerId::new(h >> 32 & 7), required)
        .replication(1 + (h >> 40) as usize % 3)
        .work_units(0.5 + ((h >> 44) % 16) as f64)
        .build()
}

fn mediator(kind: AllocationPolicyKind) -> Mediator {
    let config = SystemConfig::default();
    let allocator = build_allocator(kind, &config, 2024).unwrap();
    let mut mediator = Mediator::new(allocator, config.satisfaction_window);
    for p in 0..PROVIDERS {
        let h = mix(p ^ 0xabcd);
        let mut classes = vec![(h % 4) as u8];
        if h >> 8 & 1 == 1 {
            classes.push(((h >> 12) % 4) as u8);
        }
        mediator.register_provider(
            ProviderId::new(p),
            set(&classes),
            1.0 + ((h >> 16) % 8) as f64,
        );
    }
    for c in 0..8 {
        mediator.register_consumer(ConsumerId::new(c));
    }
    mediator
}

fn fold_decision(mut hash: u64, decision: &AllocationDecision) -> u64 {
    hash = fold(hash, decision.selected.len() as u64);
    for provider in &decision.selected {
        hash = fold(hash, provider.raw());
    }
    hash = fold(hash, decision.proposals.len() as u64);
    for proposal in &decision.proposals {
        hash = fold(hash, proposal.provider.raw());
        hash = fold(hash, proposal.provider_intention.value().to_bits());
        hash = fold(hash, proposal.consumer_intention.value().to_bits());
        hash = fold(hash, proposal.score.map_or(u64::MAX, f64::to_bits));
        hash = fold(hash, u64::from(proposal.selected));
    }
    hash
}

/// Runs every batch under `kind`: `(decision digest, oracle-call digest,
/// mediated, starved)`.
fn run(kind: AllocationPolicyKind) -> (u64, u64, usize, usize) {
    let mut mediator = mediator(kind);
    let oracle = TracingOracle {
        calls: Cell::new(0xcbf2_9ce4_8422_2325),
    };
    let mut digest = 0xcbf2_9ce4_8422_2325;
    let (mut mediated, mut starved) = (0, 0);
    for batch in 0..BATCHES {
        for p in 0..PROVIDERS {
            let h = mix(p << 8 ^ batch);
            if h.is_multiple_of(3) {
                mediator
                    .update_provider_load(ProviderId::new(p), (h >> 8) as f64 % 9.0, 0)
                    .unwrap();
            }
        }
        let queries: Vec<Query> = (batch * BATCH..(batch + 1) * BATCH).map(query).collect();
        let report = mediator.submit_batch(&queries, &oracle, |position, q, result| {
            digest = fold(digest, position as u64 ^ q.id.raw() << 8);
            digest = match result {
                Ok(decision) => fold_decision(digest, decision),
                Err(_) => fold(digest, u64::MAX),
            };
        });
        mediated += report.mediated;
        starved += report.starved;
    }
    (digest, oracle.calls.get(), mediated, starved)
}

#[test]
fn baseline_decisions_match_their_golden_digests() {
    let kinds = [
        AllocationPolicyKind::Capacity,
        AllocationPolicyKind::Economic,
        AllocationPolicyKind::Random,
    ];
    let got: Vec<_> = kinds.iter().map(|&kind| run(kind)).collect();
    for (kind, value) in kinds.iter().zip(&got) {
        println!("{}: {value:?}", kind.label());
    }
    assert_eq!(got, GOLDEN);
    for &(_, _, mediated, starved) in &got {
        assert!(mediated > 0 && starved > 0, "both outcomes occur");
    }
}
