//! Non-finite answers from an intention oracle, pinned at the mediator.
//!
//! An oracle is outside the mediator's control: a participant's intention
//! function may divide by zero. Whatever it computes reaches the mediator as
//! an [`Intention`], and `Intention::new` maps NaN to `NEUTRAL` and clamps
//! `+∞` / `−∞` to `MAX` / `MIN`. This test holds the whole mediation to that
//! rule: a mediator fed NaN and infinities for chosen (query, provider) pairs
//! decides bit for bit as one fed `NEUTRAL` / `MAX` / `MIN` for the same
//! pairs, and every consumer and provider satisfaction stays finite.

use sbqa_core::{IntentionOracle, Mediator};
use sbqa_types::{
    Capability, CapabilityRequirement, CapabilitySet, ConsumerId, Intention, ProviderId, Query,
    QueryId, SystemConfig,
};

const PROVIDERS: u64 = 240;
const CONSUMERS: u64 = 4;
const QUERIES: u64 = 1_500;

/// Answers a fixed, pair-dependent intention; one pair in two is NaN, `+∞`
/// or `−∞` — written as the raw `f64` (`raw`) or as the intention it must
/// equal (`tamed`).
struct PairOracle {
    tamed: bool,
}

impl PairOracle {
    fn answer(&self, query: QueryId, provider: ProviderId, side: u64) -> Intention {
        let pair = query.raw() * 7_919 + provider.raw() * 31 + side;
        let (raw, tamed) = match pair % 6 {
            0 => (f64::NAN, Intention::NEUTRAL),
            1 => (f64::INFINITY, Intention::MAX),
            2 => (f64::NEG_INFINITY, Intention::MIN),
            _ => {
                let finite = (pair % 201) as f64 / 100.0 - 1.0;
                (finite, Intention::new(finite))
            }
        };
        if self.tamed {
            tamed
        } else {
            Intention::new(raw)
        }
    }
}

impl IntentionOracle for PairOracle {
    fn consumer_intention(&self, query: &Query, provider: ProviderId) -> Intention {
        self.answer(query.id, provider, 0)
    }

    fn provider_intention(&self, provider: ProviderId, query: &Query) -> Intention {
        self.answer(query.id, provider, 1)
    }
}

fn mediator() -> Mediator {
    let mut mediator = Mediator::sbqa(SystemConfig::default().with_knbest(12, 4), 7).unwrap();
    for p in 0..PROVIDERS {
        let caps = CapabilitySet::from_capabilities([
            Capability::new((p % 3) as u8),
            Capability::new(((p + 1) % 3) as u8),
        ]);
        mediator.register_provider(ProviderId::new(p), caps, 1.0);
    }
    for c in 0..CONSUMERS {
        mediator.register_consumer(ConsumerId::new(c));
    }
    mediator
}

/// Single-class queries, with an `All` and an `Any` pair of classes every
/// third and fifth query, round-robin over the consumers.
fn query(id: u64) -> Query {
    let consumer = ConsumerId::new(id % CONSUMERS);
    let pair = CapabilitySet::from_capabilities([
        Capability::new((id % 3) as u8),
        Capability::new(((id + 1) % 3) as u8),
    ]);
    let required = if id.is_multiple_of(3) {
        CapabilityRequirement::All(pair)
    } else if id.is_multiple_of(5) {
        CapabilityRequirement::Any(pair)
    } else {
        CapabilityRequirement::Any(CapabilitySet::singleton(Capability::new((id % 3) as u8)))
    };
    Query::requiring(QueryId::new(id), consumer, required)
        .replication(1 + (id % 3) as usize)
        .build()
}

#[test]
fn nan_and_infinite_intentions_decide_as_their_tamed_values() {
    let (mut raw, mut tamed) = (mediator(), mediator());
    let (raw_oracle, tamed_oracle) = (PairOracle { tamed: false }, PairOracle { tamed: true });
    let mut selected = 0;
    for id in 0..QUERIES {
        let q = query(id);
        let got = raw.submit_in_place(&q, &raw_oracle).unwrap().clone();
        let want = tamed.submit_in_place(&q, &tamed_oracle).unwrap();
        // Debug renders every f64 exactly, so equal text is equal bits.
        assert_eq!(format!("{got:?}"), format!("{want:?}"), "query {id}");
        assert!(got.omega.is_none_or(f64::is_finite), "query {id}: ω");
        for proposal in &got.proposals {
            assert!(
                proposal.score.is_none_or(f64::is_finite),
                "query {id}: score"
            );
        }
        selected += got.selected.len();
    }
    // Queries were served, so the satisfactions below carry history.
    assert!(selected >= QUERIES as usize, "{selected} selections");
    for c in (0..CONSUMERS).map(ConsumerId::new) {
        let (got, want) = (
            raw.satisfaction().consumer_satisfaction(c).value(),
            tamed.satisfaction().consumer_satisfaction(c).value(),
        );
        assert!(got.is_finite(), "consumer {c}");
        assert_eq!(got.to_bits(), want.to_bits(), "consumer {c}");
    }
    for p in (0..PROVIDERS).map(ProviderId::new) {
        let (got, want) = (
            raw.satisfaction().provider_satisfaction(p).value(),
            tamed.satisfaction().provider_satisfaction(p).value(),
        );
        assert!(got.is_finite(), "provider {p}");
        assert_eq!(got.to_bits(), want.to_bits(), "provider {p}");
    }
}
