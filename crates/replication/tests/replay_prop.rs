//! Property tests of the replication contract: for any churn history and any
//! snapshot cut point, **snapshot + delta replay ≡ the live registry** —
//! same slab iteration order, same online counts, same candidate answers —
//! and the reconstruction does not depend on where the snapshot was cut.
//!
//! The second half holds the **incremental checkpoint** to the same
//! standard: a standby cut incrementally at random points is, after every
//! cut, digest-equal (registry and satisfaction) to the primary a full clone
//! would have copied, and promoting it after a crash continues the decision
//! stream of a mediator that never crashed — whether a cut replays the
//! changes since the last one or copies the state they would change. The
//! promotion replays one log: mutations, queries with their verdicts and
//! consumer registrations, in the order the primary met them. A log that
//! cannot carry the checkpoint forward (pruned past it, ending before it,
//! gapped, or missing a query's body) is a `replication gap` to every
//! reader, and changes neither the standby nor the log.

use std::cell::Cell;

use proptest::prelude::*;

use sbqa_core::{
    Admission, DegradationTier, Mediator, ProviderRegistry, RegistryDelta, StaticIntentions,
};
use sbqa_replication::{registry_digest, satisfaction_digest, Entry, SharedDeltaLog, StandbyShard};
use sbqa_satisfaction::SatisfactionRegistry;
use sbqa_types::{
    Capability, CapabilityRequirement, CapabilitySet, ConsumerId, Intention, ProviderId, Query,
    QueryId, SbqaError, SystemConfig,
};

/// Capability classes the generated populations draw from.
const CLASSES: u8 = 5;

/// The verdict of a primary without a degradation ladder.
const ADMITTED: Admission = Admission::Admit(DegradationTier::Normal);
/// Provider id space; small so churn revisits the same providers.
const IDS: u64 = 24;

fn capability_set(mask: u8) -> CapabilitySet {
    let mask = if mask & 0x1F == 0 { 1 } else { mask };
    CapabilitySet::from_capabilities(
        (0..CLASSES)
            .filter(|class| mask & (1 << class) != 0)
            .map(Capability::new),
    )
}

/// One raw churn op: `(selector, provider id, mask/load byte, flag)`.
type RawOp = (u8, u64, u8, bool);

/// The mutation one raw churn op asks for.
fn delta_of(op: RawOp) -> RegistryDelta {
    let (selector, id, byte, flag) = op;
    let id = ProviderId::new(id % IDS);
    match selector % 4 {
        0 => RegistryDelta::Register {
            id,
            capabilities: capability_set(byte),
            capacity: 1.0 + f64::from(byte % 4),
        },
        1 => RegistryDelta::Unregister { id },
        2 => RegistryDelta::SetOnline { id, online: flag },
        _ => RegistryDelta::UpdateLoad {
            id,
            utilization: f64::from(byte) * 0.25,
            queue_length: usize::from(byte % 8),
        },
    }
}

/// Applies one decoded op to the live registry and appends it to `log` if
/// it was effective, as the shard does (replay reaches the replica through
/// the log instead). Unknown providers are an error at the API; not a
/// mutation.
fn apply_op(registry: &mut ProviderRegistry, log: &SharedDeltaLog, op: RawOp) {
    let delta = delta_of(op);
    if delta.apply(registry) == Ok(true) {
        log.append_mutation(delta);
    }
}

/// The state probes replay must reproduce: slab iteration rows (order
/// included), online tally, and candidate answers per class.
fn observe(registry: &mut ProviderRegistry) -> (Vec<String>, usize, Vec<Vec<u64>>) {
    let rows: Vec<String> = registry.iter().map(|s| format!("{s:?}")).collect();
    let online = registry.online_count();
    let candidates: Vec<Vec<u64>> = (0..CLASSES)
        .map(|class| {
            let query = Query::requiring(
                QueryId::new(1),
                ConsumerId::new(1),
                CapabilityRequirement::All(CapabilitySet::singleton(Capability::new(class))),
            )
            .build();
            registry
                .candidates(&query)
                .iter()
                .map(|p| p.id.raw())
                .collect()
        })
        .collect();
    (rows, online, candidates)
}

/// The mutations the log holds past `watermark`, oldest first.
fn mutations_after(log: &SharedDeltaLog, watermark: u64) -> Vec<RegistryDelta> {
    let mut mutations = Vec::new();
    log.visit_after(watermark, |_, entry| {
        if let Some(Entry::Mutation(delta)) = entry {
            mutations.push(delta);
        }
        Ok::<(), ()>(())
    })
    .expect("log never pruned here")
    .expect("the visit cannot fail");
    mutations
}

/// Replays the log tail after `watermark` into `replica`.
fn replay(replica: &mut ProviderRegistry, log: &SharedDeltaLog, watermark: u64) {
    for delta in mutations_after(log, watermark) {
        delta
            .apply(replica)
            .expect("a recorded mutation replays cleanly");
    }
}

proptest! {
    #[test]
    fn snapshot_plus_replay_equals_live_state(
        ops in proptest::collection::vec(
            (0u8..8, 0u64..IDS, 0u8..=255, proptest::bool::ANY),
            1..60,
        ),
        cut_fraction in 0u8..=100,
    ) {
        let log = SharedDeltaLog::new();
        let mut live = ProviderRegistry::new();

        // Apply the prefix, cut a snapshot, then apply the suffix.
        let cut = ops.len() * usize::from(cut_fraction) / 100;
        for &op in &ops[..cut] {
            apply_op(&mut live, &log, op);
        }
        let snapshot = live.clone();
        let watermark = log.last_sequence();
        for &op in &ops[cut..] {
            apply_op(&mut live, &log, op);
        }

        // Replay the tail into the snapshot and compare against the live
        // registry, byte for byte.
        let mut replica = snapshot;
        replay(&mut replica, &log, watermark);
        prop_assert_eq!(registry_digest(&replica), registry_digest(&live));
        let (live_rows, live_online, live_candidates) = observe(&mut live);
        let (replica_rows, replica_online, replica_candidates) = observe(&mut replica);
        prop_assert_eq!(replica_rows, live_rows);
        prop_assert_eq!(replica_online, live_online);
        prop_assert_eq!(replica_candidates, live_candidates);
    }

    #[test]
    fn replay_is_insensitive_to_the_cut_point(
        ops in proptest::collection::vec(
            (0u8..8, 0u64..IDS, 0u8..=255, proptest::bool::ANY),
            2..50,
        ),
        early_fraction in 0u8..=50,
        late_fraction in 51u8..=100,
    ) {
        let log = SharedDeltaLog::new();
        let mut live = ProviderRegistry::new();

        let early_cut = ops.len() * usize::from(early_fraction) / 100;
        let late_cut = ops.len() * usize::from(late_fraction) / 100;

        let mut early_snapshot = None;
        let mut late_snapshot = None;
        for (position, &op) in ops.iter().enumerate() {
            if position == early_cut {
                early_snapshot = Some((live.clone(), log.last_sequence()));
            }
            if position == late_cut {
                late_snapshot = Some((live.clone(), log.last_sequence()));
            }
            apply_op(&mut live, &log, op);
        }
        let (mut early_replica, early_mark) =
            early_snapshot.unwrap_or_else(|| (ProviderRegistry::new(), 0));
        let (mut late_replica, late_mark) =
            late_snapshot.unwrap_or_else(|| (ProviderRegistry::new(), 0));

        replay(&mut early_replica, &log, early_mark);
        replay(&mut late_replica, &log, late_mark);
        let reference = registry_digest(&live);
        prop_assert_eq!(registry_digest(&early_replica), reference);
        prop_assert_eq!(registry_digest(&late_replica), reference);
    }

}

// ---------------------------------------------------------------------------
// Incremental checkpoints
// ---------------------------------------------------------------------------

/// A primary mediator wired the way `MediatorShard::replicate` wires one —
/// satisfaction registry tracking touched ids — with its standby
/// bootstrapped from full clones. Effective mutations, queries and consumer
/// registrations are appended to the log the way
/// `MediatorShard::{mutate, submit, register_consumer}` append them.
struct Replicated {
    primary: Mediator,
    log: SharedDeltaLog,
    standby: StandbyShard,
    /// An upper bound on the satisfaction ids the primary touched since the
    /// last cut, kept by the caller ([`may_touch`]).
    may_touch: usize,
    /// Every satisfaction participant arrived since the last cut: the
    /// bootstrap shape before its first cut.
    all_touched: bool,
}

/// `kn` of every run's mediator: a mediation touches at most the consumer
/// and `KN` providers.
const KN: usize = 3;

/// The mediator every run starts from, before its population: short
/// satisfaction windows so they rotate within a run.
fn unpopulated_mediator() -> Mediator {
    let config = SystemConfig::default().with_knbest(6, KN).with_window(4);
    Mediator::sbqa(config, 42).expect("valid config")
}

/// Every run's provider population: 12 providers over the class space. The
/// one consumer, 0, is registered beside it.
fn population() -> impl Iterator<Item = RegistryDelta> {
    (0..12u64).map(|id| RegistryDelta::Register {
        id: ProviderId::new(id),
        capabilities: capability_set(1 << (id % 5)),
        capacity: 1.0,
    })
}

fn seeded_mediator() -> Mediator {
    let mut mediator = unpopulated_mediator();
    for delta in population() {
        mediator.mutate(&delta).expect("a registration applies");
    }
    mediator.register_consumer(ConsumerId::new(0));
    mediator
}

fn oracle() -> StaticIntentions {
    let mut oracle =
        StaticIntentions::new().with_defaults(Intention::new(0.6), Intention::new(-0.2));
    for id in 0..IDS {
        oracle.set_provider_intention(ProviderId::new(id), Intention::new(id as f64 / 12.0 - 1.0));
    }
    oracle
}

/// Which way the two halves of a cut went, as far as a caller can tell from
/// outside: copied whole (`true`) or replayed row by row (`false`); `None`
/// when the satisfaction half could have gone either way.
#[derive(Debug, Clone, Copy)]
struct CutBranches {
    registry: bool,
    satisfaction: Option<bool>,
}

fn participants(satisfaction: &SatisfactionRegistry) -> usize {
    satisfaction.consumer_count() + satisfaction.provider_count()
}

impl Replicated {
    fn arm(mut primary: Mediator) -> Self {
        let log = SharedDeltaLog::new();
        let standby = StandbyShard::new(
            primary.fork_allocator(),
            primary.providers().clone(),
            primary.satisfaction().clone(),
            log.last_sequence(),
        );
        let all_touched = participants(primary.satisfaction()) == 0;
        primary.satisfaction_mut().track_touched();
        Self {
            primary,
            log,
            standby,
            may_touch: 0,
            all_touched,
        }
    }

    /// The population registered before arming.
    fn new() -> Self {
        Self::arm(seeded_mediator())
    }

    /// The shape `ReplicatedMediator` has: an empty mediator armed, then the
    /// population registered through the log.
    fn bootstrap() -> Self {
        let mut replicated = Self::arm(unpopulated_mediator());
        for delta in population() {
            replicated.mutate(delta).expect("a registration applies");
        }
        replicated.primary.register_consumer(ConsumerId::new(0));
        replicated.log.append_consumer(ConsumerId::new(0));
        replicated
    }

    /// Applies a mutation to the primary and logs it if it was effective,
    /// as `MediatorShard::mutate` does.
    fn mutate(&mut self, delta: RegistryDelta) -> Result<(), SbqaError> {
        if self.primary.mutate(&delta)? {
            self.log.append_mutation(delta);
        }
        Ok(())
    }

    /// Offers `query` to the primary, logged first as the shard logs it.
    fn submit(&mut self, query: &Query, oracle: &StaticIntentions) -> Option<Vec<u64>> {
        self.log.append_query(query, ADMITTED);
        self.primary
            .submit_in_place(query, oracle)
            .ok()
            .map(|decision| decision.selected.iter().map(|p| p.raw()).collect())
    }

    /// One cut, as `MediatorShard::checkpoint` makes it.
    fn cut(&mut self) -> CutBranches {
        let branches = CutBranches {
            // The registry rule reads the mutations the log holds past the
            // checkpoint against the primary's registry.
            registry: mutations_after(&self.log, self.standby.watermark()).len()
                >= self.primary.providers().len(),
            satisfaction: if self.all_touched {
                Some(true)
            } else if self.may_touch < participants(self.primary.satisfaction()) {
                Some(false)
            } else {
                None
            },
        };
        self.standby
            .cut_checkpoint(&mut self.primary, &self.log)
            .expect("a contiguous log cuts");
        self.may_touch = 0;
        self.all_touched = false;
        branches
    }

    /// What a cut must have produced: the state a full clone would hold.
    fn checkpoint_equals_primary(&self) -> bool {
        let (providers, satisfaction) = self.standby.checkpoint();
        registry_digest(providers) == registry_digest(self.primary.providers())
            && satisfaction_digest(satisfaction) == satisfaction_digest(self.primary.satisfaction())
    }
}

/// Everything observable of a standby and the log it reads, for "the failed
/// call changed nothing".
type State = (u64, u64, u64, u64, usize, u64);

fn standby_state(standby: &StandbyShard, log: &SharedDeltaLog) -> State {
    let (providers, satisfaction) = standby.checkpoint();
    (
        standby.watermark(),
        standby.checkpoints(),
        registry_digest(providers),
        satisfaction_digest(satisfaction),
        log.depth(),
        log.last_sequence(),
    )
}

/// One decoded op of the incremental-checkpoint runs.
#[derive(Debug, Clone, Copy)]
enum Op {
    Registry(RawOp),
    /// Forget a provider's satisfaction history, then cut: a removal for the
    /// cut to propagate. (The removal itself is host-side churn that the
    /// log does not carry, so only a cut makes it safe.)
    ForgetAndCut(u64),
    Consumer(u64),
    Query {
        id: u64,
        consumer: u64,
        byte: u8,
        multi: bool,
        any: bool,
    },
    Cut,
}

fn decode(position: usize, raw: RawOp) -> Op {
    let (selector, id, byte, flag) = raw;
    match selector % 12 {
        0..=3 => Op::Registry(raw),
        4 => Op::ForgetAndCut(id % IDS),
        5 => Op::Consumer(id % 4),
        6 => Op::Cut,
        selector => Op::Query {
            id: position as u64,
            consumer: id % 4,
            byte,
            multi: selector >= 10,
            any: flag,
        },
    }
}

/// At most how many satisfaction ids `op` touches on a primary: a
/// registration or removal its one, a mediation its consumer and `Kn`.
fn may_touch(op: Op) -> usize {
    match op {
        Op::Registry((selector, ..)) => usize::from(selector % 4 == 0),
        Op::ForgetAndCut(_) | Op::Consumer(_) => 1,
        Op::Query { .. } => 1 + KN,
        Op::Cut => 0,
    }
}

fn build_query(id: u64, consumer: u64, byte: u8, multi: bool, any: bool) -> Query {
    let set = if multi {
        capability_set(byte)
    } else {
        capability_set(1 << (byte % CLASSES))
    };
    let required = if any {
        CapabilityRequirement::Any(set)
    } else {
        CapabilityRequirement::All(set)
    };
    Query::requiring(QueryId::new(id), ConsumerId::new(consumer), required)
        .replication(1 + usize::from(byte % 2))
        .build()
}

/// Applies a non-cut op to a bare mediator; a query returns its outcome.
fn apply(mediator: &mut Mediator, op: Op, oracle: &StaticIntentions) -> Option<Option<Vec<u64>>> {
    match op {
        Op::Registry(raw) => {
            // Unknown providers are an error at the API; not a mutation.
            let _ = mediator.mutate(&delta_of(raw));
            None
        }
        Op::ForgetAndCut(id) => {
            mediator
                .satisfaction_mut()
                .remove_provider(ProviderId::new(id));
            None
        }
        Op::Consumer(id) => {
            mediator.register_consumer(ConsumerId::new(id));
            None
        }
        Op::Query {
            id,
            consumer,
            byte,
            multi,
            any,
        } => Some(
            mediator
                .submit_in_place(&build_query(id, consumer, byte, multi, any), oracle)
                .ok()
                .map(|decision| decision.selected.iter().map(|p| p.raw()).collect()),
        ),
        Op::Cut => None,
    }
}

thread_local! {
    /// Cuts of the property below by the branch each half took: registry
    /// copied, registry replayed, satisfaction copied, satisfaction
    /// replayed.
    static BRANCHES: Cell<[usize; 4]> = const { Cell::new([0; 4]) };
}

fn tally(branches: CutBranches) {
    BRANCHES.with(|tally| {
        let mut counts = tally.get();
        counts[usize::from(!branches.registry)] += 1;
        if let Some(copied) = branches.satisfaction {
            counts[2 + usize::from(!copied)] += 1;
        }
        tally.set(counts);
    });
}

#[test]
fn incremental_cuts_equal_full_clones_and_promotion_continues_the_stream() {
    cuts_and_promotion_under_random_histories();
    let counts = BRANCHES.with(Cell::get);
    assert!(
        counts.iter().all(|&cuts| cuts > 0),
        "every branch of a cut ran: {counts:?}"
    );
}

proptest! {
    /// Both shapes: the population registered before arming, or through
    /// the log after it (`bootstrap`), whose first cut copies both halves.
    fn cuts_and_promotion_under_random_histories(
        raw in proptest::collection::vec(
            (0u8..12, 0u64..IDS, 0u8..=255, proptest::bool::ANY),
            1..120,
        ),
        crash_fraction in 0u8..=100,
        bootstrap in proptest::bool::ANY,
    ) {
        let oracle = oracle();
        let ops: Vec<Op> = raw.iter().enumerate().map(|(i, &op)| decode(i, op)).collect();
        let crash = ops.len() * usize::from(crash_fraction) / 100;

        let mut replicated = if bootstrap {
            Replicated::bootstrap()
        } else {
            Replicated::new()
        };
        let mut uninterrupted = seeded_mediator();
        let mut outcomes = Vec::new();
        let mut expected = Vec::new();

        for &op in &ops[..crash] {
            replicated.may_touch += may_touch(op);
            match op {
                Op::Cut | Op::ForgetAndCut(_) => {
                    apply(&mut replicated.primary, op, &oracle);
                    tally(replicated.cut());
                    prop_assert!(replicated.checkpoint_equals_primary());
                    prop_assert_eq!(replicated.log.depth(), 0);
                    prop_assert_eq!(
                        replicated.standby.watermark(),
                        replicated.log.last_sequence()
                    );
                }
                Op::Consumer(id) => {
                    apply(&mut replicated.primary, op, &oracle);
                    replicated.log.append_consumer(ConsumerId::new(id));
                }
                Op::Query { id, consumer, byte, multi, any } => {
                    let query = build_query(id, consumer, byte, multi, any);
                    outcomes.push(replicated.submit(&query, &oracle));
                }
                Op::Registry(raw) => {
                    // Unknown providers are an error at the API; not a
                    // mutation.
                    let _ = replicated.mutate(delta_of(raw));
                }
            }
            expected.extend(apply(&mut uninterrupted, op, &oracle));
            // Snapshot + replay equals the live registry after every op.
            prop_assert_eq!(
                replicated.standby.replay_digest(&replicated.log),
                Ok(registry_digest(replicated.primary.providers()))
            );
        }

        // The crash: the primary is gone; the standby alone carries on.
        let Replicated { primary, log, mut standby, .. } = replicated;
        drop(primary);
        let past = standby.catch_up(&log).expect("contiguous log");
        prop_assert_eq!(past, log.depth());
        let (mut promoted, _) = standby.promote(&log, &oracle).expect("clean replay");
        prop_assert_eq!(
            registry_digest(promoted.providers()),
            registry_digest(uninterrupted.providers())
        );
        prop_assert_eq!(
            satisfaction_digest(promoted.satisfaction()),
            satisfaction_digest(uninterrupted.satisfaction())
        );

        for &op in &ops[crash..] {
            outcomes.extend(apply(&mut promoted, op, &oracle));
            expected.extend(apply(&mut uninterrupted, op, &oracle));
        }
        prop_assert_eq!(outcomes, expected);
    }
}

/// A few mediations and load writes, all logged.
fn warm(replicated: &mut Replicated, queries: std::ops::Range<u64>) {
    let oracle = oracle();
    for id in queries {
        replicated.submit(&build_query(id, id % 2, id as u8, false, false), &oracle);
        replicated
            .mutate(RegistryDelta::UpdateLoad {
                id: ProviderId::new(id % 12),
                utilization: id as f64,
                queue_length: 1,
            })
            .expect("registered");
    }
}

/// Asserts that `log` is a `replication gap` to every reader of `standby` —
/// `catch_up`, `cut_checkpoint` and `promote` — and that the reads and the
/// refused cut changed neither the standby nor the log.
fn assert_a_gap(replicated: &mut Replicated, log: &SharedDeltaLog) {
    let is_gap = |error: SbqaError| {
        assert!(error.to_string().contains("replication gap"), "{error}");
    };
    let before = standby_state(&replicated.standby, log);
    is_gap(replicated.standby.catch_up(log).expect_err("a gap"));
    is_gap(
        replicated
            .standby
            .cut_checkpoint(&mut replicated.primary, log)
            .expect_err("a gap"),
    );
    is_gap(replicated.standby.replay_digest(log).expect_err("a gap"));
    assert_eq!(standby_state(&replicated.standby, log), before);
    let standby = StandbyShard::new(
        replicated.primary.fork_allocator(),
        replicated.standby.checkpoint().0.clone(),
        replicated.standby.checkpoint().1.clone(),
        replicated.standby.watermark(),
    );
    is_gap(standby.promote(log, &oracle()).expect_err("a gap"));
}

#[test]
fn a_log_pruned_past_the_checkpoint_is_a_gap_that_changes_nothing() {
    let mut replicated = Replicated::new();
    warm(&mut replicated, 0..8);
    let log = replicated.log.clone();
    log.prune_through(log.last_sequence() - 1);
    assert!(replicated.standby.watermark() < log.last_sequence() - 1);
    assert_a_gap(&mut replicated, &log);
}

#[test]
fn a_log_ending_before_the_checkpoint_is_a_gap_that_changes_nothing() {
    let mut replicated = Replicated::new();
    warm(&mut replicated, 0..4);
    replicated.cut();
    let installed = replicated.standby.watermark();

    // A log of some other shard, shorter than this checkpoint.
    let short = SharedDeltaLog::new();
    short.append_consumer(ConsumerId::new(0));
    assert!(short.last_sequence() < installed);
    assert_a_gap(&mut replicated, &short);

    // The refused cut consumed nothing on the primary: the next cut on the
    // shard's own log carries everything touched since the checkpoint.
    warm(&mut replicated, 4..8);
    replicated.cut();
    assert!(replicated.checkpoint_equals_primary());
}

#[test]
fn a_cut_from_an_untracked_primary_is_refused_and_changes_nothing() {
    let mut replicated = Replicated::new();
    warm(&mut replicated, 0..4);
    let mut untracked = seeded_mediator();
    let before = standby_state(&replicated.standby, &replicated.log);
    let error = replicated
        .standby
        .cut_checkpoint(&mut untracked, &replicated.log)
        .expect_err("no touched set to copy from");
    assert!(error.to_string().contains("track"), "{error}");
    assert_eq!(standby_state(&replicated.standby, &replicated.log), before);

    // The refused cut consumed nothing on the primary: the next proper cut
    // carries everything touched since the bootstrap.
    replicated.cut();
    assert!(replicated.checkpoint_equals_primary());
}
