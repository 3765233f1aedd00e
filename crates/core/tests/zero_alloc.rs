//! Proof that steady-state mediation performs zero per-query heap
//! allocation.
//!
//! A counting global allocator wraps the system allocator; after warming the
//! mediator's scratch buffers (KnBest pool, decision, satisfaction views), a
//! sustained run of `submit_in_place` and `submit_batch` must not allocate
//! or reallocate at all — on plan-cache hits, on eviction and stale
//! re-merges into recycled plan entries, with the satisfaction registry's
//! touched-id tracking off (the default) and, once its id buffers are warm,
//! with it on and synced into a checkpoint copy (a replicated shard's
//! primary cutting checkpoints). Nor may a provider toggling offline and
//! online inside a populous postings chunk, once warm.
//!
//! Provider windows grow on demand *inside* those runs — nobody fills them
//! first. A growth step takes a block from the registry's pool, so the only
//! thing a registry ever asks the allocator for is a whole chunk of blocks:
//! the test first counts that on fresh providers (a chunk per 1 024 blocks
//! of a size class, where the per-participant trackers it replaces
//! allocated once per window per size), then gives those blocks back, which
//! leaves the pool able to serve every later growth step without a chunk.
//! A standalone window still grows through the allocator; its bound —
//! ⌈log2(k / 8)⌉ + 1 allocations in its life, never more than `k` slots — is
//! checked too.
//!
//! Both batch paths are phased — the select phases of a group of queries,
//! then their score phases — and both are measured warm: the mediator's own
//! `submit_batch`, and the service's batch step (`ShardedMediator` over one
//! shard) with a degradation ladder armed, through a burst that takes the
//! ladder through every tier and back. The baselines (Capacity, Economic,
//! Random) run the same phases, and a warm `submit_batch` under each is
//! measured too.
//!
//! Last, a warm one-shard `MediationService`: the producer's chunk buffers
//! come back to it through the ingest ring, so a further chunk allocates
//! only the doubling steps of the two vectors that keep a value per query,
//! the outcome stream and the latency samples, and the test counts those
//! exactly.
//!
//! This file deliberately contains a single test: the counter is
//! process-global, so a parallel test could pollute the measurement.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::Arc;

use sbqa_baselines::build_allocator;
use sbqa_core::postings::WORDS_MIN;
use sbqa_core::{DegradationConfig, Mediator, StaticIntentions};
use sbqa_satisfaction::{InteractionWindow, ProviderInteraction};
use sbqa_service::{IngestConfig, MediationService, ShardedMediator};
use sbqa_types::{
    AllocationPolicyKind, Capability, CapabilityRequirement, CapabilitySet, ConsumerId, Intention,
    ProviderId, Query, QueryId, SystemConfig, VirtualTime,
};

static COUNTING: AtomicBool = AtomicBool::new(false);
static ALLOCATIONS: AtomicUsize = AtomicUsize::new(0);

struct CountingAllocator;

// SAFETY: every method delegates verbatim to the `System` allocator and only
// adds a relaxed atomic counter bump, so the layout/pointer contracts of
// `GlobalAlloc` are exactly those `System` already upholds.
unsafe impl GlobalAlloc for CountingAllocator {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        if COUNTING.load(Ordering::Relaxed) {
            ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        }
        // SAFETY: forwarded unchanged; the caller's `layout` obligations
        // transfer directly to `System.alloc`.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: forwarded unchanged; `ptr` was produced by `System.alloc`
        // (all paths of this allocator delegate to `System`).
        unsafe { System.dealloc(ptr, layout) };
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        if COUNTING.load(Ordering::Relaxed) {
            ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        }
        // SAFETY: forwarded unchanged; `ptr`/`layout`/`new_size` obligations
        // transfer directly to `System.realloc`.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static ALLOCATOR: CountingAllocator = CountingAllocator;

fn query(id: u64) -> Query {
    Query::builder(QueryId::new(id), ConsumerId::new(1), Capability::new(0))
        .replication(2)
        .build()
}

/// Allocations a vector makes while pushes one at a time take it from
/// `from` to `to` elements: std's amortized growth allocates 4 slots at the
/// first push and doubles whenever the length reaches the capacity.
fn doublings(from: usize, to: usize) -> usize {
    (from..to)
        .filter(|&len| len == 0 || (len >= 4 && len.is_power_of_two()))
        .count()
}

/// A query whose `Pq` requires a postings-list merge: intersection for even
/// ids, union for odd ids, cycling over overlapping class pairs.
fn multi_query(id: u64) -> Query {
    let a = Capability::new((id % 3) as u8);
    let b = Capability::new(((id + 1) % 3) as u8);
    let set = CapabilitySet::from_capabilities([a, b]);
    let required = if id.is_multiple_of(2) {
        CapabilityRequirement::All(set)
    } else {
        CapabilityRequirement::Any(set)
    };
    Query::requiring(QueryId::new(id), ConsumerId::new(1), required)
        .replication(2)
        .build()
}

#[test]
fn steady_state_mediation_does_not_allocate() {
    // 13,000 providers over overlapping two-class capability sets on classes
    // {0, 1, 2}: each class's postings list holds ~8,666 providers and the
    // online list 13,000, all in one chunk of sorted keys that keeps its
    // bitset words — far past `postings::ARRAY_MAX` = 4,096, so most
    // measured merges are dense and read words only. A class-3 list added
    // near the end sits on the word boundary (`postings::WORDS_MIN` = 1,024)
    // instead.
    const PROVIDERS: u64 = 13_000;

    let config = SystemConfig::default().with_knbest(20, 4);

    // What a participant pays before its steady state: the window behind
    // either tracker kind doubles from 8 slots up to its capacity, so over
    // any number of records it allocates ⌈log2(capacity / 8)⌉ + 1 times at
    // most, and its ring never outgrows the capacity.
    let capacity = config.satisfaction_window;
    let growth_bound = (capacity as f64 / 8.0).log2().ceil().max(0.0) as usize + 1;
    let mut window = InteractionWindow::new(capacity);
    COUNTING.store(true, Ordering::SeqCst);
    for _ in 0..4 * capacity {
        window.record(ProviderInteraction::new(Intention::NEUTRAL, true));
        assert!(window.allocated_slots() <= capacity);
    }
    COUNTING.store(false, Ordering::SeqCst);
    let growth = ALLOCATIONS.swap(0, Ordering::SeqCst);
    assert!(
        (1..=growth_bound).contains(&growth),
        "{growth} growth allocations for a window of {capacity} (bound {growth_bound})"
    );
    assert_eq!(window.allocated_slots(), capacity);
    drop(window);

    let mut mediator = Mediator::sbqa(config.clone(), 42).unwrap();
    for p in 0..PROVIDERS {
        let caps = CapabilitySet::from_capabilities([
            Capability::new((p % 3) as u8),
            Capability::new(((p + 1) % 3) as u8),
        ]);
        mediator.register_provider(ProviderId::new(p), caps, 1.0);
    }
    mediator.register_consumer(ConsumerId::new(1));
    let oracle = StaticIntentions::new().with_defaults(Intention::new(0.4), Intention::new(0.2));

    // The consumer's own window first (it is one tracker of provider lists,
    // not pooled): `capacity` outcomes of two performers each.
    let performers = [
        (ProviderId::new(0), Intention::new(0.4)),
        (ProviderId::new(1), Intention::new(0.4)),
    ];
    for round in 0..capacity as u64 {
        mediator.satisfaction_mut().record_mediation(
            QueryId::new(900_000 + round),
            ConsumerId::new(1),
            2,
            &performers,
            &[],
        );
    }

    // What the provider side asks the allocator for: pool chunks, nothing
    // per participant. As many fresh providers again as the population —
    // known to the satisfaction registry only — take `capacity` proposals
    // each, round-robin, so all of them hold a block of the same size class
    // at once and every class up to the final one is carved to its peak.
    for p in PROVIDERS..2 * PROVIDERS {
        mediator
            .satisfaction_mut()
            .register_provider(ProviderId::new(p));
    }
    COUNTING.store(true, Ordering::SeqCst);
    for round in 0..capacity as u64 {
        for first in (PROVIDERS..2 * PROVIDERS).step_by(4) {
            let proposals: [(ProviderId, Intention, bool); 4] = std::array::from_fn(|i| {
                let p = first + i as u64;
                (ProviderId::new(p), Intention::new(0.2), p.is_multiple_of(2))
            });
            mediator.satisfaction_mut().record_mediation(
                QueryId::new(1_000_000 + round * PROVIDERS + first),
                ConsumerId::new(1),
                2,
                &performers,
                &proposals,
            );
        }
    }
    COUNTING.store(false, Ordering::SeqCst);
    let pool_allocations = ALLOCATIONS.swap(0, Ordering::SeqCst);
    // One chunk per 1 024 blocks of each of the `growth_bound` size classes
    // (8, 16, 32, 64 slots for k = 50), a few doublings of each class's
    // chunk table, and the class table itself.
    let chunks = (PROVIDERS as usize).div_ceil(1024);
    assert!(
        (growth_bound * chunks..=growth_bound * (chunks + 4) + 1).contains(&pool_allocations),
        "{pool_allocations} allocations to give {PROVIDERS} fresh providers full windows \
         ({chunks} chunks in each of {growth_bound} classes expected)"
    );
    // Their departure hands every block back — without touching the heap —
    // so from here on the pool holds a free block of every class for every
    // provider of the population: no growth step below can need a chunk.
    COUNTING.store(true, Ordering::SeqCst);
    for p in PROVIDERS..2 * PROVIDERS {
        assert!(mediator
            .satisfaction_mut()
            .remove_provider(ProviderId::new(p)));
    }
    COUNTING.store(false, Ordering::SeqCst);
    assert_eq!(
        ALLOCATIONS.swap(0, Ordering::SeqCst),
        0,
        "giving blocks back must not touch the heap"
    );

    // Warm-up: grow all scratch buffers, including the plan entries' merged
    // sets. The class populations are static here, so every All/Any class
    // pair reaches its maximal merge output size during warm-up.
    for id in 0..800u64 {
        mediator.submit_in_place(&query(id), &oracle).unwrap();
        mediator.submit_in_place(&multi_query(id), &oracle).unwrap();
    }
    let batch: Vec<Query> = (10_000..10_064u64).map(query).collect();
    let multi_batch: Vec<Query> = (20_000..20_064u64).map(multi_query).collect();
    // One warm-up pass per batch before counting starts.
    mediator.submit_batch(&batch, &oracle, |_, _, result| assert!(result.is_ok()));
    mediator.submit_batch(&multi_batch, &oracle, |_, _, result| {
        assert!(result.is_ok());
    });
    let warm_stats = mediator.plan_cache_stats();

    // Measured steady state: the single-capability fast path…
    COUNTING.store(true, Ordering::SeqCst);
    for id in 2_000..2_500u64 {
        let decision = mediator.submit_in_place(&query(id), &oracle).unwrap();
        assert_eq!(decision.selected.len(), 2);
    }
    let report = mediator.submit_batch(&batch, &oracle, |_, _, result| {
        assert!(result.is_ok());
    });
    // …and the multi-capability merge path (word-parallel intersections & unions).
    for id in 3_000..3_500u64 {
        let decision = mediator.submit_in_place(&multi_query(id), &oracle).unwrap();
        assert_eq!(decision.selected.len(), 2);
    }
    let multi_report = mediator.submit_batch(&multi_batch, &oracle, |_, _, result| {
        assert!(result.is_ok());
    });
    COUNTING.store(false, Ordering::SeqCst);

    assert_eq!(report.mediated, batch.len());
    assert_eq!(multi_report.mediated, multi_batch.len());
    let allocations = ALLOCATIONS.load(Ordering::SeqCst);
    assert_eq!(
        allocations, 0,
        "steady-state mediation must not touch the heap ({allocations} allocations observed)"
    );

    // The measured multi-capability resolutions were served by the plan
    // cache (the population is static, so nothing could go stale): hits
    // advanced, and not a single new merge or rebuild happened while the
    // allocation counter was armed — the zero above covers the hit path.
    let stats = mediator.plan_cache_stats();
    assert!(
        stats.hits > warm_stats.hits,
        "measured runs must hit the cache"
    );
    assert_eq!(stats.misses, warm_stats.misses, "no new plan was merged");
    assert_eq!(
        stats.stale_rebuilds, warm_stats.stale_rebuilds,
        "nothing was invalidated mid-measurement"
    );

    // A provider in the middle of those populous chunks toggling offline and
    // online: each flip moves the keys after it within the chunk's sorted
    // keys and flips one word bit. The keys keep their capacity and the
    // words stay, so once warm no flip may allocate.
    let toggle = |mediator: &mut Mediator, flips: usize| {
        for _ in 0..flips {
            for online in [false, true] {
                mediator
                    .set_provider_online(ProviderId::new(PROVIDERS / 2), online)
                    .unwrap();
            }
        }
    };
    toggle(&mut mediator, 2);
    let before = ALLOCATIONS.load(Ordering::SeqCst);
    COUNTING.store(true, Ordering::SeqCst);
    toggle(&mut mediator, 200);
    COUNTING.store(false, Ordering::SeqCst);
    assert_eq!(
        ALLOCATIONS.load(Ordering::SeqCst) - before,
        0,
        "a provider toggling inside a populous chunk must not touch the heap"
    );

    // Re-merges into recycled plan entries. With the cache bounded below
    // the six requirements `multi_query` cycles through, the first
    // resolution of each id below evicts; provider 0 (classes {0, 1}, one of
    // which every requirement mentions) flips between the two, so the second
    // finds its plan stale. One lap warms the two entries' sets, after which
    // neither kind of re-merge may allocate.
    mediator.set_plan_cache_capacity(2);
    let churn = |mediator: &mut Mediator, ids: std::ops::Range<u64>| {
        for id in ids {
            for online in [false, true] {
                mediator
                    .set_provider_online(ProviderId::new(0), online)
                    .unwrap();
                mediator.submit_in_place(&multi_query(id), &oracle).unwrap();
            }
        }
    };
    churn(&mut mediator, 5_000..5_006);
    let warm_stats = mediator.plan_cache_stats();
    let before = ALLOCATIONS.load(Ordering::SeqCst);
    COUNTING.store(true, Ordering::SeqCst);
    churn(&mut mediator, 5_006..5_306);
    COUNTING.store(false, Ordering::SeqCst);
    let allocations = ALLOCATIONS.load(Ordering::SeqCst) - before;
    assert_eq!(
        allocations, 0,
        "re-merging into a recycled plan entry must not touch the heap"
    );
    let stats = mediator.plan_cache_stats();
    assert_eq!(stats.evictions, warm_stats.evictions + 300);
    assert_eq!(stats.stale_rebuilds, warm_stats.stale_rebuilds + 300);
    assert_eq!(stats.hits, warm_stats.hits, "every resolution re-merged");

    // A class list on the word boundary: 1,024 providers of class 3 alone
    // make its one chunk an Array that has just built its words. One of them
    // flapping offline and online takes the list below WORDS_MIN and back,
    // and each flip re-merges a plan over it. Once warm, neither may
    // allocate: the Array keeps its words below WORDS_MIN rather than
    // dropping and rebuilding them.
    let boundary = 2 * PROVIDERS;
    for p in boundary..boundary + WORDS_MIN as u64 {
        let caps = CapabilitySet::singleton(Capability::new(3));
        mediator.register_provider(ProviderId::new(p), caps, 1.0);
    }
    let either = CapabilitySet::from_capabilities([Capability::new(0), Capability::new(3)]);
    let flap = |mediator: &mut Mediator, ids: std::ops::Range<u64>| {
        for id in ids {
            for online in [false, true] {
                mediator
                    .set_provider_online(ProviderId::new(boundary), online)
                    .unwrap();
                let q = Query::requiring(
                    QueryId::new(id),
                    ConsumerId::new(1),
                    CapabilityRequirement::Any(either),
                )
                .replication(2)
                .build();
                mediator.submit_in_place(&q, &oracle).unwrap();
            }
        }
    };
    flap(&mut mediator, 5_400..5_404);
    let warm_stats = mediator.plan_cache_stats();
    let before = ALLOCATIONS.load(Ordering::SeqCst);
    COUNTING.store(true, Ordering::SeqCst);
    flap(&mut mediator, 5_404..5_604);
    COUNTING.store(false, Ordering::SeqCst);
    let allocations = ALLOCATIONS.load(Ordering::SeqCst) - before;
    assert_eq!(
        allocations, 0,
        "a provider flapping on the word boundary must not touch the heap"
    );
    let stats = mediator.plan_cache_stats();
    assert_eq!(stats.stale_rebuilds, warm_stats.stale_rebuilds + 400);

    // The same steady state with touched-id tracking armed, synced into a
    // checkpoint copy every 256 queries the way a replicated shard cuts: one
    // window warms the id buffers, after which neither noting the touched
    // ids nor the sync — a touched row's header and block copied over, the
    // copy taking a block of the row's new class from its own pool where the
    // window grew — may allocate.
    let mut checkpoint = mediator.satisfaction().clone();
    mediator.satisfaction_mut().track_touched();
    let mut allocations_tracked = 0;
    for window in 0..4u64 {
        let before = ALLOCATIONS.load(Ordering::SeqCst);
        COUNTING.store(true, Ordering::SeqCst);
        for id in 0..256u64 {
            let q = query(4_000 + window * 256 + id);
            mediator.submit_in_place(&q, &oracle).unwrap();
        }
        let synced = mediator
            .satisfaction_mut()
            .sync_touched_into(&mut checkpoint)
            .expect("tracking is armed");
        COUNTING.store(false, Ordering::SeqCst);
        if window > 0 {
            allocations_tracked += ALLOCATIONS.load(Ordering::SeqCst) - before;
        }
        assert!(synced > 0 && synced <= 256 * 5, "{synced} trackers synced");
    }
    assert_eq!(
        allocations_tracked, 0,
        "steady-state mediation with touched-id tracking and checkpoint syncs must not touch the heap"
    );

    // The service's batch step with a ladder armed: one shard over a slice
    // of the same population, fed bursts of single- and multi-class queries
    // (a query every 0.1 ms against a drain of 1 000/s) separated by calms
    // that empty the bucket, so every batch walks the tiers Normal →
    // ShrinkKn → Baseline → Shed and back. The shard's latency recorder
    // keeps a sample per query in a vector that doubles: 17 warm batches
    // leave it 1 088 samples in a capacity of 2 048, and the 14 measured
    // ones stay inside it.
    let mut service = ShardedMediator::sbqa(config, 42, 1).unwrap();
    for p in 0..PROVIDERS / 4 {
        let caps = CapabilitySet::from_capabilities([
            Capability::new((p % 3) as u8),
            Capability::new(((p + 1) % 3) as u8),
        ]);
        service.register_provider(ProviderId::new(p), caps, 1.0);
    }
    service.register_consumer(ConsumerId::new(1));
    service
        .enable_degradation(DegradationConfig {
            capacity: 32,
            drain_rate: 1_000.0,
        })
        .unwrap();
    let bursts: Vec<Vec<Query>> = (0..31u64)
        .map(|batch| {
            (0..64u64)
                .map(|i| {
                    let id = 50_000 + batch * 64 + i;
                    let mut q = if i % 2 == 0 {
                        query(id)
                    } else {
                        multi_query(id)
                    };
                    q.issued_at = VirtualTime::new(batch as f64 + i as f64 * 1e-4);
                    q
                })
                .collect()
        })
        .collect();
    let mut tiers = [0u64; 4];
    let mut run = |service: &mut ShardedMediator, batches: &[Vec<Query>]| {
        for batch in batches {
            service.submit_batch(batch, &oracle, |_, _, result| match result {
                Ok(decision) if decision.omega.is_none() => tiers[2] += 1,
                Ok(decision) if decision.proposals.len() == 2 => tiers[1] += 1,
                Ok(_) => tiers[0] += 1,
                Err(_) => tiers[3] += 1,
            });
        }
    };
    run(&mut service, &bursts[..17]);
    let before = ALLOCATIONS.load(Ordering::SeqCst);
    COUNTING.store(true, Ordering::SeqCst);
    run(&mut service, &bursts[17..]);
    COUNTING.store(false, Ordering::SeqCst);
    let allocations = ALLOCATIONS.load(Ordering::SeqCst) - before;
    assert_eq!(
        allocations, 0,
        "the service's phased batch step with a ladder armed must not touch the heap"
    );
    let stats = service.shard(0).ladder().expect("armed").stats();
    assert!(
        stats.normal > 0 && stats.shrink_kn > 0 && stats.baseline > 0 && stats.shed > 0,
        "every tier was met: {stats:?}"
    );
    assert!(tiers.iter().all(|&count| count > 0), "{tiers:?}");

    // A warm baseline group: Capacity and Economic rank the view in the
    // select phase and Random draws from it, so their batches run the same
    // two phases over the mediator's reused scratch. 64 providers with
    // loads that differ, single- and multi-class queries; satisfaction
    // windows of 8 slots are full-sized from a participant's first record,
    // which warm-up makes for every provider a technique ever consults.
    for kind in [
        AllocationPolicyKind::Capacity,
        AllocationPolicyKind::Economic,
        AllocationPolicyKind::Random,
    ] {
        let allocator = build_allocator(kind, &SystemConfig::default(), 42).unwrap();
        let mut mediator = Mediator::new(allocator, 8);
        for p in 0..64u64 {
            let caps = CapabilitySet::from_capabilities([
                Capability::new((p % 3) as u8),
                Capability::new(((p + 1) % 3) as u8),
            ]);
            mediator.register_provider(ProviderId::new(p), caps, 1.0 + (p % 4) as f64);
            mediator
                .update_provider_load(ProviderId::new(p), (p * 7 % 11) as f64, 0)
                .unwrap();
        }
        mediator.register_consumer(ConsumerId::new(1));
        let batches: Vec<Vec<Query>> = (0..24u64)
            .map(|batch| {
                (0..64u64)
                    .map(|i| {
                        let id = 70_000 + batch * 64 + i;
                        if i % 2 == 0 {
                            query(id)
                        } else {
                            multi_query(id)
                        }
                    })
                    .collect()
            })
            .collect();
        let run = |mediator: &mut Mediator, batches: &[Vec<Query>]| {
            for batch in batches {
                let report = mediator.submit_batch(batch, &oracle, |_, _, result| {
                    assert_eq!(result.map(|decision| decision.selected.len()), Ok(2));
                });
                assert_eq!(report.mediated, batch.len());
            }
        };
        run(&mut mediator, &batches[..16]);
        let before = ALLOCATIONS.load(Ordering::SeqCst);
        COUNTING.store(true, Ordering::SeqCst);
        run(&mut mediator, &batches[16..]);
        COUNTING.store(false, Ordering::SeqCst);
        let allocations = ALLOCATIONS.load(Ordering::SeqCst) - before;
        assert_eq!(
            allocations,
            0,
            "a warm {} group must not touch the heap",
            kind.label()
        );
    }

    // A warm one-shard threaded service. Its ring holds exactly one chunk
    // of 64, so `enqueue_batch` of chunk n returns only once chunk n - 1's
    // mediation has ended and its buffer has come back to the producer: two
    // buffers take turns from chunk 2 on. Eight providers share the
    // proposals, so 6 warm chunks (384 queries) fill the windows of a
    // capacity of 50. Counted from chunk 6's
    // enqueue to chunk 31's, the shard thread may still be in chunk 5 when
    // counting starts and already in chunk 31 when it stops; neither crosses
    // a doubling, so the count is exact.
    let size = 64;
    let mut service =
        ShardedMediator::sbqa(SystemConfig::default().with_knbest(20, 4), 7, 1).unwrap();
    for p in 0..8 {
        let caps = CapabilitySet::singleton(Capability::new(0));
        service.register_provider(ProviderId::new(p), caps, 1.0);
    }
    service.register_consumer(ConsumerId::new(1));
    let ring = IngestConfig {
        ring_capacity: size,
        degradation: None,
    };
    let mut running = MediationService::spawn_with(service, Arc::new(oracle), ring).unwrap();
    let mut enqueue = |chunks: std::ops::Range<usize>| {
        for chunk in chunks {
            let first = (60_000 + chunk * size) as u64;
            running.enqueue_batch((first..first + size as u64).map(query));
        }
    };
    enqueue(0..6);
    let before = ALLOCATIONS.load(Ordering::SeqCst);
    COUNTING.store(true, Ordering::SeqCst);
    enqueue(6..32);
    COUNTING.store(false, Ordering::SeqCst);
    let allocations = ALLOCATIONS.load(Ordering::SeqCst) - before;
    assert_eq!(doublings(5 * size, 6 * size), 0);
    assert_eq!(doublings(31 * size, 32 * size), 0);
    let expected = 2 * doublings(5 * size, 32 * size);
    assert_eq!(
        expected, 4,
        "the outcomes and the latency samples at 512 and 1 024"
    );
    assert_eq!(
        allocations, expected,
        "a warm threaded service allocates only its per-query vectors' doublings"
    );
    let report = running.finish();
    assert_eq!(report.total.mediated, 32 * size);
}
