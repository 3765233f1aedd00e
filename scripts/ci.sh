#!/usr/bin/env bash
# Local CI gate: formatting, lints, the tier-1 verify, and the auxiliary
# targets (workspace tests, examples, scenario smokes, the perf/ benchmark).
#
# Usage: scripts/ci.sh

set -euo pipefail
cd "$(dirname "$0")/.."

echo "== cargo fmt --check"
cargo fmt --check

echo "== cargo clippy (all targets, warnings are errors)"
cargo clippy --workspace --all-targets -- -D warnings

echo "== cargo doc (no deps, rustdoc warnings are errors)"
RUSTDOCFLAGS="-D warnings" cargo doc --no-deps --workspace --quiet

echo "== sbqa-lint (repo-specific static analysis, warnings are errors)"
# Source-level proof of the determinism / panic-freedom / unsafe-audit
# contracts (ARCHITECTURE.md "Statically-enforced invariants"): no wall
# clock, hash-ordered collections or entropy-seeded RNG in deterministic
# crates, no panics in mediator library code, no partial_cmp float ordering,
# SAFETY comments on every unsafe block, no pub item that no other file
# names — with justified waivers pinned in bench_results/LINT_baseline.json.
cargo run --release -p sbqa-lint -- --deny-warnings

echo "== sbqa-lint baseline: the --json report equals bench_results/LINT_baseline.json"
# Waivers are keyed by path, rule and justification (no line numbers), so
# the report changes only when a waiver is added, removed or reworded; such
# a change must re-pin the committed baseline in the same commit.
if ! diff -u bench_results/LINT_baseline.json \
    <(cargo run --release -q -p sbqa-lint -- --json); then
    echo "the lint report differs from bench_results/LINT_baseline.json (see above)" >&2
    exit 1
fi

echo "== no hash collection behind the satisfaction registry or the provider index"
# Both resolve ids through sbqa_types::IdDirectory (keyless open addressing,
# no per-process hasher state, never iterated). A waiver would get a HashMap
# past sbqa-lint; nothing gets it past this.
if grep -rnE "Hash(Map|Set)" crates/satisfaction/src \
    || grep -n "HashMap<ProviderId" crates/core/src/registry.rs; then
    echo "hash collections are not allowed here (see above)" >&2
    exit 1
fi

echo "== one way to resolve Pq: no batch memo, plan handle or uncached merge path"
# ProviderRegistry::candidates is the only resolution entry point and the
# LRU plan cache the only cache (its capacity is a size, clamped to >= 1).
# The names of the mechanisms it replaced must not come back.
if grep -rnE "set_batch_dedup|BatchMemo|PlanHandle|uncached_set|plan_is_current|cached_plan_view|resolve_with_handle|plan_cache_enabled" \
    crates src tests examples; then
    echo "a second Pq resolution path is not allowed (see above)" >&2
    exit 1
fi

echo "== one id -> slot map: postings hold membership only"
# A provider's slab slot is recorded in one structure, the keyless directory
# inside sbqa_types::ProviderColumns (push / swap_remove / slot_of). The
# postings maps and merged sets name ids; a compaction re-points one
# directory entry. The per-list slot payloads and their readers must not
# come back.
if grep -rnE "patch_slot|slot_at|MergedSlots|BitmapChunk|SlotIter" crates src tests examples; then
    echo "a second id -> slot record is not allowed (see above)" >&2
    exit 1
fi

echo "== a candidate view carries no identity: no plan token, mutation stamp or gather memo"
# Candidates::gather_all_into always gathers; a CandidateBlock is scratch that
# remembers nothing about the view it came from. The registry keeps no
# registry-wide mutation counter and numbers no plan-cache entry. The names
# of the deleted dedup mechanism must not come back.
if grep -rnE "PlanToken|with_token|mutation_stamp|next_occupancy|FIRST_OCCUPANCY" \
    crates src tests examples; then
    echo "gather dedup by view identity is not allowed (see above)" >&2
    exit 1
fi

echo "== the admission verdict is an argument: no tier mode, copied floor or second verdict type"
# The ladder's Admission goes to Mediator::submit_at with each query and into
# the shard's log beside it; the mediator keeps no tier between queries
# and ShrinkKn clamps to the constant SHRINK_KN_FLOOR. Adaptive kn is enabled
# fallibly and never toggled off, and a threaded service always names its
# ring. The names of the deleted modes, knobs and defaults must not come back.
if grep -rnE "set_degradation_tier|degraded_kn_floor|set_degraded_floor|QueryDisposition|JournalEntry|observe_query_with|floor_kn|disable_adaptive_kn|IngestConfig::default|MediationService::spawn\(" \
    crates src tests examples; then
    echo "a per-query mode, a copied floor or a ring default is not allowed (see above)" >&2
    exit 1
fi

echo "== one host, one departure rule: the closed loop leaves through an offline flag"
# The closed loop drives a one-shard ShardedMediator, the service's one
# shard step. A leaving participant goes offline (provider) or stops issuing
# (consumer) and keeps its satisfaction row; both loops ask
# DeparturePolicy::{consumer_leaves, provider_leaves}. The names of the
# deleted second rule, third driver and row removal must not come back.
if grep -rnE "evaluate_departures|DepartureRound|run_single_mediator|departure_threshold|min_observations|satisfaction_mut" \
    crates/sim/src; then
    echo "a second departure rule or host is not allowed (see above)" >&2
    exit 1
fi

echo "== a standby keeps one registry: no lockstep mirror"
# A standby holds its checkpoint, and the shard's log holds what happened
# since. A record is applied where the checkpoint moves (a replaying cut, a
# promotion), and StandbyShard::replay_digest checks snapshot + replay
# against the live registry on demand. The names of the deleted second
# registry must not come back.
if grep -rnE "with_mirror|mirror_digest|mirror_in_lockstep|mirrors_in_lockstep|\.mirror\(\)" \
    crates src tests examples; then
    echo "a lockstep mirror registry is not allowed (see above)" >&2
    exit 1
fi

echo "== a replicated shard writes one log: no tail copy, query journal or snapshot mark"
# Every registry mutation, offered query (with its admission verdict) and
# consumer registration is one record of the shard's log, in the order the
# shard met them; a standby is a checkpoint that reads that log at a cut, a
# promotion and replay_digest, and a promotion is one in-order replay. The
# names of the deleted tail copy, query journal, snapshot mark and their
# counters must not come back. Scoped to the two crates, because core's
# KnController::observe_query is a different thing and stays.
if grep -rnE "SnapshotMark|mark_snapshot|observe_query|journal_depth|tail_depth|last_applied" \
    crates/replication crates/service; then
    echo "a second record of a shard's history is not allowed (see above)" >&2
    exit 1
fi

echo "== a shard's log has one writer and a mutation one applier: no registry delta hook"
# MediatorShard appends every record of its log: the effective registry
# mutations, the offered queries and the consumer registrations.
# Mediator::mutate applies a registry mutation live and on a promotion's
# replay alike. The names of the deleted registry hook and of the second
# applier must not come back.
if grep -rnE "DeltaSink|set_delta_sink|take_delta_sink|delta_sink_attached|apply_delta" \
    crates src tests examples; then
    echo "a second log writer or mutation applier is not allowed (see above)" >&2
    exit 1
fi

echo "== the mediator decides each query's kn: no width or gap-signal hook on a technique"
# A technique's select phase returns its static kn-of-k filter.
# Mediator::select_at re-sizes it to the adaptive-kn controller's width for
# the query's class, then clamps it under ShrinkKn; Mediator::score_next
# reads the controller's gap sample off the finished decision. No technique
# holds state the mediator mutates. The names of the deleted width hooks,
# the width save-and-restore, the technique's cached sample and the
# flattened trajectory nothing read must not come back.
if grep -rnE "set_exploration_width|exploration_width|satisfaction_signal|with_tier_width|last_signal|kn_trajectory" \
    crates src tests examples; then
    echo "a width or gap sample kept by the technique is not allowed (see above)" >&2
    exit 1
fi

echo "== a postings chunk has one shape: sorted keys, no Bitmap container"
# A PostingsMap chunk is its sorted low keys at any size (plus bitset words
# from WORDS_MIN keys on), so a select is an index. The names of the deleted
# bitset container, its demotion floor and its hysteresis test must not come
# back.
if grep -rnE "Container::Bitmap|BITMAP_MIN|hysteresis_gap" crates/core/src; then
    echo "a second postings chunk shape is not allowed (see above)" >&2
    exit 1
fi

echo "== one form of provider satisfaction: the pooled row, moved by a row copy"
# A provider's Definition 2 state is one row over a pooled window block in
# its SatisfactionRegistry. The row copy a standby's sync runs is also how a
# resize moves a provider between shards
# (SatisfactionRegistry::copy_provider_from), and satisfaction_digest
# renders the row's view. The names of the deleted heap tracker, its
# materialiser and the extract/adopt hand-off must not come back.
if grep -rnE "ProviderSatisfaction|to_tracker|extract_provider|adopt_provider" \
    crates src tests examples; then
    echo "a second form of provider satisfaction is not allowed (see above)" >&2
    exit 1
fi

echo "== one benchmark harness: no criterion benches, bench script or bench manifests"
# Stage costs are measured by one harness, the benchmark under perf/
# (BENCHMARK.json's per-layer metrics: medians over fixed-work segments of
# the real mediation path). Bench targets over a vendored criterion stub
# checked nothing, wrote one mean per id and had to be edited to keep
# compiling; they, their runner script and their manifests must not come
# back. The forms are matched, not the bare word: capacity.rs documents its
# "ranking criterion".
if grep -rnE "^\[\[bench\]\]|criterion *=|use criterion|CRITERION_JSON|scripts/bench\.sh" \
    Cargo.toml crates src tests examples vendor README.md ARCHITECTURE.md \
    || [ -e scripts/bench.sh ] || [ -e vendor/criterion ] || compgen -G "bench_results/BENCH_*.json"; then
    echo "a second benchmark harness is not allowed (see above)" >&2
    exit 1
fi

echo "== tier-1 verify: cargo build --release && cargo test -q"
cargo build --release
cargo test -q

echo "== workspace tests (root package already covered by tier-1)"
cargo test --workspace --exclude sbqa -q

echo "== examples compile"
cargo build --examples

echo "== scenario smoke: scenario 1 --quick, scenario 4 --quick, scenario_multicap --quick, scenario_sharded --quick, scenario_adaptive --quick and scenario_failover --quick"
# Exercises the allocation hot path end-to-end (golden-output protected by
# tests/golden_scenario1.rs), the closed loop's departure path (autonomous
# Scenario 4, golden-output protected by tests/golden_scenario4.rs), the
# multi-capability postings-merge path (golden-output protected by
# tests/golden_multicap.rs; every multi-class resolution goes through the
# candidate-plan cache, so this smoke drives it and prints the cache
# hit/miss table), the sharded mediation service — the run itself asserts
# the threaded 1-shard ≡ inline determinism contract and exercises the
# threaded ingest front — and the adaptive-kn controller, whose run asserts
# the self-adaptation claim (adaptive ≥ best static kn on aggregate consumer
# satisfaction). The failover smoke crashes every shard's primary at the
# stream midpoint and exits non-zero unless the promoted run's merged
# outcome stream is byte-identical to the uninterrupted one, so replication
# replay is exercised end-to-end on every CI run.
# The candidate-resolution hot path is checked, not only run, by
# scenario_multicap --quick (its golden), scenario_sharded --providers
# 1000000 --quick (resolution at 1M providers, below), zero_alloc.rs (no
# allocation per query at 13 000 providers, words-keeping class lists
# included), plan_cache_prop (cold misses, hits, stale rebuilds and
# evictions against a brute-force filter, up to about 10 000 providers in
# one chunk) and perf/run.sh --quick (its correctness gates, last).
cargo run --release -p sbqa_bench --bin scenario -- 1 --quick > /dev/null
cargo run --release -p sbqa_bench --bin scenario -- 4 --quick > /dev/null
cargo run --release -p sbqa_bench --bin scenario_multicap -- --quick > /dev/null
cargo run --release -p sbqa_bench --bin scenario_sharded -- --quick --shards 1,2 > /dev/null
cargo run --release -p sbqa_bench --bin scenario_adaptive -- --quick > /dev/null
cargo run --release -p sbqa_bench --bin scenario_failover -- --quick > /dev/null

echo "== overload smoke: scenario_overload --quick"
# Drives sustained 1x/10x/100x arrival steps through the bounded-ring
# ingest with the degradation ladder armed, and exits non-zero unless the
# 100x decision stream (outcome digest + shed-set digest) is identical
# across re-runs and producer chunk sizes AND all four tiers
# (normal/shrink-kn/baseline/shed) are observed and counted. This is the
# past-saturation behavior gate: overload must degrade deterministically,
# never by queue explosion.
cargo run --release -p sbqa_bench --bin scenario_overload -- --quick > /dev/null

echo "== 1M-provider smoke: scenario_sharded --providers 1000000 --quick"
# The headline scale: one million registered providers behind the chunked
# postings index. A quick query stream over 1 and 2 shards proves
# registration, candidate resolution and mediation all hold up at 1M (the
# run re-asserts the 1-shard determinism contract at that scale too).
cargo run --release -p sbqa_bench --bin scenario_sharded -- \
    --providers 1000000 --quick --shards 1,2 > /dev/null

echo "== golden determinism gates (scenario1, scenario4, multicap, baselines, sharded service, failover, replicated baselines, overload, adaptive, compositions, threaded+replicated+degrading composition, replay_prop, postings_prop, candidates_prop, plan_cache_prop, maintained_prop, directory_prop)"
# Byte-identical-per-seed is a hard invariant (ARCHITECTURE.md): these run
# as part of the test suites above, but are re-run here by name so a
# filtered or partial test invocation can never skip them silently. Every
# one of these runs resolves Pq through the plan cache — there is no other
# path — and plan_cache_prop is the proof that what it serves is right: the
# default and a one-plan (thrashing) mediator against a brute-force
# reference step, decisions and both satisfactions bit for bit, and a cold
# miss, a warm hit, a stale rebuild and an eviction over class lists that
# keep bitset words (about 10 000 providers in one chunk) against the slab
# filter and the cache's counters.
# golden_scenario4 pins the autonomous closed loop — who left, the tallies,
# both final satisfactions and every time-series point, bit for bit — and
# with it the departure rule and the one-shard host. The failover gates pin the
# seed-42 crash-and-promote outcome digest (golden_failover) and assert the
# crashed-run ≡ uninterrupted-run byte-identity under churn (failover).
# The overload gates pin the seed-42 100x-step outcome and shed-set digests
# (golden_overload) and assert run-to-run + chunking byte-identity of the
# degradation ladder's admit/degrade/shed decisions (overload), including
# crash-while-shedding promotion (failover's overload case) and the
# composition no single mechanism's test covers: the golden burst threaded +
# replicated + degrading, shard 0 crashed at the midpoint, equal to the
# uninterrupted threaded and inline runs for two chunk sizes (failover's
# a_threaded_replicated_degrading_run_survives_a_crash_byte_identically).
# replay_prop holds the incremental checkpoint to the full clone it replaced:
# after every cut of a random op sequence the standby's registry and
# satisfaction digests equal the primary's, and a promotion replaying the
# one log (mutations, queries, consumer registrations) continues the
# uninterrupted stream — on a primary populated before it was armed and on
# the bootstrap shape (armed empty, populated through the log), whose first
# cut copies both halves whole; the property fails unless the copying and the
# replaying branch each ran, for the registry and for satisfaction, and
# after every op the standby's replay_digest (checkpoint + log) equals the
# primary's registry digest. Its three refusals each leave standby and log
# as they were: a_log_pruned_past_the_checkpoint_is_a_gap_that_changes_nothing,
# a_log_ending_before_the_checkpoint_is_a_gap_that_changes_nothing and
# a_cut_from_an_untracked_primary_is_refused_and_changes_nothing. The whole
# replication and satisfaction suites run here, so the unit tests of those
# two branches run under --release too, and so do standby.rs' three fates of
# a record that does not apply
# (a_replaying_cut_meets_a_record_that_does_not_apply,
# a_copying_cut_supersedes_a_record_that_does_not_apply,
# replay_digest_meets_a_record_that_does_not_apply_before_any_cut) and
# log.rs' a_record_stays_the_size_of_a_registry_delta and its two refusals
# of a log that lost a record or a query body from its vectors
# (a_log_with_a_sequence_gap_is_refused_and_changes_nothing,
# a_query_body_lost_in_transit_is_a_gap_that_changes_nothing). The whole core suite runs here as
# well, so postings.rs' own unit tests (a chunk's words built at WORDS_MIN
# and kept below it, insert_order_does_not_change_the_map — ascending,
# descending and interleaved inserts of the same ids build equal keys,
# words and positions, so the append path and the mid-array path agree —
# and which sources merge sparse or dense) and nonfinite_intentions run
# under --release too.
# postings_prop holds a postings map to an ordered id
# set (membership, order, positional select, and a generation that moves
# exactly when membership does), a merged candidate plan to the naive
# ordered-set merge on every chunk mix (key-only chunks, chunks that keep
# their words, chunks past ARRAY_MAX keys, mixed), before and after slab
# compactions move its members' rows — and positional select (`select`, the
# batched `load_keys`) to the shadow's id and that id's row after every
# insert and remove, in small and populous chunks, on both sides of the word
# boundary (a chunk reaching WORDS_MIN = 1 024 keys keeps bitset words
# beside its keys until it empties: one at WORDS_MIN - 1, one at exactly
# WORDS_MIN, one that shrank back below it) and in a completely full chunk;
# a_merge_over_a_full_chunk_selects_every_position drives a dense merged
# chunk's popcount directory to its largest prefixes, and
# populous_chunk_churn_and_drain_preserve_equivalence churns and drains a
# chunk grown past ARRAY_MAX;
# candidates_prop holds every read of every registry view (`get`,
# `load_keys`, `iter`, `gather_all_into`; single-class, all-online and
# cached merged) to a shadow of the rows after every register, unregister,
# online flip and load update — the property the per-list slot payloads
# used to need a `patch_slot` for — gathering into one block per requirement
# kept for the whole sequence, so a gather memo that missed a mutation would
# fail it; and KnBest's bounded-insertion filter to
# a partition-and-sort of the same draw. maintained_prop holds the maintained
# satisfaction values (a consumer's ring of per-query values, a registry's
# reads on both sides) bit-equal to a from-scratch evaluation over the
# window after every record, clone and in-place copy — and a registry's
# pooled provider rows equal to a shadow of each provider's last k
# proposals, judged by Definition 2 alone, through record, removal,
# re-registration, a row copied between registries, clone, a rebuild by
# copying every row and an armed sync onto a stale copy.
# clone_from_prop (sbqa_replication) holds a satisfaction registry written
# with clone_from over one of another size — more or fewer provider rows,
# pool chunks and consumers, a removed provider on either side — to a plain
# clone of its source (satisfaction_digest, row order, every view) through
# a stream of records, removals, registrations and rows copied in from a
# donor registry.
# directory_prop holds the keyless id directory under both registries to an
# ordered map through inserts, growth, removals and the re-pointing that
# follows a swap_remove, on sequential, shifted and colliding ids — on its
# own and inside ProviderColumns (push / swap_remove / slot_of), and a
# directory written with clone_from over another to a clone; the rest of
# sbqa_types' tests ride along, among them f64_total_cmp's NaN order, which
# only a release build can get wrong (constant folding). Release
# builds compile the `debug_assert`s out, so under --release these proptests
# are the proof. golden_adaptive pins a
# stepped load-feedback run of the open-loop driver (tallies, departures,
# satisfaction bits, controller trail); golden_compositions pins what one declared run composes: a crash
# while shedding after a live resize (crashed = uncrashed, inline = threaded,
# chunk 64 = chunk 17) and both primaries lost behind a churned standby that
# never checkpoints. golden_baselines pins the decision and oracle-call
# digests of Capacity, Economic and Random through a batched mediator over
# single-class and All/Any views; failover's
# replicated_baselines_survive_a_midpoint_crash_byte_identically holds a
# replicated Capacity and Random front crashed at its midpoint to the
# uncrashed one (outcomes and both sides' satisfaction).
cargo test --release -p sbqa --test golden_scenario1 --test golden_scenario4 --test golden_multicap \
    --test golden_baselines --test determinism -q
# crash_sweep: a replicated two-shard front crashed at every batch boundary of every shard, ladder off
# and on, under a pure hash oracle and online/load churn, equals the uncrashed run in every outcome and
# every participant's final satisfaction. Tier-1 runs a sample; the full sweep is ignored there and runs
# here.
cargo test --release -p sbqa --test crash_sweep -q -- --include-ignored
# batch_phases_prop: both fronts' phased batch step decides, records and logs what per-query submits do,
# for SbQA and for each baseline, plain and replicated.
# ring_prop: the ingest ring's room (a popped chunk holds its room until released; only a lone chunk
# heavier than the ring exceeds it), FIFO order, buffer recycling, drain on close and the wake of a
# producer blocked for room. The shard-panic test: a shard thread that dies closes its ring, so the
# producer panics instead of blocking forever on a full ring.
cargo test --release -p sbqa_service --test determinism --test failover --test overload \
    --test batch_phases_prop --test ring_prop -q
cargo test --release -p sbqa_service --lib a_dead_shard_thread_fails_the_producer_instead_of_hanging_it -q
cargo test --release -p sbqa_replication -q
cargo test --release -p sbqa_core -q
cargo test --release -p sbqa_satisfaction -q
cargo test --release -p sbqa_types -q
cargo test --release -p sbqa_sim --test golden_failover --test golden_overload \
    --test golden_adaptive --test golden_compositions -q

echo "== benchmark smoke: perf/run.sh --quick"
# The benchmark's own correctness gates on a 2 000-provider world (its
# timings are stamped "not comparable"): conservation, digests equal across
# segments, 1-shard service == bare Mediator, crashed replicated service ==
# uncrashed unreplicated one, all four overload tiers. perf/ is its own
# workspace sharing target/, so this also proves it still builds against
# the crates.
bash perf/run.sh --quick > /dev/null

echo "CI OK"
