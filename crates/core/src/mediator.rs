//! The SbQA allocator and the mediator that hosts it.
//!
//! [`SbqaAllocator`] is the paper's allocation technique proper: KnBest
//! pre-selection, intention gathering, SQLB scoring with a per-pair ω, and
//! ranking. It implements the same [`QueryAllocator`] trait as the baselines.
//!
//! [`Mediator`] is the component in the middle of Figure 1: it owns the
//! provider registry, the satisfaction registry and an allocator, receives
//! queries, computes the set `Pq`, invokes the allocator and sends the
//! mediation result back to the consumer and all consulted providers (which,
//! in this in-process reproduction, means updating the satisfaction registry
//! and reporting the decision to the caller).
//!
//! ## Steady-state cost
//!
//! The hot path is allocation-free once warmed up: `Pq` is a borrowed
//! [`Candidates`] view into the registry slab, the KnBest draw works in the
//! allocator's [`KnBestScratch`], the decision and the satisfaction views are
//! reused buffers in the mediator's scratch. Use
//! [`Mediator::submit_in_place`] (or [`Mediator::submit_batch`] to drain a
//! queue) for the zero-allocation path; [`Mediator::submit`] clones the
//! decision into an owned [`MediationOutcome`] for callers that want one.

use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;
use serde::{Deserialize, Serialize};

use sbqa_satisfaction::{GapSample, SatisfactionRegistry};
use sbqa_types::{
    CapabilitySet, Intention, ProviderId, Query, SbqaError, SbqaResult, SystemConfig,
};

use crate::adaptive::{KnController, KnControllerConfig};
use crate::allocator::{
    AllocationDecision, Candidates, IntentionOracle, ProposalRecord, QueryAllocator,
};
use crate::degrade::{baseline_allocate_into, DegradationTier, SHRINK_KN_FLOOR};
use crate::knbest::{KnBestScratch, KnBestSelector};
use crate::ranking::rank_indices_by_score;
use crate::registry::{PlanCacheStats, ProviderRegistry};
use crate::scoring::{provider_score, resolve_omega};

/// The Satisfaction-based Query Allocation technique (KnBest + SQLB).
#[derive(Debug)]
pub struct SbqaAllocator {
    config: SystemConfig,
    selector: KnBestSelector,
    rng: ChaCha8Rng,
    /// Working memory for the KnBest draw, reused across queries.
    knbest: KnBestScratch,
    /// Scores aligned with the proposals of the current decision.
    scores: Vec<f64>,
    /// Proposal indices in ranking order (the vector `R`).
    ranking: Vec<u32>,
    /// Gap sample of the most recent allocation: the *instantaneous*
    /// per-mediation satisfaction of both sides (Definition 1 for the
    /// consumer, the per-proposal Definition-2 value averaged over `Kn` for
    /// the providers), computed from the decision the allocator just built —
    /// no registry reads. Unlike the registry's long-run values, this signal
    /// cannot be censored by dissatisfied participants departing, and it is
    /// sharply `kn`-sensitive (every consulted-but-rejected provider
    /// contributes a zero), which is what makes it a usable control input.
    last_signal: Option<GapSample>,
}

impl SbqaAllocator {
    /// Creates an SbQA allocator from a validated configuration and a seed
    /// for the KnBest random pre-selection.
    pub fn new(config: SystemConfig, seed: u64) -> SbqaResult<Self> {
        config.validate()?;
        let selector = KnBestSelector::new(config.knbest_k, config.knbest_kn);
        Ok(Self {
            config,
            selector,
            rng: ChaCha8Rng::seed_from_u64(seed),
            knbest: KnBestScratch::new(),
            scores: Vec::new(),
            ranking: Vec::new(),
            last_signal: None,
        })
    }

    /// Creates an allocator with the default configuration.
    #[must_use]
    pub fn with_defaults(seed: u64) -> Self {
        // sbqa-lint: allow(panic-hygiene, "SystemConfig::default() is validated by construction and covered by tests")
        Self::new(SystemConfig::default(), seed).expect("default configuration is valid")
    }

    /// The configuration this allocator runs with.
    #[must_use]
    pub fn config(&self) -> &SystemConfig {
        &self.config
    }
}

impl QueryAllocator for SbqaAllocator {
    fn name(&self) -> &'static str {
        "SbQA"
    }

    fn fork(&self) -> Option<Box<dyn QueryAllocator>> {
        // Decision state is (config, selector, RNG position, last signal);
        // the scratch buffers are rebuilt empty — they never outlive one
        // allocation, so a fresh fork reproduces the decision stream exactly.
        Some(Box::new(Self {
            config: self.config.clone(),
            selector: self.selector,
            rng: self.rng.clone(),
            knbest: KnBestScratch::new(),
            scores: Vec::new(),
            ranking: Vec::new(),
            last_signal: self.last_signal,
        }))
    }

    fn allocate_into(
        &mut self,
        query: &Query,
        candidates: Candidates<'_>,
        oracle: &dyn IntentionOracle,
        satisfaction: &SatisfactionRegistry,
        decision: &mut AllocationDecision,
    ) -> SbqaResult<()> {
        if candidates.is_empty() {
            return Err(SbqaError::NoProviderOnline { query: query.id });
        }
        decision.clear();

        // Step 1 — KnBest: the kn least-utilized of k random capable
        // providers, returned as dense columns (ids included) so step 2
        // never resolves a position against the view again.
        let kn = self
            .selector
            .select_block(candidates, &mut self.rng, &mut self.knbest);

        // Step 2 — gather intentions from the consumer and the Kn providers,
        // and score each pair with a per-pair ω (Equation 2 compares the
        // consumer's satisfaction with *that provider's* satisfaction).
        let consumer_sat = satisfaction.consumer_satisfaction(query.consumer);
        self.scores.clear();
        let mut omega_sum = 0.0;

        for &provider in kn.ids {
            let consumer_intention = oracle.consumer_intention(query, provider);
            let provider_intention = oracle.provider_intention(provider, query);
            let provider_sat = satisfaction.provider_satisfaction(provider);
            let omega = resolve_omega(self.config.omega, consumer_sat, provider_sat);
            let score = provider_score(
                provider_intention,
                consumer_intention,
                omega,
                self.config.epsilon,
            );
            omega_sum += omega;
            self.scores.push(score);
            decision.proposals.push(ProposalRecord {
                provider,
                provider_intention,
                consumer_intention,
                score: Some(score),
                selected: false,
            });
        }

        // Step 3 — ranking vector R and allocation to the min(q.n, kn) best.
        // Winners are marked through their ranking indices, so the marking is
        // O(kn·log kn) overall instead of the O(kn²) a membership scan of
        // the winner list would cost.
        let proposals = &decision.proposals;
        rank_indices_by_score(&self.scores, |i| proposals[i].provider, &mut self.ranking);
        let winner_count = query.replication.min(kn.len());
        for &idx in self.ranking.iter().take(winner_count) {
            decision.proposals[idx as usize].selected = true;
            decision
                .selected
                .push(decision.proposals[idx as usize].provider);
        }

        decision.omega = if kn.is_empty() {
            None
        } else {
            Some(omega_sum / kn.len() as f64)
        };
        // The per-mediation gap sample, straight off the decision:
        // Definition 1 for the consumer (missing results count 0),
        // per-proposal Definition 2 averaged over Kn for the providers
        // (rejected proposals count 0).
        self.last_signal = if kn.is_empty() {
            None
        } else {
            let mut consumer_gain = 0.0;
            let mut provider_gain = 0.0;
            for proposal in &decision.proposals {
                if proposal.selected {
                    consumer_gain += proposal.consumer_intention.to_unit().value();
                    provider_gain += proposal.provider_intention.to_unit().value();
                }
            }
            Some(GapSample::from_sums(
                consumer_gain,
                query.replication,
                provider_gain,
                kn.len(),
            ))
        };
        Ok(())
    }

    fn set_exploration_width(&mut self, kn: usize) {
        self.selector.kn = kn.clamp(1, self.selector.k);
    }

    fn exploration_width(&self) -> Option<usize> {
        Some(self.selector.kn)
    }

    fn satisfaction_signal(&self) -> Option<GapSample> {
        self.last_signal
    }
}

/// The result of one mediation, as reported to the rest of the system.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
// sbqa-lint: allow(dead-pub, "returned by Mediator::submit, the quickstart entry point; callers read it unnamed")
pub struct MediationOutcome {
    /// The mediated query.
    pub query: Query,
    /// The allocation decision (selected providers, proposals, ω).
    pub decision: AllocationDecision,
}

impl MediationOutcome {
    /// The providers the query was allocated to, best-ranked first.
    #[must_use]
    pub fn selected(&self) -> &[ProviderId] {
        &self.decision.selected
    }
}

/// Reusable per-mediator working memory: the decision buffer and the two
/// satisfaction views derived from it. One scratch per mediator makes
/// steady-state mediation allocation-free.
#[derive(Debug, Default)]
struct MediationScratch {
    decision: AllocationDecision,
    consumer_view: Vec<(ProviderId, Intention)>,
    provider_view: Vec<(ProviderId, Intention, bool)>,
}

/// Tallies of one [`Mediator::submit_batch`] drain.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct BatchReport {
    /// Queries successfully mediated.
    pub mediated: usize,
    /// Queries that starved (no capable provider online).
    pub starved: usize,
}

impl BatchReport {
    /// Total number of queries the batch contained.
    #[must_use]
    pub fn submitted(&self) -> usize {
        self.mediated + self.starved
    }

    /// Folds another drain's tallies into this report. The sharded mediation
    /// service merges the per-shard reports of one ingest wave this way; it
    /// is equally useful for accumulating tallies across successive batches
    /// of a single mediator.
    pub fn merge(&mut self, other: &BatchReport) {
        self.mediated += other.mediated;
        self.starved += other.starved;
    }
}

/// The mediator of Figure 1: provider registry + satisfaction registry + an
/// allocation technique.
pub struct Mediator {
    allocator: Box<dyn QueryAllocator>,
    providers: ProviderRegistry,
    satisfaction: SatisfactionRegistry,
    scratch: MediationScratch,
    /// Adaptive-`kn` controller; `None` (the default) leaves the hosted
    /// technique's static width untouched, byte-for-byte.
    kn_controller: Option<KnController>,
}

impl Mediator {
    /// Creates a mediator around an allocation technique, with satisfaction
    /// windows of length `satisfaction_window`.
    #[must_use]
    pub fn new(allocator: Box<dyn QueryAllocator>, satisfaction_window: usize) -> Self {
        Self {
            allocator,
            providers: ProviderRegistry::new(),
            satisfaction: SatisfactionRegistry::new(satisfaction_window),
            scratch: MediationScratch::default(),
            kn_controller: None,
        }
    }

    /// Convenience constructor for an SbQA mediator with the given
    /// configuration and seed.
    pub fn sbqa(config: SystemConfig, seed: u64) -> SbqaResult<Self> {
        let window = config.satisfaction_window;
        Ok(Self::new(
            Box::new(SbqaAllocator::new(config, seed)?),
            window,
        ))
    }

    /// Assembles a mediator from pre-built state: an allocation technique, a
    /// provider registry and a satisfaction registry.
    ///
    /// This is the handoff constructor the sharded mediation service uses: a
    /// shard can be torn down with [`Mediator::into_parts`], its registries
    /// repartitioned, and the slices reassembled into new shards without
    /// losing any satisfaction history or re-registering providers.
    #[must_use]
    pub fn from_parts(
        allocator: Box<dyn QueryAllocator>,
        providers: ProviderRegistry,
        satisfaction: SatisfactionRegistry,
    ) -> Self {
        Self {
            allocator,
            providers,
            satisfaction,
            scratch: MediationScratch::default(),
            kn_controller: None,
        }
    }

    /// Decomposes the mediator into its owned state (allocation technique,
    /// provider registry, satisfaction registry), dropping the scratch and
    /// any adaptive-`kn` controller (hosts that repartition shards re-enable
    /// adaptation on the rebuilt mediators). The counterpart of
    /// [`Mediator::from_parts`].
    #[must_use]
    pub fn into_parts(
        self,
    ) -> (
        Box<dyn QueryAllocator>,
        ProviderRegistry,
        SatisfactionRegistry,
    ) {
        (self.allocator, self.providers, self.satisfaction)
    }

    /// Name of the hosted allocation technique.
    #[must_use]
    pub fn technique(&self) -> &'static str {
        self.allocator.name()
    }

    /// Registers a provider with its capabilities and capacity.
    pub fn register_provider(
        &mut self,
        id: ProviderId,
        capabilities: CapabilitySet,
        capacity: f64,
    ) {
        self.providers.register(id, capabilities, capacity);
        self.satisfaction.register_provider(id);
    }

    /// Registers a consumer so its satisfaction is tracked from the start.
    pub fn register_consumer(&mut self, id: sbqa_types::ConsumerId) {
        self.satisfaction.register_consumer(id);
    }

    /// Marks a provider online or offline.
    pub fn set_provider_online(&mut self, id: ProviderId, online: bool) -> SbqaResult<()> {
        self.providers.set_online(id, online)
    }

    /// Updates a provider's load state.
    pub fn update_provider_load(
        &mut self,
        id: ProviderId,
        utilization: f64,
        queue_length: usize,
    ) -> SbqaResult<()> {
        self.providers.update_load(id, utilization, queue_length)
    }

    /// Removes a provider from the registry entirely. Returns `true` if the
    /// provider existed. Its satisfaction history is deliberately retained:
    /// a returning provider resumes its window. A departure is not modelled
    /// this way — a leaving provider goes offline
    /// ([`Mediator::set_provider_online`]) and keeps its row.
    pub fn unregister_provider(&mut self, id: ProviderId) -> bool {
        self.providers.unregister(id)
    }

    /// Attaches a replication sink to the provider registry: every effective
    /// registry mutation from here on is emitted as a
    /// [`RegistryDelta`](crate::delta::RegistryDelta) in commit order.
    pub fn set_delta_sink(&mut self, sink: Box<dyn crate::delta::DeltaSink>) {
        self.providers.set_delta_sink(sink);
    }

    /// Detaches and returns the registry's replication sink, if any.
    pub fn take_delta_sink(&mut self) -> Option<Box<dyn crate::delta::DeltaSink>> {
        self.providers.take_delta_sink()
    }

    /// Forks the hosted allocation technique, RNG position included: the one
    /// part of a checkpoint that is copied whole (it is a few words). The
    /// registries are not forked — a standby advances its registry copy from
    /// the delta log and its satisfaction copy from
    /// [`SatisfactionRegistry::sync_touched_into`].
    ///
    /// Returns `None` when the technique does not support
    /// [`QueryAllocator::fork`].
    #[must_use]
    pub fn fork_allocator(&self) -> Option<Box<dyn QueryAllocator>> {
        self.allocator.fork()
    }

    /// Immutable access to the provider registry.
    #[must_use]
    pub fn providers(&self) -> &ProviderRegistry {
        &self.providers
    }

    /// Counters of the registry's candidate-plan cache.
    #[must_use]
    pub fn plan_cache_stats(&self) -> PlanCacheStats {
        self.providers.plan_cache_stats()
    }

    /// Re-bounds the registry's candidate-plan cache (at least one plan; see
    /// [`ProviderRegistry::set_plan_cache_capacity`]).
    pub fn set_plan_cache_capacity(&mut self, capacity: usize) {
        self.providers.set_plan_cache_capacity(capacity);
    }

    /// Immutable access to the satisfaction registry.
    #[must_use]
    pub fn satisfaction(&self) -> &SatisfactionRegistry {
        &self.satisfaction
    }

    /// Mutable access to the satisfaction registry, for replication (arming
    /// touched-id tracking, handing trackers between shards) and tests.
    /// Departures do not go through it: a leaving participant keeps its row.
    pub fn satisfaction_mut(&mut self) -> &mut SatisfactionRegistry {
        &mut self.satisfaction
    }

    /// Enables adaptive `kn`: the mediator consults the
    /// [`KnController`] before every KnBest draw (re-sizing the hosted
    /// technique's exploration width per capability class) and feeds it the
    /// per-mediation satisfaction-gap samples the technique reports. One
    /// adaptation round runs at the start of every [`Mediator::submit_batch`]
    /// (hosts with their own batching cadence call [`Mediator::adapt_kn`]).
    ///
    /// # Errors
    ///
    /// [`SbqaError::InvalidConfiguration`] for an invalid controller
    /// configuration; the mediator then keeps the controller it had.
    pub fn enable_adaptive_kn(&mut self, config: KnControllerConfig) -> SbqaResult<()> {
        self.kn_controller = Some(KnController::new(config)?);
        Ok(())
    }

    /// The adaptive-`kn` controller, if enabled.
    #[must_use]
    pub fn adaptive_kn(&self) -> Option<&KnController> {
        self.kn_controller.as_ref()
    }

    /// The current exploration width of a capability class, when adaptation
    /// is enabled and the class has been contacted.
    #[must_use]
    pub fn current_kn(&self, class: u8) -> Option<usize> {
        self.kn_controller
            .as_ref()
            .and_then(|controller| controller.current_kn(class))
    }

    /// Runs one adaptation round on the controller (a no-op without one).
    /// Returns the number of capability classes whose `kn` changed.
    /// [`Mediator::submit_batch`] calls this automatically at every batch
    /// boundary; service fronts with their own drain loops call it at theirs.
    pub fn adapt_kn(&mut self) -> usize {
        self.kn_controller.as_mut().map_or(0, KnController::adapt)
    }

    /// The shared mediation core: computes `Pq` as a borrowed view, lets the
    /// allocation technique fill the scratch decision at degradation tier
    /// `tier`, and records the mediation result on both sides' satisfaction
    /// — all without allocating in steady state.
    fn mediate(
        &mut self,
        query: &Query,
        oracle: &dyn IntentionOracle,
        tier: DegradationTier,
    ) -> SbqaResult<()> {
        // Split the borrows by field: `candidates` may merge postings lists
        // into the registry's cache (hence `&mut providers`), while the
        // allocator, the satisfaction registry and the scratch are borrowed
        // alongside.
        let Self {
            allocator,
            providers,
            satisfaction,
            scratch,
            kn_controller,
        } = self;
        if let Some(controller) = kn_controller {
            allocator.set_exploration_width(controller.kn_for_query(query));
        }
        let candidates = providers.candidates(query);
        if candidates.is_empty() {
            return Err(providers.starvation_error(query));
        }

        match tier {
            DegradationTier::Normal | DegradationTier::ShrinkKn => {
                // ShrinkKn clamps the exploration width to `SHRINK_KN_FLOOR`
                // for this one draw and restores it afterwards, so the tier
                // leaves no width residue once pressure subsides. The KnBest
                // draw consumes RNG independently of the width, so the RNG
                // stream — and with it replay byte-identity — is unaffected
                // by when the clamp engages.
                let saved = if tier == DegradationTier::ShrinkKn {
                    let previous = allocator.exploration_width();
                    if let Some(previous) = previous {
                        allocator.set_exploration_width(previous.min(SHRINK_KN_FLOOR));
                    }
                    previous
                } else {
                    None
                };
                let outcome = allocator.allocate_into(
                    query,
                    candidates,
                    oracle,
                    satisfaction,
                    &mut scratch.decision,
                );
                if let Some(previous) = saved {
                    allocator.set_exploration_width(previous);
                }
                outcome?;
                // The controller adapts only on evidence from widths it
                // chose itself: forced-floor samples would read as "small kn
                // is fine" exactly when the system is drowning.
                if tier == DegradationTier::Normal {
                    if let Some(controller) = kn_controller {
                        if let Some(sample) = allocator.satisfaction_signal() {
                            controller.observe_query(query, sample);
                        }
                    }
                }
            }
            DegradationTier::Baseline | DegradationTier::Shed => {
                // The capacity fallback: no KnBest draw, no SQLB scoring, no
                // RNG consumed. (A `Shed` tier reaching mediation means the
                // host admitted the query anyway; serve it at the cheapest
                // quality rather than inventing a starvation.)
                baseline_allocate_into(query, candidates, oracle, &mut scratch.decision)?;
            }
        }

        // "…sends the mediation result to the consumer and all providers in
        // set Kn": both sides update their satisfaction windows.
        let MediationScratch {
            decision,
            consumer_view,
            provider_view,
        } = &mut self.scratch;
        decision.consumer_view_into(consumer_view);
        decision.provider_view_into(provider_view);
        self.satisfaction.record_mediation(
            query.id,
            query.consumer,
            query.replication,
            consumer_view,
            provider_view,
        );
        Ok(())
    }

    /// Mediates one query: computes `Pq`, lets the allocation technique pick
    /// providers, records the mediation result on both sides' satisfaction
    /// and returns an owned outcome.
    pub fn submit(
        &mut self,
        query: &Query,
        oracle: &dyn IntentionOracle,
    ) -> SbqaResult<MediationOutcome> {
        self.mediate(query, oracle, DegradationTier::Normal)?;
        Ok(MediationOutcome {
            query: query.clone(),
            decision: self.scratch.decision.clone(),
        })
    }

    /// Mediates one query without allocating: the returned decision borrows
    /// the mediator's scratch and is valid until the next mediation.
    pub fn submit_in_place(
        &mut self,
        query: &Query,
        oracle: &dyn IntentionOracle,
    ) -> SbqaResult<&AllocationDecision> {
        self.submit_at(query, oracle, DegradationTier::Normal)
    }

    /// [`Mediator::submit_in_place`] at an admission tier: the verdict of
    /// an overload host's
    /// [`DegradationLadder`](crate::degrade::DegradationLadder), passed per
    /// query and kept nowhere. `Normal` is full-quality mediation. A `Shed`
    /// tier is served as `Baseline`: shedding happens *before* mediation, so
    /// a query that reaches the mediator has been admitted.
    pub fn submit_at(
        &mut self,
        query: &Query,
        oracle: &dyn IntentionOracle,
        tier: DegradationTier,
    ) -> SbqaResult<&AllocationDecision> {
        self.mediate(query, oracle, tier)?;
        Ok(&self.scratch.decision)
    }

    /// Drains a batch of queries through the mediation pipeline, amortizing
    /// the scratch buffers and satisfaction-registry lookups over the whole
    /// drain. `on_result` is invoked once per query, in order, with the
    /// query's position in the batch and either the borrowed decision or the
    /// starvation error. Returns the batch tallies.
    pub fn submit_batch<F>(
        &mut self,
        queries: &[Query],
        oracle: &dyn IntentionOracle,
        mut on_result: F,
    ) -> BatchReport
    where
        F: FnMut(usize, &Query, SbqaResult<&AllocationDecision>),
    {
        // Batch boundary: one adaptation round before the drain, so every
        // query of the batch is drawn with the widths the previous batches'
        // evidence decided (a pure no-op when adaptation is disabled).
        self.adapt_kn();
        let mut report = BatchReport::default();
        for (position, query) in queries.iter().enumerate() {
            match self.mediate(query, oracle, DegradationTier::Normal) {
                Ok(()) => {
                    report.mediated += 1;
                    on_result(position, query, Ok(&self.scratch.decision));
                }
                Err(err) => {
                    report.starved += 1;
                    on_result(position, query, Err(err));
                }
            }
        }
        report
    }
}

impl std::fmt::Debug for Mediator {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Mediator")
            .field("technique", &self.allocator.name())
            .field("providers", &self.providers.len())
            .field("consumers", &self.satisfaction.consumer_count())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::allocator::{ProviderSnapshot, StaticIntentions};
    use sbqa_types::{
        Capability, CapabilityRequirement, ConsumerId, Intention, OmegaPolicy, QueryId,
        Satisfaction,
    };

    fn caps() -> CapabilitySet {
        CapabilitySet::singleton(Capability::new(0))
    }

    fn query(id: u64, replication: usize) -> Query {
        Query::builder(QueryId::new(id), ConsumerId::new(1), Capability::new(0))
            .replication(replication)
            .build()
    }

    fn snapshots(n: u64) -> Vec<ProviderSnapshot> {
        (0..n)
            .map(|i| ProviderSnapshot::idle(ProviderId::new(i), caps(), 1.0))
            .collect()
    }

    #[test]
    fn allocator_selects_min_of_replication_and_kn() {
        let config = SystemConfig::default().with_knbest(10, 3);
        let mut alloc = SbqaAllocator::new(config, 42).unwrap();
        let satisfaction = SatisfactionRegistry::new(10);
        let oracle =
            StaticIntentions::new().with_defaults(Intention::new(0.5), Intention::new(0.5));

        // Replication 2 with kn = 3: two providers selected.
        let decision = alloc
            .allocate(
                &query(1, 2),
                Candidates::from_slice(&snapshots(20)),
                &oracle,
                &satisfaction,
            )
            .unwrap();
        assert_eq!(decision.selected.len(), 2);
        assert_eq!(decision.proposals.len(), 3);

        // Replication 5 with kn = 3: capped at 3.
        let decision = alloc
            .allocate(
                &query(2, 5),
                Candidates::from_slice(&snapshots(20)),
                &oracle,
                &satisfaction,
            )
            .unwrap();
        assert_eq!(decision.selected.len(), 3);
    }

    #[test]
    fn allocator_prefers_mutually_wanted_providers() {
        // kn covers the whole candidate set so the random step cannot hide
        // the preferred provider.
        let config = SystemConfig::default().with_knbest(10, 10);
        let mut alloc = SbqaAllocator::new(config, 7).unwrap();
        let satisfaction = SatisfactionRegistry::new(10);

        let mut oracle =
            StaticIntentions::new().with_defaults(Intention::new(-0.5), Intention::new(-0.5));
        oracle.set_consumer_intention(ProviderId::new(3), Intention::new(0.9));
        oracle.set_provider_intention(ProviderId::new(3), Intention::new(0.8));

        let decision = alloc
            .allocate(
                &query(1, 1),
                Candidates::from_slice(&snapshots(5)),
                &oracle,
                &satisfaction,
            )
            .unwrap();
        assert_eq!(decision.selected, vec![ProviderId::new(3)]);
        // The scores are recorded on the proposals.
        assert!(decision
            .proposals
            .iter()
            .all(|p| p.score.is_some() && p.score.unwrap().is_finite()));
    }

    #[test]
    fn empty_candidate_set_is_an_error() {
        let mut alloc = SbqaAllocator::with_defaults(1);
        let satisfaction = SatisfactionRegistry::new(10);
        let oracle = StaticIntentions::new();
        let err = alloc
            .allocate(
                &query(1, 1),
                Candidates::from_slice(&[]),
                &oracle,
                &satisfaction,
            )
            .unwrap_err();
        assert!(err.is_starvation());
    }

    #[test]
    fn adaptive_omega_reacts_to_satisfaction_gap() {
        let config = SystemConfig::default()
            .with_knbest(10, 10)
            .with_omega(OmegaPolicy::Adaptive);
        let mut alloc = SbqaAllocator::new(config, 3).unwrap();
        let oracle =
            StaticIntentions::new().with_defaults(Intention::new(0.5), Intention::new(0.5));

        // A fresh registry: everyone fully satisfied, ω = 0.5.
        let satisfaction = SatisfactionRegistry::new(10);
        let decision = alloc
            .allocate(
                &query(1, 1),
                Candidates::from_slice(&snapshots(3)),
                &oracle,
                &satisfaction,
            )
            .unwrap();
        assert!((decision.omega.unwrap() - 0.5).abs() < 1e-9);

        // Make the consumer satisfied and the providers dissatisfied: ω must
        // rise above 0.5 (more attention to providers).
        let mut satisfaction = SatisfactionRegistry::new(10);
        for p in 0..3u64 {
            satisfaction.record_mediation(
                QueryId::new(100 + p),
                ConsumerId::new(1),
                1,
                &[(ProviderId::new(p), Intention::new(1.0))],
                &[(ProviderId::new(p), Intention::new(-1.0), true)],
            );
        }
        assert_eq!(
            satisfaction.consumer_satisfaction(ConsumerId::new(1)),
            Satisfaction::MAX
        );
        let decision = alloc
            .allocate(
                &query(2, 1),
                Candidates::from_slice(&snapshots(3)),
                &oracle,
                &satisfaction,
            )
            .unwrap();
        assert!(decision.omega.unwrap() > 0.9);
    }

    #[test]
    fn fixed_omega_is_used_verbatim() {
        let config = SystemConfig::default()
            .with_knbest(5, 5)
            .with_omega(OmegaPolicy::Fixed(0.25));
        let mut alloc = SbqaAllocator::new(config, 3).unwrap();
        let satisfaction = SatisfactionRegistry::new(10);
        let oracle =
            StaticIntentions::new().with_defaults(Intention::new(0.5), Intention::new(0.5));
        let decision = alloc
            .allocate(
                &query(1, 1),
                Candidates::from_slice(&snapshots(4)),
                &oracle,
                &satisfaction,
            )
            .unwrap();
        assert!((decision.omega.unwrap() - 0.25).abs() < 1e-12);
    }

    #[test]
    fn invalid_configuration_is_rejected() {
        let bad = SystemConfig::default().with_knbest(2, 5);
        assert!(SbqaAllocator::new(bad, 0).is_err());
    }

    #[test]
    fn mediator_end_to_end_updates_satisfaction() {
        let config = SystemConfig::default().with_knbest(10, 5);
        let mut mediator = Mediator::sbqa(config, 11).unwrap();
        assert_eq!(mediator.technique(), "SbQA");

        for p in 0..5u64 {
            mediator.register_provider(ProviderId::new(p), caps(), 1.0);
        }
        mediator.register_consumer(ConsumerId::new(1));

        let oracle =
            StaticIntentions::new().with_defaults(Intention::new(0.8), Intention::new(0.6));
        let outcome = mediator.submit(&query(1, 2), &oracle).unwrap();
        assert_eq!(outcome.selected().len(), 2);

        // The consumer got providers it liked (+0.8 -> 0.9 satisfaction per
        // result), so its satisfaction reflects the mediation.
        let consumer_sat = mediator
            .satisfaction()
            .consumer_satisfaction(ConsumerId::new(1));
        assert!((consumer_sat.value() - 0.9).abs() < 1e-9);

        // Every consulted provider has a recorded proposal.
        let proposed: usize = outcome.decision.proposals.len();
        assert!(proposed >= 2);
        assert_eq!(mediator.providers().len(), 5);
    }

    #[test]
    fn mediator_reports_starvation_kinds() {
        let mut mediator = Mediator::sbqa(SystemConfig::default(), 1).unwrap();
        let oracle = StaticIntentions::new();

        // No provider at all with the required capability.
        let err = mediator.submit(&query(1, 1), &oracle).unwrap_err();
        assert!(matches!(err, SbqaError::NoCapableProvider { .. }));

        // A capable provider exists but is offline.
        mediator.register_provider(ProviderId::new(1), caps(), 1.0);
        mediator
            .set_provider_online(ProviderId::new(1), false)
            .unwrap();
        let err = mediator.submit(&query(2, 1), &oracle).unwrap_err();
        assert!(matches!(err, SbqaError::NoProviderOnline { .. }));

        // Back online: mediation succeeds.
        mediator
            .set_provider_online(ProviderId::new(1), true)
            .unwrap();
        assert!(mediator.submit(&query(3, 1), &oracle).is_ok());
    }

    #[test]
    fn mediator_load_updates_flow_to_allocator() {
        // With kn = 1, the least-utilized provider of the random draw wins;
        // when k covers everything, that is the globally least utilized.
        let config = SystemConfig::default().with_knbest(10, 1);
        let mut mediator = Mediator::sbqa(config, 5).unwrap();
        for p in 0..3u64 {
            mediator.register_provider(ProviderId::new(p), caps(), 1.0);
        }
        mediator
            .update_provider_load(ProviderId::new(0), 10.0, 10)
            .unwrap();
        mediator
            .update_provider_load(ProviderId::new(1), 5.0, 5)
            .unwrap();
        // Provider 2 stays idle.
        let oracle =
            StaticIntentions::new().with_defaults(Intention::new(0.5), Intention::new(0.5));
        let outcome = mediator.submit(&query(1, 1), &oracle).unwrap();
        assert_eq!(outcome.selected(), &[ProviderId::new(2)]);
    }

    #[test]
    fn mediator_honours_multi_capability_requirements() {
        use sbqa_types::CapabilityRequirement;

        let config = SystemConfig::default().with_knbest(10, 10);
        let mut mediator = Mediator::sbqa(config, 13).unwrap();
        let set = |classes: &[u8]| {
            CapabilitySet::from_capabilities(classes.iter().copied().map(Capability::new))
        };
        mediator.register_provider(ProviderId::new(1), set(&[0]), 1.0);
        mediator.register_provider(ProviderId::new(2), set(&[0, 1]), 1.0);
        mediator.register_provider(ProviderId::new(3), set(&[1, 2]), 1.0);
        mediator.register_consumer(ConsumerId::new(1));
        let oracle =
            StaticIntentions::new().with_defaults(Intention::new(0.5), Intention::new(0.5));

        // All{0,1}: only provider 2 qualifies.
        let q = Query::requiring(
            QueryId::new(1),
            ConsumerId::new(1),
            CapabilityRequirement::All(set(&[0, 1])),
        )
        .replication(3)
        .build();
        let outcome = mediator.submit(&q, &oracle).unwrap();
        assert_eq!(outcome.selected(), &[ProviderId::new(2)]);

        // Any{1,2}: providers 2 and 3 qualify; replication 2 selects both.
        let q = Query::requiring(
            QueryId::new(2),
            ConsumerId::new(1),
            CapabilityRequirement::Any(set(&[1, 2])),
        )
        .replication(2)
        .build();
        let outcome = mediator.submit(&q, &oracle).unwrap();
        let mut selected: Vec<u64> = outcome.selected().iter().map(|p| p.raw()).collect();
        selected.sort_unstable();
        assert_eq!(selected, vec![2, 3]);

        // All{0,2}: per-class counts are positive but no provider covers
        // both — the starvation is classified as "no capable provider".
        let q = Query::requiring(
            QueryId::new(3),
            ConsumerId::new(1),
            CapabilityRequirement::All(set(&[0, 2])),
        )
        .build();
        assert!(matches!(
            mediator.submit(&q, &oracle).unwrap_err(),
            SbqaError::NoCapableProvider { .. }
        ));
    }

    #[test]
    fn debug_impl_mentions_technique() {
        let mediator = Mediator::sbqa(SystemConfig::default(), 1).unwrap();
        let text = format!("{mediator:?}");
        assert!(text.contains("SbQA"));
    }

    #[test]
    fn submit_in_place_matches_submit() {
        let build = || {
            let config = SystemConfig::default().with_knbest(10, 5);
            let mut mediator = Mediator::sbqa(config, 21).unwrap();
            for p in 0..8u64 {
                mediator.register_provider(ProviderId::new(p), caps(), 1.0);
            }
            mediator.register_consumer(ConsumerId::new(1));
            mediator
        };
        let oracle =
            StaticIntentions::new().with_defaults(Intention::new(0.4), Intention::new(0.2));

        let mut owned = build();
        let mut in_place = build();
        for q in 0..50u64 {
            let query = query(q, 2);
            let outcome = owned.submit(&query, &oracle).unwrap();
            let decision = in_place.submit_in_place(&query, &oracle).unwrap();
            assert_eq!(&outcome.decision, decision, "query {q}");
        }
    }

    #[test]
    fn submit_batch_drains_a_queue_and_reports_tallies() {
        let config = SystemConfig::default().with_knbest(10, 4);
        let mut mediator = Mediator::sbqa(config, 9).unwrap();
        for p in 0..6u64 {
            mediator.register_provider(ProviderId::new(p), caps(), 1.0);
        }
        mediator.register_consumer(ConsumerId::new(1));
        let oracle =
            StaticIntentions::new().with_defaults(Intention::new(0.5), Intention::new(0.5));

        // Query 2 requires a capability nobody advertises: it starves, the
        // others mediate, and the callback sees every result in order.
        let queries = vec![
            query(1, 1),
            Query::builder(QueryId::new(2), ConsumerId::new(1), Capability::new(9)).build(),
            query(3, 2),
        ];
        let mut seen = Vec::new();
        let report = mediator.submit_batch(&queries, &oracle, |position, q, result| {
            seen.push((position, q.id, result.is_ok()));
            if let Ok(decision) = result {
                assert!(!decision.is_starved());
            }
        });
        assert_eq!(report.mediated, 2);
        assert_eq!(report.starved, 1);
        assert_eq!(report.submitted(), 3);
        assert_eq!(
            seen,
            vec![
                (0, QueryId::new(1), true),
                (1, QueryId::new(2), false),
                (2, QueryId::new(3), true),
            ]
        );
    }

    #[test]
    fn batch_report_merge_covers_empty_and_overlapping_cases() {
        // Empty ⊕ empty stays empty.
        let mut report = BatchReport::default();
        report.merge(&BatchReport::default());
        assert_eq!(report, BatchReport::default());
        assert_eq!(report.submitted(), 0);

        // Empty ⊕ populated adopts the other side's tallies.
        let drained = BatchReport {
            mediated: 5,
            starved: 2,
        };
        report.merge(&drained);
        assert_eq!(report, drained);

        // Populated ⊕ populated (both sides carry overlapping non-zero
        // tallies) adds field-wise, and `submitted` follows.
        report.merge(&BatchReport {
            mediated: 3,
            starved: 4,
        });
        assert_eq!(report.mediated, 8);
        assert_eq!(report.starved, 6);
        assert_eq!(report.submitted(), 14);

        // Merging a report into itself (via a copy) doubles it — the merge is
        // pure addition, with no dedup heuristics to get wrong.
        let copy = report;
        report.merge(&copy);
        assert_eq!(report.mediated, 16);
        assert_eq!(report.starved, 12);
    }

    #[test]
    fn mediator_parts_round_trip_preserves_state() {
        let config = SystemConfig::default().with_knbest(10, 3);
        let mut mediator = Mediator::sbqa(config, 17).unwrap();
        for p in 0..4u64 {
            mediator.register_provider(ProviderId::new(p), caps(), 1.0);
        }
        mediator.register_consumer(ConsumerId::new(1));
        let oracle =
            StaticIntentions::new().with_defaults(Intention::new(0.6), Intention::new(0.4));
        mediator.submit(&query(1, 1), &oracle).unwrap();
        let consumer_sat_before = mediator
            .satisfaction()
            .consumer_satisfaction(ConsumerId::new(1));

        // Tear down and reassemble: registries and allocator state carry
        // over, so the reassembled mediator continues the same trajectory as
        // an untouched clone would.
        let (allocator, providers, satisfaction) = mediator.into_parts();
        assert_eq!(providers.len(), 4);
        let mut rebuilt = Mediator::from_parts(allocator, providers, satisfaction);
        assert_eq!(rebuilt.technique(), "SbQA");
        assert_eq!(rebuilt.providers().len(), 4);
        assert_eq!(
            rebuilt
                .satisfaction()
                .consumer_satisfaction(ConsumerId::new(1)),
            consumer_sat_before
        );
        assert!(rebuilt.submit(&query(2, 1), &oracle).is_ok());
    }

    #[test]
    fn allocator_reports_a_gap_sample_and_resizes() {
        let config = SystemConfig::default().with_knbest(10, 3);
        let mut alloc = SbqaAllocator::new(config, 42).unwrap();
        assert_eq!(alloc.exploration_width(), Some(3));
        assert!(alloc.satisfaction_signal().is_none(), "no allocation yet");

        let satisfaction = SatisfactionRegistry::new(10);
        let oracle =
            StaticIntentions::new().with_defaults(Intention::new(0.5), Intention::new(0.5));
        alloc
            .allocate(
                &query(1, 1),
                Candidates::from_slice(&snapshots(20)),
                &oracle,
                &satisfaction,
            )
            .unwrap();
        // Intentions 0.5 map to a 0.75 per-result gain: the one winner gives
        // the consumer 0.75 (q.n = 1) and the provider side 0.75 diluted
        // over the kn = 3 consulted providers.
        let sample = alloc.satisfaction_signal().unwrap();
        assert!((sample.consumer - 0.75).abs() < 1e-12);
        assert!((sample.provider - 0.25).abs() < 1e-12);

        // Re-sizing clamps to [1, k].
        alloc.set_exploration_width(7);
        assert_eq!(alloc.exploration_width(), Some(7));
        alloc.set_exploration_width(0);
        assert_eq!(alloc.exploration_width(), Some(1));
        alloc.set_exploration_width(99);
        assert_eq!(alloc.exploration_width(), Some(10), "capped at k");
    }

    #[test]
    fn adaptive_kn_moves_width_per_batch() {
        use crate::adaptive::KnControllerConfig;

        let config = SystemConfig::default().with_knbest(10, 4);
        let mut mediator = Mediator::sbqa(config, 31).unwrap();
        for p in 0..10u64 {
            mediator.register_provider(ProviderId::new(p), caps(), 1.0);
        }
        mediator.register_consumer(ConsumerId::new(1));
        assert!(mediator.adaptive_kn().is_none());
        assert_eq!(mediator.adapt_kn(), 0, "no controller: adapt is a no-op");

        let controller = KnControllerConfig {
            initial_kn: 4,
            min_kn: 2,
            max_kn: 8,
            alpha: 1.0,
            target_gap: 0.0,
            deadband: 0.1,
            step: 1,
            window: 32,
        };
        mediator.enable_adaptive_kn(controller).unwrap();

        // Providers hate the work (-0.9): performed-query satisfaction
        // collapses while the consumer stays pleased — the gap rises and kn
        // must shrink batch over batch.
        let oracle =
            StaticIntentions::new().with_defaults(Intention::new(0.9), Intention::new(-0.9));
        let batch: Vec<Query> = (0..12u64).map(|q| query(q, 1)).collect();
        for _ in 0..6 {
            mediator.submit_batch(&batch, &oracle, |_, _, _| {});
        }
        assert_eq!(mediator.current_kn(0), Some(2), "width hit the floor");
        let adapted = mediator.adaptive_kn().unwrap();
        assert!(adapted.rounds() >= 6);
        assert!(!adapted.trail().is_empty());
        let adapted = format!("{adapted:?}");

        // A refused configuration leaves the running controller as it was.
        let invalid = KnControllerConfig {
            min_kn: 0,
            ..controller
        };
        assert!(matches!(
            mediator.enable_adaptive_kn(invalid),
            Err(SbqaError::InvalidConfiguration { .. })
        ));
        assert_eq!(format!("{:?}", mediator.adaptive_kn().unwrap()), adapted);
        assert_eq!(mediator.current_kn(0), Some(2));
    }

    #[test]
    fn submit_batch_matches_sequential_submits() {
        let build = || {
            let config = SystemConfig::default().with_knbest(8, 3);
            let mut mediator = Mediator::sbqa(config, 77).unwrap();
            for p in 0..10u64 {
                mediator.register_provider(ProviderId::new(p), caps(), 1.0);
            }
            mediator.register_consumer(ConsumerId::new(1));
            mediator
        };
        let oracle =
            StaticIntentions::new().with_defaults(Intention::new(0.3), Intention::new(0.6));
        let queries: Vec<Query> = (0..40u64).map(|q| query(q, 1)).collect();

        let mut sequential = build();
        let expected: Vec<Vec<ProviderId>> = queries
            .iter()
            .map(|q| sequential.submit(q, &oracle).unwrap().decision.selected)
            .collect();

        let mut batched = build();
        let mut got = Vec::new();
        batched.submit_batch(&queries, &oracle, |_, _, result| {
            got.push(result.unwrap().selected.clone());
        });
        assert_eq!(expected, got);
    }

    /// A multi-capability query cycling over overlapping class pairs.
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

    fn multi_mediator(seed: u64) -> Mediator {
        let config = SystemConfig::default().with_knbest(8, 3);
        let mut mediator = Mediator::sbqa(config, seed).unwrap();
        for p in 0..12u64 {
            let caps = CapabilitySet::from_capabilities([
                Capability::new((p % 3) as u8),
                Capability::new(((p + 1) % 3) as u8),
            ]);
            mediator.register_provider(ProviderId::new(p), caps, 1.0);
        }
        mediator.register_consumer(ConsumerId::new(1));
        mediator
    }

    #[test]
    fn same_requirement_queries_share_one_cached_plan() {
        let mut mediator = multi_mediator(5);
        let oracle =
            StaticIntentions::new().with_defaults(Intention::new(0.4), Intention::new(0.2));

        // 24 queries over 6 distinct requirements: the plan cache sees one
        // miss per requirement and serves every repetition as a hit.
        let batch: Vec<Query> = (0..24u64).map(multi_query).collect();
        let report = mediator.submit_batch(&batch, &oracle, |_, _, result| {
            assert!(result.is_ok());
        });
        assert_eq!(report.mediated, 24);
        let stats = mediator.plan_cache_stats();
        assert_eq!(stats.misses, 6, "one merge per distinct requirement");
        assert_eq!(stats.hits, 18, "every repetition was served from the cache");
        assert_eq!(stats.stale_rebuilds, 0);

        // A second identical batch is all hits: plans outlive the batch
        // boundary as long as their classes' postings are unchanged.
        mediator.submit_batch(&batch, &oracle, |_, _, _| {});
        let stats = mediator.plan_cache_stats();
        assert_eq!(stats.misses, 6);
        assert_eq!(stats.hits, 42);
    }

    #[test]
    fn a_thrashing_plan_cache_decides_like_a_roomy_one() {
        // Cache capacity 1 with 6 distinct requirements: every plan is
        // evicted before its next use, so every query re-merges —
        // correctness must not depend on the cache ever hitting.
        let oracle =
            StaticIntentions::new().with_defaults(Intention::new(0.4), Intention::new(0.2));
        let batch: Vec<Query> = (0..24u64).map(multi_query).collect();

        let mut thrashing = multi_mediator(5);
        thrashing.set_plan_cache_capacity(1);
        let mut expected = Vec::new();
        thrashing.submit_batch(&batch, &oracle, |_, _, result| {
            expected.push(result.unwrap().clone());
        });
        assert!(thrashing.plan_cache_stats().evictions > 0);

        let mut roomy = multi_mediator(5);
        let mut got = Vec::new();
        roomy.submit_batch(&batch, &oracle, |_, _, result| {
            got.push(result.unwrap().clone());
        });
        assert_eq!(got, expected);
    }

    #[test]
    fn normal_tier_is_byte_identical_to_an_untouched_mediator() {
        use crate::degrade::DegradationTier;
        let build = || {
            let config = SystemConfig::default().with_knbest(10, 4);
            let mut mediator = Mediator::sbqa(config, 123).unwrap();
            for p in 0..10u64 {
                mediator.register_provider(ProviderId::new(p), caps(), 1.0);
            }
            mediator.register_consumer(ConsumerId::new(1));
            mediator
        };
        let oracle =
            StaticIntentions::new().with_defaults(Intention::new(0.4), Intention::new(0.2));
        let mut plain = build();
        let mut tiered = build();
        // Passing Normal explicitly (what a ladder-free host does) must
        // leave no trace on the decision stream.
        for q in 0..40u64 {
            let query = query(q, 2);
            let expected = plain.submit(&query, &oracle).unwrap().decision;
            let got = tiered
                .submit_at(&query, &oracle, DegradationTier::Normal)
                .unwrap();
            assert_eq!(&expected, got, "query {q}");
        }
    }

    #[test]
    fn shrink_kn_tier_clamps_the_draw_and_restores_the_width() {
        use crate::degrade::DegradationTier;
        let config = SystemConfig::default().with_knbest(10, 6);
        let mut mediator = Mediator::sbqa(config, 7).unwrap();
        for p in 0..12u64 {
            mediator.register_provider(ProviderId::new(p), caps(), 1.0);
        }
        mediator.register_consumer(ConsumerId::new(1));
        let oracle =
            StaticIntentions::new().with_defaults(Intention::new(0.5), Intention::new(0.5));

        let decision = mediator
            .submit_at(&query(1, 6), &oracle, DegradationTier::ShrinkKn)
            .unwrap();
        assert_eq!(
            decision.proposals.len(),
            SHRINK_KN_FLOOR,
            "the draw ran at the floor width"
        );

        // Back at Normal, the full width is restored.
        let decision = mediator
            .submit_at(&query(2, 6), &oracle, DegradationTier::Normal)
            .unwrap();
        assert_eq!(decision.proposals.len(), 6);
    }

    #[test]
    fn baseline_tier_consumes_no_rng() {
        use crate::degrade::DegradationTier;
        let build = || {
            // A fixed ω makes the Normal-tier decision a pure function of
            // the RNG draw: the fallback's satisfaction writes cannot
            // explain a divergence, only consumed RNG could.
            let config = SystemConfig::default()
                .with_knbest(10, 4)
                .with_omega(OmegaPolicy::Fixed(0.5));
            let mut mediator = Mediator::sbqa(config, 55).unwrap();
            for p in 0..10u64 {
                mediator.register_provider(ProviderId::new(p), caps(), 1.0);
            }
            mediator.register_consumer(ConsumerId::new(1));
            mediator
        };
        let oracle =
            StaticIntentions::new().with_defaults(Intention::new(0.5), Intention::new(0.5));

        // The detoured mediator serves 20 queries under the tier; the fresh
        // one serves none. If the fallback consumed RNG, their next
        // Normal-tier decisions would diverge. A `Shed` tier that reaches
        // the mediator is served exactly as `Baseline`.
        for tier in [DegradationTier::Baseline, DegradationTier::Shed] {
            let mut detoured = build();
            let mut baseline = build();
            for q in 0..20u64 {
                let got = detoured.submit_at(&query(q, 1), &oracle, tier).unwrap();
                assert!(got.omega.is_none(), "fallback carries no ω");
                let expected = baseline
                    .submit_at(&query(q, 1), &oracle, DegradationTier::Baseline)
                    .unwrap();
                assert_eq!(got, expected, "{tier:?} query {q}");
            }

            let mut fresh = build();
            let probe = query(100, 2);
            assert_eq!(
                detoured.submit(&probe, &oracle).unwrap().decision,
                fresh.submit(&probe, &oracle).unwrap().decision,
                "{tier:?}"
            );
        }
    }

    #[test]
    fn plan_cache_stats_pass_through_the_mediator() {
        let mut mediator = multi_mediator(5);
        let oracle =
            StaticIntentions::new().with_defaults(Intention::new(0.4), Intention::new(0.2));
        mediator.submit_in_place(&multi_query(0), &oracle).unwrap();
        mediator.submit_in_place(&multi_query(0), &oracle).unwrap();
        let stats = mediator.plan_cache_stats();
        assert_eq!(stats.misses, 1);
        assert_eq!(stats.hits, 1);
        assert_eq!(stats, mediator.providers().plan_cache_stats());

        // Re-bounding through the mediator drops the plans but keeps the
        // counters; the bound is a size, not a mode, so 0 clamps to 1.
        mediator.set_plan_cache_capacity(0);
        let stats = mediator.plan_cache_stats();
        assert_eq!(stats.entries, 0);
        assert_eq!(stats.hits, 1);
        assert_eq!(stats.capacity, 1);
    }
}
