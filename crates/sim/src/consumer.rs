//! Simulated consumers.
//!
//! A consumer issues queries following a Poisson process (exponential
//! inter-arrival times at its configured rate), all requiring the same
//! capability (its "project application" in BOINC terms) and replicated
//! `replication` times for result validation. Its intention profile decides
//! how it ranks providers.

use sbqa_core::intention::ConsumerProfile;
use sbqa_types::{Capability, CapabilityRequirement, CapabilitySet, ConsumerId, VirtualTime};

/// Static description of a consumer in a scenario.
#[derive(Debug, Clone, PartialEq)]
pub struct ConsumerSpec {
    /// The consumer's identity.
    pub id: ConsumerId,
    /// The base capability requirement of its queries (defines `Pq`). The
    /// original single-capability consumers are the trivial `All{cap}` case.
    pub requirement: CapabilityRequirement,
    /// Additional capability classes its queries may require on top of the
    /// base requirement, used by the workload model's multi-capability mix
    /// (see [`WorkloadModel`](crate::workload::WorkloadModel)). Empty by
    /// default: the consumer then always issues its base requirement.
    pub extra_capabilities: CapabilitySet,
    /// Mean number of queries issued per virtual second.
    pub arrival_rate: f64,
    /// Mean size of a query in work units.
    pub mean_work_units: f64,
    /// Number of providers each query must be performed by (`q.n`).
    pub replication: usize,
    /// How the consumer computes its intentions towards providers.
    pub profile: ConsumerProfile,
}

impl ConsumerSpec {
    /// Creates a single-capability consumer spec with sanitised numeric
    /// fields — the original API surface, producing the trivial `All{cap}`
    /// requirement.
    #[must_use]
    pub fn new(
        id: ConsumerId,
        capability: Capability,
        arrival_rate: f64,
        mean_work_units: f64,
        replication: usize,
        profile: ConsumerProfile,
    ) -> Self {
        Self {
            id,
            requirement: CapabilityRequirement::single(capability),
            extra_capabilities: CapabilitySet::EMPTY,
            arrival_rate: if arrival_rate.is_finite() && arrival_rate > 0.0 {
                arrival_rate
            } else {
                1.0
            },
            mean_work_units: if mean_work_units.is_finite() && mean_work_units > 0.0 {
                mean_work_units
            } else {
                1.0
            },
            replication: replication.max(1),
            profile,
        }
    }

    /// Builder-style override of the base capability requirement.
    #[must_use]
    pub fn with_requirement(mut self, requirement: CapabilityRequirement) -> Self {
        self.requirement = requirement;
        self
    }

    /// Builder-style override of the extra capability classes the workload
    /// model may add to multi-capability queries.
    #[must_use]
    pub fn with_extra_capabilities(mut self, extra: CapabilitySet) -> Self {
        self.extra_capabilities = extra;
        self
    }
}

/// Runtime state of a simulated consumer.
#[derive(Debug, Clone)]
pub struct ConsumerState {
    /// The static spec this state was built from.
    pub spec: ConsumerSpec,
    /// `true` while the consumer is part of the system.
    pub online: bool,
    /// Virtual time at which the consumer departed, if it did.
    pub departed_at: Option<VirtualTime>,
    /// Number of queries issued so far.
    pub queries_issued: u64,
    /// Number of queries that completed (all required results delivered).
    pub queries_completed: u64,
    /// Number of queries the mediator could not allocate.
    pub queries_starved: u64,
}

impl ConsumerState {
    /// Creates the runtime state for a spec.
    #[must_use]
    pub fn new(spec: ConsumerSpec) -> Self {
        Self {
            spec,
            online: true,
            departed_at: None,
            queries_issued: 0,
            queries_completed: 0,
            queries_starved: 0,
        }
    }

    /// The consumer's identity.
    #[must_use]
    pub fn id(&self) -> ConsumerId {
        self.spec.id
    }

    /// Marks the consumer as departed: it stops issuing queries.
    pub fn depart(&mut self, at: VirtualTime) {
        self.online = false;
        self.departed_at = Some(at);
    }

    /// Fraction of issued queries that completed so far (1.0 before any
    /// query is issued).
    #[must_use]
    pub fn completion_rate(&self) -> f64 {
        if self.queries_issued == 0 {
            return 1.0;
        }
        self.queries_completed as f64 / self.queries_issued as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn spec(rate: f64, work: f64, replication: usize) -> ConsumerSpec {
        ConsumerSpec::new(
            ConsumerId::new(1),
            Capability::new(0),
            rate,
            work,
            replication,
            ConsumerProfile::default(),
        )
    }

    #[test]
    fn spec_sanitises_degenerate_values() {
        let s = spec(-1.0, 0.0, 0);
        assert_eq!(s.arrival_rate, 1.0);
        assert_eq!(s.mean_work_units, 1.0);
        assert_eq!(s.replication, 1);
        assert_eq!(
            s.requirement,
            sbqa_types::CapabilityRequirement::single(Capability::new(0))
        );
        assert!(s.extra_capabilities.is_empty());

        let ok = spec(2.5, 3.0, 2);
        assert_eq!(ok.arrival_rate, 2.5);
        assert_eq!(ok.mean_work_units, 3.0);
        assert_eq!(ok.replication, 2);
    }

    #[test]
    fn requirement_and_extras_builders_apply() {
        use sbqa_types::{CapabilityRequirement, CapabilitySet};

        let set = CapabilitySet::from_capabilities([Capability::new(1), Capability::new(2)]);
        let s = spec(1.0, 1.0, 1)
            .with_requirement(CapabilityRequirement::Any(set))
            .with_extra_capabilities(CapabilitySet::singleton(Capability::new(5)));
        assert_eq!(s.requirement, CapabilityRequirement::Any(set));
        assert!(s.extra_capabilities.contains(Capability::new(5)));
    }

    #[test]
    fn state_tracks_counts_and_departure() {
        let mut state = ConsumerState::new(spec(1.0, 1.0, 1));
        assert!(state.online);
        assert_eq!(state.completion_rate(), 1.0);

        state.queries_issued = 4;
        state.queries_completed = 3;
        state.queries_starved = 1;
        assert!((state.completion_rate() - 0.75).abs() < 1e-12);

        state.depart(VirtualTime::new(50.0));
        assert!(!state.online);
        assert_eq!(state.departed_at, Some(VirtualTime::new(50.0)));
        assert_eq!(state.id(), ConsumerId::new(1));
    }
}
