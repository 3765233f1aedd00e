//! Queries and mediation outcomes.
//!
//! A query in SbQA is an independent unit of work issued by a consumer. In the
//! BOINC demonstration it is "a set of input files and an application
//! program"; for allocation purposes the mediator only needs:
//!
//! * which consumer issued it ([`Query::consumer`]),
//! * which providers are able to perform it (derived from
//!   [`Query::required`], a conjunctive or disjunctive
//!   [`CapabilityRequirement`] over capability classes),
//! * how many providers must perform it ([`Query::replication`] — BOINC
//!   consumers replicate work units to validate results from possibly
//!   malicious volunteers; the paper calls this `q.n`),
//! * how much work it represents ([`Query::work_units`], used by the
//!   simulator to derive service times).

use crate::capability::{Capability, CapabilityRequirement};
use crate::id::{ConsumerId, ProviderId, QueryId};
use crate::time::{Duration, VirtualTime};

/// A coarse class of query, used by workload generators to vary work size and
/// by intention functions that prefer some query types over others.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub enum QueryClass {
    /// A short, cheap query (e.g. a small work unit).
    Short,
    /// A typical query.
    #[default]
    Medium,
    /// A long-running, expensive query (e.g. a large work unit).
    Long,
}

impl QueryClass {
    /// A multiplicative factor applied to the base work size of a query of
    /// this class. Chosen so that the mean over a uniform class mix is ~1.
    #[must_use]
    pub const fn work_factor(self) -> f64 {
        match self {
            QueryClass::Short => 0.4,
            QueryClass::Medium => 1.0,
            QueryClass::Long => 1.6,
        }
    }

    /// All classes, in increasing work order.
    #[must_use]
    pub const fn all() -> [QueryClass; 3] {
        [QueryClass::Short, QueryClass::Medium, QueryClass::Long]
    }
}

/// An independent unit of work submitted by a consumer and allocated by the
/// mediator to one or more providers.
#[derive(Debug, Clone, PartialEq)]
pub struct Query {
    /// Unique identifier of the query.
    pub id: QueryId,
    /// The consumer that issued the query (written `q.c` in the paper).
    pub consumer: ConsumerId,
    /// What a provider must advertise to belong to `Pq`: all of a capability
    /// set, or any of it. Single-capability queries are the trivial one-bit
    /// case, [`CapabilityRequirement::single`].
    pub required: CapabilityRequirement,
    /// Number of providers that must perform the query (written `q.n`).
    ///
    /// This is the replication factor used by BOINC-style result validation;
    /// it is at least 1.
    pub replication: usize,
    /// Size of the query in abstract work units. A provider with capacity `C`
    /// (work units per virtual second) serves the query in
    /// `work_units / C` seconds.
    pub work_units: f64,
    /// The coarse class of the query.
    pub class: QueryClass,
    /// Virtual time at which the consumer issued the query.
    pub issued_at: VirtualTime,
}

impl Query {
    /// Starts building a single-capability query; see [`QueryBuilder`]. This
    /// is the original API surface — existing call sites keep compiling and
    /// produce the trivial `All{cap}` requirement.
    #[must_use]
    pub fn builder(id: QueryId, consumer: ConsumerId, capability: Capability) -> QueryBuilder {
        QueryBuilder::new(id, consumer, capability)
    }

    /// Starts building a query with an explicit [`CapabilityRequirement`].
    #[must_use]
    pub fn requiring(
        id: QueryId,
        consumer: ConsumerId,
        required: CapabilityRequirement,
    ) -> QueryBuilder {
        QueryBuilder::requiring(id, consumer, required)
    }

    /// Service time of this query on a provider with the given capacity
    /// (work units per virtual second).
    ///
    /// Returns [`Duration::ZERO`] for a non-positive capacity, which the
    /// simulator treats as "cannot be served" upstream.
    #[must_use]
    pub fn service_time(&self, capacity: f64) -> Duration {
        if capacity <= 0.0 {
            return Duration::ZERO;
        }
        Duration::new(self.work_units / capacity)
    }
}

/// Builder for [`Query`] with sensible defaults (replication 1, one work
/// unit, medium class, issued at time zero).
#[derive(Debug, Clone)]
// sbqa-lint: allow(dead-pub, "returned by Query::builder and Query::requiring; callers chain it unnamed")
pub struct QueryBuilder {
    id: QueryId,
    consumer: ConsumerId,
    required: CapabilityRequirement,
    replication: usize,
    work_units: f64,
    class: QueryClass,
    issued_at: VirtualTime,
}

impl QueryBuilder {
    /// Creates a builder for a single-capability query with default work size
    /// and replication.
    #[must_use]
    pub fn new(id: QueryId, consumer: ConsumerId, capability: Capability) -> Self {
        Self::requiring(id, consumer, CapabilityRequirement::single(capability))
    }

    /// Creates a builder with an explicit capability requirement.
    #[must_use]
    pub fn requiring(id: QueryId, consumer: ConsumerId, required: CapabilityRequirement) -> Self {
        Self {
            id,
            consumer,
            required,
            replication: 1,
            work_units: 1.0,
            class: QueryClass::Medium,
            issued_at: VirtualTime::ZERO,
        }
    }

    /// Sets the replication factor (`q.n`). Values below 1 are raised to 1.
    #[must_use]
    pub fn replication(mut self, n: usize) -> Self {
        self.replication = n.max(1);
        self
    }

    /// Sets the work size in abstract units. Non-positive or non-finite sizes
    /// fall back to one work unit.
    #[must_use]
    pub fn work_units(mut self, units: f64) -> Self {
        self.work_units = if units.is_finite() && units > 0.0 {
            units
        } else {
            1.0
        };
        self
    }

    /// Sets the query class and scales the work size by the class factor.
    #[must_use]
    pub fn class(mut self, class: QueryClass) -> Self {
        self.class = class;
        self
    }

    /// Sets the issue timestamp.
    #[must_use]
    pub fn issued_at(mut self, at: VirtualTime) -> Self {
        self.issued_at = at;
        self
    }

    /// Finalises the query.
    #[must_use]
    pub fn build(self) -> Query {
        Query {
            id: self.id,
            consumer: self.consumer,
            required: self.required,
            replication: self.replication,
            work_units: self.work_units * self.class.work_factor(),
            class: self.class,
            issued_at: self.issued_at,
        }
    }
}

/// The outcome of a completed query, recorded once every selected provider
/// has finished (or the query was dropped).
#[derive(Debug, Clone, PartialEq)]
pub struct QueryOutcome {
    /// The query this outcome describes.
    pub query: QueryId,
    /// The consumer that issued the query.
    pub consumer: ConsumerId,
    /// Providers that actually performed the query (the paper's `P̂q`).
    pub performed_by: Vec<ProviderId>,
    /// Virtual time at which the query was issued.
    pub issued_at: VirtualTime,
    /// Virtual time at which the last required result arrived, if the query
    /// completed.
    pub completed_at: Option<VirtualTime>,
    /// `true` if the mediator could not allocate the query (no capable or no
    /// live provider).
    pub starved: bool,
}

impl QueryOutcome {
    /// Response time of the query, if it completed.
    #[must_use]
    pub fn response_time(&self) -> Option<Duration> {
        self.completed_at.map(|done| done.since(self.issued_at))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn sample_query() -> Query {
        Query::builder(QueryId::new(1), ConsumerId::new(2), Capability::new(0))
            .replication(3)
            .work_units(10.0)
            .issued_at(VirtualTime::new(5.0))
            .build()
    }

    #[test]
    fn builder_applies_all_fields() {
        let q = sample_query();
        assert_eq!(q.id, QueryId::new(1));
        assert_eq!(q.consumer, ConsumerId::new(2));
        assert_eq!(q.replication, 3);
        assert_eq!(q.work_units, 10.0);
        assert_eq!(q.issued_at, VirtualTime::new(5.0));
        // The single-capability shim produces the trivial requirement.
        assert_eq!(
            q.required,
            crate::capability::CapabilityRequirement::single(Capability::new(0))
        );
        assert_eq!(q.required.as_single(), Some(Capability::new(0)));
    }

    #[test]
    fn builder_supports_multi_capability_requirements() {
        use crate::capability::{CapabilityRequirement, CapabilitySet};

        let set = CapabilitySet::from_capabilities([Capability::new(1), Capability::new(4)]);
        let q = Query::requiring(
            QueryId::new(9),
            ConsumerId::new(3),
            CapabilityRequirement::Any(set),
        )
        .build();
        assert_eq!(q.required, CapabilityRequirement::Any(set));
        assert_eq!(q.required.as_single(), None);
    }

    #[test]
    fn builder_sanitises_degenerate_inputs() {
        let q = Query::builder(QueryId::new(1), ConsumerId::new(1), Capability::new(0))
            .replication(0)
            .work_units(-3.0)
            .build();
        assert_eq!(q.replication, 1);
        assert_eq!(q.work_units, 1.0);

        let q = Query::builder(QueryId::new(1), ConsumerId::new(1), Capability::new(0))
            .work_units(f64::NAN)
            .build();
        assert_eq!(q.work_units, 1.0);
    }

    #[test]
    fn class_scales_work_units() {
        let short = Query::builder(QueryId::new(1), ConsumerId::new(1), Capability::new(0))
            .work_units(10.0)
            .class(QueryClass::Short)
            .build();
        let long = Query::builder(QueryId::new(2), ConsumerId::new(1), Capability::new(0))
            .work_units(10.0)
            .class(QueryClass::Long)
            .build();
        assert!(short.work_units < long.work_units);
    }

    #[test]
    fn service_time_scales_inversely_with_capacity() {
        let q = sample_query();
        assert_eq!(q.service_time(2.0).seconds(), 5.0);
        assert_eq!(q.service_time(10.0).seconds(), 1.0);
        assert_eq!(q.service_time(0.0), Duration::ZERO);
        assert_eq!(q.service_time(-1.0), Duration::ZERO);
    }

    #[test]
    fn outcome_response_time() {
        let outcome = QueryOutcome {
            query: QueryId::new(1),
            consumer: ConsumerId::new(2),
            performed_by: vec![ProviderId::new(3)],
            issued_at: VirtualTime::new(5.0),
            completed_at: Some(VirtualTime::new(9.0)),
            starved: false,
        };
        assert_eq!(outcome.response_time().unwrap().seconds(), 4.0);

        let starved = QueryOutcome {
            completed_at: None,
            performed_by: vec![],
            starved: true,
            ..outcome
        };
        assert_eq!(starved.response_time(), None);
    }

    proptest! {
        #[test]
        fn prop_service_time_positive_for_positive_capacity(
            work in 0.01f64..1e6, capacity in 0.01f64..1e6
        ) {
            let q = Query::builder(QueryId::new(0), ConsumerId::new(0), Capability::new(0))
                .work_units(work)
                .build();
            prop_assert!(q.service_time(capacity).seconds() > 0.0);
        }

        #[test]
        fn prop_replication_at_least_one(n in 0usize..32) {
            let q = Query::builder(QueryId::new(0), ConsumerId::new(0), Capability::new(0))
                .replication(n)
                .build();
            prop_assert!(q.replication >= 1);
        }
    }
}
