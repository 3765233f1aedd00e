//! Strongly-typed identifiers for participants and queries.
//!
//! The paper distinguishes *consumers* (which issue queries), *providers*
//! (which perform them) and the queries themselves. Using distinct newtypes
//! prevents the classic bug of indexing a provider table with a consumer id,
//! and keeps hash-map keys cheap (`u64`).

use std::fmt;

use serde::{Deserialize, Serialize};

macro_rules! define_id {
    ($(#[$doc:meta])* $name:ident, $prefix:literal) => {
        $(#[$doc])*
        #[derive(
            Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize,
        )]
        #[serde(transparent)]
        pub struct $name(u64);

        impl $name {
            /// Creates an identifier from a raw integer.
            #[must_use]
            pub const fn new(raw: u64) -> Self {
                Self(raw)
            }

            /// Returns the raw integer behind this identifier.
            #[must_use]
            pub const fn raw(self) -> u64 {
                self.0
            }

            /// Returns the identifier as a `usize`, convenient for dense
            /// vector indexing in the simulator.
            #[must_use]
            pub const fn index(self) -> usize {
                self.0 as usize
            }
        }

        impl From<u64> for $name {
            fn from(raw: u64) -> Self {
                Self(raw)
            }
        }

        impl From<$name> for u64 {
            fn from(id: $name) -> Self {
                id.0
            }
        }

        impl fmt::Display for $name {
            fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
                write!(f, concat!($prefix, "{}"), self.0)
            }
        }
    };
}

define_id!(
    /// Identifier of a consumer (a query issuer; in the BOINC demo, a project).
    ConsumerId,
    "c"
);
define_id!(
    /// Identifier of a provider (a query performer; in the BOINC demo, a volunteer).
    ProviderId,
    "p"
);
define_id!(
    /// Identifier of a query (an independent unit of work submitted by a consumer).
    QueryId,
    "q"
);

/// Either side of a mediation: a consumer or a provider.
///
/// Several parts of the framework (satisfaction tracking, departure rules,
/// reporting) treat both kinds of participants uniformly; this enum lets them
/// do so without erasing the underlying type.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub enum ParticipantId {
    /// A consumer-side participant.
    Consumer(ConsumerId),
    /// A provider-side participant.
    Provider(ProviderId),
}

impl From<ConsumerId> for ParticipantId {
    fn from(id: ConsumerId) -> Self {
        ParticipantId::Consumer(id)
    }
}

impl From<ProviderId> for ParticipantId {
    fn from(id: ProviderId) -> Self {
        ParticipantId::Provider(id)
    }
}

impl fmt::Display for ParticipantId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ParticipantId::Consumer(c) => write!(f, "{c}"),
            ParticipantId::Provider(p) => write!(f, "{p}"),
        }
    }
}

/// A monotonically increasing generator of identifiers.
///
/// Used by workload generators and the simulator to mint fresh query ids and
/// participant ids without coordination.
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
pub struct IdGenerator {
    next: u64,
}

impl IdGenerator {
    /// Creates a generator starting at zero.
    #[must_use]
    pub const fn new() -> Self {
        Self { next: 0 }
    }

    /// Returns the next raw identifier value.
    fn next_raw(&mut self) -> u64 {
        let id = self.next;
        self.next += 1;
        id
    }

    /// Mints a fresh query id.
    pub fn next_query(&mut self) -> QueryId {
        QueryId::new(self.next_raw())
    }

    /// Number of identifiers handed out so far.
    #[must_use]
    pub const fn issued(&self) -> u64 {
        self.next
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ids_round_trip_raw_values() {
        let c = ConsumerId::new(7);
        assert_eq!(c.raw(), 7);
        assert_eq!(u64::from(c), 7);
        assert_eq!(ConsumerId::from(7u64), c);
        assert_eq!(c.index(), 7usize);
    }

    #[test]
    fn display_uses_prefixes() {
        assert_eq!(ConsumerId::new(3).to_string(), "c3");
        assert_eq!(ProviderId::new(4).to_string(), "p4");
        assert_eq!(QueryId::new(5).to_string(), "q5");
        assert_eq!(ParticipantId::from(ConsumerId::new(3)).to_string(), "c3");
        assert_eq!(ParticipantId::from(ProviderId::new(9)).to_string(), "p9");
    }

    #[test]
    fn ids_order_by_raw_value() {
        assert!(QueryId::new(1) < QueryId::new(2));
        assert!(ProviderId::new(10) > ProviderId::new(2));
    }

    #[test]
    fn participant_id_discriminates_sides() {
        let c: ParticipantId = ConsumerId::new(1).into();
        let p: ParticipantId = ProviderId::new(1).into();
        assert_eq!(c, ParticipantId::Consumer(ConsumerId::new(1)));
        assert_eq!(p, ParticipantId::Provider(ProviderId::new(1)));
        assert_ne!(c, p);
    }

    #[test]
    fn generator_is_monotonic_and_counts() {
        let mut gen = IdGenerator::new();
        let a = gen.next_query();
        let b = gen.next_query();
        assert!(a < b);
        assert_eq!(gen.issued(), 2);
    }

    #[test]
    fn serde_round_trip_is_transparent() {
        let id = ProviderId::new(42);
        let json = serde_json::to_string(&id).unwrap();
        assert_eq!(json, "42");
        let back: ProviderId = serde_json::from_str(&json).unwrap();
        assert_eq!(back, id);
    }
}
