//! Error types shared across the workspace.

use std::fmt;

use crate::id::{ConsumerId, ProviderId, QueryId};

/// Convenience alias for results produced by the SbQA stack.
pub type SbqaResult<T> = Result<T, SbqaError>;

/// Errors that can arise during query allocation and simulation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SbqaError {
    /// No provider in the system is capable of performing the query.
    NoCapableProvider {
        /// The query that could not be allocated.
        query: QueryId,
    },
    /// Providers capable of the query exist but none is currently online.
    NoProviderOnline {
        /// The query that could not be allocated.
        query: QueryId,
    },
    /// A provider id was used that is not registered with the mediator.
    UnknownProvider {
        /// The offending provider id.
        provider: ProviderId,
    },
    /// A consumer id was used that is not registered with the mediator.
    UnknownConsumer {
        /// The offending consumer id.
        consumer: ConsumerId,
    },
    /// A configuration value is outside its legal domain.
    InvalidConfiguration {
        /// Human-readable description of the problem.
        reason: String,
    },
    /// The simulation was asked to run with an empty workload or population.
    EmptyScenario {
        /// Human-readable description of the missing ingredient.
        reason: String,
    },
    /// The query was rejected by admission control before mediation: the
    /// degradation ladder was in its shed tier when the query arrived. Not a
    /// starvation — the system chose not to serve it, deterministically.
    QueryShed {
        /// The query that was shed.
        query: QueryId,
    },
}

impl fmt::Display for SbqaError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SbqaError::NoCapableProvider { query } => {
                write!(f, "no provider is capable of performing query {query}")
            }
            SbqaError::NoProviderOnline { query } => {
                write!(f, "no capable provider is online for query {query}")
            }
            SbqaError::UnknownProvider { provider } => {
                write!(f, "provider {provider} is not registered with the mediator")
            }
            SbqaError::UnknownConsumer { consumer } => {
                write!(f, "consumer {consumer} is not registered with the mediator")
            }
            SbqaError::InvalidConfiguration { reason } => {
                write!(f, "invalid configuration: {reason}")
            }
            SbqaError::EmptyScenario { reason } => {
                write!(f, "scenario cannot run: {reason}")
            }
            SbqaError::QueryShed { query } => {
                write!(f, "query {query} was shed by overload admission control")
            }
        }
    }
}

impl std::error::Error for SbqaError {}

impl SbqaError {
    /// Builds an [`SbqaError::InvalidConfiguration`] from anything printable.
    pub fn invalid_config(reason: impl Into<String>) -> Self {
        SbqaError::InvalidConfiguration {
            reason: reason.into(),
        }
    }

    /// Builds an [`SbqaError::EmptyScenario`] from anything printable.
    pub fn empty_scenario(reason: impl Into<String>) -> Self {
        SbqaError::EmptyScenario {
            reason: reason.into(),
        }
    }

    /// `true` when the error means the query simply could not be placed
    /// (starvation), as opposed to a programming/configuration error.
    #[must_use]
    pub fn is_starvation(&self) -> bool {
        matches!(
            self,
            SbqaError::NoCapableProvider { .. } | SbqaError::NoProviderOnline { .. }
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_messages_mention_ids() {
        let e = SbqaError::NoCapableProvider {
            query: QueryId::new(7),
        };
        assert!(e.to_string().contains("q7"));
        let e = SbqaError::UnknownProvider {
            provider: ProviderId::new(3),
        };
        assert!(e.to_string().contains("p3"));
        let e = SbqaError::UnknownConsumer {
            consumer: ConsumerId::new(9),
        };
        assert!(e.to_string().contains("c9"));
    }

    #[test]
    fn starvation_classification() {
        assert!(SbqaError::NoCapableProvider {
            query: QueryId::new(1)
        }
        .is_starvation());
        assert!(SbqaError::NoProviderOnline {
            query: QueryId::new(1)
        }
        .is_starvation());
        assert!(!SbqaError::invalid_config("bad k").is_starvation());
        assert!(!SbqaError::empty_scenario("no consumers").is_starvation());
        assert!(
            !SbqaError::QueryShed {
                query: QueryId::new(1)
            }
            .is_starvation(),
            "shedding is a deliberate admission decision, not starvation"
        );
    }

    #[test]
    fn constructors_capture_reason() {
        match SbqaError::invalid_config("k must be positive") {
            SbqaError::InvalidConfiguration { reason } => {
                assert_eq!(reason, "k must be positive");
            }
            other => panic!("unexpected variant {other:?}"),
        }
    }

    #[test]
    fn error_trait_is_implemented() {
        let e: Box<dyn std::error::Error> = Box::new(SbqaError::empty_scenario("no providers"));
        assert!(e.to_string().contains("no providers"));
    }
}
