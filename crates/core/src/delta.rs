//! Registry mutation deltas: the unit of replication.
//!
//! Every state change a [`ProviderRegistry`]
//! can undergo is describable by one of four [`RegistryDelta`] records.
//! [`RegistryDelta::apply`] performs one and says whether it was
//! *effective* — whether it changed state — so that a replicated shard logs
//! exactly the effective ones and a replica that replays its log performs
//! exactly the primary's mutations. Per mutator:
//!
//! * `register` always mutates (it inserts or replaces) → always effective;
//! * `unregister` is effective only when the provider existed (an unknown
//!   provider is an error);
//! * `set_online` is effective only when the flag actually toggled;
//! * `update_load` is effective whenever it succeeds (an unknown provider is
//!   an error).
//!
//! Records carry the *arguments* of the mutation, not a diff of the result:
//! applying a record to any registry that has seen the same prefix
//! reproduces the same state, including the slab layout, postings
//! membership and load columns.

use sbqa_types::{CapabilitySet, ProviderId, SbqaError, SbqaResult};

use crate::registry::ProviderRegistry;

/// One effective mutation of a [`ProviderRegistry`], carrying the arguments
/// of the public mutator that caused it.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum RegistryDelta {
    /// A provider registered (or re-registered, replacing its previous
    /// state) with the given capabilities and capacity, initially online and
    /// idle.
    Register {
        /// The provider's id.
        id: ProviderId,
        /// The advertised capability classes.
        capabilities: CapabilitySet,
        /// The advertised capacity (queries per virtual second).
        capacity: f64,
    },
    /// A provider left the system for good.
    Unregister {
        /// The departed provider's id.
        id: ProviderId,
    },
    /// A provider's online flag actually toggled.
    SetOnline {
        /// The provider's id.
        id: ProviderId,
        /// The new online state.
        online: bool,
    },
    /// A provider's load state changed.
    UpdateLoad {
        /// The provider's id.
        id: ProviderId,
        /// Utilization in virtual seconds of queued work.
        utilization: f64,
        /// Queue length in queries.
        queue_length: usize,
    },
}

impl RegistryDelta {
    /// The provider this delta concerns.
    #[must_use]
    pub fn provider(&self) -> ProviderId {
        match *self {
            RegistryDelta::Register { id, .. }
            | RegistryDelta::Unregister { id }
            | RegistryDelta::SetOnline { id, .. }
            | RegistryDelta::UpdateLoad { id, .. } => id,
        }
    }

    /// Performs this mutation on `registry` through the corresponding
    /// mutator and returns whether it was effective (the rule is in the
    /// module docs): `false` only for a `SetOnline` to the flag the provider
    /// already has.
    ///
    /// Because a log records only effective mutations, a replica that has
    /// applied the same prefix never meets an error here: any failure means
    /// the stream is being applied to a registry that did not see the prefix
    /// (a corrupt or misrouted log).
    ///
    /// # Errors
    ///
    /// [`SbqaError::UnknownProvider`] when the delta addresses a provider
    /// the target registry does not know — the out-of-sync signal above.
    pub fn apply(&self, registry: &mut ProviderRegistry) -> SbqaResult<bool> {
        match *self {
            RegistryDelta::Register {
                id,
                capabilities,
                capacity,
            } => registry.register(id, capabilities, capacity),
            RegistryDelta::Unregister { id } => {
                if !registry.unregister(id) {
                    return Err(SbqaError::UnknownProvider { provider: id });
                }
            }
            RegistryDelta::SetOnline { id, online } => return registry.toggle_online(id, online),
            RegistryDelta::UpdateLoad {
                id,
                utilization,
                queue_length,
            } => registry.update_load(id, utilization, queue_length)?,
        }
        Ok(true)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sbqa_types::Capability;

    fn caps(class: u8) -> CapabilitySet {
        CapabilitySet::singleton(Capability::new(class))
    }

    #[test]
    fn emission_mirrors_effective_mutations() {
        let mut registry = ProviderRegistry::new();
        let id = ProviderId::new(7);
        let unknown = ProviderId::new(99);
        let mut apply = |delta: RegistryDelta| delta.apply(&mut registry);

        let register = RegistryDelta::Register {
            id,
            capabilities: caps(1),
            capacity: 2.0,
        };
        assert_eq!(apply(register), Ok(true));
        // No-op toggle: already online, not effective.
        assert_eq!(
            apply(RegistryDelta::SetOnline { id, online: true }),
            Ok(false)
        );
        assert_eq!(
            apply(RegistryDelta::SetOnline { id, online: false }),
            Ok(true)
        );
        let load = RegistryDelta::UpdateLoad {
            id,
            utilization: 1.5,
            queue_length: 3,
        };
        assert_eq!(apply(load), Ok(true));
        // Errors are not effective.
        let unknown_load = RegistryDelta::UpdateLoad {
            id: unknown,
            utilization: 1.0,
            queue_length: 1,
        };
        assert!(apply(unknown_load).is_err());
        assert!(apply(RegistryDelta::Unregister { id: unknown }).is_err());
        assert_eq!(apply(RegistryDelta::Unregister { id }), Ok(true));
    }

    #[test]
    fn replay_reproduces_state() {
        let mut primary = ProviderRegistry::new();
        let mut tape = Vec::new();
        let mut mutations: Vec<RegistryDelta> = (0..8u64)
            .map(|raw| RegistryDelta::Register {
                id: ProviderId::new(raw),
                capabilities: caps((raw % 3) as u8),
                capacity: 1.0 + raw as f64,
            })
            .collect();
        mutations.extend([
            RegistryDelta::SetOnline {
                id: ProviderId::new(2),
                online: false,
            },
            RegistryDelta::SetOnline {
                id: ProviderId::new(4),
                online: true,
            },
            RegistryDelta::UpdateLoad {
                id: ProviderId::new(3),
                utilization: 4.0,
                queue_length: 9,
            },
            RegistryDelta::Unregister {
                id: ProviderId::new(5),
            },
        ]);
        for delta in mutations {
            if delta.apply(&mut primary).expect("known provider") {
                tape.push(delta);
            }
        }
        assert_eq!(tape.len(), 11, "the no-op toggle is not recorded");

        let mut replica = ProviderRegistry::new();
        for delta in &tape {
            assert_eq!(
                delta.apply(&mut replica),
                Ok(true),
                "replay over same prefix"
            );
        }

        assert_eq!(replica.len(), primary.len());
        assert_eq!(replica.online_count(), primary.online_count());
        let lhs: Vec<_> = primary.iter().collect();
        let rhs: Vec<_> = replica.iter().collect();
        assert_eq!(lhs, rhs, "slab layout must replay byte-identically");
    }
}
