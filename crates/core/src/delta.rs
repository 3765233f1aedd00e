//! Registry mutation deltas: the unit of replication.
//!
//! Every state change a [`ProviderRegistry`]
//! can undergo is describable by one of four [`RegistryDelta`] records. A
//! registry with a [`DeltaSink`] attached emits one record per *effective*
//! mutation — a call that changed state — and nothing for a no-op, so a
//! replica that replays the stream performs exactly the primary's mutations.
//! Per mutator:
//!
//! * `register` always mutates (it inserts or replaces) → always emits;
//! * `unregister` emits only when the provider existed;
//! * `set_online` emits only when the flag actually toggled (the no-op
//!   early-return emits nothing);
//! * `update_load` emits only on success (unknown provider → error, no
//!   emission).
//!
//! Records carry the *arguments* of the mutation, not a diff of the result:
//! replaying a record through the identically-named public mutator on any
//! registry that has seen the same prefix reproduces the same state,
//! including the slab layout, postings membership and load columns.
//!
//! The hook is zero-cost when disabled: an unattached registry pays one
//! `Option` null check per mutation, no allocation, no dynamic dispatch.

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

    /// Replays this delta through the corresponding public mutator of
    /// `registry`.
    ///
    /// Because the log records only *effective* mutations, a replica that
    /// has applied the same prefix can never hit the no-op or error paths:
    /// any failure here means the stream is being applied to a registry that
    /// did not see the prefix (a corrupt or misrouted log).
    ///
    /// # Errors
    ///
    /// [`SbqaError::UnknownProvider`] when the delta addresses a provider
    /// the target registry does not know — the out-of-sync signal above.
    pub fn apply(&self, registry: &mut ProviderRegistry) -> SbqaResult<()> {
        match *self {
            RegistryDelta::Register {
                id,
                capabilities,
                capacity,
            } => {
                registry.register(id, capabilities, capacity);
                Ok(())
            }
            RegistryDelta::Unregister { id } => {
                if registry.unregister(id) {
                    Ok(())
                } else {
                    Err(SbqaError::UnknownProvider { provider: id })
                }
            }
            RegistryDelta::SetOnline { id, online } => registry.set_online(id, online),
            RegistryDelta::UpdateLoad {
                id,
                utilization,
                queue_length,
            } => registry.update_load(id, utilization, queue_length),
        }
    }
}

/// A consumer of the registry's delta stream.
///
/// Attached via
/// [`ProviderRegistry::set_delta_sink`](crate::registry::ProviderRegistry::set_delta_sink),
/// the sink observes every effective mutation in commit order, synchronously,
/// from inside the mutating call. Implementations must not call back into the
/// registry (the registry is `&mut`-borrowed for the duration) and should be
/// cheap: the hot path pays the full cost of `record`.
///
/// Registry *clones* never inherit the sink — a clone is a state fork (a
/// checkpoint, a replica), and two registries feeding one log would corrupt
/// its sequencing.
pub trait DeltaSink: std::fmt::Debug + Send {
    /// Observes one effective mutation, after it has been applied.
    fn record(&mut self, delta: &RegistryDelta);
}

#[cfg(test)]
mod tests {
    use super::*;
    use sbqa_types::Capability;
    use std::sync::{Arc, Mutex};

    /// Sink that collects every record into a shared tape, so the test keeps
    /// a reading handle while the registry owns the erased sink.
    #[derive(Debug, Default, Clone)]
    struct Tape(Arc<Mutex<Vec<RegistryDelta>>>);

    impl Tape {
        fn records(&self) -> Vec<RegistryDelta> {
            self.0.lock().expect("test tape lock").clone()
        }
    }

    impl DeltaSink for Tape {
        fn record(&mut self, delta: &RegistryDelta) {
            self.0.lock().expect("test tape lock").push(*delta);
        }
    }

    fn caps(class: u8) -> CapabilitySet {
        CapabilitySet::singleton(Capability::new(class))
    }

    #[test]
    fn emission_mirrors_effective_mutations() {
        let tape = Tape::default();
        let mut registry = ProviderRegistry::new();
        registry.set_delta_sink(Box::new(tape.clone()));
        let id = ProviderId::new(7);

        registry.register(id, caps(1), 2.0);
        // No-op toggle: already online, nothing emitted.
        registry.set_online(id, true).unwrap();
        registry.set_online(id, false).unwrap();
        registry.update_load(id, 1.5, 3).unwrap();
        // Errors emit nothing.
        assert!(registry.update_load(ProviderId::new(99), 1.0, 1).is_err());
        assert!(!registry.unregister(ProviderId::new(99)));
        assert!(registry.unregister(id));

        assert_eq!(
            tape.records(),
            vec![
                RegistryDelta::Register {
                    id,
                    capabilities: caps(1),
                    capacity: 2.0
                },
                RegistryDelta::SetOnline { id, online: false },
                RegistryDelta::UpdateLoad {
                    id,
                    utilization: 1.5,
                    queue_length: 3
                },
                RegistryDelta::Unregister { id },
            ]
        );
    }

    #[test]
    fn replay_reproduces_state() {
        let tape = Tape::default();
        let mut primary = ProviderRegistry::new();
        primary.set_delta_sink(Box::new(tape.clone()));
        for raw in 0..8u64 {
            primary.register(
                ProviderId::new(raw),
                caps((raw % 3) as u8),
                1.0 + raw as f64,
            );
        }
        primary.set_online(ProviderId::new(2), false).unwrap();
        primary.update_load(ProviderId::new(3), 4.0, 9).unwrap();
        primary.unregister(ProviderId::new(5));

        let mut replica = ProviderRegistry::new();
        for delta in &tape.records() {
            delta.apply(&mut replica).expect("replay over same prefix");
        }

        assert_eq!(replica.len(), primary.len());
        assert_eq!(replica.online_count(), primary.online_count());
        let lhs: Vec<_> = primary.iter().collect();
        let rhs: Vec<_> = replica.iter().collect();
        assert_eq!(lhs, rhs, "slab layout must replay byte-identically");
    }

    #[test]
    fn clones_do_not_inherit_the_sink() {
        let mut registry = ProviderRegistry::new();
        registry.set_delta_sink(Box::new(Tape::default()));
        assert!(registry.delta_sink_attached());
        let fork = registry.clone();
        assert!(!fork.delta_sink_attached());
        assert!(registry.delta_sink_attached());
    }
}
