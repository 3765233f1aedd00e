//! Delta-driven shard handoff.
//!
//! Re-routing a provider range to another shard — because the service grew
//! or shrank its shard count — must not "re-register the world": a freshly
//! registered provider would come back online, idle and satisfaction-blank,
//! erasing exactly the state the mediator is trusted to keep. A
//! [`HandoffPackage`] instead ships, per provider:
//!
//! * a snapshot expanded into the **same delta vocabulary the log uses**
//!   (`Register` + `UpdateLoad` + `SetOnline` reproduce the full column
//!   state, including offline providers), and
//! * the provider's satisfaction tracker, transplanted window-intact.
//!
//! Applying a package to a destination mediator leaves every shipped
//! provider byte-identical to its source-shard state.

use sbqa_core::{Mediator, ProviderSnapshot, RegistryDelta};
use sbqa_satisfaction::ProviderSatisfaction;
use sbqa_types::SbqaResult;

/// A batch of providers (snapshots + satisfaction trackers) being moved to
/// one destination shard.
#[derive(Debug, Default)]
pub struct HandoffPackage {
    providers: Vec<(ProviderSnapshot, Option<ProviderSatisfaction>)>,
}

impl HandoffPackage {
    /// Creates an empty package.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds a provider: its full registry snapshot and, if the source shard
    /// tracked one, its satisfaction tracker (extracted with
    /// [`sbqa_satisfaction::SatisfactionRegistry::extract_provider`]).
    pub fn push_provider(
        &mut self,
        snapshot: ProviderSnapshot,
        satisfaction: Option<ProviderSatisfaction>,
    ) {
        self.providers.push((snapshot, satisfaction));
    }

    /// The delta sequence that reproduces `snapshot` on a registry that does
    /// not know the provider: register (online, idle), restore the load
    /// columns, then restore the online flag. The `SetOnline` entry is
    /// emitted even when the provider is online — a no-op toggle costs
    /// nothing and keeps the expansion shape uniform for tests and tools.
    #[must_use]
    fn snapshot_deltas(snapshot: &ProviderSnapshot) -> [RegistryDelta; 3] {
        [
            RegistryDelta::Register {
                id: snapshot.id,
                capabilities: snapshot.capabilities,
                capacity: snapshot.capacity,
            },
            RegistryDelta::UpdateLoad {
                id: snapshot.id,
                utilization: snapshot.utilization,
                queue_length: snapshot.queue_length,
            },
            RegistryDelta::SetOnline {
                id: snapshot.id,
                online: snapshot.online,
            },
        ]
    }

    /// Applies the package to a destination mediator: every provider is
    /// rebuilt through its snapshot deltas and its satisfaction tracker is
    /// adopted window-intact.
    ///
    /// # Errors
    ///
    /// Any delta-application error — in a correctly routed handoff the
    /// expansion cannot fail, so an error means the package was built
    /// against a different topology than it is being applied to.
    pub fn apply(self, mediator: &mut Mediator) -> SbqaResult<()> {
        for (snapshot, satisfaction) in self.providers {
            for delta in Self::snapshot_deltas(&snapshot) {
                mediator.mutate(&delta)?;
            }
            if let Some(tracker) = satisfaction {
                mediator
                    .satisfaction_mut()
                    .adopt_provider(snapshot.id, tracker);
            }
        }
        Ok(())
    }
}
