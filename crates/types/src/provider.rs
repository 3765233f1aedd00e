//! Mediator-visible provider state: the per-provider snapshot and the
//! struct-of-arrays column store the registry keeps it in.
//!
//! [`ProviderSnapshot`] is the *row* view — what one provider looks like at
//! allocation time, and the convenient shape for tests and ad-hoc callers. The registry, however, stores the population
//! as [`ProviderColumns`]: one dense, slot-indexed column per field. Scoring
//! a merged candidate block then touches only the columns it needs (KnBest
//! reads utilization and id; capability checks read the mask column), one
//! cache-friendly linear pass instead of striding over 48-byte rows for a
//! single 8-byte field.
//!
//! The column store also owns the **only** id → slot map: a keyless
//! [`IdDirectory`] confirmed against the id column, kept in step by the two
//! calls that move rows ([`ProviderColumns::push`] and
//! [`ProviderColumns::swap_remove`]) and read by
//! [`ProviderColumns::slot_of`]. Everything that names a provider by id —
//! the registry's point updates, a candidate view resolving the members of
//! a postings set — finds the row there, so a compaction has one entry to
//! re-point.

use crate::capability::CapabilitySet;
use crate::directory::IdDirectory;
use crate::id::ProviderId;
use crate::query::Query;

/// The mediator-visible state of a provider at allocation time.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ProviderSnapshot {
    /// The provider's identity.
    pub id: ProviderId,
    /// Capabilities the provider advertises.
    pub capabilities: CapabilitySet,
    /// Processing capacity in work units per virtual second.
    pub capacity: f64,
    /// Current utilization, defined as outstanding work divided by capacity
    /// (i.e. the virtual seconds of work already queued). KnBest uses this to
    /// keep the `kn` least-utilized providers.
    pub utilization: f64,
    /// Number of queries currently queued or running at the provider.
    pub queue_length: usize,
    /// `true` if the provider is currently online.
    pub online: bool,
}

impl ProviderSnapshot {
    /// Creates a snapshot for an idle, online provider.
    #[must_use]
    pub fn idle(id: ProviderId, capabilities: CapabilitySet, capacity: f64) -> Self {
        Self {
            id,
            capabilities,
            capacity: if capacity.is_finite() && capacity > 0.0 {
                capacity
            } else {
                1.0
            },
            utilization: 0.0,
            queue_length: 0,
            online: true,
        }
    }

    /// `true` if this provider can perform the given query and is online.
    #[must_use]
    pub fn can_perform(&self, query: &Query) -> bool {
        self.online && query.required.matched_by(self.capabilities)
    }
}

/// Struct-of-arrays storage for a population of provider snapshots.
///
/// Every column is indexed by *slot* (a dense position that is only stable
/// between mutations — the registry compacts with a swap-remove on
/// unregister). The row form of slot `s` is [`ProviderColumns::snapshot`];
/// the columns themselves are exposed as slices so hot paths can read just
/// the field they rank by. Ids are unique: a provider has one row, and
/// [`ProviderColumns::slot_of`] finds it.
#[derive(Debug, Clone, Default)]
pub struct ProviderColumns {
    ids: Vec<ProviderId>,
    capabilities: Vec<CapabilitySet>,
    capacity: Vec<f64>,
    utilization: Vec<f64>,
    queue_length: Vec<usize>,
    online: Vec<bool>,
    /// id → slot, confirmed against `ids`. Derived data: rebuilt by `push`
    /// on the way back in from the row vector.
    directory: IdDirectory,
}

impl ProviderColumns {
    /// Creates an empty column store.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Number of stored providers.
    #[must_use]
    pub fn len(&self) -> usize {
        self.ids.len()
    }

    /// `true` if no provider is stored.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.ids.is_empty()
    }

    /// The slot of the row holding `id`, if there is one.
    #[inline]
    #[must_use]
    pub fn slot_of(&self, id: ProviderId) -> Option<u32> {
        self.directory
            .find(id.raw(), |row| self.ids[row as usize].raw())
    }

    /// Appends a snapshot, returning its slot. The id must not be stored
    /// already (check with [`slot_of`](ProviderColumns::slot_of) and
    /// [`set`](ProviderColumns::set) the row instead).
    pub fn push(&mut self, snapshot: ProviderSnapshot) -> usize {
        let slot = self.ids.len();
        // sbqa-lint: allow(panic-hygiene, "slot ids are u32 by design; a 4-billion-provider registry exceeds the design envelope")
        let row = u32::try_from(slot).expect("provider population fits in u32");
        self.ids.push(snapshot.id);
        let ids = &self.ids;
        self.directory
            .insert(snapshot.id.raw(), row, |row| ids[row as usize].raw());
        self.capabilities.push(snapshot.capabilities);
        self.capacity.push(snapshot.capacity);
        self.utilization.push(snapshot.utilization);
        self.queue_length.push(snapshot.queue_length);
        self.online.push(snapshot.online);
        slot
    }

    /// Overwrites the columns of `slot` with the snapshot's fields. A row
    /// keeps its id: the snapshot must carry the one stored.
    pub fn set(&mut self, slot: usize, snapshot: ProviderSnapshot) {
        debug_assert_eq!(self.ids[slot], snapshot.id, "a row keeps its id");
        self.capabilities[slot] = snapshot.capabilities;
        self.capacity[slot] = snapshot.capacity;
        self.utilization[slot] = snapshot.utilization;
        self.queue_length[slot] = snapshot.queue_length;
        self.online[slot] = snapshot.online;
    }

    /// Removes `slot` by moving the last row into it (column-wise
    /// `swap_remove`) and re-pointing the moved row's directory entry — the
    /// one thing a compaction has to patch.
    pub fn swap_remove(&mut self, slot: usize) {
        let ids = &self.ids;
        self.directory
            .remove(ids[slot].raw(), |row| ids[row as usize].raw());
        let last = self.ids.len() - 1;
        self.ids.swap_remove(slot);
        if slot != last {
            self.directory
                .repoint(self.ids[slot].raw(), last as u32, slot as u32);
        }
        self.capabilities.swap_remove(slot);
        self.capacity.swap_remove(slot);
        self.utilization.swap_remove(slot);
        self.queue_length.swap_remove(slot);
        self.online.swap_remove(slot);
    }

    /// Assembles the row view of `slot`.
    ///
    /// # Panics
    /// Panics if `slot` is out of bounds.
    #[must_use]
    pub fn snapshot(&self, slot: usize) -> ProviderSnapshot {
        ProviderSnapshot {
            id: self.ids[slot],
            capabilities: self.capabilities[slot],
            capacity: self.capacity[slot],
            utilization: self.utilization[slot],
            queue_length: self.queue_length[slot],
            online: self.online[slot],
        }
    }

    /// Iterates the row views in slot order.
    pub fn snapshots(&self) -> impl Iterator<Item = ProviderSnapshot> + '_ {
        (0..self.len()).map(move |slot| self.snapshot(slot))
    }

    /// The id column, slot-indexed.
    #[must_use]
    pub fn ids(&self) -> &[ProviderId] {
        &self.ids
    }

    /// The capability-mask column, slot-indexed.
    #[must_use]
    pub fn capabilities(&self) -> &[CapabilitySet] {
        &self.capabilities
    }

    /// The capacity column, slot-indexed.
    #[must_use]
    pub fn capacity(&self) -> &[f64] {
        &self.capacity
    }

    /// The utilization column, slot-indexed.
    #[must_use]
    pub fn utilization(&self) -> &[f64] {
        &self.utilization
    }

    /// The queue-length column, slot-indexed.
    #[must_use]
    pub fn queue_length(&self) -> &[usize] {
        &self.queue_length
    }

    /// The online-flag column, slot-indexed.
    #[must_use]
    pub fn online(&self) -> &[bool] {
        &self.online
    }

    /// Updates the load columns of `slot` (utilization is sanitized to a
    /// finite non-negative value, exactly as the row form does).
    pub fn set_load(&mut self, slot: usize, utilization: f64, queue_length: usize) {
        self.utilization[slot] = if utilization.is_finite() && utilization > 0.0 {
            utilization
        } else {
            0.0
        };
        self.queue_length[slot] = queue_length;
    }

    /// Updates the online flag of `slot`.
    pub fn set_online(&mut self, slot: usize, online: bool) {
        self.online[slot] = online;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::capability::Capability;

    fn caps(class: u8) -> CapabilitySet {
        CapabilitySet::singleton(Capability::new(class))
    }

    #[test]
    fn idle_snapshot_sanitises_capacity() {
        let snap = ProviderSnapshot::idle(ProviderId::new(1), CapabilitySet::ALL, -3.0);
        assert_eq!(snap.capacity, 1.0);
        assert!(snap.online);
        let ok = ProviderSnapshot::idle(ProviderId::new(1), CapabilitySet::ALL, 4.0);
        assert_eq!(ok.capacity, 4.0);
    }

    #[test]
    fn push_snapshot_round_trips_rows() {
        let mut columns = ProviderColumns::new();
        assert!(columns.is_empty());
        let a = ProviderSnapshot::idle(ProviderId::new(7), caps(0), 2.0);
        let mut b = ProviderSnapshot::idle(ProviderId::new(9), caps(1), 3.0);
        b.utilization = 4.5;
        b.queue_length = 2;
        b.online = false;
        assert_eq!(columns.push(a), 0);
        assert_eq!(columns.push(b), 1);
        assert_eq!(columns.len(), 2);
        assert_eq!(columns.snapshot(0), a);
        assert_eq!(columns.snapshot(1), b);
        let rows: Vec<ProviderSnapshot> = columns.snapshots().collect();
        assert_eq!(rows, vec![a, b]);
    }

    #[test]
    fn swap_remove_compacts_column_wise() {
        let mut columns = ProviderColumns::new();
        for id in 0..4u64 {
            columns.push(ProviderSnapshot::idle(ProviderId::new(id), caps(0), 1.0));
        }
        columns.swap_remove(1);
        assert_eq!(columns.len(), 3);
        // The former last row (id 3) moved into slot 1 across every column,
        // and the directory followed it.
        assert_eq!(columns.ids()[1], ProviderId::new(3));
        assert_eq!(columns.snapshot(1).id, ProviderId::new(3));
        assert_eq!(columns.slot_of(ProviderId::new(3)), Some(1));
        assert_eq!(columns.slot_of(ProviderId::new(1)), None);
        // Removing the last row moves nothing.
        columns.swap_remove(2);
        assert_eq!(columns.slot_of(ProviderId::new(2)), None);
        assert_eq!(columns.slot_of(ProviderId::new(0)), Some(0));
        assert_eq!(columns.slot_of(ProviderId::new(3)), Some(1));
    }

    #[test]
    fn load_and_online_setters_touch_single_columns() {
        let mut columns = ProviderColumns::new();
        columns.push(ProviderSnapshot::idle(ProviderId::new(1), caps(0), 1.0));
        columns.set_load(0, 6.25, 3);
        columns.set_online(0, false);
        assert_eq!(columns.utilization()[0], 6.25);
        assert_eq!(columns.queue_length()[0], 3);
        assert!(!columns.online()[0]);
        // Degenerate utilization is clamped to zero, as in the row form.
        columns.set_load(0, f64::NAN, 0);
        assert_eq!(columns.utilization()[0], 0.0);
    }
}
