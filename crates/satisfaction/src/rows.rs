//! Provider satisfaction as dense rows over one pool of windows.
//!
//! The providers are the large side of a registry — 100 000 on the
//! benchmark, each read `kn` times and written `kn` times per mediation, and
//! all of them copied when a standby is armed and dropped when a primary
//! crashes. One heap tracker per provider would make every one of those a
//! per-participant cost (a pointer chase per read, a `malloc` per window
//! growth, a clone and a free per tracker), so their state is three flat
//! pieces instead:
//!
//! * one [`Row`] per provider in a `Vec` — its id, Definition 2's maintained
//!   `(sum, performed)`, the window length and the ring header — one cache
//!   line, so a satisfaction read touches the directory and the row and no
//!   window;
//! * one [`IdDirectory`] from id to row, confirmed against the rows' ids;
//! * one [`WindowPool`] holding every window's ring in size-classed blocks
//!   of 16-byte proposals — 8, 16, 32, 64 … slots, so 128 B, 256 B, 512 B,
//!   1 KiB … — carved from large chunks, with one free list per class. A
//!   window's growth step takes a block of the next class, copies itself
//!   over and gives the old block back — no `malloc` — and the pool only
//!   goes to the allocator for a whole new chunk, which it then writes one
//!   block at a time as the blocks are taken. A proposal keeps no query id,
//!   so a free list threads through its blocks' first slots' intentions
//!   instead (see [`link`]), and giving a block back never allocates
//!   either.
//!
//! `Clone` is therefore a handful of `Vec` copies and `Drop` a handful of
//! frees, whatever the population, and `clone_from` writes the same copies
//! into the buffers a registry already owns (a standby re-armed into a dead
//! primary's memory), reading none of what they held.
//! [`ProviderRows::sync_from`] copies a touched row's header and the live
//! part of its block with `copy_from_slice`.
//!
//! Rows are compacted by `swap_remove`, so a row index is only stable
//! between removals; everything outside this module addresses providers by
//! id. The tracker a provider travels as between registries is still
//! [`ProviderSatisfaction`]: [`ProviderView::to_tracker`]
//! materialises it and [`ProviderRows::install`] takes it apart.

use sbqa_types::{IdDirectory, Intention, ProviderId, Satisfaction};

use crate::provider::{PerformedSum, ProviderInteraction, ProviderSatisfaction};
use crate::registry::RowHint;
use crate::window::InteractionWindow;

/// Slots of a class-0 block, the ring a window takes at its first record.
const FIRST_SLOTS: usize = 8;

/// The largest size class: blocks of 2³¹ proposals. A window never holds
/// more, whatever capacity it declares.
const MAX_CLASS: u8 = 28;

/// `log2` of the blocks in one chunk of the small classes.
const CHUNK_BLOCKS_SHIFT: u32 = 10;

/// `log2` of the slots a chunk stops at: 1 024 blocks of 64 proposals
/// (1 MiB). Larger classes put fewer blocks in a chunk — down to one — so
/// a single long window never reserves a thousand of its kind.
const CHUNK_SLOTS_SHIFT: u32 = 16;

/// [`Row::class`] of a window that has no block yet (nothing recorded).
const NO_BLOCK: u8 = u8::MAX;

/// End of a free list.
const NO_FREE: u32 = u32::MAX;

/// `2³²`: a free-list link is a block index over this (see [`link`]).
const LINK_SCALE: f64 = 4_294_967_296.0;

/// Rows [`ProviderRows::sync_from`] resolves ahead, as one group.
const SYNC_GROUP: usize = 16;

/// What a freshly carved block is filled with; never read as a proposal.
const VACANT: ProviderInteraction = ProviderInteraction {
    intention: Intention::NEUTRAL,
    performed: false,
};

/// What a free block's first slot holds: the index of the next free block
/// as the intention `next / 2³²`. That is exact for every `u32` — the
/// quotient needs 32 of an `f64`'s 53 mantissa bits, the divisor is a power
/// of two — and lies in `[0, 1)`, which [`Intention::new`] keeps as it is.
fn link(next: u32) -> ProviderInteraction {
    ProviderInteraction {
        intention: Intention::new(f64::from(next) / LINK_SCALE),
        performed: false,
    }
}

/// The block index a free block's first slot links to (see [`link`]).
fn next_free(slot: &ProviderInteraction) -> u32 {
    (slot.intention.value() * LINK_SCALE) as u32
}

/// Slots of one block of `class`.
fn slots_of(class: u8) -> usize {
    FIRST_SLOTS << class
}

/// The smallest class whose blocks hold `len` proposals.
fn class_for(len: usize) -> u8 {
    let class =
        usize::BITS - (len.saturating_sub(1) >> FIRST_SLOTS.trailing_zeros()).leading_zeros();
    assert!(
        class <= u32::from(MAX_CLASS),
        "a window of {len} proposals exceeds the pool's largest block"
    );
    class as u8
}

/// `log2` of the blocks in one chunk of `class`.
fn chunk_blocks_shift(class: u8) -> u32 {
    (CHUNK_SLOTS_SHIFT - FIRST_SLOTS.trailing_zeros())
        .saturating_sub(u32::from(class))
        .min(CHUNK_BLOCKS_SHIFT)
}

/// Slots of one chunk of `class`.
fn chunk_slots(class: u8) -> usize {
    slots_of(class) << chunk_blocks_shift(class)
}

/// The blocks of one size class.
#[derive(Debug)]
struct SizeClass {
    /// Every chunk is allocated at its full capacity and never reallocated;
    /// its length is the part carved into blocks so far. Only the last chunk
    /// can be short: a chunk's memory is first written block by block as the
    /// blocks are taken, not all at once when the chunk is allocated — a
    /// whole chunk filled in the middle of a batch is 128 KiB to 1 MiB of
    /// writes that one query pays for a thousand.
    chunks: Vec<Vec<ProviderInteraction>>,
    /// Blocks carved out of the chunks so far: the next fresh block's index.
    carved: u32,
    /// Head of the free list, threaded through the released blocks (each
    /// keeps its successor in its first slot, see [`link`]), so giving a
    /// block back allocates nothing.
    free: u32,
}

impl Default for SizeClass {
    fn default() -> Self {
        Self {
            chunks: Vec::new(),
            carved: 0,
            free: NO_FREE,
        }
    }
}

/// Every window's ring storage, by size class (see the module docs).
#[derive(Debug, Default)]
struct WindowPool {
    classes: Vec<SizeClass>,
}

/// Chunk for chunk at full capacity, so the copy's last chunk can go on
/// being carved where the original's stopped; `clone_from` writes into the
/// chunks the copy already has and allocates only those it lacks.
impl Clone for WindowPool {
    fn clone(&self) -> Self {
        let mut copy = Self::default();
        copy.clone_from(self);
        copy
    }

    fn clone_from(&mut self, source: &Self) {
        self.classes
            .resize_with(source.classes.len(), SizeClass::default);
        for ((class, sized), from) in (0u8..).zip(&mut self.classes).zip(&source.classes) {
            sized.chunks.truncate(from.chunks.len());
            for (chunk, from) in sized.chunks.iter_mut().zip(&from.chunks) {
                chunk.clear();
                chunk.extend_from_slice(from);
            }
            for from in &from.chunks[sized.chunks.len()..] {
                let mut chunk = Vec::with_capacity(chunk_slots(class));
                chunk.extend_from_slice(from);
                sized.chunks.push(chunk);
            }
            sized.carved = from.carved;
            sized.free = from.free;
        }
    }
}

impl WindowPool {
    /// Takes a block of `class`: the most recently released one, else a
    /// fresh one, allocating a chunk when the last is used up.
    fn take(&mut self, class: u8) -> u32 {
        if self.classes.len() <= usize::from(class) {
            self.classes
                .resize_with(usize::from(class) + 1, SizeClass::default);
        }
        let free = self.classes[usize::from(class)].free;
        if free != NO_FREE {
            self.classes[usize::from(class)].free = next_free(&self.block(class, free)[0]);
            return free;
        }
        let sized = &mut self.classes[usize::from(class)];
        if sized.carved as usize == sized.chunks.len() << chunk_blocks_shift(class) {
            sized.chunks.push(Vec::with_capacity(chunk_slots(class)));
        }
        if let Some(chunk) = sized.chunks.last_mut() {
            // Within the chunk's capacity: this writes one block and
            // allocates nothing.
            chunk.resize(chunk.len() + slots_of(class), VACANT);
        }
        sized.carved += 1;
        sized.carved - 1
    }

    /// Gives a block back to its class's free list.
    fn release(&mut self, class: u8, block: u32) {
        let next = self.classes[usize::from(class)].free;
        self.block_mut(class, block)[0] = link(next);
        self.classes[usize::from(class)].free = block;
    }

    /// A window's growth step: takes a block of the next class, copies the
    /// full `block` of `class` into its front and gives `block` back.
    fn grow(&mut self, class: u8, block: u32) -> u32 {
        let grown = self.take(class + 1);
        let (small, large) = self.classes.split_at_mut(usize::from(class) + 1);
        let (from_chunk, from) = Self::locate(class, block);
        let (to_chunk, to) = Self::locate(class + 1, grown);
        large[0].chunks[to_chunk][to][..from.len()]
            .copy_from_slice(&small[usize::from(class)].chunks[from_chunk][from]);
        self.release(class, block);
        grown
    }

    /// Where `block` of `class` lies: its chunk and slot range.
    fn locate(class: u8, block: u32) -> (usize, std::ops::Range<usize>) {
        let shift = chunk_blocks_shift(class);
        let within = (block as usize) & ((1 << shift) - 1);
        let slots = slots_of(class);
        (
            (block >> shift) as usize,
            within * slots..(within + 1) * slots,
        )
    }

    fn block(&self, class: u8, block: u32) -> &[ProviderInteraction] {
        let (chunk, range) = Self::locate(class, block);
        &self.classes[usize::from(class)].chunks[chunk][range]
    }

    fn block_mut(&mut self, class: u8, block: u32) -> &mut [ProviderInteraction] {
        let (chunk, range) = Self::locate(class, block);
        &mut self.classes[usize::from(class)].chunks[chunk][range]
    }
}

/// One provider's satisfaction state minus its proposals: a cache line.
///
/// The window is a ring inside the row's block. While it is not full the
/// proposals sit at `0..len` and `head` is 0; once `len` has reached the
/// window's limit the oldest proposal is at `head` and each record
/// overwrites it. Either way the live slots are exactly `0..len`.
#[derive(Debug, Clone, Copy)]
#[repr(align(64))]
struct Row {
    id: ProviderId,
    /// Definition 2's numerator and denominator over the window.
    maintained: PerformedSum,
    total_recorded: u64,
    /// The window size `k` the provider declared.
    capacity: usize,
    len: u32,
    head: u32,
    block: u32,
    class: u8,
}

impl Row {
    fn empty(id: ProviderId, capacity: usize) -> Self {
        Self {
            id,
            maintained: PerformedSum::default(),
            total_recorded: 0,
            capacity: capacity.max(1),
            len: 0,
            head: 0,
            block: 0,
            class: NO_BLOCK,
        }
    }

    /// `δs(p)` off the row alone: the maintained pair over `len` proposals.
    fn satisfaction(&self) -> Satisfaction {
        self.maintained.satisfaction(self.len as usize)
    }

    /// Proposals the window holds when full: `k`, or the largest block.
    fn limit(&self) -> u32 {
        self.capacity.min(slots_of(MAX_CLASS)) as u32
    }
}

/// The window of `row` oldest first, as the two runs of its ring.
fn window_of<'a>(
    row: &Row,
    block: &'a [ProviderInteraction],
) -> impl Iterator<Item = &'a ProviderInteraction> + Clone {
    let (newest, oldest) = block[..row.len as usize].split_at(row.head as usize);
    oldest.iter().chain(newest)
}

/// A read-only view of one provider's satisfaction state inside a
/// [`SatisfactionRegistry`](crate::SatisfactionRegistry): the accessors of
/// [`ProviderSatisfaction`] over the registry's own storage, plus
/// [`ProviderView::to_tracker`] for callers that need the owned value.
#[derive(Debug, Clone, Copy)]
pub struct ProviderView<'a> {
    row: &'a Row,
    /// The row's block; empty while it has none.
    block: &'a [ProviderInteraction],
}

impl<'a> ProviderView<'a> {
    /// Long-run satisfaction `δs(p)` (Definition 2), from the maintained
    /// sum; see [`ProviderSatisfaction::satisfaction`].
    #[must_use]
    pub fn satisfaction(&self) -> Satisfaction {
        self.row.satisfaction()
    }

    /// Number of proposals currently remembered.
    #[must_use]
    pub fn observed_proposals(&self) -> usize {
        self.row.len as usize
    }

    /// The window size `k`.
    #[must_use]
    pub fn window_size(&self) -> usize {
        self.row.capacity
    }

    /// Number of remembered proposals the provider performed (`|SQ^k_p|`).
    #[must_use]
    pub fn performed_count(&self) -> usize {
        self.row.maintained.performed
    }

    /// Fraction of remembered proposals the provider performed; 1.0 when
    /// there is no proposal yet.
    #[must_use]
    pub fn selection_rate(&self) -> f64 {
        self.row.maintained.selection_rate(self.row.len as usize)
    }

    /// Iterates over the remembered proposals, oldest first.
    pub fn interactions(&self) -> impl Iterator<Item = &'a ProviderInteraction> {
        window_of(self.row, self.block)
    }

    /// The provider's state as the owned tracker it travels as.
    #[must_use]
    pub fn to_tracker(&self) -> ProviderSatisfaction {
        ProviderSatisfaction::from_parts(
            InteractionWindow::from_parts(
                self.row.capacity,
                self.interactions().copied().collect(),
                self.row.total_recorded,
            ),
            self.row.maintained,
        )
    }
}

/// Every provider's satisfaction state (see the module docs).
#[derive(Debug, Default)]
pub(crate) struct ProviderRows {
    rows: Vec<Row>,
    directory: IdDirectory,
    pool: WindowPool,
}

/// By hand for `clone_from`, which writes every column into the buffers
/// this side already owns.
impl Clone for ProviderRows {
    fn clone(&self) -> Self {
        Self {
            rows: self.rows.clone(),
            directory: self.directory.clone(),
            pool: self.pool.clone(),
        }
    }

    fn clone_from(&mut self, source: &Self) {
        self.rows.clone_from(&source.rows);
        self.directory.clone_from(&source.directory);
        self.pool.clone_from(&source.pool);
    }
}

impl ProviderRows {
    pub(crate) fn len(&self) -> usize {
        self.rows.len()
    }

    fn find(&self, id: ProviderId) -> Option<usize> {
        let rows = &self.rows;
        self.directory
            .find(id.raw(), |row| rows[row as usize].id.raw())
            .map(|row| row as usize)
    }

    /// The row of `id`: `hint` if that row is still the provider's, else
    /// the directory's answer.
    fn find_hinted(&self, id: ProviderId, hint: RowHint) -> Option<usize> {
        match self.rows.get(hint.index()) {
            Some(row) if row.id == id => Some(hint.index()),
            _ => self.find(id),
        }
    }

    /// Where the row of `id` is now: the directory probe and the read of
    /// the row that confirms it.
    pub(crate) fn hint(&self, id: ProviderId) -> RowHint {
        RowHint::of(self.find(id))
    }

    fn view_at<'a>(&'a self, row: &'a Row) -> ProviderView<'a> {
        let block: &[ProviderInteraction] = if row.class == NO_BLOCK {
            &[]
        } else {
            self.pool.block(row.class, row.block)
        };
        ProviderView { row, block }
    }

    /// The view of one provider, if registered.
    pub(crate) fn view(&self, id: ProviderId) -> Option<ProviderView<'_>> {
        self.find(id).map(|row| self.view_at(&self.rows[row]))
    }

    /// A provider's satisfaction: directory line (skipped on a good
    /// `hint`), row line, no window.
    pub(crate) fn satisfaction(&self, id: ProviderId, hint: RowHint) -> Option<Satisfaction> {
        self.find_hinted(id, hint)
            .map(|row| self.rows[row].satisfaction())
    }

    /// Every provider's `(id, satisfaction)`, in row order, off the rows alone.
    pub(crate) fn satisfactions(&self) -> impl Iterator<Item = (ProviderId, Satisfaction)> + '_ {
        self.rows.iter().map(|row| (row.id, row.satisfaction()))
    }

    /// Appends `row` (its id must be absent) and returns its index.
    fn push(&mut self, row: Row) -> usize {
        let at = self.rows.len();
        assert!(at < u32::MAX as usize, "provider rows fit in u32");
        self.rows.push(row);
        let rows = &self.rows;
        self.directory
            .insert(row.id.raw(), at as u32, |row| rows[row as usize].id.raw());
        at
    }

    /// The row of `id` (tried at `hint` first), appended with an empty
    /// window of `capacity` first if the provider is unknown.
    fn row_or_new(&mut self, id: ProviderId, hint: RowHint, capacity: usize) -> usize {
        match self.find_hinted(id, hint) {
            Some(at) => at,
            None => self.push(Row::empty(id, capacity)),
        }
    }

    /// Registers a provider with an empty window of `capacity` if it is not
    /// yet known. Returns `true` if it was newly registered.
    pub(crate) fn register(&mut self, id: ProviderId, capacity: usize) -> bool {
        if self.find(id).is_some() {
            return false;
        }
        self.push(Row::empty(id, capacity));
        true
    }

    /// Takes the row at `at` out: its block goes back to the pool and the
    /// last row moves into its place.
    fn remove_at(&mut self, at: usize) {
        let row = self.rows[at];
        if row.class != NO_BLOCK {
            self.pool.release(row.class, row.block);
        }
        let rows = &self.rows;
        self.directory
            .remove(row.id.raw(), |row| rows[row as usize].id.raw());
        self.rows.swap_remove(at);
        if let Some(moved) = self.rows.get(at) {
            self.directory
                .repoint(moved.id.raw(), self.rows.len() as u32, at as u32);
        }
    }

    /// Removes a provider, returning its state as a tracker.
    pub(crate) fn extract(&mut self, id: ProviderId) -> Option<ProviderSatisfaction> {
        let at = self.find(id)?;
        let tracker = self.view_at(&self.rows[at]).to_tracker();
        self.remove_at(at);
        Some(tracker)
    }

    /// Removes a provider. Returns `true` if it existed.
    pub(crate) fn remove(&mut self, id: ProviderId) -> bool {
        let found = self.find(id);
        if let Some(at) = found {
            self.remove_at(at);
        }
        found.is_some()
    }

    /// Installs `tracker` as the state of `id`, replacing any it had. The
    /// tracker keeps its own window size.
    pub(crate) fn install(&mut self, id: ProviderId, tracker: ProviderSatisfaction) {
        let (window, maintained) = tracker.into_parts();
        let at = self.row_or_new(id, RowHint::NONE, window.capacity());
        let len = window.len();
        let class = if len == 0 { NO_BLOCK } else { class_for(len) };
        self.reblock(at, class);
        let row = &mut self.rows[at];
        row.maintained = maintained;
        row.total_recorded = window.total_recorded();
        row.capacity = window.capacity();
        row.len = len as u32;
        row.head = 0;
        if len > 0 {
            let block = self.pool.block_mut(row.class, row.block);
            for (slot, interaction) in block.iter_mut().zip(window.iter()) {
                *slot = *interaction;
            }
        }
    }

    /// Makes the row at `at` hold a block of `class` (or none), without
    /// carrying its proposals over.
    fn reblock(&mut self, at: usize, class: u8) {
        let row = &mut self.rows[at];
        if row.class == class {
            return;
        }
        if row.class != NO_BLOCK {
            self.pool.release(row.class, row.block);
        }
        row.class = class;
        if class != NO_BLOCK {
            row.block = self.pool.take(class);
        }
    }

    /// Records a proposal for `id` (its row tried at `hint` first),
    /// registering it with a window of `capacity` first if it is unknown.
    pub(crate) fn record(
        &mut self,
        id: ProviderId,
        hint: RowHint,
        capacity: usize,
        recorded: ProviderInteraction,
    ) {
        let at = self.row_or_new(id, hint, capacity);
        let row = &mut self.rows[at];
        row.total_recorded += 1;
        let evicted = if row.len == row.limit() {
            // Full: the newest proposal takes the oldest one's slot.
            let slot = &mut self.pool.block_mut(row.class, row.block)[row.head as usize];
            row.head = if row.head + 1 == row.len {
                0
            } else {
                row.head + 1
            };
            Some(std::mem::replace(slot, recorded))
        } else {
            debug_assert_eq!(row.head, 0, "a window that is not full has not wrapped");
            if row.class == NO_BLOCK {
                row.class = 0;
                row.block = self.pool.take(0);
            } else if row.len as usize == slots_of(row.class) {
                // Not wrapped, so the block's slots are oldest first.
                row.block = self.pool.grow(row.class, row.block);
                row.class += 1;
            }
            self.pool.block_mut(row.class, row.block)[row.len as usize] = recorded;
            row.len += 1;
            None
        };
        let block = self.pool.block(row.class, row.block);
        row.maintained = row
            .maintained
            .after_record(&recorded, evicted, || window_of(row, block));
    }

    /// Makes this registry's state of every provider of `ids` (distinct)
    /// equal to `source`'s: the row header and the live part of its block
    /// copied over (into a block of the source's class), or the row removed
    /// when `source` has none.
    ///
    /// The ids go [`SYNC_GROUP`] at a time, and a group's rows on both sides
    /// are found before any is written, so their directory probes and row
    /// reads are in flight together. A removal moves the last row into the
    /// removed one's place, so each row found on this side is confirmed
    /// against its id when it is written, as a [`RowHint`] is.
    pub(crate) fn sync_from(&mut self, source: &ProviderRows, ids: &[ProviderId]) {
        for group in ids.chunks(SYNC_GROUP) {
            let mut live = [None; SYNC_GROUP];
            let mut stale = [RowHint::NONE; SYNC_GROUP];
            for ((&id, live), stale) in group.iter().zip(&mut live).zip(&mut stale) {
                *live = source.find(id);
                *stale = self.hint(id);
            }
            for ((&id, live), stale) in group.iter().zip(live).zip(stale) {
                self.sync_row(source, id, live, stale);
            }
        }
    }

    /// One row of [`sync_from`](Self::sync_from): `live` is the source's
    /// row of `id`, `hint` where this side's was.
    fn sync_row(
        &mut self,
        source: &ProviderRows,
        id: ProviderId,
        live: Option<usize>,
        hint: RowHint,
    ) {
        let Some(live) = live.map(|at| source.rows[at]) else {
            if let Some(at) = self.find_hinted(id, hint) {
                self.remove_at(at);
            }
            return;
        };
        let at = self.row_or_new(id, hint, live.capacity);
        self.reblock(at, live.class);
        let block = self.rows[at].block;
        self.rows[at] = Row { block, ..live };
        if live.class != NO_BLOCK {
            let len = live.len as usize;
            self.pool.block_mut(live.class, block)[..len]
                .copy_from_slice(&source.pool.block(live.class, live.block)[..len]);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_free_list_link_holds_every_block_index() {
        for next in [0, 1, 1023, 1 << 20, u32::MAX - 1, NO_FREE] {
            assert_eq!(next_free(&link(next)), next);
        }
    }

    #[test]
    fn a_copied_pool_goes_on_carving_its_last_chunk_in_place() {
        let mut pool = WindowPool::default();
        pool.take(0);
        let mut copy = pool.clone();
        let chunk = copy.classes[0].chunks[0].as_ptr();
        for _ in 1..1 << chunk_blocks_shift(0) {
            copy.take(0);
        }
        assert_eq!(copy.classes[0].chunks.len(), 1);
        assert_eq!(copy.classes[0].chunks[0].as_ptr(), chunk);
        assert_eq!(copy.classes[0].chunks[0].len(), chunk_slots(0));
        copy.take(0);
        assert_eq!(copy.classes[0].chunks.len(), 2);
        assert_eq!(copy.classes[0].chunks[1].len(), slots_of(0));
    }
}
