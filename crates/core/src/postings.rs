//! Chunked postings: the registry's per-capability index of online
//! providers, scaled for millions of entries.
//!
//! A [`PostingsMap`] is an ordered **set of provider ids** — membership and
//! nothing else. Ids are split into 2^16-sized chunks by their high bits, as
//! in the Roaring bitmap design, but every chunk has one shape: a sorted
//! `Vec<u16>` of its members' low keys, which a positional lookup indexes
//! directly. Once a chunk has reached [`WORDS_MIN`] keys it also keeps the
//! same members as 1024 bitset words, set and cleared beside the keys, so a
//! merge reads them word-parallel instead of scattering the keys; it keeps
//! them until it empties, so a chunk flapping around [`WORDS_MIN`] does not
//! allocate.
//!
//! Beside the sorted chunk keys a map keeps the cumulative chunk lengths, so
//! a positional lookup ([`PostingsMap::select`]) is one search of that array
//! and one index into the chunk's keys: the `k` draws of a KnBest selection
//! are independent loads that overlap, not `k` chains of dependent
//! popcount-directory reads.
//!
//! Iteration order is ascending provider id *by construction*: chunk keys and
//! the low keys within a chunk are kept sorted. This is what keeps every
//! downstream random draw byte-identical per seed — positions into a
//! postings view enumerate the same providers in the same order as the flat
//! sorted `Vec<u32>` lists they replaced.
//!
//! No slot is recorded here. Where a member's row sits in the registry's
//! column store is the business of that store's id directory
//! (`ProviderColumns::slot_of`), the one id → slot map there is: a
//! candidate view selects a position's id in a map or in a
//! [`MergedSet`] — the id-sorted membership of an `All`/`Any` merge, one
//! bitset per dense chunk, sorted low keys per sparse one — and resolves the
//! id there. A slab compaction therefore touches no postings at all, and a
//! set goes stale only when membership changes.
//!
//! ## Cost model of a membership change
//!
//! An insert whose low key is above the chunk's last pushes it, with no
//! search and no move: registering providers in ascending id order, as every
//! world build does, appends. Any other insert, and every remove, binary
//! searches the keys and moves the ones after it — at most
//! 2 B × 65 536 = 128 KiB in a full chunk, a few µs — and flips one word bit.
//! The map's cumulative lengths move by one for every later chunk.
//!
//! ## Cost model of a merge
//!
//! [`MergedSet::merge`] costs O(chunks × 1 024 words × lists) word
//! operations plus one popcount pass per dense chunk. Between sources that
//! have words (chunks of at least [`WORDS_MIN`] keys) it does no per-member
//! work: an AND / OR over a chunk's words is ~0.1–0.25 µs, where scattering
//! 3 000 keys is ~2.4 µs. Only a chunk under [`WORDS_MIN`] scatters its keys
//! into the words, and only a sparse merged chunk — all its sources under
//! [`WORDS_MIN`] — bit-scans its members back out. A positional read
//! ([`MergedSet::select`]) is a rank-select in a dense merged chunk, an
//! index into a sparse one. A set occupies 12 B per chunk, 2 B per member of
//! a sparse chunk and 8 KiB per dense chunk, i.e. about
//! max(2 B × members, 8 KiB × dense chunks). A map occupies 2 B per member
//! and 8 KiB more per chunk that keeps words (at most 8 B a member).

use sbqa_types::{ProviderId, MAX_CAPABILITY_CLASSES};

/// Number of id bits indexing *within* a chunk.
const CHUNK_BITS: u32 = 16;
/// Capacity of one chunk (2^16 ids).
const CHUNK_CAPACITY: usize = 1 << CHUNK_BITS;
/// `u64` words in a chunk bitset.
const WORDS_PER_CHUNK: usize = CHUNK_CAPACITY / 64;
/// Words covered by one popcount-prefix block.
const WORDS_PER_BLOCK: usize = 64;
/// Popcount-prefix blocks per chunk.
const BLOCKS_PER_CHUNK: usize = WORDS_PER_CHUNK / WORDS_PER_BLOCK;
/// Words covered by one second-level popcount prefix (one cache line).
const WORDS_PER_GROUP: usize = 8;
/// Second-level prefixes per block.
const GROUPS_PER_BLOCK: usize = WORDS_PER_BLOCK / WORDS_PER_GROUP;
/// Second-level prefixes per chunk.
const GROUPS_PER_CHUNK: usize = WORDS_PER_CHUNK / WORDS_PER_GROUP;

/// A [`MergedSet`] chunk whose sources hold more than this many entries
/// between them is merged dense — a bitset with its popcount directory —
/// even if none of them keeps words. The constant shapes merged sets only:
/// a [`PostingsMap`] chunk is sorted keys at any size.
pub const ARRAY_MAX: usize = 4096;
/// A chunk that reaches this many entries also keeps its bitset words, and
/// keeps them until it empties: one member per word on average, so the
/// words cost at most 8 B a member (4× the keys) and a merge reads them
/// instead of scattering the keys.
pub const WORDS_MIN: usize = 1024;

/// The chunk key (high bits) of a provider id.
fn chunk_key(id: ProviderId) -> u64 {
    id.raw() >> CHUNK_BITS
}

/// The within-chunk key (low 16 bits) of a provider id.
fn low_bits(id: ProviderId) -> u16 {
    (id.raw() & (CHUNK_CAPACITY as u64 - 1)) as u16
}

/// The id with chunk key `key` and within-chunk key `low`.
fn id_of(key: u64, low: u16) -> ProviderId {
    ProviderId::new(key << CHUNK_BITS | u64::from(low))
}

/// Selects the index of the `rank`-th (0-based) set bit of `word`.
/// `rank` must be less than `word.count_ones()`.
fn select_in_word(mut word: u64, mut rank: u32) -> u32 {
    loop {
        debug_assert!(word != 0, "rank exceeds popcount");
        if rank == 0 {
            return word.trailing_zeros();
        }
        word &= word - 1;
        rank -= 1;
    }
}

/// A 2^16-bit membership set with a two-level popcount directory, so the
/// `rank`-th member is found by narrowing to one 64-word block, then to one
/// 8-word group (a cache line of words) inside it. Backs a dense
/// [`MergedSet`] chunk.
#[derive(Debug, Clone)]
struct Bitset {
    /// `WORDS_PER_CHUNK` words; bit `low % 64` of word `low / 64` is `low`.
    words: Box<[u64]>,
    /// `blocks[b]` = number of set bits in words `0 .. b * WORDS_PER_BLOCK`.
    blocks: [u32; BLOCKS_PER_CHUNK],
    /// `groups[g]` = number of set bits between the start of group `g`'s
    /// block and the start of the group: at most 56 words' worth (3 584), so
    /// a `u16` holds it even in a full chunk.
    groups: [u16; GROUPS_PER_CHUNK],
    /// Cached popcount of the whole set.
    len: u32,
}

impl Bitset {
    fn empty() -> Self {
        Self {
            words: words_of(&[]),
            blocks: [0; BLOCKS_PER_CHUNK],
            groups: [0; GROUPS_PER_CHUNK],
            len: 0,
        }
    }

    /// Recomputes the directory and `len` after `words` was written
    /// wholesale.
    fn recount(&mut self) {
        let mut total = 0;
        let blocks = self.words.chunks_exact(WORDS_PER_BLOCK);
        let directory = self.groups.chunks_exact_mut(GROUPS_PER_BLOCK);
        for ((block, groups), words) in self.blocks.iter_mut().zip(directory).zip(blocks) {
            *block = total;
            for (group, words) in groups.iter_mut().zip(words.chunks_exact(WORDS_PER_GROUP)) {
                *group = (total - *block) as u16;
                total += words.iter().map(|word| word.count_ones()).sum::<u32>();
            }
        }
        self.len = total;
    }

    /// The `rank`-th member in ascending order. `rank` must be less than
    /// `self.len`.
    fn select(&self, rank: u32) -> u16 {
        // Narrow to the block, then to the group holding the rank via the
        // two prefix levels, then walk the group's words: at most
        // 16 + 8 + 8 steps, the last 8 within one cache line.
        let mut block = BLOCKS_PER_CHUNK - 1;
        while self.blocks[block] > rank {
            block -= 1;
        }
        let mut remaining = rank - self.blocks[block];
        let mut group = (block + 1) * GROUPS_PER_BLOCK - 1;
        while u32::from(self.groups[group]) > remaining {
            group -= 1;
        }
        remaining -= u32::from(self.groups[group]);
        for word_idx in (group * WORDS_PER_GROUP)..((group + 1) * WORDS_PER_GROUP) {
            let ones = self.words[word_idx].count_ones();
            if remaining < ones {
                let bit = select_in_word(self.words[word_idx], remaining);
                return (word_idx * 64 + bit as usize) as u16;
            }
            remaining -= ones;
        }
        unreachable!("rank {rank} exceeds bitset population {}", self.len)
    }

    /// The members in ascending order.
    fn iter(&self) -> BitIter<'_> {
        BitIter::new(&self.words)
    }
}

/// Bit-scan over a [`Bitset`]'s members in ascending order.
#[derive(Debug, Clone)]
struct BitIter<'a> {
    words: &'a [u64],
    word_idx: usize,
    /// The not-yet-yielded bits of `words[word_idx]`.
    word: u64,
}

impl<'a> BitIter<'a> {
    /// Scans `words` (at least one) from bit 0 of the first upward.
    fn new(words: &'a [u64]) -> Self {
        Self {
            words,
            word_idx: 0,
            word: words[0],
        }
    }
}

impl Iterator for BitIter<'_> {
    type Item = u16;

    fn next(&mut self) -> Option<u16> {
        while self.word == 0 {
            self.word_idx += 1;
            self.word = *self.words.get(self.word_idx)?;
        }
        let low = self.word_idx * 64 + self.word.trailing_zeros() as usize;
        self.word &= self.word - 1;
        Some(low as u16)
    }
}

/// The members of one chunk: a dense [`MergedSet`] chunk's bitset, or the
/// sorted low keys of a sparse one or of a [`PostingsMap`] chunk.
#[derive(Debug, Clone, Copy)]
enum ChunkMembers<'a> {
    Dense(&'a Bitset),
    Sparse(&'a [u16]),
}

impl<'a> ChunkMembers<'a> {
    /// The low key of the `rank`-th member in ascending key order.
    fn select(self, rank: usize) -> u16 {
        match self {
            ChunkMembers::Dense(bits) => bits.select(rank as u32),
            ChunkMembers::Sparse(lows) => lows[rank],
        }
    }

    /// The low keys in ascending order.
    fn lows(self) -> ChunkLows<'a> {
        match self {
            ChunkMembers::Dense(bits) => ChunkLows::Dense(bits.iter()),
            ChunkMembers::Sparse(lows) => ChunkLows::Sparse(lows.iter()),
        }
    }
}

/// The members of one chunk, as low keys in ascending order.
#[derive(Debug, Clone)]
enum ChunkLows<'a> {
    Sparse(std::slice::Iter<'a, u16>),
    Dense(BitIter<'a>),
}

impl Iterator for ChunkLows<'_> {
    type Item = u16;

    fn next(&mut self) -> Option<u16> {
        match self {
            ChunkLows::Sparse(lows) => lows.next().copied(),
            ChunkLows::Dense(lows) => lows.next(),
        }
    }
}

/// The `WORDS_PER_CHUNK` words of the low `keys`: one scatter.
fn words_of(keys: &[u16]) -> Box<[u64]> {
    let mut words = vec![0u64; WORDS_PER_CHUNK].into_boxed_slice();
    or_keys(&mut words, keys);
    words
}

/// One chunk of a [`PostingsMap`]: its members' sorted low keys and, once
/// the chunk has reached [`WORDS_MIN`] keys, the same members as bitset
/// words, kept in step with the keys until the chunk empties.
#[derive(Debug, Clone, PartialEq, Eq)]
struct Container {
    keys: Vec<u16>,
    words: Option<Box<[u64]>>,
}

impl Container {
    const EMPTY: Container = Container {
        keys: Vec::new(),
        words: None,
    };

    /// Inserts; returns `true` if the key was new. A key above the last is
    /// pushed without a search; a chunk reaching [`WORDS_MIN`] keys builds
    /// its words.
    fn insert(&mut self, low: u16) -> bool {
        if self.keys.last().is_none_or(|&last| last < low) {
            self.keys.push(low);
        } else {
            let Err(at) = self.keys.binary_search(&low) else {
                return false;
            };
            self.keys.insert(at, low);
        }
        match &mut self.words {
            Some(words) => words[low as usize / 64] |= 1u64 << (low % 64),
            None if self.keys.len() >= WORDS_MIN => self.words = Some(words_of(&self.keys)),
            None => {}
        }
        true
    }

    /// Removes; returns `true` if the key was present. The words stay.
    fn remove(&mut self, low: u16) -> bool {
        let Ok(at) = self.keys.binary_search(&low) else {
            return false;
        };
        self.keys.remove(at);
        if let Some(words) = &mut self.words {
            words[low as usize / 64] &= !(1u64 << (low % 64));
        }
        true
    }
}

/// A chunked postings set of provider ids, enumerated in ascending id order.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct PostingsMap {
    /// Sorted chunk keys (`id >> 16`).
    keys: Vec<u64>,
    /// `ends[i]` = entries in chunks `0..=i`, parallel to `keys`: the chunk
    /// holding a position is found in this one array, without visiting the
    /// chunks. An insert or remove moves every later entry by one.
    ends: Vec<usize>,
    /// Chunk members, parallel to `keys`.
    chunks: Vec<Container>,
    /// Membership epoch: bumped by every call that changes which ids the
    /// map holds — an [`insert`](PostingsMap::insert) of an absent id, a
    /// [`remove`](PostingsMap::remove) of a present one — and by nothing
    /// else. Cached merge results stamp the epoch of every map they read; an
    /// unchanged epoch proves the map's contribution to the merged
    /// membership is identical, so equality over the stamps is a sound (and
    /// O(#classes)) cache-validity check. The bump lives *inside* the
    /// container rather than at the call sites so no mutation path can
    /// forget it.
    generation: u64,
}

impl PostingsMap {
    /// Creates an empty map.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Total number of entries.
    #[must_use]
    pub fn len(&self) -> usize {
        self.ends.last().copied().unwrap_or(0)
    }

    /// `true` if the map holds no entry.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.ends.is_empty()
    }

    /// The map's membership epoch. Strictly increases on every membership
    /// change; two reads returning the same value bracket a window in which
    /// the map held exactly the same ids.
    #[must_use]
    pub fn generation(&self) -> u64 {
        self.generation
    }

    /// The position of chunk `chunk`'s first member.
    fn start(&self, chunk: usize) -> usize {
        chunk.checked_sub(1).map_or(0, |before| self.ends[before])
    }

    /// Inserts `id`; returns `true` if it was absent.
    pub fn insert(&mut self, id: ProviderId) -> bool {
        let key = chunk_key(id);
        let chunk = match self.keys.binary_search(&key) {
            Ok(at) => at,
            Err(at) => {
                self.keys.insert(at, key);
                self.ends.insert(at, self.start(at));
                self.chunks.insert(at, Container::EMPTY);
                at
            }
        };
        let inserted = self.chunks[chunk].insert(low_bits(id));
        if inserted {
            self.generation += 1;
            self.ends[chunk..].iter_mut().for_each(|end| *end += 1);
        }
        inserted
    }

    /// Removes `id`; returns `true` if it was present. An emptied chunk is
    /// dropped entirely.
    pub fn remove(&mut self, id: ProviderId) -> bool {
        let Ok(chunk) = self.keys.binary_search(&chunk_key(id)) else {
            return false;
        };
        if !self.chunks[chunk].remove(low_bits(id)) {
            return false;
        }
        self.generation += 1;
        self.ends[chunk..].iter_mut().for_each(|end| *end -= 1);
        if self.chunks[chunk].keys.is_empty() {
            self.keys.remove(chunk);
            self.ends.remove(chunk);
            self.chunks.remove(chunk);
        }
        true
    }

    /// `true` if `id` is a member.
    #[must_use]
    pub fn contains(&self, id: ProviderId) -> bool {
        self.keys
            .binary_search(&chunk_key(id))
            .is_ok_and(|chunk| self.chunks[chunk].keys.binary_search(&low_bits(id)).is_ok())
    }

    /// The id of the `pos`-th member in ascending id order: a search of the
    /// cumulative chunk lengths and an index into the chunk's keys.
    ///
    /// # Panics
    /// Panics if `pos >= len()`.
    #[must_use]
    pub fn select(&self, pos: usize) -> ProviderId {
        let chunk = self.ends.partition_point(|&end| end <= pos);
        let Some(container) = self.chunks.get(chunk) else {
            // sbqa-lint: allow(panic-hygiene, "out-of-bounds position mirrors the slice-indexing contract; callers pass validated cursors")
            panic!("postings position {pos} out of bounds (len {})", self.len())
        };
        id_of(self.keys[chunk], container.keys[pos - self.start(chunk)])
    }

    /// Iterates the members in ascending id order.
    #[must_use]
    pub fn iter(&self) -> IdIter<'_> {
        IdSet::Map(self).iter()
    }
}

/// Most lists one merge can read: one per capability class.
const MAX_LISTS: usize = MAX_CAPABILITY_CLASSES as usize;

/// Filler for the fixed-size source arrays of the merge walk.
static NO_CONTAINER: Container = Container::EMPTY;

/// The list indices named by a class mask, ascending.
fn class_indices(mut classes: u64) -> impl Iterator<Item = usize> {
    std::iter::from_fn(move || {
        (classes != 0).then(|| {
            let class = classes.trailing_zeros() as usize;
            classes &= classes - 1;
            class
        })
    })
}

/// Visits, in ascending key order, every chunk key held by all
/// (`conjunctive`) or any of the `classes`' lists, with the containers
/// stored under it in class order.
fn for_each_chunk<'l>(
    lists: &'l [PostingsMap],
    classes: u64,
    conjunctive: bool,
    mut visit: impl FnMut(u64, &[&'l Container]),
) {
    let wanted = classes.count_ones() as usize;
    let mut cursors = [0usize; MAX_LISTS];
    let mut sources = [&NO_CONTAINER; MAX_LISTS];
    loop {
        let mut next: Option<u64> = None;
        for (class, &cursor) in class_indices(classes).zip(&cursors) {
            match lists[class].keys.get(cursor) {
                Some(&key) if next.is_none_or(|best| key < best) => next = Some(key),
                // An exhausted list ends an intersection.
                None if conjunctive => return,
                Some(_) | None => {}
            }
        }
        let Some(key) = next else {
            return;
        };
        let mut holders = 0;
        for (class, cursor) in class_indices(classes).zip(&mut cursors) {
            let list = &lists[class];
            if list.keys.get(*cursor) == Some(&key) {
                sources[holders] = &list.chunks[*cursor];
                holders += 1;
                *cursor += 1;
            }
        }
        if !conjunctive || holders == wanted {
            visit(key, &sources[..holders]);
        }
    }
}

/// ORs the low `keys` into `words`.
fn or_keys(words: &mut [u64], keys: &[u16]) {
    for &low in keys {
        words[low as usize / 64] |= 1u64 << (low % 64);
    }
}

/// Overwrites `words` with the AND (`conjunctive`) or OR of one chunk's
/// `sources`: word-parallel over every source that has words, a scatter of
/// the keys for one that has none.
fn merge_words(words: &mut [u64], sources: &[&Container], conjunctive: bool) {
    // Folds one source's words into `words`, or copies the first.
    let fold = |words: &mut [u64], mask: &[u64], first: bool| {
        if first {
            words.copy_from_slice(mask);
        } else if conjunctive {
            words
                .iter_mut()
                .zip(mask)
                .for_each(|(word, &mask)| *word &= mask);
        } else {
            words
                .iter_mut()
                .zip(mask)
                .for_each(|(word, &mask)| *word |= mask);
        }
    };
    for (nth, source) in sources.iter().enumerate() {
        match &source.words {
            Some(mask) => fold(words, mask, nth == 0),
            None if nth == 0 => {
                words.fill(0);
                or_keys(words, &source.keys);
            }
            None if conjunctive => {
                let mut mask = [0u64; WORDS_PER_CHUNK];
                or_keys(&mut mask, &source.keys);
                fold(words, &mask, false);
            }
            None => or_keys(words, &source.keys),
        }
    }
}

/// One dense chunk of a [`MergedSet`].
#[derive(Debug, Clone)]
struct DenseChunk {
    /// Index of the chunk in the set's directory.
    chunk: u32,
    /// Members of this and of every earlier dense chunk: what a later sparse
    /// chunk subtracts from its first position to find its keys in `lows`.
    through: u32,
    bits: Bitset,
}

/// The id-sorted **membership** of an `All` (intersection) or `Any` (union)
/// merge over several [`PostingsMap`]s. It goes stale only when a source
/// list's membership changes.
///
/// Per 2^16-id chunk the members are either a bitset with its popcount
/// directory (*dense*: some source container has words, or the sources hold
/// more than [`ARRAY_MAX`] entries between them) or a run of sorted low keys
/// in one set-wide vector (*sparse*). Provider ids are arbitrary, so a set
/// may span a chunk per member; the sparse shape is what keeps such a set at
/// a few bytes a member instead of 8 KiB.
///
/// Positions enumerate ascending provider id: chunk keys ascend and, within a
/// chunk, bits or keys ascend. All buffers are kept across
/// [`merge`](MergedSet::merge) calls, so re-merging into a warmed set does
/// not allocate.
#[derive(Debug, Clone, Default)]
pub struct MergedSet {
    /// Keys of the chunks holding at least one member, ascending.
    keys: Vec<u64>,
    /// `ends[i]` = members in chunks `0..=i`, parallel to `keys`.
    ends: Vec<u32>,
    /// The dense chunks in directory order: the first `dense_len` entries are
    /// live, the rest are recycled bitsets.
    dense: Vec<DenseChunk>,
    dense_len: usize,
    /// Low keys of the sparse chunks, concatenated in directory order.
    lows: Vec<u16>,
}

impl MergedSet {
    /// Number of members.
    #[must_use]
    pub fn len(&self) -> usize {
        self.ends.last().map_or(0, |&end| end as usize)
    }

    /// `true` if the set has no member.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.ends.is_empty()
    }

    /// Replaces the set with the ids held by **all** (`conjunctive`) or
    /// **any** of `lists[i]` for every bit `i` of `classes`.
    ///
    /// Every chunk is merged word-parallel: the first source's words — a
    /// chunk under [`WORDS_MIN`] keys scatters its keys into zeroed words —
    /// with every other source ANDed / ORed in. A dense chunk keeps the words
    /// and one popcount pass fills its prefix blocks; a sparse chunk
    /// bit-scans them into low keys.
    pub fn merge(&mut self, lists: &[PostingsMap], classes: u64, conjunctive: bool) {
        self.keys.clear();
        self.ends.clear();
        self.lows.clear();
        self.dense_len = 0;
        // The directory is sized exactly, not by doubling: with a chunk per
        // member it is most of the set.
        let mut chunks = 0;
        for_each_chunk(lists, classes, conjunctive, |_, _| chunks += 1);
        self.keys.reserve_exact(chunks);
        self.ends.reserve_exact(chunks);
        for_each_chunk(lists, classes, conjunctive, |key, sources| {
            let dense = sources.iter().any(|c| c.words.is_some())
                || sources.iter().map(|c| c.keys.len()).sum::<usize>() > ARRAY_MAX;
            let members = if dense {
                self.merge_dense(sources, conjunctive)
            } else {
                self.merge_sparse(sources, conjunctive)
            };
            if members > 0 {
                self.keys.push(key);
                self.ends.push((self.len() + members) as u32);
            }
        });
    }

    /// Merges one chunk's `sources` into the next pooled bitset; returns the
    /// member count (the bitset goes live only if it is non-zero).
    fn merge_dense(&mut self, sources: &[&Container], conjunctive: bool) -> usize {
        if self.dense_len == self.dense.len() {
            self.dense.push(DenseChunk {
                chunk: 0,
                through: 0,
                bits: Bitset::empty(),
            });
        }
        let before = self.dense[..self.dense_len]
            .last()
            .map_or(0, |dense| dense.through);
        let next = &mut self.dense[self.dense_len];
        merge_words(&mut next.bits.words, sources, conjunctive);
        next.bits.recount();
        let members = next.bits.len;
        if members > 0 {
            next.chunk = self.keys.len() as u32;
            next.through = before + members;
            self.dense_len += 1;
        }
        members as usize
    }

    /// Merges one chunk's key-only `sources` onto the end of `lows`;
    /// returns the member count. The merge goes through words too: a k-way
    /// cursor merge of the keys would mispredict a branch per key.
    fn merge_sparse(&mut self, sources: &[&Container], conjunctive: bool) -> usize {
        let mut words = [0u64; WORDS_PER_CHUNK];
        merge_words(&mut words, sources, conjunctive);
        let before = self.lows.len();
        self.lows.extend(BitIter::new(&words));
        self.lows.len() - before
    }

    /// The position of directory entry `chunk`'s first member.
    fn start(&self, chunk: usize) -> usize {
        chunk.checked_sub(1).map_or(0, |at| self.ends[at] as usize)
    }

    /// The members of directory entry `chunk`.
    fn members(&self, chunk: usize) -> ChunkMembers<'_> {
        let dense = &self.dense[..self.dense_len];
        match dense.binary_search_by_key(&chunk, |d| d.chunk as usize) {
            Ok(at) => ChunkMembers::Dense(&dense[at].bits),
            Err(at) => {
                // `lows` skips the members of the dense chunks before this one.
                let skip = at.checked_sub(1).map_or(0, |at| dense[at].through as usize);
                let (start, end) = (self.start(chunk), self.ends[chunk] as usize);
                ChunkMembers::Sparse(&self.lows[start - skip..end - skip])
            }
        }
    }

    /// The id of the `pos`-th member in ascending id order.
    ///
    /// # Panics
    /// Panics if `pos >= len()`.
    #[must_use]
    pub fn select(&self, pos: usize) -> ProviderId {
        let chunk = self.ends.partition_point(|&end| end as usize <= pos);
        let low = self.members(chunk).select(pos - self.start(chunk));
        id_of(self.keys[chunk], low)
    }

    /// Iterates the members in ascending id order: a bit-scan (or key walk)
    /// per chunk, no rank-select per member.
    #[must_use]
    pub fn iter(&self) -> IdIter<'_> {
        IdSet::Merged(self).iter()
    }
}

/// A borrowed id-sorted set of providers — one postings map, or the merged
/// membership of several: what a candidate view enumerates.
#[derive(Debug, Clone, Copy)]
pub(crate) enum IdSet<'a> {
    /// The members of one map.
    Map(&'a PostingsMap),
    /// The members of a merge.
    Merged(&'a MergedSet),
}

impl<'a> IdSet<'a> {
    /// Number of members.
    pub(crate) fn len(self) -> usize {
        match self {
            IdSet::Map(map) => map.len(),
            IdSet::Merged(set) => set.len(),
        }
    }

    /// The id of the `pos`-th member in ascending id order.
    ///
    /// # Panics
    /// Panics if `pos >= len()`.
    pub(crate) fn select(self, pos: usize) -> ProviderId {
        match self {
            IdSet::Map(map) => map.select(pos),
            IdSet::Merged(set) => set.select(pos),
        }
    }

    /// Iterates the members in ascending id order.
    pub(crate) fn iter(self) -> IdIter<'a> {
        IdIter {
            set: self,
            chunk: 0,
            key: 0,
            lows: ChunkLows::Sparse([].iter()),
        }
    }

    /// The key and the members of the `chunk`-th chunk, if there is one.
    fn chunk(self, chunk: usize) -> Option<(u64, ChunkLows<'a>)> {
        let (key, members) = match self {
            IdSet::Map(map) => (
                *map.keys.get(chunk)?,
                ChunkMembers::Sparse(&map.chunks[chunk].keys),
            ),
            IdSet::Merged(set) => (*set.keys.get(chunk)?, set.members(chunk)),
        };
        Some((key, members.lows()))
    }
}

/// Sequential iterator over the members of a [`PostingsMap`] or a
/// [`MergedSet`] in ascending id order.
#[derive(Debug, Clone)]
pub struct IdIter<'a> {
    set: IdSet<'a>,
    /// The next chunk to open.
    chunk: usize,
    /// Key of the open chunk.
    key: u64,
    /// The not-yet-yielded members of the open chunk.
    lows: ChunkLows<'a>,
}

impl Iterator for IdIter<'_> {
    type Item = ProviderId;

    fn next(&mut self) -> Option<ProviderId> {
        loop {
            if let Some(low) = self.lows.next() {
                return Some(id_of(self.key, low));
            }
            (self.key, self.lows) = self.set.chunk(self.chunk)?;
            self.chunk += 1;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn id(raw: u64) -> ProviderId {
        ProviderId::new(raw)
    }

    fn build(ids: &[u64]) -> PostingsMap {
        let mut map = PostingsMap::new();
        for &raw in ids {
            map.insert(id(raw));
        }
        map
    }

    fn ids_of(map: &PostingsMap) -> Vec<u64> {
        map.iter().map(ProviderId::raw).collect()
    }

    #[test]
    fn insert_contains_remove_round_trip() {
        let mut map = PostingsMap::new();
        assert!(map.is_empty());
        assert!(map.insert(id(5)));
        assert!(map.insert(id(70_000)));
        assert!(!map.insert(id(5)), "already a member");
        assert_eq!(map.len(), 2);
        assert!(map.contains(id(5)));
        assert!(map.contains(id(70_000)));
        assert!(!map.contains(id(6)));
        assert!(map.remove(id(5)));
        assert!(!map.remove(id(5)));
        assert_eq!(map.len(), 1);
        assert!(!map.contains(id(5)));
    }

    #[test]
    fn generation_moves_only_when_membership_does() {
        let mut map = PostingsMap::new();
        let start = map.generation();
        map.insert(id(5));
        let inserted = map.generation();
        assert!(inserted > start);
        // A repeated insert and a remove of an absent id change nothing: a
        // bump would cost every plan over this class a needless re-merge.
        map.insert(id(5));
        map.remove(id(6));
        map.remove(id(900_000));
        assert_eq!(map.generation(), inserted);
        map.remove(id(5));
        assert!(map.generation() > inserted);
    }

    #[test]
    fn iteration_is_ascending_by_id_across_chunks() {
        // Deliberately shuffled insert order across three chunks.
        let map = build(&[200_000, 3, 65_536, 65_535, 131_071, 9]);
        let ids = ids_of(&map);
        assert_eq!(ids, vec![3, 9, 65_535, 65_536, 131_071, 200_000]);
        for (pos, &raw) in ids.iter().enumerate() {
            assert_eq!(map.select(pos), id(raw), "select({pos})");
        }
    }

    /// `true` if the chunk keeps bitset words beside its keys.
    fn has_words(map: &PostingsMap, chunk: usize) -> bool {
        map.chunks[chunk].words.is_some()
    }

    /// Where the chunk's words live, so a kept buffer can be told from a
    /// rebuilt one.
    fn words_at(map: &PostingsMap, chunk: usize) -> Option<*const u64> {
        map.chunks[chunk].words.as_ref().map(|words| words.as_ptr())
    }

    /// Holds a chunk's words to its keys, bit for bit.
    fn assert_words_match_keys(map: &PostingsMap, chunk: usize) {
        let Container {
            keys,
            words: Some(words),
        } = &map.chunks[chunk]
        else {
            panic!("chunk {chunk} keeps no words");
        };
        for low in 0..=u16::MAX {
            let bit = words[low as usize / 64] >> (low % 64) & 1 == 1;
            assert_eq!(bit, keys.binary_search(&low).is_ok(), "bit {low}");
        }
    }

    #[test]
    fn an_array_builds_its_words_at_words_min_and_keeps_them_below() {
        let mut map = build(&(0..WORDS_MIN as u64 - 1).map(|i| i * 3).collect::<Vec<_>>());
        assert!(!has_words(&map, 0));
        map.insert(id(1));
        assert!(has_words(&map, 0));
        assert_words_match_keys(&map, 0);
        let words = words_at(&map, 0);

        // Below WORDS_MIN the words stay, in step with the keys, and a
        // provider flapping on the boundary reuses them.
        for raw in 0..300u64 {
            assert!(map.remove(id(raw * 3)));
        }
        assert!(has_words(&map, 0));
        assert_words_match_keys(&map, 0);
        for _ in 0..10 {
            map.insert(id(2));
            map.remove(id(2));
        }
        assert_eq!(words_at(&map, 0), words, "the words were rebuilt");
        assert_words_match_keys(&map, 0);
        let expected: Vec<u64> = std::iter::once(1)
            .chain((300..WORDS_MIN as u64 - 1).map(|i| i * 3))
            .collect();
        assert_eq!(ids_of(&map), expected);
        for (pos, &raw) in expected.iter().enumerate() {
            assert_eq!(map.select(pos), id(raw), "select({pos})");
        }

        // Emptied, the chunk goes, words and all.
        for &raw in &expected {
            assert!(map.remove(id(raw)));
        }
        assert!(map.is_empty() && map.chunks.is_empty());
    }

    #[test]
    fn insert_order_does_not_change_the_map() {
        // A chunk of 6 000 keys (past ARRAY_MAX), one that keeps words and a
        // key-only one. Ascending inserts take the append path throughout,
        // descending ones the mid-array path throughout, interleaved ones
        // both: all three must build the same keys, words and positions.
        let ids: Vec<u64> = (0..6000u64)
            .map(|i| i * 3)
            .chain((0..1100u64).map(|i| 0x1_0000 + i * 5))
            .chain((0..500u64).map(|i| 0x2_0000 + i * 7))
            .collect();
        let descending: Vec<u64> = ids.iter().rev().copied().collect();
        let interleaved: Vec<u64> = ids
            .iter()
            .step_by(2)
            .chain(ids.iter().skip(1).step_by(2).rev())
            .copied()
            .collect();
        let ascending = build(&ids);
        assert!(has_words(&ascending, 0) && has_words(&ascending, 1));
        assert!(!has_words(&ascending, 2));
        for (order, map) in [
            ("descending", build(&descending)),
            ("interleaved", build(&interleaved)),
        ] {
            assert_eq!(map, ascending, "{order}: keys, words and lengths");
            assert_eq!(ids_of(&map), ids, "{order}: iter");
            for (pos, &raw) in ids.iter().enumerate() {
                assert_eq!(map.select(pos), id(raw), "{order}: select({pos})");
            }
        }
    }

    #[test]
    fn select_matches_iteration_in_dense_chunks() {
        // A dense low chunk (6 000 keys) plus a sparse high chunk.
        let ids: Vec<u64> = (0..6000u64)
            .map(|raw| raw * 2)
            .chain((0..10u64).map(|raw| 1_000_000 + raw))
            .collect();
        let map = build(&ids);
        assert_eq!(ids_of(&map), ids);
        for (pos, &raw) in ids.iter().enumerate() {
            assert_eq!(map.select(pos), id(raw), "select({pos})");
        }
    }

    #[test]
    #[should_panic(expected = "out of bounds")]
    fn select_out_of_bounds_panics() {
        let map = build(&[1]);
        let _ = map.select(1);
    }

    /// Brute-force reference: ids in all / any of the given sets.
    fn reference_merge(sets: &[&[u64]], all: bool) -> Vec<u64> {
        let mut ids: Vec<u64> = sets.concat();
        ids.sort_unstable();
        ids.dedup();
        ids.retain(|&raw| {
            let hits = sets.iter().filter(|set| set.contains(&raw)).count();
            if all {
                hits == sets.len()
            } else {
                hits > 0
            }
        });
        ids
    }

    /// Checks a merged set against the expected ascending ids: length,
    /// every positional read and the streamed members.
    fn assert_members(set: &MergedSet, expected: &[u64], what: &str) {
        assert_eq!(set.len(), expected.len(), "{what}: len");
        assert_eq!(set.is_empty(), expected.is_empty(), "{what}: is_empty");
        for (pos, &raw) in expected.iter().enumerate() {
            assert_eq!(set.select(pos), id(raw), "{what}: select({pos})");
        }
        let streamed: Vec<u64> = set.iter().map(ProviderId::raw).collect();
        assert_eq!(streamed, expected, "{what}: streamed members");
    }

    #[test]
    fn merges_agree_with_brute_force_across_container_shapes() {
        // Four lists spanning key-only chunks, chunks with words, a chunk
        // past ARRAY_MAX keys and chunk boundaries.
        let dense: Vec<u64> = (0..5000u64).map(|i| i * 2).collect();
        let sparse: Vec<u64> = (0..500u64).map(|i| i * 20).collect();
        let high: Vec<u64> = (0..300u64).map(|i| 60_000 + i * 40).collect();
        let middling: Vec<u64> = (0..2000u64).map(|i| i * 7).collect();
        let sets = [&dense[..], &sparse, &high, &middling];
        let lists: Vec<PostingsMap> = sets.iter().map(|ids| build(ids)).collect();
        assert!(lists[0].chunks[0].keys.len() > ARRAY_MAX && has_words(&lists[0], 0));
        assert!(!has_words(&lists[1], 0));
        assert!(has_words(&lists[3], 0));
        // One set throughout: every merge recycles the previous one's buffers.
        let mut set = MergedSet::default();

        for classes in (0b11u64..1 << sets.len()).filter(|c| c.count_ones() >= 2) {
            let mentioned: Vec<&[u64]> = class_indices(classes).map(|c| sets[c]).collect();
            set.merge(&lists, classes, true);
            let expected = reference_merge(&mentioned, true);
            assert_members(&set, &expected, &format!("All over {classes:#b}"));
            set.merge(&lists, classes, false);
            let expected = reference_merge(&mentioned, false);
            assert_members(&set, &expected, &format!("Any over {classes:#b}"));
        }
    }

    #[test]
    fn key_only_sources_merge_sparse_and_sources_with_words_dense() {
        // Five lists over three chunks, so one set holds both shapes
        // and positions cross from one into the other:
        // * chunk 0 — 600 + 600 keys in lists 0 and 1, key-only: sparse;
        // * chunk 1 — 1 500 keys (with words) + 500 in lists 0 and 1: dense,
        //   though the sources hold fewer than ARRAY_MAX between them;
        // * chunk 2 — 1 000 key-only keys in every list: sparse between two,
        //   dense between five (more than ARRAY_MAX between them).
        let low_chunks = |stride: u64, in_chunk1: u64| {
            (0..600u64)
                .map(move |i| i * stride)
                .chain((0..in_chunk1).map(move |i| 0x1_0000 + i * stride))
        };
        let chunk2 = |step: u64| (0..1000u64).map(move |i| 0x2_0000 + i * step);
        let mut lists_ids: Vec<Vec<u64>> = vec![
            low_chunks(3, 1500).chain(chunk2(1)).collect(),
            low_chunks(5, 500).chain(chunk2(2)).collect(),
        ];
        lists_ids.extend((3..=5).map(|step| chunk2(step).collect()));
        let lists: Vec<PostingsMap> = lists_ids.iter().map(|ids| build(ids)).collect();
        assert!(!has_words(&lists[0], 0));
        assert!(has_words(&lists[0], 1));
        assert!(!has_words(&lists[1], 1));
        assert!(lists
            .iter()
            .all(|list| !has_words(list, list.chunks.len() - 1)));
        let mut set = MergedSet::default();
        for (classes, conjunctive, dense, sparse) in [
            (0b11, true, 1, true),
            (0b11, false, 1, true),
            (0b11111, false, 2, true),
            (0b11111, true, 1, false),
        ] {
            set.merge(&lists, classes, conjunctive);
            let what = format!("{classes:#b}, conjunctive {conjunctive}");
            assert_eq!(set.dense_len, dense, "{what}: dense chunks");
            assert_eq!(!set.lows.is_empty(), sparse, "{what}: sparse members");
            let mentioned: Vec<&[u64]> =
                class_indices(classes).map(|c| &lists_ids[c][..]).collect();
            assert_members(&set, &reference_merge(&mentioned, conjunctive), &what);
        }
    }

    #[test]
    fn disjoint_chunks_concatenate_in_order_and_intersect_to_nothing() {
        let lists = vec![build(&[1, 2, 3]), build(&[100_000, 100_001])];
        let mut set = MergedSet::default();
        set.merge(&lists, 0b11, false);
        assert_members(&set, &[1, 2, 3, 100_000, 100_001], "Any");
        set.merge(&lists, 0b11, true);
        assert_members(&set, &[], "All");
    }

    #[test]
    fn a_set_over_one_chunk_per_member_stays_a_few_bytes_a_member() {
        // Provider ids are arbitrary: 5 000 of them 2^16 apart put every
        // member in a chunk of its own. A bitset per chunk would cost 8 KiB
        // a member; the sparse shape must keep the whole set under 16 B.
        let ids = |stride: u64| -> Vec<u64> {
            (0..5000u64)
                .filter(|i| i % stride != 1)
                .map(|i| i << 16)
                .collect()
        };
        let (a, b, c) = (ids(2), ids(3), ids(5));
        let lists = vec![build(&a), build(&b), build(&c)];
        let mut set = MergedSet::default();
        set.merge(&lists, 0b111, false);
        let expected = reference_merge(&[&a, &b, &c], false);
        assert_members(&set, &expected, "sparse ids");
        let heap_bytes = set.keys.capacity() * 8
            + set.ends.capacity() * 4
            + set.lows.capacity() * 2
            + set.dense.capacity() * (std::mem::size_of::<DenseChunk>() + WORDS_PER_CHUNK * 8);
        assert!(
            heap_bytes <= 16 * set.len(),
            "{heap_bytes} B for {} members",
            set.len()
        );
    }
}
