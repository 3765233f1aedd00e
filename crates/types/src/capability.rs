//! Provider capabilities and query requirements.
//!
//! The paper assumes that for every incoming query `q` the mediator knows the
//! set `Pq` of providers *able* to perform it. How that set is obtained is
//! orthogonal to the allocation process (in BOINC it is "every volunteer that
//! installed the project's application"); we model it with a small capability
//! system: each provider advertises a [`CapabilitySet`], each query carries a
//! [`CapabilityRequirement`] — conjunctive ([`CapabilityRequirement::All`])
//! or disjunctive ([`CapabilityRequirement::Any`]) over a capability set —
//! and `Pq` is the set of providers whose capability set satisfies it.
//!
//! Capability classes are small integers, so membership checks are a bitmask
//! test and sets are `Copy`.

use std::fmt;

/// Maximum number of distinct capability classes supported by the bitmask
/// representation.
pub const MAX_CAPABILITY_CLASSES: u8 = 64;

/// A single capability class (e.g. "can run SETI@home work units",
/// "sells books", "answers SQL range queries").
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Capability(u8);

impl Capability {
    /// Creates a capability class.
    ///
    /// # Panics
    /// Panics if `class` is `>= MAX_CAPABILITY_CLASSES`; capability classes
    /// are created at configuration time, so a panic is the appropriate
    /// failure mode for a mis-configured experiment.
    #[must_use]
    pub fn new(class: u8) -> Self {
        assert!(
            class < MAX_CAPABILITY_CLASSES,
            "capability class {class} exceeds the supported maximum of {MAX_CAPABILITY_CLASSES}"
        );
        Self(class)
    }

    /// The class index.
    #[must_use]
    pub const fn class(self) -> u8 {
        self.0
    }

    fn bit(self) -> u64 {
        1u64 << self.0
    }
}

impl fmt::Display for Capability {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "cap{}", self.0)
    }
}

/// A set of capability classes, stored as a 64-bit mask.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub struct CapabilitySet(u64);

impl CapabilitySet {
    /// The empty set.
    pub const EMPTY: CapabilitySet = CapabilitySet(0);

    /// The set containing every supported capability class.
    pub const ALL: CapabilitySet = CapabilitySet(u64::MAX);

    /// Creates an empty capability set.
    #[must_use]
    pub const fn new() -> Self {
        Self::EMPTY
    }

    /// Creates a set from an iterator of capabilities.
    #[must_use]
    pub fn from_capabilities<I: IntoIterator<Item = Capability>>(caps: I) -> Self {
        let mut set = Self::EMPTY;
        for cap in caps {
            set.insert(cap);
        }
        set
    }

    /// Creates a singleton set.
    #[must_use]
    pub fn singleton(cap: Capability) -> Self {
        let mut set = Self::EMPTY;
        set.insert(cap);
        set
    }

    /// Adds a capability to the set.
    pub fn insert(&mut self, cap: Capability) {
        self.0 |= cap.bit();
    }

    /// Removes a capability from the set.
    pub fn remove(&mut self, cap: Capability) {
        self.0 &= !cap.bit();
    }

    /// Returns `true` if the set contains `cap`.
    #[must_use]
    pub const fn contains(self, cap: Capability) -> bool {
        self.0 & (1u64 << cap.0) != 0
    }

    /// Returns `true` if the set contains every capability of `other`.
    #[must_use]
    pub const fn is_superset_of(self, other: CapabilitySet) -> bool {
        self.0 & other.0 == other.0
    }

    /// Returns `true` if the set is empty.
    #[must_use]
    pub const fn is_empty(self) -> bool {
        self.0 == 0
    }

    /// Number of capabilities in the set.
    #[must_use]
    pub const fn len(self) -> usize {
        self.0.count_ones() as usize
    }

    /// Union of two sets.
    #[must_use]
    pub const fn union(self, other: CapabilitySet) -> CapabilitySet {
        CapabilitySet(self.0 | other.0)
    }

    /// Intersection of two sets.
    #[must_use]
    pub const fn intersection(self, other: CapabilitySet) -> CapabilitySet {
        CapabilitySet(self.0 & other.0)
    }

    /// The raw 64-bit mask (bit `i` set ⇔ class `i` is in the set). Useful
    /// as a compact map key when counting providers per capability profile.
    #[must_use]
    pub const fn bits(self) -> u64 {
        self.0
    }

    /// Rebuilds a set from a raw mask produced by [`CapabilitySet::bits`].
    #[must_use]
    pub const fn from_bits(bits: u64) -> Self {
        Self(bits)
    }

    /// Iterates over the capabilities in ascending class order: one step per
    /// member, lowest set bit first.
    pub fn iter(self) -> impl Iterator<Item = Capability> {
        let mut bits = self.0;
        std::iter::from_fn(move || {
            (bits != 0).then(|| {
                let class = bits.trailing_zeros() as u8;
                bits &= bits - 1;
                Capability(class)
            })
        })
    }
}

impl FromIterator<Capability> for CapabilitySet {
    fn from_iter<T: IntoIterator<Item = Capability>>(iter: T) -> Self {
        Self::from_capabilities(iter)
    }
}

impl fmt::Display for CapabilitySet {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{{")?;
        let mut first = true;
        for cap in self.iter() {
            if !first {
                write!(f, ", ")?;
            }
            write!(f, "{cap}")?;
            first = false;
        }
        write!(f, "}}")
    }
}

/// What a query demands from a provider's advertised [`CapabilitySet`].
///
/// The single-capability queries of the original model are the trivial
/// one-bit case ([`CapabilityRequirement::single`]); multi-capability queries
/// either require every listed class (`All`, conjunctive — "can run the
/// application *and* has the dataset") or at least one of them (`Any`,
/// disjunctive — "speaks one of these protocols").
///
/// Degenerate empty sets follow the usual quantifier semantics: `All` over
/// the empty set is satisfied by every provider, `Any` over the empty set by
/// none.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum CapabilityRequirement {
    /// The provider must advertise every capability in the set.
    All(CapabilitySet),
    /// The provider must advertise at least one capability in the set.
    Any(CapabilitySet),
}

impl CapabilityRequirement {
    /// The requirement equivalent to the original single-capability model.
    #[must_use]
    pub fn single(cap: Capability) -> Self {
        CapabilityRequirement::All(CapabilitySet::singleton(cap))
    }

    /// The capability classes the requirement mentions.
    #[must_use]
    pub const fn classes(self) -> CapabilitySet {
        match self {
            CapabilityRequirement::All(set) | CapabilityRequirement::Any(set) => set,
        }
    }

    /// `true` if a provider advertising `caps` satisfies the requirement.
    #[must_use]
    pub const fn matched_by(self, caps: CapabilitySet) -> bool {
        match self {
            CapabilityRequirement::All(set) => caps.is_superset_of(set),
            CapabilityRequirement::Any(set) => !caps.intersection(set).is_empty(),
        }
    }

    /// The single required capability, when the requirement is the trivial
    /// one-bit case (`All` and `Any` coincide on singletons).
    #[must_use]
    pub fn as_single(self) -> Option<Capability> {
        let set = self.classes();
        if set.len() == 1 {
            set.iter().next()
        } else {
            None
        }
    }

    /// `true` for conjunctive (`All`) semantics.
    #[must_use]
    pub const fn is_conjunctive(self) -> bool {
        matches!(self, CapabilityRequirement::All(_))
    }
}

impl From<Capability> for CapabilityRequirement {
    fn from(cap: Capability) -> Self {
        Self::single(cap)
    }
}

impl fmt::Display for CapabilityRequirement {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CapabilityRequirement::All(set) => write!(f, "all{set}"),
            CapabilityRequirement::Any(set) => write!(f, "any{set}"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn insert_contains_remove() {
        let mut set = CapabilitySet::new();
        let a = Capability::new(3);
        let b = Capability::new(17);
        assert!(set.is_empty());
        set.insert(a);
        set.insert(b);
        assert!(set.contains(a));
        assert!(set.contains(b));
        assert!(!set.contains(Capability::new(5)));
        assert_eq!(set.len(), 2);
        set.remove(a);
        assert!(!set.contains(a));
        assert_eq!(set.len(), 1);
    }

    #[test]
    #[should_panic(expected = "exceeds the supported maximum")]
    fn capability_class_out_of_range_panics() {
        let _ = Capability::new(64);
    }

    #[test]
    fn superset_union_intersection() {
        let a = CapabilitySet::from_capabilities([Capability::new(0), Capability::new(1)]);
        let b = CapabilitySet::singleton(Capability::new(1));
        assert!(a.is_superset_of(b));
        assert!(!b.is_superset_of(a));
        assert_eq!(a.union(b), a);
        assert_eq!(a.intersection(b), b);
        assert!(CapabilitySet::ALL.is_superset_of(a));
        assert!(a.is_superset_of(CapabilitySet::EMPTY));
    }

    #[test]
    fn iteration_is_sorted_and_complete() {
        let set: CapabilitySet = [Capability::new(9), Capability::new(2), Capability::new(40)]
            .into_iter()
            .collect();
        let classes: Vec<u8> = set.iter().map(Capability::class).collect();
        assert_eq!(classes, vec![2, 9, 40]);
        assert_eq!(set.to_string(), "{cap2, cap9, cap40}");
    }

    #[test]
    fn requirement_matching_follows_quantifier_semantics() {
        let caps = CapabilitySet::from_capabilities([Capability::new(0), Capability::new(2)]);
        let both = CapabilitySet::from_capabilities([Capability::new(0), Capability::new(2)]);
        let mixed = CapabilitySet::from_capabilities([Capability::new(2), Capability::new(5)]);
        let disjoint = CapabilitySet::singleton(Capability::new(7));

        assert!(CapabilityRequirement::All(caps).matched_by(both));
        assert!(!CapabilityRequirement::All(caps).matched_by(mixed));
        assert!(CapabilityRequirement::Any(caps).matched_by(mixed));
        assert!(!CapabilityRequirement::Any(caps).matched_by(disjoint));

        // Empty sets: All matches everything, Any matches nothing.
        assert!(CapabilityRequirement::All(CapabilitySet::EMPTY).matched_by(disjoint));
        assert!(!CapabilityRequirement::Any(CapabilitySet::EMPTY).matched_by(disjoint));
    }

    #[test]
    fn requirement_singleton_case_is_the_original_model() {
        let cap = Capability::new(3);
        let req = CapabilityRequirement::single(cap);
        assert!(req.is_conjunctive());
        assert_eq!(req.as_single(), Some(cap));
        assert_eq!(CapabilityRequirement::from(cap), req);
        assert!(req.matched_by(CapabilitySet::singleton(cap)));
        assert!(!req.matched_by(CapabilitySet::singleton(Capability::new(4))));
        // Singletons make All and Any coincide.
        let any = CapabilityRequirement::Any(CapabilitySet::singleton(cap));
        assert_eq!(any.as_single(), Some(cap));
        for caps in [CapabilitySet::EMPTY, CapabilitySet::ALL] {
            assert_eq!(req.matched_by(caps), any.matched_by(caps));
        }
        // Multi-class requirements are not singletons.
        let multi = CapabilityRequirement::All(CapabilitySet::from_capabilities([
            Capability::new(0),
            Capability::new(1),
        ]));
        assert_eq!(multi.as_single(), None);
        assert_eq!(multi.to_string(), "all{cap0, cap1}");
        assert_eq!(
            CapabilityRequirement::Any(multi.classes()).to_string(),
            "any{cap0, cap1}"
        );
    }

    #[test]
    fn bits_round_trip() {
        let set = CapabilitySet::from_capabilities([Capability::new(1), Capability::new(63)]);
        assert_eq!(CapabilitySet::from_bits(set.bits()), set);
    }

    proptest! {
        #[test]
        fn prop_requirement_matches_bruteforce(
            req_classes in proptest::collection::vec(0u8..64, 0..6),
            cap_classes in proptest::collection::vec(0u8..64, 0..10),
            conjunctive in proptest::bool::ANY,
        ) {
            let set = CapabilitySet::from_capabilities(req_classes.iter().copied().map(Capability::new));
            let caps = CapabilitySet::from_capabilities(cap_classes.iter().copied().map(Capability::new));
            let req = if conjunctive {
                CapabilityRequirement::All(set)
            } else {
                CapabilityRequirement::Any(set)
            };
            let expected = if conjunctive {
                set.iter().all(|c| caps.contains(c))
            } else {
                set.iter().any(|c| caps.contains(c))
            };
            prop_assert_eq!(req.matched_by(caps), expected);
        }

        #[test]
        fn prop_insert_then_contains(classes in proptest::collection::vec(0u8..64, 0..20)) {
            let caps: Vec<Capability> = classes.iter().copied().map(Capability::new).collect();
            let set = CapabilitySet::from_capabilities(caps.iter().copied());
            for cap in &caps {
                prop_assert!(set.contains(*cap));
            }
            prop_assert_eq!(set.iter().count(), set.len());
        }

        #[test]
        fn prop_union_is_superset_of_both(
            a in proptest::collection::vec(0u8..64, 0..10),
            b in proptest::collection::vec(0u8..64, 0..10),
        ) {
            let sa = CapabilitySet::from_capabilities(a.into_iter().map(Capability::new));
            let sb = CapabilitySet::from_capabilities(b.into_iter().map(Capability::new));
            let u = sa.union(sb);
            prop_assert!(u.is_superset_of(sa));
            prop_assert!(u.is_superset_of(sb));
            prop_assert!(sa.is_superset_of(sa.intersection(sb)));
        }
    }
}
