//! Embedding-vector indices, queries ids, and small sorted index sets.
//!
//! The paper identifies each embedding vector by an *index* (Fig. 1). A
//! *query* is a set of indices whose vectors are gathered and reduced into
//! one output. Headers flowing through the tree carry sets of indices, so
//! the dominant operations are subset tests, unions and differences on
//! small sets — implemented here as sorted `Vec`s, which is also what the
//! hardware's iterative compare units effectively do.

/// Global identifier of one embedding vector.
///
/// Following Fig. 4b/Fig. 6 of the paper, an index addresses a vector across
/// all embedding tables (table number and in-table offset are packed by the
/// workload layer).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct VectorIndex(pub u32);

impl VectorIndex {
    /// Packs a table number and an in-table row into one index, matching the
    /// paper's running example where index "50" means row 5 of table 0.
    #[must_use]
    pub fn from_table_row(table: u32, row: u32, rows_per_table: u32) -> Self {
        Self(table * rows_per_table + row)
    }

    /// The raw index value.
    #[must_use]
    pub fn value(self) -> u32 {
        self.0
    }
}

impl From<u32> for VectorIndex {
    fn from(value: u32) -> Self {
        Self(value)
    }
}

impl std::fmt::Display for VectorIndex {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "v{}", self.0)
    }
}

/// Identifier of a query within a batch.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct QueryId(pub u32);

impl std::fmt::Display for QueryId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "q{}", self.0)
    }
}

/// Indices a set can hold without a heap allocation.
///
/// Sized for the paper's workloads: a query holds at most ~16 indices, so
/// header traffic through the tree — indices sets, remaining sets, and
/// their unions and differences — never allocates.
const INLINE_CAP: usize = 16;

/// Storage of an [`IndexSet`]: a fixed in-struct buffer for the common small
/// sets, a heap vector beyond [`INLINE_CAP`]. Both variants keep the
/// elements sorted and duplicate-free; equality and hashing are on the
/// logical contents, never the representation.
#[derive(Clone)]
enum Repr {
    Inline { len: u8, buf: [VectorIndex; INLINE_CAP] },
    Heap(Vec<VectorIndex>),
}

/// Accumulates ascending, duplicate-free pushes into an inline buffer,
/// spilling to the heap only past [`INLINE_CAP`].
struct SetBuilder {
    len: usize,
    buf: [VectorIndex; INLINE_CAP],
    spill: Vec<VectorIndex>,
}

impl SetBuilder {
    fn with_capacity(capacity: usize) -> Self {
        Self {
            len: 0,
            buf: [VectorIndex(0); INLINE_CAP],
            spill: if capacity > INLINE_CAP { Vec::with_capacity(capacity) } else { Vec::new() },
        }
    }

    fn push(&mut self, index: VectorIndex) {
        if self.spill.is_empty() && self.len < INLINE_CAP {
            self.buf[self.len] = index;
            self.len += 1;
        } else {
            if self.spill.is_empty() {
                self.spill.extend_from_slice(&self.buf[..self.len]);
            }
            self.spill.push(index);
        }
    }

    fn finish(self) -> IndexSet {
        if self.spill.is_empty() {
            IndexSet(Repr::Inline { len: self.len as u8, buf: self.buf })
        } else {
            IndexSet(Repr::Heap(self.spill))
        }
    }
}

/// A sorted, duplicate-free set of [`VectorIndex`] values.
///
/// Headers are small (a query holds at most ~16 indices), so a sorted
/// sequence beats hash sets and mirrors the fixed-width bit fields of the
/// hardware. Sets of up to `INLINE_CAP` (16) indices are stored inline — no
/// heap allocation — which covers the overwhelming majority of headers the
/// tree moves; larger sets spill to a heap vector transparently. Two sets
/// with the same contents are equal and hash identically regardless of
/// which representation they use.
///
/// # Examples
///
/// ```
/// use fafnir_core::indexset;
///
/// let query = indexset![5, 1, 2];
/// let reduced = indexset![1, 2];
/// assert!(reduced.is_subset_of(&query));
/// assert_eq!(query.difference(&reduced), indexset![5]);
/// ```
#[derive(Clone)]
pub struct IndexSet(Repr);

impl IndexSet {
    /// The empty set.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// A singleton set.
    #[must_use]
    pub fn singleton(index: VectorIndex) -> Self {
        let mut buf = [VectorIndex(0); INLINE_CAP];
        buf[0] = index;
        Self(Repr::Inline { len: 1, buf })
    }

    /// Wraps an already-sorted, duplicate-free vector, inlining small ones.
    fn from_sorted_vec(items: Vec<VectorIndex>) -> Self {
        if items.len() <= INLINE_CAP {
            let mut buf = [VectorIndex(0); INLINE_CAP];
            buf[..items.len()].copy_from_slice(&items);
            Self(Repr::Inline { len: items.len() as u8, buf })
        } else {
            Self(Repr::Heap(items))
        }
    }

    /// Builds a set from any iterator, sorting and deduplicating.
    #[must_use]
    pub fn from_iter_dedup<I: IntoIterator<Item = VectorIndex>>(iter: I) -> Self {
        let mut buf = [VectorIndex(0); INLINE_CAP];
        let mut len = 0usize;
        let mut iter = iter.into_iter();
        for index in iter.by_ref() {
            if len == INLINE_CAP {
                // Overflowed the inline buffer: fall back to the heap path
                // for the rest (dedup below may still shrink it back).
                let mut items: Vec<VectorIndex> = Vec::with_capacity(2 * INLINE_CAP);
                items.extend_from_slice(&buf);
                items.push(index);
                items.extend(iter);
                items.sort_unstable();
                items.dedup();
                return Self::from_sorted_vec(items);
            }
            buf[len] = index;
            len += 1;
        }
        buf[..len].sort_unstable();
        let mut write = 0usize;
        for read in 0..len {
            if write == 0 || buf[write - 1] != buf[read] {
                buf[write] = buf[read];
                write += 1;
            }
        }
        Self(Repr::Inline { len: write as u8, buf })
    }

    /// Number of indices in the set.
    #[must_use]
    pub fn len(&self) -> usize {
        match &self.0 {
            Repr::Inline { len, .. } => *len as usize,
            Repr::Heap(items) => items.len(),
        }
    }

    /// True when the set has no elements.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Membership test (binary search).
    #[must_use]
    pub fn contains(&self, index: VectorIndex) -> bool {
        self.as_slice().binary_search(&index).is_ok()
    }

    /// True when every element of `self` is in `other`.
    ///
    /// This is the hardware's header comparison: "B\[x\].queries\[j\]
    /// contains all elements of A\[i\].indices" (Sec. IV-B).
    #[must_use]
    pub fn is_subset_of(&self, other: &IndexSet) -> bool {
        self.iter().all(|index| other.contains(index))
    }

    /// True when the sets share no element.
    #[must_use]
    pub fn is_disjoint_from(&self, other: &IndexSet) -> bool {
        // Merge-walk over the two sorted sequences.
        let (a, b) = (self.as_slice(), other.as_slice());
        let (mut i, mut j) = (0, 0);
        while i < a.len() && j < b.len() {
            match a[i].cmp(&b[j]) {
                std::cmp::Ordering::Less => i += 1,
                std::cmp::Ordering::Greater => j += 1,
                std::cmp::Ordering::Equal => return false,
            }
        }
        true
    }

    /// Set union (merge-walk; stays inline when the result fits).
    #[must_use]
    pub fn union(&self, other: &IndexSet) -> IndexSet {
        let (a, b) = (self.as_slice(), other.as_slice());
        let mut out = SetBuilder::with_capacity(a.len() + b.len());
        let (mut i, mut j) = (0, 0);
        while i < a.len() && j < b.len() {
            match a[i].cmp(&b[j]) {
                std::cmp::Ordering::Less => {
                    out.push(a[i]);
                    i += 1;
                }
                std::cmp::Ordering::Greater => {
                    out.push(b[j]);
                    j += 1;
                }
                std::cmp::Ordering::Equal => {
                    out.push(a[i]);
                    i += 1;
                    j += 1;
                }
            }
        }
        for &index in &a[i..] {
            out.push(index);
        }
        for &index in &b[j..] {
            out.push(index);
        }
        out.finish()
    }

    /// Set difference `self \ other` (merge-walk; stays inline when the
    /// result fits).
    #[must_use]
    pub fn difference(&self, other: &IndexSet) -> IndexSet {
        let mut out = SetBuilder::with_capacity(self.len());
        for index in self.iter() {
            if !other.contains(index) {
                out.push(index);
            }
        }
        out.finish()
    }

    /// Iterates over the indices in ascending order.
    pub fn iter(&self) -> std::iter::Copied<std::slice::Iter<'_, VectorIndex>> {
        self.as_slice().iter().copied()
    }

    /// Borrow the sorted contents.
    #[must_use]
    pub fn as_slice(&self) -> &[VectorIndex] {
        match &self.0 {
            Repr::Inline { len, buf } => &buf[..*len as usize],
            Repr::Heap(items) => items,
        }
    }
}

impl Default for IndexSet {
    fn default() -> Self {
        Self(Repr::Inline { len: 0, buf: [VectorIndex(0); INLINE_CAP] })
    }
}

// Equality, hashing and debug formatting are all on the logical contents:
// an inline set and a heap set holding the same indices are the same set.
impl PartialEq for IndexSet {
    fn eq(&self, other: &Self) -> bool {
        self.as_slice() == other.as_slice()
    }
}

impl Eq for IndexSet {}

impl std::hash::Hash for IndexSet {
    fn hash<H: std::hash::Hasher>(&self, state: &mut H) {
        self.as_slice().hash(state);
    }
}

impl std::fmt::Debug for IndexSet {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_tuple("IndexSet").field(&self.as_slice()).finish()
    }
}

impl FromIterator<VectorIndex> for IndexSet {
    fn from_iter<I: IntoIterator<Item = VectorIndex>>(iter: I) -> Self {
        Self::from_iter_dedup(iter)
    }
}

impl<'a> IntoIterator for &'a IndexSet {
    type Item = VectorIndex;
    type IntoIter = std::iter::Copied<std::slice::Iter<'a, VectorIndex>>;

    fn into_iter(self) -> Self::IntoIter {
        self.iter()
    }
}

impl std::fmt::Display for IndexSet {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{{")?;
        for (pos, index) in self.as_slice().iter().enumerate() {
            if pos > 0 {
                write!(f, ",")?;
            }
            write!(f, "{}", index.0)?;
        }
        write!(f, "}}")
    }
}

/// Convenience constructor used pervasively in tests:
/// `indexset![1, 2, 5]`.
#[macro_export]
macro_rules! indexset {
    ($($value:expr),* $(,)?) => {
        $crate::index::IndexSet::from_iter_dedup(
            [$($crate::index::VectorIndex($value)),*]
        )
    };
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn from_table_row_matches_paper_example() {
        // Index "50" means row 5 of table 0 in Fig. 6 (decimal digits there;
        // we use a uniform rows_per_table packing).
        let index = VectorIndex::from_table_row(0, 5, 10);
        assert_eq!(index, VectorIndex(5));
        let index = VectorIndex::from_table_row(3, 2, 10);
        assert_eq!(index, VectorIndex(32));
    }

    #[test]
    fn macro_sorts_and_dedups() {
        let set = indexset![5, 1, 3, 1];
        assert_eq!(set.as_slice(), &[VectorIndex(1), VectorIndex(3), VectorIndex(5)]);
        assert_eq!(set.len(), 3);
    }

    #[test]
    fn subset_and_disjoint_relations() {
        let small = indexset![1, 2];
        let big = indexset![1, 2, 5, 6];
        let other = indexset![3, 4];
        assert!(small.is_subset_of(&big));
        assert!(!big.is_subset_of(&small));
        assert!(small.is_disjoint_from(&other));
        assert!(!small.is_disjoint_from(&big));
        assert!(IndexSet::new().is_subset_of(&small));
        assert!(IndexSet::new().is_disjoint_from(&IndexSet::new()));
    }

    #[test]
    fn union_and_difference() {
        let a = indexset![1, 2, 5];
        let b = indexset![2, 6];
        assert_eq!(a.union(&b), indexset![1, 2, 5, 6]);
        assert_eq!(a.difference(&b), indexset![1, 5]);
        assert_eq!(b.difference(&a), indexset![6]);
    }

    #[test]
    fn inline_and_heap_representations_are_interchangeable() {
        // Seventeen elements spill to the heap; dropping one brings the
        // result back inline. Logical equality and hashing must not see the
        // move.
        let big = IndexSet::from_iter_dedup((0..17).map(VectorIndex));
        assert_eq!(big.len(), 17);
        let trimmed = big.difference(&indexset![16]);
        assert_eq!(trimmed, IndexSet::from_iter_dedup((0..16).map(VectorIndex)));
        let rejoined = trimmed.union(&indexset![16]);
        assert_eq!(rejoined, big);
        use std::collections::hash_map::DefaultHasher;
        use std::hash::{Hash, Hasher};
        let hash = |set: &IndexSet| {
            let mut hasher = DefaultHasher::new();
            set.hash(&mut hasher);
            hasher.finish()
        };
        assert_eq!(hash(&rejoined), hash(&big));
    }

    #[test]
    fn small_sets_do_not_allocate() {
        // Unions and differences that fit in the inline buffer stay inline.
        let a = IndexSet::from_iter_dedup((0..8).map(VectorIndex));
        let b = IndexSet::from_iter_dedup((8..16).map(VectorIndex));
        let u = a.union(&b);
        assert!(matches!(u.0, Repr::Inline { .. }));
        assert!(matches!(a.difference(&b).0, Repr::Inline { .. }));
        // One past the inline capacity spills.
        let spilled = u.union(&indexset![100]);
        assert!(matches!(spilled.0, Repr::Heap(_)));
        assert_eq!(spilled.len(), 17);
    }

    #[test]
    fn display_is_compact() {
        assert_eq!(indexset![5, 1].to_string(), "{1,5}");
        assert_eq!(IndexSet::new().to_string(), "{}");
        assert_eq!(VectorIndex(7).to_string(), "v7");
        assert_eq!(QueryId(3).to_string(), "q3");
    }

    proptest! {
        #[test]
        fn union_is_commutative_and_contains_both(
            a in proptest::collection::vec(0u32..64, 0..12),
            b in proptest::collection::vec(0u32..64, 0..12),
        ) {
            let sa = IndexSet::from_iter_dedup(a.iter().copied().map(VectorIndex));
            let sb = IndexSet::from_iter_dedup(b.iter().copied().map(VectorIndex));
            let u = sa.union(&sb);
            prop_assert_eq!(&u, &sb.union(&sa));
            prop_assert!(sa.is_subset_of(&u));
            prop_assert!(sb.is_subset_of(&u));
        }

        #[test]
        fn difference_removes_exactly_other(
            a in proptest::collection::vec(0u32..64, 0..12),
            b in proptest::collection::vec(0u32..64, 0..12),
        ) {
            let sa = IndexSet::from_iter_dedup(a.iter().copied().map(VectorIndex));
            let sb = IndexSet::from_iter_dedup(b.iter().copied().map(VectorIndex));
            let d = sa.difference(&sb);
            prop_assert!(d.is_disjoint_from(&sb));
            prop_assert!(d.is_subset_of(&sa));
            for index in sa.iter() {
                prop_assert_eq!(d.contains(index), !sb.contains(index));
            }
        }
    }
}
