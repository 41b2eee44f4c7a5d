//! Items flowing through the reduction tree's timing models: a header plus
//! the time it became available.
//!
//! Per Sec. IV-B of the paper, data flowing from leaves to the root carries
//! a **header** with two fields:
//!
//! * `indices` — the indices whose vectors have already been reduced into
//!   this item's value, and
//! * `queries` — for every query that still needs this value, the list of
//!   that query's indices *not yet visited*.
//!
//! As an item climbs the tree, indices migrate from the `queries` field to
//! the `indices` field; at the root the remaining set is empty and the
//! `indices` field names the complete query.
//!
//! The compute units choose reduce or forward from the header alone, so an
//! [`Item`] carries no value: the accumulators are computed by the per-query
//! fold in [`crate::fastpath`], and the tree models only route headers and
//! time them.
//!
//! Inside the tree a header takes a compact, batch-local form
//! ([`RankInputs`]). One arena per run holds every query's sorted index
//! list, and a pending entry is its query's slot plus a bitmask over that
//! list marking the item's reduced indices. The form relies on the
//! **partition invariant**: each entry's reduced and remaining indices
//! partition its query. The remaining set is then the query's mask minus
//! the reduced mask, and every entry of one item describes the same reduced
//! set. The injector's items meet it by construction, and
//! [`RankInputs::from_items`] checks it on hand-built items. [`Item`]s are
//! built only for the root outputs a run returns.

use serde::{Deserialize, Serialize};

use crate::error::FafnirError;
use crate::index::{IndexSet, QueryId, VectorIndex};

/// One entry of the header's `queries` field: a query that needs this item,
/// plus the indices of that query not yet folded in.
#[derive(Debug, Clone, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct PendingQuery {
    /// The query this entry belongs to.
    pub query: QueryId,
    /// Indices of the query not yet reduced into the item.
    pub remaining: IndexSet,
}

impl PendingQuery {
    /// A pending entry for `query` with the given remaining set.
    #[must_use]
    pub fn new(query: QueryId, remaining: IndexSet) -> Self {
        Self { query, remaining }
    }

    /// True when the query is fully reduced (nothing remains).
    #[must_use]
    pub fn is_complete(&self) -> bool {
        self.remaining.is_empty()
    }
}

/// The header of an in-tree item.
#[derive(Debug, Clone, PartialEq, Eq, Hash, Default, Serialize, Deserialize)]
pub struct Header {
    /// Indices already reduced into the value.
    pub indices: IndexSet,
    /// Queries still referencing this value, with their remaining indices.
    pub queries: Vec<PendingQuery>,
}

impl Header {
    /// Header of a freshly gathered vector: one index, pending entries for
    /// each query that uses it.
    #[must_use]
    pub fn leaf(index: VectorIndex, queries: Vec<PendingQuery>) -> Self {
        Self { indices: IndexSet::singleton(index), queries }
    }

    /// Looks up the pending entry for `query`, if present.
    #[must_use]
    pub fn pending_for(&self, query: QueryId) -> Option<&PendingQuery> {
        self.queries.iter().find(|p| p.query == query)
    }

    /// Checks the structural invariant: every pending entry's remaining set
    /// is disjoint from the already-reduced indices.
    #[must_use]
    pub fn invariant_holds(&self) -> bool {
        self.queries.iter().all(|p| p.remaining.is_disjoint_from(&self.indices))
    }
}

impl std::fmt::Display for Header {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "[indices:{}|queries:", self.indices)?;
        for (pos, pending) in self.queries.iter().enumerate() {
            if pos > 0 {
                write!(f, " ")?;
            }
            write!(f, "{}→{}", pending.query, pending.remaining)?;
        }
        write!(f, "]")
    }
}

/// A header with its ready time: a root output of a tree run, or a
/// hand-built tree input (see [`RankInputs::from_items`]).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Item {
    /// Routing and reduction metadata.
    pub header: Header,
    /// Nanosecond timestamp at which this item became available (memory
    /// completion for leaves, PE output time inside the tree).
    pub ready_ns: f64,
}

impl Item {
    /// An item available at time zero.
    #[must_use]
    pub fn new(header: Header) -> Self {
        Self { header, ready_ns: 0.0 }
    }

    /// Sets the availability timestamp.
    #[must_use]
    pub fn ready_at(mut self, ns: f64) -> Self {
        self.ready_ns = ns;
        self
    }
}

/// Marks the end of a slot chain (no query slot, no partner candidate).
pub(crate) const NONE: u32 = u32::MAX;

/// Hash of one index. A reduced set's fingerprint is the wrapping sum over
/// its indices, so reducing two disjoint sets adds their fingerprints.
#[must_use]
pub(crate) fn index_hash(index: VectorIndex) -> u64 {
    // splitmix64's finalizer.
    let mut z = u64::from(index.0).wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// A query's place in the arena.
#[derive(Debug, Clone, Copy)]
struct QuerySlot {
    id: QueryId,
    /// Its sorted index list is `Arena::indices[start..start + len]`.
    start: u32,
    len: u32,
    /// Word offset of the mask with every bit of the list set.
    full: u32,
}

/// One pending entry of a compact item: the query's slot and the word
/// offset of the reduced-set mask over that query's index list.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Entry {
    pub(crate) slot: u32,
    pub(crate) mask: u32,
}

/// A compact in-tree item.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Node {
    pub(crate) ready_ns: f64,
    /// Wrapping sum of [`index_hash`] over the reduced set.
    pub(crate) fingerprint: u64,
    /// Size of the reduced set.
    pub(crate) len: u32,
    /// The pending entries are `Arena::entries[first..first + count]`.
    pub(crate) first: u32,
    pub(crate) count: u32,
}

/// Batch-local storage behind the compact items of one run.
#[derive(Debug, Clone)]
pub(crate) struct Arena {
    /// Words per mask: enough bits for the batch's longest query.
    words: usize,
    queries: Vec<QuerySlot>,
    /// Every query's sorted index list, back to back.
    indices: Vec<VectorIndex>,
    /// Masks of `words` words each, addressed by word offset.
    masks: Vec<u64>,
    /// Pending entries, each item's contiguous.
    entries: Vec<Entry>,
}

impl Arena {
    /// An empty arena for queries of at most `max_query_len` indices.
    pub(crate) fn new(max_query_len: usize) -> Self {
        Self {
            words: max_query_len.div_ceil(64).max(1),
            queries: Vec::new(),
            indices: Vec::new(),
            masks: Vec::new(),
            entries: Vec::new(),
        }
    }

    /// Adds a query over a sorted, duplicate-free index list, in the next
    /// slot.
    ///
    /// # Panics
    ///
    /// Panics if the list is longer than the arena's masks.
    pub(crate) fn push_query(&mut self, id: QueryId, list: &[VectorIndex]) {
        assert!(list.len() <= self.words * 64, "query longer than the arena's masks");
        let full = self.new_mask();
        for bit in 0..list.len() {
            self.set_bit(full, bit);
        }
        let start = self.indices.len() as u32;
        self.indices.extend_from_slice(list);
        self.queries.push(QuerySlot { id, start, len: list.len() as u32, full });
    }

    /// Number of query slots.
    pub(crate) fn query_count(&self) -> usize {
        self.queries.len()
    }

    /// Appends an all-zero mask and returns its offset.
    pub(crate) fn new_mask(&mut self) -> u32 {
        let offset = self.masks.len();
        self.masks.resize(offset + self.words, 0);
        offset as u32
    }

    /// Sets bit `bit` of the mask at `mask`.
    pub(crate) fn set_bit(&mut self, mask: u32, bit: usize) {
        self.masks[mask as usize + bit / 64] |= 1 << (bit % 64);
    }

    /// The mask at `mask`.
    pub(crate) fn mask(&self, mask: u32) -> &[u64] {
        &self.masks[mask as usize..mask as usize + self.words]
    }

    /// Appends the union of two masks and returns its offset.
    pub(crate) fn union(&mut self, x: u32, y: u32) -> u32 {
        let offset = self.masks.len();
        for word in 0..self.words {
            let joined = self.masks[x as usize + word] | self.masks[y as usize + word];
            self.masks.push(joined);
        }
        offset as u32
    }

    /// True when the two masks share no bit.
    pub(crate) fn disjoint(&self, x: u32, y: u32) -> bool {
        self.mask(x).iter().zip(self.mask(y)).all(|(x, y)| x & y == 0)
    }

    /// Appends an item's pending entries and returns the item.
    pub(crate) fn push_node(
        &mut self,
        ready_ns: f64,
        fingerprint: u64,
        len: usize,
        entries: impl IntoIterator<Item = Entry>,
    ) -> Node {
        let first = self.entries.len();
        self.entries.extend(entries);
        Node {
            ready_ns,
            fingerprint,
            len: len as u32,
            first: first as u32,
            count: (self.entries.len() - first) as u32,
        }
    }

    /// The pending entries of `node`.
    pub(crate) fn entries(&self, node: &Node) -> &[Entry] {
        &self.entries[node.first as usize..(node.first + node.count) as usize]
    }

    /// True when nothing of the entry's query remains.
    pub(crate) fn is_complete(&self, entry: Entry) -> bool {
        self.mask(entry.mask) == self.mask(self.queries[entry.slot as usize].full)
    }

    /// The indices of `slot`'s list selected by `words`, ascending.
    fn select<'a>(
        &'a self,
        slot: u32,
        words: impl Iterator<Item = u64> + 'a,
    ) -> impl Iterator<Item = VectorIndex> + 'a {
        let query = self.queries[slot as usize];
        let list = &self.indices[query.start as usize..(query.start + query.len) as usize];
        words.enumerate().flat_map(move |(word, mut bits)| {
            std::iter::from_fn(move || {
                (bits != 0).then(|| {
                    let bit = bits.trailing_zeros() as usize;
                    bits &= bits - 1;
                    list[word * 64 + bit]
                })
            })
        })
    }

    /// The entry's reduced indices, ascending.
    fn reduced(&self, entry: Entry) -> impl Iterator<Item = VectorIndex> + '_ {
        self.select(entry.slot, self.mask(entry.mask).iter().copied())
    }

    /// True when two entries hold the same reduced set, possibly over
    /// different queries.
    pub(crate) fn same_set(&self, x: Entry, y: Entry) -> bool {
        if x.slot == y.slot {
            self.mask(x.mask) == self.mask(y.mask)
        } else {
            self.reduced(x).eq(self.reduced(y))
        }
    }

    /// The header item a compact item stands for.
    pub(crate) fn item(&self, node: &Node) -> Item {
        let entries = self.entries(node);
        let indices =
            entries.first().map_or_else(IndexSet::new, |&entry| self.reduced(entry).collect());
        let queries = entries
            .iter()
            .map(|&entry| {
                let full = self.mask(self.queries[entry.slot as usize].full);
                let remaining = full.iter().zip(self.mask(entry.mask)).map(|(f, m)| f & !m);
                PendingQuery::new(
                    self.queries[entry.slot as usize].id,
                    self.select(entry.slot, remaining).collect(),
                )
            })
            .collect();
        Item { header: Header { indices, queries }, ready_ns: node.ready_ns }
    }
}

/// The leaf inputs of one hardware batch in the tree's compact form: for
/// every global rank (in the tree's rank ordering), the items it injects.
///
/// [`crate::inject::build_rank_inputs`] builds them from gathered reads;
/// [`RankInputs::from_items`] builds them from hand-built headers.
#[derive(Debug, Clone)]
pub struct RankInputs {
    pub(crate) arena: Arena,
    pub(crate) ranks: Vec<Vec<Node>>,
}

impl RankInputs {
    /// Every rank's items as headers.
    #[cfg(test)]
    pub(crate) fn to_items(&self) -> Vec<Vec<Item>> {
        self.ranks
            .iter()
            .map(|items| items.iter().map(|node| self.arena.item(node)).collect())
            .collect()
    }

    /// Converts hand-built items, `rank_items[r]` holding rank `r`'s items.
    ///
    /// # Errors
    ///
    /// Returns [`FafnirError::InvalidBatch`] unless every item carries at
    /// least one pending entry, names each query at most once, and every
    /// entry's reduced and remaining indices are disjoint and together form
    /// the same index set for each query across all items (the partition
    /// invariant of the module docs).
    pub fn from_items(rank_items: Vec<Vec<Item>>) -> Result<Self, FafnirError> {
        let invalid = |message: String| Err(FafnirError::InvalidBatch(message));
        // Each query's index list is the partition of its first entry, and
        // its slot the order of that first appearance.
        let mut lists: Vec<(QueryId, IndexSet)> = Vec::new();
        for item in rank_items.iter().flatten() {
            let header = &item.header;
            if header.queries.is_empty() {
                return invalid(format!("item {header} carries no pending query"));
            }
            for (position, pending) in header.queries.iter().enumerate() {
                if header.queries[..position].iter().any(|p| p.query == pending.query) {
                    return invalid(format!("item {header} names {} twice", pending.query));
                }
                if !pending.remaining.is_disjoint_from(&header.indices) {
                    return invalid(format!(
                        "item {header}: {}'s remaining indices overlap the reduced ones",
                        pending.query
                    ));
                }
                let query = header.indices.union(&pending.remaining);
                match lists.iter().find(|(id, _)| *id == pending.query) {
                    Some((_, list)) if *list != query => {
                        return invalid(format!(
                            "item {header} gives {} the indices {query}, another item {list}",
                            pending.query
                        ))
                    }
                    Some(_) => {}
                    None => lists.push((pending.query, query)),
                }
            }
        }
        let mut arena = Arena::new(lists.iter().map(|(_, list)| list.len()).max().unwrap_or(0));
        for (id, list) in &lists {
            arena.push_query(*id, list.as_slice());
        }
        let mut ranks = Vec::with_capacity(rank_items.len());
        for items in &rank_items {
            let mut nodes = Vec::with_capacity(items.len());
            for item in items {
                let header = &item.header;
                let mut entries = Vec::with_capacity(header.queries.len());
                for pending in &header.queries {
                    let slot = lists.iter().position(|(id, _)| *id == pending.query);
                    let slot = slot.expect("listed above");
                    let mask = arena.new_mask();
                    for index in header.indices.iter() {
                        let bit = lists[slot].1.as_slice().binary_search(&index);
                        arena.set_bit(mask, bit.expect("reduced indices lie in the query"));
                    }
                    entries.push(Entry { slot: slot as u32, mask });
                }
                let fingerprint = header
                    .indices
                    .iter()
                    .fold(0u64, |sum, index| sum.wrapping_add(index_hash(index)));
                nodes.push(arena.push_node(
                    item.ready_ns,
                    fingerprint,
                    header.indices.len(),
                    entries,
                ));
            }
            ranks.push(nodes);
        }
        Ok(Self { arena, ranks })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::index::VectorIndex;
    use crate::indexset;

    #[test]
    fn leaf_header_matches_paper_example() {
        // Unique index 11 serves query a (remaining 44,32,83,77) and query c
        // (remaining 50,44,94,26) — Fig. 6b.
        let header = Header::leaf(
            VectorIndex(11),
            vec![
                PendingQuery::new(QueryId(0), indexset![44, 32, 83, 77]),
                PendingQuery::new(QueryId(2), indexset![50, 44, 94, 26]),
            ],
        );
        assert_eq!(header.indices, indexset![11]);
        assert_eq!(header.queries.len(), 2);
        assert!(header.invariant_holds());
        assert!(header.pending_for(QueryId(2)).is_some());
        assert!(header.pending_for(QueryId(1)).is_none());
    }

    #[test]
    fn invariant_detects_overlap() {
        let bad = Header {
            indices: indexset![1, 2],
            queries: vec![PendingQuery::new(QueryId(0), indexset![2, 3])],
        };
        assert!(!bad.invariant_holds());
    }

    #[test]
    fn complete_entry_has_empty_remaining() {
        let done = PendingQuery::new(QueryId(1), IndexSet::new());
        assert!(done.is_complete());
        let pending = PendingQuery::new(QueryId(1), indexset![9]);
        assert!(!pending.is_complete());
    }

    #[test]
    fn display_mirrors_paper_notation() {
        let header = Header {
            indices: indexset![50, 11],
            queries: vec![PendingQuery::new(QueryId(2), indexset![94, 26])],
        };
        assert_eq!(header.to_string(), "[indices:{11,50}|queries:q2→{26,94}]");
    }

    #[test]
    fn item_timestamps_compose() {
        let item = Item::new(Header::default()).ready_at(12.5);
        assert_eq!(item.ready_ns, 12.5);
    }
}
