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

use std::sync::Arc;

use serde::{Deserialize, Serialize};

use crate::index::{IndexSet, QueryId};

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
    pub fn leaf(index: crate::index::VectorIndex, queries: Vec<PendingQuery>) -> Self {
        Self { indices: IndexSet::singleton(index), queries }
    }

    /// Looks up the pending entry for `query`, if present.
    #[must_use]
    pub fn pending_for(&self, query: QueryId) -> Option<&PendingQuery> {
        self.queries.iter().find(|p| p.query == query)
    }

    /// Size of the encoded header in bits, given `bits_per_index`-wide index
    /// fields. Matches the paper's sizing: a 10 B header for q = 16 and
    /// 5-bit fields (16 × 5 bits ≈ 10 B, Sec. IV-B).
    #[must_use]
    pub fn encoded_bits(&self, bits_per_index: u32) -> usize {
        let index_fields =
            self.indices.len() + self.queries.iter().map(|p| p.remaining.len()).sum::<usize>();
        index_fields * bits_per_index as usize
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

/// A header travelling through the tree, with its ready time.
///
/// The header sits behind an [`Arc`]: forwarding an item through a PE level
/// or fanning one out to several outputs shares the header instead of
/// deep-cloning its index sets, and the rare in-place edits (the merge
/// unit) copy-on-write via [`Arc::make_mut`]. Equality still compares the
/// header contents, not the pointer.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Item {
    /// Routing and reduction metadata (shared; copy-on-write when edited).
    pub header: Arc<Header>,
    /// Nanosecond timestamp at which this item became available (memory
    /// completion for leaves, PE output time inside the tree).
    pub ready_ns: f64,
}

impl Item {
    /// An item available at time zero.
    #[must_use]
    pub fn new(header: Header) -> Self {
        Self { header: Arc::new(header), ready_ns: 0.0 }
    }

    /// Sets the availability timestamp.
    #[must_use]
    pub fn ready_at(mut self, ns: f64) -> Self {
        self.ready_ns = ns;
        self
    }

    /// Number of vectors reduced into this item.
    #[must_use]
    pub fn reduced_count(&self) -> usize {
        self.header.indices.len()
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
    fn encoded_bits_match_table_sizing() {
        // A header carrying q = 16 total index fields at 5 bits each is 80
        // bits = 10 B (Sec. IV-B / Table I).
        let header = Header {
            indices: IndexSet::from_iter_dedup((0..4).map(VectorIndex)),
            queries: vec![PendingQuery::new(
                QueryId(0),
                IndexSet::from_iter_dedup((4..16).map(VectorIndex)),
            )],
        };
        assert_eq!(header.encoded_bits(5), 80);
        assert_eq!(header.encoded_bits(5).div_ceil(8), 10);
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
        assert_eq!(item.reduced_count(), 0);
    }
}
