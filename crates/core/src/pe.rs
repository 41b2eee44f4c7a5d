//! The processing element (PE): compute units plus a merge unit.
//!
//! A PE takes two input streams (A and B), each a list of [`Item`]s, and for
//! every item and every pending-query entry decides to **reduce** (the
//! partner holding the rest of the query sits on the other input) or
//! **forward** (the partner is elsewhere in the tree). Reductions follow the
//! paper's header rule: if `B[x].queries[j]` contains all elements of
//! `A[i].indices`, the values are combined, the `indices` fields are
//! concatenated, and the consumed indices leave the `queries` field
//! (Sec. IV-B, Fig. 6). Comparisons run in both directions, so the raw
//! output list contains duplicates and split headers; the **merge unit**
//! removes redundant outputs and concatenates the `queries` fields of
//! outputs that carry the same value — which is what bounds a PE's output
//! count by the batch size (Table I).
//!
//! The decision reads the header alone, so the model carries no values: it
//! produces the output headers, their ready times and the op counters. The
//! values themselves are computed by [`crate::fastpath`].
//!
//! The PE works on the tree's compact items (see [`crate::item`]): each
//! pending entry is a bitmask of the item's reduced indices over its
//! query's index list. A partner's remaining set is its query minus its
//! reduced set, so the subset test of `x`'s reduced indices against `y`'s
//! remaining ones is a disjointness test of their masks, and reducing `x`
//! with `y` ORs the masks. The merge unit compares reduced sets by size and
//! fingerprint first and confirms equal ones index by index.

use crate::error::FafnirError;
use crate::item::{Arena, Entry, Item, Node, RankInputs, NONE};
use crate::timing::PeTiming;

/// Operation counters accumulated by one PE invocation.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct PeOpCounts {
    /// Header subset comparisons performed by the compute units.
    pub compares: u64,
    /// Reductions (operand pairs combined by a compute unit).
    pub reduces: u64,
    /// Forwards (items passed through for an unmatched query entry).
    pub forwards: u64,
    /// Raw outputs removed or folded by the merge unit.
    pub merges: u64,
    /// Raw outputs before merging.
    pub raw_outputs: u64,
    /// Final outputs after merging.
    pub outputs: u64,
    /// Largest input-side occupancy seen (buffer sizing, Table I).
    pub max_input_items: u64,
}

impl PeOpCounts {
    /// Adds another counter block into this one.
    pub fn merge(&mut self, other: &PeOpCounts) {
        self.compares += other.compares;
        self.reduces += other.reduces;
        self.forwards += other.forwards;
        self.merges += other.merges;
        self.raw_outputs += other.raw_outputs;
        self.outputs += other.outputs;
        self.max_input_items = self.max_input_items.max(other.max_input_items);
    }
}

/// A processing element with the paper's two-input microarchitecture.
///
/// The PE itself is stateless between invocations; FIFOs and wiring live in
/// [`crate::tree::ReductionTree`]. `process` is the combinational behaviour
/// of one firing, on headers and ready times only.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct ProcessingElement {
    /// Stage latencies.
    pub timing: PeTiming,
}

/// One compute-unit output: a single pending entry, with its reduced set's
/// size and fingerprint.
#[derive(Debug, Clone, Copy)]
struct Raw {
    ready_ns: f64,
    fingerprint: u64,
    len: u32,
    entry: Entry,
}

/// A merge-unit group: raw outputs holding one reduced set, chained from
/// the first through `PeScratch::next`.
#[derive(Debug, Clone, Copy)]
struct Group {
    fingerprint: u64,
    len: u32,
    first: u32,
    last: u32,
    ready_ns: f64,
}

/// Buffers reused by the firings of one run.
#[derive(Debug, Default)]
pub(crate) struct PeScratch {
    /// Per query slot: the first partner candidate of the indexed side.
    head: Vec<u32>,
    /// Partner candidates: position, entry, next candidate of the slot.
    partners: Vec<(u32, Entry, u32)>,
    raw: Vec<Raw>,
    groups: Vec<Group>,
    /// Next raw output of the same group.
    next: Vec<u32>,
    entries: Vec<Entry>,
}

impl PeScratch {
    /// Buffers for a batch of `queries` query slots.
    pub(crate) fn new(queries: usize) -> Self {
        Self { head: vec![NONE; queries], ..Self::default() }
    }
}

impl ProcessingElement {
    /// Processes inputs A and B, returning merged outputs and op counts.
    ///
    /// Items in the result carry `ready_ns` timestamps derived from their
    /// input items plus compare/reduce/forward/merge latencies; the caller
    /// (the tree) applies output-port serialization.
    ///
    /// # Errors
    ///
    /// Returns [`FafnirError::InvalidBatch`] when the headers break the
    /// partition invariant ([`RankInputs::from_items`]).
    pub fn process(&self, a: &[Item], b: &[Item]) -> Result<(Vec<Item>, PeOpCounts), FafnirError> {
        let RankInputs { mut arena, ranks } = RankInputs::from_items(vec![a.to_vec(), b.to_vec()])?;
        let mut scratch = PeScratch::new(arena.query_count());
        let (outputs, counts) = self.fire(&mut arena, &mut scratch, &ranks[0], &ranks[1]);
        Ok((outputs.iter().map(|node| arena.item(node)).collect(), counts))
    }

    /// [`ProcessingElement::process`] on compact items, whose entries and
    /// masks live in `arena`.
    pub(crate) fn fire(
        &self,
        arena: &mut Arena,
        scratch: &mut PeScratch,
        a: &[Node],
        b: &[Node],
    ) -> (Vec<Node>, PeOpCounts) {
        let mut counts =
            PeOpCounts { max_input_items: a.len().max(b.len()) as u64, ..PeOpCounts::default() };
        scratch.raw.clear();
        self.scan_side(arena, scratch, a, b, &mut counts);
        self.scan_side(arena, scratch, b, a, &mut counts);
        counts.raw_outputs = scratch.raw.len() as u64;
        let outputs = self.merge_unit(arena, scratch, &mut counts);
        counts.outputs = outputs.len() as u64;
        (outputs, counts)
    }

    /// One direction of the compute-unit array: each entry of each item of
    /// `from` is compared against the items of `against`, front to back.
    fn scan_side(
        &self,
        arena: &mut Arena,
        scratch: &mut PeScratch,
        from: &[Node],
        against: &[Node],
        counts: &mut PeOpCounts,
    ) {
        let PeScratch { head, partners, raw, .. } = scratch;
        // Partners without an entry for a query never match it, so each
        // query's candidates in position order decide the scan: a chain per
        // query slot, built back to front so it runs front to back.
        partners.clear();
        for (position, partner) in against.iter().enumerate().rev() {
            for &entry in arena.entries(partner) {
                let slot = entry.slot as usize;
                partners.push((position as u32, entry, head[slot]));
                head[slot] = (partners.len() - 1) as u32;
            }
        }
        let (reduce_ns, forward_ns) =
            (self.timing.reduce_latency_ns(), self.timing.forward_latency_ns());
        for item in from {
            for at in 0..item.count as usize {
                let entry = arena.entries(item)[at];
                let mut candidate = head[entry.slot as usize];
                // Paper's rule: the partner's remaining set must contain
                // everything this item has already reduced.
                while candidate != NONE
                    && !arena.disjoint(entry.mask, partners[candidate as usize].1.mask)
                {
                    candidate = partners[candidate as usize].2;
                }
                if candidate == NONE {
                    // No match: the modeled scan visits every partner.
                    counts.compares += against.len() as u64;
                    counts.forwards += 1;
                    raw.push(Raw {
                        ready_ns: item.ready_ns + forward_ns,
                        fingerprint: item.fingerprint,
                        len: item.len,
                        entry,
                    });
                } else {
                    // The modeled comparator scan walks partners
                    // front-to-back and stops here: one compare per partner
                    // up to and including the match.
                    let (position, partner_entry, _) = partners[candidate as usize];
                    let partner = &against[position as usize];
                    counts.compares += u64::from(position) + 1;
                    counts.reduces += 1;
                    raw.push(Raw {
                        ready_ns: item.ready_ns.max(partner.ready_ns) + reduce_ns,
                        fingerprint: item.fingerprint.wrapping_add(partner.fingerprint),
                        len: item.len + partner.len,
                        entry: Entry {
                            slot: entry.slot,
                            mask: arena.union(entry.mask, partner_entry.mask),
                        },
                    });
                }
            }
        }
        for &(_, entry, _) in partners.iter() {
            head[entry.slot as usize] = NONE;
        }
    }

    /// The merge unit: deduplicates identical raw outputs and concatenates
    /// the queries fields of outputs carrying the same value (same indices
    /// set). The first raw output of a group survives, and a query already
    /// in the group is not repeated.
    fn merge_unit(
        &self,
        arena: &mut Arena,
        scratch: &mut PeScratch,
        counts: &mut PeOpCounts,
    ) -> Vec<Node> {
        let PeScratch { raw, groups, next, entries, .. } = scratch;
        groups.clear();
        next.clear();
        next.resize(raw.len(), NONE);
        for (position, output) in raw.iter().enumerate() {
            let same = groups.iter_mut().find(|group| {
                group.fingerprint == output.fingerprint
                    && group.len == output.len
                    && arena.same_set(raw[group.first as usize].entry, output.entry)
            });
            match same {
                Some(group) => {
                    counts.merges += 1;
                    group.ready_ns = group.ready_ns.max(output.ready_ns);
                    next[group.last as usize] = position as u32;
                    group.last = position as u32;
                }
                None => groups.push(Group {
                    fingerprint: output.fingerprint,
                    len: output.len,
                    first: position as u32,
                    last: position as u32,
                    ready_ns: output.ready_ns,
                }),
            }
        }
        let merge_ns = self.timing.merge_cycles as f64 * self.timing.cycle_ns();
        let mut outputs = Vec::with_capacity(groups.len());
        for group in groups.iter() {
            entries.clear();
            let mut member = group.first;
            while member != NONE {
                let entry = raw[member as usize].entry;
                // One reduced set has one mask per query, so a repeated
                // query carries the same remaining set.
                if entries.iter().all(|present| present.slot != entry.slot) {
                    entries.push(entry);
                }
                member = next[member as usize];
            }
            outputs.push(arena.push_node(
                group.ready_ns + merge_ns,
                group.fingerprint,
                group.len as usize,
                entries.drain(..),
            ));
        }
        outputs
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::index::{QueryId, VectorIndex};
    use crate::indexset;
    use crate::item::{Header, PendingQuery};

    /// Builds a leaf item: one index and its pending entries.
    fn leaf(index: u32, entries: &[(u32, &[u32])]) -> Item {
        let queries = entries
            .iter()
            .map(|(q, remaining)| {
                PendingQuery::new(QueryId(*q), remaining.iter().copied().map(VectorIndex).collect())
            })
            .collect();
        Item::new(Header::leaf(VectorIndex(index), queries))
    }

    fn pe() -> ProcessingElement {
        ProcessingElement::default()
    }

    #[test]
    fn fig6_pe01_produces_three_unique_outputs() {
        // PE (0|1) of Fig. 6: A = index 50 with entries for queries b and c;
        // B = index 11 with entries for queries a and c.
        // (Query letters a..d map to ids 0..3.)
        let a = leaf(50, &[(1, &[83, 94]), (2, &[11, 94, 26])]);
        let b = leaf(11, &[(0, &[44, 32, 83, 77]), (2, &[50, 94, 26])]);
        let (out, counts) = pe().process(&[a], &[b]).unwrap();
        // Raw: forward(A,b), reduce(A,B,c), forward(B,a), reduce(B,A,c) → the
        // two reduces merge: three unique outputs (Fig. 6c).
        assert_eq!(counts.raw_outputs, 4);
        assert_eq!(counts.reduces, 2);
        assert_eq!(counts.forwards, 2);
        assert_eq!(counts.merges, 1);
        assert_eq!(out.len(), 3);
        let reduced = out
            .iter()
            .find(|item| item.header.indices == indexset![50, 11])
            .expect("reduced item present");
        assert_eq!(reduced.header.queries.len(), 1);
        assert_eq!(reduced.header.queries[0].query, QueryId(2));
        assert_eq!(reduced.header.queries[0].remaining, indexset![94, 26]);
    }

    #[test]
    fn unmatched_items_forward_with_their_entries() {
        let a = leaf(1, &[(0, &[7])]);
        let b = leaf(2, &[(1, &[9])]);
        let (out, counts) = pe().process(&[a], &[b]).unwrap();
        assert_eq!(counts.reduces, 0);
        assert_eq!(counts.forwards, 2);
        assert_eq!(out.len(), 2);
        assert!(out.iter().all(|item| item.header.queries.len() == 1));
    }

    #[test]
    fn one_sided_input_forwards_automatically() {
        // Like PE (4|15) in Fig. 6: only one input exists.
        let a = leaf(4, &[(3, &[15, 77])]);
        let (out, counts) = pe().process(&[a], &[]).unwrap();
        assert_eq!(out.len(), 1);
        assert_eq!(counts.forwards, 1);
        assert_eq!(out[0].header.indices, indexset![4]);
    }

    #[test]
    fn shared_value_serves_two_queries_with_merged_header() {
        // Index 5 is used by queries 0 and 1; its partner for both sits on
        // the other input. Both reduces produce the same indices set and the
        // merge unit folds them into one output with two query entries.
        let a = leaf(5, &[(0, &[6]), (1, &[6])]);
        let b = leaf(6, &[(0, &[5]), (1, &[5])]);
        let (out, counts) = pe().process(&[a], &[b]).unwrap();
        assert_eq!(out.len(), 1);
        assert_eq!(out[0].header.queries.len(), 2);
        assert!(out[0].header.queries.iter().all(|p| p.is_complete()));
        assert!(counts.merges >= 2);
    }

    #[test]
    fn completed_query_keeps_travelling_as_forward() {
        // An item whose query is complete (remaining empty) and a stranger on
        // the other side: it must forward, not vanish.
        let done = Item::new(Header {
            indices: indexset![1, 2],
            queries: vec![PendingQuery::new(QueryId(0), indexset![])],
        });
        let other = leaf(9, &[(1, &[10])]);
        let (out, _) = pe().process(&[done], &[other]).unwrap();
        let carried = out
            .iter()
            .find(|item| item.header.indices == indexset![1, 2])
            .expect("completed item forwarded");
        assert!(carried.header.queries[0].is_complete());
    }

    #[test]
    fn outputs_never_exceed_query_count() {
        // Table I invariant: outputs ≤ min(nm + n + m, B).
        let a: Vec<Item> = (0..4).map(|i| leaf(i, &[(i, &[i + 100])])).collect();
        let b: Vec<Item> = (0..4).map(|i| leaf(i + 100, &[(i, &[i])])).collect();
        let (out, _) = pe().process(&a, &b).unwrap();
        assert!(out.len() <= 4, "got {} outputs", out.len());
        assert!(out.iter().all(|item| item.header.queries.iter().all(PendingQuery::is_complete)));
    }

    #[test]
    fn headers_breaking_the_partition_are_rejected() {
        // Query 0 is {1, 2} on A but {1, 3} on B.
        let a = leaf(1, &[(0, &[2])]);
        let b = leaf(3, &[(0, &[1])]);
        let error = pe().process(std::slice::from_ref(&a), &[b]).unwrap_err();
        assert!(error.to_string().contains("q0"), "{error}");
        // Reduced and remaining indices overlap.
        let overlapping = Item::new(Header {
            indices: indexset![1, 2],
            queries: vec![PendingQuery::new(QueryId(0), indexset![2])],
        });
        assert!(pe().process(&[overlapping], &[]).is_err());
        // No pending query, or one query named twice.
        assert!(pe().process(&[Item::new(Header::leaf(VectorIndex(4), vec![]))], &[]).is_err());
        let twice = leaf(1, &[(0, &[2]), (0, &[2])]);
        assert!(pe().process(&[twice], &[a]).is_err());
    }

    #[test]
    fn reduce_timing_dominates_forward_timing() {
        let a = leaf(1, &[(0, &[2])]).ready_at(100.0);
        let b = leaf(2, &[(0, &[1])]).ready_at(50.0);
        let (out, _) = pe().process(&[a], &[b]).unwrap();
        let timing = PeTiming::default();
        let expected =
            100.0 + timing.reduce_latency_ns() + timing.merge_cycles as f64 * timing.cycle_ns();
        assert!((out[0].ready_ns - expected).abs() < 1e-9, "{} vs {expected}", out[0].ready_ns);
    }

    #[test]
    fn headers_keep_invariant_through_processing() {
        let a = leaf(3, &[(0, &[4, 8]), (1, &[4])]);
        let b = leaf(4, &[(0, &[3, 8]), (1, &[3])]);
        let (out, _) = pe().process(&[a], &[b]).unwrap();
        for item in &out {
            assert!(item.header.invariant_holds(), "violated: {}", item.header);
        }
    }

    #[test]
    fn outputs_respect_the_table1_bound_on_random_inputs() {
        use crate::model::buffers::BufferModel;
        use proptest::prelude::*;
        use proptest::test_runner::TestRunner;
        let mut runner = TestRunner::default();
        // Valid dataflow windows: one item per query per side, distinct
        // indices; B carries a random subset of A's queries (partners) plus
        // its own strangers.
        runner
            .run(
                &(1usize..6, 1usize..6, proptest::collection::vec(any::<bool>(), 6)),
                |(n, m, partnered)| {
                    let a: Vec<Item> =
                        (0..n).map(|i| leaf(i as u32, &[(i as u32, &[i as u32 + 16])])).collect();
                    let b: Vec<Item> = (0..m)
                        .map(|j| {
                            if partnered[j] && j < n {
                                // Partner of A's query j.
                                leaf(j as u32 + 16, &[(j as u32, &[j as u32])])
                            } else {
                                // Stranger query with no partner present.
                                leaf(j as u32 + 16, &[(j as u32 + 32, &[j as u32 + 48])])
                            }
                        })
                        .collect();
                    let (out, _) = pe().process(&a, &b).unwrap();
                    let model = BufferModel::paper(32);
                    prop_assert!(
                        out.len() <= model.max_outputs(n, m),
                        "{} > min(nm+n+m, B)",
                        out.len()
                    );
                    // With one entry per item, outputs are also bounded by
                    // the live query count.
                    prop_assert!(out.len() <= n + m);
                    Ok(())
                },
            )
            .unwrap();
    }
}
