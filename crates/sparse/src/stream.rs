//! Sorted partial-result streams and their tree reduction.
//!
//! In SpMV mode FAFNIR streams `(row, value)` pairs — indices travel *with*
//! the data, unlike embedding lookup where indices are known up front
//! (Table II of the paper). Each leaf PE multiplies a column's non-zeros by
//! its operand element, producing a row-sorted stream; the tree then merges
//! streams pairwise, summing entries with equal row indices. This module is
//! that dataflow, with operation counting for the timing model.
//!
//! One routine performs every PE firing: [`merge_two`], [`merge_tree`] and
//! the engine's rounds ([`crate::fafnir_spmv`]) all merge through it. A
//! tree runs level by level over two flat buffers, each holding a level's
//! streams end to end plus their end offsets; positions `2k` and `2k + 1`
//! pair and an odd last stream passes up unmerged. The buffers are reused
//! from round to round, so a reduction allocates only while its levels
//! outgrow every earlier round's, not once per PE firing. The same flat
//! layout holds a [`crate::LilMatrix`]'s columns, one stream per column.

use std::ops::Range;

/// A row-sorted stream of partial results.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct PartialStream {
    entries: Vec<(usize, f64)>,
}

impl PartialStream {
    /// An empty stream.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Builds from entries that must already be sorted by row, duplicates
    /// allowed (they are combined).
    ///
    /// # Panics
    ///
    /// Debug-panics if the entries are not sorted.
    #[must_use]
    pub fn from_sorted(entries: Vec<(usize, f64)>) -> Self {
        debug_assert!(entries.windows(2).all(|w| w[0].0 <= w[1].0), "entries must be row-sorted");
        let mut stream = Self::new();
        for (row, value) in entries {
            stream.push(row, value);
        }
        stream
    }

    /// Appends an entry, combining with the tail if the row matches.
    ///
    /// # Panics
    ///
    /// Debug-panics if `row` is smaller than the current tail row.
    pub fn push(&mut self, row: usize, value: f64) {
        match self.entries.last_mut() {
            Some((last, acc)) if *last == row => *acc += value,
            Some((last, _)) => {
                debug_assert!(*last < row, "push must preserve row order");
                self.entries.push((row, value));
            }
            None => self.entries.push((row, value)),
        }
    }

    /// Entry count.
    #[must_use]
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// True when the stream holds no entries.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// The sorted entries.
    #[must_use]
    pub fn entries(&self) -> &[(usize, f64)] {
        &self.entries
    }

    /// Scatters the stream into a dense vector of length `rows`.
    ///
    /// # Panics
    ///
    /// Panics if any row index is out of bounds.
    #[must_use]
    pub fn to_dense(&self, rows: usize) -> Vec<f64> {
        let mut dense = vec![0.0; rows];
        for &(row, value) in &self.entries {
            dense[row] += value;
        }
        dense
    }
}

/// Operation counters of a stream reduction.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct StreamOps {
    /// Index comparisons during merging.
    pub compares: u64,
    /// Additions of equal-row values (reduce operations).
    pub adds: u64,
    /// Entries forwarded unchanged.
    pub forwards: u64,
    /// Multiplications at the leaves.
    pub multiplies: u64,
}

impl StreamOps {
    /// Adds another counter block into this one.
    pub fn merge(&mut self, other: &StreamOps) {
        self.compares += other.compares;
        self.adds += other.adds;
        self.forwards += other.forwards;
        self.multiplies += other.multiplies;
    }
}

/// Merges two row-sorted runs onto the end of `out`, summing equal rows —
/// one PE firing in SpMV mode. Every merge in the crate goes through here.
fn merge_into(
    a: &[(usize, f64)],
    b: &[(usize, f64)],
    out: &mut Vec<(usize, f64)>,
    ops: &mut StreamOps,
) {
    out.reserve(a.len() + b.len());
    let (mut i, mut j, mut adds) = (0, 0, 0);
    while i < a.len() && j < b.len() {
        match a[i].0.cmp(&b[j].0) {
            std::cmp::Ordering::Less => {
                out.push(a[i]);
                i += 1;
            }
            std::cmp::Ordering::Greater => {
                out.push(b[j]);
                j += 1;
            }
            std::cmp::Ordering::Equal => {
                out.push((a[i].0, a[i].1 + b[j].1));
                adds += 1;
                i += 1;
                j += 1;
            }
        }
    }
    // One compare per loop step; every entry not consumed by an add is
    // forwarded, inside the loop or from the tail.
    ops.compares += (i + j - adds) as u64;
    ops.adds += adds as u64;
    ops.forwards += (a.len() + b.len() - 2 * adds) as u64;
    out.extend_from_slice(if i < a.len() { &a[i..] } else { &b[j..] });
}

/// Merges two row-sorted streams, summing equal rows — one PE firing in
/// SpMV mode.
#[must_use]
pub fn merge_two(a: &PartialStream, b: &PartialStream, ops: &mut StreamOps) -> PartialStream {
    let mut entries = Vec::new();
    merge_into(a.entries(), b.entries(), &mut entries, ops);
    PartialStream { entries }
}

/// Reduces many streams through a balanced binary tree — the FAFNIR tree in
/// SpMV mode. Returns the single combined stream.
#[must_use]
pub fn merge_tree(streams: Vec<PartialStream>, ops: &mut StreamOps) -> PartialStream {
    if streams.is_empty() {
        return PartialStream::new();
    }
    let mut out = Streams::default();
    MergeTree::default().reduce(streams.len(), |k| streams[k].entries(), &mut out, ops);
    out.into_single()
}

/// Row-sorted streams stored end to end in one buffer: `ends[k]` is one
/// past stream `k`'s last entry. One tree level, one iteration's round
/// outputs, or a [`crate::LilMatrix`]'s columns live in one of these.
#[derive(Debug, Clone, PartialEq, Default)]
pub(crate) struct Streams {
    entries: Vec<(usize, f64)>,
    ends: Vec<usize>,
}

impl Streams {
    /// One stream per column of a `rows × cols` matrix given as
    /// `(row, col, value)` triplets: a stable counting sort by column, then
    /// a stable sort of each stream by row, so equal rows keep their input
    /// order.
    ///
    /// # Panics
    ///
    /// Panics if a coordinate is out of bounds.
    pub(crate) fn by_column(rows: usize, cols: usize, triplets: &[(usize, usize, f64)]) -> Self {
        // `ends[col]` first counts the column, then holds its start and
        // advances as the column fills, ending one past it.
        let mut ends = vec![0usize; cols];
        for &(row, col, _) in triplets {
            assert!(row < rows && col < cols, "entry ({row},{col}) out of bounds");
            ends[col] += 1;
        }
        let mut start = 0;
        for end in &mut ends {
            (start, *end) = (start + *end, start);
        }
        let mut entries = vec![(0, 0.0); triplets.len()];
        for &(row, col, value) in triplets {
            entries[ends[col]] = (row, value);
            ends[col] += 1;
        }
        let mut start = 0;
        for &end in &ends {
            entries[start..end].sort_by_key(|&(row, _)| row);
            start = end;
        }
        Self { entries, ends }
    }

    /// Sums each stream's runs of equal rows in order, in place — the
    /// combining [`PartialStream::push`] does, over row-sorted streams.
    pub(crate) fn sum_equal_rows(&mut self) {
        let (mut read, mut write) = (0, 0);
        for end in &mut self.ends {
            let first = write;
            for k in read..*end {
                let (row, value) = self.entries[k];
                if write > first && self.entries[write - 1].0 == row {
                    self.entries[write - 1].1 += value;
                } else {
                    self.entries[write] = (row, value);
                    write += 1;
                }
            }
            (read, *end) = (*end, write);
        }
        self.entries.truncate(write);
    }

    /// Stream count.
    pub(crate) fn len(&self) -> usize {
        self.ends.len()
    }

    /// Entries over all streams.
    pub(crate) fn total(&self) -> usize {
        self.entries.len()
    }

    /// Entries over streams `range`.
    pub(crate) fn total_in(&self, range: Range<usize>) -> usize {
        self.start(range.end) - self.start(range.start)
    }

    /// Index of stream `k`'s first entry; `start(len())` is `total()`.
    fn start(&self, k: usize) -> usize {
        if k == 0 {
            0
        } else {
            self.ends[k - 1]
        }
    }

    /// Stream `k`'s entries.
    pub(crate) fn get(&self, k: usize) -> &[(usize, f64)] {
        &self.entries[self.start(k)..self.ends[k]]
    }

    /// Drops every stream, keeping the buffers.
    pub(crate) fn clear(&mut self) {
        self.entries.clear();
        self.ends.clear();
    }

    /// Appends one leaf stream: `list`'s entries scaled by `scale`, equal
    /// rows combined as [`PartialStream::push`] does.
    pub(crate) fn push_scaled(&mut self, list: &[(usize, f64)], scale: f64) {
        let start = self.entries.len();
        for &(row, value) in list {
            let product = value * scale;
            match self.entries[start..].last_mut() {
                Some(last) if last.0 == row => last.1 += product,
                _ => self.entries.push((row, product)),
            }
        }
        self.ends.push(self.entries.len());
    }

    /// The one stream held, as a [`PartialStream`].
    pub(crate) fn into_single(self) -> PartialStream {
        debug_assert_eq!(self.len(), 1, "exactly one stream");
        PartialStream { entries: self.entries }
    }
}

/// Merges one level's streams pairwise, positions `2k` and `2k + 1`, onto
/// the end of `dst`; an odd last stream passes up unmerged.
fn merge_level<'a>(
    count: usize,
    stream: impl Fn(usize) -> &'a [(usize, f64)],
    dst: &mut Streams,
    ops: &mut StreamOps,
) {
    for k in (0..count).step_by(2) {
        if k + 1 < count {
            merge_into(stream(k), stream(k + 1), &mut dst.entries, ops);
        } else {
            dst.entries.extend_from_slice(stream(k));
        }
        dst.ends.push(dst.entries.len());
    }
}

/// The scratch of a balanced binary merge tree: two flat level buffers,
/// reused from round to round, so a tree allocates only while its levels
/// grow past every earlier round's.
#[derive(Debug, Default)]
pub(crate) struct MergeTree {
    level: Streams,
    next: Streams,
}

impl MergeTree {
    /// Reduces `count >= 1` streams, stream `k` given by `stream(k)`, level
    /// by level to one stream appended to `out`.
    pub(crate) fn reduce<'a>(
        &mut self,
        count: usize,
        stream: impl Fn(usize) -> &'a [(usize, f64)],
        out: &mut Streams,
        ops: &mut StreamOps,
    ) {
        debug_assert!(count > 0, "a tree reduces at least one stream");
        if count <= 2 {
            merge_level(count, stream, out, ops);
            return;
        }
        self.level.clear();
        merge_level(count, stream, &mut self.level, ops);
        while self.level.len() > 2 {
            self.next.clear();
            let level = &self.level;
            merge_level(level.len(), |k| level.get(k), &mut self.next, ops);
            std::mem::swap(&mut self.level, &mut self.next);
        }
        let level = &self.level;
        merge_level(2, |k| level.get(k), out, ops);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn push_combines_equal_rows() {
        let mut stream = PartialStream::new();
        stream.push(1, 2.0);
        stream.push(1, 3.0);
        stream.push(4, 1.0);
        assert_eq!(stream.entries(), &[(1, 5.0), (4, 1.0)]);
    }

    #[test]
    fn merge_two_sums_common_rows() {
        let a = PartialStream::from_sorted(vec![(0, 1.0), (2, 2.0), (5, 3.0)]);
        let b = PartialStream::from_sorted(vec![(2, 4.0), (3, 1.0)]);
        let mut ops = StreamOps::default();
        let merged = merge_two(&a, &b, &mut ops);
        assert_eq!(merged.entries(), &[(0, 1.0), (2, 6.0), (3, 1.0), (5, 3.0)]);
        assert_eq!(ops.adds, 1);
        assert!(ops.compares >= 3);
    }

    #[test]
    fn merge_tree_handles_odd_counts_and_empties() {
        let streams = vec![
            PartialStream::from_sorted(vec![(0, 1.0)]),
            PartialStream::new(),
            PartialStream::from_sorted(vec![(0, 2.0), (1, 1.0)]),
        ];
        let mut ops = StreamOps::default();
        let merged = merge_tree(streams, &mut ops);
        assert_eq!(merged.entries(), &[(0, 3.0), (1, 1.0)]);
        assert!(merge_tree(Vec::new(), &mut ops).is_empty());
    }

    #[test]
    fn to_dense_scatters() {
        let stream = PartialStream::from_sorted(vec![(1, 2.0), (3, -1.0)]);
        assert_eq!(stream.to_dense(4), vec![0.0, 2.0, 0.0, -1.0]);
    }

    proptest! {
        #[test]
        fn tree_merge_equals_dense_sum(
            lists in proptest::collection::vec(
                proptest::collection::vec((0usize..32, -10.0f64..10.0), 0..20), 1..8)
        ) {
            // Any split into sorted streams reduces to the same dense total.
            let mut expected = vec![0.0; 32];
            let mut streams = Vec::new();
            for list in &lists {
                let mut sorted = list.clone();
                sorted.sort_by_key(|&(row, _)| row);
                for &(row, value) in &sorted {
                    expected[row] += value;
                }
                streams.push(PartialStream::from_sorted(sorted));
            }
            let mut ops = StreamOps::default();
            let merged = merge_tree(streams, &mut ops);
            let dense = merged.to_dense(32);
            for (a, b) in dense.iter().zip(&expected) {
                prop_assert!((a - b).abs() < 1e-9);
            }
        }
    }
}
