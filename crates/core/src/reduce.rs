//! Reduction operators applied to gathered vectors.
//!
//! Recommendation systems reduce the looked-up embedding vectors with a
//! simple element-wise operation — summation, average, minimum, maximum
//! (Sec. II of the paper). All of them are associative and commutative,
//! which is what lets FAFNIR apply them *gradually* along arbitrary tree
//! paths. `Mean` is realized as a running sum with a count finalized at the
//! root, the standard trick for tree reduction.
//!
//! Two layers live here:
//!
//! * [`ReduceOperator`] — the first-class operator trait. An operator
//!   defines a per-query **accumulator** (a flat `Vec<f32>` whose width is
//!   [`ReduceOperator::acc_dim`]), how a gathered vector is **lifted** into
//!   one, an associative/commutative **combine**, and a root-side
//!   **finalize**. Because accumulators are plain `Vec<f32>`, they travel
//!   through [`crate::item::Item`], the PE merge unit and both tree timing
//!   engines without any structural change.
//! * [`ReduceOp`] — the operator *specification* that configs, CLIs and
//!   reports name. It stays a small `Copy` enum; its
//!   [`ReduceOp::operator`] adapter instantiates the trait object, so every
//!   existing config keeps working byte-for-byte.
//!
//! Beyond the paper's element-wise family, [`ArgMaxOperator`] tracks which
//!   index supplied each element-wise maximum, and [`TopKOperator`] keeps a
//!   small fixed-size heap of the best-scoring source vectors — the Top-K
//!   SpMV / sparse similarity-search use case (Parravicini et al.): rows are
//!   scored *at the leaves* so only `2k`-wide accumulators climb the tree
//!   while DRAM still pays for full rows.

use std::sync::Arc;

use crate::index::VectorIndex;

/// Adds `b` into `a` element by element.
///
/// # Panics
///
/// Panics if the slices have different lengths.
fn add_assign(a: &mut [f32], b: &[f32]) {
    assert_eq!(a.len(), b.len(), "reduction operands must have equal dimension");
    for (x, y) in a.iter_mut().zip(b) {
        *x += y;
    }
}

/// Element-wise `max` of `a` and `b` into `a` (NaN follows [`f32::max`]).
///
/// # Panics
///
/// Panics if the slices have different lengths.
fn max_assign(a: &mut [f32], b: &[f32]) {
    assert_eq!(a.len(), b.len(), "reduction operands must have equal dimension");
    for (x, y) in a.iter_mut().zip(b) {
        *x = x.max(*y);
    }
}

/// Element-wise `min` of `a` and `b` into `a` (NaN follows [`f32::min`]).
///
/// # Panics
///
/// Panics if the slices have different lengths.
fn min_assign(a: &mut [f32], b: &[f32]) {
    assert_eq!(a.len(), b.len(), "reduction operands must have equal dimension");
    for (x, y) in a.iter_mut().zip(b) {
        *x = x.min(*y);
    }
}

/// A stateful tree-reduction operator over flat `f32` accumulators.
///
/// The tree is agnostic to what an accumulator *means*: it moves them as
/// item values, combines them at PEs and finalizes them at the root. An
/// operator defines that meaning:
///
/// * [`acc_dim`](ReduceOperator::acc_dim) — accumulator width for a given
///   embedding dimension (e.g. `dim + 1` for Mean, which carries its count);
/// * [`lift`](ReduceOperator::lift) — turn one gathered vector (with its
///   table index) into a singleton accumulator at the leaf;
/// * [`combine_into`](ReduceOperator::combine_into) — associative,
///   commutative merge of two accumulators (what PEs execute);
/// * [`finalize`](ReduceOperator::finalize) — root-side conversion of the
///   accumulator into the query's output (e.g. the mean division).
///
/// Combine **must** be associative and commutative up to float rounding:
/// the tree reduces operands wherever they meet, so no order is guaranteed.
/// The law tests in this module pin that for every shipped operator.
pub trait ReduceOperator: Send + Sync + std::fmt::Debug {
    /// Display name (`sum`, `topk:4`, …), matching [`ReduceOp`]'s syntax.
    fn name(&self) -> String;

    /// Accumulator width for vectors of `dim` elements.
    fn acc_dim(&self, dim: usize) -> usize {
        dim
    }

    /// Lifts one gathered vector into a singleton accumulator.
    fn lift(&self, index: VectorIndex, value: &[f32]) -> Vec<f32> {
        let _ = index;
        value.to_vec()
    }

    /// Combines accumulator `other` into `acc`.
    ///
    /// # Panics
    ///
    /// Implementations panic if the slices have different lengths.
    fn combine_into(&self, acc: &mut [f32], other: &[f32]);

    /// Root-side finalization of a complete accumulator.
    fn finalize(&self, acc: &[f32]) -> Vec<f32> {
        acc.to_vec()
    }
}

/// Element-wise sum (the paper's default): identity lift, element add.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SumOperator;

impl ReduceOperator for SumOperator {
    fn name(&self) -> String {
        "sum".into()
    }

    fn combine_into(&self, acc: &mut [f32], other: &[f32]) {
        add_assign(acc, other);
    }
}

/// Element-wise mean. The accumulator is `[sums…, count]` (`dim + 1` wide):
/// the count rides in the last slot and sums like any other lane, so the
/// root can divide exactly once no matter how the tree merged partial sums.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct MeanOperator;

impl ReduceOperator for MeanOperator {
    fn name(&self) -> String {
        "mean".into()
    }

    fn acc_dim(&self, dim: usize) -> usize {
        dim + 1
    }

    fn lift(&self, _index: VectorIndex, value: &[f32]) -> Vec<f32> {
        let mut acc = Vec::with_capacity(value.len() + 1);
        acc.extend_from_slice(value);
        acc.push(1.0);
        acc
    }

    fn combine_into(&self, acc: &mut [f32], other: &[f32]) {
        // The counts occupy the last lane on both sides and simply add.
        add_assign(acc, other);
    }

    fn finalize(&self, acc: &[f32]) -> Vec<f32> {
        let (sums, count) = acc.split_at(acc.len() - 1);
        let count = count[0];
        if count > 0.0 {
            let scale = 1.0 / count;
            sums.iter().map(|x| x * scale).collect()
        } else {
            sums.to_vec()
        }
    }
}

/// Element-wise maximum.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct MaxOperator;

impl ReduceOperator for MaxOperator {
    fn name(&self) -> String {
        "max".into()
    }

    fn combine_into(&self, acc: &mut [f32], other: &[f32]) {
        max_assign(acc, other);
    }
}

/// Element-wise minimum.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct MinOperator;

impl ReduceOperator for MinOperator {
    fn name(&self) -> String {
        "min".into()
    }

    fn combine_into(&self, acc: &mut [f32], other: &[f32]) {
        min_assign(acc, other);
    }
}

/// Element-wise argmax: for every element, the maximum value *and* the
/// table index of the vector that supplied it.
///
/// The accumulator is `[values…, indices…]` (`2 × dim` wide), with indices
/// stored as `f32` (exact for indices below 2²⁴). Ties break toward the
/// **lower** index, making the result independent of reduction order.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ArgMaxOperator;

impl ReduceOperator for ArgMaxOperator {
    fn name(&self) -> String {
        "argmax".into()
    }

    fn acc_dim(&self, dim: usize) -> usize {
        2 * dim
    }

    fn lift(&self, index: VectorIndex, value: &[f32]) -> Vec<f32> {
        let mut acc = Vec::with_capacity(2 * value.len());
        acc.extend_from_slice(value);
        acc.extend(std::iter::repeat_n(index.value() as f32, value.len()));
        acc
    }

    fn combine_into(&self, acc: &mut [f32], other: &[f32]) {
        assert_eq!(acc.len(), other.len(), "reduction operands must have equal dimension");
        let dim = acc.len() / 2;
        let (values, indices) = acc.split_at_mut(dim);
        let (other_values, other_indices) = other.split_at(dim);
        // Four independent lanes of compare + select per iteration; the
        // select is branchless so the lanes vectorize, and lane results are
        // independent, so this is bit-identical to the scalar tail loop
        // below.
        let main = dim / 4 * 4;
        let (v_main, v_tail) = values.split_at_mut(main);
        let (i_main, i_tail) = indices.split_at_mut(main);
        let (ov_main, ov_tail) = other_values.split_at(main);
        let (oi_main, oi_tail) = other_indices.split_at(main);
        for (((v, i), ov), oi) in v_main
            .chunks_exact_mut(4)
            .zip(i_main.chunks_exact_mut(4))
            .zip(ov_main.chunks_exact(4))
            .zip(oi_main.chunks_exact(4))
        {
            for lane in 0..4 {
                let take = ov[lane] > v[lane] || (ov[lane] == v[lane] && oi[lane] < i[lane]);
                v[lane] = if take { ov[lane] } else { v[lane] };
                i[lane] = if take { oi[lane] } else { i[lane] };
            }
        }
        for (((v, i), ov), oi) in v_tail.iter_mut().zip(i_tail.iter_mut()).zip(ov_tail).zip(oi_tail)
        {
            let take = *ov > *v || (*ov == *v && *oi < *i);
            if take {
                *v = *ov;
                *i = *oi;
            }
        }
    }
}

/// Top-K scored selection: keeps the `k` best-scoring source vectors seen
/// so far, as a small fixed-size heap that merges associatively.
///
/// Each gathered vector is scored **at the leaf** ([`TopKOperator::lift`])
/// — a dot product against the scoring vector when one is set (similarity
/// search: the scoring vector is the user's query embedding), or the plain
/// element sum otherwise. Only the `2k`-wide accumulator of
/// `(score, index)` pairs climbs the tree, while the DRAM gather still pays
/// for the full rows; this is the Top-K SpMV / SpANNS serving pattern.
///
/// The accumulator holds `k` pairs sorted by descending score; equal scores
/// break toward the **lower** index, so the result is independent of
/// reduction order. Unused slots are `(f32::MIN, -1.0)`.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct TopKOperator {
    k: usize,
    scoring: Option<Vec<f32>>,
}

impl TopKOperator {
    /// A top-`k` operator scoring rows by their element sum.
    ///
    /// # Panics
    ///
    /// Panics if `k` is zero.
    #[must_use]
    pub fn new(k: usize) -> Self {
        assert!(k > 0, "top-k needs k >= 1");
        Self { k, scoring: None }
    }

    /// A top-`k` operator scoring rows by dot product with `scoring` (the
    /// similarity-search query vector).
    ///
    /// # Panics
    ///
    /// Panics if `k` is zero or `scoring` is empty.
    #[must_use]
    pub fn with_scoring(k: usize, scoring: Vec<f32>) -> Self {
        assert!(k > 0, "top-k needs k >= 1");
        assert!(!scoring.is_empty(), "scoring vector must be non-empty");
        Self { k, scoring: Some(scoring) }
    }

    /// The configured `k`.
    #[must_use]
    pub fn k(&self) -> usize {
        self.k
    }

    fn score(&self, value: &[f32]) -> f32 {
        match &self.scoring {
            Some(w) => {
                assert_eq!(w.len(), value.len(), "scoring vector dimension mismatch");
                w.iter().zip(value).map(|(a, b)| a * b).sum()
            }
            None => value.iter().sum(),
        }
    }

    /// Decodes an accumulator (or finalized output) into `(index, score)`
    /// pairs, best first, skipping unused slots.
    #[must_use]
    pub fn decode(acc: &[f32]) -> Vec<(VectorIndex, f32)> {
        acc.chunks_exact(2)
            .filter(|pair| pair[1] >= 0.0)
            .map(|pair| (VectorIndex(pair[1] as u32), pair[0]))
            .collect()
    }
}

/// Top-K pair merges up to this `k` run entirely on the stack; larger `k`
/// falls back to one heap scratch buffer per combine.
const TOPK_MERGE_STACK: usize = 32;

impl ReduceOperator for TopKOperator {
    fn name(&self) -> String {
        format!("topk:{}", self.k)
    }

    fn acc_dim(&self, _dim: usize) -> usize {
        2 * self.k
    }

    fn lift(&self, index: VectorIndex, value: &[f32]) -> Vec<f32> {
        let mut acc = [f32::MIN, -1.0].repeat(self.k);
        acc[0] = self.score(value);
        acc[1] = index.value() as f32;
        acc
    }

    fn combine_into(&self, acc: &mut [f32], other: &[f32]) {
        assert_eq!(acc.len(), other.len(), "reduction operands must have equal dimension");
        // Two-pointer merge of the two pair lists under the
        // (score desc, index asc) key, keeping the k best. Both [`lift`]
        // and this method emit accumulators with the used pairs sorted by
        // that key, so the merge is a linear walk; used slots anywhere in
        // either operand are still picked up (the pointers skip unused
        // slots), making the kept multiset a function of the union alone —
        // deterministic and associative, exactly like the sort-based
        // reference the parity tests pin this against, without its
        // per-combine allocation.
        let k = self.k;
        let mut stack = [(0.0_f32, 0.0_f32); TOPK_MERGE_STACK];
        let mut heap: Vec<(f32, f32)>;
        let merged: &mut [(f32, f32)] = if k <= TOPK_MERGE_STACK {
            &mut stack[..k]
        } else {
            heap = vec![(0.0, 0.0); k];
            &mut heap
        };
        // First used pair at or after `p` (unused slots have index -1).
        fn next_used(pairs: &[f32], mut p: usize) -> usize {
            while p < pairs.len() && pairs[p + 1] < 0.0 {
                p += 2;
            }
            p
        }
        let mut n = 0;
        let mut i = next_used(acc, 0);
        let mut j = next_used(other, 0);
        while n < k && (i < acc.len() || j < other.len()) {
            let other_first = if i >= acc.len() {
                true
            } else if j >= other.len() {
                false
            } else {
                // `other`'s head strictly precedes under the sort key
                // (ties keep `acc`'s copy, matching the stable sort).
                match other[j].total_cmp(&acc[i]) {
                    std::cmp::Ordering::Greater => true,
                    std::cmp::Ordering::Less => false,
                    std::cmp::Ordering::Equal => {
                        other[j + 1].total_cmp(&acc[i + 1]) == std::cmp::Ordering::Less
                    }
                }
            };
            if other_first {
                merged[n] = (other[j], other[j + 1]);
                j = next_used(other, j + 2);
            } else {
                merged[n] = (acc[i], acc[i + 1]);
                i = next_used(acc, i + 2);
            }
            n += 1;
        }
        for (slot, pair) in acc.chunks_exact_mut(2).enumerate() {
            if slot < n {
                pair[0] = merged[slot].0;
                pair[1] = merged[slot].1;
            } else {
                pair[0] = f32::MIN;
                pair[1] = -1.0;
            }
        }
    }
}

/// A reduction operator, by name.
///
/// This is the *specification* that configs and the CLI carry;
/// [`ReduceOp::operator`] instantiates the matching [`ReduceOperator`],
/// which does the arithmetic.
///
/// # Examples
///
/// ```
/// use fafnir_core::ReduceOp;
///
/// let mut acc = vec![1.0, 2.0];
/// ReduceOp::Sum.operator().combine_into(&mut acc, &[3.0, 4.0]);
/// assert_eq!(acc, vec![4.0, 6.0]);
/// let mut acc = vec![1.0, 5.0];
/// ReduceOp::Max.operator().combine_into(&mut acc, &[3.0, 4.0]);
/// assert_eq!(acc, vec![3.0, 5.0]);
/// assert_eq!("topk:4".parse::<ReduceOp>(), Ok(ReduceOp::TopK { k: 4 }));
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum ReduceOp {
    /// Element-wise sum (the paper's default).
    #[default]
    Sum,
    /// Element-wise mean; combined as a sum with a count carried in the
    /// accumulator and divided at the root.
    Mean,
    /// Element-wise maximum.
    Max,
    /// Element-wise minimum.
    Min,
    /// Element-wise maximum plus the index that supplied it
    /// ([`ArgMaxOperator`]).
    ArgMax,
    /// Keep the `k` best-scoring vectors ([`TopKOperator`], element-sum
    /// scoring; use [`TopKOperator::with_scoring`] directly for similarity
    /// search).
    TopK {
        /// How many top entries to keep (≥ 1).
        k: usize,
    },
}

impl ReduceOp {
    /// Instantiates the [`ReduceOperator`] this specification names.
    #[must_use]
    pub fn operator(self) -> Arc<dyn ReduceOperator> {
        match self {
            ReduceOp::Sum => Arc::new(SumOperator),
            ReduceOp::Mean => Arc::new(MeanOperator),
            ReduceOp::Max => Arc::new(MaxOperator),
            ReduceOp::Min => Arc::new(MinOperator),
            ReduceOp::ArgMax => Arc::new(ArgMaxOperator),
            ReduceOp::TopK { k } => Arc::new(TopKOperator::new(k)),
        }
    }
}

impl std::fmt::Display for ReduceOp {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ReduceOp::Sum => f.write_str("sum"),
            ReduceOp::Mean => f.write_str("mean"),
            ReduceOp::Max => f.write_str("max"),
            ReduceOp::Min => f.write_str("min"),
            ReduceOp::ArgMax => f.write_str("argmax"),
            ReduceOp::TopK { k } => write!(f, "topk:{k}"),
        }
    }
}

impl std::str::FromStr for ReduceOp {
    type Err = String;

    /// Parses the CLI syntax `sum|mean|max|min|argmax|topk:K`.
    fn from_str(s: &str) -> Result<Self, Self::Err> {
        match s {
            "sum" => Ok(ReduceOp::Sum),
            "mean" => Ok(ReduceOp::Mean),
            "max" => Ok(ReduceOp::Max),
            "min" => Ok(ReduceOp::Min),
            "argmax" => Ok(ReduceOp::ArgMax),
            other => match other.strip_prefix("topk:") {
                Some(k) => match k.parse::<usize>() {
                    Ok(k) if k >= 1 => Ok(ReduceOp::TopK { k }),
                    _ => Err(format!("invalid top-k count `{k}` (expected an integer >= 1)")),
                },
                None => Err(format!(
                    "unknown reduce op `{other}` (expected sum|mean|max|min|argmax|topk:K)"
                )),
            },
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// `b` combined into a copy of `a` by the operator `op` names.
    fn combine(op: ReduceOp, a: &[f32], b: &[f32]) -> Vec<f32> {
        let mut out = a.to_vec();
        op.operator().combine_into(&mut out, b);
        out
    }

    #[test]
    fn sum_combines_elementwise() {
        assert_eq!(combine(ReduceOp::Sum, &[1.0, 2.0], &[3.0, 4.0]), vec![4.0, 6.0]);
    }

    #[test]
    fn max_and_min_select_extremes() {
        assert_eq!(combine(ReduceOp::Max, &[1.0, 5.0], &[3.0, 4.0]), vec![3.0, 5.0]);
        assert_eq!(combine(ReduceOp::Min, &[1.0, 5.0], &[3.0, 4.0]), vec![1.0, 4.0]);
    }

    #[test]
    fn mean_divides_once_at_the_end() {
        let op = ReduceOp::Mean.operator();
        let acc = fold(&*op, &[(0, vec![2.0]), (1, vec![4.0])]);
        assert_eq!(op.finalize(&acc), vec![3.0]);
    }

    #[test]
    fn a_single_input_finalizes_to_itself() {
        let op = ReduceOp::Sum.operator();
        assert_eq!(op.finalize(&fold(&*op, &[(0, vec![1.5, 2.5])])), vec![1.5, 2.5]);
    }

    #[test]
    #[should_panic(expected = "equal dimension")]
    fn mismatched_dimensions_panic() {
        let _ = combine(ReduceOp::Sum, &[1.0], &[1.0, 2.0]);
    }

    #[test]
    fn display_and_parse_round_trip() {
        for op in [
            ReduceOp::Sum,
            ReduceOp::Mean,
            ReduceOp::Max,
            ReduceOp::Min,
            ReduceOp::ArgMax,
            ReduceOp::TopK { k: 7 },
        ] {
            assert_eq!(op.to_string().parse::<ReduceOp>(), Ok(op));
            assert_eq!(op.operator().name(), op.to_string());
        }
        assert!("topk:0".parse::<ReduceOp>().is_err());
        assert!("topk:x".parse::<ReduceOp>().is_err());
        assert!("median".parse::<ReduceOp>().is_err());
    }

    #[test]
    fn mean_operator_carries_count_in_accumulator() {
        let op = MeanOperator;
        assert_eq!(op.acc_dim(4), 5);
        let mut acc = op.lift(VectorIndex(0), &[2.0, 4.0]);
        assert_eq!(acc, vec![2.0, 4.0, 1.0]);
        let other = op.lift(VectorIndex(1), &[4.0, 0.0]);
        op.combine_into(&mut acc, &other);
        assert_eq!(acc, vec![6.0, 4.0, 2.0]);
        assert_eq!(op.finalize(&acc), vec![3.0, 2.0]);
    }

    #[test]
    fn argmax_tracks_supplying_index_with_low_tie_break() {
        let op = ArgMaxOperator;
        let mut acc = op.lift(VectorIndex(9), &[1.0, 5.0]);
        let other = op.lift(VectorIndex(3), &[1.0, 2.0]);
        op.combine_into(&mut acc, &other);
        // Element 0 ties at 1.0: the lower index (3) wins; element 1 keeps
        // index 9's larger value.
        assert_eq!(acc, vec![1.0, 5.0, 3.0, 9.0]);
    }

    #[test]
    fn topk_keeps_best_scores_sorted() {
        let op = TopKOperator::new(2);
        assert_eq!(op.acc_dim(128), 4);
        let mut acc = op.lift(VectorIndex(1), &[1.0, 1.0]); // score 2
        op.combine_into(&mut acc, &op.lift(VectorIndex(2), &[3.0, 3.0])); // score 6
        op.combine_into(&mut acc, &op.lift(VectorIndex(3), &[2.0, 2.0])); // score 4
        let decoded = TopKOperator::decode(&acc);
        assert_eq!(decoded, vec![(VectorIndex(2), 6.0), (VectorIndex(3), 4.0)]);
    }

    #[test]
    fn topk_scoring_vector_selects_by_dot_product() {
        let op = TopKOperator::with_scoring(1, vec![1.0, 0.0]);
        let mut acc = op.lift(VectorIndex(1), &[0.5, 100.0]); // dot = 0.5
        op.combine_into(&mut acc, &op.lift(VectorIndex(2), &[0.9, -100.0])); // dot = 0.9
        assert_eq!(TopKOperator::decode(&acc), vec![(VectorIndex(2), 0.9)]);
    }

    #[test]
    fn topk_ties_break_toward_lower_index() {
        let op = TopKOperator::new(1);
        let a = op.lift(VectorIndex(8), &[1.0]);
        let b = op.lift(VectorIndex(2), &[1.0]);
        let mut ab = a.clone();
        op.combine_into(&mut ab, &b);
        let mut ba = b.clone();
        op.combine_into(&mut ba, &a);
        assert_eq!(ab, ba);
        assert_eq!(TopKOperator::decode(&ab)[0].0, VectorIndex(2));
    }

    #[test]
    fn unrolled_argmax_matches_scalar_reference() {
        // Dims straddling the 4-wide unroll, with engineered ties so the
        // lower-index tie-break is exercised on both lane groups and tail.
        for dim in [1usize, 3, 4, 5, 7, 8, 64, 127, 128] {
            let a: Vec<f32> = (0..dim).map(|i| ((i % 5) as f32 - 2.0) * 1.5).collect();
            let b: Vec<f32> = (0..dim).map(|i| ((i % 3) as f32 - 1.0) * 1.5).collect();
            let op = ArgMaxOperator;
            let mut fast = op.lift(VectorIndex(9), &a);
            op.combine_into(&mut fast, &op.lift(VectorIndex(4), &b));
            // Scalar reference: the pre-unroll element loop.
            let mut acc = op.lift(VectorIndex(9), &a);
            let other = op.lift(VectorIndex(4), &b);
            let (values, indices) = acc.split_at_mut(dim);
            let (other_values, other_indices) = other.split_at(dim);
            for j in 0..dim {
                let take = other_values[j] > values[j]
                    || (other_values[j] == values[j] && other_indices[j] < indices[j]);
                if take {
                    values[j] = other_values[j];
                    indices[j] = other_indices[j];
                }
            }
            assert_eq!(
                fast.iter().map(|x| x.to_bits()).collect::<Vec<_>>(),
                acc.iter().map(|x| x.to_bits()).collect::<Vec<_>>(),
                "dim {dim}"
            );
        }
    }

    /// The sort-based Top-K merge the two-pointer fast path replaced.
    fn topk_merge_sort_reference(k: usize, acc: &mut [f32], other: &[f32]) {
        let mut pairs: Vec<(f32, f32)> = acc
            .chunks_exact(2)
            .chain(other.chunks_exact(2))
            .filter(|pair| pair[1] >= 0.0)
            .map(|pair| (pair[0], pair[1]))
            .collect();
        pairs.sort_by(|a, b| b.0.total_cmp(&a.0).then(a.1.total_cmp(&b.1)));
        pairs.truncate(k);
        for (slot, pair) in acc.chunks_exact_mut(2).enumerate() {
            match pairs.get(slot) {
                Some(&(score, index)) => {
                    pair[0] = score;
                    pair[1] = index;
                }
                None => {
                    pair[0] = f32::MIN;
                    pair[1] = -1.0;
                }
            }
        }
    }

    #[test]
    fn topk_two_pointer_merge_matches_sort_reference() {
        // k = 40 exercises the heap fallback past the stack bound; tied
        // scores (i % 7) exercise the index tie-break mid-merge.
        for k in [1usize, 2, 3, 8, 32, 40] {
            let op = TopKOperator::new(k);
            let fold = |range: std::ops::Range<u32>| {
                let mut acc = op.lift(VectorIndex(range.start), &[range.start as f32 % 7.0]);
                for i in range.skip(1) {
                    op.combine_into(&mut acc, &op.lift(VectorIndex(i), &[i as f32 % 7.0]));
                }
                acc
            };
            let a = fold(0..17);
            let b = fold(40..97);
            let mut fast = a.clone();
            op.combine_into(&mut fast, &b);
            let mut reference = a.clone();
            topk_merge_sort_reference(k, &mut reference, &b);
            assert_eq!(
                fast.iter().map(|x| x.to_bits()).collect::<Vec<_>>(),
                reference.iter().map(|x| x.to_bits()).collect::<Vec<_>>(),
                "k {k}"
            );
        }
    }

    /// Strategy: `count` (index, vector) pairs with distinct indices.
    fn lift_inputs(
        dim: usize,
        count: std::ops::Range<usize>,
    ) -> impl Strategy<Value = Vec<(u32, Vec<f32>)>> {
        proptest::collection::vec(proptest::collection::vec(-100.0f32..100.0, dim), count).prop_map(
            |vectors| {
                vectors
                    .into_iter()
                    .enumerate()
                    .map(|(position, vector)| (position as u32 * 5 + 2, vector))
                    .collect()
            },
        )
    }

    fn fold(op: &dyn ReduceOperator, pairs: &[(u32, Vec<f32>)]) -> Vec<f32> {
        let mut acc = op.lift(VectorIndex(pairs[0].0), &pairs[0].1);
        for (index, value) in &pairs[1..] {
            op.combine_into(&mut acc, &op.lift(VectorIndex(*index), value));
        }
        acc
    }

    fn operators() -> Vec<Arc<dyn ReduceOperator>> {
        vec![
            Arc::new(SumOperator),
            Arc::new(MeanOperator),
            Arc::new(MaxOperator),
            Arc::new(MinOperator),
            Arc::new(ArgMaxOperator),
            Arc::new(TopKOperator::new(2)),
            Arc::new(TopKOperator::new(TOPK_MERGE_STACK + 2)),
            Arc::new(TopKOperator::with_scoring(3, vec![0.5, -1.0, 2.0, 0.25])),
        ]
    }

    proptest! {
        #[test]
        fn tree_order_does_not_change_sum(
            values in proptest::collection::vec(
                proptest::collection::vec(-100.0f32..100.0, 4), 2..6)
        ) {
            // Left fold == balanced fold for Sum up to float tolerance.
            let pairs: Vec<(u32, Vec<f32>)> = (0..).zip(values.iter().cloned()).collect();
            let linear = fold(&SumOperator, &pairs);
            // Balanced: reduce pairs, then reduce results.
            let mut layer: Vec<Vec<f32>> = values.clone();
            while layer.len() > 1 {
                let mut next = Vec::new();
                for chunk in layer.chunks(2) {
                    if chunk.len() == 2 {
                        next.push(combine(ReduceOp::Sum, &chunk[0], &chunk[1]));
                    } else {
                        next.push(chunk[0].clone());
                    }
                }
                layer = next;
            }
            for (a, b) in linear.iter().zip(&layer[0]) {
                prop_assert!((a - b).abs() <= 1e-3_f32.max(a.abs() * 1e-4));
            }
        }

        #[test]
        fn max_is_idempotent_and_commutative(
            a in proptest::collection::vec(-100.0f32..100.0, 8),
            b in proptest::collection::vec(-100.0f32..100.0, 8),
        ) {
            let ab = combine(ReduceOp::Max, &a, &b);
            let ba = combine(ReduceOp::Max, &b, &a);
            prop_assert_eq!(&ab, &ba);
            let aa = combine(ReduceOp::Max, &a, &a);
            prop_assert_eq!(aa, a);
        }

        #[test]
        fn every_operator_combine_is_commutative(pairs in lift_inputs(4, 2..6)) {
            // Commutativity must be *exact* (bitwise) for every operator:
            // f32 addition commutes, and the selection operators use total
            // orders with deterministic tie-breaks.
            for op in operators() {
                let x = fold(&*op, &pairs[..1]);
                let y = fold(&*op, &pairs[1..]);
                let mut xy = x.clone();
                op.combine_into(&mut xy, &y);
                let mut yx = y.clone();
                op.combine_into(&mut yx, &x);
                prop_assert_eq!(
                    xy.iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
                    yx.iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
                    "operator {} not commutative", op.name()
                );
            }
        }

        #[test]
        fn selection_operators_combine_associatively(pairs in lift_inputs(4, 3..6)) {
            // Max/Min/ArgMax/TopK are exactly associative (no rounding);
            // Sum/Mean associate only up to rounding and are covered by the
            // tolerance-based test above.
            let selection: Vec<Arc<dyn ReduceOperator>> = vec![
                Arc::new(MaxOperator),
                Arc::new(MinOperator),
                Arc::new(ArgMaxOperator),
                Arc::new(TopKOperator::new(2)),
            ];
            for op in selection {
                let lifted: Vec<Vec<f32>> = pairs
                    .iter()
                    .map(|(i, v)| op.lift(VectorIndex(*i), v))
                    .collect();
                let (a, b, c) = (&lifted[0], &lifted[1], &lifted[2]);
                // (a ⊕ b) ⊕ c
                let mut left = a.clone();
                op.combine_into(&mut left, b);
                op.combine_into(&mut left, c);
                // a ⊕ (b ⊕ c)
                let mut bc = b.clone();
                op.combine_into(&mut bc, c);
                let mut right = a.clone();
                op.combine_into(&mut right, &bc);
                prop_assert_eq!(
                    left.iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
                    right.iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
                    "operator {} not associative", op.name()
                );
            }
        }

        #[test]
        fn topk_never_holds_more_than_k(pairs in lift_inputs(4, 1..6)) {
            let op = TopKOperator::new(3);
            let acc = fold(&op, &pairs);
            let decoded = TopKOperator::decode(&acc);
            prop_assert!(decoded.len() <= 3);
            prop_assert_eq!(decoded.len(), pairs.len().min(3));
            // Sorted by descending score.
            for window in decoded.windows(2) {
                prop_assert!(window[0].1 >= window[1].1);
            }
        }
    }
}
