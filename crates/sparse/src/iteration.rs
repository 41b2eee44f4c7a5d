//! The iteration/round plan for large-matrix SpMV (paper Figs. 8 and 9).
//!
//! Only `vector_size` columns of the matrix fit into the FAFNIR tree at a
//! time. Iteration 0 multiplies the matrix chunk by chunk (one *round* per
//! chunk) and every later iteration only merges the partial-result streams
//! of the previous one, up to `vector_size` streams per round. Fig. 9 plots
//! iterations, rounds per iteration and required merges against the column
//! count: even 20-million-column matrices need no more than two merge
//! iterations at vector size 2048.

/// The execution plan of one SpMV on FAFNIR.
///
/// # Examples
///
/// Fig. 9's headline: even 20 M columns need at most two merge iterations.
///
/// ```
/// use fafnir_sparse::SpmvPlan;
///
/// let plan = SpmvPlan::paper(20_000_000);
/// assert_eq!(plan.merge_iterations(), 2);
/// assert_eq!(plan.rounds_per_iteration, vec![9_766, 5, 1]);
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SpmvPlan {
    /// Columns processed per round (the paper's vector size, 2048 default).
    pub vector_size: usize,
    /// Matrix columns.
    pub columns: usize,
    /// Rounds in each iteration, starting with iteration 0.
    pub rounds_per_iteration: Vec<usize>,
}

impl SpmvPlan {
    /// Plans an SpMV over `columns` columns with the given vector size.
    ///
    /// # Panics
    ///
    /// Panics if `columns` is zero or `vector_size < 2`: a merge round that
    /// folds "up to one" stream never reduces the stream count, so a plan
    /// with vector size 1 could never terminate.
    #[must_use]
    pub fn new(columns: usize, vector_size: usize) -> Self {
        assert!(columns > 0, "plan dimensions must be non-zero");
        assert!(
            vector_size >= 2,
            "vector size must be at least 2: a 1-stream merge round never \
             shrinks the stream count"
        );
        let mut rounds_per_iteration = Vec::new();
        // Iteration 0: one round per column chunk.
        let mut streams = columns.div_ceil(vector_size);
        rounds_per_iteration.push(streams);
        // Merge iterations: each round folds up to `vector_size` streams.
        while streams > 1 {
            streams = streams.div_ceil(vector_size);
            rounds_per_iteration.push(streams);
        }
        Self { vector_size, columns, rounds_per_iteration }
    }

    /// The paper's configuration (vector size 2048, Sec. IV-D).
    #[must_use]
    pub fn paper(columns: usize) -> Self {
        Self::new(columns, 2048)
    }

    /// Total iterations (1 multiply iteration + merge iterations).
    #[must_use]
    pub fn iterations(&self) -> usize {
        self.rounds_per_iteration.len()
    }

    /// Merge iterations only (`iterations − 1`).
    #[must_use]
    pub fn merge_iterations(&self) -> usize {
        self.iterations() - 1
    }

    /// Rounds of iteration 0 (chunks of the matrix).
    #[must_use]
    pub fn multiply_rounds(&self) -> usize {
        self.rounds_per_iteration[0]
    }

    /// Total rounds across all iterations.
    #[must_use]
    pub fn total_rounds(&self) -> usize {
        self.rounds_per_iteration.iter().sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn small_matrix_needs_no_merges() {
        let plan = SpmvPlan::paper(2048);
        assert_eq!(plan.iterations(), 1);
        assert_eq!(plan.merge_iterations(), 0);
        assert_eq!(plan.multiply_rounds(), 1);
    }

    #[test]
    fn medium_matrix_needs_one_merge() {
        // Up to vector_size² columns: one merge iteration.
        let plan = SpmvPlan::paper(2048 * 2048);
        assert_eq!(plan.merge_iterations(), 1);
        let plan = SpmvPlan::paper(100_000);
        assert_eq!(plan.merge_iterations(), 1);
        assert_eq!(plan.multiply_rounds(), 49);
    }

    #[test]
    fn twenty_million_columns_need_two_merges() {
        // Fig. 9's headline: even 20 M columns stay at ≤ 2 merge stages.
        let plan = SpmvPlan::paper(20_000_000);
        assert_eq!(plan.merge_iterations(), 2);
        assert_eq!(plan.multiply_rounds(), 9766);
        assert_eq!(plan.rounds_per_iteration, vec![9766, 5, 1]);
    }

    #[test]
    #[should_panic(expected = "vector size must be at least 2")]
    fn vector_size_one_is_rejected() {
        let _ = SpmvPlan::new(100, 1);
    }

    #[test]
    fn smaller_vector_size_needs_more_work() {
        let v1024 = SpmvPlan::new(20_000_000, 1024);
        let v2048 = SpmvPlan::new(20_000_000, 2048);
        assert!(v1024.multiply_rounds() > v2048.multiply_rounds());
        assert!(v1024.total_rounds() > v2048.total_rounds());
    }

    proptest! {
        #[test]
        fn plan_always_terminates_with_one_stream(
            columns in 1usize..100_000_000,
            vector_size in 2usize..10_000,
        ) {
            let plan = SpmvPlan::new(columns, vector_size);
            prop_assert_eq!(*plan.rounds_per_iteration.last().unwrap(), 1);
            // Rounds strictly shrink: iterations are logarithmic (base
            // vector_size) in the round count.
            for window in plan.rounds_per_iteration.windows(2) {
                prop_assert!(window[1] < window[0]);
            }
            let bound = 2 + (columns as f64).log(vector_size as f64).ceil() as usize;
            prop_assert!(plan.iterations() <= bound, "{} > {bound}", plan.iterations());
        }
    }
}
