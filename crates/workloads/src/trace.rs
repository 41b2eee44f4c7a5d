//! Query traces: record, serialize, replay, and characterize.
//!
//! The paper's workload comes from production embedding traffic we cannot
//! ship. This module gives downstream users the plumbing to plug their own:
//! a trace is an ordered list of queries, serializable in a trivial text
//! format (one query per line, space-separated indices, `#` comments), with
//! replay into batches of any size and the reuse statistics that determine
//! how much FAFNIR's dedup will save on it.

use fafnir_core::{Batch, IndexSet, VectorIndex};

use crate::query::BatchGenerator;

/// An ordered trace of embedding-lookup queries.
///
/// # Examples
///
/// ```
/// use fafnir_workloads::QueryTrace;
///
/// let mut trace = QueryTrace::new();
/// trace.push([1, 2, 5]);
/// trace.push([3, 5]);
/// let parsed = QueryTrace::from_text(&trace.to_text())?;
/// assert_eq!(parsed, trace);
/// assert_eq!(parsed.replay(2).len(), 1);
/// # Ok::<(), fafnir_workloads::trace::ParseTraceError>(())
/// ```
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct QueryTrace {
    queries: Vec<Vec<u32>>,
}

/// Error parsing a textual trace.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseTraceError {
    /// 1-based line number of the offending line.
    pub line: usize,
    /// Description of the problem.
    pub message: String,
}

impl std::fmt::Display for ParseTraceError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "trace line {}: {}", self.line, self.message)
    }
}

impl std::error::Error for ParseTraceError {}

impl QueryTrace {
    /// An empty trace.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Records `count` queries from a generator.
    #[must_use]
    pub fn record(generator: &mut BatchGenerator, count: usize) -> Self {
        let queries = (0..count)
            .map(|_| generator.query().iter().map(VectorIndex::value).collect())
            .collect();
        Self { queries }
    }

    /// Appends one query.
    pub fn push<I: IntoIterator<Item = u32>>(&mut self, indices: I) {
        self.queries.push(indices.into_iter().collect());
    }

    /// Number of queries.
    #[must_use]
    pub fn len(&self) -> usize {
        self.queries.len()
    }

    /// True when the trace holds no queries.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.queries.is_empty()
    }

    /// Serializes to the text format: one query per line, space-separated
    /// decimal indices.
    #[must_use]
    pub fn to_text(&self) -> String {
        let mut out = String::from("# fafnir query trace v1\n");
        for query in &self.queries {
            let line: Vec<String> = query.iter().map(u32::to_string).collect();
            out.push_str(&line.join(" "));
            out.push('\n');
        }
        out
    }

    /// Parses the text format (blank lines and `#` comments ignored).
    ///
    /// # Errors
    ///
    /// Returns [`ParseTraceError`] naming the first malformed line.
    pub fn from_text(text: &str) -> Result<Self, ParseTraceError> {
        let mut queries = Vec::new();
        for (number, line) in text.lines().enumerate() {
            let line = line.trim();
            if line.is_empty() || line.starts_with('#') {
                continue;
            }
            let mut indices = Vec::new();
            for token in line.split_whitespace() {
                let index: u32 = token.parse().map_err(|_| ParseTraceError {
                    line: number + 1,
                    message: format!("`{token}` is not a valid index"),
                })?;
                indices.push(index);
            }
            if indices.is_empty() {
                return Err(ParseTraceError {
                    line: number + 1,
                    message: "query has no indices".into(),
                });
            }
            queries.push(indices);
        }
        Ok(Self { queries })
    }

    /// Replays the trace as consecutive batches of `batch_size` queries
    /// (the final batch may be smaller).
    ///
    /// # Panics
    ///
    /// Panics if `batch_size` is zero.
    #[must_use]
    pub fn replay(&self, batch_size: usize) -> Vec<Batch> {
        assert!(batch_size > 0, "batch size must be non-zero");
        self.queries
            .chunks(batch_size)
            .map(|chunk| {
                chunk
                    .iter()
                    .map(|query| IndexSet::from_iter_dedup(query.iter().copied().map(VectorIndex)))
                    .collect()
            })
            .collect()
    }

    /// LRU stack-distance histogram over the whole trace (query order,
    /// indices within a query in sorted order).
    #[must_use]
    pub fn reuse_distances(&self) -> ReuseDistances {
        // LRU stack: most recent at the back.
        let mut stack: Vec<u32> = Vec::new();
        let mut buckets: Vec<u64> = Vec::new();
        let mut cold = 0u64;
        let mut references = 0u64;
        for query in &self.queries {
            for &index in query {
                references += 1;
                match stack.iter().rposition(|&i| i == index) {
                    Some(position) => {
                        let distance = (stack.len() - 1 - position) as u64;
                        let bucket = (64 - distance.max(1).leading_zeros() - 1) as usize;
                        let bucket = if distance <= 1 { 0 } else { bucket };
                        if buckets.len() <= bucket {
                            buckets.resize(bucket + 1, 0);
                        }
                        buckets[bucket] += 1;
                        stack.remove(position);
                    }
                    None => cold += 1,
                }
                stack.push(index);
            }
        }
        ReuseDistances { buckets, cold, references }
    }

    /// Reuse characterization: total references, distinct indices, and the
    /// top `k` hottest indices with their reference counts.
    #[must_use]
    pub fn reuse_stats(&self, k: usize) -> TraceReuse {
        let mut counts: std::collections::HashMap<u32, u64> = std::collections::HashMap::new();
        let mut references: u64 = 0;
        for query in &self.queries {
            for &index in query {
                *counts.entry(index).or_insert(0) += 1;
                references += 1;
            }
        }
        let distinct = counts.len() as u64;
        let mut hottest: Vec<(u32, u64)> = counts.into_iter().collect();
        hottest.sort_by(|a, b| b.1.cmp(&a.1).then(a.0.cmp(&b.0)));
        hottest.truncate(k);
        TraceReuse { references, distinct, hottest }
    }
}

/// Power-of-two histogram of LRU stack (reuse) distances.
///
/// Bucket `d` counts references whose reuse distance falls in
/// `[2^d, 2^(d+1))`; bucket 0 covers distances 0 and 1. Cold (first-time)
/// references are counted separately. The reuse-distance profile directly
/// bounds what any LRU cache can achieve on the trace — the analysis behind
/// the paper's observation that RecNMP's 128 KB caches cap out around a
/// 50 % hit rate (Sec. III-E).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ReuseDistances {
    /// `buckets[d]` counts distances in `[2^d, 2^(d+1))` (bucket 0: 0–1).
    pub buckets: Vec<u64>,
    /// First-time references (infinite distance).
    pub cold: u64,
    /// Total references.
    pub references: u64,
}

impl ReuseDistances {
    /// The LRU hit rate an idealized fully-associative cache of
    /// `capacity` vectors would achieve on this trace: the fraction of
    /// references with reuse distance < capacity.
    #[must_use]
    pub fn lru_hit_rate(&self, capacity: usize) -> f64 {
        if self.references == 0 {
            return 0.0;
        }
        let mut hits = 0u64;
        for (bucket, &count) in self.buckets.iter().enumerate() {
            let low = if bucket == 0 { 0u64 } else { 1u64 << bucket };
            let high = 1u64 << (bucket + 1);
            if high <= capacity as u64 {
                hits += count;
            } else if low < capacity as u64 {
                // Partial bucket: assume uniform spread inside the bucket.
                let span = high - low;
                hits += count * (capacity as u64 - low) / span;
            }
        }
        hits as f64 / self.references as f64
    }
}

/// Reuse summary of a trace.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TraceReuse {
    /// Total index references.
    pub references: u64,
    /// Distinct indices referenced.
    pub distinct: u64,
    /// Hottest indices with reference counts, descending.
    pub hottest: Vec<(u32, u64)>,
}

impl TraceReuse {
    /// Fraction of references that are first-time uses (Fig. 3's metric at
    /// whole-trace granularity).
    #[must_use]
    pub fn unique_fraction(&self) -> f64 {
        if self.references == 0 {
            1.0
        } else {
            self.distinct as f64 / self.references as f64
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::query::Popularity;

    fn sample() -> QueryTrace {
        let mut trace = QueryTrace::new();
        trace.push([1, 2, 5]);
        trace.push([3, 5]);
        trace.push([5, 7, 9, 11]);
        trace
    }

    #[test]
    fn text_round_trip_preserves_queries() {
        let trace = sample();
        let text = trace.to_text();
        let parsed = QueryTrace::from_text(&text).unwrap();
        assert_eq!(parsed, trace);
        assert!(text.starts_with("# fafnir query trace v1"));
    }

    #[test]
    fn parse_reports_bad_lines_precisely() {
        let error = QueryTrace::from_text("1 2\nx y\n").unwrap_err();
        assert_eq!(error.line, 2);
        assert!(error.to_string().contains('x'));
        let error = QueryTrace::from_text("1 2\n\n# ok\n3 4\n").map(|t| t.len());
        assert_eq!(error, Ok(2));
    }

    #[test]
    fn replay_chunks_into_batches() {
        let trace = sample();
        let batches = trace.replay(2);
        assert_eq!(batches.len(), 2);
        assert_eq!(batches[0].len(), 2);
        assert_eq!(batches[1].len(), 1);
        assert_eq!(batches[1].queries()[0].indices.len(), 4);
    }

    #[test]
    fn reuse_stats_identify_hot_indices() {
        let reuse = sample().reuse_stats(2);
        assert_eq!(reuse.references, 9);
        assert_eq!(reuse.distinct, 7);
        assert_eq!(reuse.hottest[0], (5, 3), "index 5 appears in every query");
        assert!((reuse.unique_fraction() - 7.0 / 9.0).abs() < 1e-12);
    }

    #[test]
    fn reuse_distances_match_hand_computation() {
        let mut trace = QueryTrace::new();
        trace.push([1, 2]);
        trace.push([1, 3]); // 1 at distance 1 → bucket 0
        trace.push([2, 1]); // 2 at distance 2 → bucket 1; 1 at distance 1
        let distances = trace.reuse_distances();
        assert_eq!(distances.references, 6);
        assert_eq!(distances.cold, 3);
        // One reuse at distance 1 (bucket 0), two at distance 2 (bucket 1).
        assert_eq!(distances.buckets[0], 1);
        assert_eq!(distances.buckets[1], 2);
        // A 4-entry LRU catches every reuse; a 1-entry one catches none.
        assert!((distances.lru_hit_rate(8) - 0.5).abs() < 1e-12);
        assert_eq!(distances.lru_hit_rate(1), 0.0);
    }

    #[test]
    fn skewed_traffic_caps_lru_hit_rate_around_the_papers_50_percent() {
        // Sec. III-E: RecNMP's 128 KB cache (256 x 512 B vectors) reaches at
        // most ~50 % hits. Reproduce with the calibrated traffic.
        // Production-scale universe: 100 k indices at Zipf 1.05.
        let mut generator =
            BatchGenerator::new(Popularity::Zipf { exponent: 1.05 }, 100_000, 16, 77);
        let trace = QueryTrace::record(&mut generator, 600);
        let distances = trace.reuse_distances();
        let hit_rate_128kb = distances.lru_hit_rate(256);
        assert!(
            (0.3..0.65).contains(&hit_rate_128kb),
            "128 KB-class LRU hit rate {hit_rate_128kb:.2} should sit near the paper's ~50 %"
        );
        // Monotone in capacity.
        assert!(distances.lru_hit_rate(1_024) >= hit_rate_128kb);
    }

    #[test]
    fn record_from_generator_matches_generator_settings() {
        let mut generator = BatchGenerator::new(Popularity::Zipf { exponent: 1.1 }, 1_000, 8, 5);
        let trace = QueryTrace::record(&mut generator, 20);
        assert_eq!(trace.len(), 20);
        let batches = trace.replay(8);
        assert_eq!(batches.len(), 3);
        for batch in &batches {
            for query in batch.queries() {
                assert_eq!(query.indices.len(), 8);
            }
        }
    }

    #[test]
    fn empty_trace_edge_cases() {
        let trace = QueryTrace::new();
        assert!(trace.is_empty());
        assert!(trace.replay(4).is_empty());
        assert_eq!(trace.reuse_stats(3).unique_fraction(), 1.0);
        assert_eq!(QueryTrace::from_text("# only comments\n").unwrap(), trace);
    }
}
