//! The rank-cache model used by RecNMP (paper Sec. III-E).
//!
//! RecNMP proposes 128 KB caches at the rank NDPs to exploit repeated
//! indices. The paper notes this is costly (≈38 % area overhead) and capped
//! around a 50 % hit rate. This is a straightforward set-associative LRU
//! cache at whole-vector granularity, so the measured hit rate emerges from
//! the traffic instead of being assumed.

/// A set-associative LRU cache over embedding-vector indices.
#[derive(Debug, Clone, PartialEq)]
pub struct VectorCache {
    sets: Vec<Vec<u32>>,
    ways: usize,
    accesses: u64,
    hits: u64,
}

impl VectorCache {
    /// A cache of `capacity_bytes` holding `vector_bytes` entries with
    /// `ways`-way associativity.
    ///
    /// # Panics
    ///
    /// Panics if any parameter is zero or the capacity holds fewer than
    /// `ways` vectors.
    #[must_use]
    pub fn new(capacity_bytes: usize, vector_bytes: usize, ways: usize) -> Self {
        assert!(capacity_bytes > 0 && vector_bytes > 0 && ways > 0, "parameters must be non-zero");
        let entries = capacity_bytes / vector_bytes;
        assert!(entries >= ways, "capacity holds fewer vectors than one set");
        let set_count = (entries / ways).max(1);
        Self { sets: vec![Vec::new(); set_count], ways, accesses: 0, hits: 0 }
    }

    /// RecNMP's 128 KB rank cache for 512 B vectors, 8-way.
    #[must_use]
    pub fn recnmp_rank_cache() -> Self {
        Self::new(128 * 1024, 512, 8)
    }

    /// Looks up `index`, updating LRU state; inserts on miss. Returns true
    /// on a hit.
    pub fn access(&mut self, index: u32) -> bool {
        self.accesses += 1;
        let set_count = self.sets.len();
        let set = &mut self.sets[index as usize % set_count];
        if let Some(pos) = set.iter().position(|&tag| tag == index) {
            let tag = set.remove(pos);
            set.push(tag); // most recently used at the back
            self.hits += 1;
            return true;
        }
        if set.len() == self.ways {
            set.remove(0); // evict LRU
        }
        set.push(index);
        false
    }

    /// Total lookups so far.
    #[must_use]
    pub fn accesses(&self) -> u64 {
        self.accesses
    }

    /// Hits so far.
    #[must_use]
    pub fn hits(&self) -> u64 {
        self.hits
    }

    /// Hit rate so far (0.0 before any access).
    #[must_use]
    pub fn hit_rate(&self) -> f64 {
        if self.accesses == 0 {
            0.0
        } else {
            self.hits as f64 / self.accesses as f64
        }
    }

    /// Clears contents and counters.
    pub fn reset(&mut self) {
        for set in &mut self.sets {
            set.clear();
        }
        self.accesses = 0;
        self.hits = 0;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn repeated_access_hits() {
        let mut cache = VectorCache::recnmp_rank_cache();
        assert!(!cache.access(42));
        assert!(cache.access(42));
        assert_eq!(cache.hits(), 1);
        assert_eq!(cache.accesses(), 2);
    }

    #[test]
    fn lru_evicts_oldest_within_set() {
        // 2 sets × 2 ways: indices 0,2,4,6 share set 0.
        let mut cache = VectorCache::new(4 * 512, 512, 2);
        cache.access(0);
        cache.access(2);
        cache.access(0); // refresh 0; LRU is now 2
        cache.access(4); // evicts 2
        assert!(cache.access(0), "0 was refreshed");
        assert!(!cache.access(2), "2 was evicted");
    }

    #[test]
    fn distinct_streaming_traffic_never_hits() {
        let mut cache = VectorCache::recnmp_rank_cache();
        for index in 0..10_000 {
            assert!(!cache.access(index));
        }
        assert_eq!(cache.hit_rate(), 0.0);
    }

    #[test]
    fn reset_clears_state() {
        let mut cache = VectorCache::recnmp_rank_cache();
        cache.access(1);
        cache.access(1);
        cache.reset();
        assert_eq!(cache.accesses(), 0);
        assert!(!cache.access(1));
    }

    #[test]
    #[should_panic(expected = "fewer vectors than one set")]
    fn undersized_cache_panics() {
        let _ = VectorCache::new(512, 512, 8);
    }
}
