//! Reusable per-searcher working memory.
//!
//! Every routing strategy needs the same few buffers: the epoch-stamped
//! visited set, a bounded candidate pool with expansion flags, and (for
//! batch-scored expansion) an id/distance staging pair. Allocating them per
//! query costs more than the search on small beams, so they live here and
//! are checked out alongside the RNG and stats in
//! [`crate::index::SearchContext`]. Each search function clears what it
//! uses on entry; nothing leaks between queries except capacity.

use crate::search::VisitedPool;
use std::cmp::Reverse;
use std::collections::BinaryHeap;
use weavess_data::Neighbor;

/// Scratch space for one searcher (one thread / one worker at a time).
#[derive(Debug, Clone)]
pub struct SearchScratch {
    /// Epoch-stamped visited set; call `visited.next_epoch()` (or
    /// [`Self::next_epoch`]) before each query.
    pub visited: VisitedPool,
    /// Bounded nearest-first candidate pool.
    pub(crate) pool: Vec<Neighbor>,
    /// Expansion flags parallel to `pool`.
    pub(crate) expanded: Vec<bool>,
    /// Second bounded pool (filtered and range results).
    pub(crate) results: Vec<Neighbor>,
    /// Unbounded min-heap (range search queue, backtrack overflow).
    pub(crate) heap: BinaryHeap<Reverse<Neighbor>>,
    /// Unvisited neighbor ids staged for one batched scoring pass.
    pub(crate) batch_ids: Vec<u32>,
    /// Distances matching `batch_ids`, filled by `Dataset::dist_to_many`.
    pub(crate) batch_dists: Vec<f32>,
}

impl SearchScratch {
    /// Scratch for a graph of `n` vertices, all buffers empty.
    pub fn new(n: usize) -> Self {
        SearchScratch {
            visited: VisitedPool::new(n),
            pool: Vec::new(),
            expanded: Vec::new(),
            results: Vec::new(),
            heap: BinaryHeap::new(),
            batch_ids: Vec::new(),
            batch_dists: Vec::new(),
        }
    }

    /// Starts a fresh query: every vertex becomes unvisited in O(1).
    #[inline]
    pub fn next_epoch(&mut self) {
        self.visited.next_epoch();
    }

    /// Grows the visited set to cover at least `n` vertices (dynamic
    /// indexes; the other buffers grow on demand).
    pub fn ensure_len(&mut self, n: usize) {
        self.visited.ensure_len(n);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn new_scratch_covers_n_vertices() {
        let s = SearchScratch::new(7);
        assert_eq!(s.visited.len(), 7);
        assert!(s.pool.is_empty() && s.batch_ids.is_empty());
    }

    #[test]
    fn ensure_len_grows_the_visited_set() {
        let mut s = SearchScratch::new(2);
        s.ensure_len(9);
        assert_eq!(s.visited.len(), 9);
    }
}
