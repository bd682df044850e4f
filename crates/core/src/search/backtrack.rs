//! FANNG's backtracking search (C7).
//!
//! §4.2 / §3.2 (A3): best-first search is susceptible to local optima;
//! FANNG "uses backtrack to the second-closest vertex and considers its
//! edges that have not been explored yet". We run best-first to
//! convergence while keeping every scored candidate the bounded pool
//! rejected at insertion (it was full of nearer ones), then spend up to
//! `extra` additional expansions on the nearest of those rejected
//! candidates — slightly better accuracy for notably more search time, the
//! trade-off Figure 10(f) reports for `C7_FANNG`. Entries that enter the
//! pool and are later pushed off its end by nearer candidates are dropped,
//! not kept for backtracking.

use super::expand::ExpandPolicy;
use super::{Router, SearchScratch, SearchStats};
use std::cmp::Reverse;
use std::collections::BinaryHeap;
use weavess_data::vectors::VectorView;
use weavess_data::Neighbor;
use weavess_graph::adjacency::GraphView;

/// The backtracking policy: rejected candidates wait in the overflow
/// min-heap; after each convergence the nearest one is expanded, while
/// the budget lasts. Each resumed expansion counts as a hop.
pub(super) struct Backtrack {
    /// Backtrack expansions left.
    pub(super) budget: usize,
}

impl ExpandPolicy for Backtrack {
    #[inline(always)]
    fn on_rejected(&mut self, overflow: &mut BinaryHeap<Reverse<Neighbor>>, n: Neighbor) {
        overflow.push(Reverse(n));
    }

    #[inline(always)]
    fn resume(&mut self, overflow: &mut BinaryHeap<Reverse<Neighbor>>) -> Option<Neighbor> {
        if self.budget == 0 {
            return None;
        }
        let Reverse(c) = overflow.pop()?;
        self.budget -= 1;
        Some(c)
    }
}

/// Backtracking best-first search from `seeds`. Expansion is batch-scored
/// like [`super::beam_search`]; insertions stay in adjacency order, so
/// results match per-neighbor scoring exactly.
#[allow(clippy::too_many_arguments)]
pub fn backtrack_search(
    ds: &(impl VectorView + ?Sized),
    g: &(impl GraphView + ?Sized),
    query: &[f32],
    seeds: &[u32],
    beam: usize,
    extra: usize,
    scratch: &mut SearchScratch,
    stats: &mut SearchStats,
) -> Vec<Neighbor> {
    Router::Backtrack { extra }.search(ds, g, query, seeds, beam, scratch, stats)
}

#[cfg(test)]
mod tests {
    use super::super::beam_search;
    use super::*;
    use weavess_data::ground_truth::knn_scan;
    use weavess_data::synthetic::MixtureSpec;
    use weavess_data::Dataset;
    use weavess_graph::base::exact_knng;
    use weavess_graph::CsrGraph;

    fn setup() -> (Dataset, Dataset, CsrGraph) {
        let (base, queries) = MixtureSpec::table10(8, 400, 4, 3.0, 25).generate();
        // A sparse graph (K=4) makes local optima likely, giving
        // backtracking something to fix.
        let g = exact_knng(&base, 4, 4);
        (base, queries, g)
    }

    fn run(extra: usize) -> (usize, u64) {
        let (ds, qs, g) = setup();
        let mut scratch = SearchScratch::new(ds.len());
        let mut stats = SearchStats::default();
        let seeds = [0u32, 97, 211];
        let mut hits = 0usize;
        for qi in 0..qs.len() as u32 {
            let q = qs.point(qi);
            scratch.next_epoch();
            let res = backtrack_search(&ds, &g, q, &seeds, 10, extra, &mut scratch, &mut stats);
            let truth: Vec<u32> = knn_scan(&ds, q, 10, None).iter().map(|n| n.id).collect();
            hits += res
                .iter()
                .take(10)
                .filter(|n| truth.contains(&n.id))
                .count();
        }
        (hits, stats.ndc)
    }

    #[test]
    fn zero_extra_matches_best_first() {
        let (ds, qs, g) = setup();
        let mut scratch = SearchScratch::new(ds.len());
        let mut s1 = SearchStats::default();
        let mut s2 = SearchStats::default();
        let seeds = [0u32, 97];
        for qi in 0..qs.len() as u32 {
            let q = qs.point(qi);
            scratch.next_epoch();
            let a = backtrack_search(&ds, &g, q, &seeds, 12, 0, &mut scratch, &mut s1);
            scratch.next_epoch();
            let b = beam_search(&ds, &g, q, &seeds, 12, &mut scratch, &mut s2);
            assert_eq!(a, b, "query {qi}");
        }
        assert_eq!(s1.ndc, s2.ndc);
        assert_eq!(s1.pool_peak, s2.pool_peak);
    }

    #[test]
    fn backtracking_spends_more_and_recalls_no_less() {
        let (hits0, ndc0) = run(0);
        let (hits16, ndc16) = run(16);
        assert!(ndc16 > ndc0);
        assert!(hits16 >= hits0, "{hits16} < {hits0}");
    }
}
