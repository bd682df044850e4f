//! The one best-first expansion loop — the paper's Algorithm 1 (C7) —
//! that every bounded-pool router runs.
//!
//! The survey treats each routing strategy as Algorithm 1 plus a small
//! change, and so does the code: best-first, the two-stage continuation,
//! guided, backtracking and filtered search are [`ExpandPolicy`] values
//! monomorphized into [`expand_loop`]. A policy overrides only the hooks
//! it needs; the rest are empty and inline to nothing, so plain best-first
//! pays for none of the others' changes. Range search keeps its own
//! unbounded-queue loop but shares the seed-scoring and neighbor-staging
//! steps defined here.

use super::scratch::SearchScratch;
use super::{SearchStats, VisitedPool};
use crate::telemetry::RouteTracer;
use std::cmp::Reverse;
use std::collections::BinaryHeap;
use weavess_data::neighbor::insert_into_pool;
use weavess_data::vectors::VectorView;
use weavess_data::Neighbor;
use weavess_graph::adjacency::GraphView;

/// Where [`expand_loop`]'s pool starts from.
#[derive(Debug, Clone, Copy)]
pub(super) enum Seeds<'a> {
    /// Seed ids: each one not yet visited this epoch is scored (one NDC),
    /// reported to the tracer and inserted.
    Ids(&'a [u32]),
    /// The pool a previous loop left in the scratch, already scored and
    /// visited this epoch: only its expansion flags are reset, so the
    /// continuation pays only for vertices the first loop never scored.
    Pool,
}

/// The hooks a router adds to Algorithm 1. Every default is plain
/// best-first search.
pub(super) trait ExpandPolicy {
    /// Called before the neighbors of `v` are staged (guided search aims
    /// its direction gate here).
    #[inline(always)]
    fn begin_hop(&mut self, _ds: &(impl VectorView + ?Sized), _query: &[f32], _v: u32) {}

    /// Neighbor gate, checked before `u` is marked visited: a gated-out
    /// neighbor stays unvisited and is never scored.
    #[inline(always)]
    fn admits(&self, _ds: &(impl VectorView + ?Sized), _u: u32) -> bool {
        true
    }

    /// Sees every scored candidate before it reaches the pool (filtered
    /// search admits it into the result pool `results`).
    #[inline(always)]
    fn on_scored(&mut self, _results: &mut Vec<Neighbor>, _n: Neighbor) {}

    /// Sees every scored candidate the bounded pool rejected at insertion
    /// (backtracking keeps it in `overflow`).
    #[inline(always)]
    fn on_rejected(&mut self, _overflow: &mut BinaryHeap<Reverse<Neighbor>>, _n: Neighbor) {}

    /// Called once every pool entry is expanded: a vertex outside the pool
    /// to expand next, or `None` to stop (backtracking continues here).
    #[inline(always)]
    fn resume(&mut self, _overflow: &mut BinaryHeap<Reverse<Neighbor>>) -> Option<Neighbor> {
        None
    }

    /// What the loop returns: the traversal pool, unless the router
    /// collects its answer elsewhere (filtered search's result pool).
    #[inline(always)]
    fn answer<'s>(pool: &'s [Neighbor], _results: &'s [Neighbor]) -> &'s [Neighbor] {
        pool
    }
}

/// Plain best-first search: Algorithm 1 with no hooks.
pub(super) struct BestFirst;

impl ExpandPolicy for BestFirst {}

/// Algorithm 1 over a bounded nearest-first pool of `beam` entries.
///
/// Each iteration expands the nearest unexpanded pool entry: its unvisited
/// neighbors that pass the policy's gate are staged, scored with one
/// [`VectorView::dist_to_many`] call and inserted in adjacency order, so
/// results are bit-identical to scoring one neighbor at a time. While a
/// vertex is expanded the next pool candidate's adjacency and every staged
/// neighbor's vector are prefetched (pure hints). When every entry is
/// expanded the policy may [`resume`](ExpandPolicy::resume) from outside
/// the pool; otherwise the loop ends. Returns the pool the policy answers
/// with, nearest first.
#[allow(clippy::too_many_arguments)]
pub(super) fn expand_loop<'s, P: ExpandPolicy, T: RouteTracer>(
    ds: &(impl VectorView + ?Sized),
    g: &(impl GraphView + ?Sized),
    query: &[f32],
    seeds: Seeds<'_>,
    beam: usize,
    scratch: &'s mut SearchScratch,
    stats: &mut SearchStats,
    tracer: &mut T,
    mut policy: P,
) -> &'s [Neighbor] {
    let beam = beam.max(1);
    let SearchScratch {
        visited,
        pool,
        expanded,
        results,
        heap: overflow,
        batch_ids: ids,
        batch_dists: dists,
    } = scratch;
    results.clear();
    overflow.clear();
    match seeds {
        Seeds::Ids(seed_ids) => {
            pool.clear();
            expanded.clear();
            score_seeds(ds, query, seed_ids, visited, stats, tracer, |n| {
                insert(&mut policy, pool, expanded, results, overflow, beam, n);
            });
        }
        Seeds::Pool => {
            debug_assert!(pool.len() <= beam && pool.iter().all(|n| visited.is_visited(n.id)));
            expanded.clear();
            expanded.resize(pool.len(), false);
        }
    }
    stats.pool_peak = stats.pool_peak.max(pool.len() as u64);

    let mut k = 0usize;
    loop {
        while k < pool.len() && expanded[k] {
            k += 1;
        }
        let c = if k < pool.len() {
            expanded[k] = true;
            pool[k]
        } else if let Some(c) = policy.resume(overflow) {
            k = 0;
            c
        } else {
            break;
        };
        stats.hops += 1;
        tracer.on_hop(c.id, c.dist, stats.ndc, pool.len());
        if let Some(next) = pool.get(k + 1) {
            g.prefetch_neighbors(next.id);
        }
        policy.begin_hop(ds, query, c.id);
        let gate = |u| policy.admits(ds, u);
        score_neighbors(ds, g, query, c.id, visited, ids, dists, stats, gate);
        let mut lowest_insert = usize::MAX;
        for (&u, &d) in ids.iter().zip(dists.iter()) {
            let n = Neighbor::new(u, d);
            if let Some(pos) = insert(&mut policy, pool, expanded, results, overflow, beam, n) {
                lowest_insert = lowest_insert.min(pos);
            }
        }
        stats.pool_peak = stats.pool_peak.max(pool.len() as u64);
        // Resume from the nearest new candidate if one arrived at or
        // above k (an insertion at exactly k shifts the just-expanded
        // entry right, leaving an unexpanded candidate at k); otherwise
        // move on. Everything before the new k is expanded.
        k = lowest_insert.min(k + 1);
    }
    P::answer(pool, results)
}

/// Inserts one scored candidate into the bounded pool as unexpanded,
/// keeping `expanded` parallel to `pool`. The policy sees the candidate
/// first, and again if the pool rejects it (a duplicate or beyond
/// capacity). Returns the insertion position.
#[inline(always)]
fn insert<P: ExpandPolicy>(
    policy: &mut P,
    pool: &mut Vec<Neighbor>,
    expanded: &mut Vec<bool>,
    results: &mut Vec<Neighbor>,
    overflow: &mut BinaryHeap<Reverse<Neighbor>>,
    beam: usize,
    n: Neighbor,
) -> Option<usize> {
    policy.on_scored(results, n);
    let Some(pos) = insert_into_pool(pool, beam, n) else {
        policy.on_rejected(overflow, n);
        return None;
    };
    expanded.insert(pos, false);
    expanded.truncate(pool.len());
    Some(pos)
}

/// Scores every seed not yet visited this epoch (one NDC each), reports
/// it to the tracer and hands it to `admit`.
#[inline(always)]
pub(super) fn score_seeds<T: RouteTracer>(
    ds: &(impl VectorView + ?Sized),
    query: &[f32],
    seeds: &[u32],
    visited: &mut VisitedPool,
    stats: &mut SearchStats,
    tracer: &mut T,
    mut admit: impl FnMut(Neighbor),
) {
    for &s in seeds {
        if visited.visit(s) {
            stats.ndc += 1;
            let d = ds.dist_to(query, s);
            tracer.on_seed(s, d);
            admit(Neighbor::new(s, d));
        }
    }
}

/// Stages the neighbors of `v` that are unvisited and pass `gate` into
/// `ids` — marking each visited and prefetching its vector — then scores
/// them with one [`VectorView::dist_to_many`] call into `dists`, in
/// adjacency order.
#[allow(clippy::too_many_arguments)]
#[inline(always)]
pub(super) fn score_neighbors(
    ds: &(impl VectorView + ?Sized),
    g: &(impl GraphView + ?Sized),
    query: &[f32],
    v: u32,
    visited: &mut VisitedPool,
    ids: &mut Vec<u32>,
    dists: &mut Vec<f32>,
    stats: &mut SearchStats,
    mut gate: impl FnMut(u32) -> bool,
) {
    ids.clear();
    for &u in g.neighbors(v) {
        if !visited.is_visited(u) && gate(u) {
            visited.visit(u);
            ds.prefetch_vector(u);
            ids.push(u);
        }
    }
    stats.ndc += ids.len() as u64;
    ds.dist_to_many(query, ids, dists);
}
