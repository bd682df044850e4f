//! Layer probes shared by the workloads: build-profile attribution, graph
//! digests, the distance-kernel replay, and NSG's per-point linking step.
//!
//! The replay rebuilds, from a query's recorded route, the exact id
//! batches its best-first search scored (the seeds, then the
//! not-yet-visited neighbors of each expanded vertex, read from the built
//! graph's own adjacency) and times `Dataset::dist_to_many` over them. The
//! kernel therefore sees the access pattern of a real search.

use std::hint::black_box;
use std::time::{Duration, Instant};

use weavess_core::algorithms::nsg::NsgParams;
use weavess_core::components::candidates::candidates_by_search;
use weavess_core::components::selection::select_rng_alpha;
use weavess_core::search::SearchScratch;
use weavess_core::telemetry::{BuildProfile, RecordingTracer, RouteEvent};
use weavess_core::{AnnIndex, SearchContext, SearchStats};
use weavess_data::Dataset;

use crate::util::{median, Digest};
use crate::{Run, BEAM, K};

/// Leaf-phase attribution of one build, read from its [`BuildProfile`].
#[derive(Debug, Clone, Copy, Default)]
pub struct Phases {
    pub c1_s: f64,
    pub c2c3_s: f64,
    pub c5_s: f64,
    pub ndc: u64,
}

impl Phases {
    /// Sums the profile's phases by component prefix. Nested spans carry
    /// their own NDC and their parents none, so the NDC sum counts each
    /// distance once.
    pub fn from_profile(p: &BuildProfile) -> Phases {
        let mut ph = Phases::default();
        for s in &p.spans {
            match s.component {
                "C1 init" => ph.c1_s += s.secs,
                c if c.starts_with("C2") => ph.c2c3_s += s.secs,
                c if c.starts_with("C5") => ph.c5_s += s.secs,
                _ => {}
            }
            ph.ndc += s.ndc;
        }
        ph
    }

    pub fn add(&mut self, o: Phases) {
        self.c1_s += o.c1_s;
        self.c2c3_s += o.c2c3_s;
        self.c5_s += o.c5_s;
        self.ndc += o.ndc;
    }
}

/// Digest of a graph's adjacency: equal digests mean identical builds.
pub fn graph_digest(index: &dyn AnnIndex) -> u64 {
    let g = index.graph();
    let mut d = Digest::default();
    for v in 0..g.len() as u32 {
        let nb = g.neighbors(v);
        d.word(nb.len() as u64);
        for &u in nb {
            d.word(u as u64);
        }
    }
    d.0
}

/// The id batches one search scored, flattened: `ids[offsets[i]..offsets[i+1]]`
/// is batch `i`.
#[derive(Debug, Clone, Default)]
pub struct Batches {
    pub ids: Vec<u32>,
    pub offsets: Vec<usize>,
}

impl Batches {
    fn push(&mut self, batch: impl Iterator<Item = u32>) {
        if self.offsets.is_empty() {
            self.offsets.push(0);
        }
        self.ids.extend(batch);
        self.offsets.push(self.ids.len());
    }

    pub fn iter(&self) -> impl Iterator<Item = &[u32]> {
        self.offsets.windows(2).map(|w| &self.ids[w[0]..w[1]])
    }
}

/// Records `query`'s route through `index` and rebuilds the batches its
/// search scored. `visited` is scratch of length `ds.len()`.
pub fn route_batches(
    index: &dyn AnnIndex,
    ds: &Dataset,
    query: &[f32],
    ctx: &mut SearchContext,
    visited: &mut [bool],
) -> Batches {
    let mut tracer = RecordingTracer::new();
    let _ = index.search_traced(ds, query, K, BEAM, ctx, &mut tracer);
    visited.fill(false);
    let g = index.graph();
    let mut out = Batches::default();
    let seeds: Vec<u32> = tracer
        .events
        .iter()
        .filter_map(|e| match *e {
            RouteEvent::Seed { vertex, .. } => Some(vertex),
            RouteEvent::Hop { .. } => None,
        })
        .collect();
    for &s in &seeds {
        visited[s as usize] = true;
    }
    out.push(seeds.into_iter());
    for e in &tracer.events {
        if let RouteEvent::Hop { vertex, .. } = *e {
            let fresh: Vec<u32> = g
                .neighbors(vertex)
                .iter()
                .copied()
                .filter(|&u| !std::mem::replace(&mut visited[u as usize], true))
                .collect();
            out.push(fresh.into_iter());
        }
    }
    out
}

/// Times `dist_to_many` over each query's batches, `reps` passes in query
/// order; returns per-query nanoseconds (median over the passes).
pub fn time_batches(
    ds: &Dataset,
    queries: &[&[f32]],
    batches: &[Batches],
    reps: usize,
) -> Vec<f64> {
    let mut per_rep: Vec<Vec<f64>> = vec![Vec::with_capacity(reps); queries.len()];
    let mut out = Vec::with_capacity(64);
    for _ in 0..reps {
        for (qi, (q, b)) in queries.iter().zip(batches).enumerate() {
            let t0 = Instant::now();
            for ids in b.iter() {
                ds.dist_to_many(q, ids, &mut out);
                black_box(&out);
            }
            per_rep[qi].push(t0.elapsed().as_nanos() as f64);
        }
    }
    per_rep.iter().map(|v| median(v)).collect()
}

/// NSG's per-point linking step replayed on a built graph: C2 candidate
/// search from the medoid (beam `L`, cap `C`) then C3 RNG selection down to
/// `R` edges. This is what one point costs the builder, and what linking a
/// new point into the static index would cost; the graph is not modified.
pub struct Linker<'a> {
    index: &'a dyn AnnIndex,
    ds: &'a Dataset,
    medoid: u32,
    params: NsgParams,
    ids: Vec<u32>,
    next: usize,
    scratch: SearchScratch,
    stats: SearchStats,
}

impl<'a> Linker<'a> {
    /// A linker over `points` (ids into `ds`), stepped in order, cyclically.
    pub fn new(index: &'a dyn AnnIndex, ds: &'a Dataset, run: &Run, points: Vec<u32>) -> Self {
        assert!(!points.is_empty(), "the linker needs at least one point");
        Linker {
            index,
            ds,
            medoid: ds.medoid(),
            params: NsgParams::tuned(run.threads, 0),
            ids: points,
            next: 0,
            scratch: SearchScratch::new(ds.len()),
            stats: SearchStats::default(),
        }
    }

    /// Links the next sample point; returns the step's nanoseconds.
    pub fn step(&mut self) -> f64 {
        let p = self.ids[self.next % self.ids.len()];
        self.next += 1;
        let t0 = Instant::now();
        let cands = candidates_by_search(
            self.ds,
            self.index.graph(),
            p,
            &[self.medoid],
            self.params.l,
            self.params.c,
            &mut self.scratch,
            &mut self.stats,
        );
        black_box(select_rng_alpha(self.ds, p, &cands, self.params.r, 1.0));
        t0.elapsed().as_nanos() as f64
    }

    /// Links points for `dur`; returns the median step time (ns).
    pub fn run_for(&mut self, dur: Duration) -> f64 {
        let start = Instant::now();
        let mut lat = Vec::new();
        while start.elapsed() < dur || lat.is_empty() {
            lat.push(self.step());
        }
        median(&lat)
    }
}
