//! `search-d32` and `search-d960`: one NSG index (RNN-Descent C1, fused
//! node layout) queried by a single closed-loop client calling
//! `AnnIndex::search`.
//!
//! - `search-d32`: `ZipfWorkload` data, 8 clusters with Zipf(1.5) query
//!   traffic, so a hot working set; the search loop's own machinery is a
//!   large share of each query.
//! - `search-d960`: the GIST1M stand-in (dim 960, LID ≈ 19) with queries
//!   drawn from the data distribution; the distance kernel is nearly all
//!   of each query and of the build.

use std::time::Instant;

use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;

use weavess_core::algorithms::nsg::{self, NsgParams};
use weavess_core::telemetry::profile_build;
use weavess_core::{AnnIndex, LayoutIndex, NodeLayout, SearchContext, SearchStats};
use weavess_data::{Dataset, Neighbor};

use crate::exact::{check_result, exact_topk_all, l2_f64, recall, same_result};
use crate::probe::{graph_digest, route_batches, time_batches, Linker, Phases};
use crate::trace::{durations, Recorder};
use crate::util::{composite, median, peak_rss_mb, percentile};
use crate::{guarded, inputs, Outcome, Run, BEAM, K};

/// Construction seed (a program parameter, not an input).
pub const BUILD_SEED: u64 = 7;
/// Index builds per run; `setup_s` is their median.
const BUILDS: usize = 3;
/// Points linked once per round.
const LINK_POINTS: usize = 100;
/// Operations (searches or linking steps) per chunk of the composite round.
const CHUNK_OPS: usize = 50;
/// Untraced rounds every run makes, even past `--seconds`.
const MIN_ROUNDS: usize = 3;

/// The workload's inputs.
struct Inputs {
    base: Dataset,
    queries: Dataset,
}

fn inputs(run: &Run, out: &mut Outcome) -> Inputs {
    let (base, queries) = if run.workload == "search-d32" {
        let nq = 4_000;
        out.param("data", format!("{} queries={nq}", inputs::zipf_describe()));
        let (w, base) = inputs::zipf_base();
        (base, w.extra_queries(nq, run.stream_seed(1)))
    } else {
        let (base, queries, desc) = inputs::gist_standin(1_000, run.stream_seed(1));
        out.param("data", desc);
        (base, queries)
    };
    Inputs { base, queries }
}

/// One pass of the closed loop: every query once, in order, each answer
/// compared bit for bit with that query's checked first answer. Appends
/// each query's nanoseconds to `lat_ns`.
fn pass(
    index: &LayoutIndex,
    inp: &Inputs,
    refs: &[Vec<Neighbor>],
    ctx: &mut SearchContext,
    out: &mut Outcome,
    lat_ns: &mut Vec<f64>,
    mut rec: Option<&mut Recorder>,
) {
    for (qi, reference) in refs.iter().enumerate() {
        let q = inp.queries.point(qi as u32);
        let t0 = Instant::now();
        let r = guarded(|| index.search(&inp.base, q, K, BEAM, ctx));
        let t1 = Instant::now();
        lat_ns.push((t1 - t0).as_nanos() as f64);
        if let Some(rec) = rec.as_deref_mut() {
            let (a, b) = (rec.at(t0), rec.at(t1));
            rec.record(0, qi as u64, "search", a, b);
        }
        out.op(match r {
            Ok(res) if same_result(&res, reference) => Ok(()),
            Ok(_) => Err(format!("query {qi}: answer differs from its first answer")),
            Err(e) => {
                *ctx = SearchContext::new(inp.base.len());
                Err(e)
            }
        });
    }
}

pub fn run(run: &Run) -> Outcome {
    let mut out = Outcome::default();
    let inp = inputs(run, &mut out);
    let (n, nq) = (inp.base.len(), inp.queries.len());
    out.param(
        "index",
        "NSG tuned, RNN-Descent C1, fused layout, no reorder",
    );
    out.param("builds_per_run", BUILDS);
    out.param("client", "1 thread, closed loop");
    let epoch = Instant::now();
    let mut rec = Recorder::new(epoch);

    // Set-up: BUILDS identical constructions; only these calls are timed.
    let params = NsgParams::tuned(run.threads, BUILD_SEED).with_rnn_c1();
    let (mut setup_s, mut graph_s, mut layout_s) = (Vec::new(), Vec::new(), Vec::new());
    let mut phases = Vec::new();
    let mut index: Option<LayoutIndex> = None;
    let mut first_digest = 0u64;
    for b in 0..BUILDS {
        let t0 = rec.now();
        let (flat, prof) = profile_build("nsg", || nsg::build(&inp.base, &params));
        let t1 = rec.now();
        let idx = LayoutIndex::try_from_flat(flat, &inp.base, NodeLayout::Fused, false)
            .expect("layout over a non-empty dataset");
        let t2 = rec.now();
        let root = rec.record(0, b as u64, "build", t0, t2);
        rec.record(root, b as u64, "build.graph", t0, t1);
        rec.record(root, b as u64, "build.layout", t1, t2);
        setup_s.push((t2 - t0) as f64 / 1e9);
        graph_s.push((t1 - t0) as f64 / 1e9);
        layout_s.push((t2 - t1) as f64 / 1e9);
        let ph = Phases::from_profile(&prof);
        let digest = graph_digest(&idx);
        if b == 0 {
            first_digest = digest;
            index = Some(idx);
        } else {
            if digest != first_digest {
                out.setup_errors
                    .push(format!("build {b} produced a different graph"));
            }
            if ph.ndc != phases.first().map_or(0, |p: &Phases| p.ndc) {
                out.setup_errors
                    .push(format!("build {b} did different distance work"));
            }
        }
        phases.push(ph);
    }
    let index = index.expect("at least one build");

    // Exact ground truth, outside every timed phase.
    let truth = exact_topk_all(&inp.base, &inp.queries, K, run.threads);

    // Recall pass: every query once, fully checked; these answers are the
    // references the timed phase compares against.
    let mut ctx = SearchContext::new(n);
    let mut refs = Vec::with_capacity(nq);
    let mut stats = SearchStats::default();
    let mut recall_sum = 0.0;
    for (qi, t) in truth.iter().enumerate() {
        let q = inp.queries.point(qi as u32);
        ctx.stats = SearchStats::default();
        let ex = |id: u32| l2_f64(q, inp.base.point(id));
        match guarded(|| index.search(&inp.base, q, K, BEAM, &mut ctx)) {
            Ok(res) => {
                out.op(check_result(&res, K.min(n), n, |_| true, ex)
                    .map_err(|e| format!("query {qi}: {e}")));
                recall_sum += recall(&res, t, K, ex);
                refs.push(res);
            }
            Err(e) => {
                ctx = SearchContext::new(n);
                out.op(Err(e));
                refs.push(Vec::new());
            }
        }
        stats.merge(ctx.stats);
    }
    let recall_at_10 = recall_sum / nq as f64;

    // Timed phase: rounds of identical work, each one pass over the
    // queries then one NSG linking step per link point; the end-to-end
    // timings come from the fastest replay of each chunk of a round.
    // Traced, odd rounds record spans.
    //
    // Link points follow the query demand: each query's exact nearest base
    // point, as new data arrives where the traffic is.
    let mut points: Vec<u32> = truth
        .iter()
        .filter_map(|t| t.first().map(|x| x.1))
        .collect();
    points.sort_unstable();
    points.dedup();
    points.shuffle(&mut StdRng::seed_from_u64(run.stream_seed(7)));
    points.truncate(LINK_POINTS);
    let links = points.len();
    let mut linker = Linker::new(&index, &inp.base, run, points);
    let (mut untraced, mut traced) = (Vec::new(), Vec::new());
    let start = Instant::now();
    while untraced.len() < MIN_ROUNDS || start.elapsed() < run.duration() {
        let traces = run.trace && untraced.len() > traced.len();
        let mut lat = Vec::with_capacity(nq + links);
        pass(
            &index,
            &inp,
            &refs,
            &mut ctx,
            &mut out,
            &mut lat,
            traces.then_some(&mut rec),
        );
        lat.extend((0..links).map(|_| linker.step()));
        if traces { &mut traced } else { &mut untraced }.push(lat);
    }
    out.param("rounds", untraced.len() + traced.len());
    let qps = |round: &[f64]| nq as f64 / (round[..nq].iter().sum::<f64>() / 1e9);
    let best = composite(&untraced, CHUNK_OPS);
    let (search_ns, link_ns) = best.split_at(nq);
    out.set("qps", qps(&best));
    out.set("latency_p50_us", percentile(search_ns, 50.0) / 1e3);
    out.set("latency_p99_us", percentile(search_ns, 99.0) / 1e3);
    // A static index has no insert call: its insert cost is the builder's
    // per-point linking step.
    out.set("insert_p50_us", percentile(link_ns, 50.0) / 1e3);
    let overhead = if run.trace {
        1.0 - qps(&composite(&traced, CHUNK_OPS)) / qps(&best)
    } else {
        0.0
    };
    out.set("recall_at_10", recall_at_10);
    out.set("setup_s", median(&setup_s));
    out.set("peak_rss_mb", peak_rss_mb());

    out.set("build.graph_s", median(&graph_s));
    out.set("build.layout_s", median(&layout_s));
    out.set(
        "build.c1_s",
        median(&phases.iter().map(|p| p.c1_s).collect::<Vec<_>>()),
    );
    out.set(
        "build.c2c3_s",
        median(&phases.iter().map(|p| p.c2c3_s).collect::<Vec<_>>()),
    );
    out.set(
        "build.c5_s",
        median(&phases.iter().map(|p| p.c5_s).collect::<Vec<_>>()),
    );
    out.set("build.ndc", phases[0].ndc as f64);
    out.set("search.ndc_per_query", stats.ndc as f64 / nq as f64);
    out.set("search.hops_per_query", stats.hops as f64 / nq as f64);
    out.set("search.pool_peak_max", stats.pool_peak as f64);

    out.exact("build_ndc", phases[0].ndc);
    out.exact("graph_digest", format!("{first_digest:016x}"));
    out.exact("recall_at_10", recall_at_10);
    out.exact("search_ndc", stats.ndc);
    out.exact("search_hops", stats.hops);
    out.exact("search_pool_peak", stats.pool_peak);
    out.exact("recall_queries", nq);

    if run.trace {
        out.set("trace.overhead_frac", overhead);
        let search_ns = durations(&rec.spans, "search");
        let p50_us = percentile(&search_ns, 50.0) / 1e3;
        out.set("search.us_per_query_p50", p50_us);

        // Kernel probe: each query's search timed once more, then the exact
        // batches its route scored replayed through dist_to_many.
        let mut visited = vec![false; n];
        let mut batches = Vec::with_capacity(nq);
        let mut t_search = Vec::with_capacity(nq);
        for (qi, reference) in refs.iter().enumerate() {
            let q = inp.queries.point(qi as u32);
            let t0 = rec.now();
            let r = guarded(|| index.search(&inp.base, q, K, BEAM, &mut ctx));
            let t1 = rec.now();
            rec.record(0, qi as u64, "probe.search", t0, t1);
            t_search.push((t1 - t0) as f64);
            out.op(match r {
                Ok(res) if same_result(&res, reference) => Ok(()),
                Ok(_) => Err(format!("query {qi}: probe answer differs")),
                Err(e) => Err(e),
            });
            batches.push(route_batches(&index, &inp.base, q, &mut ctx, &mut visited));
        }
        let qs: Vec<&[f32]> = (0..nq).map(|qi| inp.queries.point(qi as u32)).collect();
        let t_kernel = time_batches(&inp.base, &qs, &batches, 3);
        let ids: u64 = batches.iter().map(|b| b.ids.len() as u64).sum();
        let ns_per_dist = t_kernel.iter().sum::<f64>() / ids.max(1) as f64;
        let kernel_us = stats.ndc as f64 / nq as f64 * ns_per_dist / 1e3;
        out.set("distance.ns_per_dist", ns_per_dist);
        out.set("search.kernel_us_per_query", kernel_us);
        out.set("search.loop_us_per_query", p50_us - kernel_us);
        // The loop is the remainder, so the search waterfall leaves time
        // unattributed only where a query's kernel replay outlasts its
        // search (a negative remainder).
        let over: f64 = t_search
            .iter()
            .zip(&t_kernel)
            .map(|(s, k)| (k - s).max(0.0))
            .sum();
        let unattributed = over / t_search.iter().sum::<f64>().max(1.0);
        out.set("trace.unattributed_frac", unattributed);
        out.param("replay_dists_per_query", ids as f64 / nq as f64);
    }
    out.spans = rec.spans;
    out
}
