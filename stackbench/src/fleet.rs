//! `fleet-d32`: a 2-shard NSG fleet (`ShardSet::build`, one worker per
//! shard) behind `BatchQueue`, driven by two closed-loop client threads
//! that each submit one query at a time.
//!
//! The traced run wraps the `ShardedEngine` in a timing `BatchExecutor`,
//! so every client request splits into admission wait, batch execute and
//! hand-back; it then calls each shard's `AnnIndex::search`, `merge_topk`,
//! `ShardedEngine::search_one` and a one-query `search_batch` directly on
//! the same queries to split execute into scatter, search and merge.
//!
//! Thread wake-ups across cores set this workload's tail, so its
//! end-to-end figures drift between runs far beyond any bound a change
//! could be held to, and it is not one of the gated workloads. Its layers
//! are measured anyway: `churn-d32`'s traced run calls [`layer_probe`].

use std::cell::RefCell;
use std::collections::HashMap;
use std::sync::Mutex;
use std::time::{Duration, Instant};

use weavess_core::algorithms::nsg::{self, NsgParams};
use weavess_core::shard::{
    merge_topk, BatchExecutor, BatchQueue, QueueOptions, ShardSet, ShardedEngine,
};
use weavess_core::telemetry::profile_build;
use weavess_core::{AnnIndex, EngineOptions, NodeLayout, SearchContext, SearchStats};
use weavess_data::{Dataset, Neighbor};

use crate::exact::{check_result, exact_topk_all, l2_f64, recall, same_result};
use crate::probe::{graph_digest, route_batches, time_batches, Linker, Phases};
use crate::search::BUILD_SEED;
use crate::trace::{self_times, Recorder};
use crate::util::{
    fast_rate, fast_time, median, peak_rss_mb, percentile, uniform_edges, window_percentiles,
    window_rates, Digest,
};
use crate::{guarded, inputs, Outcome, Run, BEAM, K};

const SHARDS: usize = 2;
const CLIENTS: usize = 2;
const PARTITION_SEED: u64 = 0x5EED;
/// Fleet builds per run; `setup_s` is their median.
const BUILDS: usize = 3;
const TRACE_SLICES: u32 = 4;
/// Batch-close budget: far below one shard search (about 60 µs on the
/// 20 000 × 32 base), so a lone query is not held back long waiting for a
/// partner.
const MAX_DELAY: Duration = Duration::from_micros(20);
/// Width of the windows whose fast quartiles give the end-to-end timings.
const WINDOW_NS: u64 = 500_000_000;
/// How long the linking-step probe runs.
const LINK_TIME: Duration = Duration::from_secs(1);

fn query_key(q: &[f32]) -> u64 {
    let mut d = Digest::default();
    for x in q {
        d.word(x.to_bits() as u64);
    }
    d.0
}

/// One executed batch, as the timing executor saw it.
struct BatchRec {
    start: Instant,
    end: Instant,
    qids: Vec<u32>,
}

/// A `BatchExecutor` that times every batch it runs on the wrapped engine.
struct TimedExec<'a> {
    inner: &'a ShardedEngine<'a>,
    keys: &'a HashMap<u64, u32>,
    log: Mutex<Vec<BatchRec>>,
}

impl BatchExecutor for TimedExec<'_> {
    fn dim(&self) -> usize {
        BatchExecutor::dim(self.inner)
    }

    fn execute(&self, queries: &Dataset, k: usize, beam: usize) -> Vec<Vec<Neighbor>> {
        let start = Instant::now();
        let res = self.inner.execute(queries, k, beam);
        let end = Instant::now();
        let qids = (0..queries.len() as u32)
            .map(|i| {
                self.keys
                    .get(&query_key(queries.point(i)))
                    .copied()
                    .unwrap_or(u32::MAX)
            })
            .collect();
        self.log
            .lock()
            .expect("batch log poisoned by a panicking batch")
            .push(BatchRec { start, end, qids });
        res
    }
}

/// What one client thread brings back from a phase.
#[derive(Default)]
struct ClientLog {
    ops: u64,
    failed: u64,
    errors: Vec<String>,
    /// `(completion ns since the phase began, latency ns)` per request.
    lat_ns: Vec<(u64, f64)>,
    /// `(query id, submit start, submit end)` per request, traced phases only.
    reqs: Vec<(u32, Instant, Instant)>,
}

/// Runs `CLIENTS` closed-loop clients against `queue` for `dur`.
fn phase<E: BatchExecutor + ?Sized>(
    queue: &BatchQueue<'_, E>,
    queries: &Dataset,
    refs: &[Vec<Neighbor>],
    dur: Duration,
    cursor: &mut [usize; CLIENTS],
    traced: bool,
) -> (Vec<ClientLog>, f64) {
    let nq = queries.len();
    let start = Instant::now();
    let logs: Vec<ClientLog> = std::thread::scope(|s| {
        let handles: Vec<_> = cursor
            .iter_mut()
            .enumerate()
            .map(|(c, next)| {
                s.spawn(move || {
                    let mut log = ClientLog::default();
                    loop {
                        // Client c walks the queries congruent to c.
                        let qi = (c + CLIENTS * *next) % nq;
                        *next += 1;
                        let q = queries.point(qi as u32);
                        let t0 = Instant::now();
                        let r = guarded(|| queue.submit(q));
                        let t1 = Instant::now();
                        log.lat_ns
                            .push(((t1 - start).as_nanos() as u64, (t1 - t0).as_nanos() as f64));
                        if traced {
                            log.reqs.push((qi as u32, t0, t1));
                        }
                        log.ops += 1;
                        let err = match r {
                            Ok(res) if same_result(&res, &refs[qi]) => None,
                            Ok(_) => {
                                Some(format!("query {qi}: answer differs from its first answer"))
                            }
                            Err(e) => Some(e),
                        };
                        if let Some(e) = err {
                            log.failed += 1;
                            if log.errors.len() < 4 {
                                log.errors.push(e);
                            }
                        }
                        if t1 - start >= dur {
                            return log;
                        }
                    }
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("client thread"))
            .collect()
    });
    (logs, start.elapsed().as_secs_f64())
}

/// The built fleet and its set-up accounting.
struct Fleet {
    set: ShardSet,
    setup_s: Vec<f64>,
    graph_s: Vec<f64>,
    layout_s: Vec<f64>,
    phases: Vec<Phases>,
    digest: u64,
}

/// `builds` identical fleet constructions over `base`; the first is kept
/// and every rebuild must reproduce its graphs and distance work.
fn build_fleet(
    run: &Run,
    base: &Dataset,
    builds: usize,
    out: &mut Outcome,
    rec: &mut Recorder,
) -> Fleet {
    let (mut setup_s, mut graph_s, mut layout_s, mut phases) =
        (Vec::new(), Vec::new(), Vec::new(), Vec::new());
    let mut set: Option<ShardSet> = None;
    let mut first_digest = 0u64;
    for b in 0..builds {
        let shard_builds: RefCell<Vec<(f64, Phases)>> = RefCell::new(Vec::new());
        let t0 = rec.now();
        let built = ShardSet::build(
            base,
            SHARDS,
            PARTITION_SEED,
            NodeLayout::Fused,
            false,
            run.threads,
            |ds, s| {
                let params = NsgParams::tuned(run.threads, BUILD_SEED + s as u64).with_rnn_c1();
                let t = Instant::now();
                let (flat, prof) = profile_build("nsg", || nsg::build(ds, &params));
                shard_builds
                    .borrow_mut()
                    .push((t.elapsed().as_secs_f64(), Phases::from_profile(&prof)));
                flat
            },
        )
        .expect("a fleet over non-empty shards");
        let t1 = rec.now();
        rec.record(0, b as u64, "fleet.build", t0, t1);
        let total = (t1 - t0) as f64 / 1e9;
        let shard_builds = shard_builds.into_inner();
        let graph: f64 = shard_builds.iter().map(|(s, _)| s).sum();
        let mut ph = Phases::default();
        shard_builds.iter().for_each(|(_, p)| ph.add(*p));
        setup_s.push(total);
        graph_s.push(graph);
        layout_s.push(total - graph);
        let mut d = Digest::default();
        for sh in built.shards() {
            d.word(graph_digest(sh.index()));
        }
        if b == 0 {
            first_digest = d.0;
            set = Some(built);
        } else {
            if d.0 != first_digest {
                out.setup_errors
                    .push(format!("fleet build {b} produced different graphs"));
            }
            if ph.ndc != phases.first().map_or(0, |p: &Phases| p.ndc) {
                out.setup_errors
                    .push(format!("fleet build {b} did different distance work"));
            }
        }
        phases.push(ph);
    }
    Fleet {
        set: set.expect("at least one build"),
        setup_s,
        graph_s,
        layout_s,
        phases,
        digest: first_digest,
    }
}

/// Every query once through `search_one`, fully checked, plus each shard
/// searched directly (exact work counters; their merge must equal the
/// engine's answer). Returns the reference answers, the summed per-query
/// counters and the mean Recall@10 when ground truth is given.
fn reference_pass(
    set: &ShardSet,
    engine: &ShardedEngine<'_>,
    base: &Dataset,
    queries: &Dataset,
    truth: Option<&[Vec<(f64, u32)>]>,
    out: &mut Outcome,
) -> (Vec<Vec<Neighbor>>, SearchStats, f64) {
    let n = base.len();
    let mut ctxs: Vec<SearchContext> = set
        .shards()
        .iter()
        .map(|s| SearchContext::new(s.len()))
        .collect();
    let mut refs = Vec::with_capacity(queries.len());
    let mut stats = SearchStats::default();
    let mut recall_sum = 0.0;
    for qi in 0..queries.len() {
        let q = queries.point(qi as u32);
        let ex = |id: u32| l2_f64(q, base.point(id));
        let res = match guarded(|| engine.search_one(q, K, BEAM)) {
            Ok(res) => {
                out.op(check_result(&res, K.min(n), n, |_| true, ex)
                    .map_err(|e| format!("query {qi}: {e}")));
                if let Some(t) = truth {
                    recall_sum += recall(&res, &t[qi], K, ex);
                }
                res
            }
            Err(e) => {
                out.op(Err(e));
                Vec::new()
            }
        };
        let mut per_query = SearchStats::default();
        let pools: Vec<Vec<Neighbor>> = set
            .shards()
            .iter()
            .zip(&mut ctxs)
            .map(|(sh, ctx)| {
                ctx.stats = SearchStats::default();
                let mut pool = sh.index().search(sh.data(), q, K, BEAM, ctx);
                per_query.ndc += ctx.stats.ndc;
                per_query.hops += ctx.stats.hops;
                per_query.pool_peak = per_query.pool_peak.max(ctx.stats.pool_peak);
                pool.iter_mut().for_each(|nb| nb.id = sh.to_global(nb.id));
                pool
            })
            .collect();
        stats.merge(per_query);
        out.op(if same_result(&merge_topk(&pools, K), &res) {
            Ok(())
        } else {
            Err(format!(
                "query {qi}: merged shard answers differ from the engine"
            ))
        });
        refs.push(res);
    }
    (refs, stats, recall_sum / queries.len() as f64)
}

/// Adds the clients' logs into `out`; returns the operations they made.
fn absorb(out: &mut Outcome, logs: &[ClientLog], lat: &mut Vec<(u64, f64)>) -> u64 {
    let mut ops = 0;
    for l in logs {
        ops += l.ops;
        out.attempted += l.ops;
        out.failed += l.failed;
        out.errors.extend(
            l.errors
                .iter()
                .take(8usize.saturating_sub(out.errors.len()))
                .cloned(),
        );
        lat.extend_from_slice(&l.lat_ns);
    }
    ops
}

fn queue_options() -> QueueOptions {
    QueueOptions {
        max_batch: CLIENTS,
        max_delay: MAX_DELAY,
        k: K,
        beam: BEAM,
    }
}

/// Alternating untraced/traced queue phases over `dur`, then the fleet
/// waterfall. Sets the `queue.*` and `shard.*` metrics and returns the
/// traced-vs-untraced QPS overhead, the hand-back (unattributed) share and
/// the p50 summed shard search time per query (µs).
#[allow(clippy::too_many_arguments)]
fn traced_queue(
    set: &ShardSet,
    engine: &ShardedEngine<'_>,
    queries: &Dataset,
    refs: &[Vec<Neighbor>],
    dur: Duration,
    out: &mut Outcome,
    rec: &mut Recorder,
) -> (f64, f64, f64) {
    let keys: HashMap<u64, u32> = (0..queries.len() as u32)
        .map(|qi| (query_key(queries.point(qi)), qi))
        .collect();
    let timed = TimedExec {
        inner: engine,
        keys: &keys,
        log: Mutex::new(Vec::new()),
    };
    let slice = dur / (2 * TRACE_SLICES);
    let mut cursor = [0usize; CLIENTS];
    let (mut ops_u, mut secs_u, mut ops_t, mut secs_t) = (0u64, 0.0, 0u64, 0.0);
    let (mut lat_u, mut lat_t, mut reqs) = (Vec::new(), Vec::new(), Vec::new());
    let (mut batches_total, mut queued_total) = (0u64, 0u64);
    for _ in 0..TRACE_SLICES {
        let queue = BatchQueue::new(engine, queue_options());
        let (logs, secs) = phase(&queue, queries, refs, slice, &mut cursor, false);
        ops_u += absorb(out, &logs, &mut lat_u);
        secs_u += secs;
        let queue = BatchQueue::new(&timed, queue_options());
        let (logs, secs) = phase(&queue, queries, refs, slice, &mut cursor, true);
        ops_t += absorb(out, &logs, &mut lat_t);
        secs_t += secs;
        let st = queue.stats();
        batches_total += st.batches_total;
        queued_total += st.queries_total;
        reqs.extend(logs.into_iter().flat_map(|l| l.reqs));
    }
    out.set(
        "queue.batch_size_mean",
        queued_total as f64 / batches_total.max(1) as f64,
    );
    let batches = timed
        .log
        .into_inner()
        .expect("batch log poisoned by a panicking batch");
    let (handback, query_p50_us) =
        trace_fleet(out, rec, set, engine, queries, refs, &batches, &reqs);
    let (qu, qt) = (ops_u as f64 / secs_u, ops_t as f64 / secs_t);
    (1.0 - qt / qu, handback, query_p50_us)
}

/// The serving-path layers for another workload's traced run: a fleet
/// over `base` answering `queries` through the queue for `dur`. Sets the
/// `queue.*` and `shard.*` metrics; returns the hand-back share of client
/// latency (the fleet waterfall's unattributed part).
pub fn layer_probe(
    run: &Run,
    base: &Dataset,
    queries: &Dataset,
    dur: Duration,
    out: &mut Outcome,
    rec: &mut Recorder,
) -> f64 {
    let fleet = build_fleet(run, base, 1, out, rec);
    let engine = ShardedEngine::with_options(
        &fleet.set,
        EngineOptions {
            workers: 1,
            ..EngineOptions::default()
        },
    );
    let (refs, _, _) = reference_pass(&fleet.set, &engine, base, queries, None, out);
    out.param(
        "fleet_probe",
        format!(
            "{SHARDS} shards, {CLIENTS} clients, max_batch={CLIENTS}, max_delay_us={}",
            MAX_DELAY.as_micros()
        ),
    );
    traced_queue(&fleet.set, &engine, queries, &refs, dur, out, rec).1
}

pub fn run(run: &Run) -> Outcome {
    let mut out = Outcome::default();
    let nq = 1_000;
    out.param("data", format!("{} queries={nq}", inputs::zipf_describe()));
    out.param(
        "index",
        format!("{SHARDS} shards, NSG tuned, RNN-Descent C1, fused layout, 1 worker per shard"),
    );
    out.param(
        "queue",
        format!("max_batch={CLIENTS} max_delay_us={}", MAX_DELAY.as_micros()),
    );
    out.param(
        "client",
        format!("{CLIENTS} threads, closed loop, one query per submit"),
    );
    out.param("builds_per_run", BUILDS);
    let (w, base) = inputs::zipf_base();
    let queries = w.extra_queries(nq, run.stream_seed(2));
    let mut rec = Recorder::new(Instant::now());

    let fleet = build_fleet(run, &base, BUILDS, &mut out, &mut rec);
    let engine = ShardedEngine::with_options(
        &fleet.set,
        EngineOptions {
            workers: 1,
            ..EngineOptions::default()
        },
    );
    let truth = exact_topk_all(&base, &queries, K, run.threads);
    let (refs, stats, recall_at_10) =
        reference_pass(&fleet.set, &engine, &base, &queries, Some(&truth), &mut out);

    out.set("recall_at_10", recall_at_10);
    out.set("setup_s", median(&fleet.setup_s));
    out.set("build.graph_s", median(&fleet.graph_s));
    out.set("build.layout_s", median(&fleet.layout_s));
    out.set(
        "build.c1_s",
        median(&fleet.phases.iter().map(|p| p.c1_s).collect::<Vec<_>>()),
    );
    out.set(
        "build.c2c3_s",
        median(&fleet.phases.iter().map(|p| p.c2c3_s).collect::<Vec<_>>()),
    );
    out.set(
        "build.c5_s",
        median(&fleet.phases.iter().map(|p| p.c5_s).collect::<Vec<_>>()),
    );
    out.set("build.ndc", fleet.phases[0].ndc as f64);
    out.set("search.ndc_per_query", stats.ndc as f64 / nq as f64);
    out.set("search.hops_per_query", stats.hops as f64 / nq as f64);
    out.set("search.pool_peak_max", stats.pool_peak as f64);
    out.exact("build_ndc", fleet.phases[0].ndc);
    out.exact("graph_digest", format!("{:016x}", fleet.digest));
    out.exact("recall_at_10", recall_at_10);
    out.exact("search_ndc", stats.ndc);
    out.exact("search_hops", stats.hops);
    out.exact("search_pool_peak", stats.pool_peak);
    out.exact("recall_queries", nq);

    if !run.trace {
        let queue = BatchQueue::new(&engine, queue_options());
        let mut cursor = [0usize; CLIENTS];
        let (logs, secs) = phase(&queue, &queries, &refs, run.duration(), &mut cursor, false);
        let mut lat_ns = Vec::new();
        absorb(&mut out, &logs, &mut lat_ns);
        let windows = uniform_edges((secs * 1e9) as u64, WINDOW_NS);
        let done: Vec<u64> = lat_ns.iter().map(|l| l.0).collect();
        out.set("qps", fast_rate(&window_rates(&done, &windows)));
        out.set(
            "latency_p50_us",
            fast_time(&window_percentiles(&lat_ns, &windows, 50.0)) / 1e3,
        );
        out.set(
            "latency_p99_us",
            fast_time(&window_percentiles(&lat_ns, &windows, 99.0)) / 1e3,
        );
        let shard = &fleet.set.shards()[0];
        let points = (0..shard.len() as u32).step_by(10).collect();
        out.set(
            "insert_p50_us",
            Linker::new(shard.index(), shard.data(), run, points).run_for(LINK_TIME) / 1e3,
        );
    } else {
        let (overhead, handback, query_p50_us) = traced_queue(
            &fleet.set,
            &engine,
            &queries,
            &refs,
            run.duration(),
            &mut out,
            &mut rec,
        );
        out.set("trace.overhead_frac", overhead);
        out.set("trace.unattributed_frac", handback);
        out.set("search.us_per_query_p50", query_p50_us);
        fleet_kernel(&mut out, &fleet.set, &queries);
    }
    out.set("peak_rss_mb", peak_rss_mb());
    out.spans = rec.spans;
    out
}

/// The fleet waterfall: client latency = admission + execute + hand-back
/// per traced request, and execute = scatter + slowest shard search +
/// merge per batch, from direct calls on the same queries. Returns the
/// hand-back share of client latency (the part no stage span covers) and
/// the p50 of one logical query's summed per-shard search time (µs).
#[allow(clippy::too_many_arguments)]
fn trace_fleet(
    out: &mut Outcome,
    rec: &mut Recorder,
    set: &ShardSet,
    engine: &ShardedEngine<'_>,
    queries: &Dataset,
    refs: &[Vec<Neighbor>],
    batches: &[BatchRec],
    reqs: &[(u32, Instant, Instant)],
) -> (f64, f64) {
    let nq = queries.len();
    let mut by_query: HashMap<u32, Vec<usize>> = HashMap::new();
    for (b, br) in batches.iter().enumerate() {
        for &qi in &br.qids {
            by_query.entry(qi).or_default().push(b);
        }
    }
    let mut wait = Vec::new();
    let mut unmatched = 0u64;
    for (r, &(qi, t0, t1)) in reqs.iter().enumerate() {
        let found = by_query.get(&qi).and_then(|bs| {
            bs.iter()
                .find(|&&b| batches[b].start >= t0 && batches[b].end <= t1)
        });
        let Some(&b) = found else {
            unmatched += 1;
            continue;
        };
        let br = &batches[b];
        let (a, s, e, z) = (rec.at(t0), rec.at(br.start), rec.at(br.end), rec.at(t1));
        let root = rec.record(0, r as u64, "client.submit", a, z);
        rec.record(root, r as u64, "queue.admission", a, s);
        rec.record(root, r as u64, "shard.execute", s, e);
        let lat = (z - a) as f64;
        wait.push(lat - (e - s) as f64);
    }
    out.param("traced_requests_unmatched", unmatched);
    out.set("queue.wait_us_p50", percentile(&wait, 50.0) / 1e3);
    out.set("queue.wait_us_p99", percentile(&wait, 99.0) / 1e3);
    // The client span's self time is the part of the request neither the
    // admission nor the execute span covers: the hand-back to the caller.
    let (mut self_ns, mut total_ns) = (0u64, 0u64);
    for (s, (_, st)) in rec.spans.iter().zip(self_times(&rec.spans)) {
        if s.name == "client.submit" {
            self_ns += st;
            total_ns += s.dur_ns();
        }
    }
    let handback = self_ns as f64 / total_ns.max(1) as f64;
    let exec: Vec<f64> = batches
        .iter()
        .map(|b| (b.end - b.start).as_nanos() as f64)
        .collect();
    out.set("shard.execute_us_p50", percentile(&exec, 50.0) / 1e3);
    out.set("shard.execute_us_p99", percentile(&exec, 99.0) / 1e3);

    // Direct calls: each shard's search, the merge, search_one, batch-1.
    let shards = set.shards();
    let mut ctxs: Vec<SearchContext> = shards.iter().map(|s| SearchContext::new(s.len())).collect();
    // t_shard[query][shard]: each shard's direct search time (ns).
    let mut t_shard: Vec<Vec<f64>> = Vec::with_capacity(nq);
    let (mut t_merge, mut t_one, mut t_b1, mut t_query) =
        (Vec::new(), Vec::new(), Vec::new(), Vec::new());
    let check = |out: &mut Outcome, qi: usize, res: Result<Vec<Neighbor>, String>, what: &str| {
        out.op(match res {
            Ok(r) if same_result(&r, &refs[qi]) => Ok(()),
            Ok(_) => Err(format!("query {qi}: {what} answer differs")),
            Err(e) => Err(e),
        })
    };
    for qi in 0..nq {
        let q = queries.point(qi as u32);
        let mut pools = Vec::with_capacity(shards.len());
        let mut times = Vec::with_capacity(shards.len());
        for (sh, ctx) in shards.iter().zip(&mut ctxs) {
            let t = Instant::now();
            let mut pool = sh.index().search(sh.data(), q, K, BEAM, ctx);
            times.push(t.elapsed().as_nanos() as f64);
            pool.iter_mut().for_each(|nb| nb.id = sh.to_global(nb.id));
            pools.push(pool);
        }
        t_query.push(times.iter().sum::<f64>());
        t_shard.push(times);
        let t = Instant::now();
        let merged = merge_topk(&pools, K);
        t_merge.push(t.elapsed().as_nanos() as f64);
        check(out, qi, Ok(merged), "merged");

        let t = Instant::now();
        let one = guarded(|| engine.search_one(q, K, BEAM));
        t_one.push(t.elapsed().as_nanos() as f64);
        check(out, qi, one, "search_one");

        let single = Dataset::from_flat(q.to_vec(), 1, q.len());
        let t = Instant::now();
        let b1 = guarded(|| {
            engine
                .search_batch(&single, K, BEAM)
                .results
                .pop()
                .unwrap_or_default()
        });
        t_b1.push(t.elapsed().as_nanos() as f64);
        check(out, qi, b1, "batch-1");
    }
    let all_shard: Vec<f64> = t_shard.iter().flatten().copied().collect();
    out.set("shard.search_us_p50", percentile(&all_shard, 50.0) / 1e3);
    out.set("shard.merge_us_p50", percentile(&t_merge, 50.0) / 1e3);
    out.set("shard.search_one_us_p50", percentile(&t_one, 50.0) / 1e3);
    out.set("shard.batch1_us_p50", percentile(&t_b1, 50.0) / 1e3);
    let scatter: Vec<f64> = batches
        .iter()
        .zip(&exec)
        .filter(|(b, _)| b.qids.iter().all(|&q| (q as usize) < nq))
        .map(|(b, e)| {
            let slowest = (0..shards.len())
                .map(|s| b.qids.iter().map(|&q| t_shard[q as usize][s]).sum::<f64>())
                .fold(0.0, f64::max);
            let merge: f64 = b.qids.iter().map(|&q| t_merge[q as usize]).sum();
            e - slowest - merge
        })
        .collect();
    out.set("shard.scatter_us_p50", percentile(&scatter, 50.0) / 1e3);

    (handback, percentile(&t_query, 50.0) / 1e3)
}

/// Kernel replay over every shard's routes: `distance.ns_per_dist` and the
/// search waterfall (kernel + loop) of a logical query across shards.
fn fleet_kernel(out: &mut Outcome, set: &ShardSet, queries: &Dataset) {
    let nq = queries.len();
    let (mut kernel_ns, mut ids) = (0.0, 0u64);
    for sh in set.shards() {
        let mut ctx = SearchContext::new(sh.len());
        let mut visited = vec![false; sh.len()];
        let routes: Vec<_> = (0..nq)
            .map(|qi| {
                route_batches(
                    sh.index(),
                    sh.data(),
                    queries.point(qi as u32),
                    &mut ctx,
                    &mut visited,
                )
            })
            .collect();
        let qs: Vec<&[f32]> = (0..nq).map(|qi| queries.point(qi as u32)).collect();
        kernel_ns += time_batches(sh.data(), &qs, &routes, 3).iter().sum::<f64>();
        ids += routes.iter().map(|b| b.ids.len() as u64).sum::<u64>();
    }
    let ns_per_dist = kernel_ns / ids.max(1) as f64;
    let p50_us = out.metrics["search.us_per_query_p50"];
    let kernel_us = out.metrics["search.ndc_per_query"] * ns_per_dist / 1e3;
    out.set("distance.ns_per_dist", ns_per_dist);
    out.set("search.kernel_us_per_query", kernel_us);
    out.set("search.loop_us_per_query", p50_us - kernel_us);
}
