//! `churn-d32`: `DynamicHnsw::bulk_load`, then one thread runs a seeded
//! stream of 80% searches, 10% inserts and 10% deletes (the live size
//! stays about constant), calling `consolidate()` after every block of
//! deletes worth 5% of the initial live set.
//!
//! The stream is a fixed plan of [`BLOCKS`] delete blocks, each ended by
//! its consolidation, drawn from the seed before anything is timed. The
//! timed phase runs rounds: each round bulk-loads a fresh index (one
//! `setup_s` sample) and replays the whole plan on it, so every round does
//! the same work and gives the same answers, which is checked. The
//! end-to-end timings come from the fastest replay of each chunk of the
//! plan ([`composite`]). Recall replays the plan afterwards on the
//! benchmark's own live set, so the exact neighbors of a sampled search are
//! those of the live points at the moment it ran.

use std::time::Instant;

use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::{Rng, SeedableRng};
use weavess_core::algorithms::hnsw::HnswParams;
use weavess_core::algorithms::hnsw_dynamic::DynamicHnsw;
use weavess_core::telemetry::profile_build;
use weavess_data::{Dataset, Neighbor};

use crate::exact::{check_result, exact_topk, l2_f64, recall};
use crate::probe::{time_batches, Batches, Phases};
use crate::search::BUILD_SEED;
use crate::trace::{durations, Recorder};
use crate::util::{composite, mean, median, peak_rss_mb, percentile, Digest};
use crate::{fleet, guarded, inputs, Outcome, Run, BEAM, K};

const N: usize = inputs::ZIPF_N;
const QUERIES: usize = 1_000;
/// Deletes between consolidations: 5% of the initial live set.
const DELETES_PER_CONSOLIDATE: u64 = (N / 20) as u64;
/// Delete blocks in the plan every round replays.
const BLOCKS: usize = 2;
/// Operations of one block, before its consolidation: exactly 80%
/// searches, 10% inserts and 10% deletes, in seeded order.
const BLOCK_OPS: usize = 10 * DELETES_PER_CONSOLIDATE as usize;
/// Operations per chunk of the composite round.
const CHUNK_OPS: usize = 1_000;
/// Rounds every run makes, even past `--seconds` (twice this when traced:
/// half of them traced).
const MIN_ROUNDS: usize = 3;
/// One search in this many gets exact ground truth.
const RECALL_SAMPLE: u64 = 16;

#[derive(Debug, Clone, Copy)]
enum Op {
    Search { qi: u32 },
    Insert { id: u32 },
    Delete { id: u32 },
    Consolidate,
}

/// Draws the plan from the seed: [`BLOCKS`] blocks, each a shuffle of the
/// exact operation mix ended by a consolidation; the queried points, and
/// the deleted ids (uniform over the live set at that moment). Every seed's
/// plan thus has the same operation counts. Returns it with the number of
/// inserts it makes.
fn plan(run: &Run) -> (Vec<Op>, usize) {
    let mut rng = StdRng::seed_from_u64(run.stream_seed(5));
    let mut live_ids: Vec<u32> = (0..N as u32).collect();
    let mut next_id = N as u32;
    let (deletes, inserts) = (DELETES_PER_CONSOLIDATE as usize, BLOCK_OPS / 10);
    let mut plan = Vec::with_capacity(BLOCKS * (BLOCK_OPS + 1));
    for _ in 0..BLOCKS {
        // 0 = search, 1 = insert, 2 = delete.
        let mut kinds = vec![0u8; BLOCK_OPS - inserts - deletes];
        kinds.extend(std::iter::repeat_n(1, inserts));
        kinds.extend(std::iter::repeat_n(2, deletes));
        kinds.shuffle(&mut rng);
        for kind in kinds {
            plan.push(match kind {
                0 => Op::Search {
                    qi: rng.gen_range(0..QUERIES as u32),
                },
                1 => {
                    live_ids.push(next_id);
                    next_id += 1;
                    Op::Insert { id: next_id - 1 }
                }
                _ => {
                    let pick = rng.gen_range(0..live_ids.len());
                    Op::Delete {
                        id: live_ids.swap_remove(pick),
                    }
                }
            });
        }
        plan.push(Op::Consolidate);
    }
    (plan, next_id as usize - N)
}

/// Work counts and the answers' digest of one round; every round of a run
/// must match the first.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
struct Work {
    search_ndc: u64,
    insert_ndc: u64,
    search_hops: u64,
    pool_peak: u64,
    answers: u64,
}

/// What one replay of the plan hands back.
struct Replay {
    /// Per-operation nanoseconds, in plan order.
    lat: Vec<f64>,
    work: Work,
    /// Answers of every [`RECALL_SAMPLE`]-th search.
    kept: Vec<Vec<Neighbor>>,
    tombstone_frac: f64,
}

/// Replays `plan` on a freshly loaded `index`, checking every operation
/// against the benchmark's own view of the live set.
fn replay(
    index: &mut DynamicHnsw,
    plan: &[Op],
    all: &Dataset,
    queries: &Dataset,
    out: &mut Outcome,
    mut rec: Option<&mut Recorder>,
) -> Replay {
    let mut live = vec![false; all.len()];
    live[..N].fill(true);
    let (mut n_live, mut n_ids) = (N, N as u32);
    let mut lat = Vec::with_capacity(plan.len());
    let (mut work, mut digest) = (Work::default(), Digest::default());
    let (mut kept, mut searches) = (Vec::new(), 0u64);
    for (i, op) in plan.iter().enumerate() {
        let t0 = Instant::now();
        let (name, r) = match *op {
            Op::Search { qi } => {
                let q = queries.point(qi);
                let r = guarded(|| index.search(q, K, BEAM));
                let t1 = Instant::now();
                lat.push((t1 - t0).as_nanos() as f64);
                let res = r.and_then(|res| {
                    check_result(
                        &res,
                        K.min(n_live),
                        n_ids as usize,
                        |id| live[id as usize],
                        |id| l2_f64(q, all.point(id)),
                    )
                    .map(|_| res)
                    .map_err(|e| format!("op {i} (search {qi}): {e}"))
                });
                let st = index.take_stats();
                work.search_ndc += st.ndc;
                work.search_hops += st.hops;
                work.pool_peak = work.pool_peak.max(st.pool_peak);
                let res = match res {
                    Ok(res) => {
                        for n in &res {
                            digest.word(((n.id as u64) << 32) | n.dist.to_bits() as u64);
                        }
                        out.op(Ok(()));
                        res
                    }
                    Err(e) => {
                        out.op(Err(e));
                        Vec::new()
                    }
                };
                if searches.is_multiple_of(RECALL_SAMPLE) {
                    kept.push(res);
                }
                searches += 1;
                span(rec.as_deref_mut(), i, "dynamic.search", t0, t1);
                continue;
            }
            Op::Insert { id } => {
                let r = guarded(|| index.insert(all.point(id)));
                work.insert_ndc += index.take_stats().ndc;
                live[id as usize] = true;
                n_live += 1;
                n_ids += 1;
                let r = match r {
                    Ok(got) if got == id => Ok(()),
                    Ok(got) => Err(format!("op {i}: insert returned id {got}, expected {id}")),
                    Err(e) => Err(e),
                };
                ("dynamic.insert", r)
            }
            Op::Delete { id } => {
                live[id as usize] = false;
                n_live -= 1;
                let r = guarded(|| index.delete(id));
                index.take_stats();
                let r = match r {
                    Ok(true) => Ok(()),
                    Ok(false) => Err(format!("op {i}: delete of live id {id} refused")),
                    Err(e) => Err(e),
                };
                ("dynamic.delete", r)
            }
            Op::Consolidate => {
                let r = guarded(|| index.consolidate());
                index.take_stats();
                let r = r.and_then(|_| match index.live_len() {
                    got if got == n_live => Ok(()),
                    got => Err(format!(
                        "op {i}: live_len {got} after consolidate, expected {n_live}"
                    )),
                });
                ("dynamic.consolidate", r)
            }
        };
        let t1 = Instant::now();
        lat.push((t1 - t0).as_nanos() as f64);
        span(rec.as_deref_mut(), i, name, t0, t1);
        out.op(r);
    }
    work.answers = digest.0;
    Replay {
        lat,
        work,
        kept,
        tombstone_frac: index.tombstone_fraction(),
    }
}

fn span(rec: Option<&mut Recorder>, req: usize, name: &'static str, t0: Instant, t1: Instant) {
    if let Some(rec) = rec {
        let (a, b) = (rec.at(t0), rec.at(t1));
        rec.record(0, req as u64, name, a, b);
    }
}

/// Times of the plan's operations of one kind in a (composite) round.
fn times_of(plan: &[Op], lat: &[f64], kind: fn(&Op) -> bool) -> Vec<f64> {
    plan.iter()
        .zip(lat)
        .filter(|(op, _)| kind(op))
        .map(|(_, &t)| t)
        .collect()
}

/// Searches, inserts and deletes per second of a (composite) round; its
/// time includes the consolidations.
fn rate(plan: &[Op], lat: &[f64]) -> f64 {
    let served = plan
        .iter()
        .filter(|op| !matches!(op, Op::Consolidate))
        .count();
    served as f64 / (lat.iter().sum::<f64>() / 1e9)
}

pub fn run(run: &Run) -> Outcome {
    let mut out = Outcome::default();
    let (w, base) = inputs::zipf_base();
    let queries = w.extra_queries(QUERIES, run.stream_seed(3));
    let (plan, inserts) = plan(run);
    // Base points, then the plan's insert points drawn from the query law:
    // id `i` is `all.point(i)`.
    let mut all = base.clone();
    let fresh = w.extra_queries(inserts.max(1), run.stream_seed(4));
    for i in 0..inserts as u32 {
        all.push(fresh.point(i));
    }
    out.param(
        "data",
        format!(
            "{} queries={QUERIES} inserts=extra_queries",
            inputs::zipf_describe()
        ),
    );
    out.param("index", "DynamicHnsw::bulk_load, HNSW tuned");
    out.param("mix", format!("80% search, 10% insert, 10% delete; consolidate every {DELETES_PER_CONSOLIDATE} deletes"));
    out.param("client", "1 thread, closed loop");
    out.param("round_ops", plan.len());
    out.param("chunk_ops", CHUNK_OPS);

    // Timed phase: rounds of bulk load + replay. Traced, odd rounds record
    // spans and the rounds stop at half the run; the fleet probe has the
    // other half.
    let epoch = Instant::now();
    let mut rec = Recorder::new(epoch);
    let params = HnswParams::tuned(run.threads, BUILD_SEED);
    let (mut setup_s, mut phases) = (Vec::new(), Vec::<Phases>::new());
    let (mut untraced, mut traced) = (Vec::new(), Vec::new());
    let mut first: Option<Replay> = None;
    let mut rss_mb = 0.0;
    let (min_rounds, until) = if run.trace {
        (2 * MIN_ROUNDS, run.duration() / 2)
    } else {
        (MIN_ROUNDS, run.duration())
    };
    let start = Instant::now();
    let mut round = 0usize;
    while round < min_rounds || start.elapsed() < until {
        let t0 = rec.now();
        let (mut index, prof) = profile_build("hnsw_dynamic", || {
            DynamicHnsw::bulk_load(&base, params.clone())
        });
        let t1 = rec.now();
        rec.record(0, round as u64, "build", t0, t1);
        setup_s.push((t1 - t0) as f64 / 1e9);
        let ph = Phases::from_profile(&prof);
        if phases.first().is_some_and(|p| p.ndc != ph.ndc) {
            out.setup_errors
                .push(format!("bulk load {round} did different distance work"));
        }
        phases.push(ph);
        let traces = run.trace && round % 2 == 1;
        let mut r = replay(
            &mut index,
            &plan,
            &all,
            &queries,
            &mut out,
            traces.then_some(&mut rec),
        );
        let lat = std::mem::take(&mut r.lat);
        if traces { &mut traced } else { &mut untraced }.push(lat);
        match &first {
            None => {
                rss_mb = peak_rss_mb();
                first = Some(r);
            }
            Some(f) if f.work != r.work => out.setup_errors.push(format!(
                "round {round} did different work or answered differently: {:?} then {:?}",
                f.work, r.work
            )),
            Some(_) => {}
        }
        round += 1;
    }
    let first = first.expect("at least one round");
    out.param("rounds", round);

    // Recall: replay the plan on the benchmark's own live set and compute
    // exact neighbors for every RECALL_SAMPLE-th search.
    let mut live = vec![false; all.len()];
    live[..N].fill(true);
    let (mut recall_sum, mut searches) = (0.0, 0usize);
    let mut counts = [0u64; 4];
    for op in &plan {
        match *op {
            Op::Search { qi } => {
                counts[0] += 1;
                if searches % RECALL_SAMPLE as usize == 0 {
                    let q = queries.point(qi);
                    let truth = exact_topk(&all, q, K, Some(&live));
                    let res = &first.kept[searches / RECALL_SAMPLE as usize];
                    recall_sum += recall(res, &truth, K, |id| l2_f64(q, all.point(id)));
                }
                searches += 1;
            }
            Op::Insert { id } => {
                counts[1] += 1;
                live[id as usize] = true;
            }
            Op::Delete { id } => {
                counts[2] += 1;
                live[id as usize] = false;
            }
            Op::Consolidate => counts[3] += 1,
        }
    }
    let sampled = first.kept.len();
    let recall_at_10 = recall_sum / sampled.max(1) as f64;

    let best = composite(&untraced, CHUNK_OPS);
    let search_ns = times_of(&plan, &best, |op| matches!(op, Op::Search { .. }));
    let insert_ns = times_of(&plan, &best, |op| matches!(op, Op::Insert { .. }));
    out.set("qps", rate(&plan, &best));
    out.set("latency_p50_us", percentile(&search_ns, 50.0) / 1e3);
    out.set("latency_p99_us", percentile(&search_ns, 99.0) / 1e3);
    out.set("recall_at_10", recall_at_10);
    out.set("insert_p50_us", percentile(&insert_ns, 50.0) / 1e3);
    out.set("setup_s", median(&setup_s));
    out.set("peak_rss_mb", rss_mb);
    let per_round: Vec<String> = untraced
        .iter()
        .map(|r| format!("{:.0}", rate(&plan, r)))
        .collect();
    out.param("rounds_qps", per_round.join(" "));

    let w = first.work;
    let (ps, pi) = (counts[0].max(1) as f64, counts[1].max(1) as f64);
    out.set("build.graph_s", median(&setup_s));
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
    out.set("dynamic.ndc_per_search", w.search_ndc as f64 / ps);
    out.set("dynamic.ndc_per_insert", w.insert_ndc as f64 / pi);
    out.set("dynamic.insert_us_p99", percentile(&insert_ns, 99.0) / 1e3);
    out.set(
        "dynamic.delete_us_p50",
        percentile(
            &times_of(&plan, &best, |op| matches!(op, Op::Delete { .. })),
            50.0,
        ) / 1e3,
    );
    out.set(
        "dynamic.consolidate_ms",
        mean(&times_of(&plan, &best, |op| matches!(op, Op::Consolidate))) / 1e6,
    );
    out.set("dynamic.consolidate_calls", counts[3] as f64);
    out.set("dynamic.tombstone_frac_end", first.tombstone_frac);
    out.set("search.ndc_per_query", w.search_ndc as f64 / ps);
    out.set("search.hops_per_query", w.search_hops as f64 / ps);
    out.set("search.pool_peak_max", w.pool_peak as f64);

    out.exact("build_ndc", phases[0].ndc);
    out.exact("answers_digest", format!("{:016x}", w.answers));
    out.exact("recall_at_10", recall_at_10);
    out.exact("recall_samples", sampled);
    out.exact("round_searches", counts[0]);
    out.exact("round_inserts", counts[1]);
    out.exact("round_deletes", counts[2]);
    out.exact("round_consolidations", counts[3]);
    out.exact("round_search_ndc", w.search_ndc);
    out.exact("round_insert_ndc", w.insert_ndc);
    out.exact("round_search_hops", w.search_hops);
    out.exact("round_search_pool_peak", w.pool_peak);

    if run.trace {
        let overhead = 1.0 - rate(&plan, &composite(&traced, CHUNK_OPS)) / rate(&plan, &best);
        out.set("trace.overhead_frac", overhead);
        let p50_us = percentile(&durations(&rec.spans, "dynamic.search"), 50.0) / 1e3;
        out.set("search.us_per_query_p50", p50_us);
        // DynamicHnsw exposes no adjacency, so the kernel probe scores
        // degree-sized batches of random ids live at the end of the plan,
        // as many per query as a search scores on average.
        let per_query = (w.search_ndc as f64 / ps).round() as usize;
        let mut rng = StdRng::seed_from_u64(run.stream_seed(6));
        let live_ids: Vec<u32> = (0..all.len() as u32)
            .filter(|&id| live[id as usize])
            .collect();
        let probes = 300.min(queries.len());
        let batches: Vec<Batches> = (0..probes)
            .map(|_| {
                let ids = (0..per_query)
                    .map(|_| live_ids[rng.gen_range(0..live_ids.len())])
                    .collect();
                let mut offsets: Vec<usize> = (0..=per_query)
                    .step_by(32)
                    .chain(std::iter::once(per_query))
                    .collect();
                offsets.dedup();
                Batches { ids, offsets }
            })
            .collect();
        let qs: Vec<&[f32]> = (0..probes as u32).map(|qi| queries.point(qi)).collect();
        let t_kernel = time_batches(&all, &qs, &batches, 3);
        let ids: usize = batches.iter().map(|b| b.ids.len()).sum();
        let ns_per_dist = t_kernel.iter().sum::<f64>() / ids.max(1) as f64;
        let kernel_us = per_query as f64 * ns_per_dist / 1e3;
        out.set("distance.ns_per_dist", ns_per_dist);
        out.set("search.kernel_us_per_query", kernel_us);
        out.set("search.loop_us_per_query", p50_us - kernel_us);
        // The loop is the remainder, so the search waterfall leaves time
        // unattributed only where the kernel estimate exceeds the search.
        let search_unattributed = ((kernel_us - p50_us) / p50_us.max(1e-9)).max(0.0);
        out.param("search_unattributed_frac", search_unattributed);
        // The serving path over the same base and queries: a 2-shard fleet
        // behind the admission queue (the queue.* and shard.* layers),
        // traced for half the run length.
        let handback =
            fleet::layer_probe(run, &base, &queries, run.duration() / 2, &mut out, &mut rec);
        out.param("fleet_unattributed_frac", handback);
        out.set("trace.unattributed_frac", search_unattributed.max(handback));
    }
    out.spans = rec.spans;
    out
}
