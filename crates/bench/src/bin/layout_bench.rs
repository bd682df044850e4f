//! Memory-layout benchmark — the `BENCH_layout.json` artifact.
//!
//! Builds one NSG index, then re-hosts it on every cell of the
//! {original, BFS-reordered} × {split CSR+matrix, fused arena} matrix and
//! measures fixed-beam search (software prefetch is always on). The
//! layout layer's contract is that only the memory-access pattern moves:
//! every cell must return bit-identical results (ids and distance bits,
//! after mapping through the permutation) and identical NDC/hops to the
//! plain [`FlatIndex`] baseline — the table reports that identity check
//! next to each QPS figure.
//!
//! `--smoke` shrinks the dataset for CI. The host (CPU model, features
//! and `available_parallelism`) is recorded so QPS numbers read honestly.

use std::time::Instant;
use weavess_bench::report::{banner, f, Table};
use weavess_core::algorithms::nsg::{self, NsgParams};
use weavess_core::components::SeedStrategy;
use weavess_core::index::{AnnIndex, FlatIndex, SearchContext};
use weavess_core::search::SearchStats;
use weavess_core::{LayoutIndex, NodeLayout};
use weavess_data::ground_truth::ground_truth;
use weavess_data::metrics::recall;
use weavess_data::synthetic::MixtureSpec;
use weavess_data::{Dataset, Neighbor};

const SEED: u64 = 7;
const K: usize = 10;
const BEAM: usize = 64;

/// NSG seeds are build-time fixed (the medoid), so a structural clone is
/// exact. Anything else would mean the build changed underneath us.
fn clone_flat(idx: &FlatIndex) -> FlatIndex {
    let SeedStrategy::Fixed(v) = &idx.seeds else {
        panic!("NSG should carry fixed seeds");
    };
    FlatIndex {
        name: idx.name,
        graph: idx.graph.clone(),
        seeds: SeedStrategy::Fixed(v.clone()),
        router: idx.router.clone(),
    }
}

/// One full pass over the query set: results + accumulated stats.
fn run_all(idx: &dyn AnnIndex, ds: &Dataset, qs: &Dataset) -> (Vec<Vec<Neighbor>>, SearchStats) {
    let mut ctx = SearchContext::new(ds.len());
    let out = (0..qs.len() as u32)
        .map(|qi| idx.search(ds, qs.point(qi), K, BEAM, &mut ctx))
        .collect();
    (out, ctx.stats)
}

/// Repeats query passes until ~0.5s has elapsed and returns QPS.
fn measure_qps(idx: &dyn AnnIndex, ds: &Dataset, qs: &Dataset) -> f64 {
    let mut ctx = SearchContext::new(ds.len());
    // Warmup pass: fault in every page of the layout under test.
    for qi in 0..qs.len() as u32 {
        idx.search(ds, qs.point(qi), K, BEAM, &mut ctx);
    }
    let mut queries = 0usize;
    let t0 = Instant::now();
    loop {
        for qi in 0..qs.len() as u32 {
            std::hint::black_box(idx.search(ds, qs.point(qi), K, BEAM, &mut ctx));
        }
        queries += qs.len();
        if t0.elapsed().as_secs_f64() > 0.5 {
            break;
        }
    }
    queries as f64 / t0.elapsed().as_secs_f64()
}

fn identical(a: &[Vec<Neighbor>], b: &[Vec<Neighbor>]) -> bool {
    a.len() == b.len()
        && a.iter().zip(b).all(|(x, y)| {
            x.len() == y.len()
                && x.iter()
                    .zip(y)
                    .all(|(p, q)| p.id == q.id && p.dist.to_bits() == q.dist.to_bits())
        })
}

struct Cell {
    label: String,
    reordered: bool,
    layout: &'static str,
    qps: f64,
    recall_at_10: f64,
    ndc: u64,
    hops: u64,
    results_identical: bool,
    graph_bytes: usize,
    vector_bytes: usize,
    arena_bytes: usize,
    arena_padding_bytes: usize,
    permutation_bytes: usize,
}

fn main() {
    let smoke = std::env::args().any(|a| a == "--smoke");
    let host = std::thread::available_parallelism()
        .map(|p| p.get())
        .unwrap_or(1);
    let (n, dim, nq) = if smoke {
        (1_500, 16, 50)
    } else {
        (20_000, 48, 200)
    };
    let mode = if cfg!(feature = "paper-fidelity") {
        "paper-fidelity"
    } else {
        "default"
    };
    let cpuinfo = std::fs::read_to_string("/proc/cpuinfo").unwrap_or_default();
    let cpu = cpuinfo
        .lines()
        .find_map(|l| l.strip_prefix("model name"))
        .map_or("unknown", |l| l.trim_start_matches([' ', '\t', ':']));
    banner(&format!(
        "Memory layout bench (mode={mode}, n={n}, dim={dim}, beam={BEAM}, host cores={host})"
    ));

    let spec = MixtureSpec {
        intrinsic_dim: Some(12),
        noise: 0.05,
        shared_subspace: true,
        ..MixtureSpec::table10(dim, n, 8, 5.0, nq)
    };
    let (base, queries) = spec.generate();
    let gt = ground_truth(&base, &queries, K, host);

    let t0 = Instant::now();
    let flat = nsg::build(&base, &NsgParams::tuned(host, SEED));
    println!("built NSG in {:.1}s", t0.elapsed().as_secs_f64());

    // Baseline: the plain FlatIndex.
    let (baseline, baseline_stats) = run_all(&flat, &base, &queries);
    let baseline_qps = measure_qps(&flat, &base, &queries);
    let base_recall: f64 = (0..queries.len())
        .map(|i| {
            let ids: Vec<u32> = baseline[i].iter().map(|n| n.id).collect();
            recall(&ids, &gt[i])
        })
        .sum::<f64>()
        / queries.len() as f64;

    let mut table = Table::new(vec![
        "layout".to_string(),
        "QPS".to_string(),
        "vs split".to_string(),
        "Recall@10".to_string(),
        "NDC".to_string(),
        "identical".to_string(),
    ]);
    let mut cells: Vec<Cell> = Vec::new();
    let mut split_baseline_qps = 0.0;
    for reordered in [false, true] {
        for layout in [NodeLayout::Split, NodeLayout::Fused] {
            let li = LayoutIndex::from_flat(clone_flat(&flat), &base, layout, reordered);
            let stats = li.layout_stats();
            let (results, search_stats) = run_all(&li, &base, &queries);
            let qps = measure_qps(&li, &base, &queries);
            let results_identical = identical(&results, &baseline)
                && search_stats.ndc == baseline_stats.ndc
                && search_stats.hops == baseline_stats.hops;
            assert!(
                results_identical,
                "layout={layout:?} reordered={reordered} diverged from the FlatIndex baseline"
            );
            let recall_at_10: f64 = (0..queries.len())
                .map(|i| {
                    let ids: Vec<u32> = results[i].iter().map(|n| n.id).collect();
                    recall(&ids, &gt[i])
                })
                .sum::<f64>()
                / queries.len() as f64;
            let label = format!(
                "{}+{}",
                if reordered { "reordered" } else { "original" },
                if layout == NodeLayout::Fused {
                    "fused"
                } else {
                    "split"
                }
            );
            if !reordered && layout == NodeLayout::Split {
                split_baseline_qps = qps;
            }
            table.row(vec![
                label.clone(),
                f(qps, 0),
                format!("{:.2}x", qps / split_baseline_qps),
                f(recall_at_10, 4),
                search_stats.ndc.to_string(),
                results_identical.to_string(),
            ]);
            cells.push(Cell {
                label,
                reordered,
                layout: if layout == NodeLayout::Fused {
                    "fused"
                } else {
                    "split"
                },
                qps,
                recall_at_10,
                ndc: search_stats.ndc,
                hops: search_stats.hops,
                results_identical,
                graph_bytes: stats.graph_bytes,
                vector_bytes: stats.vector_bytes,
                arena_bytes: stats.arena_bytes,
                arena_padding_bytes: stats.arena_padding_bytes,
                permutation_bytes: stats.permutation_bytes,
            });
        }
    }
    table.print();
    println!(
        "\nFlatIndex baseline: QPS={} Recall@10={} NDC={}",
        f(baseline_qps, 0),
        f(base_recall, 4),
        baseline_stats.ndc
    );

    let best = cells.iter().max_by(|a, b| a.qps.total_cmp(&b.qps)).unwrap();
    println!(
        "best cell: {} at {:.2}x the original+split QPS",
        best.label,
        best.qps / split_baseline_qps
    );

    // JSON artifact, build_bench-style.
    let mut cell_json = String::new();
    for c in &cells {
        cell_json.push_str(&format!(
            "    {{\"label\": \"{}\", \"reordered\": {}, \"layout\": \"{}\", \
             \"qps\": {:.1}, \"recall_at_10\": {:.4}, \"ndc\": {}, \"hops\": {}, \
             \"results_identical\": {}, \"graph_bytes\": {}, \"vector_bytes\": {}, \
             \"arena_bytes\": {}, \"arena_padding_bytes\": {}, \"permutation_bytes\": {}}},\n",
            c.label,
            c.reordered,
            c.layout,
            c.qps,
            c.recall_at_10,
            c.ndc,
            c.hops,
            c.results_identical,
            c.graph_bytes,
            c.vector_bytes,
            c.arena_bytes,
            c.arena_padding_bytes,
            c.permutation_bytes,
        ));
    }
    cell_json.truncate(cell_json.trim_end_matches(",\n").len());
    let json = format!(
        "{{\n  \"bench\": \"layout\",\n  \"mode\": \"{mode}\",\n  \"smoke\": {smoke},\n  \
         \"host_cpu\": \"{cpu}\",\n  \"host_available_parallelism\": {host},\n  \
         \"host_features\": \"{}\",\n  \"kernel_tier\": \"{}\",\n  \"n\": {n},\n  \"dim\": {dim},\n  \
         \"k\": {K},\n  \"beam\": {BEAM},\n  \"baseline\": {{\"qps\": {baseline_qps:.1}, \
         \"recall_at_10\": {base_recall:.4}, \"ndc\": {}}},\n  \"cells\": [\n{cell_json}\n  ]\n}}\n",
        weavess_data::host_features(),
        weavess_data::KernelTier::active(),
        baseline_stats.ndc
    );
    std::fs::write("BENCH_layout.json", &json).expect("write BENCH_layout.json");
    println!("\nwrote BENCH_layout.json");
}
