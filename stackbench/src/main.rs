//! `stackbench`: the repository's benchmark.
//!
//! ```text
//! cargo run --release --manifest-path stackbench/Cargo.toml -- \
//!     --workload search-d32 --seed 1 --seconds 10 --trace 0
//! ```
//!
//! Each run generates its inputs from `--seed`, builds the workload's
//! index, drives it through the public API for `--seconds`, checks every
//! answer against the benchmark's own exact arithmetic, and prints as its
//! last stdout line one JSON object with `correct`, `attempted`, `failed`
//! and `metrics`. `--trace 0` reports the end-to-end metrics; `--trace 1`
//! runs the same workload with spans recorded around every layer call and
//! reports the per-layer metrics instead. See `README.md` beside this
//! crate for the workloads, the metrics and the predictions.

mod churn;
mod exact;
mod fleet;
mod inputs;
mod probe;
mod search;
mod trace;
mod util;

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::Path;
use std::time::Duration;

/// Neighbors per query, every workload.
pub const K: usize = 10;
/// Candidate-set size per query, every workload.
pub const BEAM: usize = 64;
/// The seed used while developing the benchmark.
pub const DEV_SEED: u64 = 1;
/// The held-out seed: a claimed gain must also hold here.
pub const HELD_OUT_SEED: u64 = 7919;
/// Directory (relative to the working directory) for result files.
const OUT_DIR: &str = ".bench_out";

/// Workload names, in the order `BENCHMARK.json` lists them.
pub const WORKLOADS: &[&str] = &["search-d32", "search-d960", "fleet-d32", "churn-d32"];

/// End-to-end metrics: `(name, unit)`. Reported by `--trace 0`.
pub const END_TO_END: &[(&str, &str)] = &[
    ("qps", "1/s"),
    ("latency_p50_us", "us"),
    ("latency_p99_us", "us"),
    ("recall_at_10", "ratio"),
    ("setup_s", "s"),
    ("insert_p50_us", "us"),
    ("peak_rss_mb", "MiB"),
];

/// Per-layer metrics: `(name, unit)`. Reported by `--trace 1`; a layer
/// the workload does not reach reports 0.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("distance.ns_per_dist", "ns"),
    ("search.ndc_per_query", "count"),
    ("search.hops_per_query", "count"),
    ("search.pool_peak_max", "count"),
    ("search.us_per_query_p50", "us"),
    ("search.kernel_us_per_query", "us"),
    ("search.loop_us_per_query", "us"),
    ("build.graph_s", "s"),
    ("build.layout_s", "s"),
    ("build.c1_s", "s"),
    ("build.c2c3_s", "s"),
    ("build.c5_s", "s"),
    ("build.ndc", "count"),
    ("queue.wait_us_p50", "us"),
    ("queue.wait_us_p99", "us"),
    ("queue.batch_size_mean", "count"),
    ("shard.execute_us_p50", "us"),
    ("shard.execute_us_p99", "us"),
    ("shard.search_us_p50", "us"),
    ("shard.merge_us_p50", "us"),
    ("shard.scatter_us_p50", "us"),
    ("shard.search_one_us_p50", "us"),
    ("shard.batch1_us_p50", "us"),
    ("dynamic.ndc_per_search", "count"),
    ("dynamic.ndc_per_insert", "count"),
    ("dynamic.insert_us_p99", "us"),
    ("dynamic.delete_us_p50", "us"),
    ("dynamic.consolidate_ms", "ms"),
    ("dynamic.consolidate_calls", "count"),
    ("dynamic.tombstone_frac_end", "ratio"),
    ("trace.overhead_frac", "ratio"),
    ("trace.unattributed_frac", "ratio"),
];

/// One invocation's settings.
#[derive(Debug, Clone)]
pub struct Run {
    pub workload: &'static str,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    /// Worker threads for construction and ground truth (the host's cores).
    pub threads: usize,
}

impl Run {
    pub fn duration(&self) -> Duration {
        Duration::from_secs_f64(self.seconds)
    }

    /// A sub-seed for one input stream of this run, so data, queries and
    /// operation streams are independent yet all fixed by `--seed`.
    pub fn stream_seed(&self, stream: u64) -> u64 {
        let mut z = self.seed ^ stream.wrapping_mul(0x9E37_79B9_7F4A_7C15);
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }
}

/// What a workload hands back: operation accounting, metrics, the exact
/// quantities the determinism check compares, parameters and spans.
#[derive(Default)]
pub struct Outcome {
    pub attempted: u64,
    pub failed: u64,
    /// First few failure messages (operation or set-up).
    pub errors: Vec<String>,
    /// Set-up defects that make the run incorrect without failing an
    /// operation (e.g. a rebuild that differs from the first build).
    pub setup_errors: Vec<String>,
    pub metrics: BTreeMap<&'static str, f64>,
    /// Exact quantities that must repeat bit for bit with the same seed.
    pub exact: Vec<(&'static str, String)>,
    pub params: Vec<(&'static str, String)>,
    pub spans: Vec<trace::Span>,
}

impl Outcome {
    /// Counts one checked operation; `Err` counts it as failed.
    pub fn op(&mut self, r: Result<(), String>) {
        self.attempted += 1;
        if let Err(e) = r {
            self.failed += 1;
            if self.errors.len() < 8 {
                self.errors.push(e);
            }
        }
    }

    pub fn set(&mut self, name: &'static str, value: f64) {
        self.metrics.insert(name, value);
    }

    pub fn param(&mut self, name: &'static str, value: impl ToString) {
        self.params.push((name, value.to_string()));
    }

    pub fn exact(&mut self, name: &'static str, value: impl ToString) {
        self.exact.push((name, value.to_string()));
    }
}

/// Runs `f`, turning a panic into an error message.
pub fn guarded<R>(f: impl FnOnce() -> R) -> Result<R, String> {
    catch_unwind(AssertUnwindSafe(f)).map_err(|p| {
        let msg = p
            .downcast_ref::<&str>()
            .map(|s| s.to_string())
            .or_else(|| p.downcast_ref::<String>().cloned())
            .unwrap_or_else(|| "non-string panic".to_string());
        format!("panic: {msg}")
    })
}

fn usage() -> ! {
    eprintln!(
        "usage: stackbench --workload <{}> --seed <u64> --seconds <secs> --trace <0|1>",
        WORKLOADS.join("|")
    );
    std::process::exit(2);
}

fn parse_args() -> Run {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut workload = None;
    let (mut seed, mut seconds, mut trace) = (DEV_SEED, 10.0, false);
    let mut i = 0;
    while i < args.len() {
        let val = args.get(i + 1).cloned().unwrap_or_else(|| usage());
        match args[i].as_str() {
            "--workload" => workload = WORKLOADS.iter().copied().find(|w| *w == val),
            "--seed" => seed = val.parse().unwrap_or_else(|_| usage()),
            "--seconds" => seconds = val.parse().unwrap_or_else(|_| usage()),
            "--trace" => {
                trace = match val.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => usage(),
                }
            }
            _ => usage(),
        }
        i += 2;
    }
    let seconds: f64 = seconds;
    if !(seconds.is_finite() && seconds > 0.0) {
        usage();
    }
    Run {
        workload: workload.unwrap_or_else(|| usage()),
        seed,
        seconds,
        trace,
        threads: std::thread::available_parallelism().map_or(1, |p| p.get()),
    }
}

/// Compares this run's exact quantities with an earlier run of the same
/// binary, workload and seed (kept under the output directory), and
/// records them when none exists. Returns the keys that diverged.
fn determinism_check(run: &Run, exact: &[(&'static str, String)]) -> Vec<String> {
    let exe_hash = std::env::current_exe()
        .and_then(std::fs::read)
        .map(|bytes| {
            let mut d = util::Digest::default();
            d.bytes(&bytes);
            d.0
        })
        .unwrap_or(0);
    let dir = Path::new(OUT_DIR).join("digest");
    let path = dir.join(format!("{}-{}-{exe_hash:016x}.txt", run.workload, run.seed));
    let mut diverged = Vec::new();
    if let Ok(prev) = std::fs::read_to_string(&path) {
        let prev: BTreeMap<&str, &str> = prev.lines().filter_map(|l| l.split_once('=')).collect();
        for (k, v) in exact {
            if let Some(p) = prev.get(k) {
                if *p != v {
                    diverged.push(format!("{k}: {p} then {v}"));
                }
            }
        }
    } else {
        let body: String = exact.iter().map(|(k, v)| format!("{k}={v}\n")).collect();
        if std::fs::create_dir_all(&dir).is_ok() {
            let _ = std::fs::write(&path, body);
        }
    }
    diverged
}

fn json_object(pairs: &[(&str, String)]) -> String {
    let body: Vec<String> = pairs
        .iter()
        .map(|(k, v)| format!("{}: {}", util::json_str(k), util::json_str(v)))
        .collect();
    format!("{{{}}}", body.join(", "))
}

fn metrics_json(out: &Outcome, names: &[(&str, &str)]) -> String {
    let body: Vec<String> = names
        .iter()
        .map(|(n, u)| {
            let v = out.metrics.get(n).copied().unwrap_or(0.0);
            format!(
                "{}: {{\"value\": {}, \"unit\": {}}}",
                util::json_str(n),
                util::json_num(v),
                util::json_str(u)
            )
        })
        .collect();
    format!("{{{}}}", body.join(", "))
}

fn main() {
    let run = parse_args();
    let result = guarded(|| match run.workload {
        "search-d32" | "search-d960" => search::run(&run),
        "fleet-d32" => fleet::run(&run),
        "churn-d32" => churn::run(&run),
        _ => unreachable!("workload names are validated by parse_args"),
    });
    let mut out = match result {
        Ok(out) => out,
        Err(e) => {
            eprintln!("stackbench: {} aborted: {e}", run.workload);
            std::process::exit(1);
        }
    };

    let names = if run.trace { PER_LAYER } else { END_TO_END };
    let non_finite: Vec<&str> = names
        .iter()
        .filter(|(n, _)| !out.metrics.get(n).copied().unwrap_or(0.0).is_finite())
        .map(|(n, _)| *n)
        .collect();
    let diverged = determinism_check(&run, &out.exact);
    let correct = out.failed == 0
        && out.setup_errors.is_empty()
        && non_finite.is_empty()
        && diverged.is_empty();
    for e in out.setup_errors.iter().chain(&out.errors) {
        eprintln!("stackbench: {e}");
    }
    for d in &diverged {
        eprintln!("stackbench: determinism check diverged: {d}");
    }
    for n in &non_finite {
        eprintln!("stackbench: metric {n} is not finite");
    }

    let mut meta: Vec<(&str, String)> = vec![
        ("workload", run.workload.to_string()),
        ("seed", run.seed.to_string()),
        ("held_out_seed", HELD_OUT_SEED.to_string()),
        ("seconds", run.seconds.to_string()),
        ("trace", (run.trace as u8).to_string()),
        ("k", K.to_string()),
        ("beam", BEAM.to_string()),
    ];
    meta.extend(util::host_metadata());
    meta.extend(out.params.iter().map(|(k, v)| (*k, v.clone())));
    let exact: Vec<(&str, String)> = out.exact.iter().map(|(k, v)| (*k, v.clone())).collect();
    let all_names: Vec<(&str, &str)> = END_TO_END.iter().chain(PER_LAYER).copied().collect();
    let errors: Vec<String> = out
        .errors
        .iter()
        .chain(&out.setup_errors)
        .map(|e| util::json_str(e))
        .collect();
    let mut record = String::new();
    let _ = writeln!(
        record,
        "{{\"meta\": {}, \"exact\": {}, \"determinism_diverged\": {}, \"errors\": [{}], \"metrics\": {}, \"spans\": {}}}",
        json_object(&meta),
        json_object(&exact),
        diverged.len(),
        errors.join(", "),
        metrics_json(&out, &all_names),
        trace::to_json(&out.spans, 20_000),
    );
    if std::fs::create_dir_all(OUT_DIR).is_ok() {
        let path = Path::new(OUT_DIR).join(format!(
            "{}-seed{}-trace{}.json",
            run.workload, run.seed, run.trace as u8
        ));
        let _ = std::fs::write(path, &record);
    }
    out.spans.clear();

    println!(
        "{{\"meta\": {}, \"exact\": {}}}",
        json_object(&meta),
        json_object(&exact)
    );
    println!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {}}}",
        out.attempted.max(1),
        out.failed,
        metrics_json(&out, names)
    );
}
