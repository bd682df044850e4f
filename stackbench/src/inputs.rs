//! The workloads' inputs.
//!
//! Base sets are fixed datasets, as in the survey's protocol (one dataset,
//! many query samples): `--seed` draws the queries, the operation stream
//! and the insert points, never the base points. Drawing the base from the
//! seed as well moves the cluster geometry, and with it NSG's Recall@10 on
//! the clustered data (quartile spread 0.81 of the median over five
//! seeds), which would swamp any change the benchmark is meant to resolve.

use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;
use weavess_bench::workload::ZipfWorkload;
use weavess_data::synthetic::standins;
use weavess_data::Dataset;

/// The shared dim-32 base: `ZipfWorkload` over 8 clusters, Zipf(1.5)
/// query demand. `search-d32`, `fleet-d32` and `churn-d32` all index it.
pub const ZIPF_N: usize = 20_000;
pub const ZIPF_DIM: usize = 32;
pub const ZIPF_CLUSTERS: usize = 8;
pub const ZIPF_SKEW: f64 = 1.5;
const ZIPF_BASE_SEED: u64 = 0x5EED_0032;

/// The dim-32 workload spec and its fixed base set.
pub fn zipf_base() -> (ZipfWorkload, Dataset) {
    let w = ZipfWorkload::new(
        ZIPF_N,
        ZIPF_DIM,
        ZIPF_CLUSTERS,
        ZIPF_SKEW,
        0,
        ZIPF_BASE_SEED,
    );
    let base = w.generate().0;
    (w, base)
}

pub fn zipf_describe() -> String {
    format!(
        "ZipfWorkload n={ZIPF_N} dim={ZIPF_DIM} clusters={ZIPF_CLUSTERS} skew={ZIPF_SKEW} base_seed={ZIPF_BASE_SEED:#x}"
    )
}

/// The GIST1M stand-in at 8 000 points (dim 960, target LID 18.9) with
/// its own fixed generator seed, and `nq` queries sampled by `seed` from
/// a fixed pool of held-out points of the same distribution.
pub fn gist_standin(nq: usize, seed: u64) -> (Dataset, Dataset, String) {
    const POOL: usize = 3_000;
    let mut spec = standins::all(0.008)
        .into_iter()
        .find(|s| s.name == "GIST1M")
        .expect("GIST1M stand-in")
        .spec;
    spec.n_queries = POOL;
    let (base, pool) = spec.generate();
    let mut ids: Vec<u32> = (0..POOL as u32).collect();
    ids.shuffle(&mut StdRng::seed_from_u64(seed));
    ids.truncate(nq);
    let queries = pool.subset(&ids);
    let desc = format!(
        "GIST1M stand-in n={} dim={} clusters={} intrinsic_dim={:?} base_seed={:#x} queries={nq} of a {POOL}-point pool",
        spec.n, spec.dim, spec.clusters, spec.intrinsic_dim, spec.seed
    );
    (base, queries, desc)
}
