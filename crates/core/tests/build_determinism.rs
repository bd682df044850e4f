//! Thread-count-independence guard for parallel construction.
//!
//! Every builder routes its parallelism through `weavess_core::parallel`
//! (fixed chunking, in-order combination, prefix-doubling batch
//! insertion), which promises a graph that is a pure function of the
//! input — never of the worker count. These tests enforce the promise the
//! same way `kernel_modes.rs` guards the distance kernels: build each
//! index at 1, 2, and 8 threads and require byte-identical results, via
//! an FNV-1a digest of the adjacency (and, where an index persists, of
//! the exact serialized bytes). `DynamicHnsw::consolidate`, the one
//! parallel phase that rewrites a graph after construction, is held to
//! the same promise.
//!
//! CI runs this file under both kernel modes (default and
//! `paper-fidelity`), so the guarantee holds for either distance flavor.

use proptest::prelude::*;
use weavess_core::algorithms::hnsw::{self, HnswParams};
use weavess_core::algorithms::hnsw_dynamic::DynamicHnsw;
use weavess_core::algorithms::{nsg, nsw, Algo};
use weavess_core::index::{AnnIndex, SearchContext};
use weavess_core::nndescent::{nn_descent, NnDescentParams};
use weavess_core::persist::{write_hnsw, write_index};
use weavess_core::rnndescent::{rnn_descent, RnnDescentParams};
use weavess_data::ground_truth::ground_truth;
use weavess_data::metrics::recall;
use weavess_data::synthetic::MixtureSpec;
use weavess_data::Dataset;

const THREAD_SWEEP: [usize; 3] = [1, 2, 8];

fn fnv1a(digest: &mut u64, bytes: &[u8]) {
    for &b in bytes {
        *digest ^= b as u64;
        *digest = digest.wrapping_mul(0x0000_0100_0000_01b3);
    }
}

/// Digest of a graph's full adjacency, order included.
fn adjacency_digest(lists: &[Vec<u32>]) -> u64 {
    let mut digest = 0xcbf2_9ce4_8422_2325_u64;
    for l in lists {
        fnv1a(&mut digest, &(l.len() as u32).to_le_bytes());
        for &x in l {
            fnv1a(&mut digest, &x.to_le_bytes());
        }
    }
    digest
}

fn dataset(n: usize) -> Dataset {
    MixtureSpec::table10(12, n, 4, 3.0, 5).generate().0
}

/// The headline guarantee: all seventeen algorithms build bit-identical
/// adjacency at 1, 2, and 8 construction threads.
#[test]
fn every_algorithm_builds_identically_at_1_2_8_threads() {
    let ds = dataset(350);
    for &algo in Algo::all() {
        let digests: Vec<u64> = THREAD_SWEEP
            .iter()
            .map(|&t| adjacency_digest(&algo.build(&ds, t, 7).graph().to_lists()))
            .collect();
        assert!(
            digests.windows(2).all(|w| w[0] == w[1]),
            "{} diverges across thread counts: {digests:x?}",
            algo.name()
        );
    }
}

/// Stronger check for persistable indexes: the *serialized bytes* (name,
/// router, seeds, adjacency) are identical, not just the graph.
#[test]
fn persisted_bytes_are_thread_count_independent() {
    let ds = dataset(400);
    let flat_bytes = |threads: usize| -> (Vec<u8>, Vec<u8>) {
        let mut nsw_buf = Vec::new();
        write_index(
            &mut nsw_buf,
            &nsw::build(&ds, &nsw::NswParams::tuned(threads, 3)),
        )
        .unwrap();
        let mut nsg_buf = Vec::new();
        write_index(
            &mut nsg_buf,
            &nsg::build(&ds, &nsg::NsgParams::tuned(threads, 3)),
        )
        .unwrap();
        (nsw_buf, nsg_buf)
    };
    let hnsw_bytes = |threads: usize| -> Vec<u8> {
        let mut buf = Vec::new();
        write_hnsw(&mut buf, &hnsw::build(&ds, &HnswParams::tuned(threads, 3))).unwrap();
        buf
    };
    let (nsw1, nsg1) = flat_bytes(1);
    let h1 = hnsw_bytes(1);
    for &t in &THREAD_SWEEP[1..] {
        let (nsw_t, nsg_t) = flat_bytes(t);
        assert_eq!(nsw1, nsw_t, "NSW bytes diverge at {t} threads");
        assert_eq!(nsg1, nsg_t, "NSG bytes diverge at {t} threads");
        assert_eq!(h1, hnsw_bytes(t), "HNSW bytes diverge at {t} threads");
    }
}

/// NN-Descent's pools are content-deterministic under concurrent joins;
/// the emitted k-NN lists (ids AND distance bits) must not move with the
/// thread count.
#[test]
fn nn_descent_is_thread_count_independent() {
    let ds = dataset(400);
    let run = |threads: usize| -> u64 {
        let params = NnDescentParams {
            k: 10,
            l: 20,
            iters: 4,
            sample: 8,
            reverse: 10,
            seed: 11,
            threads,
        };
        let g = nn_descent(&ds, &params, None);
        let mut digest = 0xcbf2_9ce4_8422_2325_u64;
        for row in &g {
            fnv1a(&mut digest, &(row.len() as u32).to_le_bytes());
            for n in row {
                fnv1a(&mut digest, &n.id.to_le_bytes());
                fnv1a(&mut digest, &n.dist.to_bits().to_le_bytes());
            }
        }
        digest
    };
    let base = run(1);
    for &t in &THREAD_SWEEP[1..] {
        assert_eq!(base, run(t), "NN-Descent diverges at {t} threads");
    }
}

/// RNN-Descent shares NN-Descent's determinism contract: the two-phase
/// update pass (own-chunk rewrites, then order-independent offer
/// application) must emit the same lists — ids AND distance bits — at any
/// worker count.
#[test]
fn rnn_descent_is_thread_count_independent() {
    let ds = dataset(400);
    let run = |threads: usize| -> u64 {
        let params = RnnDescentParams {
            k: 10,
            r: 12,
            l: 24,
            outer: 3,
            inner: 6,
            seed: 11,
            threads,
        };
        let g = rnn_descent(&ds, &params, None);
        let mut digest = 0xcbf2_9ce4_8422_2325_u64;
        for row in &g {
            fnv1a(&mut digest, &(row.len() as u32).to_le_bytes());
            for n in row {
                fnv1a(&mut digest, &n.id.to_le_bytes());
                fnv1a(&mut digest, &n.dist.to_bits().to_le_bytes());
            }
        }
        digest
    };
    let base = run(1);
    for &t in &THREAD_SWEEP[1..] {
        assert_eq!(base, run(t), "RNN-Descent diverges at {t} threads");
    }
}

/// Swapping C1 keeps the persisted-bytes guarantee: an NSG built from
/// RNN-Descent serializes to identical bytes at 1, 2, and 8 threads.
#[test]
fn rnn_built_nsg_persisted_bytes_are_thread_count_independent() {
    let ds = dataset(400);
    let bytes = |threads: usize| -> Vec<u8> {
        let mut buf = Vec::new();
        write_index(
            &mut buf,
            &nsg::build(&ds, &nsg::NsgParams::tuned(threads, 3).with_rnn_c1()),
        )
        .unwrap();
        buf
    };
    let b1 = bytes(1);
    for &t in &THREAD_SWEEP[1..] {
        assert_eq!(b1, bytes(t), "NSG(RNN-C1) bytes diverge at {t} threads");
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(4))]

    /// The acceptance criterion of the C1 swap, as a property over
    /// datasets: an NSG built from RNN-Descent answers queries with
    /// end-to-end Recall@10 close to the NN-Descent-built one. (The
    /// builds dominate the runtime, so the case count stays small.)
    #[test]
    fn rnn_c1_recall_stays_near_nn_descent_c1(seed in 0u64..50) {
        let (ds, qs) = MixtureSpec::table10(12, 700, 3, 3.0, 25)
            .with_seed(seed)
            .generate();
        let nnd = nsg::build(&ds, &nsg::NsgParams::tuned(4, 3));
        let rnn = nsg::build(&ds, &nsg::NsgParams::tuned(4, 3).with_rnn_c1());
        let gt = ground_truth(&ds, &qs, 10, 4);
        let mut ctx = SearchContext::new(ds.len());
        let mut measure = |idx: &dyn AnnIndex| -> f64 {
            let mut total = 0.0;
            for qi in 0..qs.len() as u32 {
                let ids: Vec<u32> = idx
                    .search(&ds, qs.point(qi), 10, 80, &mut ctx)
                    .iter()
                    .map(|n| n.id)
                    .collect();
                total += recall(&ids, &gt[qi as usize]);
            }
            total / qs.len() as f64
        };
        let r_nnd = measure(&nnd);
        let r_rnn = measure(&rnn);
        prop_assert!(
            r_rnn >= r_nnd - 0.02,
            "RNN-C1 recall {r_rnn:.4} fell more than 0.02 below NND-C1 {r_nnd:.4}"
        );
    }
}

/// Regression for the dynamic index: inserts, deletes, and searches after
/// a parallel bulk load behave exactly as after a single-threaded one —
/// including the mass-delete beam-escalation path, which searches through
/// a tombstone-dominated graph.
#[test]
fn dynamic_hnsw_behaves_identically_after_parallel_bulk_load() {
    let (base, extra) = MixtureSpec::table10(12, 400, 3, 3.0, 60).generate();
    let run = |threads: usize| -> (Vec<Vec<u32>>, Vec<u64>) {
        let mut idx = DynamicHnsw::bulk_load(&base, HnswParams::tuned(threads, 5));
        // Incremental inserts continue the bulk load's RNG stream.
        for i in 0..30u32 {
            idx.insert(extra.point(i));
        }
        // Mass delete: tombstone 60% of the original points, exercising
        // the escalated-beam search over a mostly-dead graph.
        for id in 0..(base.len() as u32 * 6 / 10) {
            idx.delete(id);
        }
        let mut results = Vec::new();
        let mut ndcs = Vec::new();
        for i in 30..60u32 {
            let r: Vec<u32> = idx
                .search(extra.point(i), 10, 40)
                .iter()
                .map(|n| n.id)
                .collect();
            ndcs.push(idx.take_stats().ndc);
            results.push(r);
        }
        (results, ndcs)
    };
    let (r1, s1) = run(1);
    for &t in &THREAD_SWEEP[1..] {
        let (rt, st) = run(t);
        assert_eq!(r1, rt, "search results diverge after {t}-thread bulk load");
        assert_eq!(s1, st, "search work diverges after {t}-thread bulk load");
    }
}

/// `consolidate` repairs vertices on `params.threads` workers; the same
/// deletes must leave the same graph at every count — checked through
/// search results and their NDC, both right after the repair and after
/// inserts and a second repair on top of it.
#[test]
fn dynamic_hnsw_consolidates_identically_at_1_2_8_threads() {
    let (base, extra) = MixtureSpec::table10(12, 600, 3, 3.0, 80).generate();
    let searches = |idx: &mut DynamicHnsw, from: u32| -> (Vec<Vec<u32>>, Vec<u64>) {
        let mut results = Vec::new();
        let mut ndcs = Vec::new();
        for i in from..from + 30 {
            let r = idx.search(extra.point(i), 10, 40);
            results.push(r.iter().map(|n| n.id).collect());
            ndcs.push(idx.take_stats().ndc);
        }
        (results, ndcs)
    };
    let run = |threads: usize| {
        let mut idx = DynamicHnsw::bulk_load(&base, HnswParams::tuned(threads, 5));
        for id in (0..base.len() as u32).filter(|id| id % 3 == 0) {
            idx.delete(id);
        }
        let first_rebuilt = idx.consolidate();
        let first = searches(&mut idx, 0);
        for i in 30..50u32 {
            idx.insert(extra.point(i));
        }
        for id in (0..idx.len() as u32).filter(|id| id % 5 == 1) {
            idx.delete(id);
        }
        let rebuilt = [first_rebuilt, idx.consolidate()];
        (rebuilt, first, searches(&mut idx, 50))
    };
    let reference = run(1);
    assert!(reference.0.iter().all(|&r| r > 0));
    for &t in &THREAD_SWEEP[1..] {
        assert_eq!(reference, run(t), "consolidate diverges at {t} threads");
    }
}

/// A bulk load must equal the equivalent sequence of single inserts — the
/// batch construction is an optimization, not a different algorithm
/// family (levels come from the same RNG stream either way).
#[test]
fn bulk_load_matches_index_shape_of_incremental_build() {
    let (base, qs) = MixtureSpec::table10(12, 300, 3, 3.0, 20).generate();
    let params = HnswParams::tuned(4, 9);
    let mut bulk = DynamicHnsw::bulk_load(&base, params.clone());
    let mut incr = DynamicHnsw::new(base.dim(), params);
    for i in 0..base.len() as u32 {
        incr.insert(base.point(i));
    }
    assert_eq!(bulk.len(), incr.len());
    assert_eq!(bulk.live_len(), incr.live_len());
    // The graphs differ (batch points don't see same-batch points during
    // their searches), but both must answer well: identical k, and a
    // shared majority of true neighbors.
    for qi in 0..qs.len() as u32 {
        let a: Vec<u32> = bulk
            .search(qs.point(qi), 10, 60)
            .iter()
            .map(|n| n.id)
            .collect();
        let b: Vec<u32> = incr
            .search(qs.point(qi), 10, 60)
            .iter()
            .map(|n| n.id)
            .collect();
        assert_eq!(a.len(), b.len());
        let overlap = a.iter().filter(|x| b.contains(x)).count();
        assert!(overlap >= 5, "query {qi}: only {overlap}/10 shared");
    }
}
