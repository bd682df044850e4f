//! The benchmark's own exact arithmetic: scalar f64 squared L2, brute-force
//! ground truth, tie-tolerant Recall@k, and the per-result checks.
//!
//! Nothing here calls the library's distance kernels — they are what the
//! benchmark measures, so they cannot also be the reference.

use weavess_data::{Dataset, Neighbor};

/// Scalar f64 squared Euclidean distance. Four independent accumulators
/// keep the dependency chain short; f64 leaves every summation order far
/// inside the tolerances used below.
pub fn l2_f64(a: &[f32], b: &[f32]) -> f64 {
    assert_eq!(a.len(), b.len(), "dimension mismatch");
    let mut acc = [0f64; 4];
    let mut ca = a.chunks_exact(4);
    let mut cb = b.chunks_exact(4);
    for (x, y) in (&mut ca).zip(&mut cb) {
        for j in 0..4 {
            let d = x[j] as f64 - y[j] as f64;
            acc[j] += d * d;
        }
    }
    for (x, y) in ca.remainder().iter().zip(cb.remainder()) {
        let d = *x as f64 - *y as f64;
        acc[0] += d * d;
    }
    (acc[0] + acc[1]) + (acc[2] + acc[3])
}

/// The exact `k` nearest points of `query`, ascending by `(distance, id)`.
/// With `live`, only ids `i < live.len()` with `live[i]` are candidates.
pub fn exact_topk(ds: &Dataset, query: &[f32], k: usize, live: Option<&[bool]>) -> Vec<(f64, u32)> {
    let mut top: Vec<(f64, u32)> = Vec::with_capacity(k + 1);
    let upto = live.map_or(ds.len(), |l| l.len().min(ds.len()));
    for id in 0..upto as u32 {
        if live.is_some_and(|l| !l[id as usize]) {
            continue;
        }
        let d = l2_f64(query, ds.point(id));
        if top.len() == k && d >= top[k - 1].0 {
            continue;
        }
        let pos = top.partition_point(|&(td, tid)| (td, tid) < (d, id));
        top.insert(pos, (d, id));
        top.truncate(k);
    }
    top
}

/// Exact top-`k` of every query in `queries` against all of `ds`, split
/// over the host's cores (at most `threads`).
pub fn exact_topk_all(
    ds: &Dataset,
    queries: &Dataset,
    k: usize,
    threads: usize,
) -> Vec<Vec<(f64, u32)>> {
    let nq = queries.len();
    let threads = threads.clamp(1, nq.max(1));
    let chunk = nq.div_ceil(threads);
    let mut out: Vec<Vec<(f64, u32)>> = vec![Vec::new(); nq];
    std::thread::scope(|s| {
        for (t, slot) in out.chunks_mut(chunk.max(1)).enumerate() {
            s.spawn(move || {
                for (j, o) in slot.iter_mut().enumerate() {
                    let qi = (t * chunk + j) as u32;
                    *o = exact_topk(ds, queries.point(qi), k, None);
                }
            });
        }
    });
    out
}

/// Tie-tolerant Recall@k: a returned id is a hit when its exact distance
/// is within a relative 1e-9 of the k-th exact distance, so an index that
/// returns a different member of a tied group is not penalised.
pub fn recall(
    result: &[Neighbor],
    truth: &[(f64, u32)],
    k: usize,
    exact: impl Fn(u32) -> f64,
) -> f64 {
    let want = k.min(truth.len());
    if want == 0 {
        return 1.0;
    }
    let kth = truth[want - 1].0;
    let limit = kth + 1e-9 * kth.max(1.0);
    let hits = result
        .iter()
        .take(k)
        .filter(|n| exact(n.id) <= limit)
        .count();
    hits as f64 / want as f64
}

/// Checks one search result:
/// - exactly `want` entries (k, or fewer when fewer points are live);
/// - ids in `0..n`, live, and distinct;
/// - distances finite, non-decreasing, and equal to the benchmark's own
///   f64 distance within a relative 1e-4 (plus 1e-3 absolute).
pub fn check_result(
    res: &[Neighbor],
    want: usize,
    n: usize,
    live: impl Fn(u32) -> bool,
    exact: impl Fn(u32) -> f64,
) -> Result<(), String> {
    if res.len() != want {
        return Err(format!("{} results, expected {want}", res.len()));
    }
    for (i, nb) in res.iter().enumerate() {
        if nb.id as usize >= n {
            return Err(format!("id {} out of range 0..{n}", nb.id));
        }
        if !live(nb.id) {
            return Err(format!("id {} is not live", nb.id));
        }
        if res[..i].iter().any(|p| p.id == nb.id) {
            return Err(format!("id {} returned twice", nb.id));
        }
        if !nb.dist.is_finite() {
            return Err(format!("id {} has non-finite distance", nb.id));
        }
        if i > 0 && nb.dist < res[i - 1].dist {
            return Err(format!("distances decrease at rank {i}"));
        }
        let e = exact(nb.id);
        if (nb.dist as f64 - e).abs() > 1e-4 * e + 1e-3 {
            return Err(format!("id {}: distance {} but exact {e}", nb.id, nb.dist));
        }
    }
    Ok(())
}

/// True when two results agree bit for bit (ids and distance bits).
pub fn same_result(a: &[Neighbor], b: &[Neighbor]) -> bool {
    a.len() == b.len()
        && a.iter()
            .zip(b)
            .all(|(x, y)| x.id == y.id && x.dist.to_bits() == y.dist.to_bits())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ds() -> Dataset {
        Dataset::from_flat(vec![0.0, 0.0, 1.0, 0.0, 0.0, 2.0, 3.0, 3.0], 4, 2)
    }

    #[test]
    fn exact_topk_orders_and_filters() {
        let d = ds();
        let top = exact_topk(&d, &[0.0, 0.0], 3, None);
        assert_eq!(top.iter().map(|t| t.1).collect::<Vec<_>>(), vec![0, 1, 2]);
        let top = exact_topk(&d, &[0.0, 0.0], 2, Some(&[false, true, true]));
        assert_eq!(top.iter().map(|t| t.1).collect::<Vec<_>>(), vec![1, 2]);
        assert_eq!(top[1].0, 4.0);
    }

    #[test]
    fn recall_tolerates_ties() {
        let d = Dataset::from_flat(vec![1.0, 0.0, -1.0, 0.0, 5.0, 5.0], 3, 2);
        let q = [0.0, 0.0];
        let truth = exact_topk(&d, &q, 1, None);
        // Point 1 ties point 0 (the true top-1): still a hit.
        let res = [Neighbor::new(1, 1.0)];
        assert_eq!(recall(&res, &truth, 1, |id| l2_f64(&q, d.point(id))), 1.0);
        let res = [Neighbor::new(2, 50.0)];
        assert_eq!(recall(&res, &truth, 1, |id| l2_f64(&q, d.point(id))), 0.0);
    }

    #[test]
    fn checks_catch_each_defect() {
        let d = ds();
        let q = [0.0f32, 0.0];
        let ex = |id: u32| l2_f64(&q, d.point(id));
        let ok = [Neighbor::new(0, 0.0), Neighbor::new(1, 1.0)];
        assert!(check_result(&ok, 2, 4, |_| true, ex).is_ok());
        assert!(check_result(&ok, 3, 4, |_| true, ex).is_err());
        assert!(check_result(&ok, 2, 4, |id| id != 1, ex).is_err());
        let dup = [Neighbor::new(0, 0.0), Neighbor::new(0, 0.0)];
        assert!(check_result(&dup, 2, 4, |_| true, ex).is_err());
        let wrong = [Neighbor::new(0, 0.0), Neighbor::new(1, 1.5)];
        assert!(check_result(&wrong, 2, 4, |_| true, ex).is_err());
        let unsorted = [Neighbor::new(1, 1.0), Neighbor::new(0, 0.0)];
        assert!(check_result(&unsorted, 2, 4, |_| true, ex).is_err());
        let oob = [Neighbor::new(9, 0.0)];
        assert!(check_result(&oob, 1, 4, |_| true, ex).is_err());
    }
}
