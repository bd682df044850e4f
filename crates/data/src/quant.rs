//! Scalar quantization (SQ8): 8-bit codes with per-dimension affine
//! dequantization.
//!
//! The survey's "Challenges" (§6) notes that graph algorithms keep raw
//! vectors in memory — their dominant cost — and that "how to organically
//! combine data encoding ... with graph-based ANNS algorithms is a problem
//! worth exploring". SQ8 is the simplest such encoding: 4× smaller
//! vectors, asymmetric (f32 query vs u8 base) distances, exact-vector
//! reranking left to the caller.
//!
//! ## Asymmetric scoring in residual form
//!
//! Dequantizing per candidate — `x[d] = min[d] + code·step[d]`, then
//! `(q[d] − x[d])²` — re-pays the `min` addition for every candidate of
//! every query. Algebraically the distance is
//! `Σ ((q[d] − min[d]) − code·step[d])²`, so the per-dimension transform
//! `r[d] = q[d] − min[d]` (the *residual*) can be hoisted out and
//! computed **once per query**: every candidate then costs one fused
//! multiply-subtract per dimension against the precomputed residual.
//! [`sq8_distance_prepped`] is that kernel, in three [`KernelTier`]
//! flavors (the `simd` tier additionally widens the `u8` codes to `f32`
//! in-register — the dequantized vector never exists in memory).
//! [`Sq8Dataset`]'s batch scoring and the fused arena's SQ8 payload both
//! hoist the residual once per batch through [`with_sq8_residual`].

use crate::dataset::Dataset;
use crate::distance::KernelTier;
use crate::vectors::PREFETCH_AHEAD;
use std::cell::RefCell;

/// Per-tier SQ8 asymmetric kernels in residual form: given
/// `residual[d] = query[d] − min[d]` and the per-dimension `step`,
/// each computes `Σ (residual[d] − codes[d]·step[d])²`.
///
/// Within one tier the kernels are bit-deterministic; across tiers they
/// differ only by summation order and FMA rounding (the crate-wide
/// ≤ ~1e-4 relative contract). For `dim < 8` the `simd` kernel is pure
/// scalar tail; for `dim < 16` the `unrolled` kernel is — both then
/// bit-equal to `scalar`.
pub mod sq8_kernels {
    /// Plain reference loop (the scalar tier).
    #[inline]
    pub fn scalar(residual: &[f32], step: &[f32], codes: &[u8]) -> f32 {
        debug_assert_eq!(residual.len(), step.len());
        debug_assert_eq!(residual.len(), codes.len());
        let mut acc = 0.0f32;
        for d in 0..residual.len() {
            let diff = residual[d] - codes[d] as f32 * step[d];
            acc += diff * diff;
        }
        acc
    }

    /// Autovectorizer-friendly 16-lane chunks feeding 4 accumulators
    /// (the unrolled tier), scalar tail identical to [`scalar`].
    #[inline]
    pub fn unrolled(residual: &[f32], step: &[f32], codes: &[u8]) -> f32 {
        debug_assert_eq!(residual.len(), step.len());
        debug_assert_eq!(residual.len(), codes.len());
        const CHUNK: usize = 16;
        let mut cr = residual.chunks_exact(CHUNK);
        let mut cs = step.chunks_exact(CHUNK);
        let mut cc = codes.chunks_exact(CHUNK);
        let mut acc = [0.0f32; 4];
        for ((r, s), c) in (&mut cr).zip(&mut cs).zip(&mut cc) {
            for (lane, slot) in acc.iter_mut().enumerate() {
                let o = lane * 4;
                let d0 = r[o] - c[o] as f32 * s[o];
                let d1 = r[o + 1] - c[o + 1] as f32 * s[o + 1];
                let d2 = r[o + 2] - c[o + 2] as f32 * s[o + 2];
                let d3 = r[o + 3] - c[o + 3] as f32 * s[o + 3];
                *slot += d0 * d0 + d1 * d1 + d2 * d2 + d3 * d3;
            }
        }
        let mut tail = 0.0f32;
        for ((r, s), c) in cr
            .remainder()
            .iter()
            .zip(cs.remainder())
            .zip(cc.remainder())
        {
            let d = r - *c as f32 * s;
            tail += d * d;
        }
        (acc[0] + acc[1]) + (acc[2] + acc[3]) + tail
    }

    /// Explicit AVX2+FMA kernel (the simd tier); checked — falls back to
    /// [`unrolled`] off AVX2 hardware.
    #[inline]
    pub fn simd(residual: &[f32], step: &[f32], codes: &[u8]) -> f32 {
        crate::distance::simd::sq8_residual_distance(residual, step, codes)
    }
}

/// SQ8 asymmetric distance in residual form through the active
/// [`KernelTier`] — the single definition of the scoring kernel. Both
/// [`Sq8Dataset`] and the fused node arena's SQ8 payload call it, so a
/// fused index is bit-identical to the split one by construction, not by
/// coincidence.
#[inline]
pub fn sq8_distance_prepped(residual: &[f32], step: &[f32], codes: &[u8]) -> f32 {
    match KernelTier::active() {
        KernelTier::Scalar => sq8_kernels::scalar(residual, step, codes),
        KernelTier::Unrolled => sq8_kernels::unrolled(residual, step, codes),
        KernelTier::Simd => sq8_kernels::simd(residual, step, codes),
    }
}

thread_local! {
    /// Reusable residual buffer for [`with_sq8_residual`]: one per
    /// thread, grown to the largest dimensionality seen.
    static SQ8_RESIDUAL: RefCell<Vec<f32>> = const { RefCell::new(Vec::new()) };
}

/// Computes the per-query residual `r[d] = query[d] − min[d]` into a
/// thread-local scratch buffer and passes it to `f`. Batch scoring loops
/// call this once per batch (the per-expansion granularity of graph
/// search), then score every candidate against the same residual —
/// hoisting the dequantization transform out of the per-candidate loop.
///
/// Single-candidate paths ([`sq8_distance`]) use the same helper, so
/// batch and single scoring share one arithmetic form and stay bit-equal
/// within a tier.
#[inline]
pub fn with_sq8_residual<R>(query: &[f32], min: &[f32], f: impl FnOnce(&[f32]) -> R) -> R {
    debug_assert_eq!(query.len(), min.len());
    SQ8_RESIDUAL.with(|cell| {
        let mut buf = cell.borrow_mut();
        buf.clear();
        buf.extend(query.iter().zip(min).map(|(&q, &m)| q - m));
        f(&buf)
    })
}

/// The SQ8 asymmetric distance kernel: squared Euclidean distance from an
/// `f32` query to one point's `u8` codes under per-dimension affine
/// dequantization `x[d] = min[d] + codes[d]·step[d]`, computed in
/// residual form (see the module docs) through the active [`KernelTier`].
///
/// Convenience wrapper over [`with_sq8_residual`] +
/// [`sq8_distance_prepped`] for one-off scoring; batch loops hoist the
/// residual themselves.
#[inline]
pub fn sq8_distance(query: &[f32], codes: &[u8], min: &[f32], step: &[f32]) -> f32 {
    debug_assert_eq!(query.len(), codes.len());
    debug_assert_eq!(query.len(), min.len());
    debug_assert_eq!(query.len(), step.len());
    with_sq8_residual(query, min, |residual| {
        sq8_distance_prepped(residual, step, codes)
    })
}

/// A scalar-quantized dataset: one byte per dimension per point.
#[derive(Debug, Clone, PartialEq)]
pub struct Sq8Dataset {
    codes: Vec<u8>,
    n: usize,
    dim: usize,
    /// Per-dimension minimum (dequantization offset).
    min: Vec<f32>,
    /// Per-dimension step (dequantization scale).
    step: Vec<f32>,
}

impl Sq8Dataset {
    /// Quantizes a dataset with per-dimension min/max ranges.
    pub fn quantize(ds: &Dataset) -> Sq8Dataset {
        let dim = ds.dim();
        let n = ds.len();
        let mut min = vec![f32::INFINITY; dim];
        let mut max = vec![f32::NEG_INFINITY; dim];
        for i in 0..n as u32 {
            for (d, &x) in ds.point(i).iter().enumerate() {
                min[d] = min[d].min(x);
                max[d] = max[d].max(x);
            }
        }
        let step: Vec<f32> = min
            .iter()
            .zip(&max)
            .map(|(&lo, &hi)| ((hi - lo) / 255.0).max(f32::MIN_POSITIVE))
            .collect();
        let mut codes = Vec::with_capacity(n * dim);
        for i in 0..n as u32 {
            for (d, &x) in ds.point(i).iter().enumerate() {
                let c = ((x - min[d]) / step[d]).round().clamp(0.0, 255.0);
                codes.push(c as u8);
            }
        }
        Sq8Dataset {
            codes,
            n,
            dim,
            min,
            step,
        }
    }

    /// Number of points.
    pub fn len(&self) -> usize {
        self.n
    }

    /// True when empty.
    pub fn is_empty(&self) -> bool {
        self.n == 0
    }

    /// Dimensionality.
    pub fn dim(&self) -> usize {
        self.dim
    }

    /// Asymmetric squared distance: f32 query vs quantized base point.
    #[inline]
    pub fn dist_to(&self, query: &[f32], id: u32) -> f32 {
        debug_assert_eq!(query.len(), self.dim);
        sq8_distance(query, self.codes_of(id), &self.min, &self.step)
    }

    /// Scores `query` against every id in `ids`, overwriting `out`
    /// (cleared and refilled), with the per-query dequantization residual
    /// hoisted out of the candidate loop: one `q − min` pass per batch,
    /// then one fused kernel call per candidate. Each output is bit-equal
    /// to [`Sq8Dataset::dist_to`] on the same tier (both run the same
    /// residual-form kernel). The code lines for id `j + PREFETCH_AHEAD`
    /// are requested while id `j` is scored, mirroring
    /// [`crate::VectorView::dist_to_many`].
    #[inline]
    pub fn dist_to_many(&self, query: &[f32], ids: &[u32], out: &mut Vec<f32>) {
        debug_assert_eq!(query.len(), self.dim);
        out.clear();
        out.reserve(ids.len());
        with_sq8_residual(query, &self.min, |residual| {
            // Tier resolved once per batch, not once per candidate.
            let kernel = match KernelTier::active() {
                KernelTier::Scalar => sq8_kernels::scalar,
                KernelTier::Unrolled => sq8_kernels::unrolled,
                KernelTier::Simd => sq8_kernels::simd,
            };
            for (j, &id) in ids.iter().enumerate() {
                if let Some(&ahead) = ids.get(j + PREFETCH_AHEAD) {
                    let c = self.codes_of(ahead);
                    crate::prefetch::prefetch_span(c.as_ptr(), c.len());
                }
                out.push(kernel(residual, &self.step, self.codes_of(id)));
            }
        });
    }

    /// Borrows point `id`'s raw codes (`dim` bytes).
    #[inline]
    pub fn codes_of(&self, id: u32) -> &[u8] {
        &self.codes[id as usize * self.dim..(id as usize + 1) * self.dim]
    }

    /// Per-dimension dequantization offsets.
    pub fn mins(&self) -> &[f32] {
        &self.min
    }

    /// Per-dimension dequantization scales.
    pub fn steps(&self) -> &[f32] {
        &self.step
    }

    /// Reconstructs one point (lossy).
    pub fn decode(&self, id: u32) -> Vec<f32> {
        let codes = &self.codes[id as usize * self.dim..(id as usize + 1) * self.dim];
        (0..self.dim)
            .map(|d| self.min[d] + codes[d] as f32 * self.step[d])
            .collect()
    }

    /// Worst-case squared quantization error of a single reconstructed
    /// point: `Σ (step/2)²`.
    pub fn max_sq_error(&self) -> f32 {
        self.step.iter().map(|s| (s / 2.0) * (s / 2.0)).sum()
    }

    /// Heap bytes: codes + affine parameters. Compare against
    /// [`Dataset::memory_bytes`]'s `4 × n × dim`.
    pub fn memory_bytes(&self) -> usize {
        self.codes.len() + (self.min.len() + self.step.len()) * 4
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::synthetic::MixtureSpec;

    fn dataset() -> Dataset {
        MixtureSpec::table10(16, 500, 3, 5.0, 5).generate().0
    }

    #[test]
    fn memory_is_roughly_quarter() {
        let ds = dataset();
        let q = Sq8Dataset::quantize(&ds);
        assert!(q.memory_bytes() * 3 < ds.memory_bytes());
    }

    #[test]
    fn reconstruction_error_is_bounded() {
        let ds = dataset();
        let q = Sq8Dataset::quantize(&ds);
        let bound = q.max_sq_error();
        for i in (0..ds.len() as u32).step_by(17) {
            let rec = q.decode(i);
            let err: f32 = ds
                .point(i)
                .iter()
                .zip(&rec)
                .map(|(a, b)| (a - b) * (a - b))
                .sum();
            assert!(err <= bound * 1.001, "point {i}: err {err} > bound {bound}");
        }
    }

    #[test]
    fn asymmetric_distance_tracks_true_distance() {
        let (ds, qs) = MixtureSpec::table10(16, 500, 3, 5.0, 20).generate();
        let q = Sq8Dataset::quantize(&ds);
        // Orderings agree on the vast majority of triples.
        let mut agree = 0usize;
        let mut total = 0usize;
        for qi in 0..qs.len() as u32 {
            let query = qs.point(qi);
            for i in (0..ds.len() as u32 - 1).step_by(23) {
                let (a, b) = (i, i + 1);
                let true_order = ds.dist_to(query, a) < ds.dist_to(query, b);
                let q_order = q.dist_to(query, a) < q.dist_to(query, b);
                total += 1;
                if true_order == q_order {
                    agree += 1;
                }
            }
        }
        assert!(agree as f64 / total as f64 > 0.95, "{agree}/{total}");
    }

    #[test]
    fn constant_dimension_does_not_divide_by_zero() {
        let mut rows = Vec::new();
        for i in 0..20 {
            rows.push(vec![5.0, i as f32]); // dim 0 constant
        }
        let ds = Dataset::from_rows(&rows);
        let q = Sq8Dataset::quantize(&ds);
        assert!((q.decode(3)[0] - 5.0).abs() < 1e-3);
    }
}
