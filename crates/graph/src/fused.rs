//! [`FusedArena`]: one contiguous, cache-aligned block per vertex holding
//! its degree, neighbor ids, and (optionally) its vector.
//!
//! The split layout pays two dependent misses per expansion: one into the
//! CSR edge array, then one per neighbor into the vector matrix. kANNolo
//! (arXiv 2501.06121) shows that fusing a node's adjacency and vector
//! into a single block — so expanding a vertex touches exactly one region
//! the prefetcher can stream — is worth more than micro-optimized
//! arithmetic. This arena is that layout: blocks are 64-byte aligned and
//! stride-padded to whole cache lines, and expose the same [`GraphView`]
//! / [`VectorView`] traits the routers already consume, so every search
//! routine runs on it unchanged.
//!
//! Distances computed through the arena reuse the *same* kernels as the
//! split layout ([`weavess_data::distance`] for f32 payloads,
//! [`weavess_data::quant::sq8_distance`] for SQ8), so fused results are
//! bit-identical by construction.

use crate::adjacency::{CsrGraph, GraphView};
use weavess_data::prefetch::prefetch_span;
use weavess_data::quant::{sq8_distance, sq8_distance_prepped, with_sq8_residual, Sq8Dataset};
use weavess_data::vectors::{dist_to_many_per_id, VectorView, PREFETCH_AHEAD};
use weavess_data::Dataset;

/// Words (u32) per 64-byte cache line.
const LINE_WORDS: usize = 16;

/// What each node block carries after its adjacency list.
#[derive(Debug, Clone, PartialEq)]
enum Payload {
    /// Adjacency only — the vectors live elsewhere.
    None,
    /// The vertex's raw `f32` vector, `dim` words.
    F32 { dim: usize },
    /// The vertex's SQ8 codes (`dim` bytes, word-padded) with the shared
    /// dequantization parameters held once arena-wide.
    Sq8 {
        dim: usize,
        min: Vec<f32>,
        step: Vec<f32>,
    },
}

impl Payload {
    /// Words the payload occupies inside each block.
    fn words(&self) -> usize {
        match self {
            Payload::None => 0,
            Payload::F32 { dim } => *dim,
            Payload::Sq8 { dim, .. } => dim.div_ceil(4),
        }
    }
}

/// Fused node storage: `block(v) = [degree, neighbor ids…, payload…]`,
/// one 64-byte-aligned, line-padded block per vertex.
///
/// Not `Clone`: the base offset depends on the allocation's address, so a
/// byte-copy would mis-align. Rebuild from the source graph instead.
#[derive(Debug)]
pub struct FusedArena {
    buf: Vec<u32>,
    /// Word offset of the first block (aligns block 0 to 64 bytes).
    base: usize,
    /// Words per block — a multiple of [`LINE_WORDS`].
    stride: usize,
    n: usize,
    max_degree: usize,
    payload: Payload,
}

impl FusedArena {
    /// Fuses adjacency only (vectors stay wherever the caller keeps them).
    pub fn from_graph(g: &CsrGraph) -> Self {
        Self::build(g, Payload::None, |_, _| {})
    }

    /// Fuses adjacency and raw `f32` vectors.
    pub fn with_vectors(g: &CsrGraph, ds: &Dataset) -> Self {
        assert_eq!(g.len(), ds.len(), "graph/dataset size mismatch");
        Self::build(g, Payload::F32 { dim: ds.dim() }, |v, dst| {
            let src = ds.point(v);
            // SAFETY: dst is a fresh &mut [u32] of exactly `dim` words;
            // u32 and f32 have identical size and 4-byte alignment.
            let out =
                unsafe { std::slice::from_raw_parts_mut(dst.as_mut_ptr() as *mut f32, src.len()) };
            out.copy_from_slice(src);
        })
    }

    /// Fuses adjacency and SQ8 codes; dequantization parameters are kept
    /// once for the whole arena.
    pub fn with_sq8(g: &CsrGraph, sq: &Sq8Dataset) -> Self {
        assert_eq!(g.len(), sq.len(), "graph/codes size mismatch");
        let payload = Payload::Sq8 {
            dim: sq.dim(),
            min: sq.mins().to_vec(),
            step: sq.steps().to_vec(),
        };
        Self::build(g, payload, |v, dst| {
            let src = sq.codes_of(v);
            // SAFETY: dst spans ceil(dim/4) zero-initialized words — at
            // least `dim` bytes; byte views of u32 storage are always
            // valid and never reinterpret multi-byte values.
            let out =
                unsafe { std::slice::from_raw_parts_mut(dst.as_mut_ptr() as *mut u8, src.len()) };
            out.copy_from_slice(src);
        })
    }

    fn build(
        g: &CsrGraph,
        payload: Payload,
        mut write_payload: impl FnMut(u32, &mut [u32]),
    ) -> Self {
        let n = g.len();
        let max_degree = (0..n as u32).map(|v| g.degree(v)).max().unwrap_or(0);
        let used_words = 1 + max_degree + payload.words();
        let stride = used_words.div_ceil(LINE_WORDS) * LINE_WORDS;
        // Over-allocate by a line so block 0 can start on a 64-byte
        // boundary regardless of where the allocator put us.
        let mut buf = vec![0u32; n * stride + (LINE_WORDS - 1)];
        // align_offset counts *elements* (u32s) to advance for 64-byte
        // alignment: at most 15.
        let base = buf.as_ptr().align_offset(64);
        debug_assert!(base < LINE_WORDS);
        let payload_off = 1 + max_degree;
        let payload_words = payload.words();
        for v in 0..n as u32 {
            let block = &mut buf[base + v as usize * stride..base + (v as usize + 1) * stride];
            let nbrs = g.neighbors(v);
            block[0] = nbrs.len() as u32;
            block[1..1 + nbrs.len()].copy_from_slice(nbrs);
            write_payload(v, &mut block[payload_off..payload_off + payload_words]);
        }
        FusedArena {
            buf,
            base,
            stride,
            n,
            max_degree,
            payload,
        }
    }

    #[inline]
    fn block(&self, v: u32) -> &[u32] {
        debug_assert!((v as usize) < self.n);
        &self.buf[self.base + v as usize * self.stride..self.base + (v as usize + 1) * self.stride]
    }

    /// Largest out-degree the blocks were sized for.
    pub fn max_degree(&self) -> usize {
        self.max_degree
    }

    /// Words per node block (a multiple of 16, i.e. whole cache lines).
    pub fn stride_words(&self) -> usize {
        self.stride
    }

    /// SQ8 codes of vertex `v` (only for SQ8-payload arenas).
    fn sq8_codes(&self, v: u32) -> &[u8] {
        let Payload::Sq8 { dim, .. } = &self.payload else {
            panic!("arena has no SQ8 payload");
        };
        let words = &self.block(v)[1 + self.max_degree..];
        // SAFETY: the payload region holds at least `dim` bytes; byte
        // views of u32 storage are always valid.
        unsafe { std::slice::from_raw_parts(words.as_ptr() as *const u8, *dim) }
    }

    /// Heap bytes held by the arena (blocks + dequantization parameters).
    pub fn memory_bytes(&self) -> usize {
        let params = match &self.payload {
            Payload::Sq8 { min, step, .. } => (min.len() + step.len()) * 4,
            _ => 0,
        };
        self.buf.len() * std::mem::size_of::<u32>() + params
    }

    /// Bytes of the arena that are padding rather than data: unused
    /// neighbor slots (blocks are sized for the max degree), SQ8 byte
    /// padding, and cache-line rounding. The honest cost of fusing.
    pub fn padding_bytes(&self) -> usize {
        let payload_bytes = match &self.payload {
            Payload::None => 0,
            Payload::F32 { dim } => dim * 4,
            Payload::Sq8 { dim, .. } => *dim,
        };
        let useful: usize = (0..self.n as u32)
            .map(|v| 4 * (1 + self.block(v)[0] as usize) + payload_bytes)
            .sum();
        self.buf.len() * std::mem::size_of::<u32>() - useful
    }
}

impl GraphView for FusedArena {
    #[inline]
    fn neighbors(&self, v: u32) -> &[u32] {
        let block = self.block(v);
        &block[1..1 + block[0] as usize]
    }

    fn len(&self) -> usize {
        self.n
    }

    #[inline]
    fn prefetch_neighbors(&self, v: u32) {
        // One hint covers degree, ids, and the head of the vector — the
        // whole point of fusing.
        let block = self.block(v);
        prefetch_span(block.as_ptr(), block.len().min(2 * LINE_WORDS));
    }
}

impl VectorView for FusedArena {
    fn len(&self) -> usize {
        self.n
    }

    fn dim(&self) -> usize {
        match &self.payload {
            Payload::None => 0,
            Payload::F32 { dim } | Payload::Sq8 { dim, .. } => *dim,
        }
    }

    #[inline]
    fn vector(&self, v: u32) -> &[f32] {
        let Payload::F32 { dim } = &self.payload else {
            panic!("arena payload holds no raw f32 vectors");
        };
        let words = &self.block(v)[1 + self.max_degree..1 + self.max_degree + dim];
        // SAFETY: the payload words were written from an &[f32] of this
        // exact length; u32 and f32 share size and alignment.
        unsafe { std::slice::from_raw_parts(words.as_ptr() as *const f32, *dim) }
    }

    #[inline]
    fn dist_to(&self, query: &[f32], v: u32) -> f32 {
        match &self.payload {
            Payload::F32 { .. } => weavess_data::distance::squared_euclidean(query, self.vector(v)),
            Payload::Sq8 { min, step, .. } => sq8_distance(query, self.sq8_codes(v), min, step),
            Payload::None => {
                panic!("arena payload holds no vectors; search over the split dataset")
            }
        }
    }

    #[inline]
    fn prefetch_vector(&self, v: u32) {
        let block = self.block(v);
        // The vector sits past the adjacency inside the same block;
        // request the lines that hold it.
        let off = (1 + self.max_degree).min(block.len());
        prefetch_span(block[off..].as_ptr(), block.len() - off);
    }

    /// Batch scoring over fused blocks. For the SQ8 payload the per-query
    /// dequantization residual is hoisted out of the candidate loop
    /// (computed once per batch) and codes are scored by the same
    /// residual-form kernel as the split [`Sq8Dataset`] — bit-equal to
    /// per-id [`VectorView::dist_to`] on the same tier, and bit-identical
    /// to split routing by construction. Other payloads keep the default
    /// per-id path with prefetch look-ahead.
    fn dist_to_many(&self, query: &[f32], ids: &[u32], out: &mut Vec<f32>) {
        let Payload::Sq8 { min, step, .. } = &self.payload else {
            return dist_to_many_per_id(self, query, ids, out);
        };
        out.clear();
        out.reserve(ids.len());
        with_sq8_residual(query, min, |residual| {
            for (j, &id) in ids.iter().enumerate() {
                if let Some(&ahead) = ids.get(j + PREFETCH_AHEAD) {
                    self.prefetch_vector(ahead);
                }
                out.push(sq8_distance_prepped(residual, step, self.sq8_codes(id)));
            }
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn graph() -> CsrGraph {
        CsrGraph::from_lists(&[vec![1u32, 2, 3], vec![0u32], vec![], vec![2u32, 0]])
    }

    fn dataset(dim: usize) -> Dataset {
        let mut ds = Dataset::empty(dim);
        for i in 0..4 {
            let row: Vec<f32> = (0..dim)
                .map(|d| (i * dim + d) as f32 * 0.25 - 3.0)
                .collect();
            ds.push(&row);
        }
        ds
    }

    #[test]
    fn blocks_are_64_byte_aligned_and_line_strided() {
        let arena = FusedArena::with_vectors(&graph(), &dataset(17));
        assert_eq!(arena.stride_words() % LINE_WORDS, 0);
        for v in 0..4u32 {
            assert_eq!(arena.block(v).as_ptr() as usize % 64, 0, "vertex {v}");
        }
    }

    #[test]
    fn neighbors_match_the_source_graph() {
        let g = graph();
        let arena = FusedArena::from_graph(&g);
        for v in 0..g.len() as u32 {
            assert_eq!(GraphView::neighbors(&arena, v), g.neighbors(v));
        }
        assert_eq!(GraphView::len(&arena), g.len());
    }

    #[test]
    fn f32_payload_roundtrips_and_distances_match_bitwise() {
        let g = graph();
        let ds = dataset(23); // odd dim exercises line padding
        let arena = FusedArena::with_vectors(&g, &ds);
        let query: Vec<f32> = (0..23).map(|d| d as f32 * 0.5).collect();
        for v in 0..4u32 {
            assert_eq!(VectorView::vector(&arena, v), ds.point(v));
            assert_eq!(
                VectorView::dist_to(&arena, &query, v).to_bits(),
                ds.dist_to(&query, v).to_bits()
            );
        }
    }

    #[test]
    fn sq8_payload_distances_match_the_split_codes_bitwise() {
        let g = graph();
        let ds = dataset(13); // non-multiple-of-4 dim exercises byte padding
        let sq = Sq8Dataset::quantize(&ds);
        let arena = FusedArena::with_sq8(&g, &sq);
        let query: Vec<f32> = (0..13).map(|d| 1.0 - d as f32 * 0.3).collect();
        for v in 0..4u32 {
            assert_eq!(
                VectorView::dist_to(&arena, &query, v).to_bits(),
                sq.dist_to(&query, v).to_bits()
            );
        }
    }

    #[test]
    fn padding_is_accounted_honestly() {
        let g = graph();
        let arena = FusedArena::from_graph(&g);
        // useful = Σ 4·(1+deg) = 4·(4+2+1+3) = 40 bytes; everything else
        // in the buffer is padding.
        assert_eq!(arena.padding_bytes(), arena.memory_bytes() - 40);
    }

    #[test]
    #[should_panic(expected = "no raw f32 vectors")]
    fn vector_access_on_graph_only_arena_panics() {
        let arena = FusedArena::from_graph(&graph());
        let _ = VectorView::vector(&arena, 0);
    }
}
