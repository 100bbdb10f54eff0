//! SimHash LSH over output-layer neurons.
//!
//! Each of `L` tables holds `K` random hyperplanes in hidden-activation
//! space. A neuron (a column of `W₂`) hashes to the K-bit sign pattern of
//! its projections; a query activation retrieves the neurons in its bucket,
//! unioned across tables. Similar (high-dot-product) vectors collide with
//! high probability — which is exactly the "retrieve the classes this
//! activation would score highly" behaviour sampled softmax needs.

use asgd_stats::dist::standard_normal;
use asgd_tensor::kernels::{dot_lanes, gemm_nt_chunk, Epilogue, Widen};
use asgd_tensor::parallel::par_chunks_mut;
use asgd_tensor::{FlatRef, MatRef};
use rand::{rngs::StdRng, SeedableRng};
use std::cell::RefCell;

/// Classes below this hash serially during [`LshIndex::rebuild`] — the
/// fork/join only pays off when the signature sweep is model-scale.
const MIN_PAR_CLASSES: usize = 256;

/// Classes hashed per sweep step: their `W₂` rows, one contiguous
/// `SWEEP_BLOCK × dim` tile (16 KB at `dim = 64`, L1-resident), are
/// projected onto every hyperplane by one `gemm_nt` call.
const SWEEP_BLOCK: usize = 64;

thread_local! {
    /// Per-thread scratch of the signature sweep: a sweep block's widened
    /// class tile (`SWEEP_BLOCK × dim`, bf16 models only) and its
    /// projections (`SWEEP_BLOCK × l·k`),
    /// grown on a thread's first sweep and reused by every later one — a
    /// warm rebuild allocates nothing for them.
    static SWEEP_SCRATCH: RefCell<Vec<f32>> = const { RefCell::new(Vec::new()) };
}

/// Digit width of the bucket sort: `2^11` counters (8 KB) stay in L1, and a
/// `k`-bit signature takes `⌈k / 11⌉` passes — one at the default `k = 9`,
/// three at `k = 32`, never a `2^k`-sized table.
const RADIX_BITS: usize = 11;

/// K-bit sign pattern of `k` projections (bit `b` set iff `proj[b] >= 0`).
#[inline]
fn sign_bits(proj: impl Iterator<Item = f32>) -> u32 {
    proj.enumerate()
        .fold(0, |sig, (b, p)| sig | (u32::from(p >= 0.0) << b))
}

/// One table's buckets in a flat layout: every class once in `members`,
/// sorted by `(signature, class)`, plus the range of each distinct
/// signature. Buffers are reused across rebuilds.
#[derive(Debug, Clone, Default)]
struct Buckets {
    members: Vec<u32>,
    /// Distinct signatures, ascending; bucket `i` is
    /// `members[starts[i]..starts[i + 1]]`.
    keys: Vec<u32>,
    starts: Vec<u32>,
    /// Ping-pong buffer of the radix passes.
    scratch: Vec<u32>,
}

impl Buckets {
    /// Re-sorts all classes by table `t`'s signature (`sigs[c * l + t]`)
    /// with a stable LSD radix sort seeded in ascending class order, so
    /// every bucket lists its classes ascending — the order the `HashMap`
    /// build produced by pushing classes `0, 1, 2, …`.
    fn fill(&mut self, sigs: &[u32], l: usize, t: usize, k: usize) {
        let classes = sigs.len() / l;
        let sig_of = |c: u32| sigs[c as usize * l + t];
        self.members.clear();
        self.members.extend(0..classes as u32);
        self.scratch.resize(classes, 0);
        for shift in (0..k).step_by(RADIX_BITS) {
            let digit = |c: u32| (sig_of(c) >> shift) as usize & ((1 << RADIX_BITS) - 1);
            let mut next = [0u32; 1 << RADIX_BITS];
            for &c in &self.members {
                next[digit(c)] += 1;
            }
            let mut sum = 0;
            for n in next.iter_mut() {
                sum += std::mem::replace(n, sum);
            }
            for &c in &self.members {
                let slot = &mut next[digit(c)];
                self.scratch[*slot as usize] = c;
                *slot += 1;
            }
            std::mem::swap(&mut self.members, &mut self.scratch);
        }
        self.keys.clear();
        self.starts.clear();
        // Upper bound on distinct signatures: steady-state rebuilds never
        // grow these, whatever the bucket occupancy turns out to be.
        let max_keys = (classes as u64).min(1 << k) as usize;
        self.keys.reserve(max_keys);
        self.starts.reserve(max_keys + 1);
        for (i, &c) in self.members.iter().enumerate() {
            let sig = sig_of(c);
            if self.keys.last() != Some(&sig) {
                self.keys.push(sig);
                self.starts.push(i as u32);
            }
        }
        self.starts.push(classes as u32);
    }

    /// The classes whose signature is `sig`, ascending (empty if none).
    fn bucket(&self, sig: u32) -> &[u32] {
        match self.keys.binary_search(&sig) {
            Ok(i) => &self.members[self.starts[i] as usize..self.starts[i + 1] as usize],
            Err(_) => &[],
        }
    }
}

/// A multi-table SimHash index over the output neurons.
///
/// Besides the buckets, the index stores every neuron's per-table
/// signature from the last [`rebuild`](LshIndex::rebuild) — that is what
/// lets the sampled-softmax candidate selection look up "the neurons that
/// collide with class `c`" *without* a hidden activation, keeping candidate
/// sets a pure function of (LSH seed, `W₂` bytes, batch labels).
#[derive(Debug, Clone)]
pub struct LshIndex {
    /// `(tables · k) × dim` row-major hyperplane normals, table-major: rows
    /// `t·k..(t+1)·k` are table `t`'s planes.
    planes: Vec<f32>,
    k: usize,
    dim: usize,
    /// One flat bucket layout per table.
    buckets: Vec<Buckets>,
    /// `classes × tables` row-major: `sigs[j * tables + t]` is neuron `j`'s
    /// signature in table `t` (from the last rebuild).
    sigs: Vec<u32>,
}

impl LshIndex {
    /// Creates an index with `l` tables of `k` bits over `dim`-dimensional
    /// neuron vectors. `k ≤ 32`.
    pub fn new(l: usize, k: usize, dim: usize, seed: u64) -> Self {
        assert!(l >= 1, "need at least one table");
        assert!((1..=32).contains(&k), "k must be in 1..=32");
        assert!(dim >= 1, "dim must be positive");
        let mut rng = StdRng::seed_from_u64(seed);
        LshIndex {
            planes: (0..l * k * dim)
                .map(|_| standard_normal(&mut rng) as f32)
                .collect(),
            k,
            dim,
            buckets: vec![Buckets::default(); l],
            sigs: Vec::new(),
        }
    }

    /// Number of tables.
    pub fn tables(&self) -> usize {
        self.buckets.len()
    }

    /// Table `t`'s K-bit sign signature of a contiguous vector. Every
    /// projection is a [`dot_lanes`] reduction — the association the rebuild
    /// sweep's `gemm_nt` reproduces bit for bit (reduction-contract rule 2),
    /// so a vector hashes identically on every path.
    fn signature(&self, t: usize, v: &[f32]) -> u32 {
        let planes = &self.planes[t * self.k * self.dim..(t + 1) * self.k * self.dim];
        sign_bits(planes.chunks(self.dim).map(|row| dot_lanes(row, v)))
    }

    /// (Re)hashes every output neuron. `w2` is class-major, `classes × dim`;
    /// neuron `j` is row `j`. Bucket contents are identical for any
    /// `ASGD_THREADS`.
    pub fn rebuild<'a>(&mut self, w2: impl Into<MatRef<'a>>) {
        let w2 = w2.into();
        assert_eq!(w2.cols(), self.dim, "neuron dimensionality mismatch");
        self.rebuild_from(w2.as_slice(), w2.rows());
    }

    /// [`rebuild`](Self::rebuild) from the `classes × dim` `W₂` region that
    /// starts at element `offset` of a flat model buffer — a
    /// [`FlatVec`](asgd_tensor::FlatVec) or
    /// a borrowed [`FlatRef`] — read in place: f32 verbatim, bf16 widened
    /// exactly — the same bits a replica holds after importing that buffer.
    pub fn rebuild_flat<'a>(
        &mut self,
        flat: impl Into<FlatRef<'a>>,
        offset: usize,
        classes: usize,
    ) {
        let region = offset..offset + self.dim * classes;
        match flat.into() {
            FlatRef::F32(v) => self.rebuild_from(&v[region], classes),
            FlatRef::Bf16(v) => self.rebuild_from(&v[region], classes),
        }
    }

    /// The one build path. Signatures are swept in parallel over blocks of
    /// classes (each is a pure function of one `W₂` row): a block's rows —
    /// one contiguous run, read in place at f32 and widened exactly into
    /// [`SWEEP_SCRATCH`] at bf16 — are projected onto every hyperplane by one
    /// `gemm_nt` call into the same scratch. Then
    /// every table sorts its classes into buckets — tables in parallel, each
    /// sort serial and a pure function of the signatures.
    fn rebuild_from<E: Widen>(&mut self, w2: &[E], classes: usize) {
        let (dim, k, l) = (self.dim, self.k, self.buckets.len());
        assert_eq!(w2.len(), dim * classes, "W2 region shape mismatch");
        self.sigs.resize(classes * l, 0);
        let planes = &self.planes;
        par_chunks_mut(
            &mut self.sigs,
            classes,
            l,
            MIN_PAR_CLASSES,
            |first, chunk| {
                SWEEP_SCRATCH.with(|cell| {
                    let mut scratch = cell.borrow_mut();
                    scratch.resize(SWEEP_BLOCK * (dim + l * k), 0.0);
                    let (tile, proj) = scratch.split_at_mut(SWEEP_BLOCK * dim);
                    for (b, sig_block) in chunk.chunks_mut(SWEEP_BLOCK * l).enumerate() {
                        let (j0, n) = (first + b * SWEEP_BLOCK, sig_block.len() / l);
                        let rows = &w2[j0 * dim..(j0 + n) * dim];
                        let tile = E::widen_run(rows, tile);
                        let proj = &mut proj[..n * l * k];
                        let ep = Epilogue::AlphaBeta {
                            alpha: 1.0,
                            beta: 0.0,
                        };
                        gemm_nt_chunk(tile, dim, planes, l * k, 0, proj, ep);
                        for (sig, p) in sig_block.iter_mut().zip(proj.chunks(k)) {
                            *sig = sign_bits(p.iter().copied());
                        }
                    }
                })
            },
        );
        let sigs = &self.sigs;
        let min_par_tables = if classes < MIN_PAR_CLASSES {
            usize::MAX
        } else {
            2
        };
        par_chunks_mut(&mut self.buckets, l, 1, min_par_tables, |t0, tables| {
            for (t, b) in (t0..).zip(tables) {
                b.fill(sigs, l, t, k);
            }
        });
    }

    /// Returns the sorted, de-duplicated union of the query's buckets.
    pub fn query(&self, activation: &[f32]) -> Vec<u32> {
        assert_eq!(activation.len(), self.dim, "query width");
        let mut out: Vec<u32> = Vec::new();
        for (t, b) in self.buckets.iter().enumerate() {
            out.extend_from_slice(b.bucket(self.signature(t, activation)));
        }
        out.sort_unstable();
        out.dedup();
        out
    }

    /// The bucket `class` falls into in each table, in table order: every
    /// neuron sharing a bucket with `class`, duplicates across tables and
    /// the class itself included — callers take the union. Activation-free:
    /// lookups go through the signatures stored at the last rebuild.
    ///
    /// # Panics
    /// Panics when `class` is outside the indexed range (or before the
    /// first rebuild).
    pub fn neighbor_buckets(&self, class: u32) -> impl Iterator<Item = &[u32]> {
        let j = class as usize;
        assert!(j < self.len(), "class {class} not indexed");
        let l = self.buckets.len();
        self.buckets
            .iter()
            .zip(&self.sigs[j * l..(j + 1) * l])
            .map(|(b, &sig)| b.bucket(sig))
    }

    /// Neurons currently indexed.
    pub fn len(&self) -> usize {
        self.sigs.len() / self.buckets.len()
    }

    /// Whether the index holds no neurons (before the first rebuild).
    pub fn is_empty(&self) -> bool {
        self.sigs.is_empty()
    }
}

#[cfg(test)]
impl LshIndex {
    /// The bucket build the flat layout replaced, kept as the test oracle:
    /// one [`LshIndex::signature`] (a portable [`dot_lanes`] per plane) per
    /// class row of the class-major `w2`, `HashMap<u32, Vec<u32>>` buckets filled by pushing
    /// classes in ascending order, then copied bucket by bucket into the
    /// flat fields. Shares neither the blocked sweep nor the radix sort with
    /// [`LshIndex::rebuild`].
    pub(crate) fn rebuild_oracle(&mut self, w2: &asgd_tensor::Matrix) {
        use std::collections::HashMap;
        let (classes, l) = (w2.rows(), self.buckets.len());
        self.sigs.clear();
        let mut maps: Vec<HashMap<u32, Vec<u32>>> = vec![HashMap::new(); l];
        for j in 0..classes {
            for (t, map) in maps.iter_mut().enumerate() {
                let sig = self.signature(t, w2.row(j));
                self.sigs.push(sig);
                map.entry(sig).or_default().push(j as u32);
            }
        }
        for (b, map) in self.buckets.iter_mut().zip(maps) {
            let mut entries: Vec<(u32, Vec<u32>)> = map.into_iter().collect();
            entries.sort_unstable_by_key(|e| e.0);
            *b = Buckets::default();
            for (sig, members) in entries {
                b.keys.push(sig);
                b.starts.push(b.members.len() as u32);
                b.members.extend(members);
            }
            b.starts.push(classes as u32);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use asgd_tensor::{bf16, FlatVec, Matrix};
    use proptest::prelude::*;

    /// A class-major `classes × dim` `W₂` of seeded values in `[-1, 1)`
    /// with exact zeros sprinkled in.
    fn random_w2(dim: usize, classes: usize, seed: u64) -> Matrix {
        let mut st = seed | 1;
        Matrix::from_fn(classes, dim, |_, _| {
            st = st
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            match st >> 61 {
                0 => 0.0,
                _ => (st >> 40) as f32 / (1u64 << 23) as f32 - 1.0,
            }
        })
    }

    /// Every observable of `fast` equals the oracle's: stored signatures,
    /// each class's neighbor *sequence*, and queries.
    fn assert_matches_oracle(fast: &LshIndex, w2: &Matrix) {
        let mut oracle = fast.clone();
        oracle.rebuild_oracle(w2);
        assert_eq!(fast.len(), oracle.len());
        assert_eq!(fast.sigs, oracle.sigs, "sweep signatures diverged");
        for c in 0..fast.len() as u32 {
            assert!(
                fast.neighbor_buckets(c).eq(oracle.neighbor_buckets(c)),
                "neighbor sequence of class {c}"
            );
        }
        for j in 0..w2.rows().min(8) {
            let q: Vec<f32> = w2.row(j).iter().map(|v| v + 0.25).collect();
            assert_eq!(fast.query(&q), oracle.query(&q), "query near class {j}");
        }
    }

    proptest! {
        /// Flat buckets + blocked sweep against the `HashMap` oracle, over
        /// class counts around the sweep block and the serial/parallel
        /// switch, dims on and off the 8-lane blocks, and
        /// signature widths on both sides of every radix pass boundary —
        /// from an f32 `W₂` and from a bf16 flat buffer (at an offset that
        /// puts no row on an 8-element boundary), hashed as its widening.
        #[test]
        fn flat_layout_matches_hashmap_oracle(
            dim in 1usize..40,
            classes in prop_oneof![0usize..4, 60usize..70, 250usize..400],
            tables in 1usize..5,
            k_pick in 0usize..4,
            seed in 0u64..1000,
        ) {
            let k = [1usize, 9, 17, 32][k_pick];
            let w2 = random_w2(dim, classes, seed);
            let mut idx = LshIndex::new(tables, k, dim, seed ^ 0xABCD);
            idx.rebuild(&w2);
            assert_matches_oracle(&idx, &w2);
            let mut stored = vec![bf16::narrow(1.5); 3];
            stored.extend(w2.as_slice().iter().map(|&x| bf16::narrow(x)));
            let widened = Matrix::from_fn(classes, dim, |c, r| bf16::widen(stored[3 + c * dim + r]));
            idx.rebuild_flat(&FlatVec::Bf16(stored), 3, classes);
            assert_matches_oracle(&idx, &widened);
        }
    }

    /// The sweep's `gemm_nt` leaf (AVX2 where the host has it) against the
    /// portable `dot_lanes` twin on projections built to sit on the sign
    /// test's edge: all-zero and all-`-0.0` columns, denormal columns whose
    /// products underflow, and columns that cancel a plane's own terms to
    /// an exact `±0.0` — a fused or re-associated evaluation leaves a
    /// residue there and can flip the bit.
    #[test]
    fn sweep_matches_portable_twin_on_zero_and_denormal_projections() {
        let (dim, l, k) = (24usize, 3usize, 9usize);
        let mut idx = LshIndex::new(l, k, dim, 11);
        let planes = idx.planes.clone();
        // 27 planes: not a multiple of the kernel's 4-row block, so the
        // blocked and the remainder dot paths both run.
        let mut cols: Vec<Vec<f32>> = vec![
            vec![0.0; dim],
            vec![-0.0; dim],
            vec![1e-42; dim],
            vec![-1e-42; dim],
            (0..dim)
                .map(|i| if i % 2 == 0 { 1e-39 } else { -1e-39 })
                .collect(),
        ];
        for p in planes.chunks(dim) {
            // Two terms that cancel: `p_a·p_b − p_b·p_a`. Eight apart they
            // meet in one lane's accumulator (a fused multiply-add would
            // keep the first product's rounding error); one apart they meet
            // in the lane tree.
            for (a, b) in [(0, 8), (5, 13), (2, 3)] {
                let mut v = vec![0.0f32; dim];
                v[a] = p[b];
                v[b] = -p[a];
                assert_eq!(dot_lanes(p, &v), 0.0, "column must cancel exactly");
                cols.push(v.iter().map(|x| -x).collect());
                cols.push(v);
            }
        }
        // Pad past one sweep block so a ragged second block runs too.
        while cols.len() < SWEEP_BLOCK + 5 {
            let j = cols.len();
            cols.push(
                (0..dim)
                    .map(|i| ((i * 7 + j * 3) % 11) as f32 - 5.0)
                    .collect(),
            );
        }
        let w2 = Matrix::from_fn(cols.len(), dim, |j, r| cols[j][r]);
        idx.rebuild(&w2);
        for (j, col) in cols.iter().enumerate() {
            for t in 0..l {
                assert_eq!(
                    idx.sigs[j * l + t],
                    idx.signature(t, col),
                    "column {j} table {t}"
                );
            }
        }
        assert_matches_oracle(&idx, &w2);
    }

    /// bf16 regions hash as their exact widening: `rebuild_flat` over a
    /// flat buffer equals `rebuild` over the widened dense `W₂`, at a
    /// non-zero offset, for both storage precisions — from an owned
    /// [`FlatVec`] and from a [`FlatRef`] borrowing the same values where
    /// they live (a model's parameters, synced without a copy).
    #[test]
    fn rebuild_flat_reads_the_region_in_place() {
        let (dim, classes, off) = (12usize, 300usize, 17usize);
        let w2 = random_w2(dim, classes, 5);
        let mut f32_flat = vec![9.0f32; off];
        f32_flat.extend_from_slice(w2.as_slice());
        f32_flat.extend([7.0; 3]);
        let bf16_flat: Vec<u16> = f32_flat.iter().map(|&x| bf16::narrow(x)).collect();
        let widened = Matrix::from_fn(classes, dim, |c, r| {
            bf16::widen(bf16_flat[off + c * dim + r])
        });
        for (flat, dense) in [
            (FlatVec::F32(f32_flat), &w2),
            (FlatVec::Bf16(bf16_flat), &widened),
        ] {
            let mut idx = LshIndex::new(4, 9, dim, 3);
            idx.rebuild_flat(&flat, off, classes);
            assert_matches_oracle(&idx, dense);
            let (f32_in_place, bf16_in_place);
            let view = match &flat {
                FlatVec::F32(v) => {
                    f32_in_place = v.clone();
                    FlatRef::F32(&f32_in_place)
                }
                FlatVec::Bf16(v) => {
                    bf16_in_place = v.clone();
                    FlatRef::Bf16(&bf16_in_place)
                }
            };
            let mut borrowed = LshIndex::new(4, 9, dim, 3);
            borrowed.rebuild_flat(view, off, classes);
            assert_eq!(borrowed.sigs, idx.sigs, "{:?}", flat.precision());
            assert_matches_oracle(&borrowed, dense);
        }
    }

    /// A second rebuild at the same shape reuses every buffer, whatever
    /// the new bucket occupancy.
    #[test]
    fn consecutive_rebuilds_do_not_reallocate() {
        let mut idx = LshIndex::new(4, 9, 16, 1);
        idx.rebuild(&random_w2(16, 700, 1));
        let caps = |i: &LshIndex| {
            let mut c = vec![i.sigs.capacity()];
            for b in &i.buckets {
                c.extend([
                    b.members.capacity(),
                    b.keys.capacity(),
                    b.starts.capacity(),
                    b.scratch.capacity(),
                ]);
            }
            c
        };
        let before = caps(&idx);
        // One distinct row per class, then all rows identical: the
        // distinct-signature count swings between its extremes.
        idx.rebuild(&random_w2(16, 700, 2));
        idx.rebuild(&Matrix::from_fn(700, 16, |_, r| r as f32 - 8.0));
        idx.rebuild(&random_w2(16, 700, 3));
        assert_eq!(caps(&idx), before);
        // The sweep's tile and projection scratch: below `MIN_PAR_CLASSES`
        // the sweep runs on this thread, whose scratch a warm rebuild reuses.
        let scratch = || {
            SWEEP_SCRATCH.with(|s| {
                let s = s.borrow();
                (s.as_ptr(), s.capacity())
            })
        };
        let mut small = LshIndex::new(4, 9, 16, 1);
        small.rebuild(&random_w2(16, 200, 1));
        let warm = scratch();
        small.rebuild(&random_w2(16, 200, 2));
        small.rebuild_flat(&FlatVec::Bf16(vec![0x3f80; 16 * 200]), 0, 200);
        assert_eq!(scratch(), warm);
    }

    /// A class-major W2 whose class rows form two well-separated clusters.
    fn clustered_w2(dim: usize, per_cluster: usize) -> Matrix {
        let classes = per_cluster * 2;
        Matrix::from_fn(classes, dim, |j, i| {
            let cluster = j / per_cluster;
            let base = if cluster == 0 { 1.0 } else { -1.0 };
            // Mild deterministic wiggle so rows are not identical.
            base + ((i * 7 + j * 13) % 5) as f32 * 0.02
        })
    }

    #[test]
    fn identical_vector_retrieves_itself() {
        let w2 = clustered_w2(16, 8);
        let mut idx = LshIndex::new(8, 6, 16, 1);
        idx.rebuild(&w2);
        // Query with class 3's own vector: must retrieve class 3.
        let hits = idx.query(w2.row(3));
        assert!(hits.contains(&3), "self-retrieval failed: {hits:?}");
    }

    #[test]
    fn query_prefers_similar_cluster() {
        let w2 = clustered_w2(16, 8);
        let mut idx = LshIndex::new(6, 8, 16, 2);
        idx.rebuild(&w2);
        let q = vec![1.0f32; 16]; // aligned with cluster 0 (classes 0..8)
        let hits = idx.query(&q);
        let cluster0 = hits.iter().filter(|&&c| c < 8).count();
        let cluster1 = hits.len() - cluster0;
        assert!(
            cluster0 > cluster1,
            "expected cluster-0 dominance: {hits:?}"
        );
    }

    #[test]
    fn rebuild_replaces_old_buckets() {
        let w2a = clustered_w2(8, 4);
        let mut idx = LshIndex::new(4, 4, 8, 3);
        idx.rebuild(&w2a);
        assert_eq!(idx.len(), 8);
        let smaller = Matrix::from_fn(4, 8, |j, i| ((i + j) % 3) as f32 - 1.0);
        idx.rebuild(&smaller);
        assert_eq!(idx.len(), 4);
        let hits = idx.query(&[1.0; 8]);
        assert!(
            hits.iter().all(|&c| c < 4),
            "stale bucket entries: {hits:?}"
        );
    }

    #[test]
    fn results_are_sorted_unique() {
        let w2 = clustered_w2(8, 16);
        let mut idx = LshIndex::new(10, 3, 8, 4);
        idx.rebuild(&w2);
        let hits = idx.query(&[0.5; 8]);
        for w in hits.windows(2) {
            assert!(w[0] < w[1]);
        }
    }

    #[test]
    fn deterministic_per_seed() {
        let w2 = clustered_w2(8, 8);
        let build = |seed| {
            let mut idx = LshIndex::new(4, 5, 8, seed);
            idx.rebuild(&w2);
            idx.query(&[1.0; 8])
        };
        assert_eq!(build(7), build(7));
    }

    #[test]
    #[should_panic(expected = "k must be in")]
    fn k_over_32_panics() {
        let _ = LshIndex::new(2, 40, 8, 0);
    }
}
