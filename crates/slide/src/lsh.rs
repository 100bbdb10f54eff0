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
use asgd_tensor::parallel::{par_chunks_mut, par_chunks_mut2};
use asgd_tensor::{FlatRef, MatRef};
use rand::{rngs::StdRng, SeedableRng};
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};

/// Classes below this hash serially during [`LshIndex::rebuild`] — the
/// fork/join only pays off when the signature sweep is model-scale.
const MIN_PAR_CLASSES: usize = 256;

/// Classes hashed per sweep step, at most: their `W₂` rows, one
/// `block × dim` tile (16 KB at `dim = 64`, L1-resident), are projected onto
/// every hyperplane by one `gemm_nt` call.
const SWEEP_BLOCK: usize = 64;

/// `f32`s of sweep scratch each task keeps on its stack (64 KB): a block's
/// gathered or widened class tile and its projections. A block shrinks to
/// fit; [`LshIndex::new`] refuses a shape whose single class (`dim` plus
/// one projection per plane) does not.
pub const SWEEP_STACK: usize = 1 << 14;

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

/// Two tables are equal when they hold the same buckets (the radix sort's
/// ping-pong buffer is scratch).
impl PartialEq for Buckets {
    fn eq(&self, other: &Self) -> bool {
        (&self.members, &self.keys, &self.starts) == (&other.members, &other.keys, &other.starts)
    }
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

    /// Becomes a copy of `other`'s buckets, in the buffers it has.
    fn copy_from(&mut self, other: &Buckets) {
        self.members.clone_from(&other.members);
        self.keys.clone_from(&other.keys);
        self.starts.clone_from(&other.starts);
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
    /// Per neuron, its margin `μ_j`: a lower bound on `min_p |p·w_j| / ‖p‖`
    /// over every plane `p`, with exact dot products, for the row `w_j`
    /// hashed last (0 when nothing is known; DESIGN.md, "A sync rehashes
    /// only the classes it cannot certify").
    margins: Vec<f64>,
    /// Error constants of the planes.
    bounds: Bounds,
    /// Per table, whether the last sync changed a signature in it.
    changed: Vec<bool>,
}

/// Two indices are equal when they hash with the same planes to the same
/// signatures and buckets (margins are bounds that depend on the path that
/// reached them; nothing selects by them).
impl PartialEq for LshIndex {
    fn eq(&self, other: &Self) -> bool {
        (self.k, self.dim, &self.planes, &self.sigs, &self.buckets)
            == (
                other.k,
                other.dim,
                &other.planes,
                &other.sigs,
                &other.buckets,
            )
    }
}

/// The unit roundoffs of `f32` (`2⁻²⁴`) and `f64` (`2⁻⁵³`).
const U32: f64 = 1.0 / (1u64 << 24) as f64;
const U64: f64 = f64::EPSILON / 2.0;

/// A bound on `|P − p·w|` for a computed projection `P` ([`dot_lanes`] of
/// a plane `p` and an `f32` row `w`) is `γ·‖p‖·‖w‖ + tiny`: every product
/// term passes through one product rounding, at most `⌈dim/8⌉` lane adds
/// and the 3 adds of [`lane_tree`](asgd_tensor::kernels::lane_tree), so
/// `m = ⌈dim/8⌉ + 4` rounding steps bound it (`γ = m·u / (1 − m·u)`,
/// Cauchy–Schwarz turns `Σ|p_i·w_i|` into `‖p‖·‖w‖`), and each product that
/// underflows adds at most `2⁻¹⁵⁰` (adds of subnormals are exact).
#[derive(Debug, Clone)]
struct Bounds {
    /// Per plane, a lower bound on `1 / ‖p‖`.
    inv_norm: Vec<f64>,
    /// An upper bound on `γ`.
    gamma: f64,
    /// An upper bound on the underflow term of one projection,
    /// `dim·2⁻¹⁴⁹`.
    tiny: f64,
    /// An upper bound on `tiny / min ‖p‖`.
    tiny_rel: f64,
    /// An upper bound on `max ‖p‖`.
    max_norm: f64,
    /// The relative slack this module's own `f64` arithmetic is bounded by
    /// (`2·(dim + 8)·2⁻⁵³`, far above what a sum of `dim` terms, a square
    /// root and a few products can round).
    eps: f64,
}

impl Bounds {
    fn new(planes: &[f32], dim: usize) -> Self {
        let eps = 2.0 * (dim + 8) as f64 * U64;
        let norms: Vec<f64> = planes
            .chunks(dim)
            .map(|p| {
                p.iter()
                    .map(|&x| f64::from(x) * f64::from(x))
                    .sum::<f64>()
                    .sqrt()
            })
            .collect();
        let m = dim.div_ceil(8) as f64 + 4.0;
        let tiny = dim as f64 * 2f64.powi(-149) * (1.0 + eps);
        let min_norm = norms.iter().copied().fold(f64::INFINITY, f64::min) * (1.0 - eps);
        Bounds {
            inv_norm: norms
                .iter()
                .map(|&n| (1.0 - eps) / (n * (1.0 + eps)))
                .collect(),
            gamma: m * U32 / (1.0 - m * U32) * (1.0 + eps),
            tiny,
            tiny_rel: tiny / min_norm * (1.0 + eps),
            max_norm: norms.iter().copied().fold(0.0, f64::max) * (1.0 + eps),
            eps,
        }
    }

    /// The margin of a row whose squares sum to `norm_sq` (in `f64`, any
    /// order) and whose computed projections are `proj`: `min_p (|P| −
    /// tiny) / ‖p‖ − γ·‖w‖`, rounded down, or 0 when that is not positive
    /// or anything is not finite. It bounds `|p·w| / ‖p‖` from below since
    /// `|p·w| ≥ |P| − γ·‖p‖·‖w‖ − tiny`.
    #[inline(always)]
    fn margin(&self, proj: &[f32], norm_sq: f64) -> f64 {
        let e = self.eps;
        let mut m = f64::INFINITY;
        for (&p, &inv) in proj.iter().zip(&self.inv_norm) {
            let a = f64::from(p).abs() - self.tiny;
            if !(a > 0.0 && a < f64::INFINITY) {
                return 0.0;
            }
            m = m.min(a * inv);
        }
        let r = m * (1.0 - e) - self.gamma * norm_sq.sqrt() * (1.0 + e) * (1.0 + e);
        if r > 0.0 {
            r * (1.0 - e)
        } else {
            0.0
        }
    }

    /// The certificate: `Some(μ′)` when no signature bit of the new row `v`
    /// can differ from the old row `w`'s, whose margin is `mu` — then `μ′`
    /// is `v`'s margin. With `λ = ⟨v,w⟩/⟨w,w⟩` and `ρ = ‖v − λw‖` (summed
    /// element by element; expanding would cancel), every plane has
    /// `p·v = λ·p·w + p·(v − λw)`, so `|p·v|/‖p‖ ≥ λμ − ρ` with the sign of
    /// `p·w` when `λ > 0`; and when that exceeds `γ·‖v‖ + tiny/‖p‖`, the
    /// computed projection has that sign too. Every rounding of this
    /// function errs toward `None`, and a NaN anywhere gives `None`.
    #[inline(always)]
    fn certify(&self, mu: f64, w: &[f32], v: &[f32]) -> Option<f64> {
        if mu.is_nan() || mu <= 0.0 {
            return None;
        }
        let e = self.eps;
        let [ww, wv, vv] = row_sums(w, v);
        let lambda = wv / ww;
        if !(lambda > 0.0 && lambda < f64::INFINITY) {
            return None;
        }
        let rr = resid_sq(v, lambda, w);
        let w_norm = ww.sqrt() * (1.0 + e);
        let v_norm = vv.sqrt() * (1.0 + e);
        // The computed residual's own error: `λ·w_i` and the subtraction
        // round (relative to `λ·|w_i|` and to the result), and squares that
        // underflow lose at most `f64::MIN_POSITIVE` each.
        let under = w.len() as f64 * f64::MIN_POSITIVE;
        let rho = ((rr + under).sqrt() * (1.0 + e) + 2.0 * U64 * lambda * w_norm) * (1.0 + e);
        let next = (lambda * mu * (1.0 - e) - rho) * (1.0 - e);
        let need = self.gamma * v_norm * (1.0 + e) + self.tiny_rel;
        // No partial sum of a projection of `v` can overflow `f32`.
        let finite = v_norm * self.max_norm * (1.0 + e) < f64::from(f32::MAX) * 0.5;
        (next > need && finite).then_some(next)
    }
}

/// `[Σw², Σw·v, Σv²]` of two rows, in `f64` (every product of two `f32` is
/// exact in `f64`), summed in whatever order the leaf likes: the
/// certificate's bounds hold for any.
#[inline(always)]
fn row_sums(w: &[f32], v: &[f32]) -> [f64; 3] {
    assert_eq!(w.len(), v.len(), "row length mismatch");
    #[cfg(target_arch = "x86_64")]
    if asgd_tensor::kernels::avx2_fma_available() {
        // SAFETY: AVX2 and FMA support was just verified; lengths match.
        return unsafe { row_sums_avx2(w, v) };
    }
    let mut s = [0.0f64; 3];
    for (&x, &y) in w.iter().zip(v) {
        let (x, y) = (f64::from(x), f64::from(y));
        s[0] += x * x;
        s[1] += x * y;
        s[2] += y * y;
    }
    s
}

/// `Σ (v_i − λ·w_i)²` in `f64`, element by element (any order).
#[inline(always)]
fn resid_sq(v: &[f32], lambda: f64, w: &[f32]) -> f64 {
    assert_eq!(w.len(), v.len(), "row length mismatch");
    #[cfg(target_arch = "x86_64")]
    if asgd_tensor::kernels::avx2_fma_available() {
        // SAFETY: AVX2 and FMA support was just verified; lengths match.
        return unsafe { resid_sq_avx2(v, lambda, w) };
    }
    let d = |(&y, &x): (&f32, &f32)| f64::from(y) - lambda * f64::from(x);
    v.iter().zip(w).map(d).map(|d| d * d).sum()
}

/// Sum of the four lanes.
#[cfg(target_arch = "x86_64")]
#[inline(always)]
fn hsum(v: std::arch::x86_64::__m256d) -> f64 {
    let mut lanes = [0.0f64; 4];
    // SAFETY: `lanes` is four f64, what one unaligned store writes.
    unsafe { std::arch::x86_64::_mm256_storeu_pd(lanes.as_mut_ptr(), v) };
    (lanes[0] + lanes[2]) + (lanes[1] + lanes[3])
}

/// AVX2 leaf of [`row_sums`]: eight elements a step, each widened exactly
/// to `f64` and fused-multiply-added into two sets of accumulators.
///
/// # Safety
/// AVX2 and FMA must be available; `w.len() == v.len()`.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2,fma")]
unsafe fn row_sums_avx2(w: &[f32], v: &[f32]) -> [f64; 3] {
    use std::arch::x86_64::*;
    let n = w.len();
    let mut acc = [_mm256_setzero_pd(); 6];
    let mut i = 0;
    while i + 8 <= n {
        for h in 0..2 {
            let x = _mm256_cvtps_pd(_mm_loadu_ps(w.as_ptr().add(i + 4 * h)));
            let y = _mm256_cvtps_pd(_mm_loadu_ps(v.as_ptr().add(i + 4 * h)));
            acc[3 * h] = _mm256_fmadd_pd(x, x, acc[3 * h]);
            acc[3 * h + 1] = _mm256_fmadd_pd(x, y, acc[3 * h + 1]);
            acc[3 * h + 2] = _mm256_fmadd_pd(y, y, acc[3 * h + 2]);
        }
        i += 8;
    }
    let mut s: [f64; 3] = std::array::from_fn(|q| hsum(_mm256_add_pd(acc[q], acc[q + 3])));
    for (&x, &y) in w[i..].iter().zip(&v[i..]) {
        let (x, y) = (f64::from(x), f64::from(y));
        s[0] += x * x;
        s[1] += x * y;
        s[2] += y * y;
    }
    s
}

/// AVX2 leaf of [`resid_sq`].
///
/// # Safety
/// AVX2 and FMA must be available; `w.len() == v.len()`.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2,fma")]
unsafe fn resid_sq_avx2(v: &[f32], lambda: f64, w: &[f32]) -> f64 {
    use std::arch::x86_64::*;
    let n = w.len();
    let lam = _mm256_set1_pd(lambda);
    let mut acc = [_mm256_setzero_pd(); 2];
    let mut i = 0;
    while i + 8 <= n {
        for (h, a) in acc.iter_mut().enumerate() {
            let x = _mm256_cvtps_pd(_mm_loadu_ps(w.as_ptr().add(i + 4 * h)));
            let y = _mm256_cvtps_pd(_mm_loadu_ps(v.as_ptr().add(i + 4 * h)));
            let d = _mm256_sub_pd(y, _mm256_mul_pd(lam, x));
            *a = _mm256_fmadd_pd(d, d, *a);
        }
        i += 8;
    }
    let mut s = hsum(_mm256_add_pd(acc[0], acc[1]));
    for (&y, &x) in v[i..].iter().zip(&w[i..]) {
        let d = f64::from(y) - lambda * f64::from(x);
        s += d * d;
    }
    s
}

impl LshIndex {
    /// Creates an index with `l` tables of `k` bits over `dim`-dimensional
    /// neuron vectors.
    ///
    /// # Panics
    /// Panics unless `l ≥ 1`, `k` is in `1..=32`, `dim ≥ 1` and
    /// `dim + l·k ≤` [`SWEEP_STACK`].
    pub fn new(l: usize, k: usize, dim: usize, seed: u64) -> Self {
        assert!(l >= 1, "need at least one table");
        assert!((1..=32).contains(&k), "k must be in 1..=32");
        assert!(dim >= 1, "dim must be positive");
        assert!(
            dim.saturating_add(l.saturating_mul(k)) <= SWEEP_STACK,
            "a class of {dim} weights and {l}x{k} planes exceeds the sweep's {SWEEP_STACK} floats"
        );
        let mut rng = StdRng::seed_from_u64(seed);
        let planes: Vec<f32> = (0..l * k * dim)
            .map(|_| standard_normal(&mut rng) as f32)
            .collect();
        LshIndex {
            bounds: Bounds::new(&planes, dim),
            planes,
            k,
            dim,
            buckets: vec![Buckets::default(); l],
            sigs: Vec::new(),
            margins: Vec::new(),
            changed: vec![true; l],
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
        self.sweep(w2.as_slice(), w2.rows(), None);
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
            FlatRef::F32(v) => self.sweep(&v[region], classes, None),
            FlatRef::Bf16(v) => self.sweep(&v[region], classes, None),
        };
    }

    /// Brings this index up to `live` — the other buffer of a sync pair,
    /// built from the same planes — for the `classes × dim` `W₂` region at
    /// `offset` of `flat` (read in place like [`rebuild_flat`]), which
    /// `old`'s region was when `live` last hashed it (or certified it).
    /// Every class whose new row the certificate covers keeps `live`'s
    /// signatures; the others are rehashed with the kernel; only tables in
    /// which a signature changed are re-sorted, the others copied. The
    /// result is bit for bit [`rebuild_flat`]'s signatures and buckets.
    /// Without `old` (or with a `live` of another shape) no class has a
    /// certificate and this is [`rebuild_flat`]. Returns the classes
    /// rehashed.
    ///
    /// [`rebuild_flat`]: Self::rebuild_flat
    ///
    /// # Panics
    /// Panics when `live`'s planes are not this index's.
    pub fn sync_flat<'a>(
        &mut self,
        live: &LshIndex,
        old: Option<&[f32]>,
        flat: impl Into<FlatRef<'a>>,
        offset: usize,
        classes: usize,
    ) -> usize {
        assert!(
            self.planes == live.planes && self.k == live.k,
            "a sync pair shares its planes"
        );
        let region = offset..offset + self.dim * classes;
        let prior = old
            .filter(|_| live.len() == classes && live.tables() == self.tables())
            .map(|old| (live, &old[region.clone()]));
        match flat.into() {
            FlatRef::F32(v) => self.sweep(&v[region], classes, prior),
            FlatRef::Bf16(v) => self.sweep(&v[region], classes, prior),
        }
    }

    /// The one build path. Signatures are swept in parallel over blocks of
    /// classes (each is a pure function of one `W₂` row). With a `prior`
    /// (the live index and the rows it hashed), a class whose margin
    /// certifies its new row keeps the prior's signatures; the rest of a
    /// block — every class, without a prior — is hashed: its rows (one
    /// contiguous run when the whole block is, read in place at f32, else
    /// gathered; widened exactly at bf16) are projected onto every
    /// hyperplane by one `gemm_nt` call into the task's scratch, and each
    /// gets its signatures and margin. Then every table whose signatures
    /// changed sorts its classes into buckets — tables in parallel, each
    /// sort serial and a pure function of the signatures — and every other
    /// table copies the prior's. Returns the classes hashed.
    fn sweep<E: Widen>(
        &mut self,
        w2: &[E],
        classes: usize,
        prior: Option<(&LshIndex, &[f32])>,
    ) -> usize {
        let (dim, k, l) = (self.dim, self.k, self.buckets.len());
        assert_eq!(w2.len(), dim * classes, "W2 region shape mismatch");
        match prior {
            Some((live, _)) => {
                self.sigs.clone_from(&live.sigs);
                self.margins.clone_from(&live.margins);
            }
            None => {
                self.sigs.resize(classes * l, 0);
                self.margins.resize(classes, 0.0);
            }
        }
        let (planes, bounds) = (&self.planes, &self.bounds);
        let (hashed, changed) = (AtomicUsize::new(0), AtomicU64::new(0));
        par_chunks_mut2(
            &mut self.sigs,
            l,
            &mut self.margins,
            1,
            classes,
            MIN_PAR_CLASSES,
            |first, sigs, margins| {
                let chunk = Chunk {
                    first,
                    sigs,
                    margins,
                };
                // `new` bounds a class's width by the scratch.
                let scratch = &mut [0.0f32; SWEEP_STACK];
                let block = (SWEEP_STACK / (dim + l * k)).min(SWEEP_BLOCK);
                let (n, mask) = chunk.sweep(w2, planes, bounds, prior, (dim, k, l, block), scratch);
                hashed.fetch_add(n, Ordering::Relaxed);
                changed.fetch_or(mask, Ordering::Relaxed);
            },
        );
        // Without a prior every table is rebuilt: the signatures it would
        // be compared with are not this matrix's.
        let changed = changed.into_inner();
        self.changed.clear();
        self.changed.extend((0..l).map(|t| {
            prior.is_none() || changed & 1u64.checked_shl(t as u32).unwrap_or(u64::MAX) != 0
        }));
        let sigs = &self.sigs;
        let min_par_tables = if classes < MIN_PAR_CLASSES {
            usize::MAX
        } else {
            2
        };
        let changed = &self.changed;
        par_chunks_mut(&mut self.buckets, l, 1, min_par_tables, |t0, tables| {
            for (t, b) in (t0..).zip(tables) {
                match prior {
                    Some((live, _)) if !changed[t] => b.copy_from(&live.buckets[t]),
                    _ => b.fill(sigs, l, t, k),
                }
            }
        });
        hashed.into_inner()
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

/// One task's classes of a [`LshIndex::sweep`]: from class `first` on,
/// their signatures (`tables` per class) and margins.
struct Chunk<'s> {
    first: usize,
    sigs: &'s mut [u32],
    margins: &'s mut [f64],
}

impl Chunk<'_> {
    /// Certifies or hashes every class of the chunk (see
    /// [`LshIndex::sweep`]), `block` classes at a time, with `scratch` for
    /// their gathered rows and projections. Returns the classes hashed and
    /// a mask of the tables where a hashed class's signature changed (every
    /// bit, past 64 tables).
    fn sweep<E: Widen>(
        self,
        w2: &[E],
        planes: &[f32],
        bounds: &Bounds,
        prior: Option<(&LshIndex, &[f32])>,
        (dim, k, l, block): (usize, usize, usize, usize),
        scratch: &mut [f32],
    ) -> (usize, u64) {
        let Chunk {
            first,
            sigs,
            margins,
        } = self;
        let (mut hashed, mut changed) = (0, 0u64);
        {
            let (tile, proj) = scratch.split_at_mut(block * dim);
            for (b, margins) in margins.chunks_mut(block).enumerate() {
                let j0 = first + b * block;
                let row = |j: usize| &w2[j * dim..(j + 1) * dim];
                // The block's classes without a certificate.
                let mut todo = [0u8; SWEEP_BLOCK];
                let mut n = 0;
                for (i, mu) in margins.iter_mut().enumerate() {
                    let j = j0 + i;
                    let cert = prior.and_then(|(_, old)| {
                        let v = E::widen_run(row(j), &mut tile[..dim]);
                        bounds.certify(*mu, &old[j * dim..(j + 1) * dim], v)
                    });
                    match cert {
                        Some(next) => *mu = next,
                        None => {
                            todo[n] = i as u8;
                            n += 1;
                        }
                    }
                }
                if n == 0 {
                    continue;
                }
                let rows = if n == margins.len() {
                    E::widen_run(&w2[j0 * dim..(j0 + n) * dim], tile)
                } else {
                    for (t, &i) in tile.chunks_mut(dim).zip(&todo[..n]) {
                        for (o, &x) in t.iter_mut().zip(row(j0 + i as usize)) {
                            *o = x.widen();
                        }
                    }
                    &tile[..n * dim]
                };
                let proj = &mut proj[..n * l * k];
                let ep = Epilogue::AlphaBeta {
                    alpha: 1.0,
                    beta: 0.0,
                };
                gemm_nt_chunk(rows, dim, planes, l * k, 0, proj, ep);
                let base = (j0 - first) * l;
                for ((&i, p), w) in todo[..n]
                    .iter()
                    .zip(proj.chunks(l * k))
                    .zip(rows.chunks(dim))
                {
                    let i = i as usize;
                    for (t, (sig, p)) in sigs[base + i * l..base + (i + 1) * l]
                        .iter_mut()
                        .zip(p.chunks(k))
                        .enumerate()
                    {
                        let new = sign_bits(p.iter().copied());
                        if new != *sig {
                            changed |= 1u64.checked_shl(t as u32).unwrap_or(u64::MAX);
                        }
                        *sig = new;
                    }
                    let norm_sq = w.iter().map(|&x| f64::from(x) * f64::from(x)).sum();
                    margins[i] = bounds.margin(p, norm_sq);
                }
                hashed += n;
            }
        }
        (hashed, changed)
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

    /// A new row for class `j` from its old row `w`, by the case `j` picks:
    /// the certificate's edges, each next to rows it should certify.
    fn moved_row(j: usize, w: &[f32], planes: &[f32], noise: &mut impl FnMut() -> f32) -> Vec<f32> {
        let dim = w.len();
        match j % 10 {
            // Exactly λw (a power of two scales every f32 exactly).
            0 => w.iter().map(|x| x * 2.0).collect(),
            1 => w.to_vec(),
            // λ ≤ 0: every projection flips or vanishes.
            2 => w.iter().map(|x| -x).collect(),
            3 => vec![0.0; dim],
            4 => w.iter().map(|x| x * 1.1 + noise() * 1e-3).collect(),
            5 => {
                let mut v = w.to_vec();
                v[j % dim] = if j % 20 < 10 { f32::NAN } else { f32::INFINITY };
                v
            }
            6 => w.iter().map(|x| x * 1e-40).collect(),
            // Exactly 0 on the first plane: `p_a·p_b − p_b·p_a`.
            7 if dim >= 2 => {
                let p = &planes[..dim];
                let mut v = vec![0.0; dim];
                v[0] = p[1];
                v[1] = -p[0];
                v
            }
            8 => w.iter().map(|x| x * 1.1).collect(),
            _ => w.iter().map(|x| x + noise() * 0.3).collect(),
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        /// The certificate is sound: a sync that keeps the live index's
        /// signatures for every class it certifies, and rehashes the rest,
        /// ends bit for bit where a full rebuild of the new rows does —
        /// signatures and buckets — over rows moved every way the
        /// certificate must see through (`w′ = λw` exactly, `λ ≤ 0`, zero
        /// rows, a projection of exactly 0, NaN and ∞ entries, subnormals)
        /// and rows it should certify, at both precisions of the new rows,
        /// and again one sync later from the margins the first left — with
        /// the AVX2 row sums and again with their portable twins.
        #[test]
        fn certified_syncs_are_full_rebuilds(
            dim in 1usize..40,
            classes in prop_oneof![1usize..20, 250usize..400],
            tables in 1usize..5,
            k_pick in 0usize..4,
            seed in 0u64..1000,
        ) {
            for portable in [false, true] {
                asgd_tensor::kernels::force_portable(portable);
                certified_sync_case(dim, classes, tables, k_pick, seed)?;
            }
            asgd_tensor::kernels::force_portable(false);
        }
    }

    /// One case of `certified_syncs_are_full_rebuilds`.
    fn certified_sync_case(
        dim: usize,
        classes: usize,
        tables: usize,
        k_pick: usize,
        seed: u64,
    ) -> Result<(), TestCaseError> {
        let k = [1usize, 9, 17, 32][k_pick];
        let mut live = LshIndex::new(tables, k, dim, seed ^ 0x5EED);
        let planes = live.planes.clone();
        let old = random_w2(dim, classes, seed);
        live.rebuild(&old);
        let mut st = seed | 1;
        let mut noise = move || {
            st = st
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            (st >> 40) as f32 / (1u64 << 23) as f32 - 1.0
        };
        let new: Vec<f32> = (0..classes)
            .flat_map(|j| moved_row(j, old.row(j), &planes, &mut noise))
            .collect();
        let again: Vec<f32> = new.iter().map(|x| x * 1.5).collect();

        let mut idle = LshIndex::new(tables, k, dim, seed ^ 0x5EED);
        let hashed = idle.sync_flat(&live, Some(old.as_slice()), FlatRef::F32(&new), 0, classes);
        let mut full = idle.clone();
        full.rebuild_flat(FlatRef::F32(&new), 0, classes);
        prop_assert!(idle == full, "first sync");
        prop_assert!(hashed <= classes);
        // Zero and NaN/∞ rows are left without a margin, and a
        // sign-flipped row is rehashed: its margin is the rebuild's.
        for j in 0..classes {
            match j % 10 {
                3 | 5 => prop_assert_eq!(idle.margins[j], 0.0, "class {}", j),
                2 => prop_assert_eq!(idle.margins[j], full.margins[j], "class {}", j),
                _ => {}
            }
        }
        live.sync_flat(&idle, Some(&new), FlatRef::F32(&again), 0, classes);
        full.rebuild_flat(FlatRef::F32(&again), 0, classes);
        prop_assert!(live == full, "second sync");
        // bf16 new rows: no old f32 row can pair with them, so nothing
        // is certified and the sync is the rebuild.
        let narrowed: Vec<u16> = new.iter().map(|&x| bf16::narrow(x)).collect();
        let hashed = idle.sync_flat(&live, None, FlatRef::Bf16(&narrowed), 0, classes);
        prop_assert_eq!(hashed, classes);
        full.rebuild_flat(FlatRef::Bf16(&narrowed), 0, classes);
        prop_assert!(idle == full, "bf16 sync");
        Ok(())
    }

    /// The sweep's one bound, at its edge: a class exactly as wide as the
    /// stack scratch (one class per block) hashes like the oracle, and one
    /// float more is refused when the index is made.
    #[test]
    fn the_widest_class_fits_the_sweep() {
        let (l, k) = (2, 9);
        let dim = SWEEP_STACK - l * k;
        let w2 = random_w2(dim, 3, 7);
        let mut idx = LshIndex::new(l, k, dim, 5);
        idx.rebuild(&w2);
        assert_matches_oracle(&idx, &w2);
        let refused = std::panic::catch_unwind(|| LshIndex::new(l, k, dim + 1, 5));
        assert!(refused.is_err(), "one float past the sweep scratch");
    }

    /// Rows scaled by a positive factor keep their signatures, and the
    /// certificate sees it: a sync from `w` to `1.1·w` rehashes only the
    /// classes whose projections sit within rounding of a plane.
    #[test]
    fn a_scaled_matrix_is_certified_almost_whole() {
        let (dim, classes) = (64, 2_000);
        let old = random_w2(dim, classes, 3);
        let mut live = LshIndex::new(8, 9, dim, 1);
        live.rebuild(&old);
        let new: Vec<f32> = old.as_slice().iter().map(|x| x * 1.1).collect();
        let mut idle = LshIndex::new(8, 9, dim, 1);
        let hashed = idle.sync_flat(&live, Some(old.as_slice()), FlatRef::F32(&new), 0, classes);
        assert!(hashed < classes / 20, "rehashed {hashed} of {classes}");
        let mut full = idle.clone();
        full.rebuild_flat(FlatRef::F32(&new), 0, classes);
        assert!(idle == full);
        assert!(idle.changed.iter().all(|&c| !c), "no signature moved");
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
