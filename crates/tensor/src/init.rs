//! Seeded weight initialization.
//!
//! The paper initializes every algorithm from the *same* model whose weights
//! are drawn from a normal distribution with standard deviation derived from
//! the layer's unit count (§V-A). These helpers reproduce that scheme with an
//! explicit RNG so all algorithms can share one initial model bit-for-bit.

use crate::kernels::transpose_block;
use crate::parallel::{num_threads, par_chunks_mut};
use asgd_stats::dist::skip_standard_normals;
use asgd_stats::Normal;
use rand::Rng;

/// Normals per pool task of [`layers_init`]: the stream is checkpointed —
/// the generator cloned — at the start of every `INIT_CHUNK` draws of a
/// layer (and of every layer). 65,536 draws is ~200 tasks for the sampled
/// workload's 13 M-parameter model: enough to balance any pool, and a
/// clone (32 bytes) per 256 KB written. A transposed layer is cut finer,
/// one clone per `INIT_CHUNK / fan_in` draws, all held until its scan ends
/// (DESIGN.md, "Threading model", on `Mlp::init`).
pub const INIT_CHUNK: usize = 1 << 16;

/// The paper's scheme for a layer of `fan_in` inputs: `N(0, 1 / sqrt(fan_in))`.
fn layer_dist(fan_in: usize) -> Normal {
    let std_dev = 1.0 / (fan_in.max(1) as f64).sqrt();
    Normal::new(0.0, std_dev).expect("invalid std_dev")
}

/// Fills a layer's weights in place, in order, with the paper's scheme:
/// `N(0, 1 / sqrt(fan_in))` samples, where `fan_in` is the number of units
/// feeding the layer (the rows of a `fan_in × units` weight block). The
/// serial definition [`layers_init`] reproduces: `out[i] =
/// dist.sample(rng) as f32`, in order.
pub fn layer_init<R: Rng + ?Sized>(out: &mut [f32], fan_in: usize, rng: &mut R) {
    let dist = layer_dist(fan_in);
    for v in out {
        *v = dist.sample(rng) as f32;
    }
}

/// Normals per block of [`fill`]: the accepted `(u, s)` pairs of one block
/// are held in two stack arrays of this length (4 KB).
const BLOCK: usize = 256;

/// `out[i] = dist.sample(rng) as f32`, in order — [`layer_init`]'s stream
/// bit for bit, and `rng` left where it leaves it — in blocks of [`BLOCK`],
/// two passes each. Pass 1 draws the polar method's pairs
/// (`u, v ∈ [−1, 1)`, `s = u² + v²`, the same `gen_range` calls) and
/// compacts the accepted ones (`s ∈ (0, 1)`) without a branch on the
/// outcome, until the block has its count. Pass 2 turns each into
/// `(mean + sd·(u·√(−2 ln s / s))) as f32`, the expression of
/// `Normal::sample` over `standard_normal`, operation for operation. No draw
/// waits for an `ln`, and no `ln` for a mispredicted acceptance.
fn fill<R: Rng + ?Sized>(out: &mut [f32], dist: &Normal, rng: &mut R) {
    let (mean, sd) = (dist.mean(), dist.std_dev());
    let (mut us, mut ss) = ([0.0f64; BLOCK], [0.0f64; BLOCK]);
    for block in out.chunks_mut(BLOCK) {
        let mut k = 0;
        while k < block.len() {
            let u = rng.gen_range(-1.0f64..1.0);
            let v = rng.gen_range(-1.0f64..1.0);
            let s = u * u + v * v;
            us[k] = u;
            ss[k] = s;
            k += usize::from((s > 0.0) & (s < 1.0));
        }
        for ((o, &u), &s) in block.iter_mut().zip(&us).zip(&ss) {
            *o = (mean + sd * (u * (-2.0 * s.ln() / s).sqrt())) as f32;
        }
    }
}

/// Generating a draw costs about this many times scanning it (the scan
/// replays the pair draws and the acceptance test, without the `ln` and
/// `sqrt` of an accepted pair): 170–300 ms against 80–110 ms for the
/// sampled workload's 13 M draws on one core of a 2-vCPU x86-64 host (the
/// per-sample generator took 290–390 ms). It sizes the part of the stream
/// [`layers_init`] scans before generating starts, never a bit.
const SCAN_SHARE: usize = 2;

/// How [`layers_init`] stores a layer's `fan_in × units` stream.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Placement {
    /// In stream order: row-major `fan_in × units` (`W₁`).
    AsDrawn,
    /// Transposed: stream position `k·units + c` lands at `c·fan_in + k`,
    /// row-major `units × fan_in` (the class-major `W₂`).
    Transposed,
}

/// One chunk of [`layers_init`]: where it writes, what it draws, and —
/// once the scan has passed it — the generator as the stream stands at the
/// first draw of each of its segments. A chunk of an [`Placement::AsDrawn`]
/// layer is one segment of the stream; a chunk of a transposed layer is a
/// block of `cols` units, one `cols`-long segment from each of its `rows`
/// stream rows.
struct Chunk<'a, R> {
    out: &'a mut [f32],
    dist: Normal,
    /// The layer this chunk belongs to (chunks of one layer are adjacent).
    layer: usize,
    /// Segments: 1, or the layer's `fan_in` when it is transposed.
    rows: usize,
    /// Draws per segment.
    cols: usize,
    rngs: Vec<R>,
}

/// The scan: hands each chunk a clone of `rng` at the first draw of each of
/// its segments, in stream order, and moves `rng` past them. A transposed
/// layer's stream visits its chunks row by row.
fn scan<R: Rng + Clone>(mut chunks: &mut [Chunk<'_, R>], rng: &mut R) {
    while let Some(first) = chunks.first() {
        let (layer, rows) = (first.layer, first.rows);
        let n = chunks.iter().take_while(|c| c.layer == layer).count();
        let (group, rest) = chunks.split_at_mut(n);
        for _ in 0..rows {
            for c in group.iter_mut() {
                c.rngs.push(rng.clone());
                skip_standard_normals(rng, c.cols);
            }
        }
        chunks = rest;
    }
}

/// Generates scanned chunks with the block generator ([`fill`]): a segment
/// straight into place, or a transposed chunk's segments as the rows of
/// `scratch`, then moved into place by [`transpose_block`].
fn generate<R: Rng>(chunks: &mut [Chunk<'_, R>]) {
    let mut scratch = Vec::new();
    for c in chunks {
        assert_eq!(
            c.rngs.len(),
            c.rows,
            "a chunk is scanned before it is generated"
        );
        if c.rows == 1 {
            fill(c.out, &c.dist, &mut c.rngs[0]);
        } else {
            scratch.resize(c.out.len(), 0.0);
            for (row, rng) in scratch.chunks_mut(c.cols).zip(&mut c.rngs) {
                fill(row, &c.dist, rng);
            }
            transpose_block(&scratch, c.rows, c.cols, c.out);
        }
        c.rngs.clear();
    }
}

/// A pool task of [`layers_init`]'s middle stage.
enum Stage<'c, 'a, R> {
    /// Scan the rest of the stream.
    Scan(&'c mut [Chunk<'a, R>], &'c mut R),
    /// Generate chunks the first scan has passed.
    Generate(&'c mut [Chunk<'a, R>]),
}

/// [`layer_init`] on each `(weights, fan_in, placement)` layer in turn from
/// one stream, on the worker pool: bit for bit the serial calls — stored
/// transposed where the placement says so — and `rng` left where they leave
/// it. A sequential scan over the stream decides acceptance only
/// ([`skip_standard_normals`]: no `ln`, no branch on the outcome) and
/// clones the generator at the start of every segment: every
/// [`INIT_CHUNK`] draws of a layer stored as drawn, and every block of
/// about `INIT_CHUNK / fan_in` units of each stream row of a transposed
/// one. Pool tasks regenerate the chunks with the two-pass block generator,
/// in place. The scan overlaps the generation: it first passes the head of
/// the stream alone, then one task scans the rest while the other lanes
/// generate the head (`SCAN_SHARE` sizes the head so the two end together;
/// the head stops before the first transposed layer, whose chunks are
/// complete only at its last row), then every lane generates the rest. The
/// weights are a pure function of the layers' shapes and placements and
/// `rng`'s state, at any `ASGD_THREADS`.
pub fn layers_init<R: Rng + Clone + Send, const N: usize>(
    layers: [(&mut [f32], usize, Placement); N],
    rng: &mut R,
) {
    let mut chunks = Vec::new();
    for (layer, (weights, fan_in, placement)) in layers.into_iter().enumerate() {
        let dist = layer_dist(fan_in);
        let (rows, len) = match placement {
            Placement::AsDrawn => (1, INIT_CHUNK),
            Placement::Transposed => (fan_in, (INIT_CHUNK / fan_in.max(1)).max(1) * fan_in),
        };
        chunks.extend(weights.chunks_mut(len.max(1)).map(|out| Chunk {
            cols: out.len() / rows.max(1),
            out,
            dist,
            layer,
            rows,
            rngs: Vec::new(),
        }));
    }
    let helpers = num_threads() - 1;
    let as_drawn = chunks.iter().take_while(|c| c.rows == 1).count();
    let head_len = (chunks.len() * helpers / (helpers + SCAN_SHARE)).min(as_drawn);
    let (head, tail) = chunks.split_at_mut(head_len);
    scan(head, rng);
    let mut middle = vec![Stage::Scan(&mut *tail, rng)];
    middle.extend(
        head.chunks_mut(head.len().div_ceil(helpers.max(1)).max(1))
            .map(Stage::Generate),
    );
    let tasks = middle.len();
    par_chunks_mut(&mut middle, tasks, 1, 2, |_, stages| {
        for stage in stages {
            match stage {
                Stage::Scan(chunks, rng) => scan(chunks, rng),
                Stage::Generate(chunks) => generate(chunks),
            }
        }
    });
    drop(middle);
    let n = tail.len();
    par_chunks_mut(tail, n, 1, 2, |_, part| generate(part));
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::{rngs::StdRng, SeedableRng};

    fn layer(rows: usize, cols: usize, seed: u64) -> Vec<f32> {
        let mut w = vec![0.0; rows * cols];
        layer_init(&mut w, rows, &mut StdRng::seed_from_u64(seed));
        w
    }

    #[test]
    fn init_is_deterministic_per_seed() {
        assert_eq!(layer(16, 8, 7), layer(16, 8, 7));
        assert_ne!(layer(16, 8, 7), layer(16, 8, 8));
    }

    /// The serial stream [`layers_init`] must reproduce: [`layer_init`] on
    /// each layer in turn.
    fn serial(lens: &[(usize, usize)], seed: u64) -> (Vec<Vec<u32>>, StdRng) {
        let mut rng = StdRng::seed_from_u64(seed);
        let layers = lens
            .iter()
            .map(|&(len, fan_in)| {
                let mut w = vec![0.0f32; len];
                layer_init(&mut w, fan_in, &mut rng);
                w.iter().map(|x| x.to_bits()).collect()
            })
            .collect();
        (layers, rng)
    }

    /// `w` (a `fan_in × units` stream) stored transposed, as bits.
    fn transposed(w: &[u32], fan_in: usize) -> Vec<u32> {
        let units = w.len() / fan_in;
        (0..w.len())
            .map(|i| w[(i % fan_in) * units + i / fan_in])
            .collect()
    }

    #[test]
    fn init_oracle_layers_init_is_the_serial_stream() {
        use crate::parallel::override_threads;
        let c = INIT_CHUNK;
        // A first layer ending mid-chunk, then one shorter than a chunk; an
        // exact chunk, then an empty layer; a one-draw layer; fan-in 1.
        // Second layers stored transposed: fan-in 1 (stored as drawn), a
        // layer narrower than one unit block, one ending mid-block (64 ×
        // 1,500 units of 1,024-unit blocks), one whose block is one unit
        // (fan-in past `INIT_CHUNK`).
        for (lens, placement) in [
            ([(c + 1234, 300), (777, 64)], Placement::AsDrawn),
            ([(c, 1), (0, 9)], Placement::AsDrawn),
            ([(1, 1), (2 * c + 5, 128)], Placement::AsDrawn),
            ([(c + 1234, 300), (777, 1)], Placement::Transposed),
            ([(3 * c + 7, 64), (64 * 37, 64)], Placement::Transposed),
            ([(5, 3), (64 * 1500, 64)], Placement::Transposed),
            ([(0, 3), ((c + 3) * 3, c + 3)], Placement::Transposed),
        ] {
            let (mut want, want_rng) = serial(&lens, 42);
            if placement == Placement::Transposed {
                want[1] = transposed(&want[1], lens[1].1);
            }
            for threads in [1, 2, 8] {
                override_threads(threads);
                let mut rng = StdRng::seed_from_u64(42);
                let (mut w1, mut w2) = (vec![0.0f32; lens[0].0], vec![0.0f32; lens[1].0]);
                layers_init(
                    [
                        (&mut w1, lens[0].1, Placement::AsDrawn),
                        (&mut w2, lens[1].1, placement),
                    ],
                    &mut rng,
                );
                override_threads(0);
                let got: Vec<Vec<u32>> = [w1, w2]
                    .iter()
                    .map(|w| w.iter().map(|x| x.to_bits()).collect())
                    .collect();
                assert!(got == want, "{lens:?} {placement:?} at {threads} threads");
                assert_eq!(rng, want_rng, "{lens:?}: stream left elsewhere");
            }
        }
    }

    /// The block generator is `Normal::sample`'s stream bit for bit, and
    /// leaves the generator where the per-sample calls leave it, at every
    /// block boundary, a prime length and with nothing to draw.
    #[test]
    fn init_oracle_block_generator_is_the_sample_stream() {
        for len in [0, 1, BLOCK - 1, BLOCK, BLOCK + 1, 1009, 3 * BLOCK + 7] {
            for fan_in in [1, 300] {
                let dist = layer_dist(fan_in);
                let mut want_rng = StdRng::seed_from_u64(len as u64 ^ 0x5EED);
                let want: Vec<u32> = (0..len)
                    .map(|_| (dist.sample(&mut want_rng) as f32).to_bits())
                    .collect();
                let mut rng = StdRng::seed_from_u64(len as u64 ^ 0x5EED);
                let mut got = vec![f32::NAN; len];
                fill(&mut got, &dist, &mut rng);
                let got: Vec<u32> = got.iter().map(|x| x.to_bits()).collect();
                assert!(got == want, "len {len}, fan-in {fan_in}");
                assert_eq!(rng, want_rng, "len {len}: stream left elsewhere");
            }
        }
    }

    #[test]
    fn init_std_matches_fan_in() {
        let m = layer(400, 50, 1);
        let n = m.len() as f64;
        let mean: f64 = m.iter().map(|&x| x as f64).sum::<f64>() / n;
        let var: f64 = m.iter().map(|&x| (x as f64 - mean).powi(2)).sum::<f64>() / n;
        let want = 1.0 / 400.0;
        assert!(mean.abs() < 0.002, "mean {mean}");
        assert!((var - want).abs() / want < 0.1, "var {var} want {want}");
    }
}
