//! Deterministic per-batch candidate selection for the sampled softmax.
//!
//! For each training batch the sampler produces one shared candidate label
//! set: the batch's **true labels** (always included, so every positive
//! gradient flows) plus a fixed number of **negatives** drawn from the LSH
//! buckets the positives collide with — the "classes the model currently
//! confuses with the truth", which is exactly where sampled softmax needs
//! its negative signal — padded from a seeded uniform draw over the class
//! space when the buckets run dry. The result is sorted ascending
//! (order-canonical) and fixed-size, so downstream kernels see a stable
//! shape.
//!
//! # Determinism contract
//!
//! The candidate set is a pure function of
//! `(LSH seed, W₂ bytes at the last rebuild, batch labels, sample seed)`:
//!
//! * No hidden activations are consulted — replicas diverge between merges,
//!   so any activation-dependent choice would make candidates depend on
//!   *which* device trains the batch. Bucket membership is looked up through
//!   the per-class signatures stored by [`LshIndex::rebuild`].
//! * The index is rebuilt only at model-sync points (run start,
//!   redistribute, blend target) from bytes that are identical on every
//!   replica — so one build serves them all: the trainer hashes once and
//!   every replica [adopts](CandidateSampler::set_index) the same
//!   `Arc<LshIndex>`, and a batch re-dispatched after a device loss
//!   reproduces its candidate set exactly.
//! * All randomness comes from the caller-supplied `sample_seed` through a
//!   local [SplitMix64](splitmix64) stream — nothing is drawn from shared
//!   RNG state, so dispatch order cannot leak into the selection.

use crate::lsh::LshIndex;
use asgd_tensor::MatRef;
use std::sync::Arc;

/// One step of the SplitMix64 stream — the sampler's only RNG. Small, fast,
/// and stateless across batches: every batch reseeds from its own
/// `sample_seed`.
#[inline]
fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Selects the per-batch candidate label set for sampled-softmax training.
///
/// Holds a read-only share of an [`LshIndex`] plus reusable scratch, so
/// steady-state selection allocates nothing once the buffers have grown to
/// the working size.
#[derive(Debug, Clone)]
pub struct CandidateSampler {
    lsh: Arc<LshIndex>,
    /// Negatives per batch (the candidate set is `positives + neg_samples`,
    /// clamped to the class count).
    neg_samples: usize,
    /// Scratch: the final sorted candidate set.
    cand: Vec<u32>,
    /// Scratch: the bucket-union negative pool.
    pool: Vec<u32>,
    /// Scratch: one bit per class, all zero between selections — the bucket
    /// union as a set.
    members: Vec<u64>,
}

impl CandidateSampler {
    /// Builds a sampler with `tables × k_bits` SimHash tables over
    /// `hidden`-dimensional output neurons and `neg_samples` negatives per
    /// batch. Call [`rebuild`](Self::rebuild) before the first selection.
    pub fn new(tables: usize, k_bits: usize, hidden: usize, neg_samples: usize, seed: u64) -> Self {
        let lsh = LshIndex::new(tables, k_bits, hidden, seed);
        Self::with_index(Arc::new(lsh), neg_samples)
    }

    /// Builds a sampler over an index someone else builds and shares — the
    /// trainer's scheduler hashes once per model sync and every replica
    /// selects from the same tables.
    pub fn with_index(lsh: Arc<LshIndex>, neg_samples: usize) -> Self {
        CandidateSampler {
            lsh,
            neg_samples,
            cand: Vec::new(),
            pool: Vec::new(),
            members: Vec::new(),
        }
    }

    /// Re-hashes every output neuron from the class-major `w2`
    /// (`classes × hidden`, row `c` is neuron `c`). Only
    /// call this at model-sync points with bytes identical across replicas —
    /// see the module docs. A shared index is copied first (copy-on-write);
    /// owners of shared indices rebuild at the source and hand the result
    /// out through [`set_index`](Self::set_index) instead.
    pub fn rebuild<'a>(&mut self, w2: impl Into<MatRef<'a>>) {
        Arc::make_mut(&mut self.lsh).rebuild(w2);
    }

    /// Adopts a freshly built shared index, releasing the previous one.
    pub fn set_index(&mut self, lsh: Arc<LshIndex>) {
        self.lsh = lsh;
    }

    /// The index this sampler currently selects from.
    pub fn index(&self) -> &Arc<LshIndex> {
        &self.lsh
    }

    /// Classes currently indexed (0 before the first rebuild).
    pub fn num_classes(&self) -> usize {
        self.lsh.len()
    }

    /// Negatives requested per batch.
    pub fn neg_samples(&self) -> usize {
        self.neg_samples
    }

    /// Selects the candidate set for a batch: the union of `labels` (each
    /// row a sample's true labels) plus exactly
    /// `min(neg_samples, classes - positives)` negatives. Returns the
    /// sorted, duplicate-free candidate list, valid until the next call.
    ///
    /// # Panics
    /// Panics before the first [`rebuild`](Self::rebuild) or when a label is
    /// outside the indexed class range.
    pub fn select(&mut self, labels: &[&[u32]], sample_seed: u64) -> &[u32] {
        let classes = self.lsh.len();
        assert!(classes > 0, "select before the first rebuild");

        // Positives: sorted, de-duplicated union of the batch's labels.
        self.cand.clear();
        for row in labels {
            self.cand.extend_from_slice(row);
        }
        self.cand.sort_unstable();
        self.cand.dedup();
        let n_pos = self.cand.len();
        let want = self.neg_samples.min(classes - n_pos);

        // Negative pool: every neuron sharing an LSH bucket with a positive,
        // minus the positives themselves, ascending — so the pool order is
        // canonical before any random draw touches it. The union has far
        // more entries than classes (hot buckets repeat), so it is collected
        // as a class bitmap rather than sorted: set the members, clear the
        // positives, read the set bits back in order (zeroing as they go).
        self.pool.clear();
        if want > 0 {
            self.members.resize(classes.div_ceil(64), 0);
            for &p in &self.cand {
                for bucket in self.lsh.neighbor_buckets(p) {
                    for &c in bucket {
                        self.members[c as usize / 64] |= 1 << (c % 64);
                    }
                }
            }
            for &p in &self.cand {
                self.members[p as usize / 64] &= !(1 << (p % 64));
            }
            for (w, word) in self.members.iter_mut().enumerate() {
                let mut bits = std::mem::take(word);
                while bits != 0 {
                    self.pool.push((w * 64) as u32 + bits.trailing_zeros());
                    bits &= bits - 1;
                }
            }
        }

        let mut rng = sample_seed;
        if self.pool.len() > want {
            // Seeded partial Fisher–Yates: the first `want` slots get a
            // uniform sample of the pool, in O(want).
            for i in 0..want {
                let j = i + (splitmix64(&mut rng) % (self.pool.len() - i) as u64) as usize;
                self.pool.swap(i, j);
            }
            self.pool.truncate(want);
        }
        for i in 0..self.pool.len() {
            let c = self.pool[i];
            if let Err(pos) = self.cand.binary_search(&c) {
                self.cand.insert(pos, c);
            }
        }
        // Bucket union short of the quota: pad with seeded uniform draws
        // over the class space, skipping collisions.
        while self.cand.len() < n_pos + want {
            let c = (splitmix64(&mut rng) % classes as u64) as u32;
            if let Err(pos) = self.cand.binary_search(&c) {
                self.cand.insert(pos, c);
            }
        }
        &self.cand
    }
}

#[cfg(test)]
impl CandidateSampler {
    /// The selection the class bitmap replaced, kept as the test oracle: the
    /// bucket union as a list, `sort_unstable + dedup`, positives removed by
    /// binary search — then the same seeded draw.
    fn select_oracle(&self, labels: &[&[u32]], sample_seed: u64) -> Vec<u32> {
        let classes = self.lsh.len();
        let mut cand: Vec<u32> = labels.iter().flat_map(|row| row.iter().copied()).collect();
        cand.sort_unstable();
        cand.dedup();
        let n_pos = cand.len();
        let want = self.neg_samples.min(classes - n_pos);
        let mut pool = Vec::new();
        if want > 0 {
            for &p in &cand {
                pool.extend(self.lsh.neighbor_buckets(p).flatten());
            }
            pool.sort_unstable();
            pool.dedup();
            pool.retain(|c| cand.binary_search(c).is_err());
        }
        let mut rng = sample_seed;
        if pool.len() > want {
            for i in 0..want {
                let j = i + (splitmix64(&mut rng) % (pool.len() - i) as u64) as usize;
                pool.swap(i, j);
            }
            pool.truncate(want);
        }
        for c in pool {
            if let Err(pos) = cand.binary_search(&c) {
                cand.insert(pos, c);
            }
        }
        while cand.len() < n_pos + want {
            let c = (splitmix64(&mut rng) % classes as u64) as u32;
            if let Err(pos) = cand.binary_search(&c) {
                cand.insert(pos, c);
            }
        }
        cand
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use asgd_tensor::Matrix;

    /// A class-major `classes × dim` `W₂`.
    fn w2(dim: usize, classes: usize) -> Matrix {
        Matrix::from_fn(classes, dim, |j, i| {
            ((i * 13 + j * 7) % 11) as f32 / 5.0 - 1.0
        })
    }

    fn sampler(classes: usize, neg: usize) -> CandidateSampler {
        let mut s = CandidateSampler::new(4, 5, 16, neg, 42);
        s.rebuild(&w2(16, classes));
        s
    }

    #[test]
    fn contains_all_positives_and_exact_size() {
        let mut s = sampler(200, 32);
        let labels: Vec<&[u32]> = vec![&[3, 17], &[17, 90], &[150]];
        let got = s.select(&labels, 7).to_vec();
        for p in [3u32, 17, 90, 150] {
            assert!(got.binary_search(&p).is_ok(), "positive {p} missing");
        }
        assert_eq!(got.len(), 4 + 32, "positives + neg_samples");
    }

    #[test]
    fn result_is_sorted_unique() {
        let mut s = sampler(100, 40);
        let labels: Vec<&[u32]> = vec![&[5, 5, 42], &[]];
        let got = s.select(&labels, 123).to_vec();
        for w in got.windows(2) {
            assert!(w[0] < w[1], "not strictly ascending: {got:?}");
        }
    }

    #[test]
    fn pure_function_of_seed_and_labels() {
        let labels: Vec<&[u32]> = vec![&[1, 9], &[60]];
        let a = sampler(300, 24).select(&labels, 99).to_vec();
        let b = sampler(300, 24).select(&labels, 99).to_vec();
        assert_eq!(a, b);
        // A different sample seed changes the negatives (with overwhelming
        // probability at this pool size) but never the positives.
        let c = sampler(300, 24).select(&labels, 100).to_vec();
        assert_ne!(a, c);
        for p in [1u32, 9, 60] {
            assert!(c.binary_search(&p).is_ok());
        }
    }

    #[test]
    fn selection_is_independent_of_thread_count() {
        use asgd_tensor::parallel::override_threads;
        let labels: Vec<&[u32]> = vec![&[2, 7], &[400, 911]];
        let run = |threads: usize| {
            override_threads(threads);
            // Rebuild under the thread count too: bucket fill must not
            // depend on how the signature sweep was partitioned.
            let mut s = sampler(1000, 48);
            let got = s.select(&labels, 5).to_vec();
            override_threads(0);
            got
        };
        assert_eq!(run(1), run(8));
    }

    #[test]
    fn neg_quota_clamps_to_class_count() {
        let mut s = sampler(10, 1000);
        let labels: Vec<&[u32]> = vec![&[0, 1]];
        let got = s.select(&labels, 3).to_vec();
        assert_eq!(got, (0..10).collect::<Vec<u32>>());
    }

    #[test]
    fn label_free_batch_still_gets_negatives() {
        let mut s = sampler(50, 8);
        let labels: Vec<&[u32]> = vec![&[], &[]];
        let got = s.select(&labels, 11).to_vec();
        assert_eq!(got.len(), 8);
    }

    #[test]
    #[should_panic(expected = "before the first rebuild")]
    fn select_before_rebuild_panics() {
        let mut s = CandidateSampler::new(2, 4, 8, 4, 1);
        let labels: Vec<&[u32]> = vec![&[1]];
        let _ = s.select(&labels, 0);
    }

    proptest::proptest! {
        /// Selection over the flat-bucket index returns the same sequence
        /// as selection over the `HashMap` oracle build of the same `W₂`.
        #[test]
        fn select_matches_hashmap_oracle(
            classes in proptest::prop_oneof![1usize..4, 60usize..70, 250usize..400],
            k_pick in 0usize..4,
            neg in 0usize..40,
            seed in 0u64..1000,
        ) {
            let k = [1usize, 9, 17, 32][k_pick];
            let w2 = w2(16, classes);
            let mut fast = CandidateSampler::new(3, k, 16, neg, seed);
            fast.rebuild(&w2);
            let mut oracle = (**fast.index()).clone();
            oracle.rebuild_oracle(&w2);
            let mut oracle = CandidateSampler::with_index(Arc::new(oracle), neg);
            let c = classes as u32;
            let rows = [vec![seed as u32 % c, (seed as u32 / 7) % c], vec![c - 1], vec![]];
            let labels: Vec<&[u32]> = rows.iter().map(|r| r.as_slice()).collect();
            for sample_seed in [seed, seed ^ 0xB00F] {
                proptest::prop_assert_eq!(
                    fast.select(&labels, sample_seed).to_vec(),
                    oracle.select(&labels, sample_seed)
                );
            }
        }
    }

    proptest::proptest! {
        /// The bitmap selection returns the same sequence as the
        /// sort-and-dedup oracle — tiny, bucket-sized and many-word class
        /// spaces, 1–4 tables, duplicate and empty label rows, quotas from
        /// none to more than there are classes — and leaves its bitmap clean
        /// (two seeds per sampler, so the second call sees the first's
        /// leftovers if there were any).
        #[test]
        fn select_matches_sort_dedup_oracle(
            classes in proptest::prop_oneof![1usize..4, 60usize..71, 250usize..401],
            tables in 1usize..5,
            neg_pick in 0usize..5,
            seed in 0u64..1000,
        ) {
            let neg = [0, 7, 64, classes, classes + 9][neg_pick];
            let mut s = CandidateSampler::new(tables, 4, 16, neg, seed);
            s.rebuild(&w2(16, classes));
            let c = classes as u32;
            let a = seed as u32 % c;
            let rows = [vec![a, a, (seed as u32 / 7) % c], vec![], vec![c - 1, a], vec![]];
            let labels: Vec<&[u32]> = rows.iter().map(|r| r.as_slice()).collect();
            for sample_seed in [seed, seed ^ 0xB00F] {
                let want = s.select_oracle(&labels, sample_seed);
                proptest::prop_assert_eq!(s.select(&labels, sample_seed), want);
                proptest::prop_assert!(s.members.iter().all(|&w| w == 0));
            }
        }
    }

    /// `rebuild` on a shared index copies before writing: the other holder
    /// keeps selecting from the tables it adopted.
    #[test]
    fn rebuild_on_a_shared_index_is_copy_on_write() {
        let mut a = sampler(200, 16);
        let mut b = CandidateSampler::with_index(Arc::clone(a.index()), 16);
        let labels: Vec<&[u32]> = vec![&[3, 17], &[90]];
        let before = b.select(&labels, 7).to_vec();
        a.rebuild(&Matrix::from_fn(50, 16, |j, i| (i + j) as f32 - 8.0));
        assert!(!Arc::ptr_eq(a.index(), b.index()));
        assert_eq!(a.num_classes(), 50);
        assert_eq!(b.num_classes(), 200);
        assert_eq!(b.select(&labels, 7), before);
    }

    #[test]
    fn steady_state_does_not_reallocate() {
        let mut s = sampler(500, 64);
        let labels: Vec<&[u32]> = vec![&[3, 8], &[200, 301]];
        let _ = s.select(&labels, 1);
        let (cap_c, cap_p, cap_m) = (s.cand.capacity(), s.pool.capacity(), s.members.capacity());
        for seed in 2..20 {
            let _ = s.select(&labels, seed);
        }
        assert_eq!(s.cand.capacity(), cap_c);
        assert_eq!(s.pool.capacity(), cap_p);
        assert_eq!(s.members.capacity(), cap_m);
    }
}
