//! The sampled softmax's shared LSH index.
//!
//! Ownership rule, as for every buffer of a run: **the scheduler owns it; a
//! phase borrows.** The merge reads owned replicas where they live, and
//! sampled replicas — overlays on the buffer they imported — through the
//! delta payloads the training phase wrote into scheduler-owned
//! [`asgd_tensor::FlatVec`]s, and writes the global model —
//! at bf16 also one scheduler-owned redistribution payload, recycled across
//! merges. The index is the one buffer a replica holds between phases — a
//! share of it, inside its sampler — which is why it gets a type of its
//! own.

use super::SampledSoftmax;
use asgd_model::Mlp;
use asgd_slide::{CandidateSampler, LshIndex};
use asgd_tensor::FlatRef;
use std::sync::Arc;

/// The sampled-softmax LSH index, built **once per model sync** by the
/// scheduler and shared read-only with every live replica.
///
/// The scheduler owns two index buffers. Between syncs the *live* one is
/// shared (`Arc`) with every live replica and the other sits idle; a sync
/// rebuilds the idle buffer from the bytes the replicas are about to import
/// and makes it live, and each replica adopts a share when it imports them,
/// dropping its share of the previous buffer. A lost device's replica is
/// dropped at eviction, so by the next sync the idle buffer is uniquely
/// owned again and is rebuilt in place — steady-state syncs allocate
/// nothing index-sized.
#[derive(Debug)]
pub struct IndexArena {
    bufs: [Arc<LshIndex>; 2],
    live: usize,
    /// Where `W₂` starts in the flat layout (after `W₁` and `b₁`).
    w2_offset: usize,
    classes: usize,
    neg_samples: usize,
}

impl IndexArena {
    /// Hashes the start-up model's `W₂` — what every replica begins from.
    pub fn new(s: &SampledSoftmax, init: &Mlp) -> Self {
        let c = init.config();
        let index = || LshIndex::new(s.tables, s.k_bits, c.hidden, s.seed);
        let mut first = index();
        first.rebuild(init.w2());
        let [_, _, w2, _] = c.block_ranges();
        Self {
            bufs: [Arc::new(first), Arc::new(index())],
            live: 0,
            w2_offset: w2.start,
            classes: c.num_classes,
            neg_samples: s.neg_samples,
        }
    }

    /// A replica's sampler: a share of the live index plus its own
    /// selection scratch.
    pub fn sampler(&self) -> CandidateSampler {
        CandidateSampler::with_index(self.live().clone(), self.neg_samples)
    }

    /// The index the replicas currently select from.
    pub fn live(&self) -> &Arc<LshIndex> {
        &self.bufs[self.live]
    }

    /// Replicas holding a share of the live index.
    pub fn holders(&self) -> usize {
        Arc::strong_count(self.live()) - 1
    }

    /// Rebuilds the idle buffer from `synced`'s `W₂` region, read in place
    /// (f32 verbatim, bf16 widened exactly — the bits a replica holds after
    /// importing it), and makes it live.
    ///
    /// # Panics
    /// Panics if anything still holds a share of the idle buffer: every
    /// live replica adopts each sync, and a lost one is dropped.
    pub fn sync(&mut self, synced: FlatRef<'_>) {
        self.live = 1 - self.live;
        Arc::get_mut(&mut self.bufs[self.live])
            .expect("every replica adopted the last sync")
            .rebuild_flat(synced, self.w2_offset, self.classes);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Steady-state syncs alternate between the same two index buffers:
    /// once the replicas have swapped shares, the idle one is rebuilt in
    /// place.
    #[test]
    fn index_arena_alternates_two_buffers() {
        use asgd_model::MlpConfig;
        let config = MlpConfig {
            num_features: 20,
            hidden: 8,
            num_classes: 300,
        };
        let init = Mlp::init(&config, 1);
        let mut arena = IndexArena::new(&SampledSoftmax::defaults(8), &init);
        let first = Arc::as_ptr(arena.live());
        let mut replica_share = arena.live().clone();
        let mut seen = vec![first];
        for seed in 2..8 {
            let synced = Mlp::init(&config, seed);
            arena.sync(FlatRef::F32(synced.as_flat()));
            replica_share = arena.live().clone();
            seen.push(Arc::as_ptr(arena.live()));
        }
        assert_ne!(seen[0], seen[1]);
        for (i, p) in seen.iter().enumerate() {
            assert_eq!(*p, seen[i % 2], "sync {i} left the two buffers");
        }
        assert_eq!(arena.holders(), 1);
        drop(replica_share);
        assert_eq!(arena.holders(), 0);
    }

    /// A share of the idle buffer left behind — a replica that skipped a
    /// sync — is refused loudly instead of being rebuilt under its holder.
    #[test]
    #[should_panic(expected = "every replica adopted the last sync")]
    fn a_stale_share_is_refused() {
        use asgd_model::MlpConfig;
        let config = MlpConfig {
            num_features: 20,
            hidden: 8,
            num_classes: 300,
        };
        let init = Mlp::init(&config, 1);
        let mut arena = IndexArena::new(&SampledSoftmax::defaults(8), &init);
        let _stale = arena.live().clone();
        let synced = FlatRef::F32(init.as_flat());
        arena.sync(synced);
        arena.sync(synced);
    }
}
