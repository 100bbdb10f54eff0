//! The merge arena: per-replica flat model buffers owned by the scheduler
//! and recycled across merges.
//!
//! Ownership rule: **the scheduler owns the arena; a manager borrows at most
//! one buffer at a time** (lent out inside a `GetModel` and always sent back
//! in the `Model` reply). Once the gather is drained every buffer is home;
//! the fused merge pass reads them all and leaves the redistribution payload
//! in the first live one, which the managers then read through a shared
//! `Arc` and release before they acknowledge. So the whole dense merge stage
//! reuses the same `n` allocations for the run's lifetime: after the first
//! merge sizes them, no model-sized allocation ever happens again. Under the
//! sparse delta merge no replica buffer exists and the slots stay unsized
//! (see [`DeltaArena`]).
//!
//! Buffers are [`FlatVec`]s: the arena is constructed at the run's storage
//! [`Precision`] and every slot carries that tag, so managers fill a lent
//! buffer at the right width without consulting the scheduler.

use super::SampledSoftmax;
use asgd_collective::SparseLayout;
use asgd_model::Mlp;
use asgd_slide::{CandidateSampler, LshIndex};
use asgd_tensor::{FlatVec, Precision};
use std::sync::Arc;

/// Per-replica flat buffers, recycled across merges.
#[derive(Debug)]
pub struct MergeArena {
    param_len: usize,
    precision: Precision,
    /// `slots[g]` is GPU `g`'s buffer; an empty buffer marks it as on loan
    /// (a filled buffer always has `param_len > 0` elements).
    slots: Vec<FlatVec>,
}

impl MergeArena {
    /// An arena for `n` replicas of `param_len` parameters stored at
    /// `precision`. Buffers start empty: the first `Mlp::write_flat_buf`
    /// sizes them.
    pub fn new(n: usize, param_len: usize, precision: Precision) -> Self {
        assert!(param_len > 0, "empty model");
        Self {
            param_len,
            precision,
            slots: (0..n).map(|_| FlatVec::empty(precision)).collect(),
        }
    }

    /// Number of replica slots.
    pub fn len(&self) -> usize {
        self.slots.len()
    }

    /// Whether the arena holds no slots.
    pub fn is_empty(&self) -> bool {
        self.slots.is_empty()
    }

    /// The storage precision every slot carries.
    pub fn precision(&self) -> Precision {
        self.precision
    }

    /// Takes GPU `g`'s buffer out of the arena to lend it to a manager.
    ///
    /// # Panics
    /// Panics if the buffer is already on loan (after the first merge a
    /// home buffer is never empty).
    pub fn lend(&mut self, g: usize) -> FlatVec {
        let buf = std::mem::replace(&mut self.slots[g], FlatVec::empty(self.precision));
        assert!(
            buf.capacity() == 0 || buf.len() == self.param_len,
            "arena slot {g} lent while on loan"
        );
        buf
    }

    /// Returns a lent buffer to GPU `g`'s slot.
    ///
    /// # Panics
    /// Panics on a length or precision mismatch, or if the slot is already
    /// occupied.
    pub fn restore(&mut self, g: usize, buf: FlatVec) {
        assert_eq!(buf.len(), self.param_len, "arena buffer length");
        assert_eq!(buf.precision(), self.precision, "arena buffer precision");
        assert!(self.slots[g].is_empty(), "arena slot {g} restored twice");
        self.slots[g] = buf;
    }

    /// All buffers at once, for the in-place all-reduce.
    ///
    /// # Panics
    /// Panics if any buffer is on loan.
    pub fn buffers_mut(&mut self) -> &mut [FlatVec] {
        assert!(
            self.slots.iter().all(|s| s.len() == self.param_len),
            "all-reduce with arena buffers on loan"
        );
        &mut self.slots
    }

    /// GPU `g`'s buffer, read-only.
    ///
    /// # Panics
    /// Panics if the buffer is on loan.
    pub fn buffer(&self, g: usize) -> &FlatVec {
        assert_eq!(
            self.slots[g].len(),
            self.param_len,
            "arena slot {g} on loan"
        );
        &self.slots[g]
    }
}

/// Per-replica `(rows, payload)` buffers for the sparse delta merge,
/// recycled across merges exactly like [`MergeArena`] slots.
///
/// Ownership follows the same rule: the scheduler owns the arena, a
/// manager borrows one pair inside a `GetDelta` and returns it in the
/// `Delta` reply. Deltas are variable-length, so slots are only
/// length-checked against the layout by the consumer, not here.
#[derive(Debug)]
pub struct DeltaArena {
    precision: Precision,
    slots: Vec<Option<(Vec<u32>, FlatVec)>>,
}

impl DeltaArena {
    /// An arena of `n` empty delta slots at the run's storage precision.
    pub fn new(n: usize, precision: Precision) -> Self {
        Self {
            precision,
            slots: (0..n)
                .map(|_| Some((Vec::new(), FlatVec::empty(precision))))
                .collect(),
        }
    }

    /// Takes GPU `g`'s `(rows, payload)` pair to lend it to a manager.
    ///
    /// # Panics
    /// Panics if the pair is already on loan.
    pub fn lend(&mut self, g: usize) -> (Vec<u32>, FlatVec) {
        self.slots[g]
            .take()
            .unwrap_or_else(|| panic!("delta slot {g} lent while on loan"))
    }

    /// Returns a lent pair to GPU `g`'s slot.
    ///
    /// # Panics
    /// Panics on a precision mismatch or if the slot is occupied.
    pub fn restore(&mut self, g: usize, rows: Vec<u32>, payload: FlatVec) {
        assert_eq!(payload.precision(), self.precision, "delta precision");
        assert!(self.slots[g].is_none(), "delta slot {g} restored twice");
        self.slots[g] = Some((rows, payload));
    }

    /// GPU `g`'s home pair, read-only.
    ///
    /// # Panics
    /// Panics if the pair is on loan.
    pub fn slot(&self, g: usize) -> (&[u32], &FlatVec) {
        let (rows, payload) = self.slots[g]
            .as_ref()
            .unwrap_or_else(|| panic!("delta slot {g} on loan"));
        (rows, payload)
    }
}

/// The sampled-softmax LSH index, built **once per model sync** by the
/// scheduler and shared read-only with every manager.
///
/// Ownership rule: the scheduler owns two index buffers. Between syncs the
/// *live* one is shared (`Arc`) with every surviving manager and the other
/// sits idle; a sync rebuilds the idle buffer from the bytes the managers
/// are about to import, makes it live, and ships a share inside each
/// `SetModel`/`Blend`. Managers swap shares before they acknowledge, so once
/// every `Redistributed` ack is in the previous buffer is uniquely owned
/// again and the next sync rebuilds it in place — steady-state syncs
/// allocate nothing index-sized.
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
        Self {
            bufs: [Arc::new(first), Arc::new(index())],
            live: 0,
            w2_offset: SparseLayout::new(c.num_features, c.hidden, c.num_classes).w2_off(),
            classes: c.num_classes,
            neg_samples: s.neg_samples,
        }
    }

    /// A manager's sampler: a share of the live index plus its own
    /// selection scratch.
    pub fn sampler(&self) -> CandidateSampler {
        CandidateSampler::with_index(self.live().clone(), self.neg_samples)
    }

    /// The index the managers currently select from.
    pub fn live(&self) -> &Arc<LshIndex> {
        &self.bufs[self.live]
    }

    /// Managers holding a share of the live index.
    pub fn holders(&self) -> usize {
        Arc::strong_count(self.live()) - 1
    }

    /// Rebuilds the idle buffer from `synced`'s `W₂` region (f32 verbatim,
    /// bf16 widened exactly — the bits a replica holds after importing it),
    /// makes it live and returns a share to send out.
    ///
    /// A manager lost since the last sync may not have dropped its share of
    /// the idle buffer yet (its thread is still draining); `make_mut` then
    /// rebuilds a private copy instead of writing under it.
    pub fn sync(&mut self, synced: &FlatVec) -> Arc<LshIndex> {
        self.live = 1 - self.live;
        let index = &mut self.bufs[self.live];
        Arc::make_mut(index).rebuild_flat(synced, self.w2_offset, self.classes);
        Arc::clone(index)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn delta_arena_recycles_allocations() {
        let mut arena = DeltaArena::new(2, Precision::F32);
        let (mut rows, payload) = arena.lend(1);
        rows.extend_from_slice(&[1, 5, 9]);
        let mut payload = match payload {
            FlatVec::F32(v) => v,
            other => panic!("f32 delta lent {other:?}"),
        };
        payload.resize(12, 2.0);
        let (rp, pp) = (rows.as_ptr() as usize, payload.as_ptr() as usize);
        arena.restore(1, rows, FlatVec::F32(payload));
        assert_eq!(arena.slot(1).0, &[1, 5, 9]);
        let (mut rows, payload) = arena.lend(1);
        rows.clear();
        assert!(rows.capacity() >= 3);
        assert_eq!(rows.as_ptr() as usize, rp, "row buffer reallocated");
        assert_eq!(payload.as_ptr_addr(), pp, "payload buffer reallocated");
        arena.restore(1, rows, payload);
    }

    /// Steady-state syncs alternate between the same two index buffers:
    /// once the managers have swapped shares, the idle one is rebuilt in
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
        let mut manager_share = arena.live().clone();
        let mut seen = vec![first];
        for seed in 2..8 {
            let synced = FlatVec::F32(Mlp::init(&config, seed).to_flat());
            manager_share = arena.sync(&synced);
            assert!(Arc::ptr_eq(&manager_share, arena.live()));
            seen.push(Arc::as_ptr(arena.live()));
        }
        assert_ne!(seen[0], seen[1]);
        for (i, p) in seen.iter().enumerate() {
            assert_eq!(*p, seen[i % 2], "sync {i} left the two buffers");
        }
        drop(manager_share);
        assert_eq!(arena.holders(), 0);
    }

    #[test]
    #[should_panic(expected = "on loan")]
    fn delta_double_lend_panics() {
        let mut arena = DeltaArena::new(1, Precision::F32);
        let _a = arena.lend(0);
        let _b = arena.lend(0);
    }

    #[test]
    #[should_panic(expected = "delta precision")]
    fn delta_restore_wrong_precision_panics() {
        let mut arena = DeltaArena::new(1, Precision::Bf16);
        let (rows, _payload) = arena.lend(0);
        arena.restore(0, rows, FlatVec::F32(vec![0.0; 4]));
    }

    #[test]
    fn lend_restore_cycle_is_pointer_stable() {
        let mut arena = MergeArena::new(2, 8, Precision::F32);
        // First cycle sizes the buffers.
        let a = arena.lend(0);
        let mut a = match a {
            FlatVec::F32(v) => v,
            other => panic!("f32 arena lent {other:?}"),
        };
        a.resize(8, 1.0);
        let ptr = a.as_ptr() as usize;
        arena.restore(0, FlatVec::F32(a));
        // Every later cycle reuses the same allocation.
        for round in 0..5 {
            let b = arena.lend(0);
            assert_eq!(b.as_ptr_addr(), ptr, "round {round} reallocated");
            let mut v = match b {
                FlatVec::F32(v) => v,
                other => panic!("f32 arena lent {other:?}"),
            };
            v.clear();
            v.resize(8, round as f32);
            assert_eq!(v.as_ptr() as usize, ptr, "round {round} refill reallocated");
            arena.restore(0, FlatVec::F32(v));
        }
        assert_eq!(arena.buffer(0).as_ptr_addr(), ptr);
    }

    #[test]
    fn bf16_arena_lends_bf16_tagged_buffers() {
        let mut arena = MergeArena::new(2, 4, Precision::Bf16);
        assert_eq!(arena.precision(), Precision::Bf16);
        let buf = arena.lend(0);
        assert_eq!(buf.precision(), Precision::Bf16);
        let mut v = match buf {
            FlatVec::Bf16(v) => v,
            other => panic!("bf16 arena lent {other:?}"),
        };
        v.resize(4, asgd_tensor::bf16::narrow(1.5));
        let ptr = v.as_ptr() as usize;
        arena.restore(0, FlatVec::Bf16(v));
        let again = arena.lend(0);
        assert_eq!(again.as_ptr_addr(), ptr, "recycle must keep the allocation");
        arena.restore(0, again);
        assert_eq!(arena.buffer(0).get_f32(0), 1.5);
    }

    #[test]
    fn buffers_mut_exposes_all_slots() {
        let mut arena = MergeArena::new(3, 4, Precision::F32);
        for g in 0..3 {
            let mut b = match arena.lend(g) {
                FlatVec::F32(v) => v,
                other => panic!("f32 arena lent {other:?}"),
            };
            b.resize(4, g as f32);
            arena.restore(g, FlatVec::F32(b));
        }
        assert_eq!(arena.len(), 3);
        assert!(!arena.is_empty());
        let bufs = arena.buffers_mut();
        assert_eq!(bufs.len(), 3);
        assert_eq!(bufs[2], FlatVec::F32(vec![2.0; 4]));
    }

    #[test]
    #[should_panic(expected = "arena buffer length")]
    fn restoring_wrong_length_panics() {
        let mut arena = MergeArena::new(1, 4, Precision::F32);
        arena.restore(0, FlatVec::F32(vec![0.0; 3]));
    }

    #[test]
    #[should_panic(expected = "arena buffer precision")]
    fn restoring_wrong_precision_panics() {
        let mut arena = MergeArena::new(1, 4, Precision::Bf16);
        arena.restore(0, FlatVec::F32(vec![0.0; 4]));
    }

    #[test]
    #[should_panic(expected = "on loan")]
    fn reading_a_lent_buffer_panics() {
        let mut arena = MergeArena::new(1, 4, Precision::F32);
        let _b = arena.lend(0);
        let _ = arena.buffer(0);
    }
}
