//! Event messages between the dynamic scheduler and the GPU managers
//! (the "event messages" of the HeteroGPU architecture, Fig. 3).
//!
//! Model-sized payloads travel in scheduler-owned buffers: `GetModel` lends
//! an arena buffer out (see [`super::arena::MergeArena`]) and `Model`
//! returns it filled; `SetModel`/`Blend` hand every live manager a share of
//! the ONE redistribution payload, read-only, and a manager drops its share
//! before it answers `Redistributed` — so once every acknowledgement is in
//! the buffer is the scheduler's alone again. After the first merge no
//! message allocates. Payloads are [`FlatVec`]s carrying the run's storage
//! precision (f32 or bf16).
//!
//! On the sampled-softmax path the two model-sync messages also carry the
//! LSH index the scheduler built from the synced bytes (see
//! [`super::arena::IndexArena`]), under the same rule: a manager adopts the
//! `Arc` before it acknowledges, dropping its share of the previous index.

use asgd_slide::LshIndex;
use asgd_tensor::FlatVec;
use std::sync::Arc;

/// Scheduler → GPU manager commands. Each manager processes its queue in
/// FIFO order, so a `GetModel` enqueued after a run of `Train`s acts as a
/// natural drain barrier without extra synchronization.
#[derive(Debug)]
pub(crate) enum ToManager {
    /// Run one SGD epoch on the given training-sample ids.
    Train {
        /// Row ids into the training split.
        batch_ids: Vec<usize>,
        /// The learning rate for this batch (already linear-scaled).
        lr: f32,
        /// Seed of the sampled-softmax candidate selection, derived from the
        /// batch ids alone — a batch re-dispatched after a device loss
        /// carries the same seed and reproduces its candidate set exactly.
        /// Ignored on the dense path.
        sample_seed: u64,
    },
    /// Send the current replica (flat) and its L2-norm-per-parameter back.
    GetModel {
        /// Arena buffer the manager writes its flat replica into; returned
        /// via [`FromManager::Model`].
        buf: FlatVec,
    },
    /// Replace the replica with the given flat parameters; acknowledged via
    /// [`FromManager::Redistributed`] once the share of `buf` is dropped.
    SetModel {
        /// The new global model (shared, read-only).
        buf: Arc<FlatVec>,
        /// The index hashed from `buf`'s `W₂` region (sampled runs only).
        index: Option<Arc<LshIndex>>,
    },
    /// CROSSBOW-style partial pull: `w ← w + pull·(target − w)`;
    /// acknowledged via [`FromManager::Redistributed`] once the share of
    /// `target` is dropped.
    Blend {
        /// The central average model (shared, read-only).
        target: Arc<FlatVec>,
        /// Pull strength in `[0, 1]`.
        pull: f32,
        /// The index hashed from `target`'s `W₂` region (sampled runs
        /// only) — blended replicas differ per manager, candidates must not.
        index: Option<Arc<LshIndex>>,
    },
    /// Sparse-merge alternative to `GetModel`: send the sorted set of rows
    /// dirtied since the last `SetModel` plus their delta payload (the
    /// `asgd_collective::sparse` wire format) instead of the dense model.
    /// Both vectors are scheduler-owned recycled buffers (see
    /// [`super::arena::DeltaArena`]), returned via [`FromManager::Delta`].
    GetDelta {
        /// Recycled row-id buffer the manager fills (sorted ascending).
        rows: Vec<u32>,
        /// Recycled payload buffer the manager fills via
        /// `Mlp::write_delta_buf`.
        payload: FlatVec,
    },
    /// Terminate the manager thread.
    Stop,
}

/// GPU manager → scheduler replies.
#[derive(Debug)]
pub(crate) enum FromManager {
    /// One `Train` command completed.
    Trained {
        /// Manager/device index.
        gpu: usize,
        /// Batch loss.
        loss: f64,
        /// Samples in the batch.
        batch_size: usize,
    },
    /// Reply to `GetModel`.
    Model {
        /// Manager/device index.
        gpu: usize,
        /// Flat replica parameters, in the buffer `GetModel` lent out.
        flat: FlatVec,
        /// `‖w‖₂ / |w|` — Algorithm 2's regularization measure.
        norm_per_param: f64,
    },
    /// Reply to `SetModel`/`Blend`: the replica was updated and the
    /// manager no longer holds a share of the payload.
    Redistributed,
    /// Reply to `GetDelta`.
    Delta {
        /// Manager/device index.
        gpu: usize,
        /// Rows dirtied since the last sync, sorted ascending.
        rows: Vec<u32>,
        /// Delta payload over `rows` (`Mlp::write_delta_buf` format), in
        /// the buffer `GetDelta` lent out.
        payload: FlatVec,
        /// `‖w‖₂ / |w|` — same regularization measure `Model` carries.
        norm_per_param: f64,
    },
}
