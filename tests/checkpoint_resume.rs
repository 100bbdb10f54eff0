//! Pause/resume integration: a run checkpointed at a mega-batch boundary
//! continues training from the snapshot.

use adaptive_sgd::core::checkpoint::TrainingState;
use adaptive_sgd::core::{
    algorithms,
    trainer::{ResumeError, RunConfig, Trainer},
};
use adaptive_sgd::data::{generate, DatasetSpec, XmlDataset};
use adaptive_sgd::gpusim::profile::heterogeneous_server;

fn config(megas: usize) -> RunConfig {
    let mut c = RunConfig::paper_defaults(32, 8);
    c.hidden = 16;
    c.base_lr = 0.3;
    c.mega_batch_limit = Some(megas);
    c.overhead_scale = 0.001;
    c
}

#[test]
fn resume_continues_from_snapshot() {
    let ds = generate(&DatasetSpec::tiny("resume"), 11);
    let trainer = Trainer::new(
        algorithms::adaptive_sgd(),
        heterogeneous_server(2),
        config(4),
    );
    let first = trainer.run(&ds);
    let state = first.final_state.clone().expect("GPU runs produce state");
    assert_eq!(state.megas_done, 4);

    // Serialize through the binary format, as a real pause/restart would.
    let restored = TrainingState::decode(state.encode()).unwrap();
    let second = trainer.run_resumed(&ds, &restored).unwrap();

    // Merge indices continue where the first run stopped.
    assert_eq!(second.records.first().unwrap().merge_index, 4);
    assert_eq!(second.records.last().unwrap().merge_index, 7);
    assert_eq!(second.final_state.unwrap().megas_done, 8);

    // The resumed run starts from the trained model, not from scratch: its
    // first-merge accuracy should be at least the cold run's first-merge
    // accuracy (it has 4 mega-batches of training behind it).
    assert!(second.records.first().unwrap().accuracy >= first.records.first().unwrap().accuracy);
}

#[test]
fn resumed_hyperparameters_carry_over() {
    let ds = generate(&DatasetSpec::tiny("resume2"), 12);
    // Strongly heterogeneous pair so batch sizes diverge quickly.
    let profiles = vec![
        adaptive_sgd::gpusim::DeviceProfile::v100("fast"),
        adaptive_sgd::gpusim::DeviceProfile::v100("slow").with_speed(0.5),
    ];
    let trainer = Trainer::new(algorithms::adaptive_sgd(), profiles, config(6));
    let first = trainer.run(&ds);
    let state = first.final_state.unwrap();
    let adapted_sizes: Vec<f64> = state.hypers.iter().map(|h| h.batch_size).collect();
    assert_ne!(adapted_sizes[0], adapted_sizes[1], "sizes never adapted");

    let second = trainer.run_resumed(&ds, &state).unwrap();
    // The resumed run's first record reflects the carried-over sizes (it
    // does not reset to b_max for everyone).
    let first_record = &second.records[0];
    assert!(
        (first_record.batch_sizes[1] - adapted_sizes[1]).abs()
            <= adaptive_sgd::core::ScalingParams::paper_defaults(32).beta * 3.0,
        "resumed batch size jumped: {:?} vs snapshot {:?}",
        first_record.batch_sizes,
        adapted_sizes
    );
}

#[test]
fn resume_is_deterministic_through_recycled_arena_merges() {
    // A resumed run crosses several merge boundaries, so the scheduler's
    // merge arena gets lent/restored repeatedly with recycled buffers.
    // Resuming twice from the same snapshot must give bit-identical models
    // and accuracy curves — recycling must not leak state between merges.
    let ds = generate(&DatasetSpec::tiny("resume5"), 15);
    let trainer = Trainer::new(
        algorithms::adaptive_sgd(),
        heterogeneous_server(4),
        config(3),
    );
    let state = trainer.run(&ds).final_state.unwrap();
    let snapshot = TrainingState::decode(state.encode()).unwrap();

    let a = trainer.run_resumed(&ds, &snapshot).unwrap();
    let b = trainer.run_resumed(&ds, &snapshot).unwrap();
    assert!(a.records.len() >= 2, "need multiple merges to recycle");
    let bits = |m: &[f32]| m.iter().map(|v| v.to_bits()).collect::<Vec<_>>();
    assert_eq!(bits(&a.final_model), bits(&b.final_model));
    for (ra, rb) in a.records.iter().zip(&b.records) {
        assert_eq!(ra.accuracy.to_bits(), rb.accuracy.to_bits());
        // Each replica's losses are summed in its training order and the
        // per-device sums in device order, so the mean repeats bit for bit.
        assert_eq!(ra.mean_loss.to_bits(), rb.mean_loss.to_bits());
    }
}

#[test]
fn resume_with_wrong_gpu_count_is_an_error() {
    let ds = generate(&DatasetSpec::tiny("resume3"), 13);
    let two = Trainer::new(
        algorithms::adaptive_sgd(),
        heterogeneous_server(2),
        config(2),
    );
    let state = two.run(&ds).final_state.unwrap();
    let four = Trainer::new(
        algorithms::adaptive_sgd(),
        heterogeneous_server(4),
        config(2),
    );
    let e = four.run_resumed(&ds, &state).unwrap_err();
    assert_eq!(e, ResumeError::GpuCount { have: 2, want: 4 });
    assert!(e.to_string().contains("does not match the GPU count"));
}

/// A finished two-GPU run: the trainer, its dataset and its final state.
fn trained_pair(name: &str, seed: u64) -> (Trainer, XmlDataset, TrainingState) {
    let ds = generate(&DatasetSpec::tiny(name), seed);
    let trainer = Trainer::new(
        algorithms::adaptive_sgd(),
        heterogeneous_server(2),
        config(2),
    );
    let state = trainer.run(&ds).final_state.unwrap();
    (trainer, ds, state)
}

#[test]
fn resume_with_wrong_architecture_is_an_error() {
    let (trainer, ds, mut state) = trained_pair("resume4", 14);
    let want = state.global.len();
    std::sync::Arc::make_mut(&mut state.global).truncate(10);
    let e = trainer.run_resumed(&ds, &state).unwrap_err();
    assert_eq!(e, ResumeError::Architecture { have: 10, want });
    assert!(e
        .to_string()
        .contains("does not match the model architecture"));
}

#[test]
fn resume_with_short_momentum_memory_is_an_error() {
    // A hand-built state: the model fits, its momentum memory does not. This
    // used to reach the first merge — replicas built — before an
    // `assert_eq!` deep in the fused pass noticed.
    let (trainer, ds, mut state) = trained_pair("resume6", 16);
    let want = state.global.len();
    state.prev_global.truncate(want - 1);
    let e = trainer.run_resumed(&ds, &state).unwrap_err();
    assert_eq!(
        e,
        ResumeError::MomentumLength {
            have: want - 1,
            want
        }
    );
}

/// A sampled-softmax, sparse-merge run resumed twice from one snapshot, at
/// f32 and bf16: both resumes give the same final model bit for bit, and
/// that model is the one pinned below (`fnv1a` of its little-endian bytes).
/// Sampled replicas train as overlays on the model they imported, so the
/// pinned checksums also hold the overlay to the owned-replica arithmetic
/// they were cut with.
#[test]
fn sampled_sparse_resume_is_deterministic_and_pinned() {
    use adaptive_sgd::core::trainer::SampledSoftmax;
    use adaptive_sgd::stats::fnv1a;
    use adaptive_sgd::tensor::Precision;

    let ds = generate(&DatasetSpec::tiny("resume-sampled"), 17);
    for (precision, want) in [
        (Precision::F32, SAMPLED_RESUME_F32_FNV),
        (Precision::Bf16, SAMPLED_RESUME_BF16_FNV),
    ] {
        let mut cfg = config(3);
        cfg.precision = precision;
        cfg.sampled_softmax = Some(SampledSoftmax::defaults(12));
        cfg.sparse_merge = true;
        cfg.sparse_max_density = 1.0;
        let trainer = Trainer::new(algorithms::adaptive_sgd(), heterogeneous_server(3), cfg);
        let state = trainer.run(&ds).final_state.unwrap();
        let snapshot = TrainingState::decode(state.encode()).unwrap();
        let a = trainer.run_resumed(&ds, &snapshot).unwrap();
        let b = trainer.run_resumed(&ds, &snapshot).unwrap();
        let fnv = |m: &[f32]| fnv1a(m.iter().flat_map(|w| w.to_le_bytes()));
        assert_eq!(fnv(&a.final_model), fnv(&b.final_model), "{precision:?}");
        for (ra, rb) in a.records.iter().zip(&b.records) {
            assert_eq!(ra.mean_loss.to_bits(), rb.mean_loss.to_bits());
            assert_eq!(ra.accuracy.to_bits(), rb.accuracy.to_bits());
        }
        assert_eq!(
            fnv(&a.final_model),
            want,
            "{precision:?}: got {:#018x}",
            fnv(&a.final_model)
        );
    }
}

/// The final-model checksums of `sampled_sparse_resume_is_deterministic_and_pinned`.
const SAMPLED_RESUME_F32_FNV: u64 = 0x205d_c398_c5cf_191e;
const SAMPLED_RESUME_BF16_FNV: u64 = 0xed2f_8a5b_27ed_6910;
