//! Time-to-accuracy and statistical-efficiency recording.

use std::sync::Arc;

/// One row recorded at a model-merge (or evaluation) point.
#[derive(Debug, Clone, PartialEq)]
pub struct MergeRecord {
    /// 0-based merge index.
    pub merge_index: usize,
    /// Simulated seconds elapsed (max device clock at merge completion;
    /// evaluation time is excluded, matching §V-A).
    pub sim_time: f64,
    /// Fractional passes over the training set so far.
    pub epochs: f64,
    /// Top-1 test accuracy of the global model.
    pub accuracy: f64,
    /// Mean training loss over the merge interval.
    pub mean_loss: f64,
    /// Per-GPU batch sizes *after* this merge's scaling step (Fig. 6a).
    pub batch_sizes: Vec<f64>,
    /// Per-GPU update counts in the interval.
    pub updates: Vec<u64>,
    /// Whether Algorithm 2's perturbation fired (Fig. 6b).
    pub perturbed: bool,
    /// The merge weights used.
    pub merge_weights: Vec<f64>,
}

/// Accumulates [`MergeRecord`]s during a run.
#[derive(Debug, Clone, Default)]
pub struct RunRecorder {
    records: Vec<MergeRecord>,
}

impl RunRecorder {
    /// An empty recorder.
    pub fn new() -> Self {
        Self::default()
    }

    /// Appends a record.
    pub fn push(&mut self, record: MergeRecord) {
        self.records.push(record);
    }

    /// All records so far.
    pub fn records(&self) -> &[MergeRecord] {
        &self.records
    }

    /// Consumes the recorder.
    pub fn into_records(self) -> Vec<MergeRecord> {
        self.records
    }
}

/// Accounting of the sparse delta merge path (`ASGD_SPARSE_MERGE=1`):
/// simulated bytes the sparse schedule moved versus what the dense
/// schedule would have moved over the same merges.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct SparseMergeStats {
    /// Merges that went through the sparse planner.
    pub merges: u64,
    /// Of those, merges whose union density exceeded the threshold and
    /// fell back to the dense schedule (timing-only — arithmetic is always
    /// dense).
    pub fallbacks: u64,
    /// Simulated bytes moved by the charged (sparse or fallen-back)
    /// schedules.
    pub sparse_bytes: u64,
    /// Simulated bytes the dense schedules would have moved.
    pub dense_bytes: u64,
}

impl SparseMergeStats {
    /// `dense_bytes / sparse_bytes` — the headline traffic reduction.
    pub fn bytes_ratio(&self) -> f64 {
        self.dense_bytes as f64 / (self.sparse_bytes as f64).max(1.0)
    }
}

/// The complete outcome of one training run.
#[derive(Debug, Clone)]
pub struct RunResult {
    /// Algorithm name (e.g. `"adaptive-sgd"`).
    pub name: String,
    /// Records in merge order.
    pub records: Vec<MergeRecord>,
    /// The final global model, flattened — for GPU trainers the same
    /// allocation as `final_state`'s `global`.
    pub final_model: Arc<Vec<f32>>,
    /// Rendered dispatch trace (empty when tracing was disabled).
    pub trace: String,
    /// Resumable snapshot at the final merge (GPU trainers only; the SLIDE
    /// baseline reports `None`).
    pub final_state: Option<crate::checkpoint::TrainingState>,
    /// Fault-injection outcome accounting (quiet/default when the run had no
    /// [`crate::trainer::RunConfig::fault_plan`]).
    pub chaos: crate::trainer::chaos::ChaosStats,
    /// Sparse-merge accounting (`None` unless the sparse delta merge was
    /// active — [`crate::trainer::RunConfig::sparse_merge`]).
    pub sparse_merge: Option<SparseMergeStats>,
}

impl RunResult {
    /// Highest accuracy reached at any record.
    pub fn best_accuracy(&self) -> f64 {
        self.records.iter().map(|r| r.accuracy).fold(0.0, f64::max)
    }

    /// Earliest simulated time at which `target` accuracy was reached
    /// (`None` if never) — the paper's headline metric.
    pub fn time_to_accuracy(&self, target: f64) -> Option<f64> {
        self.records
            .iter()
            .find(|r| r.accuracy >= target)
            .map(|r| r.sim_time)
    }

    /// Earliest epoch count at which `target` accuracy was reached
    /// (`None` if never) — statistical efficiency (Fig. 5b).
    pub fn epochs_to_accuracy(&self, target: f64) -> Option<f64> {
        self.records
            .iter()
            .find(|r| r.accuracy >= target)
            .map(|r| r.epochs)
    }

    /// Fraction of merges in which perturbation fired (Fig. 6b summary).
    pub fn perturbation_frequency(&self) -> f64 {
        if self.records.is_empty() {
            return 0.0;
        }
        self.records.iter().filter(|r| r.perturbed).count() as f64 / self.records.len() as f64
    }

    /// CSV of the `(sim_time, epochs, accuracy, loss)` series — the raw data
    /// of Figures 4 and 5.
    pub fn curve_csv(&self) -> String {
        let mut out = String::from("merge,sim_time,epochs,accuracy,mean_loss\n");
        for r in &self.records {
            out.push_str(&format!(
                "{},{:.6},{:.4},{:.4},{:.5}\n",
                r.merge_index, r.sim_time, r.epochs, r.accuracy, r.mean_loss
            ));
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn record(i: usize, t: f64, e: f64, acc: f64, pert: bool) -> MergeRecord {
        MergeRecord {
            merge_index: i,
            sim_time: t,
            epochs: e,
            accuracy: acc,
            mean_loss: 1.0 / (i + 1) as f64,
            batch_sizes: vec![256.0],
            updates: vec![10],
            perturbed: pert,
            merge_weights: vec![1.0],
        }
    }

    fn result() -> RunResult {
        RunResult {
            name: "test".into(),
            records: vec![
                record(0, 1.0, 0.5, 0.10, false),
                record(1, 2.0, 1.0, 0.25, true),
                record(2, 3.0, 1.5, 0.22, true),
                record(3, 4.0, 2.0, 0.30, true),
            ],
            final_model: Arc::default(),
            trace: String::new(),
            final_state: None,
            chaos: Default::default(),
            sparse_merge: None,
        }
    }

    #[test]
    fn time_to_accuracy_finds_first_crossing() {
        let r = result();
        assert_eq!(r.time_to_accuracy(0.2), Some(2.0));
        assert_eq!(r.time_to_accuracy(0.3), Some(4.0));
        assert_eq!(r.time_to_accuracy(0.9), None);
    }

    #[test]
    fn epochs_to_accuracy_matches() {
        let r = result();
        assert_eq!(r.epochs_to_accuracy(0.2), Some(1.0));
    }

    #[test]
    fn best_accuracy_is_max_not_last() {
        let mut r = result();
        assert_eq!(r.best_accuracy(), 0.30);
        r.records.push(record(4, 5.0, 2.5, 0.05, false));
        assert_eq!(r.best_accuracy(), 0.30);
    }

    #[test]
    fn perturbation_frequency_counts() {
        let r = result();
        assert_eq!(r.perturbation_frequency(), 0.75);
    }

    #[test]
    fn curve_csv_shape() {
        let csv = result().curve_csv();
        assert_eq!(csv.lines().count(), 5);
        assert!(csv.starts_with("merge,sim_time"));
    }

    #[test]
    fn empty_result_is_safe() {
        let r = RunResult {
            name: "e".into(),
            records: vec![],
            final_model: Arc::default(),
            trace: String::new(),
            final_state: None,
            chaos: Default::default(),
            sparse_merge: None,
        };
        assert_eq!(r.best_accuracy(), 0.0);
        assert_eq!(r.time_to_accuracy(0.1), None);
        assert_eq!(r.perturbation_frequency(), 0.0);
    }
}
