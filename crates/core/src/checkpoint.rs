//! Training-state checkpointing: pause and resume multi-GPU runs.
//!
//! A checkpoint captures everything Algorithm 1/2 need to continue — the
//! global model, the previous global model (the momentum term's memory),
//! and the per-GPU hyperparameter state — plus the mega-batch count for
//! bookkeeping. Device clocks and the shuffle position are *not* part of
//! the state: a resumed run continues the optimization, it does not replay
//! the original timing trace.
//!
//! Binary format (little-endian): `"ASGC" | version u32 | mega u64 |
//! n_gpus u64 | param_len u64 | global f32* | prev f32* |
//! (batch f64, lr f64, updates u64)*`, both models in the flat layout of
//! `asgd_model::MlpConfig::block_ranges` (`W₂` class-major). Version 1
//! stored `W₂` hidden-major; it is refused by version
//! ([`StateError::BadVersion`]), never resumed with its output layer read in
//! the wrong order.

use crate::hyper::GpuHyper;
use asgd_model::{checkpoint as model_checkpoint, Mlp, MlpConfig};
use bytes::{Buf, BufMut, Bytes, BytesMut};
use std::sync::Arc;

const MAGIC: &[u8; 4] = b"ASGC";
const VERSION: u32 = 2;

/// Resumable snapshot of a training run at a mega-batch boundary.
#[derive(Debug, Clone, PartialEq)]
pub struct TrainingState {
    /// The global model (flat layout, see `asgd_model::Mlp::as_flat`),
    /// shared with the run's [`crate::RunResult::final_model`].
    pub global: Arc<Vec<f32>>,
    /// The previous global model (`w_prev` in Algorithm 2).
    pub prev_global: Vec<f32>,
    /// Per-GPU hyperparameter state.
    pub hypers: Vec<GpuHyper>,
    /// Mega-batches completed before this snapshot.
    pub megas_done: u64,
}

/// Checkpoint decode errors.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum StateError {
    /// Wrong magic bytes.
    BadMagic,
    /// Unsupported version.
    BadVersion(u32),
    /// Payload shorter than the header claims.
    Truncated,
}

impl std::fmt::Display for StateError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            StateError::BadMagic => write!(f, "bad training-state magic"),
            StateError::BadVersion(v) => write!(f, "unsupported training-state version {v}"),
            StateError::Truncated => write!(f, "truncated training state"),
        }
    }
}

impl std::error::Error for StateError {}

impl TrainingState {
    /// Serializes the state.
    pub fn encode(&self) -> Bytes {
        let mut buf =
            BytesMut::with_capacity(4 + 4 + 24 + 8 * self.global.len() + 24 * self.hypers.len());
        buf.put_slice(MAGIC);
        buf.put_u32_le(VERSION);
        buf.put_u64_le(self.megas_done);
        buf.put_u64_le(self.hypers.len() as u64);
        buf.put_u64_le(self.global.len() as u64);
        for &v in self.global.iter() {
            buf.put_f32_le(v);
        }
        for &v in &self.prev_global {
            buf.put_f32_le(v);
        }
        for h in &self.hypers {
            buf.put_f64_le(h.batch_size);
            buf.put_f64_le(h.lr);
            buf.put_u64_le(h.updates);
        }
        buf.freeze()
    }

    /// Exports the snapshot's *global model* as a standalone, serveable
    /// model checkpoint (the `asgd_model::checkpoint` "ASGD" format): the
    /// handoff from training to the serving tier. Only the model crosses —
    /// optimizer memory (`prev_global`) and per-GPU hyperparameter state
    /// stay behind, because inference needs neither.
    ///
    /// # Panics
    /// Panics when the architecture does not match the stored flat model.
    pub fn export_model(&self, config: &MlpConfig) -> Bytes {
        self.export_model_with(config, asgd_tensor::Precision::F32)
    }

    /// [`TrainingState::export_model`] at an explicit storage precision —
    /// the versioned-model export path of the serving registry:
    /// [`asgd_tensor::Precision::F32`] emits the f32 (v3) layout,
    /// [`asgd_tensor::Precision::Bf16`] the half-size bf16 (v4)
    /// layout (one round-to-nearest-even narrowing per weight), so a fleet
    /// can stream checkpoint versions at either storage tier.
    ///
    /// # Panics
    /// Panics when the architecture does not match the stored flat model.
    pub fn export_model_with(
        &self,
        config: &MlpConfig,
        precision: asgd_tensor::Precision,
    ) -> Bytes {
        assert_eq!(
            self.global.len(),
            config.param_len(),
            "training state / architecture mismatch"
        );
        let model = Mlp::from_flat(config, self.global.to_vec());
        model_checkpoint::encode_with(&model, precision)
    }

    /// Deserializes a state produced by [`TrainingState::encode`]. Malformed
    /// input of any kind is an error, never a panic or an allocation sized
    /// by the header alone.
    pub fn decode(mut data: Bytes) -> Result<Self, StateError> {
        if data.remaining() < 8 + 24 {
            return Err(StateError::Truncated);
        }
        let mut magic = [0u8; 4];
        data.copy_to_slice(&mut magic);
        if &magic != MAGIC {
            return Err(StateError::BadMagic);
        }
        let version = data.get_u32_le();
        if version != VERSION {
            return Err(StateError::BadVersion(version));
        }
        let megas_done = data.get_u64_le();
        // Header counts are untrusted: size the payload in checked
        // arithmetic and hold it against what is actually there before
        // anything is allocated for it.
        let n_gpus = data.get_u64_le();
        let param_len = data.get_u64_le();
        let payload = param_len
            .checked_mul(8)
            .and_then(|params| params.checked_add(n_gpus.checked_mul(24)?));
        if payload.is_none_or(|p| p > data.remaining() as u64) {
            return Err(StateError::Truncated);
        }
        let (n_gpus, param_len) = (n_gpus as usize, param_len as usize);
        let mut read_vec = |n: usize| -> Vec<f32> {
            let mut v = Vec::with_capacity(n);
            for _ in 0..n {
                v.push(data.get_f32_le());
            }
            v
        };
        let global = read_vec(param_len);
        let prev_global = read_vec(param_len);
        let hypers = (0..n_gpus)
            .map(|_| GpuHyper {
                batch_size: data.get_f64_le(),
                lr: data.get_f64_le(),
                updates: data.get_u64_le(),
            })
            .collect();
        Ok(TrainingState {
            global: Arc::new(global),
            prev_global,
            hypers,
            megas_done,
        })
    }
}

/// Loads a serveable model from the bytes produced by
/// [`TrainingState::export_model`] (or `asgd_model::checkpoint::encode`
/// directly) — the read side of the train→serve handoff, used by
/// `asgd-serve` to boot its replicas.
pub fn load_model(data: Bytes) -> Result<Mlp, model_checkpoint::CheckpointError> {
    model_checkpoint::decode(data)
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn sample() -> TrainingState {
        TrainingState {
            global: Arc::new(vec![1.0, -2.5, 3.25]),
            prev_global: vec![0.5, -2.0, 3.0],
            hypers: vec![
                GpuHyper {
                    batch_size: 192.0,
                    lr: 0.1,
                    updates: 7,
                },
                GpuHyper {
                    batch_size: 96.5,
                    lr: 0.05,
                    updates: 9,
                },
            ],
            megas_done: 14,
        }
    }

    #[test]
    fn roundtrip_is_exact() {
        let s = sample();
        let back = TrainingState::decode(s.encode()).unwrap();
        assert_eq!(back, s);
    }

    #[test]
    fn rejects_corruption() {
        let s = sample();
        let mut raw = s.encode().to_vec();
        raw[0] = b'X';
        assert_eq!(
            TrainingState::decode(Bytes::from(raw)),
            Err(StateError::BadMagic)
        );
        let raw = s.encode();
        let cut = raw.slice(0..raw.len() - 3);
        assert_eq!(TrainingState::decode(cut), Err(StateError::Truncated));
        let mut raw = s.encode().to_vec();
        raw[4] = 200;
        assert!(matches!(
            TrainingState::decode(Bytes::from(raw)),
            Err(StateError::BadVersion(_))
        ));
    }

    /// A whole, well-formed state of version 1, which stored `W₂`
    /// hidden-major, is refused by its version.
    #[test]
    fn hidden_major_state_is_a_bad_version() {
        let mut raw = sample().encode().to_vec();
        raw[4..8].copy_from_slice(&1u32.to_le_bytes());
        assert_eq!(
            TrainingState::decode(Bytes::from(raw)),
            Err(StateError::BadVersion(1))
        );
    }

    /// A 64-byte input whose header counts overflow the payload size (or
    /// merely dwarf the input) is truncated, not a panic.
    #[test]
    fn hostile_counts_are_truncated_not_a_panic() {
        for (n_gpus, param_len) in [
            (0u64, 1u64 << 61),
            (1 << 61, 0),
            (u64::MAX / 24, u64::MAX / 8),
            (2, 1 << 40),
        ] {
            let mut raw = MAGIC.to_vec();
            raw.extend(VERSION.to_le_bytes());
            raw.extend([0, n_gpus, param_len].iter().flat_map(|v| v.to_le_bytes()));
            raw.resize(64, 0);
            assert_eq!(
                TrainingState::decode(Bytes::from(raw)),
                Err(StateError::Truncated),
                "n_gpus {n_gpus} param_len {param_len}"
            );
        }
    }

    #[test]
    fn every_proper_prefix_is_an_error() {
        let raw = sample().encode();
        for cut in 0..raw.len() {
            assert!(
                TrainingState::decode(raw.slice(0..cut)).is_err(),
                "cut {cut}"
            );
        }
    }

    #[test]
    fn export_model_roundtrips_through_load_model() {
        let config = MlpConfig {
            num_features: 6,
            hidden: 4,
            num_classes: 3,
        };
        let trained = Mlp::init(&config, 99);
        let state = TrainingState {
            global: Arc::new(trained.to_flat()),
            prev_global: vec![0.0; config.param_len()],
            hypers: vec![],
            megas_done: 2,
        };
        let served = load_model(state.export_model(&config)).unwrap();
        assert_eq!(served, trained, "train→serve handoff must be lossless");
    }

    #[test]
    fn export_model_with_bf16_is_the_quantized_model() {
        let config = MlpConfig {
            num_features: 6,
            hidden: 4,
            num_classes: 3,
        };
        let trained = Mlp::init(&config, 7);
        let state = TrainingState {
            global: Arc::new(trained.to_flat()),
            prev_global: vec![0.0; config.param_len()],
            hypers: vec![],
            megas_done: 1,
        };
        use asgd_tensor::Precision;
        // f32 export is the legacy path byte-for-byte.
        assert_eq!(
            state.export_model(&config),
            state.export_model_with(&config, Precision::F32)
        );
        // bf16 export decodes to exactly one RNE narrowing of the model.
        let served = load_model(state.export_model_with(&config, Precision::Bf16)).unwrap();
        assert_eq!(served, trained.quantized(Precision::Bf16));
    }

    #[test]
    #[should_panic(expected = "architecture mismatch")]
    fn export_model_rejects_wrong_architecture() {
        let state = TrainingState {
            global: Arc::new(vec![0.0; 10]),
            prev_global: vec![],
            hypers: vec![],
            megas_done: 0,
        };
        let config = MlpConfig {
            num_features: 6,
            hidden: 4,
            num_classes: 3,
        };
        let _ = state.export_model(&config);
    }

    #[test]
    fn empty_state_roundtrips() {
        let s = TrainingState {
            global: Arc::new(vec![]),
            prev_global: vec![],
            hypers: vec![],
            megas_done: 0,
        };
        assert_eq!(TrainingState::decode(s.encode()).unwrap(), s);
    }
    /// A decoded state never holds more than the input supplied: what a
    /// resumed run sizes by it is bounded by the bytes actually read.
    fn assert_decodes_cleanly(raw: Vec<u8>) -> Result<(), TestCaseError> {
        let len = raw.len();
        if let Ok(state) = TrainingState::decode(Bytes::from(raw)) {
            prop_assert_eq!(state.global.len(), state.prev_global.len());
            prop_assert!(8 * state.global.len() + 24 * state.hypers.len() <= len);
        }
        Ok(())
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// A valid encoding with 1–8 bytes overwritten decodes or is an
        /// error, never a panic.
        #[test]
        fn overwritten_states_decode_or_fail_cleanly(
            hits in proptest::collection::vec(
                // Boundary bytes as often as arbitrary ones.
                (0usize..1 << 20, prop_oneof![Just(0u8), Just(255u8), 0u8..=255]),
                1..=8,
            ),
        ) {
            let mut raw = sample().encode().to_vec();
            for (at, byte) in hits {
                // Half the hits land in the header, where the structure is.
                let span = if at % 2 == 0 { 32 } else { raw.len() };
                raw[(at / 2) % span] = byte;
            }
            assert_decodes_cleanly(raw)?;
        }

        /// Random bytes — bare, or behind the valid magic and version so the
        /// header counts are what is random — decode or are an error.
        #[test]
        fn random_bytes_decode_or_fail_cleanly(
            stamped in 0u8..2,
            mut raw in proptest::collection::vec(0u8..=255, 0..=4096),
        ) {
            if stamped == 1 && raw.len() >= 8 {
                raw[..4].copy_from_slice(MAGIC);
                raw[4..8].copy_from_slice(&VERSION.to_le_bytes());
            }
            assert_decodes_cleanly(raw)?;
        }
    }
}
