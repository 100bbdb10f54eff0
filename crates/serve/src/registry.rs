//! The model registry: N checkpoint versions, content-addressed weight
//! dedup across them.
//!
//! A multi-tenant fleet holds many model versions at once — per-tenant
//! fine-tunes, canary builds, rollback targets — and most of them share
//! most of their weights: a per-tenant adapter run touches `W₁`/`b₁` and
//! leaves the wide classifier head alone, a head-only fine-tune does the
//! opposite, and several tenants often pin the very same build. The
//! registry exploits this by hashing each version's **flat per-layer
//! buffers** (`W₁`, `b₁`, `W₂`, `b₂`, cut at [`MlpConfig::block_ranges`]) and
//! storing every distinct buffer exactly once: versions sharing a layer
//! share one allocation, in the f32 and bf16 storage tiers alike (bf16
//! layers are narrowed once — round-to-nearest-even, the rounding
//! contract's single round point — and hashed *after* narrowing, so an
//! f32 layer and its bf16 shadow are distinct content).
//!
//! Registration is also how the serving engine gets its compute models:
//! versions with identical full content share one materialized [`Mlp`]
//! (widened exactly from the stored tier), and the **content signature**
//! that keys that sharing doubles as the prediction-cache key prefix — two
//! tenants pinning the same build hit each other's cached predictions.
//!
//! Everything here is deterministic: FNV-1a content hashes, insertion-order
//! version ids, and byte-compare collision handling (a hash collision can
//! never alias two different layers, nor two versions' serving models).

use asgd_model::{Mlp, MlpConfig};
use asgd_tensor::{bf16, Precision};
use std::collections::HashMap;
use std::sync::Arc;

/// Handle of one registered model version (dense, insertion-ordered).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct VersionId(pub usize);

/// Why [`ModelRegistry::register`] refused a version: the model is not of
/// the registry's architecture, and a fleet serves one request schema.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RegistryError {
    /// The refused model's architecture.
    pub have: MlpConfig,
    /// The registry's.
    pub want: MlpConfig,
}

impl std::fmt::Display for RegistryError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let RegistryError { have, want } = self;
        write!(f, "architecture mismatch: have {have:?}, want {want:?}")
    }
}

impl std::error::Error for RegistryError {}

/// One stored layer buffer at its storage tier.
#[derive(Debug, Clone, PartialEq)]
pub enum LayerBuf {
    /// Full-precision tier.
    F32(Vec<f32>),
    /// Half-width tier (bit pattern of `bf16::narrow`).
    Bf16(Vec<u16>),
}

impl LayerBuf {
    /// Stored bytes of this buffer.
    pub fn bytes(&self) -> usize {
        match self {
            LayerBuf::F32(v) => v.len() * 4,
            LayerBuf::Bf16(v) => v.len() * 2,
        }
    }

    /// Widens the stored values into `out` (exact for both tiers).
    fn widen_into(&self, out: &mut Vec<f32>) {
        match self {
            LayerBuf::F32(v) => out.extend_from_slice(v),
            LayerBuf::Bf16(v) => out.extend(v.iter().map(|&h| bf16::widen(h))),
        }
    }

    /// FNV-1a over the stored byte representation.
    fn content_hash(&self) -> u64 {
        let mut h = 0xcbf2_9ce4_8422_2325u64;
        let mut eat = |b: u8| {
            h ^= b as u64;
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        };
        match self {
            LayerBuf::F32(v) => {
                eat(4);
                for x in v {
                    for b in x.to_le_bytes() {
                        eat(b);
                    }
                }
            }
            LayerBuf::Bf16(v) => {
                eat(2);
                for x in v {
                    for b in x.to_le_bytes() {
                        eat(b);
                    }
                }
            }
        }
        h
    }
}

/// One registered version: named, tiered, four shared layer allocations,
/// and the materialized serving model (shared across identical content).
#[derive(Debug, Clone)]
pub struct ModelVersion {
    /// Human-readable version name (e.g. `"tenant3/v2"`).
    pub name: String,
    /// Storage tier the version was registered at.
    pub precision: Precision,
    /// The four stored layers, in `W₁ ‖ b₁ ‖ W₂ ‖ b₂` order. `Arc` clones of
    /// the registry's dedup store — versions sharing a layer share the
    /// allocation.
    pub layers: [Arc<LayerBuf>; 4],
    /// Full-content signature (FNV fold of the four layer hashes): equal
    /// signatures ⇒ byte-identical stored content. Keys materialized-model
    /// sharing and prefixes the prediction-cache key. A version whose fold
    /// collides with different content in the same registry gets a fresh
    /// signature instead (the next free step of a fixed probe sequence), so
    /// the implication holds for every pair of versions.
    pub sig: u64,
    /// The model served for this version, widened exactly from the stored
    /// tier. Shared (same `Arc`) by every version with the same `sig`.
    pub model: Arc<Mlp>,
}

/// Storage accounting of the registry's dedup store.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct DedupStats {
    /// Registered versions.
    pub versions: usize,
    /// Layer references held by versions (4 per version).
    pub layers_logical: usize,
    /// Distinct layer allocations actually stored.
    pub layers_unique: usize,
    /// Bytes the versions would occupy stored independently.
    pub bytes_logical: usize,
    /// Bytes actually allocated.
    pub bytes_stored: usize,
}

impl DedupStats {
    /// `bytes_logical / bytes_stored` (1.0 for an empty registry).
    pub fn ratio(&self) -> f64 {
        if self.bytes_stored == 0 {
            1.0
        } else {
            self.bytes_logical as f64 / self.bytes_stored as f64
        }
    }
}

/// Content-addressed store of model versions (one fixed architecture).
#[derive(Debug)]
pub struct ModelRegistry {
    config: MlpConfig,
    /// hash → candidate buffers with that hash (byte-compared on insert, so
    /// a collision can never alias two different layers).
    store: HashMap<u64, Vec<Arc<LayerBuf>>>,
    /// content signature → the version that materialized its model.
    materialized: HashMap<u64, VersionId>,
    versions: Vec<ModelVersion>,
    bytes_logical: usize,
}

impl ModelRegistry {
    /// An empty registry for one architecture. Every registered version must
    /// match it — a fleet serves one request schema.
    pub fn new(config: MlpConfig) -> Self {
        Self {
            config,
            store: HashMap::new(),
            materialized: HashMap::new(),
            versions: Vec::new(),
            bytes_logical: 0,
        }
    }

    /// The architecture every version shares.
    pub fn config(&self) -> &MlpConfig {
        &self.config
    }

    /// Registers `model` as a new version stored at `precision`, returning
    /// its id. Layers already present (same tier, same bytes) are shared,
    /// not copied; a version whose full content is already materialized
    /// shares the existing serving [`Mlp`].
    ///
    /// # Errors
    /// A [`RegistryError`] when `model` is not of the registry's
    /// architecture (a decoded checkpoint of another shape, say); the
    /// registry is left as it was.
    pub fn register(
        &mut self,
        name: impl Into<String>,
        model: &Mlp,
        precision: Precision,
    ) -> Result<VersionId, RegistryError> {
        if model.config() != &self.config {
            return Err(RegistryError {
                have: *model.config(),
                want: self.config,
            });
        }
        let mut layers: Vec<Arc<LayerBuf>> = Vec::with_capacity(4);
        let mut sig = 0xcbf2_9ce4_8422_2325u64;
        for range in self.config.block_ranges() {
            let part = &model.as_flat()[range];
            let buf = match precision {
                Precision::F32 => LayerBuf::F32(part.to_vec()),
                Precision::Bf16 => LayerBuf::Bf16(part.iter().map(|&v| bf16::narrow(v)).collect()),
            };
            self.bytes_logical += buf.bytes();
            let hash = buf.content_hash();
            let bucket = self.store.entry(hash).or_default();
            let shared = match bucket.iter().find(|c| ***c == buf) {
                Some(existing) => existing.clone(),
                None => {
                    let fresh = Arc::new(buf);
                    bucket.push(fresh.clone());
                    fresh
                }
            };
            sig ^= hash;
            sig = sig.wrapping_mul(0x0000_0100_0000_01b3);
            layers.push(shared);
        }
        let layers: [Arc<LayerBuf>; 4] = layers.try_into().expect("exactly four layers");
        let id = VersionId(self.versions.len());
        // The layer hashes only narrow the search: a materialized model is
        // shared when all four layers are the same stored allocations (the
        // byte compare above decided that). Different content under a taken
        // signature probes on to a free one; a byte-identical version
        // registered later follows the same probes to it.
        let shared = loop {
            let Some(&owner) = self.materialized.get(&sig) else {
                break None;
            };
            let owner = &self.versions[owner.0];
            if owner
                .layers
                .iter()
                .zip(&layers)
                .all(|(a, b)| Arc::ptr_eq(a, b))
            {
                break Some(owner.model.clone());
            }
            sig = (sig ^ 0x5153_C011_1DED_5EED).wrapping_mul(0x0000_0100_0000_01b3);
        };
        let model = shared.unwrap_or_else(|| {
            let mut widened = Vec::with_capacity(self.config.param_len());
            for l in &layers {
                l.widen_into(&mut widened);
            }
            self.materialized.insert(sig, id);
            Arc::new(Mlp::from_flat(&self.config, widened))
        });
        self.versions.push(ModelVersion {
            name: name.into(),
            precision,
            layers,
            sig,
            model,
        });
        Ok(id)
    }

    /// A registered version.
    ///
    /// # Panics
    /// Panics on an unknown id.
    pub fn version(&self, id: VersionId) -> &ModelVersion {
        &self.versions[id.0]
    }

    /// The serving model of a version (shared across identical content).
    pub fn model(&self, id: VersionId) -> &Arc<Mlp> {
        &self.versions[id.0].model
    }

    /// Registered version count.
    pub fn len(&self) -> usize {
        self.versions.len()
    }

    /// Whether no version is registered yet.
    pub fn is_empty(&self) -> bool {
        self.versions.is_empty()
    }

    /// Distinct materialized serving models.
    pub fn distinct_models(&self) -> usize {
        self.materialized.len()
    }

    /// Current dedup accounting.
    pub fn dedup_stats(&self) -> DedupStats {
        let layers_unique: usize = self.store.values().map(Vec::len).sum();
        let bytes_stored: usize = self
            .store
            .values()
            .flat_map(|b| b.iter())
            .map(|l| l.bytes())
            .sum();
        DedupStats {
            versions: self.versions.len(),
            layers_logical: 4 * self.versions.len(),
            layers_unique,
            bytes_logical: self.bytes_logical,
            bytes_stored,
        }
    }
}

/// Derives a per-tenant *adapter* fine-tune of `base`: `W₁` and `b₁` are
/// perturbed by seeded noise of relative scale `eps`, the classifier head
/// (`W₂`, `b₂`) is left bit-identical — the version family in which
/// per-layer dedup pays most on wide-head models, since the shared head is
/// the dominant allocation. The same `(base, seed, eps)` always yields the
/// same variant.
pub fn adapter_variant(base: &Mlp, seed: u64, eps: f32) -> Mlp {
    use rand::{rngs::StdRng, Rng, SeedableRng};
    let [_, b1, ..] = base.config().block_ranges();
    let mut m = base.clone();
    let mut rng = StdRng::seed_from_u64(seed ^ 0xADA9_7E2F_1355_C0DE);
    for v in &mut m.as_flat_mut()[..b1.end] {
        *v += eps * (rng.gen::<f32>() - 0.5);
    }
    m
}

#[cfg(test)]
mod tests {
    use super::*;

    fn config() -> MlpConfig {
        MlpConfig {
            num_features: 10,
            hidden: 4,
            num_classes: 50,
        }
    }

    #[test]
    fn identical_versions_share_everything() {
        let base = Mlp::init(&config(), 7);
        let mut reg = ModelRegistry::new(config());
        let a = reg.register("v0", &base, Precision::F32).unwrap();
        let b = reg.register("v0-pinned", &base, Precision::F32).unwrap();
        assert_eq!(reg.version(a).sig, reg.version(b).sig);
        assert!(Arc::ptr_eq(reg.model(a), reg.model(b)));
        for (x, y) in reg.version(a).layers.iter().zip(&reg.version(b).layers) {
            assert!(Arc::ptr_eq(x, y), "layers should share one allocation");
        }
        let stats = reg.dedup_stats();
        assert_eq!(stats.versions, 2);
        assert_eq!(stats.layers_logical, 8);
        assert_eq!(stats.layers_unique, 4);
        assert_eq!(stats.bytes_logical, 2 * stats.bytes_stored);
        assert!((stats.ratio() - 2.0).abs() < 1e-12);
        assert_eq!(reg.distinct_models(), 1);
    }

    #[test]
    fn adapter_variants_share_the_head_only() {
        let base = Mlp::init(&config(), 7);
        let mut reg = ModelRegistry::new(config());
        let a = reg.register("base", &base, Precision::F32).unwrap();
        let b = reg
            .register("t1", &adapter_variant(&base, 1, 1e-3), Precision::F32)
            .unwrap();
        assert_ne!(reg.version(a).sig, reg.version(b).sig);
        let (va, vb) = (reg.version(a).layers.clone(), reg.version(b).layers.clone());
        assert!(!Arc::ptr_eq(&va[0], &vb[0]), "W1 differs");
        assert!(!Arc::ptr_eq(&va[1], &vb[1]), "b1 differs");
        assert!(Arc::ptr_eq(&va[2], &vb[2]), "W2 shared");
        assert!(Arc::ptr_eq(&va[3], &vb[3]), "b2 shared");
        assert_eq!(reg.dedup_stats().layers_unique, 6);
        assert_eq!(reg.distinct_models(), 2);
    }

    #[test]
    fn materialized_model_matches_the_registered_weights() {
        let base = Mlp::init(&config(), 3);
        let mut reg = ModelRegistry::new(config());
        let id = reg.register("v", &base, Precision::F32).unwrap();
        assert_eq!(**reg.model(id), base);
    }

    #[test]
    fn bf16_tier_halves_storage_and_serves_the_quantized_model() {
        let base = Mlp::init(&config(), 3);
        let mut reg32 = ModelRegistry::new(config());
        let mut reg16 = ModelRegistry::new(config());
        let a = reg32.register("v", &base, Precision::F32).unwrap();
        let b = reg16.register("v", &base, Precision::Bf16).unwrap();
        assert_eq!(
            reg16.dedup_stats().bytes_stored * 2,
            reg32.dedup_stats().bytes_stored
        );
        // The served model is the once-narrowed checkpoint, widened exactly.
        assert_eq!(**reg16.model(b), base.quantized(Precision::Bf16));
        assert_eq!(**reg32.model(a), base);
        // Same weights at different tiers are *different* content.
        let mut mixed = ModelRegistry::new(config());
        let x = mixed.register("f32", &base, Precision::F32).unwrap();
        let y = mixed.register("bf16", &base, Precision::Bf16).unwrap();
        assert_ne!(mixed.version(x).sig, mixed.version(y).sig);
    }

    #[test]
    fn bf16_versions_dedup_after_narrowing() {
        // Two f32 models whose weights round to the same bf16 bits collapse
        // to one stored version: hashing happens *after* the narrow. The
        // pre-rounded twin (quantize → widen) is exactly such a model.
        let base = Mlp::init(&config(), 5);
        let rounded = base.quantized(Precision::Bf16);
        assert_ne!(base, rounded, "quantization should change some weight");
        let mut reg = ModelRegistry::new(config());
        let a = reg.register("a", &base, Precision::Bf16).unwrap();
        let b = reg.register("b", &rounded, Precision::Bf16).unwrap();
        assert_eq!(reg.version(a).sig, reg.version(b).sig);
        assert!(Arc::ptr_eq(reg.model(a), reg.model(b)));
        assert_eq!(reg.dedup_stats().layers_unique, 4);
        assert_eq!(reg.distinct_models(), 1);
    }

    /// A signature collision never shares a model. Planted here: a different
    /// model already materialized under the signature the next version
    /// folds to. That version gets a fresh signature (so no prediction-cache
    /// key either) and a model of its own weights, and a byte-identical
    /// version registered after it finds its signature and its model.
    #[test]
    fn a_signature_collision_never_shares_a_model() {
        let base = Mlp::init(&config(), 7);
        let other = Mlp::init(&config(), 8);
        let mut scratch = ModelRegistry::new(config());
        let probe = scratch.register("probe", &other, Precision::F32).unwrap();
        let folded = scratch.version(probe).sig;

        let mut reg = ModelRegistry::new(config());
        let a = reg.register("base", &base, Precision::F32).unwrap();
        reg.materialized.insert(folded, a);
        let b = reg.register("other", &other, Precision::F32).unwrap();
        let sig = reg.version(b).sig;
        assert_ne!(sig, folded);
        assert_ne!(sig, reg.version(a).sig);
        assert!(!Arc::ptr_eq(reg.model(a), reg.model(b)));
        assert_eq!(**reg.model(b), other);

        let c = reg
            .register("other-pinned", &other, Precision::F32)
            .unwrap();
        assert_eq!(reg.version(c).sig, sig);
        assert!(Arc::ptr_eq(reg.model(b), reg.model(c)));
    }

    /// A model of another architecture — built here, or decoded from a
    /// checkpoint of another shape — is an error, and the registry is left
    /// as it was.
    #[test]
    fn wrong_architecture_is_an_error() {
        let mut reg = ModelRegistry::new(config());
        let base = reg
            .register("base", &Mlp::init(&config(), 1), Precision::F32)
            .unwrap();
        let other = MlpConfig {
            num_features: 3,
            hidden: 2,
            num_classes: 4,
        };
        let decoded = asgd_model::checkpoint::decode(asgd_model::checkpoint::encode_with(
            &Mlp::init(
                &MlpConfig {
                    hidden: 5,
                    ..config()
                },
                2,
            ),
            Precision::Bf16,
        ))
        .unwrap();
        for model in [Mlp::init(&other, 1), decoded] {
            let err = reg.register("bad", &model, Precision::F32).unwrap_err();
            assert_eq!(
                err,
                RegistryError {
                    have: *model.config(),
                    want: config(),
                }
            );
            assert!(err.to_string().contains("architecture mismatch"), "{err}");
        }
        assert_eq!(reg.len(), 1);
        assert_eq!(reg.dedup_stats().layers_logical, 4);
        let again = reg
            .register("again", &Mlp::init(&config(), 1), Precision::F32)
            .unwrap();
        assert_eq!(again, VersionId(1));
        assert!(Arc::ptr_eq(reg.model(base), reg.model(again)));
    }

    #[test]
    fn adapter_variant_is_deterministic() {
        let base = Mlp::init(&config(), 11);
        assert_eq!(
            adapter_variant(&base, 4, 1e-3),
            adapter_variant(&base, 4, 1e-3)
        );
        assert_ne!(
            adapter_variant(&base, 4, 1e-3),
            adapter_variant(&base, 5, 1e-3)
        );
    }
}
