//! Resumable campaign-state checkpoints.
//!
//! A statistical fault campaign — single-process or distributed — persists
//! its partial state as a versioned, endian-pinned binary artifact so that
//! `SIGTERM`, a crash or a coordinator restart resumes from the last
//! checkpoint instead of discarding hours of trials. A checkpoint carries:
//!
//! * the full [`StatCampaignConfig`] it was written under (resume with a
//!   different configuration is a typed [`IoError::Mismatch`], never a
//!   silently skewed report),
//! * the fault-model name, the network name and a fingerprint of the exact
//!   artifact bytes the campaign ran against,
//! * the RNG-stream provenance tag
//!   ([`fitact_faults::TRIAL_STREAM_PROVENANCE`]) — state written by a build
//!   with a different per-trial stream derivation must not be extended,
//! * the fault-free baseline accuracy (bit-exact),
//! * one [`StratumPool`] of completed trials per stratum (bit-exact
//!   accuracies, keyed by trial index), and
//! * the ids of completed work units (distributed campaigns only; empty for
//!   single-process checkpoints).
//!
//! # Crash safety
//!
//! [`CampaignCheckpoint::save`] writes to a hidden sibling temp file and
//! atomically renames it over the destination, so readers observe either the
//! previous checkpoint or the new one — never a torn file. If a crash does
//! leave a truncated file behind (e.g. mid-write to the temp path that was
//! then mistaken for a checkpoint), decoding fails with the typed
//! [`IoError::Truncated`] / [`IoError::Corrupt`] errors, never a panic or a
//! silently wrong pool — pinned by the `campaign_state` crash-safety suite.

use crate::bytes::{ByteReader, ByteWriter};
use crate::IoError;
use fitact_faults::{
    AllocationPolicy, BitClass, StatCampaignConfig, StratumPool, StratumSpec, TrialPoint,
    TRIAL_STREAM_PROVENANCE,
};
use std::path::Path;

/// Magic prefix of a campaign-state checkpoint file.
pub const CAMPAIGN_STATE_MAGIC: &[u8; 8] = b"FITCAMPS";

/// Format revision this build writes.
///
/// Version history:
/// * **1** — original format; campaigns are implicitly `equal`-allocated
///   with a floor of one trial per stratum per round.
/// * **2** — the config block carries the allocation policy tag and the
///   per-stratum floor after `max_trials` (adaptive Neyman allocation).
pub const CAMPAIGN_STATE_VERSION: u32 = 2;

/// Oldest format revision this build still decodes. Version-1 state decodes
/// with [`AllocationPolicy::Equal`] and a floor of 1 implied — exactly the
/// semantics the writing build ran under, so resume stays bit-identical.
pub const CAMPAIGN_STATE_MIN_VERSION: u32 = 1;

/// A resumable snapshot of a statistical campaign's partial state.
#[derive(Debug, Clone, PartialEq)]
pub struct CampaignCheckpoint {
    /// The configuration the campaign runs under.
    pub config: StatCampaignConfig,
    /// Name of the injected fault model.
    pub model: String,
    /// Name of the network under test.
    pub network: String,
    /// Fingerprint ([`fingerprint_bytes`]) of the artifact bytes the campaign
    /// evaluates — resuming against different parameters would merge
    /// incompatible trials.
    pub artifact_fingerprint: u64,
    /// RNG-stream derivation tag of the writing build.
    pub provenance: String,
    /// The fault-free baseline accuracy (bit-exact).
    pub fault_free_accuracy: f32,
    /// One pool of completed trials per stratum, in configured order.
    pub pools: Vec<StratumPool>,
    /// Ids of fully merged work units, ascending (distributed campaigns;
    /// empty for single-process checkpoints).
    pub completed_units: Vec<u64>,
}

impl CampaignCheckpoint {
    /// Assembles a checkpoint stamped with this build's provenance tag.
    pub fn new(
        config: StatCampaignConfig,
        model: impl Into<String>,
        network: impl Into<String>,
        artifact_fingerprint: u64,
        fault_free_accuracy: f32,
        pools: Vec<StratumPool>,
        completed_units: Vec<u64>,
    ) -> Self {
        CampaignCheckpoint {
            config,
            model: model.into(),
            network: network.into(),
            artifact_fingerprint,
            provenance: TRIAL_STREAM_PROVENANCE.to_owned(),
            fault_free_accuracy,
            pools,
            completed_units,
        }
    }

    /// Total completed trials across all strata.
    pub fn total_trials(&self) -> usize {
        self.pools.iter().map(StratumPool::len).sum()
    }

    /// Encodes the checkpoint (little-endian, `f32` as raw bit patterns).
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut w = ByteWriter::new();
        w.raw(CAMPAIGN_STATE_MAGIC);
        w.u32(CAMPAIGN_STATE_VERSION);
        encode_config(&mut w, &self.config);
        w.string(&self.model);
        w.string(&self.network);
        w.u64(self.artifact_fingerprint);
        w.string(&self.provenance);
        w.f32(self.fault_free_accuracy);
        w.len(self.pools.len());
        for pool in &self.pools {
            w.len(pool.len());
            for (index, point) in pool.iter() {
                w.u64(index);
                w.f32(point.accuracy);
                w.u64(point.faults);
            }
        }
        w.u64_slice(&self.completed_units);
        w.into_bytes()
    }

    /// Decodes a checkpoint.
    ///
    /// # Errors
    ///
    /// [`IoError::BadMagic`] / [`IoError::UnsupportedVersion`] for foreign
    /// files, [`IoError::Truncated`] for torn files and [`IoError::Corrupt`]
    /// for structural damage (duplicate trial indexes, unknown bit-class
    /// tags, pool/strata count disagreement, trailing bytes, …).
    pub fn from_bytes(bytes: &[u8]) -> Result<Self, IoError> {
        let mut r = ByteReader::new(bytes);
        if r.raw(CAMPAIGN_STATE_MAGIC.len())? != CAMPAIGN_STATE_MAGIC {
            return Err(IoError::BadMagic);
        }
        let version = r.u32()?;
        if !(CAMPAIGN_STATE_MIN_VERSION..=CAMPAIGN_STATE_VERSION).contains(&version) {
            return Err(IoError::UnsupportedVersion(version));
        }
        let config = decode_config(&mut r, version)?;
        let model = r.string()?;
        let network = r.string()?;
        let artifact_fingerprint = r.u64()?;
        let provenance = r.string()?;
        let fault_free_accuracy = r.f32()?;
        let num_pools = r.len(8)?;
        if num_pools != config.strata.len() {
            return Err(IoError::Corrupt(format!(
                "checkpoint has {num_pools} pools for {} strata",
                config.strata.len()
            )));
        }
        let mut pools = Vec::with_capacity(num_pools);
        for stratum in 0..num_pools {
            // index (8) + accuracy (4) + faults (8) per point.
            let points = r.len(20)?;
            let mut pool = StratumPool::new();
            for _ in 0..points {
                let index = r.u64()?;
                let point = TrialPoint {
                    accuracy: r.f32()?,
                    faults: r.u64()?,
                };
                match pool.insert(index, point) {
                    Ok(true) => {}
                    _ => {
                        return Err(IoError::Corrupt(format!(
                            "duplicate trial index {index} in stratum {stratum}"
                        )))
                    }
                }
            }
            pools.push(pool);
        }
        let completed_units = r.u64_vec()?;
        if completed_units.windows(2).any(|w| w[0] >= w[1]) {
            return Err(IoError::Corrupt(
                "completed-unit ids are not strictly ascending".into(),
            ));
        }
        if !r.is_exhausted() {
            return Err(IoError::Corrupt(format!(
                "{} trailing bytes after the checkpoint",
                r.remaining()
            )));
        }
        Ok(CampaignCheckpoint {
            config,
            model,
            network,
            artifact_fingerprint,
            provenance,
            fault_free_accuracy,
            pools,
            completed_units,
        })
    }

    /// Atomically publishes the checkpoint at `path`: the bytes are written
    /// to a hidden sibling temp file and renamed into place, so a concurrent
    /// reader (or a crash between the two steps) observes either the old
    /// checkpoint or the new one, never a torn file.
    ///
    /// # Errors
    ///
    /// Returns [`IoError::Io`] for filesystem failures.
    pub fn save(&self, path: &Path) -> Result<(), IoError> {
        crate::write_atomically(path, &self.to_bytes())
    }

    /// Loads and decodes a checkpoint file.
    ///
    /// # Errors
    ///
    /// As [`CampaignCheckpoint::from_bytes`], plus [`IoError::Io`] for
    /// filesystem failures.
    pub fn load(path: &Path) -> Result<Self, IoError> {
        let bytes = std::fs::read(path)?;
        Self::from_bytes(&bytes)
    }

    /// Verifies the checkpoint belongs to the campaign about to resume:
    /// same configuration, same fault model, same artifact bytes, a
    /// stream-derivation tag this build reproduces, and a recorded
    /// fault-free baseline bit-equal to `fault_free_accuracy`, the one the
    /// resuming run recomputed over its evaluation split.
    ///
    /// # Errors
    ///
    /// Returns [`IoError::Mismatch`] naming the first disagreeing field.
    pub fn validate_against(
        &self,
        config: &StatCampaignConfig,
        model: &str,
        artifact_fingerprint: u64,
        fault_free_accuracy: f32,
    ) -> Result<(), IoError> {
        if self.provenance != TRIAL_STREAM_PROVENANCE {
            return Err(IoError::Mismatch(format!(
                "checkpoint was written under RNG provenance `{}`, this build derives `{}`",
                self.provenance, TRIAL_STREAM_PROVENANCE
            )));
        }
        if &self.config != config {
            return Err(IoError::Mismatch(
                "checkpoint was written under a different campaign configuration".into(),
            ));
        }
        if self.model != model {
            return Err(IoError::Mismatch(format!(
                "checkpoint was written for fault model `{}`, campaign runs `{model}`",
                self.model
            )));
        }
        if self.artifact_fingerprint != artifact_fingerprint {
            return Err(IoError::Mismatch(format!(
                "checkpoint fingerprint {:#018x} does not match the artifact ({:#018x})",
                self.artifact_fingerprint, artifact_fingerprint
            )));
        }
        if self.fault_free_accuracy.to_bits() != fault_free_accuracy.to_bits() {
            return Err(IoError::Mismatch(format!(
                "checkpoint fault-free baseline {} differs bitwise from recomputed {}",
                self.fault_free_accuracy, fault_free_accuracy
            )));
        }
        Ok(())
    }
}

/// Magic prefix of a serialized campaign spec (the coordinator→worker wire
/// form of a campaign's identity).
pub const CAMPAIGN_SPEC_MAGIC: &[u8; 8] = b"FITCSPEC";

/// A distributed campaign's identity, served by the coordinator to joining
/// workers. Everything a worker needs to re-derive the campaign bit-exactly:
/// the configuration (binary, because JSON text would not round-trip `f64`
/// seeds and rates exactly), the fault-model name, the dataset provenance
/// pairs (`DataSpec::to_meta` form, with coordinator-side overrides already
/// applied), the artifact fingerprint and the coordinator's fault-free
/// baseline — which the worker recomputes and compares bit-exactly before
/// accepting any work.
#[derive(Debug, Clone, PartialEq)]
pub struct CampaignSpec {
    /// The campaign configuration.
    pub config: StatCampaignConfig,
    /// Fault-model name (`"bitflip"`, …).
    pub model: String,
    /// Name of the network under test.
    pub network: String,
    /// Fingerprint ([`fingerprint_bytes`]) of the artifact bytes served at
    /// the coordinator's model endpoint.
    pub artifact_fingerprint: u64,
    /// RNG-stream derivation tag of the coordinator's build.
    pub provenance: String,
    /// The coordinator's fault-free baseline accuracy (bit-exact).
    pub fault_free_accuracy: f32,
    /// Trials per work unit.
    pub unit_trials: u32,
    /// Dataset provenance key/value pairs (final, overrides applied).
    pub data_meta: Vec<(String, String)>,
}

impl CampaignSpec {
    /// Encodes the spec (little-endian, `f32`/`f64` as raw bit patterns).
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut w = ByteWriter::new();
        w.raw(CAMPAIGN_SPEC_MAGIC);
        w.u32(CAMPAIGN_STATE_VERSION);
        encode_config(&mut w, &self.config);
        w.string(&self.model);
        w.string(&self.network);
        w.u64(self.artifact_fingerprint);
        w.string(&self.provenance);
        w.f32(self.fault_free_accuracy);
        w.u32(self.unit_trials);
        w.len(self.data_meta.len());
        for (key, value) in &self.data_meta {
            w.string(key);
            w.string(value);
        }
        w.into_bytes()
    }

    /// Decodes a spec.
    ///
    /// # Errors
    ///
    /// Same taxonomy as [`CampaignCheckpoint::from_bytes`].
    pub fn from_bytes(bytes: &[u8]) -> Result<Self, IoError> {
        let mut r = ByteReader::new(bytes);
        if r.raw(CAMPAIGN_SPEC_MAGIC.len())? != CAMPAIGN_SPEC_MAGIC {
            return Err(IoError::BadMagic);
        }
        let version = r.u32()?;
        if !(CAMPAIGN_STATE_MIN_VERSION..=CAMPAIGN_STATE_VERSION).contains(&version) {
            return Err(IoError::UnsupportedVersion(version));
        }
        let config = decode_config(&mut r, version)?;
        let model = r.string()?;
        let network = r.string()?;
        let artifact_fingerprint = r.u64()?;
        let provenance = r.string()?;
        let fault_free_accuracy = r.f32()?;
        let unit_trials = r.u32()?;
        let pairs = r.len(8)?;
        let mut data_meta = Vec::with_capacity(pairs);
        for _ in 0..pairs {
            let key = r.string()?;
            let value = r.string()?;
            data_meta.push((key, value));
        }
        if !r.is_exhausted() {
            return Err(IoError::Corrupt(format!(
                "{} trailing bytes after the campaign spec",
                r.remaining()
            )));
        }
        Ok(CampaignSpec {
            config,
            model,
            network,
            artifact_fingerprint,
            provenance,
            fault_free_accuracy,
            unit_trials,
            data_meta,
        })
    }
}

/// FNV-1a fingerprint of a byte string — stable across builds and platforms,
/// used to pin a checkpoint to the exact artifact bytes it was computed
/// against (not cryptographic; it guards against mistakes, not adversaries).
pub fn fingerprint_bytes(bytes: &[u8]) -> u64 {
    let mut hash = 0xCBF2_9CE4_8422_2325u64;
    for &b in bytes {
        hash ^= b as u64;
        hash = hash.wrapping_mul(0x0000_0100_0000_01B3);
    }
    hash
}

fn encode_config(w: &mut ByteWriter, config: &StatCampaignConfig) {
    w.f64(config.fault_rate);
    w.u64(config.batch_size as u64);
    w.u64(config.seed);
    w.f64(config.epsilon);
    w.f64(config.confidence);
    w.f32(config.critical_threshold);
    w.u64(config.round_trials as u64);
    w.u64(config.min_trials as u64);
    w.u64(config.max_trials as u64);
    w.u8(match config.allocation {
        AllocationPolicy::Equal => 0,
        AllocationPolicy::Neyman => 1,
    });
    w.u64(config.floor_trials as u64);
    w.len(config.strata.len());
    for spec in &config.strata {
        w.string(&spec.label);
        w.len(spec.bit_classes.len());
        for &class in &spec.bit_classes {
            w.u8(match class {
                BitClass::Sign => 0,
                BitClass::Exponent => 1,
                BitClass::Mantissa => 2,
            });
        }
        match &spec.path_prefix {
            None => w.u8(0),
            Some(prefix) => {
                w.u8(1);
                w.string(prefix);
            }
        }
    }
}

fn read_usize(r: &mut ByteReader<'_>, what: &str) -> Result<usize, IoError> {
    let raw = r.u64()?;
    usize::try_from(raw)
        .map_err(|_| IoError::Corrupt(format!("{what} {raw} exceeds the address space")))
}

fn decode_config(r: &mut ByteReader<'_>, version: u32) -> Result<StatCampaignConfig, IoError> {
    let fault_rate = r.f64()?;
    let batch_size = read_usize(r, "batch_size")?;
    let seed = r.u64()?;
    let epsilon = r.f64()?;
    let confidence = r.f64()?;
    let critical_threshold = r.f32()?;
    let round_trials = read_usize(r, "round_trials")?;
    let min_trials = read_usize(r, "min_trials")?;
    let max_trials = read_usize(r, "max_trials")?;
    // Version-1 state predates allocation policies: those campaigns ran
    // fixed equal allocation with an implicit floor of one, so decoding to
    // exactly that keeps resumed replay bit-identical.
    let (allocation, floor_trials) = if version >= 2 {
        let allocation = match r.u8()? {
            0 => AllocationPolicy::Equal,
            1 => AllocationPolicy::Neyman,
            tag => return Err(IoError::Corrupt(format!("unknown allocation tag {tag}"))),
        };
        (allocation, read_usize(r, "floor_trials")?)
    } else {
        (AllocationPolicy::Equal, 1)
    };
    let num_strata = r.len(1)?;
    let mut strata = Vec::with_capacity(num_strata);
    for _ in 0..num_strata {
        let label = r.string()?;
        let num_classes = r.len(1)?;
        let mut bit_classes = Vec::with_capacity(num_classes);
        for _ in 0..num_classes {
            bit_classes.push(match r.u8()? {
                0 => BitClass::Sign,
                1 => BitClass::Exponent,
                2 => BitClass::Mantissa,
                tag => return Err(IoError::Corrupt(format!("unknown bit-class tag {tag}"))),
            });
        }
        let path_prefix = match r.u8()? {
            0 => None,
            1 => Some(r.string()?),
            tag => return Err(IoError::Corrupt(format!("unknown path-prefix tag {tag}"))),
        };
        strata.push(StratumSpec {
            label,
            bit_classes,
            path_prefix,
        });
    }
    Ok(StatCampaignConfig {
        fault_rate,
        batch_size,
        seed,
        epsilon,
        confidence,
        critical_threshold,
        round_trials,
        min_trials,
        max_trials,
        allocation,
        floor_trials,
        strata,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_checkpoint() -> CampaignCheckpoint {
        let mut pools = vec![StratumPool::new(); 3];
        for (stratum, pool) in pools.iter_mut().enumerate() {
            for index in 0..(stratum + 2) as u64 {
                pool.insert(
                    index,
                    TrialPoint {
                        accuracy: 0.5 + stratum as f32 / 10.0 + index as f32 / 100.0,
                        faults: index * 3,
                    },
                )
                .unwrap();
            }
        }
        CampaignCheckpoint::new(
            StatCampaignConfig::default(),
            "bitflip",
            "mlp",
            0xDEAD_BEEF_0BAD_F00D,
            0.875,
            pools,
            vec![0, 1, 4],
        )
    }

    #[test]
    fn round_trips_bit_exactly() {
        let ck = sample_checkpoint();
        let decoded = CampaignCheckpoint::from_bytes(&ck.to_bytes()).unwrap();
        assert_eq!(decoded, ck);
        assert_eq!(decoded.total_trials(), 2 + 3 + 4);
        assert_eq!(decoded.provenance, TRIAL_STREAM_PROVENANCE);
    }

    #[test]
    fn foreign_files_are_typed_errors() {
        assert!(matches!(
            CampaignCheckpoint::from_bytes(b"NOTACKPT........"),
            Err(IoError::BadMagic)
        ));
        let mut bytes = sample_checkpoint().to_bytes();
        bytes[8] = 99; // version field
        assert!(matches!(
            CampaignCheckpoint::from_bytes(&bytes),
            Err(IoError::UnsupportedVersion(99))
        ));
    }

    #[test]
    fn trailing_bytes_are_corrupt() {
        let mut bytes = sample_checkpoint().to_bytes();
        bytes.push(0);
        assert!(matches!(
            CampaignCheckpoint::from_bytes(&bytes),
            Err(IoError::Corrupt(_))
        ));
    }

    #[test]
    fn validation_pins_config_model_and_fingerprint() {
        let ck = sample_checkpoint();
        let baseline = ck.fault_free_accuracy;
        assert!(ck
            .validate_against(&ck.config, "bitflip", ck.artifact_fingerprint, baseline)
            .is_ok());
        let other = StatCampaignConfig {
            seed: 999,
            ..ck.config.clone()
        };
        assert!(matches!(
            ck.validate_against(&other, "bitflip", ck.artifact_fingerprint, baseline),
            Err(IoError::Mismatch(_))
        ));
        assert!(matches!(
            ck.validate_against(&ck.config, "burst", ck.artifact_fingerprint, baseline),
            Err(IoError::Mismatch(_))
        ));
        assert!(matches!(
            ck.validate_against(&ck.config, "bitflip", 1, baseline),
            Err(IoError::Mismatch(_))
        ));
        let mut stale = ck.clone();
        stale.provenance = "splitmix64 v0".into();
        assert!(matches!(
            stale.validate_against(&ck.config, "bitflip", ck.artifact_fingerprint, baseline),
            Err(IoError::Mismatch(_))
        ));
        // A baseline recomputed over a different evaluation split.
        let other_split = f32::from_bits(baseline.to_bits() ^ 1);
        assert!(matches!(
            ck.validate_against(&ck.config, "bitflip", ck.artifact_fingerprint, other_split),
            Err(IoError::Mismatch(msg)) if msg.contains("baseline")
        ));
    }

    #[test]
    fn save_is_atomic_and_load_round_trips() {
        let dir = std::env::temp_dir().join(format!("fitact_ckpt_{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("campaign.ckpt");
        let ck = sample_checkpoint();
        ck.save(&path).unwrap();
        // No temp residue: the rename consumed the hidden sibling.
        let residue: Vec<_> = std::fs::read_dir(&dir)
            .unwrap()
            .filter_map(|e| e.ok())
            .filter(|e| e.file_name().to_string_lossy().ends_with(".tmp"))
            .collect();
        assert!(residue.is_empty(), "temp files left behind: {residue:?}");
        assert_eq!(CampaignCheckpoint::load(&path).unwrap(), ck);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn spec_round_trips_and_rejects_foreign_bytes() {
        let spec = CampaignSpec {
            config: StatCampaignConfig::default(),
            model: "bitflip".into(),
            network: "mlp".into(),
            artifact_fingerprint: 7,
            provenance: TRIAL_STREAM_PROVENANCE.into(),
            fault_free_accuracy: 0.75,
            unit_trials: 4,
            data_meta: vec![("data.kind".into(), "blobs".into())],
        };
        let decoded = CampaignSpec::from_bytes(&spec.to_bytes()).unwrap();
        assert_eq!(decoded, spec);
        assert!(matches!(
            CampaignSpec::from_bytes(&sample_checkpoint().to_bytes()),
            Err(IoError::BadMagic)
        ));
        let mut bytes = spec.to_bytes();
        bytes.truncate(bytes.len() - 1);
        assert!(matches!(
            CampaignSpec::from_bytes(&bytes),
            Err(IoError::Truncated { .. })
        ));
    }

    #[test]
    fn v2_round_trips_nondefault_allocation() {
        let mut ck = sample_checkpoint();
        ck.config.allocation = AllocationPolicy::Neyman;
        ck.config.floor_trials = 3;
        let decoded = CampaignCheckpoint::from_bytes(&ck.to_bytes()).unwrap();
        assert_eq!(decoded, ck);
        assert_eq!(decoded.config.allocation, AllocationPolicy::Neyman);
        assert_eq!(decoded.config.floor_trials, 3);
    }

    #[test]
    fn v1_checkpoints_decode_with_equal_policy_implied() {
        let ck = sample_checkpoint();
        let v1_bytes = include_bytes!("../tests/fixtures/checkpoint_v1.ckpt");
        assert_eq!(&v1_bytes[8..12], &1u32.to_le_bytes(), "a v1 file");
        let decoded = CampaignCheckpoint::from_bytes(v1_bytes).unwrap();
        assert_eq!(decoded.config.allocation, AllocationPolicy::Equal);
        assert_eq!(decoded.config.floor_trials, 1);
        // Everything else — pools, baseline, provenance — survives intact,
        // and since the defaults match the v1 implied semantics the decoded
        // checkpoint equals the original.
        assert_eq!(decoded, ck);
    }

    #[test]
    fn v1_specs_decode_with_equal_policy_implied() {
        let spec = CampaignSpec {
            config: StatCampaignConfig::default(),
            model: "bitflip".into(),
            network: "mlp".into(),
            artifact_fingerprint: 7,
            provenance: TRIAL_STREAM_PROVENANCE.into(),
            fault_free_accuracy: 0.75,
            unit_trials: 4,
            data_meta: vec![("data.kind".into(), "blobs".into())],
        };
        let v1_bytes = include_bytes!("../tests/fixtures/spec_v1.bin");
        assert_eq!(&v1_bytes[8..12], &1u32.to_le_bytes(), "a v1 file");
        let decoded = CampaignSpec::from_bytes(v1_bytes).unwrap();
        assert_eq!(decoded.config.allocation, AllocationPolicy::Equal);
        assert_eq!(decoded.config.floor_trials, 1);
        assert_eq!(decoded, spec);
    }

    #[test]
    fn unknown_allocation_tag_is_corrupt() {
        let mut ck = sample_checkpoint();
        ck.config.allocation = AllocationPolicy::Neyman;
        let mut bytes = ck.to_bytes();
        // The allocation tag follows the header and the fixed-width config
        // scalars: magic (8) + version (4) + eight 8-byte fields (fault_rate,
        // batch_size, seed, epsilon, confidence, round/min/max_trials) +
        // critical_threshold (4).
        let tag_offset = 8 + 4 + 8 * 8 + 4;
        assert_eq!(bytes[tag_offset], 1, "expected the neyman tag here");
        bytes[tag_offset] = 7;
        match CampaignCheckpoint::from_bytes(&bytes) {
            Err(IoError::Corrupt(msg)) => assert!(msg.contains("allocation tag")),
            other => panic!("expected Corrupt, got {other:?}"),
        }
    }

    #[test]
    fn truncated_and_bitflipped_v2_state_never_panics() {
        let mut ck = sample_checkpoint();
        ck.config.allocation = AllocationPolicy::Neyman;
        ck.config.floor_trials = 2;
        let bytes = ck.to_bytes();
        // Every prefix decodes to a typed error, never a panic.
        for cut in 0..bytes.len() {
            assert!(
                CampaignCheckpoint::from_bytes(&bytes[..cut]).is_err(),
                "truncation at {cut} bytes must fail"
            );
        }
        // Single-bit corruption anywhere yields Ok (bit landed in a
        // don't-care position such as a float payload) or a typed error —
        // decoding must never panic or loop.
        for byte in 0..bytes.len() {
            let mut corrupt = bytes.clone();
            corrupt[byte] ^= 0x01;
            let _ = CampaignCheckpoint::from_bytes(&corrupt);
        }
    }

    #[test]
    fn fingerprint_is_stable_and_input_sensitive() {
        assert_eq!(fingerprint_bytes(b""), 0xCBF2_9CE4_8422_2325);
        assert_ne!(fingerprint_bytes(b"a"), fingerprint_bytes(b"b"));
        assert_eq!(fingerprint_bytes(b"fitact"), fingerprint_bytes(b"fitact"));
    }
}
