//! Versioned on-disk model artifacts for the FitAct reproduction.
//!
//! The paper's workflow is two-phase — train once, then calibrate / protect /
//! campaign many times — and this crate supplies the missing substrate: a
//! binary [`ModelArtifact`] that persists a [`fitact_nn::Network`]'s topology
//! and parameters **plus** the FitAct protection state (the calibrated
//! [`fitact::ActivationProfile`], the applied [`fitact::ProtectionScheme`]
//! and, through the parameter tensors, every per-neuron FitReLU bound λ).
//!
//! The format is endian-pinned (everything little-endian) and carries `f32`
//! values as raw bit patterns, so a saved-then-loaded model reproduces the
//! original's eval-mode forward passes, accuracy numbers and fault-campaign
//! reports **bit-identically** — pinned by this crate's round-trip suites
//! and the workspace `artifact_identity` test.
//!
//! Components:
//!
//! * [`ModelArtifact`] — capture / instantiate / save / load ([`artifact`]
//!   documents the byte layout and versioning policy),
//! * [`MappedArtifact`] — zero-copy loading: v2 artifacts are mapped
//!   read-only, and every network instantiated from one shares a single
//!   parameter mapping ([`mapped`] documents the fallback ladder and the
//!   atomic-rename deployment contract),
//! * [`bytes`] — the endian-pinned encoding primitives with typed,
//!   allocation-guarded decoding errors,
//! * [`CampaignCheckpoint`] — resumable campaign-state snapshots
//!   (atomic-rename publication, typed torn-file errors; [`campaign_state`]
//!   documents the crash-safety contract),
//! * [`json`] — the workspace's one JSON writer and parser: a minimal tree
//!   for the machine-readable reports the `fitact` CLI exchanges with CI
//!   gates, including the rendering of campaign reports,
//! * [`golden`] — train-once/load-forever artifact caching for tests,
//!   examples and benches.
//!
//! # Example
//!
//! ```
//! use fitact_io::ModelArtifact;
//! use fitact_nn::layers::{ActivationLayer, Linear, Sequential};
//! use fitact_nn::{Mode, Network};
//! use fitact_tensor::Tensor;
//! use rand::{rngs::StdRng, SeedableRng};
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let mut rng = StdRng::seed_from_u64(0);
//! let mut net = Network::new(
//!     "mlp",
//!     Sequential::new()
//!         .with(Box::new(Linear::new(4, 8, &mut rng)))
//!         .with(Box::new(ActivationLayer::relu("h", &[8])))
//!         .with(Box::new(Linear::new(8, 3, &mut rng))),
//! );
//! let artifact = ModelArtifact::capture(&net)?;
//! let mut reloaded = ModelArtifact::from_bytes(&artifact.to_bytes())?.instantiate()?;
//! let x = Tensor::ones(&[2, 4]);
//! assert_eq!(reloaded.forward(&x, Mode::Eval)?, net.forward(&x, Mode::Eval)?);
//! # Ok(())
//! # }
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod artifact;
pub mod bytes;
pub mod campaign_state;
pub mod golden;
pub mod json;
pub mod mapped;
#[cfg(all(unix, target_endian = "little", target_pointer_width = "64"))]
mod mmap;

pub use artifact::{
    ModelArtifact, SavedNative, SavedParam, BLOB_ALIGN, FILE_EXTENSION, FORMAT_VERSION,
    FORMAT_VERSION_NATIVE, MAGIC,
};
pub use campaign_state::{
    fingerprint_bytes, CampaignCheckpoint, CampaignSpec, CAMPAIGN_SPEC_MAGIC, CAMPAIGN_STATE_MAGIC,
    CAMPAIGN_STATE_MIN_VERSION, CAMPAIGN_STATE_VERSION,
};
pub use json::JsonValue;
pub use mapped::MappedArtifact;

use std::error::Error;
use std::fmt;
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};

/// Writes `bytes` to `path` through a hidden, uniquely named sibling file
/// and a `rename(2)` over `path`. Readers, concurrent writers and live
/// read-only mappings of the old file see the old contents or the new,
/// never a truncated or torn file.
fn write_atomically(path: &Path, bytes: &[u8]) -> Result<(), IoError> {
    static NEXT: AtomicU64 = AtomicU64::new(0);
    let name = path
        .file_name()
        .ok_or_else(|| IoError::Io(std::io::Error::other("path has no file name")))?
        .to_string_lossy();
    let tmp = path.with_file_name(format!(
        ".{name}.{}.{}.tmp",
        std::process::id(),
        NEXT.fetch_add(1, Ordering::Relaxed)
    ));
    std::fs::write(&tmp, bytes)?;
    std::fs::rename(&tmp, path)?;
    Ok(())
}

/// Errors produced while encoding, decoding or instantiating artifacts.
#[derive(Debug)]
pub enum IoError {
    /// The input does not start with the artifact magic.
    BadMagic,
    /// The artifact was written by an incompatible format revision.
    UnsupportedVersion(u32),
    /// The input ended before a value could be read.
    Truncated {
        /// Bytes the pending read required.
        needed: usize,
        /// Bytes actually remaining.
        remaining: usize,
    },
    /// The input is structurally invalid (unknown tag, bad UTF-8, shape/data
    /// disagreement, trailing garbage).
    Corrupt(String),
    /// A filesystem operation failed.
    Io(std::io::Error),
    /// The network rejected the topology or does not support serialisation.
    Nn(fitact_nn::NnError),
    /// The saved parameter list does not line up with the rebuilt network.
    Mismatch(String),
}

impl fmt::Display for IoError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            IoError::BadMagic => write!(f, "not a FitAct artifact (bad magic)"),
            IoError::UnsupportedVersion(v) => {
                write!(
                    f,
                    "unsupported artifact format version {v} (this build reads versions 1 through {FORMAT_VERSION_NATIVE})"
                )
            }
            IoError::Truncated { needed, remaining } => {
                write!(
                    f,
                    "artifact truncated: needed {needed} more bytes, {remaining} remaining"
                )
            }
            IoError::Corrupt(msg) => write!(f, "corrupt artifact: {msg}"),
            IoError::Io(e) => write!(f, "artifact i/o failed: {e}"),
            IoError::Nn(e) => write!(f, "network reconstruction failed: {e}"),
            IoError::Mismatch(msg) => {
                write!(f, "artifact does not match its own topology: {msg}")
            }
        }
    }
}

impl Error for IoError {
    fn source(&self) -> Option<&(dyn Error + 'static)> {
        match self {
            IoError::Io(e) => Some(e),
            IoError::Nn(e) => Some(e),
            _ => None,
        }
    }
}

impl From<std::io::Error> for IoError {
    fn from(e: std::io::Error) -> Self {
        IoError::Io(e)
    }
}

impl From<fitact_nn::NnError> for IoError {
    fn from(e: fitact_nn::NnError) -> Self {
        IoError::Nn(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn error_display_and_source() {
        assert!(!IoError::BadMagic.to_string().is_empty());
        assert!(IoError::UnsupportedVersion(9).to_string().contains('9'));
        assert!(IoError::Truncated {
            needed: 8,
            remaining: 3
        }
        .to_string()
        .contains('8'));
        assert!(!IoError::Corrupt("x".into()).to_string().is_empty());
        assert!(!IoError::Mismatch("y".into()).to_string().is_empty());
        let e = IoError::from(std::io::Error::other("disk on fire"));
        assert!(Error::source(&e).is_some());
        let e = IoError::from(fitact_nn::NnError::InvalidConfig("z".into()));
        assert!(Error::source(&e).is_some());
        assert!(Error::source(&IoError::BadMagic).is_none());
    }

    #[test]
    fn error_is_send_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<IoError>();
    }
}
