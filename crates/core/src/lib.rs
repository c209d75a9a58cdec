//! FitAct: error-resilient DNNs via fine-grained post-trainable activation
//! functions.
//!
//! This crate implements the contribution of the DATE 2022 paper
//! *"FitAct: Error Resilient Deep Neural Networks via Fine-Grained
//! Post-Trainable Activation Functions"* (Ghavami, Sadati, Fang, Shannon) on
//! top of the [`fitact_nn`] substrate:
//!
//! * [`activations`] — the protected activation functions: one hard-bounded
//!   [`BoundedRelu`] with four constructors — the layer-wise globally bounded
//!   ReLU of Clip-Act ([`BoundedRelu::clip_act`], paper Eq. 4), Ranger's
//!   range restriction ([`BoundedRelu::ranger`]), one bound per channel
//!   ([`BoundedRelu::per_channel`]) and the hard per-neuron bound
//!   ([`BoundedRelu::per_neuron`], paper Eq. 5) — and the trainable smooth
//!   per-neuron bound ([`FitRelu`], paper Eq. 6),
//! * [`calibration`] — profiling of per-neuron / per-layer maximum activations
//!   over a calibration set (paper Fig. 2, and the bound initialisation of the
//!   FitAct workflow),
//! * [`protect`] — applying a [`ProtectionScheme`] to a trained network by
//!   swapping its activation slots,
//! * [`framework`] — the two-stage [`FitAct`] workflow (paper Fig. 4):
//!   conventional training for accuracy, then lightweight post-training of the
//!   per-neuron bounds for resilience with the regularised loss of Eq. 10,
//! * [`resilience`] — glue that runs fault-injection campaigns for each
//!   protection scheme (paper Figs. 5/6),
//! * [`memory`] — the parameter-memory model behind the Table I overhead
//!   numbers.
//!
//! # Quickstart
//!
//! ```
//! use fitact::{FitAct, FitActConfig, ProtectionScheme};
//! use fitact_data::{materialize, Blobs, BlobsConfig};
//! use fitact_nn::layers::{ActivationLayer, Linear, Sequential};
//! use fitact_nn::Network;
//! use rand::{rngs::StdRng, SeedableRng};
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! // A tiny base model and dataset.
//! let mut rng = StdRng::seed_from_u64(0);
//! let root = Sequential::new()
//!     .with(Box::new(Linear::new(8, 16, &mut rng)))
//!     .with(Box::new(ActivationLayer::relu("h", &[16])))
//!     .with(Box::new(Linear::new(16, 3, &mut rng)));
//! let network = Network::new("mlp", root);
//! let data = Blobs::new(BlobsConfig { samples: 96, ..Default::default() })?;
//! let (inputs, labels) = materialize(&data)?;
//!
//! // Stage 1 + 2 of the FitAct workflow.
//! let config = FitActConfig { post_train_epochs: 2, ..Default::default() };
//! let fitact = FitAct::new(config);
//! let mut resilient = fitact.build_resilient(network, &inputs, &labels)?;
//! assert!(resilient.network_mut().forward(&inputs, fitact_nn::Mode::Eval).is_ok());
//! # Ok(())
//! # }
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod activations;
pub mod calibration;
pub mod framework;
pub mod memory;
pub mod protect;
pub mod resilience;
pub mod serialize;

pub use activations::{BoundedRelu, FitRelu};
pub use calibration::{ActivationProfile, ActivationProfiler, SlotProfile};
pub use framework::{
    assess_resilience, FitAct, FitActConfig, PostTrainReport, ResilientModel, TrainingReport,
};
pub use memory::MemoryModel;
pub use protect::{apply_protection, ProtectionScheme};
pub use resilience::{
    evaluate_resilience, evaluate_resilience_until, ResiliencePoint, ResilienceReportPoint,
};
pub use serialize::ProtectedActivations;

use std::error::Error;
use std::fmt;

/// Errors produced by the FitAct workflow.
#[derive(Debug)]
pub enum FitActError {
    /// An underlying network operation failed.
    Nn(fitact_nn::NnError),
    /// A fault-injection operation failed.
    Fault(fitact_faults::FaultError),
    /// A dataset operation failed.
    Data(fitact_data::DataError),
    /// A configuration value was invalid.
    InvalidConfig(String),
    /// A calibration profile did not match the network it is applied to.
    ProfileMismatch(String),
}

impl fmt::Display for FitActError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FitActError::Nn(e) => write!(f, "network operation failed: {e}"),
            FitActError::Fault(e) => write!(f, "fault injection failed: {e}"),
            FitActError::Data(e) => write!(f, "dataset operation failed: {e}"),
            FitActError::InvalidConfig(msg) => write!(f, "invalid FitAct configuration: {msg}"),
            FitActError::ProfileMismatch(msg) => {
                write!(f, "activation profile does not match the network: {msg}")
            }
        }
    }
}

impl Error for FitActError {
    fn source(&self) -> Option<&(dyn Error + 'static)> {
        match self {
            FitActError::Nn(e) => Some(e),
            FitActError::Fault(e) => Some(e),
            FitActError::Data(e) => Some(e),
            _ => None,
        }
    }
}

impl From<fitact_nn::NnError> for FitActError {
    fn from(e: fitact_nn::NnError) -> Self {
        FitActError::Nn(e)
    }
}

impl From<fitact_faults::FaultError> for FitActError {
    fn from(e: fitact_faults::FaultError) -> Self {
        FitActError::Fault(e)
    }
}

impl From<fitact_data::DataError> for FitActError {
    fn from(e: fitact_data::DataError) -> Self {
        FitActError::Data(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn error_conversions_and_display() {
        let e: FitActError = fitact_nn::NnError::InvalidConfig("x".into()).into();
        assert!(e.to_string().contains("network"));
        assert!(Error::source(&e).is_some());
        let e: FitActError = fitact_faults::FaultError::EmptyMemoryMap.into();
        assert!(e.to_string().contains("fault"));
        let e: FitActError = fitact_data::DataError::InvalidConfig("y".into()).into();
        assert!(e.to_string().contains("dataset"));
        assert!(!FitActError::InvalidConfig("z".into())
            .to_string()
            .is_empty());
        assert!(!FitActError::ProfileMismatch("w".into())
            .to_string()
            .is_empty());
    }

    #[test]
    fn error_is_send_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<FitActError>();
    }
}
