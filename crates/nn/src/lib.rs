//! A from-scratch CPU deep-neural-network substrate.
//!
//! The FitAct paper evaluates its protection scheme on AlexNet, VGG16 and
//! ResNet50 implemented in PyTorch. This crate is the Rust substrate that
//! replaces PyTorch for the reproduction: a small but complete layer-wise
//! forward/backward framework with
//!
//! * [`Parameter`] — a named trainable tensor with its gradient,
//! * [`Layer`] — the forward/backward building block ([`layers`]),
//! * [`Activation`] — the pluggable activation-function interface that the
//!   `fitact` crate implements for GBReLU, Clip-Act, Ranger and FitReLU,
//! * [`Sequential`] and residual blocks for composing networks,
//! * [`loss::CrossEntropyLoss`], [`optim`] (SGD and Adam) and a training loop
//!   in [`Network`],
//! * a CIFAR-scale model zoo ([`models`]): AlexNet, VGG16 and ResNet50.
//!
//! # Example
//!
//! ```
//! use fitact_nn::{layers::Linear, layers::Sequential, Layer, Mode, NnError};
//! use fitact_tensor::Tensor;
//! use rand::{rngs::StdRng, SeedableRng};
//!
//! # fn main() -> Result<(), NnError> {
//! let mut rng = StdRng::seed_from_u64(0);
//! let mut net = Sequential::new();
//! net.push(Box::new(Linear::new(4, 2, &mut rng)));
//! let x = Tensor::zeros(&[3, 4]);
//! let y = net.forward(&x, Mode::Eval)?;
//! assert_eq!(y.dims(), &[3, 2]);
//! # Ok(())
//! # }
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod activation;
pub mod layers;
pub mod loss;
pub mod metrics;
pub mod models;
pub mod network;
pub mod optim;
mod param;
pub mod spec;
pub mod trace;

pub use activation::{Activation, ReLU};
pub use layers::{Layer, Mode, Sequential};
pub use network::{copy_batch_into, Network, NetworkSnapshot};
pub use param::Parameter;
pub use spec::{ActivationBuilder, ActivationSpec, BaselineActivations, LayerSpec};
pub use trace::ViolationTrace;

use fitact_tensor::TensorError;
use std::error::Error;
use std::fmt;

/// Errors produced by network construction, forward or backward passes.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum NnError {
    /// An underlying tensor operation failed (shape mismatch and friends).
    Tensor(TensorError),
    /// The input to a layer had an unexpected shape.
    InvalidInput {
        /// The layer that rejected the input.
        layer: String,
        /// Human-readable description of the expected shape.
        expected: String,
        /// The shape that was actually received.
        actual: Vec<usize>,
    },
    /// `backward` was called before `forward` (no cached activations).
    BackwardBeforeForward(String),
    /// A configuration value was invalid (zero sizes, probabilities outside
    /// `[0, 1]`, …).
    InvalidConfig(String),
    /// `backward` was called through a parameter stored in a reduced-precision
    /// native encoding. Quantised parameters are inference-only; dequantise
    /// the network (`Network::quantize_to(Precision::F32)`) before training.
    QuantizedBackward {
        /// The layer holding the reduced-precision parameter.
        layer: String,
        /// The native encoding of that parameter (e.g. "f16", "int8").
        precision: fitact_tensor::Precision,
    },
}

impl fmt::Display for NnError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            NnError::Tensor(e) => write!(f, "tensor operation failed: {e}"),
            NnError::InvalidInput {
                layer,
                expected,
                actual,
            } => {
                write!(
                    f,
                    "layer `{layer}` expected input {expected}, got shape {actual:?}"
                )
            }
            NnError::BackwardBeforeForward(layer) => {
                write!(f, "backward called on `{layer}` before forward")
            }
            NnError::InvalidConfig(msg) => write!(f, "invalid configuration: {msg}"),
            NnError::QuantizedBackward { layer, precision } => {
                write!(
                    f,
                    "layer `{layer}` holds {precision} parameters, which are \
                     inference-only; dequantise to f32 before training"
                )
            }
        }
    }
}

impl Error for NnError {
    fn source(&self) -> Option<&(dyn Error + 'static)> {
        match self {
            NnError::Tensor(e) => Some(e),
            _ => None,
        }
    }
}

impl From<TensorError> for NnError {
    fn from(e: TensorError) -> Self {
        NnError::Tensor(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn error_display_and_source() {
        let e = NnError::Tensor(TensorError::InvalidShape(vec![1]));
        assert!(e.to_string().contains("tensor"));
        assert!(Error::source(&e).is_some());
        let e = NnError::InvalidInput {
            layer: "conv".into(),
            expected: "[N, C, H, W]".into(),
            actual: vec![3],
        };
        assert!(e.to_string().contains("conv"));
        assert!(Error::source(&e).is_none());
        assert!(!NnError::BackwardBeforeForward("x".into())
            .to_string()
            .is_empty());
        assert!(!NnError::InvalidConfig("bad".into()).to_string().is_empty());
    }

    #[test]
    fn error_is_send_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<NnError>();
    }
}
