//! The pluggable activation-function interface.
//!
//! Activation functions are the heart of the FitAct paper: protection schemes
//! differ *only* in which activation function they install after each
//! convolutional / fully-connected layer. This module defines the [`Activation`]
//! trait that the `fitact` crate implements for its hard-bounded ReLU
//! (Clip-Act's GBReLU, Ranger, per-channel bounds and FitReLU-Naive) and for
//! the trainable FitReLU, plus the ordinary [`ReLU`] baseline.

use crate::{NnError, Parameter};
use fitact_tensor::Tensor;
use std::fmt;

/// A (possibly stateful, possibly trainable) activation function.
///
/// Implementations operate on batched feature tensors of shape
/// `[batch, ...feature_dims]` and may expose trainable parameters (the
/// per-neuron bounds of FitReLU) through [`Activation::params_mut`]. They
/// keep no copy of their input: the hosting
/// [`ActivationLayer`](crate::layers::ActivationLayer) caches it in
/// training and [`Mode::Eval`](crate::Mode::Eval) forwards and hands it
/// back to [`Activation::backward`], so the forward mode never reaches this
/// trait.
///
/// The trait is object-safe: networks store activations as
/// `Box<dyn Activation>` so that a trained model can have its ReLUs swapped
/// for protected variants without rebuilding the network.
///
/// Like [`crate::layers::Layer`], implementations must be `Send + Sync` so
/// a network template can be shared read-only across serving workers;
/// shared-state wrappers (profilers, fault injectors) synchronise through
/// `Arc<Mutex<…>>`, not single-threaded interior mutability.
pub trait Activation: fmt::Debug + Send + Sync {
    /// A short human-readable name (`"relu"`, `"fitrelu"`, …).
    fn name(&self) -> &str;

    /// Applies the activation to a batched input `[batch, ...features]`.
    ///
    /// # Errors
    ///
    /// Returns an error if the input shape is incompatible with the
    /// activation's configured feature shape.
    fn forward(&mut self, input: &Tensor) -> Result<Tensor, NnError>;

    /// Propagates `grad_output` (same shape as the forward output) back to
    /// `input`, the tensor the matching forward received, accumulating
    /// gradients of any internal parameters.
    ///
    /// # Errors
    ///
    /// Returns a shape error if `grad_output` does not match `input`.
    fn backward(&mut self, input: &Tensor, grad_output: &Tensor) -> Result<Tensor, NnError>;

    /// Evaluates the activation at a single point for neuron `neuron`.
    ///
    /// Used to plot the activation shapes (paper Fig. 3) and in analytical
    /// tests. Activations without per-neuron parameters ignore `neuron`.
    fn eval_scalar(&self, x: f32, neuron: usize) -> f32;

    /// Read-only access to the activation's parameters (empty by default).
    fn params(&self) -> Vec<&Parameter> {
        Vec::new()
    }

    /// Mutable access to the activation's parameters (empty by default).
    fn params_mut(&mut self) -> Vec<&mut Parameter> {
        Vec::new()
    }

    /// Counts the elements of `input` that lie strictly above this
    /// activation's protection bound — the detection events of the FitAct
    /// model, where a clamped value is evidence of a fault.
    ///
    /// Bounded activations (the `fitact` crate's `BoundedRelu` and `FitRelu`)
    /// override this; the default — for unbounded activations
    /// like plain [`ReLU`], which detect nothing — reports zero. Wrapper
    /// activations (profilers, fault injectors) must delegate to their inner
    /// activation so detection telemetry survives wrapping.
    ///
    /// Implementations only *read* `input`: counting violations never
    /// perturbs the forward numerics (see [`crate::trace`]).
    fn count_violations(&self, input: &Tensor) -> u64 {
        let _ = input;
        0
    }

    /// The serializable descriptor of this activation's configuration (see
    /// [`crate::spec::ActivationSpec`] for the encoding contract).
    ///
    /// # Errors
    ///
    /// The default implementation returns [`NnError::InvalidConfig`]:
    /// ephemeral activations (profiling recorders, fault-injection wrappers)
    /// are not meant to be persisted.
    fn spec(&self) -> Result<crate::spec::ActivationSpec, NnError> {
        Err(NnError::InvalidConfig(format!(
            "activation `{}` does not support serialisation",
            self.name()
        )))
    }

    /// Clones the activation into a box. Needed because `Clone` itself is not
    /// object-safe.
    fn clone_box(&self) -> Box<dyn Activation>;
}

impl Clone for Box<dyn Activation> {
    fn clone(&self) -> Self {
        self.clone_box()
    }
}

/// The standard Rectified Linear Unit, `max(0, x)` (paper Eq. 3).
///
/// This is the unprotected baseline: faults that push an activation to a huge
/// positive value pass straight through.
///
/// # Example
///
/// ```
/// use fitact_nn::{Activation, ReLU};
/// use fitact_tensor::Tensor;
///
/// # fn main() -> Result<(), fitact_nn::NnError> {
/// let mut relu = ReLU::new();
/// let x = Tensor::from_vec(vec![-1.0, 2.0], &[1, 2])?;
/// let y = relu.forward(&x)?;
/// assert_eq!(y.as_slice(), &[0.0, 2.0]);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, Default)]
pub struct ReLU;

impl ReLU {
    /// Creates a new ReLU activation.
    pub fn new() -> Self {
        ReLU
    }
}

impl Activation for ReLU {
    fn name(&self) -> &str {
        "relu"
    }

    fn forward(&mut self, input: &Tensor) -> Result<Tensor, NnError> {
        Ok(input.map(|v| v.max(0.0)))
    }

    fn backward(&mut self, input: &Tensor, grad_output: &Tensor) -> Result<Tensor, NnError> {
        Ok(input.zip_map(grad_output, |x, g| if x > 0.0 { g } else { 0.0 })?)
    }

    fn eval_scalar(&self, x: f32, _neuron: usize) -> f32 {
        x.max(0.0)
    }

    fn spec(&self) -> Result<crate::spec::ActivationSpec, NnError> {
        Ok(crate::spec::ActivationSpec::tagged("relu"))
    }

    fn clone_box(&self) -> Box<dyn Activation> {
        Box::new(self.clone())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn relu_forward_clamps_negatives() {
        let mut relu = ReLU::new();
        let x = Tensor::from_vec(vec![-3.0, -0.5, 0.0, 0.5, 3.0], &[1, 5]).unwrap();
        let y = relu.forward(&x).unwrap();
        assert_eq!(y.as_slice(), &[0.0, 0.0, 0.0, 0.5, 3.0]);
    }

    #[test]
    fn relu_backward_masks_gradient() {
        let mut relu = ReLU::new();
        let x = Tensor::from_vec(vec![-1.0, 2.0, 0.0], &[1, 3]).unwrap();
        let g = Tensor::from_vec(vec![1.0, 1.0, 1.0], &[1, 3]).unwrap();
        let gx = relu.backward(&x, &g).unwrap();
        assert_eq!(gx.as_slice(), &[0.0, 1.0, 0.0]);
    }

    #[test]
    fn relu_eval_scalar_matches_forward() {
        let relu = ReLU::new();
        assert_eq!(relu.eval_scalar(-4.0, 0), 0.0);
        assert_eq!(relu.eval_scalar(4.0, 0), 4.0);
    }

    #[test]
    fn relu_is_unbounded_above() {
        // The vulnerability the paper exploits: a fault-induced huge value
        // passes through plain ReLU unchanged.
        let relu = ReLU::new();
        assert_eq!(relu.eval_scalar(30000.0, 0), 30000.0);
    }

    #[test]
    fn boxed_clone_preserves_behaviour() {
        let relu: Box<dyn Activation> = Box::new(ReLU::new());
        let mut copy = relu.clone();
        let x = Tensor::from_vec(vec![-1.0, 1.0], &[1, 2]).unwrap();
        assert_eq!(copy.forward(&x).unwrap().as_slice(), &[0.0, 1.0]);
        assert_eq!(copy.name(), "relu");
        assert!(copy.params().is_empty());
        assert!(copy.params_mut().is_empty());
    }
}
