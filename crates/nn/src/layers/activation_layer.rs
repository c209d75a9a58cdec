//! Adapter that hosts an [`Activation`] inside a layer stack.

use crate::activation::Activation;
use crate::layers::{cache_input, Layer, Mode};
use crate::{NnError, Parameter, ReLU};
use fitact_tensor::Tensor;

/// A network position that applies an activation function to a feature map.
///
/// `ActivationLayer` is the *slot* that protection schemes operate on: a model
/// is built with plain [`ReLU`] activations, and the FitAct workflow later
/// replaces the boxed activation in every slot with GBReLU / Clip-Act /
/// Ranger / FitReLU without touching the rest of the network.
///
/// The slot records the per-sample feature shape (for example `[64, 32, 32]`
/// after the first VGG16 convolution), which is what a per-neuron activation
/// needs to size its bound tensor. It also holds the input copy that
/// [`Activation::backward`] reads, filled by [`Mode::Train`] and
/// [`Mode::Eval`] forwards and dropped by [`Mode::Infer`] ones, so no
/// activation keeps a cache of its own.
#[derive(Debug, Clone)]
pub struct ActivationLayer {
    activation: Box<dyn Activation>,
    feature_shape: Vec<usize>,
    label: String,
    cached_input: Option<Tensor>,
}

impl ActivationLayer {
    /// Creates a slot holding a plain ReLU for a feature map of the given
    /// per-sample shape. `label` identifies the slot in diagnostics (for
    /// example `"features.1"`).
    pub fn relu(label: impl Into<String>, feature_shape: &[usize]) -> Self {
        Self::with_activation(label, feature_shape, Box::new(ReLU::new()))
    }

    /// Creates a slot holding an arbitrary activation.
    pub fn with_activation(
        label: impl Into<String>,
        feature_shape: &[usize],
        activation: Box<dyn Activation>,
    ) -> Self {
        ActivationLayer {
            activation,
            feature_shape: feature_shape.to_vec(),
            label: label.into(),
            cached_input: None,
        }
    }

    /// The per-sample feature shape this slot operates on.
    pub fn feature_shape(&self) -> &[usize] {
        &self.feature_shape
    }

    /// Number of neurons (feature elements per sample) in this slot.
    pub fn num_neurons(&self) -> usize {
        self.feature_shape.iter().product()
    }

    /// The slot's diagnostic label.
    pub fn label(&self) -> &str {
        &self.label
    }

    /// The currently installed activation.
    pub fn activation(&self) -> &dyn Activation {
        self.activation.as_ref()
    }

    /// Mutable access to the currently installed activation.
    pub fn activation_mut(&mut self) -> &mut dyn Activation {
        self.activation.as_mut()
    }

    /// Replaces the installed activation, returning the previous one.
    pub fn replace_activation(&mut self, activation: Box<dyn Activation>) -> Box<dyn Activation> {
        std::mem::replace(&mut self.activation, activation)
    }
}

impl Layer for ActivationLayer {
    fn name(&self) -> String {
        format!("act[{}]({})", self.label, self.activation.name())
    }

    fn forward(&mut self, input: &Tensor, mode: Mode) -> Result<Tensor, NnError> {
        if input.ndim() < 2 || input.dims()[1..] != self.feature_shape[..] {
            return Err(NnError::InvalidInput {
                layer: self.name(),
                expected: format!("[batch, {:?}]", self.feature_shape),
                actual: input.dims().to_vec(),
            });
        }
        // Observe-only detection telemetry: when a ViolationTrace is captured
        // on this thread, record how many pre-activation values exceed the
        // installed bound. Costs one thread-local check when nobody listens.
        if crate::trace::is_active() {
            crate::trace::record(
                &self.label,
                self.activation.count_violations(input),
                input.numel() as u64,
            );
        }
        cache_input(&mut self.cached_input, input, mode);
        self.activation.forward(input)
    }

    fn backward(&mut self, grad_output: &Tensor) -> Result<Tensor, NnError> {
        let input = self
            .cached_input
            .as_ref()
            .ok_or_else(|| NnError::BackwardBeforeForward(self.name()))?;
        self.activation.backward(input, grad_output)
    }

    fn params(&self) -> Vec<&Parameter> {
        self.activation.params()
    }

    fn params_mut(&mut self) -> Vec<&mut Parameter> {
        self.activation.params_mut()
    }

    fn activation_slots(&mut self) -> Vec<&mut ActivationLayer> {
        vec![self]
    }

    fn spec(&self) -> Result<crate::spec::LayerSpec, NnError> {
        Ok(crate::spec::LayerSpec::Activation {
            label: self.label.clone(),
            feature_shape: self.feature_shape.clone(),
            activation: self.activation.spec()?,
        })
    }

    fn clone_box(&self) -> Box<dyn Layer> {
        Box::new(self.clone())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn relu_slot_applies_relu() {
        let mut slot = ActivationLayer::relu("fc1", &[4]);
        let x = Tensor::from_vec(vec![-1.0, 2.0, -3.0, 4.0], &[1, 4]).unwrap();
        let y = slot.forward(&x, Mode::Eval).unwrap();
        assert_eq!(y.as_slice(), &[0.0, 2.0, 0.0, 4.0]);
        assert_eq!(slot.num_neurons(), 4);
        assert_eq!(slot.label(), "fc1");
        assert_eq!(slot.feature_shape(), &[4]);
        assert!(slot.name().contains("relu"));
    }

    #[test]
    fn forward_validates_feature_shape() {
        let mut slot = ActivationLayer::relu("conv1", &[2, 3, 3]);
        assert!(slot
            .forward(&Tensor::zeros(&[1, 2, 3, 3]), Mode::Eval)
            .is_ok());
        assert!(slot
            .forward(&Tensor::zeros(&[1, 2, 4, 4]), Mode::Eval)
            .is_err());
        assert!(slot.forward(&Tensor::zeros(&[6]), Mode::Eval).is_err());
    }

    #[test]
    fn replace_activation_swaps_behaviour() {
        let mut slot = ActivationLayer::relu("fc", &[2]);
        let old = slot.replace_activation(Box::new(ReLU::new()));
        assert_eq!(old.name(), "relu");
        // Slot still works after replacement.
        let y = slot
            .forward(
                &Tensor::from_vec(vec![-1.0, 1.0], &[1, 2]).unwrap(),
                Mode::Eval,
            )
            .unwrap();
        assert_eq!(y.as_slice(), &[0.0, 1.0]);
    }

    #[test]
    fn activation_slots_returns_self() {
        let mut slot = ActivationLayer::relu("fc", &[2]);
        assert_eq!(slot.activation_slots().len(), 1);
    }

    #[test]
    fn backward_delegates_to_activation() {
        let mut slot = ActivationLayer::relu("fc", &[2]);
        let x = Tensor::from_vec(vec![-1.0, 1.0], &[1, 2]).unwrap();
        slot.forward(&x, Mode::Train).unwrap();
        let g = slot.backward(&Tensor::ones(&[1, 2])).unwrap();
        assert_eq!(g.as_slice(), &[0.0, 1.0]);
    }

    #[test]
    fn backward_needs_a_forward_that_kept_the_input() {
        let mut slot = ActivationLayer::relu("fc", &[2]);
        let x = Tensor::from_vec(vec![-1.0, 1.0], &[1, 2]).unwrap();
        let g = Tensor::ones(&[1, 2]);
        let refused = |slot: &mut ActivationLayer| {
            matches!(slot.backward(&g), Err(NnError::BackwardBeforeForward(_)))
        };
        assert!(refused(&mut slot), "no forward yet");
        let eval = slot.forward(&x, Mode::Eval).unwrap();
        assert!(slot.backward(&g).is_ok());
        assert_eq!(slot.forward(&x, Mode::Infer).unwrap(), eval);
        assert!(refused(&mut slot), "an Infer forward drops the Eval cache");
    }
}
