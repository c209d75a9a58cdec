//! Network building blocks: the [`Layer`] trait and its implementations.
//!
//! Every layer owns its parameters. A [`Mode::Train`] or [`Mode::Eval`]
//! forward also stores what `backward` reads (an input copy, BatchNorm's
//! normalised values, max-pool argmaxes) and `backward` consumes it. A
//! [`Mode::Infer`] forward computes the same output bits and stores nothing;
//! it drops whatever an earlier forward left, so a `backward` after it
//! returns [`NnError::BackwardBeforeForward`]. Activation functions keep no
//! state of their own: their [`ActivationLayer`] slot holds the input copy.
//! Layers are composed with [`Sequential`] and the ResNet [`Bottleneck`]
//! block.

mod activation_layer;
mod conv;
mod dropout;
mod flatten;
mod linear;
mod norm;
mod pool;
mod residual;
mod sequential;

pub use activation_layer::ActivationLayer;
pub use conv::Conv2d;
pub use dropout::Dropout;
pub use flatten::Flatten;
pub use linear::Linear;
pub use norm::BatchNorm2d;
pub use pool::{GlobalAvgPool, MaxPool2d};
pub use residual::Bottleneck;
pub use sequential::Sequential;

use crate::{NnError, Parameter};
use fitact_tensor::Tensor;
use std::fmt;

/// Whether a forward pass is part of training or inference, and whether a
/// `backward` may follow it.
///
/// Batch normalisation and dropout behave differently in training.
/// [`Mode::Eval`] and [`Mode::Infer`] compute the same outputs bit for bit;
/// they differ only in what the layers keep for `backward`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum Mode {
    /// Training: batch statistics are used and updated, dropout is active.
    Train,
    /// Inference that can be backpropagated: running statistics are used,
    /// dropout is the identity, and layers keep their backward state (the
    /// FitAct post-training stage backpropagates through these forwards).
    #[default]
    Eval,
    /// Inference only: the outputs of [`Mode::Eval`], with no backward state
    /// kept. Evaluation, campaign trials and serving run in this mode.
    Infer,
}

impl Mode {
    /// Whether a forward in this mode keeps the state `backward` reads
    /// (every mode but [`Mode::Infer`]).
    pub fn keeps_backward_state(self) -> bool {
        self != Mode::Infer
    }
}

/// A differentiable network layer.
///
/// The contract is the classic layer-wise backpropagation protocol:
///
/// 1. `forward(input, mode)` computes the output and, in [`Mode::Train`] and
///    [`Mode::Eval`], caches the intermediates `backward` needs. In
///    [`Mode::Infer`] it caches nothing and drops any earlier cache, with
///    output bits equal to [`Mode::Eval`]'s.
/// 2. `backward(grad_output)` consumes the cache of the last forward,
///    accumulates parameter gradients and returns the gradient with respect
///    to the input.
///
/// Layers are boxed and cloneable so a trained network can be duplicated and
/// each copy fitted with a different protection scheme.
///
/// `Send + Sync` is part of the contract: a read-only network template must
/// be shareable across threads (the inference server hands every worker a
/// clone of one shared template; fault campaigns move worker clones into
/// scoped threads). Mutable state a layer needs during `forward`/`backward`
/// lives in plain fields behind `&mut self` — implementations must not
/// smuggle in `Cell`/`RefCell`/`Rc`.
pub trait Layer: fmt::Debug + Send + Sync {
    /// A short name identifying the layer type (and salient configuration).
    fn name(&self) -> String;

    /// Computes the layer output for a batched input.
    ///
    /// # Errors
    ///
    /// Returns an error if the input shape is incompatible with the layer.
    fn forward(&mut self, input: &Tensor, mode: Mode) -> Result<Tensor, NnError>;

    /// Propagates gradients back through the layer.
    ///
    /// # Errors
    ///
    /// Returns [`NnError::BackwardBeforeForward`] if no forward has run
    /// since the last [`Mode::Infer`] one (or none ran at all), or a shape
    /// error if `grad_output` does not match the output.
    fn backward(&mut self, grad_output: &Tensor) -> Result<Tensor, NnError>;

    /// Read-only access to the layer's own (non-nested) parameters.
    fn params(&self) -> Vec<&Parameter> {
        Vec::new()
    }

    /// Mutable access to the layer's own (non-nested) parameters.
    fn params_mut(&mut self) -> Vec<&mut Parameter> {
        Vec::new()
    }

    /// Visits every parameter in this layer and its children with a
    /// slash-separated path (`"features/3/conv/weight"`).
    ///
    /// Container layers override this to recurse; leaf layers get the default
    /// implementation built on [`Layer::params`].
    fn visit_params(&self, prefix: &str, visitor: &mut dyn FnMut(&str, &Parameter)) {
        for p in self.params() {
            let path = join_path(prefix, p.name());
            visitor(&path, p);
        }
    }

    /// Mutable variant of [`Layer::visit_params`]; visits parameters in the
    /// same deterministic order.
    fn visit_params_mut(&mut self, prefix: &str, visitor: &mut dyn FnMut(&str, &mut Parameter)) {
        for p in self.params_mut() {
            let path = join_path(prefix, p.name().to_owned().as_str());
            visitor(&path, p);
        }
    }

    /// Mutable access to every [`ActivationLayer`] nested inside this layer,
    /// in forward order. Protection schemes use this to swap ReLU for their
    /// own bounded activation functions.
    fn activation_slots(&mut self) -> Vec<&mut ActivationLayer> {
        Vec::new()
    }

    /// The serializable topology descriptor of this layer (type,
    /// configuration and children — not parameter values; see
    /// [`crate::spec::LayerSpec`] for the fidelity contract).
    ///
    /// # Errors
    ///
    /// The default implementation returns [`NnError::InvalidConfig`]:
    /// ad-hoc layer implementations (test doubles, injection wrappers) opt
    /// out of persistence by not overriding it.
    fn spec(&self) -> Result<crate::spec::LayerSpec, NnError> {
        Err(NnError::InvalidConfig(format!(
            "layer `{}` does not support serialisation",
            self.name()
        )))
    }

    /// Clones the layer into a box ([`Clone`] is not object-safe).
    fn clone_box(&self) -> Box<dyn Layer>;
}

impl Clone for Box<dyn Layer> {
    fn clone(&self) -> Self {
        self.clone_box()
    }
}

/// Caches `input` for a layer's backward pass, reusing the previous cache's
/// storage when shapes allow so steady-state training does not allocate.
/// A [`Mode::Infer`] forward empties the cache instead.
pub(crate) fn cache_input(cache: &mut Option<Tensor>, input: &Tensor, mode: Mode) {
    match cache {
        _ if !mode.keeps_backward_state() => *cache = None,
        Some(t) => t.copy_from(input),
        None => *cache = Some(input.clone()),
    }
}

/// Joins a path prefix and a component with `/`, omitting the separator for an
/// empty prefix.
pub(crate) fn join_path(prefix: &str, name: &str) -> String {
    if prefix.is_empty() {
        name.to_owned()
    } else {
        format!("{prefix}/{name}")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mode_default_is_eval() {
        assert_eq!(Mode::default(), Mode::Eval);
        assert!(Mode::Train.keeps_backward_state() && Mode::Eval.keeps_backward_state());
        assert!(!Mode::Infer.keeps_backward_state());
    }

    #[test]
    fn infer_matches_eval_bits_and_keeps_no_backward_state() {
        use fitact_tensor::init;
        use rand::{rngs::StdRng, SeedableRng};
        let mut rng = StdRng::seed_from_u64(3);
        let image = init::uniform(&[2, 4, 4, 4], -1.0, 1.0, &mut rng);
        let rows = init::uniform(&[2, 6], -1.0, 1.0, &mut rng);
        // One training step moves the running statistics off the identity.
        let mut bn = BatchNorm2d::new(4);
        bn.forward(&image, Mode::Train).unwrap();
        let block = Bottleneck::new(4, 1, 1, (4, 4), "b", &mut rng).unwrap();
        let cases: Vec<(Box<dyn Layer>, &Tensor)> = vec![
            (Box::new(Conv2d::new(4, 3, 3, 1, 1, &mut rng)), &image),
            (Box::new(bn), &image),
            (Box::new(ActivationLayer::relu("a", &[4, 4, 4])), &image),
            (Box::new(MaxPool2d::new(2, 2)), &image),
            (Box::new(GlobalAvgPool::new()), &image),
            (Box::new(Flatten::new()), &image),
            (Box::new(Linear::new(6, 3, &mut rng)), &rows),
            (Box::new(Dropout::new(0.5, 0).unwrap()), &rows),
            (Box::new(block), &image),
        ];
        let bits = |t: &Tensor| t.as_slice().iter().map(|v| v.to_bits()).collect::<Vec<_>>();
        for (mut layer, input) in cases {
            let name = layer.name();
            let eval = layer.forward(input, Mode::Eval).unwrap();
            assert!(layer.backward(&eval).is_ok(), "{name} after Eval");
            let infer = layer.forward(input, Mode::Infer).unwrap();
            assert_eq!(bits(&infer), bits(&eval), "{name}");
            assert_eq!(infer.dims(), eval.dims(), "{name}");
            assert!(
                matches!(
                    layer.backward(&eval),
                    Err(NnError::BackwardBeforeForward(_))
                ),
                "{name} after Infer"
            );
        }
    }

    #[test]
    fn join_path_handles_empty_prefix() {
        assert_eq!(join_path("", "weight"), "weight");
        assert_eq!(join_path("block/0", "weight"), "block/0/weight");
    }

    #[test]
    fn boxed_layer_is_cloneable() {
        use rand::{rngs::StdRng, SeedableRng};
        let mut rng = StdRng::seed_from_u64(0);
        let layer: Box<dyn Layer> = Box::new(Linear::new(2, 3, &mut rng));
        let copy = layer.clone();
        assert_eq!(copy.name(), layer.name());
    }
}
