//! Sequential composition of layers.

use crate::layers::{join_path, ActivationLayer, Layer, Mode};
use crate::{NnError, Parameter};
use fitact_tensor::Tensor;

/// A container that applies its child layers in order.
///
/// `Sequential` is itself a [`Layer`], so it can be nested (the ResNet
/// bottleneck block uses nested `Sequential`s for its main path and shortcut).
///
/// # Example
///
/// ```
/// use fitact_nn::layers::{ActivationLayer, Linear, Sequential};
/// use fitact_nn::{Layer, Mode};
/// use fitact_tensor::Tensor;
/// use rand::{rngs::StdRng, SeedableRng};
///
/// # fn main() -> Result<(), fitact_nn::NnError> {
/// let mut rng = StdRng::seed_from_u64(0);
/// let mut net = Sequential::new();
/// net.push(Box::new(Linear::new(8, 4, &mut rng)));
/// net.push(Box::new(ActivationLayer::relu("fc1", &[4])));
/// net.push(Box::new(Linear::new(4, 2, &mut rng)));
/// let y = net.forward(&Tensor::zeros(&[5, 8]), Mode::Eval)?;
/// assert_eq!(y.dims(), &[5, 2]);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, Default)]
pub struct Sequential {
    layers: Vec<Box<dyn Layer>>,
}

impl Sequential {
    /// Creates an empty container.
    pub fn new() -> Self {
        Sequential { layers: Vec::new() }
    }

    /// Appends a layer to the end of the stack.
    pub fn push(&mut self, layer: Box<dyn Layer>) {
        self.layers.push(layer);
    }

    /// Builder-style [`Sequential::push`].
    #[must_use]
    pub fn with(mut self, layer: Box<dyn Layer>) -> Self {
        self.push(layer);
        self
    }

    /// Number of direct child layers.
    pub fn len(&self) -> usize {
        self.layers.len()
    }

    /// Returns `true` if the container has no children.
    pub fn is_empty(&self) -> bool {
        self.layers.is_empty()
    }

    /// Read-only access to the child layers.
    pub fn layers(&self) -> &[Box<dyn Layer>] {
        &self.layers
    }

    /// Mutable access to the child layers.
    pub fn layers_mut(&mut self) -> &mut [Box<dyn Layer>] {
        &mut self.layers
    }

    /// Resumes a forward pass at layer boundary `layer_idx`: applies layers
    /// `layer_idx..` to `input` and returns the stack's output.
    ///
    /// Boundary `k` is the value flowing *into* layer `k`, so
    /// `forward_from(0, x, mode)` is exactly [`Sequential::forward`] and
    /// `forward_from(self.len(), x, mode)` returns `x` unchanged (the output
    /// boundary).
    ///
    /// # Invariants for checkpoint-resumed evaluation
    ///
    /// Callers that substitute a **cached** boundary activation for the
    /// prefix (the fault-campaign engine in `fitact_faults`) rely on two
    /// properties, both of which hold for every layer in this crate:
    ///
    /// * layers are deterministic functions of `(input, parameters)` in
    ///   [`Mode::Eval`] and [`Mode::Infer`], which compute the same bits —
    ///   what a layer keeps for `backward` never changes an output, so a
    ///   prefix captured in one of the two modes resumes in the other,
    /// * the cached input must have been produced by the *same* parameter
    ///   values currently held by layers `0..layer_idx`; resuming past a
    ///   layer whose parameters (or activation functions) have since changed
    ///   silently computes the wrong suffix.
    ///
    /// # Errors
    ///
    /// Returns [`NnError::InvalidConfig`] if `layer_idx > self.len()`, and
    /// propagates any layer error.
    pub fn forward_from(
        &mut self,
        layer_idx: usize,
        input: &Tensor,
        mode: Mode,
    ) -> Result<Tensor, NnError> {
        if layer_idx > self.layers.len() {
            return Err(NnError::InvalidConfig(format!(
                "cannot resume at layer {layer_idx} of a {}-layer stack",
                self.layers.len()
            )));
        }
        let mut layers = self.layers[layer_idx..].iter_mut();
        let Some(first) = layers.next() else {
            return Ok(input.clone());
        };
        // The first layer reads `input` in place, so resumed trials never
        // copy the cached checkpoint they start from.
        let mut x = first.forward(input, mode)?;
        for layer in layers {
            x = layer.forward(&x, mode)?;
        }
        Ok(x)
    }

    /// Runs a forward pass while exposing every layer-boundary activation to
    /// `inspect`.
    ///
    /// `inspect(k, t)` is called with boundary `k` — the tensor flowing into
    /// layer `k` — for `k` in `0..len`, and finally with `(len, output)`.
    /// The observed tensors are exactly the values [`Sequential::forward_from`]
    /// accepts at those boundaries, which is what the fault-campaign
    /// checkpoint capture snapshots.
    ///
    /// # Errors
    ///
    /// Propagates any layer error.
    pub fn forward_inspect(
        &mut self,
        input: &Tensor,
        mode: Mode,
        inspect: &mut dyn FnMut(usize, &Tensor),
    ) -> Result<Tensor, NnError> {
        // As in `forward_from`, the first layer reads `input` in place.
        let mut x: Option<Tensor> = None;
        for (k, layer) in self.layers.iter_mut().enumerate() {
            let current = x.as_ref().unwrap_or(input);
            inspect(k, current);
            x = Some(layer.forward(current, mode)?);
        }
        let x = x.unwrap_or_else(|| input.clone());
        inspect(self.layers.len(), &x);
        Ok(x)
    }

    /// Serializable specs of the direct children, in forward order (the
    /// payload of a [`crate::spec::LayerSpec::Sequential`]).
    ///
    /// # Errors
    ///
    /// Propagates the first child that does not support serialisation.
    pub fn child_specs(&self) -> Result<Vec<crate::spec::LayerSpec>, NnError> {
        self.layers.iter().map(|l| l.spec()).collect()
    }

    /// Index of the first direct child layer that contains an activation slot
    /// (at any nesting depth), or `None` if no child has one.
    ///
    /// Datapath fault models corrupt activation outputs, so this is the
    /// earliest layer boundary such a model can affect — everything before it
    /// is reusable from a clean checkpoint.
    pub fn first_activation_layer(&mut self) -> Option<usize> {
        self.layers
            .iter_mut()
            .position(|layer| !layer.activation_slots().is_empty())
    }
}

impl FromIterator<Box<dyn Layer>> for Sequential {
    fn from_iter<I: IntoIterator<Item = Box<dyn Layer>>>(iter: I) -> Self {
        Sequential {
            layers: iter.into_iter().collect(),
        }
    }
}

impl Extend<Box<dyn Layer>> for Sequential {
    fn extend<I: IntoIterator<Item = Box<dyn Layer>>>(&mut self, iter: I) {
        self.layers.extend(iter);
    }
}

impl Layer for Sequential {
    fn name(&self) -> String {
        format!("sequential({} layers)", self.layers.len())
    }

    fn forward(&mut self, input: &Tensor, mode: Mode) -> Result<Tensor, NnError> {
        // Forward is the resume-at-the-input special case, so the two paths
        // cannot drift apart numerically.
        self.forward_from(0, input, mode)
    }

    fn backward(&mut self, grad_output: &Tensor) -> Result<Tensor, NnError> {
        let mut g = grad_output.clone();
        for layer in self.layers.iter_mut().rev() {
            g = layer.backward(&g)?;
        }
        Ok(g)
    }

    fn params(&self) -> Vec<&Parameter> {
        self.layers.iter().flat_map(|l| l.params()).collect()
    }

    fn params_mut(&mut self) -> Vec<&mut Parameter> {
        self.layers
            .iter_mut()
            .flat_map(|l| l.params_mut())
            .collect()
    }

    fn visit_params(&self, prefix: &str, visitor: &mut dyn FnMut(&str, &Parameter)) {
        for (i, layer) in self.layers.iter().enumerate() {
            let child_prefix = join_path(prefix, &i.to_string());
            layer.visit_params(&child_prefix, visitor);
        }
    }

    fn visit_params_mut(&mut self, prefix: &str, visitor: &mut dyn FnMut(&str, &mut Parameter)) {
        for (i, layer) in self.layers.iter_mut().enumerate() {
            let child_prefix = join_path(prefix, &i.to_string());
            layer.visit_params_mut(&child_prefix, visitor);
        }
    }

    fn activation_slots(&mut self) -> Vec<&mut ActivationLayer> {
        self.layers
            .iter_mut()
            .flat_map(|l| l.activation_slots())
            .collect()
    }

    fn spec(&self) -> Result<crate::spec::LayerSpec, NnError> {
        Ok(crate::spec::LayerSpec::Sequential(self.child_specs()?))
    }

    fn clone_box(&self) -> Box<dyn Layer> {
        Box::new(self.clone())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::layers::Linear;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn two_layer_net() -> Sequential {
        let mut rng = StdRng::seed_from_u64(0);
        Sequential::new()
            .with(Box::new(Linear::new(4, 3, &mut rng)))
            .with(Box::new(ActivationLayer::relu("h", &[3])))
            .with(Box::new(Linear::new(3, 2, &mut rng)))
    }

    #[test]
    fn forward_chains_layers() {
        let mut net = two_layer_net();
        let y = net.forward(&Tensor::zeros(&[7, 4]), Mode::Eval).unwrap();
        assert_eq!(y.dims(), &[7, 2]);
        assert_eq!(net.len(), 3);
        assert!(!net.is_empty());
    }

    #[test]
    fn backward_runs_in_reverse() {
        let mut net = two_layer_net();
        net.forward(&Tensor::ones(&[2, 4]), Mode::Train).unwrap();
        let dx = net.backward(&Tensor::ones(&[2, 2])).unwrap();
        assert_eq!(dx.dims(), &[2, 4]);
    }

    #[test]
    fn params_are_concatenated_in_order() {
        let net = two_layer_net();
        // linear(4→3): weight+bias, relu: none, linear(3→2): weight+bias.
        assert_eq!(net.params().len(), 4);
    }

    #[test]
    fn visit_params_uses_child_indices() {
        let net = two_layer_net();
        let mut paths = Vec::new();
        net.visit_params("root", &mut |path, _p| paths.push(path.to_owned()));
        assert_eq!(
            paths,
            vec![
                "root/0/weight",
                "root/0/bias",
                "root/2/weight",
                "root/2/bias"
            ]
        );
    }

    #[test]
    fn visit_params_mut_matches_immutable_order() {
        let mut net = two_layer_net();
        let mut immutable = Vec::new();
        net.visit_params("", &mut |path, _| immutable.push(path.to_owned()));
        let mut mutable = Vec::new();
        net.visit_params_mut("", &mut |path, _| mutable.push(path.to_owned()));
        assert_eq!(immutable, mutable);
    }

    #[test]
    fn activation_slots_are_collected_recursively() {
        let mut rng = StdRng::seed_from_u64(1);
        let inner = Sequential::new().with(Box::new(ActivationLayer::relu("inner", &[2])));
        let mut outer = Sequential::new()
            .with(Box::new(Linear::new(2, 2, &mut rng)))
            .with(Box::new(inner))
            .with(Box::new(ActivationLayer::relu("outer", &[2])));
        let slots = outer.activation_slots();
        let labels: Vec<&str> = slots.iter().map(|s| s.label()).collect();
        assert_eq!(labels, vec!["inner", "outer"]);
    }

    #[test]
    fn forward_from_zero_matches_forward() {
        let mut net = two_layer_net();
        let x = Tensor::from_vec((0..28).map(|v| v as f32 * 0.1 - 1.0).collect(), &[7, 4]).unwrap();
        let full = net.forward(&x, Mode::Eval).unwrap();
        let resumed = net.forward_from(0, &x, Mode::Eval).unwrap();
        assert_eq!(full, resumed);
    }

    #[test]
    fn forward_from_every_boundary_matches_the_full_pass() {
        let mut net = two_layer_net();
        let x = Tensor::from_vec((0..12).map(|v| v as f32 * 0.3 - 2.0).collect(), &[3, 4]).unwrap();
        let mut boundaries: Vec<Tensor> = Vec::new();
        let full = net
            .forward_inspect(&x, Mode::Eval, &mut |k, t| {
                assert_eq!(k, boundaries.len(), "boundaries arrive in order");
                boundaries.push(t.clone());
            })
            .unwrap();
        assert_eq!(boundaries.len(), net.len() + 1);
        assert_eq!(boundaries[0], x, "boundary 0 is the input");
        assert_eq!(
            *boundaries.last().unwrap(),
            full,
            "last boundary is the output"
        );
        for (k, boundary) in boundaries.iter().enumerate() {
            let resumed = net.forward_from(k, boundary, Mode::Eval).unwrap();
            assert_eq!(resumed, full, "resume at boundary {k}");
        }
    }

    #[test]
    fn forward_from_rejects_out_of_range_boundaries() {
        let mut net = two_layer_net();
        let x = Tensor::zeros(&[1, 4]);
        assert!(net.forward_from(net.len() + 1, &x, Mode::Eval).is_err());
    }

    #[test]
    fn first_activation_layer_finds_nested_slots() {
        let mut net = two_layer_net();
        assert_eq!(net.first_activation_layer(), Some(1));
        let mut rng = StdRng::seed_from_u64(3);
        let inner = Sequential::new().with(Box::new(ActivationLayer::relu("inner", &[3])));
        let mut nested = Sequential::new()
            .with(Box::new(Linear::new(4, 3, &mut rng)))
            .with(Box::new(inner));
        assert_eq!(nested.first_activation_layer(), Some(1));
        let mut bare = Sequential::new().with(Box::new(Linear::new(2, 2, &mut rng)));
        assert_eq!(bare.first_activation_layer(), None);
    }

    #[test]
    fn from_iterator_and_extend() {
        let mut rng = StdRng::seed_from_u64(2);
        let mut net: Sequential = vec![Box::new(Linear::new(2, 2, &mut rng)) as Box<dyn Layer>]
            .into_iter()
            .collect();
        net.extend(vec![
            Box::new(ActivationLayer::relu("a", &[2])) as Box<dyn Layer>
        ]);
        assert_eq!(net.len(), 2);
        assert_eq!(net.layers().len(), 2);
        assert_eq!(net.layers_mut().len(), 2);
    }
}
