//! A complete network with training and evaluation helpers.

use crate::layers::{ActivationLayer, Layer, Mode, Sequential};
use crate::loss::CrossEntropyLoss;
use crate::metrics::{accuracy, RunningMean};
use crate::optim::Optimizer;
use crate::{NnError, Parameter};
use fitact_tensor::{F16Param, Int8Param, NativeParam, Precision, Tensor, TensorArena};

/// A neural network: a named [`Sequential`] stack plus the bookkeeping the
/// FitAct workflow and the fault injector need (parameter enumeration,
/// snapshots, activation-slot access).
///
/// # Example
///
/// ```
/// use fitact_nn::layers::{ActivationLayer, Linear, Sequential};
/// use fitact_nn::{Mode, Network};
/// use fitact_tensor::Tensor;
/// use rand::{rngs::StdRng, SeedableRng};
///
/// # fn main() -> Result<(), fitact_nn::NnError> {
/// let mut rng = StdRng::seed_from_u64(0);
/// let root = Sequential::new()
///     .with(Box::new(Linear::new(4, 8, &mut rng)))
///     .with(Box::new(ActivationLayer::relu("fc1", &[8])))
///     .with(Box::new(Linear::new(8, 3, &mut rng)));
/// let mut net = Network::new("mlp", root);
/// let logits = net.forward(&Tensor::zeros(&[2, 4]), Mode::Eval)?;
/// assert_eq!(logits.dims(), &[2, 3]);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct Network {
    name: String,
    root: Sequential,
    /// Reusable staging buffers for [`Network::evaluate`] batch slicing
    /// (cloning a network starts with an empty arena; see
    /// [`fitact_tensor::TensorArena`]).
    eval_arena: TensorArena,
}

/// Metadata about one parameter tensor, in deterministic traversal order.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParamInfo {
    /// Slash-separated path of the parameter (e.g. `"features/0/weight"`).
    pub path: String,
    /// Number of scalar elements.
    pub numel: usize,
    /// Whether the parameter is currently trainable.
    pub trainable: bool,
    /// The element type the parameter is stored in.
    pub precision: Precision,
    /// Quantisation channels (int8 parameters only; 0 otherwise). Each
    /// channel carries an f32 scale and an int8 zero point, which are part
    /// of the deployed representation's fault space.
    pub channels: usize,
}

/// A full-fidelity capture of every parameter's storage — f32 tensors *and*
/// native reduced-precision words — taken with [`Network::snapshot_full`].
///
/// The plain [`Network::snapshot`] path captures only f32 tensors, which is
/// lossy for native parameters: re-encoding a decoded value can quietise
/// NaNs or re-round, so a campaign restoring through f32 would not be
/// bit-faithful. `NetworkSnapshot` restores the exact stored words.
#[derive(Debug, Clone)]
pub struct NetworkSnapshot {
    /// Per-parameter f32 values (empty placeholders for native params).
    pub tensors: Vec<Tensor>,
    /// Per-parameter native storage, aligned with `tensors`.
    pub natives: Vec<Option<NativeParam>>,
}

/// Loss/accuracy summary of one pass over a dataset split.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct EpochStats {
    /// Mean loss over all samples.
    pub loss: f32,
    /// Mean top-1 accuracy over all samples.
    pub accuracy: f32,
}

impl Network {
    /// Wraps a sequential stack as a named network.
    pub fn new(name: impl Into<String>, root: Sequential) -> Self {
        Network {
            name: name.into(),
            root,
            eval_arena: TensorArena::new(),
        }
    }

    /// The network's name (e.g. `"vgg16"`).
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The serializable topology descriptor of the layer stack (see
    /// [`crate::spec::LayerSpec`]); parameter values travel separately via
    /// [`Network::visit_params`].
    ///
    /// # Errors
    ///
    /// Propagates the first layer that does not support serialisation.
    pub fn to_spec(&self) -> Result<Vec<crate::spec::LayerSpec>, NnError> {
        self.root.child_specs()
    }

    /// Rebuilds a network from a topology descriptor with placeholder
    /// parameter values; the caller restores saved tensors afterwards
    /// (artifact loading lives in the `fitact_io` crate).
    ///
    /// # Errors
    ///
    /// Returns [`NnError::InvalidConfig`] for malformed specs or activation
    /// kinds unknown to `activations`.
    pub fn from_spec(
        name: impl Into<String>,
        layers: &[crate::spec::LayerSpec],
        activations: &dyn crate::spec::ActivationBuilder,
    ) -> Result<Self, NnError> {
        let mut root = Sequential::new();
        for spec in layers {
            root.push(spec.build(activations)?);
        }
        Ok(Network::new(name, root))
    }

    /// Read-only access to the layer stack.
    pub fn root(&self) -> &Sequential {
        &self.root
    }

    /// Mutable access to the layer stack.
    pub fn root_mut(&mut self) -> &mut Sequential {
        &mut self.root
    }

    /// Runs a forward pass.
    ///
    /// # Errors
    ///
    /// Propagates any layer error (shape mismatches and friends).
    pub fn forward(&mut self, input: &Tensor, mode: Mode) -> Result<Tensor, NnError> {
        self.root.forward(input, mode)
    }

    /// Number of top-level layers in the stack — one more than the largest
    /// valid resume boundary of [`Network::forward_from`].
    pub fn depth(&self) -> usize {
        self.root.len()
    }

    /// Resumes a forward pass at top-level layer boundary `layer_idx` (see
    /// [`Sequential::forward_from`] for the boundary numbering and the cache
    /// invariants checkpoint-resumed callers must uphold).
    ///
    /// # Errors
    ///
    /// Returns [`NnError::InvalidConfig`] for an out-of-range boundary and
    /// propagates any layer error.
    pub fn forward_from(
        &mut self,
        layer_idx: usize,
        input: &Tensor,
        mode: Mode,
    ) -> Result<Tensor, NnError> {
        self.root.forward_from(layer_idx, input, mode)
    }

    /// Runs a forward pass exposing every top-level layer-boundary activation
    /// to `inspect` (see [`Sequential::forward_inspect`]).
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
        self.root.forward_inspect(input, mode, inspect)
    }

    /// Runs a backward pass from the loss gradient at the output.
    ///
    /// # Errors
    ///
    /// Propagates any layer error.
    pub fn backward(&mut self, grad_output: &Tensor) -> Result<Tensor, NnError> {
        self.root.backward(grad_output)
    }

    /// All parameters (weights, biases, buffers, activation bounds) in
    /// deterministic traversal order.
    pub fn params(&self) -> Vec<&Parameter> {
        self.root.params()
    }

    /// Mutable access to all parameters in the same order as
    /// [`Network::params`].
    pub fn params_mut(&mut self) -> Vec<&mut Parameter> {
        self.root.params_mut()
    }

    /// Metadata for every parameter, in the same deterministic order used by
    /// [`Network::visit_params_mut`]. This is what the fault injector uses to
    /// build its memory map.
    pub fn param_info(&self) -> Vec<ParamInfo> {
        let mut out = Vec::new();
        self.root.visit_params("", &mut |path, p| {
            out.push(ParamInfo {
                path: path.to_owned(),
                numel: p.numel(),
                trainable: p.trainable(),
                precision: p.precision(),
                channels: match p.native() {
                    Some(NativeParam::Int8(q)) => q.channels(),
                    _ => 0,
                },
            });
        });
        out
    }

    /// Visits every parameter mutably with its path, in the order reported by
    /// [`Network::param_info`].
    pub fn visit_params_mut(&mut self, visitor: &mut dyn FnMut(&str, &mut Parameter)) {
        self.root.visit_params_mut("", visitor);
    }

    /// Visits every parameter immutably with its path.
    pub fn visit_params(&self, visitor: &mut dyn FnMut(&str, &Parameter)) {
        self.root.visit_params("", visitor);
    }

    /// Total number of scalar parameters (including buffers and activation
    /// bounds).
    pub fn num_parameters(&self) -> usize {
        self.params().iter().map(|p| p.numel()).sum()
    }

    /// Every activation slot in forward order.
    pub fn activation_slots(&mut self) -> Vec<&mut ActivationLayer> {
        self.root.activation_slots()
    }

    /// Copies the current values of every parameter (for restore after a
    /// fault-injection trial).
    pub fn snapshot(&self) -> Vec<Tensor> {
        self.params().iter().map(|p| p.data().clone()).collect()
    }

    /// Restores parameter values from a snapshot taken with
    /// [`Network::snapshot`].
    ///
    /// # Errors
    ///
    /// Returns [`NnError::InvalidConfig`] if the snapshot does not match the
    /// current parameter list.
    pub fn restore(&mut self, snapshot: &[Tensor]) -> Result<(), NnError> {
        let mut params = self.params_mut();
        if params.len() != snapshot.len() {
            return Err(NnError::InvalidConfig(format!(
                "snapshot has {} tensors but the network has {} parameters",
                snapshot.len(),
                params.len()
            )));
        }
        for (p, s) in params.iter_mut().zip(snapshot) {
            if p.data().dims() != s.dims() {
                return Err(NnError::InvalidConfig(format!(
                    "snapshot tensor shape {:?} does not match parameter `{}` shape {:?}",
                    s.dims(),
                    p.name(),
                    p.data().dims()
                )));
            }
            // In-place copy: a fault campaign restores after every trial, so
            // the warm path must reuse the parameter's existing storage.
            p.data_mut().copy_from(s);
        }
        Ok(())
    }

    /// Captures every parameter's storage in full fidelity — including
    /// native f16/int8 words — for bit-faithful restore in any precision.
    pub fn snapshot_full(&self) -> NetworkSnapshot {
        let params = self.params();
        NetworkSnapshot {
            tensors: params.iter().map(|p| p.data().clone()).collect(),
            natives: params.iter().map(|p| p.native().cloned()).collect(),
        }
    }

    /// Restores parameter storage from a [`Network::snapshot_full`] capture.
    ///
    /// Native parameters get their exact stored words back (never a decode →
    /// re-encode round trip, which would not be bit-faithful for NaN
    /// payloads produced by fault injection).
    ///
    /// # Errors
    ///
    /// Returns [`NnError::InvalidConfig`] if the snapshot does not match the
    /// current parameter list.
    pub fn restore_full(&mut self, snapshot: &NetworkSnapshot) -> Result<(), NnError> {
        let mut params = self.params_mut();
        if params.len() != snapshot.tensors.len() || params.len() != snapshot.natives.len() {
            return Err(NnError::InvalidConfig(format!(
                "snapshot has {} tensors but the network has {} parameters",
                snapshot.tensors.len(),
                params.len()
            )));
        }
        for (p, (s, native)) in params
            .iter_mut()
            .zip(snapshot.tensors.iter().zip(&snapshot.natives))
        {
            match native {
                Some(n) => {
                    if p.dims() != n.dims() {
                        return Err(NnError::InvalidConfig(format!(
                            "snapshot native shape {:?} does not match parameter `{}` shape {:?}",
                            n.dims(),
                            p.name(),
                            p.dims()
                        )));
                    }
                    p.set_native(n.clone());
                }
                None => {
                    if p.native().is_some() {
                        p.dequantize();
                    }
                    if p.data().dims() != s.dims() {
                        return Err(NnError::InvalidConfig(format!(
                            "snapshot tensor shape {:?} does not match parameter `{}` shape {:?}",
                            s.dims(),
                            p.name(),
                            p.data().dims()
                        )));
                    }
                    p.data_mut().copy_from(s);
                }
            }
        }
        Ok(())
    }

    /// The element type the network's weights are stored in ([`Precision::F32`]
    /// unless some parameter carries a native encoding).
    pub fn precision(&self) -> Precision {
        self.params()
            .iter()
            .find_map(|p| p.native().map(|n| n.precision()))
            .unwrap_or(Precision::F32)
    }

    /// Converts the network's weight matrices to `precision` storage.
    ///
    /// Matrix-shaped trainable parameters (linear `[out, in]` weights and
    /// convolution `[oc, ic, kh, kw]` kernels — anything with ≥ 2 dims) move
    /// to the native encoding; biases, batch-norm vectors and activation
    /// bounds stay f32, mirroring standard deployment practice. Converting
    /// to [`Precision::F32`] decodes every native parameter back to owned
    /// f32 storage (exact kernel arithmetic).
    ///
    /// Quantised parameters are inference-only: they are frozen, and
    /// layers report a typed error if asked to backprop through them.
    pub fn quantize_to(&mut self, precision: Precision) {
        self.visit_params_mut(&mut |_, p| match precision {
            Precision::F32 => p.dequantize(),
            Precision::F16 | Precision::Int8 => {
                let eligible = p.dims().len() >= 2 && (p.trainable() || p.native().is_some());
                if !eligible || p.precision() == precision {
                    return;
                }
                let (values, dims) = match p.native() {
                    Some(n) => (n.to_f32_vec(), n.dims().to_vec()),
                    None => (p.data().as_slice().to_vec(), p.data().dims().to_vec()),
                };
                let native = match precision {
                    Precision::F16 => NativeParam::F16(F16Param::from_f32(&values, &dims)),
                    Precision::Int8 => NativeParam::Int8(Int8Param::quantize(&values, &dims)),
                    Precision::F32 => unreachable!("handled above"),
                };
                p.set_native(native);
            }
        });
    }

    /// Clears all parameter gradients.
    pub fn zero_grad(&mut self) {
        for p in self.params_mut() {
            p.zero_grad();
        }
    }

    /// Predicts class indices for a batch of inputs ([`Mode::Infer`]: the
    /// logits of [`Mode::Eval`], with no backward state kept).
    ///
    /// # Errors
    ///
    /// Propagates forward-pass errors.
    pub fn predict(&mut self, input: &Tensor) -> Result<Vec<usize>, NnError> {
        let logits = self.forward(input, Mode::Infer)?;
        Ok(logits.argmax_rows()?)
    }

    /// Evaluates top-1 accuracy over a dataset given as one big input tensor
    /// `[n, ...]` plus targets, processing `batch_size` samples at a time.
    /// Forwards run in [`Mode::Infer`], so no layer keeps backward state.
    ///
    /// Batch inputs are staged through a persistent [`TensorArena`] slot with
    /// one contiguous copy per batch (axis-0 ranges of a row-major tensor are
    /// contiguous), so the slicing itself is allocation-free once the staging
    /// buffer is warm; targets are staged as plain subslices, which never
    /// allocate. This is pinned by the `eval_alloc` integration test.
    ///
    /// # Errors
    ///
    /// Propagates forward-pass errors; returns [`NnError::InvalidConfig`] for a
    /// zero batch size or mismatched target count.
    pub fn evaluate(
        &mut self,
        inputs: &Tensor,
        targets: &[usize],
        batch_size: usize,
    ) -> Result<f32, NnError> {
        if batch_size == 0 {
            return Err(NnError::InvalidConfig("batch_size must be non-zero".into()));
        }
        if inputs.ndim() == 0 || inputs.dims()[0] != targets.len() {
            return Err(NnError::InvalidConfig(format!(
                "inputs have {} samples but {} targets were given",
                inputs.dims().first().copied().unwrap_or(0),
                targets.len()
            )));
        }
        // The staging tensor is taken out of the arena so it can be borrowed
        // alongside `&mut self` across the forward call, and put back even on
        // the error path so its capacity survives.
        let mut staging = self.eval_arena.take(0);
        let result = self.evaluate_with_staging(inputs, targets, batch_size, &mut staging);
        self.eval_arena.put(0, staging);
        result
    }

    fn evaluate_with_staging(
        &mut self,
        inputs: &Tensor,
        targets: &[usize],
        batch_size: usize,
        staging: &mut Tensor,
    ) -> Result<f32, NnError> {
        let n = targets.len();
        let mut acc = RunningMean::new();
        let mut start = 0usize;
        while start < n {
            let end = (start + batch_size).min(n);
            copy_batch_into(inputs, start, end, staging)?;
            let logits = self.forward(staging, Mode::Infer)?;
            let batch_acc = accuracy(&logits, &targets[start..end])?;
            acc.push_weighted(batch_acc, end - start);
            start = end;
        }
        Ok(acc.mean())
    }

    /// Runs one optimisation step on a single mini-batch: forward in train
    /// mode, cross-entropy loss, backward, optimiser step, gradients cleared.
    ///
    /// Returns the batch loss and accuracy.
    ///
    /// # Errors
    ///
    /// Propagates layer and loss errors.
    pub fn train_batch(
        &mut self,
        inputs: &Tensor,
        targets: &[usize],
        loss: &CrossEntropyLoss,
        optimizer: &mut dyn Optimizer,
    ) -> Result<EpochStats, NnError> {
        self.zero_grad();
        let logits = self.forward(inputs, Mode::Train)?;
        let (loss_value, grad) = loss.forward(&logits, targets)?;
        let batch_accuracy = accuracy(&logits, targets)?;
        self.backward(&grad)?;
        let mut params = self.params_mut();
        optimizer.step(&mut params);
        self.zero_grad();
        Ok(EpochStats {
            loss: loss_value,
            accuracy: batch_accuracy,
        })
    }
}

/// Copies rows `[start, end)` of a batched `[n, ...]` tensor into `out` as a
/// `[end - start, ...]` tensor with a single contiguous memcpy.
///
/// When `out` already has the target shape (the steady state of an evaluation
/// loop with equal-sized batches) nothing is allocated; a shape change reuses
/// `out`'s storage capacity and only allocates the shape bookkeeping.
///
/// # Errors
///
/// Returns [`NnError::InvalidConfig`] if the range is empty-by-inversion or
/// runs past the first axis.
pub fn copy_batch_into(
    inputs: &Tensor,
    start: usize,
    end: usize,
    out: &mut Tensor,
) -> Result<(), NnError> {
    if inputs.ndim() == 0 || start > end || end > inputs.dims()[0] {
        return Err(NnError::InvalidConfig(format!(
            "batch range {start}..{end} is invalid for an input of shape {:?}",
            inputs.dims()
        )));
    }
    let rows = end - start;
    let chunk: usize = inputs.dims()[1..].iter().product::<usize>().max(1);
    let shape_matches = out.ndim() == inputs.ndim()
        && out.dims()[0] == rows
        && out.dims()[1..] == inputs.dims()[1..];
    if !shape_matches {
        let mut dims = inputs.dims().to_vec();
        dims[0] = rows;
        out.ensure_shape(&dims);
    }
    out.as_mut_slice()
        .copy_from_slice(&inputs.as_slice()[start * chunk..end * chunk]);
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::layers::Linear;
    use crate::optim::Sgd;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn tiny_mlp(seed: u64) -> Network {
        let mut rng = StdRng::seed_from_u64(seed);
        let root = Sequential::new()
            .with(Box::new(Linear::new(2, 8, &mut rng)))
            .with(Box::new(ActivationLayer::relu("h1", &[8])))
            .with(Box::new(Linear::new(8, 2, &mut rng)));
        Network::new("tiny", root)
    }

    /// A linearly separable toy problem: class = (x0 > x1).
    fn toy_data(n: usize, seed: u64) -> (Tensor, Vec<usize>) {
        let mut rng = StdRng::seed_from_u64(seed);
        let inputs = fitact_tensor::init::uniform(&[n, 2], -1.0, 1.0, &mut rng);
        let targets = (0..n)
            .map(|i| {
                let row = &inputs.as_slice()[i * 2..(i + 1) * 2];
                usize::from(row[0] > row[1])
            })
            .collect();
        (inputs, targets)
    }

    #[test]
    fn forward_and_predict_shapes() {
        let mut net = tiny_mlp(0);
        assert_eq!(net.name(), "tiny");
        let y = net.forward(&Tensor::zeros(&[4, 2]), Mode::Eval).unwrap();
        assert_eq!(y.dims(), &[4, 2]);
        assert_eq!(net.predict(&Tensor::zeros(&[4, 2])).unwrap().len(), 4);
    }

    #[test]
    fn param_info_matches_params() {
        let net = tiny_mlp(1);
        let info = net.param_info();
        assert_eq!(info.len(), net.params().len());
        assert_eq!(
            info.iter().map(|i| i.numel).sum::<usize>(),
            net.num_parameters()
        );
        assert!(info.iter().all(|i| i.trainable));
        assert_eq!(info[0].path, "0/weight");
    }

    #[test]
    fn snapshot_restore_roundtrip() {
        let mut net = tiny_mlp(2);
        let snap = net.snapshot();
        // Corrupt every parameter.
        for p in net.params_mut() {
            p.data_mut().fill(99.0);
        }
        assert!(net.params()[0].data().as_slice().iter().all(|&v| v == 99.0));
        net.restore(&snap).unwrap();
        for (p, s) in net.params().iter().zip(&snap) {
            assert_eq!(p.data(), s);
        }
    }

    #[test]
    fn restore_rejects_mismatched_snapshots() {
        let mut net = tiny_mlp(3);
        assert!(net.restore(&[]).is_err());
        let mut snap = net.snapshot();
        snap[0] = Tensor::zeros(&[1]);
        assert!(net.restore(&snap).is_err());
    }

    #[test]
    fn training_learns_separable_toy_problem() {
        let mut net = tiny_mlp(4);
        let (inputs, targets) = toy_data(256, 5);
        let loss = CrossEntropyLoss::new();
        let mut opt = Sgd::with_momentum(0.1, 0.9, 0.0);
        let before = net.evaluate(&inputs, &targets, 64).unwrap();
        for _ in 0..60 {
            net.train_batch(&inputs, &targets, &loss, &mut opt).unwrap();
        }
        let after = net.evaluate(&inputs, &targets, 64).unwrap();
        assert!(after > before.max(0.85), "before {before}, after {after}");
    }

    #[test]
    fn copy_batch_into_matches_row_stacking() {
        let inputs = Tensor::from_vec((0..24).map(|v| v as f32).collect(), &[6, 2, 2]).unwrap();
        let mut out = Tensor::default();
        copy_batch_into(&inputs, 1, 4, &mut out).unwrap();
        let rows: Vec<Tensor> = (1..4).map(|i| inputs.index_axis0(i).unwrap()).collect();
        assert_eq!(out, Tensor::stack(&rows).unwrap());
        // Shrinking to a trailing partial batch reuses the buffer.
        copy_batch_into(&inputs, 4, 6, &mut out).unwrap();
        assert_eq!(out.dims(), &[2, 2, 2]);
        assert_eq!(out.as_slice(), &inputs.as_slice()[16..24]);
        // Invalid ranges are rejected.
        assert!(copy_batch_into(&inputs, 4, 3, &mut out).is_err());
        assert!(copy_batch_into(&inputs, 0, 7, &mut out).is_err());
        assert!(copy_batch_into(&Tensor::scalar(1.0), 0, 0, &mut out).is_err());
    }

    #[test]
    fn network_forward_from_matches_forward_at_every_boundary() {
        let mut net = tiny_mlp(11);
        let (inputs, _) = toy_data(5, 12);
        let mut boundaries = Vec::new();
        let full = net
            .forward_inspect(&inputs, Mode::Eval, &mut |_, t| boundaries.push(t.clone()))
            .unwrap();
        assert_eq!(boundaries.len(), net.depth() + 1);
        for (k, boundary) in boundaries.iter().enumerate() {
            assert_eq!(
                net.forward_from(k, boundary, Mode::Eval).unwrap(),
                full,
                "boundary {k}"
            );
        }
        assert!(net
            .forward_from(net.depth() + 1, &inputs, Mode::Eval)
            .is_err());
    }

    #[test]
    fn evaluate_validates_arguments() {
        let mut net = tiny_mlp(6);
        let x = Tensor::zeros(&[4, 2]);
        assert!(net.evaluate(&x, &[0, 1], 2).is_err());
        assert!(net.evaluate(&x, &[0, 1, 0, 1], 0).is_err());
        assert!(net.evaluate(&x, &[0, 1, 0, 1], 3).is_ok());
    }

    #[test]
    fn zero_grad_clears_gradients() {
        let mut net = tiny_mlp(7);
        let (inputs, targets) = toy_data(8, 8);
        let loss = CrossEntropyLoss::new();
        let logits = net.forward(&inputs, Mode::Train).unwrap();
        let (_, grad) = loss.forward(&logits, &targets).unwrap();
        net.backward(&grad).unwrap();
        assert!(net.params().iter().any(|p| p.grad().sq_norm() > 0.0));
        net.zero_grad();
        assert!(net.params().iter().all(|p| p.grad().sq_norm() == 0.0));
    }

    #[test]
    fn activation_slots_accessible_through_network() {
        let mut net = tiny_mlp(9);
        let slots = net.activation_slots();
        assert_eq!(slots.len(), 1);
        assert_eq!(slots[0].label(), "h1");
    }

    #[test]
    fn clone_is_independent() {
        let mut net = tiny_mlp(10);
        let clone = net.clone();
        for p in net.params_mut() {
            p.data_mut().fill(0.0);
        }
        // The clone keeps its original (non-zero) weights.
        assert!(clone.params().iter().any(|p| p.data().sq_norm() > 0.0));
    }
}
