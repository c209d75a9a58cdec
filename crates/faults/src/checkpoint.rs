//! Checkpoint-resumed trial evaluation: cache clean layer activations once,
//! re-execute only the faulted suffix of the network per trial.
//!
//! A fault injected into layer `k` cannot change any activation produced
//! before layer `k`, so a campaign trial does not need to re-run layers
//! `0..k` — their outputs are exactly the fault-free activations. The
//! [`CheckpointCache`] snapshots every top-level layer-boundary activation of
//! the evaluation set once per campaign (one fault-free forward, batched the
//! same way [`Network::evaluate`] batches); each trial then resolves its
//! sampled fault sites to the earliest affected layer (a [`ResumePlan`]) and
//! resumes there via [`Network::forward_from`].
//!
//! The resumed evaluation is **bit-identical** to a full forward of the
//! faulted network: the skipped prefix is deterministic in [`Mode::Infer`]
//! (whose outputs equal [`Mode::Eval`]'s bit for bit) and its parameters are
//! unfaulted by construction, and the suffix, the per-batch accuracy
//! computation and the weighted accuracy accumulation are the very same code
//! paths. Capture and resumed forwards run in [`Mode::Infer`], so no layer
//! copies its input or keeps other backward state along the way. This is
//! pinned by the `checkpoint_identity` regression suite for all four fault
//! models across 1/2/4 worker threads.
//!
//! Cost model: a full-forward campaign is `O(trials × depth)` layer
//! executions; a resumed campaign is `O(depth + trials × suffix)`, where the
//! suffix length is set by where the trial's faults land. The cache itself
//! trades memory for that time — it holds one activation tensor per layer
//! boundary per evaluation batch, captured once (the cold path) and shared
//! read-only by every campaign worker thread afterwards.

use crate::injector::FaultSite;
use crate::model::FaultModel;
use crate::FaultError;
use fitact_nn::metrics::RunningMean;
use fitact_nn::network::copy_batch_into;
use fitact_nn::{Mode, Network, NnError};
use fitact_tensor::Tensor;

/// One evaluation batch's share of the checkpoint cache.
#[derive(Debug)]
struct BatchCheckpoint {
    /// Row range `[start, end)` of the batch within the evaluation set.
    start: usize,
    end: usize,
    /// `boundaries[k]` is the clean activation flowing into top-level layer
    /// `k` for this batch — the tensor [`Network::forward_from`] resumes on.
    boundaries: Vec<Tensor>,
    /// Fault-free top-1 accuracy of the batch (derived from the cached clean
    /// predictions; reused verbatim by trials whose faults affect no layer).
    clean_accuracy: f32,
}

/// Read-only snapshot of the fault-free forward pass over an evaluation set:
/// every top-level layer-boundary activation, per batch, plus the clean
/// per-sample top-1 predictions and the pooled fault-free accuracy.
///
/// Captured once per campaign by [`CheckpointCache::capture`] and shared by
/// reference across all campaign worker threads (the cache is never written
/// after capture, so no synchronisation is needed).
#[derive(Debug)]
pub struct CheckpointCache {
    depth: usize,
    batches: Vec<BatchCheckpoint>,
    clean_predictions: Vec<usize>,
    fault_free_accuracy: f32,
}

impl CheckpointCache {
    /// Runs the fault-free forward over `inputs`/`targets` (batched exactly
    /// like [`Network::evaluate`]) and snapshots every top-level
    /// layer-boundary activation, the per-sample top-1 predictions and the
    /// per-batch clean accuracies.
    ///
    /// The network must already hold the parameter values the campaign's
    /// trials will restore to (its pre-campaign snapshot state); capturing
    /// from a different parameter state breaks the resume invariant of
    /// [`Sequential::forward_from`](fitact_nn::Sequential::forward_from).
    ///
    /// # Errors
    ///
    /// Returns [`FaultError::InvalidConfig`] for a zero batch size or a
    /// target count that does not match `inputs`, and propagates forward-pass
    /// errors.
    pub fn capture(
        network: &mut Network,
        inputs: &Tensor,
        targets: &[usize],
        batch_size: usize,
    ) -> Result<Self, FaultError> {
        if batch_size == 0 {
            return Err(FaultError::InvalidConfig(
                "batch_size must be non-zero".into(),
            ));
        }
        if inputs.ndim() == 0 || inputs.dims()[0] != targets.len() {
            return Err(FaultError::InvalidConfig(format!(
                "inputs have {} samples but {} targets were given",
                inputs.dims().first().copied().unwrap_or(0),
                targets.len()
            )));
        }
        let depth = network.depth();
        let n = targets.len();
        let mut batches = Vec::with_capacity(n.div_ceil(batch_size));
        let mut clean_predictions = Vec::with_capacity(n);
        let mut acc = RunningMean::new();
        let mut staging = Tensor::default();
        let mut start = 0usize;
        while start < n {
            let end = (start + batch_size).min(n);
            copy_batch_into(inputs, start, end, &mut staging)?;
            let mut boundaries: Vec<Tensor> = Vec::with_capacity(depth);
            let logits = network.forward_inspect(&staging, Mode::Infer, &mut |k, t| {
                // The output boundary is summarised by predictions/accuracy
                // below; only the resumable input boundaries are stored.
                if k < depth {
                    boundaries.push(t.clone());
                }
            })?;
            let predictions = logits.argmax_rows().map_err(NnError::from)?;
            let correct = predictions
                .iter()
                .zip(&targets[start..end])
                .filter(|(p, t)| p == t)
                .count();
            // Same expression `fitact_nn::metrics::accuracy` evaluates, so the
            // cached value is bit-identical to a fresh evaluation's.
            let clean_accuracy = correct as f32 / (end - start) as f32;
            clean_predictions.extend(predictions);
            acc.push_weighted(clean_accuracy, end - start);
            batches.push(BatchCheckpoint {
                start,
                end,
                boundaries,
                clean_accuracy,
            });
            start = end;
        }
        Ok(CheckpointCache {
            depth,
            batches,
            clean_predictions,
            fault_free_accuracy: acc.mean(),
        })
    }

    /// Number of top-level layers the checkpoints were captured over.
    pub fn depth(&self) -> usize {
        self.depth
    }

    /// Number of evaluation batches in the cache.
    pub fn num_batches(&self) -> usize {
        self.batches.len()
    }

    /// Fault-free top-1 accuracy over the whole evaluation set — identical to
    /// what [`Network::evaluate`] would report, but obtained from the single
    /// capture pass (the hoisted campaign baseline).
    pub fn fault_free_accuracy(&self) -> f32 {
        self.fault_free_accuracy
    }

    /// Clean top-1 predicted label of every evaluation sample, in dataset
    /// order.
    pub fn clean_predictions(&self) -> &[usize] {
        &self.clean_predictions
    }

    /// Total number of activation scalars held by the cache (diagnostics —
    /// the memory the campaign trades for its depth-proportional speedup).
    pub fn cached_elements(&self) -> usize {
        self.batches
            .iter()
            .map(|b| b.boundaries.iter().map(Tensor::numel).sum::<usize>())
            .sum()
    }

    /// Evaluates the (already faulted) `network` over the evaluation set,
    /// resuming every batch at layer boundary `resume` from the cached clean
    /// activations. `resume == depth` means no layer is affected: the cached
    /// clean per-batch accuracies are reused without touching the network.
    ///
    /// `targets` must be the same slice the cache was captured against.
    ///
    /// # Errors
    ///
    /// Propagates forward-pass errors.
    pub fn evaluate_resumed(
        &self,
        network: &mut Network,
        targets: &[usize],
        resume: usize,
    ) -> Result<f32, FaultError> {
        let mut acc = RunningMean::new();
        for batch in &self.batches {
            let batch_acc = if resume >= self.depth {
                batch.clean_accuracy
            } else {
                let logits =
                    network.forward_from(resume, &batch.boundaries[resume], Mode::Infer)?;
                fitact_nn::metrics::accuracy(&logits, &targets[batch.start..batch.end])?
            };
            acc.push_weighted(batch_acc, batch.end - batch.start);
        }
        Ok(acc.mean())
    }
}

/// Maps a trial's fault sites to the earliest top-level layer they can
/// affect — the boundary [`CheckpointCache::evaluate_resumed`] resumes at.
#[derive(Debug, Clone)]
pub struct ResumePlan {
    /// Top-level layer index of every parameter, indexed by `param_index`
    /// (the first path segment of the parameter's traversal path).
    param_layer: Vec<usize>,
    /// Earliest top-level layer containing an activation slot, or `depth` if
    /// there is none — the floor for datapath (activation-corrupting) models.
    activation_floor: usize,
    depth: usize,
}

impl ResumePlan {
    /// Builds the site→layer resolution table for `network`.
    pub fn of_network(network: &mut Network) -> Self {
        let depth = network.depth();
        let param_layer = network
            .param_info()
            .iter()
            .map(|info| {
                // Paths are rooted at the top-level `Sequential`, so the first
                // segment is the child index ("3/weight", "5/conv/bias", …).
                // Anything unparsable resolves to layer 0: resuming earlier
                // than necessary is always correct, just slower.
                info.path
                    .split('/')
                    .next()
                    .and_then(|s| s.parse().ok())
                    .unwrap_or(0)
            })
            .collect();
        let activation_floor = network.root_mut().first_activation_layer().unwrap_or(depth);
        ResumePlan {
            param_layer,
            activation_floor,
            depth,
        }
    }

    /// Number of top-level layers the plan was built over.
    pub fn depth(&self) -> usize {
        self.depth
    }

    /// The earliest layer boundary a trial of `model` with the given sampled
    /// `sites` can affect.
    ///
    /// Parameter-memory sites resolve through their parameter's layer;
    /// datapath models additionally floor the result at the first layer
    /// holding an activation slot. A trial that affects nothing (no sites, no
    /// datapath corruption) resolves to `depth`, i.e. "reuse the clean
    /// result".
    ///
    /// This relies on the [`FaultModel`] locality contract: an injection only
    /// corrupts the parameters of the layers containing its sites (burst
    /// expansion stays within a site's word, so within its layer) plus, for
    /// datapath models, activation outputs.
    pub fn resume_boundary(&self, model: &dyn FaultModel, sites: &[FaultSite]) -> usize {
        let mut resume = if model.perturbs_activations() {
            self.activation_floor
        } else {
            self.depth
        };
        for site in sites {
            let layer = self.param_layer.get(site.param_index).copied().unwrap_or(0);
            resume = resume.min(layer);
        }
        resume
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::{ActivationBitFlip, TransientBitFlip};
    use fitact_nn::layers::{ActivationLayer, Linear, Sequential};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn small_network() -> Network {
        let mut rng = StdRng::seed_from_u64(0);
        Network::new(
            "mlp",
            Sequential::new()
                .with(Box::new(Linear::new(3, 8, &mut rng)))
                .with(Box::new(ActivationLayer::relu("h", &[8])))
                .with(Box::new(Linear::new(8, 2, &mut rng))),
        )
    }

    fn eval_set(n: usize) -> (Tensor, Vec<usize>) {
        let mut rng = StdRng::seed_from_u64(1);
        let inputs = fitact_tensor::init::uniform(&[n, 3], -1.0, 1.0, &mut rng);
        let targets = (0..n)
            .map(|i| usize::from(inputs.as_slice()[i * 3] > 0.0))
            .collect();
        (inputs, targets)
    }

    #[test]
    fn capture_matches_evaluate_bit_for_bit() {
        let mut net = small_network();
        let (inputs, targets) = eval_set(50);
        // 50 samples at batch 16: three full batches plus a partial one.
        let reference = net.evaluate(&inputs, &targets, 16).unwrap();
        let cache = CheckpointCache::capture(&mut net, &inputs, &targets, 16).unwrap();
        assert_eq!(cache.fault_free_accuracy(), reference);
        assert_eq!(cache.num_batches(), 4);
        assert_eq!(cache.depth(), 3);
        assert_eq!(cache.clean_predictions().len(), 50);
        assert!(cache.cached_elements() > 0);
    }

    #[test]
    fn resumed_evaluation_from_any_boundary_matches_evaluate() {
        let mut net = small_network();
        let (inputs, targets) = eval_set(40);
        let cache = CheckpointCache::capture(&mut net, &inputs, &targets, 16).unwrap();
        // On the clean network every resume boundary reproduces the clean
        // accuracy exactly (the prefix is literally the cached values).
        for resume in 0..=cache.depth() {
            let acc = cache.evaluate_resumed(&mut net, &targets, resume).unwrap();
            assert_eq!(acc, cache.fault_free_accuracy(), "boundary {resume}");
        }
    }

    #[test]
    fn capture_validates_arguments() {
        let mut net = small_network();
        let (inputs, targets) = eval_set(8);
        assert!(CheckpointCache::capture(&mut net, &inputs, &targets, 0).is_err());
        assert!(CheckpointCache::capture(&mut net, &inputs, &targets[..4], 4).is_err());
    }

    #[test]
    fn resume_plan_resolves_sites_to_their_layer() {
        let mut net = small_network();
        let plan = ResumePlan::of_network(&mut net);
        assert_eq!(plan.depth(), 3);
        // Params: 0/weight, 0/bias (layer 0), 2/weight, 2/bias (layer 2).
        let site = |param_index| FaultSite {
            param_index,
            element: 0,
            bit: 0,
        };
        let model = TransientBitFlip;
        assert_eq!(plan.resume_boundary(&model, &[]), 3, "no faults → clean");
        assert_eq!(plan.resume_boundary(&model, &[site(2)]), 2);
        assert_eq!(plan.resume_boundary(&model, &[site(3), site(0)]), 0);
        // Datapath models floor at the first activation slot (layer 1) even
        // with no parameter sites.
        assert_eq!(plan.resume_boundary(&ActivationBitFlip, &[]), 1);
    }
}
