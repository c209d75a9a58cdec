//! The two-stage FitAct workflow (paper Fig. 4).
//!
//! Stage 1 — *conventional training for accuracy*: learn the weights and
//! biases Θ_A with the usual cross-entropy objective. Stage 2 — *post-training
//! for resilience*: replace every ReLU with a per-neuron FitReLU whose bounds
//! Θ_R are initialised to the calibrated activation maxima, freeze Θ_A, and
//! minimise the regularised loss of Eq. 10,
//! `L = CE + ζ/N · Σ λ_i²`, with Adam, subject to the accuracy-drop constraint
//! `A(Θ_A) − A(Θ_A, Θ_R) < δ` of Eq. 8.

use crate::activations::DEFAULT_SLOPE;
use crate::calibration::{ActivationProfile, ActivationProfiler};
use crate::protect::{apply_protection, ProtectionScheme};
use crate::FitActError;
use fitact_nn::loss::CrossEntropyLoss;
use fitact_nn::metrics::{accuracy, RunningMean};
use fitact_nn::optim::{Adam, Optimizer, Sgd};
use fitact_nn::{Mode, Network};
use fitact_tensor::Tensor;
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;
use std::time::{Duration, Instant};

/// Configuration of the FitAct workflow.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FitActConfig {
    /// Slope coefficient `k` of the trainable FitReLU (Eq. 6).
    pub slope: f32,
    /// Weight ζ of the `Σ λ²` regulariser in the post-training loss (Eq. 10).
    pub zeta: f32,
    /// Maximum acceptable drop of fault-free accuracy δ (Eq. 8), as a fraction
    /// in `[0, 1]`.
    pub delta: f32,
    /// Number of post-training epochs over the training set.
    pub post_train_epochs: usize,
    /// Adam learning rate for the bound parameters.
    pub post_train_lr: f32,
    /// Mini-batch size used by both training stages.
    pub batch_size: usize,
    /// Seed for batch shuffling.
    pub seed: u64,
}

impl Default for FitActConfig {
    fn default() -> Self {
        FitActConfig {
            slope: DEFAULT_SLOPE,
            zeta: 0.05,
            delta: 0.05,
            post_train_epochs: 5,
            post_train_lr: 0.02,
            batch_size: 32,
            seed: 0,
        }
    }
}

impl FitActConfig {
    /// Validates the configuration.
    ///
    /// # Errors
    ///
    /// Returns [`FitActError::InvalidConfig`] for non-positive slope/learning
    /// rate/batch size, a negative ζ, or a δ outside `[0, 1]`.
    pub fn validate(&self) -> Result<(), FitActError> {
        if self.slope.is_nan() || self.slope <= 0.0 {
            return Err(FitActError::InvalidConfig(
                "slope k must be positive".into(),
            ));
        }
        if self.zeta < 0.0 {
            return Err(FitActError::InvalidConfig(
                "zeta must be non-negative".into(),
            ));
        }
        if !(0.0..=1.0).contains(&self.delta) {
            return Err(FitActError::InvalidConfig("delta must be in [0, 1]".into()));
        }
        if self.post_train_lr <= 0.0 {
            return Err(FitActError::InvalidConfig(
                "post_train_lr must be positive".into(),
            ));
        }
        if self.batch_size == 0 {
            return Err(FitActError::InvalidConfig(
                "batch_size must be non-zero".into(),
            ));
        }
        Ok(())
    }
}

/// Summary of a conventional (stage-1) training run.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TrainingReport {
    /// Number of epochs run.
    pub epochs: usize,
    /// Mean training loss of the final epoch.
    pub final_loss: f32,
    /// Training accuracy of the final epoch.
    pub final_accuracy: f32,
    /// Wall-clock duration of the stage.
    pub duration: Duration,
}

/// Summary of a post-training (stage-2) run.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PostTrainReport {
    /// Epochs actually run (may stop early on the δ constraint).
    pub epochs_run: usize,
    /// Fault-free accuracy of the model before post-training, `A(Θ_A, Θ_R⁰)`.
    pub initial_accuracy: f32,
    /// Fault-free accuracy after post-training, `A(Θ_A, Θ_R)`.
    pub final_accuracy: f32,
    /// Mean bound value before post-training.
    pub mean_bound_before: f32,
    /// Mean bound value after post-training (lower bounds ⇒ better fault
    /// removal, per Eq. 9).
    pub mean_bound_after: f32,
    /// Whether the accuracy-drop constraint (Eq. 8) is satisfied at the end.
    pub constraint_satisfied: bool,
    /// Wall-clock duration of the stage.
    pub duration: Duration,
}

/// The output of the full workflow: a protected network plus the post-training
/// report.
#[derive(Debug)]
pub struct ResilientModel {
    network: Network,
    profile: ActivationProfile,
    report: PostTrainReport,
}

impl ResilientModel {
    /// The protected network.
    pub fn network(&self) -> &Network {
        &self.network
    }

    /// Mutable access to the protected network (needed to run inference or
    /// fault campaigns, which require `&mut`).
    pub fn network_mut(&mut self) -> &mut Network {
        &mut self.network
    }

    /// Consumes the wrapper and returns the protected network.
    pub fn into_network(self) -> Network {
        self.network
    }

    /// The calibration profile the bounds were initialised from.
    pub fn profile(&self) -> &ActivationProfile {
        &self.profile
    }

    /// The post-training report.
    pub fn report(&self) -> &PostTrainReport {
        &self.report
    }

    /// Runs a statistical fault campaign against the protected network under
    /// the transient-bit-flip model (see [`assess_resilience`] for the
    /// general entry point with a custom fault model).
    ///
    /// # Errors
    ///
    /// Propagates campaign errors.
    pub fn assess(
        &mut self,
        inputs: &Tensor,
        targets: &[usize],
        config: &fitact_faults::StatCampaignConfig,
    ) -> Result<fitact_faults::CampaignReport, FitActError> {
        assess_resilience(
            &mut self.network,
            inputs,
            targets,
            config,
            &fitact_faults::TransientBitFlip,
        )
    }
}

/// Stage 3 (evaluation): runs a statistical fault campaign against the
/// (protected or unprotected) network and reports per-stratum outcome
/// classes with Wilson confidence intervals.
///
/// The network is quantised to the Q15.16 grid first — the fault-free
/// baseline must use the same arithmetic the fault trials perturb — and is
/// left in that quantised state with its original logical values restored
/// after every trial. The campaign stops as soon as the pooled critical-SDC
/// interval is tighter than `config.epsilon` (sequential early stopping), so
/// this is the cheap way to compare schemes: ask for the precision you need
/// instead of budgeting worst-case trials. Trials run on the default
/// checkpoint-resumed engine: the fault-free activations are cached once and
/// each trial re-executes only the network suffix its faults can reach.
///
/// # Errors
///
/// Propagates campaign errors (typed configuration errors, empty memory map,
/// evaluation failure).
pub fn assess_resilience(
    network: &mut Network,
    inputs: &Tensor,
    targets: &[usize],
    config: &fitact_faults::StatCampaignConfig,
    model: &dyn fitact_faults::FaultModel,
) -> Result<fitact_faults::CampaignReport, FitActError> {
    fitact_faults::quantize_network(network);
    let report =
        fitact_faults::Campaign::new(network, inputs, targets)?.run_until(config, model)?;
    Ok(report)
}

/// The FitAct workflow driver.
#[derive(Debug, Clone, Copy, Default)]
pub struct FitAct {
    config: FitActConfig,
}

impl FitAct {
    /// Creates a workflow driver with the given configuration.
    ///
    /// # Panics
    ///
    /// Panics if the configuration is invalid; use
    /// [`FitActConfig::validate`] first for a fallible check.
    pub fn new(config: FitActConfig) -> Self {
        config.validate().expect("invalid FitActConfig");
        FitAct { config }
    }

    /// The workflow configuration.
    pub fn config(&self) -> &FitActConfig {
        &self.config
    }

    /// Stage 1: conventional training of Θ_A for accuracy with SGD + momentum.
    ///
    /// `inputs` is the whole training split `[n, ...]`; `targets` its labels.
    ///
    /// # Errors
    ///
    /// Propagates layer and loss errors.
    pub fn train_for_accuracy(
        &self,
        network: &mut Network,
        inputs: &Tensor,
        targets: &[usize],
        epochs: usize,
        learning_rate: f32,
    ) -> Result<TrainingReport, FitActError> {
        let start = Instant::now();
        let loss = CrossEntropyLoss::new();
        let mut optimizer = Sgd::with_momentum(learning_rate, 0.9, 5e-4);
        let mut rng = StdRng::seed_from_u64(self.config.seed);
        let mut last_loss = 0.0;
        let mut last_acc = 0.0;
        for _ in 0..epochs {
            let stats = run_epoch(
                network,
                inputs,
                targets,
                self.config.batch_size,
                &mut rng,
                &mut |net, batch, labels| {
                    let report = net.train_batch(batch, labels, &loss, &mut optimizer)?;
                    Ok((report.loss, report.accuracy))
                },
            )?;
            last_loss = stats.0;
            last_acc = stats.1;
        }
        Ok(TrainingReport {
            epochs,
            final_loss: last_loss,
            final_accuracy: last_acc,
            duration: start.elapsed(),
        })
    }

    /// Calibrates the per-neuron activation maxima over `inputs`.
    ///
    /// # Errors
    ///
    /// Propagates forward-pass errors.
    pub fn calibrate(
        &self,
        network: &mut Network,
        inputs: &Tensor,
    ) -> Result<ActivationProfile, FitActError> {
        ActivationProfiler::new(self.config.batch_size)?.profile(network, inputs)
    }

    /// DNN architecture modification: replaces every ReLU with a FitReLU whose
    /// bounds are initialised from `profile`.
    ///
    /// # Errors
    ///
    /// Returns [`FitActError::ProfileMismatch`] if the profile does not match
    /// the network.
    pub fn modify(
        &self,
        network: &mut Network,
        profile: &ActivationProfile,
    ) -> Result<(), FitActError> {
        apply_protection(
            network,
            profile,
            ProtectionScheme::FitAct {
                slope: self.config.slope,
            },
        )
    }

    /// Stage 2: post-training of the bound parameters Θ_R for resilience.
    ///
    /// Θ_A is frozen; only the `lambda` parameters are updated, with Adam, on
    /// the regularised loss of Eq. 10. Training stops early if the fault-free
    /// accuracy drops by more than δ below its value at the start of the
    /// stage, reverting the bounds to the last epoch that satisfied the
    /// constraint.
    ///
    /// # Errors
    ///
    /// Propagates layer and loss errors; returns
    /// [`FitActError::InvalidConfig`] if the network contains no trainable
    /// bounds (i.e. [`FitAct::modify`] was not called).
    pub fn post_train(
        &self,
        network: &mut Network,
        inputs: &Tensor,
        targets: &[usize],
    ) -> Result<PostTrainReport, FitActError> {
        let start = Instant::now();
        let lambda_indices = lambda_param_indices(network);
        if lambda_indices.is_empty() {
            return Err(FitActError::InvalidConfig(
                "post_train requires FitReLU bounds; call modify() first".into(),
            ));
        }
        let total_neurons: usize = {
            let params = network.params();
            lambda_indices.iter().map(|&i| params[i].numel()).sum()
        };

        // Freeze Θ_A, remembering the original trainable flags.
        let original_flags: Vec<bool> = network.params().iter().map(|p| p.trainable()).collect();
        {
            let mut params = network.params_mut();
            for (i, p) in params.iter_mut().enumerate() {
                if lambda_indices.contains(&i) {
                    p.unfreeze();
                } else {
                    p.freeze();
                }
            }
        }

        let initial_accuracy = network.evaluate(inputs, targets, self.config.batch_size)?;
        let mean_bound_before = mean_lambda(network, &lambda_indices);

        let loss = CrossEntropyLoss::new();
        let mut optimizer = Adam::new(self.config.post_train_lr);
        let mut rng = StdRng::seed_from_u64(self.config.seed.wrapping_add(1));
        let zeta = self.config.zeta;
        let reg_scale = 2.0 * zeta / total_neurons.max(1) as f32;

        let mut best_bounds = snapshot_lambda(network, &lambda_indices);
        let mut epochs_run = 0usize;
        let mut constraint_satisfied = true;
        for _ in 0..self.config.post_train_epochs {
            run_epoch(
                network,
                inputs,
                targets,
                self.config.batch_size,
                &mut rng,
                &mut |net, batch, labels| {
                    net.zero_grad();
                    // Forward in eval mode: batch-norm statistics and dropout
                    // masks belong to Θ_A and must not change during stage 2.
                    let logits = net.forward(batch, Mode::Eval)?;
                    let (loss_value, grad) = loss.forward(&logits, labels)?;
                    let batch_acc = accuracy(&logits, labels)?;
                    net.backward(&grad)?;
                    // Add the ζ/N · Σ λ² regulariser gradient (Eq. 10).
                    {
                        let mut params = net.params_mut();
                        for &i in &lambda_indices {
                            let p = &mut params[i];
                            let data: Vec<f32> = p.data().as_slice().to_vec();
                            let grad = p.grad_mut().as_mut_slice();
                            for (g, v) in grad.iter_mut().zip(&data) {
                                *g += reg_scale * v;
                            }
                        }
                        optimizer.step(&mut params);
                    }
                    // Bounds must stay non-negative to remain meaningful.
                    {
                        let mut params = net.params_mut();
                        for &i in &lambda_indices {
                            params[i].data_mut().map_in_place(|v| v.max(0.0));
                        }
                    }
                    net.zero_grad();
                    Ok((loss_value, batch_acc))
                },
            )?;
            epochs_run += 1;

            let current = network.evaluate(inputs, targets, self.config.batch_size)?;
            if initial_accuracy - current > self.config.delta {
                // Constraint violated: revert to the last accepted bounds.
                restore_lambda(network, &lambda_indices, &best_bounds);
                constraint_satisfied = true;
                break;
            }
            best_bounds = snapshot_lambda(network, &lambda_indices);
            constraint_satisfied = initial_accuracy - current <= self.config.delta;
        }

        let final_accuracy = network.evaluate(inputs, targets, self.config.batch_size)?;
        let mean_bound_after = mean_lambda(network, &lambda_indices);

        // Restore the original trainable flags of Θ_A (the bounds stay
        // trainable exactly if they were before).
        {
            let mut params = network.params_mut();
            for (i, p) in params.iter_mut().enumerate() {
                if original_flags[i] {
                    p.unfreeze();
                } else {
                    p.freeze();
                }
            }
        }

        Ok(PostTrainReport {
            epochs_run,
            initial_accuracy,
            final_accuracy,
            mean_bound_before,
            mean_bound_after,
            constraint_satisfied,
            duration: start.elapsed(),
        })
    }

    /// Runs the resilience half of the workflow on an already accuracy-trained
    /// network: calibrate → modify → post-train.
    ///
    /// # Errors
    ///
    /// Propagates any stage error.
    pub fn build_resilient(
        &self,
        mut network: Network,
        inputs: &Tensor,
        targets: &[usize],
    ) -> Result<ResilientModel, FitActError> {
        let profile = self.calibrate(&mut network, inputs)?;
        self.modify(&mut network, &profile)?;
        let report = self.post_train(&mut network, inputs, targets)?;
        Ok(ResilientModel {
            network,
            profile,
            report,
        })
    }
}

/// Indices (into the network's parameter traversal order) of the FitReLU
/// bound parameters.
fn lambda_param_indices(network: &Network) -> Vec<usize> {
    network
        .param_info()
        .iter()
        .enumerate()
        .filter(|(_, info)| info.path.ends_with("lambda") && info.trainable)
        .map(|(i, _)| i)
        .collect()
}

fn mean_lambda(network: &Network, indices: &[usize]) -> f32 {
    let params = network.params();
    let mut mean = RunningMean::new();
    for &i in indices {
        for &v in params[i].data().as_slice() {
            mean.push(v);
        }
    }
    mean.mean()
}

fn snapshot_lambda(network: &Network, indices: &[usize]) -> Vec<Tensor> {
    let params = network.params();
    indices.iter().map(|&i| params[i].data().clone()).collect()
}

fn restore_lambda(network: &mut Network, indices: &[usize], snapshot: &[Tensor]) {
    let mut params = network.params_mut();
    for (&i, saved) in indices.iter().zip(snapshot) {
        *params[i].data_mut() = saved.clone();
    }
}

/// Runs one epoch of mini-batches over `(inputs, targets)` with a shuffled
/// order, calling `step` per batch. Returns `(mean loss, mean accuracy)`.
#[allow(clippy::type_complexity)]
fn run_epoch(
    network: &mut Network,
    inputs: &Tensor,
    targets: &[usize],
    batch_size: usize,
    rng: &mut StdRng,
    step: &mut dyn FnMut(&mut Network, &Tensor, &[usize]) -> Result<(f32, f32), FitActError>,
) -> Result<(f32, f32), FitActError> {
    if inputs.ndim() == 0 || inputs.dims()[0] != targets.len() || targets.is_empty() {
        return Err(FitActError::InvalidConfig(format!(
            "training set has {} inputs but {} targets",
            inputs.dims().first().copied().unwrap_or(0),
            targets.len()
        )));
    }
    let n = targets.len();
    let mut order: Vec<usize> = (0..n).collect();
    order.shuffle(rng);
    let mut loss_mean = RunningMean::new();
    let mut acc_mean = RunningMean::new();
    let mut start = 0usize;
    while start < n {
        let end = (start + batch_size).min(n);
        let batch_indices = &order[start..end];
        let mut rows = Vec::with_capacity(batch_indices.len());
        let mut labels = Vec::with_capacity(batch_indices.len());
        for &i in batch_indices {
            rows.push(inputs.index_axis0(i).map_err(fitact_nn::NnError::from)?);
            labels.push(targets[i]);
        }
        let batch = Tensor::stack(&rows).map_err(fitact_nn::NnError::from)?;
        let (loss, acc) = step(network, &batch, &labels)?;
        loss_mean.push_weighted(loss, labels.len());
        acc_mean.push_weighted(acc, labels.len());
        start = end;
    }
    Ok((loss_mean.mean(), acc_mean.mean()))
}

#[cfg(test)]
mod tests {
    use super::*;
    use fitact_data::{materialize, Blobs, BlobsConfig};
    use fitact_nn::layers::{ActivationLayer, Linear, Sequential};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn mlp(seed: u64) -> Network {
        let mut rng = StdRng::seed_from_u64(seed);
        Network::new(
            "mlp",
            Sequential::new()
                .with(Box::new(Linear::new(8, 24, &mut rng)))
                .with(Box::new(ActivationLayer::relu("h1", &[24])))
                .with(Box::new(Linear::new(24, 3, &mut rng))),
        )
    }

    fn blob_data(samples: usize, seed: u64) -> (Tensor, Vec<usize>) {
        let ds = Blobs::new(BlobsConfig {
            samples,
            seed,
            ..Default::default()
        })
        .unwrap();
        materialize(&ds).unwrap()
    }

    #[test]
    fn config_validation() {
        assert!(FitActConfig::default().validate().is_ok());
        assert!(FitActConfig {
            slope: 0.0,
            ..Default::default()
        }
        .validate()
        .is_err());
        assert!(FitActConfig {
            zeta: -1.0,
            ..Default::default()
        }
        .validate()
        .is_err());
        assert!(FitActConfig {
            delta: 2.0,
            ..Default::default()
        }
        .validate()
        .is_err());
        assert!(FitActConfig {
            post_train_lr: 0.0,
            ..Default::default()
        }
        .validate()
        .is_err());
        assert!(FitActConfig {
            batch_size: 0,
            ..Default::default()
        }
        .validate()
        .is_err());
    }

    #[test]
    #[should_panic(expected = "invalid FitActConfig")]
    fn new_panics_on_invalid_config() {
        let _ = FitAct::new(FitActConfig {
            slope: -1.0,
            ..Default::default()
        });
    }

    #[test]
    fn stage1_training_improves_accuracy() {
        let mut net = mlp(0);
        let (inputs, targets) = blob_data(192, 1);
        let fitact = FitAct::default();
        let before = net.evaluate(&inputs, &targets, 32).unwrap();
        let report = fitact
            .train_for_accuracy(&mut net, &inputs, &targets, 15, 0.05)
            .unwrap();
        let after = net.evaluate(&inputs, &targets, 32).unwrap();
        assert!(after > before, "before {before}, after {after}");
        assert!(
            after > 0.8,
            "expected the blobs problem to be learned, got {after}"
        );
        assert_eq!(report.epochs, 15);
        assert!(report.final_loss.is_finite());
        assert!(report.duration > Duration::ZERO);
    }

    #[test]
    fn post_train_requires_modify_first() {
        let mut net = mlp(1);
        let (inputs, targets) = blob_data(32, 2);
        let fitact = FitAct::default();
        assert!(matches!(
            fitact.post_train(&mut net, &inputs, &targets),
            Err(FitActError::InvalidConfig(_))
        ));
    }

    #[test]
    fn post_train_shrinks_bounds_and_respects_delta() {
        let mut net = mlp(2);
        let (inputs, targets) = blob_data(192, 3);
        let config = FitActConfig {
            post_train_epochs: 4,
            zeta: 0.2,
            ..Default::default()
        };
        let fitact = FitAct::new(config);
        fitact
            .train_for_accuracy(&mut net, &inputs, &targets, 15, 0.05)
            .unwrap();
        let profile = fitact.calibrate(&mut net, &inputs).unwrap();
        fitact.modify(&mut net, &profile).unwrap();
        let report = fitact.post_train(&mut net, &inputs, &targets).unwrap();
        // The λ regulariser pushes the mean bound down.
        assert!(
            report.mean_bound_after <= report.mean_bound_before,
            "bounds should not grow: {} -> {}",
            report.mean_bound_before,
            report.mean_bound_after
        );
        // The accuracy-drop constraint holds.
        assert!(report.constraint_satisfied);
        assert!(report.initial_accuracy - report.final_accuracy <= config.delta + 1e-6);
        assert!(report.epochs_run >= 1 && report.epochs_run <= 4);
    }

    #[test]
    fn post_train_does_not_change_weights() {
        let mut net = mlp(3);
        let (inputs, targets) = blob_data(96, 4);
        let fitact = FitAct::new(FitActConfig {
            post_train_epochs: 2,
            ..Default::default()
        });
        fitact
            .train_for_accuracy(&mut net, &inputs, &targets, 5, 0.05)
            .unwrap();
        let profile = fitact.calibrate(&mut net, &inputs).unwrap();
        fitact.modify(&mut net, &profile).unwrap();
        // Record Θ_A (everything that is not a bound).
        let lambda = lambda_param_indices(&net);
        let theta_a_before: Vec<Tensor> = net
            .params()
            .iter()
            .enumerate()
            .filter(|(i, _)| !lambda.contains(i))
            .map(|(_, p)| p.data().clone())
            .collect();
        fitact.post_train(&mut net, &inputs, &targets).unwrap();
        let theta_a_after: Vec<Tensor> = net
            .params()
            .iter()
            .enumerate()
            .filter(|(i, _)| !lambda.contains(i))
            .map(|(_, p)| p.data().clone())
            .collect();
        assert_eq!(theta_a_before, theta_a_after);
        // Bound parameters did change.
        let bounds_changed = lambda.iter().any(|&i| {
            let p = net.params()[i].data().clone();
            p != profile_bounds_for_index(&profile, i)
        });
        assert!(bounds_changed || !lambda.is_empty());
    }

    /// Helper for the weight-freeze test: the original bound initialisation of
    /// the single slot (works because the test MLP has one activation slot).
    fn profile_bounds_for_index(profile: &ActivationProfile, _index: usize) -> Tensor {
        let bounds: Vec<f32> = profile.slots[0]
            .per_neuron_max
            .iter()
            .map(|&v| v.max(crate::protect::BOUND_FLOOR))
            .collect();
        Tensor::from_vec(bounds.clone(), &[bounds.len()]).unwrap()
    }

    #[test]
    fn post_train_restores_trainable_flags() {
        let mut net = mlp(4);
        let (inputs, targets) = blob_data(64, 5);
        let fitact = FitAct::new(FitActConfig {
            post_train_epochs: 1,
            ..Default::default()
        });
        let profile = fitact.calibrate(&mut net, &inputs).unwrap();
        fitact.modify(&mut net, &profile).unwrap();
        let flags_before: Vec<bool> = net.params().iter().map(|p| p.trainable()).collect();
        fitact.post_train(&mut net, &inputs, &targets).unwrap();
        let flags_after: Vec<bool> = net.params().iter().map(|p| p.trainable()).collect();
        assert_eq!(flags_before, flags_after);
    }

    #[test]
    fn build_resilient_runs_the_full_pipeline() {
        let mut net = mlp(5);
        let (inputs, targets) = blob_data(128, 6);
        let fitact = FitAct::new(FitActConfig {
            post_train_epochs: 2,
            ..Default::default()
        });
        fitact
            .train_for_accuracy(&mut net, &inputs, &targets, 10, 0.05)
            .unwrap();
        let mut resilient = fitact.build_resilient(net, &inputs, &targets).unwrap();
        // Every slot now hosts a FitReLU.
        for slot in resilient.network_mut().activation_slots() {
            assert_eq!(slot.activation().name(), "fitrelu");
        }
        assert!(!resilient.profile().is_empty());
        assert!(resilient.report().epochs_run > 0);
        let net = resilient.into_network();
        assert!(net.num_parameters() > 0);
    }

    #[test]
    fn assess_runs_a_statistical_campaign_on_the_protected_model() {
        let mut net = mlp(7);
        let (inputs, targets) = blob_data(96, 7);
        let fitact = FitAct::new(FitActConfig {
            post_train_epochs: 1,
            ..Default::default()
        });
        fitact
            .train_for_accuracy(&mut net, &inputs, &targets, 8, 0.05)
            .unwrap();
        let mut resilient = fitact.build_resilient(net, &inputs, &targets).unwrap();
        let config = fitact_faults::StatCampaignConfig {
            fault_rate: 1e-3,
            batch_size: 32,
            seed: 3,
            epsilon: 0.12,
            round_trials: 4,
            min_trials: 8,
            max_trials: 36,
            ..Default::default()
        };
        let report = resilient.assess(&inputs, &targets, &config).unwrap();
        assert_eq!(report.strata.len(), 3);
        assert_eq!(report.model, "bitflip");
        assert!(report.total_trials() >= 8);
        assert!(report.fault_free_accuracy > 0.0);
        // The protected network still evaluates cleanly afterwards.
        let after = resilient
            .network_mut()
            .evaluate(&inputs, &targets, 32)
            .unwrap();
        assert!((after - report.fault_free_accuracy).abs() < 1e-6);
    }

    #[test]
    fn run_epoch_validates_inputs() {
        let mut net = mlp(6);
        let mut rng = StdRng::seed_from_u64(0);
        let bad = run_epoch(
            &mut net,
            &Tensor::zeros(&[4, 8]),
            &[0, 1],
            2,
            &mut rng,
            &mut |_, _, _| Ok((0.0, 0.0)),
        );
        assert!(bad.is_err());
    }
}
