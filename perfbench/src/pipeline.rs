//! The `pipeline` workload: the paper's two-stage workflow the way
//! `fitact train`, `calibrate` and `protect --post-train-epochs` run it —
//! SGD training, activation calibration, FitAct protection, Adam
//! post-training of the λ bounds, then capture and save of the artifact.
//!
//! The traced run replays the same calls step by step (per-layer forward,
//! loss, per-layer backward, optimizer step, each evaluation) and must
//! produce the same artifact bytes as the untraced public-API run.

use crate::layers::{self, KindTotals};
use crate::{metric, spans, stats, Args, Metric, Outcome};
use fitact::activations::DEFAULT_SLOPE;
use fitact::{apply_protection, ActivationProfiler, FitAct, FitActConfig, ProtectionScheme};
use fitact_data::DataSpec;
use fitact_io::{fingerprint_bytes, ModelArtifact};
use fitact_nn::loss::CrossEntropyLoss;
use fitact_nn::metrics::accuracy;
use fitact_nn::models::{alexnet, vgg16, ModelConfig};
use fitact_nn::optim::{Adam, Optimizer, Sgd};
use fitact_nn::{Mode, Network};
use fitact_tensor::Tensor;
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;
use std::path::Path;
use std::time::Instant;

/// Classes of every synthetic-CIFAR split the benchmark uses.
pub const CLASSES: usize = 10;
/// Width multiplier of the demo models (the CLI's `--width` default).
pub const WIDTH: f32 = 0.0626;
/// Mini-batch size of both stages, calibration and evaluation (CLI default).
pub const BATCH: usize = 32;

/// Training rows of the workload's synthetic-CIFAR split.
const TRAIN_ROWS: usize = 192;
/// Stage-1 epochs (SGD) and stage-2 epochs (Adam on the λ bounds).
const EPOCHS: usize = 2;
const POST_TRAIN_EPOCHS: usize = 2;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Arch {
    AlexNet,
    Vgg16,
}

/// One run of the two-stage workflow.
#[derive(Debug, Clone)]
pub struct Plan {
    pub arch: Arch,
    pub data: DataSpec,
    pub seed: u64,
    pub epochs: usize,
    pub lr: f32,
    pub post_train_epochs: usize,
    /// Round the saved parameters to the Q15.16 grid the fault campaigns
    /// inject into.
    pub quantize: bool,
}

impl Plan {
    fn workload(seed: u64) -> Self {
        Plan {
            arch: Arch::AlexNet,
            data: DataSpec::synthetic_cifar(CLASSES, TRAIN_ROWS, seed),
            seed,
            epochs: EPOCHS,
            lr: 0.01,
            post_train_epochs: POST_TRAIN_EPOCHS,
            quantize: false,
        }
    }

    pub fn build(&self) -> Result<Network, String> {
        let config = ModelConfig::new(self.data.classes)
            .with_width(WIDTH)
            .with_seed(self.seed);
        match self.arch {
            Arch::AlexNet => alexnet(&config),
            Arch::Vgg16 => vgg16(&config),
        }
        .map_err(|e| format!("model build: {e}"))
    }

    fn stage1(&self) -> FitAct {
        FitAct::new(FitActConfig {
            batch_size: BATCH,
            seed: self.seed,
            ..Default::default()
        })
    }

    fn stage2(&self) -> FitActConfig {
        FitActConfig {
            slope: DEFAULT_SLOPE,
            zeta: 0.05,
            delta: 0.05,
            post_train_epochs: self.post_train_epochs,
            post_train_lr: 0.02,
            batch_size: BATCH,
            seed: self.seed,
        }
    }

    fn arch_name(&self) -> &'static str {
        match self.arch {
            Arch::AlexNet => "alexnet",
            Arch::Vgg16 => "vgg16",
        }
    }
}

/// What one pipeline produced.
#[derive(Debug, Clone)]
pub struct Produced {
    pub train_s: f64,
    pub protect_s: f64,
    pub train_accuracy: f32,
    pub final_accuracy: f32,
    pub digest: u64,
    pub artifact_bytes: usize,
    pub steps: u64,
}

fn steps_per_epoch(rows: usize) -> u64 {
    rows.div_ceil(BATCH) as u64
}

/// Captures the protected network with the CLI's metadata and saves it.
fn save_artifact(
    plan: &Plan,
    network: &Network,
    profile: &fitact::ActivationProfile,
    path: &Path,
) -> Result<(u64, usize), String> {
    let scheme = ProtectionScheme::FitAct {
        slope: DEFAULT_SLOPE,
    };
    let mut artifact = ModelArtifact::capture_protected(network, Some(profile), Some(scheme))
        .map_err(|e| format!("capture: {e}"))?;
    for (k, v) in plan.data.to_meta() {
        artifact.set_meta(k, v);
    }
    artifact.set_meta("stage", "protected");
    artifact.set_meta("arch", plan.arch_name());
    artifact.set_meta("scheme", scheme.name());
    artifact.set_meta("precision", "f32");
    artifact.save(path).map_err(|e| format!("save: {e}"))?;
    let bytes = artifact.to_bytes();
    Ok((fingerprint_bytes(&bytes), bytes.len()))
}

/// The workflow through the public calls the CLI makes.
pub fn run_api(
    plan: &Plan,
    mut network: Network,
    inputs: &Tensor,
    targets: &[usize],
    path: &Path,
) -> Result<(Produced, Network), String> {
    let t0 = Instant::now();
    plan.stage1()
        .train_for_accuracy(&mut network, inputs, targets, plan.epochs, plan.lr)
        .map_err(|e| format!("training: {e}"))?;
    let train_accuracy = network
        .evaluate(inputs, targets, BATCH)
        .map_err(|e| format!("evaluation: {e}"))?;
    let train_s = t0.elapsed().as_secs_f64();

    let t1 = Instant::now();
    let profile = ActivationProfiler::new(BATCH)
        .and_then(|p| p.profile(&mut network, inputs))
        .map_err(|e| format!("calibration: {e}"))?;
    let stage2 = plan.stage2();
    apply_protection(
        &mut network,
        &profile,
        ProtectionScheme::FitAct {
            slope: stage2.slope,
        },
    )
    .map_err(|e| format!("protection: {e}"))?;
    let report = FitAct::new(stage2)
        .post_train(&mut network, inputs, targets)
        .map_err(|e| format!("post-training: {e}"))?;
    if plan.quantize {
        fitact_faults::quantize_network(&mut network);
    }
    let (digest, artifact_bytes) = save_artifact(plan, &network, &profile, path)?;
    let protect_s = t1.elapsed().as_secs_f64();
    Ok((
        Produced {
            train_s,
            protect_s,
            train_accuracy,
            final_accuracy: report.final_accuracy,
            digest,
            artifact_bytes,
            steps: steps_per_epoch(targets.len()) * (plan.epochs + report.epochs_run) as u64,
        },
        network,
    ))
}

/// One epoch's shuffled mini-batches, staged like `FitAct`'s epoch loop.
fn epoch_batches(
    inputs: &Tensor,
    targets: &[usize],
    rng: &mut StdRng,
) -> Result<Vec<(Tensor, Vec<usize>)>, String> {
    let mut order: Vec<usize> = (0..targets.len()).collect();
    order.shuffle(rng);
    order
        .chunks(BATCH)
        .map(|chunk| {
            let _span = spans::enter("core.batch", 0);
            let rows: Vec<Tensor> = chunk
                .iter()
                .map(|&i| inputs.index_axis0(i))
                .collect::<Result<_, _>>()
                .map_err(|e| e.to_string())?;
            let labels = chunk.iter().map(|&i| targets[i]).collect();
            Ok((Tensor::stack(&rows).map_err(|e| e.to_string())?, labels))
        })
        .collect()
}

fn evaluate(network: &mut Network, inputs: &Tensor, targets: &[usize]) -> Result<f32, String> {
    let _span = spans::enter("nn.evaluate", 0);
    network
        .evaluate(inputs, targets, BATCH)
        .map_err(|e| format!("evaluation: {e}"))
}

/// Per-step costs of the traced replay.
#[derive(Debug, Default)]
pub struct Replay {
    pub produced: Option<Produced>,
    pub stage1: KindTotals,
    pub stage2: KindTotals,
    pub stage1_steps: u64,
    pub stage2_steps: u64,
    pub evaluations: u64,
    pub post_evaluations: u64,
    pub wall_ns: (u64, u64),
}

/// The same workflow as [`run_api`], one layer call at a time inside spans.
pub fn run_traced(
    plan: &Plan,
    mut network: Network,
    inputs: &Tensor,
    targets: &[usize],
    path: &Path,
) -> Result<Replay, String> {
    let kinds = layers::kinds(&network)?;
    let loss = CrossEntropyLoss::new();
    let mut replay = Replay::default();
    let from = spans::clock_ns();
    let t0 = Instant::now();

    // Stage 1: `FitAct::train_for_accuracy` + the CLI's training-accuracy
    // evaluation.
    let mut sgd = Sgd::with_momentum(plan.lr, 0.9, 5e-4);
    let mut rng = StdRng::seed_from_u64(plan.seed);
    for _ in 0..plan.epochs {
        for (batch, labels) in epoch_batches(inputs, targets, &mut rng)? {
            let id = replay.stage1_steps;
            let _step = spans::enter("bench.step", id);
            spans::timed("nn.zero_grad", id, || network.zero_grad());
            let logits = layers::forward_from(
                &mut network,
                &kinds,
                0,
                &batch,
                Mode::Train,
                id,
                &mut replay.stage1,
            )?;
            let grad = spans::timed("nn.loss", id, || {
                let (_, grad) = loss.forward(&logits, &labels)?;
                accuracy(&logits, &labels)?;
                Ok::<_, fitact_nn::NnError>(grad)
            })
            .map_err(|e| format!("loss: {e}"))?;
            layers::backward(&mut network, &kinds, &grad, id, &mut replay.stage1)?;
            spans::timed("nn.optim", id, || {
                let mut params = network.params_mut();
                sgd.step(&mut params);
            });
            spans::timed("nn.zero_grad", id, || network.zero_grad());
            replay.stage1_steps += 1;
        }
    }
    let train_accuracy = evaluate(&mut network, inputs, targets)?;
    replay.evaluations += 1;
    let train_s = t0.elapsed().as_secs_f64();

    // Stage 2: calibrate → protect → `FitAct::post_train` → capture + save.
    let t1 = Instant::now();
    let profile = spans::timed("core.calibrate", 0, || {
        ActivationProfiler::new(BATCH).and_then(|p| p.profile(&mut network, inputs))
    })
    .map_err(|e| format!("calibration: {e}"))?;
    let config = plan.stage2();
    spans::timed("core.protect", 0, || {
        apply_protection(
            &mut network,
            &profile,
            ProtectionScheme::FitAct {
                slope: config.slope,
            },
        )
    })
    .map_err(|e| format!("protection: {e}"))?;
    let kinds = layers::kinds(&network)?;
    let lambdas: Vec<usize> = network
        .param_info()
        .iter()
        .enumerate()
        .filter(|(_, info)| info.path.ends_with("lambda") && info.trainable)
        .map(|(i, _)| i)
        .collect();
    let neurons: usize = {
        let params = network.params();
        lambdas.iter().map(|&i| params[i].numel()).sum()
    };
    let flags: Vec<bool> = network.params().iter().map(|p| p.trainable()).collect();
    spans::timed("core.freeze", 0, || {
        for (i, p) in network.params_mut().iter_mut().enumerate() {
            if lambdas.contains(&i) {
                p.unfreeze();
            } else {
                p.freeze();
            }
        }
    });
    let initial = evaluate(&mut network, inputs, targets)?;
    replay.post_evaluations += 1;
    let mut adam = Adam::new(config.post_train_lr);
    let mut rng = StdRng::seed_from_u64(config.seed.wrapping_add(1));
    let reg_scale = 2.0 * config.zeta / neurons.max(1) as f32;
    let snapshot = |network: &Network| -> Vec<Tensor> {
        let params = network.params();
        lambdas.iter().map(|&i| params[i].data().clone()).collect()
    };
    let mut best = snapshot(&network);
    let mut epochs_run = 0usize;
    for _ in 0..config.post_train_epochs {
        for (batch, labels) in epoch_batches(inputs, targets, &mut rng)? {
            let id = replay.stage2_steps;
            let _step = spans::enter("bench.post_step", id);
            spans::timed("nn.zero_grad", id, || network.zero_grad());
            let logits = layers::forward_from(
                &mut network,
                &kinds,
                0,
                &batch,
                Mode::Eval,
                id,
                &mut replay.stage2,
            )?;
            let grad = spans::timed("nn.loss", id, || {
                let (_, grad) = loss.forward(&logits, &labels)?;
                accuracy(&logits, &labels)?;
                Ok::<_, fitact_nn::NnError>(grad)
            })
            .map_err(|e| format!("loss: {e}"))?;
            layers::backward(&mut network, &kinds, &grad, id, &mut replay.stage2)?;
            spans::timed("core.regularize", id, || {
                let mut params = network.params_mut();
                for &i in &lambdas {
                    let p = &mut params[i];
                    let data: Vec<f32> = p.data().as_slice().to_vec();
                    for (g, v) in p.grad_mut().as_mut_slice().iter_mut().zip(&data) {
                        *g += reg_scale * v;
                    }
                }
            });
            spans::timed("nn.optim", id, || {
                let mut params = network.params_mut();
                adam.step(&mut params);
            });
            spans::timed("core.clamp", id, || {
                let mut params = network.params_mut();
                for &i in &lambdas {
                    params[i].data_mut().map_in_place(|v| v.max(0.0));
                }
            });
            spans::timed("nn.zero_grad", id, || network.zero_grad());
            replay.stage2_steps += 1;
        }
        epochs_run += 1;
        let current = evaluate(&mut network, inputs, targets)?;
        replay.post_evaluations += 1;
        if initial - current > config.delta {
            let mut params = network.params_mut();
            for (&i, saved) in lambdas.iter().zip(&best) {
                *params[i].data_mut() = saved.clone();
            }
            break;
        }
        best = snapshot(&network);
        evaluate(&mut network, inputs, targets)?;
        replay.post_evaluations += 1;
    }
    let final_accuracy = evaluate(&mut network, inputs, targets)?;
    replay.post_evaluations += 1;
    spans::timed("core.freeze", 0, || {
        for (p, &flag) in network.params_mut().iter_mut().zip(&flags) {
            if flag {
                p.unfreeze();
            } else {
                p.freeze();
            }
        }
    });
    if plan.quantize {
        spans::timed("faults.quantize", 0, || {
            fitact_faults::quantize_network(&mut network)
        });
    }
    let (digest, artifact_bytes) = spans::timed("io.artifact_save", 0, || {
        save_artifact(plan, &network, &profile, path)
    })?;
    let protect_s = t1.elapsed().as_secs_f64();
    replay.wall_ns = (from, spans::clock_ns());
    replay.evaluations += replay.post_evaluations;
    replay.produced = Some(Produced {
        train_s,
        protect_s,
        train_accuracy,
        final_accuracy,
        digest,
        artifact_bytes,
        steps: steps_per_epoch(targets.len()) * (plan.epochs + epochs_run) as u64,
    });
    Ok(replay)
}

/// Materialises the split and builds the model: the workload's set-up.
fn set_up(plan: &Plan) -> Result<(Tensor, Vec<usize>, Network), String> {
    let (inputs, targets) = spans::timed("data.materialize", 0, || plan.data.materialize())
        .map_err(|e| format!("dataset: {e}"))?;
    let network = spans::timed("nn.build", 0, || plan.build())?;
    Ok((inputs, targets, network))
}

/// Reloads the saved artifact and checks it evaluates to the reported
/// post-train accuracy, bit for bit.
fn check_reload(
    path: &Path,
    inputs: &Tensor,
    targets: &[usize],
    expected: f32,
) -> Result<(), String> {
    let mut network = ModelArtifact::load(path)
        .and_then(|a| a.instantiate())
        .map_err(|e| format!("reload of the saved artifact: {e}"))?;
    let got = network
        .evaluate(inputs, targets, BATCH)
        .map_err(|e| format!("evaluation of the reloaded artifact: {e}"))?;
    if got.to_bits() != expected.to_bits() {
        return Err(format!(
            "the saved artifact evaluates to {got}, post-training reported {expected}"
        ));
    }
    Ok(())
}

fn digest_metrics(digest: u64) -> [Metric; 2] {
    [
        metric("artifact_digest_hi", (digest >> 32) as f64, "hash"),
        metric("artifact_digest_lo", (digest & 0xFFFF_FFFF) as f64, "hash"),
    ]
}

pub fn run(args: &Args) -> Result<Outcome, String> {
    let plans: Vec<Plan> = (0..crate::SEEDS_PER_RUN as u64)
        .map(|k| Plan::workload(crate::derive_seed(args.seed, k)))
        .collect();
    let path = crate::out_dir().join("pipeline.fitact");
    std::fs::create_dir_all(crate::out_dir()).map_err(|e| e.to_string())?;
    if args.trace {
        return run_trace(&plans[0], &path);
    }
    // Set-up: every seed's split and model, five times.
    let mut setups = Vec::new();
    let mut data = Vec::new();
    for _ in 0..5 {
        let t0 = Instant::now();
        data = plans
            .iter()
            .map(set_up)
            .collect::<Result<Vec<_>, String>>()?;
        setups.push(t0.elapsed().as_secs_f64());
    }

    let runs = crate::cycle(plans.len(), args.seconds, |k| {
        let (inputs, targets, network) = &data[k];
        let (produced, _) = run_api(&plans[k], network.clone(), inputs, targets, &path)?;
        check_reload(&path, inputs, targets, produced.final_accuracy)?;
        eprintln!(
            "pipeline: seed {}: train {:.3} s, protect {:.3} s",
            plans[k].seed, produced.train_s, produced.protect_s
        );
        Ok(produced)
    })?;
    for (plan, seed_runs) in plans.iter().zip(&runs) {
        if let Some(other) = seed_runs.iter().find(|r| r.digest != seed_runs[0].digest) {
            return Err(format!(
                "seed {}: the same seed saved different artifacts ({:016x} vs {:016x})",
                plan.seed, seed_runs[0].digest, other.digest
            ));
        }
    }
    let train = stats::medians(&runs, |r| r.train_s);
    let protect = stats::medians(&runs, |r| r.protect_s);
    let wait: Vec<f64> = train.iter().zip(&protect).map(|(t, p)| t + p).collect();
    let rows: usize = plans
        .iter()
        .zip(&data)
        .map(|(plan, d)| d.1.len() * plan.epochs)
        .sum();
    let first = &runs[0][0];
    // One digest for the run: the seeds' artifact digests folded in order.
    let digest = runs
        .iter()
        .fold(0u64, |acc, r| acc.rotate_left(7) ^ r[0].digest);
    let mut report = vec![
        metric("train_s", stats::mean(&train), "s"),
        metric("protect_s", stats::mean(&protect), "s"),
        metric("pipeline_seeds", plans.len() as f64, "count"),
        metric(
            "pipelines",
            runs.iter().map(Vec::len).sum::<usize>() as f64,
            "count",
        ),
        metric("train_accuracy", f64::from(first.train_accuracy), "ratio"),
        metric(
            "post_train_accuracy",
            f64::from(first.final_accuracy),
            "ratio",
        ),
        metric("artifact_kb", first.artifact_bytes as f64 / 1024.0, "KB"),
    ];
    report.extend(digest_metrics(digest));
    Ok(Outcome {
        attempted: runs.iter().flatten().map(|r| r.steps).sum(),
        failed: 0,
        end_to_end: vec![
            metric("setup_s", stats::median(&mut setups), "s"),
            metric("peak_rss_mb", crate::peak_rss_mb(), "MB"),
            metric("wait_s", stats::mean(&wait), "s"),
            metric("rate_per_s", rows as f64 / train.iter().sum::<f64>(), "1/s"),
        ],
        per_layer: Vec::new(),
        report,
    })
}

fn run_trace(plan: &Plan, path: &Path) -> Result<Outcome, String> {
    spans::start(0);
    let (inputs, targets, network) = set_up(plan)?;
    let mut all = spans::take();
    // The public calls without spans and the step-by-step replay with
    // them; every pass must save the same artifact, and the last replay's
    // spans give the split.
    let mut digest = None;
    let mut last = None;
    let passes = spans::compare(2, &mut all, |traced| {
        let produced = if traced {
            let replay = run_traced(plan, network.clone(), &inputs, &targets, path)?;
            let produced = replay
                .produced
                .clone()
                .expect("the replay produced an artifact");
            last = Some(replay);
            produced
        } else {
            run_api(plan, network.clone(), &inputs, &targets, path)?.0
        };
        match digest {
            Some(first) if first != produced.digest => Err(format!(
                "a {} pass saved a different artifact ({:016x}) than the first pass ({first:016x})",
                if traced { "traced" } else { "untraced" },
                produced.digest
            )),
            _ => {
                digest = Some(produced.digest);
                Ok(())
            }
        }
    })?;
    let replay = last.expect("the traced passes ran");
    let produced = replay
        .produced
        .clone()
        .expect("the replay produced an artifact");
    check_reload(path, &inputs, &targets, produced.final_accuracy)?;

    spans::start(0);
    let mut protected = ModelArtifact::load(path)
        .and_then(|a| a.instantiate())
        .map_err(|e| e.to_string())?;
    let kinds = layers::kinds(&protected)?;
    let profile = layers::profile(&mut protected, &kinds, &inputs, BATCH, 1.0)?;
    let peak = layers::peak_gflops();
    spans::append(&mut all, &spans::take());
    let table = spans::self_times(&all);
    let get = |name: &str| table.get(name).copied().unwrap_or_default();
    let (from, to) = replay.wall_ns;
    let by_layer = spans::layer_self_ns(&all, from, to);
    let wall_ns = (to - from) as f64;
    let share = |layer: &str| by_layer.get(layer).copied().unwrap_or(0) as f64 / wall_ns;
    let covered: u64 = by_layer.values().sum();
    spans::write(&crate::out_dir().join("spans-pipeline.jsonl"), &all)
        .map_err(|e| e.to_string())?;

    let steps = (replay.stage1_steps + replay.stage2_steps).max(1) as f64;
    let backward_ns: u64 = all
        .iter()
        .filter(|s| s.name.ends_with("_bwd"))
        .map(|s| s.duration_ns())
        .sum();
    let act_bwd_ns = get("core.act_bwd").self_ns;
    let step2 = get("bench.post_step");
    let per_layer = vec![
        metric("tensor.peak_gflops", peak, "GFLOP/s"),
        metric("tensor.conv_gflops", profile.conv_gflops(), "GFLOP/s"),
        metric("tensor.linear_gflops", profile.linear_gflops(), "GFLOP/s"),
        metric("nn.forward_ms", profile.forward_ms(), "ms"),
        metric("nn.conv_ms", profile.conv_ms(), "ms"),
        metric("nn.linear_ms", profile.linear_ms(), "ms"),
        metric("nn.pool_ms", profile.pool_ms(), "ms"),
        metric("nn.norm_ms", profile.norm_ms(), "ms"),
        metric("nn.backward_ms", backward_ns as f64 / steps / 1e6, "ms"),
        metric("nn.optim_us", get("nn.optim").mean(1e3), "us"),
        metric("nn.evaluate_ms", get("nn.evaluate").mean(1e6), "ms"),
        metric("core.act_fwd_ms", profile.act_ms(), "ms"),
        metric("core.act_share", profile.act_share(), "ratio"),
        metric("core.act_bwd_ms", act_bwd_ns as f64 / steps / 1e6, "ms"),
        metric("core.calibrate_ms", get("core.calibrate").mean(1e6), "ms"),
        metric(
            "core.post_train_step_ms",
            step2.total_ns as f64 / step2.count.max(1) as f64 / 1e6,
            "ms",
        ),
        metric(
            "core.post_train_evals",
            replay.post_evaluations as f64,
            "count",
        ),
        metric(
            "io.artifact_save_ms",
            get("io.artifact_save").mean(1e6),
            "ms",
        ),
        metric(
            "io.artifact_kb",
            produced.artifact_bytes as f64 / 1024.0,
            "KB",
        ),
        metric(
            "data.materialize_ms",
            get("data.materialize").mean(1e6),
            "ms",
        ),
        metric("trace.layer_coverage", covered as f64 / wall_ns, "ratio"),
        metric("trace.overhead", passes.overhead(), "ratio"),
        metric("trace.nn_share", share("nn"), "ratio"),
        metric("trace.core_share", share("core"), "ratio"),
        metric("trace.faults_share", share("faults"), "ratio"),
        metric("trace.io_share", share("io"), "ratio"),
        metric("trace.serve_share", share("serve"), "ratio"),
        metric("trace.data_share", share("data"), "ratio"),
    ];
    let mut report = vec![
        metric("train_s", produced.train_s, "s"),
        metric("protect_s", produced.protect_s, "s"),
        metric("untraced_s", passes.untraced_s, "s"),
        metric("traced_s", passes.traced_s, "s"),
        metric("stage1_steps", replay.stage1_steps as f64, "count"),
        metric("stage2_steps", replay.stage2_steps as f64, "count"),
        metric("evaluations", replay.evaluations as f64, "count"),
        metric(
            "post_train_accuracy",
            f64::from(produced.final_accuracy),
            "ratio",
        ),
    ];
    report.extend(digest_metrics(produced.digest));
    Ok(Outcome {
        attempted: replay.stage1_steps + replay.stage2_steps,
        failed: 0,
        end_to_end: Vec::new(),
        per_layer,
        report,
    })
}

/// Rebuilds `perfbench/artifacts/{alexnet,vgg16}_demo.fitact` from their
/// fixed seeds through the same calls the workload makes, and prints each
/// model's fault-free accuracy on the 64-row test split.
pub fn make_artifacts() -> Result<(), String> {
    let models = [
        (
            "alexnet_demo",
            Plan {
                arch: Arch::AlexNet,
                data: DataSpec::synthetic_cifar(CLASSES, 512, 11),
                seed: 3,
                epochs: 8,
                lr: 0.01,
                post_train_epochs: 2,
                quantize: false,
            },
        ),
        (
            "vgg16_demo",
            Plan {
                arch: Arch::Vgg16,
                data: DataSpec::synthetic_cifar(CLASSES, 512, 17),
                seed: 5,
                epochs: 12,
                lr: 0.05,
                post_train_epochs: 2,
                quantize: true,
            },
        ),
    ];
    for (name, plan) in models {
        let (inputs, targets) = plan.data.materialize().map_err(|e| e.to_string())?;
        let path = crate::artifact_path(name);
        let (produced, _) = run_api(&plan, plan.build()?, &inputs, &targets, &path)?;
        let (test_x, test_y) = plan
            .data
            .clone()
            .with_samples(64)
            .test()
            .materialize()
            .map_err(|e| e.to_string())?;
        let mut network = ModelArtifact::load(&path)
            .and_then(|a| a.instantiate())
            .map_err(|e| e.to_string())?;
        let test = network
            .evaluate(&test_x, &test_y, BATCH)
            .map_err(|e| e.to_string())?;
        eprintln!(
            "{name}: train accuracy {:.3}, post-train {:.3}, test {:.3}, {} bytes, digest {:016x}",
            produced.train_accuracy,
            produced.final_accuracy,
            test,
            produced.artifact_bytes,
            produced.digest
        );
    }
    Ok(())
}
