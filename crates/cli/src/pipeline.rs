//! The artifact-composed pipeline stages:
//! `train → calibrate → protect → campaign`, plus `inspect`.
//!
//! Every stage reads and/or writes a [`ModelArtifact`] and prints one JSON
//! object to stdout, so stages compose through the filesystem and CI can
//! gate on the reports. Dataset provenance travels inside the artifact as
//! [`DataSpec`] metadata: a later stage rematerialises exactly the split the
//! earlier stage used, without shipping tensors.

use crate::args::Args;
use crate::signals;
use crate::CliError;
use fitact::{apply_protection, ActivationProfiler, FitAct, FitActConfig, ProtectionScheme};
use fitact_data::DataSpec;
use fitact_faults::{
    quantize_network, Campaign, CampaignControl, FaultModel, RunOutcome, StatCampaignConfig,
    TransientBitFlip,
};
use fitact_io::{fingerprint_bytes, CampaignCheckpoint, JsonValue, ModelArtifact};
use fitact_nn::layers::{ActivationLayer, Flatten, Linear, Sequential};
use fitact_nn::models::{alexnet, ModelConfig};
use fitact_nn::Network;
use fitact_serve::{Coordinator, CoordinatorConfig, WorkerConfig};
use fitact_tensor::Tensor;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::path::PathBuf;
use std::sync::atomic::Ordering;
use std::sync::Arc;
use std::time::Duration;

/// Metadata key recording the last pipeline stage applied to an artifact.
const META_STAGE: &str = "stage";
/// Metadata key recording the architecture name.
const META_ARCH: &str = "arch";

/// The flags `fitact train` accepts (pinned against `help::TRAIN`).
pub const TRAIN_FLAGS: &[&str] = &[
    "out",
    "dataset",
    "classes",
    "samples",
    "data-seed",
    "arch",
    "hidden",
    "width",
    "epochs",
    "lr",
    "batch-size",
    "seed",
];

/// The flags `fitact calibrate` accepts (pinned against `help::CALIBRATE`).
pub const CALIBRATE_FLAGS: &[&str] = &["model", "out", "samples", "batch-size", "test-split"];

/// The flags `fitact protect` accepts (pinned against `help::PROTECT`).
pub const PROTECT_FLAGS: &[&str] = &[
    "model",
    "out",
    "scheme",
    "slope",
    "post-train-epochs",
    "zeta",
    "delta",
    "lr",
    "batch-size",
    "samples",
    "test-split",
    "seed",
    "precision",
];

/// The flags `fitact campaign` accepts (pinned against `help::CAMPAIGN`).
pub const CAMPAIGN_FLAGS: &[&str] = &[
    "model",
    "out",
    "fault-rate",
    "epsilon",
    "confidence",
    "critical-threshold",
    "round-trials",
    "min-trials",
    "max-trials",
    "allocation",
    "floor-trials",
    "seed",
    "samples",
    "batch-size",
    "test-split",
    "checkpoint",
    "distributed",
    "listen",
    "unit-trials",
    "lease-ms",
    "local-execute",
    "worker",
    "coordinator",
    "worker-id",
];

/// The flags `fitact inspect` accepts (pinned against `help::INSPECT`).
pub const INSPECT_FLAGS: &[&str] = &["model"];

fn load_artifact(path: &str) -> Result<ModelArtifact, CliError> {
    ModelArtifact::load(path)
        .map_err(|e| CliError::from(format!("cannot load artifact `{path}`: {e}")))
}

/// Reconstructs the dataset spec from artifact metadata, with CLI overrides.
fn data_spec(artifact: &ModelArtifact, args: &Args) -> Result<DataSpec, CliError> {
    let mut spec = DataSpec::from_meta(|k| artifact.meta(k)).ok_or_else(|| {
        "artifact carries no dataset metadata; it was not produced by `fitact train`".to_string()
    })?;
    if let Some(samples) = args.parse_opt::<usize>("samples")? {
        spec = spec.with_samples(samples);
    }
    if args.parse_or("test-split", false)? {
        spec = spec.test();
    }
    Ok(spec)
}

fn materialize(spec: &DataSpec) -> Result<(Tensor, Vec<usize>), CliError> {
    spec.materialize()
        .map_err(|e| CliError::from(format!("dataset generation failed: {e}")))
}

fn parse_scheme(name: &str, slope: f32) -> Result<ProtectionScheme, CliError> {
    match name {
        "unprotected" => Ok(ProtectionScheme::Unprotected),
        "ranger" => Ok(ProtectionScheme::Ranger),
        "clipact" => Ok(ProtectionScheme::ClipAct),
        "clipact-per-channel" => Ok(ProtectionScheme::ClipActPerChannel),
        "fitact" => Ok(ProtectionScheme::FitAct { slope }),
        "fitact-naive" => Ok(ProtectionScheme::FitActNaive),
        other => Err(CliError::from(format!(
            "unknown protection scheme `{other}` (expected unprotected, ranger, clipact, \
             clipact-per-channel, fitact or fitact-naive)"
        ))),
    }
}

/// Builds the requested architecture for the dataset's input shape.
fn build_network(
    arch: &str,
    data: &DataSpec,
    hidden: usize,
    width: f32,
    seed: u64,
) -> Result<Network, CliError> {
    match arch {
        "mlp" => {
            let features: usize = data.input_shape().iter().product();
            let mut rng = StdRng::seed_from_u64(seed);
            Ok(Network::new(
                "mlp",
                Sequential::new()
                    .with(Box::new(Flatten::new()))
                    .with(Box::new(Linear::new(features, hidden, &mut rng)))
                    .with(Box::new(ActivationLayer::relu("h1", &[hidden])))
                    .with(Box::new(Linear::new(hidden, data.classes, &mut rng))),
            ))
        }
        "alexnet" => {
            if data.input_shape() != vec![3, 32, 32] {
                return Err(CliError::from(
                    "arch `alexnet` requires --dataset synthetic-cifar",
                ));
            }
            alexnet(
                &ModelConfig::new(data.classes)
                    .with_width(width)
                    .with_seed(seed),
            )
            .map_err(|e| CliError::from(format!("cannot build alexnet: {e}")))
        }
        other => Err(CliError::from(format!(
            "unknown arch `{other}` (expected mlp or alexnet)"
        ))),
    }
}

/// `fitact train`: stage-1 accuracy training on a synthetic dataset, saved
/// as a fresh artifact.
pub fn train(raw: &[String]) -> Result<JsonValue, CliError> {
    let args = Args::parse(raw, TRAIN_FLAGS)?;
    let out = args.required("out")?;
    let dataset = args.get("dataset").unwrap_or("blobs");
    let classes = args.parse_or("classes", 3usize)?;
    let samples = args.parse_or("samples", 256usize)?;
    let data_seed = args.parse_or("data-seed", 1u64)?;
    let spec = match dataset {
        "blobs" => DataSpec::blobs(classes, samples, data_seed),
        "synthetic-cifar" => DataSpec::synthetic_cifar(classes, samples, data_seed),
        other => return Err(CliError::from(format!("unknown dataset `{other}`"))),
    };
    let arch = args.get("arch").unwrap_or("mlp");
    let hidden = args.parse_or("hidden", 32usize)?;
    let width = args.parse_or("width", 0.0626f32)?;
    let epochs = args.parse_or("epochs", 15usize)?;
    let lr = args.parse_or("lr", 0.05f32)?;
    let batch_size = args.parse_or("batch-size", 32usize)?;
    let seed = args.parse_or("seed", 0u64)?;

    let (inputs, targets) = materialize(&spec)?;
    let mut network = build_network(arch, &spec, hidden, width, seed)?;
    let fitact = FitAct::new(FitActConfig {
        batch_size,
        seed,
        ..Default::default()
    });
    let report = fitact
        .train_for_accuracy(&mut network, &inputs, &targets, epochs, lr)
        .map_err(|e| format!("training failed: {e}"))?;
    let accuracy = network
        .evaluate(&inputs, &targets, batch_size)
        .map_err(|e| format!("evaluation failed: {e}"))?;

    let mut artifact = ModelArtifact::capture(&network)
        .map_err(|e| format!("cannot capture the trained network: {e}"))?;
    for (k, v) in spec.to_meta() {
        artifact.set_meta(k, v);
    }
    artifact.set_meta(META_STAGE, "trained");
    artifact.set_meta(META_ARCH, arch);
    artifact
        .save(out)
        .map_err(|e| format!("cannot save `{out}`: {e}"))?;

    Ok(JsonValue::object([
        ("command", "train".into()),
        ("out", out.into()),
        ("arch", arch.into()),
        ("dataset", dataset.into()),
        ("epochs", epochs.into()),
        ("final_loss", report.final_loss.into()),
        ("train_accuracy", accuracy.into()),
        ("num_parameters", artifact.num_parameters().into()),
    ]))
}

/// `fitact calibrate`: profiles per-neuron activation maxima over the
/// training split and embeds the profile in the artifact.
pub fn calibrate(raw: &[String]) -> Result<JsonValue, CliError> {
    let args = Args::parse(raw, CALIBRATE_FLAGS)?;
    let model = args.required("model")?;
    let out = args.get("out").unwrap_or(model);
    let batch_size = args.parse_or("batch-size", 32usize)?;

    let mut artifact = load_artifact(model)?;
    let spec = data_spec(&artifact, &args)?;
    let (inputs, _) = materialize(&spec)?;
    let mut network = artifact
        .instantiate()
        .map_err(|e| format!("cannot instantiate `{model}`: {e}"))?;
    let profile = ActivationProfiler::new(batch_size)
        .and_then(|p| p.profile(&mut network, &inputs))
        .map_err(|e| format!("calibration failed: {e}"))?;

    let slots: Vec<JsonValue> = profile
        .slots
        .iter()
        .map(|s| {
            JsonValue::object([
                ("label", s.label.as_str().into()),
                ("neurons", s.num_neurons().into()),
                ("layer_max", s.layer_max.into()),
            ])
        })
        .collect();
    let total_neurons = profile.total_neurons();
    artifact.profile = Some(profile);
    artifact.set_meta(META_STAGE, "calibrated");
    artifact
        .save(out)
        .map_err(|e| format!("cannot save `{out}`: {e}"))?;

    Ok(JsonValue::object([
        ("command", "calibrate".into()),
        ("model", model.into()),
        ("out", out.into()),
        ("calibration_samples", spec.samples.into()),
        ("total_neurons", total_neurons.into()),
        ("slots", JsonValue::Array(slots)),
    ]))
}

/// `fitact protect`: applies a protection scheme (and optionally the FitAct
/// bound post-training stage) using the artifact's embedded profile.
pub fn protect(raw: &[String]) -> Result<JsonValue, CliError> {
    let args = Args::parse(raw, PROTECT_FLAGS)?;
    let model = args.required("model")?;
    let out = args.required("out")?;
    let slope = args.parse_or("slope", fitact::activations::DEFAULT_SLOPE)?;
    let scheme = parse_scheme(args.get("scheme").unwrap_or("fitact"), slope)?;
    let post_train_epochs = args.parse_or("post-train-epochs", 0usize)?;
    let batch_size = args.parse_or("batch-size", 32usize)?;

    let artifact = load_artifact(model)?;
    let profile = artifact.profile.clone().ok_or_else(|| {
        format!("artifact `{model}` has no calibration profile; run `fitact calibrate` first")
    })?;
    let mut network = artifact
        .instantiate()
        .map_err(|e| format!("cannot instantiate `{model}`: {e}"))?;
    apply_protection(&mut network, &profile, scheme)
        .map_err(|e| format!("cannot apply protection: {e}"))?;

    let mut post_train = JsonValue::Null;
    if post_train_epochs > 0 {
        if !matches!(scheme, ProtectionScheme::FitAct { .. }) {
            return Err("only --scheme fitact has trainable bounds to post-train".into());
        }
        let spec = data_spec(&artifact, &args)?;
        let (inputs, targets) = materialize(&spec)?;
        let fitact = FitAct::new(FitActConfig {
            slope,
            zeta: args.parse_or("zeta", 0.05f32)?,
            delta: args.parse_or("delta", 0.05f32)?,
            post_train_epochs,
            post_train_lr: args.parse_or("lr", 0.02f32)?,
            batch_size,
            seed: args.parse_or("seed", 0u64)?,
        });
        let report = fitact
            .post_train(&mut network, &inputs, &targets)
            .map_err(|e| format!("post-training failed: {e}"))?;
        post_train = JsonValue::object([
            ("epochs_run", report.epochs_run.into()),
            ("initial_accuracy", report.initial_accuracy.into()),
            ("final_accuracy", report.final_accuracy.into()),
            ("mean_bound_before", report.mean_bound_before.into()),
            ("mean_bound_after", report.mean_bound_after.into()),
            ("constraint_satisfied", report.constraint_satisfied.into()),
        ]);
    }

    // Quantisation comes last: bound post-training needs f32 gradients, and
    // the artifact then stores (and every later stage computes in) the
    // reduced encoding.
    let precision = match args.get("precision") {
        None => fitact_tensor::Precision::F32,
        Some(text) => fitact_tensor::Precision::parse(text).ok_or_else(|| {
            CliError::from(format!(
                "flag `--precision`: unknown precision `{text}` (expected f32, f16 or int8)"
            ))
        })?,
    };
    network.quantize_to(precision);

    let mut protected = ModelArtifact::capture_protected(&network, Some(&profile), Some(scheme))
        .map_err(|e| format!("cannot capture the protected network: {e}"))?;
    protected.meta = artifact.meta.clone();
    protected.set_meta(META_STAGE, "protected");
    protected.set_meta("scheme", scheme.name());
    protected.set_meta("precision", precision.name());
    protected
        .save(out)
        .map_err(|e| format!("cannot save `{out}`: {e}"))?;

    Ok(JsonValue::object([
        ("command", "protect".into()),
        ("model", model.into()),
        ("out", out.into()),
        ("scheme", scheme.name().into()),
        ("precision", precision.name().into()),
        ("num_parameters", protected.num_parameters().into()),
        ("post_train", post_train),
    ]))
}

/// The worker-thread count for campaign execution (results are bit-identical
/// at any count; this only sets throughput).
fn default_threads() -> usize {
    std::thread::available_parallelism()
        .map(|p| p.get())
        .unwrap_or(1)
}

/// The statistical campaign configuration from CLI flags.
fn campaign_config(args: &Args) -> Result<StatCampaignConfig, CliError> {
    let name = args.get("allocation").unwrap_or("equal");
    let allocation = fitact_faults::AllocationPolicy::parse(name).ok_or_else(|| {
        format!("unknown allocation policy `{name}` (expected `equal` or `neyman`)")
    })?;
    Ok(StatCampaignConfig {
        fault_rate: args.parse_or("fault-rate", 1e-3f64)?,
        batch_size: args.parse_or("batch-size", 32usize)?,
        seed: args.parse_or("seed", 0u64)?,
        epsilon: args.parse_or("epsilon", 0.05f64)?,
        confidence: args.parse_or("confidence", 0.95f64)?,
        critical_threshold: args.parse_or("critical-threshold", 0.05f32)?,
        round_trials: args.parse_or("round-trials", 8usize)?,
        min_trials: args.parse_or("min-trials", 24usize)?,
        max_trials: args.parse_or("max-trials", 256usize)?,
        allocation,
        floor_trials: args.parse_or("floor-trials", 1usize)?,
        ..Default::default()
    })
}

/// The campaign result object shared by the single-process and coordinator
/// paths — identical shape so reports diff cleanly across modes.
fn campaign_result(
    args: &Args,
    model: &str,
    network_name: &str,
    scheme: Option<&'static str>,
    eval_samples: usize,
    report: &fitact_faults::CampaignReport,
) -> Result<JsonValue, CliError> {
    let result = JsonValue::object([
        ("command", "campaign".into()),
        ("model", model.into()),
        ("network", network_name.into()),
        ("scheme", scheme.map_or(JsonValue::Null, JsonValue::from)),
        ("eval_samples", eval_samples.into()),
        ("report", report.into()),
    ]);
    if let Some(out) = args.get("out") {
        std::fs::write(out, format!("{result}\n"))
            .map_err(|e| format!("cannot write `{out}`: {e}"))?;
    }
    Ok(result)
}

/// The JSON line printed when a campaign checkpoints and exits gracefully.
fn resumable_result(checkpoint: &std::path::Path, rounds: usize, trials: usize) -> JsonValue {
    JsonValue::object([
        ("command", "campaign".into()),
        ("status", "resumable".into()),
        ("checkpoint", checkpoint.display().to_string().into()),
        ("rounds", rounds.into()),
        ("trials", trials.into()),
    ])
}

/// `fitact campaign`: runs the statistical fault campaign against a loaded
/// artifact and emits the full Wilson-CI report. `--distributed true` turns
/// this process into a unit-sharding coordinator, `--worker true` into a
/// worker pulling units from one; both degrade gracefully (the coordinator
/// runs solo without workers, workers retry with backoff) and both resume
/// from `--checkpoint` after SIGTERM or a crash, bit-identically.
pub fn campaign(raw: &[String]) -> Result<JsonValue, CliError> {
    let args = Args::parse(raw, CAMPAIGN_FLAGS)?;
    let worker = args.parse_or("worker", false)?;
    let distributed = args.parse_or("distributed", false)?;
    if worker && distributed {
        return Err("--worker and --distributed are mutually exclusive".into());
    }
    if worker {
        campaign_worker(&args)
    } else if distributed {
        campaign_coordinator(&args)
    } else {
        campaign_single(&args)
    }
}

/// Worker mode: everything (config, dataset provenance, model artifact)
/// comes from the coordinator, so no `--model` is needed.
fn campaign_worker(args: &Args) -> Result<JsonValue, CliError> {
    let coordinator = args.required("coordinator")?;
    let worker_id = args
        .get("worker-id")
        .map(str::to_owned)
        .unwrap_or_else(|| format!("worker-{}", std::process::id()));
    let stop = signals::install();
    let config = WorkerConfig {
        coordinator: coordinator.to_owned(),
        worker_id,
        threads: default_threads(),
        ..WorkerConfig::default()
    };
    let summary =
        fitact_serve::run_worker_until(&config, stop).map_err(|e| format!("worker failed: {e}"))?;
    Ok(JsonValue::object([
        ("command", "campaign".into()),
        ("mode", "worker".into()),
        ("coordinator", coordinator.into()),
        ("worker_id", summary.worker_id.into()),
        ("units", summary.units.into()),
        ("trials", summary.trials.into()),
    ]))
}

/// Coordinator mode: shards the trial space into leased work units, merges
/// worker results, checkpoints, and also executes units in-process unless
/// `--local-execute false`.
fn campaign_coordinator(args: &Args) -> Result<JsonValue, CliError> {
    let model = args.required("model")?;
    let bytes = std::fs::read(model).map_err(|e| format!("cannot read artifact `{model}`: {e}"))?;
    let artifact = ModelArtifact::from_bytes(&bytes)
        .map_err(|e| format!("cannot load artifact `{model}`: {e}"))?;
    let spec = data_spec(&artifact, args)?;
    let eval_samples = materialize(&spec)?.1.len();
    let config = campaign_config(args)?;
    let options = CoordinatorConfig {
        listen: args.get("listen").unwrap_or("127.0.0.1:0").to_owned(),
        unit_trials: args.parse_or("unit-trials", 4usize)?,
        lease: Duration::from_millis(args.parse_or("lease-ms", 30_000u64)?),
        checkpoint: args.get("checkpoint").map(PathBuf::from),
        local_execute: args.parse_or("local-execute", true)?,
        threads: default_threads(),
    };
    let coordinator =
        Coordinator::start_with_data(bytes, spec, config, Arc::new(TransientBitFlip), &options)
            .map_err(|e| format!("coordinator failed to start: {e}"))?;
    // Workers need the address before the final report exists; stdout stays
    // reserved for the one JSON result object.
    let listening = JsonValue::object([
        ("status", "listening".into()),
        ("addr", coordinator.addr().to_string().into()),
    ]);
    eprintln!("{listening}");

    let stop = signals::install();
    let done = std::sync::atomic::AtomicBool::new(false);
    let outcome = std::thread::scope(|scope| {
        let watcher = scope.spawn(|| {
            while !done.load(Ordering::SeqCst) {
                if stop.load(Ordering::SeqCst) {
                    coordinator.stop();
                    return;
                }
                std::thread::sleep(Duration::from_millis(50));
            }
        });
        let outcome = coordinator.run_to_completion();
        done.store(true, Ordering::SeqCst);
        let _ = watcher.join();
        outcome
    });
    match outcome {
        Ok(Some(report)) => {
            let result = campaign_result(
                args,
                model,
                &artifact.name,
                artifact.scheme.map(|s| s.name()),
                eval_samples,
                &report,
            );
            coordinator.shutdown();
            result
        }
        Ok(None) => {
            let status = coordinator.status();
            coordinator.shutdown();
            let checkpoint = args.get("checkpoint").unwrap_or("(none)");
            let field = |key| status.get(key).and_then(JsonValue::as_f64).unwrap_or(0.0) as usize;
            let (rounds, trials) = (field("round"), field("total_trials"));
            Ok(resumable_result(
                std::path::Path::new(checkpoint),
                rounds,
                trials,
            ))
        }
        Err(e) => {
            coordinator.shutdown();
            Err(format!("distributed campaign failed: {e}").into())
        }
    }
}

/// Single-process mode: the original in-process campaign, optionally made
/// resumable with `--checkpoint` (graceful SIGTERM/SIGINT, crash-safe
/// per-round snapshots, bit-identical resume).
fn campaign_single(args: &Args) -> Result<JsonValue, CliError> {
    let model = args.required("model")?;
    let bytes = std::fs::read(model).map_err(|e| format!("cannot read artifact `{model}`: {e}"))?;
    let artifact = ModelArtifact::from_bytes(&bytes)
        .map_err(|e| format!("cannot load artifact `{model}`: {e}"))?;
    let spec = data_spec(&artifact, args)?;
    let (inputs, targets) = materialize(&spec)?;
    let mut network = artifact
        .instantiate()
        .map_err(|e| format!("cannot instantiate `{model}`: {e}"))?;
    let config = campaign_config(args)?;

    let report = match args.get("checkpoint").map(PathBuf::from) {
        None => {
            fitact::assess_resilience(&mut network, &inputs, &targets, &config, &TransientBitFlip)
                .map_err(|e| format!("campaign failed: {e}"))?
        }
        Some(path) => {
            let stop = signals::install();
            let fingerprint = fingerprint_bytes(&bytes);
            // `assess_resilience` quantizes before running; match it so the
            // resumable path stays bit-identical to the plain one.
            quantize_network(&mut network);
            let network_name = network.name().to_owned();
            let mut campaign = Campaign::new(&mut network, &inputs, &targets)
                .map_err(|e| format!("campaign failed: {e}"))?;
            // The campaign keeps this baseline and runs from it.
            let fault_free = campaign
                .fault_free_accuracy(config.batch_size)
                .map_err(|e| format!("baseline evaluation failed: {e}"))?;
            let resume = if path.exists() {
                let checkpoint = CampaignCheckpoint::load(&path)
                    .map_err(|e| format!("cannot resume from `{}`: {e}", path.display()))?;
                checkpoint
                    .validate_against(&config, TransientBitFlip.name(), fingerprint, fault_free)
                    .map_err(|e| {
                        format!("checkpoint `{}` is not resumable here: {e}", path.display())
                    })?;
                Some(checkpoint.pools)
            } else {
                None
            };
            let snapshot = |pools: Vec<fitact_faults::StratumPool>| {
                CampaignCheckpoint::new(
                    config.clone(),
                    TransientBitFlip.name(),
                    network_name.clone(),
                    fingerprint,
                    fault_free,
                    pools,
                    Vec::new(),
                )
            };
            let mut save_error: Option<String> = None;
            let outcome = campaign
                .run_until_resumable(
                    &config,
                    &TransientBitFlip,
                    default_threads(),
                    resume,
                    &mut |progress| {
                        if let Err(e) = snapshot(progress.pools.clone()).save(&path) {
                            save_error = Some(e.to_string());
                            return CampaignControl::Stop;
                        }
                        if stop.load(Ordering::SeqCst) {
                            CampaignControl::Stop
                        } else {
                            CampaignControl::Continue
                        }
                    },
                )
                .map_err(|e| format!("campaign failed: {e}"))?;
            if let Some(e) = save_error {
                return Err(format!("cannot write checkpoint `{}`: {e}", path.display()).into());
            }
            match outcome {
                RunOutcome::Finished(report) => {
                    let _ = std::fs::remove_file(&path);
                    report
                }
                RunOutcome::Interrupted(progress) => {
                    snapshot(progress.pools.clone()).save(&path).map_err(|e| {
                        format!("cannot write checkpoint `{}`: {e}", path.display())
                    })?;
                    return Ok(resumable_result(
                        &path,
                        progress.rounds,
                        progress.total_trials(),
                    ));
                }
            }
        }
    };

    campaign_result(
        args,
        model,
        network.name(),
        artifact.scheme.map(|s| s.name()),
        targets.len(),
        &report,
    )
}

/// `fitact inspect`: summarises an artifact without running anything.
pub fn inspect(raw: &[String]) -> Result<JsonValue, CliError> {
    let args = Args::parse(raw, INSPECT_FLAGS)?;
    let model = args.required("model")?;
    let artifact = load_artifact(model)?;
    let network = artifact
        .instantiate()
        .map_err(|e| format!("cannot instantiate `{model}`: {e}"))?;
    let layers: Vec<JsonValue> = network
        .root()
        .layers()
        .iter()
        .map(|l| JsonValue::from(l.name()))
        .collect();
    let params: Vec<JsonValue> = artifact
        .params
        .iter()
        .map(|p| {
            JsonValue::object([
                ("path", p.path.as_str().into()),
                (
                    "dims",
                    JsonValue::Array(p.dims.iter().map(|&d| JsonValue::from(d)).collect()),
                ),
                ("trainable", JsonValue::Bool(p.trainable)),
            ])
        })
        .collect();
    let meta: Vec<(String, JsonValue)> = artifact
        .meta
        .iter()
        .map(|(k, v)| (k.clone(), v.as_str().into()))
        .collect();
    Ok(JsonValue::object([
        ("command", "inspect".into()),
        ("model", model.into()),
        ("name", artifact.name.as_str().into()),
        (
            "format_version",
            f64::from(artifact.format_version()).into(),
        ),
        ("num_parameters", artifact.num_parameters().into()),
        ("layers", JsonValue::Array(layers)),
        ("params", JsonValue::Array(params)),
        (
            "scheme",
            artifact
                .scheme
                .map(|s| JsonValue::from(s.name()))
                .unwrap_or(JsonValue::Null),
        ),
        (
            "profile_slots",
            artifact
                .profile
                .as_ref()
                .map(|p| JsonValue::from(p.len()))
                .unwrap_or(JsonValue::Null),
        ),
        ("meta", JsonValue::Object(meta)),
    ]))
}
