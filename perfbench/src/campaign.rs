//! The `campaign` workload: a statistical fault campaign the way
//! `fitact campaign --checkpoint` runs it, on the FitAct-protected,
//! Q15.16-quantized VGG16 demo model over a fixed 64-row test split.
//!
//! The traced run re-executes the campaign's trials serially, one span per
//! trial phase (sample, inject, resumed evaluation, restore) and per round
//! (planning, stopping decision, checkpoint save). Its resumed evaluations
//! replay the faulted suffix one top-level layer call at a time from the
//! clean boundary activations, and must reproduce the campaign's pools bit
//! for bit.

use crate::layers::{self, KindTotals};
use crate::pipeline::BATCH;
use crate::{metric, spans, stats, Args, Outcome};
use fitact_faults::{
    plan_round_allocated, quantize_network, stopping_decision, z_for_confidence, Campaign,
    CampaignControl, CampaignProgress, CampaignReport, CheckpointCache, FaultModel, MemoryMap,
    ResumePlan, RunOutcome, StatCampaignConfig, StratifiedSampler, StratumPool, TransientBitFlip,
    TrialContext, TrialPoint, UnitRunner, TRIAL_STREAM_PROVENANCE,
};
use fitact_io::{fingerprint_bytes, CampaignCheckpoint, ModelArtifact};
use fitact_nn::metrics::{accuracy, RunningMean};
use fitact_nn::{copy_batch_into, Mode, Network};
use fitact_tensor::Tensor;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::path::Path;
use std::time::Instant;

/// Rows of the fixed synthetic-CIFAR test split the campaign evaluates.
const EVAL_ROWS: usize = 64;
/// Per-bit fault rate: about 2.4 faults per trial on the VGG16 demo, so
/// trials resume at every depth (the count scales with the rate; at 1e-6
/// most trials would draw no fault).
const FAULT_RATE: f64 = 3e-6;
/// Target half-width of the pooled critical-SDC interval.
const EPSILON: f64 = 0.04;
/// Trials before the stopping rule may fire. At the demo model's 0–2 %
/// critical-SDC rate nearly every seed meets ε right here, so the trial
/// count, and with it time to ε, barely depends on the seed's luck.
const MIN_TRIALS: usize = 144;

/// The CLI's campaign defaults, with the workload's rate, ε and seed.
fn config(seed: u64) -> StatCampaignConfig {
    StatCampaignConfig {
        fault_rate: FAULT_RATE,
        batch_size: BATCH,
        seed,
        epsilon: EPSILON,
        confidence: 0.95,
        critical_threshold: 0.05,
        round_trials: 8,
        min_trials: MIN_TRIALS,
        max_trials: 256,
        floor_trials: 1,
        ..Default::default()
    }
}

/// The loaded model and evaluation split.
struct Loaded {
    network: Network,
    inputs: Tensor,
    targets: Vec<usize>,
    fingerprint: u64,
}

/// Artifact read, decode, instantiate and quantize, plus the test split:
/// everything `fitact campaign` does before its campaign starts.
fn set_up() -> Result<(Loaded, f64), String> {
    let t0 = Instant::now();
    let path = crate::artifact_path("vgg16_demo");
    let bytes = std::fs::read(&path).map_err(|e| format!("cannot read {}: {e}", path.display()))?;
    let (artifact, mut network) = spans::timed("io.artifact_load", 0, || {
        let artifact = ModelArtifact::from_bytes(&bytes)?;
        let network = artifact.instantiate()?;
        Ok::<_, fitact_io::IoError>((artifact, network))
    })
    .map_err(|e| format!("artifact: {e}"))?;
    spans::timed("faults.quantize", 0, || quantize_network(&mut network));
    let spec = fitact_data::DataSpec::from_meta(|k| artifact.meta(k))
        .ok_or("the artifact carries no dataset metadata")?
        .with_samples(EVAL_ROWS)
        .test();
    let (inputs, targets) = spans::timed("data.materialize", 0, || spec.materialize())
        .map_err(|e| format!("dataset: {e}"))?;
    let loaded = Loaded {
        network,
        inputs,
        targets,
        fingerprint: fingerprint_bytes(&bytes),
    };
    Ok((loaded, t0.elapsed().as_secs_f64()))
}

/// One campaign as `fitact campaign --checkpoint` runs it.
struct CampaignRun {
    time_to_eps_s: f64,
    /// The fault-free baseline evaluation at the start of `time_to_eps_s`.
    baseline_s: f64,
    report: CampaignReport,
    /// Pools handed to the observer after every non-final round.
    observed: Vec<CampaignProgress>,
    /// Wall time between observer calls (the first includes the baseline
    /// capture, the last runs to the stopping decision).
    round_gaps: Vec<f64>,
    checkpoint_save_ms: Vec<f64>,
    checkpoint_bytes: u64,
}

fn run_campaign(
    loaded: &Loaded,
    config: &StatCampaignConfig,
    path: &Path,
) -> Result<CampaignRun, String> {
    let mut network = loaded.network.clone();
    let t0 = Instant::now();
    // `fitact campaign --checkpoint` records the fault-free baseline in
    // every checkpoint it writes.
    let fault_free = network
        .evaluate(&loaded.inputs, &loaded.targets, config.batch_size)
        .map_err(|e| format!("baseline: {e}"))?;
    let baseline_s = t0.elapsed().as_secs_f64();
    let name = network.name().to_owned();
    let mut observed = Vec::new();
    let mut round_gaps = Vec::new();
    let mut checkpoint_save_ms = Vec::new();
    let mut save_error = None;
    let mut last = t0;
    let outcome = Campaign::new(&mut network, &loaded.inputs, &loaded.targets)
        .map_err(|e| e.to_string())?
        .run_until_resumable(
            config,
            &TransientBitFlip,
            crate::nproc(),
            None,
            &mut |progress| {
                let now = Instant::now();
                round_gaps.push((now - last).as_secs_f64());
                let checkpoint = CampaignCheckpoint::new(
                    config.clone(),
                    TransientBitFlip.name(),
                    name.clone(),
                    loaded.fingerprint,
                    fault_free,
                    progress.pools.clone(),
                    Vec::new(),
                );
                let saved = spans::timed("io.checkpoint_save", progress.rounds as u64, || {
                    checkpoint.save(path)
                });
                checkpoint_save_ms.push(now.elapsed().as_secs_f64() * 1e3);
                observed.push(progress.clone());
                last = Instant::now();
                match saved {
                    Ok(()) => CampaignControl::Continue,
                    Err(e) => {
                        save_error = Some(e.to_string());
                        CampaignControl::Stop
                    }
                }
            },
        )
        .map_err(|e| format!("campaign: {e}"))?;
    let time_to_eps_s = t0.elapsed().as_secs_f64();
    round_gaps.push(last.elapsed().as_secs_f64());
    eprintln!(
        "campaign: seed {}: time to ε {time_to_eps_s:.3} s",
        config.seed
    );
    if let Some(e) = save_error {
        return Err(format!("checkpoint save: {e}"));
    }
    let report = match outcome {
        RunOutcome::Finished(report) => report,
        RunOutcome::Interrupted(_) => return Err("the campaign stopped early".into()),
    };
    let checkpoint_bytes = std::fs::metadata(path).map_or(0, |m| m.len());
    Ok(CampaignRun {
        time_to_eps_s,
        baseline_s,
        report,
        observed,
        round_gaps,
        checkpoint_save_ms,
        checkpoint_bytes,
    })
}

fn same_point(a: &TrialPoint, b: &TrialPoint) -> bool {
    a.accuracy.to_bits() == b.accuracy.to_bits() && a.faults == b.faults
}

/// Re-runs sampled work units through `UnitRunner::run_unit` and checks
/// them against the points the observer captured, bit for bit.
fn check_units(
    loaded: &Loaded,
    config: &StatCampaignConfig,
    run: &CampaignRun,
    seed: u64,
) -> Result<u64, String> {
    let Some(progress) = run.observed.last() else {
        return Ok(0);
    };
    let mut runner = UnitRunner::new(
        loaded.network.clone(),
        loaded.inputs.clone(),
        loaded.targets.clone(),
        config,
        crate::nproc(),
    )
    .map_err(|e| format!("unit runner: {e}"))?;
    let mut rng = StdRng::seed_from_u64(seed ^ 0x5EED);
    let mut checked = 0;
    for (stratum, pool) in progress.pools.iter().enumerate() {
        let count = 4.min(pool.len());
        if count == 0 {
            continue;
        }
        let start = rand::Rng::gen_range(&mut rng, 0..=pool.len() - count);
        let points = runner
            .run_unit(&TransientBitFlip, stratum, start, count)
            .map_err(|e| format!("run_unit: {e}"))?;
        for (offset, point) in points.iter().enumerate() {
            let index = (start + offset) as u64;
            let seen = pool.get(index).ok_or("observer pool has a gap")?;
            if !same_point(point, &seen) {
                return Err(format!(
                    "stratum {stratum} trial {index}: run_unit gave {point:?}, the campaign {seen:?}"
                ));
            }
            checked += 1;
        }
    }
    Ok(checked)
}

pub fn run(args: &Args) -> Result<Outcome, String> {
    std::fs::create_dir_all(crate::out_dir()).map_err(|e| e.to_string())?;
    let checkpoint = crate::out_dir().join("campaign.ckpt");
    let configs: Vec<StatCampaignConfig> = (0..crate::SEEDS_PER_RUN as u64)
        .map(|k| config(crate::derive_seed(args.seed, k)))
        .collect();
    if args.trace {
        return run_trace(&configs[0], &checkpoint);
    }
    let mut setups = Vec::new();
    let mut loaded = None;
    for _ in 0..31 {
        let (l, secs) = set_up()?;
        setups.push(secs);
        loaded = Some(l);
    }
    let loaded = loaded.expect("the set-ups ran");

    let runs = crate::cycle(configs.len(), args.seconds, |k| {
        run_campaign(&loaded, &configs[k], &checkpoint)
    })?;
    for (config, seed_runs) in configs.iter().zip(&runs) {
        if seed_runs.iter().any(|r| r.report != seed_runs[0].report) {
            return Err(format!(
                "campaign seed {}: the same seed gave two different reports",
                config.seed
            ));
        }
    }
    let checked = check_units(&loaded, &configs[0], &runs[0][0], args.seed)?;
    let reports: Vec<&CampaignReport> = runs.iter().map(|r| &r[0].report).collect();
    let trials: usize = reports.iter().map(|r| r.total_trials()).sum();
    let faults: u64 = reports.iter().map(|r| r.total_faults()).sum();
    let rounds: usize = reports.iter().map(|r| r.rounds).sum();
    let waits = stats::medians(&runs, |r| r.time_to_eps_s);
    let time_to_eps_s = stats::mean(&waits);
    let trials_per_s = trials as f64 / waits.iter().sum::<f64>();
    let mut saves: Vec<f64> = runs
        .iter()
        .flatten()
        .flat_map(|r| r.checkpoint_save_ms.clone())
        .collect();
    let campaigns: usize = runs.iter().map(Vec::len).sum();
    Ok(Outcome {
        attempted: runs
            .iter()
            .flatten()
            .map(|r| r.report.total_trials() as u64)
            .sum(),
        failed: 0,
        end_to_end: vec![
            metric("setup_s", stats::median(&mut setups), "s"),
            metric("peak_rss_mb", crate::peak_rss_mb(), "MB"),
            metric("wait_s", time_to_eps_s, "s"),
            metric("rate_per_s", trials_per_s, "1/s"),
        ],
        per_layer: Vec::new(),
        report: vec![
            metric("time_to_eps_s", time_to_eps_s, "s"),
            metric("trials_per_s", trials_per_s, "trials/s"),
            metric("trials", trials as f64, "count"),
            metric("rounds", rounds as f64, "count"),
            metric(
                "converged",
                reports.iter().filter(|r| r.converged).count() as f64,
                "count",
            ),
            metric("campaign_seeds", configs.len() as f64, "count"),
            metric("campaigns", campaigns as f64, "count"),
            metric(
                "fault_free_accuracy",
                f64::from(reports[0].fault_free_accuracy),
                "ratio",
            ),
            metric(
                "pooled_critical_rate",
                stats::mean(
                    &reports
                        .iter()
                        .map(|r| r.pooled_critical().point())
                        .collect::<Vec<_>>(),
                ),
                "ratio",
            ),
            metric("faults_per_trial", faults as f64 / trials as f64, "count"),
            metric("checkpoint_save_ms", stats::median(&mut saves), "ms"),
            metric("units_checked", checked as f64, "count"),
        ],
    })
}

/// The per-trial RNG stream seed, as `TRIAL_STREAM_PROVENANCE` names it.
fn trial_stream_seed(seed: u64, stratum: usize, trial: usize) -> u64 {
    let seed = seed ^ (stratum as u64).wrapping_mul(0xA24B_AED4_963E_E407);
    let mut z = seed ^ (trial as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// What the serial trial loop observed.
#[derive(Default)]
struct TrialLoop {
    pools: Vec<StratumPool>,
    rounds: usize,
    sites: u64,
    trials: u64,
    clean_reuse: u64,
    resumed_layers: f64,
    wall_ns: (u64, u64),
}

/// The campaign's rounds, re-executed serially on one network: the same
/// plans, trials and stopping decisions as `run_until_resumable`.
/// `evaluate(network, boundary, trial)` scores one faulted trial.
#[allow(clippy::too_many_arguments)]
fn trial_loop(
    network: &mut Network,
    config: &StatCampaignConfig,
    sampler: &StratifiedSampler,
    plan: &ResumePlan,
    fault_free: f32,
    checkpoint: &Path,
    fingerprint: u64,
    evaluate: &mut dyn FnMut(&mut Network, usize, u64) -> Result<f32, String>,
) -> Result<TrialLoop, String> {
    let model = TransientBitFlip;
    let snapshot = network.snapshot_full();
    let z = z_for_confidence(config.confidence);
    let strata = sampler.num_strata();
    let populations: Vec<u64> = (0..strata).map(|s| sampler.population(s)).collect();
    let mut out = TrialLoop {
        pools: vec![StratumPool::new(); strata],
        ..Default::default()
    };
    let mut counts = vec![0usize; strata];
    let from = spans::clock_ns();
    loop {
        let round = out.rounds as u64;
        let _round = spans::enter("bench.round", round);
        let specs = spans::timed("faults.plan", round, || {
            plan_round_allocated(config, z, fault_free, &populations, &out.pools, &counts)
        });
        if specs.is_empty() {
            break;
        }
        for spec in &specs {
            let id = out.trials;
            let _trial = spans::enter("bench.trial", id);
            let mut rng =
                StdRng::seed_from_u64(trial_stream_seed(config.seed, spec.stratum, spec.index));
            let sites = spans::timed("faults.sample", id, || {
                sampler.sample(spec.stratum, config.fault_rate, &mut rng)
            });
            let ctx = TrialContext {
                fault_rate: config.fault_rate,
                bit_positions: sampler.bit_positions(spec.stratum),
            };
            let injection = spans::timed("faults.inject", id, || {
                model.inject(network, &sites, &ctx, &mut rng)
            });
            let boundary = plan.resume_boundary(&model, &sites);
            let accuracy = spans::timed("faults.evaluate_resumed", id, || {
                evaluate(network, boundary, id)
            })?;
            spans::timed("faults.restore_full", id, || {
                network.restore_full(&snapshot)
            })
            .map_err(|e| format!("restore_full: {e}"))?;
            out.pools[spec.stratum]
                .insert(
                    spec.index as u64,
                    TrialPoint {
                        accuracy,
                        faults: injection.total(),
                    },
                )
                .map_err(|e| e.to_string())?;
            out.sites += sites.len() as u64;
            out.trials += 1;
            if boundary >= plan.depth() {
                out.clean_reuse += 1;
            }
            out.resumed_layers +=
                (plan.depth() - boundary.min(plan.depth())) as f64 / plan.depth() as f64;
        }
        for spec in &specs {
            counts[spec.stratum] += 1;
        }
        out.rounds += 1;
        let decision = spans::timed("faults.stopping_decision", round, || {
            stopping_decision(config, z, fault_free, &populations, &out.pools, &counts)
        });
        if decision.converged || decision.exhausted {
            break;
        }
        let checkpoint_state = CampaignCheckpoint::new(
            config.clone(),
            model.name(),
            network.name(),
            fingerprint,
            fault_free,
            out.pools.clone(),
            Vec::new(),
        );
        spans::timed("io.checkpoint_save", round, || {
            checkpoint_state.save(checkpoint)
        })
        .map_err(|e| format!("checkpoint save: {e}"))?;
    }
    out.wall_ns = (from, spans::clock_ns());
    Ok(out)
}

/// The clean boundary activations and per-batch accuracies
/// `CheckpointCache::capture` stores (its own copy is private), so the
/// traced run can re-execute a trial's suffix one layer call at a time.
struct Boundaries {
    /// Per evaluation batch: row range, the activation flowing into every
    /// top-level layer, and the clean accuracy.
    batches: Vec<(std::ops::Range<usize>, Vec<Tensor>, f32)>,
}

impl Boundaries {
    fn capture(
        network: &mut Network,
        inputs: &Tensor,
        targets: &[usize],
        batch_size: usize,
    ) -> Result<Self, String> {
        let depth = network.depth();
        let mut batches = Vec::new();
        let mut staging = Tensor::default();
        let mut start = 0;
        while start < targets.len() {
            let end = (start + batch_size).min(targets.len());
            copy_batch_into(inputs, start, end, &mut staging).map_err(|e| e.to_string())?;
            let mut boundaries = Vec::with_capacity(depth);
            let logits = network
                .forward_inspect(&staging, Mode::Eval, &mut |k, t| {
                    if k < depth {
                        boundaries.push(t.clone());
                    }
                })
                .map_err(|e| e.to_string())?;
            let clean = accuracy(&logits, &targets[start..end]).map_err(|e| e.to_string())?;
            batches.push((start..end, boundaries, clean));
            start = end;
        }
        Ok(Boundaries { batches })
    }

    /// `CheckpointCache::evaluate_resumed`, with every re-executed top-level
    /// layer call in its own span.
    fn evaluate(
        &self,
        network: &mut Network,
        kinds: &[layers::Kind],
        targets: &[usize],
        resume: usize,
        id: u64,
        totals: &mut KindTotals,
    ) -> Result<f32, String> {
        let mut acc = RunningMean::new();
        for (rows, boundaries, clean) in &self.batches {
            let batch_acc = if resume >= boundaries.len() {
                *clean
            } else {
                let logits = layers::forward_from(
                    network,
                    kinds,
                    resume,
                    &boundaries[resume],
                    Mode::Eval,
                    id,
                    totals,
                )?;
                accuracy(&logits, &targets[rows.clone()]).map_err(|e| e.to_string())?
            };
            acc.push_weighted(batch_acc, rows.len());
        }
        Ok(acc.mean())
    }
}

fn run_trace(config: &StatCampaignConfig, checkpoint: &Path) -> Result<Outcome, String> {
    if TRIAL_STREAM_PROVENANCE != "splitmix64/(seed, stratum, trial) v1" {
        return Err(format!(
            "the trial stream derivation changed to `{TRIAL_STREAM_PROVENANCE}`; update the traced replay"
        ));
    }
    spans::start(0);
    let (loaded, _) = set_up()?;
    let campaign = run_campaign(&loaded, config, checkpoint)?;
    let threads = crate::nproc();

    let mut network = loaded.network.clone();
    let fault_free = network
        .evaluate(&loaded.inputs, &loaded.targets, config.batch_size)
        .map_err(|e| e.to_string())?;
    let map = MemoryMap::of_network(&network);
    let sampler = StratifiedSampler::new(&map, &config.strata).map_err(|e| e.to_string())?;
    let plan = ResumePlan::of_network(&mut network);
    let capture_t0 = Instant::now();
    let cache = spans::timed("faults.capture", 0, || {
        CheckpointCache::capture(
            &mut network,
            &loaded.inputs,
            &loaded.targets,
            config.batch_size,
        )
    })
    .map_err(|e| e.to_string())?;
    let capture_s = capture_t0.elapsed().as_secs_f64();

    let kinds = layers::kinds(&network)?;
    let boundaries = Boundaries::capture(
        &mut network,
        &loaded.inputs,
        &loaded.targets,
        config.batch_size,
    )?;

    // The same serial loop without spans (`evaluate_resumed` itself) and
    // with them (the layer-by-layer replay); every loop must reproduce the
    // campaign's pools, and the last traced loop's spans give the split.
    let mut all = spans::take();
    let mut last = None;
    let passes = spans::compare(2, &mut all, |traced| {
        let mut replay = KindTotals::default();
        let mut evaluate = |net: &mut Network, boundary: usize, id: u64| {
            if traced {
                boundaries.evaluate(net, &kinds, &loaded.targets, boundary, id, &mut replay)
            } else {
                cache
                    .evaluate_resumed(net, &loaded.targets, boundary)
                    .map_err(|e| format!("evaluate_resumed: {e}"))
            }
        };
        let serial = trial_loop(
            &mut network,
            config,
            &sampler,
            &plan,
            fault_free,
            checkpoint,
            loaded.fingerprint,
            &mut evaluate,
        )?;
        let name = if traced { "traced" } else { "untraced" };
        if serial.rounds != campaign.report.rounds {
            return Err(format!(
                "the {name} serial loop ran {} rounds, the campaign {}",
                serial.rounds, campaign.report.rounds
            ));
        }
        for (pool, stratum) in serial.pools.iter().zip(&campaign.report.strata) {
            if !layers::same_bits(&pool.accuracies(), &stratum.accuracies)
                || pool.total_faults() != stratum.total_faults
            {
                return Err(format!(
                    "stratum {}: the {name} serial loop differs from the campaign",
                    stratum.label
                ));
            }
        }
        if traced {
            last = Some((serial, replay));
        }
        Ok(())
    })?;
    let (traced, replay) = last.expect("the traced loops ran");
    spans::start(0);
    let profile = layers::profile(&mut network, &kinds, &loaded.inputs, config.batch_size, 1.0)?;
    let peak = layers::peak_gflops();
    spans::append(&mut all, &spans::take());
    spans::write(&crate::out_dir().join("spans-campaign.jsonl"), &all)
        .map_err(|e| e.to_string())?;

    let table = spans::self_times(&all);
    let get = |name: &str| table.get(name).copied().unwrap_or_default();
    let (from, to) = traced.wall_ns;
    let by_layer = spans::layer_self_ns(&all, from, to);
    let wall_ns = (to - from) as f64;
    let share = |layer: &str| by_layer.get(layer).copied().unwrap_or(0) as f64 / wall_ns;
    let covered: u64 = by_layer.values().sum();
    let trials = traced.trials.max(1) as f64;
    let rounds = traced.rounds.max(1) as f64;
    let trial_ns = get("bench.trial").total_ns as f64;
    let round_wall_s = campaign.time_to_eps_s - campaign.baseline_s - capture_s;
    let mut gaps: Vec<f64> = campaign.round_gaps.iter().skip(1).copied().collect();
    let mut saves = campaign.checkpoint_save_ms.clone();
    let plan_us = (get("faults.plan").self_ns + get("faults.stopping_decision").self_ns) as f64
        / rounds
        / 1e3;
    let replayed = replay.total_ns().max(1) as f64;
    let per_layer = vec![
        metric("tensor.peak_gflops", peak, "GFLOP/s"),
        metric("tensor.conv_gflops", profile.conv_gflops(), "GFLOP/s"),
        metric("tensor.linear_gflops", profile.linear_gflops(), "GFLOP/s"),
        metric("nn.forward_ms", profile.forward_ms(), "ms"),
        metric("nn.conv_ms", profile.conv_ms(), "ms"),
        metric("nn.linear_ms", profile.linear_ms(), "ms"),
        metric("nn.pool_ms", profile.pool_ms(), "ms"),
        metric("nn.norm_ms", profile.norm_ms(), "ms"),
        metric("core.act_fwd_ms", profile.act_ms(), "ms"),
        metric("core.act_share", profile.act_share(), "ratio"),
        metric("faults.sample_us", get("faults.sample").mean(1e3), "us"),
        metric("faults.inject_us", get("faults.inject").mean(1e3), "us"),
        metric(
            "faults.eval_ms",
            get("faults.evaluate_resumed").total_ns as f64 / trials / 1e6,
            "ms",
        ),
        metric(
            "faults.restore_us",
            get("faults.restore_full").mean(1e3),
            "us",
        ),
        metric(
            "faults.faults_per_trial",
            traced.sites as f64 / trials,
            "count",
        ),
        metric(
            "faults.clean_reuse_ratio",
            traced.clean_reuse as f64 / trials,
            "ratio",
        ),
        metric(
            "faults.resumed_layer_share",
            traced.resumed_layers / trials,
            "ratio",
        ),
        metric("faults.capture_ms", capture_s * 1e3, "ms"),
        metric(
            "faults.cache_mb",
            (cache.cached_elements() * 4) as f64 / (1024.0 * 1024.0),
            "MB",
        ),
        metric("faults.plan_us", plan_us, "us"),
        metric("faults.round_ms", stats::median(&mut gaps) * 1e3, "ms"),
        metric(
            "faults.parallel_efficiency",
            passes.untraced_s / (threads as f64 * round_wall_s),
            "ratio",
        ),
        metric("faults.trials", traced.trials as f64, "count"),
        metric("faults.rounds", traced.rounds as f64, "count"),
        metric("io.checkpoint_save_ms", stats::median(&mut saves), "ms"),
        metric(
            "io.checkpoint_kb",
            campaign.checkpoint_bytes as f64 / 1024.0,
            "KB",
        ),
        metric(
            "io.artifact_load_ms",
            get("io.artifact_load").mean(1e6),
            "ms",
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
    let report = vec![
        metric("time_to_eps_s", campaign.time_to_eps_s, "s"),
        metric("trials", traced.trials as f64, "count"),
        metric("untraced_loop_s", passes.untraced_s, "s"),
        metric("traced_loop_s", passes.traced_s, "s"),
        metric(
            "replay_conv_share",
            replay.conv_ns() as f64 / replayed,
            "ratio",
        ),
        metric(
            "replay_norm_share",
            replay.norm_ns() as f64 / replayed,
            "ratio",
        ),
        metric(
            "replay_act_share",
            replay.act_ns() as f64 / replayed,
            "ratio",
        ),
        metric(
            "eval_share_of_trial",
            get("faults.evaluate_resumed").total_ns as f64 / trial_ns,
            "ratio",
        ),
        metric(
            "restore_share_of_trial",
            get("faults.restore_full").total_ns as f64 / trial_ns,
            "ratio",
        ),
    ];
    Ok(Outcome {
        attempted: traced.trials,
        failed: 0,
        end_to_end: Vec::new(),
        per_layer,
        report,
    })
}
