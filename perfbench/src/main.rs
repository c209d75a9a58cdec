//! The FitAct workspace benchmark: `campaign`, `serve` and `pipeline`
//! workloads on the code paths the `fitact` CLI uses.
//!
//! Run it from the repository root through `perfbench/run.py`, which builds
//! this package and passes its arguments on:
//!
//! ```text
//! python3 perfbench/run.py --workload serve --seed 1 --seconds 30 --trace 0 \
//!     --light-rps 100 --heavy-rps 400 --ladder 200,300,450,600 --p99-limit-ms 33
//! ```
//!
//! The last line of standard output is one JSON object: `correct`,
//! `attempted`, `failed` and `metrics` — the end-to-end metrics with
//! `--trace 0`, the per-layer metrics with `--trace 1`. The line before it
//! carries the workload's full report (`{"report": …}`). Output checks that
//! fail make the run exit non-zero without a result line. The serve
//! workload needs the four load flags; `BENCHMARK.json` fixes their values.
//!
//! `--make-artifacts` rebuilds the two fixed model artifacts under
//! `perfbench/artifacts/` from their fixed seeds.

mod campaign;
mod layers;
mod pipeline;
mod serve;
mod spans;
mod stats;

use std::path::PathBuf;
use std::process::ExitCode;

/// One named metric of a result or report line.
#[derive(Debug, Clone)]
pub struct Metric {
    pub name: String,
    pub value: f64,
    pub unit: &'static str,
}

pub fn metric(name: &str, value: f64, unit: &'static str) -> Metric {
    Metric {
        name: name.to_owned(),
        value,
        unit,
    }
}

/// What a workload run hands back to `main`.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Operations attempted (trials, requests, training steps).
    pub attempted: u64,
    /// Operations that failed.
    pub failed: u64,
    /// The gated end-to-end metrics (untraced runs).
    pub end_to_end: Vec<Metric>,
    /// The per-layer metrics (traced runs).
    pub per_layer: Vec<Metric>,
    /// Everything else worth printing.
    pub report: Vec<Metric>,
}

/// The per-layer metrics every traced run prints, in `BENCHMARK.json`
/// order; a metric the workload does not exercise reads 0.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("tensor.peak_gflops", "GFLOP/s"),
    ("tensor.conv_gflops", "GFLOP/s"),
    ("tensor.linear_gflops", "GFLOP/s"),
    ("nn.forward_ms", "ms"),
    ("nn.forward_b1_ms", "ms"),
    ("nn.conv_ms", "ms"),
    ("nn.linear_ms", "ms"),
    ("nn.pool_ms", "ms"),
    ("nn.norm_ms", "ms"),
    ("nn.backward_ms", "ms"),
    ("nn.optim_us", "us"),
    ("nn.evaluate_ms", "ms"),
    ("core.act_fwd_ms", "ms"),
    ("core.act_share", "ratio"),
    ("core.act_bwd_ms", "ms"),
    ("core.trace_us", "us"),
    ("core.calibrate_ms", "ms"),
    ("core.post_train_step_ms", "ms"),
    ("core.post_train_evals", "count"),
    ("faults.sample_us", "us"),
    ("faults.inject_us", "us"),
    ("faults.eval_ms", "ms"),
    ("faults.restore_us", "us"),
    ("faults.faults_per_trial", "count"),
    ("faults.clean_reuse_ratio", "ratio"),
    ("faults.resumed_layer_share", "ratio"),
    ("faults.capture_ms", "ms"),
    ("faults.cache_mb", "MB"),
    ("faults.plan_us", "us"),
    ("faults.round_ms", "ms"),
    ("faults.parallel_efficiency", "ratio"),
    ("faults.trials", "count"),
    ("faults.rounds", "count"),
    ("io.checkpoint_save_ms", "ms"),
    ("io.checkpoint_kb", "KB"),
    ("io.artifact_load_ms", "ms"),
    ("io.artifact_save_ms", "ms"),
    ("io.artifact_kb", "KB"),
    ("io.json_parse_us", "us"),
    ("io.json_encode_us", "us"),
    ("serve.http_parse_us", "us"),
    ("serve.queue_wait_p50_us", "us"),
    ("serve.queue_wait_p99_us", "us"),
    ("serve.batch_rows", "count"),
    ("serve.server_p50_us", "us"),
    ("serve.server_p99_us", "us"),
    ("serve.violations_per_row", "count"),
    ("serve.transport_p50_us", "us"),
    ("serve.transport_p99_us", "us"),
    ("serve.gen_late_p99_ms", "ms"),
    ("serve.sent", "count"),
    ("serve.refused", "count"),
    ("serve.failed", "count"),
    ("data.materialize_ms", "ms"),
    ("trace.layer_coverage", "ratio"),
    ("trace.overhead", "ratio"),
    ("trace.nn_share", "ratio"),
    ("trace.core_share", "ratio"),
    ("trace.faults_share", "ratio"),
    ("trace.io_share", "ratio"),
    ("trace.serve_share", "ratio"),
    ("trace.data_share", "ratio"),
];

/// Command-line arguments of one run.
#[derive(Debug, Clone)]
pub struct Args {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    /// The serve workload's fixed load: `None` unless all four load flags
    /// were given.
    pub load: Option<serve::Load>,
}

fn positive(flag: &str, value: &str) -> Result<f64, String> {
    match value.parse::<f64>() {
        Ok(v) if v > 0.0 && v.is_finite() => Ok(v),
        _ => Err(format!(
            "flag `{flag}`: expected a positive number, got `{value}`"
        )),
    }
}

fn parse_args() -> Result<Option<Args>, String> {
    let raw: Vec<String> = std::env::args().skip(1).collect();
    if raw.iter().any(|a| a == "--make-artifacts") {
        return Ok(None);
    }
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let (mut light, mut heavy, mut ladder, mut limit) = (None, None, None, None);
    let mut it = raw.iter();
    while let Some(flag) = it.next() {
        let value = it
            .next()
            .ok_or_else(|| format!("flag `{flag}` needs a value"))?;
        match flag.as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => {
                seed = Some(
                    value
                        .parse::<u64>()
                        .map_err(|e| format!("flag `--seed`: {e}"))?,
                )
            }
            "--seconds" => seconds = Some(positive(flag, value)?),
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("flag `--trace`: expected 0 or 1, got `{other}`")),
                })
            }
            "--light-rps" => light = Some(positive(flag, value)?),
            "--heavy-rps" => heavy = Some(positive(flag, value)?),
            "--p99-limit-ms" => limit = Some(positive(flag, value)?),
            "--ladder" => {
                ladder = Some(
                    value
                        .split(',')
                        .map(|rate| positive(flag, rate))
                        .collect::<Result<Vec<f64>, String>>()?,
                )
            }
            other => return Err(format!("unknown flag `{other}`")),
        }
    }
    let load = match (light, heavy, ladder, limit) {
        (Some(light_rps), Some(heavy_rps), Some(ladder), Some(p99_limit_ms)) => Some(serve::Load {
            light_rps,
            heavy_rps,
            ladder,
            p99_limit_ms,
        }),
        _ => None,
    };
    Ok(Some(Args {
        workload: workload.ok_or("missing --workload (campaign, serve or pipeline)")?,
        seed: seed.unwrap_or(1),
        seconds: seconds.unwrap_or(20.0),
        trace: trace.unwrap_or(false),
        load,
    }))
}

/// Where runs write checkpoints, saved artifacts and span traces: inside
/// the build directory of the checkout the benchmark runs in.
pub fn out_dir() -> PathBuf {
    let base = std::env::var_os("CARGO_TARGET_DIR")
        .map(PathBuf::from)
        .unwrap_or_else(|| PathBuf::from(".bench_build"));
    base.join("perfbench-out")
}

/// The committed fixed artifacts.
pub fn artifact_path(name: &str) -> PathBuf {
    PathBuf::from("perfbench/artifacts").join(format!("{name}.fitact"))
}

/// Inputs per run: campaign and pipeline runs cycle through this many
/// seeds derived from the workload seed. One campaign's time to ε depends
/// on where its faults land (±10 % between seeds), one pipeline's on how
/// its data falls, so a run averages over many draws instead of resting on
/// one.
pub const SEEDS_PER_RUN: usize = 10;

/// The `k`-th seed derived from the workload seed.
pub fn derive_seed(seed: u64, k: u64) -> u64 {
    seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) ^ k
}

/// Runs `job(k)` round-robin over `count` inputs until `seconds` have
/// passed, each input at least once and the first at least twice (so a
/// repeat can be checked); returns the results per input.
pub fn cycle<T>(
    count: usize,
    seconds: f64,
    mut job: impl FnMut(usize) -> Result<T, String>,
) -> Result<Vec<Vec<T>>, String> {
    let started = std::time::Instant::now();
    let mut out: Vec<Vec<T>> = (0..count).map(|_| Vec::new()).collect();
    let mut i = 0;
    while i <= count || started.elapsed().as_secs_f64() < seconds {
        out[i % count].push(job(i % count)?);
        i += 1;
    }
    Ok(out)
}

/// Peak resident set size of this process, in MB (`VmHWM`).
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|line| {
            let kb = line.strip_prefix("VmHWM:")?.trim().strip_suffix("kB")?;
            kb.trim().parse::<f64>().ok()
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Threads the CLI would use (`available_parallelism`).
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |p| p.get())
}

fn json_number(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "null".into()
    }
}

fn metrics_json(metrics: &[Metric]) -> String {
    let items: Vec<String> = metrics
        .iter()
        .map(|m| {
            format!(
                "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                m.name,
                json_number(m.value),
                m.unit
            )
        })
        .collect();
    format!("{{{}}}", items.join(", "))
}

fn run(args: &Args) -> Result<Outcome, String> {
    match args.workload.as_str() {
        "campaign" => campaign::run(args),
        "serve" => serve::run(args),
        "pipeline" => pipeline::run(args),
        other => Err(format!(
            "unknown workload `{other}` (expected campaign, serve or pipeline)"
        )),
    }
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(Some(args)) => args,
        Ok(None) => {
            return match pipeline::make_artifacts() {
                Ok(()) => ExitCode::SUCCESS,
                Err(e) => {
                    eprintln!("perfbench: {e}");
                    ExitCode::FAILURE
                }
            };
        }
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let outcome = match run(&args) {
        Ok(outcome) => outcome,
        Err(e) => {
            eprintln!("perfbench: {} failed: {e}", args.workload);
            return ExitCode::FAILURE;
        }
    };
    let metrics: Vec<Metric> = if args.trace {
        PER_LAYER
            .iter()
            .map(|&(name, unit)| {
                let value = outcome
                    .per_layer
                    .iter()
                    .find(|m| m.name == name)
                    .map_or(0.0, |m| m.value);
                metric(name, value, unit)
            })
            .collect()
    } else {
        outcome.end_to_end.clone()
    };
    let mut report = outcome.report.clone();
    report.push(metric("nproc", nproc() as f64, "count"));
    println!("{{\"report\": {}}}", metrics_json(&report));
    println!(
        "{{\"correct\": true, \"attempted\": {}, \"failed\": {}, \"metrics\": {}}}",
        outcome.attempted,
        outcome.failed,
        metrics_json(&metrics)
    );
    ExitCode::SUCCESS
}
