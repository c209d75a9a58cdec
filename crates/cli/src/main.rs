//! `fitact` — the FitAct pipeline driver.
//!
//! Subcommands compose through on-disk model artifacts (see the `fitact_io`
//! crate for the format) and print one JSON object to stdout each, so
//! pipelines are scriptable and CI can gate on the reports:
//!
//! ```bash
//! fitact train     --out model.fitact --dataset blobs --epochs 25
//! fitact calibrate --model model.fitact --out calibrated.fitact
//! fitact protect   --model calibrated.fitact --scheme fitact \
//!                  --post-train-epochs 3 --out protected.fitact
//! fitact campaign  --model protected.fitact --fault-rate 1e-3 --out report.json
//! fitact inspect   --model protected.fitact
//!
//! # CI gates
//! fitact diff-report --report report.json --golden ci/golden/pipeline_golden.json
//! fitact bench-gate  --current BENCH_campaign.json --baseline ci/golden/bench_baseline.json
//! ```
//!
//! Exit codes: `0` success, `1` a regression gate failed, `2` usage or
//! runtime error.

mod args;
mod gates;
mod help;
mod pipeline;
mod serve;
mod signals;

use std::process::ExitCode;

/// CLI failure modes, split by exit code.
#[derive(Debug)]
pub enum CliError {
    /// Bad flags or a failed pipeline stage (exit 2). Holds the message.
    Usage(String),
    /// A regression gate tripped (exit 1). Holds the JSON verdict.
    Gate(String),
}

impl From<String> for CliError {
    fn from(msg: String) -> Self {
        CliError::Usage(msg)
    }
}

impl From<&str> for CliError {
    fn from(msg: &str) -> Self {
        CliError::Usage(msg.into())
    }
}

const USAGE: &str = "\
fitact — FitAct pipeline driver (artifacts in, JSON reports out)

USAGE:
    fitact <COMMAND> [--flag value ...]

PIPELINE COMMANDS:
    train        Train a model on a synthetic dataset and save an artifact
                 (--out; --dataset blobs|synthetic-cifar, --arch mlp|alexnet,
                  --classes, --samples, --data-seed, --hidden, --width,
                  --epochs, --lr, --batch-size, --seed)
    calibrate    Profile activation maxima and embed them in the artifact
                 (--model; --out, --samples, --batch-size, --test-split)
    protect      Apply a protection scheme using the embedded profile
                 (--model, --out; --scheme, --slope, --post-train-epochs,
                  --zeta, --delta, --lr, --batch-size, --seed)
    campaign     Run a statistical fault campaign, emit the Wilson-CI report
                 (--model; --out, --fault-rate, --epsilon, --confidence,
                  --critical-threshold, --round-trials, --min-trials,
                  --max-trials, --seed, --samples, --batch-size, --test-split;
                  --checkpoint for resumable runs; --distributed/--listen/
                  --unit-trials/--lease-ms/--local-execute for the
                  coordinator, --worker/--coordinator/--worker-id for workers)
    inspect      Summarise an artifact without running anything (--model)

SERVING:
    serve        Micro-batched HTTP inference server over an artifact
                 (<model.fitact> or --model; --host, --port, --max-batch,
                  --workers, --input-shape, --max-body-bytes;
                  endpoints /predict /healthz /metrics /admin/reload
                  /admin/shutdown)

CI GATES:
    diff-report  Compare a campaign report against a golden report
                 (--report, --golden; --accuracy-tolerance, default 0 = exact):
                 accuracy exact, SDC rates CI-overlap
    bench-gate   Compare bench JSON against a baseline (--current, --baseline;
                 --max-regression, default 0.20)

Run `fitact <COMMAND> --help` for the full per-command reference; the same
material lives in docs/cli.md.

Exit codes: 0 success, 1 gate failure, 2 usage/runtime error.
";

fn run(command: &str, rest: &[String]) -> Result<fitact_io::JsonValue, CliError> {
    match command {
        "train" => pipeline::train(rest),
        "calibrate" => pipeline::calibrate(rest),
        "protect" => pipeline::protect(rest),
        "campaign" => pipeline::campaign(rest),
        "inspect" => pipeline::inspect(rest),
        "serve" => serve::serve(rest),
        "diff-report" => gates::diff_report(rest),
        "bench-gate" => gates::bench_gate(rest),
        other => Err(CliError::Usage(format!(
            "unknown command `{other}`\n\n{USAGE}"
        ))),
    }
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let Some(command) = argv.first() else {
        eprintln!("{USAGE}");
        return ExitCode::from(2);
    };
    if command == "--help" || command == "-h" || command == "help" {
        println!("{USAGE}");
        return ExitCode::SUCCESS;
    }
    // `fitact <command> --help` prints the per-command reference (kept in
    // lockstep with docs/cli.md) instead of running the command.
    if argv[1..].iter().any(|a| a == "--help" || a == "-h") {
        return match help::for_command(command) {
            Some(text) => {
                println!("{text}");
                ExitCode::SUCCESS
            }
            None => {
                eprintln!("fitact: unknown command `{command}`\n\n{USAGE}");
                ExitCode::from(2)
            }
        };
    }
    match run(command, &argv[1..]) {
        Ok(report) => {
            println!("{report}");
            ExitCode::SUCCESS
        }
        Err(CliError::Gate(verdict)) => {
            // The verdict is the machine-readable output; the failure detail
            // also goes to stderr for humans reading CI logs.
            println!("{verdict}");
            eprintln!("fitact {command}: gate failed");
            ExitCode::from(1)
        }
        Err(CliError::Usage(msg)) => {
            eprintln!("fitact {command}: {msg}");
            ExitCode::from(2)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The full command surface: every command, with the flags its parser
    /// accepts.
    fn surface() -> Vec<(&'static str, &'static [&'static str])> {
        vec![
            ("train", pipeline::TRAIN_FLAGS),
            ("calibrate", pipeline::CALIBRATE_FLAGS),
            ("protect", pipeline::PROTECT_FLAGS),
            ("campaign", pipeline::CAMPAIGN_FLAGS),
            ("inspect", pipeline::INSPECT_FLAGS),
            ("serve", serve::SERVE_FLAGS),
            ("diff-report", gates::DIFF_REPORT_FLAGS),
            ("bench-gate", gates::BENCH_GATE_FLAGS),
        ]
    }

    /// `--help` (and docs/cli.md, which mirrors it) cannot drift from the
    /// parser: every accepted flag appears in the command's help text, and
    /// every `--flag` the help text mentions is accepted.
    #[test]
    fn help_texts_match_accepted_flags() {
        for (command, flags) in surface() {
            let text = help::for_command(command).expect("command has help");
            for flag in flags {
                assert!(
                    text.contains(&format!("--{flag}")),
                    "help for `{command}` is missing --{flag}"
                );
            }
            for word in text.split_whitespace() {
                if let Some(flag) = word.strip_prefix("--") {
                    let flag = flag.trim_end_matches([',', ')', ']', ';', '.']);
                    if !flag.is_empty() {
                        assert!(
                            flags.contains(&flag),
                            "help for `{command}` mentions unaccepted --{flag}"
                        );
                    }
                }
            }
        }
    }

    /// The top-level usage names every routable command (and only real ones
    /// are routable: `run` on an unknown command errors).
    #[test]
    fn usage_names_every_command() {
        for (command, _) in surface() {
            assert!(USAGE.contains(command), "USAGE is missing `{command}`");
        }
        assert!(matches!(
            run("frobnicate", &[]),
            Err(CliError::Usage(msg)) if msg.contains("unknown command")
        ));
    }
}
