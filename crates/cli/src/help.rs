//! Per-command `--help` texts.
//!
//! These are the single source of truth for the CLI surface together with
//! `docs/cli.md`: the reference document reproduces exactly the flags,
//! defaults and exit codes listed here, and `crates/cli` unit tests pin the
//! two against drift (every flag a command accepts must appear in its help
//! text, and vice versa).

/// The per-command help text, or `None` for an unknown command.
pub fn for_command(command: &str) -> Option<&'static str> {
    Some(match command {
        "train" => TRAIN,
        "calibrate" => CALIBRATE,
        "protect" => PROTECT,
        "campaign" => CAMPAIGN,
        "inspect" => INSPECT,
        "serve" => SERVE,
        "diff-report" => DIFF_REPORT,
        "bench-gate" => BENCH_GATE,
        _ => return None,
    })
}

pub const TRAIN: &str = "\
fitact train — stage-1 accuracy training on a synthetic dataset

USAGE:
    fitact train --out <model.fitact> [flags]

FLAGS:
    --out PATH           (required) artifact to write
    --dataset NAME       blobs | synthetic-cifar          [default: blobs]
    --arch NAME          mlp | alexnet                    [default: mlp]
    --classes N          number of classes                [default: 3]
    --samples N          training samples                 [default: 256]
    --data-seed N        dataset generator seed           [default: 1]
    --hidden N           mlp hidden width                 [default: 32]
    --width F            alexnet width multiplier         [default: 0.0626]
    --epochs N           training epochs                  [default: 15]
    --lr F               learning rate                    [default: 0.05]
    --batch-size N       mini-batch size                  [default: 32]
    --seed N             weight-init / shuffle seed       [default: 0]

Prints one JSON report; the dataset spec is recorded as artifact metadata
so later stages rematerialise the identical split.
Exit codes: 0 success, 2 usage/runtime error.
";

pub const CALIBRATE: &str = "\
fitact calibrate — profile per-neuron activation maxima, embed the profile

USAGE:
    fitact calibrate --model <model.fitact> [flags]

FLAGS:
    --model PATH         (required) artifact to read
    --out PATH           artifact to write                [default: --model]
    --samples N          calibration samples              [default: artifact's]
    --batch-size N       profiling batch size             [default: 32]
    --test-split BOOL    profile on the held-out split    [default: false]

Exit codes: 0 success, 2 usage/runtime error.
";

pub const PROTECT: &str = "\
fitact protect — apply a protection scheme using the embedded profile

USAGE:
    fitact protect --model <calibrated.fitact> --out <protected.fitact> [flags]

FLAGS:
    --model PATH         (required) calibrated artifact to read
    --out PATH           (required) protected artifact to write
    --scheme NAME        unprotected | ranger | clipact | clipact-per-channel |
                         fitact | fitact-naive            [default: fitact]
    --slope F            FitReLU sigmoid slope            [default: 8]
    --post-train-epochs N  FitAct bound post-training     [default: 0]
    --zeta F             bound-regulariser weight         [default: 0.05]
    --delta F            accuracy-drop constraint         [default: 0.05]
    --lr F               post-training learning rate      [default: 0.02]
    --batch-size N       post-training batch size         [default: 32]
    --samples N          post-training samples            [default: artifact's]
    --test-split BOOL    post-train on the held-out split [default: false]
    --seed N             post-training shuffle seed       [default: 0]
    --precision NAME     f32 | f16 | int8: element type the protected
                         artifact stores its weights in   [default: f32]

Exit codes: 0 success, 2 usage/runtime error.
";

pub const CAMPAIGN: &str = "\
fitact campaign — statistical fault campaign with a Wilson-CI report

USAGE:
    fitact campaign --model <model.fitact> [flags]
    fitact campaign --model <model.fitact> --distributed true [flags]
    fitact campaign --worker true --coordinator <host:port> [flags]

FLAGS:
    --model PATH         (required unless worker mode) artifact to evaluate
    --out PATH           also write the JSON report here
    --fault-rate F       per-bit fault rate               [default: 1e-3]
    --epsilon F          target CI half-width             [default: 0.05]
    --confidence F       CI confidence level              [default: 0.95]
    --critical-threshold F  accuracy drop counted as critical SDC [default: 0.05]
    --round-trials N     trials per stratum per round     [default: 8]
    --min-trials N       minimum before early stopping    [default: 24]
    --max-trials N       total trial budget               [default: 256]
    --allocation NAME    round-budget allocation policy: `equal` splits each
                         round evenly across strata; `neyman` reallocates in
                         proportion to stratum weight × estimated σ from the
                         merged pools (deterministic, delivery-order
                         independent)                     [default: equal]
    --floor-trials N     per-stratum minimum per round under `neyman`
                         (keeps every σ estimate alive)   [default: 1]
    --seed N             per-trial fault streams seed     [default: 0]
    --samples N          evaluation samples               [default: artifact's]
    --batch-size N       evaluation batch size            [default: 32]
    --test-split BOOL    evaluate the held-out split      [default: false]

RESUMABLE RUNS:
    --checkpoint PATH    checkpoint campaign state after every round
                         (atomic rename, crash-safe); SIGTERM/SIGINT
                         checkpoints and exits 0 with a resumable JSON
                         line, and re-running with the same flags resumes
                         bit-identically

COORDINATOR MODE (shards trials into leased work units over HTTP):
    --distributed BOOL   run as campaign coordinator      [default: false]
    --listen ADDR        bind address; port 0 is ephemeral [default: 127.0.0.1:0]
    --unit-trials N      trials per leased work unit      [default: 4]
    --lease-ms N         unit lease before re-dispatch    [default: 30000]
    --local-execute BOOL coordinator also executes units
                         (solo completion without workers) [default: true]

WORKER MODE (config, dataset and model all come from the coordinator):
    --worker BOOL        run as campaign worker           [default: false]
    --coordinator ADDR   coordinator to pull units from (required)
    --worker-id ID       stable worker identity           [default: worker-<pid>]

The report is bit-identical across all three modes, any worker count and
any interruption/resume pattern (see docs/distributed.md).
Exit codes: 0 success (including a graceful resumable stop), 2 usage/
runtime error.
";

pub const INSPECT: &str = "\
fitact inspect — summarise an artifact without running anything

USAGE:
    fitact inspect --model <model.fitact>

FLAGS:
    --model PATH         (required) artifact to summarise

Prints name, format version, layer list, parameter shapes, protection
scheme, profile presence and metadata as one JSON object.
Exit codes: 0 success, 2 usage/runtime error.
";

pub const SERVE: &str = "\
fitact serve — micro-batched HTTP inference server over an artifact

USAGE:
    fitact serve <model.fitact> [flags]
    fitact serve --model <model.fitact> [flags]

FLAGS:
    --model PATH         the artifact to serve (alternative to the
                         positional form)
    --host ADDR          bind address                     [default: 127.0.0.1]
    --port N             bind port; 0 picks an ephemeral port [default: 8080]
    --max-batch N        most rows one forward pass coalesces; a free
                         worker takes whatever is queued, up to this
                         [default: 8]
    --workers N          worker threads (warm model clones) [default: 2]
    --input-shape DIMS   per-sample input shape, e.g. 3x32x32
                         [default: inferred from the artifact]
    --max-body-bytes N   request body size limit          [default: 8388608]
    --max-queue N        pending-row cap; beyond it /predict answers 503
                         [default: 1024]
    --max-connections N  concurrent-connection cap; excess answered 503
                         with Retry-After (load-shedding)  [default: 256]
    --io-timeout-ms N    deadline for socket progress while a request is
                         being read or a response written; a stalled
                         connection is answered 408       [default: 30000]
    --idle-timeout-ms N  how long an idle keep-alive connection may sit
                         between requests before it is closed
                         [default: 60000]
    --retry-policy NAME  off | flag | retry: what to do when a batch's
                         violation trace crosses the threshold [default: off]
    --violation-threshold N  per-batch violation count that makes a batch
                         suspect                          [default: 1]
    --canary-rate F      per-bit fault rate for the fault-injected shadow
                         replica; 0 disables it           [default: 0]
    --precision NAME     f32 | f16 | int8: require the artifact to store
                         its weights in this element type; startup and
                         hot reload fail on a mismatch    [default: any]

ENDPOINTS:
    POST /predict        {\"inputs\": [[...], ...]} or {\"input\": [...]} ->
                         {\"outputs\", \"classes\", \"batch_sizes\"}
    GET  /healthz        liveness + model identity
    GET  /metrics        counters, batch-size histogram, latency percentiles,
                         violation/recovery/canary telemetry
    POST /admin/reload   hot-swap the artifact from disk
    POST /admin/metrics/reset  empty the latency window (counters untouched)
    POST /admin/shutdown graceful drain + stop

On startup one JSON line with the bound address is printed and flushed;
the process then blocks until POST /admin/shutdown and prints a final
JSON summary. Responses are bit-identical to single-sample evaluation
regardless of batching (see docs/serving.md), and with the default
retry policy also byte-identical to a server without recovery
(see docs/recovery.md).
Exit codes: 0 graceful shutdown, 2 usage/runtime error.
";

pub const DIFF_REPORT: &str = "\
fitact diff-report — gate a campaign report against a golden report

USAGE:
    fitact diff-report --report <report.json> --golden <golden.json> [flags]

FLAGS:
    --report PATH        (required) candidate campaign report
    --golden PATH        (required) committed golden report
    --accuracy-tolerance F  allowed |accuracy delta|      [default: 0 = exact]

Fault-free accuracy must match exactly (the pipeline is bit-deterministic
on a given host); Monte-Carlo SDC rates must agree up to confidence-
interval overlap.
Exit codes: 0 gates hold, 1 a gate failed, 2 usage/runtime error.
";

pub const BENCH_GATE: &str = "\
fitact bench-gate — gate bench JSON against a committed baseline

USAGE:
    fitact bench-gate --current <BENCH.json> --baseline <baseline.json> [flags]

FLAGS:
    --current PATH       (required) freshly measured bench JSON
    --baseline PATH      (required) committed baseline JSON
    --max-regression F   allowed relative speedup loss    [default: 0.20]
    --case NAME          gate the named sub-object (e.g. campaign_throughput,
                         matmul_f16) so one baseline file carries every
                         gated case                       [default: top level]

The bench's bit-identity flag must hold and the measured speedup must not
regress more than --max-regression against the baseline.
Exit codes: 0 gates hold, 1 a gate failed, 2 usage/runtime error.
";

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_command_has_help() {
        for cmd in [
            "train",
            "calibrate",
            "protect",
            "campaign",
            "inspect",
            "serve",
            "diff-report",
            "bench-gate",
        ] {
            let text = for_command(cmd).expect(cmd);
            assert!(text.contains(cmd), "help for {cmd} names the command");
            assert!(text.contains("Exit codes"), "help for {cmd} lists exits");
        }
        assert!(for_command("nope").is_none());
    }
}
