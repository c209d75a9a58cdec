//! The campaign worker: pulls leased work units from a coordinator,
//! executes them bit-identically and reports results with retry.
//!
//! A worker is stateless by design — everything it needs (campaign config,
//! dataset provenance, the model artifact) is fetched from the coordinator
//! at startup, and every trial is a pure function of `(seed, stratum,
//! index)`. Workers can therefore join late, crash, restart or be killed
//! mid-unit without affecting the campaign's result: an unreported lease
//! simply expires and the unit is re-dispatched.
//!
//! All coordinator interactions retry through one [`Backoff`] policy
//! (exponential with seeded jitter, reset on success). A `409 Conflict`
//! from the coordinator is **not** retried: it signals a broken determinism
//! contract (mismatched build, model or seed) and the worker aborts with a
//! typed error instead of hammering a campaign it can only poison.

use crate::backoff::Backoff;
use crate::http::Response;
use crate::protocol::{
    fault_model_by_name, http_call, Grant, UnitResult, MAX_BINARY_BODY, MAX_CONTROL_BODY,
};
use crate::ServeError;
use fitact_data::DataSpec;
use fitact_faults::{FaultModel, UnitRunner, TRIAL_STREAM_PROVENANCE};
use fitact_io::{fingerprint_bytes, CampaignSpec, ModelArtifact};
use std::sync::atomic::{AtomicBool, Ordering};
use std::time::Duration;

/// Worker-side options.
#[derive(Debug, Clone)]
pub struct WorkerConfig {
    /// Coordinator address (`host:port`).
    pub coordinator: String,
    /// Stable worker id (appears in leases and coordinator logs).
    pub worker_id: String,
    /// Evaluation threads for unit execution.
    pub threads: usize,
    /// Base retry delay in milliseconds.
    pub backoff_base_ms: u64,
    /// Retry delay cap in milliseconds.
    pub backoff_cap_ms: u64,
    /// Consecutive failed attempts before the worker gives up on the
    /// coordinator.
    pub max_retries: u32,
    /// Per-exchange socket timeout.
    pub request_timeout: Duration,
}

impl Default for WorkerConfig {
    fn default() -> Self {
        WorkerConfig {
            coordinator: "127.0.0.1:0".into(),
            worker_id: "worker".into(),
            threads: 1,
            backoff_base_ms: 100,
            backoff_cap_ms: 5_000,
            max_retries: 8,
            request_timeout: Duration::from_secs(10),
        }
    }
}

/// What a worker accomplished before exiting cleanly.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WorkerSummary {
    /// The worker's id.
    pub worker_id: String,
    /// Units executed and accepted.
    pub units: usize,
    /// Trials executed and accepted.
    pub trials: usize,
}

/// Retries `call` under `backoff` until it succeeds or `max_retries`
/// consecutive attempts fail. `Err` values are retryable transport
/// failures; HTTP status handling is the caller's business.
fn with_retries<T>(
    what: &str,
    backoff: &mut Backoff,
    max_retries: u32,
    stop: &AtomicBool,
    mut call: impl FnMut() -> Result<T, String>,
) -> Result<T, ServeError> {
    loop {
        if stop.load(Ordering::SeqCst) {
            return Err(ServeError::Campaign(format!("{what}: stopped")));
        }
        match call() {
            Ok(value) => {
                backoff.reset();
                return Ok(value);
            }
            Err(e) if backoff.attempt() < max_retries => {
                std::thread::sleep(Duration::from_millis(backoff.next_delay_ms()));
                let _ = e;
            }
            Err(e) => {
                return Err(ServeError::Campaign(format!(
                    "{what} failed after {max_retries} retries: {e}"
                )));
            }
        }
    }
}

/// A successful exchange whose status is still fatal (4xx) vs retryable
/// (5xx / transport): 5xx is turned back into a retryable `Err`.
fn retryable_status(response: Response) -> Result<Response, String> {
    if response.status >= 500 {
        Err(format!("coordinator answered {}", response.status))
    } else {
        Ok(response)
    }
}

/// Runs a worker until the coordinator reports the campaign done or `stop`
/// becomes `true`. Fetches the campaign spec and model artifact, verifies
/// the determinism contract (provenance tag, artifact fingerprint and the
/// recomputed fault-free baseline must match the coordinator's bit-exactly)
/// and then loops fetch-unit → execute → report.
///
/// # Errors
///
/// [`ServeError::Campaign`] when the coordinator stays unreachable past the
/// retry budget, serves an incompatible campaign, or rejects a result with
/// `409 Conflict` (determinism violation).
pub fn run_worker_until(
    config: &WorkerConfig,
    stop: &AtomicBool,
) -> Result<WorkerSummary, ServeError> {
    let mut backoff = Backoff::new(
        config.backoff_base_ms,
        config.backoff_cap_ms,
        fingerprint_bytes(config.worker_id.as_bytes()),
    );
    let addr = config.coordinator.as_str();
    let timeout = config.request_timeout;

    let spec_response = with_retries(
        "fetch campaign spec",
        &mut backoff,
        config.max_retries,
        stop,
        || {
            http_call(
                addr,
                "GET",
                "/campaign/spec",
                &[],
                timeout,
                MAX_CONTROL_BODY,
            )
            .and_then(retryable_status)
        },
    )?;
    let spec = CampaignSpec::from_bytes(&spec_response.body)?;
    if spec.provenance != TRIAL_STREAM_PROVENANCE {
        return Err(ServeError::Campaign(format!(
            "coordinator derives trial streams as `{}`, this build as `{}`; results would not \
             be bit-identical",
            spec.provenance, TRIAL_STREAM_PROVENANCE
        )));
    }
    let model: Box<dyn FaultModel> = fault_model_by_name(&spec.model).ok_or_else(|| {
        ServeError::Campaign(format!(
            "campaign uses fault model `{}`, which cannot travel by name",
            spec.model
        ))
    })?;

    let artifact_response = with_retries(
        "fetch model artifact",
        &mut backoff,
        config.max_retries,
        stop,
        || {
            http_call(
                addr,
                "GET",
                "/campaign/model",
                &[],
                timeout,
                MAX_BINARY_BODY,
            )
            .and_then(retryable_status)
        },
    )?;
    if fingerprint_bytes(&artifact_response.body) != spec.artifact_fingerprint {
        return Err(ServeError::Campaign(
            "model artifact bytes do not match the campaign spec's fingerprint".into(),
        ));
    }
    let artifact = ModelArtifact::from_bytes(&artifact_response.body)?;
    let mut network = artifact.instantiate()?;
    // Match the serial campaign path, which quantizes before running — part
    // of the bit-identity contract (and checked below through the baseline).
    fitact_faults::quantize_network(&mut network);

    let data_spec = DataSpec::from_meta(|key| {
        spec.data_meta
            .iter()
            .find(|(k, _)| k == key)
            .map(|(_, v)| v.as_str())
    })
    .ok_or_else(|| ServeError::Campaign("campaign spec carries no dataset provenance".into()))?;
    let (inputs, targets) = data_spec
        .materialize()
        .map_err(|e| ServeError::Campaign(format!("dataset generation failed: {e}")))?;

    let mut runner = UnitRunner::new(
        network,
        inputs,
        targets,
        &spec.config,
        config.threads.max(1),
    )
    .map_err(|e| ServeError::Campaign(e.to_string()))?;
    if runner.fault_free_accuracy().to_bits() != spec.fault_free_accuracy.to_bits() {
        return Err(ServeError::Campaign(format!(
            "recomputed fault-free baseline {} differs bitwise from the coordinator's {}; \
             refusing to contribute non-identical results",
            runner.fault_free_accuracy(),
            spec.fault_free_accuracy
        )));
    }

    let mut summary = WorkerSummary {
        worker_id: config.worker_id.clone(),
        units: 0,
        trials: 0,
    };
    let unit_target = format!("/campaign/unit?worker={}", config.worker_id);
    loop {
        if stop.load(Ordering::SeqCst) {
            return Ok(summary);
        }
        let grant_response = with_retries(
            "fetch work unit",
            &mut backoff,
            config.max_retries,
            stop,
            || {
                http_call(addr, "GET", &unit_target, &[], timeout, MAX_CONTROL_BODY)
                    .and_then(retryable_status)
            },
        )?;
        let grant = Grant::from_json(std::str::from_utf8(&grant_response.body).unwrap_or(""))
            .map_err(|e| ServeError::Campaign(format!("malformed grant: {e}")))?;
        match grant {
            Grant::Done => return Ok(summary),
            Grant::Wait { retry_ms } => {
                std::thread::sleep(Duration::from_millis(retry_ms.min(2_000)));
            }
            Grant::Unit { unit, .. } => {
                let points = runner
                    .run_unit(model.as_ref(), unit.stratum, unit.start, unit.count)
                    .map_err(|e| ServeError::Campaign(format!("unit execution failed: {e}")))?;
                let trials = points.len();
                let result = UnitResult {
                    worker: config.worker_id.clone(),
                    unit,
                    points,
                };
                let body = result.to_json();
                let report_response = with_retries(
                    "report unit result",
                    &mut backoff,
                    config.max_retries,
                    stop,
                    || {
                        http_call(
                            addr,
                            "POST",
                            "/campaign/result",
                            body.as_bytes(),
                            timeout,
                            MAX_CONTROL_BODY,
                        )
                        .and_then(retryable_status)
                    },
                )?;
                if report_response.status == 409 {
                    return Err(ServeError::Campaign(format!(
                        "coordinator rejected unit {}: {}",
                        unit.id,
                        String::from_utf8_lossy(&report_response.body)
                    )));
                }
                summary.units += 1;
                summary.trials += trials;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn retry_helper_retries_then_gives_up_with_a_typed_error() {
        let stop = AtomicBool::new(false);
        let mut backoff = Backoff::new(1, 2, 0);
        let mut calls = 0;
        let out: Result<u32, _> = with_retries("probe", &mut backoff, 3, &stop, || {
            calls += 1;
            if calls < 3 {
                Err("down".into())
            } else {
                Ok(7)
            }
        });
        assert_eq!(out.unwrap(), 7);
        assert_eq!(calls, 3);
        assert_eq!(backoff.attempt(), 0, "success resets the backoff");

        let mut backoff = Backoff::new(1, 2, 0);
        let mut calls = 0;
        let out: Result<u32, _> = with_retries("probe", &mut backoff, 2, &stop, || {
            calls += 1;
            Err("still down".into())
        });
        match out {
            Err(ServeError::Campaign(msg)) => {
                assert!(msg.contains("probe"), "{msg}");
                assert!(msg.contains("still down"), "{msg}");
            }
            other => panic!("expected Campaign error, got {other:?}"),
        }
        assert_eq!(calls, 3, "initial try plus two retries");
    }

    #[test]
    fn retry_helper_honours_the_stop_flag() {
        let stop = AtomicBool::new(true);
        let mut backoff = Backoff::new(1, 2, 0);
        let out: Result<u32, _> =
            with_retries("probe", &mut backoff, 100, &stop, || Err("never".into()));
        assert!(matches!(out, Err(ServeError::Campaign(_))));
    }

    #[test]
    fn server_errors_are_retryable_client_errors_are_not() {
        let ok = Response {
            status: 409,
            headers: Vec::new(),
            body: Vec::new(),
        };
        assert_eq!(retryable_status(ok).unwrap().status, 409);
        let bad = Response {
            status: 503,
            headers: Vec::new(),
            body: Vec::new(),
        };
        assert!(retryable_status(bad).is_err());
    }

    #[test]
    fn unreachable_coordinator_fails_after_the_retry_budget() {
        let config = WorkerConfig {
            // Reserved port on localhost: connects fail fast.
            coordinator: "127.0.0.1:1".into(),
            worker_id: "w-test".into(),
            backoff_base_ms: 1,
            backoff_cap_ms: 2,
            max_retries: 2,
            request_timeout: Duration::from_millis(200),
            ..WorkerConfig::default()
        };
        match run_worker_until(&config, &AtomicBool::new(false)) {
            Err(ServeError::Campaign(msg)) => assert!(msg.contains("fetch campaign spec"), "{msg}"),
            other => panic!("expected Campaign error, got {other:?}"),
        }
    }
}
