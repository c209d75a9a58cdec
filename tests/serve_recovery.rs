//! End-to-end detect-and-retry recovery over real sockets.
//!
//! The protected golden AlexNet serves live traffic with `--retry-policy
//! retry` and a fault-injecting canary shadow replica. The pinned claims:
//!
//! * live responses stay **bit-identical** to direct single-sample
//!   evaluation — violation tracing, retry checks and the canary mirror are
//!   all invisible to the served numerics,
//! * the canary injects real faults into shadow traffic and the bounded
//!   activations detect them (`/metrics` reports nonzero measured
//!   detection coverage),
//! * retried shadow rows reproduce the clean forward **bit-for-bit** —
//!   resuming from the last clean layer boundary recovers the
//!   uncorrupted answer, end to end over HTTP.

mod common;

use fitact::{apply_protection, ActivationProfiler, ProtectionScheme};
use fitact_io::{JsonValue, ModelArtifact};
use fitact_nn::{copy_batch_into, Mode, Network};
use fitact_serve::{RetryPolicy, ServeConfig, Server};
use fitact_tensor::Tensor;
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::{Duration, Instant};

/// Per-bit canary fault rate: across an AlexNet activation volume this
/// lands a handful of flips in every shadow batch, so a short traffic burst
/// measures coverage without swamping every batch.
const CANARY_RATE: f64 = 3e-6;

fn http(addr: SocketAddr, method: &str, path: &str, body: &str) -> (u16, JsonValue) {
    let mut stream = TcpStream::connect(addr).expect("connect");
    stream
        .set_read_timeout(Some(Duration::from_secs(60)))
        .unwrap();
    let request = format!(
        "{method} {path} HTTP/1.1\r\nHost: test\r\nContent-Length: {}\r\n\r\n{body}",
        body.len()
    );
    stream.write_all(request.as_bytes()).expect("write request");
    let mut response = String::new();
    stream.read_to_string(&mut response).expect("read response");
    let status: u16 = response
        .split(' ')
        .nth(1)
        .expect("status line")
        .parse()
        .expect("numeric status");
    let json_body = response.split("\r\n\r\n").nth(1).expect("body");
    (status, JsonValue::parse(json_body).expect("JSON body"))
}

fn predict_body(inputs: &Tensor, rows: &[usize]) -> String {
    let features: usize = inputs.dims()[1..].iter().product();
    let values = inputs.as_slice();
    let rows_json: Vec<JsonValue> = rows
        .iter()
        .map(|&r| {
            JsonValue::Array(
                values[r * features..(r + 1) * features]
                    .iter()
                    .map(|&v| JsonValue::Number(f64::from(v)))
                    .collect(),
            )
        })
        .collect();
    JsonValue::Object(vec![("inputs".into(), JsonValue::Array(rows_json))]).to_string()
}

fn response_logits(body: &JsonValue) -> Vec<Vec<f32>> {
    body.get("outputs")
        .expect("outputs")
        .as_array()
        .expect("array")
        .iter()
        .map(|row| {
            row.as_array()
                .expect("row array")
                .iter()
                .map(|v| v.as_f64().expect("number") as f32)
                .collect()
        })
        .collect()
}

fn single_sample_logits(net: &mut Network, inputs: &Tensor) -> Vec<Vec<f32>> {
    let n = inputs.dims()[0];
    let mut staging = Tensor::default();
    (0..n)
        .map(|i| {
            copy_batch_into(inputs, i, i + 1, &mut staging).unwrap();
            net.forward(&staging, Mode::Eval).unwrap().into_vec()
        })
        .collect()
}

/// The protected golden AlexNet (same construction as `serve_identity.rs`):
/// calibrated on its training split, FitAct bounds installed.
fn protected_artifact() -> ModelArtifact {
    let artifact = common::trained_alexnet_artifact();
    let mut net = artifact.instantiate().expect("golden instantiates");
    let (train_x, _) = common::cnn_train_spec()
        .with_samples(24)
        .materialize()
        .expect("dataset");
    let profile = ActivationProfiler::new(8)
        .unwrap()
        .profile(&mut net, &train_x)
        .unwrap();
    let scheme = ProtectionScheme::FitAct { slope: 8.0 };
    apply_protection(&mut net, &profile, scheme).unwrap();
    let mut protected = ModelArtifact::capture_protected(&net, Some(&profile), Some(scheme))
        .expect("capture protected");
    protected.meta = artifact.meta.clone();
    protected
}

fn canary_counter(metrics: &JsonValue, field: &str) -> f64 {
    metrics
        .path(&["canary", field])
        .unwrap_or(&JsonValue::Null)
        .as_f64()
        .unwrap_or(0.0)
}

#[test]
#[cfg_attr(
    debug_assertions,
    ignore = "triple AlexNet traffic (live + clean/faulty shadow); run with --release (the CI release-test job does)"
)]
fn canary_faults_are_detected_and_retries_recover_bitwise_over_http() {
    let dir = std::env::temp_dir().join(format!("fitact_serve_recovery_{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let model_path = dir.join("model.fitact");
    let protected = protected_artifact();
    protected.save(&model_path).unwrap();
    let mut reference = protected.instantiate().unwrap();
    let (eval_x, _) = common::cnn_train_spec()
        .test()
        .with_samples(12)
        .materialize()
        .unwrap();
    let expected = single_sample_logits(&mut reference, &eval_x);

    let server = Server::start(
        &model_path,
        &ServeConfig {
            max_batch: 4,
            workers: 2,
            retry_policy: RetryPolicy::Retry,
            violation_threshold: 1,
            canary_rate: CANARY_RATE,
            ..ServeConfig::default()
        },
    )
    .expect("server starts");
    let addr = server.addr();

    // Live traffic: every response must stay bit-identical to direct
    // evaluation — detection, the canary mirror and any retries the policy
    // runs are invisible to the served numerics.
    for _ in 0..8 {
        let (status, body) = http(
            addr,
            "POST",
            "/predict",
            &predict_body(&eval_x, &(0..12).collect::<Vec<_>>()),
        );
        assert_eq!(status, 200, "{body}");
        assert_eq!(
            response_logits(&body),
            expected,
            "recovery instrumentation must never change live responses"
        );
    }

    // The shadow replica drains asynchronously; wait for it to have both
    // mirrored traffic and landed injected faults.
    let deadline = Instant::now() + Duration::from_secs(60);
    let metrics = loop {
        let (status, metrics) = http(addr, "GET", "/metrics", "");
        assert_eq!(status, 200);
        let mirrored =
            canary_counter(&metrics, "batches_total") + canary_counter(&metrics, "dropped_total");
        if (mirrored >= 8.0 && canary_counter(&metrics, "detected_batches_total") > 0.0)
            || Instant::now() > deadline
        {
            break metrics;
        }
        std::thread::sleep(Duration::from_millis(100));
    };

    // Faults were injected into shadow traffic and the bounded activations
    // caught them: measured detection coverage is reported and nonzero.
    assert!(
        canary_counter(&metrics, "faults_injected_total") > 0.0,
        "the canary must actually inject faults: {metrics}"
    );
    assert!(
        canary_counter(&metrics, "injected_batches_total") > 0.0,
        "{metrics}"
    );
    assert!(
        canary_counter(&metrics, "detected_batches_total") > 0.0,
        "violation telemetry must catch injected faults: {metrics}"
    );
    let coverage = metrics
        .path(&["canary", "detection_coverage"])
        .expect("coverage field present")
        .as_f64()
        .expect("coverage measured, not null");
    assert!(
        coverage > 0.0 && coverage <= 1.0,
        "measured detection coverage must be a nonzero fraction, got {coverage}"
    );

    // Detected shadow batches were retried from their last clean boundary,
    // and retried rows reproduce the clean forward bit-for-bit. (Rows where
    // a sub-bound corruption upstream of the resume point survives are
    // counted as mismatches — the canary quantifies them, it does not hide
    // them — but boundary resumption must recover at least some rows
    // exactly.)
    let clean_matches = canary_counter(&metrics, "retry_clean_match_rows");
    let mismatches = canary_counter(&metrics, "retry_mismatch_rows");
    assert!(
        clean_matches + mismatches > 0.0,
        "detected batches must have been retried: {metrics}"
    );
    assert!(
        clean_matches > 0.0,
        "retried rows must reproduce the clean forward bit-for-bit: {metrics}"
    );
    assert!(
        canary_counter(&metrics, "retry_transient_rows") > 0.0,
        "a retry that repaired anything differs from the faulted forward: {metrics}"
    );

    // Violation telemetry is live on the serving path itself: every slot of
    // the protected model reports its element volume.
    let layers = metrics
        .path(&["violations", "layers"])
        .expect("per-layer block");
    if let JsonValue::Object(entries) = layers {
        assert!(!entries.is_empty(), "per-layer telemetry present");
        for (label, stats) in entries {
            let elements = stats.get("elements").unwrap().as_f64().unwrap();
            assert!(elements > 0.0, "slot {label} inspected nothing");
        }
    } else {
        panic!("violations.layers must be an object: {layers}");
    }

    let (status, _) = http(addr, "POST", "/admin/shutdown", "");
    assert_eq!(status, 200);
    let final_metrics = server.join();
    assert_eq!(final_metrics.errors_total, 0);
    assert_eq!(final_metrics.responses_total, 96);
    assert_eq!(final_metrics.rows_total, 96);
    assert!(final_metrics.canary.faults_injected_total > 0);
    std::fs::remove_dir_all(&dir).ok();
}

/// `--retry-policy flag` counts suspect batches without retrying, and the
/// full recovery configuration surface is exercised in-process: flagging is
/// observe-only too.
#[test]
#[cfg_attr(
    debug_assertions,
    ignore = "AlexNet traffic; run with --release (the CI release-test job does)"
)]
fn flag_policy_counts_without_changing_responses() {
    let dir = std::env::temp_dir().join(format!("fitact_serve_flag_{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let model_path = dir.join("model.fitact");
    let protected = protected_artifact();
    protected.save(&model_path).unwrap();
    let mut reference = protected.instantiate().unwrap();
    let (eval_x, _) = common::cnn_train_spec()
        .test()
        .with_samples(8)
        .materialize()
        .unwrap();
    let expected = single_sample_logits(&mut reference, &eval_x);
    let server = Server::start(
        &model_path,
        &ServeConfig {
            max_batch: 4,
            workers: 2,
            retry_policy: RetryPolicy::Flag,
            ..ServeConfig::default()
        },
    )
    .expect("server starts");
    let addr = server.addr();
    let (status, body) = http(
        addr,
        "POST",
        "/predict",
        &predict_body(&eval_x, &(0..8).collect::<Vec<_>>()),
    );
    assert_eq!(status, 200, "{body}");
    assert_eq!(response_logits(&body), expected);
    let (_, metrics) = http(addr, "GET", "/metrics", "");
    // No canary: the shadow counters all stay zero.
    assert_eq!(canary_counter(&metrics, "batches_total"), 0.0);
    let (status, _) = http(addr, "POST", "/admin/shutdown", "");
    assert_eq!(status, 200);
    let final_metrics = server.join();
    assert_eq!(final_metrics.errors_total, 0);
    std::fs::remove_dir_all(&dir).ok();
}
