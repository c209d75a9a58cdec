//! End-to-end serving identity: the `fitact_serve` server, loaded from the
//! golden AlexNet artifact, answers concurrent micro-batched `/predict`
//! requests **bit-identically** to evaluating the same samples directly on
//! the instantiated `Network` — the acceptance gate of the serving PR.
//!
//! The guarantee composes three pinned facts:
//!
//! 1. artifact round-trips are bit-exact (`tests/artifact_identity.rs`),
//! 2. eval-mode forwards are batch-invariant
//!    (`crates/nn/tests/batch_invariance.rs`, plus the protected variant
//!    below),
//! 3. logits survive the JSON wire format exactly (`f32 → f64` widening is
//!    exact, and the emitter prints shortest-round-trip decimals).
//!
//! So whatever micro-batch composition the scheduler happens to pick under
//! concurrency, every response must equal the single-sample forward.

mod common;

use fitact::{apply_protection, ActivationProfiler, ProtectionScheme};
use fitact_io::{JsonValue, ModelArtifact};
use fitact_nn::{copy_batch_into, Mode, Network};
use fitact_serve::{ServeConfig, Server};
use fitact_tensor::Tensor;
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::Duration;

/// Minimal HTTP/1.1 client: one request, read to EOF (the server always
/// closes), parse status + JSON body.
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

/// Renders sample rows as a `/predict` body. `f32 → f64` is exact and the
/// emitter prints shortest-round-trip decimals, so the server parses back
/// the identical `f32` bits.
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

/// Extracts `outputs` rows back into `f32` logits.
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

/// Single-sample forwards — the reference the server must match bit-wise.
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

/// The protected golden AlexNet: calibrated on its training split, FitAct
/// bounds installed (no post-training — identity needs a protected
/// topology, not a tuned one).
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

#[test]
fn concurrent_batched_predictions_are_bit_identical_to_direct_evaluation() {
    let dir = std::env::temp_dir().join(format!("fitact_serve_identity_{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let model_path = dir.join("model.fitact");

    // Stage 1: serve the unprotected golden artifact.
    let artifact = common::trained_alexnet_artifact();
    artifact.save(&model_path).unwrap();
    let mut reference = artifact.instantiate().unwrap();
    let (eval_x, _) = common::cnn_train_spec()
        .test()
        .with_samples(12)
        .materialize()
        .unwrap();
    let expected = single_sample_logits(&mut reference, &eval_x);
    // Batch invariance of the reference itself: the full batch reproduces
    // the single-sample rows bit-for-bit.
    let full = reference.forward(&eval_x, Mode::Eval).unwrap();
    let width = full.numel() / 12;
    for (i, row) in expected.iter().enumerate() {
        assert_eq!(&full.as_slice()[i * width..(i + 1) * width], &row[..]);
    }

    let server = Server::start(
        &model_path,
        &ServeConfig {
            max_batch: 4,
            workers: 2,
            ..ServeConfig::default()
        },
    )
    .expect("server starts");
    let addr = server.addr();

    // One 12-row request: the scheduler must split it into full batches of
    // exactly max_batch (the push is atomic, each worker drains at most 4).
    let (status, body) = http(
        addr,
        "POST",
        "/predict",
        &predict_body(&eval_x, &(0..12).collect::<Vec<_>>()),
    );
    assert_eq!(status, 200, "{body}");
    assert_eq!(response_logits(&body), expected);
    let batch_sizes: Vec<f64> = body
        .get("batch_sizes")
        .unwrap()
        .as_array()
        .unwrap()
        .iter()
        .map(|v| v.as_f64().unwrap())
        .collect();
    assert!(
        batch_sizes.iter().all(|&b| b == 4.0),
        "12 atomically queued rows with max_batch 4 execute as 3 full batches, got {batch_sizes:?}"
    );

    // Concurrent single-row clients: whatever micro-batches the scheduler
    // coalesces across connections, every response matches its sample's
    // single-forward logits bit-for-bit.
    std::thread::scope(|scope| {
        let handles: Vec<_> = (0..8)
            .map(|i| {
                let eval_x = &eval_x;
                let expected = &expected;
                scope.spawn(move || {
                    let (status, body) =
                        http(addr, "POST", "/predict", &predict_body(eval_x, &[i]));
                    assert_eq!(status, 200, "{body}");
                    assert_eq!(response_logits(&body), vec![expected[i].clone()]);
                })
            })
            .collect();
        for handle in handles {
            handle.join().unwrap();
        }
    });

    // The metrics agree with what was served.
    let (status, metrics) = http(addr, "GET", "/metrics", "");
    assert_eq!(status, 200);
    assert_eq!(metrics.get("rows_total").unwrap().as_f64(), Some(20.0));
    assert_eq!(metrics.get("responses_total").unwrap().as_f64(), Some(20.0));
    assert_eq!(metrics.get("errors_total").unwrap().as_f64(), Some(0.0));
    let histogram = metrics.get("batch_size_histogram").unwrap();
    let (_, health) = http(addr, "GET", "/healthz", "");
    assert_eq!(health.get("status").unwrap().as_str(), Some("ok"));
    assert!(
        histogram.get("4").is_some(),
        "the 12-row request produced full batches: {histogram}"
    );

    // Stage 2: hot reload onto the protected model — the serving numerics
    // must switch to the protected network's, again bit-identically.
    let protected = protected_artifact();
    protected.save(&model_path).unwrap();
    let mut protected_reference = protected.instantiate().unwrap();
    let protected_expected = single_sample_logits(&mut protected_reference, &eval_x);
    assert_ne!(
        protected_expected, expected,
        "protection must actually change the logits for the reload to be observable"
    );
    let (status, reload) = http(addr, "POST", "/admin/reload", "");
    assert_eq!(status, 200, "{reload}");
    assert_eq!(reload.get("generation").unwrap().as_f64(), Some(2.0));
    let (status, body) = http(
        addr,
        "POST",
        "/predict",
        &predict_body(&eval_x, &(0..12).collect::<Vec<_>>()),
    );
    assert_eq!(status, 200, "{body}");
    assert_eq!(
        response_logits(&body),
        protected_expected,
        "after reload, responses are bit-identical to the protected model"
    );

    // Graceful shutdown: the admin call is answered, join() returns the
    // final snapshot, and the totals cover everything served.
    let (status, bye) = http(addr, "POST", "/admin/shutdown", "");
    assert_eq!(status, 200);
    assert_eq!(bye.get("status").unwrap().as_str(), Some("shutting down"));
    let final_metrics = server.join();
    assert_eq!(final_metrics.rows_total, 32);
    assert_eq!(final_metrics.responses_total, 32);
    assert_eq!(final_metrics.errors_total, 0);
    assert_eq!(final_metrics.reloads_total, 1);
    std::fs::remove_dir_all(&dir).ok();
}

/// The batch-invariance pin for a *protected* network (the unprotected
/// variants live in `crates/nn/tests/batch_invariance.rs`; the protection
/// schemes come from the `fitact` core crate, so this one lives here):
/// FitAct wrappers are elementwise, so protection cannot reintroduce batch
/// coupling — a fault-campaign-validated model serves traffic with the
/// exact numerics the campaign measured.
#[test]
fn protected_forward_is_batch_invariant() {
    let protected = protected_artifact();
    let mut net = protected.instantiate().unwrap();
    let (eval_x, _) = common::cnn_train_spec()
        .test()
        .with_samples(10)
        .materialize()
        .unwrap();
    let full = net.forward(&eval_x, Mode::Eval).unwrap();
    let singles = single_sample_logits(&mut net, &eval_x);
    let width = full.numel() / 10;
    for (i, row) in singles.iter().enumerate() {
        assert_eq!(
            &full.as_slice()[i * width..(i + 1) * width],
            &row[..],
            "sample {i}"
        );
    }
}
