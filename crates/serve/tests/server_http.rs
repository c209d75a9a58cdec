//! Server behaviour tests over real sockets: routing, error paths,
//! validation, shutdown semantics and startup failure modes.
//!
//! (The bit-identity acceptance test against the golden AlexNet artifact
//! lives in the workspace suite `tests/serve_identity.rs`.)

use fitact_io::{JsonValue, ModelArtifact};
use fitact_nn::layers::{ActivationLayer, Linear, Sequential};
use fitact_nn::Network;
use fitact_serve::{ServeConfig, ServeError, Server};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::io::{Read, Write};
use std::net::{Shutdown, SocketAddr, TcpStream};
use std::path::PathBuf;
use std::time::Duration;

fn http(addr: SocketAddr, method: &str, path: &str, body: &str) -> (u16, JsonValue) {
    let mut stream = TcpStream::connect(addr).expect("connect");
    stream
        .set_read_timeout(Some(Duration::from_secs(30)))
        .unwrap();
    let request = format!(
        "{method} {path} HTTP/1.1\r\nHost: t\r\nContent-Length: {}\r\n\r\n{body}",
        body.len()
    );
    stream.write_all(request.as_bytes()).unwrap();
    let mut response = String::new();
    stream.read_to_string(&mut response).unwrap();
    let status: u16 = response.split(' ').nth(1).unwrap().parse().unwrap();
    let body = response.split("\r\n\r\n").nth(1).unwrap();
    (status, JsonValue::parse(body).expect("JSON body"))
}

fn tiny_artifact() -> ModelArtifact {
    let mut rng = StdRng::seed_from_u64(77);
    let net = Network::new(
        "tiny-mlp",
        Sequential::new()
            .with(Box::new(Linear::new(4, 16, &mut rng)))
            .with(Box::new(ActivationLayer::relu("h", &[16])))
            .with(Box::new(Linear::new(16, 3, &mut rng))),
    );
    ModelArtifact::capture(&net).unwrap()
}

fn temp_model(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("fitact_serve_http_{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    dir.join(name)
}

/// Saves the tiny model under `file` (one name per test, so no two tests
/// share an artifact) and serves it.
fn start_tiny(file: &str, max_batch: usize) -> (Server, SocketAddr, PathBuf) {
    let path = temp_model(file);
    tiny_artifact().save(&path).unwrap();
    let server = Server::start(
        &path,
        &ServeConfig {
            max_batch,
            workers: 2,
            ..ServeConfig::default()
        },
    )
    .unwrap();
    let addr = server.addr();
    (server, addr, path)
}

#[test]
fn routing_and_validation_errors() {
    let (server, addr, _) = start_tiny("routing.fitact", 4);
    // Unknown route.
    let (status, body) = http(addr, "GET", "/nope", "");
    assert_eq!(status, 404);
    assert!(body
        .get("error")
        .unwrap()
        .as_str()
        .unwrap()
        .contains("/nope"));
    // Known route, wrong method.
    let (status, _) = http(addr, "GET", "/predict", "");
    assert_eq!(status, 405);
    let (status, _) = http(addr, "POST", "/healthz", "");
    assert_eq!(status, 405);
    // Malformed bodies.
    let (status, body) = http(addr, "POST", "/predict", "not json");
    assert_eq!(status, 400);
    assert!(body
        .get("error")
        .unwrap()
        .as_str()
        .unwrap()
        .contains("JSON"));
    let (status, body) = http(addr, "POST", "/predict", r#"{"inputs": [[1, 2]]}"#);
    assert_eq!(status, 400);
    assert!(body
        .get("error")
        .unwrap()
        .as_str()
        .unwrap()
        .contains("the model takes 4"));
    // Errors do not poison the server.
    let (status, body) = http(addr, "POST", "/predict", r#"{"input": [1, 2, 3, 4]}"#);
    assert_eq!(status, 200, "{body}");
    assert_eq!(body.get("outputs").unwrap().as_array().unwrap().len(), 1);
    server.shutdown();
    server.join();
}

#[test]
fn malformed_http_framing_is_answered_with_400() {
    let (server, addr, _) = start_tiny("framing.fitact", 4);
    let mut stream = TcpStream::connect(addr).unwrap();
    stream
        .set_read_timeout(Some(Duration::from_secs(30)))
        .unwrap();
    stream.write_all(b"GET /healthz SPDY/99\r\n\r\n").unwrap();
    let mut response = String::new();
    stream.read_to_string(&mut response).unwrap();
    assert!(response.starts_with("HTTP/1.1 400"), "{response}");
    server.shutdown();
    server.join();
}

/// A client may half-close (FIN) right after its request, as the campaign
/// workers' `http_call` does: the request is still answered, even when the
/// FIN arrives in the same read as the request bytes.
#[test]
fn requests_followed_by_a_half_close_are_answered() {
    // Its own artifact file: rewriting one another test has mapped would
    // pull the pages out from under that server.
    let path = temp_model("half_close.fitact");
    tiny_artifact().save(&path).unwrap();
    let server = Server::start(&path, &ServeConfig::default()).unwrap();
    let addr = server.addr();
    let mut answered = 0;
    for _ in 0..20 {
        let mut stream = TcpStream::connect(addr).unwrap();
        stream
            .set_read_timeout(Some(Duration::from_secs(30)))
            .unwrap();
        stream
            .write_all(b"GET /healthz HTTP/1.1\r\nHost: t\r\n\r\n")
            .unwrap();
        stream.shutdown(Shutdown::Write).unwrap();
        let mut response = String::new();
        let _ = stream.read_to_string(&mut response);
        if response.starts_with("HTTP/1.1 200") {
            answered += 1;
        }
    }
    assert_eq!(answered, 20, "every half-closed request must be answered");
    server.shutdown();
    server.join();
}

#[test]
fn predict_after_shutdown_is_503_and_join_is_clean() {
    let (server, addr, _) = start_tiny("shutdown.fitact", 4);
    let (status, _) = http(addr, "POST", "/admin/shutdown", "");
    assert_eq!(status, 200);
    // Shutdown is idempotent and the server keeps answering its admin
    // plane until the listener notices; a racing predict is rejected, not
    // hung. (The accept loop may already be gone — connection refused is
    // an acceptable outcome too.)
    if let Ok(mut stream) = TcpStream::connect(addr) {
        stream
            .set_read_timeout(Some(Duration::from_secs(30)))
            .unwrap();
        let body = r#"{"input": [1, 2, 3, 4]}"#;
        let request = format!(
            "POST /predict HTTP/1.1\r\nContent-Length: {}\r\n\r\n{body}",
            body.len()
        );
        if stream.write_all(request.as_bytes()).is_ok() {
            let mut response = String::new();
            if stream.read_to_string(&mut response).is_ok() && !response.is_empty() {
                assert!(
                    response.starts_with("HTTP/1.1 503"),
                    "a post-shutdown predict must be rejected: {response}"
                );
            }
        }
    }
    server.join();
}

#[test]
fn startup_on_corrupt_artifact_is_a_typed_error_not_a_panic() {
    let path = temp_model("corrupt.fitact");
    // An unknown protection-scheme tag: decodes up to the scheme, then must
    // fail with `IoError::Corrupt` (the serve-relevant metadata edge case —
    // an operator pointing the server at an artifact from a newer build
    // gets a clean refusal). The poke targets the v1 encoding, where the
    // scheme section is the trailing bytes — which also pins that the
    // server still reads (and type-checks) v1 artifacts at all.
    let mut bytes = tiny_artifact().to_bytes_v1();
    assert_eq!(bytes.pop(), Some(0), "trailing byte is the scheme marker");
    bytes.push(1); // scheme present
    bytes.push(250); // unknown tag
    bytes.extend_from_slice(&8.0f32.to_le_bytes()); // slope
    std::fs::write(&path, &bytes).unwrap();
    match Server::start(&path, &ServeConfig::default()) {
        Err(ServeError::Artifact(fitact_io::IoError::Corrupt(msg))) => {
            assert!(msg.contains("250"), "{msg}");
        }
        other => panic!("expected a Corrupt artifact error, got {other:?}"),
    }
    // Truncated artifact: same contract.
    std::fs::write(&path, &tiny_artifact().to_bytes()[..40]).unwrap();
    assert!(matches!(
        Server::start(&path, &ServeConfig::default()),
        Err(ServeError::Artifact(fitact_io::IoError::Truncated { .. }))
    ));
    // Missing file.
    assert!(matches!(
        Server::start(temp_model("missing.fitact"), &ServeConfig::default()),
        Err(ServeError::Artifact(fitact_io::IoError::Io(_)))
    ));
}

#[test]
fn invalid_configurations_are_rejected() {
    let path = temp_model("cfg.fitact");
    tiny_artifact().save(&path).unwrap();
    for config in [
        ServeConfig {
            workers: 0,
            ..ServeConfig::default()
        },
        ServeConfig {
            max_batch: 0,
            ..ServeConfig::default()
        },
        ServeConfig {
            input_shape: Some(vec![]),
            ..ServeConfig::default()
        },
        ServeConfig {
            max_queue: 0,
            ..ServeConfig::default()
        },
        ServeConfig {
            max_connections: 0,
            ..ServeConfig::default()
        },
        ServeConfig {
            canary_rate: -0.5,
            ..ServeConfig::default()
        },
        ServeConfig {
            canary_rate: f64::NAN,
            ..ServeConfig::default()
        },
    ] {
        assert!(matches!(
            Server::start(&path, &config),
            Err(ServeError::InvalidConfig(_))
        ));
    }
}

#[test]
fn metrics_track_a_mixed_workload() {
    let (server, addr, _) = start_tiny("metrics_mixed.fitact", 2);
    let body = r#"{"inputs": [[1, 2, 3, 4], [5, 6, 7, 8], [9, 10, 11, 12], [13, 14, 15, 16]]}"#;
    let (status, response) = http(addr, "POST", "/predict", body);
    assert_eq!(status, 200);
    // 4 atomically queued rows, max_batch 2: exactly two full batches.
    let sizes: Vec<f64> = response
        .get("batch_sizes")
        .unwrap()
        .as_array()
        .unwrap()
        .iter()
        .map(|v| v.as_f64().unwrap())
        .collect();
    assert_eq!(sizes, vec![2.0, 2.0, 2.0, 2.0]);
    let (_, _) = http(addr, "POST", "/predict", "garbage"); // rejected pre-queue
    let (status, metrics) = http(addr, "GET", "/metrics", "");
    assert_eq!(status, 200);
    assert_eq!(metrics.get("rows_total").unwrap().as_f64(), Some(4.0));
    assert_eq!(metrics.get("responses_total").unwrap().as_f64(), Some(4.0));
    assert_eq!(
        metrics
            .path(&["batch_size_histogram", "2"])
            .unwrap()
            .as_f64(),
        Some(2.0)
    );
    assert!(
        metrics
            .path(&["latency_us", "p50"])
            .unwrap()
            .as_f64()
            .unwrap()
            >= 0.0
    );
    server.shutdown();
    let final_metrics = server.join();
    assert_eq!(final_metrics.batches_total, 2);
}

#[test]
fn metrics_reset_clears_latency_window_but_not_counters() {
    let (server, addr, _) = start_tiny("metrics_reset.fitact", 4);
    for _ in 0..3 {
        let (status, _) = http(addr, "POST", "/predict", r#"{"input": [1, 2, 3, 4]}"#);
        assert_eq!(status, 200);
    }
    let (_, before) = http(addr, "GET", "/metrics", "");
    assert_eq!(
        before.path(&["latency_us", "count"]).unwrap().as_f64(),
        Some(3.0)
    );
    // Wrong method on the new route is 405, like every other known route.
    let (status, _) = http(addr, "GET", "/admin/metrics/reset", "");
    assert_eq!(status, 405);
    let (status, body) = http(addr, "POST", "/admin/metrics/reset", "");
    assert_eq!(status, 200);
    assert!(body
        .get("status")
        .unwrap()
        .as_str()
        .unwrap()
        .contains("reset"));
    let (_, after) = http(addr, "GET", "/metrics", "");
    assert!(
        matches!(after.get("latency_us"), Some(JsonValue::Null)),
        "percentiles must restart from empty: {after}"
    );
    assert_eq!(
        after.get("latency_resets_total").unwrap().as_f64(),
        Some(1.0)
    );
    assert_eq!(
        after.get("responses_total").unwrap().as_f64(),
        Some(3.0),
        "cumulative counters survive a reset"
    );
    // Percentiles repopulate from fresh traffic only.
    let (status, _) = http(addr, "POST", "/predict", r#"{"input": [1, 2, 3, 4]}"#);
    assert_eq!(status, 200);
    let (_, repopulated) = http(addr, "GET", "/metrics", "");
    assert_eq!(
        repopulated.path(&["latency_us", "count"]).unwrap().as_f64(),
        Some(1.0)
    );
    server.shutdown();
    server.join();
}

#[test]
fn violation_telemetry_reports_clean_zeroes_for_an_unprotected_model() {
    // ReLU slots have no bounds, so every trace is clean — but the telemetry
    // block must still be present and well-formed for dashboards.
    let (server, addr, _) = start_tiny("violations.fitact", 4);
    let (status, _) = http(addr, "POST", "/predict", r#"{"input": [1, 2, 3, 4]}"#);
    assert_eq!(status, 200);
    let (_, metrics) = http(addr, "GET", "/metrics", "");
    assert_eq!(
        metrics
            .path(&["violations", "batches_total"])
            .unwrap()
            .as_f64(),
        Some(0.0)
    );
    assert_eq!(
        metrics
            .path(&["violations", "layers", "h", "violations"])
            .unwrap()
            .as_f64(),
        Some(0.0)
    );
    assert!(
        metrics
            .path(&["violations", "layers", "h", "elements"])
            .unwrap()
            .as_f64()
            .unwrap()
            > 0.0,
        "the slot inspected every pre-activation element"
    );
    // No canary configured: nothing injected, coverage unmeasured (null).
    assert_eq!(
        metrics.path(&["canary", "batches_total"]).unwrap().as_f64(),
        Some(0.0)
    );
    assert!(matches!(
        metrics.path(&["canary", "detection_coverage"]),
        Some(JsonValue::Null)
    ));
    server.shutdown();
    server.join();
}

#[test]
fn reload_failure_keeps_the_old_model_serving() {
    let (server, addr, path) = start_tiny("reload_failure.fitact", 4);
    let (status, before) = http(addr, "POST", "/predict", r#"{"input": [1, 2, 3, 4]}"#);
    assert_eq!(status, 200);
    // Corrupt the on-disk artifact, then ask for a reload: it must fail
    // without disturbing the in-memory model. The replacement follows the
    // deployment contract (`docs/artifact-format.md`): atomic rename, never
    // an in-place overwrite — the live model's read-only mapping stays on
    // the old inode, untouched.
    let staged = path.with_extension("fitact.tmp");
    std::fs::write(&staged, b"garbage").unwrap();
    std::fs::rename(&staged, &path).unwrap();
    let (status, reload) = http(addr, "POST", "/admin/reload", "");
    assert_eq!(status, 500);
    assert!(reload
        .get("error")
        .unwrap()
        .as_str()
        .unwrap()
        .contains("reload failed"));
    let (status, after) = http(addr, "POST", "/predict", r#"{"input": [1, 2, 3, 4]}"#);
    assert_eq!(status, 200);
    assert_eq!(
        before.get("outputs").unwrap(),
        after.get("outputs").unwrap(),
        "a failed reload must not change serving numerics"
    );
    let (_, health) = http(addr, "GET", "/healthz", "");
    assert_eq!(health.get("generation").unwrap().as_f64(), Some(1.0));
    server.shutdown();
    server.join();
}

/// An artifact whose activation carries more features than its slot would
/// load and then fail every forward; reload refuses it (a typed mismatch)
/// and the old model keeps serving bit-identically.
#[test]
fn reload_onto_an_activation_wider_than_its_slot_is_refused() {
    let (server, addr, path) = start_tiny("misfit.fitact", 4);
    let (status, before) = http(addr, "POST", "/predict", r#"{"input": [1, 2, 3, 4]}"#);
    assert_eq!(status, 200);
    // A FitReLU with 17 bounds in the 16-wide hidden slot.
    let mut rng = StdRng::seed_from_u64(81);
    let misfit = Network::new(
        "misfit-mlp",
        Sequential::new()
            .with(Box::new(Linear::new(4, 16, &mut rng)))
            .with(Box::new(ActivationLayer::with_activation(
                "h",
                &[16],
                Box::new(fitact::FitRelu::from_bounds(&[1.0; 17], 8.0)),
            )))
            .with(Box::new(Linear::new(16, 3, &mut rng))),
    );
    ModelArtifact::capture(&misfit)
        .unwrap()
        .save(&path)
        .unwrap();
    let (status, reload) = http(addr, "POST", "/admin/reload", "");
    assert_eq!(status, 500, "{reload}");
    let message = reload.get("error").unwrap().as_str().unwrap();
    assert!(message.contains("reload failed"), "{message}");
    assert!(message.contains("17 features"), "{message}");
    let (status, after) = http(addr, "POST", "/predict", r#"{"input": [1, 2, 3, 4]}"#);
    assert_eq!(status, 200);
    assert_eq!(before.get("outputs"), after.get("outputs"));
    let (_, health) = http(addr, "GET", "/healthz", "");
    assert_eq!(health.get("generation").unwrap().as_f64(), Some(1.0));
    server.shutdown();
    server.join();
}

#[test]
fn full_queue_answers_503_with_backpressure() {
    let path = temp_model("backpressure.fitact");
    tiny_artifact().save(&path).unwrap();
    let server = Server::start(
        &path,
        &ServeConfig {
            max_batch: 8,
            workers: 1,
            max_queue: 2,
            ..ServeConfig::default()
        },
    )
    .unwrap();
    let addr = server.addr();
    // A 3-row request cannot ever fit the 2-row queue: the atomic push is
    // rejected whole, deterministically, regardless of worker speed.
    let body = r#"{"inputs": [[1, 2, 3, 4], [5, 6, 7, 8], [9, 10, 11, 12]]}"#;
    let (status, response) = http(addr, "POST", "/predict", body);
    assert_eq!(status, 503, "{response}");
    assert!(response
        .get("error")
        .unwrap()
        .as_str()
        .unwrap()
        .contains("overloaded"));
    // A fitting request still succeeds.
    let (status, _) = http(
        addr,
        "POST",
        "/predict",
        r#"{"inputs": [[1, 2, 3, 4], [5, 6, 7, 8]]}"#,
    );
    assert_eq!(status, 200);
    server.shutdown();
    server.join();
}

/// A reload may change the input width: requests are then validated
/// against the new model. (Rows already queued under the old width get a
/// typed error from the worker; `server.rs` pins that path in-crate.)
#[test]
fn reload_with_a_different_input_shape_serves_the_new_shape() {
    let (server, addr, path) = start_tiny("reshape.fitact", 16); // 4 input features
    let mut rng = StdRng::seed_from_u64(78);
    let wide = Network::new(
        "wide-mlp",
        Sequential::new().with(Box::new(Linear::new(8, 3, &mut rng))),
    );
    ModelArtifact::capture(&wide).unwrap().save(&path).unwrap();
    let (status, _) = http(addr, "POST", "/admin/reload", "");
    assert_eq!(status, 200);
    // A correctly shaped request is served...
    let (status, response) = http(
        addr,
        "POST",
        "/predict",
        r#"{"input": [1, 2, 3, 4, 5, 6, 7, 8]}"#,
    );
    assert_eq!(status, 200, "{response}");
    // ...and the old width is refused before it reaches the queue.
    let (status, response) = http(addr, "POST", "/predict", r#"{"input": [1, 2, 3, 4]}"#);
    assert_eq!(status, 400, "{response}");
    assert!(response
        .get("error")
        .unwrap()
        .as_str()
        .unwrap()
        .contains("the model takes 8"));
    server.shutdown();
    server.join();
}

#[test]
fn f16_artifact_serves_mapped_under_a_precision_pin() {
    let path = temp_model("tiny_f16.fitact");
    let mut rng = StdRng::seed_from_u64(79);
    let mut net = Network::new(
        "tiny-f16",
        Sequential::new()
            .with(Box::new(Linear::new(4, 16, &mut rng)))
            .with(Box::new(ActivationLayer::relu("h", &[16])))
            .with(Box::new(Linear::new(16, 3, &mut rng))),
    );
    net.quantize_to(fitact_tensor::Precision::F16);
    ModelArtifact::capture(&net).unwrap().save(&path).unwrap();
    let server = Server::start(
        &path,
        &ServeConfig {
            max_batch: 4,
            workers: 2,
            precision: Some(fitact_tensor::Precision::F16),
            ..ServeConfig::default()
        },
    )
    .unwrap();
    let addr = server.addr();
    let (status, health) = http(addr, "GET", "/healthz", "");
    assert_eq!(status, 200);
    assert_eq!(health.get("precision").unwrap().as_str().unwrap(), "f16");
    assert_eq!(
        health.get("mapped"),
        Some(&JsonValue::Bool(true)),
        "half-precision weights must serve zero-copy from the mapping"
    );
    let (status, response) = http(addr, "POST", "/predict", r#"{"input": [1, 2, 3, 4]}"#);
    assert_eq!(status, 200, "{response}");
    let outputs = response.get("outputs").unwrap();
    let row = match outputs {
        JsonValue::Array(rows) => match &rows[0] {
            JsonValue::Array(row) => row.len(),
            other => panic!("expected a row, got {other}"),
        },
        other => panic!("expected rows, got {other}"),
    };
    assert_eq!(row, 3);
    server.shutdown();
    server.join();
}

#[test]
fn precision_mismatch_is_a_typed_startup_error() {
    // An f32 artifact cannot be served under an f16 pin…
    let path = temp_model("tiny_pinned.fitact");
    tiny_artifact().save(&path).unwrap();
    let err = Server::start(
        &path,
        &ServeConfig {
            precision: Some(fitact_tensor::Precision::F16),
            ..ServeConfig::default()
        },
    )
    .unwrap_err();
    match err {
        ServeError::InvalidConfig(msg) => {
            assert!(msg.contains("f32"), "{msg}");
            assert!(msg.contains("f16"), "{msg}");
        }
        other => panic!("expected InvalidConfig, got {other:?}"),
    }
    // …and a reload that swaps the precision out from under the pin fails,
    // keeping the old model serving.
    let mut rng = StdRng::seed_from_u64(80);
    let mut net = Network::new(
        "tiny-int8",
        Sequential::new().with(Box::new(Linear::new(4, 3, &mut rng))),
    );
    net.quantize_to(fitact_tensor::Precision::Int8);
    let int8_path = temp_model("tiny_pin_reload.fitact");
    ModelArtifact::capture(&net)
        .unwrap()
        .save(&int8_path)
        .unwrap();
    let server = Server::start(
        &int8_path,
        &ServeConfig {
            precision: Some(fitact_tensor::Precision::Int8),
            ..ServeConfig::default()
        },
    )
    .unwrap();
    let addr = server.addr();
    tiny_artifact().save(&int8_path).unwrap(); // now f32 on disk
    let (status, body) = http(addr, "POST", "/admin/reload", "");
    assert_eq!(status, 500, "{body}");
    assert!(body
        .get("error")
        .unwrap()
        .as_str()
        .unwrap()
        .contains("int8"));
    // The int8 model is still the one serving.
    let (status, health) = http(addr, "GET", "/healthz", "");
    assert_eq!(status, 200);
    assert_eq!(health.get("precision").unwrap().as_str().unwrap(), "int8");
    server.shutdown();
    server.join();
}
