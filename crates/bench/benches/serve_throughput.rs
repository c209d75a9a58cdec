//! Criterion bench for serving throughput: micro-batched forward passes
//! against per-request forwards on a serving-representative MLP.
//!
//! This is the compute-side case for `fitact serve`'s dynamic batching: a
//! single-row forward pays the packed matmul's panel-packing cost for one
//! row of useful work, while a coalesced batch amortises it across every
//! row — with **bit-identical** per-row results, which the bench asserts
//! before timing means anything (the same invariance
//! `crates/nn/tests/batch_invariance.rs` pins).
//!
//! All timed forwards run inside `matmul::serial_scope`, exactly like a
//! server worker thread — so the measured speedup is the *per-worker* gain
//! (packing amortisation and cache reuse), not the kernel's internal
//! multi-core fan-out, which serving workers deliberately disable.
//!
//! Besides the criterion timings, the bench writes a machine-readable
//! comparison to `BENCH_serve.json` at the workspace root: per-sample
//! wall-clock for the per-request path and for batch sizes 2/8/32, plus the
//! speedup of each batched path — and a **connection-scaling** case that
//! boots the real server and drives 1 / 64 / 512 concurrent keep-alive
//! connections through the event-driven transport, asserting every request
//! is served without error (the acceptance bar for the connection layer).
//! A third case, `precision_f16`, forwards a wide MLP whose weights dwarf
//! the cache — the bandwidth-bound regime — at the server's batch-32
//! coalescing ceiling in f32 and in native f16, recording rows/sec for
//! each; the acceptance bar for the reduced-precision path is ≥ 1.5× f16
//! over f32 (half the streamed weight bytes).
//! Run with `cargo bench -- --test` for the CI smoke mode (one untimed pass
//! per case, JSON still emitted and flagged as a smoke run).

use criterion::{BenchmarkId, Criterion};
use fitact_io::ModelArtifact;
use fitact_nn::layers::{ActivationLayer, Linear, Sequential};
use fitact_nn::{copy_batch_into, Mode, Network};
use fitact_serve::{ServeConfig, Server};
use fitact_tensor::matmul::serial_scope;
use fitact_tensor::{init, Precision, Tensor};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::io::{BufRead, BufReader, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::{Duration, Instant};

/// A serving-representative MLP: hidden products big enough that the
/// packed-kernel economics (the thing batching amortises) are visible.
fn serving_mlp() -> Network {
    let mut rng = StdRng::seed_from_u64(123);
    Network::new(
        "serving-mlp",
        Sequential::new()
            .with(Box::new(Linear::new(256, 512, &mut rng)))
            .with(Box::new(ActivationLayer::relu("h1", &[512])))
            .with(Box::new(Linear::new(512, 512, &mut rng)))
            .with(Box::new(ActivationLayer::relu("h2", &[512])))
            .with(Box::new(Linear::new(512, 10, &mut rng))),
    )
}

const SAMPLES: usize = 64;

fn eval_inputs() -> Tensor {
    let mut rng = StdRng::seed_from_u64(321);
    init::uniform(&[SAMPLES, 256], -1.0, 1.0, &mut rng)
}

/// Forwards the whole eval set in batches of `batch`, returning every
/// output row (flattened) for the bit-identity check.
fn forward_all(net: &mut Network, inputs: &Tensor, batch: usize, staging: &mut Tensor) -> Vec<f32> {
    let mut out = Vec::with_capacity(SAMPLES * 10);
    let mut start = 0;
    while start < SAMPLES {
        let end = (start + batch).min(SAMPLES);
        copy_batch_into(inputs, start, end, staging).expect("slice");
        let logits = net.forward(staging, Mode::Infer).expect("forward");
        out.extend_from_slice(logits.as_slice());
        start = end;
    }
    out
}

fn bench_serve(c: &mut Criterion) {
    let mut net = serving_mlp();
    let inputs = eval_inputs();
    let mut staging = Tensor::default();
    let mut group = c.benchmark_group("serve_throughput");
    group.sample_size(10);
    for batch in [1usize, 2, 8, 32] {
        group.bench_with_input(BenchmarkId::new("forward", batch), &batch, |b, &batch| {
            b.iter(|| serial_scope(|| forward_all(&mut net, &inputs, batch, &mut staging)));
        });
    }
    group.finish();
}

/// Times each batch size (median of `reps` passes over the eval set),
/// asserts per-row bit-identity against the per-request path, and returns
/// the `micro_batching` JSON object for `BENCH_serve.json`.
fn emit_serve_json(smoke: bool) -> String {
    let mut net = serving_mlp();
    let inputs = eval_inputs();
    let mut staging = Tensor::default();
    let reps = if smoke { 1 } else { 5 };
    let mut time_batch = |batch: usize| -> (f64, Vec<f32>) {
        serial_scope(|| {
            // One warm-up pass so every timed pass runs on warm workspaces
            // and pack buffers (the server's steady state).
            let rows = forward_all(&mut net, &inputs, batch, &mut staging);
            let mut seconds = Vec::with_capacity(reps);
            for _ in 0..reps {
                let start = Instant::now();
                let timed = forward_all(&mut net, &inputs, batch, &mut staging);
                seconds.push(start.elapsed().as_secs_f64());
                assert_eq!(timed, rows, "forward passes are deterministic");
            }
            seconds.sort_by(|a, b| a.partial_cmp(b).expect("durations are finite"));
            (seconds[seconds.len() / 2], rows)
        })
    };
    let (per_request_s, per_request_rows) = time_batch(1);
    let batched: Vec<(usize, f64)> = [2usize, 8, 32]
        .into_iter()
        .map(|batch| {
            let (seconds, rows) = time_batch(batch);
            assert_eq!(
                rows, per_request_rows,
                "batch={batch} must be bit-identical to per-request forwards"
            );
            (batch, seconds)
        })
        .collect();
    let per_sample_us = |s: f64| 1e6 * s / SAMPLES as f64;
    let mut batch_entries = String::new();
    for (batch, seconds) in &batched {
        batch_entries.push_str(&format!(
            "    \"{batch}\": {{ \"us_per_sample\": {us:.3}, \"speedup\": {speedup:.3} }},\n",
            us = per_sample_us(*seconds),
            speedup = per_request_s / seconds.max(1e-12),
        ));
    }
    let json = format!(
        concat!(
            "  \"micro_batching\": {{\n",
            "    \"case\": \"micro_batched_vs_per_request_forward\",\n",
            "    \"network\": \"serving-mlp (256-512-512-10)\",\n",
            "    \"eval_samples\": {samples},\n",
            "    \"per_request_us_per_sample\": {per_request:.3},\n",
            "    \"batched\": {{\n",
            "{entries}",
            "    \"_\": null\n",
            "    }},\n",
            "    \"speedup_at_8\": {speedup8:.3},\n",
            "    \"bit_identical\": true\n",
            "  }}"
        ),
        samples = SAMPLES,
        per_request = per_sample_us(per_request_s),
        entries = batch_entries,
        speedup8 = per_request_s
            / batched
                .iter()
                .find(|(b, _)| *b == 8)
                .map(|(_, s)| *s)
                .expect("batch 8 measured")
                .max(1e-12),
    );
    println!(
        "serve_throughput: per-request {pr:.1} us/sample, batch 8 {b8:.1} us/sample",
        pr = per_sample_us(per_request_s),
        b8 = per_sample_us(batched.iter().find(|(b, _)| *b == 8).expect("measured").1),
    );
    json
}

/// The bandwidth-bound precision case: a wide MLP whose ~100 MB of f32
/// weights (50 MB as f16) are streamed from memory every forward, timed at
/// the batch-32 coalescing ceiling in f32 and in native f16 words. With
/// the weight stream the bottleneck, halving the bytes is the win the
/// reduced-precision path exists for; the returned `precision_f16` JSON
/// object records rows/sec for both element types and their ratio.
fn emit_precision_json(smoke: bool) -> String {
    const INPUT: usize = 2048;
    const HIDDEN: usize = 4096;
    const BATCH: usize = 32;
    const ROWS: usize = 64;
    let wide_mlp = || {
        let mut rng = StdRng::seed_from_u64(99);
        Network::new(
            "wide-mlp",
            Sequential::new()
                .with(Box::new(Linear::new(INPUT, HIDDEN, &mut rng)))
                .with(Box::new(ActivationLayer::relu("h1", &[HIDDEN])))
                .with(Box::new(Linear::new(HIDDEN, HIDDEN, &mut rng)))
                .with(Box::new(ActivationLayer::relu("h2", &[HIDDEN])))
                .with(Box::new(Linear::new(HIDDEN, 10, &mut rng))),
        )
    };
    let inputs = {
        let mut rng = StdRng::seed_from_u64(98);
        init::uniform(&[ROWS, INPUT], -1.0, 1.0, &mut rng)
    };
    let reps = if smoke { 1 } else { 5 };
    let time_net = |net: &mut Network| -> f64 {
        let mut staging = Tensor::default();
        serial_scope(|| {
            let mut all_rows = || {
                let mut out = Vec::with_capacity(ROWS * 10);
                let mut start = 0;
                while start < ROWS {
                    let end = (start + BATCH).min(ROWS);
                    copy_batch_into(&inputs, start, end, &mut staging).expect("slice");
                    let logits = net.forward(&staging, Mode::Infer).expect("forward");
                    out.extend_from_slice(logits.as_slice());
                    start = end;
                }
                out
            };
            let rows = all_rows(); // warm-up
            let mut seconds = Vec::with_capacity(reps);
            for _ in 0..reps {
                let start = Instant::now();
                let timed = all_rows();
                seconds.push(start.elapsed().as_secs_f64());
                assert_eq!(timed, rows, "forward passes are deterministic");
            }
            seconds.sort_by(|a, b| a.partial_cmp(b).expect("durations are finite"));
            seconds[seconds.len() / 2]
        })
    };
    // Timed sequentially, each network dropped before the next is built, so
    // the ~150 MB of weights never resides twice.
    let f32_s = time_net(&mut wide_mlp());
    let f16_s = {
        let mut net = wide_mlp();
        net.quantize_to(Precision::F16);
        assert_eq!(net.precision(), Precision::F16);
        time_net(&mut net)
    };
    let rows_per_s = |s: f64| ROWS as f64 / s.max(1e-12);
    let speedup = f32_s / f16_s.max(1e-12);
    println!(
        "serve_throughput: bandwidth-bound batch-{BATCH} f32 {f32:.0} rows/s, f16 {f16:.0} rows/s ({speedup:.2}x)",
        f32 = rows_per_s(f32_s),
        f16 = rows_per_s(f16_s),
    );
    format!(
        concat!(
            "  \"precision_f16\": {{\n",
            "    \"case\": \"f16_vs_f32_bandwidth_bound_batch32\",\n",
            "    \"network\": \"wide-mlp ({input}-{hidden}-{hidden}-10)\",\n",
            "    \"batch\": {batch},\n",
            "    \"eval_samples\": {rows},\n",
            "    \"f32_rows_per_s\": {f32:.1},\n",
            "    \"f16_rows_per_s\": {f16:.1},\n",
            "    \"f16_speedup\": {speedup:.3}\n",
            "  }}"
        ),
        input = INPUT,
        hidden = HIDDEN,
        batch = BATCH,
        rows = ROWS,
        f32 = rows_per_s(f32_s),
        f16 = rows_per_s(f16_s),
        speedup = speedup,
    )
}

/// One keep-alive client: `requests` predicts on a single connection,
/// panicking on any non-200 or framing error. Returns the rows served.
fn keepalive_client(addr: SocketAddr, requests: usize) -> usize {
    let stream = TcpStream::connect(addr).expect("connect");
    stream
        .set_read_timeout(Some(Duration::from_secs(120)))
        .expect("read timeout");
    let mut writer = stream.try_clone().expect("clone stream");
    let mut reader = BufReader::new(stream);
    let body = r#"{"input": [0.5, -0.25, 0.125, 1.0]}"#;
    let request = format!(
        "POST /predict HTTP/1.1\r\nHost: b\r\nConnection: keep-alive\r\nContent-Length: {}\r\n\r\n{body}",
        body.len()
    );
    for _ in 0..requests {
        writer.write_all(request.as_bytes()).expect("write request");
        let mut status_line = String::new();
        reader.read_line(&mut status_line).expect("status line");
        assert!(
            status_line.starts_with("HTTP/1.1 200"),
            "every benched request must be served: {status_line:?}"
        );
        let mut length = 0usize;
        loop {
            let mut header = String::new();
            reader.read_line(&mut header).expect("header");
            let header = header.trim_end();
            if header.is_empty() {
                break;
            }
            if let Some(value) = header
                .to_ascii_lowercase()
                .strip_prefix("content-length:")
                .map(str::trim)
                .map(str::to_owned)
            {
                length = value.parse().expect("content length");
            }
        }
        let mut body = vec![0u8; length];
        reader.read_exact(&mut body).expect("framed body");
    }
    requests
}

/// Drives `conns` concurrent keep-alive connections, each issuing
/// `per_conn` predicts, against one server. Returns (seconds, rows).
fn drive_connections(addr: SocketAddr, conns: usize, per_conn: usize) -> (f64, usize) {
    let start = Instant::now();
    let clients: Vec<_> = (0..conns)
        .map(|_| std::thread::spawn(move || keepalive_client(addr, per_conn)))
        .collect();
    let rows: usize = clients
        .into_iter()
        .map(|c| c.join().expect("client thread"))
        .sum();
    (start.elapsed().as_secs_f64(), rows)
}

/// The connection-scaling case: the same tiny model served over 1 / 64 /
/// 512 concurrent keep-alive connections. Every request must succeed —
/// the 512-connection row is the acceptance bar for the event-driven
/// transport — and the returned `connection_scaling` JSON object records
/// requests/second per connection count.
fn emit_connection_scaling_json(smoke: bool) -> String {
    let mut rng = StdRng::seed_from_u64(124);
    let net = Network::new(
        "bench-mlp",
        Sequential::new()
            .with(Box::new(Linear::new(4, 32, &mut rng)))
            .with(Box::new(ActivationLayer::relu("h", &[32])))
            .with(Box::new(Linear::new(32, 3, &mut rng))),
    );
    let dir = std::env::temp_dir().join(format!("fitact_bench_conns_{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("temp dir");
    let path = dir.join("bench.fitact");
    ModelArtifact::capture(&net)
        .expect("capture")
        .save(&path)
        .expect("save artifact");
    let server = Server::start(
        &path,
        &ServeConfig {
            max_batch: 32,
            workers: 2,
            max_connections: 1024, // room for the 512-connection case
            max_queue: 4096,
            ..ServeConfig::default()
        },
    )
    .expect("server starts");
    let addr = server.addr();
    let per_conn = if smoke { 2 } else { 8 };
    let mut entries = String::new();
    for conns in [1usize, 64, 512] {
        let (seconds, rows) = drive_connections(addr, conns, per_conn);
        assert_eq!(rows, conns * per_conn, "every request served, no errors");
        entries.push_str(&format!(
            "    \"{conns}\": {{ \"requests\": {rows}, \"seconds\": {seconds:.4}, \"requests_per_s\": {rps:.1} }},\n",
            rps = rows as f64 / seconds.max(1e-12),
        ));
        println!(
            "serve_throughput: {conns} keep-alive conns x {per_conn} requests in {seconds:.3}s, all served"
        );
    }
    server.shutdown();
    let metrics = server.join();
    assert_eq!(metrics.errors_total, 0, "no server-side errors");
    std::fs::remove_dir_all(&dir).ok();
    format!(
        concat!(
            "  \"connection_scaling\": {{\n",
            "    \"case\": \"keepalive_connection_scaling\",\n",
            "    \"network\": \"bench-mlp (4-32-3)\",\n",
            "    \"requests_per_connection\": {per_conn},\n",
            "    \"connections\": {{\n",
            "{entries}",
            "    \"_\": null\n",
            "    }},\n",
            "    \"all_requests_served\": true\n",
            "  }}"
        ),
        per_conn = per_conn,
        entries = entries,
    )
}

fn main() {
    let smoke = std::env::args().any(|arg| arg == "--test");
    let mut criterion = Criterion::default();
    bench_serve(&mut criterion);
    let micro_batching = emit_serve_json(smoke);
    let precision = emit_precision_json(smoke);
    let connection_scaling = emit_connection_scaling_json(smoke);
    let json = format!(
        "{{\n  \"bench\": \"serve_throughput\",\n  \"smoke\": {smoke},\n{micro_batching},\n{precision},\n{connection_scaling}\n}}\n"
    );
    let path = std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("../..")
        .join("BENCH_serve.json");
    std::fs::write(&path, &json).expect("BENCH_serve.json is writable");
    println!("serve_throughput -> {}", path.display());
}
