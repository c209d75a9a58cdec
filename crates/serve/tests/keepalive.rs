//! Keep-alive and pipelining framing over real sockets: multiple requests
//! per connection, fused and torn TCP segments, mid-stream disconnects,
//! load-shedding and the connection telemetry.
//!
//! Keep-alive is **opt-in** (`Connection: keep-alive` on the request); a
//! request without it is answered with `Connection: close` framing and the
//! socket closes — what every plain read-to-EOF client in this workspace
//! relies on.

use fitact_io::{JsonValue, ModelArtifact};
use fitact_nn::layers::{ActivationLayer, Linear, Sequential};
use fitact_nn::Network;
use fitact_serve::{ServeConfig, Server};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::io::{BufRead, BufReader, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::path::PathBuf;
use std::sync::OnceLock;
use std::time::{Duration, Instant};

fn tiny_artifact() -> ModelArtifact {
    let mut rng = StdRng::seed_from_u64(177);
    let net = Network::new(
        "keepalive-mlp",
        Sequential::new()
            .with(Box::new(Linear::new(4, 16, &mut rng)))
            .with(Box::new(ActivationLayer::relu("h", &[16])))
            .with(Box::new(Linear::new(16, 3, &mut rng))),
    );
    ModelArtifact::capture(&net).unwrap()
}

fn temp_model(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("fitact_keepalive_{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    dir.join(name)
}

fn start(name: &str, config: ServeConfig) -> (Server, SocketAddr) {
    let path = temp_model(name);
    tiny_artifact().save(&path).unwrap();
    let server = Server::start(&path, &config).unwrap();
    let addr = server.addr();
    (server, addr)
}

/// A keep-alive request line + headers (and body) for `path`.
fn keepalive_request(method: &str, path: &str, body: &str) -> String {
    format!(
        "{method} {path} HTTP/1.1\r\nHost: t\r\nConnection: keep-alive\r\nContent-Length: {}\r\n\r\n{body}",
        body.len()
    )
}

/// One framed response off a (possibly keep-alive) connection: status,
/// headers, body.
fn read_response(reader: &mut BufReader<TcpStream>) -> (u16, Vec<(String, String)>, String) {
    let mut line = String::new();
    reader.read_line(&mut line).expect("status line");
    let status: u16 = line
        .split(' ')
        .nth(1)
        .unwrap_or_else(|| panic!("malformed status line {line:?}"))
        .parse()
        .unwrap();
    let mut headers = Vec::new();
    loop {
        let mut header = String::new();
        reader.read_line(&mut header).expect("header line");
        let header = header.trim_end();
        if header.is_empty() {
            break;
        }
        let (name, value) = header.split_once(':').expect("header colon");
        headers.push((name.trim().to_ascii_lowercase(), value.trim().to_owned()));
    }
    let length: usize = headers
        .iter()
        .find(|(n, _)| n == "content-length")
        .expect("Content-Length header")
        .1
        .parse()
        .unwrap();
    let mut body = vec![0u8; length];
    reader.read_exact(&mut body).expect("framed body");
    (status, headers, String::from_utf8(body).unwrap())
}

fn connect(addr: SocketAddr) -> (TcpStream, BufReader<TcpStream>) {
    let stream = TcpStream::connect(addr).expect("connect");
    stream
        .set_read_timeout(Some(Duration::from_secs(30)))
        .unwrap();
    let reader = BufReader::new(stream.try_clone().unwrap());
    (stream, reader)
}

/// Two requests written in a single TCP segment come back as two in-order
/// responses on the same connection (pipelining), and the connection then
/// serves a third request (keep-alive reuse).
#[test]
fn two_pipelined_requests_in_one_segment() {
    let (server, addr) = start("pipeline.fitact", ServeConfig::default());
    let (mut stream, mut reader) = connect(addr);
    let segment = format!(
        "{}{}",
        keepalive_request("GET", "/healthz", ""),
        keepalive_request("POST", "/predict", r#"{"input": [1, 2, 3, 4]}"#),
    );
    stream.write_all(segment.as_bytes()).unwrap();
    let (status, headers, body) = read_response(&mut reader);
    assert_eq!(status, 200, "{body}");
    assert!(
        headers.contains(&("connection".into(), "keep-alive".into())),
        "{headers:?}"
    );
    let health = JsonValue::parse(&body).unwrap();
    assert_eq!(health.get("status").unwrap().as_str(), Some("ok"));
    let (status, _, body) = read_response(&mut reader);
    assert_eq!(status, 200, "{body}");
    let predict = JsonValue::parse(&body).unwrap();
    assert_eq!(predict.get("outputs").unwrap().as_array().unwrap().len(), 1);
    // The connection is still alive: a third request goes through.
    stream
        .write_all(keepalive_request("GET", "/healthz", "").as_bytes())
        .unwrap();
    let (status, _, _) = read_response(&mut reader);
    assert_eq!(status, 200);
    server.shutdown();
    server.join();
}

/// A request body and the *next* request's head arriving fused in one
/// segment parse as two separate requests — the body bytes are never
/// rescanned or miscounted into the following head.
#[test]
fn body_fused_with_next_head_parses_as_two_requests() {
    let (server, addr) = start("fused.fitact", ServeConfig::default());
    let (mut stream, mut reader) = connect(addr);
    let first = keepalive_request("POST", "/predict", r#"{"input": [1, 2, 3, 4]}"#);
    // Split mid-body: the remainder of the body travels fused with the
    // entire second request.
    let split = first.len() - 10;
    stream.write_all(&first.as_bytes()[..split]).unwrap();
    stream.flush().unwrap();
    std::thread::sleep(Duration::from_millis(20));
    let fused = format!(
        "{}{}",
        &first[split..],
        keepalive_request("GET", "/healthz", "")
    );
    stream.write_all(fused.as_bytes()).unwrap();
    let (status, _, body) = read_response(&mut reader);
    assert_eq!(status, 200, "{body}");
    assert!(body.contains("outputs"), "{body}");
    let (status, _, body) = read_response(&mut reader);
    assert_eq!(status, 200, "{body}");
    assert!(body.contains("\"status\""), "{body}");
    server.shutdown();
    server.join();
}

/// A half-written request followed by a client disconnect neither crashes
/// the server nor leaks the connection: fresh connections keep being
/// served afterwards.
#[test]
fn mid_stream_client_disconnect_is_harmless() {
    let (server, addr) = start("disconnect.fitact", ServeConfig::default());
    for partial in [
        "POST /pre",                                                  // torn request line
        "POST /predict HTTP/1.1\r\nContent-Le",                       // torn header
        "POST /predict HTTP/1.1\r\nContent-Length: 23\r\n\r\n{\"inp", // torn body
    ] {
        let mut stream = TcpStream::connect(addr).unwrap();
        stream.write_all(partial.as_bytes()).unwrap();
        drop(stream); // mid-stream disconnect
    }
    let (mut stream, mut reader) = connect(addr);
    stream
        .write_all(keepalive_request("GET", "/healthz", "").as_bytes())
        .unwrap();
    let (status, _, _) = read_response(&mut reader);
    assert_eq!(status, 200);
    server.shutdown();
    server.join();
}

/// Keep-alive reuse shows up in `/metrics` under `connections`.
#[test]
fn keepalive_reuse_is_counted_in_metrics() {
    let (server, addr) = start("reuse.fitact", ServeConfig::default());
    let (mut stream, mut reader) = connect(addr);
    for _ in 0..3 {
        stream
            .write_all(keepalive_request("GET", "/healthz", "").as_bytes())
            .unwrap();
        let (status, _, _) = read_response(&mut reader);
        assert_eq!(status, 200);
    }
    stream
        .write_all(keepalive_request("GET", "/metrics", "").as_bytes())
        .unwrap();
    let (status, _, body) = read_response(&mut reader);
    assert_eq!(status, 200);
    let metrics = JsonValue::parse(&body).unwrap();
    assert_eq!(
        metrics
            .path(&["connections", "accepted_total"])
            .unwrap()
            .as_f64(),
        Some(1.0),
        "{metrics}"
    );
    assert_eq!(
        metrics
            .path(&["connections", "keepalive_reuses_total"])
            .unwrap()
            .as_f64(),
        Some(3.0),
        "three follow-up requests on one connection: {metrics}"
    );
    server.shutdown();
    server.join();
}

/// Past `max_connections`, new connections are answered `503` with a
/// `Retry-After` hint instead of hanging or being dropped silently.
#[test]
fn connection_limit_sheds_load_with_503_and_retry_after() {
    let (server, addr) = start(
        "shed.fitact",
        ServeConfig {
            max_connections: 1,
            ..ServeConfig::default()
        },
    );
    // Fill the one slot with an idle keep-alive connection.
    let (mut held, mut held_reader) = connect(addr);
    held.write_all(keepalive_request("GET", "/healthz", "").as_bytes())
        .unwrap();
    let (status, _, _) = read_response(&mut held_reader);
    assert_eq!(status, 200);
    // The next connection is shed.
    let (_, mut reader) = connect(addr);
    let (status, headers, body) = read_response(&mut reader);
    assert_eq!(status, 503, "{body}");
    assert!(
        headers.contains(&("retry-after".into(), "1".into())),
        "{headers:?}"
    );
    assert!(body.contains("connection limit"), "{body}");
    // Releasing the held slot lets new connections in again.
    drop((held, held_reader));
    for _ in 0..50 {
        let (mut retry, mut retry_reader) = connect(addr);
        retry
            .write_all(keepalive_request("GET", "/metrics", "").as_bytes())
            .unwrap();
        let (status, _, body) = read_response(&mut retry_reader);
        if status == 200 {
            let metrics = JsonValue::parse(&body).unwrap();
            assert!(
                metrics
                    .path(&["connections", "load_shed_total"])
                    .unwrap()
                    .as_f64()
                    .unwrap()
                    >= 1.0,
                "{metrics}"
            );
            server.shutdown();
            server.join();
            return;
        }
        // The closed slot may take a poll round to be reaped.
        std::thread::sleep(Duration::from_millis(20));
    }
    panic!("the shed slot was never released");
}

/// A connection that pipelines more than the per-connection budget of
/// unanswered requests is answered in order up to the budget, then `429`,
/// then closed — it cannot hold unbounded server state.
#[test]
fn pipelining_past_the_inflight_budget_is_answered_with_429() {
    let (server, addr) = start(
        "budget.fitact",
        ServeConfig {
            max_batch: 8,
            workers: 4,
            ..ServeConfig::default()
        },
    );
    // 70 predicts (about 7 KB) in one write: on loopback they arrive as one
    // segment, and the event loop parses every complete request of a
    // readiness event before it drains any handler completion. So all 70
    // are dispatched before any response can emit, and the 65th
    // deterministically overflows the inflight budget (64).
    let one = keepalive_request("POST", "/predict", r#"{"input": [1, 2, 3, 4]}"#);
    let segment: String = (0..70).map(|_| one.as_str()).collect();
    let (mut stream, mut reader) = connect(addr);
    stream.write_all(segment.as_bytes()).unwrap();
    let mut statuses = Vec::new();
    loop {
        let mut probe = String::new();
        match reader.read_line(&mut probe) {
            Ok(0) => break, // server closed after the 429
            Ok(_) => {}
            Err(e) => panic!("read failed after {} responses: {e}", statuses.len()),
        }
        let status: u16 = probe.split(' ').nth(1).unwrap().parse().unwrap();
        // Consume the rest of this response's frame.
        let mut headers = Vec::new();
        loop {
            let mut header = String::new();
            reader.read_line(&mut header).unwrap();
            let header = header.trim_end();
            if header.is_empty() {
                break;
            }
            let (name, value) = header.split_once(':').unwrap();
            headers.push((name.trim().to_ascii_lowercase(), value.trim().to_owned()));
        }
        let length: usize = headers
            .iter()
            .find(|(n, _)| n == "content-length")
            .unwrap()
            .1
            .parse()
            .unwrap();
        let mut body = vec![0u8; length];
        reader.read_exact(&mut body).unwrap();
        statuses.push(status);
    }
    assert_eq!(statuses.len(), 65, "64 served + the budget rejection");
    assert!(statuses[..64].iter().all(|&s| s == 200), "{statuses:?}");
    assert_eq!(statuses[64], 429);
    server.shutdown();
    server.join();
}

/// The shared server for the torn-frame property: starting one per sampled
/// split would dominate the test, and tearing is purely client-side state.
fn torn_frame_server() -> SocketAddr {
    static SHARED: OnceLock<SocketAddr> = OnceLock::new();
    *SHARED.get_or_init(|| {
        let (server, addr) = start("torn.fitact", ServeConfig::default());
        std::mem::forget(server); // lives until process exit
        addr
    })
}

/// Pipelined requests answered in separate batches are written back as
/// separate responses, each while the previous one may still be
/// unacknowledged. With Nagle's algorithm on, every follow-up response
/// waits for the client's delayed ACK (about 40 ms on Linux), so each round
/// of pipelined requests would take at least that long; with `TCP_NODELAY`
/// a round of microsecond forwards completes in a few milliseconds.
#[test]
fn pipelined_responses_in_separate_batches_are_not_delayed() {
    let (server, addr) = start(
        "nodelay.fitact",
        ServeConfig {
            max_batch: 1,
            workers: 1,
            ..ServeConfig::default()
        },
    );
    let (mut stream, mut reader) = connect(addr);
    let one = keepalive_request("POST", "/predict", r#"{"input": [1, 2, 3, 4]}"#);
    let segment = one.repeat(3);
    let mut rounds = Vec::new();
    for _ in 0..12 {
        let started = Instant::now();
        stream.write_all(segment.as_bytes()).unwrap();
        for _ in 0..3 {
            let (status, _, body) = read_response(&mut reader);
            assert_eq!(status, 200, "{body}");
        }
        rounds.push(started.elapsed());
    }
    rounds.sort();
    // The median round: robust to a stray scheduling hiccup on a loaded
    // machine, but a Nagle stall would hold nearly every round.
    let median = rounds[rounds.len() / 2];
    assert!(
        median < Duration::from_millis(20),
        "median round of 3 pipelined predicts took {median:?} (all rounds: {rounds:?})"
    );
    server.shutdown();
    server.join();
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// A pipelined two-request segment torn at *any* byte boundary (with a
    /// flush and a pause between the fragments) still parses into exactly
    /// two correct in-order responses: framing state survives arbitrary
    /// TCP fragmentation.
    #[test]
    fn torn_frames_parse_identically(split_seed in 1usize..1000) {
        let addr = torn_frame_server();
        let segment = format!(
            "{}{}",
            keepalive_request("POST", "/predict", r#"{"input": [1, 2, 3, 4]}"#),
            keepalive_request("GET", "/healthz", ""),
        );
        let split = 1 + split_seed % (segment.len() - 1);
        let (mut stream, mut reader) = connect(addr);
        stream.write_all(&segment.as_bytes()[..split]).unwrap();
        stream.flush().unwrap();
        std::thread::sleep(Duration::from_millis(2));
        stream.write_all(&segment.as_bytes()[split..]).unwrap();
        let (status, _, body) = read_response(&mut reader);
        prop_assert_eq!(status, 200, "split {}: {}", split, body);
        prop_assert!(body.contains("outputs"), "split {}: {}", split, body);
        let (status, _, body) = read_response(&mut reader);
        prop_assert_eq!(status, 200, "split {}: {}", split, body);
        prop_assert!(body.contains("\"status\""), "split {}: {}", split, body);
    }
}
