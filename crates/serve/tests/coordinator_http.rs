//! The campaign coordinator's connection layer over real sockets. It runs on
//! the same event-loop transport as `fitact serve`, so a connection past
//! its cap is shed with `503` + `Retry-After` and an oversized result body
//! is refused with `413` — answered, not silently dropped.

use fitact_data::DataSpec;
use fitact_faults::{StatCampaignConfig, TransientBitFlip};
use fitact_io::{JsonValue, ModelArtifact};
use fitact_nn::layers::{ActivationLayer, Flatten, Linear, Sequential};
use fitact_nn::Network;
use fitact_serve::http::read_response;
use fitact_serve::protocol::MAX_CONTROL_BODY;
use fitact_serve::{Coordinator, CoordinatorConfig, ServeConfig};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::sync::Arc;
use std::time::Duration;

/// A serve-only coordinator (no in-process execution) for an untrained MLP
/// over 3-class blobs.
fn start_coordinator() -> Coordinator {
    let data = DataSpec::blobs(3, 48, 5);
    let features: usize = data.input_shape().iter().product();
    let mut rng = StdRng::seed_from_u64(9);
    let network = Network::new(
        "mlp",
        Sequential::new()
            .with(Box::new(Flatten::new()))
            .with(Box::new(Linear::new(features, 8, &mut rng)))
            .with(Box::new(ActivationLayer::relu("h1", &[8])))
            .with(Box::new(Linear::new(8, 3, &mut rng))),
    );
    Coordinator::start_with_data(
        ModelArtifact::capture(&network).unwrap().to_bytes(),
        data,
        StatCampaignConfig {
            batch_size: 16,
            ..Default::default()
        },
        Arc::new(TransientBitFlip),
        &CoordinatorConfig {
            local_execute: false,
            ..Default::default()
        },
    )
    .unwrap()
}

/// Everything the coordinator sends on `stream` until it closes.
fn read_to_close(stream: &mut TcpStream) -> String {
    stream
        .set_read_timeout(Some(Duration::from_secs(30)))
        .unwrap();
    let mut response = Vec::new();
    let _ = stream.read_to_end(&mut response);
    String::from_utf8_lossy(&response).into_owned()
}

fn healthz(addr: SocketAddr) -> String {
    let mut stream = TcpStream::connect(addr).unwrap();
    stream
        .write_all(b"GET /healthz HTTP/1.1\r\nHost: t\r\n\r\n")
        .unwrap();
    read_to_close(&mut stream)
}

#[test]
fn connections_past_the_cap_are_shed_with_503_and_retry_after() {
    let coordinator = start_coordinator();
    let addr = coordinator.addr();
    // Idle connections hold every slot; the coordinator's cap is the serve
    // default.
    let cap = ServeConfig::default().max_connections;
    let held: Vec<TcpStream> = (0..cap)
        .map(|_| TcpStream::connect(addr).unwrap())
        .collect();
    let mut shed = TcpStream::connect(addr).unwrap();
    let response = read_to_close(&mut shed);
    assert!(response.starts_with("HTTP/1.1 503"), "{response}");
    assert!(response.contains("Retry-After: 1\r\n"), "{response}");
    // Once the holders hang up, their slots free and requests are served.
    drop(held);
    let mut response = String::new();
    for _ in 0..100 {
        response = healthz(addr);
        if response.starts_with("HTTP/1.1 200") {
            break;
        }
        std::thread::sleep(Duration::from_millis(50));
    }
    assert!(response.ends_with("{\"status\":\"ok\"}"), "{response}");
    coordinator.shutdown();
}

#[test]
fn oversized_result_bodies_are_refused_with_413() {
    let coordinator = start_coordinator();
    let mut stream = TcpStream::connect(coordinator.addr()).unwrap();
    stream
        .set_read_timeout(Some(Duration::from_secs(30)))
        .unwrap();
    // Only the head: the refusal must come before any body byte is sent.
    let head = format!(
        "POST /campaign/result HTTP/1.1\r\nContent-Type: application/json\r\n\
         Content-Length: {}\r\n\r\n",
        MAX_CONTROL_BODY + 1
    );
    stream.write_all(head.as_bytes()).unwrap();
    let response = read_response(&mut stream, 64 * 1024).unwrap();
    assert_eq!(response.status, 413);
    let body = JsonValue::parse(std::str::from_utf8(&response.body).unwrap()).unwrap();
    let error = body.get("error").and_then(JsonValue::as_str).unwrap();
    assert!(error.contains("exceeds"), "{error}");
    coordinator.shutdown();
}
