//! The `serve` workload: `fitact serve` with its CLI defaults (max batch
//! 8, max wait 5 ms, 2 workers) on the FitAct-protected AlexNet demo,
//! driven by an open-loop Poisson load generator over keep-alive
//! connections: a light rate, a heavy rate and a rate ladder that finds
//! the highest rate meeting the p99 latency limit. The rates and the limit
//! are fixed arguments ([`Load`]).
//!
//! Every response's logits must equal `Network::forward` on the same row of
//! the loaded artifact, bit for bit.

use crate::layers::{self, KindTotals};
use crate::{metric, spans, stats, Args, Metric, Outcome};
use fitact_io::{JsonValue, MappedArtifact};
use fitact_nn::{trace, Mode, Network, ViolationTrace};
use fitact_serve::http::{
    encode_request, encode_response, parse_request, read_response, Outcome as Parsed,
};
use fitact_serve::{BatchQueue, PendingRow, ServeConfig, Server};
use fitact_tensor::matmul::serial_scope;
use fitact_tensor::Tensor;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::VecDeque;
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::os::fd::AsRawFd;
use std::sync::mpsc;
use std::time::{Duration, Instant};

/// The fixed open-loop load of the serve workload.
#[derive(Debug, Clone)]
pub struct Load {
    /// The light phase (req/s): batches rarely fill.
    pub light_rps: f64,
    /// The heavy phase (req/s): about half the capacity the saturation
    /// phase measures, where batches fill more often.
    pub heavy_rps: f64,
    /// The ladder rungs above the light rate that find `max_rps`, in
    /// increasing req/s.
    pub ladder: Vec<f64>,
    /// A rate passes when its p99 stays within this limit (ms).
    pub p99_limit_ms: f64,
}

/// Requests per phase and per ladder rung: ten samples lie beyond every
/// nearest-rank p99.
const PHASE_REQUESTS: usize = 1000;
/// The light and heavy rates each run this many phases and report the
/// median of their percentiles, so that one burst of host contention
/// moves one phase's p99, not the run's.
const SUB_PHASES: u64 = 3;
/// A phase's backlog grows when the median latency of its last quarter of
/// requests exceeds that of its first quarter by more than this (ms).
const BACKLOG_DRIFT_MS: f64 = 10.0;
/// Load-generator threads, one keep-alive connection each, capped at
/// `nproc` so the generator never outnumbers the cores it shares with the
/// server.
const CONNECTIONS: usize = 2;
/// Distinct test-split rows the requests carry.
const ROWS: usize = 128;
/// Requests in flight per connection before the generator holds back
/// (the server answers 429 past 64).
const MAX_INFLIGHT: usize = 48;
/// Requests of one saturation round, all due at once; capacity is the
/// median of `SATURATION_ROUNDS` rounds.
const SATURATION_REQUESTS: usize = 1000;
const SATURATION_ROUNDS: u64 = 3;

/// The CLI's `fitact serve` defaults.
fn serve_config() -> ServeConfig {
    ServeConfig {
        addr: "127.0.0.1:0".into(),
        ..ServeConfig::default()
    }
}

/// Request bodies and the logits each must come back with.
struct Corpus {
    /// Full HTTP request bytes per row (keep-alive framing).
    requests: Vec<Vec<u8>>,
    /// The decoded input row per row, as the server reads it.
    rows: Vec<Vec<f32>>,
    /// `Network::forward` logits per row, as bit patterns.
    expected: Vec<Vec<u32>>,
    network: Network,
}

fn request_bytes(body: &str) -> Vec<u8> {
    let mut out = format!(
        "POST /predict HTTP/1.1\r\nHost: 127.0.0.1\r\nContent-Type: application/json\r\n\
         Content-Length: {}\r\nConnection: keep-alive\r\n\r\n",
        body.len()
    )
    .into_bytes();
    out.extend_from_slice(body.as_bytes());
    out
}

/// The row a `/predict` body decodes to (`{"input": [...]}`), read the way
/// the server reads it.
fn decode_row(body: &[u8]) -> Result<Vec<f32>, String> {
    let text = std::str::from_utf8(body).map_err(|e| e.to_string())?;
    let value = spans::timed("io.json_parse", 0, || JsonValue::parse(text))?;
    spans::timed("io.json_rows", 0, || {
        value
            .get("input")
            .and_then(JsonValue::as_array)
            .ok_or("body has no `input` array")?
            .iter()
            .map(|v| v.as_f64().map(|v| v as f32).ok_or("non-numeric input"))
            .collect::<Result<Vec<f32>, _>>()
            .map_err(str::to_owned)
    })
}

fn build_corpus() -> Result<Corpus, String> {
    let path = crate::artifact_path("alexnet_demo");
    let (artifact, mut network) = spans::timed("io.artifact_map", 0, || {
        let artifact = MappedArtifact::open(&path)?;
        let network = artifact.instantiate()?;
        Ok::<_, fitact_io::IoError>((artifact, network))
    })
    .map_err(|e| format!("cannot map {}: {e}", path.display()))?;
    let spec = fitact_data::DataSpec::from_meta(|k| artifact.meta(k))
        .ok_or("the artifact carries no dataset metadata")?
        .with_samples(ROWS)
        .test();
    let (inputs, _) =
        spans::timed("data.materialize", 0, || spec.materialize()).map_err(|e| e.to_string())?;
    let mut corpus = Corpus {
        requests: Vec::new(),
        rows: Vec::new(),
        expected: Vec::new(),
        network: network.clone(),
    };
    for r in 0..ROWS {
        let row = inputs.index_axis0(r).map_err(|e| e.to_string())?;
        let values: Vec<String> = row.as_slice().iter().map(|v| format!("{v}")).collect();
        let body = format!("{{\"input\":[{}]}}", values.join(","));
        let decoded = decode_row(body.as_bytes())?;
        let mut dims = vec![1];
        dims.extend_from_slice(row.dims());
        let x = Tensor::from_vec(decoded.clone(), &dims).map_err(|e| e.to_string())?;
        let logits = network.forward(&x, Mode::Eval).map_err(|e| e.to_string())?;
        corpus
            .expected
            .push(logits.as_slice().iter().map(|v| v.to_bits()).collect());
        corpus.rows.push(decoded);
        corpus.requests.push(request_bytes(&body));
    }
    Ok(corpus)
}

/// One open-loop arrival.
#[derive(Debug, Clone, Copy)]
struct Arrival {
    /// Offset of the due time from the phase start.
    due: Duration,
    row: usize,
}

/// `count` Poisson arrivals at `rate` per second, derived from `seed`.
fn schedule(rate: f64, count: usize, seed: u64) -> Vec<Arrival> {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut t = 0.0f64;
    (0..count)
        .map(|_| {
            let u: f64 = rng.gen_range(f64::EPSILON..1.0);
            t += -u.ln() / rate;
            Arrival {
                due: Duration::from_secs_f64(t),
                row: rng.gen_range(0..ROWS),
            }
        })
        .collect()
}

/// What happened to one request.
#[derive(Debug, Clone, Copy, Default)]
struct Record {
    due_ns: u64,
    sent_ns: u64,
    done_ns: u64,
    status: u16,
    answered: bool,
}

#[repr(C)]
struct PollFd {
    fd: i32,
    events: i16,
    revents: i16,
}

#[repr(C)]
struct Timespec {
    tv_sec: i64,
    tv_nsec: i64,
}

extern "C" {
    fn ppoll(fds: *mut PollFd, nfds: u64, timeout: *const Timespec, sigmask: *const u8) -> i32;
}

/// Waits until `stream` is readable (or writable, when `write`), or until
/// `timeout` passes, with the kernel's high-resolution timer.
fn wait_ready(stream: &TcpStream, write: bool, timeout: Duration) {
    let mut fd = PollFd {
        fd: stream.as_raw_fd(),
        events: 0x1 | if write { 0x4 } else { 0 },
        revents: 0,
    };
    let ts = Timespec {
        tv_sec: timeout.as_secs() as i64,
        tv_nsec: i64::from(timeout.subsec_nanos()),
    };
    // SAFETY: one valid pollfd, a valid timespec and no signal mask; the
    // call only reads them and writes `revents`.
    unsafe {
        ppoll(&mut fd, 1, &ts, std::ptr::null());
    }
}

/// Parses one complete response at the start of `buf`: status, body range
/// and bytes consumed.
fn parse_response(buf: &[u8]) -> Option<(u16, std::ops::Range<usize>, usize)> {
    let head_end = buf.windows(4).position(|w| w == b"\r\n\r\n")? + 4;
    let head = std::str::from_utf8(&buf[..head_end]).ok()?;
    let status: u16 = head.split(' ').nth(1)?.parse().ok()?;
    let length: usize = head
        .lines()
        .find_map(|l| {
            let (k, v) = l.split_once(':')?;
            k.eq_ignore_ascii_case("content-length")
                .then(|| v.trim().parse().ok())?
        })
        .unwrap_or(0);
    (buf.len() >= head_end + length).then_some((
        status,
        head_end..head_end + length,
        head_end + length,
    ))
}

/// Checks one `/predict` response body against the expected logits.
fn check_body(body: &[u8], expected: &[u32]) -> Result<(), String> {
    let text = std::str::from_utf8(body).map_err(|e| e.to_string())?;
    let value = JsonValue::parse(text)?;
    let got: Vec<u32> = value
        .path(&["outputs"])
        .and_then(JsonValue::as_array)
        .and_then(|rows| rows.first())
        .and_then(JsonValue::as_array)
        .ok_or("response has no outputs")?
        .iter()
        .map(|v| v.as_f64().map(|v| (v as f32).to_bits()).unwrap_or(u32::MAX))
        .collect();
    if got != expected {
        return Err("response logits differ from Network::forward on the same row".into());
    }
    Ok(())
}

/// Drives one keep-alive connection through its share of a phase's
/// schedule, open loop: each request goes out at its due time whether or
/// not earlier responses have arrived.
fn drive(
    addr: SocketAddr,
    start: Instant,
    arrivals: &[(usize, Arrival)],
    corpus: &Corpus,
) -> Result<Vec<(usize, Record)>, String> {
    let connect = || -> Result<TcpStream, String> {
        let s = TcpStream::connect(addr).map_err(|e| format!("connect: {e}"))?;
        s.set_nodelay(true).map_err(|e| e.to_string())?;
        s.set_nonblocking(true).map_err(|e| e.to_string())?;
        Ok(s)
    };
    let mut stream = connect()?;
    let at = |ns: Duration| start + ns;
    let mut records: Vec<(usize, Record)> = arrivals
        .iter()
        .map(|&(i, a)| {
            (
                i,
                Record {
                    due_ns: a.due.as_nanos() as u64,
                    ..Default::default()
                },
            )
        })
        .collect();
    let mut out: Vec<u8> = Vec::new();
    let mut out_pos = 0usize;
    let mut inbuf: Vec<u8> = Vec::new();
    let mut chunk = vec![0u8; 64 * 1024];
    let mut inflight: VecDeque<usize> = VecDeque::new();
    let mut next = 0usize;
    let give_up = at(arrivals.last().map_or(Duration::ZERO, |a| a.1.due)) + Duration::from_secs(10);
    loop {
        let now = Instant::now();
        while next < arrivals.len()
            && at(arrivals[next].1.due) <= now
            && inflight.len() < MAX_INFLIGHT
        {
            out.extend_from_slice(&corpus.requests[arrivals[next].1.row]);
            records[next].1.sent_ns = (now - start).as_nanos() as u64;
            inflight.push_back(next);
            next += 1;
        }
        let mut closed = false;
        while out_pos < out.len() {
            match stream.write(&out[out_pos..]) {
                Ok(0) => {
                    closed = true;
                    break;
                }
                Ok(n) => out_pos += n,
                Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => break,
                Err(_) => {
                    closed = true;
                    break;
                }
            }
        }
        if out_pos == out.len() {
            out.clear();
            out_pos = 0;
        }
        loop {
            match stream.read(&mut chunk) {
                Ok(0) => {
                    closed = true;
                    break;
                }
                Ok(n) => inbuf.extend_from_slice(&chunk[..n]),
                Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => break,
                Err(_) => {
                    closed = true;
                    break;
                }
            }
        }
        let mut consumed = 0usize;
        while let Some((status, body, used)) = parse_response(&inbuf[consumed..]) {
            let Some(k) = inflight.pop_front() else {
                return Err("a response arrived with no request in flight".into());
            };
            let record = &mut records[k].1;
            record.done_ns = start.elapsed().as_nanos() as u64;
            record.status = status;
            record.answered = true;
            if status == 200 {
                let body = &inbuf[consumed + body.start..consumed + body.end];
                check_body(body, &corpus.expected[arrivals[k].1.row])?;
            }
            consumed += used;
        }
        inbuf.drain(..consumed);
        if closed {
            // Whatever was in flight is lost; later requests reconnect.
            inflight.clear();
            out.clear();
            out_pos = 0;
            inbuf.clear();
            stream = connect()?;
        }
        if next == arrivals.len() && inflight.is_empty() {
            break;
        }
        let now = Instant::now();
        if now > give_up {
            break;
        }
        let until_due = if next < arrivals.len() && inflight.len() < MAX_INFLIGHT {
            at(arrivals[next].1.due).saturating_duration_since(now)
        } else {
            Duration::from_millis(50)
        };
        if !until_due.is_zero() {
            wait_ready(
                &stream,
                out_pos < out.len(),
                until_due.min(Duration::from_millis(50)),
            );
        }
    }
    Ok(records)
}

/// Client-side results of one phase.
#[derive(Debug, Default, Clone)]
struct Phase {
    rate: f64,
    sent: u64,
    refused: u64,
    failed: u64,
    p50_ms: f64,
    p99_ms: f64,
    late_p99_ms: f64,
    /// Median latency of the last quarter minus that of the first quarter.
    drift_ms: f64,
}

impl Phase {
    /// No refused or failed request, p99 within the limit, no backlog growth.
    fn meets(&self, p99_limit_ms: f64) -> bool {
        self.refused == 0
            && self.failed == 0
            && self.p99_ms <= p99_limit_ms
            && self.drift_ms <= BACKLOG_DRIFT_MS
    }
}

/// Deals `arrivals` round-robin over the generator threads and
/// returns every request's record, in schedule order.
fn drive_all(
    addr: SocketAddr,
    start: Instant,
    arrivals: &[Arrival],
    corpus: &Corpus,
) -> Result<Vec<Record>, String> {
    let connections = CONNECTIONS.min(crate::nproc());
    std::thread::scope(|scope| {
        let handles: Vec<_> = (0..connections)
            .map(|c| {
                let share: Vec<(usize, Arrival)> = arrivals
                    .iter()
                    .copied()
                    .enumerate()
                    .filter(|(i, _)| i % connections == c)
                    .collect();
                scope.spawn(move || drive(addr, start, &share, corpus))
            })
            .collect();
        let mut all = vec![Record::default(); arrivals.len()];
        for handle in handles {
            for (i, record) in handle.join().map_err(|_| "load generator panicked")?? {
                all[i] = record;
            }
        }
        Ok(all)
    })
}

/// Runs one open-loop phase against the server at `addr`.
fn run_phase(addr: SocketAddr, corpus: &Corpus, rate: f64, seed: u64) -> Result<Phase, String> {
    let arrivals = schedule(rate, PHASE_REQUESTS, seed);
    let records = drive_all(
        addr,
        Instant::now() + Duration::from_millis(20),
        &arrivals,
        corpus,
    )?;
    let mut phase = Phase {
        rate,
        sent: records.len() as u64,
        ..Default::default()
    };
    // A refused or failed request misses the latency limit.
    let latencies: Vec<f64> = records
        .iter()
        .map(|r| {
            if r.answered && r.status == 200 {
                (r.done_ns - r.due_ns) as f64 / 1e6
            } else {
                f64::INFINITY
            }
        })
        .collect();
    for r in &records {
        match (r.answered, r.status) {
            (true, 200) => {}
            (true, 429 | 503) => phase.refused += 1,
            _ => phase.failed += 1,
        }
    }
    let late: Vec<f64> = records
        .iter()
        .map(|r| r.sent_ns.saturating_sub(r.due_ns) as f64 / 1e6)
        .collect();
    phase.p50_ms = stats::percentile(&latencies, 0.50);
    phase.p99_ms = stats::percentile(&latencies, 0.99);
    phase.late_p99_ms = stats::percentile(&late, 0.99);
    let quarter = latencies.len() / 4;
    phase.drift_ms = stats::percentile(&latencies[latencies.len() - quarter..], 0.5)
        - stats::percentile(&latencies[..quarter], 0.5);
    eprintln!(
        "serve: {rate} req/s: p50 {:.2} ms, p99 {:.2} ms, drift {:.2} ms, generator late p99 {:.2} ms, \
         refused {}, failed {}",
        phase.p50_ms, phase.p99_ms, phase.drift_ms, phase.late_p99_ms, phase.refused, phase.failed
    );
    Ok(phase)
}

/// `SUB_PHASES` phases at `rate`: counts summed, percentiles the median of
/// the phases'.
fn run_phases(addr: SocketAddr, corpus: &Corpus, rate: f64, seed: u64) -> Result<Phase, String> {
    let phases = (0..SUB_PHASES)
        .map(|i| run_phase(addr, corpus, rate, crate::derive_seed(seed, i)))
        .collect::<Result<Vec<Phase>, String>>()?;
    let median = |value: fn(&Phase) -> f64| {
        stats::median(&mut phases.iter().map(value).collect::<Vec<f64>>())
    };
    Ok(Phase {
        rate,
        sent: phases.iter().map(|p| p.sent).sum(),
        refused: phases.iter().map(|p| p.refused).sum(),
        failed: phases.iter().map(|p| p.failed).sum(),
        p50_ms: median(|p| p.p50_ms),
        p99_ms: median(|p| p.p99_ms),
        late_p99_ms: median(|p| p.late_p99_ms),
        drift_ms: median(|p| p.drift_ms),
    })
}

/// One blocking `Connection: close` exchange with the admin plane.
fn admin(addr: SocketAddr, method: &str, target: &str) -> Result<JsonValue, String> {
    let mut stream = TcpStream::connect(addr).map_err(|e| e.to_string())?;
    stream
        .set_read_timeout(Some(Duration::from_secs(10)))
        .map_err(|e| e.to_string())?;
    stream
        .write_all(&encode_request(method, target, b""))
        .map_err(|e| e.to_string())?;
    let response = read_response(&mut stream, 1 << 20)?;
    let text = String::from_utf8(response.body).map_err(|e| e.to_string())?;
    JsonValue::parse(&text)
}

/// What `/metrics` says about the traffic since the previous scrape.
#[derive(Debug, Default, Clone, Copy)]
struct Scrape {
    rows: f64,
    batches: f64,
    violations: f64,
    p50_us: f64,
    p99_us: f64,
}

fn scrape(addr: SocketAddr) -> Result<Scrape, String> {
    let m = admin(addr, "GET", "/metrics")?;
    let num = |keys: &[&str]| m.path(keys).and_then(JsonValue::as_f64).unwrap_or(0.0);
    let violations = m
        .path(&["violations", "layers"])
        .and_then(JsonValue::as_array)
        .map_or(0.0, |layers| {
            layers
                .iter()
                .filter_map(|l| l.get("violations").and_then(JsonValue::as_f64))
                .sum()
        });
    Ok(Scrape {
        rows: num(&["rows_total"]),
        batches: num(&["batches_total"]),
        violations,
        p50_us: num(&["latency_us", "p50"]),
        p99_us: num(&["latency_us", "p99"]),
    })
}

/// `Server::start` with the CLI's defaults on the AlexNet demo artifact.
fn start_server() -> Result<Server, String> {
    spans::timed("serve.start", 0, || {
        Server::start(crate::artifact_path("alexnet_demo"), &serve_config())
    })
    .map_err(|e| format!("server start: {e}"))
}

/// Warm-up to steady state: a short open-loop burst at twice the light
/// rate.
fn warm_up(server: &Server, corpus: &Corpus, load: &Load, seed: u64) -> Result<(), String> {
    let _span = spans::enter("bench.warm_up", 0);
    let arrivals = schedule(load.light_rps * 2.0, 200, seed);
    let start = Instant::now();
    let share: Vec<(usize, Arrival)> = arrivals.into_iter().enumerate().collect();
    drive(server.addr(), start, &share, corpus)?;
    admin(server.addr(), "POST", "/admin/metrics/reset")?;
    Ok(())
}

fn stop(server: Server) {
    server.shutdown();
    server.join();
}

/// Corpus, server start and warm-up, three times (set-up time is their
/// median); the last server stays up.
fn set_up(load: &Load, seed: u64) -> Result<(Corpus, Server, f64), String> {
    let mut setups = Vec::new();
    let mut running: Option<(Corpus, Server)> = None;
    for attempt in 0..3 {
        let t0 = Instant::now();
        let corpus = build_corpus()?;
        let server = start_server()?;
        warm_up(
            &server,
            &corpus,
            load,
            crate::derive_seed(seed, 100 + attempt),
        )?;
        setups.push(t0.elapsed().as_secs_f64());
        if let Some((_, previous)) = running.replace((corpus, server)) {
            stop(previous);
        }
    }
    let (corpus, server) = running.expect("three set-ups ran");
    Ok((corpus, server, stats::median(&mut setups)))
}

/// Capacity: every request of a round due at once, so each connection
/// keeps `MAX_INFLIGHT` requests in flight and every batch fills. Returns
/// the median over rounds of answered requests per second; any refused or
/// failed request fails the run.
fn saturate(addr: SocketAddr, corpus: &Corpus, seed: u64) -> Result<f64, String> {
    let mut rates = (0..SATURATION_ROUNDS)
        .map(|round| saturation_round(addr, corpus, crate::derive_seed(seed, 20 + round)))
        .collect::<Result<Vec<f64>, String>>()?;
    Ok(stats::median(&mut rates))
}

fn saturation_round(addr: SocketAddr, corpus: &Corpus, seed: u64) -> Result<f64, String> {
    let mut rng = StdRng::seed_from_u64(seed);
    let arrivals: Vec<Arrival> = (0..SATURATION_REQUESTS)
        .map(|_| Arrival {
            due: Duration::ZERO,
            row: rng.gen_range(0..ROWS),
        })
        .collect();
    let start = Instant::now();
    let records = drive_all(addr, start, &arrivals, corpus)?;
    let done = records.iter().map(|r| r.done_ns).max().unwrap_or(0) as f64 / 1e9;
    let ok = records
        .iter()
        .filter(|r| r.answered && r.status == 200)
        .count();
    if ok != records.len() {
        return Err(format!(
            "saturation: {} of {} requests were refused or failed",
            records.len() - ok,
            records.len()
        ));
    }
    Ok(ok as f64 / done)
}

/// Climbs the ladder, whose base rung is the light phase, until a rung
/// misses the limit; `max_rps` is the last rung that met it (0 when not
/// even the light rate did).
fn climb(
    addr: SocketAddr,
    corpus: &Corpus,
    load: &Load,
    light: &Phase,
    seed: u64,
) -> Result<(Vec<Phase>, f64), String> {
    let mut rungs = Vec::new();
    if !light.meets(load.p99_limit_ms) {
        return Ok((rungs, 0.0));
    }
    let mut max_rps = light.rate;
    for (i, &rate) in load.ladder.iter().enumerate() {
        let rung = run_phase(addr, corpus, rate, crate::derive_seed(seed, 10 + i as u64))?;
        let pass = rung.meets(load.p99_limit_ms);
        rungs.push(rung);
        if !pass {
            break;
        }
        max_rps = rate;
    }
    Ok((rungs, max_rps))
}

pub fn run(args: &Args) -> Result<Outcome, String> {
    let load = args
        .load
        .as_ref()
        .ok_or("the serve workload needs --light-rps, --heavy-rps, --ladder and --p99-limit-ms")?;
    if args.trace {
        return run_trace(args, load);
    }
    let (corpus, server, setup_s) = set_up(load, args.seed)?;
    let addr = server.addr();
    let light = run_phases(
        addr,
        &corpus,
        load.light_rps,
        crate::derive_seed(args.seed, 1),
    )?;
    let heavy = run_phases(
        addr,
        &corpus,
        load.heavy_rps,
        crate::derive_seed(args.seed, 2),
    )?;
    let (rungs, max_rps) = climb(addr, &corpus, load, &light, args.seed)?;
    let capacity = saturate(addr, &corpus, args.seed)?;
    eprintln!("serve: saturation {capacity:.1} req/s");
    stop(server);
    let mut report = phase_report("light", &light);
    report.extend(phase_report("heavy", &heavy));
    report.push(metric("max_rps", max_rps, "req/s"));
    report.push(metric("capacity_rps", capacity, "req/s"));
    report.push(metric("ladder_rungs", rungs.len() as f64, "count"));
    for rung in &rungs {
        report.push(metric(
            &format!("ladder_{}_p99_ms", rung.rate),
            rung.p99_ms,
            "ms",
        ));
    }
    report.push(metric("p99_limit_ms", load.p99_limit_ms, "ms"));
    Ok(Outcome {
        attempted: light.sent + heavy.sent,
        failed: light.refused + light.failed + heavy.refused + heavy.failed,
        end_to_end: vec![
            metric("setup_s", setup_s, "s"),
            metric("peak_rss_mb", crate::peak_rss_mb(), "MB"),
            metric("wait_s", light.p99_ms / 1e3, "s"),
            metric("rate_per_s", capacity, "1/s"),
        ],
        per_layer: Vec::new(),
        report,
    })
}

fn phase_report(name: &str, phase: &Phase) -> Vec<Metric> {
    let key = |suffix: &str| format!("{name}_{suffix}");
    vec![
        metric(&key("p50_ms"), phase.p50_ms, "ms"),
        metric(&key("p99_ms"), phase.p99_ms, "ms"),
        metric(&key("gen_late_p99_ms"), phase.late_p99_ms, "ms"),
        metric(&key("sent"), phase.sent as f64, "count"),
        metric(&key("refused"), phase.refused as f64, "count"),
        metric(&key("failed"), phase.failed as f64, "count"),
    ]
}

/// Replays the first `count` requests of a phase schedule in process: a
/// feeder thread parses each request (`http::parse_request`, then
/// `JsonValue::parse`) at its due time and pushes it into a `BatchQueue`
/// with the server's batch settings; a worker thread drains batches,
/// forwards them layer by layer under `trace::capture` and encodes each
/// row's response. Returns per-row queue waits (µs) and the spans of both
/// threads.
fn replay_queue(
    corpus: &Corpus,
    arrivals: &[Arrival],
) -> Result<(Vec<f64>, Vec<spans::Span>), String> {
    let config = serve_config();
    let queue = BatchQueue::new(config.max_batch, config.max_wait, config.max_queue);
    let kinds = layers::kinds(&corpus.network)?;
    let (tx, rx) = mpsc::channel();
    std::thread::scope(|scope| {
        let worker = scope.spawn(|| -> Result<(Vec<f64>, Vec<spans::Span>), String> {
            spans::start(1);
            let mut network = corpus.network.clone();
            let mut violations = ViolationTrace::new();
            let mut waits = Vec::new();
            let mut totals = KindTotals::default();
            let mut batch_id = 0u64;
            serial_scope(|| {
                while let Some(batch) = queue.next_batch() {
                    let drained = Instant::now();
                    waits.extend(
                        batch
                            .iter()
                            .map(|row| (drained - row.enqueued).as_secs_f64() * 1e6),
                    );
                    let _span = spans::enter("bench.batch", batch_id);
                    let features = batch[0].input.len();
                    let mut staged = Vec::with_capacity(batch.len() * features);
                    for row in &batch {
                        staged.extend_from_slice(&row.input);
                    }
                    let mut dims = vec![batch.len()];
                    dims.extend_from_slice(&[3, 32, 32]);
                    let x = Tensor::from_vec(staged, &dims).map_err(|e| e.to_string())?;
                    let logits = trace::capture(&mut violations, || {
                        layers::forward_from(
                            &mut network,
                            &kinds,
                            0,
                            &x,
                            Mode::Eval,
                            batch_id,
                            &mut totals,
                        )
                    })?;
                    let width = logits.numel() / batch.len();
                    for (i, row) in batch.iter().enumerate() {
                        let got: Vec<u32> = logits.as_slice()[i * width..(i + 1) * width]
                            .iter()
                            .map(|v| v.to_bits())
                            .collect();
                        if got != corpus.expected[row.row] {
                            return Err("replayed logits differ from Network::forward".to_owned());
                        }
                        encode_row(&logits.as_slice()[i * width..(i + 1) * width], batch.len());
                    }
                    batch_id += 1;
                }
                Ok::<_, String>(())
            })?;
            Ok((waits, spans::take()))
        });
        spans::start(2);
        let start = Instant::now();
        for (i, a) in arrivals.iter().enumerate() {
            let due = start + a.due;
            if let Some(wait) = due.checked_duration_since(Instant::now()) {
                std::thread::sleep(wait);
            }
            let row = parse_one(&corpus.requests[a.row], i as u64)?;
            queue
                .push(vec![PendingRow {
                    input: row,
                    row: a.row,
                    enqueued: Instant::now(),
                    responder: tx.clone(),
                }])
                .map_err(|_| "the replay queue refused a row")?;
        }
        queue.shutdown();
        let feeder = spans::take();
        let (waits, mut worker_spans) = worker.join().map_err(|_| "replay worker panicked")??;
        spans::append(&mut worker_spans, &feeder);
        drop(rx);
        Ok((waits, worker_spans))
    })
}

/// `http::parse_request` then the JSON decode of one request.
fn parse_one(bytes: &[u8], id: u64) -> Result<Vec<f32>, String> {
    let _span = spans::enter("bench.request", id);
    let mut scan = 0usize;
    let parsed = spans::timed("serve.http_parse", id, || {
        parse_request(bytes, &mut scan, 8 << 20)
    })
    .map_err(|e| format!("parse_request: {}", e.message))?;
    let Parsed::Complete { request, .. } = parsed else {
        return Err("parse_request wants more bytes".into());
    };
    decode_row(&request.body)
}

/// The server's `/predict` response for one row: the JSON body, then the
/// HTTP framing.
fn encode_row(logits: &[f32], batch_size: usize) -> Vec<u8> {
    let body = spans::timed("io.json_encode", 0, || {
        let class = logits
            .iter()
            .enumerate()
            .max_by(|a, b| a.1.total_cmp(b.1))
            .map_or(0, |(i, _)| i);
        JsonValue::Object(vec![
            ("model".into(), JsonValue::String("alexnet".into())),
            (
                "outputs".into(),
                JsonValue::Array(vec![JsonValue::Array(
                    logits
                        .iter()
                        .map(|&v| JsonValue::Number(f64::from(v)))
                        .collect(),
                )]),
            ),
            (
                "classes".into(),
                JsonValue::Array(vec![JsonValue::Number(class as f64)]),
            ),
            (
                "batch_sizes".into(),
                JsonValue::Array(vec![JsonValue::Number(batch_size as f64)]),
            ),
        ])
        .to_string()
    });
    spans::timed("serve.http_encode", 0, || {
        encode_response(200, &body, true, None)
    })
}

/// Serial request loop for the tracing overhead: parse, decode, forward at
/// batch 1 under `trace::capture`, encode.
fn serial_requests(corpus: &Corpus, arrivals: &[Arrival]) -> Result<(), String> {
    let mut network = corpus.network.clone();
    let kinds = layers::kinds(&network)?;
    let mut violations = ViolationTrace::new();
    let mut totals = KindTotals::default();
    serial_scope(|| {
        for (i, a) in arrivals.iter().enumerate() {
            let row = parse_one(&corpus.requests[a.row], i as u64)?;
            let x = Tensor::from_vec(row, &[1, 3, 32, 32]).map_err(|e| e.to_string())?;
            let logits = trace::capture(&mut violations, || {
                layers::forward_from(
                    &mut network,
                    &kinds,
                    0,
                    &x,
                    Mode::Eval,
                    i as u64,
                    &mut totals,
                )
            })?;
            encode_row(logits.as_slice(), 1);
        }
        Ok(())
    })
}

/// Forward at batch 8 inside `trace::capture` minus the same forward
/// without it, median of alternating repetitions (µs).
fn trace_cost_us(corpus: &Corpus) -> Result<f64, String> {
    let mut network = corpus.network.clone();
    let staged: Vec<f32> = corpus.rows.iter().take(8).flatten().copied().collect();
    let x = Tensor::from_vec(staged, &[8, 3, 32, 32]).map_err(|e| e.to_string())?;
    let mut violations = ViolationTrace::new();
    let mut plain = Vec::new();
    let mut traced = Vec::new();
    serial_scope(|| {
        for _ in 0..200 {
            let t0 = Instant::now();
            network.forward(&x, Mode::Eval).map_err(|e| e.to_string())?;
            plain.push(t0.elapsed().as_secs_f64());
            let t0 = Instant::now();
            trace::capture(&mut violations, || network.forward(&x, Mode::Eval))
                .map_err(|e| e.to_string())?;
            traced.push(t0.elapsed().as_secs_f64());
        }
        Ok::<_, String>(())
    })?;
    Ok((stats::median(&mut traced) - stats::median(&mut plain)) * 1e6)
}

fn run_trace(args: &Args, load: &Load) -> Result<Outcome, String> {
    spans::start(0);
    let corpus = build_corpus()?;
    let server = start_server()?;
    warm_up(&server, &corpus, load, crate::derive_seed(args.seed, 100))?;
    let addr = server.addr();
    let mut phases = Vec::new();
    for (p, rate) in [(1u64, load.light_rps), (2, load.heavy_rps)] {
        admin(addr, "POST", "/admin/metrics/reset")?;
        let before = scrape(addr)?;
        let phase = run_phases(addr, &corpus, rate, crate::derive_seed(args.seed, p))?;
        let after = scrape(addr)?;
        phases.push((phase, before, after));
    }
    stop(server);
    let mut main_spans = spans::take();

    // In-process replays of the first heavy phase's first requests.
    let heavy_seed = crate::derive_seed(crate::derive_seed(args.seed, 2), 0);
    let heavy = schedule(load.heavy_rps, PHASE_REQUESTS, heavy_seed);
    let sample = &heavy[..400];
    // Untraced and traced serial passes; the last traced pass's spans give
    // the split.
    let mut serial_spans = Vec::new();
    let passes = spans::compare(4, &mut serial_spans, |_| serial_requests(&corpus, sample))?;
    let (mut waits, queue_spans) = replay_queue(&corpus, sample)?;
    spans::start(0);
    let mut network = corpus.network.clone();
    let kinds = layers::kinds(&network)?;
    let inputs = Tensor::from_vec(
        corpus.rows.iter().flatten().copied().collect(),
        &[ROWS, 3, 32, 32],
    )
    .map_err(|e| e.to_string())?;
    let (b1, b8) = serial_scope(|| {
        Ok::<_, String>((
            layers::profile(&mut network, &kinds, &inputs, 1, 0.5)?,
            layers::profile(&mut network, &kinds, &inputs, 8, 0.5)?,
        ))
    })?;
    let trace_us = trace_cost_us(&corpus)?;
    let peak = layers::peak_gflops();
    for batch in [&serial_spans, &queue_spans, &spans::take()] {
        spans::append(&mut main_spans, batch);
    }
    spans::write(&crate::out_dir().join("spans-serve.jsonl"), &main_spans)
        .map_err(|e| e.to_string())?;

    let table = spans::self_times(&serial_spans);
    let get = |name: &str| table.get(name).copied().unwrap_or_default();
    let (light, _, light_after) = &phases[0];
    let (heavy_phase, heavy_before, heavy_after) = &phases[1];
    let rows = (heavy_after.rows - heavy_before.rows).max(1.0);
    let violations = (heavy_after.violations - heavy_before.violations).max(0.0);
    waits.sort_by(f64::total_cmp);
    let (from, to) = spans::extent(&serial_spans);
    let serial_wall = (to - from).max(1) as f64;
    let serial_layers = spans::layer_self_ns(&serial_spans, from, to);
    let share = |layer: &str| serial_layers.get(layer).copied().unwrap_or(0) as f64 / serial_wall;
    let covered: u64 = serial_layers.values().sum();
    let per_layer = vec![
        metric("tensor.peak_gflops", peak, "GFLOP/s"),
        metric("tensor.conv_gflops", b8.conv_gflops(), "GFLOP/s"),
        metric("tensor.linear_gflops", b1.linear_gflops(), "GFLOP/s"),
        metric("nn.forward_ms", b8.forward_ms(), "ms"),
        metric("nn.forward_b1_ms", b1.forward_ms(), "ms"),
        metric("nn.conv_ms", b8.conv_ms(), "ms"),
        metric("nn.linear_ms", b8.linear_ms(), "ms"),
        metric("nn.pool_ms", b8.pool_ms(), "ms"),
        metric("nn.norm_ms", b8.norm_ms(), "ms"),
        metric("core.act_fwd_ms", b8.act_ms(), "ms"),
        metric("core.act_share", b8.act_share(), "ratio"),
        metric("core.trace_us", trace_us, "us"),
        metric(
            "io.artifact_load_ms",
            table_ms(&main_spans, "io.artifact_map"),
            "ms",
        ),
        metric(
            "io.json_parse_us",
            get("io.json_parse").mean(1e3) + get("io.json_rows").mean(1e3),
            "us",
        ),
        metric("io.json_encode_us", get("io.json_encode").mean(1e3), "us"),
        metric(
            "serve.http_parse_us",
            get("serve.http_parse").mean(1e3),
            "us",
        ),
        metric(
            "serve.queue_wait_p50_us",
            stats::percentile_sorted(&waits, 0.5),
            "us",
        ),
        metric(
            "serve.queue_wait_p99_us",
            stats::percentile_sorted(&waits, 0.99),
            "us",
        ),
        metric(
            "serve.batch_rows",
            rows / (heavy_after.batches - heavy_before.batches).max(1.0),
            "count",
        ),
        metric("serve.server_p50_us", heavy_after.p50_us, "us"),
        metric("serve.server_p99_us", heavy_after.p99_us, "us"),
        metric("serve.violations_per_row", violations / rows, "count"),
        metric(
            "serve.transport_p50_us",
            light.p50_ms * 1e3 - light_after.p50_us,
            "us",
        ),
        metric(
            "serve.transport_p99_us",
            light.p99_ms * 1e3 - light_after.p99_us,
            "us",
        ),
        metric(
            "serve.gen_late_p99_ms",
            light.late_p99_ms.max(heavy_phase.late_p99_ms),
            "ms",
        ),
        metric(
            "serve.sent",
            (light.sent + heavy_phase.sent) as f64,
            "count",
        ),
        metric(
            "serve.refused",
            (light.refused + heavy_phase.refused) as f64,
            "count",
        ),
        metric(
            "serve.failed",
            (light.failed + heavy_phase.failed) as f64,
            "count",
        ),
        metric(
            "data.materialize_ms",
            table_ms(&main_spans, "data.materialize"),
            "ms",
        ),
        metric(
            "trace.layer_coverage",
            covered as f64 / serial_wall,
            "ratio",
        ),
        metric("trace.overhead", passes.overhead(), "ratio"),
        metric("trace.nn_share", share("nn"), "ratio"),
        metric("trace.core_share", share("core"), "ratio"),
        metric("trace.faults_share", share("faults"), "ratio"),
        metric("trace.io_share", share("io"), "ratio"),
        metric("trace.serve_share", share("serve"), "ratio"),
        metric("trace.data_share", share("data"), "ratio"),
    ];
    let mut report = phase_report("light", light);
    report.extend(phase_report("heavy", heavy_phase));
    report.push(metric("light_server_p50_us", light_after.p50_us, "us"));
    report.push(metric("light_server_p99_us", light_after.p99_us, "us"));
    report.push(metric(
        "heavy_transport_p99_us",
        heavy_phase.p99_ms * 1e3 - heavy_after.p99_us,
        "us",
    ));
    report.push(metric("replayed_requests", sample.len() as f64, "count"));
    Ok(Outcome {
        attempted: light.sent + heavy_phase.sent,
        failed: light.refused + light.failed + heavy_phase.refused + heavy_phase.failed,
        end_to_end: Vec::new(),
        per_layer,
        report,
    })
}

/// Mean duration of the spans named `name`, in ms.
fn table_ms(spans: &[spans::Span], name: &str) -> f64 {
    spans::self_times(spans)
        .get(name)
        .map_or(0.0, |t| t.total_ns as f64 / t.count.max(1) as f64 / 1e6)
}
