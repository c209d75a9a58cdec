//! Lock-light serving metrics: request counters, a batch-size histogram and
//! end-to-end latency percentiles.
//!
//! Counters are atomics touched on every request; latencies go into a
//! bounded ring (the most recent [`LATENCY_WINDOW`] samples) behind a mutex
//! that is held only for a push or a snapshot copy. The `/metrics` endpoint
//! renders a [`MetricsSnapshot`] as one JSON object — the same report CI
//! uploads as a workflow artifact from the `serve-smoke` job.

use fitact_io::JsonValue;
use fitact_nn::ViolationTrace;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};

/// Number of most-recent per-row latency samples kept for the percentile
/// estimates.
pub const LATENCY_WINDOW: usize = 4096;

/// The serving-metrics registry shared by every connection and worker
/// thread.
#[derive(Debug)]
pub struct Metrics {
    started: Instant,
    /// Rows accepted into the queue.
    rows_total: AtomicU64,
    /// Rows answered successfully.
    responses_total: AtomicU64,
    /// Rows answered with an error (bad input, worker failure, shutdown).
    errors_total: AtomicU64,
    /// Predicts refused with 400 before queueing: a body that is not JSON
    /// or carries no valid row.
    bad_requests_total: AtomicU64,
    /// Predicts refused with 503 because the queue was full.
    overloaded_total: AtomicU64,
    /// Micro-batches executed.
    batches_total: AtomicU64,
    /// `histogram[s]` counts batches that executed exactly `s` rows
    /// (`s ∈ 1..=max_batch`; slot 0 is unused).
    batch_histogram: Vec<AtomicU64>,
    /// Model reloads performed via the admin endpoint.
    reloads_total: AtomicU64,
    latencies: Mutex<LatencyRing>,
    /// Latency-window resets via `/admin/metrics/reset`.
    latency_resets_total: AtomicU64,
    /// Live batches whose violation trace was non-empty.
    violation_batches_total: AtomicU64,
    /// Per-layer violation telemetry, keyed by activation-slot label.
    layer_violations: Mutex<Vec<LayerViolations>>,
    /// Suspect batches counted (but not retried) under `--retry-policy flag`.
    flagged_batches_total: AtomicU64,
    /// Suspect batches re-executed under `--retry-policy retry`.
    retried_batches_total: AtomicU64,
    /// Retried rows whose re-execution differed (confirmed transient).
    retry_transient_rows: AtomicU64,
    /// Retried rows that reproduced bit-identically (persistent violation).
    retry_persistent_rows: AtomicU64,
    /// Batches mirrored through the canary shadow replica.
    canary_batches_total: AtomicU64,
    /// Faults the canary injector actually flipped into shadow traffic.
    canary_faults_injected_total: AtomicU64,
    /// Violations the shadow replica's trace recorded.
    canary_violations_total: AtomicU64,
    /// Canary batches that received at least one injected fault.
    canary_injected_batches_total: AtomicU64,
    /// Fault-carrying canary batches whose trace fired (the coverage
    /// numerator; the denominator is `canary_injected_batches_total`).
    canary_detected_batches_total: AtomicU64,
    /// Batches the canary mirror dropped because its queue was full.
    canary_dropped_total: AtomicU64,
    /// Canary rows whose retry reproduced the clean replica bit-for-bit.
    canary_retry_clean_match_rows: AtomicU64,
    /// Canary rows whose retry still differed from the clean replica.
    canary_retry_mismatch_rows: AtomicU64,
    /// Canary rows whose retry differed from the faulted forward
    /// (confirmed transient, mirroring `retry_transient_rows`).
    canary_retry_transient_rows: AtomicU64,
    /// Connections accepted by the event loop.
    connections_accepted_total: AtomicU64,
    /// Connections refused with `503 + Retry-After` at the connection cap.
    load_shed_total: AtomicU64,
    /// Additional requests served on an already-open keep-alive connection.
    keepalive_reuses_total: AtomicU64,
    /// Connections closed (408) because a request stalled past the I/O
    /// deadline mid-read or mid-write.
    io_timeouts_total: AtomicU64,
    /// Idle keep-alive connections reaped by the idle deadline.
    idle_closed_total: AtomicU64,
    /// Connections dropped because socket setup (non-blocking mode,
    /// poller registration) failed — previously swallowed silently.
    io_setup_failures_total: AtomicU64,
}

/// Accumulated violation telemetry for one activation slot.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LayerViolations {
    /// The activation slot's diagnostic label.
    pub label: String,
    /// Total over-bound pre-activation values observed.
    pub violations: u64,
    /// Total pre-activation values inspected.
    pub elements: u64,
}

#[derive(Debug)]
struct LatencyRing {
    samples_us: Vec<u64>,
    next: usize,
}

/// A point-in-time copy of every metric, renderable as JSON.
#[derive(Debug, Clone, PartialEq)]
pub struct MetricsSnapshot {
    /// Seconds since the server started.
    pub uptime_seconds: f64,
    /// Rows accepted into the queue.
    pub rows_total: u64,
    /// Rows answered successfully.
    pub responses_total: u64,
    /// Rows answered with an error.
    pub errors_total: u64,
    /// Predicts refused with 400 before queueing (bad body or rows).
    pub bad_requests_total: u64,
    /// Predicts refused with 503 because the queue was full.
    pub overloaded_total: u64,
    /// Micro-batches executed.
    pub batches_total: u64,
    /// Model reloads performed.
    pub reloads_total: u64,
    /// `(batch_size, count)` pairs for every batch size that occurred.
    pub batch_histogram: Vec<(usize, u64)>,
    /// Latency percentiles over the recent window, in microseconds
    /// (`None` until the first response).
    pub latency_us: Option<LatencyPercentiles>,
    /// Latency-window resets performed.
    pub latency_resets_total: u64,
    /// Live batches whose violation trace was non-empty.
    pub violation_batches_total: u64,
    /// Per-slot violation telemetry (insertion order = first occurrence).
    pub layer_violations: Vec<LayerViolations>,
    /// Recovery-loop counters (flag / retry outcomes).
    pub recovery: RecoverySnapshot,
    /// Canary shadow-replica counters.
    pub canary: CanarySnapshot,
    /// Connection-layer counters (accepts, load-shedding, keep-alive
    /// reuse, timeout reaping).
    pub connections: ConnectionsSnapshot,
}

/// Counters for the detect-and-retry recovery loop.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct RecoverySnapshot {
    /// Suspect batches counted under `--retry-policy flag`.
    pub flagged_batches_total: u64,
    /// Suspect batches re-executed under `--retry-policy retry`.
    pub retried_batches_total: u64,
    /// Retried rows whose re-execution differed (confirmed transient).
    pub retry_transient_rows: u64,
    /// Retried rows that reproduced bit-identically (persistent).
    pub retry_persistent_rows: u64,
}

/// Counters for the canary fault-injection shadow replica.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct CanarySnapshot {
    /// Batches mirrored through the shadow replica.
    pub batches_total: u64,
    /// Faults injected into shadow traffic.
    pub faults_injected_total: u64,
    /// Violations the shadow trace recorded.
    pub violations_total: u64,
    /// Shadow batches that received at least one fault.
    pub injected_batches_total: u64,
    /// Fault-carrying shadow batches whose trace fired.
    pub detected_batches_total: u64,
    /// Batches dropped because the canary queue was full.
    pub dropped_total: u64,
    /// Shadow retry rows matching the clean replica bit-for-bit.
    pub retry_clean_match_rows: u64,
    /// Shadow retry rows still differing from the clean replica.
    pub retry_mismatch_rows: u64,
    /// Shadow retry rows differing from the faulted forward (transient).
    pub retry_transient_rows: u64,
}

/// Counters for the event-driven connection layer.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct ConnectionsSnapshot {
    /// Connections accepted.
    pub accepted_total: u64,
    /// Connections refused with `503 + Retry-After` at the connection cap.
    pub load_shed_total: u64,
    /// Additional requests served on already-open keep-alive connections.
    pub keepalive_reuses_total: u64,
    /// Connections timed out (408) mid-request.
    pub io_timeouts_total: u64,
    /// Idle keep-alive connections reaped.
    pub idle_closed_total: u64,
    /// Connections dropped because socket setup failed.
    pub setup_failures_total: u64,
}

impl CanarySnapshot {
    /// Measured detection coverage: the fraction of fault-carrying shadow
    /// batches whose violation trace fired. `None` until the injector has
    /// hit at least one batch.
    pub fn detection_coverage(&self) -> Option<f64> {
        (self.injected_batches_total > 0)
            .then(|| self.detected_batches_total as f64 / self.injected_batches_total as f64)
    }
}

/// End-to-end (enqueue → response ready) latency percentiles.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LatencyPercentiles {
    /// Number of samples in the window.
    pub count: usize,
    /// Median.
    pub p50: u64,
    /// 90th percentile.
    pub p90: u64,
    /// 99th percentile.
    pub p99: u64,
    /// Maximum in the window.
    pub max: u64,
}

impl Metrics {
    /// Creates an empty registry for a server with the given batch cap.
    pub fn new(max_batch: usize) -> Self {
        Metrics {
            started: Instant::now(),
            rows_total: AtomicU64::new(0),
            responses_total: AtomicU64::new(0),
            errors_total: AtomicU64::new(0),
            bad_requests_total: AtomicU64::new(0),
            overloaded_total: AtomicU64::new(0),
            batches_total: AtomicU64::new(0),
            batch_histogram: (0..=max_batch).map(|_| AtomicU64::new(0)).collect(),
            reloads_total: AtomicU64::new(0),
            latencies: Mutex::new(LatencyRing {
                samples_us: Vec::new(),
                next: 0,
            }),
            latency_resets_total: AtomicU64::new(0),
            violation_batches_total: AtomicU64::new(0),
            layer_violations: Mutex::new(Vec::new()),
            flagged_batches_total: AtomicU64::new(0),
            retried_batches_total: AtomicU64::new(0),
            retry_transient_rows: AtomicU64::new(0),
            retry_persistent_rows: AtomicU64::new(0),
            canary_batches_total: AtomicU64::new(0),
            canary_faults_injected_total: AtomicU64::new(0),
            canary_violations_total: AtomicU64::new(0),
            canary_injected_batches_total: AtomicU64::new(0),
            canary_detected_batches_total: AtomicU64::new(0),
            canary_dropped_total: AtomicU64::new(0),
            canary_retry_clean_match_rows: AtomicU64::new(0),
            canary_retry_mismatch_rows: AtomicU64::new(0),
            canary_retry_transient_rows: AtomicU64::new(0),
            connections_accepted_total: AtomicU64::new(0),
            load_shed_total: AtomicU64::new(0),
            keepalive_reuses_total: AtomicU64::new(0),
            io_timeouts_total: AtomicU64::new(0),
            idle_closed_total: AtomicU64::new(0),
            io_setup_failures_total: AtomicU64::new(0),
        }
    }

    /// Records rows accepted into the queue.
    pub fn on_rows_accepted(&self, rows: usize) {
        self.rows_total.fetch_add(rows as u64, Ordering::Relaxed);
    }

    /// Records one executed micro-batch of `size` rows.
    pub fn on_batch(&self, size: usize) {
        self.batches_total.fetch_add(1, Ordering::Relaxed);
        if let Some(slot) = self.batch_histogram.get(size) {
            slot.fetch_add(1, Ordering::Relaxed);
        }
    }

    /// Records one successfully answered row and its end-to-end latency.
    pub fn on_response(&self, latency: Duration) {
        self.responses_total.fetch_add(1, Ordering::Relaxed);
        let us = u64::try_from(latency.as_micros()).unwrap_or(u64::MAX);
        let mut ring = self.latencies.lock().expect("metrics lock poisoned");
        if ring.samples_us.len() < LATENCY_WINDOW {
            ring.samples_us.push(us);
        } else {
            let next = ring.next;
            ring.samples_us[next] = us;
        }
        ring.next = (ring.next + 1) % LATENCY_WINDOW;
    }

    /// Records one row answered with an error.
    pub fn on_error(&self) {
        self.errors_total.fetch_add(1, Ordering::Relaxed);
    }

    /// Records one predict refused with 400 (its body held no valid rows).
    pub fn on_bad_request(&self) {
        self.bad_requests_total.fetch_add(1, Ordering::Relaxed);
    }

    /// Records one predict refused with 503 at a full queue.
    pub fn on_overloaded(&self) {
        self.overloaded_total.fetch_add(1, Ordering::Relaxed);
    }

    /// Records one model reload.
    pub fn on_reload(&self) {
        self.reloads_total.fetch_add(1, Ordering::Relaxed);
    }

    /// Empties the latency ring so percentiles reflect only traffic after
    /// this point (`/admin/metrics/reset`; counters are left untouched).
    pub fn reset_latency_window(&self) {
        let mut ring = self.latencies.lock().expect("metrics lock poisoned");
        ring.samples_us.clear();
        ring.next = 0;
        self.latency_resets_total.fetch_add(1, Ordering::Relaxed);
    }

    /// Folds one batch's violation trace into the per-layer telemetry.
    pub fn on_trace(&self, trace: &ViolationTrace) {
        if trace.total() > 0 {
            self.violation_batches_total.fetch_add(1, Ordering::Relaxed);
        }
        let mut layers = self.layer_violations.lock().expect("metrics lock poisoned");
        for slot in trace.slots() {
            match layers.iter_mut().find(|l| l.label == slot.label) {
                Some(layer) => {
                    layer.violations += slot.violations;
                    layer.elements += slot.elements;
                }
                None => layers.push(LayerViolations {
                    label: slot.label.clone(),
                    violations: slot.violations,
                    elements: slot.elements,
                }),
            }
        }
    }

    /// Records one suspect batch under `--retry-policy flag`.
    pub fn on_flagged(&self) {
        self.flagged_batches_total.fetch_add(1, Ordering::Relaxed);
    }

    /// Records one retried batch and its per-row verdicts.
    pub fn on_retry(&self, transient_rows: u64, persistent_rows: u64) {
        self.retried_batches_total.fetch_add(1, Ordering::Relaxed);
        self.retry_transient_rows
            .fetch_add(transient_rows, Ordering::Relaxed);
        self.retry_persistent_rows
            .fetch_add(persistent_rows, Ordering::Relaxed);
    }

    /// Records one canary shadow batch: how many faults the injector flipped
    /// into it and how many violations the shadow trace recorded.
    pub fn on_canary_batch(&self, faults_injected: u64, violations_detected: u64) {
        self.canary_batches_total.fetch_add(1, Ordering::Relaxed);
        self.canary_faults_injected_total
            .fetch_add(faults_injected, Ordering::Relaxed);
        self.canary_violations_total
            .fetch_add(violations_detected, Ordering::Relaxed);
        if faults_injected > 0 {
            self.canary_injected_batches_total
                .fetch_add(1, Ordering::Relaxed);
            if violations_detected > 0 {
                self.canary_detected_batches_total
                    .fetch_add(1, Ordering::Relaxed);
            }
        }
    }

    /// Records one batch the canary mirror had to drop (queue full).
    pub fn on_canary_dropped(&self) {
        self.canary_dropped_total.fetch_add(1, Ordering::Relaxed);
    }

    /// Records the per-row outcome of one canary shadow retry.
    pub fn on_canary_retry(&self, clean_match_rows: u64, mismatch_rows: u64, transient_rows: u64) {
        self.canary_retry_clean_match_rows
            .fetch_add(clean_match_rows, Ordering::Relaxed);
        self.canary_retry_mismatch_rows
            .fetch_add(mismatch_rows, Ordering::Relaxed);
        self.canary_retry_transient_rows
            .fetch_add(transient_rows, Ordering::Relaxed);
    }

    /// Records one accepted connection.
    pub fn on_connection_accepted(&self) {
        self.connections_accepted_total
            .fetch_add(1, Ordering::Relaxed);
    }

    /// Records one connection refused at the connection cap.
    pub fn on_load_shed(&self) {
        self.load_shed_total.fetch_add(1, Ordering::Relaxed);
    }

    /// Records one additional request served on an open keep-alive
    /// connection (the first request on a connection is not a reuse).
    pub fn on_keepalive_reuse(&self) {
        self.keepalive_reuses_total.fetch_add(1, Ordering::Relaxed);
    }

    /// Records one connection timed out (408) mid-request.
    pub fn on_io_timeout(&self) {
        self.io_timeouts_total.fetch_add(1, Ordering::Relaxed);
    }

    /// Records one idle keep-alive connection reaped.
    pub fn on_idle_closed(&self) {
        self.idle_closed_total.fetch_add(1, Ordering::Relaxed);
    }

    /// Records one connection dropped because socket setup failed.
    pub fn on_io_setup_failure(&self) {
        self.io_setup_failures_total.fetch_add(1, Ordering::Relaxed);
    }

    /// Copies every metric into a snapshot.
    pub fn snapshot(&self) -> MetricsSnapshot {
        let batch_histogram = self
            .batch_histogram
            .iter()
            .enumerate()
            .skip(1)
            .map(|(size, count)| (size, count.load(Ordering::Relaxed)))
            .filter(|&(_, count)| count > 0)
            .collect();
        let latency_us = {
            let ring = self.latencies.lock().expect("metrics lock poisoned");
            percentiles(&ring.samples_us)
        };
        let layer_violations = self
            .layer_violations
            .lock()
            .expect("metrics lock poisoned")
            .clone();
        MetricsSnapshot {
            uptime_seconds: self.started.elapsed().as_secs_f64(),
            rows_total: self.rows_total.load(Ordering::Relaxed),
            responses_total: self.responses_total.load(Ordering::Relaxed),
            errors_total: self.errors_total.load(Ordering::Relaxed),
            bad_requests_total: self.bad_requests_total.load(Ordering::Relaxed),
            overloaded_total: self.overloaded_total.load(Ordering::Relaxed),
            batches_total: self.batches_total.load(Ordering::Relaxed),
            reloads_total: self.reloads_total.load(Ordering::Relaxed),
            batch_histogram,
            latency_us,
            latency_resets_total: self.latency_resets_total.load(Ordering::Relaxed),
            violation_batches_total: self.violation_batches_total.load(Ordering::Relaxed),
            layer_violations,
            recovery: RecoverySnapshot {
                flagged_batches_total: self.flagged_batches_total.load(Ordering::Relaxed),
                retried_batches_total: self.retried_batches_total.load(Ordering::Relaxed),
                retry_transient_rows: self.retry_transient_rows.load(Ordering::Relaxed),
                retry_persistent_rows: self.retry_persistent_rows.load(Ordering::Relaxed),
            },
            canary: CanarySnapshot {
                batches_total: self.canary_batches_total.load(Ordering::Relaxed),
                faults_injected_total: self.canary_faults_injected_total.load(Ordering::Relaxed),
                violations_total: self.canary_violations_total.load(Ordering::Relaxed),
                injected_batches_total: self.canary_injected_batches_total.load(Ordering::Relaxed),
                detected_batches_total: self.canary_detected_batches_total.load(Ordering::Relaxed),
                dropped_total: self.canary_dropped_total.load(Ordering::Relaxed),
                retry_clean_match_rows: self.canary_retry_clean_match_rows.load(Ordering::Relaxed),
                retry_mismatch_rows: self.canary_retry_mismatch_rows.load(Ordering::Relaxed),
                retry_transient_rows: self.canary_retry_transient_rows.load(Ordering::Relaxed),
            },
            connections: ConnectionsSnapshot {
                accepted_total: self.connections_accepted_total.load(Ordering::Relaxed),
                load_shed_total: self.load_shed_total.load(Ordering::Relaxed),
                keepalive_reuses_total: self.keepalive_reuses_total.load(Ordering::Relaxed),
                io_timeouts_total: self.io_timeouts_total.load(Ordering::Relaxed),
                idle_closed_total: self.idle_closed_total.load(Ordering::Relaxed),
                setup_failures_total: self.io_setup_failures_total.load(Ordering::Relaxed),
            },
        }
    }
}

/// Nearest-rank percentiles over an unordered sample window.
fn percentiles(samples: &[u64]) -> Option<LatencyPercentiles> {
    if samples.is_empty() {
        return None;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_unstable();
    let rank = |q: f64| -> u64 {
        let idx = ((q * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len()) - 1;
        sorted[idx]
    };
    Some(LatencyPercentiles {
        count: sorted.len(),
        p50: rank(0.50),
        p90: rank(0.90),
        p99: rank(0.99),
        max: *sorted.last().expect("non-empty"),
    })
}

impl MetricsSnapshot {
    /// Renders the snapshot as the `/metrics` JSON object.
    pub fn to_json(&self) -> JsonValue {
        let histogram = JsonValue::Object(
            self.batch_histogram
                .iter()
                .map(|&(size, count)| (size.to_string(), count.into()))
                .collect(),
        );
        let latency = self.latency_us.as_ref().map_or(JsonValue::Null, |p| {
            JsonValue::object([
                ("count", p.count.into()),
                ("p50", p.p50.into()),
                ("p90", p.p90.into()),
                ("p99", p.p99.into()),
                ("max", p.max.into()),
            ])
        });
        let layers = self.layer_violations.iter().map(|l| {
            let rate = if l.elements > 0 {
                l.violations as f64 / l.elements as f64
            } else {
                0.0
            };
            let layer = JsonValue::object([
                ("violations", l.violations.into()),
                ("elements", l.elements.into()),
                ("rate", rate.into()),
            ]);
            (l.label.clone(), layer)
        });
        let (recovery, canary, connections) = (&self.recovery, &self.canary, &self.connections);
        JsonValue::object([
            ("uptime_seconds", self.uptime_seconds.into()),
            ("rows_total", self.rows_total.into()),
            ("responses_total", self.responses_total.into()),
            ("errors_total", self.errors_total.into()),
            ("bad_requests_total", self.bad_requests_total.into()),
            ("overloaded_total", self.overloaded_total.into()),
            ("batches_total", self.batches_total.into()),
            ("reloads_total", self.reloads_total.into()),
            ("batch_size_histogram", histogram),
            ("latency_us", latency),
            ("latency_resets_total", self.latency_resets_total.into()),
            (
                "violations",
                JsonValue::object([
                    ("batches_total", self.violation_batches_total.into()),
                    ("layers", JsonValue::Object(layers.collect())),
                ]),
            ),
            (
                "recovery",
                JsonValue::object([
                    (
                        "flagged_batches_total",
                        recovery.flagged_batches_total.into(),
                    ),
                    (
                        "retried_batches_total",
                        recovery.retried_batches_total.into(),
                    ),
                    ("retry_transient_rows", recovery.retry_transient_rows.into()),
                    (
                        "retry_persistent_rows",
                        recovery.retry_persistent_rows.into(),
                    ),
                ]),
            ),
            (
                "canary",
                JsonValue::object([
                    ("batches_total", canary.batches_total.into()),
                    ("faults_injected_total", canary.faults_injected_total.into()),
                    ("violations_total", canary.violations_total.into()),
                    (
                        "injected_batches_total",
                        canary.injected_batches_total.into(),
                    ),
                    (
                        "detected_batches_total",
                        canary.detected_batches_total.into(),
                    ),
                    ("dropped_total", canary.dropped_total.into()),
                    (
                        "detection_coverage",
                        canary
                            .detection_coverage()
                            .map_or(JsonValue::Null, JsonValue::from),
                    ),
                    (
                        "retry_clean_match_rows",
                        canary.retry_clean_match_rows.into(),
                    ),
                    ("retry_mismatch_rows", canary.retry_mismatch_rows.into()),
                    ("retry_transient_rows", canary.retry_transient_rows.into()),
                ]),
            ),
            (
                "connections",
                JsonValue::object([
                    ("accepted_total", connections.accepted_total.into()),
                    ("load_shed_total", connections.load_shed_total.into()),
                    (
                        "keepalive_reuses_total",
                        connections.keepalive_reuses_total.into(),
                    ),
                    ("io_timeouts_total", connections.io_timeouts_total.into()),
                    ("idle_closed_total", connections.idle_closed_total.into()),
                    (
                        "setup_failures_total",
                        connections.setup_failures_total.into(),
                    ),
                ]),
            ),
        ])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_and_histogram_accumulate() {
        let m = Metrics::new(8);
        m.on_rows_accepted(5);
        m.on_batch(4);
        m.on_batch(4);
        m.on_batch(1);
        m.on_response(Duration::from_micros(100));
        m.on_response(Duration::from_micros(300));
        m.on_error();
        m.on_reload();
        let snap = m.snapshot();
        assert_eq!(snap.rows_total, 5);
        assert_eq!(snap.responses_total, 2);
        assert_eq!(snap.errors_total, 1);
        assert_eq!(snap.batches_total, 3);
        assert_eq!(snap.reloads_total, 1);
        assert_eq!(snap.batch_histogram, vec![(1, 1), (4, 2)]);
        let lat = snap.latency_us.unwrap();
        assert_eq!(lat.count, 2);
        assert_eq!(lat.p50, 100);
        assert_eq!(lat.max, 300);
    }

    #[test]
    fn out_of_range_batch_sizes_do_not_panic() {
        let m = Metrics::new(2);
        m.on_batch(99);
        assert_eq!(m.snapshot().batches_total, 1);
        assert!(m.snapshot().batch_histogram.is_empty());
    }

    #[test]
    fn percentile_ranks_are_nearest_rank() {
        let samples: Vec<u64> = (1..=100).collect();
        let p = percentiles(&samples).unwrap();
        assert_eq!((p.p50, p.p90, p.p99, p.max), (50, 90, 99, 100));
        assert!(percentiles(&[]).is_none());
    }

    #[test]
    fn latency_ring_is_bounded() {
        let m = Metrics::new(1);
        for i in 0..(LATENCY_WINDOW + 10) {
            m.on_response(Duration::from_micros(i as u64));
        }
        let lat = m.snapshot().latency_us.unwrap();
        assert_eq!(lat.count, LATENCY_WINDOW);
        // The oldest samples were overwritten.
        assert!(lat.max >= LATENCY_WINDOW as u64);
    }

    #[test]
    fn latency_reset_empties_the_window_and_counts_itself() {
        let m = Metrics::new(1);
        for i in 0..100 {
            m.on_response(Duration::from_micros(i));
        }
        assert_eq!(m.snapshot().latency_us.unwrap().count, 100);
        m.reset_latency_window();
        let snap = m.snapshot();
        assert!(snap.latency_us.is_none(), "percentiles reset");
        assert_eq!(snap.latency_resets_total, 1);
        assert_eq!(snap.responses_total, 100, "counters are untouched");
        // The ring refills from the start after a reset.
        m.on_response(Duration::from_micros(7));
        assert_eq!(m.snapshot().latency_us.unwrap().p50, 7);
    }

    #[test]
    fn traces_fold_into_per_layer_telemetry() {
        let m = Metrics::new(4);
        let mut trace = ViolationTrace::new();
        fitact_nn::trace::capture(&mut trace, || {
            fitact_nn::trace::record("fc1", 3, 100);
            fitact_nn::trace::record("fc2", 0, 50);
        });
        m.on_trace(&trace);
        m.on_trace(&trace);
        let snap = m.snapshot();
        assert_eq!(snap.violation_batches_total, 2);
        assert_eq!(
            snap.layer_violations,
            vec![
                LayerViolations {
                    label: "fc1".into(),
                    violations: 6,
                    elements: 200
                },
                LayerViolations {
                    label: "fc2".into(),
                    violations: 0,
                    elements: 100
                },
            ]
        );
        // A clean trace does not count as a violation batch.
        let mut clean = ViolationTrace::new();
        fitact_nn::trace::capture(&mut clean, || {
            fitact_nn::trace::record("fc1", 0, 100);
        });
        m.on_trace(&clean);
        assert_eq!(m.snapshot().violation_batches_total, 2);
    }

    #[test]
    fn connection_counters_accumulate_and_render() {
        let m = Metrics::new(4);
        m.on_connection_accepted();
        m.on_connection_accepted();
        m.on_load_shed();
        m.on_keepalive_reuse();
        m.on_keepalive_reuse();
        m.on_keepalive_reuse();
        m.on_io_timeout();
        m.on_idle_closed();
        m.on_io_setup_failure();
        let snap = m.snapshot();
        assert_eq!(
            snap.connections,
            ConnectionsSnapshot {
                accepted_total: 2,
                load_shed_total: 1,
                keepalive_reuses_total: 3,
                io_timeouts_total: 1,
                idle_closed_total: 1,
                setup_failures_total: 1,
            }
        );
        let json = snap.to_json().to_string();
        let parsed = JsonValue::parse(&json).unwrap();
        assert_eq!(
            parsed
                .path(&["connections", "load_shed_total"])
                .unwrap()
                .as_f64(),
            Some(1.0)
        );
        assert_eq!(
            parsed
                .path(&["connections", "keepalive_reuses_total"])
                .unwrap()
                .as_f64(),
            Some(3.0)
        );
    }

    #[test]
    fn recovery_and_canary_counters_accumulate() {
        let m = Metrics::new(4);
        m.on_flagged();
        m.on_retry(3, 1);
        m.on_canary_batch(0, 0); // mirrored, no fault landed
        m.on_canary_batch(5, 12); // fault landed and was detected
        m.on_canary_batch(2, 0); // fault landed, slipped through
        m.on_canary_dropped();
        m.on_canary_retry(4, 0, 4);
        let snap = m.snapshot();
        assert_eq!(snap.recovery.flagged_batches_total, 1);
        assert_eq!(snap.recovery.retried_batches_total, 1);
        assert_eq!(snap.recovery.retry_transient_rows, 3);
        assert_eq!(snap.recovery.retry_persistent_rows, 1);
        assert_eq!(snap.canary.batches_total, 3);
        assert_eq!(snap.canary.faults_injected_total, 7);
        assert_eq!(snap.canary.violations_total, 12);
        assert_eq!(snap.canary.injected_batches_total, 2);
        assert_eq!(snap.canary.detected_batches_total, 1);
        assert_eq!(snap.canary.dropped_total, 1);
        assert_eq!(snap.canary.detection_coverage(), Some(0.5));
        assert_eq!(snap.canary.retry_clean_match_rows, 4);
        assert_eq!(snap.canary.retry_transient_rows, 4);
        // Coverage is undefined until a fault has actually landed.
        assert_eq!(Metrics::new(1).snapshot().canary.detection_coverage(), None);
    }

    #[test]
    fn violation_and_canary_blocks_render_as_json() {
        let m = Metrics::new(4);
        let mut trace = ViolationTrace::new();
        fitact_nn::trace::capture(&mut trace, || {
            fitact_nn::trace::record("conv1", 1, 4);
        });
        m.on_trace(&trace);
        m.on_canary_batch(3, 2);
        let text = m.snapshot().to_json().to_string();
        let parsed = JsonValue::parse(&text).unwrap();
        assert_eq!(
            parsed
                .path(&["violations", "layers", "conv1", "rate"])
                .unwrap()
                .as_f64(),
            Some(0.25)
        );
        assert_eq!(
            parsed
                .path(&["canary", "detection_coverage"])
                .unwrap()
                .as_f64(),
            Some(1.0)
        );
        assert_eq!(
            parsed
                .path(&["recovery", "retried_batches_total"])
                .unwrap()
                .as_f64(),
            Some(0.0)
        );
        assert_eq!(
            parsed.path(&["latency_resets_total"]).unwrap().as_f64(),
            Some(0.0)
        );
        // No coverage yet → JSON null, not 0 (a zero would read as "measured
        // and found nothing detected").
        let empty = Metrics::new(1).snapshot().to_json().to_string();
        let empty = JsonValue::parse(&empty).unwrap();
        assert!(matches!(
            empty.path(&["canary", "detection_coverage"]),
            Some(&JsonValue::Null)
        ));
    }

    #[test]
    fn snapshot_renders_as_json() {
        let m = Metrics::new(4);
        m.on_batch(2);
        m.on_response(Duration::from_micros(42));
        let text = m.snapshot().to_json().to_string();
        let parsed = JsonValue::parse(&text).unwrap();
        assert_eq!(
            parsed
                .path(&["batch_size_histogram", "2"])
                .unwrap()
                .as_f64(),
            Some(1.0)
        );
        assert_eq!(
            parsed.path(&["latency_us", "p50"]).unwrap().as_f64(),
            Some(42.0)
        );
    }
}
