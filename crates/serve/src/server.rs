//! The inference server: model loading, worker pool, routing, admin plane.
//!
//! # Threading model
//!
//! * the connection layer is the crate's shared event-loop transport
//!   (`crate::transport`): one event-loop thread owns every socket, and a
//!   handler pool of `2 × workers + 2` threads answers routed requests —
//!   a predict blocks there on its batch results, never on the event loop,
//! * `workers` long-lived **worker** threads drain the [`BatchQueue`]: a
//!   free worker takes every queued row at once (up to `max_batch`), so no
//!   row waits while a worker is idle. It stages the micro-batch into a
//!   [`TensorArena`] slot (one contiguous row copy per request — the same
//!   staging discipline as `Network::evaluate`) and runs one eval-mode
//!   forward per batch.
//!
//! Keep-alive, pipelining, deadlines (`--io-timeout-ms`,
//! `--idle-timeout-ms`) and load-shedding past `--max-connections` come
//! from the transport. See `docs/serving.md`.
//!
//! Workers wrap their loop in [`fitact_tensor::matmul::serial_scope`]: the
//! worker pool *is* the coarse parallel decomposition, so the matmul
//! kernel's internal row fan-out is disabled to avoid oversubscription —
//! which does not change results, because the threaded split is
//! bit-identical to the serial loop.
//!
//! # Zero-copy model loading
//!
//! Artifacts load through [`MappedArtifact`]: a v2 `.fitact` file is
//! mapped read-only once, and every worker's warm network clone borrows
//! that single mapping (copy-on-write on mutation). N workers cost one
//! copy of the parameters, not N. v1 artifacts fall back to owned buffers.
//!
//! # Bit-identity
//!
//! A response's logits are bit-identical to `Network::forward` on that
//! sample alone, no matter which micro-batch the scheduler packed it into:
//! eval-mode layers are row-local, and the one batch-shaped matmul in the
//! forward path (`Linear`, `x·Wᵀ`) always takes the packed kernel whose
//! per-row arithmetic is independent of the row count (pinned by
//! `nt_rows_are_independent_of_row_count` in `fitact_tensor` and
//! `forward_is_batch_invariant` in `fitact_nn`). See `docs/serving.md`.
//!
//! # Hot reload
//!
//! `POST /admin/reload` re-reads the artifact from disk, validates it
//! (decode + instantiate) and atomically swaps it in under a generation
//! counter; workers notice the bumped generation at their next batch and
//! re-clone the template network. In-flight batches finish on the old
//! model — a request is never served half-and-half. Replacing the file on
//! disk must use an atomic rename (the mapping contract —
//! `docs/artifact-format.md`).

use crate::batcher::{BatchQueue, PendingRow, RowOutput, RowResult};
use crate::http::Request;
use crate::metrics::{Metrics, MetricsSnapshot};
use crate::recovery::{self, RetryPolicy};
use crate::transport::{Limits, Reply, Routes, Transport, DEFAULT_MAX_CONNECTIONS};
use crate::ServeError;
use fitact_data::DataSpec;
use fitact_faults::CanaryInjector;
use fitact_io::{JsonValue, MappedArtifact};
use fitact_nn::spec::LayerSpec;
use fitact_nn::{Mode, Network, ViolationTrace};
use fitact_tensor::matmul::serial_scope;
use fitact_tensor::{Precision, Tensor, TensorArena};
use std::net::SocketAddr;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{mpsc, Arc, RwLock};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Base RNG seed for the canary injector; XORed with the model generation so
/// each reload gets a fresh, still-reproducible fault stream.
const CANARY_SEED: u64 = 0x00F1_7AC7;

/// Depth of the canary mirror queue. Shadow batches beyond this are dropped
/// (and counted) rather than back-pressuring live traffic.
const CANARY_QUEUE_DEPTH: usize = 64;

/// Server configuration. `Default` gives the documented CLI defaults.
#[derive(Debug, Clone, PartialEq)]
pub struct ServeConfig {
    /// Bind address; port 0 picks an ephemeral port (tests, CI).
    pub addr: String,
    /// Maximum rows coalesced into one forward pass.
    pub max_batch: usize,
    /// Ignored: the batch queue has no window, a free worker drains what is
    /// queued at once. The field remains only because the benchmark harness
    /// under `perfbench/` still reads it; it goes once that harness stops.
    pub max_wait: Duration,
    /// Number of worker threads (each owns a warm clone of the network).
    pub workers: usize,
    /// Per-sample input shape override; by default it is inferred from the
    /// artifact's dataset metadata or its first `Linear` layer.
    pub input_shape: Option<Vec<usize>>,
    /// Maximum accepted request-body size in bytes.
    pub max_body_bytes: usize,
    /// Maximum rows waiting in the batch queue before new requests are
    /// rejected with 503 (backpressure instead of unbounded latency).
    pub max_queue: usize,
    /// Maximum concurrently served connections; excess connections are
    /// answered `503` + `Retry-After` inline (load-shedding).
    pub max_connections: usize,
    /// What to do when a batch's violation trace crosses
    /// `violation_threshold` (`--retry-policy`). The default
    /// [`RetryPolicy::Off`] keeps responses byte-identical to a server
    /// without recovery.
    pub retry_policy: RetryPolicy,
    /// Minimum per-batch violation count that makes a batch suspect
    /// (`--violation-threshold`; clamped to at least 1).
    pub violation_threshold: u64,
    /// Per-bit fault rate for the canary shadow replica (`--canary-rate`);
    /// 0 disables the canary entirely.
    pub canary_rate: f64,
    /// Expected stored element type of the artifact (`--precision`). When
    /// set, startup and every hot reload verify the artifact actually stores
    /// its parameters in this precision — so an operator asking for the
    /// half-size f16 artifact cannot silently serve the f32 one. `None`
    /// serves whatever the artifact stores.
    pub precision: Option<Precision>,
    /// Deadline for socket progress while reading a request or writing a
    /// response (`--io-timeout-ms`); a stalled connection is answered 408
    /// and closed. Does **not** bound handler execution time.
    pub io_timeout: Duration,
    /// How long an idle keep-alive connection may sit between requests
    /// before it is reaped (`--idle-timeout-ms`).
    pub idle_timeout: Duration,
}

impl Default for ServeConfig {
    fn default() -> Self {
        ServeConfig {
            addr: "127.0.0.1:0".into(),
            max_batch: 8,
            max_wait: Duration::ZERO,
            workers: 2,
            input_shape: None,
            max_body_bytes: 8 * 1024 * 1024,
            max_queue: 1024,
            max_connections: DEFAULT_MAX_CONNECTIONS,
            retry_policy: RetryPolicy::Off,
            violation_threshold: 1,
            canary_rate: 0.0,
            precision: None,
            io_timeout: Duration::from_secs(30),
            idle_timeout: Duration::from_secs(60),
        }
    }
}

/// A model instance ready to serve: the instantiated network template plus
/// everything request validation needs.
#[derive(Debug)]
struct LoadedModel {
    template: Network,
    input_shape: Vec<usize>,
    features: usize,
    name: String,
    scheme: Option<String>,
    num_parameters: usize,
    /// The element type the weights are stored (and computed) in.
    precision: Precision,
    /// Whether the parameters are served from a shared read-only mapping
    /// (`false` = owned-buffer fallback, e.g. a v1 artifact).
    mapped: bool,
    /// Top-level layers carrying activation slots — the detection
    /// checkpoints the retry loop can resume from.
    activation_layers: Vec<usize>,
}

fn load_model(
    path: &Path,
    override_shape: Option<&[usize]>,
    expected_precision: Option<Precision>,
) -> Result<LoadedModel, ServeError> {
    let artifact = MappedArtifact::open(path)?;
    let mut template = artifact.instantiate()?;
    let precision = template.precision();
    if let Some(expected) = expected_precision {
        if precision != expected {
            return Err(ServeError::InvalidConfig(format!(
                "artifact `{}` stores {precision} parameters, but --precision {expected} \
                 was requested; point the server at an artifact saved in that precision",
                path.display()
            )));
        }
    }
    let activation_layers = recovery::activation_layer_indices(&mut template);
    let input_shape = match override_shape {
        Some(shape) if !shape.is_empty() => shape.to_vec(),
        Some(_) => return Err(ServeError::InvalidConfig("input shape is empty".into())),
        None => infer_input_shape(|k| artifact.meta(k), artifact.layers())?,
    };
    let features = input_shape.iter().product::<usize>();
    if features == 0 {
        return Err(ServeError::InvalidConfig(format!(
            "input shape {input_shape:?} has zero elements"
        )));
    }
    Ok(LoadedModel {
        features,
        input_shape,
        name: artifact.name().to_owned(),
        scheme: artifact.scheme().map(|s| s.name().to_owned()),
        num_parameters: artifact.num_parameters(),
        precision,
        mapped: artifact.is_mapped(),
        activation_layers,
        template,
    })
}

/// Per-sample input shape: the artifact's dataset metadata when present
/// (every `fitact train` artifact carries it), else the in-features of the
/// leading `Linear` layer.
fn infer_input_shape<'a>(
    meta: impl FnMut(&str) -> Option<&'a str>,
    layers: &[LayerSpec],
) -> Result<Vec<usize>, ServeError> {
    if let Some(spec) = DataSpec::from_meta(meta) {
        return Ok(spec.input_shape());
    }
    fn first_linear(specs: &[LayerSpec]) -> Option<usize> {
        for spec in specs {
            match spec {
                LayerSpec::Linear { in_features, .. } => return Some(*in_features),
                // Shape-preserving layers a model may start with.
                LayerSpec::Flatten | LayerSpec::Dropout { .. } | LayerSpec::Activation { .. } => {}
                LayerSpec::Sequential(children) => return first_linear(children),
                // Spatial layers need H×W, which the topology does not carry.
                _ => return None,
            }
        }
        None
    }
    first_linear(layers)
        .map(|in_features| vec![in_features])
        .ok_or_else(|| {
            ServeError::InvalidConfig(
                "cannot infer the model input shape (no dataset metadata, no leading Linear \
                 layer); pass an explicit --input-shape"
                    .into(),
            )
        })
}

/// Everything shared between the handler and worker threads.
#[derive(Debug)]
struct Shared {
    queue: BatchQueue,
    metrics: Metrics,
    model: RwLock<Arc<LoadedModel>>,
    generation: AtomicU64,
    model_path: PathBuf,
    input_shape_override: Option<Vec<usize>>,
    /// Precision pin from `--precision`: reloads re-verify it too.
    expected_precision: Option<Precision>,
    workers: usize,
    retry_policy: RetryPolicy,
    /// Per-batch violation count at which a batch becomes suspect (≥ 1).
    violation_threshold: u64,
    /// Per-bit fault rate of the canary shadow replica (0 = no canary).
    canary_rate: f64,
}

impl Shared {
    /// Loads the model at `model_path` and builds the state the handler and
    /// worker threads share.
    fn new(model_path: PathBuf, config: &ServeConfig) -> Result<Shared, ServeError> {
        let model = load_model(&model_path, config.input_shape.as_deref(), config.precision)?;
        Ok(Shared {
            queue: BatchQueue::new(config.max_batch, Duration::ZERO, config.max_queue),
            metrics: Metrics::new(config.max_batch),
            model: RwLock::new(Arc::new(model)),
            generation: AtomicU64::new(1),
            model_path,
            input_shape_override: config.input_shape.clone(),
            expected_precision: config.precision,
            workers: config.workers,
            retry_policy: config.retry_policy,
            violation_threshold: config.violation_threshold.max(1),
            canary_rate: config.canary_rate,
        })
    }

    fn current_model(&self) -> Arc<LoadedModel> {
        Arc::clone(&self.model.read().expect("model lock poisoned"))
    }
}

/// A running inference server. Dropping the handle does **not** stop the
/// server; call [`Server::shutdown`] (or hit `POST /admin/shutdown`) and
/// then [`Server::join`].
#[derive(Debug)]
pub struct Server {
    shared: Arc<Shared>,
    transport: Transport,
    workers: Vec<JoinHandle<()>>,
    /// The canary shadow thread (present when `canary_rate > 0`); exits on
    /// its own once every worker has dropped its mirror sender.
    canary: Option<JoinHandle<()>>,
}

impl Server {
    /// Loads the artifact at `model_path` and starts serving.
    ///
    /// # Errors
    ///
    /// Returns [`ServeError::Artifact`] when the artifact fails to decode or
    /// instantiate (a corrupt file is a typed error, never a panic),
    /// [`ServeError::InvalidConfig`] for unusable configuration and
    /// [`ServeError::Io`] for bind failures.
    pub fn start(model_path: impl AsRef<Path>, config: &ServeConfig) -> Result<Server, ServeError> {
        if config.workers == 0 {
            return Err(ServeError::InvalidConfig("workers must be non-zero".into()));
        }
        if config.max_batch == 0 {
            return Err(ServeError::InvalidConfig(
                "max_batch must be non-zero".into(),
            ));
        }
        if config.max_queue == 0 || config.max_connections == 0 {
            return Err(ServeError::InvalidConfig(
                "max_queue and max_connections must be non-zero".into(),
            ));
        }
        if !(config.canary_rate.is_finite() && (0.0..=1.0).contains(&config.canary_rate)) {
            return Err(ServeError::InvalidConfig(format!(
                "canary_rate must be a per-bit probability in [0, 1], got {}",
                config.canary_rate
            )));
        }
        if config.io_timeout.is_zero() || config.idle_timeout.is_zero() {
            return Err(ServeError::InvalidConfig(
                "io_timeout and idle_timeout must be non-zero".into(),
            ));
        }
        let shared = Arc::new(Shared::new(model_path.as_ref().to_path_buf(), config)?);
        let limits = Limits {
            max_connections: config.max_connections,
            max_body: config.max_body_bytes,
            io_timeout: config.io_timeout,
            idle_timeout: config.idle_timeout,
            // Sized past the worker count so blocking predicts cannot
            // monopolise the pool while cheap admin requests wait.
            handlers: config.workers * 2 + 2,
        };
        let transport = Transport::start(&config.addr, limits, "fitact-serve", shared.clone())?;
        // The mirror senders live only inside worker closures: when the last
        // worker exits, the channel disconnects and the canary thread ends.
        let (canary_tx, canary) = if config.canary_rate > 0.0 {
            let (tx, rx) = mpsc::sync_channel::<CanaryJob>(CANARY_QUEUE_DEPTH);
            let canary_shared = Arc::clone(&shared);
            let handle = std::thread::Builder::new()
                .name("fitact-serve-canary".into())
                .spawn(move || canary_loop(&canary_shared, &rx))
                .expect("canary thread spawns");
            (Some(tx), Some(handle))
        } else {
            (None, None)
        };
        let workers = (0..config.workers)
            .map(|i| {
                let shared = Arc::clone(&shared);
                let canary_tx = canary_tx.clone();
                std::thread::Builder::new()
                    .name(format!("fitact-serve-worker-{i}"))
                    .spawn(move || worker_loop(&shared, canary_tx))
                    .expect("worker thread spawns")
            })
            .collect();
        Ok(Server {
            shared,
            transport,
            workers,
            canary,
        })
    }

    /// The bound address (resolves the ephemeral port of `addr: …:0`).
    pub fn addr(&self) -> SocketAddr {
        self.transport.addr()
    }

    /// Triggers graceful shutdown: stop accepting, drain queued requests,
    /// stop workers. Idempotent; returns immediately — use [`Server::join`]
    /// to wait.
    pub fn shutdown(&self) {
        self.transport.shutdown();
    }

    /// Blocks until the server has shut down (via [`Server::shutdown`] or
    /// `POST /admin/shutdown`) and every worker has exited, then returns the
    /// final metrics snapshot.
    pub fn join(mut self) -> MetricsSnapshot {
        // The drain shut the batch queue, so the workers finish what is
        // queued and exit.
        self.transport.join();
        for worker in self.workers.drain(..) {
            let _ = worker.join();
        }
        // All mirror senders are gone once the workers have exited, so the
        // canary sees a disconnect and drains to completion.
        if let Some(canary) = self.canary.take() {
            let _ = canary.join();
        }
        self.shared.metrics.snapshot()
    }

    /// The live metrics registry (what `/metrics` snapshots).
    pub fn metrics(&self) -> MetricsSnapshot {
        self.shared.metrics.snapshot()
    }
}

/// One live batch mirrored to the canary shadow replica.
struct CanaryJob {
    input: Tensor,
    generation: u64,
}

fn worker_loop(shared: &Arc<Shared>, canary: Option<mpsc::SyncSender<CanaryJob>>) {
    serial_scope(|| {
        let mut generation = shared.generation.load(Ordering::Acquire);
        let mut model = shared.current_model();
        let mut network = model.template.clone();
        let mut arena = TensorArena::new();
        let mut dims: Vec<usize> = Vec::new();
        let mut trace = ViolationTrace::new();
        // Boundary snapshots are only worth their clones when a retry could
        // consume them.
        let snapshot_boundaries = shared.retry_policy == RetryPolicy::Retry;
        while let Some(batch) = shared.queue.next_batch() {
            let current = shared.generation.load(Ordering::Acquire);
            if current != generation {
                generation = current;
                model = shared.current_model();
                network = model.template.clone();
            }
            // Rows were length-validated against the model that was current
            // at enqueue time; a hot reload between then and now may have
            // changed the feature count. Those rows get a typed error — a
            // length-mismatched copy below would panic and kill the worker.
            let (batch, stale): (Vec<_>, Vec<_>) = batch
                .into_iter()
                .partition(|row| row.input.len() == model.features);
            for row in stale {
                shared.metrics.on_error();
                let _ = row.responder.send(RowResult {
                    row: row.row,
                    outcome: Err(format!(
                        "the model was reloaded with a different input shape \
                         ({} features) while this request was queued; resubmit",
                        model.features
                    )),
                    batch_size: 0,
                });
            }
            if batch.is_empty() {
                continue;
            }
            let n = batch.len();
            shared.metrics.on_batch(n);
            // Stage the batch: one warm TensorArena slot, one contiguous
            // row copy per request — zero allocations once the shapes have
            // stabilised, exactly like `Network::evaluate`'s staging.
            let mut staging = arena.take(0);
            dims.clear();
            dims.push(n);
            dims.extend_from_slice(&model.input_shape);
            staging.ensure_shape(&dims);
            let features = model.features;
            {
                let dst = staging.as_mut_slice();
                for (i, row) in batch.iter().enumerate() {
                    dst[i * features..(i + 1) * features].copy_from_slice(&row.input);
                }
            }
            // Mirror the staged batch to the canary shadow replica before
            // executing it; a full mirror queue drops the copy (counted)
            // rather than delaying live traffic.
            if let Some(tx) = &canary {
                match tx.try_send(CanaryJob {
                    input: staging.clone(),
                    generation,
                }) {
                    Ok(()) => {}
                    Err(mpsc::TrySendError::Full(_)) => shared.metrics.on_canary_dropped(),
                    Err(mpsc::TrySendError::Disconnected(_)) => {}
                }
            }
            match recovery::forward_traced(&mut network, &staging, &mut trace, snapshot_boundaries)
            {
                Ok(mut traced) => {
                    shared.metrics.on_trace(&trace);
                    if trace.total() >= shared.violation_threshold {
                        match shared.retry_policy {
                            RetryPolicy::Off => {}
                            RetryPolicy::Flag => shared.metrics.on_flagged(),
                            RetryPolicy::Retry => {
                                let resume = recovery::last_clean_boundary(
                                    &traced.layer_totals,
                                    &model.activation_layers,
                                );
                                // Re-execute from the snapshot *without* trace
                                // capture, so the retry never double-counts
                                // into the violation telemetry.
                                if let Ok(retried) = network.forward_from(
                                    resume,
                                    &traced.boundaries[resume],
                                    Mode::Eval,
                                ) {
                                    let (transient, persistent) =
                                        recovery::compare_rows(&traced.output, &retried, n);
                                    shared.metrics.on_retry(transient, persistent);
                                    if transient > 0 {
                                        // The violation did not reproduce:
                                        // serve the re-execution (identical
                                        // rows carry identical bits anyway).
                                        traced.output = retried;
                                    }
                                }
                            }
                        }
                    }
                    let logits = traced.output;
                    let width = logits.numel() / n.max(1);
                    let classes = logits.argmax_rows().unwrap_or_default();
                    let values = logits.as_slice();
                    for (i, row) in batch.iter().enumerate() {
                        let outcome = RowOutput {
                            logits: values[i * width..(i + 1) * width].to_vec(),
                            class: classes.get(i).copied().unwrap_or(0),
                        };
                        shared.metrics.on_response(row.enqueued.elapsed());
                        let _ = row.responder.send(RowResult {
                            row: row.row,
                            outcome: Ok(outcome),
                            batch_size: n,
                        });
                    }
                }
                Err(e) => {
                    let message = format!("forward pass failed: {e}");
                    for row in &batch {
                        shared.metrics.on_error();
                        let _ = row.responder.send(RowResult {
                            row: row.row,
                            outcome: Err(message.clone()),
                            batch_size: n,
                        });
                    }
                }
            }
            arena.put(0, staging);
        }
    });
}

/// The canary shadow replica: re-runs a copy of live traffic through a
/// fault-injected clone of the worker network and measures how often the
/// violation telemetry catches the injected faults — a live estimate of the
/// protection scheme's detection coverage, reported under `/metrics`
/// `canary`. Never touches live responses.
fn canary_loop(shared: &Arc<Shared>, jobs: &mpsc::Receiver<CanaryJob>) {
    serial_scope(|| {
        let bits: Vec<u32> = (0..32).collect();
        let mut generation = 0u64;
        let mut model = shared.current_model();
        let mut clean = model.template.clone();
        let mut faulty = model.template.clone();
        let mut injector: Option<CanaryInjector> = None;
        let mut seen_faults = 0u64;
        let mut trace = ViolationTrace::new();
        while let Ok(job) = jobs.recv() {
            if injector.is_none() || job.generation != generation {
                generation = job.generation;
                model = shared.current_model();
                clean = model.template.clone();
                faulty = model.template.clone();
                injector = Some(CanaryInjector::install(
                    &mut faulty,
                    shared.canary_rate,
                    &bits,
                    CANARY_SEED ^ generation,
                ));
                seen_faults = 0;
            }
            let Ok(clean_out) = clean.forward(&job.input, Mode::Eval) else {
                continue;
            };
            let Ok(traced) = recovery::forward_traced(&mut faulty, &job.input, &mut trace, true)
            else {
                continue;
            };
            let total_faults = injector
                .as_ref()
                .expect("injector installed above")
                .faults_injected();
            let injected = total_faults - seen_faults;
            seen_faults = total_faults;
            let detected = trace.total();
            shared.metrics.on_canary_batch(injected, detected);
            // Exercise the same recovery path the live workers run, against
            // ground truth: the retry resumes on the *clean* replica, which
            // models a transient that does not recur on re-execution.
            if shared.retry_policy == RetryPolicy::Retry && detected >= shared.violation_threshold {
                let rows = job.input.dims().first().copied().unwrap_or(1);
                let resume =
                    recovery::last_clean_boundary(&traced.layer_totals, &model.activation_layers);
                if let Ok(retried) =
                    clean.forward_from(resume, &traced.boundaries[resume], Mode::Eval)
                {
                    // vs. ground truth: a mismatch means a fault upstream of
                    // the resume point slipped under every bound.
                    let (mismatch_rows, clean_match_rows) =
                        recovery::compare_rows(&clean_out, &retried, rows);
                    // vs. the faulted forward: differing rows are the
                    // confirmed transients the retry actually repaired.
                    let (transient_rows, _) =
                        recovery::compare_rows(&traced.output, &retried, rows);
                    shared
                        .metrics
                        .on_canary_retry(clean_match_rows, mismatch_rows, transient_rows);
                }
            }
        }
    });
}

impl Routes for Shared {
    fn route(&self, request: &Request) -> Reply {
        match (request.method.as_str(), request.target.as_str()) {
            ("GET", "/healthz") => Reply::json(200, health_json(self)),
            ("GET", "/metrics") => Reply::json(200, self.metrics.snapshot().to_json()),
            ("POST", "/predict") => predict(self, &request.body),
            ("POST", "/admin/reload") => reload(self),
            ("POST", "/admin/metrics/reset") => {
                // Empties the latency ring so post-reload (or post-warmup)
                // percentiles are not polluted by earlier traffic; cumulative
                // counters are deliberately left untouched.
                self.metrics.reset_latency_window();
                Reply::json(200, status_json("latency window reset"))
            }
            ("POST", "/admin/shutdown") => {
                Reply::json(200, status_json("shutting down")).then_shutdown()
            }
            (
                _,
                "/healthz"
                | "/metrics"
                | "/predict"
                | "/admin/reload"
                | "/admin/metrics/reset"
                | "/admin/shutdown",
            ) => Reply::error(405, &format!("method {} not allowed here", request.method)),
            (_, target) => Reply::error(404, &format!("no route for `{target}`")),
        }
    }

    fn metrics(&self) -> Option<&Metrics> {
        Some(&self.metrics)
    }

    fn on_shutdown(&self) {
        // Workers finish what is queued, then exit; new predicts get 503.
        self.queue.shutdown();
    }
}

fn status_json(status: &str) -> JsonValue {
    JsonValue::Object(vec![("status".into(), JsonValue::String(status.into()))])
}

fn health_json(shared: &Shared) -> JsonValue {
    let model = shared.current_model();
    JsonValue::Object(vec![
        ("status".into(), JsonValue::String("ok".into())),
        ("model".into(), JsonValue::String(model.name.clone())),
        (
            "scheme".into(),
            model
                .scheme
                .clone()
                .map(JsonValue::String)
                .unwrap_or(JsonValue::Null),
        ),
        (
            "input_shape".into(),
            JsonValue::Array(
                model
                    .input_shape
                    .iter()
                    .map(|&d| JsonValue::Number(d as f64))
                    .collect(),
            ),
        ),
        (
            "num_parameters".into(),
            JsonValue::Number(model.num_parameters as f64),
        ),
        (
            "precision".into(),
            JsonValue::String(model.precision.name().into()),
        ),
        ("mapped".into(), JsonValue::Bool(model.mapped)),
        (
            "generation".into(),
            JsonValue::Number(shared.generation.load(Ordering::Acquire) as f64),
        ),
        ("workers".into(), JsonValue::Number(shared.workers as f64)),
        (
            "queue_depth".into(),
            JsonValue::Number(shared.queue.depth() as f64),
        ),
        (
            "max_batch".into(),
            JsonValue::Number(shared.queue.max_batch() as f64),
        ),
    ])
}

/// Parses a predict body into flattened sample rows. Accepts
/// `{"inputs": [[…], …]}` (a batch) or `{"input": […]}` (one sample).
fn parse_rows(body: &[u8], features: usize) -> Result<Vec<Vec<f32>>, String> {
    let text = std::str::from_utf8(body).map_err(|_| "body is not UTF-8".to_owned())?;
    let value = JsonValue::parse(text).map_err(|e| format!("invalid JSON body: {e}"))?;
    let rows_json: Vec<&JsonValue> = if let Some(inputs) = value.get("inputs") {
        inputs
            .as_array()
            .ok_or("`inputs` must be an array of sample rows")?
            .iter()
            .collect()
    } else if let Some(input) = value.get("input") {
        vec![input]
    } else {
        return Err("body must carry `inputs` (batch) or `input` (one sample)".into());
    };
    if rows_json.is_empty() {
        return Err("`inputs` is empty".into());
    }
    let mut rows = Vec::with_capacity(rows_json.len());
    for (i, row_json) in rows_json.iter().enumerate() {
        let numbers = row_json
            .as_array()
            .ok_or_else(|| format!("row {i} is not an array"))?;
        if numbers.len() != features {
            return Err(format!(
                "row {i} has {} values but the model takes {features}",
                numbers.len()
            ));
        }
        let mut row = Vec::with_capacity(features);
        for (j, n) in numbers.iter().enumerate() {
            let v = n
                .as_f64()
                .ok_or_else(|| format!("row {i} value {j} is not a number"))?;
            row.push(v as f32);
        }
        rows.push(row);
    }
    Ok(rows)
}

fn predict(shared: &Shared, body: &[u8]) -> Reply {
    let model = shared.current_model();
    let rows = match parse_rows(body, model.features) {
        Ok(rows) => rows,
        Err(message) => return Reply::error(400, &message),
    };
    let n = rows.len();
    let (tx, rx) = mpsc::channel();
    let enqueued = Instant::now();
    let pending: Vec<PendingRow> = rows
        .into_iter()
        .enumerate()
        .map(|(row, input)| PendingRow {
            input,
            row,
            enqueued,
            responder: tx.clone(),
        })
        .collect();
    drop(tx);
    match shared.queue.push(pending) {
        Ok(()) => {}
        Err(crate::batcher::PushRejected::ShuttingDown(_)) => {
            return Reply::error(503, "server is shutting down");
        }
        Err(crate::batcher::PushRejected::Overloaded(_)) => {
            return Reply::error(503, "server is overloaded (queue full); retry");
        }
    }
    shared.metrics.on_rows_accepted(n);
    let mut results: Vec<Option<RowResult>> = (0..n).map(|_| None).collect();
    for _ in 0..n {
        match rx.recv_timeout(Duration::from_secs(60)) {
            Ok(result) => {
                let slot = result.row;
                results[slot] = Some(result);
            }
            Err(_) => return Reply::error(500, "timed out waiting for execution"),
        }
    }
    let mut outputs = Vec::with_capacity(n);
    let mut classes = Vec::with_capacity(n);
    let mut batch_sizes = Vec::with_capacity(n);
    for result in results.into_iter().flatten() {
        match result.outcome {
            Ok(output) => {
                outputs.push(JsonValue::Array(
                    output
                        .logits
                        .iter()
                        .map(|&v| JsonValue::Number(f64::from(v)))
                        .collect(),
                ));
                classes.push(JsonValue::Number(output.class as f64));
                batch_sizes.push(JsonValue::Number(result.batch_size as f64));
            }
            Err(message) => return Reply::error(500, &message),
        }
    }
    Reply::json(
        200,
        JsonValue::Object(vec![
            ("model".into(), JsonValue::String(model.name.clone())),
            ("outputs".into(), JsonValue::Array(outputs)),
            ("classes".into(), JsonValue::Array(classes)),
            ("batch_sizes".into(), JsonValue::Array(batch_sizes)),
        ]),
    )
}

fn reload(shared: &Shared) -> Reply {
    match load_model(
        &shared.model_path,
        shared.input_shape_override.as_deref(),
        shared.expected_precision,
    ) {
        Ok(model) => {
            let num_parameters = model.num_parameters;
            *shared.model.write().expect("model lock poisoned") = Arc::new(model);
            let generation = shared.generation.fetch_add(1, Ordering::AcqRel) + 1;
            shared.metrics.on_reload();
            Reply::json(
                200,
                JsonValue::Object(vec![
                    ("status".into(), JsonValue::String("reloaded".into())),
                    ("generation".into(), JsonValue::Number(generation as f64)),
                    (
                        "num_parameters".into(),
                        JsonValue::Number(num_parameters as f64),
                    ),
                ]),
            )
        }
        Err(e) => Reply::error(500, &format!("reload failed: {e}")),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fitact_io::ModelArtifact;

    #[test]
    fn parse_rows_accepts_batch_and_single_forms() {
        let rows = parse_rows(br#"{"inputs": [[1, 2], [3, 4]]}"#, 2).unwrap();
        assert_eq!(rows, vec![vec![1.0, 2.0], vec![3.0, 4.0]]);
        let rows = parse_rows(br#"{"input": [5, 6]}"#, 2).unwrap();
        assert_eq!(rows, vec![vec![5.0, 6.0]]);
    }

    #[test]
    fn parse_rows_rejects_bad_bodies() {
        for (body, needle) in [
            (&b"not json"[..], "invalid JSON"),
            (br#"{"other": 1}"#, "must carry"),
            (br#"{"inputs": []}"#, "empty"),
            (br#"{"inputs": [1]}"#, "not an array"),
            (br#"{"inputs": [[1]]}"#, "the model takes 2"),
            (br#"{"inputs": [["x", 1]]}"#, "not a number"),
            (b"\xff\xfe", "UTF-8"),
        ] {
            let err = parse_rows(body, 2).unwrap_err();
            assert!(err.contains(needle), "{err}");
        }
    }

    /// A row validated against the model current at enqueue time, then
    /// overtaken by a hot reload that changes the input width, gets a typed
    /// "reloaded" error from the worker instead of killing it; a correctly
    /// shaped row in the same batch is still served.
    #[test]
    fn rows_queued_before_a_reshaping_reload_get_a_typed_error() {
        use fitact_nn::layers::{Linear, Sequential};
        use rand::{rngs::StdRng, SeedableRng};
        let dir = std::env::temp_dir().join(format!("fitact_serve_unit_{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("reshape.fitact");
        let mut rng = StdRng::seed_from_u64(78);
        let mut save_mlp = |inputs: usize| {
            let net = Network::new(
                "mlp",
                Sequential::new().with(Box::new(Linear::new(inputs, 3, &mut rng))),
            );
            ModelArtifact::capture(&net).unwrap().save(&path).unwrap();
        };
        save_mlp(4);
        let shared = Arc::new(Shared::new(path.clone(), &ServeConfig::default()).unwrap());
        let (tx, rx) = mpsc::channel();
        let pending = |features: usize, row: usize| PendingRow {
            input: vec![1.0; features],
            row,
            enqueued: Instant::now(),
            responder: tx.clone(),
        };
        // A 4-feature row waits in the queue while an 8-feature model is
        // swapped in; then a row of the new width arrives.
        shared.queue.push(vec![pending(4, 0)]).unwrap();
        save_mlp(8);
        let _ = reload(&shared);
        assert_eq!(shared.generation.load(Ordering::Acquire), 2);
        shared.queue.push(vec![pending(8, 1)]).unwrap();
        // The worker drains both rows, then exits on the shut queue.
        shared.queue.shutdown();
        worker_loop(&shared, None);
        drop(tx);
        let mut results: Vec<RowResult> = rx.iter().collect();
        results.sort_by_key(|r| r.row);
        assert_eq!(results.len(), 2);
        let stale = results[0].outcome.as_ref().unwrap_err();
        assert!(stale.contains("reloaded"), "{stale}");
        assert_eq!(results[1].outcome.as_ref().unwrap().logits.len(), 3);
        assert_eq!(shared.metrics.snapshot().errors_total, 1);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn input_shape_inference_prefers_dataset_metadata() {
        use fitact_nn::layers::{Linear, Sequential};
        use fitact_nn::Network;
        use rand::{rngs::StdRng, SeedableRng};
        let mut rng = StdRng::seed_from_u64(0);
        let net = Network::new(
            "m",
            Sequential::new().with(Box::new(Linear::new(4, 2, &mut rng))),
        );
        let mut artifact = ModelArtifact::capture(&net).unwrap();
        // Without metadata: the leading Linear wins.
        assert_eq!(
            infer_input_shape(|k| artifact.meta(k), &artifact.layers).unwrap(),
            vec![4]
        );
        // With dataset metadata: the recorded spec wins.
        for (k, v) in DataSpec::synthetic_cifar(10, 8, 1).to_meta() {
            artifact.set_meta(k, v);
        }
        assert_eq!(
            infer_input_shape(|k| artifact.meta(k), &artifact.layers).unwrap(),
            vec![3, 32, 32]
        );
    }
}
