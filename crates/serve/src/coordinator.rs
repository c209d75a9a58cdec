//! The campaign coordinator: shards a statistical campaign into leased work
//! units, merges worker results idempotently and checkpoints resumable
//! state.
//!
//! # Protocol
//!
//! | Route | Method | Purpose |
//! |---|---|---|
//! | `/campaign/spec` | GET | binary [`CampaignSpec`]: config, dataset provenance, fingerprints |
//! | `/campaign/model` | GET | the model artifact bytes |
//! | `/campaign/unit?worker=ID` | GET | lease a work unit (JSON [`Grant`]) |
//! | `/campaign/result` | POST | report a completed unit (JSON [`UnitResult`]) |
//! | `/campaign/status` | GET | progress snapshot |
//! | `/healthz` | GET | liveness |
//!
//! The routes are mounted on the crate's event-loop transport — the one
//! `fitact serve` runs on — under fixed limits: at most 256 connections
//! (then `503` + `Retry-After`), a two-thread handler pool, a 5 s I/O and
//! idle deadline (`408` for a stalled request) and a
//! [`MAX_CONTROL_BODY`] request-body bound (`413`).
//!
//! # Lease state machine
//!
//! A unit is `Pending` → `Leased { worker, deadline }` → `Done`. Grants
//! prefer pending units; an expired lease is re-dispatched to the next
//! asking worker; when neither exists, the earliest-deadline in-flight lease
//! is **re-issued** to an idle worker (straggler hedging). All of this is
//! sound because trials are deterministic functions of
//! `(seed, stratum, index)`: duplicate completions carry bit-identical
//! points and merge idempotently by unit id; disagreeing duplicates are a
//! typed conflict that aborts the campaign rather than skewing it.
//!
//! # Determinism and resume
//!
//! The coordinator never invents scheduling state: each round's unit list is
//! derived from [`fitact_faults::plan_round_allocated`] over the per-stratum
//! scheduled counts and the merged pools (restricted to completed rounds, so
//! adaptive Neyman allocation sees the same evidence regardless of delivery
//! timing), and every stopping decision from
//! [`fitact_faults::stopping_decision`] over the merged pools — exactly the
//! computation the single-process campaign performs. Resume replays rounds
//! from zero against the checkpointed pools, so a coordinator restarted
//! mid-round re-derives the same units, re-leases only the missing ones and
//! lands on a bit-identical [`CampaignReport`].

use crate::http::Request;
use crate::protocol::{
    num, obj, unit_id, unit_round, Grant, UnitResult, WorkUnit, MAX_CONTROL_BODY,
};
use crate::transport::{Limits, Reply, Routes, Transport, DEFAULT_MAX_CONNECTIONS};
use crate::ServeError;
use fitact_data::DataSpec;
use fitact_faults::{
    assemble_report, plan_round_allocated, stopping_decision, z_for_confidence, CampaignReport,
    FaultError, FaultModel, StatCampaignConfig, StratifiedSampler, StratumPool, UnitRunner,
};
use fitact_io::{fingerprint_bytes, CampaignCheckpoint, CampaignSpec, JsonValue, ModelArtifact};
use std::net::SocketAddr;
use std::path::PathBuf;
use std::sync::{Arc, Condvar, Mutex, MutexGuard};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// The coordinator's connection limits. They are constants, not options:
/// control traffic is tiny, so one 5 s deadline bounds both socket progress
/// and idle connections, and two handlers suffice because every route is a
/// copy or a short critical section on the ledger.
const LIMITS: Limits = Limits {
    max_connections: DEFAULT_MAX_CONNECTIONS,
    max_body: MAX_CONTROL_BODY,
    io_timeout: Duration::from_secs(5),
    idle_timeout: Duration::from_secs(5),
    handlers: 2,
};

/// Coordinator-side options (the campaign itself is a
/// [`StatCampaignConfig`]).
#[derive(Debug, Clone)]
pub struct CoordinatorConfig {
    /// Listen address (`host:port`; port `0` picks a free port).
    pub listen: String,
    /// Trials per work unit (within one stratum of one round).
    pub unit_trials: usize,
    /// Lease duration before a unit may be re-dispatched.
    pub lease: Duration,
    /// Checkpoint path for resumable state; `None` disables checkpointing.
    pub checkpoint: Option<PathBuf>,
    /// Whether the coordinator also executes units in-process (graceful
    /// degradation down to coordinator-solo).
    pub local_execute: bool,
    /// Evaluation threads for in-process execution.
    pub threads: usize,
}

impl Default for CoordinatorConfig {
    fn default() -> Self {
        CoordinatorConfig {
            listen: "127.0.0.1:0".into(),
            unit_trials: 4,
            lease: Duration::from_secs(30),
            checkpoint: None,
            local_execute: true,
            threads: 1,
        }
    }
}

#[derive(Debug, Clone, PartialEq, Eq)]
enum UnitState {
    Pending,
    Leased { worker: String, deadline: Instant },
    Done,
}

#[derive(Debug, Clone)]
struct UnitSlot {
    unit: WorkUnit,
    state: UnitState,
}

#[derive(Debug)]
struct Ledger {
    pools: Vec<StratumPool>,
    /// Trials scheduled per stratum by completed rounds.
    counts: Vec<usize>,
    rounds: usize,
    /// The in-flight round's units.
    units: Vec<UnitSlot>,
    finished: bool,
    converged: bool,
    stopping: bool,
    fatal: Option<String>,
}

struct Shared {
    ledger: Mutex<Ledger>,
    cv: Condvar,
    campaign: StatCampaignConfig,
    z: f64,
    fault_free: f32,
    sampler: StratifiedSampler,
    /// Per-stratum population sizes (bit counts) — the Neyman weights'
    /// numerators, precomputed so planning never touches the sampler.
    populations: Vec<u64>,
    model_name: String,
    network_name: String,
    artifact_bytes: Vec<u8>,
    spec_bytes: Vec<u8>,
    fingerprint: u64,
    checkpoint: Option<PathBuf>,
    lease: Duration,
    retry_ms: u64,
    unit_trials: usize,
}

impl std::fmt::Debug for Shared {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Shared")
            .field("model", &self.model_name)
            .field("network", &self.network_name)
            .finish_non_exhaustive()
    }
}

/// A running campaign coordinator. Serving continues until
/// [`Coordinator::shutdown`], so workers polling after completion observe a
/// `done` grant instead of a vanished endpoint.
#[derive(Debug)]
pub struct Coordinator {
    shared: Arc<Shared>,
    transport: Transport,
    executor_handle: Option<JoinHandle<()>>,
}

/// Builds the unit list for round `round` given the per-stratum scheduled
/// counts and the merged pool state — a pure function of campaign config and
/// completed-round evidence (the allocator reads only trials below `counts`,
/// never in-flight points), so every coordinator incarnation derives
/// identical units and ids.
#[allow(clippy::too_many_arguments)]
fn plan_units(
    config: &StatCampaignConfig,
    z: f64,
    fault_free: f32,
    populations: &[u64],
    pools: &[StratumPool],
    counts: &[usize],
    round: usize,
    unit_trials: usize,
) -> Vec<UnitSlot> {
    let specs = plan_round_allocated(config, z, fault_free, populations, pools, counts);
    let mut per_stratum = vec![0usize; counts.len()];
    for spec in &specs {
        per_stratum[spec.stratum] += 1;
    }
    let mut units = Vec::new();
    for (stratum, &scheduled) in per_stratum.iter().enumerate() {
        let mut offset = 0;
        while offset < scheduled {
            let count = unit_trials.min(scheduled - offset);
            units.push(UnitSlot {
                unit: WorkUnit {
                    id: unit_id(round, units.len()),
                    stratum,
                    start: counts[stratum] + offset,
                    count,
                },
                state: UnitState::Pending,
            });
            offset += count;
        }
    }
    units
}

impl Shared {
    fn lock(&self) -> MutexGuard<'_, Ledger> {
        self.ledger.lock().expect("ledger poisoned")
    }

    /// Advances the ledger through every round whose trials are already in
    /// the pools (resume replay and normal round completion share this
    /// path), stopping at the first round with missing units or at campaign
    /// completion.
    fn advance(&self, ledger: &mut Ledger) {
        loop {
            let mut units = plan_units(
                &self.campaign,
                self.z,
                self.fault_free,
                &self.populations,
                &ledger.pools,
                &ledger.counts,
                ledger.rounds,
                self.unit_trials,
            );
            if units.is_empty() {
                ledger.finished = true;
                return;
            }
            let mut all_done = true;
            for slot in &mut units {
                if ledger.pools[slot.unit.stratum]
                    .contains_range(slot.unit.start as u64, slot.unit.count as u64)
                {
                    slot.state = UnitState::Done;
                } else {
                    all_done = false;
                }
            }
            if !all_done {
                ledger.units = units;
                return;
            }
            for slot in &units {
                ledger.counts[slot.unit.stratum] += slot.unit.count;
            }
            ledger.rounds += 1;
            ledger.units = units;
            let decision = stopping_decision(
                &self.campaign,
                self.z,
                self.fault_free,
                &self.populations,
                &ledger.pools,
                &ledger.counts,
            );
            if decision.converged {
                ledger.converged = true;
                ledger.finished = true;
                return;
            }
            if decision.exhausted {
                ledger.finished = true;
                return;
            }
        }
    }

    /// Grants a unit to `worker`: pending first, then expired-lease
    /// re-dispatch, then straggler re-issue of the earliest-deadline lease.
    fn grant(&self, ledger: &mut Ledger, worker: &str) -> Grant {
        if ledger.finished {
            return Grant::Done;
        }
        if ledger.stopping || ledger.fatal.is_some() {
            return Grant::Wait {
                retry_ms: self.retry_ms,
            };
        }
        let now = Instant::now();
        let lease_ms = self.lease.as_millis() as u64;
        let chosen = {
            let pending = ledger
                .units
                .iter()
                .position(|s| s.state == UnitState::Pending);
            match pending {
                Some(i) => Some(i),
                None => {
                    // No pending work: hand out the most-overdue lease —
                    // expired ones first (re-dispatch), otherwise the
                    // earliest-deadline in-flight lease held by someone else
                    // (straggler re-issue).
                    ledger
                        .units
                        .iter()
                        .enumerate()
                        .filter_map(|(i, s)| match &s.state {
                            UnitState::Leased {
                                worker: holder,
                                deadline,
                            } if deadline <= &now || holder != worker => Some((i, *deadline)),
                            _ => None,
                        })
                        .min_by_key(|&(_, deadline)| deadline)
                        .map(|(i, _)| i)
                }
            }
        };
        match chosen {
            Some(i) => {
                let slot = &mut ledger.units[i];
                slot.state = UnitState::Leased {
                    worker: worker.to_owned(),
                    deadline: now + self.lease,
                };
                Grant::Unit {
                    unit: slot.unit,
                    lease_ms,
                }
            }
            None => Grant::Wait {
                retry_ms: self.retry_ms,
            },
        }
    }

    fn save_checkpoint(&self, ledger: &mut Ledger) {
        let Some(path) = &self.checkpoint else {
            return;
        };
        let completed: Vec<u64> = ledger
            .units
            .iter()
            .filter(|s| s.state == UnitState::Done)
            .map(|s| s.unit.id)
            .collect();
        let checkpoint = CampaignCheckpoint::new(
            self.campaign.clone(),
            self.model_name.clone(),
            self.network_name.clone(),
            self.fingerprint,
            self.fault_free,
            ledger.pools.clone(),
            completed,
        );
        if let Err(e) = checkpoint.save(path) {
            // Losing checkpointability is fatal: continuing silently would
            // turn the next crash into silent data loss.
            ledger.fatal = Some(format!("cannot write checkpoint `{}`: {e}", path.display()));
        }
    }

    /// Merges a reported unit: `Ok(fresh)`, where `fresh` says whether it
    /// added trials (a duplicate of a merged unit adds none), or the
    /// conflict that rejects it.
    fn merge(&self, ledger: &mut Ledger, result: &UnitResult) -> Result<bool, String> {
        let round = unit_round(result.unit.id);
        if ledger.finished || round < ledger.rounds {
            // A duplicate of an already-merged unit (possibly from a prior
            // coordinator incarnation): idempotent by content.
            return self.merge_duplicate(ledger, result);
        }
        if round > ledger.rounds {
            return Err(format!(
                "unit {} belongs to round {round}, coordinator is at round {}",
                result.unit.id, ledger.rounds
            ));
        }
        let Some(i) = ledger
            .units
            .iter()
            .position(|s| s.unit.id == result.unit.id)
        else {
            return Err(format!("unknown unit id {}", result.unit.id));
        };
        if ledger.units[i].unit != result.unit {
            let msg = format!(
                "unit {} shape mismatch: coordinator planned {:?}, worker reported {:?}",
                result.unit.id, ledger.units[i].unit, result.unit
            );
            return self.abort(ledger, msg);
        }
        if ledger.units[i].state == UnitState::Done {
            return self.merge_duplicate(ledger, result);
        }
        for (offset, point) in result.points.iter().enumerate() {
            let index = (result.unit.start + offset) as u64;
            match ledger.pools[result.unit.stratum].insert(index, *point) {
                Ok(_) => {}
                Err(FaultError::TrialConflict { index }) => {
                    let msg = format!(
                        "conflicting results for trial {index} of stratum {}: the determinism \
                         contract is broken (worker ran a different model, seed or build?)",
                        result.unit.stratum
                    );
                    return self.abort(ledger, msg);
                }
                Err(other) => return self.abort(ledger, other.to_string()),
            }
        }
        ledger.units[i].state = UnitState::Done;
        if ledger.units.iter().all(|s| s.state == UnitState::Done) {
            self.advance(ledger);
        }
        self.save_checkpoint(ledger);
        self.cv.notify_all();
        Ok(true)
    }

    /// A duplicate completion merges nothing: it must agree bit for bit
    /// with what the pools already hold, or the campaign aborts.
    fn merge_duplicate(&self, ledger: &mut Ledger, result: &UnitResult) -> Result<bool, String> {
        let Some(pool) = ledger.pools.get(result.unit.stratum) else {
            let msg = format!("unit names stratum {}", result.unit.stratum);
            return self.abort(ledger, msg);
        };
        for (offset, point) in result.points.iter().enumerate() {
            let index = (result.unit.start + offset) as u64;
            let msg = match pool.get(index) {
                Some(existing) if existing.same_bits(point) => continue,
                Some(_) => format!(
                    "duplicate completion of unit {} disagrees at trial {index}",
                    result.unit.id
                ),
                None => format!(
                    "unit {} claims trial {index} which the pool does not hold",
                    result.unit.id
                ),
            };
            return self.abort(ledger, msg);
        }
        Ok(false)
    }

    /// Aborts the campaign over a broken determinism contract and wakes
    /// every waiter so it notices.
    fn abort(&self, ledger: &mut Ledger, msg: String) -> Result<bool, String> {
        ledger.fatal = Some(msg.clone());
        self.cv.notify_all();
        Err(msg)
    }

    fn status_json(&self, ledger: &Ledger) -> JsonValue {
        let total: usize = ledger.pools.iter().map(StratumPool::len).sum();
        let units = |state: fn(&UnitState) -> bool| {
            num(ledger.units.iter().filter(|s| state(&s.state)).count() as f64)
        };
        obj(vec![
            ("round", num(ledger.rounds as f64)),
            ("total_trials", num(total as f64)),
            ("pending_units", units(|s| *s == UnitState::Pending)),
            (
                "leased_units",
                units(|s| matches!(s, UnitState::Leased { .. })),
            ),
            ("done_units", units(|s| *s == UnitState::Done)),
            ("finished", JsonValue::Bool(ledger.finished)),
            ("converged", JsonValue::Bool(ledger.converged)),
            ("stopping", JsonValue::Bool(ledger.stopping)),
        ])
    }
}

impl Routes for Shared {
    fn route(&self, request: &Request) -> Reply {
        let path = request
            .target
            .split_once('?')
            .map_or(request.target.as_str(), |(p, _)| p);
        match (request.method.as_str(), path) {
            ("GET", "/campaign/spec") => Reply::binary(200, self.spec_bytes.clone()),
            ("GET", "/campaign/model") => Reply::binary(200, self.artifact_bytes.clone()),
            ("GET", "/campaign/unit") => {
                let worker = query_param(&request.target, "worker").unwrap_or("anonymous");
                Reply::json(200, self.grant(&mut self.lock(), worker).to_json())
            }
            ("POST", "/campaign/result") => {
                let result = std::str::from_utf8(&request.body)
                    .map_err(|_| "non-UTF-8 result body".to_owned())
                    .and_then(UnitResult::from_json);
                let merged = match result {
                    Ok(result) => self.merge(&mut self.lock(), &result),
                    Err(msg) => return Reply::error(400, &msg),
                };
                match merged {
                    Ok(fresh) => Reply::json(
                        200,
                        obj(vec![
                            ("status", JsonValue::String("ok".into())),
                            ("fresh", JsonValue::Bool(fresh)),
                        ]),
                    ),
                    Err(msg) => Reply::error(409, &msg),
                }
            }
            ("GET", "/campaign/status") => Reply::json(200, self.status_json(&self.lock())),
            ("GET", "/healthz") => {
                Reply::json(200, obj(vec![("status", JsonValue::String("ok".into()))]))
            }
            _ => Reply::error(404, "unknown route"),
        }
    }
}

impl Coordinator {
    /// Starts a coordinator: instantiates the artifact, re-derives the
    /// dataset from its provenance pairs, computes the fault-free baseline,
    /// resumes from `options.checkpoint` when a valid checkpoint exists and
    /// begins serving.
    ///
    /// # Errors
    ///
    /// Artifact/dataset/config failures, a checkpoint that belongs to a
    /// different campaign ([`ServeError::Artifact`] wrapping the typed
    /// mismatch), and socket errors.
    pub fn start(
        artifact_bytes: Vec<u8>,
        campaign: StatCampaignConfig,
        model: Arc<dyn FaultModel>,
        options: &CoordinatorConfig,
    ) -> Result<Coordinator, ServeError> {
        if options.unit_trials == 0 {
            return Err(ServeError::InvalidConfig(
                "unit_trials must be non-zero".into(),
            ));
        }
        let artifact = ModelArtifact::from_bytes(&artifact_bytes)?;
        let data_spec = DataSpec::from_meta(|k| artifact.meta(k)).ok_or_else(|| {
            ServeError::InvalidConfig(
                "artifact carries no dataset provenance; train it with `fitact train`".into(),
            )
        })?;
        Self::start_with_data(artifact_bytes, data_spec, campaign, model, options)
    }

    /// As [`Coordinator::start`], but with an explicit dataset spec (CLI
    /// overrides applied by the caller).
    ///
    /// # Errors
    ///
    /// As [`Coordinator::start`].
    pub fn start_with_data(
        artifact_bytes: Vec<u8>,
        data_spec: DataSpec,
        campaign: StatCampaignConfig,
        model: Arc<dyn FaultModel>,
        options: &CoordinatorConfig,
    ) -> Result<Coordinator, ServeError> {
        let fingerprint = fingerprint_bytes(&artifact_bytes);
        let artifact = ModelArtifact::from_bytes(&artifact_bytes)?;
        let mut network = artifact.instantiate()?;
        // The serial campaign path quantizes before running; matching it here
        // is part of the bit-identity contract.
        fitact_faults::quantize_network(&mut network);
        let network_name = network.name().to_owned();
        let (inputs, targets) = data_spec
            .materialize()
            .map_err(|e| ServeError::InvalidConfig(format!("dataset generation failed: {e}")))?;
        let runner = UnitRunner::new(network, inputs, targets, &campaign, options.threads.max(1))
            .map_err(|e| ServeError::Campaign(e.to_string()))?;
        let fault_free = runner.fault_free_accuracy();
        let sampler = runner.sampler().clone();

        let num_strata = sampler.num_strata();
        let pools = match &options.checkpoint {
            Some(path) if path.exists() => {
                let checkpoint = CampaignCheckpoint::load(path)?;
                checkpoint.validate_against(&campaign, model.name(), fingerprint, fault_free)?;
                checkpoint.pools
            }
            _ => vec![StratumPool::new(); num_strata],
        };

        let spec = CampaignSpec {
            config: campaign.clone(),
            model: model.name().to_owned(),
            network: network_name.clone(),
            artifact_fingerprint: fingerprint,
            provenance: fitact_faults::TRIAL_STREAM_PROVENANCE.to_owned(),
            fault_free_accuracy: fault_free,
            unit_trials: options.unit_trials as u32,
            data_meta: data_spec.to_meta(),
        };

        let retry_ms = (options.lease.as_millis() as u64 / 4).clamp(10, 500);
        let shared = Arc::new(Shared {
            ledger: Mutex::new(Ledger {
                pools,
                counts: vec![0; num_strata],
                rounds: 0,
                units: Vec::new(),
                finished: false,
                converged: false,
                stopping: false,
                fatal: None,
            }),
            cv: Condvar::new(),
            z: z_for_confidence(campaign.confidence),
            campaign,
            fault_free,
            populations: (0..sampler.num_strata())
                .map(|s| sampler.population(s))
                .collect(),
            sampler,
            model_name: model.name().to_owned(),
            network_name,
            artifact_bytes,
            spec_bytes: spec.to_bytes(),
            fingerprint,
            checkpoint: options.checkpoint.clone(),
            lease: options.lease,
            retry_ms,
            unit_trials: options.unit_trials,
        });

        // Replay completed rounds out of the (possibly resumed) pools.
        shared.advance(&mut shared.lock());

        let transport = Transport::start(
            &options.listen,
            LIMITS,
            "fitact-coordinator",
            shared.clone(),
        )?;

        let executor_handle = if options.local_execute {
            let exec_shared = Arc::clone(&shared);
            Some(std::thread::spawn(move || {
                local_executor(&exec_shared, runner, model.as_ref());
            }))
        } else {
            None
        };

        Ok(Coordinator {
            shared,
            transport,
            executor_handle,
        })
    }

    /// The bound listen address.
    pub fn addr(&self) -> SocketAddr {
        self.transport.addr()
    }

    /// Blocks until the campaign finishes, is stopped or fails.
    ///
    /// `Ok(Some(report))` on completion (the checkpoint file, if any, is
    /// removed); `Ok(None)` after [`Coordinator::stop`] (state checkpointed
    /// for resume). Serving continues either way until
    /// [`Coordinator::shutdown`].
    ///
    /// # Errors
    ///
    /// [`ServeError::Campaign`] when a determinism conflict or checkpoint
    /// write failure aborted the campaign.
    pub fn run_to_completion(&self) -> Result<Option<CampaignReport>, ServeError> {
        let mut ledger = self.shared.lock();
        loop {
            if let Some(msg) = &ledger.fatal {
                return Err(ServeError::Campaign(msg.clone()));
            }
            if ledger.finished {
                let report = assemble_report(
                    &self.shared.campaign,
                    &self.shared.model_name,
                    self.shared.fault_free,
                    &self.shared.sampler,
                    &ledger.pools,
                    ledger.rounds,
                    ledger.converged,
                );
                if let Some(path) = &self.shared.checkpoint {
                    let _ = std::fs::remove_file(path);
                }
                return Ok(Some(report));
            }
            if ledger.stopping {
                self.shared.save_checkpoint(&mut ledger);
                if let Some(msg) = &ledger.fatal {
                    return Err(ServeError::Campaign(msg.clone()));
                }
                return Ok(None);
            }
            ledger = self.shared.cv.wait(ledger).expect("ledger poisoned");
        }
    }

    /// Requests a graceful stop: in-flight units keep merging, no new work
    /// is granted, and [`Coordinator::run_to_completion`] returns `Ok(None)`
    /// after checkpointing.
    pub fn stop(&self) {
        self.shared.lock().stopping = true;
        self.shared.cv.notify_all();
    }

    /// Progress snapshot as a JSON line (same shape as `/campaign/status`).
    pub fn status(&self) -> String {
        self.shared.status_json(&self.shared.lock()).to_string()
    }

    /// Stops serving and joins the background threads.
    pub fn shutdown(mut self) {
        self.teardown();
    }

    fn teardown(&mut self) {
        // Stopping the ledger ends the local executor's loop.
        self.stop();
        self.transport.shutdown();
        self.transport.join();
        if let Some(handle) = self.executor_handle.take() {
            let _ = handle.join();
        }
    }
}

impl Drop for Coordinator {
    fn drop(&mut self) {
        self.teardown();
    }
}

fn query_param<'a>(target: &'a str, key: &str) -> Option<&'a str> {
    let (_, query) = target.split_once('?')?;
    query
        .split('&')
        .find_map(|pair| pair.strip_prefix(key)?.strip_prefix('='))
}

/// In-process unit execution: the coordinator degrades gracefully down to
/// running the whole campaign solo through the exact lease/merge path
/// workers use.
fn local_executor(shared: &Shared, mut runner: UnitRunner, model: &dyn FaultModel) {
    loop {
        let grant = {
            let mut ledger = shared.lock();
            if ledger.stopping || ledger.fatal.is_some() {
                return;
            }
            shared.grant(&mut ledger, "coordinator")
        };
        match grant {
            Grant::Done => return,
            Grant::Wait { retry_ms } => {
                let _ = shared
                    .cv
                    .wait_timeout(shared.lock(), Duration::from_millis(retry_ms));
            }
            Grant::Unit { unit, .. } => {
                match runner.run_unit(model, unit.stratum, unit.start, unit.count) {
                    Ok(points) => {
                        let result = UnitResult {
                            worker: "coordinator".into(),
                            unit,
                            points,
                        };
                        // A conflict is recorded in the ledger as fatal.
                        let _ = shared.merge(&mut shared.lock(), &result);
                    }
                    Err(e) => {
                        let msg = format!("local unit execution failed: {e}");
                        let _ = shared.abort(&mut shared.lock(), msg);
                        return;
                    }
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn test_config(strata: usize, round_trials: usize, max_trials: usize) -> StatCampaignConfig {
        StatCampaignConfig {
            round_trials,
            min_trials: max_trials,
            max_trials,
            strata: (0..strata)
                .map(|i| {
                    let mut spec = fitact_faults::StratumSpec::all();
                    spec.label = format!("s{i}");
                    spec
                })
                .collect(),
            ..Default::default()
        }
    }

    /// Planning inputs for a pool-less test: unit populations and empty
    /// pools, which under `equal` allocation are never consulted.
    fn empty_state(strata: usize) -> (Vec<u64>, Vec<StratumPool>) {
        (vec![1; strata], vec![StratumPool::new(); strata])
    }

    #[test]
    fn unit_planning_is_deterministic_and_covers_the_round() {
        let config = test_config(2, 5, 1000);
        let counts = vec![10, 10];
        let (populations, pools) = empty_state(2);
        let units = plan_units(&config, 1.96, 0.9, &populations, &pools, &counts, 3, 2);
        // 5 trials per stratum in units of ≤2: 3 units each.
        assert_eq!(units.len(), 6);
        assert_eq!(units[0].unit.id, unit_id(3, 0));
        let covered: usize = units.iter().map(|s| s.unit.count).sum();
        assert_eq!(covered, 10);
        for slot in &units {
            assert!(slot.unit.start >= counts[slot.unit.stratum]);
            assert!(slot.unit.count <= 2);
        }
        // Bit-for-bit identical on re-derivation (resume contract).
        let again = plan_units(&config, 1.96, 0.9, &populations, &pools, &counts, 3, 2);
        for (a, b) in units.iter().zip(&again) {
            assert_eq!(a.unit, b.unit);
        }
    }

    #[test]
    fn truncated_final_round_still_partitions_exactly() {
        let config = test_config(3, 8, 20);
        // 18 scheduled so far; round would be 24, only 2 remain.
        let counts = vec![6, 6, 6];
        let (populations, pools) = empty_state(3);
        let units = plan_units(&config, 1.96, 0.9, &populations, &pools, &counts, 2, 8);
        let covered: usize = units.iter().map(|s| s.unit.count).sum();
        assert_eq!(covered, 2);
    }

    #[test]
    fn neyman_unit_planning_is_a_pure_function_of_pool_state() {
        let config = StatCampaignConfig {
            allocation: fitact_faults::AllocationPolicy::Neyman,
            ..test_config(2, 6, 1000)
        };
        let populations = vec![100, 100];
        // Seed stratum 1 with visibly mixed outcomes so its σ estimate —
        // and therefore its allocation share — exceeds stratum 0's.
        let mut pools = vec![StratumPool::new(); 2];
        for i in 0..8u64 {
            let accuracy = if i % 2 == 0 { 0.9 } else { 0.1 };
            let steady = fitact_faults::TrialPoint {
                accuracy: 0.9,
                faults: 1,
            };
            let mixed = fitact_faults::TrialPoint {
                accuracy,
                faults: 1,
            };
            pools[0].insert(i, steady).unwrap();
            pools[1].insert(i, mixed).unwrap();
        }
        let counts = vec![8, 8];
        let units = plan_units(&config, 1.96, 0.9, &populations, &pools, &counts, 1, 3);
        let covered: usize = units.iter().map(|s| s.unit.count).sum();
        assert_eq!(covered, 12, "round budget is strata × round_trials");
        let stratum1: usize = units
            .iter()
            .filter(|s| s.unit.stratum == 1)
            .map(|s| s.unit.count)
            .sum();
        assert!(
            stratum1 > 6,
            "high-variance stratum must receive more than an equal share, got {stratum1}"
        );
        // Identical pools ⇒ identical plan, bit for bit.
        let again = plan_units(&config, 1.96, 0.9, &populations, &pools, &counts, 1, 3);
        assert_eq!(units.len(), again.len());
        for (a, b) in units.iter().zip(&again) {
            assert_eq!(a.unit, b.unit);
        }
    }

    #[test]
    fn query_params_parse() {
        assert_eq!(
            query_param("/campaign/unit?worker=w0", "worker"),
            Some("w0")
        );
        assert_eq!(
            query_param("/campaign/unit?a=1&worker=x%20y", "worker"),
            Some("x%20y")
        );
        assert_eq!(query_param("/campaign/unit", "worker"), None);
        assert_eq!(query_param("/campaign/unit?other=1", "worker"), None);
    }
}
