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
//! The coordinator never invents scheduling state. The round loop is a
//! [`CampaignDriver`], the same one the single-process campaign runs: it
//! plans each round from the merged pools, closes it once every trial is
//! merged, makes the stopping decision and assembles the report. The
//! coordinator keeps only lease state, and each round's units are a split
//! of the driver's open round into ranges of at most `unit_trials` trials.
//! Resume rebuilds the driver from the checkpointed pools, so a coordinator
//! restarted mid-round re-derives the same units, re-leases only the
//! missing ones and lands on a bit-identical [`CampaignReport`]; pools
//! holding a trial the configuration has not scheduled are refused at
//! start, exactly as the single-process resume refuses them.

use crate::http::Request;
use crate::protocol::{unit_id, unit_round, Grant, UnitResult, WorkUnit, MAX_CONTROL_BODY};
use crate::transport::{Limits, Reply, Routes, Transport, DEFAULT_MAX_CONNECTIONS};
use crate::ServeError;
use fitact_data::DataSpec;
use fitact_faults::{
    CampaignDriver, CampaignReport, FaultError, FaultModel, StatCampaignConfig, TrialSpec,
    UnitRunner,
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
    driver: CampaignDriver,
    /// The open round's units.
    units: Vec<UnitSlot>,
    stopping: bool,
    fatal: Option<String>,
}

struct Shared {
    ledger: Mutex<Ledger>,
    cv: Condvar,
    campaign: StatCampaignConfig,
    fault_free: f32,
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

/// Splits the driver's open round into units of at most `unit_trials`
/// consecutive trials of one stratum, with ids `(round << 32) | index`. A
/// unit whose trials the pools already hold (from a resumed checkpoint)
/// starts `Done`. The open round is a pure function of the merged pools, so
/// every coordinator incarnation derives identical units and ids.
fn plan_units(driver: &CampaignDriver, unit_trials: usize) -> Vec<UnitSlot> {
    let mut units = Vec::new();
    for (stratum, pool) in driver.pools().iter().enumerate() {
        let trials = driver.open_trials(stratum);
        for start in trials.clone().step_by(unit_trials) {
            let count = unit_trials.min(trials.end - start);
            let state = if pool.contains_range(start as u64, count as u64) {
                UnitState::Done
            } else {
                UnitState::Pending
            };
            units.push(UnitSlot {
                unit: WorkUnit {
                    id: unit_id(driver.round(), units.len()),
                    stratum,
                    start,
                    count,
                },
                state,
            });
        }
    }
    units
}

impl Shared {
    fn lock(&self) -> MutexGuard<'_, Ledger> {
        self.ledger.lock().expect("ledger poisoned")
    }

    /// Grants a unit to `worker`: pending first, then expired-lease
    /// re-dispatch, then straggler re-issue of the earliest-deadline lease.
    fn grant(&self, ledger: &mut Ledger, worker: &str) -> Grant {
        if ledger.driver.is_finished() {
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
            ledger.driver.pools().to_vec(),
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
        let unit = result.unit;
        let round = unit_round(unit.id);
        let open = ledger.driver.round();
        // `Some(i)` for the open round's unit `i` before it is merged. Any
        // other unit of a closed round, or one already merged (possibly by a
        // prior coordinator incarnation), is a duplicate: idempotent by
        // content.
        let slot = if ledger.driver.is_finished() || round < open {
            None
        } else if round > open {
            return Err(format!(
                "unit {} belongs to round {round}, coordinator is at round {open}",
                unit.id
            ));
        } else {
            let Some(i) = ledger.units.iter().position(|s| s.unit.id == unit.id) else {
                return Err(format!("unknown unit id {}", unit.id));
            };
            if ledger.units[i].unit != unit {
                let msg = format!(
                    "unit {} shape mismatch: coordinator planned {:?}, worker reported {unit:?}",
                    unit.id, ledger.units[i].unit
                );
                return self.abort(ledger, msg);
            }
            (ledger.units[i].state != UnitState::Done).then_some(i)
        };
        let duplicate = slot.is_none();
        for (offset, point) in result.points.iter().enumerate() {
            let trial = TrialSpec {
                stratum: unit.stratum,
                index: unit.start + offset,
            };
            let held = ledger
                .driver
                .pools()
                .get(trial.stratum)
                .is_some_and(|pool| pool.contains(trial.index as u64));
            if duplicate && !held {
                let msg = format!(
                    "unit {} claims trial {} which the pool does not hold",
                    unit.id, trial.index
                );
                return self.abort(ledger, msg);
            }
            let msg = match ledger.driver.merge(trial, *point) {
                Ok(_) => continue,
                Err(FaultError::TrialConflict { index }) if duplicate => format!(
                    "duplicate completion of unit {} disagrees at trial {index}",
                    unit.id
                ),
                Err(FaultError::TrialConflict { index }) => format!(
                    "conflicting results for trial {index} of stratum {}: the determinism \
                     contract is broken (worker ran a different model, seed or build?)",
                    unit.stratum
                ),
                Err(other) => other.to_string(),
            };
            return self.abort(ledger, msg);
        }
        let Some(i) = slot else {
            return Ok(false);
        };
        if ledger.driver.round() == round {
            ledger.units[i].state = UnitState::Done;
        } else {
            ledger.units = plan_units(&ledger.driver, self.unit_trials);
        }
        self.save_checkpoint(ledger);
        self.cv.notify_all();
        Ok(true)
    }

    /// Aborts the campaign over a broken determinism contract and wakes
    /// every waiter so it notices.
    fn abort(&self, ledger: &mut Ledger, msg: String) -> Result<bool, String> {
        ledger.fatal = Some(msg.clone());
        self.cv.notify_all();
        Err(msg)
    }

    fn status_json(&self, ledger: &Ledger) -> JsonValue {
        let total: usize = ledger.driver.pools().iter().map(|p| p.len()).sum();
        let units = |state: fn(&UnitState) -> bool| {
            JsonValue::from(ledger.units.iter().filter(|s| state(&s.state)).count())
        };
        JsonValue::object([
            ("round", ledger.driver.round().into()),
            ("total_trials", total.into()),
            ("pending_units", units(|s| *s == UnitState::Pending)),
            (
                "leased_units",
                units(|s| matches!(s, UnitState::Leased { .. })),
            ),
            ("done_units", units(|s| *s == UnitState::Done)),
            ("finished", ledger.driver.is_finished().into()),
            ("converged", ledger.driver.converged().into()),
            ("stopping", ledger.stopping.into()),
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
                        JsonValue::object([("status", "ok".into()), ("fresh", fresh.into())]),
                    ),
                    Err(msg) => Reply::error(409, &msg),
                }
            }
            ("GET", "/campaign/status") => Reply::json(200, self.status_json(&self.lock())),
            ("GET", "/healthz") => Reply::json(200, JsonValue::object([("status", "ok".into())])),
            _ => Reply::error(404, "unknown route"),
        }
    }
}

impl Coordinator {
    /// Starts a coordinator: instantiates the artifact, materialises the
    /// dataset `data_spec` describes, computes the fault-free baseline,
    /// resumes from `options.checkpoint` when a valid checkpoint exists and
    /// begins serving.
    ///
    /// # Errors
    ///
    /// Artifact/dataset/config failures (including a zero `unit_trials`), a
    /// checkpoint that belongs to a different campaign
    /// ([`ServeError::Artifact`] wrapping the typed mismatch), resume pools
    /// holding a trial the configuration has not scheduled
    /// ([`ServeError::Campaign`]), and socket errors.
    pub fn start_with_data(
        artifact_bytes: Vec<u8>,
        data_spec: DataSpec,
        campaign: StatCampaignConfig,
        model: Arc<dyn FaultModel>,
        options: &CoordinatorConfig,
    ) -> Result<Coordinator, ServeError> {
        if options.unit_trials == 0 {
            return Err(ServeError::InvalidConfig(
                "unit_trials must be non-zero".into(),
            ));
        }
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
        let resume = match &options.checkpoint {
            Some(path) if path.exists() => {
                let checkpoint = CampaignCheckpoint::load(path)?;
                checkpoint.validate_against(&campaign, model.name(), fingerprint, fault_free)?;
                Some(checkpoint.pools)
            }
            _ => None,
        };
        // Replays the rounds the resumed pools complete.
        let driver = CampaignDriver::new(
            &campaign,
            model.name(),
            fault_free,
            runner.sampler(),
            resume,
        )
        .map_err(|e| ServeError::Campaign(e.to_string()))?;

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
                units: plan_units(&driver, options.unit_trials),
                driver,
                stopping: false,
                fatal: None,
            }),
            cv: Condvar::new(),
            campaign,
            fault_free,
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
            if let Some(report) = ledger.driver.report() {
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

    /// Progress snapshot, the value `/campaign/status` renders.
    pub fn status(&self) -> JsonValue {
        self.shared.status_json(&self.shared.lock())
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
    use fitact_faults::StratumPool;

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

    /// A driver for `config` resumed from `pools` (fault-free accuracy
    /// 0.9), over the strata of a tiny network.
    fn resumed_driver(config: &StatCampaignConfig, pools: Vec<StratumPool>) -> CampaignDriver {
        use rand::SeedableRng;
        let mut rng = rand::rngs::StdRng::seed_from_u64(0);
        let network = fitact_nn::Network::new(
            "mlp",
            fitact_nn::layers::Sequential::new()
                .with(Box::new(fitact_nn::layers::Linear::new(2, 2, &mut rng))),
        );
        let map = fitact_faults::MemoryMap::of_network(&network);
        let sampler = fitact_faults::StratifiedSampler::new(&map, &config.strata).unwrap();
        CampaignDriver::new(config, "bitflip", 0.9, &sampler, Some(pools)).unwrap()
    }

    /// Pools holding trials `0..n` of every stratum, each point from
    /// `accuracy(stratum, index)`.
    fn filled_pools(
        strata: usize,
        n: u64,
        accuracy: impl Fn(usize, u64) -> f32,
    ) -> Vec<StratumPool> {
        (0..strata)
            .map(|stratum| {
                let mut pool = StratumPool::new();
                for i in 0..n {
                    let point = fitact_faults::TrialPoint {
                        accuracy: accuracy(stratum, i),
                        faults: 1,
                    };
                    pool.insert(i, point).unwrap();
                }
                pool
            })
            .collect()
    }

    #[test]
    fn unit_planning_is_deterministic_and_covers_the_round() {
        let config = test_config(2, 5, 1000);
        // Two closed rounds: 10 trials scheduled per stratum, round 2 open.
        let driver = resumed_driver(&config, filled_pools(2, 10, |_, _| 0.9));
        assert_eq!(driver.round(), 2);
        let units = plan_units(&driver, 2);
        // 5 trials per stratum in units of ≤2: 3 units each.
        assert_eq!(units.len(), 6);
        assert_eq!(units[0].unit.id, unit_id(2, 0));
        let covered: usize = units.iter().map(|s| s.unit.count).sum();
        assert_eq!(covered, 10);
        for slot in &units {
            assert!(slot.unit.start >= 10);
            assert!(slot.unit.count <= 2);
            assert_eq!(slot.state, UnitState::Pending);
        }
        // Bit-for-bit identical on re-derivation (resume contract).
        let again = plan_units(&driver, 2);
        for (a, b) in units.iter().zip(&again) {
            assert_eq!(a.unit, b.unit);
        }
    }

    #[test]
    fn truncated_final_round_still_partitions_exactly() {
        let config = test_config(3, 6, 20);
        // 18 scheduled so far; the round would be 18, only 2 remain.
        let driver = resumed_driver(&config, filled_pools(3, 6, |_, _| 0.9));
        assert_eq!(driver.round(), 1);
        let units = plan_units(&driver, 8);
        let covered: usize = units.iter().map(|s| s.unit.count).sum();
        assert_eq!(covered, 2);
    }

    #[test]
    fn neyman_unit_planning_is_a_pure_function_of_pool_state() {
        let config = StatCampaignConfig {
            allocation: fitact_faults::AllocationPolicy::Neyman,
            ..test_config(2, 6, 1000)
        };
        // Seed stratum 1 with visibly mixed outcomes so its σ estimate —
        // and therefore its allocation share — exceeds stratum 0's.
        let pools = filled_pools(
            2,
            8,
            |stratum, i| {
                if stratum == 1 && i % 2 == 1 {
                    0.1
                } else {
                    0.9
                }
            },
        );
        let driver = resumed_driver(&config, pools.clone());
        assert_eq!(driver.round(), 1, "round 0 closes, round 1 is open");
        let units = plan_units(&driver, 3);
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
        let again = plan_units(&resumed_driver(&config, pools), 3);
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
