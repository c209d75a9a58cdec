//! Tentpole identity suite for the distributed campaign engine: a campaign
//! sharded across a coordinator and workers — with a worker killed mid-run,
//! leases abandoned and re-dispatched, stale duplicates delivered, and the
//! coordinator itself stopped and restarted from its checkpoint — produces a
//! [`fitact_faults::CampaignReport`] **bit-identical** to the single-process
//! serial run of the same seed.
//!
//! This is the acceptance contract of the coordinator/worker mode (see
//! `docs/distributed.md`): every fault-tolerance mechanism must be invisible
//! in the report.

use fitact_data::DataSpec;
use fitact_faults::{
    quantize_network, AllocationPolicy, Campaign, CampaignControl, FaultError, FaultModel,
    RunOutcome, StatCampaignConfig, StratumPool, TransientBitFlip, TrialPoint, UnitRunner,
};
use fitact_io::{fingerprint_bytes, CampaignCheckpoint, JsonValue, ModelArtifact};
use fitact_nn::layers::{ActivationLayer, Flatten, Linear, Sequential};
use fitact_nn::Network;
use fitact_serve::http::Response;
use fitact_serve::protocol::{http_call, Grant, UnitResult, WorkUnit, MAX_CONTROL_BODY};
use fitact_serve::{run_worker_until, Coordinator, CoordinatorConfig, WorkerConfig};
use fitact_tensor::Precision;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::net::SocketAddr;
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Duration;

/// The dataset every run rematerialises: 3-class blobs, deterministic.
fn data_spec() -> DataSpec {
    DataSpec::blobs(3, 96, 5)
}

/// A tiny deterministic MLP over the blobs features, captured as an
/// artifact. Untrained — resilience of random weights is as deterministic
/// as resilience of trained ones, and orders of magnitude cheaper here.
fn artifact_bytes() -> Vec<u8> {
    let features: usize = data_spec().input_shape().iter().product();
    let hidden = 16;
    let mut rng = StdRng::seed_from_u64(9);
    let network = Network::new(
        "mlp",
        Sequential::new()
            .with(Box::new(Flatten::new()))
            .with(Box::new(Linear::new(features, hidden, &mut rng)))
            .with(Box::new(ActivationLayer::relu("h1", &[hidden])))
            .with(Box::new(Linear::new(hidden, 3, &mut rng))),
    );
    ModelArtifact::capture(&network).unwrap().to_bytes()
}

/// The same MLP captured with native f16 words: half-width storage, f16
/// sign/exponent/mantissa fault strata in the campaign.
fn f16_artifact_bytes() -> Vec<u8> {
    let artifact = ModelArtifact::from_bytes(&artifact_bytes()).unwrap();
    let mut network = artifact.instantiate().unwrap();
    network.quantize_to(Precision::F16);
    ModelArtifact::capture(&network).unwrap().to_bytes()
}

/// A campaign small enough to finish in milliseconds but large enough to
/// span several rounds of several work units each.
fn campaign_config() -> StatCampaignConfig {
    StatCampaignConfig {
        fault_rate: 2e-3,
        batch_size: 32,
        seed: 11,
        epsilon: 0.18,
        confidence: 0.9,
        critical_threshold: 0.05,
        round_trials: 6,
        min_trials: 18,
        max_trials: 54,
        ..Default::default()
    }
}

/// The same campaign under adaptive Neyman allocation — every identity
/// scenario must hold for the adaptive planner too, since its plans depend
/// only on merged pool state.
fn neyman_config() -> StatCampaignConfig {
    StatCampaignConfig {
        allocation: AllocationPolicy::Neyman,
        ..campaign_config()
    }
}

/// The single-process reference: exactly the `fitact campaign` serial path.
fn serial_reference(config: &StatCampaignConfig) -> fitact_faults::CampaignReport {
    let artifact = ModelArtifact::from_bytes(&artifact_bytes()).unwrap();
    let mut network = artifact.instantiate().unwrap();
    let (inputs, targets) = data_spec().materialize().unwrap();
    fitact::assess_resilience(&mut network, &inputs, &targets, config, &TransientBitFlip).unwrap()
}

/// The same bit-identical trial engine the workers embed, for driving the
/// coordinator protocol by hand.
fn make_runner(config: &StatCampaignConfig) -> UnitRunner {
    let artifact = ModelArtifact::from_bytes(&artifact_bytes()).unwrap();
    let mut network = artifact.instantiate().unwrap();
    quantize_network(&mut network);
    let (inputs, targets) = data_spec().materialize().unwrap();
    UnitRunner::new(network, inputs, targets, config, 1).unwrap()
}

fn call(addr: SocketAddr, method: &str, target: &str, body: &[u8]) -> Response {
    http_call(
        &addr.to_string(),
        method,
        target,
        body,
        Duration::from_secs(5),
        MAX_CONTROL_BODY,
    )
    .unwrap()
}

fn fetch_unit(addr: SocketAddr, worker: &str) -> Grant {
    let response = call(addr, "GET", &format!("/campaign/unit?worker={worker}"), b"");
    assert_eq!(response.status, 200);
    Grant::from_json(std::str::from_utf8(&response.body).unwrap()).unwrap()
}

fn execute(runner: &mut UnitRunner, unit: WorkUnit, worker: &str) -> UnitResult {
    UnitResult {
        worker: worker.into(),
        unit,
        points: runner
            .run_unit(&TransientBitFlip, unit.stratum, unit.start, unit.count)
            .unwrap(),
    }
}

/// A unique scratch path under the target dir (kept out of the source tree).
fn scratch_path(name: &str) -> PathBuf {
    let dir = PathBuf::from(env!("CARGO_TARGET_TMPDIR"));
    std::fs::create_dir_all(&dir).unwrap();
    dir.join(format!("{name}-{}", std::process::id()))
}

/// Degradation floor: with `local_execute` the coordinator completes the
/// campaign with zero workers, bit-identical to the serial run.
fn solo_matches_serial(config: StatCampaignConfig) {
    let reference = serial_reference(&config);
    let coordinator = Coordinator::start_with_data(
        artifact_bytes(),
        data_spec(),
        config,
        Arc::new(TransientBitFlip),
        &CoordinatorConfig {
            local_execute: true,
            ..Default::default()
        },
    )
    .unwrap();
    let report = coordinator
        .run_to_completion()
        .unwrap()
        .expect("solo coordinator finishes the campaign");
    coordinator.shutdown();
    assert_eq!(report, reference, "solo coordinator must match serial");
}

#[test]
fn coordinator_solo_matches_the_serial_run() {
    solo_matches_serial(campaign_config());
}

#[test]
fn neyman_coordinator_solo_matches_the_serial_run() {
    solo_matches_serial(neyman_config());
}

/// The tentpole scenario: a worker that dies after two units, a ghost worker
/// that dies holding a lease, a coordinator stop/checkpoint/restart on the
/// same port, then two real HTTP workers (one killed while the campaign
/// runs) — and the final report is bit-identical to serial.
fn death_and_restart_matches_serial(config: StatCampaignConfig, ckpt_name: &str) {
    let reference = serial_reference(&config);
    let checkpoint = scratch_path(ckpt_name);
    let _ = std::fs::remove_file(&checkpoint);

    let options = CoordinatorConfig {
        checkpoint: Some(checkpoint.clone()),
        local_execute: false,
        ..Default::default()
    };

    // Phase 1: worker `mortal` completes exactly two units over the real
    // protocol and dies; worker `ghost` leases a unit and dies without ever
    // reporting; then the coordinator is stopped gracefully.
    let mut merged_trials = 0usize;
    let port = {
        let coordinator = Coordinator::start_with_data(
            artifact_bytes(),
            data_spec(),
            config.clone(),
            Arc::new(TransientBitFlip),
            &options,
        )
        .unwrap();
        let addr = coordinator.addr();
        let mut runner = make_runner(&config);

        for _ in 0..2 {
            let Grant::Unit { unit, .. } = fetch_unit(addr, "mortal") else {
                panic!("round 0 has pending units to grant");
            };
            merged_trials += unit.count;
            let result = execute(&mut runner, unit, "mortal");
            let response = call(
                addr,
                "POST",
                "/campaign/result",
                result.to_json().as_bytes(),
            );
            assert_eq!(response.status, 200);
        }
        // The ghost's lease must not survive the restart: leases are
        // in-memory, so the restarted coordinator re-plans the unit as
        // pending and re-dispatches it.
        assert!(
            matches!(fetch_unit(addr, "ghost"), Grant::Unit { .. }),
            "mid-campaign grant hands out a unit"
        );

        coordinator.stop();
        assert!(
            coordinator.run_to_completion().unwrap().is_none(),
            "a stopped campaign reports resumable, not finished"
        );
        assert!(checkpoint.exists(), "stop checkpointed the campaign");
        let port = addr.port();
        coordinator.shutdown();
        port
    };

    // Phase 2: restart on the same port from the checkpoint, with two real
    // workers; one of them is killed while the campaign runs.
    let coordinator = Coordinator::start_with_data(
        artifact_bytes(),
        data_spec(),
        config,
        Arc::new(TransientBitFlip),
        &CoordinatorConfig {
            listen: format!("127.0.0.1:{port}"),
            ..options
        },
    )
    .unwrap();
    let addr = coordinator.addr();
    assert_eq!(addr.port(), port, "coordinator rebinds its old port");
    let total_trials = coordinator
        .status()
        .get("total_trials")
        .and_then(JsonValue::as_f64)
        .expect("the status carries total_trials");
    assert!(
        total_trials >= merged_trials as f64,
        "restart resumed the two merged units from the checkpoint"
    );
    assert!(merged_trials > 0, "mortal merged at least one trial");

    let doomed_stop = Arc::new(AtomicBool::new(false));
    let spawn_worker = |id: &str, stop: &Arc<AtomicBool>| {
        let stop = Arc::clone(stop);
        let id = id.to_owned();
        std::thread::spawn(move || {
            run_worker_until(
                &WorkerConfig {
                    coordinator: addr.to_string(),
                    worker_id: id,
                    ..Default::default()
                },
                &stop,
            )
        })
    };
    let doomed = spawn_worker("doomed", &doomed_stop);
    let survivor = spawn_worker("survivor", &Arc::new(AtomicBool::new(false)));
    // Kill one worker while the campaign is (possibly still) running. Any
    // unit it held is handed to the survivor by straggler re-issue; if it
    // was mid-report the "stopped" error below is expected.
    std::thread::sleep(Duration::from_millis(20));
    doomed_stop.store(true, Ordering::SeqCst);

    let report = coordinator
        .run_to_completion()
        .unwrap()
        .expect("restarted campaign runs to completion");
    let _ = doomed.join().unwrap();
    survivor.join().unwrap().unwrap();
    coordinator.shutdown();

    assert_eq!(
        report, reference,
        "distributed + death + restart must be bit-identical to serial"
    );
    assert!(
        !checkpoint.exists(),
        "completion removes the checkpoint file"
    );
}

#[test]
fn distributed_with_worker_death_and_coordinator_restart_matches_serial() {
    death_and_restart_matches_serial(campaign_config(), "distributed-restart.ckpt");
}

/// The same fault-tolerance gauntlet under adaptive allocation: worker
/// death, lease abandonment and a coordinator restart must be invisible in
/// the neyman report too — its plans replay from pool state alone.
#[test]
fn neyman_distributed_with_worker_death_and_coordinator_restart_matches_serial() {
    death_and_restart_matches_serial(neyman_config(), "neyman-restart.ckpt");
}

/// Lease-machinery contract over the raw protocol: straggler re-issue,
/// expired-lease re-dispatch, idempotent duplicate completion and the 409
/// taxonomy — then the manually-driven campaign still matches serial.
#[test]
fn leases_redispatch_and_duplicates_are_idempotent() {
    let reference = serial_reference(&campaign_config());
    let coordinator = Coordinator::start_with_data(
        artifact_bytes(),
        data_spec(),
        campaign_config(),
        Arc::new(TransientBitFlip),
        &CoordinatorConfig {
            local_execute: false,
            unit_trials: 6,
            lease: Duration::from_millis(100),
            ..Default::default()
        },
    )
    .unwrap();
    let addr = coordinator.addr();
    let mut runner = make_runner(&campaign_config());

    // Worker `slow` leases every unit of round 0 and reports nothing.
    let mut held = Vec::new();
    while let Grant::Unit { unit, lease_ms } = fetch_unit(addr, "slow") {
        assert_eq!(lease_ms, 100);
        held.push(unit);
    }
    assert!(held.len() >= 2, "round 0 has several units, got {held:?}");

    // Straggler re-issue: with nothing pending, a second worker is handed
    // the earliest-deadline unit another worker holds — before it expires.
    let Grant::Unit { unit: reissued, .. } = fetch_unit(addr, "fast") else {
        panic!("straggler re-issue must grant a unit");
    };
    assert_eq!(reissued, held[0], "re-issue hands out the oldest lease");

    // `fast` completes it; the stale holder's duplicate is an idempotent
    // no-op answered from pool content.
    let result = execute(&mut runner, reissued, "fast").to_json();
    let fresh = call(addr, "POST", "/campaign/result", result.as_bytes());
    assert_eq!(fresh.status, 200);
    assert!(std::str::from_utf8(&fresh.body)
        .unwrap()
        .contains("\"fresh\":true"));
    let duplicate = execute(&mut runner, reissued, "slow").to_json();
    let stale = call(addr, "POST", "/campaign/result", duplicate.as_bytes());
    assert_eq!(stale.status, 200);
    assert!(std::str::from_utf8(&stale.body)
        .unwrap()
        .contains("\"fresh\":false"));

    // A result for a unit the coordinator never planned is a 409 — and not
    // fatal: the campaign keeps running.
    let mut bogus = execute(&mut runner, reissued, "fast");
    bogus.unit.id += 7;
    let rejected = call(addr, "POST", "/campaign/result", bogus.to_json().as_bytes());
    assert_eq!(rejected.status, 409);

    // Let the remaining `slow` leases expire, then drive the campaign to
    // completion as `fast`: every further grant is an expired-lease
    // re-dispatch until round 0 closes, then fresh rounds.
    std::thread::sleep(Duration::from_millis(150));
    loop {
        match fetch_unit(addr, "fast") {
            Grant::Done => break,
            Grant::Wait { retry_ms } => std::thread::sleep(Duration::from_millis(retry_ms.min(50))),
            Grant::Unit { unit, .. } => {
                let result = execute(&mut runner, unit, "fast").to_json();
                let response = call(addr, "POST", "/campaign/result", result.as_bytes());
                assert_eq!(response.status, 200);
            }
        }
    }

    let report = coordinator
        .run_to_completion()
        .unwrap()
        .expect("manually driven campaign finishes");
    coordinator.shutdown();
    assert_eq!(
        report, reference,
        "lease churn must be invisible in the report"
    );
}

/// Reduced-precision acceptance: the campaign over the f16-native artifact —
/// half-width words, f16 bit-class strata, native-encoding flips — is
/// bit-identical between the serial path, a solo coordinator, and a
/// coordinator feeding a real HTTP worker.
#[test]
fn f16_distributed_campaign_matches_serial() {
    let reference = {
        let artifact = ModelArtifact::from_bytes(&f16_artifact_bytes()).unwrap();
        let mut network = artifact.instantiate().unwrap();
        assert_eq!(network.precision(), Precision::F16, "artifact stores f16");
        let (inputs, targets) = data_spec().materialize().unwrap();
        fitact::assess_resilience(
            &mut network,
            &inputs,
            &targets,
            &campaign_config(),
            &TransientBitFlip,
        )
        .unwrap()
    };

    // Degradation floor in half precision: solo coordinator, no workers.
    let solo = Coordinator::start_with_data(
        f16_artifact_bytes(),
        data_spec(),
        campaign_config(),
        Arc::new(TransientBitFlip),
        &CoordinatorConfig {
            local_execute: true,
            ..Default::default()
        },
    )
    .unwrap();
    let solo_report = solo
        .run_to_completion()
        .unwrap()
        .expect("solo f16 coordinator finishes the campaign");
    solo.shutdown();
    assert_eq!(
        solo_report, reference,
        "f16 solo coordinator must match serial"
    );

    // The full protocol: every trial executed by a real HTTP worker that
    // pulled config, dataset spec and the f16 model from the coordinator.
    let coordinator = Coordinator::start_with_data(
        f16_artifact_bytes(),
        data_spec(),
        campaign_config(),
        Arc::new(TransientBitFlip),
        &CoordinatorConfig {
            local_execute: false,
            ..Default::default()
        },
    )
    .unwrap();
    let addr = coordinator.addr();
    let worker = std::thread::spawn(move || {
        run_worker_until(
            &WorkerConfig {
                coordinator: addr.to_string(),
                worker_id: "half".into(),
                ..Default::default()
            },
            &AtomicBool::new(false),
        )
    });
    let report = coordinator
        .run_to_completion()
        .unwrap()
        .expect("worker-driven f16 campaign finishes");
    worker.join().unwrap().unwrap();
    coordinator.shutdown();
    assert_eq!(
        report, reference,
        "f16 worker-executed campaign must be bit-identical to serial"
    );
}

/// Graceful interruption of the in-process engine (what the CLI's SIGTERM
/// path uses): stop after the first round, resume from the captured pools,
/// and the finished report is bit-identical to an uninterrupted run.
fn interrupt_resume_matches_uninterrupted(base: StatCampaignConfig) {
    let artifact = ModelArtifact::from_bytes(&artifact_bytes()).unwrap();
    let (inputs, targets) = data_spec().materialize().unwrap();
    // At least two rounds (min_trials > one round's worth), so the observer
    // is consulted after round one instead of the campaign finishing first.
    let config = StatCampaignConfig {
        min_trials: 36,
        ..base
    };
    let reference = {
        let mut network = artifact.instantiate().unwrap();
        fitact::assess_resilience(&mut network, &inputs, &targets, &config, &TransientBitFlip)
            .unwrap()
    };

    let mut network = artifact.instantiate().unwrap();
    quantize_network(&mut network);
    let outcome = Campaign::new(&mut network, &inputs, &targets)
        .unwrap()
        .run_until_resumable(&config, &TransientBitFlip, 1, None, &mut |_| {
            CampaignControl::Stop
        })
        .unwrap();
    let RunOutcome::Interrupted(progress) = outcome else {
        panic!("observer requested a stop after round one");
    };
    assert!(progress.total_trials() > 0, "one round of trials ran");

    // Resume in a fresh process-equivalent: new network, prior pools.
    let mut network = artifact.instantiate().unwrap();
    quantize_network(&mut network);
    let resumed = Campaign::new(&mut network, &inputs, &targets)
        .unwrap()
        .run_until_resumable(
            &config,
            &TransientBitFlip,
            1,
            Some(progress.pools),
            &mut |_| CampaignControl::Continue,
        )
        .unwrap();
    let RunOutcome::Finished(report) = resumed else {
        panic!("resumed campaign runs to completion");
    };
    assert_eq!(report, reference, "interrupt/resume must be invisible");
}

#[test]
fn interrupted_and_resumed_serial_campaign_matches_uninterrupted() {
    interrupt_resume_matches_uninterrupted(campaign_config());
}

/// Interrupt/resume under adaptive allocation: the resumed engine replans
/// every round from the captured pools, so the adaptive plans — which depend
/// on those very pools — must replay identically.
#[test]
fn neyman_interrupted_and_resumed_campaign_matches_uninterrupted() {
    interrupt_resume_matches_uninterrupted(neyman_config());
}

/// A checkpoint whose stratum-0 pool holds a trial no round of the
/// configuration schedules (index 1000) belongs to another campaign. The
/// coordinator refuses it at start, as the single-process resume refuses
/// the same pools, instead of counting the stray trial in its report.
#[test]
fn checkpoint_with_an_unscheduled_trial_is_refused_by_both_paths() {
    let config = campaign_config();
    let runner = make_runner(&config);
    let mut pools = vec![StratumPool::new(); runner.num_strata()];
    let stray = TrialPoint {
        accuracy: 0.0,
        faults: 1,
    };
    pools[0].insert(1000, stray).unwrap();
    let checkpoint = scratch_path("unscheduled.ckpt");
    CampaignCheckpoint::new(
        config.clone(),
        TransientBitFlip.name(),
        "mlp",
        fingerprint_bytes(&artifact_bytes()),
        runner.fault_free_accuracy(),
        pools.clone(),
        Vec::new(),
    )
    .save(&checkpoint)
    .unwrap();

    let started = Coordinator::start_with_data(
        artifact_bytes(),
        data_spec(),
        config.clone(),
        Arc::new(TransientBitFlip),
        &CoordinatorConfig {
            checkpoint: Some(checkpoint.clone()),
            ..Default::default()
        },
    );
    if let Ok(coordinator) = started {
        let report = coordinator.run_to_completion();
        coordinator.shutdown();
        let _ = std::fs::remove_file(&checkpoint);
        let trials = report.ok().flatten().map(|r| r.total_trials());
        panic!("the coordinator accepted the checkpoint and reported {trials:?} trials");
    }
    let _ = std::fs::remove_file(&checkpoint);

    let artifact = ModelArtifact::from_bytes(&artifact_bytes()).unwrap();
    let mut network = artifact.instantiate().unwrap();
    quantize_network(&mut network);
    let (inputs, targets) = data_spec().materialize().unwrap();
    let resumed = Campaign::new(&mut network, &inputs, &targets)
        .unwrap()
        .run_until_resumable(&config, &TransientBitFlip, 1, Some(pools), &mut |_| {
            CampaignControl::Continue
        });
    assert!(
        matches!(resumed, Err(FaultError::InvalidConfig(_))),
        "single-process resume must refuse the same pools, got {resumed:?}"
    );
}
