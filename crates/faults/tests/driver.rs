//! The campaign driver is the one round loop: fed trial by trial from a
//! [`UnitRunner`], in any order, it reproduces the in-process campaign's
//! report bit for bit; rebuilt from the pools of a half-merged round it
//! finishes the same campaign; and it answers duplicates, conflicts and
//! unscheduled trials with typed outcomes.

use fitact_faults::{
    quantize_network, AllocationPolicy, Campaign, CampaignDriver, CampaignReport, FaultError,
    FaultModel, StatCampaignConfig, StratumPool, StratumSpec, TransientBitFlip, TrialPoint,
    TrialSpec, UnitRunner,
};
use fitact_nn::layers::{ActivationLayer, Linear, Sequential};
use fitact_nn::loss::CrossEntropyLoss;
use fitact_nn::optim::Sgd;
use fitact_nn::Network;
use fitact_tensor::{init, Tensor};
use rand::rngs::StdRng;
use rand::SeedableRng;

/// A small trained, quantized MLP on a separable 2-D problem, plus its
/// evaluation set.
fn trained_setup() -> (Network, Tensor, Vec<usize>) {
    let mut rng = StdRng::seed_from_u64(0);
    let root = Sequential::new()
        .with(Box::new(Linear::new(2, 16, &mut rng)))
        .with(Box::new(ActivationLayer::relu("h", &[16])))
        .with(Box::new(Linear::new(16, 2, &mut rng)));
    let mut net = Network::new("mlp", root);
    let inputs = init::uniform(&[128, 2], -1.0, 1.0, &mut rng);
    let targets: Vec<usize> = (0..128)
        .map(|i| {
            let row = &inputs.as_slice()[i * 2..(i + 1) * 2];
            usize::from(row[0] > row[1])
        })
        .collect();
    let loss = CrossEntropyLoss::new();
    let mut opt = Sgd::with_momentum(0.1, 0.9, 0.0);
    for _ in 0..40 {
        net.train_batch(&inputs, &targets, &loss, &mut opt).unwrap();
    }
    quantize_network(&mut net);
    (net, inputs, targets)
}

/// Several rounds of 12 trials over the bit-class strata.
fn config(allocation: AllocationPolicy) -> StatCampaignConfig {
    StatCampaignConfig {
        fault_rate: 2e-3,
        batch_size: 64,
        seed: 21,
        epsilon: 0.08,
        confidence: 0.95,
        critical_threshold: 0.05,
        round_trials: 4,
        min_trials: 12,
        max_trials: 96,
        strata: StratumSpec::by_bit_class(),
        allocation,
        ..Default::default()
    }
}

const POLICIES: [AllocationPolicy; 2] = [AllocationPolicy::Equal, AllocationPolicy::Neyman];

/// The in-process campaign on one thread: the reference report.
fn reference(config: &StatCampaignConfig) -> CampaignReport {
    let (mut net, inputs, targets) = trained_setup();
    Campaign::new(&mut net, &inputs, &targets)
        .unwrap()
        .run_until_with_threads(config, &TransientBitFlip, 1)
        .unwrap()
}

fn runner_and_driver(config: &StatCampaignConfig) -> (UnitRunner, CampaignDriver) {
    let (net, inputs, targets) = trained_setup();
    let runner = UnitRunner::new(net, inputs, targets, config, 1).unwrap();
    let driver = CampaignDriver::new(
        config,
        TransientBitFlip.name(),
        runner.fault_free_accuracy(),
        runner.sampler(),
        None,
    )
    .unwrap();
    (runner, driver)
}

fn run_trial(runner: &mut UnitRunner, trial: TrialSpec) -> TrialPoint {
    runner
        .run_unit(&TransientBitFlip, trial.stratum, trial.index, 1)
        .unwrap()[0]
}

/// Merges every open round's trials one at a time, highest index first,
/// and checks that a round closes exactly with its last trial.
fn finish_in_reverse(runner: &mut UnitRunner, driver: &mut CampaignDriver) -> CampaignReport {
    while !driver.is_finished() {
        let round = driver.round();
        let mut trials: Vec<TrialSpec> = driver
            .open_round()
            .iter()
            .copied()
            .filter(|t| !driver.pools()[t.stratum].contains(t.index as u64))
            .collect();
        trials.sort_by_key(|t| std::cmp::Reverse((t.index, t.stratum)));
        for trial in trials {
            assert_eq!(driver.round(), round, "a round closes with its last trial");
            assert!(driver.report().is_none(), "no report before the finish");
            let point = run_trial(runner, trial);
            assert!(driver.merge(trial, point).unwrap(), "{trial:?} is fresh");
        }
        assert_eq!(driver.round(), round + 1, "the last trial closes the round");
    }
    driver.report().expect("a finished driver reports")
}

#[test]
fn a_driver_fed_trial_by_trial_in_reverse_matches_the_campaign() {
    for allocation in POLICIES {
        let config = config(allocation);
        let (mut runner, mut driver) = runner_and_driver(&config);
        let report = finish_in_reverse(&mut runner, &mut driver);
        assert!(
            report.rounds >= 2,
            "{allocation:?}: the campaign spans rounds"
        );
        assert_eq!(report, reference(&config), "{allocation:?}");
    }
}

#[test]
fn a_driver_rebuilt_from_a_half_merged_round_finishes_the_same_campaign() {
    for allocation in POLICIES {
        let config = config(allocation);
        let (mut runner, mut driver) = runner_and_driver(&config);
        // Close round 0, then merge half of round 1.
        for trial in driver.open_round().to_vec() {
            let point = run_trial(&mut runner, trial);
            driver.merge(trial, point).unwrap();
        }
        assert_eq!(driver.round(), 1);
        let open = driver.open_round().to_vec();
        for &trial in &open[..open.len() / 2] {
            let point = run_trial(&mut runner, trial);
            driver.merge(trial, point).unwrap();
        }
        assert_eq!(driver.round(), 1, "half a round does not close it");

        let mut resumed = CampaignDriver::new(
            &config,
            TransientBitFlip.name(),
            runner.fault_free_accuracy(),
            runner.sampler(),
            Some(driver.pools().to_vec()),
        )
        .unwrap();
        assert_eq!(resumed.round(), 1, "{allocation:?}: round 0 replays");
        assert_eq!(resumed.open_round(), &open[..], "{allocation:?}");
        let report = finish_in_reverse(&mut runner, &mut resumed);
        assert_eq!(report, reference(&config), "{allocation:?}");
    }
}

#[test]
fn merges_and_resumes_answer_with_typed_outcomes() {
    let config = config(AllocationPolicy::Equal);
    let (mut runner, mut driver) = runner_and_driver(&config);
    let trial = driver.open_round()[0];
    let point = run_trial(&mut runner, trial);
    assert!(driver.merge(trial, point).unwrap(), "a new point is fresh");
    assert!(
        !driver.merge(trial, point).unwrap(),
        "a bit-identical duplicate merges as Ok(false)"
    );
    let other = TrialPoint {
        accuracy: f32::from_bits(point.accuracy.to_bits() ^ 1),
        ..point
    };
    assert!(matches!(
        driver.merge(trial, other),
        Err(FaultError::TrialConflict { index }) if index == trial.index as u64
    ));
    for unscheduled in [
        TrialSpec {
            stratum: 0,
            index: 1000,
        },
        TrialSpec {
            stratum: runner.num_strata(),
            index: 0,
        },
    ] {
        assert!(
            matches!(
                driver.merge(unscheduled, point),
                Err(FaultError::InvalidConfig(_))
            ),
            "{unscheduled:?}"
        );
    }

    let resume = |pools: Vec<StratumPool>| {
        CampaignDriver::new(
            &config,
            TransientBitFlip.name(),
            runner.fault_free_accuracy(),
            runner.sampler(),
            Some(pools),
        )
    };
    assert!(matches!(
        resume(vec![StratumPool::new(); runner.num_strata() - 1]),
        Err(FaultError::InvalidConfig(_))
    ));
    let mut stray = driver.pools().to_vec();
    stray[0].insert(1000, point).unwrap();
    assert!(matches!(resume(stray), Err(FaultError::InvalidConfig(_))));
    assert!(resume(driver.pools().to_vec()).is_ok());
}
