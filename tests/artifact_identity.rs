//! Save→load identity pinning (extends the `checkpoint_identity`-style
//! guarantees to persistence): a model reloaded from its artifact reproduces
//! the original's evaluation accuracy and fault-campaign results **exactly**,
//! for unprotected and protected models, under both campaign engines'
//! stopping rules.

mod common;

use fitact::{apply_protection, ActivationProfiler, ProtectionScheme};
use fitact_faults::{quantize_network, Campaign, CampaignConfig, StatCampaignConfig};
use fitact_io::{JsonValue, ModelArtifact};
use fitact_nn::{Mode, Network};

fn eval_data() -> (fitact_tensor::Tensor, Vec<usize>) {
    common::cnn_train_spec()
        .test()
        .with_samples(60)
        .materialize()
        .unwrap()
}

/// Round-trips `net` through an artifact and asserts bit-identical forward
/// outputs, evaluation accuracy, fixed-count campaign results and
/// statistical campaign reports.
fn assert_identity(mut net: Network, scheme: Option<ProtectionScheme>) {
    let (x, y) = eval_data();
    let artifact = ModelArtifact::capture_protected(&net, None, scheme).unwrap();
    let mut reloaded = ModelArtifact::from_bytes(&artifact.to_bytes())
        .unwrap()
        .instantiate()
        .unwrap();

    // Forward pass and evaluation are bit-identical.
    let want = net.forward(&x, Mode::Eval).unwrap();
    let got = reloaded.forward(&x, Mode::Eval).unwrap();
    assert_eq!(want, got, "forward outputs must be bit-identical");
    let acc_a = net.evaluate(&x, &y, 20).unwrap();
    let acc_b = reloaded.evaluate(&x, &y, 20).unwrap();
    assert_eq!(acc_a.to_bits(), acc_b.to_bits(), "accuracy must match");

    // Fixed-count campaign: identical per-trial accuracies and fault counts.
    let config = CampaignConfig {
        fault_rate: 1e-4,
        trials: 4,
        batch_size: 20,
        seed: 13,
    };
    let run_a = Campaign::new(&mut net, &x, &y)
        .unwrap()
        .run(&config)
        .unwrap();
    let run_b = Campaign::new(&mut reloaded, &x, &y)
        .unwrap()
        .run(&config)
        .unwrap();
    assert_eq!(run_a, run_b, "fixed-count campaign results must match");

    // Statistical campaign: identical stratified Wilson-CI reports.
    let stat = StatCampaignConfig {
        fault_rate: 1e-4,
        batch_size: 20,
        seed: 29,
        epsilon: 0.2,
        round_trials: 2,
        min_trials: 6,
        max_trials: 12,
        ..Default::default()
    };
    let report_a = Campaign::new(&mut net, &x, &y)
        .unwrap()
        .run_until(&stat, &fitact_faults::TransientBitFlip)
        .unwrap();
    let report_b = Campaign::new(&mut reloaded, &x, &y)
        .unwrap()
        .run_until(&stat, &fitact_faults::TransientBitFlip)
        .unwrap();
    assert_eq!(
        report_a, report_b,
        "statistical campaign reports must match"
    );
    assert_eq!(
        JsonValue::from(&report_a).to_string(),
        JsonValue::from(&report_b).to_string(),
        "JSON reports match"
    );
}

#[test]
fn unprotected_model_round_trips_with_identical_campaigns() {
    let mut net = common::trained_alexnet();
    quantize_network(&mut net);
    assert_identity(net, None);
}

#[test]
fn fitact_protected_model_round_trips_with_identical_campaigns() {
    let mut net = common::trained_alexnet();
    let (calib_x, _) = common::cnn_train_spec().materialize().unwrap();
    let profile = ActivationProfiler::new(20)
        .unwrap()
        .profile(&mut net, &calib_x)
        .unwrap();
    apply_protection(&mut net, &profile, ProtectionScheme::FitAct { slope: 8.0 }).unwrap();
    quantize_network(&mut net);
    assert_identity(net, Some(ProtectionScheme::FitAct { slope: 8.0 }));
}

#[test]
fn clipact_protected_model_round_trips_with_identical_campaigns() {
    let mut net = common::trained_alexnet();
    let (calib_x, _) = common::cnn_train_spec().materialize().unwrap();
    let profile = ActivationProfiler::new(20)
        .unwrap()
        .profile(&mut net, &calib_x)
        .unwrap();
    apply_protection(&mut net, &profile, ProtectionScheme::ClipAct).unwrap();
    quantize_network(&mut net);
    assert_identity(net, Some(ProtectionScheme::ClipAct));
}

/// The artifact preserves the protection state itself: scheme tag, profile
/// and per-neuron λ bounds reload exactly.
#[test]
fn protection_state_round_trips() {
    let mut net = common::trained_alexnet();
    let (calib_x, _) = common::cnn_train_spec().materialize().unwrap();
    let profile = ActivationProfiler::new(20)
        .unwrap()
        .profile(&mut net, &calib_x)
        .unwrap();
    let scheme = ProtectionScheme::FitAct { slope: 8.0 };
    apply_protection(&mut net, &profile, scheme).unwrap();
    let artifact = ModelArtifact::capture_protected(&net, Some(&profile), Some(scheme)).unwrap();
    let decoded = ModelArtifact::from_bytes(&artifact.to_bytes()).unwrap();
    assert_eq!(decoded.scheme, Some(scheme));
    assert_eq!(decoded.profile.as_ref(), Some(&profile));
    // λ bounds live in the `lambda` parameter tensors.
    let lambda_words: usize = decoded
        .params
        .iter()
        .filter(|p| p.path.ends_with("lambda"))
        .map(|p| p.data.len())
        .sum();
    assert_eq!(lambda_words, profile.total_neurons());
}
