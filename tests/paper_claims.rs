//! The paper's central claim as an assertion rather than a printed number:
//! at an equal fault rate, a FitAct-protected model suffers fewer critical
//! silent data corruptions than the unprotected model it was built from,
//! while its fault-free accuracy stays within the post-training tolerance δ.
//!
//! The models and the campaign are those of `examples/quickstart.rs`, with a
//! tighter ε and a larger trial budget so that the two Wilson intervals
//! separate. `docs/deviations.md` records the measured rates.

use fitact::{FitAct, FitActConfig};
use fitact_data::{materialize, Blobs, BlobsConfig};
use fitact_faults::{quantize_network, Campaign, StatCampaignConfig, TransientBitFlip};
use fitact_nn::layers::{ActivationLayer, Linear, Sequential};
use fitact_nn::Network;
use rand::rngs::StdRng;
use rand::SeedableRng;

#[test]
fn fitact_has_fewer_critical_sdcs_than_unprotected_at_equal_fault_rate() {
    let mut rng = StdRng::seed_from_u64(0);
    let root = Sequential::new()
        .with(Box::new(Linear::new(8, 32, &mut rng)))
        .with(Box::new(ActivationLayer::relu("hidden", &[32])))
        .with(Box::new(Linear::new(32, 3, &mut rng)));
    let mut network = Network::new("quickstart-mlp", root);
    // Blobs centres derive from the seed, so both splits share it.
    let blobs = |samples| {
        let data = Blobs::new(BlobsConfig {
            samples,
            seed: 1,
            ..Default::default()
        })
        .expect("blobs config is valid");
        materialize(&data).expect("blobs materialize")
    };
    let (train_x, train_y) = blobs(384);
    let (test_x, test_y) = blobs(192);

    let fitact = FitAct::new(FitActConfig {
        post_train_epochs: 3,
        ..Default::default()
    });
    fitact
        .train_for_accuracy(&mut network, &train_x, &train_y, 20, 0.05)
        .expect("stage 1 trains");
    let mut unprotected = network.clone();
    quantize_network(&mut unprotected);
    let mut resilient = fitact
        .build_resilient(network, &train_x, &train_y)
        .expect("stage 2 post-trains");
    quantize_network(resilient.network_mut());

    let config = StatCampaignConfig {
        fault_rate: 2e-3,
        batch_size: 64,
        seed: 7,
        epsilon: 0.035,
        round_trials: 8,
        min_trials: 24,
        max_trials: 960,
        ..Default::default()
    };
    let unprotected = Campaign::new(&mut unprotected, &test_x, &test_y)
        .expect("unprotected model has parameters")
        .run_until(&config, &TransientBitFlip)
        .expect("unprotected campaign runs");
    let protected = Campaign::new(resilient.network_mut(), &test_x, &test_y)
        .expect("protected model has parameters")
        .run_until(&config, &TransientBitFlip)
        .expect("protected campaign runs");

    let (bare, fit) = (unprotected.pooled_critical(), protected.pooled_critical());
    for (label, report, ci) in [
        ("unprotected", &unprotected, bare),
        ("FitAct", &protected, fit),
    ] {
        eprintln!(
            "{label}: fault-free {:.4}, critical SDC {:.4} ({:.4}..{:.4}, {} trials)",
            report.fault_free_accuracy,
            ci.point(),
            ci.low,
            ci.high,
            report.total_trials(),
        );
    }
    assert!(
        fit.high < bare.low,
        "critical-SDC intervals overlap: FitAct {:.4}..{:.4} ({} trials), \
         unprotected {:.4}..{:.4} ({} trials)",
        fit.low,
        fit.high,
        protected.total_trials(),
        bare.low,
        bare.high,
        unprotected.total_trials(),
    );
    let delta = FitActConfig::default().delta;
    assert!(
        protected.fault_free_accuracy >= unprotected.fault_free_accuracy - delta,
        "FitAct fault-free accuracy {} is more than δ = {delta} below unprotected {}",
        protected.fault_free_accuracy,
        unprotected.fault_free_accuracy,
    );
}
