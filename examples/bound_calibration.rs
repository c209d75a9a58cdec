//! Bound calibration study: why one global bound per layer is not enough.
//!
//! ```bash
//! cargo run --release --example bound_calibration
//! ```
//!
//! Reproduces the reasoning behind the paper's Figs. 1–2 on a small scale: it
//! profiles the per-neuron activation maxima of a trained network, prints
//! their spread, and then shows how sweeping a single global bound trades
//! fault-free accuracy against fault coverage, while per-neuron bounds avoid
//! the trade-off.

use fitact::{apply_protection, ActivationProfiler, BoundedRelu, ProtectionScheme};
use fitact_data::{materialize, Blobs, BlobsConfig};
use fitact_faults::{quantize_network, Campaign, CampaignConfig};
use fitact_nn::layers::{ActivationLayer, Linear, Sequential};
use fitact_nn::loss::CrossEntropyLoss;
use fitact_nn::optim::Sgd;
use fitact_nn::Network;
use rand::rngs::StdRng;
use rand::SeedableRng;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // Train a small MLP.
    let mut rng = StdRng::seed_from_u64(5);
    let root = Sequential::new()
        .with(Box::new(Linear::new(8, 48, &mut rng)))
        .with(Box::new(ActivationLayer::relu("hidden", &[48])))
        .with(Box::new(Linear::new(48, 3, &mut rng)));
    let mut network = Network::new("calibration-mlp", root);
    let train = Blobs::new(BlobsConfig {
        samples: 384,
        seed: 8,
        ..Default::default()
    })?;
    let test = Blobs::new(BlobsConfig {
        samples: 192,
        // Same seed as the training set (Blobs centres derive from the
        // seed); the comparison measures resilience, not generalisation.
        seed: 8,
        ..Default::default()
    })?;
    let (train_x, train_y) = materialize(&train)?;
    let (test_x, test_y) = materialize(&test)?;
    let loss = CrossEntropyLoss::new();
    let mut opt = Sgd::with_momentum(0.05, 0.9, 0.0);
    for _ in 0..60 {
        network.train_batch(&train_x, &train_y, &loss, &mut opt)?;
    }
    quantize_network(&mut network);
    let baseline = network.evaluate(&test_x, &test_y, 64)?;
    println!("fault-free accuracy: {:.1}%", 100.0 * baseline);

    // Profile the per-neuron maxima of the hidden layer (the data of Fig. 2).
    let profile = ActivationProfiler::new(64)?.profile(&mut network, &train_x)?;
    let slot = &profile.slots[0];
    let min = slot
        .per_neuron_max
        .iter()
        .copied()
        .fold(f32::INFINITY, f32::min);
    println!(
        "hidden-layer neuron maxima: min {:.2}, max {:.2} ({} neurons) — a single bound cannot fit all of them",
        min,
        slot.layer_max,
        slot.num_neurons()
    );
    println!("density histogram of the per-neuron maxima (Fig. 2 analogue):");
    for (center, density) in slot.histogram(8) {
        let bar = "#".repeat((density * 20.0).round() as usize);
        println!("  {center:6.2}  {density:6.3}  {bar}");
    }

    // Sweep a single global bound on the hidden layer (Fig. 1 analogue).
    let fault_rate = 2e-3;
    let campaign_config = CampaignConfig {
        fault_rate,
        trials: 12,
        batch_size: 64,
        seed: 4,
    };
    println!();
    println!("global-bound sweep at fault rate {fault_rate:.0e}:");
    println!(
        "  {:>8}  {:>18}  {:>18}",
        "bound", "fault-free acc (%)", "acc under fault (%)"
    );
    for step in 1..=8 {
        let bound = slot.layer_max * step as f32 / 4.0;
        let mut candidate = network.clone();
        candidate.activation_slots()[0].replace_activation(Box::new(BoundedRelu::clip_act(bound)));
        let fault_free = candidate.evaluate(&test_x, &test_y, 64)?;
        let result = Campaign::new(&mut candidate, &test_x, &test_y)?.run(&campaign_config)?;
        println!(
            "  {:>8.2}  {:>18.1}  {:>18.1}",
            bound,
            100.0 * fault_free,
            100.0 * result.mean_accuracy()
        );
    }

    // Per-neuron bounds (FitAct's granularity) get both at once.
    let mut per_neuron = network.clone();
    apply_protection(&mut per_neuron, &profile, ProtectionScheme::FitActNaive)?;
    let fault_free = per_neuron.evaluate(&test_x, &test_y, 64)?;
    let result = Campaign::new(&mut per_neuron, &test_x, &test_y)?.run(&campaign_config)?;
    println!(
        "  per-neuron bounds: fault-free {:.1}%, under fault {:.1}%",
        100.0 * fault_free,
        100.0 * result.mean_accuracy()
    );
    Ok(())
}
