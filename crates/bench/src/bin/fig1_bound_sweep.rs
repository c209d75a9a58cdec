//! Figure 1: accuracy of VGG16 on CIFAR-10 under faults, as a function of the
//! global activation bound (GBReLU) of the second layer.
//!
//! Reproduces the paper's motivating case study: faults are injected only into
//! the parameters of the input layer and the second (convolutional) layer,
//! GBReLU replaces the ReLU after the second layer, and its single global
//! bound λ is swept. Too large a bound lets faulty values through; too small a
//! bound destroys the fault-free accuracy — the tension that motivates
//! per-neuron bounds.
//!
//! The fault rate is scaled so the *expected number of bit flips* in the two
//! targeted layers matches what the paper's full-width VGG16 would see at
//! 1e-5 (see "Fault-rate scaling" in `docs/deviations.md`).

use fitact::BoundedRelu;
use fitact_bench::report::Table;
use fitact_bench::setup::{prepare_model, ExperimentScale};
use fitact_data::DatasetKind;
use fitact_faults::{Campaign, CampaignConfig, MemoryMap};
use fitact_nn::models::{
    Architecture, ModelConfig, VGG16_FIRST_CONV_PREFIX, VGG16_SECOND_ACT_SLOT,
    VGG16_SECOND_CONV_PREFIX,
};
use fitact_nn::ReLU;

/// The fault rate of the paper's Fig. 1 case study.
const PAPER_FAULT_RATE: f64 = 1e-5;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let scale = ExperimentScale::from_env();
    eprintln!(
        "[fig1] preparing VGG16 on synthetic CIFAR-10 at scale `{}` ...",
        scale.name
    );
    let prepared = prepare_model(Architecture::Vgg16, DatasetKind::Cifar10, &scale, 7)?;
    let baseline = prepared.baseline_accuracy;
    eprintln!(
        "[fig1] fault-free baseline accuracy: {:.2}%",
        100.0 * baseline
    );

    // Scale the fault rate so the expected flip count in the two targeted
    // layers matches the paper's full-width model at PAPER_FAULT_RATE.
    let layer_filter = |path: &str| {
        path.starts_with(&format!("{VGG16_FIRST_CONV_PREFIX}/"))
            || path.starts_with(&format!("{VGG16_SECOND_CONV_PREFIX}/"))
    };
    let full_width = Architecture::Vgg16.build(&ModelConfig::new(10))?;
    let full_bits = MemoryMap::of_network_filtered(&full_width, layer_filter).total_bits();
    let actual_bits = MemoryMap::of_network_filtered(&prepared.network, layer_filter).total_bits();
    let rate = PAPER_FAULT_RATE * full_bits as f64 / actual_bits as f64;
    eprintln!(
        "[fig1] targeted fault space: {actual_bits} bits (full-width: {full_bits}); effective rate {rate:.2e}"
    );

    // The second-layer activation maximum from calibration anchors the sweep.
    let layer_max = prepared.profile.slots[VGG16_SECOND_ACT_SLOT].layer_max;
    let sweep: Vec<f32> = (1..=16).map(|i| layer_max * i as f32 / 8.0).collect();

    let mut table = Table::new(
        format!(
            "Fig. 1 — VGG16/CIFAR-10 accuracy under faults vs global bound of layer 2 (baseline {:.2}%)",
            100.0 * baseline
        ),
        &["global_bound", "accuracy_under_fault_%", "fault_free_accuracy_%"],
    );

    for &bound in &sweep {
        let mut network = prepared.network.clone();
        {
            let mut slots = network.activation_slots();
            slots[VGG16_SECOND_ACT_SLOT].replace_activation(Box::new(BoundedRelu::clip_act(bound)));
        }
        // Fault-free accuracy with this bound installed (shows the accuracy
        // loss when the bound is too small).
        let fault_free = network.evaluate(
            &prepared.test_inputs,
            &prepared.test_labels,
            scale.batch_size,
        )?;
        let mut campaign = Campaign::with_layer_filter(
            &mut network,
            &prepared.test_inputs,
            &prepared.test_labels,
            layer_filter,
        )?;
        let result = campaign.run(&CampaignConfig {
            fault_rate: rate,
            trials: scale.trials,
            batch_size: scale.batch_size,
            seed: 11,
        })?;
        table.push_row(vec![
            format!("{bound:.3}"),
            format!("{:.2}", 100.0 * result.mean_accuracy()),
            format!("{:.2}", 100.0 * fault_free),
        ]);
        eprintln!(
            "[fig1] bound {bound:.3}: accuracy under fault {:.2}%, fault-free {:.2}%",
            100.0 * result.mean_accuracy(),
            100.0 * fault_free
        );
    }

    // Reference row: plain ReLU in the second slot (unbounded).
    {
        let mut network = prepared.network.clone();
        {
            let mut slots = network.activation_slots();
            slots[VGG16_SECOND_ACT_SLOT].replace_activation(Box::new(ReLU::new()));
        }
        let mut campaign = Campaign::with_layer_filter(
            &mut network,
            &prepared.test_inputs,
            &prepared.test_labels,
            layer_filter,
        )?;
        let result = campaign.run(&CampaignConfig {
            fault_rate: rate,
            trials: scale.trials,
            batch_size: scale.batch_size,
            seed: 11,
        })?;
        table.push_row(vec![
            "unbounded".into(),
            format!("{:.2}", 100.0 * result.mean_accuracy()),
            format!("{:.2}", 100.0 * baseline),
        ]);
    }

    println!("{}", table.to_pretty_string());
    let path = table.write_csv("fig1_bound_sweep.csv")?;
    println!("series written to {}", path.display());
    Ok(())
}
