//! Table I: inference runtime and memory-space overheads of FitAct versus
//! plain ReLU for ResNet50, VGG16 and AlexNet on CIFAR-10 and CIFAR-100.
//!
//! Memory is computed analytically from the parameter inventory of the
//! full-width models (Q15.16 words: weights, biases, batch-norm tensors, plus
//! one λ per neuron for FitAct). Runtime is the measured wall-clock of a
//! single-image forward pass of this crate's inference engine; absolute
//! milliseconds differ from the paper's GPU numbers, but the relative
//! overhead column is produced by the same mechanism (extra sigmoid/compare
//! work per activation). Criterion-based timing lives in
//! `benches/table1_inference_overhead.rs`.

use fitact::ActivationProfile;
use fitact::{apply_protection, MemoryModel, ProtectionScheme, SlotProfile};
use fitact_bench::report::Table;
use fitact_bench::setup::ExperimentScale;
use fitact_data::DatasetKind;
use fitact_nn::models::{Architecture, ModelConfig};
use fitact_nn::{Mode, Network};
use fitact_tensor::Tensor;
use std::time::Instant;

/// Builds a unit-bound activation profile (runtime and memory do not depend on
/// the bound values, only on their count).
fn unit_profile(network: &mut Network) -> ActivationProfile {
    let slots = network.activation_slots();
    ActivationProfile {
        slots: slots
            .into_iter()
            .map(|slot| SlotProfile {
                label: slot.label().to_owned(),
                feature_shape: slot.feature_shape().to_vec(),
                per_neuron_max: vec![1.0; slot.num_neurons()],
                layer_max: 1.0,
            })
            .collect(),
    }
}

/// Median wall-clock of a single-image forward pass, in milliseconds.
fn forward_ms(network: &mut Network, reps: usize) -> Result<f64, Box<dyn std::error::Error>> {
    let input = Tensor::zeros(&[1, 3, 32, 32]);
    // Warm-up.
    network.forward(&input, Mode::Infer)?;
    let mut times = Vec::with_capacity(reps);
    for _ in 0..reps {
        let start = Instant::now();
        network.forward(&input, Mode::Infer)?;
        times.push(start.elapsed().as_secs_f64() * 1e3);
    }
    times.sort_by(|a, b| a.partial_cmp(b).unwrap_or(std::cmp::Ordering::Equal));
    Ok(times[times.len() / 2])
}

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let scale = ExperimentScale::from_env();
    // Memory is reported for the full-width architectures (as in the paper);
    // runtime is measured at the experiment width so the binary stays fast.
    let runtime_width = scale.width.max(0.125);
    let reps = 5;

    let mut table = Table::new(
        "Table I — runtime and memory overheads of FitAct vs ReLU",
        &[
            "dataset",
            "model",
            "relu_runtime_ms",
            "fitact_runtime_ms",
            "runtime_overhead_%",
            "relu_memory_mb",
            "fitact_memory_mb",
            "memory_overhead_%",
        ],
    );

    for kind in DatasetKind::ALL {
        for architecture in Architecture::ALL {
            // --- Memory (full-width models). ---
            let full_config = ModelConfig::new(kind.classes());
            let mut full = architecture.build(&full_config)?;
            let base_memory = MemoryModel::of_network(&full);
            let profile = unit_profile(&mut full);
            apply_protection(&mut full, &profile, ProtectionScheme::FitAct { slope: 8.0 })?;
            let fitact_memory = MemoryModel::of_network(&full);
            drop(full);

            // --- Runtime (width-scaled models, single image). ---
            let small_config = ModelConfig::new(kind.classes())
                .with_width(runtime_width)
                .with_seed(1);
            let mut relu_net = architecture.build(&small_config)?;
            let relu_ms = forward_ms(&mut relu_net, reps)?;
            let profile = unit_profile(&mut relu_net);
            let mut fitact_net = relu_net.clone();
            apply_protection(
                &mut fitact_net,
                &profile,
                ProtectionScheme::FitAct { slope: 8.0 },
            )?;
            let fitact_ms = forward_ms(&mut fitact_net, reps)?;

            let runtime_overhead = 100.0 * (fitact_ms - relu_ms) / relu_ms;
            table.push_row(vec![
                kind.name().into(),
                architecture.name().into(),
                format!("{relu_ms:.3}"),
                format!("{fitact_ms:.3}"),
                format!("{runtime_overhead:.2}"),
                format!("{:.2}", base_memory.total_mb()),
                format!("{:.2}", fitact_memory.total_mb()),
                format!("{:.2}", fitact_memory.overhead_percent()),
            ]);
            eprintln!(
                "[table1] {kind}/{architecture}: runtime {relu_ms:.2} → {fitact_ms:.2} ms ({runtime_overhead:.1}%), \
                 memory {:.1} → {:.1} MB ({:.2}%)",
                base_memory.total_mb(),
                fitact_memory.total_mb(),
                fitact_memory.overhead_percent()
            );
        }
    }

    println!("{}", table.to_pretty_string());
    let path = table.write_csv("table1_overheads.csv")?;
    println!("series written to {}", path.display());
    Ok(())
}
