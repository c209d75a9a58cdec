//! Criterion bench behind Table I's runtime columns: single-image inference
//! latency of each architecture with plain ReLU and with FitAct activations.
//!
//! The width multiplier is kept small so the bench suite completes quickly;
//! the relative ReLU-vs-FitAct overhead is what matters and is
//! width-independent to first order (it is per-activation work).

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use fitact::{apply_protection, ActivationProfile, ProtectionScheme, SlotProfile};
use fitact_nn::models::{Architecture, ModelConfig};
use fitact_nn::{Mode, Network};
use fitact_tensor::Tensor;

fn unit_profile(network: &mut Network) -> ActivationProfile {
    ActivationProfile {
        slots: network
            .activation_slots()
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

fn bench_inference(c: &mut Criterion) {
    let mut group = c.benchmark_group("table1_inference");
    group.sample_size(10);
    let input = Tensor::zeros(&[1, 3, 32, 32]);

    for architecture in Architecture::ALL {
        let config = ModelConfig::new(10).with_width(0.0626).with_seed(0);
        let mut relu_net = architecture.build(&config).expect("model builds");
        let profile = unit_profile(&mut relu_net);
        let mut fitact_net = relu_net.clone();
        apply_protection(
            &mut fitact_net,
            &profile,
            ProtectionScheme::FitAct { slope: 8.0 },
        )
        .expect("protection applies");

        group.bench_with_input(
            BenchmarkId::new("relu", architecture.name()),
            &(),
            |b, ()| {
                b.iter(|| relu_net.forward(&input, Mode::Infer).expect("forward"));
            },
        );
        group.bench_with_input(
            BenchmarkId::new("fitact", architecture.name()),
            &(),
            |b, ()| {
                b.iter(|| fitact_net.forward(&input, Mode::Infer).expect("forward"));
            },
        );
    }
    group.finish();
}

criterion_group!(benches, bench_inference);
criterion_main!(benches);
