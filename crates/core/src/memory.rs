//! Parameter-memory model behind the paper's Table I overhead numbers.

use fitact_nn::Network;

/// Bytes per stored parameter word (32-bit fixed point).
pub const BYTES_PER_WORD: usize = 4;

/// A breakdown of a network's parameter memory into the base model (Θ_A plus
/// batch-norm buffers) and the activation-bound storage added by FitAct (Θ_R).
///
/// The paper's Table I reports the total model memory with plain ReLU and with
/// FitAct, and the relative overhead; this model reproduces those columns from
/// the parameter inventory of the network.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MemoryModel {
    /// Number of scalar parameters that belong to the base model.
    pub base_words: usize,
    /// Number of scalar activation-bound parameters (λ values).
    pub bound_words: usize,
}

impl MemoryModel {
    /// Builds the memory model of a network by classifying its parameters:
    /// everything named `lambda` is bound storage, the rest is the base model.
    pub fn of_network(network: &Network) -> Self {
        let mut base_words = 0usize;
        let mut bound_words = 0usize;
        for info in network.param_info() {
            if info.path.ends_with("lambda") {
                bound_words += info.numel;
            } else {
                base_words += info.numel;
            }
        }
        MemoryModel {
            base_words,
            bound_words,
        }
    }

    /// Memory of the base model in bytes.
    pub fn base_bytes(&self) -> usize {
        self.base_words * BYTES_PER_WORD
    }

    /// Memory of the activation bounds in bytes.
    pub fn bound_bytes(&self) -> usize {
        self.bound_words * BYTES_PER_WORD
    }

    /// Total memory in bytes.
    pub fn total_bytes(&self) -> usize {
        self.base_bytes() + self.bound_bytes()
    }

    /// Total memory in megabytes (10⁶ bytes, as in the paper's Table I).
    pub fn total_mb(&self) -> f64 {
        self.total_bytes() as f64 / 1.0e6
    }

    /// Memory of the base model in megabytes.
    pub fn base_mb(&self) -> f64 {
        self.base_bytes() as f64 / 1.0e6
    }

    /// Relative memory overhead of the bounds over the base model, in percent
    /// (the "O/H" column of Table I).
    pub fn overhead_percent(&self) -> f64 {
        if self.base_words == 0 {
            0.0
        } else {
            100.0 * self.bound_bytes() as f64 / self.base_bytes() as f64
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::calibration::ActivationProfiler;
    use crate::protect::{apply_protection, ProtectionScheme};
    use fitact_nn::layers::{ActivationLayer, Conv2d, Flatten, Linear, Sequential};
    use fitact_tensor::init;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn mlp() -> Network {
        let mut rng = StdRng::seed_from_u64(0);
        Network::new(
            "mlp",
            Sequential::new()
                .with(Box::new(Linear::new(10, 20, &mut rng)))
                .with(Box::new(ActivationLayer::relu("h", &[20])))
                .with(Box::new(Linear::new(20, 5, &mut rng))),
        )
    }

    #[test]
    fn unprotected_network_has_no_bound_memory() {
        let net = mlp();
        let model = MemoryModel::of_network(&net);
        // 10*20 + 20 + 20*5 + 5 = 325 words.
        assert_eq!(model.base_words, 325);
        assert_eq!(model.bound_words, 0);
        assert_eq!(model.total_bytes(), 325 * 4);
        assert_eq!(model.overhead_percent(), 0.0);
        assert!((model.total_mb() - 325.0 * 4.0 / 1e6).abs() < 1e-12);
    }

    /// A convolution slot of 3 channels × 4×4 (48 neurons) and a dense slot
    /// of 10 neurons; 602 base words.
    fn conv_net() -> Network {
        let mut rng = StdRng::seed_from_u64(0);
        Network::new(
            "conv",
            Sequential::new()
                .with(Box::new(Conv2d::new(2, 3, 3, 1, 1, &mut rng)))
                .with(Box::new(ActivationLayer::relu("c", &[3, 4, 4])))
                .with(Box::new(Flatten::new()))
                .with(Box::new(Linear::new(48, 10, &mut rng)))
                .with(Box::new(ActivationLayer::relu("h", &[10])))
                .with(Box::new(Linear::new(10, 5, &mut rng))),
        )
    }

    #[test]
    fn fitact_adds_exactly_one_word_per_neuron() {
        let mut net = conv_net();
        let mut rng = StdRng::seed_from_u64(1);
        let inputs = init::uniform(&[16, 2, 4, 4], -1.0, 1.0, &mut rng);
        let profile = ActivationProfiler::new(8)
            .unwrap()
            .profile(&mut net, &inputs)
            .unwrap();
        // Layer bounds are constants, not `lambda` parameters, so they add no
        // word to Table I (or to the fault space). Channel bounds add one
        // word per channel (3 + 10), neuron bounds one per neuron (48 + 10).
        for (scheme, bound_words) in [
            (ProtectionScheme::Unprotected, 0),
            (ProtectionScheme::ClipAct, 0),
            (ProtectionScheme::Ranger, 0),
            (ProtectionScheme::ClipActPerChannel, 13),
            (ProtectionScheme::FitAct { slope: 8.0 }, 58),
            (ProtectionScheme::FitActNaive, 58),
        ] {
            let mut protected = net.clone();
            apply_protection(&mut protected, &profile, scheme).unwrap();
            let model = MemoryModel::of_network(&protected);
            assert_eq!(model.base_words, 602, "{scheme}");
            assert_eq!(model.bound_words, bound_words, "{scheme}");
            let expected_overhead = 100.0 * bound_words as f64 / 602.0;
            assert!(
                (model.overhead_percent() - expected_overhead).abs() < 1e-9,
                "{scheme}"
            );
            assert_eq!(
                model.total_bytes() > model.base_bytes(),
                bound_words > 0,
                "{scheme}"
            );
            assert_eq!(
                model.base_mb() < model.total_mb(),
                bound_words > 0,
                "{scheme}"
            );
        }
    }

    #[test]
    fn zero_base_model_reports_zero_overhead() {
        let model = MemoryModel {
            base_words: 0,
            bound_words: 10,
        };
        assert_eq!(model.overhead_percent(), 0.0);
    }
}
