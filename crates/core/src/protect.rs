//! Applying protection schemes to a trained network.

use crate::activations::{BoundedRelu, FitRelu, DEFAULT_SLOPE};
use crate::calibration::ActivationProfile;
use crate::FitActError;
use fitact_nn::{Network, ReLU};

/// Floor applied to calibrated bounds so that a neuron that never fired during
/// calibration is not forced to output exactly zero forever.
pub const BOUND_FLOOR: f32 = 1e-3;

/// The protection schemes compared in the paper's evaluation (Figs. 5/6 and
/// Table I).
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum ProtectionScheme {
    /// Plain ReLU — no protection.
    Unprotected,
    /// Ranger: one bound per layer, out-of-range values truncated to the bound.
    Ranger,
    /// Clip-Act: one bound per layer, out-of-range values squashed to zero
    /// (GBReLU, paper Eq. 4).
    ClipAct,
    /// Ablation granularity between Clip-Act and FitAct: one bound per
    /// channel, out-of-range values squashed to zero.
    ClipActPerChannel,
    /// FitAct: one trainable bound per neuron, smooth squash (paper Eq. 6).
    FitAct {
        /// Slope coefficient `k` of the sigmoid gate.
        slope: f32,
    },
    /// FitAct deployed with the hard per-neuron clamp of Eq. 5 (an inference
    /// variant: exact cutoff, no exponentials).
    FitActNaive,
}

impl ProtectionScheme {
    /// The four schemes of the paper's comparison, in plot order.
    pub fn paper_schemes() -> [ProtectionScheme; 4] {
        [
            ProtectionScheme::FitAct {
                slope: DEFAULT_SLOPE,
            },
            ProtectionScheme::ClipAct,
            ProtectionScheme::Ranger,
            ProtectionScheme::Unprotected,
        ]
    }

    /// Short name used in tables and CSV output.
    pub fn name(&self) -> &'static str {
        match self {
            ProtectionScheme::Unprotected => "unprotected",
            ProtectionScheme::Ranger => "ranger",
            ProtectionScheme::ClipAct => "clipact",
            ProtectionScheme::ClipActPerChannel => "clipact_per_channel",
            ProtectionScheme::FitAct { .. } => "fitact",
            ProtectionScheme::FitActNaive => "fitact_naive",
        }
    }

    /// Whether this scheme adds per-neuron bound parameters to the model.
    pub fn has_per_neuron_bounds(&self) -> bool {
        matches!(
            self,
            ProtectionScheme::FitAct { .. } | ProtectionScheme::FitActNaive
        )
    }

    /// Encodes the scheme as a stable `(tag, slope)` pair for on-disk
    /// artifacts. The slope is meaningful only for `FitAct` (0 otherwise);
    /// tags are append-only across format versions.
    pub fn to_tag(&self) -> (u8, f32) {
        match self {
            ProtectionScheme::Unprotected => (0, 0.0),
            ProtectionScheme::Ranger => (1, 0.0),
            ProtectionScheme::ClipAct => (2, 0.0),
            ProtectionScheme::ClipActPerChannel => (3, 0.0),
            ProtectionScheme::FitAct { slope } => (4, *slope),
            ProtectionScheme::FitActNaive => (5, 0.0),
        }
    }

    /// Decodes a `(tag, slope)` pair written by [`ProtectionScheme::to_tag`];
    /// returns `None` for an unknown tag.
    pub fn from_tag(tag: u8, slope: f32) -> Option<ProtectionScheme> {
        match tag {
            0 => Some(ProtectionScheme::Unprotected),
            1 => Some(ProtectionScheme::Ranger),
            2 => Some(ProtectionScheme::ClipAct),
            3 => Some(ProtectionScheme::ClipActPerChannel),
            4 => Some(ProtectionScheme::FitAct { slope }),
            5 => Some(ProtectionScheme::FitActNaive),
            _ => None,
        }
    }
}

impl std::fmt::Display for ProtectionScheme {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// Replaces every activation slot of `network` according to `scheme`, using
/// the calibrated activation maxima in `profile`.
///
/// * `Unprotected` installs plain ReLU,
/// * `Ranger` / `ClipAct` install one layer-wide bound (the slot's maximum),
/// * `FitAct` / `FitActNaive` install one bound per neuron (the neuron's
///   maximum, floored at [`BOUND_FLOOR`]).
///
/// # Errors
///
/// Returns [`FitActError::ProfileMismatch`] if the profile was taken from a
/// network with a different activation-slot structure.
pub fn apply_protection(
    network: &mut Network,
    profile: &ActivationProfile,
    scheme: ProtectionScheme,
) -> Result<(), FitActError> {
    let slots = network.activation_slots();
    if slots.len() != profile.slots.len() {
        return Err(FitActError::ProfileMismatch(format!(
            "network has {} activation slots but the profile has {}",
            slots.len(),
            profile.slots.len()
        )));
    }
    for (slot, slot_profile) in slots.into_iter().zip(&profile.slots) {
        if slot.num_neurons() != slot_profile.num_neurons() {
            return Err(FitActError::ProfileMismatch(format!(
                "slot `{}` has {} neurons but the profile records {}",
                slot.label(),
                slot.num_neurons(),
                slot_profile.num_neurons()
            )));
        }
        let layer_bound = slot_profile.layer_max.max(BOUND_FLOOR);
        match scheme {
            ProtectionScheme::Unprotected => {
                slot.replace_activation(Box::new(ReLU::new()));
            }
            ProtectionScheme::Ranger => {
                slot.replace_activation(Box::new(BoundedRelu::ranger(layer_bound)));
            }
            ProtectionScheme::ClipAct => {
                slot.replace_activation(Box::new(BoundedRelu::clip_act(layer_bound)));
            }
            ProtectionScheme::ClipActPerChannel => {
                // One bound per leading feature dimension (the channel for
                // conv feature maps, the neuron itself for dense layers).
                let channels = slot_profile
                    .feature_shape
                    .first()
                    .copied()
                    .unwrap_or(1)
                    .max(1);
                let plane = (slot_profile.num_neurons() / channels).max(1);
                let mut bounds = vec![BOUND_FLOOR; channels];
                for (i, &v) in slot_profile.per_neuron_max.iter().enumerate() {
                    let channel = (i / plane).min(channels - 1);
                    bounds[channel] = bounds[channel].max(v);
                }
                slot.replace_activation(Box::new(BoundedRelu::per_channel(&bounds, plane)));
            }
            ProtectionScheme::FitAct { slope } => {
                let bounds = floored_bounds(&slot_profile.per_neuron_max);
                slot.replace_activation(Box::new(FitRelu::from_bounds(&bounds, slope)));
            }
            ProtectionScheme::FitActNaive => {
                let bounds = floored_bounds(&slot_profile.per_neuron_max);
                slot.replace_activation(Box::new(BoundedRelu::per_neuron(&bounds)));
            }
        }
    }
    Ok(())
}

fn floored_bounds(maxima: &[f32]) -> Vec<f32> {
    maxima.iter().map(|&v| v.max(BOUND_FLOOR)).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::calibration::{ActivationProfiler, SlotProfile};
    use fitact_nn::layers::{ActivationLayer, Linear, Sequential};
    use fitact_nn::Mode;
    use fitact_tensor::{init, Tensor};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn small_network() -> Network {
        let mut rng = StdRng::seed_from_u64(0);
        Network::new(
            "mlp",
            Sequential::new()
                .with(Box::new(Linear::new(4, 6, &mut rng)))
                .with(Box::new(ActivationLayer::relu("h1", &[6])))
                .with(Box::new(Linear::new(6, 6, &mut rng)))
                .with(Box::new(ActivationLayer::relu("h2", &[6])))
                .with(Box::new(Linear::new(6, 3, &mut rng))),
        )
    }

    fn calibrated(network: &mut Network) -> ActivationProfile {
        let mut rng = StdRng::seed_from_u64(1);
        let inputs = init::uniform(&[32, 4], -1.0, 1.0, &mut rng);
        ActivationProfiler::new(8)
            .unwrap()
            .profile(network, &inputs)
            .unwrap()
    }

    #[test]
    fn scheme_names_and_helpers() {
        assert_eq!(ProtectionScheme::Unprotected.name(), "unprotected");
        assert_eq!(ProtectionScheme::ClipAct.to_string(), "clipact");
        assert_eq!(ProtectionScheme::paper_schemes().len(), 4);
        assert!(ProtectionScheme::FitAct { slope: 8.0 }.has_per_neuron_bounds());
        assert!(ProtectionScheme::FitActNaive.has_per_neuron_bounds());
        assert!(!ProtectionScheme::Ranger.has_per_neuron_bounds());
    }

    #[test]
    fn each_scheme_installs_its_activation() {
        let mut net = small_network();
        let profile = calibrated(&mut net);
        for (scheme, expected) in [
            (ProtectionScheme::Ranger, "ranger"),
            (ProtectionScheme::ClipAct, "gbrelu"),
            (ProtectionScheme::FitAct { slope: 8.0 }, "fitrelu"),
            (ProtectionScheme::FitActNaive, "fitrelu_naive"),
            (ProtectionScheme::Unprotected, "relu"),
        ] {
            apply_protection(&mut net, &profile, scheme).unwrap();
            for slot in net.activation_slots() {
                assert_eq!(slot.activation().name(), expected, "scheme {scheme}");
            }
            // The protected network still runs.
            let y = net.forward(&Tensor::zeros(&[2, 4]), Mode::Eval).unwrap();
            assert_eq!(y.dims(), &[2, 3]);
        }
    }

    #[test]
    fn per_channel_scheme_installs_channel_relu_with_channel_count_bounds() {
        let mut net = small_network();
        let profile = calibrated(&mut net);
        apply_protection(&mut net, &profile, ProtectionScheme::ClipActPerChannel).unwrap();
        let before_lambda_words: usize = net
            .param_info()
            .iter()
            .filter(|i| i.path.ends_with("lambda"))
            .map(|i| i.numel)
            .sum();
        // Dense layers: channels == neurons, so the bound count equals the
        // feature count (6 per slot, 2 slots).
        assert_eq!(before_lambda_words, 12);
        for slot in net.activation_slots() {
            assert_eq!(slot.activation().name(), "channel_relu");
        }
        let y = net.forward(&Tensor::zeros(&[1, 4]), Mode::Eval).unwrap();
        assert_eq!(y.dims(), &[1, 3]);
    }

    #[test]
    fn fitact_adds_per_neuron_parameters() {
        let mut net = small_network();
        let profile = calibrated(&mut net);
        let before = net.num_parameters();
        apply_protection(&mut net, &profile, ProtectionScheme::FitAct { slope: 8.0 }).unwrap();
        let after = net.num_parameters();
        assert_eq!(after, before + profile.total_neurons());
        // Clip-Act adds no parameters (its bound is a constant, not a tensor).
        apply_protection(&mut net, &profile, ProtectionScheme::ClipAct).unwrap();
        assert_eq!(net.num_parameters(), before);
    }

    #[test]
    fn mismatched_profile_is_rejected() {
        let mut net = small_network();
        let profile = calibrated(&mut net);
        // Too few slots.
        let truncated = ActivationProfile {
            slots: profile.slots[..1].to_vec(),
        };
        assert!(matches!(
            apply_protection(&mut net, &truncated, ProtectionScheme::ClipAct),
            Err(FitActError::ProfileMismatch(_))
        ));
        // Wrong neuron count in a slot.
        let mut wrong = profile.clone();
        wrong.slots[0] = SlotProfile {
            label: "h1".into(),
            feature_shape: vec![2],
            per_neuron_max: vec![1.0, 1.0],
            layer_max: 1.0,
        };
        assert!(matches!(
            apply_protection(&mut net, &wrong, ProtectionScheme::FitActNaive),
            Err(FitActError::ProfileMismatch(_))
        ));
    }

    #[test]
    fn bounds_are_floored_for_dead_neurons() {
        let mut net = small_network();
        let mut profile = calibrated(&mut net);
        // Pretend every neuron in the first slot never fired.
        for v in &mut profile.slots[0].per_neuron_max {
            *v = 0.0;
        }
        profile.slots[0].layer_max = 0.0;
        apply_protection(&mut net, &profile, ProtectionScheme::FitAct { slope: 8.0 }).unwrap();
        // The installed activation still lets small values through (bound is
        // the floor, not zero), so the network is not structurally dead.
        let slots = net.activation_slots();
        let act = slots[0].activation();
        assert!(act.eval_scalar(BOUND_FLOOR * 0.5, 0) > 0.0);
    }

    #[test]
    fn protected_network_controls_huge_activations() {
        let mut net = small_network();
        let profile = calibrated(&mut net);
        apply_protection(&mut net, &profile, ProtectionScheme::ClipAct).unwrap();
        // Evaluating the activation far above the calibrated maximum gives 0.
        let slots = net.activation_slots();
        assert_eq!(slots[0].activation().eval_scalar(1e4, 0), 0.0);
    }
}
