//! Protected activation functions.
//!
//! The bounded activations studied in the paper are implemented against the
//! [`fitact_nn::Activation`] trait so they can be dropped into any
//! [`fitact_nn::layers::ActivationLayer`] slot of a trained network:
//!
//! | Type | Paper | Bound granularity | Out-of-bound behaviour |
//! |---|---|---|---|
//! | [`BoundedRelu`]: [`clip_act`](BoundedRelu::clip_act), [`ranger`](BoundedRelu::ranger), [`per_channel`](BoundedRelu::per_channel), [`per_neuron`](BoundedRelu::per_neuron) | Eq. 4 (Clip-Act \[18\]), Ranger \[16\], ablation, Eq. 5 | one λ per layer, layer, channel, neuron | squash to zero; Ranger truncates to λ |
//! | [`FitRelu`] | Eq. 6 | one λ per neuron (trainable) | smooth squash to zero |

mod bounded_relu;
mod fitrelu;

pub use bounded_relu::BoundedRelu;
pub use fitrelu::FitRelu;

/// Default slope coefficient `k` of the trainable FitReLU (paper Eq. 6 leaves
/// it "empirically computed"; this value gives a near-hard cutoff while still
/// providing useful gradients for bounds of order 1–10).
pub const DEFAULT_SLOPE: f32 = 8.0;

/// Counts the elements of `values` above their neuron's bound, where
/// `values` holds samples of `bounds.len()` neurons back to back (a ragged
/// tail is matched against the leading bounds).
fn count_above_bounds(values: &[f32], bounds: &[f32]) -> u64 {
    values
        .chunks(bounds.len())
        .map(|sample| sample.iter().zip(bounds).filter(|(x, b)| x > b).count() as u64)
        .sum()
}

#[cfg(test)]
mod tests {
    use super::*;
    use fitact_nn::Activation;

    /// All bounded activations agree with plain ReLU well below their bound
    /// and suppress values far above it — the common contract the paper relies
    /// on.
    #[test]
    fn bounded_activations_share_the_basic_contract() {
        let bound = 2.0f32;
        let acts: Vec<Box<dyn Activation>> = vec![
            Box::new(BoundedRelu::clip_act(bound)),
            Box::new(BoundedRelu::ranger(bound)),
            Box::new(BoundedRelu::per_neuron(&[bound, bound])),
            Box::new(FitRelu::from_bounds(&[bound, bound], DEFAULT_SLOPE)),
        ];
        for act in acts {
            // Negative inputs are zeroed.
            assert_eq!(act.eval_scalar(-3.0, 0), 0.0, "{}", act.name());
            // Small positive inputs pass (approximately, for the smooth one).
            let small = act.eval_scalar(0.5, 0);
            assert!((small - 0.5).abs() < 0.05, "{}: {small}", act.name());
            // A fault-sized value (far above the bound) is controlled: it never
            // exceeds the bound itself.
            let huge = act.eval_scalar(20_000.0, 0);
            assert!(huge <= bound + 1e-3, "{}: {huge}", act.name());
        }
    }

    /// Only Ranger lets the bound value itself through (it truncates instead
    /// of squashing) — this is exactly why the paper finds it weaker.
    #[test]
    fn ranger_truncates_while_others_squash() {
        let bound = 2.0f32;
        assert_eq!(BoundedRelu::ranger(bound).eval_scalar(10.0, 0), bound);
        assert_eq!(BoundedRelu::clip_act(bound).eval_scalar(10.0, 0), 0.0);
        assert_eq!(BoundedRelu::per_neuron(&[bound]).eval_scalar(10.0, 0), 0.0);
        assert!(FitRelu::from_bounds(&[bound], DEFAULT_SLOPE).eval_scalar(10.0, 0) < 0.01);
    }
}
