//! Property tests for the FitReLU activations: the boundedness invariant that
//! stops fault propagation, gradient correctness against finite differences,
//! and bit-identity between the vectorised forward pass, the scalar reference
//! path, and the hard FitReLU-Naive clamp outside the smoothing band.

use fitact::{BoundedRelu, FitRelu};
use fitact_nn::Activation;
use fitact_tensor::Tensor;
use proptest::prelude::*;

proptest! {
    /// The batched forward output is always within `[0, λ_i + 1/k]` for each
    /// neuron's own bound — including for fault-magnitude inputs. This is the
    /// invariant the whole protection scheme rests on.
    #[test]
    fn forward_output_is_within_the_per_neuron_bound(
        x0 in -40_000.0f32..40_000.0,
        x1 in -40_000.0f32..40_000.0,
        lambda0 in 0.01f32..16.0,
        lambda1 in 0.01f32..16.0,
        slope in 1.0f32..32.0,
    ) {
        let mut act = FitRelu::from_bounds(&[lambda0, lambda1], slope);
        let input = Tensor::from_vec(vec![x0, x1, x1, x0], &[2, 2]).unwrap();
        let output = act.forward(&input).unwrap();
        let bounds = [lambda0, lambda1];
        for (i, &y) in output.as_slice().iter().enumerate() {
            let lambda = bounds[i % 2];
            prop_assert!(y >= 0.0, "neuron {} produced {y}", i % 2);
            prop_assert!(
                y <= lambda + 1.0 / slope + 1e-4,
                "neuron {} exceeded its bound: {y} > {lambda} + 1/{slope}",
                i % 2
            );
        }
    }

    /// The input gradient of the batched backward pass matches central finite
    /// differences of the forward pass (inputs kept away from the x = 0 kink).
    #[test]
    fn input_gradient_matches_finite_differences(
        x0 in 0.1f32..6.0,
        x1 in -6.0f32..-0.1,
        lambda in 0.5f32..4.0,
        slope in 2.0f32..8.0,
    ) {
        let mut act = FitRelu::from_bounds(&[lambda, lambda], slope);
        let input = Tensor::from_vec(vec![x0, x1], &[1, 2]).unwrap();
        let analytic = act.backward(&input, &Tensor::ones(&[1, 2])).unwrap();
        let eps = 1e-2f32;
        for idx in 0..2 {
            let mut plus = input.clone();
            plus.as_mut_slice()[idx] += eps;
            let mut minus = input.clone();
            minus.as_mut_slice()[idx] -= eps;
            let mut fresh = FitRelu::from_bounds(&[lambda, lambda], slope);
            let yp = fresh.forward(&plus).unwrap().sum();
            let ym = fresh.forward(&minus).unwrap().sum();
            let numeric = (yp - ym) / (2.0 * eps);
            let tolerance = 0.05f32.max(0.05 * numeric.abs());
            prop_assert!(
                (analytic.as_slice()[idx] - numeric).abs() < tolerance,
                "idx {idx}: analytic {} vs numeric {numeric} (λ={lambda}, k={slope})",
                analytic.as_slice()[idx]
            );
        }
    }

    /// The bound gradient accumulated by the backward pass matches central
    /// finite differences with respect to λ.
    #[test]
    fn lambda_gradient_matches_finite_differences(
        x in 0.1f32..6.0,
        lambda in 0.5f32..4.0,
        slope in 2.0f32..8.0,
    ) {
        let mut act = FitRelu::from_bounds(&[lambda], slope);
        let input = Tensor::from_vec(vec![x], &[1, 1]).unwrap();
        act.backward(&input, &Tensor::ones(&[1, 1])).unwrap();
        let analytic = act.params()[0].grad().as_slice()[0];
        let eps = 1e-2f32;
        let numeric = {
            let yp = FitRelu::from_bounds(&[lambda + eps], slope)
                .eval_scalar(x, 0);
            let ym = FitRelu::from_bounds(&[lambda - eps], slope)
                .eval_scalar(x, 0);
            (yp - ym) / (2.0 * eps)
        };
        let tolerance = 0.05f32.max(0.05 * numeric.abs());
        prop_assert!(
            (analytic - numeric).abs() < tolerance,
            "analytic {analytic} vs numeric {numeric} (x={x}, λ={lambda}, k={slope})"
        );
    }

    /// The vectorised `FitRelu::forward` is bit-identical to the naive
    /// per-element scalar path on random inputs — the fused tensor loop must
    /// not reassociate or approximate anything.
    #[test]
    fn batched_forward_is_bit_identical_to_the_scalar_reference(
        x0 in -100.0f32..100.0,
        x1 in -100.0f32..100.0,
        x2 in -100.0f32..100.0,
        x3 in -100.0f32..100.0,
        lambda0 in 0.01f32..16.0,
        lambda1 in 0.01f32..16.0,
        slope in 1.0f32..32.0,
    ) {
        let mut smooth = FitRelu::from_bounds(&[lambda0, lambda1], slope);
        let mut hard = BoundedRelu::per_neuron(&[lambda0, lambda1]);
        let input = Tensor::from_vec(vec![x0, x1, x2, x3], &[2, 2]).unwrap();
        let smooth_out = smooth.forward(&input).unwrap();
        let hard_out = hard.forward(&input).unwrap();
        for (i, &x) in input.as_slice().iter().enumerate() {
            prop_assert_eq!(
                smooth_out.as_slice()[i].to_bits(),
                smooth.eval_scalar(x, i % 2).to_bits(),
                "fitrelu forward diverged from eval_scalar at element {}", i
            );
            prop_assert_eq!(
                hard_out.as_slice()[i].to_bits(),
                hard.eval_scalar(x, i % 2).to_bits(),
                "fitrelu_naive forward diverged from eval_scalar at element {}", i
            );
        }
    }

    /// Outside the sigmoid transition band, `fitrelu` is bit-identical to
    /// `fitrelu_naive`: the f32 gate saturates to exactly 1.0 once
    /// `k(λ − x) ≥ 18` (so `y == x` to the last bit) and to exactly 0.0 once
    /// `k(x − λ) ≥ 104` (exp underflow, so `y == 0.0` like the hard clamp).
    /// Negative inputs are exactly 0.0 in both.
    #[test]
    fn fitrelu_is_bit_identical_to_fitrelu_naive_outside_the_band(
        x in -200.0f32..200.0,
        lambda in 0.5f32..8.0,
        slope in 4.0f32..16.0,
    ) {
        let below_band = x <= lambda - 18.0 / slope;
        let above_band = x >= lambda + 104.0 / slope;
        prop_assume!(below_band || above_band);
        let smooth = FitRelu::from_bounds(&[lambda], slope);
        let hard = BoundedRelu::per_neuron(&[lambda]);
        prop_assert_eq!(
            smooth.eval_scalar(x, 0).to_bits(),
            hard.eval_scalar(x, 0).to_bits(),
            "x={} λ={} k={}: smooth {} vs hard {}",
            x, lambda, slope, smooth.eval_scalar(x, 0), hard.eval_scalar(x, 0)
        );
    }
}
