//! Trainable neuron-wise bounded ReLU (FitReLU, paper Eq. 6).

use fitact_nn::{Activation, NnError, Parameter};
use fitact_tensor::Tensor;

/// The trainable fine-grained bounded ReLU of paper Eq. 6.
///
/// Each neuron `i` has its own post-trainable bound `λ_i`; a sigmoid gate with
/// slope coefficient `k` makes the bound differentiable so the λ values can be
/// learned in the FitAct post-training stage:
///
/// ```text
/// ξ_i(x) = max(0, x · σ(k (λ_i − x)))
/// ```
///
/// which behaves like ReLU for `0 < x ≪ λ_i` and smoothly squashes values
/// above the bound to zero (see the paper's Fig. 3).
///
/// ### Note on the sign convention
///
/// Equation 6 of the paper is printed as `max(0, x − x / (1 + e^{k(x−λ_i)}))`,
/// which algebraically equals `max(0, x · σ(k(x−λ_i)))` and — for a positive
/// `k` — would *pass* large values and *suppress* small ones, the opposite of
/// the behaviour shown in the paper's Fig. 3. The behaviour in Fig. 3 (and the
/// whole point of the function) corresponds to a negative `k` in that formula;
/// this implementation uses the equivalent form `x · σ(k(λ_i − x))` with a
/// positive `k`, which matches Fig. 3 exactly. The discrepancy is documented in
/// `docs/deviations.md`.
///
/// # Example
///
/// ```
/// use fitact::FitRelu;
/// use fitact_nn::Activation;
///
/// let act = FitRelu::from_bounds(&[2.0], 8.0);
/// assert!(act.eval_scalar(1.0, 0) > 0.99);     // well below the bound: ≈ identity
/// assert!(act.eval_scalar(10.0, 0) < 1e-3);    // far above the bound: ≈ 0
/// assert_eq!(act.eval_scalar(-1.0, 0), 0.0);   // negative: exactly 0
/// ```
#[derive(Debug, Clone)]
pub struct FitRelu {
    bounds: Parameter,
    slope: f32,
    cached_input: Option<Tensor>,
}

impl FitRelu {
    /// Creates the activation from one bound per neuron and a slope
    /// coefficient `k`.
    ///
    /// # Panics
    ///
    /// Panics if `bounds` is empty, contains a negative or non-finite value,
    /// or `slope` is not strictly positive.
    pub fn from_bounds(bounds: &[f32], slope: f32) -> Self {
        assert!(
            !bounds.is_empty(),
            "FitReLU needs at least one neuron bound"
        );
        assert!(
            bounds.iter().all(|b| b.is_finite() && *b >= 0.0),
            "FitReLU bounds must be finite and non-negative"
        );
        assert!(
            slope > 0.0 && slope.is_finite(),
            "FitReLU slope k must be positive and finite"
        );
        let tensor = Tensor::from_vec(bounds.to_vec(), &[bounds.len()])
            .expect("bounds vector matches its own length");
        FitRelu {
            bounds: Parameter::new("lambda", tensor),
            slope,
            cached_input: None,
        }
    }

    /// Number of neurons covered by this activation.
    pub fn num_neurons(&self) -> usize {
        self.bounds.numel()
    }

    /// The slope coefficient `k`.
    pub fn slope(&self) -> f32 {
        self.slope
    }

    /// The per-neuron bounds λ.
    pub fn bounds(&self) -> &[f32] {
        self.bounds.data().as_slice()
    }

    /// Mutable access to the bound parameter (used by the post-training stage
    /// and by tests).
    pub fn bounds_param_mut(&mut self) -> &mut Parameter {
        &mut self.bounds
    }

    fn check_input(&self, input: &Tensor) -> Result<usize, NnError> {
        let neurons = self.num_neurons();
        if input.ndim() < 2 || input.dims()[1..].iter().product::<usize>() != neurons {
            return Err(NnError::InvalidInput {
                layer: "fitrelu".into(),
                expected: format!("[batch, ...] with {neurons} features per sample"),
                actual: input.dims().to_vec(),
            });
        }
        Ok(neurons)
    }
}

/// `log2(e)`, the factor that turns the exponent into a power of two.
const LOG2_E: f32 = std::f32::consts::LOG2_E;
/// Cody–Waite split of `ln 2`: the high part, exactly 0.693359375, has 12
/// significant bits, so `a − n·LN2_HI` is exact for every `|n| ≤ 150`.
const LN2_HI: f32 = 0.693_359_4;
const LN2_LO: f32 = -0.000_212_194_44;
/// `1.5 · 2^23`: adding it rounds a float of magnitude below `2^22` to the
/// nearest integer and leaves that integer in the low mantissa bits.
const SHIFTER: f32 = 12_582_912.0;
/// Minimax coefficients of `(e^r − 1 − r) / r²` on `|r| ≤ ln 2 / 2`
/// (relative error of the whole polynomial 3.8e-9 with these f32 values).
const EXP_C2: f32 = 0.499_999_94;
const EXP_C3: f32 = 0.166_665_21;
const EXP_C4: f32 = 0.041_668_39;
const EXP_C5: f32 = 0.008_368_71;
const EXP_C6: f32 = 0.001_381_461_3;

/// The FitReLU gate at one element.
struct Gate {
    /// `σ(k(λ − x))`.
    sigma: f32,
    /// `max(0, x·σ)`: `+0.0` wherever `x·σ` is not `> 0`, so also for `−0.0`,
    /// NaN and `±∞`.
    y: f32,
}

/// The one FitReLU gate that the forward and backward passes and
/// [`Activation::eval_scalar`] all evaluate.
///
/// It is plain IEEE-754 lane arithmetic — no libm call, no branch — so the
/// compiler vectorises the loops around it and every host, vector width and
/// thread computes the same bits. `σ(k(λ − x))` is within 2 ulp of the exact
/// sigmoid wherever it is a normal float, exactly 1 where `e^{k(x−λ)}`
/// underflows and exactly 0 where it overflows (see `docs/deviations.md`).
#[inline(always)]
fn gate(x: f32, lambda: f32, k: f32) -> Gate {
    let t = k * (x - lambda);
    // e = exp(−|t|) ∈ [0, 1]: −|t| = n·ln 2 + r with |r| ≤ ln 2 / 2. The
    // clamp also maps NaN to −104, where e is 0.
    let a = -t.abs();
    let a = if a > -104.0 { a } else { -104.0 };
    let shifted = a.mul_add(LOG2_E, SHIFTER);
    let n = shifted - SHIFTER;
    let r = n.mul_add(-LN2_LO, n.mul_add(-LN2_HI, a));
    let poly = EXP_C6
        .mul_add(r, EXP_C5)
        .mul_add(r, EXP_C4)
        .mul_add(r, EXP_C3)
        .mul_add(r, EXP_C2);
    let p = 1.0 + (r * r).mul_add(poly, r);
    // 2^n from the biased exponent n + 127, flushed to 0 below 2^-126.
    let biased = (shifted.to_bits() as i32 - (SHIFTER.to_bits() as i32 - 127)).max(0);
    let e = p * f32::from_bits((biased as u32) << 23);
    // σ = 1 / (1 + e) for t ≤ 0 and e / (1 + e) for t > 0.
    let num = if t > 0.0 { e } else { 1.0 };
    let s = 1.0 + e;
    // 1 + e = s + s_lo exactly (Fast2Sum, as e ≤ 1). One correction step
    // removes the rounding of 1 + e and of the quotient; 1.5 − s/2 is close
    // enough to 1/s on [1, 2] for a term this small.
    let s_lo = (1.0 - s) + e;
    let q = num / s;
    let residual = (-q).mul_add(s_lo, (-q).mul_add(s, num));
    let sigma = residual.mul_add((-0.5f32).mul_add(s, 1.5), q);
    let y = x * sigma;
    Gate {
        sigma,
        y: if y > 0.0 { y } else { 0.0 },
    }
}

impl Activation for FitRelu {
    fn name(&self) -> &str {
        "fitrelu"
    }

    fn forward(&mut self, input: &Tensor) -> Result<Tensor, NnError> {
        let neurons = self.check_input(input)?;
        let (bounds, k) = (self.bounds.data().as_slice(), self.slope);
        let mut out = Vec::with_capacity(input.numel());
        for sample in input.as_slice().chunks_exact(neurons) {
            out.extend(
                sample
                    .iter()
                    .zip(bounds)
                    .map(|(&x, &lambda)| gate(x, lambda, k).y),
            );
        }
        let out = Tensor::from_vec(out, input.dims()).expect("one output per input element");
        match &mut self.cached_input {
            Some(cached) => cached.copy_from(input),
            None => self.cached_input = Some(input.clone()),
        }
        Ok(out)
    }

    fn backward(&mut self, grad_output: &Tensor) -> Result<Tensor, NnError> {
        let input = self
            .cached_input
            .as_ref()
            .ok_or_else(|| NnError::BackwardBeforeForward("fitrelu".into()))?;
        if grad_output.numel() != input.numel() {
            return Err(NnError::InvalidInput {
                layer: "fitrelu".into(),
                expected: format!("gradient with {} elements", input.numel()),
                actual: grad_output.dims().to_vec(),
            });
        }
        let neurons = self.num_neurons();
        let k = self.slope;
        let mut grad_input = Tensor::zeros(input.dims());
        let (bounds, grad_lambda) = self.bounds.data_and_grad_mut();
        let (bounds, grad_lambda) = (bounds.as_slice(), grad_lambda.as_mut_slice());
        // Sample-major, so each λ gradient accumulates in sample order.
        for ((gi, x), g) in grad_input
            .as_mut_slice()
            .chunks_exact_mut(neurons)
            .zip(input.as_slice().chunks_exact(neurons))
            .zip(grad_output.as_slice().chunks_exact(neurons))
        {
            for ((((gi, &xi), &g), &lambda), gl) in gi
                .iter_mut()
                .zip(x)
                .zip(g)
                .zip(bounds)
                .zip(grad_lambda.iter_mut())
            {
                // y = max(0, x·σ(k(λ−x))); the inner product is positive iff x > 0.
                let s = gate(xi, lambda, k).sigma;
                let ds = s * (1.0 - s);
                let on = xi > 0.0;
                // ∂y/∂x = σ + x · σ' · (−k) = s − k·x·s(1−s)
                *gi = if on { g * (s - k * xi * ds) } else { 0.0 };
                // ∂y/∂λ = x · σ' · k = k·x·s(1−s)
                *gl += if on { g * k * xi * ds } else { 0.0 };
            }
        }
        Ok(grad_input)
    }

    fn eval_scalar(&self, x: f32, neuron: usize) -> f32 {
        let lambda = self.bounds.data().as_slice()[neuron % self.num_neurons()];
        gate(x, lambda, self.slope).y
    }

    fn count_violations(&self, input: &Tensor) -> u64 {
        // λ_i is the detection threshold: the sigmoid gate starts squashing
        // at the bound, so x > λ_i is the smooth analogue of a hard clamp.
        super::count_above_bounds(input.as_slice(), self.bounds.data().as_slice())
    }

    fn params(&self) -> Vec<&Parameter> {
        vec![&self.bounds]
    }

    fn params_mut(&mut self) -> Vec<&mut Parameter> {
        vec![&mut self.bounds]
    }

    fn spec(&self) -> Result<fitact_nn::spec::ActivationSpec, NnError> {
        // The per-neuron bounds restore through the `lambda` parameter
        // tensor; the spec carries the slope and the neuron count.
        Ok(fitact_nn::spec::ActivationSpec {
            kind: "fitrelu".into(),
            floats: vec![self.slope],
            ints: vec![self.num_neurons() as u64],
        })
    }

    fn clone_box(&self) -> Box<dyn Activation> {
        Box::new(self.clone())
    }
}

#[cfg(test)]
mod gate_tests;

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn behaves_like_relu_below_the_bound() {
        let act = FitRelu::from_bounds(&[10.0], 8.0);
        for x in [0.1f32, 0.5, 1.0, 3.0, 7.0] {
            let y = act.eval_scalar(x, 0);
            assert!((y - x).abs() < 0.02, "x = {x}, y = {y}");
        }
    }

    #[test]
    fn suppresses_values_above_the_bound() {
        let act = FitRelu::from_bounds(&[2.0], 8.0);
        assert!(act.eval_scalar(4.0, 0) < 0.01);
        assert!(act.eval_scalar(30_000.0, 0) == 0.0 || act.eval_scalar(30_000.0, 0) < 1e-6);
    }

    #[test]
    fn negative_inputs_are_zero() {
        let act = FitRelu::from_bounds(&[2.0], 8.0);
        assert_eq!(act.eval_scalar(-0.5, 0), 0.0);
        assert_eq!(act.eval_scalar(-100.0, 0), 0.0);
    }

    #[test]
    fn forward_applies_per_neuron_bounds() {
        let mut act = FitRelu::from_bounds(&[1.0, 100.0], 8.0);
        let x = Tensor::from_vec(vec![5.0, 5.0], &[1, 2]).unwrap();
        let y = act.forward(&x).unwrap();
        assert!(y.as_slice()[0] < 0.01); // bound 1 squashes 5
        assert!((y.as_slice()[1] - 5.0).abs() < 0.01); // bound 100 keeps 5
    }

    #[test]
    fn gradient_check_input_and_lambda() {
        let mut act = FitRelu::from_bounds(&[2.0, 3.0], 4.0);
        let x = Tensor::from_vec(vec![1.5, 2.5, 0.5, 3.5], &[2, 2]).unwrap();
        act.forward(&x).unwrap();
        let g = Tensor::ones(&[2, 2]);
        let grad_x = act.backward(&g).unwrap();
        let analytic_lambda = act.bounds.grad().clone();

        let eps = 1e-3f32;
        // Input gradient check.
        for idx in 0..4 {
            let mut plus = x.clone();
            plus.as_mut_slice()[idx] += eps;
            let mut minus = x.clone();
            minus.as_mut_slice()[idx] -= eps;
            let mut fresh = FitRelu::from_bounds(&[2.0, 3.0], 4.0);
            let yp = fresh.forward(&plus).unwrap().sum();
            let ym = fresh.forward(&minus).unwrap().sum();
            let numeric = (yp - ym) / (2.0 * eps);
            assert!(
                (grad_x.as_slice()[idx] - numeric).abs() < 1e-2,
                "x grad idx {idx}: {} vs {numeric}",
                grad_x.as_slice()[idx]
            );
        }
        // Lambda gradient check.
        for neuron in 0..2 {
            let mut bounds_plus = vec![2.0, 3.0];
            bounds_plus[neuron] += eps;
            let mut bounds_minus = vec![2.0, 3.0];
            bounds_minus[neuron] -= eps;
            let yp = FitRelu::from_bounds(&bounds_plus, 4.0)
                .forward(&x)
                .unwrap()
                .sum();
            let ym = FitRelu::from_bounds(&bounds_minus, 4.0)
                .forward(&x)
                .unwrap()
                .sum();
            let numeric = (yp - ym) / (2.0 * eps);
            assert!(
                (analytic_lambda.as_slice()[neuron] - numeric).abs() < 1e-2,
                "lambda grad neuron {neuron}: {} vs {numeric}",
                analytic_lambda.as_slice()[neuron]
            );
        }
    }

    #[test]
    fn lambda_gradient_accumulates_over_batch() {
        let mut act = FitRelu::from_bounds(&[2.0], 4.0);
        let x = Tensor::from_vec(vec![1.9, 1.9, 1.9], &[3, 1]).unwrap();
        act.forward(&x).unwrap();
        act.backward(&Tensor::ones(&[3, 1])).unwrap();
        let single = {
            let mut a = FitRelu::from_bounds(&[2.0], 4.0);
            a.forward(&Tensor::from_vec(vec![1.9], &[1, 1]).unwrap())
                .unwrap();
            a.backward(&Tensor::ones(&[1, 1])).unwrap();
            a.bounds.grad().as_slice()[0]
        };
        assert!((act.bounds.grad().as_slice()[0] - 3.0 * single).abs() < 1e-5);
    }

    #[test]
    fn bounds_parameter_is_trainable() {
        let act = FitRelu::from_bounds(&[1.0, 2.0], 8.0);
        assert_eq!(act.params().len(), 1);
        assert!(act.params()[0].trainable());
        assert_eq!(act.params()[0].name(), "lambda");
        assert_eq!(act.num_neurons(), 2);
        assert_eq!(act.slope(), 8.0);
        assert_eq!(act.bounds(), &[1.0, 2.0]);
    }

    #[test]
    fn rejects_bad_inputs() {
        let mut act = FitRelu::from_bounds(&[1.0, 2.0, 3.0], 8.0);
        assert!(act.forward(&Tensor::zeros(&[2, 2])).is_err());
        assert!(act.backward(&Tensor::zeros(&[1, 3])).is_err());
    }

    #[test]
    #[should_panic(expected = "slope k must be positive")]
    fn zero_slope_panics() {
        let _ = FitRelu::from_bounds(&[1.0], 0.0);
    }

    #[test]
    #[should_panic(expected = "at least one neuron bound")]
    fn empty_bounds_panics() {
        let _ = FitRelu::from_bounds(&[], 8.0);
    }

    #[test]
    fn larger_slope_gives_sharper_cutoff() {
        let soft = FitRelu::from_bounds(&[2.0], 2.0);
        let sharp = FitRelu::from_bounds(&[2.0], 32.0);
        // Just above the bound the sharp variant suppresses harder.
        assert!(sharp.eval_scalar(2.5, 0) < soft.eval_scalar(2.5, 0));
        // Just below the bound the sharp variant preserves the value better.
        assert!(sharp.eval_scalar(1.8, 0) > soft.eval_scalar(1.8, 0));
    }

    proptest! {
        /// FitReLU output is always bounded: it never exceeds the neuron's
        /// bound by more than a small smoothing margin, and never goes
        /// negative. This is the invariant that stops fault propagation.
        #[test]
        fn output_is_bounded(x in -50_000.0f32..50_000.0, lambda in 0.01f32..16.0) {
            let act = FitRelu::from_bounds(&[lambda], 8.0);
            let y = act.eval_scalar(x, 0);
            prop_assert!(y >= 0.0);
            // The maximum of x·σ(k(λ−x)) over x is attained near λ and is below
            // λ + 1/k.
            prop_assert!(y <= lambda + 1.0 / 8.0 + 1e-4, "x={x} λ={lambda} y={y}");
        }

        /// The smooth FitReLU never deviates from the hard FitReLU-Naive by
        /// more than the transition-band width around the bound.
        #[test]
        fn close_to_hard_clamp_away_from_the_bound(x in -10.0f32..40.0, lambda in 1.0f32..8.0) {
            let k = 8.0f32;
            let smooth = FitRelu::from_bounds(&[lambda], k);
            let hard = |x: f32| if x > 0.0 && x <= lambda { x } else { 0.0 };
            // Outside a band of ±1 around λ the two agree closely (the band
            // scales like 1/k · ln(...) but ±1 is a comfortable envelope for k=8).
            if (x - lambda).abs() > 1.0 {
                prop_assert!((smooth.eval_scalar(x, 0) - hard(x)).abs() < 0.1,
                    "x={x} λ={lambda}");
            }
        }
    }
}
