//! Hard neuron-wise bounded ReLU (FitReLU-Naive, paper Eq. 5).

use fitact_nn::{Activation, NnError, Parameter};
use fitact_tensor::Tensor;

/// The naive per-neuron bounded ReLU of paper Eq. 5:
///
/// ```text
/// ξ_i(x) = 0   if x > λ_i
///          x   if 0 < x ≤ λ_i
///          0   if x ≤ 0
/// ```
///
/// Each neuron `i` has its own bound `λ_i`. As the paper notes, the function
/// is not differentiable with respect to `λ_i`, so the bounds cannot be
/// learned through this form — that is what the smooth [`crate::FitRelu`]
/// solves. `FitReluNaive` is still useful as a *deployment* activation: after
/// post-training the learned bounds can be installed here for an exact hard
/// cutoff at inference time (`docs/deviations.md` records that no deployment
/// ablation has been measured).
#[derive(Debug, Clone)]
pub struct FitReluNaive {
    bounds: Parameter,
    cached_input: Option<Tensor>,
}

impl FitReluNaive {
    /// Creates the activation from one bound per neuron.
    ///
    /// # Panics
    ///
    /// Panics if `bounds` is empty or contains a negative/non-finite value.
    pub fn from_bounds(bounds: &[f32]) -> Self {
        assert!(
            !bounds.is_empty(),
            "FitReLU-Naive needs at least one neuron bound"
        );
        assert!(
            bounds.iter().all(|b| b.is_finite() && *b >= 0.0),
            "FitReLU-Naive bounds must be finite and non-negative"
        );
        let tensor = Tensor::from_vec(bounds.to_vec(), &[bounds.len()])
            .expect("bounds vector matches its own length");
        let mut param = Parameter::new("lambda", tensor);
        // Not trainable: Eq. 5 has no usable gradient with respect to λ.
        param.freeze();
        FitReluNaive {
            bounds: param,
            cached_input: None,
        }
    }

    /// Number of neurons covered by this activation.
    pub fn num_neurons(&self) -> usize {
        self.bounds.numel()
    }

    /// The per-neuron bounds.
    pub fn bounds(&self) -> &[f32] {
        self.bounds.data().as_slice()
    }

    fn check_input(&self, input: &Tensor) -> Result<usize, NnError> {
        let neurons = self.num_neurons();
        if input.ndim() < 2
            || !input.numel().is_multiple_of(neurons)
            || input.dims()[1..].iter().product::<usize>() != neurons
        {
            return Err(NnError::InvalidInput {
                layer: "fitrelu_naive".into(),
                expected: format!("[batch, ...] with {neurons} features per sample"),
                actual: input.dims().to_vec(),
            });
        }
        Ok(neurons)
    }
}

impl Activation for FitReluNaive {
    fn name(&self) -> &str {
        "fitrelu_naive"
    }

    fn forward(&mut self, input: &Tensor) -> Result<Tensor, NnError> {
        let neurons = self.check_input(input)?;
        self.cached_input = Some(input.clone());
        let bounds = &self.bounds.data().as_slice()[..neurons];
        let mut out = input.clone();
        // Dispatching per-neuron kernel; bit-identical to the scalar
        // `if x > 0 && x <= λ_i { x } else { 0 }` in both legs.
        fitact_tensor::simd::bounded_relu_per_neuron(out.as_mut_slice(), bounds);
        Ok(out)
    }

    fn backward(&mut self, grad_output: &Tensor) -> Result<Tensor, NnError> {
        let input = self
            .cached_input
            .as_ref()
            .ok_or_else(|| NnError::BackwardBeforeForward("fitrelu_naive".into()))?;
        let neurons = self.num_neurons();
        let bounds = self.bounds.data().as_slice();
        let mut grad = grad_output.clone();
        if grad.numel() != input.numel() {
            return Err(NnError::InvalidInput {
                layer: "fitrelu_naive".into(),
                expected: format!("gradient with {} elements", input.numel()),
                actual: grad_output.dims().to_vec(),
            });
        }
        for (g, x) in grad
            .as_mut_slice()
            .chunks_exact_mut(neurons)
            .zip(input.as_slice().chunks_exact(neurons))
        {
            for ((g, &x), &lambda) in g.iter_mut().zip(x).zip(bounds) {
                if !(x > 0.0 && x <= lambda) {
                    *g = 0.0;
                }
            }
        }
        Ok(grad)
    }

    fn eval_scalar(&self, x: f32, neuron: usize) -> f32 {
        let lambda = self.bounds.data().as_slice()[neuron % self.num_neurons()];
        if x > 0.0 && x <= lambda {
            x
        } else {
            0.0
        }
    }

    fn count_violations(&self, input: &Tensor) -> u64 {
        super::count_above_bounds(input.as_slice(), self.bounds.data().as_slice())
    }

    fn params(&self) -> Vec<&Parameter> {
        vec![&self.bounds]
    }

    fn params_mut(&mut self) -> Vec<&mut Parameter> {
        vec![&mut self.bounds]
    }

    fn spec(&self) -> Result<fitact_nn::spec::ActivationSpec, NnError> {
        Ok(fitact_nn::spec::ActivationSpec {
            kind: "fitrelu_naive".into(),
            floats: Vec::new(),
            ints: vec![self.num_neurons() as u64],
        })
    }

    fn clone_box(&self) -> Box<dyn Activation> {
        Box::new(self.clone())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn per_neuron_bounds_are_independent() {
        let mut act = FitReluNaive::from_bounds(&[1.0, 10.0]);
        let x = Tensor::from_vec(vec![5.0, 5.0], &[1, 2]).unwrap();
        let y = act.forward(&x).unwrap();
        // Neuron 0 (bound 1) squashes 5.0; neuron 1 (bound 10) keeps it.
        assert_eq!(y.as_slice(), &[0.0, 5.0]);
        assert_eq!(act.num_neurons(), 2);
        assert_eq!(act.bounds(), &[1.0, 10.0]);
    }

    #[test]
    fn batched_input_reuses_bounds_per_sample() {
        let mut act = FitReluNaive::from_bounds(&[1.0, 10.0]);
        let x = Tensor::from_vec(vec![0.5, 20.0, 2.0, 2.0], &[2, 2]).unwrap();
        let y = act.forward(&x).unwrap();
        assert_eq!(y.as_slice(), &[0.5, 0.0, 0.0, 2.0]);
    }

    #[test]
    fn backward_masks_like_forward() {
        let mut act = FitReluNaive::from_bounds(&[1.0, 10.0]);
        let x = Tensor::from_vec(vec![0.5, 20.0, -1.0, 2.0], &[2, 2]).unwrap();
        act.forward(&x).unwrap();
        let g = act.backward(&Tensor::ones(&[2, 2])).unwrap();
        assert_eq!(g.as_slice(), &[1.0, 0.0, 0.0, 1.0]);
    }

    #[test]
    fn bounds_are_frozen_parameters() {
        let act = FitReluNaive::from_bounds(&[1.0]);
        let params = act.params();
        assert_eq!(params.len(), 1);
        assert_eq!(params[0].name(), "lambda");
        assert!(!params[0].trainable());
    }

    #[test]
    fn rejects_mismatched_inputs_and_premature_backward() {
        let mut act = FitReluNaive::from_bounds(&[1.0, 1.0, 1.0]);
        assert!(act.forward(&Tensor::zeros(&[1, 2])).is_err());
        assert!(act.backward(&Tensor::zeros(&[1, 3])).is_err());
    }

    #[test]
    #[should_panic(expected = "at least one neuron bound")]
    fn empty_bounds_panics() {
        let _ = FitReluNaive::from_bounds(&[]);
    }

    #[test]
    #[should_panic(expected = "finite and non-negative")]
    fn negative_bound_panics() {
        let _ = FitReluNaive::from_bounds(&[-0.5]);
    }

    #[test]
    fn eval_scalar_uses_the_selected_neuron() {
        let act = FitReluNaive::from_bounds(&[1.0, 100.0]);
        assert_eq!(act.eval_scalar(50.0, 0), 0.0);
        assert_eq!(act.eval_scalar(50.0, 1), 50.0);
    }

    #[test]
    fn multidimensional_feature_shapes_work() {
        // A [2, 1, 2, 2] conv feature map with 4 neurons (1×2×2).
        let mut act = FitReluNaive::from_bounds(&[1.0, 1.0, 1.0, 5.0]);
        let x =
            Tensor::from_vec(vec![2.0, 2.0, 2.0, 2.0, 0.5, 0.5, 0.5, 0.5], &[2, 1, 2, 2]).unwrap();
        let y = act.forward(&x).unwrap();
        assert_eq!(y.as_slice(), &[0.0, 0.0, 0.0, 2.0, 0.5, 0.5, 0.5, 0.5]);
    }
}
