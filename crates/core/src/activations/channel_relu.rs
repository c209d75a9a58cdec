//! Channel-wise bounded ReLU (an intermediate granularity between GBReLU and
//! FitReLU, used by the bound-granularity ablation).

use fitact_nn::{Activation, NnError, Parameter};
use fitact_tensor::Tensor;

/// A bounded ReLU with one bound per *channel* of a convolutional feature map.
///
/// This granularity sits between the paper's two extremes — one bound per
/// layer (GBReLU / Clip-Act) and one bound per neuron (FitReLU) — and is the
/// natural ablation point: it costs `C` extra words per layer instead of
/// `C·H·W`, but cannot adapt to the spatial variation of activation maxima.
/// Out-of-range values are squashed to zero, as in Clip-Act.
#[derive(Debug, Clone)]
pub struct ChannelRelu {
    bounds: Parameter,
    /// Number of spatial positions per channel (`H·W`; 1 for dense layers).
    plane: usize,
    cached_input: Option<Tensor>,
}

impl ChannelRelu {
    /// Creates the activation from one bound per channel and the number of
    /// spatial positions per channel.
    ///
    /// # Panics
    ///
    /// Panics if `bounds` is empty, `plane == 0`, or any bound is negative or
    /// non-finite.
    pub fn from_bounds(bounds: &[f32], plane: usize) -> Self {
        assert!(
            !bounds.is_empty(),
            "ChannelReLU needs at least one channel bound"
        );
        assert!(plane > 0, "ChannelReLU plane size must be non-zero");
        assert!(
            bounds.iter().all(|b| b.is_finite() && *b >= 0.0),
            "ChannelReLU bounds must be finite and non-negative"
        );
        let tensor = Tensor::from_vec(bounds.to_vec(), &[bounds.len()])
            .expect("bounds vector matches its own length");
        let mut param = Parameter::new("lambda", tensor);
        param.freeze();
        ChannelRelu {
            bounds: param,
            plane,
            cached_input: None,
        }
    }

    /// Number of channels covered by this activation.
    pub fn num_channels(&self) -> usize {
        self.bounds.numel()
    }

    /// Features per sample (`channels × plane`).
    pub fn features(&self) -> usize {
        self.num_channels() * self.plane
    }

    #[inline]
    fn bound_of(&self, feature_index: usize) -> f32 {
        let channel = (feature_index / self.plane) % self.num_channels();
        self.bounds.data().as_slice()[channel]
    }
}

impl Activation for ChannelRelu {
    fn name(&self) -> &str {
        "channel_relu"
    }

    fn forward(&mut self, input: &Tensor) -> Result<Tensor, NnError> {
        let features = self.features();
        if input.ndim() < 2 || input.dims()[1..].iter().product::<usize>() != features {
            return Err(NnError::InvalidInput {
                layer: "channel_relu".into(),
                expected: format!("[batch, ...] with {features} features per sample"),
                actual: input.dims().to_vec(),
            });
        }
        self.cached_input = Some(input.clone());
        let mut out = input.clone();
        // Each contiguous plane of `H·W` values shares one channel bound, so
        // the uniform-bound dispatching kernel applies per plane; bit-identical
        // to the scalar `if x > 0 && x <= bound { x } else { 0 }` in both legs.
        let bounds = self.bounds.data().as_slice();
        let channels = bounds.len();
        for (i, chunk) in out.as_mut_slice().chunks_mut(self.plane).enumerate() {
            fitact_tensor::simd::bounded_relu_uniform(chunk, bounds[i % channels]);
        }
        Ok(out)
    }

    fn backward(&mut self, grad_output: &Tensor) -> Result<Tensor, NnError> {
        let input = self
            .cached_input
            .as_ref()
            .ok_or_else(|| NnError::BackwardBeforeForward("channel_relu".into()))?;
        if grad_output.numel() != input.numel() {
            return Err(NnError::InvalidInput {
                layer: "channel_relu".into(),
                expected: format!("gradient with {} elements", input.numel()),
                actual: grad_output.dims().to_vec(),
            });
        }
        let features = self.features();
        let bounds = self.bounds.data().as_slice();
        let mut grad = grad_output.clone();
        for (g, x) in grad
            .as_mut_slice()
            .chunks_exact_mut(features)
            .zip(input.as_slice().chunks_exact(features))
        {
            let planes = g
                .chunks_exact_mut(self.plane)
                .zip(x.chunks_exact(self.plane));
            for ((g, x), &bound) in planes.zip(bounds) {
                for (g, &x) in g.iter_mut().zip(x) {
                    if !(x > 0.0 && x <= bound) {
                        *g = 0.0;
                    }
                }
            }
        }
        Ok(grad)
    }

    fn eval_scalar(&self, x: f32, neuron: usize) -> f32 {
        let bound = self.bound_of(neuron % self.features());
        if x > 0.0 && x <= bound {
            x
        } else {
            0.0
        }
    }

    fn count_violations(&self, input: &Tensor) -> u64 {
        let bounds = self.bounds.data().as_slice();
        let mut count = 0;
        for sample in input.as_slice().chunks(self.features()) {
            for (plane, &bound) in sample.chunks(self.plane).zip(bounds) {
                count += plane.iter().filter(|&&x| x > bound).count() as u64;
            }
        }
        count
    }

    fn params(&self) -> Vec<&Parameter> {
        vec![&self.bounds]
    }

    fn params_mut(&mut self) -> Vec<&mut Parameter> {
        vec![&mut self.bounds]
    }

    fn spec(&self) -> Result<fitact_nn::spec::ActivationSpec, NnError> {
        // Bounds restore through the `lambda` parameter tensor; the spec only
        // needs the shape of the mapping.
        Ok(fitact_nn::spec::ActivationSpec {
            kind: "channel_relu".into(),
            floats: Vec::new(),
            ints: vec![self.num_channels() as u64, self.plane as u64],
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
    fn per_channel_bounds_cover_their_planes() {
        // 2 channels × 2 spatial positions; channel 0 bound 1, channel 1 bound 10.
        let mut act = ChannelRelu::from_bounds(&[1.0, 10.0], 2);
        assert_eq!(act.num_channels(), 2);
        assert_eq!(act.features(), 4);
        let x = Tensor::from_vec(vec![5.0, 0.5, 5.0, 0.5], &[1, 2, 2, 1]).unwrap();
        let y = act.forward(&x).unwrap();
        // Channel 0 squashes 5.0; channel 1 keeps it.
        assert_eq!(y.as_slice(), &[0.0, 0.5, 5.0, 0.5]);
    }

    #[test]
    fn backward_masks_like_forward() {
        let mut act = ChannelRelu::from_bounds(&[1.0, 10.0], 1);
        let x = Tensor::from_vec(vec![5.0, 5.0, -1.0, 0.5], &[2, 2]).unwrap();
        act.forward(&x).unwrap();
        let g = act.backward(&Tensor::ones(&[2, 2])).unwrap();
        assert_eq!(g.as_slice(), &[0.0, 1.0, 0.0, 1.0]);
    }

    #[test]
    fn rejects_bad_inputs_and_premature_backward() {
        let mut act = ChannelRelu::from_bounds(&[1.0], 4);
        assert!(act.forward(&Tensor::zeros(&[1, 3])).is_err());
        assert!(act.backward(&Tensor::zeros(&[1, 4])).is_err());
    }

    #[test]
    #[should_panic(expected = "plane size must be non-zero")]
    fn zero_plane_panics() {
        let _ = ChannelRelu::from_bounds(&[1.0], 0);
    }

    #[test]
    fn eval_scalar_respects_channel_of_the_neuron() {
        let act = ChannelRelu::from_bounds(&[1.0, 100.0], 3);
        assert_eq!(act.eval_scalar(50.0, 0), 0.0); // channel 0
        assert_eq!(act.eval_scalar(50.0, 3), 50.0); // channel 1
    }

    #[test]
    fn bounds_parameter_is_a_frozen_lambda() {
        let act = ChannelRelu::from_bounds(&[1.0, 2.0], 2);
        assert_eq!(act.params().len(), 1);
        assert_eq!(act.params()[0].name(), "lambda");
        assert!(!act.params()[0].trainable());
    }
}
