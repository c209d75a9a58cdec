//! Batch normalisation.

use crate::layers::{Layer, Mode};
use crate::{NnError, Parameter};
use fitact_tensor::Tensor;

/// Per-channel batch normalisation over `[batch, channels, height, width]`.
///
/// In [`Mode::Train`] the layer normalises with batch statistics and updates
/// exponential running averages; in [`Mode::Eval`] and [`Mode::Infer`] it
/// uses the running averages. A [`Mode::Infer`] forward reads them in place
/// and writes only its output: no normalised copy for `backward`.
/// `gamma`/`beta` are trainable parameters, the running statistics are
/// buffers — all four live in parameter memory and are therefore part of the
/// fault space.
#[derive(Debug, Clone)]
pub struct BatchNorm2d {
    gamma: Parameter,
    beta: Parameter,
    running_mean: Parameter,
    running_var: Parameter,
    channels: usize,
    eps: f32,
    momentum: f32,
    cache: Option<BnCache>,
}

#[derive(Debug, Clone)]
struct BnCache {
    x_hat: Tensor,
    inv_std: Vec<f32>,
    /// Whether the forward normalised with batch statistics (Train) rather
    /// than the running ones (Eval).
    batch_stats: bool,
    dims: Vec<usize>,
}

impl BatchNorm2d {
    /// Creates a batch-norm layer for `channels` feature maps with the usual
    /// defaults (`eps = 1e-5`, `momentum = 0.1`).
    pub fn new(channels: usize) -> Self {
        BatchNorm2d {
            gamma: Parameter::new("gamma", Tensor::ones(&[channels])),
            beta: Parameter::new("beta", Tensor::zeros(&[channels])),
            running_mean: Parameter::buffer("running_mean", Tensor::zeros(&[channels])),
            running_var: Parameter::buffer("running_var", Tensor::ones(&[channels])),
            channels,
            eps: 1e-5,
            momentum: 0.1,
            cache: None,
        }
    }

    /// Number of normalised channels.
    pub fn channels(&self) -> usize {
        self.channels
    }

    /// The [`Mode::Infer`] forward: [`Mode::Eval`]'s arithmetic on the
    /// running statistics, read in place, with each output written once.
    fn infer(&self, input: &Tensor, batch: usize, spatial: usize) -> Tensor {
        let (mean, var) = (self.running_mean.data(), self.running_var.data());
        let (mean, var) = (mean.as_slice(), var.as_slice());
        let (gamma, beta) = (self.gamma.data().as_slice(), self.beta.data().as_slice());
        let x = input.as_slice();
        let mut out = Vec::with_capacity(x.len());
        for n in 0..batch {
            for ch in 0..self.channels {
                let base = (n * self.channels + ch) * spatial;
                let (m, inv_std) = (mean[ch], 1.0 / (var[ch] + self.eps).sqrt());
                let (g, b) = (gamma[ch], beta[ch]);
                out.extend(
                    x[base..base + spatial]
                        .iter()
                        .map(|&v| g * ((v - m) * inv_std) + b),
                );
            }
        }
        Tensor::from_vec(out, input.dims()).expect("one output per input element")
    }

    fn check_input(&self, input: &Tensor) -> Result<(usize, usize, usize), NnError> {
        if input.ndim() != 4 || input.dims()[1] != self.channels {
            return Err(NnError::InvalidInput {
                layer: self.name(),
                expected: format!("[batch, {}, h, w]", self.channels),
                actual: input.dims().to_vec(),
            });
        }
        Ok((input.dims()[0], input.dims()[2], input.dims()[3]))
    }
}

impl Layer for BatchNorm2d {
    fn name(&self) -> String {
        format!("batchnorm2d({})", self.channels)
    }

    fn forward(&mut self, input: &Tensor, mode: Mode) -> Result<Tensor, NnError> {
        let (batch, h, w) = self.check_input(input)?;
        let spatial = h * w;
        let per_channel = (batch * spatial) as f32;
        let c = self.channels;
        let x = input.as_slice();

        // Per-channel mean and variance (batch statistics in Train, running in Eval).
        let (mean, var): (Vec<f32>, Vec<f32>) = match mode {
            Mode::Infer => {
                self.cache = None;
                return Ok(self.infer(input, batch, spatial));
            }
            Mode::Train => {
                let mut mean = vec![0.0f32; c];
                let mut var = vec![0.0f32; c];
                for n in 0..batch {
                    for (ch, m) in mean.iter_mut().enumerate() {
                        let base = (n * c + ch) * spatial;
                        *m += x[base..base + spatial].iter().sum::<f32>();
                    }
                }
                for m in &mut mean {
                    *m /= per_channel;
                }
                for n in 0..batch {
                    for ch in 0..c {
                        let base = (n * c + ch) * spatial;
                        var[ch] += x[base..base + spatial]
                            .iter()
                            .map(|v| (v - mean[ch]) * (v - mean[ch]))
                            .sum::<f32>();
                    }
                }
                for v in &mut var {
                    *v /= per_channel;
                }
                // Update running statistics.
                let rm = self.running_mean.data_mut().as_mut_slice();
                let rv = self.running_var.data_mut().as_mut_slice();
                for ch in 0..c {
                    rm[ch] = (1.0 - self.momentum) * rm[ch] + self.momentum * mean[ch];
                    rv[ch] = (1.0 - self.momentum) * rv[ch] + self.momentum * var[ch];
                }
                (mean, var)
            }
            Mode::Eval => (
                self.running_mean.data().as_slice().to_vec(),
                self.running_var.data().as_slice().to_vec(),
            ),
        };

        let inv_std: Vec<f32> = var.iter().map(|v| 1.0 / (v + self.eps).sqrt()).collect();
        let gamma = self.gamma.data().as_slice();
        let beta = self.beta.data().as_slice();

        let mut x_hat = Tensor::zeros(input.dims());
        let mut out = Tensor::zeros(input.dims());
        {
            let xh = x_hat.as_mut_slice();
            let o = out.as_mut_slice();
            for n in 0..batch {
                for ch in 0..c {
                    let base = (n * c + ch) * spatial;
                    for i in base..base + spatial {
                        let normed = (x[i] - mean[ch]) * inv_std[ch];
                        xh[i] = normed;
                        o[i] = gamma[ch] * normed + beta[ch];
                    }
                }
            }
        }
        self.cache = Some(BnCache {
            x_hat,
            inv_std,
            batch_stats: mode == Mode::Train,
            dims: input.dims().to_vec(),
        });
        Ok(out)
    }

    fn backward(&mut self, grad_output: &Tensor) -> Result<Tensor, NnError> {
        let cache = self
            .cache
            .as_ref()
            .ok_or_else(|| NnError::BackwardBeforeForward(self.name()))?;
        if grad_output.dims() != cache.dims.as_slice() {
            return Err(NnError::InvalidInput {
                layer: self.name(),
                expected: format!("gradient of shape {:?}", cache.dims),
                actual: grad_output.dims().to_vec(),
            });
        }
        let c = self.channels;
        let batch = cache.dims[0];
        let spatial = cache.dims[2] * cache.dims[3];
        let m = (batch * spatial) as f32;
        let g = grad_output.as_slice();
        let xh = cache.x_hat.as_slice();
        let gamma = self.gamma.data().as_slice();

        // Parameter gradients.
        let mut dgamma = vec![0.0f32; c];
        let mut dbeta = vec![0.0f32; c];
        for n in 0..batch {
            for ch in 0..c {
                let base = (n * c + ch) * spatial;
                for i in base..base + spatial {
                    dgamma[ch] += g[i] * xh[i];
                    dbeta[ch] += g[i];
                }
            }
        }

        let mut dx = Tensor::zeros(&cache.dims);
        let dxs = dx.as_mut_slice();
        if cache.batch_stats {
            // dx = gamma * inv_std / m * (m*g - dbeta - x_hat * dgamma)
            for n in 0..batch {
                for ch in 0..c {
                    let base = (n * c + ch) * spatial;
                    let scale = gamma[ch] * cache.inv_std[ch] / m;
                    for i in base..base + spatial {
                        dxs[i] = scale * (m * g[i] - dbeta[ch] - xh[i] * dgamma[ch]);
                    }
                }
            }
        } else {
            // Running statistics are constants: the layer is a per-channel
            // affine map, so dx = g * gamma * inv_std.
            for n in 0..batch {
                for (ch, &gm) in gamma.iter().enumerate() {
                    let base = (n * c + ch) * spatial;
                    let scale = gm * cache.inv_std[ch];
                    for i in base..base + spatial {
                        dxs[i] = scale * g[i];
                    }
                }
            }
        }

        self.gamma
            .grad_mut()
            .add_assign(&Tensor::from_vec(dgamma, &[c])?)?;
        self.beta
            .grad_mut()
            .add_assign(&Tensor::from_vec(dbeta, &[c])?)?;
        Ok(dx)
    }

    fn params(&self) -> Vec<&Parameter> {
        vec![
            &self.gamma,
            &self.beta,
            &self.running_mean,
            &self.running_var,
        ]
    }

    fn params_mut(&mut self) -> Vec<&mut Parameter> {
        vec![
            &mut self.gamma,
            &mut self.beta,
            &mut self.running_mean,
            &mut self.running_var,
        ]
    }

    fn spec(&self) -> Result<crate::spec::LayerSpec, NnError> {
        Ok(crate::spec::LayerSpec::BatchNorm2d {
            channels: self.channels,
        })
    }

    fn clone_box(&self) -> Box<dyn Layer> {
        Box::new(self.clone())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fitact_tensor::init;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn train_forward_normalises_each_channel() {
        let mut bn = BatchNorm2d::new(2);
        let mut rng = StdRng::seed_from_u64(0);
        let x = init::normal(&[4, 2, 3, 3], 5.0, 2.0, &mut rng);
        let y = bn.forward(&x, Mode::Train).unwrap();
        // With gamma=1, beta=0 the output of each channel has ~zero mean, unit variance.
        let spatial = 9;
        for ch in 0..2 {
            let mut vals = Vec::new();
            for n in 0..4 {
                let base = (n * 2 + ch) * spatial;
                vals.extend_from_slice(&y.as_slice()[base..base + spatial]);
            }
            let mean: f32 = vals.iter().sum::<f32>() / vals.len() as f32;
            let var: f32 =
                vals.iter().map(|v| (v - mean) * (v - mean)).sum::<f32>() / vals.len() as f32;
            assert!(mean.abs() < 1e-4, "channel {ch} mean {mean}");
            assert!((var - 1.0).abs() < 1e-2, "channel {ch} var {var}");
        }
    }

    #[test]
    fn running_stats_track_batch_stats() {
        let mut bn = BatchNorm2d::new(1);
        let x = Tensor::full(&[2, 1, 2, 2], 10.0);
        for _ in 0..50 {
            bn.forward(&x, Mode::Train).unwrap();
        }
        // Constant input: batch mean 10, batch var 0.
        assert!((bn.running_mean.data().as_slice()[0] - 10.0).abs() < 0.1);
        assert!(bn.running_var.data().as_slice()[0] < 0.1);
    }

    #[test]
    fn eval_uses_running_statistics() {
        let mut bn = BatchNorm2d::new(1);
        // Set running stats manually: mean 2, var 4 → inv_std 0.5 (approx).
        bn.running_mean.data_mut().fill(2.0);
        bn.running_var.data_mut().fill(4.0);
        let x = Tensor::full(&[1, 1, 1, 1], 6.0);
        let y = bn.forward(&x, Mode::Eval).unwrap();
        assert!((y.as_slice()[0] - 2.0).abs() < 1e-3); // (6-2)/2 = 2
    }

    #[test]
    fn gamma_beta_scale_and_shift() {
        let mut bn = BatchNorm2d::new(1);
        bn.running_mean.data_mut().fill(0.0);
        bn.running_var.data_mut().fill(1.0);
        bn.gamma.data_mut().fill(3.0);
        bn.beta.data_mut().fill(-1.0);
        let x = Tensor::full(&[1, 1, 1, 1], 2.0);
        let y = bn.forward(&x, Mode::Eval).unwrap();
        assert!((y.as_slice()[0] - 5.0).abs() < 1e-3); // 3*2 - 1
    }

    #[test]
    fn rejects_wrong_channels() {
        let mut bn = BatchNorm2d::new(3);
        assert!(bn
            .forward(&Tensor::zeros(&[1, 2, 4, 4]), Mode::Train)
            .is_err());
        assert!(bn.forward(&Tensor::zeros(&[2, 4, 4]), Mode::Train).is_err());
    }

    #[test]
    fn backward_before_forward_errors() {
        let mut bn = BatchNorm2d::new(1);
        assert!(matches!(
            bn.backward(&Tensor::zeros(&[1, 1, 1, 1])),
            Err(NnError::BackwardBeforeForward(_))
        ));
    }

    #[test]
    fn train_backward_gradient_check() {
        let mut bn = BatchNorm2d::new(2);
        let mut rng = StdRng::seed_from_u64(1);
        let x = init::uniform(&[3, 2, 2, 2], -2.0, 2.0, &mut rng);
        bn.forward(&x, Mode::Train).unwrap();
        // Use a non-uniform output weighting so the normalisation terms matter.
        let gw = init::uniform(&[3, 2, 2, 2], 0.5, 1.5, &mut rng);
        let dx = bn.backward(&gw).unwrap();
        let eps = 1e-2f32;
        let loss = |bn: &mut BatchNorm2d, x: &Tensor| -> f32 {
            bn.forward(x, Mode::Train).unwrap().mul(&gw).unwrap().sum()
        };
        let mut x_pert = x.clone();
        for idx in [0usize, 5, 13, 23] {
            let orig = x.as_slice()[idx];
            x_pert.as_mut_slice()[idx] = orig + eps;
            let plus = loss(&mut bn, &x_pert);
            x_pert.as_mut_slice()[idx] = orig - eps;
            let minus = loss(&mut bn, &x_pert);
            x_pert.as_mut_slice()[idx] = orig;
            let numeric = (plus - minus) / (2.0 * eps);
            let a = dx.as_slice()[idx];
            assert!(
                (a - numeric).abs() < 0.05,
                "idx {idx}: analytic {a} vs numeric {numeric}"
            );
        }
    }

    #[test]
    fn eval_backward_is_affine_scaling() {
        let mut bn = BatchNorm2d::new(1);
        bn.running_var.data_mut().fill(3.0);
        bn.gamma.data_mut().fill(2.0);
        let x = Tensor::full(&[1, 1, 1, 1], 1.0);
        bn.forward(&x, Mode::Eval).unwrap();
        let g = Tensor::full(&[1, 1, 1, 1], 1.0);
        let dx = bn.backward(&g).unwrap();
        let expected = 2.0 / (3.0f32 + 1e-5).sqrt();
        assert!((dx.as_slice()[0] - expected).abs() < 1e-4);
    }

    #[test]
    fn params_include_buffers() {
        let bn = BatchNorm2d::new(4);
        let names: Vec<&str> = bn.params().iter().map(|p| p.name()).collect();
        assert_eq!(names, vec!["gamma", "beta", "running_mean", "running_var"]);
        assert_eq!(bn.channels(), 4);
        // Buffers are not trainable, gamma/beta are.
        assert!(bn.params()[0].trainable());
        assert!(!bn.params()[2].trainable());
    }
}
