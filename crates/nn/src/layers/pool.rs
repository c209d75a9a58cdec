//! Spatial pooling layers.

use crate::layers::{Layer, Mode};
use crate::NnError;
use fitact_tensor::{conv_output_size, Tensor};

/// Max pooling over square windows of a `[batch, channels, height, width]`
/// input.
///
/// # Example
///
/// ```
/// use fitact_nn::{layers::MaxPool2d, Layer, Mode};
/// use fitact_tensor::Tensor;
///
/// # fn main() -> Result<(), fitact_nn::NnError> {
/// let mut pool = MaxPool2d::new(2, 2);
/// let y = pool.forward(&Tensor::zeros(&[1, 3, 8, 8]), Mode::Eval)?;
/// assert_eq!(y.dims(), &[1, 3, 4, 4]);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct MaxPool2d {
    kernel: usize,
    stride: usize,
    cache: Option<PoolCache>,
}

#[derive(Debug, Clone)]
struct PoolCache {
    input_dims: Vec<usize>,
    /// Flat input index of the maximum for every output element. The vector
    /// is reused across forward calls (resized, never reallocated once warm).
    argmax: Vec<usize>,
}

impl MaxPool2d {
    /// Creates a max-pooling layer with a square `kernel` and `stride`.
    pub fn new(kernel: usize, stride: usize) -> Self {
        MaxPool2d {
            kernel,
            stride,
            cache: None,
        }
    }
}

impl Layer for MaxPool2d {
    fn name(&self) -> String {
        format!("maxpool2d(k{}, s{})", self.kernel, self.stride)
    }

    fn forward(&mut self, input: &Tensor, mode: Mode) -> Result<Tensor, NnError> {
        if input.ndim() != 4 {
            return Err(NnError::InvalidInput {
                layer: self.name(),
                expected: "[batch, channels, h, w]".into(),
                actual: input.dims().to_vec(),
            });
        }
        let (batch, c, h, w) = (
            input.dims()[0],
            input.dims()[1],
            input.dims()[2],
            input.dims()[3],
        );
        let (out_h, out_w) = conv_output_size((h, w), (self.kernel, self.kernel), self.stride, 0)?;
        let x = input.as_slice();
        let mut out = Tensor::zeros(&[batch, c, out_h, out_w]);
        // Reuse the previous cache's argmax storage instead of reallocating;
        // an Infer forward drops it and records no argmax.
        let keep = mode.keeps_backward_state();
        let mut argmax = match self.cache.take() {
            Some(cache) if keep => cache.argmax,
            _ => Vec::new(),
        };
        if keep {
            argmax.clear();
            argmax.resize(out.numel(), 0);
        }
        {
            let o = out.as_mut_slice();
            let mut oi = 0usize;
            for n in 0..batch {
                for ch in 0..c {
                    let plane = (n * c + ch) * h * w;
                    for oy in 0..out_h {
                        for ox in 0..out_w {
                            let mut best = f32::NEG_INFINITY;
                            let mut best_idx = 0usize;
                            for ky in 0..self.kernel {
                                for kx in 0..self.kernel {
                                    let iy = oy * self.stride + ky;
                                    let ix = ox * self.stride + kx;
                                    let idx = plane + iy * w + ix;
                                    if x[idx] > best {
                                        best = x[idx];
                                        best_idx = idx;
                                    }
                                }
                            }
                            o[oi] = best;
                            if keep {
                                argmax[oi] = best_idx;
                            }
                            oi += 1;
                        }
                    }
                }
            }
        }
        if keep {
            self.cache = Some(PoolCache {
                input_dims: input.dims().to_vec(),
                argmax,
            });
        }
        Ok(out)
    }

    fn backward(&mut self, grad_output: &Tensor) -> Result<Tensor, NnError> {
        let cache = self
            .cache
            .as_ref()
            .ok_or_else(|| NnError::BackwardBeforeForward(self.name()))?;
        if grad_output.numel() != cache.argmax.len() {
            return Err(NnError::InvalidInput {
                layer: self.name(),
                expected: format!("gradient with {} elements", cache.argmax.len()),
                actual: grad_output.dims().to_vec(),
            });
        }
        let mut dx = Tensor::zeros(&cache.input_dims);
        let dxs = dx.as_mut_slice();
        for (g, &src) in grad_output.as_slice().iter().zip(&cache.argmax) {
            dxs[src] += g;
        }
        Ok(dx)
    }

    fn spec(&self) -> Result<crate::spec::LayerSpec, NnError> {
        Ok(crate::spec::LayerSpec::MaxPool2d {
            kernel: self.kernel,
            stride: self.stride,
        })
    }

    fn clone_box(&self) -> Box<dyn Layer> {
        Box::new(self.clone())
    }
}

/// Global average pooling: `[batch, channels, h, w] → [batch, channels]`.
///
/// Used as the head of the CIFAR-scale ResNet50.
#[derive(Debug, Clone, Default)]
pub struct GlobalAvgPool {
    cached_dims: Option<Vec<usize>>,
}

impl GlobalAvgPool {
    /// Creates a global average pooling layer.
    pub fn new() -> Self {
        GlobalAvgPool { cached_dims: None }
    }
}

impl Layer for GlobalAvgPool {
    fn name(&self) -> String {
        "global_avg_pool".into()
    }

    fn forward(&mut self, input: &Tensor, mode: Mode) -> Result<Tensor, NnError> {
        if input.ndim() != 4 {
            return Err(NnError::InvalidInput {
                layer: self.name(),
                expected: "[batch, channels, h, w]".into(),
                actual: input.dims().to_vec(),
            });
        }
        let (batch, c, h, w) = (
            input.dims()[0],
            input.dims()[1],
            input.dims()[2],
            input.dims()[3],
        );
        self.cached_dims = mode.keeps_backward_state().then(|| input.dims().to_vec());
        let spatial = (h * w) as f32;
        let x = input.as_slice();
        let mut out = Tensor::zeros(&[batch, c]);
        let o = out.as_mut_slice();
        for n in 0..batch {
            for ch in 0..c {
                let base = (n * c + ch) * h * w;
                o[n * c + ch] = x[base..base + h * w].iter().sum::<f32>() / spatial;
            }
        }
        Ok(out)
    }

    fn backward(&mut self, grad_output: &Tensor) -> Result<Tensor, NnError> {
        let dims = self
            .cached_dims
            .as_ref()
            .ok_or_else(|| NnError::BackwardBeforeForward(self.name()))?;
        let (batch, c, h, w) = (dims[0], dims[1], dims[2], dims[3]);
        if grad_output.dims() != [batch, c] {
            return Err(NnError::InvalidInput {
                layer: self.name(),
                expected: format!("[{batch}, {c}] gradient"),
                actual: grad_output.dims().to_vec(),
            });
        }
        let scale = 1.0 / (h * w) as f32;
        let g = grad_output.as_slice();
        let mut dx = Tensor::zeros(dims);
        let dxs = dx.as_mut_slice();
        for n in 0..batch {
            for ch in 0..c {
                let base = (n * c + ch) * h * w;
                let val = g[n * c + ch] * scale;
                for v in &mut dxs[base..base + h * w] {
                    *v = val;
                }
            }
        }
        Ok(dx)
    }

    fn spec(&self) -> Result<crate::spec::LayerSpec, NnError> {
        Ok(crate::spec::LayerSpec::GlobalAvgPool)
    }

    fn clone_box(&self) -> Box<dyn Layer> {
        Box::new(self.clone())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn maxpool_picks_window_maxima() {
        let mut pool = MaxPool2d::new(2, 2);
        let x = Tensor::from_vec(
            vec![
                1.0, 2.0, 5.0, 6.0, //
                3.0, 4.0, 7.0, 8.0, //
                9.0, 10.0, 13.0, 14.0, //
                11.0, 12.0, 15.0, 16.0,
            ],
            &[1, 1, 4, 4],
        )
        .unwrap();
        let y = pool.forward(&x, Mode::Eval).unwrap();
        assert_eq!(y.dims(), &[1, 1, 2, 2]);
        assert_eq!(y.as_slice(), &[4.0, 8.0, 12.0, 16.0]);
    }

    #[test]
    fn maxpool_backward_routes_gradient_to_maxima() {
        let mut pool = MaxPool2d::new(2, 2);
        let x = Tensor::from_vec(
            vec![1.0, 2.0, 3.0, 4.0], //
            &[1, 1, 2, 2],
        )
        .unwrap();
        pool.forward(&x, Mode::Eval).unwrap();
        let g = Tensor::from_vec(vec![5.0], &[1, 1, 1, 1]).unwrap();
        let dx = pool.backward(&g).unwrap();
        assert_eq!(dx.as_slice(), &[0.0, 0.0, 0.0, 5.0]);
    }

    #[test]
    fn maxpool_rejects_bad_input_and_premature_backward() {
        let mut pool = MaxPool2d::new(2, 2);
        assert!(pool.forward(&Tensor::zeros(&[4, 4]), Mode::Eval).is_err());
        assert!(matches!(
            pool.backward(&Tensor::zeros(&[1, 1, 1, 1])),
            Err(NnError::BackwardBeforeForward(_))
        ));
        pool.forward(&Tensor::zeros(&[1, 1, 4, 4]), Mode::Eval)
            .unwrap();
        assert!(pool.backward(&Tensor::zeros(&[1, 1, 4, 4])).is_err());
    }

    #[test]
    fn global_avg_pool_averages_planes() {
        let mut pool = GlobalAvgPool::new();
        let x = Tensor::from_vec(
            vec![1.0, 2.0, 3.0, 4.0, 10.0, 20.0, 30.0, 40.0],
            &[1, 2, 2, 2],
        )
        .unwrap();
        let y = pool.forward(&x, Mode::Eval).unwrap();
        assert_eq!(y.dims(), &[1, 2]);
        assert_eq!(y.as_slice(), &[2.5, 25.0]);
    }

    #[test]
    fn global_avg_pool_backward_spreads_gradient() {
        let mut pool = GlobalAvgPool::new();
        let x = Tensor::ones(&[1, 1, 2, 2]);
        pool.forward(&x, Mode::Eval).unwrap();
        let g = Tensor::from_vec(vec![8.0], &[1, 1]).unwrap();
        let dx = pool.backward(&g).unwrap();
        assert_eq!(dx.as_slice(), &[2.0, 2.0, 2.0, 2.0]);
    }

    #[test]
    fn global_avg_pool_errors() {
        let mut pool = GlobalAvgPool::new();
        assert!(pool.forward(&Tensor::zeros(&[2, 2]), Mode::Eval).is_err());
        assert!(matches!(
            pool.backward(&Tensor::zeros(&[1, 1])),
            Err(NnError::BackwardBeforeForward(_))
        ));
        pool.forward(&Tensor::zeros(&[1, 2, 2, 2]), Mode::Eval)
            .unwrap();
        assert!(pool.backward(&Tensor::zeros(&[1, 3])).is_err());
    }
}
