//! Inverted dropout regularisation.

use crate::layers::{Layer, Mode};
use crate::NnError;
use fitact_tensor::Tensor;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Inverted dropout: during training each element is zeroed with probability
/// `p` and the survivors are scaled by `1 / (1 − p)`; during evaluation the
/// layer is the identity.
///
/// AlexNet and VGG16 use dropout in their fully-connected classifiers.
#[derive(Debug, Clone)]
pub struct Dropout {
    p: f32,
    seed: u64,
    rng: StdRng,
    /// What `backward` applies: the last [`Mode::Train`] mask, the identity
    /// after a [`Mode::Eval`] forward, or nothing (no forward yet, or a
    /// [`Mode::Infer`] one).
    cached_mask: Option<Option<Tensor>>,
}

impl Dropout {
    /// Creates a dropout layer with drop probability `p` and a deterministic
    /// RNG seed.
    ///
    /// # Errors
    ///
    /// Returns [`NnError::InvalidConfig`] if `p` is outside `[0, 1)`.
    pub fn new(p: f32, seed: u64) -> Result<Self, NnError> {
        if !(0.0..1.0).contains(&p) {
            return Err(NnError::InvalidConfig(format!(
                "dropout probability {p} must be in [0, 1)"
            )));
        }
        Ok(Dropout {
            p,
            seed,
            rng: StdRng::seed_from_u64(seed),
            cached_mask: None,
        })
    }

    /// The configured drop probability.
    pub fn probability(&self) -> f32 {
        self.p
    }

    /// The seed the mask RNG was constructed from.
    pub fn seed(&self) -> u64 {
        self.seed
    }
}

impl Layer for Dropout {
    fn name(&self) -> String {
        format!("dropout(p={})", self.p)
    }

    fn forward(&mut self, input: &Tensor, mode: Mode) -> Result<Tensor, NnError> {
        match mode {
            Mode::Eval | Mode::Infer => {
                self.cached_mask = mode.keeps_backward_state().then_some(None);
                Ok(input.clone())
            }
            Mode::Train => {
                if self.p == 0.0 {
                    self.cached_mask = Some(Some(Tensor::ones(input.dims())));
                    return Ok(input.clone());
                }
                let keep = 1.0 - self.p;
                let scale = 1.0 / keep;
                let mut mask = Tensor::zeros(input.dims());
                for v in mask.as_mut_slice() {
                    *v = if self.rng.gen::<f32>() < keep {
                        scale
                    } else {
                        0.0
                    };
                }
                let out = input.mul(&mask)?;
                self.cached_mask = Some(Some(mask));
                Ok(out)
            }
        }
    }

    fn backward(&mut self, grad_output: &Tensor) -> Result<Tensor, NnError> {
        match &self.cached_mask {
            Some(Some(mask)) => Ok(grad_output.mul(mask)?),
            // Eval-mode forward: identity.
            Some(None) => Ok(grad_output.clone()),
            None => Err(NnError::BackwardBeforeForward(self.name())),
        }
    }

    fn spec(&self) -> Result<crate::spec::LayerSpec, NnError> {
        // The spec records the construction seed, not the RNG's current
        // position: a reloaded layer restarts its mask stream (eval-mode
        // inference, which artifacts exist for, never draws from it).
        Ok(crate::spec::LayerSpec::Dropout {
            p: self.p,
            seed: self.seed,
        })
    }

    fn clone_box(&self) -> Box<dyn Layer> {
        Box::new(self.clone())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn invalid_probability_rejected() {
        assert!(Dropout::new(1.0, 0).is_err());
        assert!(Dropout::new(-0.1, 0).is_err());
        assert!(Dropout::new(0.5, 0).is_ok());
    }

    #[test]
    fn eval_mode_is_identity() {
        let mut d = Dropout::new(0.5, 1).unwrap();
        let x = Tensor::from_vec(vec![1.0, 2.0, 3.0], &[1, 3]).unwrap();
        assert_eq!(d.forward(&x, Mode::Eval).unwrap(), x);
        // Backward after eval is also identity.
        assert_eq!(d.backward(&x).unwrap(), x);
        // Infer is the identity too, but leaves nothing to backpropagate.
        assert_eq!(d.forward(&x, Mode::Infer).unwrap(), x);
        assert!(matches!(
            d.backward(&x),
            Err(NnError::BackwardBeforeForward(_))
        ));
    }

    #[test]
    fn train_mode_zeroes_roughly_p_fraction() {
        let mut d = Dropout::new(0.5, 2).unwrap();
        let x = Tensor::ones(&[1, 10000]);
        let y = d.forward(&x, Mode::Train).unwrap();
        let zeros = y.as_slice().iter().filter(|&&v| v == 0.0).count();
        assert!((4000..6000).contains(&zeros), "zeros = {zeros}");
        // Surviving values are scaled by 1/(1-p) = 2.
        assert!(y
            .as_slice()
            .iter()
            .all(|&v| v == 0.0 || (v - 2.0).abs() < 1e-6));
    }

    #[test]
    fn backward_uses_same_mask() {
        let mut d = Dropout::new(0.3, 3).unwrap();
        let x = Tensor::ones(&[1, 100]);
        let y = d.forward(&x, Mode::Train).unwrap();
        let g = d.backward(&Tensor::ones(&[1, 100])).unwrap();
        // Gradient is zero exactly where the output was zero.
        for (yv, gv) in y.as_slice().iter().zip(g.as_slice()) {
            assert_eq!(*yv == 0.0, *gv == 0.0);
        }
    }

    #[test]
    fn zero_probability_keeps_everything() {
        let mut d = Dropout::new(0.0, 4).unwrap();
        let x = Tensor::ones(&[1, 16]);
        assert_eq!(d.forward(&x, Mode::Train).unwrap(), x);
        assert_eq!(d.probability(), 0.0);
    }
}
