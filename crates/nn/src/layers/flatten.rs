//! Flattening of feature maps into vectors.

use crate::layers::{Layer, Mode};
use crate::NnError;
use fitact_tensor::Tensor;

/// Flattens `[batch, ...features]` into `[batch, prod(features)]`.
///
/// Used between the convolutional trunk and the fully-connected classifier of
/// AlexNet and VGG16.
#[derive(Debug, Clone, Default)]
pub struct Flatten {
    cached_dims: Option<Vec<usize>>,
}

impl Flatten {
    /// Creates a flatten layer.
    pub fn new() -> Self {
        Flatten { cached_dims: None }
    }
}

impl Layer for Flatten {
    fn name(&self) -> String {
        "flatten".into()
    }

    fn forward(&mut self, input: &Tensor, mode: Mode) -> Result<Tensor, NnError> {
        if input.ndim() < 2 {
            return Err(NnError::InvalidInput {
                layer: self.name(),
                expected: "[batch, ...features]".into(),
                actual: input.dims().to_vec(),
            });
        }
        self.cached_dims = mode.keeps_backward_state().then(|| input.dims().to_vec());
        let batch = input.dims()[0];
        let features: usize = input.dims()[1..].iter().product();
        Ok(input.reshape(&[batch, features])?)
    }

    fn backward(&mut self, grad_output: &Tensor) -> Result<Tensor, NnError> {
        let dims = self
            .cached_dims
            .as_ref()
            .ok_or_else(|| NnError::BackwardBeforeForward(self.name()))?;
        Ok(grad_output.reshape(dims)?)
    }

    fn spec(&self) -> Result<crate::spec::LayerSpec, NnError> {
        Ok(crate::spec::LayerSpec::Flatten)
    }

    fn clone_box(&self) -> Box<dyn Layer> {
        Box::new(self.clone())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn flatten_and_unflatten_roundtrip() {
        let mut f = Flatten::new();
        let x = Tensor::from_vec((0..24).map(|v| v as f32).collect(), &[2, 3, 2, 2]).unwrap();
        let y = f.forward(&x, Mode::Eval).unwrap();
        assert_eq!(y.dims(), &[2, 12]);
        let g = f.backward(&y).unwrap();
        assert_eq!(g.dims(), x.dims());
        assert_eq!(g.as_slice(), x.as_slice());
    }

    #[test]
    fn flatten_rejects_scalars_and_premature_backward() {
        let mut f = Flatten::new();
        assert!(f.forward(&Tensor::zeros(&[4]), Mode::Eval).is_err());
        assert!(matches!(
            f.backward(&Tensor::zeros(&[1, 4])),
            Err(NnError::BackwardBeforeForward(_))
        ));
    }
}
