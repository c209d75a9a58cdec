//! Residual bottleneck blocks (ResNet).

use crate::layers::{join_path, ActivationLayer, BatchNorm2d, Conv2d, Layer, Mode, Sequential};
use crate::{NnError, Parameter};
use fitact_tensor::Tensor;
use rand::Rng;

/// The ResNet bottleneck residual block:
/// `1×1 conv → BN → act → 3×3 conv → BN → act → 1×1 conv → BN`, added to a
/// shortcut (identity, or a 1×1 conv + BN when the shape changes), followed by
/// a final activation.
///
/// Activations are hosted in [`ActivationLayer`] slots so the FitAct workflow
/// can replace them inside residual blocks exactly as it does in plain
/// sequential stacks.
#[derive(Debug, Clone)]
pub struct Bottleneck {
    main: Sequential,
    shortcut: Option<Sequential>,
    final_act: ActivationLayer,
}

impl Bottleneck {
    /// Expansion factor of the bottleneck (output channels = `planes * 4`).
    pub const EXPANSION: usize = 4;

    /// Creates a bottleneck block.
    ///
    /// * `in_channels` — channels of the incoming feature map,
    /// * `planes` — internal width; the block outputs `planes * 4` channels,
    /// * `stride` — stride of the 3×3 convolution (2 for down-sampling stages),
    /// * `spatial` — input spatial size `(h, w)`, needed to size the
    ///   activation slots,
    /// * `label` — diagnostic prefix for the activation slots.
    pub fn new<R: Rng + ?Sized>(
        in_channels: usize,
        planes: usize,
        stride: usize,
        spatial: (usize, usize),
        label: &str,
        rng: &mut R,
    ) -> Result<Self, NnError> {
        if planes == 0 || in_channels == 0 || stride == 0 {
            return Err(NnError::InvalidConfig(
                "bottleneck requires non-zero channels, planes and stride".into(),
            ));
        }
        let out_channels = planes * Self::EXPANSION;
        let (h, w) = spatial;
        let (out_h, out_w) = (h.div_ceil(stride), w.div_ceil(stride));

        let mut main = Sequential::new();
        main.push(Box::new(Conv2d::new(in_channels, planes, 1, 1, 0, rng)));
        main.push(Box::new(BatchNorm2d::new(planes)));
        main.push(Box::new(ActivationLayer::relu(
            format!("{label}.act1"),
            &[planes, h, w],
        )));
        main.push(Box::new(Conv2d::new(planes, planes, 3, stride, 1, rng)));
        main.push(Box::new(BatchNorm2d::new(planes)));
        main.push(Box::new(ActivationLayer::relu(
            format!("{label}.act2"),
            &[planes, out_h, out_w],
        )));
        main.push(Box::new(Conv2d::new(planes, out_channels, 1, 1, 0, rng)));
        main.push(Box::new(BatchNorm2d::new(out_channels)));

        let shortcut = if stride != 1 || in_channels != out_channels {
            let mut s = Sequential::new();
            s.push(Box::new(Conv2d::new(
                in_channels,
                out_channels,
                1,
                stride,
                0,
                rng,
            )));
            s.push(Box::new(BatchNorm2d::new(out_channels)));
            Some(s)
        } else {
            None
        };

        Ok(Bottleneck {
            main,
            shortcut,
            final_act: ActivationLayer::relu(
                format!("{label}.act3"),
                &[out_channels, out_h, out_w],
            ),
        })
    }

    /// Returns `true` if the block uses a projection shortcut.
    pub fn has_projection(&self) -> bool {
        self.shortcut.is_some()
    }

    /// Reassembles a block from its three constituents (the inverse of
    /// [`Layer::spec`], used by the artifact loader).
    pub fn from_parts(
        main: Sequential,
        shortcut: Option<Sequential>,
        final_act: ActivationLayer,
    ) -> Self {
        Bottleneck {
            main,
            shortcut,
            final_act,
        }
    }
}

impl Layer for Bottleneck {
    fn name(&self) -> String {
        format!("bottleneck(projection={})", self.has_projection())
    }

    fn forward(&mut self, input: &Tensor, mode: Mode) -> Result<Tensor, NnError> {
        let main_out = self.main.forward(input, mode)?;
        let summed = match &mut self.shortcut {
            Some(s) => main_out.add(&s.forward(input, mode)?)?,
            None => main_out.add(input)?,
        };
        self.final_act.forward(&summed, mode)
    }

    fn backward(&mut self, grad_output: &Tensor) -> Result<Tensor, NnError> {
        // The children hold every cache this reads: before a forward, or
        // after an Infer one, the final activation has none and refuses.
        let grad_sum = self.final_act.backward(grad_output)?;
        let grad_main = self.main.backward(&grad_sum)?;
        let grad_shortcut = match &mut self.shortcut {
            Some(s) => s.backward(&grad_sum)?,
            None => grad_sum,
        };
        Ok(grad_main.add(&grad_shortcut)?)
    }

    fn params(&self) -> Vec<&Parameter> {
        let mut out = self.main.params();
        if let Some(s) = &self.shortcut {
            out.extend(s.params());
        }
        out.extend(self.final_act.params());
        out
    }

    fn params_mut(&mut self) -> Vec<&mut Parameter> {
        let mut out = self.main.params_mut();
        if let Some(s) = &mut self.shortcut {
            out.extend(s.params_mut());
        }
        out.extend(self.final_act.params_mut());
        out
    }

    fn visit_params(&self, prefix: &str, visitor: &mut dyn FnMut(&str, &Parameter)) {
        self.main.visit_params(&join_path(prefix, "main"), visitor);
        if let Some(s) = &self.shortcut {
            s.visit_params(&join_path(prefix, "shortcut"), visitor);
        }
        self.final_act
            .visit_params(&join_path(prefix, "act3"), visitor);
    }

    fn visit_params_mut(&mut self, prefix: &str, visitor: &mut dyn FnMut(&str, &mut Parameter)) {
        self.main
            .visit_params_mut(&join_path(prefix, "main"), visitor);
        if let Some(s) = &mut self.shortcut {
            s.visit_params_mut(&join_path(prefix, "shortcut"), visitor);
        }
        self.final_act
            .visit_params_mut(&join_path(prefix, "act3"), visitor);
    }

    fn activation_slots(&mut self) -> Vec<&mut ActivationLayer> {
        let mut slots = self.main.activation_slots();
        if let Some(s) = &mut self.shortcut {
            slots.extend(s.activation_slots());
        }
        slots.extend(self.final_act.activation_slots());
        slots
    }

    fn spec(&self) -> Result<crate::spec::LayerSpec, NnError> {
        Ok(crate::spec::LayerSpec::Bottleneck {
            main: self.main.child_specs()?,
            shortcut: match &self.shortcut {
                Some(s) => Some(s.child_specs()?),
                None => None,
            },
            final_act: Box::new(Layer::spec(&self.final_act)?),
        })
    }

    fn clone_box(&self) -> Box<dyn Layer> {
        Box::new(self.clone())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn identity_shortcut_preserves_shape() {
        let mut rng = StdRng::seed_from_u64(0);
        let mut block = Bottleneck::new(16, 4, 1, (8, 8), "b0", &mut rng).unwrap();
        assert!(!block.has_projection());
        let y = block
            .forward(&Tensor::zeros(&[2, 16, 8, 8]), Mode::Eval)
            .unwrap();
        assert_eq!(y.dims(), &[2, 16, 8, 8]);
    }

    #[test]
    fn projection_shortcut_changes_channels_and_size() {
        let mut rng = StdRng::seed_from_u64(1);
        let mut block = Bottleneck::new(16, 8, 2, (8, 8), "b1", &mut rng).unwrap();
        assert!(block.has_projection());
        let y = block
            .forward(&Tensor::zeros(&[1, 16, 8, 8]), Mode::Eval)
            .unwrap();
        assert_eq!(y.dims(), &[1, 32, 4, 4]);
    }

    #[test]
    fn backward_produces_input_shaped_gradient() {
        let mut rng = StdRng::seed_from_u64(2);
        let mut block = Bottleneck::new(8, 2, 1, (4, 4), "b2", &mut rng).unwrap();
        let x = fitact_tensor::init::uniform(&[2, 8, 4, 4], -1.0, 1.0, &mut rng);
        let y = block.forward(&x, Mode::Train).unwrap();
        let dx = block.backward(&Tensor::ones(y.dims())).unwrap();
        assert_eq!(dx.dims(), x.dims());
        assert!(dx.is_finite());
    }

    #[test]
    fn backward_before_forward_errors() {
        let mut rng = StdRng::seed_from_u64(3);
        let mut block = Bottleneck::new(8, 2, 1, (4, 4), "b3", &mut rng).unwrap();
        assert!(matches!(
            block.backward(&Tensor::zeros(&[1, 8, 4, 4])),
            Err(NnError::BackwardBeforeForward(_))
        ));
    }

    #[test]
    fn activation_slots_cover_all_three_relus() {
        let mut rng = StdRng::seed_from_u64(4);
        let mut block = Bottleneck::new(8, 2, 1, (4, 4), "blk", &mut rng).unwrap();
        let labels: Vec<String> = block
            .activation_slots()
            .iter()
            .map(|s| s.label().to_owned())
            .collect();
        assert_eq!(labels, vec!["blk.act1", "blk.act2", "blk.act3"]);
    }

    #[test]
    fn visit_params_namespaces_main_and_shortcut() {
        let mut rng = StdRng::seed_from_u64(5);
        let block = Bottleneck::new(8, 4, 2, (4, 4), "blk", &mut rng).unwrap();
        let mut paths = Vec::new();
        block.visit_params("stage0/0", &mut |p, _| paths.push(p.to_owned()));
        assert!(paths.iter().any(|p| p.starts_with("stage0/0/main/0/")));
        assert!(paths.iter().any(|p| p.starts_with("stage0/0/shortcut/0/")));
        // Deterministic and duplicate-free.
        let mut sorted = paths.clone();
        sorted.sort();
        sorted.dedup();
        assert_eq!(sorted.len(), paths.len());
    }

    #[test]
    fn invalid_configuration_rejected() {
        let mut rng = StdRng::seed_from_u64(6);
        assert!(Bottleneck::new(0, 4, 1, (4, 4), "x", &mut rng).is_err());
        assert!(Bottleneck::new(8, 0, 1, (4, 4), "x", &mut rng).is_err());
        assert!(Bottleneck::new(8, 4, 0, (4, 4), "x", &mut rng).is_err());
    }

    #[test]
    fn residual_path_actually_adds() {
        // With the main path zeroed (all conv weights and BN gammas at zero the
        // BN betas at zero), the block reduces to act(shortcut(x)) — for the
        // identity shortcut that is ReLU(x).
        let mut rng = StdRng::seed_from_u64(7);
        let mut block = Bottleneck::new(8, 2, 1, (2, 2), "b", &mut rng).unwrap();
        for p in block.main.params_mut() {
            p.data_mut().fill(0.0);
        }
        let x = fitact_tensor::init::uniform(&[1, 8, 2, 2], -1.0, 1.0, &mut rng);
        let y = block.forward(&x, Mode::Eval).unwrap();
        let expected = x.map(|v| v.max(0.0));
        for (a, b) in y.as_slice().iter().zip(expected.as_slice()) {
            assert!((a - b).abs() < 1e-5);
        }
    }
}
