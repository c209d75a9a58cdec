//! Hard-bounded ReLUs: Clip-Act, Ranger, per-channel Clip-Act and
//! FitReLU-Naive.

use fitact_nn::spec::ActivationSpec;
use fitact_nn::{Activation, NnError, Parameter};
use fitact_tensor::{Tensor, TensorError};

/// A ReLU with hard bounds λ: the activation of Clip-Act (paper Eq. 4),
/// Ranger, the per-channel ablation and FitReLU-Naive (paper Eq. 5).
///
/// The four differ only in how many neurons share one λ and in what a value
/// above λ becomes:
///
/// ```text
/// squash:   ξ(x) = x if 0 < x ≤ λ, else 0
/// truncate: ξ(x) = x if 0 < x ≤ λ, λ if x > λ, else 0
/// ```
///
/// | Constructor | Scheme | One λ per | Above λ | Spec kind | Parameters |
/// |---|---|---|---|---|---|
/// | [`clip_act`](Self::clip_act) | Clip-Act (GBReLU, Eq. 4) | layer | squash | `gbrelu` | none |
/// | [`ranger`](Self::ranger) | Ranger | layer | truncate | `ranger` | none |
/// | [`per_channel`](Self::per_channel) | per-channel Clip-Act | channel | squash | `channel_relu` | `lambda`, one word per channel |
/// | [`per_neuron`](Self::per_neuron) | FitReLU-Naive (Eq. 5) | neuron | squash | `fitrelu_naive` | `lambda`, one word per neuron |
///
/// A layer bound is a constant of the layer, as in Clip-Act and Ranger: it
/// is no parameter, so it adds no word to Table I or to the fault space.
/// Channel and neuron bounds are a frozen `lambda` parameter, because a hard
/// bound has no usable gradient with respect to λ; the smooth
/// [`crate::FitRelu`] is what makes the bounds trainable.
///
/// # Example
///
/// ```
/// use fitact::BoundedRelu;
/// use fitact_nn::Activation;
///
/// let act = BoundedRelu::clip_act(4.0);
/// assert_eq!(act.eval_scalar(2.0, 0), 2.0);
/// assert_eq!(act.eval_scalar(5.0, 0), 0.0);
/// assert_eq!(act.eval_scalar(-1.0, 0), 0.0);
/// assert_eq!(BoundedRelu::ranger(4.0).eval_scalar(5.0, 0), 4.0);
/// ```
#[derive(Debug, Clone)]
pub struct BoundedRelu {
    kind: Kind,
    /// One bound for a layer kind, else one per channel or per neuron.
    lambda: Parameter,
}

/// How many values share one bound and what a value above it becomes; each
/// kind is one spec kind.
#[derive(Debug, Clone, Copy)]
enum Kind {
    ClipAct,
    Ranger,
    /// One bound per run of `plane` consecutive values (`H·W`, or 1 for a
    /// dense layer).
    Channel {
        plane: usize,
    },
    Neuron,
}

/// ξ for the squashing kinds: `x` for `0 < x ≤ λ`, else `+0.0` (also for
/// NaN, −0.0 and −∞).
#[inline(always)]
fn squash(x: f32, bound: f32) -> f32 {
    if x > 0.0 && x <= bound {
        x
    } else {
        0.0
    }
}

/// ξ for Ranger: `f32::clamp` to `[0, λ]`, so NaN passes through and −0.0
/// stays −0.0.
#[inline(always)]
fn truncate(x: f32, bound: f32) -> f32 {
    x.clamp(0.0, bound)
}

impl BoundedRelu {
    /// Clip-Act's globally bounded ReLU (GBReLU, paper Eq. 4; Hoang et al.,
    /// DATE 2020): one bound for the whole layer, values above it squashed
    /// to zero.
    ///
    /// # Panics
    ///
    /// Panics if `bound` is not finite or is negative.
    pub fn clip_act(bound: f32) -> Self {
        Self::new(Kind::ClipAct, &[bound])
    }

    /// Ranger's range restriction (Chen et al., DSN 2021): one bound for the
    /// whole layer, values above it truncated to the bound. The paper notes
    /// that the bound value "still propagates in the network", which is why
    /// Ranger protects less than Clip-Act and FitAct.
    ///
    /// # Panics
    ///
    /// Panics if `bound` is not finite or is negative.
    pub fn ranger(bound: f32) -> Self {
        Self::new(Kind::Ranger, &[bound])
    }

    /// One bound per channel of a feature map with `plane` values per
    /// channel (`H·W`, or 1 for a dense layer), squashing like Clip-Act.
    ///
    /// The ablation point between a bound per layer and a bound per neuron:
    /// it costs `C` words per layer instead of `C·H·W`, but cannot follow
    /// the spatial variation of activation maxima.
    ///
    /// # Panics
    ///
    /// Panics if `bounds` is empty, `plane` is zero, `bounds.len() × plane`
    /// overflows `usize`, or a bound is negative or not finite.
    pub fn per_channel(bounds: &[f32], plane: usize) -> Self {
        assert!(plane > 0, "plane size must be non-zero");
        assert!(
            bounds.len().checked_mul(plane).is_some(),
            "channels × plane overflows usize"
        );
        Self::new(Kind::Channel { plane }, bounds)
    }

    /// FitReLU-Naive (paper Eq. 5): one bound per neuron, squashing.
    ///
    /// Eq. 5 cannot learn its bounds, but bounds learned by
    /// [`crate::FitRelu`] can be installed here for an exact hard cutoff at
    /// inference time (`docs/deviations.md` records that no deployment
    /// ablation has been measured).
    ///
    /// # Panics
    ///
    /// Panics if `bounds` is empty or a bound is negative or not finite.
    pub fn per_neuron(bounds: &[f32]) -> Self {
        Self::new(Kind::Neuron, bounds)
    }

    fn new(kind: Kind, bounds: &[f32]) -> Self {
        assert!(!bounds.is_empty(), "needs at least one bound");
        assert!(
            bounds.iter().all(|b| b.is_finite() && *b >= 0.0),
            "bounds must be finite and non-negative"
        );
        let tensor = Tensor::from_vec(bounds.to_vec(), &[bounds.len()])
            .expect("bounds vector matches its own length");
        let mut lambda = Parameter::new("lambda", tensor);
        lambda.freeze();
        BoundedRelu { kind, lambda }
    }

    fn bounds(&self) -> &[f32] {
        self.lambda.data().as_slice()
    }

    fn is_layer_bound(&self) -> bool {
        matches!(self.kind, Kind::ClipAct | Kind::Ranger)
    }

    /// How many consecutive values share one bound: all of them for a layer
    /// bound, one plane for a channel bound and one value for a neuron bound.
    /// Value `i` of a tensor has bound `bounds[(i / run) % bounds.len()]`.
    fn run(&self) -> usize {
        match self.kind {
            Kind::ClipAct | Kind::Ranger => usize::MAX,
            Kind::Channel { plane } => plane,
            Kind::Neuron => 1,
        }
    }

    /// Rejects an input whose samples do not hold exactly this bound's
    /// features. A layer bound accepts any shape.
    fn check_input(&self, input: &Tensor) -> Result<(), NnError> {
        let features = match self.kind {
            Kind::ClipAct | Kind::Ranger => return Ok(()),
            Kind::Channel { plane } => self.bounds().len() * plane,
            Kind::Neuron => self.bounds().len(),
        };
        if input.ndim() < 2 || input.dims()[1..].iter().product::<usize>() != features {
            return Err(NnError::InvalidInput {
                layer: self.name().into(),
                expected: format!("[batch, ...] with {features} features per sample"),
                actual: input.dims().to_vec(),
            });
        }
        Ok(())
    }
}

impl Activation for BoundedRelu {
    fn name(&self) -> &str {
        match self.kind {
            Kind::ClipAct => "gbrelu",
            Kind::Ranger => "ranger",
            Kind::Channel { .. } => "channel_relu",
            Kind::Neuron => "fitrelu_naive",
        }
    }

    fn forward(&mut self, input: &Tensor) -> Result<Tensor, NnError> {
        self.check_input(input)?;
        let mut out = input.clone();
        let (values, bounds) = (out.as_mut_slice(), self.bounds());
        match self.kind {
            Kind::Neuron => {
                for sample in values.chunks_exact_mut(bounds.len()) {
                    for (x, &bound) in sample.iter_mut().zip(bounds) {
                        *x = squash(*x, bound);
                    }
                }
            }
            Kind::Ranger => values.iter_mut().for_each(|x| *x = truncate(*x, bounds[0])),
            Kind::ClipAct | Kind::Channel { .. } => {
                for (run, &bound) in values.chunks_mut(self.run()).zip(bounds.iter().cycle()) {
                    run.iter_mut().for_each(|x| *x = squash(*x, bound));
                }
            }
        }
        Ok(out)
    }

    fn backward(&mut self, input: &Tensor, grad_output: &Tensor) -> Result<Tensor, NnError> {
        // A layer bound checks no feature count, so its gradient must have
        // the input's exact shape; the others need only as many elements.
        if self.is_layer_bound() && grad_output.dims() != input.dims() {
            return Err(TensorError::ShapeMismatch {
                left: input.dims().to_vec(),
                right: grad_output.dims().to_vec(),
            }
            .into());
        }
        if grad_output.numel() != input.numel() {
            return Err(NnError::InvalidInput {
                layer: self.name().into(),
                expected: format!("gradient with {} elements", input.numel()),
                actual: grad_output.dims().to_vec(),
            });
        }
        // One pass: the gradient flows exactly where 0 < x ≤ λ.
        let pass = |x: f32, g: f32, bound: f32| if x > 0.0 && x <= bound { g } else { 0.0 };
        let (x, g, bounds) = (input.as_slice(), grad_output.as_slice(), self.bounds());
        let mut grad = Vec::with_capacity(x.len());
        if let Kind::Neuron = self.kind {
            let n = bounds.len();
            for (x, g) in x.chunks_exact(n).zip(g.chunks_exact(n)) {
                let each = x.iter().zip(g).zip(bounds);
                grad.extend(each.map(|((&x, &g), &bound)| pass(x, g, bound)));
            }
        } else {
            let run = self.run();
            for ((x, g), &bound) in x.chunks(run).zip(g.chunks(run)).zip(bounds.iter().cycle()) {
                grad.extend(x.iter().zip(g).map(|(&x, &g)| pass(x, g, bound)));
            }
        }
        Ok(Tensor::from_vec(grad, grad_output.dims())?)
    }

    fn eval_scalar(&self, x: f32, neuron: usize) -> f32 {
        let bounds = self.bounds();
        let bound = bounds[(neuron / self.run()) % bounds.len()];
        match self.kind {
            Kind::Ranger => truncate(x, bound),
            _ => squash(x, bound),
        }
    }

    fn count_violations(&self, input: &Tensor) -> u64 {
        // Only values above λ are fault evidence: x ≤ 0 is ordinary ReLU
        // zeroing, and NaN compares false, so it never counts.
        let (values, bounds) = (input.as_slice(), self.bounds());
        if let Kind::Neuron = self.kind {
            return super::count_above_bounds(values, bounds);
        }
        let runs = values.chunks(self.run()).zip(bounds.iter().cycle());
        runs.map(|(run, &bound)| run.iter().filter(|&&x| x > bound).count() as u64)
            .sum()
    }

    fn params(&self) -> Vec<&Parameter> {
        if self.is_layer_bound() {
            Vec::new()
        } else {
            vec![&self.lambda]
        }
    }

    fn params_mut(&mut self) -> Vec<&mut Parameter> {
        if self.is_layer_bound() {
            Vec::new()
        } else {
            vec![&mut self.lambda]
        }
    }

    fn spec(&self) -> Result<ActivationSpec, NnError> {
        // Channel and neuron bounds restore through the `lambda` parameter;
        // their spec only carries its shape.
        let bounds = self.bounds();
        let (floats, ints) = match self.kind {
            Kind::ClipAct | Kind::Ranger => (vec![bounds[0]], Vec::new()),
            Kind::Channel { plane } => (Vec::new(), vec![bounds.len() as u64, plane as u64]),
            Kind::Neuron => (Vec::new(), vec![bounds.len() as u64]),
        };
        Ok(ActivationSpec {
            kind: self.name().into(),
            floats,
            ints,
        })
    }

    fn clone_box(&self) -> Box<dyn Activation> {
        Box::new(self.clone())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fitact_nn::layers::ActivationLayer;
    use fitact_nn::{Layer, Mode};

    /// Every kind, with bounds that differ between neurons and channels.
    fn every_kind() -> Vec<BoundedRelu> {
        vec![
            BoundedRelu::clip_act(2.0),
            BoundedRelu::ranger(2.0),
            BoundedRelu::per_channel(&[1.0, 3.0, 0.0], 3),
            BoundedRelu::per_neuron(&[1.0, 2.0, 0.5, 3.0, 0.0, 4.0, 2.5, 1.5, 0.25]),
        ]
    }

    /// Two samples of 9 features (not a multiple of 8), holding a NaN with a
    /// payload, both signed zeros, both infinities, the largest float and
    /// values at, below and above every bound.
    fn special_input() -> Tensor {
        let data = vec![
            f32::from_bits(0x7fc0_1234),
            -0.0,
            0.0,
            f32::INFINITY,
            f32::NEG_INFINITY,
            f32::MAX,
            1.0,
            3.0,
            0.5,
            2.0,
            2.5,
            -1.0,
            0.25,
            f32::MIN_POSITIVE,
            -f32::from_bits(0x7fc0_0001),
            4.0,
            1.5,
            100.0,
        ];
        Tensor::from_vec(data, &[2, 9]).unwrap()
    }

    fn bits(values: &[f32]) -> Vec<u32> {
        values.iter().map(|v| v.to_bits()).collect()
    }

    #[test]
    fn forward_backward_and_counts_match_the_scalar_definition() {
        let x = special_input();
        let g: Vec<f32> = (0..x.numel()).map(|i| i as f32 - 7.5).collect();
        let g = Tensor::from_vec(g, x.dims()).unwrap();
        for mut act in every_kind() {
            let y = act.forward(&x).unwrap();
            let grad = act.backward(&x, &g).unwrap();
            let (mut expected_y, mut expected_grad, mut over) = (Vec::new(), Vec::new(), 0);
            for (i, (&xi, &gi)) in x.as_slice().iter().zip(g.as_slice()).enumerate() {
                let neuron = i % 9;
                let bound = act.bounds()[(neuron / act.run()) % act.bounds().len()];
                expected_y.push(act.eval_scalar(xi, neuron));
                expected_grad.push(if xi > 0.0 && xi <= bound { gi } else { 0.0 });
                over += u64::from(xi > bound);
            }
            let name = act.name().to_string();
            assert_eq!(bits(y.as_slice()), bits(&expected_y), "{name} forward");
            assert_eq!(
                bits(grad.as_slice()),
                bits(&expected_grad),
                "{name} backward"
            );
            assert_eq!(grad.dims(), g.dims(), "{name}");
            assert_eq!(act.count_violations(&x), over, "{name} violations");
        }
    }

    #[test]
    fn squash_and_truncate_handle_special_values() {
        let nan = f32::from_bits(0x7fc0_1234);
        for x in [nan, -0.0, f32::NEG_INFINITY, f32::INFINITY, 5.0] {
            assert_eq!(squash(x, 4.0).to_bits(), 0.0f32.to_bits(), "{x}");
        }
        assert_eq!(truncate(nan, 4.0).to_bits(), nan.to_bits());
        assert_eq!(truncate(-0.0, 4.0).to_bits(), (-0.0f32).to_bits());
        assert_eq!(truncate(f32::NEG_INFINITY, 4.0), 0.0);
        assert_eq!(truncate(f32::INFINITY, 4.0), 4.0);
        assert_eq!(truncate(5.0, 4.0), 4.0);
    }

    #[test]
    fn per_neuron_squashes_per_bound_and_zeroes_nan() {
        let mut act = BoundedRelu::per_neuron(&[1.0, 2.0, 0.5]);
        let values = vec![
            0.5,
            1.5,
            0.4, // row 0: keep, keep, keep
            1.5,
            2.5,
            0.6, // row 1: squash, squash, squash
            -1.0,
            0.0,
            f32::NAN, // row 2: squash, squash, NaN → 0
        ];
        let y = act
            .forward(&Tensor::from_vec(values, &[3, 3]).unwrap())
            .unwrap();
        assert_eq!(y.as_slice(), &[0.5, 1.5, 0.4, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0]);
    }

    #[test]
    fn clip_act_handles_tails_and_nan() {
        let mut values: Vec<f32> = (0..11).map(|i| i as f32 - 3.0).collect();
        values[10] = f32::NAN;
        let mut act = BoundedRelu::clip_act(5.0);
        let y = act
            .forward(&Tensor::from_vec(values, &[1, 11]).unwrap())
            .unwrap();
        assert_eq!(
            y.as_slice(),
            &[0.0, 0.0, 0.0, 0.0, 1.0, 2.0, 3.0, 4.0, 5.0, 0.0, 0.0]
        );
    }

    #[test]
    fn ranger_keeps_nan_like_f32_clamp() {
        let values = vec![-2.0, 0.5, 7.0, f32::NAN, -0.0, 3.0, 1.0, 2.0, 9.0];
        let mut act = BoundedRelu::ranger(3.0);
        let y = act
            .forward(&Tensor::from_vec(values, &[1, 9]).unwrap())
            .unwrap();
        let values = y.as_slice();
        assert_eq!(values[0], 0.0);
        assert_eq!(values[1], 0.5);
        assert_eq!(values[2], 3.0);
        assert!(values[3].is_nan(), "NaN passes through, as f32::clamp does");
        assert_eq!(values[4].to_bits(), (-0.0f32).to_bits());
        assert_eq!(values[8], 3.0);
    }

    #[test]
    fn layer_bounds_accept_any_shape_and_expose_no_parameter() {
        for mut act in [BoundedRelu::clip_act(1.0), BoundedRelu::ranger(1.0)] {
            assert!(act.forward(&Tensor::ones(&[3])).is_ok());
            assert!(act.forward(&Tensor::ones(&[2, 3, 5])).is_ok());
            assert!(act.params().is_empty() && act.params_mut().is_empty());
            // A gradient of another shape is a tensor shape error.
            assert!(matches!(
                act.backward(&Tensor::ones(&[2, 3, 5]), &Tensor::ones(&[6, 5])),
                Err(NnError::Tensor(TensorError::ShapeMismatch { .. }))
            ));
        }
    }

    #[test]
    fn a_slot_refuses_backward_until_a_forward_keeps_the_input() {
        let x = special_input();
        for act in every_kind() {
            let name = act.name().to_string();
            let mut slot = ActivationLayer::with_activation("s", &x.dims()[1..], Box::new(act));
            let refused = |slot: &mut ActivationLayer| {
                matches!(slot.backward(&x), Err(NnError::BackwardBeforeForward(_)))
            };
            assert!(refused(&mut slot), "{name}: no forward yet");
            slot.forward(&x, Mode::Eval).unwrap();
            assert!(slot.backward(&x).is_ok(), "{name}");
            slot.forward(&x, Mode::Infer).unwrap();
            assert!(refused(&mut slot), "{name}: an Infer forward keeps nothing");
        }
    }

    mod clip_act {
        use super::*;

        #[test]
        fn forward_squashes_above_bound() {
            let mut act = BoundedRelu::clip_act(3.0);
            let x = Tensor::from_vec(vec![-1.0, 0.5, 3.0, 3.1, 100.0], &[1, 5]).unwrap();
            let y = act.forward(&x).unwrap();
            assert_eq!(y.as_slice(), &[0.0, 0.5, 3.0, 0.0, 0.0]);
            assert_eq!(act.bounds(), &[3.0]);
            assert_eq!(act.name(), "gbrelu");
        }

        #[test]
        fn backward_masks_out_of_range_inputs() {
            let mut act = BoundedRelu::clip_act(2.0);
            let x = Tensor::from_vec(vec![-1.0, 1.0, 5.0], &[1, 3]).unwrap();
            let g = act.backward(&x, &Tensor::ones(&[1, 3])).unwrap();
            assert_eq!(g.as_slice(), &[0.0, 1.0, 0.0]);
        }

        #[test]
        fn clone_box_preserves_bound() {
            let act: Box<dyn Activation> = Box::new(BoundedRelu::clip_act(1.5));
            let copy = act.clone();
            assert_eq!(copy.eval_scalar(1.4, 0), 1.4);
            assert_eq!(copy.eval_scalar(1.6, 0), 0.0);
        }

        #[test]
        #[should_panic(expected = "finite and non-negative")]
        fn negative_bound_panics() {
            let _ = BoundedRelu::clip_act(-1.0);
        }

        #[test]
        fn zero_bound_squashes_everything() {
            let act = BoundedRelu::clip_act(0.0);
            assert_eq!(act.eval_scalar(0.1, 0), 0.0);
            assert_eq!(act.eval_scalar(-0.1, 0), 0.0);
        }
    }

    mod ranger {
        use super::*;

        #[test]
        fn forward_truncates_to_bound() {
            let mut act = BoundedRelu::ranger(3.0);
            let x = Tensor::from_vec(vec![-1.0, 0.5, 3.0, 3.1, 100.0], &[1, 5]).unwrap();
            let y = act.forward(&x).unwrap();
            assert_eq!(y.as_slice(), &[0.0, 0.5, 3.0, 3.0, 3.0]);
            assert_eq!(act.bounds(), &[3.0]);
            assert_eq!(act.name(), "ranger");
        }

        #[test]
        fn backward_zeroes_gradient_in_saturated_regions() {
            let mut act = BoundedRelu::ranger(2.0);
            let x = Tensor::from_vec(vec![-1.0, 1.0, 5.0], &[1, 3]).unwrap();
            let g = act.backward(&x, &Tensor::ones(&[1, 3])).unwrap();
            assert_eq!(g.as_slice(), &[0.0, 1.0, 0.0]);
        }

        #[test]
        fn a_fault_still_propagates_the_bound_value() {
            // The key difference from Clip-Act: a corrupted huge value
            // becomes λ, which for a large λ is still a strong (wrong) signal
            // downstream.
            let act = BoundedRelu::ranger(50.0);
            assert_eq!(act.eval_scalar(30_000.0, 0), 50.0);
        }

        #[test]
        #[should_panic(expected = "finite and non-negative")]
        fn nan_bound_panics() {
            let _ = BoundedRelu::ranger(f32::NAN);
        }
    }

    mod per_channel {
        use super::*;

        #[test]
        fn per_channel_bounds_cover_their_planes() {
            // 2 channels × 2 spatial positions; channel 0 bound 1, channel 1
            // bound 10.
            let mut act = BoundedRelu::per_channel(&[1.0, 10.0], 2);
            assert_eq!(act.bounds().len(), 2);
            assert_eq!(act.spec().unwrap().ints, vec![2, 2]);
            let x = Tensor::from_vec(vec![5.0, 0.5, 5.0, 0.5], &[1, 2, 2, 1]).unwrap();
            let y = act.forward(&x).unwrap();
            // Channel 0 squashes 5.0; channel 1 keeps it.
            assert_eq!(y.as_slice(), &[0.0, 0.5, 5.0, 0.5]);
        }

        #[test]
        fn backward_masks_like_forward() {
            let mut act = BoundedRelu::per_channel(&[1.0, 10.0], 1);
            let x = Tensor::from_vec(vec![5.0, 5.0, -1.0, 0.5], &[2, 2]).unwrap();
            let g = act.backward(&x, &Tensor::ones(&[2, 2])).unwrap();
            assert_eq!(g.as_slice(), &[0.0, 1.0, 0.0, 1.0]);
        }

        #[test]
        fn rejects_bad_inputs_and_gradients() {
            let mut act = BoundedRelu::per_channel(&[1.0], 4);
            assert!(act.forward(&Tensor::zeros(&[1, 3])).is_err());
            let x = Tensor::zeros(&[1, 4]);
            assert!(act.backward(&x, &Tensor::zeros(&[1, 3])).is_err());
        }

        #[test]
        #[should_panic(expected = "plane size must be non-zero")]
        fn zero_plane_panics() {
            let _ = BoundedRelu::per_channel(&[1.0], 0);
        }

        #[test]
        #[should_panic(expected = "channels × plane overflows")]
        fn overflowing_feature_count_panics() {
            let _ = BoundedRelu::per_channel(&[1.0; 4], 1 << (usize::BITS - 2));
        }

        #[test]
        fn eval_scalar_respects_channel_of_the_neuron() {
            let act = BoundedRelu::per_channel(&[1.0, 100.0], 3);
            assert_eq!(act.eval_scalar(50.0, 0), 0.0); // channel 0
            assert_eq!(act.eval_scalar(50.0, 3), 50.0); // channel 1
        }

        #[test]
        fn bounds_parameter_is_a_frozen_lambda() {
            let act = BoundedRelu::per_channel(&[1.0, 2.0], 2);
            assert_eq!(act.params().len(), 1);
            assert_eq!(act.params()[0].name(), "lambda");
            assert!(!act.params()[0].trainable());
        }
    }

    mod per_neuron {
        use super::*;

        #[test]
        fn per_neuron_bounds_are_independent() {
            let mut act = BoundedRelu::per_neuron(&[1.0, 10.0]);
            let x = Tensor::from_vec(vec![5.0, 5.0], &[1, 2]).unwrap();
            let y = act.forward(&x).unwrap();
            // Neuron 0 (bound 1) squashes 5.0; neuron 1 (bound 10) keeps it.
            assert_eq!(y.as_slice(), &[0.0, 5.0]);
            assert_eq!(act.bounds(), &[1.0, 10.0]);
        }

        #[test]
        fn batched_input_reuses_bounds_per_sample() {
            let mut act = BoundedRelu::per_neuron(&[1.0, 10.0]);
            let x = Tensor::from_vec(vec![0.5, 20.0, 2.0, 2.0], &[2, 2]).unwrap();
            let y = act.forward(&x).unwrap();
            assert_eq!(y.as_slice(), &[0.5, 0.0, 0.0, 2.0]);
        }

        #[test]
        fn backward_masks_like_forward() {
            let mut act = BoundedRelu::per_neuron(&[1.0, 10.0]);
            let x = Tensor::from_vec(vec![0.5, 20.0, -1.0, 2.0], &[2, 2]).unwrap();
            let g = act.backward(&x, &Tensor::ones(&[2, 2])).unwrap();
            assert_eq!(g.as_slice(), &[1.0, 0.0, 0.0, 1.0]);
        }

        #[test]
        fn bounds_are_frozen_parameters() {
            let act = BoundedRelu::per_neuron(&[1.0]);
            let params = act.params();
            assert_eq!(params.len(), 1);
            assert_eq!(params[0].name(), "lambda");
            assert!(!params[0].trainable());
        }

        #[test]
        fn rejects_mismatched_inputs_and_gradients() {
            let mut act = BoundedRelu::per_neuron(&[1.0, 1.0, 1.0]);
            assert!(act.forward(&Tensor::zeros(&[1, 2])).is_err());
            let x = Tensor::zeros(&[1, 3]);
            assert!(act.backward(&x, &Tensor::zeros(&[1, 2])).is_err());
        }

        #[test]
        #[should_panic(expected = "at least one bound")]
        fn empty_bounds_panics() {
            let _ = BoundedRelu::per_neuron(&[]);
        }

        #[test]
        #[should_panic(expected = "finite and non-negative")]
        fn negative_bound_panics() {
            let _ = BoundedRelu::per_neuron(&[-0.5]);
        }

        #[test]
        fn eval_scalar_uses_the_selected_neuron() {
            let act = BoundedRelu::per_neuron(&[1.0, 100.0]);
            assert_eq!(act.eval_scalar(50.0, 0), 0.0);
            assert_eq!(act.eval_scalar(50.0, 1), 50.0);
        }

        #[test]
        fn multidimensional_feature_shapes_work() {
            // A [2, 1, 2, 2] conv feature map with 4 neurons (1×2×2).
            let mut act = BoundedRelu::per_neuron(&[1.0, 1.0, 1.0, 5.0]);
            let x = Tensor::from_vec(vec![2.0, 2.0, 2.0, 2.0, 0.5, 0.5, 0.5, 0.5], &[2, 1, 2, 2])
                .unwrap();
            let y = act.forward(&x).unwrap();
            assert_eq!(y.as_slice(), &[0.0, 0.0, 0.0, 2.0, 0.5, 0.5, 0.5, 0.5]);
        }
    }
}
