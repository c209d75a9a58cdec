//! 2-D convolution via im2col.
//!
//! Each forward lowers its input with one [`fitact_tensor::im2col_into`]
//! call per sample group: the f32 path lowers [`nn_group_len`] samples at
//! once, the f16/int8 path and backward's dW lowering one sample. A stride-1
//! layer whose output plane equals its input plane (every AlexNet and VGG16
//! convolution, ResNet50's stride-1 ones) takes the shifted-plane lowering,
//! whose channel-major staging lives in the per-thread forward scratch; a
//! single sample is lowered in place. Every other geometry (stride above 1,
//! or an output plane that differs from the input plane) takes the per-row
//! lowering. Both write the same bits, so the choice never shows in
//! outputs.

use crate::layers::{cache_input, Layer, Mode};
use crate::{NnError, Parameter};
use fitact_tensor::matmul::{matmul_into, matmul_nn_grouped, nn_group_len, Layout};
use fitact_tensor::{
    col2im_into, conv_output_size, im2col_into, init, simd, NativeParam, Tensor, Workspace,
};
use rand::Rng;
use std::cell::RefCell;

/// Workspace slot holding the im2col column matrix.
const WS_COLS: usize = 0;
/// Workspace slot holding the `Wᵀ·g` column gradients during backward.
const WS_DCOLS: usize = 1;

thread_local! {
    /// Forward scratch shared by every convolution on this thread:
    /// `[columns, products, staging]`. The f32 path holds a sample group's
    /// im2col matrix, grouped product and channel-major input planes there;
    /// the f16/int8 path one sample's transposed columns and output. Per
    /// thread rather than per layer, so network clones carry no group-sized
    /// buffers, and warm forwards allocate nothing.
    static FORWARD_SCRATCH: RefCell<[Vec<f32>; 3]> =
        const { RefCell::new([Vec::new(), Vec::new(), Vec::new()]) };
}

/// Runs `f` on this thread's forward scratch, each buffer grown to at least
/// its length in `lens` and sliced to exactly that length.
fn with_forward_scratch<R>(lens: [usize; 3], f: impl FnOnce([&mut [f32]; 3]) -> R) -> R {
    FORWARD_SCRATCH.with(|cell| {
        fn grown(buf: &mut Vec<f32>, len: usize) -> &mut [f32] {
            if buf.len() < len {
                buf.resize(len, 0.0);
            }
            &mut buf[..len]
        }
        let [a, b, c] = &mut *cell.borrow_mut();
        f([grown(a, lens[0]), grown(b, lens[1]), grown(c, lens[2])])
    })
}

/// A 2-D convolution layer over `[batch, channels, height, width]` inputs.
///
/// The convolution is lowered to a matrix multiplication with
/// [`fitact_tensor::im2col`]: the weight tensor `[out_ch, in_ch, kh, kw]` is
/// viewed as a `[out_ch, in_ch·kh·kw]` matrix and multiplied with the column
/// matrices of the samples. In f32, small per-sample products are grouped:
/// [`fitact_tensor::matmul::nn_group_len`] samples' columns sit side by side
/// and one [`fitact_tensor::matmul::matmul_nn_grouped`] call multiplies them
/// all, bit-identically to one product per sample.
///
/// # Allocation behaviour
///
/// Forward intermediates (column matrices, grouped products, channel-major
/// input planes, transposed reduced-precision staging) live in a per-thread
/// scratch shared by every convolution, backward staging in a per-layer
/// [`Workspace`], and the weight matrix is a zero-copy view. The scratch
/// only grows, so layers of different shapes reuse it in any order. After
/// the first batch of a given shape, [`Conv2d::forward_into`] performs
/// **zero heap allocations** per call, in every precision, and
/// [`Layer::forward`] performs exactly one (the returned output tensor).
/// This is verified by the `conv_alloc` integration test.
///
/// # Example
///
/// ```
/// use fitact_nn::{layers::Conv2d, Layer, Mode};
/// use fitact_tensor::Tensor;
/// use rand::{rngs::StdRng, SeedableRng};
///
/// # fn main() -> Result<(), fitact_nn::NnError> {
/// let mut rng = StdRng::seed_from_u64(0);
/// let mut conv = Conv2d::new(3, 8, 3, 1, 1, &mut rng);
/// let y = conv.forward(&Tensor::zeros(&[2, 3, 16, 16]), Mode::Eval)?;
/// assert_eq!(y.dims(), &[2, 8, 16, 16]);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct Conv2d {
    weight: Parameter,
    bias: Parameter,
    in_channels: usize,
    out_channels: usize,
    kernel: usize,
    stride: usize,
    padding: usize,
    cached_input: Option<Tensor>,
    ws: Workspace,
}

impl Conv2d {
    /// Creates a convolution layer with Kaiming-normal weights and zero bias.
    ///
    /// `kernel` is the (square) kernel size, `stride` the step and `padding`
    /// the zero padding applied on every spatial border.
    pub fn new<R: Rng + ?Sized>(
        in_channels: usize,
        out_channels: usize,
        kernel: usize,
        stride: usize,
        padding: usize,
        rng: &mut R,
    ) -> Self {
        let fan_in = in_channels * kernel * kernel;
        let weight =
            init::kaiming_normal(&[out_channels, in_channels, kernel, kernel], fan_in, rng);
        Conv2d {
            weight: Parameter::new("weight", weight),
            bias: Parameter::new("bias", Tensor::zeros(&[out_channels])),
            in_channels,
            out_channels,
            kernel,
            stride,
            padding,
            cached_input: None,
            ws: Workspace::new(),
        }
    }

    /// Number of input channels.
    pub fn in_channels(&self) -> usize {
        self.in_channels
    }

    /// Number of output channels (feature maps).
    pub fn out_channels(&self) -> usize {
        self.out_channels
    }

    /// Spatial output size for a given input size.
    ///
    /// # Errors
    ///
    /// Returns an error if the kernel does not fit the padded input.
    pub fn output_size(&self, input: (usize, usize)) -> Result<(usize, usize), NnError> {
        Ok(conv_output_size(
            input,
            (self.kernel, self.kernel),
            self.stride,
            self.padding,
        )?)
    }

    fn check_input(&self, input: &Tensor) -> Result<(usize, usize, usize), NnError> {
        if input.ndim() != 4 || input.dims()[1] != self.in_channels {
            return Err(NnError::InvalidInput {
                layer: self.name(),
                expected: format!("[batch, {}, h, w]", self.in_channels),
                actual: input.dims().to_vec(),
            });
        }
        Ok((input.dims()[0], input.dims()[2], input.dims()[3]))
    }

    /// Computes the convolution into a caller-provided output tensor, which
    /// is reshaped (reusing its storage) to `[batch, out_ch, out_h, out_w]`.
    ///
    /// This is the allocation-free entry point: once a batch of this shape
    /// has warmed the scratch buffers on this thread, and with an `out`
    /// tensor of matching capacity, no heap allocation occurs.
    ///
    /// # Errors
    ///
    /// Returns [`NnError::InvalidInput`] for a wrong input shape.
    pub fn forward_into(
        &mut self,
        input: &Tensor,
        mode: Mode,
        out: &mut Tensor,
    ) -> Result<(), NnError> {
        let (batch, h, w) = self.check_input(input)?;
        let (out_h, out_w) = self.output_size((h, w))?;
        // Cached in Train and Eval: the post-training stage runs eval-mode
        // forwards and still backpropagates through them.
        cache_input(&mut self.cached_input, input, mode);
        let kmat = self.in_channels * self.kernel * self.kernel;
        let spatial = out_h * out_w;
        let in_size = self.in_channels * h * w;
        let out_size = self.out_channels * spatial;
        out.ensure_shape(&[batch, self.out_channels, out_h, out_w]);
        // The [out_ch, in_ch, kh, kw] weight is already a row-major
        // [out_ch, in_ch·kh·kw] matrix; no reshape copy is needed.
        let wnative = self.weight.native();
        let bias = self.bias.data();
        let oc = self.out_channels;
        if let Some(native) = wnative {
            // Reduced-precision weights: the dispatching kernels compute
            // row·Wᵀ products, so feed them the transposed column matrix
            // (one row per output position) and transpose the result back
            // into the [out_ch, spatial] feature-map layout.
            let cols = self.ws.buf(WS_COLS, kmat * spatial);
            return with_forward_scratch([spatial * kmat, spatial * oc, 0], |[rows, yt, _]| {
                for n in 0..batch {
                    let sample = &input.as_slice()[n * in_size..(n + 1) * in_size];
                    im2col_into(
                        sample,
                        (self.in_channels, h, w),
                        (self.kernel, self.kernel),
                        self.stride,
                        self.padding,
                        cols,
                        &mut [],
                    )?;
                    for (r, crow) in cols.chunks_exact(spatial).enumerate() {
                        for (s, v) in crow.iter().enumerate() {
                            rows[s * kmat + r] = *v;
                        }
                    }
                    match native {
                        NativeParam::F16(wq) => simd::matmul_f16(
                            rows,
                            wq.words(),
                            Some(bias.as_slice()),
                            yt,
                            spatial,
                            kmat,
                            oc,
                        ),
                        NativeParam::Int8(wq) => simd::matmul_i8(
                            rows,
                            wq.q(),
                            wq.scales(),
                            wq.zero_points(),
                            Some(bias.as_slice()),
                            yt,
                            spatial,
                            kmat,
                            oc,
                        ),
                    }
                    let y = &mut out.as_mut_slice()[n * out_size..(n + 1) * out_size];
                    for (s, yrow) in yt.chunks_exact(oc).enumerate() {
                        for (c, v) in yrow.iter().enumerate() {
                            y[c * spatial + s] = *v;
                        }
                    }
                }
                Ok(())
            });
        }
        // f32: lay `group` samples' columns side by side and multiply them
        // in one product. The grouped kernel matches per-sample products
        // bit for bit, so outputs do not depend on how a batch is split.
        let wmat = self.weight.data().as_slice();
        let group = nn_group_len(oc, kmat, spatial).min(batch).max(1);
        with_forward_scratch(
            [
                kmat * group * spatial,
                oc * group * spatial,
                group * in_size,
            ],
            |[cols, products, staging]| {
                for first in (0..batch).step_by(group) {
                    let g = group.min(batch - first);
                    let cols = &mut cols[..kmat * g * spatial];
                    let products = &mut products[..oc * g * spatial];
                    im2col_into(
                        &input.as_slice()[first * in_size..(first + g) * in_size],
                        (self.in_channels, h, w),
                        (self.kernel, self.kernel),
                        self.stride,
                        self.padding,
                        cols,
                        staging,
                    )?;
                    matmul_nn_grouped(wmat, cols, products, oc, kmat, spatial, g);
                    // Product row c holds channel c of every sample in the
                    // group; scatter it into each sample's feature map, adding
                    // the bias on the way.
                    let y = &mut out.as_mut_slice()[first * out_size..(first + g) * out_size];
                    for (c, (row, &b)) in products
                        .chunks_exact(g * spatial)
                        .zip(bias.as_slice())
                        .enumerate()
                    {
                        for (s, src) in row.chunks_exact(spatial).enumerate() {
                            let dst = &mut y
                                [s * out_size + c * spatial..s * out_size + (c + 1) * spatial];
                            for (d, &v) in dst.iter_mut().zip(src) {
                                *d = v + b;
                            }
                        }
                    }
                }
                Ok(())
            },
        )
    }
}

impl Layer for Conv2d {
    fn name(&self) -> String {
        format!(
            "conv2d({}→{}, k{}, s{}, p{})",
            self.in_channels, self.out_channels, self.kernel, self.stride, self.padding
        )
    }

    fn forward(&mut self, input: &Tensor, mode: Mode) -> Result<Tensor, NnError> {
        let mut out = Tensor::default();
        self.forward_into(input, mode, &mut out)?;
        Ok(out)
    }

    fn backward(&mut self, grad_output: &Tensor) -> Result<Tensor, NnError> {
        if let Some(native) = self.weight.native() {
            return Err(NnError::QuantizedBackward {
                layer: self.name(),
                precision: native.precision(),
            });
        }
        // Take the cache to avoid cloning it for the borrow checker; it is
        // restored before returning.
        let input = self
            .cached_input
            .take()
            .ok_or_else(|| NnError::BackwardBeforeForward(self.name()))?;
        let result = self.backward_inner(&input, grad_output);
        self.cached_input = Some(input);
        result
    }

    fn params(&self) -> Vec<&Parameter> {
        vec![&self.weight, &self.bias]
    }

    fn params_mut(&mut self) -> Vec<&mut Parameter> {
        vec![&mut self.weight, &mut self.bias]
    }

    fn spec(&self) -> Result<crate::spec::LayerSpec, NnError> {
        Ok(crate::spec::LayerSpec::Conv2d {
            in_channels: self.in_channels,
            out_channels: self.out_channels,
            kernel: self.kernel,
            stride: self.stride,
            padding: self.padding,
        })
    }

    fn clone_box(&self) -> Box<dyn Layer> {
        Box::new(self.clone())
    }
}

impl Conv2d {
    fn backward_inner(&mut self, input: &Tensor, grad_output: &Tensor) -> Result<Tensor, NnError> {
        let (batch, h, w) = self.check_input(input)?;
        let (out_h, out_w) = self.output_size((h, w))?;
        if grad_output.dims() != [batch, self.out_channels, out_h, out_w] {
            return Err(NnError::InvalidInput {
                layer: self.name(),
                expected: format!(
                    "[{batch}, {}, {out_h}, {out_w}] gradient",
                    self.out_channels
                ),
                actual: grad_output.dims().to_vec(),
            });
        }
        let spatial = out_h * out_w;
        let kmat = self.in_channels * self.kernel * self.kernel;
        let in_size = self.in_channels * h * w;
        let out_size = self.out_channels * spatial;
        let mut dx = Tensor::zeros(input.dims());
        let (wdata, wgrad) = self.weight.data_and_grad_mut();
        let wmat = wdata.as_slice();
        let bgrad = self.bias.grad_mut();
        let (cols, dcols) = self
            .ws
            .pair((WS_COLS, kmat * spatial), (WS_DCOLS, kmat * spatial));
        for n in 0..batch {
            let sample = &input.as_slice()[n * in_size..(n + 1) * in_size];
            im2col_into(
                sample,
                (self.in_channels, h, w),
                (self.kernel, self.kernel),
                self.stride,
                self.padding,
                cols,
                &mut [],
            )?;
            let g = &grad_output.as_slice()[n * out_size..(n + 1) * out_size];
            // dW += g · colsᵀ, accumulated straight into the gradient.
            matmul_into(
                Layout::Nt,
                g,
                cols,
                wgrad.as_mut_slice(),
                self.out_channels,
                spatial,
                kmat,
                true,
            );
            // db += row sums of g.
            for (oc, row) in g.chunks_exact(spatial).enumerate() {
                bgrad.as_mut_slice()[oc] += row.iter().sum::<f32>();
            }
            // dcols = Wᵀ · g, then scatter back onto the image.
            matmul_into(
                Layout::Tn,
                wmat,
                g,
                dcols,
                kmat,
                self.out_channels,
                spatial,
                false,
            );
            col2im_into(
                dcols,
                (self.in_channels, h, w),
                (self.kernel, self.kernel),
                self.stride,
                self.padding,
                &mut dx.as_mut_slice()[n * in_size..(n + 1) * in_size],
            )?;
        }
        Ok(dx)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn forward_shape_with_padding_and_stride() {
        let mut rng = StdRng::seed_from_u64(0);
        let mut conv = Conv2d::new(3, 6, 3, 1, 1, &mut rng);
        let y = conv
            .forward(&Tensor::zeros(&[2, 3, 8, 8]), Mode::Eval)
            .unwrap();
        assert_eq!(y.dims(), &[2, 6, 8, 8]);
        let mut strided = Conv2d::new(3, 4, 3, 2, 1, &mut rng);
        let y = strided
            .forward(&Tensor::zeros(&[1, 3, 8, 8]), Mode::Eval)
            .unwrap();
        assert_eq!(y.dims(), &[1, 4, 4, 4]);
    }

    #[test]
    fn identity_kernel_passes_input_through() {
        // A 1x1 convolution whose weight is the identity over channels.
        let mut rng = StdRng::seed_from_u64(1);
        let mut conv = Conv2d::new(2, 2, 1, 1, 0, &mut rng);
        *conv.weight.data_mut() =
            Tensor::from_vec(vec![1.0, 0.0, 0.0, 1.0], &[2, 2, 1, 1]).unwrap();
        conv.bias.data_mut().fill(0.0);
        let x = Tensor::from_vec((0..8).map(|v| v as f32).collect(), &[1, 2, 2, 2]).unwrap();
        let y = conv.forward(&x, Mode::Eval).unwrap();
        assert_eq!(y.as_slice(), x.as_slice());
    }

    #[test]
    fn known_convolution_values() {
        // Single channel, 3x3 input, 2x2 kernel of all ones: each output is the
        // sum of a 2x2 patch.
        let mut rng = StdRng::seed_from_u64(2);
        let mut conv = Conv2d::new(1, 1, 2, 1, 0, &mut rng);
        *conv.weight.data_mut() = Tensor::ones(&[1, 1, 2, 2]);
        conv.bias.data_mut().fill(1.0);
        let x = Tensor::from_vec((1..=9).map(|v| v as f32).collect(), &[1, 1, 3, 3]).unwrap();
        let y = conv.forward(&x, Mode::Eval).unwrap();
        assert_eq!(y.as_slice(), &[13.0, 17.0, 25.0, 29.0]); // patch sums + bias 1
    }

    #[test]
    fn bias_is_added_per_output_channel() {
        let mut rng = StdRng::seed_from_u64(3);
        let mut conv = Conv2d::new(1, 2, 1, 1, 0, &mut rng);
        conv.weight.data_mut().fill(0.0);
        *conv.bias.data_mut() = Tensor::from_vec(vec![1.5, -2.5], &[2]).unwrap();
        let y = conv
            .forward(&Tensor::zeros(&[1, 1, 2, 2]), Mode::Eval)
            .unwrap();
        assert_eq!(&y.as_slice()[..4], &[1.5; 4]);
        assert_eq!(&y.as_slice()[4..], &[-2.5; 4]);
    }

    #[test]
    fn rejects_wrong_channel_count() {
        let mut rng = StdRng::seed_from_u64(4);
        let mut conv = Conv2d::new(3, 4, 3, 1, 1, &mut rng);
        assert!(conv
            .forward(&Tensor::zeros(&[1, 2, 8, 8]), Mode::Eval)
            .is_err());
        assert!(conv
            .forward(&Tensor::zeros(&[3, 8, 8]), Mode::Eval)
            .is_err());
    }

    #[test]
    fn rejects_a_padding_whose_padded_size_overflows() {
        // An unvalidated padding from a model file: 32 + 2·2⁶³ wraps to 32
        // in unchecked arithmetic, which would give a 30x30 output.
        let mut rng = StdRng::seed_from_u64(11);
        let mut conv = Conv2d::new(1, 1, 3, 1, 1 << 63, &mut rng);
        assert!(conv.output_size((32, 32)).is_err());
        assert!(conv
            .forward(&Tensor::zeros(&[1, 1, 32, 32]), Mode::Eval)
            .is_err());
    }

    #[test]
    fn backward_before_forward_errors() {
        let mut rng = StdRng::seed_from_u64(5);
        let mut conv = Conv2d::new(1, 1, 3, 1, 1, &mut rng);
        assert!(matches!(
            conv.backward(&Tensor::zeros(&[1, 1, 4, 4])),
            Err(NnError::BackwardBeforeForward(_))
        ));
    }

    #[test]
    fn forward_into_reuses_the_output_tensor() {
        let mut rng = StdRng::seed_from_u64(10);
        let mut conv = Conv2d::new(2, 4, 3, 1, 1, &mut rng);
        let x = init::uniform(&[2, 2, 6, 6], -1.0, 1.0, &mut rng);
        let expected = conv.forward(&x, Mode::Eval).unwrap();
        let mut out = Tensor::default();
        conv.forward_into(&x, Mode::Eval, &mut out).unwrap();
        assert_eq!(out, expected);
        // Second call with a warm output: same result, storage reused.
        conv.forward_into(&x, Mode::Eval, &mut out).unwrap();
        assert_eq!(out, expected);
    }

    #[test]
    fn backward_gradient_check_weights() {
        let mut rng = StdRng::seed_from_u64(6);
        let mut conv = Conv2d::new(2, 3, 3, 1, 1, &mut rng);
        let x = init::uniform(&[2, 2, 5, 5], -1.0, 1.0, &mut rng);
        conv.forward(&x, Mode::Train).unwrap();
        let ones = Tensor::ones(&[2, 3, 5, 5]);
        conv.backward(&ones).unwrap();
        let analytic = conv.weight.grad().clone();
        let eps = 1e-2f32;
        for idx in [0usize, 7, 23, analytic.numel() - 1] {
            let orig = conv.weight.data().as_slice()[idx];
            conv.weight.data_mut().as_mut_slice()[idx] = orig + eps;
            let plus = conv.forward(&x, Mode::Train).unwrap().sum();
            conv.weight.data_mut().as_mut_slice()[idx] = orig - eps;
            let minus = conv.forward(&x, Mode::Train).unwrap().sum();
            conv.weight.data_mut().as_mut_slice()[idx] = orig;
            let numeric = (plus - minus) / (2.0 * eps);
            let a = analytic.as_slice()[idx];
            assert!(
                (a - numeric).abs() < 0.05,
                "idx {idx}: analytic {a} vs numeric {numeric}"
            );
        }
    }

    #[test]
    fn backward_gradient_check_input() {
        let mut rng = StdRng::seed_from_u64(7);
        let mut conv = Conv2d::new(1, 2, 3, 2, 1, &mut rng);
        let x = init::uniform(&[1, 1, 6, 6], -1.0, 1.0, &mut rng);
        conv.forward(&x, Mode::Train).unwrap();
        let out_dims = conv.forward(&x, Mode::Train).unwrap().dims().to_vec();
        let ones = Tensor::ones(&out_dims);
        let dx = conv.backward(&ones).unwrap();
        let eps = 1e-2f32;
        let mut x_pert = x.clone();
        for idx in [0usize, 17, 35] {
            let orig = x.as_slice()[idx];
            x_pert.as_mut_slice()[idx] = orig + eps;
            let plus = conv.forward(&x_pert, Mode::Train).unwrap().sum();
            x_pert.as_mut_slice()[idx] = orig - eps;
            let minus = conv.forward(&x_pert, Mode::Train).unwrap().sum();
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
    fn bias_gradient_sums_spatial_and_batch() {
        let mut rng = StdRng::seed_from_u64(8);
        let mut conv = Conv2d::new(1, 2, 1, 1, 0, &mut rng);
        let x = Tensor::ones(&[3, 1, 2, 2]);
        conv.forward(&x, Mode::Train).unwrap();
        let g = Tensor::ones(&[3, 2, 2, 2]);
        conv.backward(&g).unwrap();
        // Each bias receives 3 samples × 4 spatial positions of gradient 1.
        assert_eq!(conv.bias.grad().as_slice(), &[12.0, 12.0]);
    }

    #[test]
    fn accessors_report_configuration() {
        let mut rng = StdRng::seed_from_u64(9);
        let conv = Conv2d::new(3, 16, 3, 1, 1, &mut rng);
        assert_eq!(conv.in_channels(), 3);
        assert_eq!(conv.out_channels(), 16);
        assert_eq!(conv.output_size((32, 32)).unwrap(), (32, 32));
        assert!(conv.name().contains("conv2d"));
        assert_eq!(conv.params().len(), 2);
    }
}
