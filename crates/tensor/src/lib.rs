//! N-dimensional tensors, a cache-blocked matmul kernel and Q15.16
//! fixed-point arithmetic.
//!
//! This crate is the lowest-level substrate of the FitAct reproduction. It
//! provides:
//!
//! * [`Tensor`] — a dense, row-major, `f32` n-dimensional array with the small
//!   set of operations a CPU DNN framework needs (element-wise arithmetic,
//!   matrix multiplication, reductions, im2col for convolutions),
//! * [`matmul`] — the cache-blocked, panel-packed GEBP matrix-multiplication
//!   kernel behind [`Tensor::matmul`] and its transposed variants
//!   ([`Tensor::matmul_tn`] / [`Tensor::matmul_nt`], which never materialise
//!   a transpose). The micro-kernel keeps a register-resident accumulator
//!   tile, packs both operands into contiguous panels, runs an unpacked
//!   fast path for L1-sized products and splits large products row-wise
//!   across scoped threads — bit-identically to the single-thread result,
//! * [`workspace::Workspace`] — reusable scratch-buffer arenas. Layers draw
//!   named buffers (im2col column matrices, gradient staging) from a
//!   workspace instead of allocating per call; after the first batch of a
//!   fixed shape the hot paths are allocation-free. See the module docs for
//!   the exact contract (contents unspecified on entry, capacity never
//!   shrinks, clones start empty),
//! * allocation-free lowering primitives [`im2col_into`] / [`col2im_into`]
//!   that write into caller-provided buffers. `im2col_into` lowers a whole
//!   group of images into side-by-side column blocks. Its geometry picks
//!   the lowering: a stride-1 convolution whose output plane equals its
//!   input plane builds each column-matrix row as one shifted copy of the
//!   group's channel planes and then sets the taps outside the image to
//!   `+0.0`; every other geometry copies one output row at a time. Both
//!   copy values rather than compute them, so they write the same bits,
//!   NaN payloads and `-0.0` included,
//! * [`Shape`] — shape/stride bookkeeping shared by every tensor operation,
//! * [`fixed::Fixed32`] — the 32-bit fixed-point representation used by the
//!   paper (1 sign bit, 15 integer bits, 16 fractional bits) together with
//!   bit-level access used by the fault injector,
//! * [`init`] — deterministic random initialisers (Kaiming/Xavier/uniform).
//!
//! The kernel never special-cases zero operands, so non-finite values
//! propagate through products exactly as IEEE 754 requires (`0 · NaN = NaN`)
//! — a property the fault injector relies on when a bit flip produces NaN/Inf
//! weights.
//!
//! # Example
//!
//! ```
//! # use fitact_tensor::{Tensor, TensorError};
//! # fn main() -> Result<(), TensorError> {
//! let a = Tensor::from_vec(vec![1.0, 2.0, 3.0, 4.0], &[2, 2])?;
//! let b = Tensor::eye(2);
//! let c = a.matmul(&b)?;
//! assert_eq!(c.as_slice(), &[1.0, 2.0, 3.0, 4.0]);
//! # Ok(())
//! # }
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod fixed;
pub mod half;
pub mod init;
pub mod matmul;
pub mod native;
mod shape;
pub mod simd;
mod tensor;
pub mod workspace;

pub use fixed::Fixed32;
pub use native::{F16Param, Int8Param, NativeParam, Precision, U16Slab};
pub use shape::Shape;
pub use tensor::{col2im, col2im_into, conv_output_size, im2col, im2col_into, F32Slab, Tensor};
pub use workspace::{TensorArena, Workspace};

use std::error::Error;
use std::fmt;

/// Errors produced by tensor operations.
///
/// All fallible operations in this crate return `Result<_, TensorError>`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TensorError {
    /// The number of elements implied by a shape does not match the data length.
    LengthMismatch {
        /// Number of elements the shape requires.
        expected: usize,
        /// Number of elements actually provided.
        actual: usize,
    },
    /// Two shapes that must agree (element-wise ops, reshape) do not agree.
    ShapeMismatch {
        /// Shape of the left/first operand.
        left: Vec<usize>,
        /// Shape of the right/second operand.
        right: Vec<usize>,
    },
    /// Matrix multiplication inner dimensions differ, or an operand is not 2-D.
    MatmulShape {
        /// Shape of the left operand.
        left: Vec<usize>,
        /// Shape of the right operand.
        right: Vec<usize>,
    },
    /// A shape with zero dimensions or a zero-sized axis where it is not allowed.
    InvalidShape(Vec<usize>),
    /// An index was out of bounds for the tensor shape.
    IndexOutOfBounds {
        /// The offending index.
        index: Vec<usize>,
        /// The tensor shape.
        shape: Vec<usize>,
    },
    /// An axis argument referred to a dimension the tensor does not have.
    InvalidAxis {
        /// The requested axis.
        axis: usize,
        /// Number of dimensions in the tensor.
        ndim: usize,
    },
}

impl fmt::Display for TensorError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TensorError::LengthMismatch { expected, actual } => {
                write!(
                    f,
                    "data length {actual} does not match shape volume {expected}"
                )
            }
            TensorError::ShapeMismatch { left, right } => {
                write!(f, "shape mismatch between {left:?} and {right:?}")
            }
            TensorError::MatmulShape { left, right } => {
                write!(f, "cannot matrix-multiply shapes {left:?} and {right:?}")
            }
            TensorError::InvalidShape(s) => write!(f, "invalid shape {s:?}"),
            TensorError::IndexOutOfBounds { index, shape } => {
                write!(f, "index {index:?} out of bounds for shape {shape:?}")
            }
            TensorError::InvalidAxis { axis, ndim } => {
                write!(
                    f,
                    "axis {axis} out of range for tensor with {ndim} dimensions"
                )
            }
        }
    }
}

impl Error for TensorError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn error_display_is_nonempty() {
        let errors = [
            TensorError::LengthMismatch {
                expected: 4,
                actual: 3,
            },
            TensorError::ShapeMismatch {
                left: vec![2],
                right: vec![3],
            },
            TensorError::MatmulShape {
                left: vec![2, 2],
                right: vec![3, 3],
            },
            TensorError::InvalidShape(vec![0]),
            TensorError::IndexOutOfBounds {
                index: vec![5],
                shape: vec![2],
            },
            TensorError::InvalidAxis { axis: 3, ndim: 2 },
        ];
        for e in errors {
            assert!(!e.to_string().is_empty());
        }
    }

    #[test]
    fn error_is_send_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<TensorError>();
    }
}
