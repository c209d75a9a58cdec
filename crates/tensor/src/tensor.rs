//! Dense row-major `f32` tensors.

use crate::matmul::{matmul_into, Layout};
use crate::{Shape, TensorError};
use std::fmt;
use std::sync::Arc;

/// A read-only slab of `f32` values that tensors can borrow windows of.
///
/// The canonical implementor is the mmap'd parameter region of a `.fitact`
/// v2 artifact: one file mapping backs every parameter tensor of every
/// server worker, instead of each worker owning a private copy. The slab is
/// reference-counted (`Arc<dyn F32Slab>`), so it stays alive as long as any
/// tensor still points into it.
pub trait F32Slab: Send + Sync + fmt::Debug {
    /// Returns the whole slab as a row-major `f32` slice.
    fn as_f32(&self) -> &[f32];
}

/// Backing storage of a [`Tensor`]: either a private owned buffer or a
/// window into a shared read-only [`F32Slab`].
///
/// Cloning a `Shared` storage clones the `Arc`, not the values — that is
/// the zero-copy share. Any mutation first materialises the window into an
/// owned buffer (copy-on-write), so shared slabs are never written through.
#[derive(Clone, Debug)]
enum Storage {
    Owned(Vec<f32>),
    Shared {
        slab: Arc<dyn F32Slab>,
        offset: usize,
        len: usize,
    },
}

/// A dense, row-major, `f32` n-dimensional array.
///
/// `Tensor` is deliberately small: it supports exactly the operations the
/// FitAct reproduction needs (layer forward/backward passes, activation
/// statistics and fault-injection bookkeeping) and nothing more. Data is
/// contiguous and either owned or a read-only window into a shared
/// [`F32Slab`] (e.g. an mmap'd artifact); mutation copies shared data out
/// first, so fault injection over parameter memory stays straightforward.
///
/// # Example
///
/// ```
/// # use fitact_tensor::{Tensor, TensorError};
/// # fn main() -> Result<(), TensorError> {
/// let x = Tensor::from_vec(vec![1.0, -2.0, 3.0], &[3])?;
/// let relu = x.map(|v| v.max(0.0));
/// assert_eq!(relu.as_slice(), &[1.0, 0.0, 3.0]);
/// # Ok(())
/// # }
/// ```
#[derive(Clone)]
pub struct Tensor {
    storage: Storage,
    shape: Shape,
}

impl PartialEq for Tensor {
    fn eq(&self, other: &Self) -> bool {
        self.shape == other.shape && self.as_slice() == other.as_slice()
    }
}

impl fmt::Debug for Tensor {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let slice = self.as_slice();
        let preview: Vec<f32> = slice.iter().copied().take(8).collect();
        f.debug_struct("Tensor")
            .field("shape", &self.shape)
            .field("numel", &slice.len())
            .field("shared", &self.is_shared())
            .field("data_prefix", &preview)
            .finish()
    }
}

impl Default for Tensor {
    fn default() -> Self {
        Tensor::zeros(&[0])
    }
}

impl Tensor {
    /// Creates a tensor of the given shape filled with `value`.
    pub fn full(shape: &[usize], value: f32) -> Self {
        let shape = Shape::new(shape);
        Tensor {
            storage: Storage::Owned(vec![value; shape.numel()]),
            shape,
        }
    }

    /// Creates a tensor of the given shape filled with zeros.
    pub fn zeros(shape: &[usize]) -> Self {
        Tensor::full(shape, 0.0)
    }

    /// Creates a tensor of the given shape filled with ones.
    pub fn ones(shape: &[usize]) -> Self {
        Tensor::full(shape, 1.0)
    }

    /// Creates a square identity matrix of size `n`.
    pub fn eye(n: usize) -> Self {
        let mut t = Tensor::zeros(&[n, n]);
        let data = t.as_mut_slice();
        for i in 0..n {
            data[i * n + i] = 1.0;
        }
        t
    }

    /// Creates a tensor from raw data and a shape.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::LengthMismatch`] if `data.len()` does not equal
    /// the number of elements implied by `shape`.
    pub fn from_vec(data: Vec<f32>, shape: &[usize]) -> Result<Self, TensorError> {
        let shape = Shape::new(shape);
        if data.len() != shape.numel() {
            return Err(TensorError::LengthMismatch {
                expected: shape.numel(),
                actual: data.len(),
            });
        }
        Ok(Tensor {
            storage: Storage::Owned(data),
            shape,
        })
    }

    /// Creates a tensor whose values are a read-only window into a shared
    /// slab, starting at `offset` (in elements).
    ///
    /// The tensor holds a reference count on the slab, not a copy of the
    /// values: cloning it (or the network holding it) shares the same
    /// memory. The first mutation copies the window into an owned buffer.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::LengthMismatch`] if the window
    /// `offset..offset + shape.numel()` does not lie inside the slab.
    pub fn from_shared(
        slab: Arc<dyn F32Slab>,
        offset: usize,
        shape: &[usize],
    ) -> Result<Self, TensorError> {
        let shape = Shape::new(shape);
        let len = shape.numel();
        let end = offset.saturating_add(len);
        if end > slab.as_f32().len() {
            return Err(TensorError::LengthMismatch {
                expected: end,
                actual: slab.as_f32().len(),
            });
        }
        Ok(Tensor {
            storage: Storage::Shared { slab, offset, len },
            shape,
        })
    }

    /// Returns `true` if the tensor currently borrows a shared slab window
    /// instead of owning its values.
    pub fn is_shared(&self) -> bool {
        matches!(self.storage, Storage::Shared { .. })
    }

    /// Creates a 0-d tensor holding a single value.
    pub fn scalar(value: f32) -> Self {
        Tensor {
            storage: Storage::Owned(vec![value]),
            shape: Shape::new(&[]),
        }
    }

    /// Returns the shape of the tensor.
    pub fn shape(&self) -> &Shape {
        &self.shape
    }

    /// Returns the axis lengths as a slice.
    pub fn dims(&self) -> &[usize] {
        self.shape.dims()
    }

    /// Returns the number of dimensions.
    pub fn ndim(&self) -> usize {
        self.shape.ndim()
    }

    /// Returns the total number of elements.
    pub fn numel(&self) -> usize {
        match &self.storage {
            Storage::Owned(data) => data.len(),
            Storage::Shared { len, .. } => *len,
        }
    }

    /// Returns a read-only view of the underlying storage in row-major order.
    pub fn as_slice(&self) -> &[f32] {
        match &self.storage {
            Storage::Owned(data) => data,
            Storage::Shared { slab, offset, len } => &slab.as_f32()[*offset..*offset + *len],
        }
    }

    /// Copy-on-write access to the owned buffer: a tensor still borrowing a
    /// shared slab copies its window out first.
    fn data_mut(&mut self) -> &mut Vec<f32> {
        if let Storage::Shared { slab, offset, len } = &self.storage {
            let owned = slab.as_f32()[*offset..*offset + *len].to_vec();
            self.storage = Storage::Owned(owned);
        }
        match &mut self.storage {
            Storage::Owned(data) => data,
            Storage::Shared { .. } => unreachable!("shared storage was just materialised"),
        }
    }

    /// Returns a mutable view of the underlying storage in row-major order.
    ///
    /// If the tensor borrows a shared slab, its values are first copied into
    /// an owned buffer (copy-on-write) — shared slabs are never written.
    pub fn as_mut_slice(&mut self) -> &mut [f32] {
        self.data_mut().as_mut_slice()
    }

    /// Consumes the tensor and returns its storage (copying if shared).
    pub fn into_vec(mut self) -> Vec<f32> {
        std::mem::take(self.data_mut())
    }

    /// Reads the element at a multi-dimensional index.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::IndexOutOfBounds`] for invalid indices.
    pub fn get(&self, index: &[usize]) -> Result<f32, TensorError> {
        let off = self.shape.offset(index)?;
        Ok(self.as_slice()[off])
    }

    /// Writes the element at a multi-dimensional index.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::IndexOutOfBounds`] for invalid indices.
    pub fn set(&mut self, index: &[usize], value: f32) -> Result<(), TensorError> {
        let off = self.shape.offset(index)?;
        self.as_mut_slice()[off] = value;
        Ok(())
    }

    /// Returns a copy of this tensor with a new shape holding the same data.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::LengthMismatch`] if the new shape has a different
    /// number of elements.
    pub fn reshape(&self, shape: &[usize]) -> Result<Tensor, TensorError> {
        let new_shape = Shape::new(shape);
        if new_shape.numel() != self.numel() {
            return Err(TensorError::LengthMismatch {
                expected: new_shape.numel(),
                actual: self.numel(),
            });
        }
        Ok(Tensor {
            storage: self.storage.clone(),
            shape: new_shape,
        })
    }

    /// Reinterprets the tensor in place with a new shape holding the same data.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::LengthMismatch`] if the new shape has a different
    /// number of elements.
    pub fn reshape_in_place(&mut self, shape: &[usize]) -> Result<(), TensorError> {
        let new_shape = Shape::new(shape);
        if new_shape.numel() != self.numel() {
            return Err(TensorError::LengthMismatch {
                expected: new_shape.numel(),
                actual: self.numel(),
            });
        }
        self.shape = new_shape;
        Ok(())
    }

    /// Applies `f` to every element, returning a new tensor of the same shape.
    pub fn map<F: Fn(f32) -> f32>(&self, f: F) -> Tensor {
        Tensor {
            storage: Storage::Owned(self.as_slice().iter().map(|&v| f(v)).collect()),
            shape: self.shape.clone(),
        }
    }

    /// Applies `f` to every element in place.
    pub fn map_in_place<F: Fn(f32) -> f32>(&mut self, f: F) {
        for v in self.as_mut_slice() {
            *v = f(*v);
        }
    }

    /// Combines two tensors element-wise with `f`.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::ShapeMismatch`] if the shapes differ.
    pub fn zip_map<F: Fn(f32, f32) -> f32>(
        &self,
        other: &Tensor,
        f: F,
    ) -> Result<Tensor, TensorError> {
        if !self.shape.same_as(&other.shape) {
            return Err(TensorError::ShapeMismatch {
                left: self.dims().to_vec(),
                right: other.dims().to_vec(),
            });
        }
        Ok(Tensor {
            storage: Storage::Owned(
                self.as_slice()
                    .iter()
                    .zip(other.as_slice())
                    .map(|(&a, &b)| f(a, b))
                    .collect(),
            ),
            shape: self.shape.clone(),
        })
    }

    /// Element-wise addition.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::ShapeMismatch`] if the shapes differ.
    pub fn add(&self, other: &Tensor) -> Result<Tensor, TensorError> {
        self.zip_map(other, |a, b| a + b)
    }

    /// Element-wise subtraction.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::ShapeMismatch`] if the shapes differ.
    pub fn sub(&self, other: &Tensor) -> Result<Tensor, TensorError> {
        self.zip_map(other, |a, b| a - b)
    }

    /// Element-wise multiplication (Hadamard product).
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::ShapeMismatch`] if the shapes differ.
    pub fn mul(&self, other: &Tensor) -> Result<Tensor, TensorError> {
        self.zip_map(other, |a, b| a * b)
    }

    /// Element-wise division.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::ShapeMismatch`] if the shapes differ.
    pub fn div(&self, other: &Tensor) -> Result<Tensor, TensorError> {
        self.zip_map(other, |a, b| a / b)
    }

    /// Adds `other` into `self` in place.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::ShapeMismatch`] if the shapes differ.
    pub fn add_assign(&mut self, other: &Tensor) -> Result<(), TensorError> {
        if !self.shape.same_as(&other.shape) {
            return Err(TensorError::ShapeMismatch {
                left: self.dims().to_vec(),
                right: other.dims().to_vec(),
            });
        }
        for (a, b) in self.as_mut_slice().iter_mut().zip(other.as_slice()) {
            *a += b;
        }
        Ok(())
    }

    /// Adds `scale * other` into `self` in place (axpy).
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::ShapeMismatch`] if the shapes differ.
    pub fn add_scaled_assign(&mut self, other: &Tensor, scale: f32) -> Result<(), TensorError> {
        if !self.shape.same_as(&other.shape) {
            return Err(TensorError::ShapeMismatch {
                left: self.dims().to_vec(),
                right: other.dims().to_vec(),
            });
        }
        for (a, b) in self.as_mut_slice().iter_mut().zip(other.as_slice()) {
            *a += scale * b;
        }
        Ok(())
    }

    /// Returns a new tensor with `scalar` added to every element.
    pub fn add_scalar(&self, scalar: f32) -> Tensor {
        self.map(|v| v + scalar)
    }

    /// Returns a new tensor with every element multiplied by `scalar`.
    pub fn mul_scalar(&self, scalar: f32) -> Tensor {
        self.map(|v| v * scalar)
    }

    /// Fills the tensor with a constant value.
    pub fn fill(&mut self, value: f32) {
        for v in self.as_mut_slice() {
            *v = value;
        }
    }

    /// Sum of all elements.
    pub fn sum(&self) -> f32 {
        self.as_slice().iter().sum()
    }

    /// Mean of all elements.
    ///
    /// Returns `0.0` for an empty tensor.
    pub fn mean(&self) -> f32 {
        if self.numel() == 0 {
            0.0
        } else {
            self.sum() / self.numel() as f32
        }
    }

    /// Maximum element, or `f32::NEG_INFINITY` for an empty tensor.
    pub fn max(&self) -> f32 {
        self.as_slice()
            .iter()
            .copied()
            .fold(f32::NEG_INFINITY, f32::max)
    }

    /// Minimum element, or `f32::INFINITY` for an empty tensor.
    pub fn min(&self) -> f32 {
        self.as_slice()
            .iter()
            .copied()
            .fold(f32::INFINITY, f32::min)
    }

    /// Index of the maximum element in row-major order (ties go to the first).
    ///
    /// Returns `None` for an empty tensor.
    pub fn argmax(&self) -> Option<usize> {
        let data = self.as_slice();
        if data.is_empty() {
            return None;
        }
        let mut best = 0usize;
        for (i, &v) in data.iter().enumerate() {
            if v > data[best] {
                best = i;
            }
        }
        Some(best)
    }

    /// Treats the tensor as `[rows, cols]` and returns the argmax of each row.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::InvalidShape`] if the tensor is not 2-D.
    pub fn argmax_rows(&self) -> Result<Vec<usize>, TensorError> {
        if self.ndim() != 2 {
            return Err(TensorError::InvalidShape(self.dims().to_vec()));
        }
        let rows = self.dims()[0];
        let cols = self.dims()[1];
        let data = self.as_slice();
        let mut out = Vec::with_capacity(rows);
        for r in 0..rows {
            let row = &data[r * cols..(r + 1) * cols];
            let mut best = 0usize;
            for (i, &v) in row.iter().enumerate() {
                if v > row[best] {
                    best = i;
                }
            }
            out.push(best);
        }
        Ok(out)
    }

    /// Sums a 2-D tensor over its rows, producing a 1-D tensor of length `cols`.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::InvalidShape`] if the tensor is not 2-D.
    pub fn sum_axis0(&self) -> Result<Tensor, TensorError> {
        if self.ndim() != 2 {
            return Err(TensorError::InvalidShape(self.dims().to_vec()));
        }
        let rows = self.dims()[0];
        let cols = self.dims()[1];
        let data = self.as_slice();
        let mut out = vec![0.0f32; cols];
        for r in 0..rows {
            for (o, v) in out.iter_mut().zip(&data[r * cols..(r + 1) * cols]) {
                *o += v;
            }
        }
        Tensor::from_vec(out, &[cols])
    }

    /// Transposes a 2-D tensor.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::InvalidShape`] if the tensor is not 2-D.
    pub fn transpose(&self) -> Result<Tensor, TensorError> {
        if self.ndim() != 2 {
            return Err(TensorError::InvalidShape(self.dims().to_vec()));
        }
        let rows = self.dims()[0];
        let cols = self.dims()[1];
        let data = self.as_slice();
        let mut out = vec![0.0f32; rows * cols];
        for r in 0..rows {
            for c in 0..cols {
                out[c * rows + r] = data[r * cols + c];
            }
        }
        Tensor::from_vec(out, &[cols, rows])
    }

    /// Matrix multiplication of two 2-D tensors: `[m, k] × [k, n] → [m, n]`.
    ///
    /// Runs on the cache-blocked packed kernel in [`crate::matmul`]; large
    /// products are split row-wise across threads.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::MatmulShape`] if either operand is not 2-D or the
    /// inner dimensions disagree.
    pub fn matmul(&self, other: &Tensor) -> Result<Tensor, TensorError> {
        if self.ndim() != 2 || other.ndim() != 2 || self.dims()[1] != other.dims()[0] {
            return Err(TensorError::MatmulShape {
                left: self.dims().to_vec(),
                right: other.dims().to_vec(),
            });
        }
        let m = self.dims()[0];
        let k = self.dims()[1];
        let n = other.dims()[1];
        let mut out = vec![0.0f32; m * n];
        matmul_into(
            Layout::Nn,
            self.as_slice(),
            other.as_slice(),
            &mut out,
            m,
            k,
            n,
            false,
        );
        Tensor::from_vec(out, &[m, n])
    }

    /// Computes `selfᵀ × other` without materialising the transpose:
    /// `[k, m]ᵀ × [k, n] → [m, n]`.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::MatmulShape`] if either operand is not 2-D or the
    /// shared dimension disagrees.
    pub fn matmul_tn(&self, other: &Tensor) -> Result<Tensor, TensorError> {
        if self.ndim() != 2 || other.ndim() != 2 || self.dims()[0] != other.dims()[0] {
            return Err(TensorError::MatmulShape {
                left: self.dims().to_vec(),
                right: other.dims().to_vec(),
            });
        }
        let k = self.dims()[0];
        let m = self.dims()[1];
        let n = other.dims()[1];
        let mut out = vec![0.0f32; m * n];
        matmul_into(
            Layout::Tn,
            self.as_slice(),
            other.as_slice(),
            &mut out,
            m,
            k,
            n,
            false,
        );
        Tensor::from_vec(out, &[m, n])
    }

    /// Computes `self × otherᵀ` without materialising the transpose:
    /// `[m, k] × [n, k]ᵀ → [m, n]`.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::MatmulShape`] if either operand is not 2-D or the
    /// shared dimension disagrees.
    pub fn matmul_nt(&self, other: &Tensor) -> Result<Tensor, TensorError> {
        if self.ndim() != 2 || other.ndim() != 2 || self.dims()[1] != other.dims()[1] {
            return Err(TensorError::MatmulShape {
                left: self.dims().to_vec(),
                right: other.dims().to_vec(),
            });
        }
        let m = self.dims()[0];
        let k = self.dims()[1];
        let n = other.dims()[0];
        let mut out = vec![0.0f32; m * n];
        matmul_into(
            Layout::Nt,
            self.as_slice(),
            other.as_slice(),
            &mut out,
            m,
            k,
            n,
            false,
        );
        Tensor::from_vec(out, &[m, n])
    }

    /// Reshapes this tensor in place to `dims`, reusing the existing storage.
    ///
    /// Unlike [`Tensor::reshape_in_place`] the element count may change: the
    /// backing buffer grows (allocating only when capacity is exceeded) or
    /// logically shrinks (never releasing memory). Contents are unspecified
    /// afterwards; this is a buffer-reuse primitive for workspace-style code,
    /// not a view operation.
    pub fn ensure_shape(&mut self, dims: &[usize]) {
        if self.dims() == dims {
            return;
        }
        let shape = Shape::new(dims);
        self.data_mut().resize(shape.numel(), 0.0);
        self.shape = shape;
    }

    /// Copies `src` into this tensor, adopting its shape and reusing the
    /// existing storage where capacity allows.
    pub fn copy_from(&mut self, src: &Tensor) {
        let data = self.data_mut();
        data.clear();
        data.extend_from_slice(src.as_slice());
        if !self.shape.same_as(&src.shape) {
            self.shape = src.shape.clone();
        }
    }

    /// Extracts the `i`-th sub-tensor along the first axis.
    ///
    /// For a `[n, ...rest]` tensor this returns a `[...rest]` tensor copied out
    /// of row `i`.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::IndexOutOfBounds`] if `i` is out of range or the
    /// tensor is 0-d.
    pub fn index_axis0(&self, i: usize) -> Result<Tensor, TensorError> {
        if self.ndim() == 0 || i >= self.dims()[0] {
            return Err(TensorError::IndexOutOfBounds {
                index: vec![i],
                shape: self.dims().to_vec(),
            });
        }
        let rest: Vec<usize> = self.dims()[1..].to_vec();
        let chunk = rest.iter().product::<usize>().max(1);
        let data = self.as_slice()[i * chunk..(i + 1) * chunk].to_vec();
        Tensor::from_vec(data, &rest)
    }

    /// Stacks tensors of identical shape along a new leading axis.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::InvalidShape`] if `items` is empty and
    /// [`TensorError::ShapeMismatch`] if any item disagrees with the first.
    pub fn stack(items: &[Tensor]) -> Result<Tensor, TensorError> {
        let first = items.first().ok_or(TensorError::InvalidShape(vec![]))?;
        let mut data = Vec::with_capacity(first.numel() * items.len());
        for item in items {
            if !item.shape.same_as(&first.shape) {
                return Err(TensorError::ShapeMismatch {
                    left: first.dims().to_vec(),
                    right: item.dims().to_vec(),
                });
            }
            data.extend_from_slice(item.as_slice());
        }
        let mut dims = vec![items.len()];
        dims.extend_from_slice(first.dims());
        Tensor::from_vec(data, &dims)
    }

    /// Returns the squared L2 norm of the tensor.
    pub fn sq_norm(&self) -> f32 {
        self.as_slice().iter().map(|v| v * v).sum()
    }

    /// Returns `true` if every element is finite (not NaN or infinite).
    pub fn is_finite(&self) -> bool {
        self.as_slice().iter().all(|v| v.is_finite())
    }
}

/// im2col for a single image in `[channels, height, width]` layout.
///
/// Produces a `[channels * kh * kw, out_h * out_w]` matrix where each column is
/// the receptive field of one output position, so a convolution becomes a
/// single matrix multiplication with a `[out_channels, channels * kh * kw]`
/// weight matrix.
///
/// # Errors
///
/// Returns [`TensorError::InvalidShape`] if `image` is not 3-D or the kernel
/// configuration produces no output positions.
pub fn im2col(
    image: &Tensor,
    kernel: (usize, usize),
    stride: usize,
    padding: usize,
) -> Result<Tensor, TensorError> {
    if image.ndim() != 3 {
        return Err(TensorError::InvalidShape(image.dims().to_vec()));
    }
    let (c, h, w) = (image.dims()[0], image.dims()[1], image.dims()[2]);
    let (kh, kw) = kernel;
    let (out_h, out_w) = conv_output_size((h, w), kernel, stride, padding)?;
    let mut out = vec![0.0f32; c * kh * kw * out_h * out_w];
    im2col_into(
        image.as_slice(),
        (c, h, w),
        kernel,
        stride,
        padding,
        &mut out,
        &mut [],
    )?;
    Tensor::from_vec(out, &[c * kh * kw, out_h * out_w])
}

/// Allocation-free core of [`im2col`]: lowers a group of images, given back
/// to back as `[channels, height, width]` slices in `images`, into a
/// caller-provided column buffer.
///
/// The group's columns sit side by side, so one product can cover it: with
/// `n` images, `out` is `[channels · kh · kw, n · out_h · out_w]` and image
/// `s` fills columns `s · out_h · out_w ..` of every row. A single image
/// gives its own `[channels · kh · kw, out_h · out_w]` matrix.
///
/// The geometry alone picks one of two lowerings, which write the same bits:
///
/// * stride 1 with an output plane equal to the input plane (`kh = kw =
///   2 · padding + 1`): row `(ch, ky, kx)` is one contiguous copy of the
///   group's channel-`ch` planes, shifted by `(ky − padding) · w + (kx −
///   padding)`, after which the taps outside the image are set to `+0.0`.
///   With more than one image the planes are first gathered channel-major
///   into `staging`; a single image is read in place;
/// * every other geometry copies one output row at a time.
///
/// Every element of `out` is overwritten, so it need not be zeroed. Values
/// are copied, never computed: NaN payloads, infinities and `-0.0` pass
/// through unchanged, and padding taps are `+0.0`.
///
/// `staging` must hold at least `images.len()` elements when the group has
/// more than one image, and may be empty for a single image.
///
/// # Errors
///
/// Returns [`TensorError::InvalidShape`] if the kernel does not fit or the
/// images have no elements, and [`TensorError::LengthMismatch`] if `images`
/// is not a whole, non-empty number of images or `out` or `staging` has the
/// wrong length.
pub fn im2col_into(
    images: &[f32],
    image_dims: (usize, usize, usize),
    kernel: (usize, usize),
    stride: usize,
    padding: usize,
    out: &mut [f32],
    staging: &mut [f32],
) -> Result<(), TensorError> {
    let (c, h, w) = image_dims;
    let (kh, kw) = kernel;
    let (out_h, out_w) = conv_output_size((h, w), kernel, stride, padding)?;
    let image_len = c * h * w;
    if image_len == 0 {
        return Err(TensorError::InvalidShape(vec![c, h, w]));
    }
    if images.is_empty() || !images.len().is_multiple_of(image_len) {
        return Err(TensorError::LengthMismatch {
            expected: image_len,
            actual: images.len(),
        });
    }
    let n = images.len() / image_len;
    let row_len = n * out_h * out_w;
    if out.len() != c * kh * kw * row_len {
        return Err(TensorError::LengthMismatch {
            expected: c * kh * kw * row_len,
            actual: out.len(),
        });
    }
    if n > 1 && staging.len() < images.len() {
        return Err(TensorError::LengthMismatch {
            expected: images.len(),
            actual: staging.len(),
        });
    }
    if stride != 1 || (out_h, out_w) != (h, w) {
        lower_rows(
            images,
            image_dims,
            kernel,
            stride,
            padding,
            (out_h, out_w),
            out,
        );
        return Ok(());
    }
    let planes = if n == 1 {
        images
    } else {
        // Channel-major staging: channel `ch` of image `s` at plane
        // `ch · n + s`, so each channel's planes are contiguous across the
        // group.
        let plane = h * w;
        let staging = &mut staging[..images.len()];
        for (s, image) in images.chunks_exact(image_len).enumerate() {
            for (ch, src) in image.chunks_exact(plane).enumerate() {
                staging[(ch * n + s) * plane..(ch * n + s + 1) * plane].copy_from_slice(src);
            }
        }
        &*staging
    };
    lower_shifted_planes(planes, (h, w), kernel, padding, out, n);
    Ok(())
}

/// The stride-1, same-plane lowering of [`im2col_into`]: `planes` holds each
/// channel's `n` planes contiguously, channel by channel.
///
/// With output plane = input plane, output position `j` of row `(ch, ky,
/// kx)` reads plane element `j + (ky − padding) · w + (kx − padding)`
/// whenever its tap lies inside the image, so the row is one shifted copy.
/// Taps outside the image would read a neighbouring row or plane instead;
/// they are overwritten with `+0.0` afterwards: `|ky − padding|` plane rows
/// at the top or bottom of every plane, and `|kx − padding|` columns at the
/// left or right of every plane row.
fn lower_shifted_planes(
    planes: &[f32],
    (h, w): (usize, usize),
    (kh, kw): (usize, usize),
    padding: usize,
    out: &mut [f32],
    n: usize,
) {
    let plane = h * w;
    let row_len = n * plane;
    for (row, dst) in out.chunks_exact_mut(row_len).enumerate() {
        let (ch, ky, kx) = (row / (kh * kw), row / kw % kh, row % kw);
        let src = &planes[ch * row_len..(ch + 1) * row_len];
        let dy = ky as isize - padding as isize;
        let dx = kx as isize - padding as isize;
        shifted_copy(src, dst, dy * w as isize + dx);
        let rows_out = dy.unsigned_abs().min(h);
        let row_taps = if dy < 0 {
            0..rows_out * w
        } else {
            (h - rows_out) * w..plane
        };
        for i in row_taps {
            dst[i..].iter_mut().step_by(plane).for_each(|v| *v = 0.0);
        }
        let cols_out = dx.unsigned_abs().min(w);
        let col_taps = if dx < 0 { 0..cols_out } else { w - cols_out..w };
        for i in col_taps {
            dst[i..].iter_mut().step_by(w).for_each(|v| *v = 0.0);
        }
    }
}

/// Sets `dst[j] = src[j + shift]` where that index lies in `src` (of
/// `dst`'s length) and `+0.0` elsewhere.
fn shifted_copy(src: &[f32], dst: &mut [f32], shift: isize) {
    let len = dst.len() as isize;
    let lo = (-shift).clamp(0, len);
    let hi = (len - shift).clamp(lo, len);
    let (lo, hi) = (lo as usize, hi as usize);
    dst[..lo].fill(0.0);
    dst[hi..].fill(0.0);
    if lo < hi {
        let from = (lo as isize + shift) as usize;
        dst[lo..hi].copy_from_slice(&src[from..from + (hi - lo)]);
    }
}

/// The general lowering of [`im2col_into`]: one output row of one image at
/// a time, for strided or non-"same" geometries.
fn lower_rows(
    images: &[f32],
    (c, h, w): (usize, usize, usize),
    (kh, kw): (usize, usize),
    stride: usize,
    padding: usize,
    (out_h, out_w): (usize, usize),
    out: &mut [f32],
) {
    let cols = out_h * out_w;
    let row_len = images.len() / (c * h * w) * cols;
    for (index, image) in images.chunks_exact(c * h * w).enumerate() {
        for ch in 0..c {
            for ky in 0..kh {
                for kx in 0..kw {
                    let row = (ch * kh + ky) * kw + kx;
                    let base = row * row_len + index * cols;
                    for oy in 0..out_h {
                        let iy = (oy * stride + ky) as isize - padding as isize;
                        let out_row = &mut out[base + oy * out_w..base + (oy + 1) * out_w];
                        if iy < 0 || iy >= h as isize {
                            out_row.fill(0.0);
                            continue;
                        }
                        let src_row =
                            &image[(ch * h + iy as usize) * w..(ch * h + iy as usize + 1) * w];
                        if stride == 1 {
                            // Contiguous fast path: one bounds computation,
                            // then a straight copy of the in-image span.
                            let ix0 = kx as isize - padding as isize;
                            let start = (-ix0).clamp(0, out_w as isize) as usize;
                            let end =
                                ((w as isize - ix0).clamp(0, out_w as isize) as usize).max(start);
                            out_row[..start].fill(0.0);
                            out_row[end..].fill(0.0);
                            let src0 = (ix0 + start as isize) as usize;
                            out_row[start..end]
                                .copy_from_slice(&src_row[src0..src0 + (end - start)]);
                        } else {
                            for (ox, o) in out_row.iter_mut().enumerate() {
                                let ix = (ox * stride + kx) as isize - padding as isize;
                                *o = if ix >= 0 && ix < w as isize {
                                    src_row[ix as usize]
                                } else {
                                    0.0
                                };
                            }
                        }
                    }
                }
            }
        }
    }
}

/// Inverse of [`im2col`]: scatters a `[channels * kh * kw, out_h * out_w]`
/// matrix of column gradients back onto an image of shape
/// `[channels, height, width]`, summing overlapping contributions.
///
/// # Errors
///
/// Returns [`TensorError::InvalidShape`] if `cols` does not have the shape
/// implied by the image/kernel configuration.
pub fn col2im(
    cols: &Tensor,
    image_dims: (usize, usize, usize),
    kernel: (usize, usize),
    stride: usize,
    padding: usize,
) -> Result<Tensor, TensorError> {
    let (c, h, w) = image_dims;
    let (kh, kw) = kernel;
    let (out_h, out_w) = conv_output_size((h, w), kernel, stride, padding)?;
    if cols.ndim() != 2 || cols.dims()[0] != c * kh * kw || cols.dims()[1] != out_h * out_w {
        return Err(TensorError::InvalidShape(cols.dims().to_vec()));
    }
    let mut out = vec![0.0f32; c * h * w];
    col2im_into(
        cols.as_slice(),
        image_dims,
        kernel,
        stride,
        padding,
        &mut out,
    )?;
    Tensor::from_vec(out, &[c, h, w])
}

/// Allocation-free core of [`col2im`]: scatters a
/// `[channels · kh · kw, out_h · out_w]` column-gradient slice back onto a
/// caller-provided image buffer, summing overlapping contributions.
///
/// `out` is zero-filled first, so the buffer does not need to be cleared by
/// the caller.
///
/// # Errors
///
/// Returns [`TensorError::InvalidShape`] if the kernel configuration is
/// invalid and [`TensorError::LengthMismatch`] if a slice length disagrees
/// with the configuration.
pub fn col2im_into(
    cols: &[f32],
    image_dims: (usize, usize, usize),
    kernel: (usize, usize),
    stride: usize,
    padding: usize,
    out: &mut [f32],
) -> Result<(), TensorError> {
    let (c, h, w) = image_dims;
    let (kh, kw) = kernel;
    let (out_h, out_w) = conv_output_size((h, w), kernel, stride, padding)?;
    if cols.len() != c * kh * kw * out_h * out_w {
        return Err(TensorError::LengthMismatch {
            expected: c * kh * kw * out_h * out_w,
            actual: cols.len(),
        });
    }
    if out.len() != c * h * w {
        return Err(TensorError::LengthMismatch {
            expected: c * h * w,
            actual: out.len(),
        });
    }
    out.fill(0.0);
    let ncols = out_h * out_w;
    for ch in 0..c {
        for ky in 0..kh {
            for kx in 0..kw {
                let row = (ch * kh + ky) * kw + kx;
                for oy in 0..out_h {
                    let iy = (oy * stride + ky) as isize - padding as isize;
                    if iy < 0 || iy >= h as isize {
                        continue;
                    }
                    let col_row = &cols[row * ncols + oy * out_w..row * ncols + (oy + 1) * out_w];
                    let dst_row =
                        &mut out[(ch * h + iy as usize) * w..(ch * h + iy as usize + 1) * w];
                    for (ox, &v) in col_row.iter().enumerate() {
                        let ix = (ox * stride + kx) as isize - padding as isize;
                        if ix >= 0 && ix < w as isize {
                            dst_row[ix as usize] += v;
                        }
                    }
                }
            }
        }
    }
    Ok(())
}

/// Computes the spatial output size of a convolution or pooling window.
///
/// # Errors
///
/// Returns [`TensorError::InvalidShape`] if the window does not fit the padded
/// input at least once, `stride == 0`, or the padded input size overflows
/// `usize`.
pub fn conv_output_size(
    input: (usize, usize),
    kernel: (usize, usize),
    stride: usize,
    padding: usize,
) -> Result<(usize, usize), TensorError> {
    let (h, w) = input;
    let (kh, kw) = kernel;
    let invalid = || TensorError::InvalidShape(vec![h, w, kh, kw, stride, padding]);
    // `padding` can come straight from a model file, so the padded extent
    // must not wrap.
    let padded = |n: usize| padding.checked_mul(2).and_then(|p| n.checked_add(p));
    let (padded_h, padded_w) = (
        padded(h).ok_or_else(invalid)?,
        padded(w).ok_or_else(invalid)?,
    );
    if stride == 0 || padded_h < kh || padded_w < kw {
        return Err(invalid());
    }
    Ok(((padded_h - kh) / stride + 1, (padded_w - kw) / stride + 1))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn construction_fill_values() {
        assert!(Tensor::zeros(&[2, 2]).as_slice().iter().all(|&v| v == 0.0));
        assert!(Tensor::ones(&[3]).as_slice().iter().all(|&v| v == 1.0));
        assert_eq!(Tensor::full(&[2], 7.5).as_slice(), &[7.5, 7.5]);
        assert_eq!(Tensor::scalar(3.0).numel(), 1);
    }

    #[test]
    fn from_vec_validates_length() {
        assert!(Tensor::from_vec(vec![1.0, 2.0], &[3]).is_err());
        assert!(Tensor::from_vec(vec![1.0, 2.0, 3.0], &[3]).is_ok());
    }

    #[derive(Debug)]
    struct VecSlab(Vec<f32>);

    impl F32Slab for VecSlab {
        fn as_f32(&self) -> &[f32] {
            &self.0
        }
    }

    #[test]
    fn shared_tensors_alias_the_slab_until_written() {
        let slab: Arc<dyn F32Slab> = Arc::new(VecSlab((0..8).map(|v| v as f32).collect()));
        let t = Tensor::from_shared(Arc::clone(&slab), 2, &[2, 3]).unwrap();
        assert!(t.is_shared());
        assert_eq!(t.as_slice(), &[2.0, 3.0, 4.0, 5.0, 6.0, 7.0]);
        assert_eq!(t.numel(), 6);

        // Cloning shares the same slab memory: identical base pointers.
        let c = t.clone();
        assert!(c.is_shared());
        assert_eq!(c.as_slice().as_ptr(), t.as_slice().as_ptr());

        // Mutation copies out (copy-on-write); the slab stays untouched.
        let mut m = t.clone();
        m.as_mut_slice()[0] = 99.0;
        assert!(!m.is_shared());
        assert_eq!(m.as_slice()[0], 99.0);
        assert_eq!(t.as_slice()[0], 2.0);
        assert_eq!(slab.as_f32()[2], 2.0);
    }

    #[test]
    fn from_shared_rejects_out_of_slab_windows() {
        let slab: Arc<dyn F32Slab> = Arc::new(VecSlab(vec![0.0; 4]));
        assert!(Tensor::from_shared(Arc::clone(&slab), 0, &[4]).is_ok());
        assert!(Tensor::from_shared(Arc::clone(&slab), 1, &[4]).is_err());
        assert!(Tensor::from_shared(Arc::clone(&slab), usize::MAX, &[2]).is_err());
    }

    #[test]
    fn shared_tensors_compare_and_reduce_like_owned() {
        let slab: Arc<dyn F32Slab> = Arc::new(VecSlab(vec![1.0, -2.0, 3.0, 0.5]));
        let shared = Tensor::from_shared(slab, 0, &[4]).unwrap();
        let owned = Tensor::from_vec(vec![1.0, -2.0, 3.0, 0.5], &[4]).unwrap();
        assert_eq!(shared, owned);
        assert_eq!(shared.sum(), owned.sum());
        assert_eq!(shared.argmax(), owned.argmax());
        assert_eq!(shared.clone().into_vec(), owned.as_slice());
    }

    #[test]
    fn eye_is_identity() {
        let i = Tensor::eye(3);
        let x = Tensor::from_vec((1..=9).map(|v| v as f32).collect(), &[3, 3]).unwrap();
        assert_eq!(x.matmul(&i).unwrap(), x);
        assert_eq!(i.matmul(&x).unwrap(), x);
    }

    #[test]
    fn get_set_roundtrip() {
        let mut t = Tensor::zeros(&[2, 3]);
        t.set(&[1, 2], 5.0).unwrap();
        assert_eq!(t.get(&[1, 2]).unwrap(), 5.0);
        assert_eq!(t.get(&[0, 0]).unwrap(), 0.0);
        assert!(t.get(&[2, 0]).is_err());
    }

    #[test]
    fn elementwise_arithmetic() {
        let a = Tensor::from_vec(vec![1.0, 2.0, 3.0], &[3]).unwrap();
        let b = Tensor::from_vec(vec![4.0, 5.0, 6.0], &[3]).unwrap();
        assert_eq!(a.add(&b).unwrap().as_slice(), &[5.0, 7.0, 9.0]);
        assert_eq!(b.sub(&a).unwrap().as_slice(), &[3.0, 3.0, 3.0]);
        assert_eq!(a.mul(&b).unwrap().as_slice(), &[4.0, 10.0, 18.0]);
        assert_eq!(b.div(&a).unwrap().as_slice(), &[4.0, 2.5, 2.0]);
        assert_eq!(a.add_scalar(1.0).as_slice(), &[2.0, 3.0, 4.0]);
        assert_eq!(a.mul_scalar(2.0).as_slice(), &[2.0, 4.0, 6.0]);
    }

    #[test]
    fn elementwise_shape_mismatch_errors() {
        let a = Tensor::zeros(&[2]);
        let b = Tensor::zeros(&[3]);
        assert!(a.add(&b).is_err());
        assert!(a.mul(&b).is_err());
        let mut c = Tensor::zeros(&[2]);
        assert!(c.add_assign(&b).is_err());
        assert!(c.add_scaled_assign(&b, 1.0).is_err());
    }

    #[test]
    fn add_assign_and_axpy() {
        let mut a = Tensor::from_vec(vec![1.0, 1.0], &[2]).unwrap();
        let b = Tensor::from_vec(vec![2.0, 3.0], &[2]).unwrap();
        a.add_assign(&b).unwrap();
        assert_eq!(a.as_slice(), &[3.0, 4.0]);
        a.add_scaled_assign(&b, -1.0).unwrap();
        assert_eq!(a.as_slice(), &[1.0, 1.0]);
    }

    #[test]
    fn matmul_known_product() {
        let a = Tensor::from_vec(vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0], &[2, 3]).unwrap();
        let b = Tensor::from_vec(vec![7.0, 8.0, 9.0, 10.0, 11.0, 12.0], &[3, 2]).unwrap();
        let c = a.matmul(&b).unwrap();
        assert_eq!(c.dims(), &[2, 2]);
        assert_eq!(c.as_slice(), &[58.0, 64.0, 139.0, 154.0]);
    }

    #[test]
    fn matmul_rejects_bad_shapes() {
        let a = Tensor::zeros(&[2, 3]);
        let b = Tensor::zeros(&[2, 3]);
        assert!(a.matmul(&b).is_err());
        let v = Tensor::zeros(&[3]);
        assert!(a.matmul(&v).is_err());
    }

    #[test]
    fn matmul_tn_matches_explicit_transpose() {
        let a = Tensor::from_vec((0..12).map(|v| v as f32).collect(), &[4, 3]).unwrap();
        let b = Tensor::from_vec((0..8).map(|v| v as f32 * 0.5).collect(), &[4, 2]).unwrap();
        let expected = a.transpose().unwrap().matmul(&b).unwrap();
        assert_eq!(a.matmul_tn(&b).unwrap(), expected);
    }

    #[test]
    fn matmul_nt_matches_explicit_transpose() {
        let a = Tensor::from_vec((0..12).map(|v| v as f32).collect(), &[3, 4]).unwrap();
        let b = Tensor::from_vec((0..8).map(|v| v as f32 * 0.25).collect(), &[2, 4]).unwrap();
        let expected = a.matmul(&b.transpose().unwrap()).unwrap();
        assert_eq!(a.matmul_nt(&b).unwrap(), expected);
    }

    #[test]
    fn large_matmul_uses_threads_and_matches_serial() {
        // Big enough to cross PARALLEL_MATMUL_THRESHOLD.
        let m = 128;
        let k = 96;
        let n = 128;
        let a =
            Tensor::from_vec((0..m * k).map(|v| (v % 17) as f32 * 0.1).collect(), &[m, k]).unwrap();
        let b =
            Tensor::from_vec((0..k * n).map(|v| (v % 13) as f32 * 0.2).collect(), &[k, n]).unwrap();
        let c = a.matmul(&b).unwrap();
        // Spot-check a few entries against a direct dot product.
        for &(i, j) in &[(0usize, 0usize), (m - 1, n - 1), (37, 59)] {
            let mut acc = 0.0f32;
            for p in 0..k {
                acc += a.as_slice()[i * k + p] * b.as_slice()[p * n + j];
            }
            let got = c.as_slice()[i * n + j];
            assert!(
                (acc - got).abs() < 1e-3,
                "mismatch at ({i},{j}): {acc} vs {got}"
            );
        }
    }

    #[test]
    fn matmul_propagates_nan_through_zero_lhs() {
        // Regression: the old scalar kernel skipped a == 0.0 entries in the
        // inner loop, so a NaN (or Inf) in `b` multiplied by an exact zero in
        // `a` was silently dropped. IEEE 754 requires 0 · NaN = NaN.
        let a = Tensor::from_vec(vec![0.0, 0.0], &[1, 2]).unwrap();
        let b = Tensor::from_vec(vec![f32::NAN, f32::INFINITY], &[2, 1]).unwrap();
        assert!(a.matmul(&b).unwrap().as_slice()[0].is_nan());

        let at = Tensor::from_vec(vec![0.0, 0.0], &[2, 1]).unwrap();
        assert!(at.matmul_tn(&b).unwrap().as_slice()[0].is_nan());

        let bt = Tensor::from_vec(vec![f32::NAN, f32::INFINITY], &[1, 2]).unwrap();
        assert!(a.matmul_nt(&bt).unwrap().as_slice()[0].is_nan());
    }

    /// Scalar triple-loop reference for the parity property tests.
    fn naive_matmul(a: &Tensor, b: &Tensor) -> Tensor {
        let (m, k) = (a.dims()[0], a.dims()[1]);
        let n = b.dims()[1];
        let mut out = vec![0.0f32; m * n];
        for i in 0..m {
            for j in 0..n {
                let mut s = 0.0f32;
                for p in 0..k {
                    s += a.as_slice()[i * k + p] * b.as_slice()[p * n + j];
                }
                out[i * n + j] = s;
            }
        }
        Tensor::from_vec(out, &[m, n]).unwrap()
    }

    fn ramp(dims: &[usize], scale: f32) -> Tensor {
        let numel: usize = dims.iter().product();
        Tensor::from_vec(
            (0..numel)
                .map(|v| ((v * 2_654_435_761) % 1000) as f32 * scale - 1.0)
                .collect(),
            dims,
        )
        .unwrap()
    }

    #[test]
    fn blocked_kernel_parity_on_odd_and_prime_shapes() {
        for &(m, k, n) in &[
            (1, 1, 1),
            (3, 7, 5),
            (64, 64, 64),
            (13, 1, 29),
            (65, 129, 67),
            (2, 300, 3),
        ] {
            let a = ramp(&[m, k], 2e-3);
            let b = ramp(&[k, n], 3e-3);
            let got = a.matmul(&b).unwrap();
            let expected = naive_matmul(&a, &b);
            for (g, e) in got.as_slice().iter().zip(expected.as_slice()) {
                assert!(
                    (g - e).abs() <= 1e-4 * (1.0 + e.abs()),
                    "{m}x{k}x{n}: {g} vs {e}"
                );
            }
            // Transposed variants against their materialised-transpose
            // definitions on the same shapes.
            let tn = a.transpose().unwrap().matmul_tn(&b).unwrap();
            for (g, e) in tn.as_slice().iter().zip(expected.as_slice()) {
                assert!(
                    (g - e).abs() <= 1e-4 * (1.0 + e.abs()),
                    "tn {m}x{k}x{n}: {g} vs {e}"
                );
            }
            let nt = a.matmul_nt(&b.transpose().unwrap()).unwrap();
            for (g, e) in nt.as_slice().iter().zip(expected.as_slice()) {
                assert!(
                    (g - e).abs() <= 1e-4 * (1.0 + e.abs()),
                    "nt {m}x{k}x{n}: {g} vs {e}"
                );
            }
        }
    }

    #[test]
    fn ensure_shape_reuses_storage() {
        let mut t = Tensor::zeros(&[8, 8]);
        t.ensure_shape(&[4, 4]);
        assert_eq!(t.dims(), &[4, 4]);
        assert_eq!(t.numel(), 16);
        t.ensure_shape(&[8, 8]);
        assert_eq!(t.numel(), 64);
    }

    #[test]
    fn copy_from_adopts_shape_and_contents() {
        let src = Tensor::from_vec(vec![1.0, 2.0, 3.0], &[3]).unwrap();
        let mut dst = Tensor::zeros(&[10]);
        dst.copy_from(&src);
        assert_eq!(dst, src);
    }

    #[test]
    fn into_variants_validate_lengths() {
        let mut small = vec![0.0f32; 3];
        assert!(im2col_into(&[1.0; 4], (1, 2, 2), (1, 1), 1, 0, &mut small, &mut []).is_err());
        assert!(col2im_into(&[1.0; 4], (1, 2, 2), (1, 1), 1, 0, &mut small).is_err());
        let mut out = vec![0.0f32; 8];
        // Not a whole number of images, no images, and a group of two
        // without room to stage it.
        assert!(im2col_into(&[1.0; 6], (1, 2, 2), (1, 1), 1, 0, &mut out, &mut [0.0; 8]).is_err());
        assert!(im2col_into(&[], (1, 2, 2), (1, 1), 1, 0, &mut out, &mut [0.0; 8]).is_err());
        assert!(im2col_into(&[1.0; 8], (1, 2, 2), (1, 1), 1, 0, &mut out, &mut [0.0; 7]).is_err());
        assert!(im2col_into(&[1.0; 8], (1, 2, 2), (1, 1), 1, 0, &mut out, &mut [0.0; 8]).is_ok());
    }

    #[test]
    fn im2col_group_places_each_image_in_its_column_block() {
        // Three 2-channel 4x4 images, 3x3 kernel, padding 1: each image's
        // output positions land in its own block of every row, at stride 2
        // (per-row lowering) and stride 1 (shifted-plane lowering).
        let images: Vec<Tensor> = (0..3)
            .map(|i| {
                let data = (0..32).map(|v| (v * 7 + i * 5) as f32).collect();
                Tensor::from_vec(data, &[2, 4, 4]).unwrap()
            })
            .collect();
        let batch: Vec<f32> = images.iter().flat_map(|i| i.as_slice().to_vec()).collect();
        for (stride, cols) in [(2, 4), (1, 16)] {
            let mut grouped = vec![f32::NAN; 18 * 3 * cols];
            let mut staging = vec![f32::NAN; batch.len()];
            im2col_into(
                &batch,
                (2, 4, 4),
                (3, 3),
                stride,
                1,
                &mut grouped,
                &mut staging,
            )
            .unwrap();
            for (index, image) in images.iter().enumerate() {
                let single = im2col(image, (3, 3), stride, 1).unwrap();
                for (row, expected) in single.as_slice().chunks_exact(cols).enumerate() {
                    let start = (row * 3 + index) * cols;
                    let block = &grouped[start..start + cols];
                    assert_eq!(block, expected, "stride {stride} image {index} row {row}");
                }
            }
            let mut short = vec![0.0; 18 * 2 * cols];
            assert!(im2col_into(
                &batch,
                (2, 4, 4),
                (3, 3),
                stride,
                1,
                &mut short,
                &mut staging
            )
            .is_err());
        }
    }

    /// The per-output-row lowering every geometry used before the shifted-
    /// plane path: image `index` of a `len`-image group, one output row at a
    /// time.
    fn per_row_reference(
        image: &[f32],
        (c, h, w): (usize, usize, usize),
        (kh, kw): (usize, usize),
        stride: usize,
        padding: usize,
        out: &mut [f32],
        (index, len): (usize, usize),
    ) {
        let (out_h, out_w) = conv_output_size((h, w), (kh, kw), stride, padding).unwrap();
        let cols = out_h * out_w;
        let row_len = len * cols;
        for ch in 0..c {
            for ky in 0..kh {
                for kx in 0..kw {
                    let row = (ch * kh + ky) * kw + kx;
                    let base = row * row_len + index * cols;
                    for oy in 0..out_h {
                        let iy = (oy * stride + ky) as isize - padding as isize;
                        let out_row = &mut out[base + oy * out_w..base + (oy + 1) * out_w];
                        if iy < 0 || iy >= h as isize {
                            out_row.fill(0.0);
                            continue;
                        }
                        let src_row =
                            &image[(ch * h + iy as usize) * w..(ch * h + iy as usize + 1) * w];
                        for (ox, o) in out_row.iter_mut().enumerate() {
                            let ix = (ox * stride + kx) as isize - padding as isize;
                            *o = if ix >= 0 && ix < w as isize {
                                src_row[ix as usize]
                            } else {
                                0.0
                            };
                        }
                    }
                }
            }
        }
    }

    /// Lowers `images` in groups of `group` (the last one ragged) and
    /// compares each group's column matrix with the per-row reference bit
    /// for bit. Returns the number of groups compared.
    fn compare_groups_with_reference(
        images: &[f32],
        (c, h, w): (usize, usize, usize),
        k: usize,
        stride: usize,
        padding: usize,
        group: usize,
    ) -> usize {
        let image_len = c * h * w;
        let (out_h, out_w) = conv_output_size((h, w), (k, k), stride, padding).unwrap();
        // Neither buffer needs clearing: every element must be overwritten.
        let garbage = f32::from_bits(0x7fba_dbad);
        let bits = |v: &[f32]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        let mut compared = 0;
        for group_images in images.chunks(group * image_len) {
            let g = group_images.len() / image_len;
            let mut out = vec![garbage; c * k * k * g * out_h * out_w];
            let mut staging = vec![garbage; if g == 1 { 0 } else { group_images.len() }];
            im2col_into(
                group_images,
                (c, h, w),
                (k, k),
                stride,
                padding,
                &mut out,
                &mut staging,
            )
            .unwrap();
            let mut expected = vec![garbage; out.len()];
            for (s, image) in group_images.chunks_exact(image_len).enumerate() {
                per_row_reference(
                    image,
                    (c, h, w),
                    (k, k),
                    stride,
                    padding,
                    &mut expected,
                    (s, g),
                );
            }
            assert_eq!(
                bits(&out),
                bits(&expected),
                "{c}x{h}x{w} k{k} s{stride} p{padding}, group of {g}"
            );
            compared += 1;
        }
        compared
    }

    #[test]
    fn grouped_im2col_is_bit_identical_to_the_per_row_reference() {
        // Values a fault can produce: NaN payloads of both signs, ±∞ and
        // −0.0, scattered among ordinary values.
        let salts = [
            f32::from_bits(0x7fc0_1234),
            f32::from_bits(0xff80_0001),
            f32::INFINITY,
            f32::NEG_INFINITY,
            -0.0,
        ];
        let mut state = 0x5eed_u64;
        let mut next = move || {
            state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
            let mut z = state;
            z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
            z ^ (z >> 31)
        };
        // Seven images, so groups of 3 and most `nn_group_len` groups end
        // ragged.
        let batch = 7;
        let planes = [
            (1, 1),
            (2, 2),
            (1, 3),
            (3, 1),
            (2, 5),
            (5, 3),
            (4, 4),
            (7, 6),
            (8, 8),
        ];
        let mut compared = 0;
        for (h, w) in planes {
            for c in [1, 3] {
                let images: Vec<f32> = (0..batch * c * h * w)
                    .map(|_| match next() {
                        r if r % 8 == 0 => salts[(r >> 8) as usize % salts.len()],
                        r => (r >> 40) as f32 / (1u64 << 22) as f32 - 2.0,
                    })
                    .collect();
                let geometries = [1, 3, 5].into_iter().flat_map(|k| {
                    [1, 2]
                        .into_iter()
                        .flat_map(move |s| (0..=2).map(move |p| (k, s, p)))
                });
                for (k, stride, padding) in geometries {
                    let Ok((out_h, out_w)) = conv_output_size((h, w), (k, k), stride, padding)
                    else {
                        continue;
                    };
                    let nn = crate::matmul::nn_group_len(8, c * k * k, out_h * out_w);
                    for group in [1, 3, nn] {
                        compared += compare_groups_with_reference(
                            &images,
                            (c, h, w),
                            k,
                            stride,
                            padding,
                            group,
                        );
                    }
                }
            }
        }
        assert!(compared > 500, "only {compared} groups compared");
    }

    #[test]
    fn transpose_swaps_axes() {
        let a = Tensor::from_vec(vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0], &[2, 3]).unwrap();
        let t = a.transpose().unwrap();
        assert_eq!(t.dims(), &[3, 2]);
        assert_eq!(t.as_slice(), &[1.0, 4.0, 2.0, 5.0, 3.0, 6.0]);
    }

    #[test]
    fn reductions() {
        let a = Tensor::from_vec(vec![1.0, -2.0, 3.0, 0.5], &[4]).unwrap();
        assert_eq!(a.sum(), 2.5);
        assert_eq!(a.mean(), 0.625);
        assert_eq!(a.max(), 3.0);
        assert_eq!(a.min(), -2.0);
        assert_eq!(a.argmax(), Some(2));
        assert_eq!(a.sq_norm(), 1.0 + 4.0 + 9.0 + 0.25);
    }

    #[test]
    fn argmax_rows_per_row() {
        let a = Tensor::from_vec(vec![0.1, 0.9, 0.0, 0.7, 0.2, 0.1], &[2, 3]).unwrap();
        assert_eq!(a.argmax_rows().unwrap(), vec![1, 0]);
        assert!(Tensor::zeros(&[3]).argmax_rows().is_err());
    }

    #[test]
    fn sum_axis0_sums_rows() {
        let a = Tensor::from_vec(vec![1.0, 2.0, 3.0, 4.0], &[2, 2]).unwrap();
        assert_eq!(a.sum_axis0().unwrap().as_slice(), &[4.0, 6.0]);
    }

    #[test]
    fn reshape_preserves_data() {
        let a = Tensor::from_vec((0..6).map(|v| v as f32).collect(), &[2, 3]).unwrap();
        let b = a.reshape(&[3, 2]).unwrap();
        assert_eq!(b.dims(), &[3, 2]);
        assert_eq!(b.as_slice(), a.as_slice());
        assert!(a.reshape(&[4]).is_err());
        let mut c = a.clone();
        c.reshape_in_place(&[6]).unwrap();
        assert_eq!(c.dims(), &[6]);
        assert!(c.reshape_in_place(&[7]).is_err());
    }

    #[test]
    fn index_axis0_extracts_rows() {
        let a = Tensor::from_vec((0..6).map(|v| v as f32).collect(), &[3, 2]).unwrap();
        assert_eq!(a.index_axis0(1).unwrap().as_slice(), &[2.0, 3.0]);
        assert!(a.index_axis0(3).is_err());
    }

    #[test]
    fn stack_builds_batch() {
        let a = Tensor::from_vec(vec![1.0, 2.0], &[2]).unwrap();
        let b = Tensor::from_vec(vec![3.0, 4.0], &[2]).unwrap();
        let s = Tensor::stack(&[a.clone(), b]).unwrap();
        assert_eq!(s.dims(), &[2, 2]);
        assert_eq!(s.index_axis0(0).unwrap(), a);
        assert!(Tensor::stack(&[]).is_err());
        let c = Tensor::zeros(&[3]);
        assert!(Tensor::stack(&[a, c]).is_err());
    }

    #[test]
    fn map_and_zip_map() {
        let a = Tensor::from_vec(vec![-1.0, 2.0], &[2]).unwrap();
        assert_eq!(a.map(f32::abs).as_slice(), &[1.0, 2.0]);
        let mut b = a.clone();
        b.map_in_place(|v| v * 10.0);
        assert_eq!(b.as_slice(), &[-10.0, 20.0]);
        let z = a.zip_map(&b, |x, y| x + y).unwrap();
        assert_eq!(z.as_slice(), &[-11.0, 22.0]);
    }

    #[test]
    fn conv_output_size_formula() {
        assert_eq!(conv_output_size((32, 32), (3, 3), 1, 1).unwrap(), (32, 32));
        assert_eq!(conv_output_size((32, 32), (2, 2), 2, 0).unwrap(), (16, 16));
        assert_eq!(conv_output_size((5, 5), (3, 3), 2, 0).unwrap(), (2, 2));
        assert!(conv_output_size((2, 2), (3, 3), 1, 0).is_err());
        assert!(conv_output_size((4, 4), (3, 3), 0, 0).is_err());
    }

    #[test]
    fn conv_output_size_rejects_a_padding_that_overflows() {
        // 32 + 2·2⁶³ wraps to 32 in unchecked arithmetic.
        assert!(matches!(
            conv_output_size((32, 32), (3, 3), 1, 1 << 63),
            Err(TensorError::InvalidShape(_))
        ));
        assert!(conv_output_size((32, 32), (3, 3), 1, usize::MAX).is_err());
        assert!(conv_output_size((usize::MAX, 1), (1, 1), 1, 1).is_err());
    }

    #[test]
    fn im2col_identity_kernel() {
        // A 1x1 kernel with stride 1 and no padding is just a reshape.
        let img = Tensor::from_vec((0..12).map(|v| v as f32).collect(), &[3, 2, 2]).unwrap();
        let cols = im2col(&img, (1, 1), 1, 0).unwrap();
        assert_eq!(cols.dims(), &[3, 4]);
        assert_eq!(cols.as_slice(), img.as_slice());
    }

    #[test]
    fn im2col_known_values() {
        // Single channel 3x3 image, 2x2 kernel, stride 1, no padding.
        let img = Tensor::from_vec((1..=9).map(|v| v as f32).collect(), &[1, 3, 3]).unwrap();
        let cols = im2col(&img, (2, 2), 1, 0).unwrap();
        assert_eq!(cols.dims(), &[4, 4]);
        // Columns are the four 2x2 patches in row-major output order.
        let expect = vec![
            1.0, 2.0, 4.0, 5.0, // kernel position (0,0)
            2.0, 3.0, 5.0, 6.0, // kernel position (0,1)
            4.0, 5.0, 7.0, 8.0, // kernel position (1,0)
            5.0, 6.0, 8.0, 9.0, // kernel position (1,1)
        ];
        assert_eq!(cols.as_slice(), expect.as_slice());
    }

    #[test]
    fn im2col_padding_zero_fills() {
        let img = Tensor::ones(&[1, 2, 2]);
        let cols = im2col(&img, (3, 3), 1, 1).unwrap();
        assert_eq!(cols.dims(), &[9, 4]);
        // Centre kernel tap always hits the image; corner taps hit padding.
        let total: f32 = cols.as_slice().iter().sum();
        assert_eq!(total, 16.0); // each of the 4 ones appears in 4 of the 9 taps
    }

    #[test]
    fn col2im_is_adjoint_of_im2col_for_disjoint_patches() {
        // With stride equal to kernel size the patches are disjoint, so
        // col2im(im2col(x)) == x exactly.
        let img = Tensor::from_vec((0..16).map(|v| v as f32).collect(), &[1, 4, 4]).unwrap();
        let cols = im2col(&img, (2, 2), 2, 0).unwrap();
        let back = col2im(&cols, (1, 4, 4), (2, 2), 2, 0).unwrap();
        assert_eq!(back, img);
    }

    #[test]
    fn col2im_accumulates_overlaps() {
        let img = Tensor::ones(&[1, 3, 3]);
        let cols = im2col(&img, (2, 2), 1, 0).unwrap();
        let back = col2im(&cols, (1, 3, 3), (2, 2), 1, 0).unwrap();
        // The centre pixel participates in all four patches.
        assert_eq!(back.get(&[0, 1, 1]).unwrap(), 4.0);
        // Corners participate in exactly one patch.
        assert_eq!(back.get(&[0, 0, 0]).unwrap(), 1.0);
    }

    #[test]
    fn col2im_rejects_wrong_shapes() {
        let cols = Tensor::zeros(&[4, 5]);
        assert!(col2im(&cols, (1, 3, 3), (2, 2), 1, 0).is_err());
    }

    #[test]
    fn is_finite_detects_nan() {
        let mut t = Tensor::ones(&[2]);
        assert!(t.is_finite());
        t.as_mut_slice()[0] = f32::NAN;
        assert!(!t.is_finite());
    }

    #[test]
    fn debug_output_is_compact() {
        let t = Tensor::zeros(&[100]);
        let s = format!("{t:?}");
        assert!(s.contains("numel"));
        assert!(s.len() < 300);
    }
}
