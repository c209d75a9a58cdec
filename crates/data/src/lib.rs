//! Datasets and data loading for the FitAct reproduction.
//!
//! The paper trains on CIFAR-10 and CIFAR-100. Those datasets are not
//! available in this offline environment, so the primary dataset here is
//! [`SyntheticCifar`]: procedurally generated, class-conditional 3×32×32
//! images that a convolutional network can actually learn, exercising exactly
//! the same code paths (see `docs/deviations.md` for the substitution
//! argument).
//! The real CIFAR binary format is still supported through [`CifarBinary`]
//! when the files are present on disk.
//!
//! # Example
//!
//! ```
//! use fitact_data::{Dataset, SyntheticCifar, SyntheticCifarConfig};
//!
//! let train = SyntheticCifar::new(SyntheticCifarConfig {
//!     classes: 10,
//!     samples: 64,
//!     seed: 7,
//!     noise: 0.1,
//! });
//! assert_eq!(train.len(), 64);
//! let (image, label) = train.sample(0).expect("index in range");
//! assert_eq!(image.dims(), &[3, 32, 32]);
//! assert!(label < 10);
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

mod blobs;
mod cifar_binary;
mod loader;
mod spec;
mod synthetic;

pub use blobs::{Blobs, BlobsConfig};
pub use cifar_binary::CifarBinary;
pub use loader::{materialize, DataLoader};
pub use spec::DataSpec;
pub use synthetic::{SyntheticCifar, SyntheticCifarConfig};

use fitact_tensor::Tensor;
use std::error::Error;
use std::fmt;

/// Errors produced when constructing or reading datasets.
#[derive(Debug)]
pub enum DataError {
    /// A sample index was out of range.
    IndexOutOfRange {
        /// The requested index.
        index: usize,
        /// The dataset length.
        len: usize,
    },
    /// A configuration value was invalid.
    InvalidConfig(String),
    /// An I/O error occurred while reading dataset files from disk.
    Io(std::io::Error),
    /// A dataset file had an unexpected size or structure.
    Malformed(String),
}

impl fmt::Display for DataError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DataError::IndexOutOfRange { index, len } => {
                write!(
                    f,
                    "sample index {index} out of range for dataset of length {len}"
                )
            }
            DataError::InvalidConfig(msg) => write!(f, "invalid dataset configuration: {msg}"),
            DataError::Io(e) => write!(f, "dataset i/o error: {e}"),
            DataError::Malformed(msg) => write!(f, "malformed dataset file: {msg}"),
        }
    }
}

impl Error for DataError {
    fn source(&self) -> Option<&(dyn Error + 'static)> {
        match self {
            DataError::Io(e) => Some(e),
            _ => None,
        }
    }
}

impl From<std::io::Error> for DataError {
    fn from(e: std::io::Error) -> Self {
        DataError::Io(e)
    }
}

/// A supervised image-classification dataset.
pub trait Dataset {
    /// Number of samples.
    fn len(&self) -> usize;

    /// Returns `true` if the dataset has no samples.
    fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Number of distinct class labels.
    fn num_classes(&self) -> usize;

    /// Per-sample input shape (e.g. `[3, 32, 32]`).
    fn input_shape(&self) -> Vec<usize>;

    /// Returns the `index`-th sample as `(input, label)`.
    ///
    /// # Errors
    ///
    /// Returns [`DataError::IndexOutOfRange`] if `index >= self.len()`.
    fn sample(&self, index: usize) -> Result<(Tensor, usize), DataError>;
}

/// The two dataset families used in the paper's evaluation.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum DatasetKind {
    /// 10-class dataset (CIFAR-10 stand-in).
    Cifar10,
    /// 100-class dataset (CIFAR-100 stand-in).
    Cifar100,
}

impl DatasetKind {
    /// Both dataset kinds in the order used by the paper's Fig. 6.
    pub const ALL: [DatasetKind; 2] = [DatasetKind::Cifar10, DatasetKind::Cifar100];

    /// Number of classes.
    pub fn classes(self) -> usize {
        match self {
            DatasetKind::Cifar10 => 10,
            DatasetKind::Cifar100 => 100,
        }
    }

    /// Human-readable name.
    pub fn name(self) -> &'static str {
        match self {
            DatasetKind::Cifar10 => "cifar10",
            DatasetKind::Cifar100 => "cifar100",
        }
    }
}

impl fmt::Display for DatasetKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn error_display_nonempty() {
        let errors: Vec<DataError> = vec![
            DataError::IndexOutOfRange { index: 5, len: 3 },
            DataError::InvalidConfig("x".into()),
            DataError::Io(std::io::Error::new(std::io::ErrorKind::NotFound, "missing")),
            DataError::Malformed("truncated".into()),
        ];
        for e in errors {
            assert!(!e.to_string().is_empty());
        }
    }

    #[test]
    fn dataset_kind_metadata() {
        assert_eq!(DatasetKind::Cifar10.classes(), 10);
        assert_eq!(DatasetKind::Cifar100.classes(), 100);
        assert_eq!(DatasetKind::Cifar10.to_string(), "cifar10");
        assert_eq!(DatasetKind::ALL.len(), 2);
    }

    #[test]
    fn io_error_has_source() {
        let e = DataError::from(std::io::Error::other("x"));
        assert!(Error::source(&e).is_some());
    }
}
