//! Classification metrics.

use crate::NnError;
use fitact_tensor::Tensor;

/// Computes top-1 accuracy (fraction of rows whose argmax equals the target).
///
/// # Errors
///
/// Returns an error if `logits` is not `[batch, classes]` with one target per
/// row.
///
/// # Example
///
/// ```
/// use fitact_nn::metrics::accuracy;
/// use fitact_tensor::Tensor;
///
/// # fn main() -> Result<(), fitact_nn::NnError> {
/// let logits = Tensor::from_vec(vec![0.9, 0.1, 0.2, 0.8], &[2, 2])?;
/// assert_eq!(accuracy(&logits, &[0, 1])?, 1.0);
/// # Ok(())
/// # }
/// ```
pub fn accuracy(logits: &Tensor, targets: &[usize]) -> Result<f32, NnError> {
    if logits.ndim() != 2 || logits.dims()[0] != targets.len() {
        return Err(NnError::InvalidInput {
            layer: "accuracy".into(),
            expected: format!("[{}, classes] logits", targets.len()),
            actual: logits.dims().to_vec(),
        });
    }
    if targets.is_empty() {
        return Ok(0.0);
    }
    let predictions = logits.argmax_rows()?;
    let correct = predictions
        .iter()
        .zip(targets)
        .filter(|(p, t)| p == t)
        .count();
    Ok(correct as f32 / targets.len() as f32)
}

/// Running mean of a stream of scalar observations (losses, accuracies).
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct RunningMean {
    sum: f64,
    count: u64,
}

impl RunningMean {
    /// Creates an empty accumulator.
    pub fn new() -> Self {
        RunningMean::default()
    }

    /// Adds one observation.
    pub fn push(&mut self, value: f32) {
        self.sum += f64::from(value);
        self.count += 1;
    }

    /// Adds an observation with an integer weight (e.g. batch size).
    pub fn push_weighted(&mut self, value: f32, weight: usize) {
        self.sum += f64::from(value) * weight as f64;
        self.count += weight as u64;
    }

    /// Current mean, or 0.0 if nothing has been pushed.
    pub fn mean(&self) -> f32 {
        if self.count == 0 {
            0.0
        } else {
            (self.sum / self.count as f64) as f32
        }
    }

    /// Number of observations (weighted).
    pub fn count(&self) -> u64 {
        self.count
    }
}

/// Summary statistics of a sample of accuracies (one fault-injection campaign
/// point in paper Fig. 5 box plots).
#[derive(Debug, Clone, PartialEq)]
pub struct SampleStats {
    /// Minimum observed value.
    pub min: f32,
    /// First quartile.
    pub q1: f32,
    /// Median.
    pub median: f32,
    /// Third quartile.
    pub q3: f32,
    /// Maximum observed value.
    pub max: f32,
    /// Arithmetic mean.
    pub mean: f32,
    /// Number of observations.
    pub count: usize,
}

impl SampleStats {
    /// Computes summary statistics of a non-empty sample.
    ///
    /// Returns `None` for an empty slice.
    pub fn from_sample(values: &[f32]) -> Option<Self> {
        if values.is_empty() {
            return None;
        }
        let mut sorted = values.to_vec();
        sorted.sort_by(|a, b| a.partial_cmp(b).unwrap_or(std::cmp::Ordering::Equal));
        let q = |p: f64| -> f32 {
            let idx = p * (sorted.len() - 1) as f64;
            let lo = idx.floor() as usize;
            let hi = idx.ceil() as usize;
            let frac = (idx - lo as f64) as f32;
            sorted[lo] * (1.0 - frac) + sorted[hi] * frac
        };
        Some(SampleStats {
            min: sorted[0],
            q1: q(0.25),
            median: q(0.5),
            q3: q(0.75),
            max: sorted[sorted.len() - 1],
            mean: sorted.iter().sum::<f32>() / sorted.len() as f32,
            count: sorted.len(),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn accuracy_counts_correct_argmax() {
        let logits = Tensor::from_vec(vec![1.0, 0.0, 0.0, 1.0, 1.0, 0.0], &[3, 2]).unwrap();
        assert_eq!(accuracy(&logits, &[0, 1, 1]).unwrap(), 2.0 / 3.0);
        assert_eq!(accuracy(&logits, &[0, 1, 0]).unwrap(), 1.0);
    }

    #[test]
    fn accuracy_validates_shapes() {
        let logits = Tensor::zeros(&[2, 3]);
        assert!(accuracy(&logits, &[0]).is_err());
        assert!(accuracy(&Tensor::zeros(&[4]), &[0]).is_err());
    }

    #[test]
    fn accuracy_of_empty_batch_is_zero() {
        let logits = Tensor::zeros(&[0, 3]);
        assert_eq!(accuracy(&logits, &[]).unwrap(), 0.0);
    }

    #[test]
    fn running_mean_accumulates() {
        let mut m = RunningMean::new();
        assert_eq!(m.mean(), 0.0);
        m.push(1.0);
        m.push(3.0);
        assert_eq!(m.mean(), 2.0);
        m.push_weighted(10.0, 2);
        assert_eq!(m.count(), 4);
        assert!((m.mean() - 6.0).abs() < 1e-6);
    }

    #[test]
    fn sample_stats_quartiles() {
        let stats = SampleStats::from_sample(&[1.0, 2.0, 3.0, 4.0, 5.0]).unwrap();
        assert_eq!(stats.min, 1.0);
        assert_eq!(stats.median, 3.0);
        assert_eq!(stats.max, 5.0);
        assert_eq!(stats.q1, 2.0);
        assert_eq!(stats.q3, 4.0);
        assert_eq!(stats.mean, 3.0);
        assert_eq!(stats.count, 5);
    }

    #[test]
    fn sample_stats_single_value_and_empty() {
        let stats = SampleStats::from_sample(&[7.0]).unwrap();
        assert_eq!(stats.min, 7.0);
        assert_eq!(stats.max, 7.0);
        assert_eq!(stats.median, 7.0);
        assert!(SampleStats::from_sample(&[]).is_none());
    }

    #[test]
    fn sample_stats_unordered_input() {
        let stats = SampleStats::from_sample(&[5.0, 1.0, 3.0]).unwrap();
        assert_eq!(stats.min, 1.0);
        assert_eq!(stats.median, 3.0);
        assert_eq!(stats.max, 5.0);
    }
}
