//! Activation profiling: per-neuron and per-layer maximum activation values.
//!
//! Both the baselines and FitAct need to know how large each activation
//! normally gets: Clip-Act and Ranger use the *layer* maximum as their global
//! bound, FitAct initialises each λ_i to the *neuron* maximum (paper §V,
//! "initialize the bound parameters Θ_R for each neuron to their maximum
//! values over the training dataset D"). The paper's Fig. 2 is simply the
//! distribution of these per-neuron maxima for VGG16's second layer.

use crate::FitActError;
use fitact_nn::{Activation, Mode, Network, NnError, Parameter};
use fitact_tensor::Tensor;
use std::sync::{Arc, Mutex};

/// The activation statistics of one activation slot.
#[derive(Debug, Clone, PartialEq)]
pub struct SlotProfile {
    /// The slot's diagnostic label (e.g. `"features.1"`).
    pub label: String,
    /// Per-sample feature shape of the slot.
    pub feature_shape: Vec<usize>,
    /// Maximum post-ReLU activation observed for each neuron.
    pub per_neuron_max: Vec<f32>,
    /// Maximum over all neurons in the slot (the global bound Clip-Act/Ranger
    /// would use for this layer).
    pub layer_max: f32,
}

impl SlotProfile {
    /// Number of neurons in the slot.
    pub fn num_neurons(&self) -> usize {
        self.per_neuron_max.len()
    }

    /// Builds a density histogram of the per-neuron maxima (paper Fig. 2).
    ///
    /// Returns `(bin_centre, density)` pairs; densities integrate to 1 over the
    /// value range. Returns an empty vector if the slot has no neurons or
    /// `bins == 0`.
    pub fn histogram(&self, bins: usize) -> Vec<(f32, f32)> {
        if self.per_neuron_max.is_empty() || bins == 0 {
            return Vec::new();
        }
        let max = self.layer_max.max(1e-6);
        let width = max / bins as f32;
        let mut counts = vec![0usize; bins];
        for &v in &self.per_neuron_max {
            let idx = ((v / width) as usize).min(bins - 1);
            counts[idx] += 1;
        }
        let total = self.per_neuron_max.len() as f32;
        counts
            .into_iter()
            .enumerate()
            .map(|(i, c)| ((i as f32 + 0.5) * width, c as f32 / (total * width)))
            .collect()
    }
}

/// Per-neuron activation maxima for every activation slot of a network.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct ActivationProfile {
    /// One profile per activation slot, in forward order.
    pub slots: Vec<SlotProfile>,
}

impl ActivationProfile {
    /// Number of profiled slots.
    pub fn len(&self) -> usize {
        self.slots.len()
    }

    /// Returns `true` if no slots were profiled.
    pub fn is_empty(&self) -> bool {
        self.slots.is_empty()
    }

    /// Total number of neurons across all slots (the `N` of paper Eq. 10).
    pub fn total_neurons(&self) -> usize {
        self.slots.iter().map(SlotProfile::num_neurons).sum()
    }

    /// Looks a slot profile up by its label.
    pub fn slot(&self, label: &str) -> Option<&SlotProfile> {
        self.slots.iter().find(|s| s.label == label)
    }
}

/// Runs calibration forward passes and records activation maxima.
#[derive(Debug, Clone, Copy)]
pub struct ActivationProfiler {
    batch_size: usize,
}

impl ActivationProfiler {
    /// Creates a profiler that feeds the calibration set through the network
    /// `batch_size` samples at a time.
    ///
    /// # Errors
    ///
    /// Returns [`FitActError::InvalidConfig`] if `batch_size == 0`.
    pub fn new(batch_size: usize) -> Result<Self, FitActError> {
        if batch_size == 0 {
            return Err(FitActError::InvalidConfig(
                "profiler batch_size must be non-zero".into(),
            ));
        }
        Ok(ActivationProfiler { batch_size })
    }

    /// Profiles every activation slot of `network` over the calibration set
    /// `inputs` (shape `[n, ...]`).
    ///
    /// The network's activations are temporarily replaced by recording
    /// wrappers and restored afterwards; parameters are not modified.
    ///
    /// # Errors
    ///
    /// Propagates forward-pass errors.
    pub fn profile(
        &self,
        network: &mut Network,
        inputs: &Tensor,
    ) -> Result<ActivationProfile, FitActError> {
        // Install recording activations, keeping the originals.
        let mut originals: Vec<Box<dyn Activation>> = Vec::new();
        let mut recorders: Vec<Arc<Mutex<Vec<f32>>>> = Vec::new();
        let mut labels: Vec<String> = Vec::new();
        let mut shapes: Vec<Vec<usize>> = Vec::new();
        for slot in network.activation_slots() {
            let neurons = slot.num_neurons();
            let shared = Arc::new(Mutex::new(vec![0.0f32; neurons]));
            labels.push(slot.label().to_owned());
            shapes.push(slot.feature_shape().to_vec());
            recorders.push(Arc::clone(&shared));
            originals.push(slot.replace_activation(Box::new(RecordingRelu::new(shared, neurons))));
        }

        // Feed the calibration set through in inference mode.
        let result = self.run_forward_passes(network, inputs);

        // Restore the original activations regardless of forward success.
        for (slot, original) in network.activation_slots().into_iter().zip(originals) {
            slot.replace_activation(original);
        }
        result?;

        let slots = labels
            .into_iter()
            .zip(shapes)
            .zip(recorders)
            .map(|((label, feature_shape), recorder)| {
                let per_neuron_max = recorder.lock().expect("profiler mutex poisoned").clone();
                let layer_max = per_neuron_max.iter().copied().fold(0.0f32, f32::max);
                SlotProfile {
                    label,
                    feature_shape,
                    per_neuron_max,
                    layer_max,
                }
            })
            .collect();
        Ok(ActivationProfile { slots })
    }

    fn run_forward_passes(
        &self,
        network: &mut Network,
        inputs: &Tensor,
    ) -> Result<(), FitActError> {
        if inputs.ndim() == 0 || inputs.dims()[0] == 0 {
            return Err(FitActError::InvalidConfig(
                "calibration set must contain at least one sample".into(),
            ));
        }
        let n = inputs.dims()[0];
        let mut start = 0usize;
        while start < n {
            let end = (start + self.batch_size).min(n);
            let mut rows = Vec::with_capacity(end - start);
            for i in start..end {
                rows.push(inputs.index_axis0(i).map_err(NnError::from)?);
            }
            let batch = Tensor::stack(&rows).map_err(NnError::from)?;
            network.forward(&batch, Mode::Infer)?;
            start = end;
        }
        Ok(())
    }
}

/// A ReLU that additionally records the per-neuron maximum of its output.
#[derive(Debug, Clone)]
struct RecordingRelu {
    maxima: Arc<Mutex<Vec<f32>>>,
    neurons: usize,
}

impl RecordingRelu {
    fn new(maxima: Arc<Mutex<Vec<f32>>>, neurons: usize) -> Self {
        RecordingRelu { maxima, neurons }
    }
}

impl Activation for RecordingRelu {
    fn name(&self) -> &str {
        "recording_relu"
    }

    fn forward(&mut self, input: &Tensor) -> Result<Tensor, NnError> {
        let out = input.map(|v| v.max(0.0));
        let mut maxima = self.maxima.lock().expect("profiler mutex poisoned");
        for (i, &v) in out.as_slice().iter().enumerate() {
            let neuron = i % self.neurons;
            if v > maxima[neuron] {
                maxima[neuron] = v;
            }
        }
        Ok(out)
    }

    fn backward(&mut self, input: &Tensor, grad_output: &Tensor) -> Result<Tensor, NnError> {
        Ok(input.zip_map(grad_output, |x, g| if x > 0.0 { g } else { 0.0 })?)
    }

    fn eval_scalar(&self, x: f32, _neuron: usize) -> f32 {
        x.max(0.0)
    }

    fn params(&self) -> Vec<&Parameter> {
        Vec::new()
    }

    fn clone_box(&self) -> Box<dyn Activation> {
        Box::new(self.clone())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fitact_nn::layers::{ActivationLayer, Linear, Sequential};
    use fitact_nn::Layer;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn network_with_known_weights() -> Network {
        let mut rng = StdRng::seed_from_u64(0);
        let mut fc = Linear::new(2, 2, &mut rng);
        // weight = [[1, 0], [0, -1]], bias = 0: neuron 0 passes x0, neuron 1
        // passes -x1.
        *fc.params_mut()[0].data_mut() =
            Tensor::from_vec(vec![1.0, 0.0, 0.0, -1.0], &[2, 2]).unwrap();
        fc.params_mut()[1].data_mut().fill(0.0);
        Network::new(
            "probe",
            Sequential::new()
                .with(Box::new(fc))
                .with(Box::new(ActivationLayer::relu("h", &[2]))),
        )
    }

    #[test]
    fn profile_records_per_neuron_maxima() {
        let mut net = network_with_known_weights();
        // Samples: (x0, x1) pairs.
        let inputs = Tensor::from_vec(vec![0.5, 0.0, 2.0, -3.0, 1.0, 5.0], &[3, 2]).unwrap();
        let profiler = ActivationProfiler::new(2).unwrap();
        let profile = profiler.profile(&mut net, &inputs).unwrap();
        assert_eq!(profile.len(), 1);
        let slot = &profile.slots[0];
        assert_eq!(slot.label, "h");
        assert_eq!(slot.num_neurons(), 2);
        // Neuron 0 sees max(x0) = 2.0; neuron 1 sees max(-x1) = 3.0.
        assert!((slot.per_neuron_max[0] - 2.0).abs() < 1e-6);
        assert!((slot.per_neuron_max[1] - 3.0).abs() < 1e-6);
        assert!((slot.layer_max - 3.0).abs() < 1e-6);
        assert_eq!(profile.total_neurons(), 2);
        assert!(profile.slot("h").is_some());
        assert!(profile.slot("missing").is_none());
    }

    #[test]
    fn profiling_restores_the_original_activations() {
        let mut net = network_with_known_weights();
        let inputs = Tensor::from_vec(vec![1.0, 1.0], &[1, 2]).unwrap();
        let profiler = ActivationProfiler::new(1).unwrap();
        profiler.profile(&mut net, &inputs).unwrap();
        let slots = net.activation_slots();
        assert_eq!(slots[0].activation().name(), "relu");
    }

    #[test]
    fn profiling_does_not_change_parameters() {
        let mut net = network_with_known_weights();
        let before = net.snapshot();
        let inputs = Tensor::from_vec(vec![1.0, -1.0, 0.3, 0.7], &[2, 2]).unwrap();
        ActivationProfiler::new(4)
            .unwrap()
            .profile(&mut net, &inputs)
            .unwrap();
        assert_eq!(net.snapshot(), before);
    }

    #[test]
    fn invalid_configuration_rejected() {
        assert!(ActivationProfiler::new(0).is_err());
        let mut net = network_with_known_weights();
        let profiler = ActivationProfiler::new(2).unwrap();
        assert!(profiler.profile(&mut net, &Tensor::zeros(&[0, 2])).is_err());
    }

    #[test]
    fn histogram_is_a_density() {
        let slot = SlotProfile {
            label: "x".into(),
            feature_shape: vec![4],
            per_neuron_max: vec![0.5, 1.0, 1.5, 2.0],
            layer_max: 2.0,
        };
        let hist = slot.histogram(4);
        assert_eq!(hist.len(), 4);
        let width = 0.5f32;
        let integral: f32 = hist.iter().map(|(_, d)| d * width).sum();
        assert!((integral - 1.0).abs() < 1e-5);
        // Degenerate cases.
        assert!(slot.histogram(0).is_empty());
        let empty = SlotProfile {
            label: "e".into(),
            feature_shape: vec![],
            per_neuron_max: vec![],
            layer_max: 0.0,
        };
        assert!(empty.histogram(10).is_empty());
        assert!(ActivationProfile::default().is_empty());
    }

    #[test]
    fn neurons_that_never_fire_have_zero_maximum() {
        let mut net = network_with_known_weights();
        // x1 always negative → neuron 1 output (-x1) positive; neuron 0 sees
        // only negative x0 → never fires.
        let inputs = Tensor::from_vec(vec![-1.0, -2.0, -0.5, -4.0], &[2, 2]).unwrap();
        let profile = ActivationProfiler::new(2)
            .unwrap()
            .profile(&mut net, &inputs)
            .unwrap();
        assert_eq!(profile.slots[0].per_neuron_max[0], 0.0);
        assert!(profile.slots[0].per_neuron_max[1] > 0.0);
    }
}
