//! Detect-and-retry recovery: turn bound-violation telemetry into a serving
//! verdict.
//!
//! Bounded activations double as fault detectors: every clamped value is
//! evidence that something corrupted the forward pass (see
//! `fitact_nn::trace`). This module supplies the pieces the worker loop
//! composes into a recovery story, mirroring the checkpoint-resumed campaign
//! engine (`fitact_faults::CheckpointCache`) on the serving side:
//!
//! 1. [`forward_traced`] runs a batch forward under a
//!    [`ViolationTrace`], optionally snapshotting every top-level layer
//!    boundary the way `CheckpointCache` snapshots clean activations,
//! 2. [`last_clean_boundary`] locates the resume point from the per-boundary
//!    violation totals,
//! 3. the worker re-executes from that boundary with
//!    `Network::forward_from`, compares bit-for-bit, and serves the verdict
//!    (see `docs/recovery.md` for the full state machine).
//!
//! The policy knob is [`RetryPolicy`]; with the default
//! [`RetryPolicy::Off`] nothing here changes a response byte.

use fitact_nn::trace::{self, ViolationTrace};
use fitact_nn::{Mode, Network, NnError};
use fitact_tensor::Tensor;

/// What the server does when a batch's violation trace crosses the
/// configured threshold (`--retry-policy`).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum RetryPolicy {
    /// Count violations in `/metrics` but never act on them. Responses are
    /// byte-identical to a server without recovery. The default.
    #[default]
    Off,
    /// Additionally count suspect batches (`flagged_batches_total`), still
    /// without touching responses.
    Flag,
    /// Re-execute suspect batches from the last clean layer boundary,
    /// compare bit-for-bit, and serve the re-executed rows (identical bits
    /// when the violation was persistent rather than transient).
    Retry,
}

impl RetryPolicy {
    /// Parses the CLI spelling (`off` / `flag` / `retry`).
    ///
    /// # Errors
    ///
    /// Returns a usage message naming the accepted values.
    pub fn parse(text: &str) -> Result<Self, String> {
        match text {
            "off" => Ok(RetryPolicy::Off),
            "flag" => Ok(RetryPolicy::Flag),
            "retry" => Ok(RetryPolicy::Retry),
            other => Err(format!(
                "unknown retry policy `{other}` (expected off, flag or retry)"
            )),
        }
    }

    /// The CLI spelling.
    pub fn as_str(&self) -> &'static str {
        match self {
            RetryPolicy::Off => "off",
            RetryPolicy::Flag => "flag",
            RetryPolicy::Retry => "retry",
        }
    }
}

/// One traced batch forward: the output, and (when requested) the layer
/// boundaries and the violation totals observed entering each boundary.
#[derive(Debug)]
pub struct TracedForward {
    /// The batch logits — bit-identical to an untraced forward.
    pub output: Tensor,
    /// Boundary `k` (the input to top-level layer `k`) for `k in 0..depth`;
    /// empty unless boundaries were requested.
    pub boundaries: Vec<Tensor>,
    /// Violation total observed entering boundary `k`, for `k in 0..=depth`
    /// (the last entry is the whole-batch total); empty unless boundaries
    /// were requested.
    pub layer_totals: Vec<u64>,
}

/// Runs one eval-mode batch forward under `trace` (cleared first, so counts
/// are per-batch). With `snapshot_boundaries`, every top-level layer
/// boundary is cloned — the same snapshots `CheckpointCache` keeps — so a
/// violating batch can be re-executed from its last clean boundary.
///
/// # Errors
///
/// Propagates any forward error unchanged.
pub fn forward_traced(
    network: &mut Network,
    input: &Tensor,
    trace: &mut ViolationTrace,
    snapshot_boundaries: bool,
) -> Result<TracedForward, NnError> {
    trace.clear();
    if !snapshot_boundaries {
        let output = trace::capture(trace, || network.forward(input, Mode::Infer))?;
        return Ok(TracedForward {
            output,
            boundaries: Vec::new(),
            layer_totals: Vec::new(),
        });
    }
    let depth = network.depth();
    let mut boundaries: Vec<Tensor> = Vec::with_capacity(depth);
    let mut layer_totals: Vec<u64> = Vec::with_capacity(depth + 1);
    let output = trace::capture(trace, || {
        network.forward_inspect(input, Mode::Infer, &mut |k, boundary| {
            layer_totals.push(trace::active_total().unwrap_or(0));
            if k < depth {
                boundaries.push(boundary.clone());
            }
        })
    })?;
    Ok(TracedForward {
        output,
        boundaries,
        layer_totals,
    })
}

/// Indices of the top-level layers that carry activation slots — the
/// detection checkpoints a retry can resume from. Computed once per loaded
/// model.
pub fn activation_layer_indices(network: &mut Network) -> Vec<usize> {
    network
        .root_mut()
        .layers_mut()
        .iter_mut()
        .enumerate()
        .filter_map(|(k, layer)| (!layer.activation_slots().is_empty()).then_some(k))
        .collect()
}

/// The boundary to re-execute a suspect batch from.
///
/// The first violating layer `k_v` is the first whose traced total grows —
/// its *input* already carried over-bound values, so the fault struck
/// somewhere after the previous detection checkpoint. Under the
/// single-transient-fault model the input to the last activation layer
/// before `k_v` was certified clean by that layer's own zero count, so the
/// retry resumes there (re-running that layer too, which covers corruption
/// of its own output); with no earlier checkpoint — or no violation at all —
/// the only safe resume point is 0, a full re-execution.
///
/// A sub-bound corruption *before* the resume point is undetectable by
/// construction and survives the retry; that residual is exactly what the
/// canary's measured detection coverage quantifies.
pub fn last_clean_boundary(layer_totals: &[u64], activation_layers: &[usize]) -> usize {
    let first_violating = (1..layer_totals.len())
        .find(|&k| layer_totals[k] > layer_totals[k - 1])
        .map(|k| k - 1);
    match first_violating {
        None => 0,
        Some(k_v) => activation_layers
            .iter()
            .copied()
            .rev()
            .find(|&a| a < k_v)
            .unwrap_or(0),
    }
}

/// Compares two batch outputs row by row, bit-for-bit. Returns
/// `(differing_rows, identical_rows)` — a differing row after a retry is a
/// confirmed transient (the re-execution did not reproduce it), an identical
/// row means the violation is persistent (input-driven, or a fault the
/// resume boundary already contained).
pub fn compare_rows(original: &Tensor, retried: &Tensor, rows: usize) -> (u64, u64) {
    let width = original.numel() / rows.max(1);
    let a = original.as_slice();
    let b = retried.as_slice();
    let mut differing = 0;
    let mut identical = 0;
    for i in 0..rows {
        let range = i * width..(i + 1) * width;
        // Bit-level comparison: -0.0 vs 0.0 or NaN payloads count as a
        // difference, exactly like the identity suites.
        let same = a[range.clone()]
            .iter()
            .zip(&b[range])
            .all(|(x, y)| x.to_bits() == y.to_bits());
        if same {
            identical += 1;
        } else {
            differing += 1;
        }
    }
    (differing, identical)
}

#[cfg(test)]
mod tests {
    use super::*;
    use fitact_nn::layers::{ActivationLayer, Linear, Sequential};
    use fitact_nn::Activation;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn retry_policy_parses_and_round_trips() {
        for (text, policy) in [
            ("off", RetryPolicy::Off),
            ("flag", RetryPolicy::Flag),
            ("retry", RetryPolicy::Retry),
        ] {
            assert_eq!(RetryPolicy::parse(text).unwrap(), policy);
            assert_eq!(policy.as_str(), text);
        }
        assert!(RetryPolicy::parse("maybe").unwrap_err().contains("maybe"));
        assert_eq!(RetryPolicy::default(), RetryPolicy::Off);
    }

    #[test]
    fn last_clean_boundary_picks_the_checkpoint_before_the_first_violation() {
        // Activation layers at 1 and 3; totals grow entering boundary 4, so
        // layer 3 first saw violations and the resume point is layer 1... no:
        // totals[4] > totals[3] means layer 3's *input* was clean-counted and
        // the violation was recorded *by* layer 3 — k_v = 3, resume at 1.
        assert_eq!(last_clean_boundary(&[0, 0, 0, 0, 2, 2], &[1, 3]), 1);
        // Violation recorded by the first activation layer: no earlier
        // checkpoint, full re-execution.
        assert_eq!(last_clean_boundary(&[0, 2, 2, 2, 2, 2], &[0, 2]), 0);
        assert_eq!(last_clean_boundary(&[0, 0, 2, 2], &[1]), 0);
        // No violation anywhere: 0 by convention (callers never retry then).
        assert_eq!(last_clean_boundary(&[0, 0, 0], &[1]), 0);
        assert_eq!(last_clean_boundary(&[], &[]), 0);
    }

    #[test]
    fn compare_rows_is_bitwise() {
        let a = Tensor::from_vec(vec![1.0, 2.0, 3.0, 4.0], &[2, 2]).unwrap();
        let mut b = a.clone();
        assert_eq!(compare_rows(&a, &b, 2), (0, 2));
        b.as_mut_slice()[3] = 4.5;
        assert_eq!(compare_rows(&a, &b, 2), (1, 1));
        // Sign-of-zero differences count.
        let z1 = Tensor::from_vec(vec![0.0], &[1, 1]).unwrap();
        let z2 = Tensor::from_vec(vec![-0.0], &[1, 1]).unwrap();
        assert_eq!(compare_rows(&z1, &z2, 1), (1, 0));
    }

    /// A hard-bounded test activation so this crate's unit tests need no
    /// dependency on the protection schemes in `fitact` (core).
    #[derive(Debug, Clone)]
    struct ClampAct {
        bound: f32,
    }

    impl Activation for ClampAct {
        fn name(&self) -> &str {
            "clamp"
        }
        fn forward(&mut self, input: &Tensor) -> Result<Tensor, NnError> {
            let bound = self.bound;
            Ok(input.map(|x| if x > 0.0 && x <= bound { x } else { 0.0 }))
        }
        fn backward(&mut self, _: &Tensor, grad_output: &Tensor) -> Result<Tensor, NnError> {
            Ok(grad_output.clone())
        }
        fn eval_scalar(&self, x: f32, _neuron: usize) -> f32 {
            if x > 0.0 && x <= self.bound {
                x
            } else {
                0.0
            }
        }
        fn count_violations(&self, input: &Tensor) -> u64 {
            let bound = self.bound;
            input.as_slice().iter().filter(|&&x| x > bound).count() as u64
        }
        fn clone_box(&self) -> Box<dyn Activation> {
            Box::new(self.clone())
        }
    }

    /// Wraps an activation and adds a large spike to element 0 of its output
    /// on the first forward only — a deterministic transient fault.
    #[derive(Debug, Clone)]
    struct TransientSpike {
        inner: Box<dyn Activation>,
        fired: bool,
        magnitude: f32,
    }

    impl Activation for TransientSpike {
        fn name(&self) -> &str {
            "transient_spike"
        }
        fn forward(&mut self, input: &Tensor) -> Result<Tensor, NnError> {
            let mut out = self.inner.forward(input)?;
            if !self.fired {
                self.fired = true;
                out.as_mut_slice()[0] += self.magnitude;
            }
            Ok(out)
        }
        fn backward(&mut self, input: &Tensor, grad_output: &Tensor) -> Result<Tensor, NnError> {
            self.inner.backward(input, grad_output)
        }
        fn eval_scalar(&self, x: f32, neuron: usize) -> f32 {
            self.inner.eval_scalar(x, neuron)
        }
        fn count_violations(&self, input: &Tensor) -> u64 {
            self.inner.count_violations(input)
        }
        fn clone_box(&self) -> Box<dyn Activation> {
            Box::new(self.clone())
        }
    }

    fn bounded_mlp(rng: &mut StdRng) -> Network {
        Network::new(
            "mlp",
            Sequential::new()
                .with(Box::new(Linear::new(4, 8, rng)))
                .with(Box::new(ActivationLayer::with_activation(
                    "h1",
                    &[8],
                    Box::new(ClampAct { bound: 4.0 }),
                )))
                .with(Box::new(Linear::new(8, 8, rng)))
                .with(Box::new(ActivationLayer::with_activation(
                    "h2",
                    &[8],
                    Box::new(ClampAct { bound: 4.0 }),
                )))
                .with(Box::new(Linear::new(8, 2, rng))),
        )
    }

    #[test]
    fn traced_forward_is_bit_identical_and_counts_nothing_when_clean() {
        let mut rng = StdRng::seed_from_u64(7);
        let mut net = bounded_mlp(&mut rng);
        let x = Tensor::from_vec((0..8).map(|i| i as f32 * 0.1).collect(), &[2, 4]).unwrap();
        let clean = net.forward(&x, Mode::Eval).unwrap();
        let mut trace = ViolationTrace::new();
        let traced = forward_traced(&mut net, &x, &mut trace, true).unwrap();
        assert_eq!(traced.output.as_slice(), clean.as_slice());
        assert_eq!(trace.total(), 0);
        assert_eq!(traced.boundaries.len(), net.depth());
        assert_eq!(traced.layer_totals, vec![0; net.depth() + 1]);
        assert_eq!(activation_layer_indices(&mut net), vec![1, 3]);
    }

    /// The end-to-end recovery semantics, deterministically: a transient
    /// spike inside layer `h1` is detected by `h2`'s violation count, the
    /// resume point is `h1`'s own boundary, and re-execution from the
    /// snapshot reproduces the clean output bit-for-bit.
    #[test]
    fn detect_locate_retry_recovers_a_transient_bitwise() {
        let mut rng = StdRng::seed_from_u64(7);
        let mut net = bounded_mlp(&mut rng);
        let x = Tensor::from_vec((0..8).map(|i| i as f32 * 0.1).collect(), &[2, 4]).unwrap();
        let clean = net.forward(&x, Mode::Eval).unwrap();

        // Install the one-shot fault inside h1 (top-level layer 1).
        let slots = net.activation_slots();
        let spike = TransientSpike {
            inner: Box::new(ClampAct { bound: 4.0 }),
            fired: false,
            magnitude: 1000.0,
        };
        let h1 = slots
            .into_iter()
            .find(|s| s.label() == "h1")
            .expect("h1 slot");
        h1.replace_activation(Box::new(spike));

        let mut trace = ViolationTrace::new();
        let traced = forward_traced(&mut net, &x, &mut trace, true).unwrap();
        assert!(trace.total() > 0, "the spike must be detected downstream");
        assert_ne!(traced.output.as_slice(), clean.as_slice());
        // h2 (layer 3) saw the violations, h1 (layer 1) counted clean input.
        let by_label: Vec<_> = trace
            .slots()
            .iter()
            .map(|s| (s.label.as_str(), s.violations))
            .collect();
        assert_eq!(by_label[0], ("h1", 0));
        assert!(by_label[1].0 == "h2" && by_label[1].1 > 0);

        let resume = last_clean_boundary(&traced.layer_totals, &[1, 3]);
        assert_eq!(resume, 1, "resume at h1, whose input was certified clean");

        // The spike has fired; re-execution from the snapshot is clean and
        // must reproduce the original forward bit-for-bit.
        let retried = net
            .forward_from(resume, &traced.boundaries[resume], Mode::Eval)
            .unwrap();
        assert_eq!(retried.as_slice(), clean.as_slice());
        let (transient, persistent) = compare_rows(&traced.output, &retried, 2);
        assert!(transient >= 1, "at least the spiked row differs");
        assert_eq!(transient + persistent, 2);
    }

    #[test]
    fn persistent_violations_reproduce_identically_on_retry() {
        let mut rng = StdRng::seed_from_u64(9);
        let mut net = bounded_mlp(&mut rng);
        // An out-of-distribution input large enough to violate h1's bound on
        // every forward: the retry reproduces the same bits.
        let x = Tensor::from_vec(vec![50.0; 8], &[2, 4]).unwrap();
        let mut trace = ViolationTrace::new();
        let traced = forward_traced(&mut net, &x, &mut trace, true).unwrap();
        if trace.total() == 0 {
            // Random weights could map 50s below the bound; make the input
            // violate h1 directly instead of relying on the seed.
            panic!("seed no longer produces violations; adjust the test input");
        }
        let resume = last_clean_boundary(&traced.layer_totals, &[1, 3]);
        let retried = net
            .forward_from(resume, &traced.boundaries[resume], Mode::Eval)
            .unwrap();
        assert_eq!(compare_rows(&traced.output, &retried, 2), (0, 2));
    }

    #[test]
    fn activation_layer_indices_sees_only_slot_layers() {
        let mut rng = StdRng::seed_from_u64(1);
        let mut plain = Network::new(
            "linear-only",
            Sequential::new().with(Box::new(Linear::new(4, 2, &mut rng))),
        );
        assert!(activation_layer_indices(&mut plain).is_empty());
    }
}
