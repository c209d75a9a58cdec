//! Protection-as-detection contract, pinned for every bounded activation.
//!
//! The serving-path recovery loop (crates/serve) trusts three properties of
//! `Activation::count_violations` and the `ViolationTrace` plumbing:
//!
//! 1. a clean forward records **zero** violations (negative values and
//!    exactly-at-bound values are normal activation behaviour, not faults),
//! 2. every strictly over-bound element is counted **exactly once**,
//! 3. tracing is observe-only: a traced forward is bit-identical to an
//!    untraced one.
//!
//! The corruption model used here is the paper's own: values pass through
//! the Q15.16 fixed-point word (`fitact_tensor::fixed`) and a fault flips a
//! high integer bit of the stored representation.

use fitact::{BoundedRelu, FitRelu};
use fitact_nn::layers::{ActivationLayer, Layer, Mode};
use fitact_nn::trace::{self, ViolationTrace};
use fitact_nn::Activation;
use fitact_tensor::fixed::{decode_slice, encode_slice};
use fitact_tensor::Tensor;

/// One bounded activation under test, with the per-element detection
/// threshold it is configured to enforce (features per sample = 4).
fn bounded_activations() -> Vec<(&'static str, Box<dyn Activation>, Vec<f32>)> {
    vec![
        ("gbrelu", Box::new(BoundedRelu::clip_act(2.0)), vec![2.0; 4]),
        ("ranger", Box::new(BoundedRelu::ranger(2.0)), vec![2.0; 4]),
        (
            "fitrelu_naive",
            Box::new(BoundedRelu::per_neuron(&[1.0, 2.0, 3.0, 4.0])),
            vec![1.0, 2.0, 3.0, 4.0],
        ),
        (
            "fitrelu",
            Box::new(FitRelu::from_bounds(&[1.0, 2.0, 3.0, 4.0], 8.0)),
            vec![1.0, 2.0, 3.0, 4.0],
        ),
        (
            // Two channels of two spatial positions each: effective
            // per-element bounds [1, 1, 3, 3].
            "channel_relu",
            Box::new(BoundedRelu::per_channel(&[1.0, 3.0], 2)),
            vec![1.0, 1.0, 3.0, 3.0],
        ),
    ]
}

/// A two-row input that is entirely clean for every table entry: positive,
/// below every bound, and (second row) *exactly at* each bound — at-bound is
/// the activation's own operating point, never a violation.
fn clean_input(bounds: &[f32]) -> Tensor {
    let mut data: Vec<f32> = bounds.iter().map(|b| b * 0.5).collect();
    data.extend_from_slice(bounds);
    Tensor::from_vec(data, &[2, 4]).unwrap()
}

#[test]
fn clean_forwards_record_zero_violations() {
    for (name, activation, bounds) in bounded_activations() {
        let input = clean_input(&bounds);
        assert_eq!(
            activation.count_violations(&input),
            0,
            "{name}: clean input (including at-bound values) must count zero"
        );
        // Negative and zero values are squashed by the activation, but they
        // are *not* violations — only over-bound values are.
        let negatives = Tensor::from_vec(vec![-100.0, -1.0, 0.0, -0.5], &[1, 4]).unwrap();
        assert_eq!(
            activation.count_violations(&negatives),
            0,
            "{name}: negative values are normal ReLU zeroing, not faults"
        );
        // NaN compares false against any bound and must never count.
        let nan = Tensor::from_vec(vec![f32::NAN, 0.5, 0.5, 0.5], &[1, 4]).unwrap();
        assert_eq!(
            activation.count_violations(&nan),
            0,
            "{name}: NaN is not counted as a bound violation"
        );
    }
}

#[test]
fn each_over_bound_element_counts_exactly_once() {
    for (name, activation, bounds) in bounded_activations() {
        // Row 1: violate elements 0 and 2; row 2: violate element 3 only.
        let data = vec![
            bounds[0] + 1.0,
            bounds[1] * 0.5,
            bounds[2] + 0.25,
            -1.0,
            bounds[0] * 0.5,
            bounds[1],
            bounds[2] * 0.5,
            bounds[3] + 100.0,
        ];
        let input = Tensor::from_vec(data, &[2, 4]).unwrap();
        assert_eq!(
            activation.count_violations(&input),
            3,
            "{name}: exactly one count per over-bound element"
        );
    }
}

#[test]
fn layer_trace_records_per_slot_counts_without_perturbing_outputs() {
    for (name, activation, bounds) in bounded_activations() {
        let mut layer = ActivationLayer::with_activation(name, &[4], activation);
        let mut data: Vec<f32> = bounds.iter().map(|b| b * 0.5).collect();
        data[2] = bounds[2] + 1.0; // one violation in row 1
        data.extend_from_slice(&bounds.iter().map(|b| b * 0.25).collect::<Vec<_>>());
        let input = Tensor::from_vec(data, &[2, 4]).unwrap();

        let untraced = layer.forward(&input, Mode::Eval).unwrap();
        let mut violation_trace = ViolationTrace::new();
        let traced =
            trace::capture(&mut violation_trace, || layer.forward(&input, Mode::Eval)).unwrap();

        let traced_bits: Vec<u32> = traced.as_slice().iter().map(|v| v.to_bits()).collect();
        let untraced_bits: Vec<u32> = untraced.as_slice().iter().map(|v| v.to_bits()).collect();
        assert_eq!(
            traced_bits, untraced_bits,
            "{name}: tracing is observe-only — outputs must be bit-identical"
        );
        let slots = violation_trace.slots();
        assert_eq!(slots.len(), 1, "{name}");
        assert_eq!(slots[0].label, name);
        assert_eq!(slots[0].violations, 1, "{name}");
        assert_eq!(slots[0].elements, 8, "{name}");
    }
}

/// The paper's fault model end-to-end: a clean activation tensor stored as
/// Q15.16 words, one word hit by a high-integer-bit flip. The bounded
/// activation must flag exactly the corrupted element — and the fault-free
/// fixed-point round trip must stay silent.
#[test]
fn fixed_point_bit_flips_are_detected_exactly() {
    for (name, activation, bounds) in bounded_activations() {
        let input = clean_input(&bounds);
        // Fault-free round trip through the storage format: quantisation
        // error alone never crosses a bound (values sit half a unit below).
        let mut words = encode_slice(input.as_slice());
        let clean_roundtrip = Tensor::from_vec(decode_slice(&words), &[2, 4]).unwrap();
        assert_eq!(
            activation.count_violations(&clean_roundtrip),
            0,
            "{name}: the fixed-point round trip alone must not trip detection"
        );
        // Flip bit 28 (weight 4096) of one stored word: the classic
        // high-magnitude corruption bounded activations exist to catch.
        words[1] = words[1].with_bit_flipped(28);
        let corrupted = Tensor::from_vec(decode_slice(&words), &[2, 4]).unwrap();
        assert_eq!(
            activation.count_violations(&corrupted),
            1,
            "{name}: exactly the corrupted element is flagged"
        );
    }
}
