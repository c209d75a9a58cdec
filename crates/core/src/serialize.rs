//! Rebuilding protected activations from their serialized descriptors.
//!
//! [`fitact_nn::spec::LayerSpec`] describes network topology generically; the
//! activation hosted by each slot is an open-ended
//! [`fitact_nn::spec::ActivationSpec`] record that needs a builder which
//! knows the concrete implementations. [`ProtectedActivations`] is that
//! builder for this workspace: the plain ReLU baseline plus every protected
//! activation of the paper's evaluation.
//!
//! Per-neuron bound *values* are not part of the spec — they live in the
//! activations' `lambda` parameter tensors and are restored through the
//! normal parameter traversal after construction. The builder therefore
//! instantiates bound-carrying activations with placeholder zeros of the
//! recorded size.

use crate::activations::{BoundedRelu, FitRelu};
use fitact_nn::spec::{ActivationBuilder, ActivationSpec};
use fitact_nn::{Activation, NnError, ReLU};

/// An [`ActivationBuilder`] covering every activation in this workspace.
///
/// | kind | payload |
/// |---|---|
/// | `relu` | — |
/// | `gbrelu` | `floats[0]` = layer bound λ |
/// | `ranger` | `floats[0]` = layer bound λ |
/// | `channel_relu` | `ints[0]` = channels, `ints[1]` = plane size |
/// | `fitrelu` | `floats[0]` = slope k, `ints[0]` = neurons |
/// | `fitrelu_naive` | `ints[0]` = neurons |
#[derive(Debug, Clone, Copy, Default)]
pub struct ProtectedActivations;

impl ActivationBuilder for ProtectedActivations {
    fn build_activation(&self, spec: &ActivationSpec) -> Result<Box<dyn Activation>, NnError> {
        match spec.kind.as_str() {
            "relu" => Ok(Box::new(ReLU::new())),
            "gbrelu" => Ok(Box::new(BoundedRelu::clip_act(finite_bound(spec, 0)?))),
            "ranger" => Ok(Box::new(BoundedRelu::ranger(finite_bound(spec, 0)?))),
            "channel_relu" => {
                let channels = nonzero_count(spec, 0, "channels")?;
                let plane = nonzero_count(spec, 1, "plane")?;
                if channels.checked_mul(plane).is_none() {
                    return Err(NnError::InvalidConfig(format!(
                        "activation spec `channel_relu` has {channels} channels of {plane} \
                         values, more features than the address space holds"
                    )));
                }
                Ok(Box::new(BoundedRelu::per_channel(
                    &vec![0.0; channels],
                    plane,
                )))
            }
            "fitrelu" => {
                let slope = spec.float(0)?;
                if !(slope.is_finite() && slope > 0.0) {
                    return Err(NnError::InvalidConfig(format!(
                        "fitrelu spec has non-positive slope {slope}"
                    )));
                }
                let neurons = nonzero_count(spec, 0, "neurons")?;
                Ok(Box::new(FitRelu::from_bounds(&vec![0.0; neurons], slope)))
            }
            "fitrelu_naive" => {
                let neurons = nonzero_count(spec, 0, "neurons")?;
                Ok(Box::new(BoundedRelu::per_neuron(&vec![0.0; neurons])))
            }
            other => Err(NnError::InvalidConfig(format!(
                "unknown activation kind `{other}`"
            ))),
        }
    }
}

/// Reads `spec.floats[i]` and validates it as a finite non-negative bound
/// (what [`BoundedRelu::clip_act`] / [`BoundedRelu::ranger`] would otherwise
/// panic on).
fn finite_bound(spec: &ActivationSpec, i: usize) -> Result<f32, NnError> {
    let bound = spec.float(i)?;
    if !(bound.is_finite() && bound >= 0.0) {
        return Err(NnError::InvalidConfig(format!(
            "activation spec `{}` has invalid bound {bound}",
            spec.kind
        )));
    }
    Ok(bound)
}

/// Reads `spec.ints[i]` and validates it as a non-zero in-address-space count.
fn nonzero_count(spec: &ActivationSpec, i: usize, what: &str) -> Result<usize, NnError> {
    let raw = spec.int(i)?;
    let count = usize::try_from(raw).map_err(|_| {
        NnError::InvalidConfig(format!(
            "activation spec `{}` {what} count {raw} exceeds the address space",
            spec.kind
        ))
    })?;
    if count == 0 {
        return Err(NnError::InvalidConfig(format!(
            "activation spec `{}` has a zero {what} count",
            spec.kind
        )));
    }
    Ok(count)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Round-trips every activation kind through spec → build and checks the
    /// rebuilt activation reports the same spec (bounds travel via params, so
    /// value equality is checked by the io crate's artifact tests).
    #[test]
    fn builder_reconstructs_every_kind() {
        let originals: Vec<Box<dyn Activation>> = vec![
            Box::new(ReLU::new()),
            Box::new(BoundedRelu::clip_act(3.5)),
            Box::new(BoundedRelu::ranger(2.25)),
            Box::new(BoundedRelu::per_channel(&[1.0, 2.0], 4)),
            Box::new(FitRelu::from_bounds(&[1.0, 2.0, 3.0], 8.0)),
            Box::new(BoundedRelu::per_neuron(&[0.5])),
        ];
        for original in originals {
            let spec = original.spec().unwrap();
            let rebuilt = ProtectedActivations.build_activation(&spec).unwrap();
            assert_eq!(rebuilt.name(), original.name());
            assert_eq!(rebuilt.spec().unwrap(), spec);
            // Parameter shapes must match so the loader can restore values.
            let shapes = |a: &dyn Activation| -> Vec<usize> {
                a.params().iter().map(|p| p.numel()).collect()
            };
            assert_eq!(shapes(rebuilt.as_ref()), shapes(original.as_ref()));
        }
    }

    #[test]
    fn layer_bounds_round_trip_through_the_spec_bit_exactly() {
        let bound = f32::from_bits(0x4049_0FDB); // π, not representable in short decimal
        let spec = BoundedRelu::clip_act(bound).spec().unwrap();
        let rebuilt = ProtectedActivations.build_activation(&spec).unwrap();
        assert_eq!(rebuilt.eval_scalar(bound, 0), bound);
        assert_eq!(
            rebuilt.eval_scalar(f32::from_bits(bound.to_bits() + 1), 0),
            0.0
        );
    }

    #[test]
    fn malformed_specs_yield_typed_errors() {
        let cases = vec![
            ActivationSpec::tagged("no_such_activation"),
            ActivationSpec::tagged("gbrelu"), // missing bound
            ActivationSpec {
                kind: "gbrelu".into(),
                floats: vec![f32::NAN],
                ints: vec![],
            },
            ActivationSpec {
                kind: "fitrelu".into(),
                floats: vec![-1.0],
                ints: vec![4],
            },
            ActivationSpec {
                kind: "fitrelu".into(),
                floats: vec![8.0],
                ints: vec![0],
            },
            ActivationSpec {
                kind: "channel_relu".into(),
                floats: vec![],
                ints: vec![2], // missing plane
            },
            ActivationSpec {
                kind: "channel_relu".into(),
                floats: vec![],
                ints: vec![4, 1 << 62], // channels × plane overflows usize
            },
        ];
        for spec in cases {
            assert!(
                matches!(
                    ProtectedActivations.build_activation(&spec),
                    Err(NnError::InvalidConfig(_))
                ),
                "spec {spec:?} should be rejected"
            );
        }
    }
}
