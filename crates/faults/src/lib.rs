//! Fault injection and statistical resilience evaluation for DNN parameter
//! memory.
//!
//! The paper's fault model: model parameters (weights, biases, batch-norm
//! statistics and activation-function bounds) are stored as 32-bit Q15.16
//! fixed-point words; random memory faults flip individual bits of those words
//! uniformly over the whole parameter space, at a configurable per-bit fault
//! rate between 1e-7 and 3e-5.
//!
//! Reduced-precision networks are faulted in their *native* encodings
//! ([`WordEncoding`]): an f16 parameter exposes 16-bit binary16 words (sign /
//! 5-bit exponent / 10-bit mantissa classes), and an int8 parameter exposes
//! its quantised value bytes plus — on the same virtual element axis — its
//! per-channel f32 scale words and zero-point bytes, so corruption of the
//! quantisation metadata itself is part of the fault space. Bit-class strata
//! resolve per encoding, bursts clamp at the native word boundary, and the
//! campaign determinism contract (bit-identical across thread counts,
//! checkpoint resume and distributed merge) holds in every precision.
//!
//! The crate provides:
//!
//! * [`MemoryMap`] — the addressable parameter memory of a network (optionally
//!   restricted to particular layers, as in the paper's Fig. 1 experiment),
//! * [`FaultModel`] — the failure-mode taxonomy: transient parameter bit
//!   flips ([`TransientBitFlip`]), multi-cell bursts ([`MultiBitBurst`]),
//!   permanent stuck-at defects ([`StuckAtFaultModel`]) and datapath
//!   activation-value flips ([`ActivationBitFlip`]),
//! * [`StratifiedSampler`] / [`StratumSpec`] / [`BitClass`] — fault-site
//!   sampling stratified by layer and by sign / exponent / mantissa bit
//!   class,
//! * [`CanaryInjector`] — a persistent datapath-injector handle for shadow
//!   ("canary") replicas in the serving path, reporting live fault counts so
//!   detection coverage can be measured against violation telemetry,
//! * [`Campaign`] — the trial engine: [`Campaign::run`] for fixed-count
//!   campaigns (paper Figs. 5 and 6) and [`Campaign::run_until`] for
//!   stratified campaigns with masked / tolerable-SDC / critical-SDC outcome
//!   classification ([`TrialOutcome`]), per-stratum Wilson confidence
//!   intervals ([`WilsonInterval`]) and sequential early stopping,
//! * [`CheckpointCache`] / [`ResumePlan`] / [`TrialEngine`] — the
//!   checkpoint-resumed evaluation engine: clean layer-boundary activations
//!   are snapshotted once per campaign and each trial re-executes only the
//!   network suffix downstream of its faults, bit-identically to a full
//!   forward,
//! * [`BitFlipInjector`] / [`StuckAtInjector`] — the low-level sample +
//!   apply primitives,
//! * [`quantize_network`] — rounds every stored parameter to its Q15.16
//!   representation, so that the fault-free baseline and the faulty runs use
//!   the same arithmetic.
//!
//! # Example
//!
//! ```
//! use fitact_faults::{BitFlipInjector, MemoryMap};
//! use fitact_nn::layers::{Linear, Sequential};
//! use fitact_nn::Network;
//! use rand::{rngs::StdRng, SeedableRng};
//!
//! # fn main() -> Result<(), fitact_faults::FaultError> {
//! let mut rng = StdRng::seed_from_u64(0);
//! let net = Network::new("mlp", Sequential::new().with(Box::new(Linear::new(4, 2, &mut rng))));
//! let map = MemoryMap::of_network(&net);
//! assert_eq!(map.total_bits(), (4 * 2 + 2) * 32);
//! let mut injector = BitFlipInjector::new(7);
//! let sites = injector.sample_sites(&map, 1e-2);
//! assert!(sites.len() < map.total_bits() as usize);
//! # Ok(())
//! # }
//! ```
//!
//! And the statistical campaign end-to-end — inject, classify, stop when
//! the pooled critical-SDC interval is tight enough:
//!
//! ```
//! use fitact_faults::{Campaign, StatCampaignConfig, StratumSpec, TransientBitFlip};
//! use fitact_nn::layers::{Linear, Sequential};
//! use fitact_nn::Network;
//! use fitact_tensor::init;
//! use rand::{rngs::StdRng, SeedableRng};
//!
//! # fn main() -> Result<(), fitact_faults::FaultError> {
//! let mut rng = StdRng::seed_from_u64(1);
//! let mut net = Network::new(
//!     "mlp",
//!     Sequential::new().with(Box::new(Linear::new(4, 2, &mut rng))),
//! );
//! let inputs = init::uniform(&[16, 4], -1.0, 1.0, &mut rng);
//! let targets: Vec<usize> = (0..16).map(|i| i % 2).collect();
//! let config = StatCampaignConfig {
//!     fault_rate: 1e-3,
//!     epsilon: 0.25,
//!     round_trials: 4,
//!     min_trials: 8,
//!     max_trials: 24,
//!     strata: vec![StratumSpec::all()],
//!     ..Default::default()
//! };
//! let report = Campaign::new(&mut net, &inputs, &targets)?
//!     .run_until(&config, &TransientBitFlip)?;
//! println!(
//!     "critical-SDC rate {:.3} after {} trials (converged: {})",
//!     report.pooled_critical().point(),
//!     report.total_trials(),
//!     report.converged,
//! );
//! # Ok(())
//! # }
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

mod campaign;
mod checkpoint;
mod injector;
mod map;
mod model;
mod stats;
mod strata;
mod stuck_at;

pub use campaign::{
    neyman_allocations, plan_round, plan_round_allocated, stopping_decision, AllocationPolicy,
    Campaign, CampaignConfig, CampaignControl, CampaignDriver, CampaignProgress, CampaignReport,
    CampaignResult, RoundDecision, RunOutcome, StatCampaignConfig, StratumReport, TrialEngine,
    TrialSpec, UnitRunner, TRIAL_STREAM_PROVENANCE,
};
pub use checkpoint::{CheckpointCache, ResumePlan};
pub use injector::{apply_bit_flips, quantize_network, BitFlipInjector, FaultSite};
pub use map::{MemoryMap, ParamSpan, WordEncoding};
pub use model::{
    ActivationBitFlip, CanaryInjector, FaultModel, Injection, MultiBitBurst, StuckAtFaultModel,
    TransientBitFlip, TrialContext,
};
pub use stats::{
    sample_binomial, stratified_half_width, stratum_sigma, z_for_confidence, StratumPool,
    TrialOutcome, TrialPoint, WilsonInterval,
};
pub use strata::{BitClass, StratifiedSampler, StratumSpec};
pub use stuck_at::{apply_stuck_at, StuckAtFault, StuckAtInjector, StuckValue};

use std::error::Error;
use std::fmt;

/// Errors produced by fault-injection operations.
#[derive(Debug)]
pub enum FaultError {
    /// The network evaluation inside a campaign failed.
    Nn(fitact_nn::NnError),
    /// A configuration value was invalid (zero trials, negative rate, …).
    InvalidConfig(String),
    /// The memory map is empty (no parameters matched the layer filter).
    EmptyMemoryMap,
    /// The early-stopping target ε was zero, negative or not finite.
    NonPositiveEpsilon(f64),
    /// A statistical campaign was configured with no stratum specs at all.
    EmptyStrata,
    /// A stratum spec selects no bits (no bit classes, or a layer prefix that
    /// matches no mapped parameter); carries the stratum's label.
    EmptyStratum(String),
    /// Two merged campaign fragments disagree about the result of the same
    /// trial. Trials are deterministic functions of `(seed, stratum, index)`,
    /// so disagreeing fragments cannot come from the same campaign — a
    /// worker ran a different model, seed or configuration.
    TrialConflict {
        /// The trial's index within its stratum's RNG stream.
        index: u64,
    },
}

impl fmt::Display for FaultError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FaultError::Nn(e) => write!(f, "network evaluation failed during fault campaign: {e}"),
            FaultError::InvalidConfig(msg) => {
                write!(f, "invalid fault-injection configuration: {msg}")
            }
            FaultError::EmptyMemoryMap => {
                write!(
                    f,
                    "memory map contains no parameters (layer filter matched nothing)"
                )
            }
            FaultError::NonPositiveEpsilon(epsilon) => {
                write!(
                    f,
                    "early-stopping target epsilon must be a positive finite half-width, got {epsilon}"
                )
            }
            FaultError::EmptyStrata => {
                write!(f, "statistical campaign configured with no stratum specs")
            }
            FaultError::EmptyStratum(label) => {
                write!(
                    f,
                    "stratum `{label}` selects no bits (empty bit classes or unmatched layer prefix)"
                )
            }
            FaultError::TrialConflict { index } => {
                write!(
                    f,
                    "conflicting results for trial {index}: merged campaign fragments disagree \
                     about a deterministic trial (different model, seed or configuration?)"
                )
            }
        }
    }
}

impl Error for FaultError {
    fn source(&self) -> Option<&(dyn Error + 'static)> {
        match self {
            FaultError::Nn(e) => Some(e),
            _ => None,
        }
    }
}

impl From<fitact_nn::NnError> for FaultError {
    fn from(e: fitact_nn::NnError) -> Self {
        FaultError::Nn(e)
    }
}

/// The fault rates evaluated in the paper (Figs. 5 and 6).
pub const PAPER_FAULT_RATES: [f64; 5] = [1e-7, 1e-6, 3e-6, 1e-5, 3e-5];

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn error_display_and_source() {
        let e = FaultError::from(fitact_nn::NnError::InvalidConfig("x".into()));
        assert!(e.to_string().contains("fault campaign"));
        assert!(Error::source(&e).is_some());
        assert!(!FaultError::InvalidConfig("bad".into())
            .to_string()
            .is_empty());
        assert!(!FaultError::EmptyMemoryMap.to_string().is_empty());
        assert!(Error::source(&FaultError::EmptyMemoryMap).is_none());
        assert!(FaultError::NonPositiveEpsilon(-0.5)
            .to_string()
            .contains("-0.5"));
        assert!(FaultError::EmptyStratum("exp".into())
            .to_string()
            .contains("exp"));
        assert!(!FaultError::EmptyStrata.to_string().is_empty());
        assert!(Error::source(&FaultError::EmptyStrata).is_none());
        assert!(FaultError::TrialConflict { index: 42 }
            .to_string()
            .contains("42"));
        assert!(Error::source(&FaultError::TrialConflict { index: 0 }).is_none());
    }

    #[test]
    fn paper_fault_rates_are_increasing() {
        for pair in PAPER_FAULT_RATES.windows(2) {
            assert!(pair[0] < pair[1]);
        }
    }
}
