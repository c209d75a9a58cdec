//! The fault-model taxonomy: one trait, four hardware failure modes.
//!
//! Every campaign trial follows the same script — sample sites from the
//! active stratum, *inject*, evaluate, restore — but what "inject" means
//! depends on the physical failure being modelled. [`FaultModel`] abstracts
//! that step so one statistical engine ([`crate::Campaign::run_until`])
//! drives all of:
//!
//! * [`TransientBitFlip`] — the paper's model: each sampled parameter bit is
//!   XOR-flipped once (a particle strike on a memory cell),
//! * [`MultiBitBurst`] — a strike that upsets a run of adjacent cells in one
//!   word (MCU — multi-cell upset),
//! * [`StuckAtFaultModel`] — permanent stuck-at-0/1 defects at the sampled
//!   sites (manufacturing or ageing faults),
//! * [`ActivationBitFlip`] — transient flips in the *datapath*: activation
//!   values are corrupted as they flow through the network rather than at
//!   rest in parameter memory.

use crate::injector::{apply_bit_flip_bursts, apply_bit_flips, FaultSite};
use crate::stats::sample_addresses;
use crate::stuck_at::{apply_stuck_at, StuckAtFault, StuckValue};
use fitact_nn::{Activation, Network, NnError, Parameter};
use fitact_tensor::{Fixed32, Tensor};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::fmt;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// Per-trial context handed to [`FaultModel::inject`].
#[derive(Debug, Clone, Copy)]
pub struct TrialContext<'a> {
    /// The campaign's per-bit fault rate.
    pub fault_rate: f64,
    /// Bit positions eligible in the active stratum (ascending).
    pub bit_positions: &'a [u32],
}

/// What one injection did, and how to count faults that happen later.
#[derive(Debug, Default)]
pub struct Injection {
    /// Bits faulted at injection time (parameter-memory models).
    pub immediate_faults: u64,
    /// Live counter incremented while the corrupted network is evaluated
    /// (datapath models); `None` for models that only touch memory.
    pub deferred_faults: Option<Arc<AtomicU64>>,
}

impl Injection {
    /// A plain parameter-memory injection of `faults` bits.
    pub fn immediate(faults: u64) -> Self {
        Injection {
            immediate_faults: faults,
            deferred_faults: None,
        }
    }

    /// Total faults injected so far (immediate plus any deferred count).
    pub fn total(&self) -> u64 {
        self.immediate_faults
            + self
                .deferred_faults
                .as_ref()
                .map_or(0, |c| c.load(Ordering::Relaxed))
    }
}

/// A hardware failure mode a campaign can inject.
///
/// Implementations must be deterministic functions of `(sites, rng)`: all
/// randomness has to come from the trial's private `rng` stream, which is
/// what keeps campaigns bit-identical across worker-thread counts.
///
/// # Locality contract
///
/// The checkpoint-resumed engine ([`crate::TrialEngine::CheckpointResumed`])
/// resumes each trial at the earliest layer its faults can affect, so an
/// injection must only corrupt (a) the parameters addressed by `sites`
/// (expansion within a site's stored word — e.g. a burst — stays in the same
/// parameter and is fine; so does int8 scale/zero-point corruption, which the
/// virtual-axis element keeps inside the sampled parameter) and (b), when
/// [`FaultModel::perturbs_activations`]
/// is `true`, activation-slot outputs. A model that mutated parameters
/// *outside* its sampled sites would make resumed evaluation diverge from a
/// full forward; all models in this crate satisfy the contract, which the
/// `checkpoint_identity` suite pins.
pub trait FaultModel: fmt::Debug + Send + Sync {
    /// Short name used in reports (`"bitflip"`, `"burst4"`, …).
    fn name(&self) -> &str;

    /// Whether the engine should sample parameter-memory sites for this
    /// model. Datapath models return `false` and ignore the `sites` slice.
    fn uses_parameter_sites(&self) -> bool {
        true
    }

    /// Whether the model installs activation wrappers during a trial. When
    /// `true`, the engine snapshots each activation slot before injection and
    /// reinstalls the originals afterwards.
    fn perturbs_activations(&self) -> bool {
        false
    }

    /// Applies one trial's faults to `network`.
    fn inject(
        &self,
        network: &mut Network,
        sites: &[FaultSite],
        ctx: &TrialContext<'_>,
        rng: &mut StdRng,
    ) -> Injection;
}

/// The paper's transient single-bit-flip model: every sampled parameter bit
/// is XOR-flipped in its Q15.16 word.
#[derive(Debug, Clone, Copy, Default)]
pub struct TransientBitFlip;

impl FaultModel for TransientBitFlip {
    fn name(&self) -> &str {
        "bitflip"
    }

    fn inject(
        &self,
        network: &mut Network,
        sites: &[FaultSite],
        _ctx: &TrialContext<'_>,
        _rng: &mut StdRng,
    ) -> Injection {
        apply_bit_flips(network, sites);
        Injection::immediate(sites.len() as u64)
    }
}

/// A multi-cell upset: each sampled site seeds a burst of `length` adjacent
/// bit flips within the same word (clamped at the word boundary — 32 bits for
/// Q15.16 and f32-scale words, 16 for native f16 words, 8 for int8 bytes).
///
/// Bursts follow physical cell adjacency, not bit-class boundaries: in a
/// stratified campaign a burst *seeded* in the mantissa stratum may extend
/// into the adjacent exponent bits. Per-stratum results for this model
/// therefore measure "bursts originating in the stratum", which is the
/// physically meaningful attribution — clamping bursts to the stratum would
/// mismodel the upset.
#[derive(Debug, Clone, Copy)]
pub struct MultiBitBurst {
    /// Number of adjacent bits flipped per burst (1–32).
    pub length: u32,
}

impl MultiBitBurst {
    /// Creates a burst model of the given length.
    ///
    /// # Panics
    ///
    /// Panics if `length` is 0 or exceeds 32; use
    /// [`crate::StatCampaignConfig::validate`]-style checks upstream for a
    /// fallible path.
    pub fn new(length: u32) -> Self {
        assert!(
            (1..=32).contains(&length),
            "burst length {length} outside 1..=32"
        );
        MultiBitBurst { length }
    }
}

impl FaultModel for MultiBitBurst {
    fn name(&self) -> &str {
        "burst"
    }

    fn inject(
        &self,
        network: &mut Network,
        sites: &[FaultSite],
        _ctx: &TrialContext<'_>,
        _rng: &mut StdRng,
    ) -> Injection {
        Injection::immediate(apply_bit_flip_bursts(network, sites, self.length))
    }
}

/// Permanent stuck-at defects: every sampled site is forced to 0 or 1 (each
/// with probability ½, drawn from the trial stream). A bit that already holds
/// the stuck value is unaffected — which is exactly how stuck-at defects
/// differ from flips, and why roughly half of them are masked outright.
#[derive(Debug, Clone, Copy, Default)]
pub struct StuckAtFaultModel;

impl FaultModel for StuckAtFaultModel {
    fn name(&self) -> &str {
        "stuck_at"
    }

    fn inject(
        &self,
        network: &mut Network,
        sites: &[FaultSite],
        _ctx: &TrialContext<'_>,
        rng: &mut StdRng,
    ) -> Injection {
        let defects: Vec<StuckAtFault> = sites
            .iter()
            .map(|&site| StuckAtFault {
                site,
                value: if rng.gen_bool(0.5) {
                    StuckValue::One
                } else {
                    StuckValue::Zero
                },
            })
            .collect();
        apply_stuck_at(network, &defects);
        Injection::immediate(defects.len() as u64)
    }
}

/// Transient bit flips in activation values (the datapath, not the memory).
///
/// For the duration of one trial every activation slot is wrapped by a
/// corrupter that, after the inner activation runs, flips each bit of the
/// output tensor's Q15.16 encoding independently at the campaign's fault
/// rate — restricted to the active stratum's bit classes. The engine
/// reinstalls the original activations when the trial ends.
#[derive(Debug, Clone, Copy, Default)]
pub struct ActivationBitFlip;

impl FaultModel for ActivationBitFlip {
    fn name(&self) -> &str {
        "activation_bitflip"
    }

    fn uses_parameter_sites(&self) -> bool {
        false
    }

    fn perturbs_activations(&self) -> bool {
        true
    }

    fn inject(
        &self,
        network: &mut Network,
        _sites: &[FaultSite],
        ctx: &TrialContext<'_>,
        rng: &mut StdRng,
    ) -> Injection {
        let flips = Arc::new(AtomicU64::new(0));
        for slot in network.activation_slots() {
            // Each slot gets a private, deterministic stream drawn from the
            // trial RNG, so corruption is independent of evaluation order
            // *across* slots while staying a pure function of the trial.
            let slot_seed: u64 = rng.gen();
            let inner = slot.replace_activation(Box::new(NoopActivation));
            slot.replace_activation(Box::new(CorruptingActivation {
                inner,
                rate: ctx.fault_rate,
                bits: ctx.bit_positions.to_vec(),
                rng: StdRng::seed_from_u64(slot_seed),
                flips: Arc::clone(&flips),
            }));
        }
        Injection {
            immediate_faults: 0,
            deferred_faults: Some(flips),
        }
    }
}

/// A persistent datapath-fault injector for shadow ("canary") execution.
///
/// The campaign engine installs [`ActivationBitFlip`] wrappers for exactly
/// one trial and then restores the original activations. A canary replica in
/// the serving path needs the opposite lifecycle: wrap a network *once* and
/// let the corrupters keep flipping bits across every batch of mirrored
/// traffic, while a live counter reports how many faults were injected so
/// detection coverage (violations fired / faults injected) can be measured.
///
/// `install` wraps every activation slot of `network` using the same
/// taxonomy, sampler and Q15.16 bit semantics as the campaign's datapath
/// model; the handle stays valid for the network's lifetime (clones of the
/// network share the same counter).
#[derive(Debug)]
pub struct CanaryInjector {
    flips: Arc<AtomicU64>,
}

impl CanaryInjector {
    /// Wraps every activation slot of `network` with a persistent corrupter
    /// flipping each output bit in `bits` independently at per-bit `rate`.
    /// Deterministic for a given `seed` and sequence of forward shapes.
    pub fn install(network: &mut Network, rate: f64, bits: &[u32], seed: u64) -> Self {
        let mut rng = StdRng::seed_from_u64(seed);
        let ctx = TrialContext {
            fault_rate: rate,
            bit_positions: bits,
        };
        let injection = ActivationBitFlip.inject(network, &[], &ctx, &mut rng);
        CanaryInjector {
            flips: injection
                .deferred_faults
                .expect("datapath injection always defers its fault counter"),
        }
    }

    /// Total bits flipped by the wrapped network's forwards so far.
    pub fn faults_injected(&self) -> u64 {
        self.flips.load(Ordering::Relaxed)
    }
}

/// Placeholder used while swapping a slot's activation out and back in.
#[derive(Debug, Clone)]
struct NoopActivation;

impl Activation for NoopActivation {
    fn name(&self) -> &str {
        "noop"
    }

    fn forward(&mut self, input: &Tensor) -> Result<Tensor, NnError> {
        Ok(input.clone())
    }

    fn backward(&mut self, _input: &Tensor, grad_output: &Tensor) -> Result<Tensor, NnError> {
        Ok(grad_output.clone())
    }

    fn eval_scalar(&self, x: f32, _neuron: usize) -> f32 {
        x
    }

    fn clone_box(&self) -> Box<dyn Activation> {
        Box::new(self.clone())
    }
}

/// Wrapper that corrupts the inner activation's output bits at a per-bit rate.
#[derive(Debug)]
struct CorruptingActivation {
    inner: Box<dyn Activation>,
    rate: f64,
    bits: Vec<u32>,
    rng: StdRng,
    flips: Arc<AtomicU64>,
}

impl Activation for CorruptingActivation {
    fn name(&self) -> &str {
        "corrupting"
    }

    fn forward(&mut self, input: &Tensor) -> Result<Tensor, NnError> {
        let mut out = self.inner.forward(input)?;
        let values = out.as_mut_slice();
        let population = values.len() as u64 * self.bits.len() as u64;
        // The shared de-duplicated sampler keeps the fault counter's meaning
        // ("distinct flipped bits") and the corruption distribution identical
        // to the parameter-memory models.
        let addresses = sample_addresses(&mut self.rng, population, self.rate);
        for &address in &addresses {
            let element = (address / self.bits.len() as u64) as usize;
            let bit = self.bits[(address % self.bits.len() as u64) as usize];
            values[element] = Fixed32::from_f32(values[element])
                .with_bit_flipped(bit)
                .to_f32();
        }
        self.flips
            .fetch_add(addresses.len() as u64, Ordering::Relaxed);
        Ok(out)
    }

    fn backward(&mut self, input: &Tensor, grad_output: &Tensor) -> Result<Tensor, NnError> {
        self.inner.backward(input, grad_output)
    }

    fn eval_scalar(&self, x: f32, neuron: usize) -> f32 {
        self.inner.eval_scalar(x, neuron)
    }

    // Parameter traversal must see exactly the wrapped activation's
    // parameters so snapshots and memory maps stay index-stable mid-trial.
    fn params(&self) -> Vec<&Parameter> {
        self.inner.params()
    }

    fn params_mut(&mut self) -> Vec<&mut Parameter> {
        self.inner.params_mut()
    }

    // Detection telemetry must see the wrapped activation's bounds: the
    // corrupter flips bits in this slot's *output*, and it is the *next*
    // bounded slot's violation count that detects them. Without delegation a
    // wrapped network would report zero violations everywhere.
    fn count_violations(&self, input: &Tensor) -> u64 {
        self.inner.count_violations(input)
    }

    fn clone_box(&self) -> Box<dyn Activation> {
        Box::new(CorruptingActivation {
            inner: self.inner.clone_box(),
            rate: self.rate,
            bits: self.bits.clone(),
            rng: self.rng.clone(),
            flips: Arc::clone(&self.flips),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::map::MemoryMap;
    use crate::strata::{BitClass, StratifiedSampler, StratumSpec};
    use fitact_nn::layers::{ActivationLayer, Linear, Sequential};
    use fitact_nn::Mode;
    use rand::SeedableRng;

    fn small_network() -> Network {
        let mut rng = StdRng::seed_from_u64(1);
        Network::new(
            "mlp",
            Sequential::new()
                .with(Box::new(Linear::new(4, 8, &mut rng)))
                .with(Box::new(ActivationLayer::relu("h", &[8])))
                .with(Box::new(Linear::new(8, 2, &mut rng))),
        )
    }

    fn ctx<'a>(rate: f64, bits: &'a [u32]) -> TrialContext<'a> {
        TrialContext {
            fault_rate: rate,
            bit_positions: bits,
        }
    }

    #[test]
    fn transient_flip_changes_and_restores() {
        let mut net = small_network();
        crate::injector::quantize_network(&mut net);
        let before = net.snapshot();
        let site = FaultSite {
            param_index: 0,
            element: 2,
            bit: 10,
        };
        let bits: Vec<u32> = (0..32).collect();
        let model = TransientBitFlip;
        let mut rng = StdRng::seed_from_u64(0);
        let injection = model.inject(&mut net, &[site], &ctx(1e-3, &bits), &mut rng);
        assert_eq!(injection.total(), 1);
        assert_ne!(net.snapshot(), before);
        model.inject(&mut net, &[site], &ctx(1e-3, &bits), &mut rng);
        assert_eq!(net.snapshot(), before, "second flip restores");
    }

    #[test]
    fn burst_flips_adjacent_bits_without_crossing_the_word() {
        let mut net = small_network();
        net.params_mut()[0].data_mut().fill(0.0);
        let model = MultiBitBurst::new(4);
        let bits: Vec<u32> = (0..32).collect();
        let mut rng = StdRng::seed_from_u64(0);
        // A burst starting at bit 30 only covers bits 30 and 31.
        let site = FaultSite {
            param_index: 0,
            element: 0,
            bit: 30,
        };
        let injection = model.inject(&mut net, &[site], &ctx(1e-3, &bits), &mut rng);
        assert_eq!(injection.total(), 2);
        let word = Fixed32::from_f32(net.params()[0].data().as_slice()[0]).bits();
        assert_eq!(word, 0b11 << 30);
    }

    #[test]
    fn burst_deduplicates_overlapping_sites() {
        let mut net = small_network();
        net.params_mut()[0].data_mut().fill(0.0);
        let model = MultiBitBurst::new(4);
        let bits: Vec<u32> = (0..32).collect();
        let mut rng = StdRng::seed_from_u64(0);
        let overlapping = [
            FaultSite {
                param_index: 0,
                element: 0,
                bit: 4,
            },
            FaultSite {
                param_index: 0,
                element: 0,
                bit: 6,
            },
        ];
        let injection = model.inject(&mut net, &overlapping, &ctx(1e-3, &bits), &mut rng);
        // Bits 4..8 ∪ 6..10 = 4..10: six distinct flips, not eight.
        assert_eq!(injection.total(), 6);
    }

    #[test]
    #[should_panic(expected = "outside 1..=32")]
    fn zero_length_burst_panics() {
        let _ = MultiBitBurst::new(0);
    }

    #[test]
    fn stuck_at_is_idempotent_within_a_polarity() {
        let mut net = small_network();
        net.params_mut()[0].data_mut().fill(0.0);
        let model = StuckAtFaultModel;
        let bits: Vec<u32> = (0..32).collect();
        let site = FaultSite {
            param_index: 0,
            element: 0,
            bit: 16,
        };
        // Same seed twice ⇒ same polarity twice ⇒ same final value.
        let mut rng = StdRng::seed_from_u64(3);
        model.inject(&mut net, &[site], &ctx(1e-3, &bits), &mut rng);
        let once = net.params()[0].data().as_slice()[0];
        let mut rng = StdRng::seed_from_u64(3);
        model.inject(&mut net, &[site], &ctx(1e-3, &bits), &mut rng);
        assert_eq!(net.params()[0].data().as_slice()[0], once);
        assert!(once == 0.0 || once == 1.0, "bit 16 has weight 1.0");
    }

    #[test]
    fn activation_model_corrupts_the_datapath_only() {
        let mut net = small_network();
        let params_before = net.snapshot();
        let model = ActivationBitFlip;
        let exponent_bits: Vec<u32> = BitClass::Exponent.bits().collect();
        let mut rng = StdRng::seed_from_u64(5);
        // A huge rate so flips certainly land during the forward pass.
        let injection = model.inject(&mut net, &[], &ctx(0.05, &exponent_bits), &mut rng);
        assert_eq!(injection.total(), 0, "nothing flipped before evaluation");
        let clean = {
            let mut reference = small_network();
            reference
                .forward(&Tensor::ones(&[4, 4]), Mode::Eval)
                .unwrap()
        };
        let corrupted = net.forward(&Tensor::ones(&[4, 4]), Mode::Eval).unwrap();
        assert!(injection.total() > 0, "evaluation recorded deferred flips");
        assert_ne!(clean.as_slice(), corrupted.as_slice());
        // Parameters were never touched.
        assert_eq!(net.snapshot(), params_before);
    }

    #[test]
    fn canary_injector_counts_faults_across_batches() {
        let mut net = small_network();
        let injector = CanaryInjector::install(&mut net, 0.05, &(0..32).collect::<Vec<_>>(), 42);
        assert_eq!(injector.faults_injected(), 0, "no forward, no faults yet");
        net.forward(&Tensor::ones(&[4, 4]), Mode::Eval).unwrap();
        let after_one = injector.faults_injected();
        assert!(after_one > 0, "persistent wrapper flips on the first batch");
        net.forward(&Tensor::ones(&[4, 4]), Mode::Eval).unwrap();
        assert!(
            injector.faults_injected() > after_one,
            "and keeps flipping on later batches"
        );
    }

    #[test]
    fn corrupting_wrapper_delegates_violation_counting() {
        // A bounded stand-in: counts every value above 1.0.
        #[derive(Debug, Clone)]
        struct Bounded;
        impl Activation for Bounded {
            fn name(&self) -> &str {
                "bounded"
            }
            fn forward(&mut self, input: &Tensor) -> Result<Tensor, NnError> {
                Ok(input.map(|x| x.clamp(0.0, 1.0)))
            }
            fn backward(&mut self, _: &Tensor, grad_output: &Tensor) -> Result<Tensor, NnError> {
                Ok(grad_output.clone())
            }
            fn eval_scalar(&self, x: f32, _neuron: usize) -> f32 {
                x.clamp(0.0, 1.0)
            }
            fn count_violations(&self, input: &Tensor) -> u64 {
                input.as_slice().iter().filter(|&&x| x > 1.0).count() as u64
            }
            fn clone_box(&self) -> Box<dyn Activation> {
                Box::new(self.clone())
            }
        }
        let wrapper = CorruptingActivation {
            inner: Box::new(Bounded),
            rate: 0.0,
            bits: vec![0],
            rng: StdRng::seed_from_u64(0),
            flips: Arc::new(AtomicU64::new(0)),
        };
        let x = Tensor::from_vec(vec![0.5, 2.0, 3.0], &[1, 3]).unwrap();
        assert_eq!(wrapper.count_violations(&x), 2);
    }

    #[test]
    fn engine_flags_match_the_models() {
        assert!(TransientBitFlip.uses_parameter_sites());
        assert!(!TransientBitFlip.perturbs_activations());
        assert!(MultiBitBurst::new(2).uses_parameter_sites());
        assert!(StuckAtFaultModel.uses_parameter_sites());
        assert!(!ActivationBitFlip.uses_parameter_sites());
        assert!(ActivationBitFlip.perturbs_activations());
        assert_eq!(TransientBitFlip.name(), "bitflip");
        assert_eq!(ActivationBitFlip.name(), "activation_bitflip");
        assert_eq!(MultiBitBurst::new(2).name(), "burst");
        assert_eq!(StuckAtFaultModel.name(), "stuck_at");
    }

    #[test]
    fn models_compose_with_the_stratified_sampler() {
        let mut net = small_network();
        crate::injector::quantize_network(&mut net);
        let map = MemoryMap::of_network(&net);
        let sampler = StratifiedSampler::new(&map, &StratumSpec::by_bit_class()).unwrap();
        let mut rng = StdRng::seed_from_u64(11);
        let before = net.snapshot();
        // Mantissa stratum (index 2): flips only touch fraction bits, so even
        // if every fraction bit of a word flips, the value moves by less than
        // 1.0 (Σ 2^-i for i in 1..=16).
        let sites = sampler.sample(2, 0.2, &mut rng);
        assert!(!sites.is_empty());
        TransientBitFlip.inject(
            &mut net,
            &sites,
            &ctx(0.2, sampler.bit_positions(2)),
            &mut rng,
        );
        for (b, a) in before.iter().zip(net.snapshot().iter()) {
            for (x, y) in b.as_slice().iter().zip(a.as_slice()) {
                assert!((x - y).abs() < 1.0, "mantissa flips moved {x} to {y}");
            }
        }
    }
}
