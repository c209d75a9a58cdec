//! Resilience evaluation: fault-injection campaigns across fault rates.
//!
//! Two evaluation styles share the campaign engine:
//!
//! * [`evaluate_resilience`] — the paper's fixed-trial protocol: one uniform
//!   bit-flip campaign per fault rate, reporting mean accuracy,
//! * [`evaluate_resilience_until`] — the statistical protocol: one stratified
//!   campaign with confidence-interval early stopping per fault rate, for any
//!   [`FaultModel`], reporting per-stratum outcome classes and Wilson
//!   intervals.

use crate::FitActError;
use fitact_faults::{
    Campaign, CampaignConfig, CampaignReport, CampaignResult, FaultModel, StatCampaignConfig,
};
use fitact_nn::Network;
use fitact_tensor::Tensor;

/// One point of a resilience curve: the campaign result at one fault rate.
#[derive(Debug, Clone, PartialEq)]
pub struct ResiliencePoint {
    /// Per-bit fault rate.
    pub fault_rate: f64,
    /// The fault-injection campaign outcome at that rate.
    pub result: CampaignResult,
}

impl ResiliencePoint {
    /// Mean accuracy across trials, as a percentage (the unit of the paper's
    /// plots).
    pub fn mean_accuracy_percent(&self) -> f32 {
        100.0 * self.result.mean_accuracy()
    }
}

/// Runs a fault-injection campaign at every fault rate in `rates` and returns
/// the resulting resilience curve.
///
/// The network is quantised to the Q15.16 grid implicitly by the caller (see
/// [`fitact_faults::quantize_network`]); this function leaves parameters
/// unchanged after it returns because every campaign restores them.
///
/// Campaigns run on the default checkpoint-resumed trial engine (clean layer
/// activations are cached once per rate point and each trial re-executes only
/// the faulted suffix of the network); to force the full-forward engine —
/// the two produce bit-identical curves — drive a [`Campaign`] directly with
/// [`Campaign::with_engine`].
///
/// # Errors
///
/// Propagates campaign errors (empty memory map, invalid configuration,
/// evaluation failure).
pub fn evaluate_resilience(
    network: &mut Network,
    inputs: &Tensor,
    targets: &[usize],
    rates: &[f64],
    trials: usize,
    batch_size: usize,
    seed: u64,
) -> Result<Vec<ResiliencePoint>, FitActError> {
    let mut points = Vec::with_capacity(rates.len());
    for (i, &rate) in rates.iter().enumerate() {
        let mut campaign = Campaign::new(network, inputs, targets)?;
        let result = campaign.run(&CampaignConfig {
            fault_rate: rate,
            trials,
            batch_size,
            seed: seed.wrapping_add(i as u64),
        })?;
        points.push(ResiliencePoint {
            fault_rate: rate,
            result,
        });
    }
    Ok(points)
}

/// One point of an adaptive resilience curve: the statistical campaign report
/// at one fault rate.
#[derive(Debug, Clone, PartialEq)]
pub struct ResilienceReportPoint {
    /// Per-bit fault rate.
    pub fault_rate: f64,
    /// The stratified, early-stopped campaign outcome at that rate.
    pub report: CampaignReport,
}

impl ResilienceReportPoint {
    /// Point estimate of the critical-SDC rate at this fault rate, pooled
    /// over all strata.
    pub fn critical_sdc_rate(&self) -> f64 {
        self.report.pooled_critical().point()
    }
}

/// Runs a statistical campaign ([`Campaign::run_until`]) at every fault rate
/// in `rates` under the given fault model and returns the adaptive resilience
/// curve.
///
/// `base.fault_rate` is overridden per point; every other knob — strata,
/// ε, confidence, outcome threshold, trial budget — comes from `base`.
/// Campaign `i` uses seed `base.seed + i`, so curves are reproducible and
/// each point draws independent fault streams. The network is left unchanged,
/// exactly as with [`evaluate_resilience`], and trials run on the default
/// checkpoint-resumed engine ([`Campaign::with_engine`] selects another).
///
/// # Errors
///
/// Propagates campaign errors (typed configuration errors, empty memory map,
/// evaluation failure).
pub fn evaluate_resilience_until(
    network: &mut Network,
    inputs: &Tensor,
    targets: &[usize],
    rates: &[f64],
    base: &StatCampaignConfig,
    model: &dyn FaultModel,
) -> Result<Vec<ResilienceReportPoint>, FitActError> {
    let mut points = Vec::with_capacity(rates.len());
    for (i, &rate) in rates.iter().enumerate() {
        let config = StatCampaignConfig {
            fault_rate: rate,
            seed: base.seed.wrapping_add(i as u64),
            ..base.clone()
        };
        let report = Campaign::new(network, inputs, targets)?.run_until(&config, model)?;
        points.push(ResilienceReportPoint {
            fault_rate: rate,
            report,
        });
    }
    Ok(points)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::calibration::ActivationProfiler;
    use crate::protect::{apply_protection, ProtectionScheme};
    use fitact_faults::quantize_network;
    use fitact_nn::layers::{ActivationLayer, Linear, Sequential};
    use fitact_nn::loss::CrossEntropyLoss;
    use fitact_nn::optim::Sgd;
    use fitact_tensor::init;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    /// A trained toy network plus its evaluation data.
    fn trained_setup() -> (Network, Tensor, Vec<usize>) {
        let mut rng = StdRng::seed_from_u64(0);
        let root = Sequential::new()
            .with(Box::new(Linear::new(2, 24, &mut rng)))
            .with(Box::new(ActivationLayer::relu("h", &[24])))
            .with(Box::new(Linear::new(24, 2, &mut rng)));
        let mut net = Network::new("mlp", root);
        let inputs = init::uniform(&[160, 2], -1.0, 1.0, &mut rng);
        let targets: Vec<usize> = (0..160)
            .map(|i| {
                let row = &inputs.as_slice()[i * 2..(i + 1) * 2];
                usize::from(row[0] > row[1])
            })
            .collect();
        let loss = CrossEntropyLoss::new();
        let mut opt = Sgd::with_momentum(0.1, 0.9, 0.0);
        for _ in 0..50 {
            net.train_batch(&inputs, &targets, &loss, &mut opt).unwrap();
        }
        quantize_network(&mut net);
        (net, inputs, targets)
    }

    #[test]
    fn resilience_curve_has_one_point_per_rate() {
        let (mut net, inputs, targets) = trained_setup();
        let rates = [0.0, 1e-3];
        let points = evaluate_resilience(&mut net, &inputs, &targets, &rates, 4, 64, 1).unwrap();
        assert_eq!(points.len(), 2);
        assert_eq!(points[0].fault_rate, 0.0);
        assert_eq!(points[0].result.accuracies.len(), 4);
        assert!(points[0].mean_accuracy_percent() >= points[1].mean_accuracy_percent());
        assert!(points[0].mean_accuracy_percent() <= 100.0);
    }

    #[test]
    fn protection_improves_resilience_at_high_fault_rates() {
        let (mut net, inputs, targets) = trained_setup();
        // Calibrate and build a protected copy.
        let profile = ActivationProfiler::new(64)
            .unwrap()
            .profile(&mut net, &inputs)
            .unwrap();
        let mut protected = net.clone();
        apply_protection(&mut protected, &profile, ProtectionScheme::ClipAct).unwrap();

        // An aggressive fault rate so the toy model sees many flips.
        let rates = [3e-3];
        let unprotected =
            evaluate_resilience(&mut net, &inputs, &targets, &rates, 12, 64, 7).unwrap();
        let clipact =
            evaluate_resilience(&mut protected, &inputs, &targets, &rates, 12, 64, 7).unwrap();
        assert!(
            clipact[0].result.mean_accuracy() >= unprotected[0].result.mean_accuracy(),
            "clipact {} should be at least unprotected {}",
            clipact[0].result.mean_accuracy(),
            unprotected[0].result.mean_accuracy()
        );
    }

    #[test]
    fn campaigns_leave_the_network_unchanged() {
        let (mut net, inputs, targets) = trained_setup();
        let before = net.snapshot();
        evaluate_resilience(&mut net, &inputs, &targets, &[1e-3, 1e-2], 3, 64, 2).unwrap();
        assert_eq!(net.snapshot(), before);
    }

    #[test]
    fn adaptive_curve_reports_one_stratified_point_per_rate() {
        use fitact_faults::TransientBitFlip;
        let (mut net, inputs, targets) = trained_setup();
        let before = net.snapshot();
        let base = StatCampaignConfig {
            batch_size: 64,
            seed: 5,
            epsilon: 0.1,
            round_trials: 4,
            min_trials: 12,
            max_trials: 48,
            ..Default::default()
        };
        let rates = [0.0, 3e-3];
        let points = evaluate_resilience_until(
            &mut net,
            &inputs,
            &targets,
            &rates,
            &base,
            &TransientBitFlip,
        )
        .unwrap();
        assert_eq!(net.snapshot(), before);
        assert_eq!(points.len(), 2);
        assert_eq!(points[0].fault_rate, 0.0);
        assert_eq!(points[0].report.strata.len(), 3);
        // Zero fault rate: nothing is ever critical.
        assert_eq!(points[0].critical_sdc_rate(), 0.0);
        assert!(points[0].report.converged);
        // The aggressive rate cannot be *less* critical than the clean run.
        assert!(points[1].critical_sdc_rate() >= points[0].critical_sdc_rate());
    }
}
