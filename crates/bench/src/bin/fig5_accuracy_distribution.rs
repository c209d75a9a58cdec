//! Figure 5: model-accuracy distribution for FitAct, Clip-Act, Ranger and the
//! unprotected model on VGG16 / CIFAR-10 under different fault rates.
//!
//! For each (scheme, fault-rate) pair the binary runs a fault-injection
//! campaign and prints the per-trial accuracy spread (min / q1 / median / q3 /
//! max), i.e. the data behind the paper's box plots. Fault rates are the
//! paper's nominal per-bit rates times `ExperimentScale::rate_scale()`: 1 by
//! default, which keeps the *fraction* of bits flipped, not their count;
//! `FITACT_RATE_SCALE` overrides it (see "Fault-rate scaling" in
//! `docs/deviations.md`).

use fitact::ProtectionScheme;
use fitact_bench::report::Table;
use fitact_bench::setup::{prepare_model, ExperimentScale};
use fitact_data::DatasetKind;
use fitact_faults::{
    Campaign, CampaignConfig, StatCampaignConfig, StratumSpec, TransientBitFlip, PAPER_FAULT_RATES,
};
use fitact_nn::models::Architecture;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let scale = ExperimentScale::from_env();
    eprintln!(
        "[fig5] preparing VGG16 on synthetic CIFAR-10 at scale `{}` ...",
        scale.name
    );
    let prepared = prepare_model(Architecture::Vgg16, DatasetKind::Cifar10, &scale, 42)?;
    eprintln!(
        "[fig5] fault-free baseline accuracy: {:.2}%",
        100.0 * prepared.baseline_accuracy
    );

    // Fraction-preserving by default; override with FITACT_RATE_SCALE.
    let rate_scale = ExperimentScale::rate_scale();
    eprintln!("[fig5] nominal fault rates scaled by {rate_scale:.1}");

    let mut table = Table::new(
        "Fig. 5 — accuracy distribution, VGG16 / CIFAR-10",
        &[
            "scheme",
            "nominal_fault_rate",
            "min_%",
            "q1_%",
            "median_%",
            "q3_%",
            "max_%",
            "mean_%",
        ],
    );

    for scheme in ProtectionScheme::paper_schemes() {
        eprintln!("[fig5] protecting with `{scheme}` ...");
        let mut network = prepared.protected(scheme, &scale)?;
        for (i, &nominal) in PAPER_FAULT_RATES.iter().enumerate() {
            let mut campaign =
                Campaign::new(&mut network, &prepared.test_inputs, &prepared.test_labels)?;
            let result = campaign.run(&CampaignConfig {
                fault_rate: nominal * rate_scale,
                trials: scale.trials,
                batch_size: scale.batch_size,
                seed: 100 + i as u64,
            })?;
            let s = &result.stats;
            table.push_row(vec![
                scheme.name().into(),
                format!("{nominal:.0e}"),
                format!("{:.2}", 100.0 * s.min),
                format!("{:.2}", 100.0 * s.q1),
                format!("{:.2}", 100.0 * s.median),
                format!("{:.2}", 100.0 * s.q3),
                format!("{:.2}", 100.0 * s.max),
                format!("{:.2}", 100.0 * s.mean),
            ]);
            eprintln!(
                "[fig5]   {scheme} @ {nominal:.0e}: mean {:.2}% (min {:.2}%, max {:.2}%), {} flips total",
                100.0 * s.mean,
                100.0 * s.min,
                100.0 * s.max,
                result.total_faults
            );
        }
    }

    println!("{}", table.to_pretty_string());
    let path = table.write_csv("fig5_accuracy_distribution.csv")?;
    println!("series written to {}", path.display());

    // Companion table: the same schemes under *stratified* injection at the
    // middle nominal rate, decomposed by bit class. This is the resilience
    // taxonomy behind the box plots — exponent-bit flips dominate the
    // critical-SDC mass, mantissa flips are almost entirely masked, and a
    // protected model shrinks the exponent stratum's critical rate.
    let mut strata_table = Table::new(
        "Fig. 5 companion — critical-SDC rate per bit-class stratum (95% Wilson CI)",
        &[
            "scheme",
            "stratum",
            "trials",
            "masked",
            "tolerable_sdc",
            "critical_sdc",
            "critical_rate_%",
            "critical_ci_95_%",
        ],
    );
    let stratified_rate = PAPER_FAULT_RATES[2] * rate_scale;
    for scheme in ProtectionScheme::paper_schemes() {
        let mut network = prepared.protected(scheme, &scale)?;
        let report = Campaign::new(&mut network, &prepared.test_inputs, &prepared.test_labels)?
            .run_until(
                &StatCampaignConfig {
                    fault_rate: stratified_rate,
                    batch_size: scale.batch_size,
                    seed: 900,
                    epsilon: 0.05,
                    round_trials: scale.trials.clamp(1, 8),
                    min_trials: scale.trials,
                    max_trials: scale.trials * 6,
                    strata: StratumSpec::by_bit_class(),
                    ..Default::default()
                },
                &TransientBitFlip,
            )?;
        for stratum in &report.strata {
            strata_table.push_row(vec![
                scheme.name().into(),
                stratum.label.clone(),
                format!("{}", stratum.trials()),
                format!("{}", stratum.masked),
                format!("{}", stratum.tolerable),
                format!("{}", stratum.critical),
                format!("{:.1}", 100.0 * stratum.critical_rate()),
                format!(
                    "[{:.1}, {:.1}]",
                    100.0 * stratum.critical_ci.low,
                    100.0 * stratum.critical_ci.high
                ),
            ]);
        }
        eprintln!(
            "[fig5] stratified {scheme}: {} trials, converged = {}",
            report.total_trials(),
            report.converged
        );
    }
    println!("{}", strata_table.to_pretty_string());
    let path = strata_table.write_csv("fig5_bit_class_strata.csv")?;
    println!("series written to {}", path.display());
    Ok(())
}
