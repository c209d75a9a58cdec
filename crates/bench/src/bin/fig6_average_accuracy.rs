//! Figure 6: average model accuracy for FitAct, Clip-Act, Ranger and the
//! unprotected model — ResNet50, VGG16 and AlexNet on CIFAR-10 and CIFAR-100,
//! under fault rates 1e-7 … 3e-5.
//!
//! This is the paper's headline comparison grid. One row is printed per
//! (dataset, architecture, scheme, fault rate) combination; rates are the
//! paper's nominal per-bit rates times `ExperimentScale::rate_scale()`, one
//! factor for every architecture: 1 by default, which keeps the *fraction* of
//! bits flipped, not their count; `FITACT_RATE_SCALE` overrides it (see
//! "Fault-rate scaling" in `docs/deviations.md`).
//!
//! Campaigns run through the statistical engine: every point runs its full
//! fixed trial budget (the mean-accuracy column keeps the fixed-count
//! protocol's precision — the engine's early-stopping rule targets the
//! critical-SDC rate, a different statistic, so it must not truncate the
//! mean), and the table additionally reports the 95% Wilson interval on the
//! critical-SDC rate that the budget bought.
//!
//! This is the longest-running harness; use `FITACT_SCALE=tiny` for a smoke
//! run.

use fitact::ProtectionScheme;
use fitact_bench::report::Table;
use fitact_bench::setup::{prepare_model, ExperimentScale};
use fitact_data::DatasetKind;
use fitact_faults::{
    Campaign, StatCampaignConfig, StratumSpec, TransientBitFlip, PAPER_FAULT_RATES,
};
use fitact_nn::models::Architecture;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let scale = ExperimentScale::from_env();
    let rate_scale = ExperimentScale::rate_scale();
    let mut table = Table::new(
        "Fig. 6 — average accuracy per dataset / architecture / scheme / fault rate",
        &[
            "dataset",
            "architecture",
            "scheme",
            "nominal_fault_rate",
            "mean_accuracy_%",
            "baseline_%",
            "trials",
            "critical_sdc_%",
            "critical_ci_95_%",
        ],
    );

    for kind in DatasetKind::ALL {
        for architecture in Architecture::ALL {
            eprintln!(
                "[fig6] preparing {architecture} on synthetic {kind} at scale `{}` ...",
                scale.name
            );
            let prepared = prepare_model(architecture, kind, &scale, 42)?;
            eprintln!(
                "[fig6] {architecture}/{kind}: fault-free baseline {:.2}%",
                100.0 * prepared.baseline_accuracy
            );

            for scheme in ProtectionScheme::paper_schemes() {
                let mut network = prepared.protected(scheme, &scale)?;
                for (i, &nominal) in PAPER_FAULT_RATES.iter().enumerate() {
                    let mut campaign =
                        Campaign::new(&mut network, &prepared.test_inputs, &prepared.test_labels)?;
                    // A single uniform stratum keeps the paper's fault model.
                    // min_trials == max_trials pins the full budget: the mean
                    // column's precision must not depend on how quickly the
                    // critical-SDC interval happens to tighten.
                    let report = campaign.run_until(
                        &StatCampaignConfig {
                            fault_rate: nominal * rate_scale,
                            batch_size: scale.batch_size,
                            seed: 500 + i as u64,
                            round_trials: scale.trials.clamp(1, 4),
                            min_trials: scale.trials,
                            max_trials: scale.trials,
                            strata: vec![StratumSpec::all()],
                            ..Default::default()
                        },
                        &TransientBitFlip,
                    )?;
                    let uniform = &report.strata[0];
                    let critical_ci = report.pooled_critical();
                    table.push_row(vec![
                        kind.name().into(),
                        architecture.name().into(),
                        scheme.name().into(),
                        format!("{nominal:.0e}"),
                        format!("{:.2}", 100.0 * uniform.mean_accuracy()),
                        format!("{:.2}", 100.0 * prepared.baseline_accuracy),
                        format!("{}", report.total_trials()),
                        format!("{:.1}", 100.0 * critical_ci.point()),
                        format!(
                            "[{:.1}, {:.1}]",
                            100.0 * critical_ci.low,
                            100.0 * critical_ci.high
                        ),
                    ]);
                    eprintln!(
                        "[fig6]   {kind}/{architecture}/{scheme} @ {nominal:.0e}: {:.2}% \
                         ({} trials, critical SDC {:.1}%)",
                        100.0 * uniform.mean_accuracy(),
                        report.total_trials(),
                        100.0 * critical_ci.point(),
                    );
                }
            }
        }
    }

    println!("{}", table.to_pretty_string());
    let path = table.write_csv("fig6_average_accuracy.csv")?;
    println!("series written to {}", path.display());
    Ok(())
}
