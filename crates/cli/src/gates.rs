//! CI regression gates over machine-readable reports.
//!
//! * [`diff_report`] — compares a `fitact campaign` report against a
//!   committed golden report: fault-free accuracy must match **exactly**
//!   (the pipeline is bit-deterministic), while SDC rates — Monte-Carlo
//!   estimates — must agree up to **confidence-interval overlap**.
//! * [`bench_gate`] — compares a bench JSON's recorded speedup (the
//!   checkpoint engine in `BENCH_campaign.json`, the f16 kernel in
//!   `BENCH_matmul.json`) against a committed baseline and fails on a
//!   relative regression beyond the configured budget. `--case NAME`
//!   selects a named sub-object, so one baseline file carries every gated
//!   case.
//!
//! Both gates print a JSON verdict and signal failure through
//! [`crate::CliError::Gate`], which the driver maps to exit code 1 (reserving
//! 2 for usage/runtime errors).

use crate::args::Args;
use crate::CliError;
use fitact_io::JsonValue;

fn read_json(path: &str) -> Result<JsonValue, CliError> {
    let text = std::fs::read_to_string(path)
        .map_err(|e| CliError::from(format!("cannot read `{path}`: {e}")))?;
    JsonValue::parse(&text).map_err(|e| CliError::from(format!("`{path}` is not valid JSON: {e}")))
}

/// Unwraps the optional `{"command":"campaign", …, "report": {…}}` envelope.
fn campaign_report(doc: &JsonValue) -> &JsonValue {
    doc.get("report").unwrap_or(doc)
}

fn f64_at(doc: &JsonValue, path: &[&str], file: &str) -> Result<f64, CliError> {
    doc.path(path).and_then(JsonValue::as_f64).ok_or_else(|| {
        CliError::from(format!(
            "`{file}` is missing numeric field {}",
            path.join(".")
        ))
    })
}

/// Whether two closed intervals intersect.
fn intervals_overlap(a: (f64, f64), b: (f64, f64)) -> bool {
    a.0 <= b.1 && b.0 <= a.1
}

fn interval(doc: &JsonValue, key: &str, file: &str) -> Result<(f64, f64), CliError> {
    Ok((
        f64_at(doc, &[key, "low"], file)?,
        f64_at(doc, &[key, "high"], file)?,
    ))
}

/// The flags `fitact diff-report` accepts (pinned against
/// `help::DIFF_REPORT`).
pub const DIFF_REPORT_FLAGS: &[&str] = &["report", "golden", "accuracy-tolerance"];

/// The flags `fitact bench-gate` accepts (pinned against
/// `help::BENCH_GATE`).
pub const BENCH_GATE_FLAGS: &[&str] = &["current", "baseline", "max-regression", "case"];

/// `fitact diff-report`: gate a campaign report against a golden report.
pub fn diff_report(raw: &[String]) -> Result<JsonValue, CliError> {
    let args = Args::parse(raw, DIFF_REPORT_FLAGS)?;
    let report_path = args.required("report")?;
    let golden_path = args.required("golden")?;
    // Default 0 = exact match: the pipeline is bit-deterministic on one
    // host. Transcendentals (exp/ln in softmax and the FitReLU sigmoid)
    // dispatch to the platform libm, so goldens regenerated on a different
    // libm can shift low bits; operators may loosen to e.g. one sample's
    // worth of accuracy rather than regenerate goldens per platform.
    let accuracy_tolerance = args.parse_or("accuracy-tolerance", 0.0f64)?;
    if !(accuracy_tolerance.is_finite() && accuracy_tolerance >= 0.0) {
        return Err(CliError::Usage(
            "--accuracy-tolerance must be a finite non-negative number".into(),
        ));
    }
    let report_doc = read_json(report_path)?;
    let golden_doc = read_json(golden_path)?;
    let report = campaign_report(&report_doc);
    let golden = campaign_report(&golden_doc);

    let mut failures: Vec<String> = Vec::new();

    // Accuracy is produced by a deterministic pipeline: exact match unless
    // the operator loosened it.
    let got_acc = f64_at(report, &["fault_free_accuracy"], report_path)?;
    let want_acc = f64_at(golden, &["fault_free_accuracy"], golden_path)?;
    if (got_acc - want_acc).abs() > accuracy_tolerance {
        failures.push(if accuracy_tolerance == 0.0 {
            format!("fault_free_accuracy {got_acc} != golden {want_acc} (exact match required)")
        } else {
            format!(
                "fault_free_accuracy {got_acc} differs from golden {want_acc} \
                 by more than the tolerance {accuracy_tolerance}"
            )
        });
    }

    // SDC rates are Monte-Carlo estimates: their confidence intervals must
    // overlap the golden run's.
    for key in ["pooled_critical", "pooled_sdc"] {
        let got = interval(report, key, report_path)?;
        let want = interval(golden, key, golden_path)?;
        if !intervals_overlap(got, want) {
            failures.push(format!(
                "{key} CI [{}, {}] does not overlap golden [{}, {}]",
                got.0, got.1, want.0, want.1
            ));
        }
    }

    let pass = failures.is_empty();
    let verdict = JsonValue::object([
        ("command", "diff-report".into()),
        ("report", report_path.into()),
        ("golden", golden_path.into()),
        ("match", pass.into()),
        ("failures", failure_list(failures)),
    ]);
    if pass {
        Ok(verdict)
    } else {
        Err(CliError::Gate(verdict.to_string()))
    }
}

fn failure_list(failures: Vec<String>) -> JsonValue {
    JsonValue::Array(failures.into_iter().map(JsonValue::from).collect())
}

/// `fitact bench-gate`: gate a bench JSON against a committed baseline.
pub fn bench_gate(raw: &[String]) -> Result<JsonValue, CliError> {
    let args = Args::parse(raw, BENCH_GATE_FLAGS)?;
    let current_path = args.required("current")?;
    let baseline_path = args.required("baseline")?;
    let max_regression = args.parse_or("max-regression", 0.20f64)?;
    if !(0.0..1.0).contains(&max_regression) {
        return Err(CliError::Usage("--max-regression must be in [0, 1)".into()));
    }
    let case = args.get("case");
    let current_doc = read_json(current_path)?;
    let baseline_doc = read_json(baseline_path)?;
    // `--case` drills into a named sub-object; a doc that keeps the fields
    // at top level (every bench JSON does) still gates cleanly because the
    // lookup falls back to the document itself.
    let current = case
        .and_then(|n| current_doc.get(n))
        .unwrap_or(&current_doc);
    let baseline = case
        .and_then(|n| baseline_doc.get(n))
        .unwrap_or(&baseline_doc);

    // Smoke-mode bench output carries no meaningful timing; skip loudly
    // rather than gate on noise.
    if current_doc.get("smoke").and_then(JsonValue::as_bool) == Some(true) {
        return Ok(JsonValue::object([
            ("command", "bench-gate".into()),
            ("skipped", true.into()),
            (
                "reason",
                "current bench JSON was produced in smoke mode".into(),
            ),
        ]));
    }

    let mut failures: Vec<String> = Vec::new();
    let got = f64_at(current, &["speedup"], current_path)?;
    let want = f64_at(baseline, &["speedup"], baseline_path)?;
    let floor = want * (1.0 - max_regression);
    if got < floor {
        failures.push(format!(
            "checkpoint-engine speedup regressed: {got:.3}× < {floor:.3}× \
             (baseline {want:.3}× − {:.0}% budget)",
            max_regression * 100.0
        ));
    }
    // Required field: a missing/renamed `bit_identical` must fail the gate,
    // not silently disable the engine-identity check.
    match current.get("bit_identical").and_then(JsonValue::as_bool) {
        Some(true) => {}
        Some(false) => failures.push("bench reports engines are no longer bit-identical".into()),
        None => failures.push(format!(
            "`{current_path}` is missing the boolean `bit_identical` field"
        )),
    }

    let pass = failures.is_empty();
    let verdict = JsonValue::object([
        ("command", "bench-gate".into()),
        ("current", current_path.into()),
        ("baseline", baseline_path.into()),
        ("case", case.map_or(JsonValue::Null, JsonValue::from)),
        ("speedup", got.into()),
        ("baseline_speedup", want.into()),
        ("floor", floor.into()),
        ("pass", pass.into()),
        ("failures", failure_list(failures)),
    ]);
    if pass {
        Ok(verdict)
    } else {
        Err(CliError::Gate(verdict.to_string()))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn interval_overlap_cases() {
        assert!(intervals_overlap((0.0, 0.5), (0.4, 0.9)));
        assert!(intervals_overlap((0.4, 0.9), (0.0, 0.5)));
        assert!(intervals_overlap((0.0, 1.0), (0.2, 0.3)));
        assert!(!intervals_overlap((0.0, 0.1), (0.2, 0.3)));
        // Touching endpoints count as overlap (closed intervals).
        assert!(intervals_overlap((0.0, 0.2), (0.2, 0.3)));
    }
}
