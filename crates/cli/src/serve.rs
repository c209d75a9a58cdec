//! `fitact serve`: the micro-batched inference server as a pipeline stage.
//!
//! Unlike the batch stages, `serve` is long-running: it prints one JSON
//! startup line (with the resolved bind address, so scripts against
//! `--port 0` can parse where to connect), blocks until a
//! `POST /admin/shutdown` arrives, and then returns the final metrics
//! snapshot as its report.

use crate::args::Args;
use crate::CliError;
use fitact_io::JsonValue;
use fitact_serve::{RetryPolicy, ServeConfig, Server};
use std::io::Write;
use std::time::Duration;

/// The flags `fitact serve` accepts (see `help::SERVE` / `docs/cli.md`).
pub const SERVE_FLAGS: &[&str] = &[
    "model",
    "host",
    "port",
    "max-batch",
    "workers",
    "input-shape",
    "max-body-bytes",
    "max-queue",
    "max-connections",
    "io-timeout-ms",
    "idle-timeout-ms",
    "retry-policy",
    "violation-threshold",
    "canary-rate",
    "precision",
];

/// Parses `3x32x32`-style shape syntax.
fn parse_shape(text: &str) -> Result<Vec<usize>, String> {
    let dims: Result<Vec<usize>, _> = text.split('x').map(str::parse::<usize>).collect();
    match dims {
        Ok(dims) if !dims.is_empty() && dims.iter().all(|&d| d > 0) => Ok(dims),
        _ => Err(format!(
            "flag `--input-shape`: invalid shape `{text}` (expected e.g. 3x32x32)"
        )),
    }
}

/// Runs the server until an admin shutdown, returning the final summary.
pub fn serve(raw: &[String]) -> Result<JsonValue, CliError> {
    // The model path may be given positionally (`fitact serve model.fitact`)
    // or as `--model`; the strict flag parser sees only the rest.
    let (positional, rest): (&[String], &[String]) = match raw.first() {
        Some(first) if !first.starts_with("--") => (&raw[..1], &raw[1..]),
        _ => (&[], raw),
    };
    let args = Args::parse(rest, SERVE_FLAGS)?;
    let model = match (positional.first(), args.get("model")) {
        (Some(_), Some(_)) => {
            return Err("model given both positionally and via --model".into());
        }
        (Some(path), None) => path.as_str(),
        (None, Some(path)) => path,
        (None, None) => return Err("missing model artifact (positional or --model)".into()),
    };
    let host = args.get("host").unwrap_or("127.0.0.1");
    let port = args.parse_or("port", 8080u16)?;
    let defaults = ServeConfig::default();
    let config = ServeConfig {
        addr: format!("{host}:{port}"),
        max_batch: args.parse_or("max-batch", defaults.max_batch)?,
        workers: args.parse_or("workers", defaults.workers)?,
        input_shape: match args.get("input-shape") {
            None => None,
            Some(text) => Some(parse_shape(text)?),
        },
        max_body_bytes: args.parse_or("max-body-bytes", defaults.max_body_bytes)?,
        max_queue: args.parse_or("max-queue", defaults.max_queue)?,
        max_connections: args.parse_or("max-connections", defaults.max_connections)?,
        io_timeout: Duration::from_millis(
            args.parse_or("io-timeout-ms", defaults.io_timeout.as_millis() as u64)?,
        ),
        idle_timeout: Duration::from_millis(
            args.parse_or("idle-timeout-ms", defaults.idle_timeout.as_millis() as u64)?,
        ),
        retry_policy: match args.get("retry-policy") {
            None => defaults.retry_policy,
            Some(text) => RetryPolicy::parse(text)
                .map_err(|e| CliError::from(format!("flag `--retry-policy`: {e}")))?,
        },
        violation_threshold: args.parse_or("violation-threshold", defaults.violation_threshold)?,
        canary_rate: args.parse_or("canary-rate", defaults.canary_rate)?,
        precision: match args.get("precision") {
            None => None,
            Some(text) => Some(fitact_tensor::Precision::parse(text).ok_or_else(|| {
                CliError::from(format!(
                    "flag `--precision`: unknown precision `{text}` (expected f32, f16 or int8)"
                ))
            })?),
        },
        ..defaults
    };
    let server =
        Server::start(model, &config).map_err(|e| format!("cannot serve `{model}`: {e}"))?;
    let startup = JsonValue::Object(vec![
        ("command".into(), JsonValue::String("serve".into())),
        ("status".into(), JsonValue::String("listening".into())),
        ("model".into(), JsonValue::String(model.into())),
        ("addr".into(), JsonValue::String(server.addr().to_string())),
        (
            "max_batch".into(),
            JsonValue::Number(config.max_batch as f64),
        ),
        ("workers".into(), JsonValue::Number(config.workers as f64)),
        (
            "precision".into(),
            config
                .precision
                .map(|p| JsonValue::String(p.name().into()))
                .unwrap_or(JsonValue::Null),
        ),
        (
            "retry_policy".into(),
            JsonValue::String(config.retry_policy.as_str().into()),
        ),
        ("canary_rate".into(), JsonValue::Number(config.canary_rate)),
    ]);
    println!("{startup}");
    // Scripts (and the CI smoke job) poll stdout for this line before
    // connecting; a buffered pipe would deadlock them.
    std::io::stdout().flush().ok();
    let final_metrics = server.join();
    Ok(JsonValue::Object(vec![
        ("command".into(), JsonValue::String("serve".into())),
        ("status".into(), JsonValue::String("shut down".into())),
        ("final_metrics".into(), final_metrics.to_json()),
    ]))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn shape_syntax() {
        assert_eq!(parse_shape("3x32x32").unwrap(), vec![3, 32, 32]);
        assert_eq!(parse_shape("8").unwrap(), vec![8]);
        for bad in ["", "x", "3x", "3x0x2", "3,2", "axb"] {
            assert!(parse_shape(bad).is_err(), "{bad}");
        }
    }

    #[test]
    fn retry_policy_flag_is_validated_before_startup() {
        let raw: Vec<String> = ["m.fitact", "--retry-policy", "sometimes"]
            .iter()
            .map(|s| s.to_string())
            .collect();
        match serve(&raw) {
            Err(CliError::Usage(msg)) => {
                assert!(msg.contains("--retry-policy"), "{msg}");
                assert!(msg.contains("sometimes"), "{msg}");
            }
            other => panic!("expected a usage error, got {other:?}"),
        }
    }

    #[test]
    fn model_argument_forms_are_validated() {
        // Missing model.
        assert!(serve(&[]).is_err());
        // Both forms at once.
        let raw: Vec<String> = ["m.fitact", "--model", "other.fitact"]
            .iter()
            .map(|s| s.to_string())
            .collect();
        assert!(serve(&raw).is_err());
        // A nonexistent artifact is a usage error, not a panic.
        let raw: Vec<String> = ["/nonexistent/x.fitact"]
            .iter()
            .map(|s| s.to_string())
            .collect();
        match serve(&raw) {
            Err(CliError::Usage(msg)) => assert!(msg.contains("cannot serve"), "{msg}"),
            other => panic!("expected a usage error, got {other:?}"),
        }
    }
}
