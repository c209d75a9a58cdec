//! Wire types and the blocking client for distributed campaigns.
//!
//! The coordinator/worker protocol rides the crate's HTTP/1.1 codec with
//! `Connection: close` framing. Control messages (unit grants, results,
//! status) are JSON; accuracies travel as **`f32` bit patterns encoded as
//! integers** so the determinism contract survives text transport exactly.
//! Campaign identity (config, dataset provenance, fingerprints) travels as a
//! binary [`fitact_io::CampaignSpec`] because JSON text does not round-trip
//! `f64` rates and `u64` seeds bit-exactly. Unit ids are
//! `(round << 32) | index`, so a re-executed or duplicate unit resolves
//! idempotently to the same id on any coordinator incarnation.

use crate::http::{encode_request, read_response, Response};
use fitact_faults::{FaultModel, TransientBitFlip, TrialPoint};
use fitact_io::JsonValue;
use std::io::Write;
use std::net::{Shutdown, TcpStream};
use std::time::Duration;

/// Largest control-message body either side accepts (units and results are
/// tiny; this bounds a misbehaving peer).
pub const MAX_CONTROL_BODY: usize = 4 * 1024 * 1024;

/// Largest binary payload (model artifact / campaign spec) a worker accepts.
pub const MAX_BINARY_BODY: usize = 256 * 1024 * 1024;

/// Composes a work-unit id from the round it belongs to and its index within
/// that round's unit list.
pub fn unit_id(round: usize, index: usize) -> u64 {
    ((round as u64) << 32) | index as u64
}

/// The round a unit id belongs to (inverse of [`unit_id`]).
pub fn unit_round(id: u64) -> usize {
    (id >> 32) as usize
}

/// One re-executable shard of a campaign round: `count` consecutive trials
/// of `stratum` starting at trial index `start`. Trials are deterministic
/// functions of `(seed, stratum, index)`, so any worker executes the unit
/// bit-identically.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct WorkUnit {
    /// Stable unit id ([`unit_id`]).
    pub id: u64,
    /// Stratum the trials belong to.
    pub stratum: usize,
    /// First trial index of the unit.
    pub start: usize,
    /// Number of consecutive trials.
    pub count: usize,
}

/// Coordinator's answer to a unit request.
#[derive(Debug, Clone, PartialEq)]
pub enum Grant {
    /// A unit lease: execute and report within `lease_ms`.
    Unit {
        /// The leased unit.
        unit: WorkUnit,
        /// Lease duration before the coordinator may re-dispatch.
        lease_ms: u64,
    },
    /// Nothing to hand out right now (all units leased, or the campaign is
    /// paused); poll again after `retry_ms`.
    Wait {
        /// Suggested poll delay.
        retry_ms: u64,
    },
    /// The campaign is complete; the worker should exit.
    Done,
}

fn as_u64(value: Option<&JsonValue>, what: &str) -> Result<u64, String> {
    let raw = value
        .and_then(JsonValue::as_f64)
        .ok_or_else(|| format!("missing or non-numeric `{what}`"))?;
    if raw < 0.0 || raw.fract() != 0.0 || raw > 9_007_199_254_740_992.0 {
        return Err(format!("`{what}` is not an exact non-negative integer"));
    }
    Ok(raw as u64)
}

impl Grant {
    /// Encodes the grant as a JSON control message.
    pub fn to_json(&self) -> String {
        match self {
            Grant::Unit { unit, lease_ms } => JsonValue::object([
                ("status", "unit".into()),
                ("id", unit.id.into()),
                ("stratum", unit.stratum.into()),
                ("start", unit.start.into()),
                ("count", unit.count.into()),
                ("lease_ms", (*lease_ms).into()),
            ]),
            Grant::Wait { retry_ms } => {
                JsonValue::object([("status", "wait".into()), ("retry_ms", (*retry_ms).into())])
            }
            Grant::Done => JsonValue::object([("status", "done".into())]),
        }
        .to_string()
    }

    /// Decodes a grant control message.
    ///
    /// # Errors
    ///
    /// Returns a description of the malformation.
    pub fn from_json(text: &str) -> Result<Grant, String> {
        let value = JsonValue::parse(text)?;
        match value.get("status").and_then(JsonValue::as_str) {
            Some("unit") => Ok(Grant::Unit {
                unit: WorkUnit {
                    id: as_u64(value.get("id"), "id")?,
                    stratum: as_u64(value.get("stratum"), "stratum")? as usize,
                    start: as_u64(value.get("start"), "start")? as usize,
                    count: as_u64(value.get("count"), "count")? as usize,
                },
                lease_ms: as_u64(value.get("lease_ms"), "lease_ms")?,
            }),
            Some("wait") => Ok(Grant::Wait {
                retry_ms: as_u64(value.get("retry_ms"), "retry_ms")?,
            }),
            Some("done") => Ok(Grant::Done),
            other => Err(format!("unknown grant status {other:?}")),
        }
    }
}

/// A completed unit's results, reported by a worker.
#[derive(Debug, Clone, PartialEq)]
pub struct UnitResult {
    /// Reporting worker's id (observability only; results are validated by
    /// content, not provenance).
    pub worker: String,
    /// The unit the results belong to.
    pub unit: WorkUnit,
    /// One point per trial, in index order (`unit.start ..`).
    pub points: Vec<TrialPoint>,
}

impl UnitResult {
    /// Encodes the result; accuracies as `f32` bit patterns.
    pub fn to_json(&self) -> String {
        let points: Vec<JsonValue> = self
            .points
            .iter()
            .map(|p| {
                JsonValue::Array(vec![
                    f64::from(p.accuracy.to_bits()).into(),
                    p.faults.into(),
                ])
            })
            .collect();
        JsonValue::object([
            ("worker", self.worker.as_str().into()),
            ("id", self.unit.id.into()),
            ("stratum", self.unit.stratum.into()),
            ("start", self.unit.start.into()),
            ("count", self.unit.count.into()),
            ("points", JsonValue::Array(points)),
        ])
        .to_string()
    }

    /// Decodes a result report.
    ///
    /// # Errors
    ///
    /// Returns a description of the malformation (including a point count
    /// that disagrees with the declared unit size).
    pub fn from_json(text: &str) -> Result<UnitResult, String> {
        let value = JsonValue::parse(text)?;
        let unit = WorkUnit {
            id: as_u64(value.get("id"), "id")?,
            stratum: as_u64(value.get("stratum"), "stratum")? as usize,
            start: as_u64(value.get("start"), "start")? as usize,
            count: as_u64(value.get("count"), "count")? as usize,
        };
        let raw_points = value
            .get("points")
            .and_then(JsonValue::as_array)
            .ok_or("missing `points` array")?;
        if raw_points.len() != unit.count {
            return Err(format!(
                "unit declares {} trials but carries {} points",
                unit.count,
                raw_points.len()
            ));
        }
        let mut points = Vec::with_capacity(raw_points.len());
        for entry in raw_points {
            let pair = entry.as_array().ok_or("non-array point entry")?;
            if pair.len() != 2 {
                return Err("point entry is not a [bits, faults] pair".into());
            }
            let bits = as_u64(Some(&pair[0]), "accuracy bits")?;
            let bits = u32::try_from(bits).map_err(|_| "accuracy bits exceed u32".to_owned())?;
            points.push(TrialPoint {
                accuracy: f32::from_bits(bits),
                faults: as_u64(Some(&pair[1]), "faults")?,
            });
        }
        Ok(UnitResult {
            worker: value
                .get("worker")
                .and_then(JsonValue::as_str)
                .unwrap_or("unknown")
                .to_owned(),
            unit,
            points,
        })
    }
}

/// Resolves a fault-model name from a campaign spec to an injectable model.
/// Only parameterless models can travel by name; `None` means the worker
/// must refuse the campaign.
pub fn fault_model_by_name(name: &str) -> Option<Box<dyn FaultModel>> {
    match name {
        "bitflip" => Some(Box::new(TransientBitFlip)),
        _ => None,
    }
}

/// One blocking `Connection: close` HTTP exchange.
///
/// The client half-closes (FIN) right after sending the request, so the
/// **client** side of every exchange is the active closer and `TIME_WAIT`
/// accumulates on workers' ephemeral ports — never on the coordinator's
/// listening address, which must stay immediately re-bindable across
/// coordinator restarts.
///
/// # Errors
///
/// Returns a human-readable description for connect/read/write failures and
/// malformed responses. HTTP error statuses are NOT errors here — callers
/// inspect [`Response::status`].
pub fn http_call(
    addr: &str,
    method: &str,
    target: &str,
    body: &[u8],
    timeout: Duration,
    max_body: usize,
) -> Result<Response, String> {
    let mut stream = TcpStream::connect(addr).map_err(|e| format!("connect {addr}: {e}"))?;
    stream
        .set_read_timeout(Some(timeout))
        .and_then(|()| stream.set_write_timeout(Some(timeout)))
        .map_err(|e| format!("socket setup: {e}"))?;
    stream
        .write_all(&encode_request(method, target, body))
        .and_then(|()| stream.flush())
        .map_err(|e| format!("write: {e}"))?;
    let _ = stream.shutdown(Shutdown::Write);
    read_response(&mut stream, max_body)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unit_ids_compose_round_and_index() {
        assert_eq!(unit_id(0, 0), 0);
        assert_eq!(unit_id(3, 7), (3 << 32) | 7);
        assert_eq!(unit_round(unit_id(41, 5)), 41);
        // Ids stay exactly representable as JSON numbers (f64) for any
        // plausible round count.
        assert!(unit_id(1 << 19, u32::MAX as usize) < 1u64 << 53);
    }

    #[test]
    fn grants_round_trip() {
        for grant in [
            Grant::Unit {
                unit: WorkUnit {
                    id: unit_id(2, 1),
                    stratum: 1,
                    start: 16,
                    count: 8,
                },
                lease_ms: 30_000,
            },
            Grant::Wait { retry_ms: 250 },
            Grant::Done,
        ] {
            assert_eq!(Grant::from_json(&grant.to_json()).unwrap(), grant);
        }
        assert!(Grant::from_json("{\"status\":\"nope\"}").is_err());
        assert!(Grant::from_json("{\"status\":\"unit\",\"id\":1.5}").is_err());
    }

    #[test]
    fn results_round_trip_bit_exactly() {
        let result = UnitResult {
            worker: "w0".into(),
            unit: WorkUnit {
                id: unit_id(1, 0),
                stratum: 0,
                start: 8,
                count: 3,
            },
            points: vec![
                TrialPoint {
                    accuracy: -0.0,
                    faults: 0,
                },
                TrialPoint {
                    accuracy: f32::NAN,
                    faults: 2,
                },
                TrialPoint {
                    accuracy: 0.7231445,
                    faults: 17,
                },
            ],
        };
        let decoded = UnitResult::from_json(&result.to_json()).unwrap();
        assert_eq!(decoded.worker, result.worker);
        assert_eq!(decoded.unit, result.unit);
        for (a, b) in decoded.points.iter().zip(&result.points) {
            assert!(a.same_bits(b), "{a:?} != {b:?}");
        }
        // A point-count/unit-size disagreement is rejected at decode time.
        let mut short = result.clone();
        short.points.pop();
        assert!(UnitResult::from_json(&short.to_json()).is_err());
    }

    #[test]
    fn model_names_resolve() {
        assert_eq!(fault_model_by_name("bitflip").unwrap().name(), "bitflip");
        assert!(fault_model_by_name("burst").is_none());
        assert!(fault_model_by_name("").is_none());
    }
}
