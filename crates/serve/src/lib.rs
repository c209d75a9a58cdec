//! Micro-batched HTTP inference serving for `.fitact` model artifacts.
//!
//! The FitAct paper motivates protected activations for *deployed*,
//! safety-critical inference; this crate supplies the deployment half of the
//! reproduction: a std-only (no tokio, no hyper — the build environment is
//! offline) HTTP/1.1 server that loads a protected model from a `.fitact`
//! artifact and serves JSON predict requests through a **dynamic
//! micro-batching scheduler**:
//!
//! * requests queue in a [`BatchQueue`]; a free worker drains every queued
//!   row at once, up to `max_batch`, so batches grow only while every
//!   worker is busy and no row waits while a worker is idle,
//! * a pool of worker threads executes batches on warm per-worker network
//!   clones, staging each batch through a reusable [`fitact_tensor::TensorArena`]
//!   slot (allocation-free at steady state),
//! * responses are **bit-identical** to evaluating each sample alone —
//!   batching is a pure throughput optimisation, never a numerics change
//!   (see `docs/serving.md` for why this holds and where it is pinned).
//!
//! Connections run through a single **event-driven** I/O thread (epoll on
//! Linux, poll(2) on other Unixes) with opt-in HTTP/1.1 keep-alive, request
//! pipelining, per-connection idle/I-O deadlines and `503` + `Retry-After`
//! load-shedding past `max_connections`; model parameters are served from
//! one shared read-only mapping ([`fitact_io::MappedArtifact`]) instead of
//! per-worker copies. See `docs/serving.md` for the connection model.
//!
//! # Endpoints
//!
//! | Route | Method | Purpose |
//! |---|---|---|
//! | `/predict` | POST | `{"inputs": [[…], …]}` → logits + classes |
//! | `/healthz` | GET | liveness + model identity |
//! | `/metrics` | GET | request counters, batch-size histogram, latency percentiles, violation/recovery/canary telemetry |
//! | `/admin/reload` | POST | hot-swap the artifact from disk |
//! | `/admin/metrics/reset` | POST | empty the latency window (counters untouched) |
//! | `/admin/shutdown` | POST | graceful drain + stop |
//!
//! Protected activations double as fault detectors: every forward runs
//! under a per-batch [`fitact_nn::ViolationTrace`], `--retry-policy retry`
//! re-executes suspect batches from their last clean layer boundary, and
//! `--canary-rate` runs a fault-injected shadow replica over a copy of live
//! traffic to measure detection coverage (see `docs/recovery.md`).
//!
//! The same event-loop transport also carries the **distributed fault
//! campaign**: a [`Coordinator`] shards a campaign's trial space into leased
//! work units served at `/campaign/spec`, `/campaign/model`,
//! `/campaign/unit`, `/campaign/result` and `/campaign/status`, and workers
//! ([`run_worker_until`]) pull, execute and report units with exponential-backoff
//! retries. Leases expire and re-dispatch, duplicates merge idempotently,
//! and the coordinator checkpoints for crash-safe resume — the final report
//! stays bit-identical to a single-process run (see `docs/distributed.md`).
//!
//! The `fitact serve` CLI subcommand (see `docs/cli.md`) wraps
//! [`Server::start`]; tests drive the same API in-process:
//!
//! ```no_run
//! use fitact_serve::{ServeConfig, Server};
//!
//! # fn main() -> Result<(), fitact_serve::ServeError> {
//! let server = Server::start("model.fitact", &ServeConfig::default())?;
//! println!("listening on {}", server.addr());
//! let final_metrics = server.join(); // blocks until POST /admin/shutdown
//! println!("served {} rows", final_metrics.responses_total);
//! # Ok(())
//! # }
//! ```

#![warn(missing_docs)]

pub mod backoff;
pub mod batcher;
pub mod coordinator;
pub mod http;
pub mod metrics;
#[cfg(unix)]
mod poller;
pub mod protocol;
pub mod recovery;
pub mod server;
mod transport;
pub mod worker;

pub use backoff::Backoff;
pub use batcher::{BatchQueue, PendingRow, PushRejected, RowOutput, RowResult};
pub use coordinator::{Coordinator, CoordinatorConfig};
pub use metrics::{
    CanarySnapshot, ConnectionsSnapshot, LatencyPercentiles, LayerViolations, Metrics,
    MetricsSnapshot, RecoverySnapshot,
};
pub use protocol::{Grant, UnitResult, WorkUnit};
pub use recovery::RetryPolicy;
pub use server::{ServeConfig, Server};
pub use worker::{run_worker_until, WorkerConfig, WorkerSummary};

use std::error::Error;
use std::fmt;

/// Errors produced while starting or running the server.
#[derive(Debug)]
pub enum ServeError {
    /// Socket or filesystem failure.
    Io(std::io::Error),
    /// The model artifact failed to load, decode or instantiate.
    Artifact(fitact_io::IoError),
    /// The server configuration is unusable (zero workers, empty input
    /// shape, uninferable input shape, …).
    InvalidConfig(String),
    /// A distributed campaign aborted: determinism conflict, incompatible
    /// coordinator, exhausted retry budget or lost checkpointability.
    Campaign(String),
}

impl fmt::Display for ServeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ServeError::Io(e) => write!(f, "I/O error: {e}"),
            ServeError::Artifact(e) => write!(f, "model artifact error: {e}"),
            ServeError::InvalidConfig(msg) => write!(f, "invalid serve configuration: {msg}"),
            ServeError::Campaign(msg) => write!(f, "distributed campaign failed: {msg}"),
        }
    }
}

impl Error for ServeError {
    fn source(&self) -> Option<&(dyn Error + 'static)> {
        match self {
            ServeError::Io(e) => Some(e),
            ServeError::Artifact(e) => Some(e),
            ServeError::InvalidConfig(_) | ServeError::Campaign(_) => None,
        }
    }
}

impl From<std::io::Error> for ServeError {
    fn from(e: std::io::Error) -> Self {
        ServeError::Io(e)
    }
}

impl From<fitact_io::IoError> for ServeError {
    fn from(e: fitact_io::IoError) -> Self {
        ServeError::Artifact(e)
    }
}

#[cfg(test)]
mod fuzz;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn error_display_and_source() {
        let io = ServeError::from(std::io::Error::other("x"));
        assert!(io.to_string().contains("I/O"));
        assert!(Error::source(&io).is_some());
        let artifact = ServeError::from(fitact_io::IoError::BadMagic);
        assert!(artifact.to_string().contains("artifact"));
        assert!(Error::source(&artifact).is_some());
        let config = ServeError::InvalidConfig("bad".into());
        assert!(config.to_string().contains("bad"));
        assert!(Error::source(&config).is_none());
        let campaign = ServeError::Campaign("lease lost".into());
        assert!(campaign.to_string().contains("distributed campaign"));
        assert!(campaign.to_string().contains("lease lost"));
        assert!(Error::source(&campaign).is_none());
    }
}
