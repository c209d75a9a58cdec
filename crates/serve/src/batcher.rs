//! The dynamic micro-batching queue.
//!
//! Requests from any number of connection threads enqueue individual sample
//! rows; worker threads drain them in coalesced batches. The scheduling rule
//! is **work-conserving**:
//!
//! * a worker that finds rows queued drains up to `max_batch` of them at
//!   once, in arrival order — no row waits while a worker is idle;
//! * an idle worker blocks on the queue condition variable, so an empty
//!   server burns no CPU.
//!
//! Batches therefore grow only while every worker is busy: rows that
//! arrive during a forward pass queue up and leave together in the next
//! batch. A lone request costs its forward pass and nothing more;
//! `max_batch` bounds how much work one forward pass coalesces. See
//! `docs/serving.md` for the latency/throughput model.
//!
//! The queue is also the shutdown rendezvous: [`BatchQueue::shutdown`] wakes
//! every waiter, rejects new rows, and lets workers drain what is already
//! queued — so an in-flight request is either answered or explicitly
//! rejected, never dropped silently.

use std::collections::VecDeque;
use std::sync::mpsc;
use std::sync::{Condvar, Mutex};
use std::time::{Duration, Instant};

/// One enqueued sample row awaiting execution.
#[derive(Debug)]
pub struct PendingRow {
    /// Flattened input features (row-major, `features` elements).
    pub input: Vec<f32>,
    /// Index of this row inside its originating request, echoed back so the
    /// connection thread can reassemble multi-row responses in order.
    pub row: usize,
    /// When the row entered the queue (end-to-end latency measurement).
    pub enqueued: Instant,
    /// Where the executing worker sends the outcome.
    pub responder: mpsc::Sender<RowResult>,
}

/// The outcome of one row, fanned back to its connection thread.
#[derive(Debug, Clone)]
pub struct RowResult {
    /// Index of the row inside its originating request.
    pub row: usize,
    /// The forward pass outcome: logits, or a worker-side error message.
    pub outcome: Result<RowOutput, String>,
    /// Size of the micro-batch the row was executed in.
    pub batch_size: usize,
}

/// A successfully executed row.
#[derive(Debug, Clone)]
pub struct RowOutput {
    /// The network's output row (logits).
    pub logits: Vec<f32>,
    /// `argmax` of the logits (predicted class index).
    pub class: usize,
}

#[derive(Debug, Default)]
struct QueueState {
    pending: VecDeque<PendingRow>,
    shutdown: bool,
}

/// Why [`BatchQueue::push`] refused a request (the rows come back so the
/// connection thread can answer 503 instead of waiting forever).
#[derive(Debug)]
pub enum PushRejected {
    /// The queue is shutting down.
    ShuttingDown(Vec<PendingRow>),
    /// The queue is at its depth cap — backpressure, not failure; the
    /// client should retry.
    Overloaded(Vec<PendingRow>),
}

/// The shared micro-batching queue between connection threads and workers.
#[derive(Debug)]
pub struct BatchQueue {
    state: Mutex<QueueState>,
    cond: Condvar,
    max_batch: usize,
    max_queue: usize,
}

impl BatchQueue {
    /// Creates a queue that coalesces up to `max_batch` rows and refuses
    /// new work beyond `max_queue` pending rows (backpressure — an
    /// unbounded queue would just convert overload into unbounded latency
    /// and memory).
    ///
    /// `_max_wait` is ignored: the queue has no batch window. The parameter
    /// remains only so that the benchmark harness under `perfbench/`, which
    /// passes `ServeConfig::max_wait` here, keeps compiling; it goes once
    /// that harness stops passing it.
    ///
    /// # Panics
    ///
    /// Panics if `max_batch == 0` or `max_queue == 0` (the server validates
    /// its configuration before construction).
    pub fn new(max_batch: usize, _max_wait: Duration, max_queue: usize) -> Self {
        assert!(max_batch > 0, "max_batch must be non-zero");
        assert!(max_queue > 0, "max_queue must be non-zero");
        BatchQueue {
            state: Mutex::new(QueueState::default()),
            cond: Condvar::new(),
            max_batch,
            max_queue,
        }
    }

    /// The configured batch-size cap.
    pub fn max_batch(&self) -> usize {
        self.max_batch
    }

    /// Enqueues all rows of one request atomically (a worker can never
    /// observe half a request).
    ///
    /// # Errors
    ///
    /// Returns the rows back to the caller when the queue is shutting down
    /// or already holds `max_queue` pending rows.
    pub fn push(&self, rows: Vec<PendingRow>) -> Result<(), PushRejected> {
        let mut state = self.state.lock().expect("queue lock poisoned");
        if state.shutdown {
            return Err(PushRejected::ShuttingDown(rows));
        }
        if state.pending.len().saturating_add(rows.len()) > self.max_queue {
            return Err(PushRejected::Overloaded(rows));
        }
        state.pending.extend(rows);
        drop(state);
        self.cond.notify_all();
        Ok(())
    }

    /// Blocks until at least one row is queued, then drains every queued
    /// row up to `max_batch`, in arrival order. Returns `None` once the
    /// queue is shut down *and* drained — the worker's signal to exit.
    pub fn next_batch(&self) -> Option<Vec<PendingRow>> {
        let mut state = self.state.lock().expect("queue lock poisoned");
        while state.pending.is_empty() {
            if state.shutdown {
                return None;
            }
            state = self.cond.wait(state).expect("queue lock poisoned");
        }
        let take = self.max_batch.min(state.pending.len());
        Some(state.pending.drain(..take).collect())
    }

    /// Rejects new rows and wakes every waiter. Workers drain what is
    /// already queued, then exit.
    pub fn shutdown(&self) {
        self.state.lock().expect("queue lock poisoned").shutdown = true;
        self.cond.notify_all();
    }

    /// Number of rows currently waiting (diagnostics / `/metrics`).
    pub fn depth(&self) -> usize {
        self.state
            .lock()
            .expect("queue lock poisoned")
            .pending
            .len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    fn row(i: usize, tx: &mpsc::Sender<RowResult>) -> PendingRow {
        PendingRow {
            input: vec![i as f32],
            row: i,
            enqueued: Instant::now(),
            responder: tx.clone(),
        }
    }

    fn indices(batch: &[PendingRow]) -> Vec<usize> {
        batch.iter().map(|r| r.row).collect()
    }

    #[test]
    fn queued_rows_drain_at_once_up_to_max_batch_in_arrival_order() {
        // `k` single-row pushes made before any worker asks: the first
        // batch takes min(k, max_batch) of them, the next batch the rest —
        // batches grow exactly while no worker is waiting. The 60 s
        // `max_wait` is ignored, so not even a lone row (k = 1) is held
        // back for company.
        let max_batch = 4;
        for k in 1..=2 * max_batch {
            let queue = BatchQueue::new(max_batch, Duration::from_secs(60), 64);
            let (tx, _rx) = mpsc::channel();
            for i in 0..k {
                queue.push(vec![row(i, &tx)]).unwrap();
            }
            let start = Instant::now();
            let first = k.min(max_batch);
            assert_eq!(
                indices(&queue.next_batch().unwrap()),
                (0..first).collect::<Vec<_>>(),
                "k = {k}"
            );
            if k > max_batch {
                assert_eq!(
                    indices(&queue.next_batch().unwrap()),
                    (max_batch..k).collect::<Vec<_>>(),
                    "k = {k}"
                );
            }
            assert!(
                start.elapsed() < Duration::from_secs(1),
                "k = {k}: queued rows must not wait for company"
            );
            assert_eq!(queue.depth(), 0, "k = {k}");
        }
    }

    #[test]
    fn oversized_request_splits_into_max_batch_chunks() {
        let queue = BatchQueue::new(4, Duration::ZERO, 64);
        let (tx, _rx) = mpsc::channel();
        queue.push((0..10).map(|i| row(i, &tx)).collect()).unwrap();
        let batches: Vec<Vec<usize>> = (0..3)
            .map(|_| indices(&queue.next_batch().unwrap()))
            .collect();
        // Arrival order is preserved across the split.
        assert_eq!(
            batches,
            vec![vec![0, 1, 2, 3], vec![4, 5, 6, 7], vec![8, 9]]
        );
    }

    #[test]
    fn shutdown_drains_then_stops() {
        let queue = BatchQueue::new(4, Duration::ZERO, 64);
        let (tx, _rx) = mpsc::channel();
        queue.push(vec![row(0, &tx)]).unwrap();
        queue.shutdown();
        // Push after shutdown is rejected, handing the rows back.
        match queue.push(vec![row(1, &tx)]) {
            Err(PushRejected::ShuttingDown(rows)) => assert_eq!(rows.len(), 1),
            other => panic!("expected a shutdown rejection, got {other:?}"),
        }
        // The queued row is still served.
        assert_eq!(queue.next_batch().unwrap().len(), 1);
        assert!(queue.next_batch().is_none());
    }

    #[test]
    fn full_queue_rejects_with_backpressure() {
        let queue = BatchQueue::new(4, Duration::ZERO, 3);
        let (tx, _rx) = mpsc::channel();
        queue.push(vec![row(0, &tx), row(1, &tx)]).unwrap();
        // Atomic: a request that would cross the cap is refused whole.
        match queue.push(vec![row(2, &tx), row(3, &tx)]) {
            Err(PushRejected::Overloaded(rows)) => assert_eq!(rows.len(), 2),
            other => panic!("expected an overload rejection, got {other:?}"),
        }
        // A request that fits is still accepted.
        queue.push(vec![row(4, &tx)]).unwrap();
        assert_eq!(queue.depth(), 3);
        // Draining frees capacity again.
        assert_eq!(queue.next_batch().unwrap().len(), 3);
        queue.push(vec![row(5, &tx)]).unwrap();
    }

    #[test]
    fn blocked_worker_wakes_on_shutdown() {
        let queue = Arc::new(BatchQueue::new(4, Duration::ZERO, 64));
        let worker = {
            let queue = Arc::clone(&queue);
            std::thread::spawn(move || queue.next_batch().is_none())
        };
        std::thread::sleep(Duration::from_millis(20));
        queue.shutdown();
        assert!(worker.join().unwrap(), "an idle worker exits on shutdown");
    }

    #[test]
    fn two_workers_split_a_large_backlog() {
        let queue = Arc::new(BatchQueue::new(4, Duration::ZERO, 64));
        let (tx, _rx) = mpsc::channel();
        queue.push((0..16).map(|i| row(i, &tx)).collect()).unwrap();
        let workers: Vec<_> = (0..2)
            .map(|_| {
                let queue = Arc::clone(&queue);
                std::thread::spawn(move || {
                    let mut rows = 0;
                    while let Some(batch) = queue.next_batch() {
                        assert!(batch.len() <= 4);
                        rows += batch.len();
                    }
                    rows
                })
            })
            .collect();
        std::thread::sleep(Duration::from_millis(50));
        queue.shutdown();
        let total: usize = workers.into_iter().map(|w| w.join().unwrap()).sum();
        assert_eq!(total, 16, "every row is executed exactly once");
    }
}
