//! The worker handoff behind [`ServingModel`](super::ServingModel):
//! one dedicated worker thread, one request channel, one response
//! channel, and a deadline-aware receive path.
//!
//! Extracted as its own generic component for two reasons. First, the
//! protocol — close-to-stop, generation tags above, stale-response
//! draining — is exactly what a sharded serving layer will need per
//! shard, so it should exist once. Second, it is built on
//! [`raal_sync`]'s primitives, which means the *real* handoff code (not
//! a test double) runs under the schedule explorer in the
//! model-check build: `crates/core/tests/model_check.rs` proves the
//! protocol deadlock-free across all bounded interleavings with trivial
//! work functions standing in for inference.
//!
//! The component is deliberately dumb: no generations, no pending
//! flags. Those belong to the caller ([`predict_many`]'s state
//! machine), because they are per-*request-stream* policy, not
//! per-channel mechanics.
//!
//! **No serving path uses this component any more** — the service
//! prices on the caller's thread and has no thread of its own; it is
//! kept only because the benchmark package's
//! `raal.serving.handoff_roundtrip_us` layer metric constructs it, and
//! it leaves with that metric in a later `benchmark` PR.
//!
//! [`predict_many`]: super::ServingModel::predict_many

use raal_sync::mpsc::{self, RecvTimeoutError, TryRecvError};
use raal_sync::thread;
use std::time::Duration;

/// A dedicated worker thread processing `Req → Resp` over a pair of
/// channels. Dropping the handle closes the request channel (stopping
/// the worker loop) and joins the thread.
pub struct Handoff<Req, Resp> {
    tx: Option<mpsc::Sender<Req>>,
    rx: mpsc::Receiver<Resp>,
    worker: Option<thread::JoinHandle<()>>,
}

impl<Req: Send + 'static, Resp: Send + 'static> Handoff<Req, Resp> {
    /// Spawns the worker. It applies `work` to each request in arrival
    /// order and exits when the request channel closes (handle dropped)
    /// or a response cannot be delivered (receiver gone).
    pub fn spawn<F>(mut work: F) -> Self
    where
        F: FnMut(Req) -> Resp + Send + 'static,
    {
        let (req_tx, req_rx) = mpsc::channel::<Req>();
        let (resp_tx, resp_rx) = mpsc::channel::<Resp>();
        let worker = thread::spawn(move || {
            while let Ok(req) = req_rx.recv() {
                if resp_tx.send(work(req)).is_err() {
                    break;
                }
            }
        });
        Self {
            tx: Some(req_tx),
            rx: resp_rx,
            worker: Some(worker),
        }
    }

    /// Ships a request to the worker; false means the worker is gone
    /// (its thread exited, e.g. the work function panicked).
    pub fn send(&self, req: Req) -> bool {
        match &self.tx {
            Some(tx) => tx.send(req).is_ok(),
            None => false,
        }
    }

    /// Waits up to `timeout` for the next response. `Timeout` means the
    /// worker is still busy — the request stays in flight and its
    /// response must eventually be drained ([`Handoff::try_recv`]) or
    /// consumed by a later receive.
    pub fn recv_timeout(&self, timeout: Duration) -> Result<Resp, RecvTimeoutError> {
        self.rx.recv_timeout(timeout)
    }

    /// Non-blocking receive, used to drain responses of abandoned
    /// requests before shipping a new one.
    pub fn try_recv(&self) -> Result<Resp, TryRecvError> {
        self.rx.try_recv()
    }
}

impl<Req, Resp> Drop for Handoff<Req, Resp> {
    fn drop(&mut self) {
        // Closing the request channel stops the worker loop; joining
        // bounds shutdown (the worker finishes at most the request it
        // already holds).
        self.tx = None;
        if let Some(worker) = self.worker.take() {
            let _ = worker.join();
        }
    }
}
