//! The transport seam: the work-stealing protocol, expressed once.
//!
//! The protocol of a distributed run — *publish* a job for exclusive
//! claiming, *claim* it under a lease, *deliver* the result, re-publish
//! straggling leases with backoff, compare-and-discard duplicate
//! completions, *stop* — is independent of where the caller sits.
//! [`Transport`] captures exactly that seam: operations on **opaque,
//! length-delimited wire envelopes** (the `wire.rs` messages produced
//! by [`crate::job::encode_job`] / [`crate::job::encode_result`]), with
//! no knowledge of jobs, results, pools or symbols. [`Broker`] layers the
//! protocol on top: it encodes/decodes envelopes, verifies the
//! determinism invariant on duplicate deliveries, and records diverging
//! duplicates as conflicts.
//!
//! Two types implement the seam:
//!
//! * [`LeaseTable`](crate::queue::LeaseTable) — the queue itself, in
//!   coordinator memory. The coordinator and its in-process worker
//!   threads call it directly.
//! * [`TcpClient`](crate::tcp::TcpClient) — a worker process's handle
//!   on a remote lease table: every operation is one framed
//!   request/response exchange with the coordinator's
//!   [`TcpBroker`](crate::tcp::TcpBroker).
//!
//! Determinism does not depend on the transport any more than it depends
//! on the queue: results are pure functions of job bytes, so the only
//! transport-visible failure mode — a lost worker or connection — turns
//! into a straggler lease, a re-publication, and at worst a discarded
//! duplicate.

use std::time::Duration;

use crate::job::{decode_job, decode_result, encode_job, encode_result, Job, JobResult};
use crate::queue::{strip_nondeterminism, JobQueue, QueueStats};

/// An envelope handed out by [`Transport::claim`]: the job id the
/// transport leased plus the opaque wire bytes.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Claimed {
    /// The published job id (transports index leases and deliveries by
    /// it; the envelope body is opaque to them).
    pub id: u64,
    /// The published wire envelope, byte-for-byte.
    pub envelope: String,
}

/// What happened to a delivered envelope.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Delivered {
    /// First delivery for this job id; the envelope was stored.
    Accepted,
    /// A delivery for this id already exists. The existing envelope is
    /// returned so the protocol layer can compare the two and either
    /// discard the newcomer ([`Transport::discard_duplicate`]) or record
    /// a divergence ([`Transport::record_conflict`]).
    Duplicate {
        /// The previously delivered envelope, byte-for-byte.
        existing: String,
    },
}

/// Access to a lease table for the work-stealing protocol, in memory or
/// over a socket. Implementations move opaque envelopes and track
/// leases; everything protocol-shaped (encoding, duplicate comparison,
/// conflict semantics) lives in [`Broker`].
///
/// All methods take `&self`: transports are internally synchronized and
/// shared between coordinator and worker threads/processes.
pub trait Transport: Send + Sync {
    /// Make an envelope available for exclusive claiming under `id`
    /// (coordinator side, and transport-internally for re-publication).
    /// Publishing the same id again is allowed — straggler retries
    /// enter this way — and each publication is claimable exactly once.
    /// Claims are handed out lowest id first.
    fn publish(&self, id: u64, envelope: &str) -> Result<(), String>;

    /// Exclusively claim the next published envelope and start a lease
    /// for `worker` (worker side). Returns `None` when nothing is
    /// claimable — including after [`Transport::stop`], which revokes
    /// all pending publications.
    fn claim(&self, worker: &str) -> Result<Option<Claimed>, String>;

    /// Renew the lease on `id`: the worker is alive and still computing,
    /// so the lease clock restarts and a legitimately long job is not
    /// requeued as a straggler by [`Transport::requeue_expired`].
    /// Best-effort: a missed heartbeat degrades to a spurious requeue
    /// whose duplicate result is compared and discarded, never to lost
    /// work.
    fn heartbeat(&self, worker: &str, id: u64) -> Result<(), String>;

    /// Deliver a result envelope for `id`, ending its leases (worker
    /// side). The first delivery per id wins; later ones return
    /// [`Delivered::Duplicate`] with the stored envelope, leaving it to
    /// the protocol layer to compare.
    fn deliver(&self, worker: &str, id: u64, envelope: &str) -> Result<Delivered, String>;

    /// Record that a duplicate delivery for `id` matched the stored one
    /// and was discarded (protocol layer, after comparing).
    fn discard_duplicate(&self, worker: &str, id: u64) -> Result<(), String>;

    /// Record that a duplicate delivery for `id` **diverged** from the
    /// stored one — the determinism invariant is broken. The envelope is
    /// kept for post-mortem and the transport reports unhealthy from now
    /// on ([`Transport::conflicts`]).
    fn record_conflict(&self, worker: &str, id: u64, envelope: &str) -> Result<(), String>;

    /// The delivered envelope for `id`, if any (coordinator side).
    /// Non-destructive and idempotent.
    fn fetch(&self, id: u64) -> Result<Option<String>, String>;

    /// Re-publish leases older than [`requeue_backoff`]`(base_timeout,
    /// prior requeues of the id)` whose id has no delivery — the
    /// anti-straggler half of work-stealing. Each lease is re-published
    /// at most once. Returns how many envelopes were re-published
    /// (coordinator side).
    fn requeue_expired(&self, base_timeout: Duration) -> Result<usize, String>;

    /// Stop handing out claims and tell idle workers to exit
    /// (coordinator side).
    fn stop(&self) -> Result<(), String>;

    /// Whether [`Transport::stop`] has been requested (worker side).
    fn stopped(&self) -> Result<bool, String>;

    /// Human-readable descriptions of recorded conflicts (empty =
    /// healthy).
    fn conflicts(&self) -> Result<Vec<String>, String>;

    /// Steal-loop counters.
    fn counters(&self) -> Result<QueueStats, String>;
}

/// How long a lease must be idle before its `n`-th re-publication:
/// `base × 2^min(n, 6)`, so a legitimately long-running job is retried
/// with exponential backoff rather than at every timeout.
pub fn requeue_backoff(base: Duration, prior_requeues: u32) -> Duration {
    base.saturating_mul(1 << prior_requeues.min(6))
}

/// The work-stealing protocol over any [`Transport`]: a [`JobQueue`]
/// whose job/result encoding, duplicate compare-and-discard and conflict
/// recording are written once, here, against opaque envelopes.
#[derive(Debug, Clone)]
pub struct Broker<T> {
    transport: T,
}

impl<T: Transport> Broker<T> {
    /// Wrap a transport in the protocol layer.
    pub fn new(transport: T) -> Broker<T> {
        Broker { transport }
    }

    /// The underlying transport (for operations outside [`JobQueue`]:
    /// straggler requeues, lease counts, …).
    pub fn transport(&self) -> &T {
        &self.transport
    }
}

impl<T: Transport> JobQueue for Broker<T> {
    fn submit(&self, job: &Job) -> Result<(), String> {
        let _span =
            affidavit_obs::span_with("dist.publish", vec![("job".to_owned(), job.id.to_string())]);
        self.transport.publish(job.id, &encode_job(job))
    }

    fn steal(&self, worker: &str) -> Result<Option<Job>, String> {
        let _span = affidavit_obs::span("dist.claim");
        match self.transport.claim(worker)? {
            None => Ok(None),
            Some(claimed) => decode_job(&claimed.envelope).map(Some),
        }
    }

    fn heartbeat(&self, worker: &str, id: u64) -> Result<(), String> {
        self.transport.heartbeat(worker, id)
    }

    fn complete(&self, worker: &str, result: &JobResult) -> Result<(), String> {
        let _span = affidavit_obs::span_with(
            "dist.deliver",
            vec![("job".to_owned(), result.id.to_string())],
        );
        let envelope = encode_result(result);
        match self.transport.deliver(worker, result.id, &envelope)? {
            Delivered::Accepted => Ok(()),
            Delivered::Duplicate { existing } => {
                // A duplicate (stolen twice, or a straggler retry): the
                // engine is deterministic, so apart from the worker name
                // and wall time the bytes must agree.
                let existing = decode_result(&existing)?;
                if strip_nondeterminism(&existing) == strip_nondeterminism(result) {
                    self.transport.discard_duplicate(worker, result.id)
                } else {
                    self.transport.record_conflict(worker, result.id, &envelope)
                }
            }
        }
    }

    fn fetch_result(&self, id: u64) -> Result<Option<JobResult>, String> {
        match self.transport.fetch(id)? {
            None => Ok(None),
            Some(envelope) => decode_result(&envelope).map(Some),
        }
    }

    fn request_shutdown(&self) -> Result<(), String> {
        self.transport.stop()
    }

    fn shutdown_requested(&self) -> Result<bool, String> {
        self.transport.stopped()
    }

    fn check_health(&self) -> Result<(), String> {
        match self.transport.conflicts()?.first() {
            None => Ok(()),
            Some(conflict) => Err(conflict.clone()),
        }
    }

    fn stats(&self) -> Result<QueueStats, String> {
        self.transport.counters()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn backoff_doubles_and_caps() {
        let base = Duration::from_secs(30);
        assert_eq!(requeue_backoff(base, 0), base);
        assert_eq!(requeue_backoff(base, 1), base * 2);
        assert_eq!(requeue_backoff(base, 3), base * 8);
        assert_eq!(requeue_backoff(base, 6), base * 64);
        // Capped: retry 100 waits no longer than retry 6.
        assert_eq!(requeue_backoff(base, 100), base * 64);
    }
}
