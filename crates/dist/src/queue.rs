//! The job-queue abstraction and the lease table behind it.
//!
//! [`JobQueue`] is the coordination surface between one coordinator and
//! any number of workers. Its contract is deliberately minimal — submit,
//! steal, complete, fetch — because the determinism of a distributed run
//! does not depend on the queue at all: any interleaving of steals and
//! completions yields the same absorbed output, since results are pure
//! functions of their jobs and the coordinator absorbs them in job-id
//! order. The queue only affects *wall time*.
//!
//! [`LeaseTable`] is the one queue state machine: published envelopes,
//! leases, delivered results, the stop flag and the steal-loop counters,
//! all in coordinator memory. It implements [`Transport`], and
//! [`Broker`](crate::transport::Broker) layers the protocol on top, so
//! `Broker<LeaseTable>` is the [`JobQueue`] every run uses. In-process
//! worker threads steal from it directly; worker processes reach the
//! same table through [`TcpBroker`](crate::tcp::TcpBroker)'s accept loop.

use std::collections::{BTreeMap, HashMap};
use std::sync::{Arc, Mutex, MutexGuard};
use std::time::{Duration, Instant};

use crate::job::{encode_result, Job, JobResult};
use crate::transport::{requeue_backoff, Claimed, Delivered, Transport};

/// Steal-loop counters the lease table keeps about performed, wasted and
/// recovered work. Worker threads and worker processes report the same
/// four.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct QueueStats {
    /// Successful exclusive claims (each hands one published envelope to
    /// one worker).
    pub steals: usize,
    /// Straggling claims re-published for other workers after the
    /// timeout (with exponential backoff per job id).
    pub requeues: usize,
    /// Results for already-completed job ids (straggler retries that
    /// finished after all) that were checked and discarded.
    pub duplicates_discarded: usize,
    /// Diverging duplicate results — impossible unless the engine's
    /// determinism invariant is broken; any nonzero value fails the run
    /// through [`JobQueue::check_health`].
    pub conflicts: usize,
}

/// Coordination surface between a coordinator and its workers.
///
/// All methods take `&self`: backends are internally synchronized, and
/// workers on other threads (or in other processes) hold their own
/// handle to the same underlying queue.
pub trait JobQueue: Send + Sync {
    /// Enqueue a job (coordinator side). Submitting the same job id twice
    /// is allowed — that is how straggler retries enter the queue.
    fn submit(&self, job: &Job) -> Result<(), String>;

    /// Atomically claim the next available job (worker side). `None`
    /// means the queue is currently empty — the worker should check
    /// [`JobQueue::shutdown_requested`] and otherwise poll again.
    fn steal(&self, worker: &str) -> Result<Option<Job>, String>;

    /// Renew the lease on a stolen job: the worker is alive and still
    /// computing `id`, so backends with straggler requeues restart the
    /// lease clock. Best-effort (a missed heartbeat degrades to a
    /// spurious requeue whose duplicate is discarded), so the default is
    /// a no-op and a queue without leases need not implement it.
    fn heartbeat(&self, _worker: &str, _id: u64) -> Result<(), String> {
        Ok(())
    }

    /// Deliver a finished job (worker side). A result for an id that
    /// already has one is compared against the existing result and
    /// discarded; a mismatch — impossible unless the determinism
    /// invariant is broken — is reported by [`JobQueue::check_health`].
    fn complete(&self, worker: &str, result: &JobResult) -> Result<(), String>;

    /// Fetch the result for a job id, if one has arrived (coordinator
    /// side). Non-destructive and idempotent — the coordinator may poll
    /// and re-read.
    fn fetch_result(&self, id: u64) -> Result<Option<JobResult>, String>;

    /// Tell idle workers to exit once no work is left (coordinator side).
    fn request_shutdown(&self) -> Result<(), String>;

    /// Whether shutdown has been requested (worker side).
    fn shutdown_requested(&self) -> Result<bool, String>;

    /// Fail if the queue has observed an integrity violation — two
    /// workers returning different bytes for the same job id.
    fn check_health(&self) -> Result<(), String>;

    /// Wasted-work counters.
    fn stats(&self) -> Result<QueueStats, String>;
}

/// One outstanding claim. A worker that vanishes (crash, killed process,
/// dropped connection) simply stops renewing it; the lease ages out and
/// the envelope is re-published.
#[derive(Debug)]
struct Lease {
    id: u64,
    envelope: String,
    claimed_at: Instant,
    requeued: bool,
}

#[derive(Debug, Default)]
struct LeaseState {
    /// Published envelopes, claimable lowest job id first; the second
    /// key component separates re-publications of the same id.
    pending: BTreeMap<(u64, u64), String>,
    next_submission: u64,
    leases: Vec<Lease>,
    results: BTreeMap<u64, String>,
    conflicts: Vec<String>,
    stats: QueueStats,
    stop: bool,
}

impl LeaseState {
    fn publish(&mut self, id: u64, envelope: String) {
        let sub = self.next_submission;
        self.next_submission += 1;
        self.pending.insert((id, sub), envelope);
    }
}

/// The work-stealing queue: publications, leases and results in memory,
/// behind one mutex. Clones are handles to the same table, so the
/// coordinator, its worker threads and the TCP accept loop all share it.
#[derive(Debug, Clone, Default)]
pub struct LeaseTable {
    state: Arc<Mutex<LeaseState>>,
}

impl LeaseTable {
    /// An empty table.
    pub fn new() -> LeaseTable {
        LeaseTable::default()
    }

    fn lock(&self) -> Result<MutexGuard<'_, LeaseState>, String> {
        self.state
            .lock()
            .map_err(|_| "lease table poisoned by a panicking worker".to_owned())
    }

    /// Leases currently outstanding (claimed, no delivery yet).
    pub fn active_leases(&self) -> usize {
        self.lock()
            .map(|state| state.leases.iter().filter(|l| !l.requeued).count())
            .unwrap_or(0)
    }
}

impl Transport for LeaseTable {
    fn publish(&self, id: u64, envelope: &str) -> Result<(), String> {
        self.lock()?.publish(id, envelope.to_owned());
        Ok(())
    }

    fn claim(&self, _worker: &str) -> Result<Option<Claimed>, String> {
        let mut state = self.lock()?;
        // Shutdown means "stop taking new work", not "drain" — this is
        // what lets a coordinator's deadline abort actually abort.
        if state.stop {
            return Ok(None);
        }
        let Some(((id, _sub), envelope)) = state.pending.pop_first() else {
            return Ok(None);
        };
        // The lease clock starts now, at the claim — not when the job
        // was published, however long it queued.
        state.leases.push(Lease {
            id,
            envelope: envelope.clone(),
            claimed_at: Instant::now(),
            requeued: false,
        });
        state.stats.steals += 1;
        Ok(Some(Claimed { id, envelope }))
    }

    fn heartbeat(&self, _worker: &str, id: u64) -> Result<(), String> {
        // Restart the lease clock for every live lease on the id. A
        // heartbeat for an already-requeued or delivered job finds
        // nothing to renew — that is fine, the worker's eventual
        // duplicate delivery is compared-and-discarded as usual.
        let now = Instant::now();
        let mut state = self.lock()?;
        for lease in state
            .leases
            .iter_mut()
            .filter(|l| !l.requeued && l.id == id)
        {
            lease.claimed_at = now;
        }
        Ok(())
    }

    fn deliver(&self, _worker: &str, id: u64, envelope: &str) -> Result<Delivered, String> {
        let mut state = self.lock()?;
        if let Some(existing) = state.results.get(&id) {
            return Ok(Delivered::Duplicate {
                existing: existing.clone(),
            });
        }
        state.results.insert(id, envelope.to_owned());
        // The delivery ends every lease on this id — including a
        // re-published straggler's, whose eventual duplicate will be
        // compared and discarded.
        state.leases.retain(|lease| lease.id != id);
        Ok(Delivered::Accepted)
    }

    fn discard_duplicate(&self, _worker: &str, _id: u64) -> Result<(), String> {
        self.lock()?.stats.duplicates_discarded += 1;
        Ok(())
    }

    fn record_conflict(&self, worker: &str, id: u64, _envelope: &str) -> Result<(), String> {
        let mut state = self.lock()?;
        state.conflicts.push(format!(
            "job {id}: worker {worker:?} delivered bytes diverging from the stored result"
        ));
        state.stats.conflicts += 1;
        Ok(())
    }

    fn fetch(&self, id: u64) -> Result<Option<String>, String> {
        Ok(self.lock()?.results.get(&id).cloned())
    }

    fn requeue_expired(&self, base_timeout: Duration) -> Result<usize, String> {
        let now = Instant::now();
        let mut state = self.lock()?;
        let mut prior: HashMap<u64, u32> = HashMap::new();
        for lease in state.leases.iter().filter(|l| l.requeued) {
            *prior.entry(lease.id).or_default() += 1;
        }
        let LeaseState {
            leases, results, ..
        } = &mut *state;
        let mut republish: Vec<(u64, String)> = Vec::new();
        for lease in leases.iter_mut() {
            if lease.requeued || results.contains_key(&lease.id) {
                continue;
            }
            let required =
                requeue_backoff(base_timeout, prior.get(&lease.id).copied().unwrap_or(0));
            if now.duration_since(lease.claimed_at) >= required {
                lease.requeued = true;
                republish.push((lease.id, lease.envelope.clone()));
            }
        }
        let count = republish.len();
        for (id, envelope) in republish {
            state.publish(id, envelope);
        }
        state.stats.requeues += count;
        Ok(count)
    }

    fn stop(&self) -> Result<(), String> {
        self.lock()?.stop = true;
        Ok(())
    }

    fn stopped(&self) -> Result<bool, String> {
        Ok(self.lock()?.stop)
    }

    fn conflicts(&self) -> Result<Vec<String>, String> {
        Ok(self.lock()?.conflicts.clone())
    }

    fn counters(&self) -> Result<QueueStats, String> {
        Ok(self.lock()?.stats)
    }
}

/// Canonical bytes of a result with the legitimately run-dependent fields
/// (worker name, wall time) blanked — what "the same result" means when
/// comparing duplicates.
pub(crate) fn strip_nondeterminism(result: &JobResult) -> String {
    let mut stripped = result.clone();
    stripped.worker = String::new();
    if let crate::job::JobOutcome::Explained { millis, .. } = &mut stripped.outcome {
        *millis = 0;
    }
    encode_result(&stripped)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::job::{JobOutcome, JobPayload};
    use crate::transport::Broker;
    use crate::wire::WireInstance;

    fn dummy_job(id: u64) -> Job {
        Job {
            id,
            name: format!("job-{id}"),
            payload: JobPayload::Explain {
                instance: WireInstance {
                    schema: vec!["a".into()],
                    pool: vec!["x".into()],
                    source: vec![vec![0]],
                    target: vec![vec![0]],
                },
                config: crate::wire::WireConfig(affidavit_core::AffidavitConfig::paper_id()),
            },
        }
    }

    fn dummy_result(id: u64, worker: &str, reason: &str) -> JobResult {
        JobResult {
            id,
            name: format!("job-{id}"),
            worker: worker.to_owned(),
            outcome: JobOutcome::Failed {
                reason: reason.to_owned(),
            },
        }
    }

    fn queue() -> Broker<LeaseTable> {
        Broker::new(LeaseTable::new())
    }

    #[test]
    fn expired_lease_is_republished_once() {
        let q = queue();
        q.submit(&dummy_job(9)).unwrap();
        // The worker claims the job and then "dies" — the lease is all
        // the table remembers of it.
        assert_eq!(q.steal("doomed").unwrap().unwrap().id, 9);
        assert!(q.steal("other").unwrap().is_none());
        assert_eq!(q.transport().active_leases(), 1);
        // The lease is immediately stale under a zero timeout, and is
        // re-published exactly once.
        let requeue = || q.transport().requeue_expired(Duration::ZERO).unwrap();
        assert_eq!(requeue(), 1);
        assert_eq!(requeue(), 0);
        assert_eq!(q.steal("other").unwrap().unwrap().id, 9);
        q.complete("other", &dummy_result(9, "other", "done"))
            .unwrap();
        // Once a result lands, the requeue pass leaves everything alone.
        assert_eq!(requeue(), 0);
        assert_eq!(q.stats().unwrap().requeues, 1);
        assert_eq!(q.fetch_result(9).unwrap().unwrap().worker, "other");
    }

    #[test]
    fn heartbeat_restarts_the_lease_clock() {
        // The lease age is set by hand so the test is exact: no sleeps.
        let table = LeaseTable::new();
        table.publish(5, "envelope").unwrap();
        assert!(table.claim("w").unwrap().is_some());
        let age = |by: Duration| {
            table.lock().unwrap().leases[0].claimed_at = Instant::now() - by;
        };
        // The lease is a minute old — far past a 30s timeout — but a
        // heartbeat lands before the requeue pass: the clock restarts
        // and the job is NOT treated as a straggler.
        age(Duration::from_secs(60));
        table.heartbeat("w", 5).unwrap();
        let timeout = Duration::from_secs(30);
        assert_eq!(table.requeue_expired(timeout).unwrap(), 0);
        // The same aged lease without a heartbeat is requeued.
        age(Duration::from_secs(60));
        assert_eq!(table.requeue_expired(timeout).unwrap(), 1);
        // Heartbeats for requeued (or unknown) ids renew nothing.
        table.heartbeat("w", 5).unwrap();
        table.heartbeat("w", 77).unwrap();
        assert_eq!(table.counters().unwrap().requeues, 1);
    }

    #[test]
    fn lease_clock_starts_at_claim_not_publish() {
        let q = queue();
        q.submit(&dummy_job(5)).unwrap();
        // The job sits in the queue longer than the steal timeout before
        // anyone claims it...
        std::thread::sleep(Duration::from_millis(60));
        let _ = q.steal("w").unwrap().unwrap();
        // ...and must NOT be treated as a straggler the moment it is
        // claimed: the lease began at claim, not at publish.
        assert_eq!(
            q.transport()
                .requeue_expired(Duration::from_millis(40))
                .unwrap(),
            0,
            "a freshly claimed job is not a straggler, however long it queued"
        );
    }
}
