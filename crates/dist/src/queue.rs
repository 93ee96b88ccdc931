//! The job-queue abstraction and the in-process backend.
//!
//! [`JobQueue`] is the coordination surface between one coordinator and
//! any number of workers. Its contract is deliberately minimal — submit,
//! steal, complete, fetch — because the determinism of a distributed run
//! does not depend on the queue at all: any interleaving of steals and
//! completions yields the same absorbed output, since results are pure
//! functions of their jobs and the coordinator absorbs them in job-id
//! order. The queue only affects *wall time*.
//!
//! Two kinds of backend implement it: [`InProcessQueue`] (worker threads
//! in the same process — tests, doctests, library embedding) and
//! [`Broker`](crate::transport::Broker), the work-stealing protocol over
//! any [`Transport`](crate::transport::Transport) — the spool-directory
//! [`FsBroker`](crate::broker::FsBroker) and the socket-served
//! [`TcpBroker`](crate::tcp::TcpBroker), both driving real
//! `affidavit-worker` processes.

use std::collections::{BTreeMap, VecDeque};
use std::sync::Mutex;

use crate::job::{encode_result, Job, JobResult};

/// Steal-loop counters a queue keeps about performed, wasted and
/// recovered work. Both transports surface the same four, so an
/// operator reads one vocabulary whether the run went over a spool
/// directory or a socket.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct QueueStats {
    /// Successful exclusive claims (each hands one published envelope to
    /// one worker).
    pub steals: usize,
    /// Straggling claims re-published for other workers after the
    /// timeout (with exponential backoff per job id).
    pub requeues: usize,
    /// Results for already-completed job ids (speculative duplicates or
    /// post-steal stragglers) that were checked and discarded.
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
    /// is allowed — that is how speculative duplicates and straggler
    /// retries enter the queue.
    fn submit(&self, job: &Job) -> Result<(), String>;

    /// Atomically claim the next available job (worker side). `None`
    /// means the queue is currently empty — the worker should check
    /// [`JobQueue::shutdown_requested`] and otherwise poll again.
    fn steal(&self, worker: &str) -> Result<Option<Job>, String>;

    /// Renew the lease on a stolen job: the worker is alive and still
    /// computing `id`, so backends with straggler requeues restart the
    /// lease clock. Best-effort (a missed heartbeat degrades to a
    /// spurious requeue whose duplicate is discarded); the default is a
    /// no-op for backends without leases, like [`InProcessQueue`].
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

#[derive(Debug, Default)]
struct Inner {
    pending: VecDeque<Job>,
    results: BTreeMap<u64, JobResult>,
    stats: QueueStats,
    stop: bool,
    conflicts: Vec<String>,
}

/// A [`JobQueue`] living entirely in this process: a mutex-guarded deque
/// plus a result map. Workers are plain threads running
/// [`run_worker`](crate::worker::run_worker) against it.
#[derive(Debug, Default)]
pub struct InProcessQueue {
    inner: Mutex<Inner>,
}

impl InProcessQueue {
    /// An empty queue.
    pub fn new() -> InProcessQueue {
        InProcessQueue::default()
    }

    fn lock(&self) -> Result<std::sync::MutexGuard<'_, Inner>, String> {
        self.inner
            .lock()
            .map_err(|_| "queue poisoned by a panicking worker".to_owned())
    }
}

impl JobQueue for InProcessQueue {
    fn submit(&self, job: &Job) -> Result<(), String> {
        self.lock()?.pending.push_back(job.clone());
        Ok(())
    }

    fn steal(&self, _worker: &str) -> Result<Option<Job>, String> {
        let mut inner = self.lock()?;
        // Shutdown means "stop taking new work", not "drain" — this is
        // what lets a coordinator's deadline abort actually abort.
        if inner.stop {
            return Ok(None);
        }
        let job = inner.pending.pop_front();
        if job.is_some() {
            inner.stats.steals += 1;
        }
        Ok(job)
    }

    fn complete(&self, _worker: &str, result: &JobResult) -> Result<(), String> {
        let mut inner = self.lock()?;
        match inner.results.get(&result.id) {
            None => {
                inner.results.insert(result.id, result.clone());
            }
            Some(existing) => {
                // A duplicate (stolen twice, or a straggler retry): the
                // engine is deterministic, so apart from the worker name
                // and wall time the bytes must agree.
                if strip_nondeterminism(existing) == strip_nondeterminism(result) {
                    inner.stats.duplicates_discarded += 1;
                } else {
                    let conflict = format!(
                        "job {} produced diverging results from workers {:?} and {:?}",
                        result.id, existing.worker, result.worker
                    );
                    inner.conflicts.push(conflict);
                    inner.stats.conflicts += 1;
                }
            }
        }
        Ok(())
    }

    fn fetch_result(&self, id: u64) -> Result<Option<JobResult>, String> {
        Ok(self.lock()?.results.get(&id).cloned())
    }

    fn request_shutdown(&self) -> Result<(), String> {
        self.lock()?.stop = true;
        Ok(())
    }

    fn shutdown_requested(&self) -> Result<bool, String> {
        Ok(self.lock()?.stop)
    }

    fn check_health(&self) -> Result<(), String> {
        match self.lock()?.conflicts.first() {
            None => Ok(()),
            Some(c) => Err(c.clone()),
        }
    }

    fn stats(&self) -> Result<QueueStats, String> {
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

    #[test]
    fn steal_order_is_fifo_and_exclusive() {
        let q = InProcessQueue::new();
        q.submit(&dummy_job(0)).unwrap();
        q.submit(&dummy_job(1)).unwrap();
        assert_eq!(q.steal("a").unwrap().unwrap().id, 0);
        assert_eq!(q.steal("b").unwrap().unwrap().id, 1);
        assert!(q.steal("a").unwrap().is_none());
    }

    #[test]
    fn duplicate_results_are_discarded_and_counted() {
        let q = InProcessQueue::new();
        q.complete("a", &dummy_result(7, "a", "same")).unwrap();
        q.complete("b", &dummy_result(7, "b", "same")).unwrap();
        assert_eq!(q.stats().unwrap().duplicates_discarded, 1);
        assert!(q.check_health().is_ok());
        assert_eq!(q.fetch_result(7).unwrap().unwrap().worker, "a");
    }

    #[test]
    fn diverging_duplicates_poison_health() {
        let q = InProcessQueue::new();
        q.complete("a", &dummy_result(7, "a", "one")).unwrap();
        q.complete("b", &dummy_result(7, "b", "two")).unwrap();
        assert!(q.check_health().unwrap_err().contains("diverging"));
    }

    #[test]
    fn shutdown_flag_is_sticky() {
        let q = InProcessQueue::new();
        assert!(!q.shutdown_requested().unwrap());
        q.request_shutdown().unwrap();
        assert!(q.shutdown_requested().unwrap());
    }
}
