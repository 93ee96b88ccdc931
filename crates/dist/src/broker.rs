//! The filesystem transport: a spool directory shared between processes.
//!
//! [`FsTransport`] implements [`Transport`] over a directory with four
//! elements:
//!
//! ```text
//! <root>/jobs/      job-<id>.<sub>.json        published, claimable
//! <root>/claimed/   job-<id>.<sub>.<worker>.json   leased, in flight
//! <root>/results/   result-<id>.json           delivered
//! <root>/stop       (empty file)               shutdown request
//! ```
//!
//! *Claiming* is one atomic `rename` from `jobs/` into `claimed/`: the
//! filesystem guarantees exactly one winner per published file, so any
//! number of `affidavit-worker` processes — spawned by the coordinator or
//! attached later by hand — can race for work without further locking.
//! The claim file doubles as the lease: a claim older than the backoff
//! window whose id has no result is re-published (the claimed copy is
//! left in place, marked `.requeued`), so a hung or killed worker delays
//! its jobs but cannot lose them. Everything above the file operations —
//! envelope encoding, duplicate compare-and-discard, conflict semantics —
//! lives in the transport-agnostic [`Broker`] protocol layer; [`FsBroker`]
//! is simply `Broker<FsTransport>`.
//!
//! All writes are write-to-temp-then-rename, so readers never observe a
//! partial file. The transport assumes `root` lives on one filesystem (a
//! local disk or a shared mount — rename must be atomic).

use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::{Duration, SystemTime};

use crate::queue::QueueStats;
use crate::transport::{requeue_backoff, Broker, Claimed, Delivered, Transport};

/// Spool-directory [`Transport`]. Cheap to construct on both the
/// coordinator and worker sides; all state lives in the directory.
#[derive(Debug)]
pub struct FsTransport {
    root: PathBuf,
    /// Distinguishes multiple publications of the same job id
    /// (duplicates, straggler retries) in pending file names.
    submissions: AtomicU64,
}

/// The filesystem broker: the work-stealing protocol over a spool
/// directory — a [`JobQueue`](crate::queue::JobQueue) shared between
/// real processes.
pub type FsBroker = Broker<FsTransport>;

impl Broker<FsTransport> {
    /// Open (creating if necessary) a broker rooted at `root`.
    pub fn open(root: impl Into<PathBuf>) -> Result<FsBroker, String> {
        FsTransport::open(root).map(Broker::new)
    }

    /// The spool directory.
    pub fn root(&self) -> &Path {
        self.transport().root()
    }

    /// Fail unless the spool is fresh — see [`FsTransport::ensure_fresh`].
    pub fn ensure_fresh(&self) -> Result<(), String> {
        self.transport().ensure_fresh()
    }

    /// Re-publish straggling claims — see
    /// [`Transport::requeue_expired`].
    pub fn recover_stragglers(&self, timeout: Duration) -> Result<usize, String> {
        self.transport().requeue_expired(timeout)
    }

    /// How many claims have been requeued over this broker's lifetime
    /// (counted from the `.requeued` markers in the spool).
    pub fn requeued_count(&self) -> usize {
        self.transport().counters().map(|c| c.requeues).unwrap_or(0)
    }
}

impl FsTransport {
    /// Open (creating if necessary) a transport rooted at `root`.
    pub fn open(root: impl Into<PathBuf>) -> Result<FsTransport, String> {
        let root = root.into();
        for sub in ["jobs", "claimed", "results"] {
            std::fs::create_dir_all(root.join(sub))
                .map_err(|e| format!("{}: {e}", root.join(sub).display()))?;
        }
        Ok(FsTransport {
            root,
            submissions: AtomicU64::new(0),
        })
    }

    /// The spool directory.
    pub fn root(&self) -> &Path {
        &self.root
    }

    fn jobs(&self) -> PathBuf {
        self.root.join("jobs")
    }

    fn claimed(&self) -> PathBuf {
        self.root.join("claimed")
    }

    fn results(&self) -> PathBuf {
        self.root.join("results")
    }

    fn result_path(&self, id: u64) -> PathBuf {
        self.results().join(format!("result-{id:08}.json"))
    }

    fn write_atomic(
        &self,
        dir: &Path,
        name: &str,
        tmp_tag: &str,
        text: &str,
    ) -> Result<(), String> {
        let tmp = dir.join(format!(".tmp-{tmp_tag}"));
        std::fs::write(&tmp, text).map_err(|e| format!("{}: {e}", tmp.display()))?;
        let target = dir.join(name);
        std::fs::rename(&tmp, &target).map_err(|e| format!("{}: {e}", target.display()))
    }

    fn sorted_entries(dir: &Path) -> Result<Vec<String>, String> {
        let mut names = Vec::new();
        let entries = std::fs::read_dir(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
        for entry in entries {
            let entry = entry.map_err(|e| e.to_string())?;
            if let Some(name) = entry.file_name().to_str() {
                if !name.starts_with('.') {
                    names.push(name.to_owned());
                }
            }
        }
        names.sort();
        Ok(names)
    }

    /// Fail unless the spool is empty — no pending or claimed jobs, no
    /// results, no shutdown request. A coordinator must call this before
    /// reusing an explicit `--broker` directory: job ids restart at 0
    /// every run, so stale results from a previous run would otherwise be
    /// absorbed as this run's, and a leftover `stop` file would make
    /// freshly spawned workers exit immediately. Leftover `conflict-*`
    /// files — a previous run's diverging duplicates — are called out
    /// explicitly, so the operator sees the spool holds evidence of a
    /// broken determinism invariant, not just routine leftovers.
    pub fn ensure_fresh(&self) -> Result<(), String> {
        // Diagnose conflicts first: they are the one kind of leftover
        // that should be inspected rather than casually deleted.
        let conflicts: Vec<String> = Self::sorted_entries(&self.results())
            .unwrap_or_default()
            .into_iter()
            .filter(|n| n.starts_with("conflict-"))
            .collect();
        if !conflicts.is_empty() {
            return Err(format!(
                "stale broker spool {}: {} diverging-duplicate conflict file(s) from a \
                 previous run ({}) — a run on this spool observed two workers return \
                 different bytes for the same job, which breaks the determinism \
                 invariant; inspect results/conflict-* before removing the spool",
                self.root.display(),
                conflicts.len(),
                conflicts.join(", ")
            ));
        }
        if self.root.join("stop").exists() {
            return Err(format!(
                "stale broker spool {}: a previous run's stop file is present \
                 (remove the spool or pass a fresh --broker directory)",
                self.root.display()
            ));
        }
        for sub in ["jobs", "claimed", "results"] {
            let dir = self.root.join(sub);
            if let Some(name) = Self::sorted_entries(&dir)?.first() {
                return Err(format!(
                    "stale broker spool {}: {sub}/{name} is left over from a previous \
                     run (remove the spool or pass a fresh --broker directory)",
                    self.root.display()
                ));
            }
        }
        Ok(())
    }
}

/// `job-<id>.<sub>[...]` → `<id>`.
fn parse_job_id(name: &str) -> Option<u64> {
    name.strip_prefix("job-")?.split('.').next()?.parse().ok()
}

impl Transport for FsTransport {
    fn publish(&self, id: u64, envelope: &str) -> Result<(), String> {
        let sub = self.submissions.fetch_add(1, Ordering::Relaxed);
        let name = format!("job-{id:08}.{sub:04}.json");
        self.write_atomic(&self.jobs(), &name, &format!("submit-{id}-{sub}"), envelope)
    }

    fn claim(&self, worker: &str) -> Result<Option<Claimed>, String> {
        // Shutdown means "stop taking new work", not "drain": pending
        // jobs at this point are either abandoned by an aborting
        // coordinator or redundant duplicates — executing them buys
        // nothing.
        if self.stopped()? {
            return Ok(None);
        }
        for name in Self::sorted_entries(&self.jobs())? {
            let Some(id) = parse_job_id(&name) else {
                continue;
            };
            let pending = self.jobs().join(&name);
            let stem = name.strip_suffix(".json").unwrap_or(&name);
            let claim = self.claimed().join(format!("{stem}.{worker}.json"));
            // Atomic claim: exactly one worker wins this rename.
            if std::fs::rename(&pending, &claim).is_err() {
                continue; // someone else won; try the next file
            }
            // The claim file's mtime is the lease clock, but rename
            // preserves the *publish*-time mtime — touch it so the lease
            // starts now, not when the job entered the queue (otherwise
            // any job claimed later than the steal timeout after
            // submission would be requeued immediately). Best-effort: a
            // failed touch degrades to an early requeue, never a loss.
            if let Ok(file) = std::fs::OpenOptions::new().write(true).open(&claim) {
                let _ = file.set_modified(SystemTime::now());
            }
            let envelope =
                std::fs::read_to_string(&claim).map_err(|e| format!("{}: {e}", claim.display()))?;
            return Ok(Some(Claimed { id, envelope }));
        }
        Ok(None)
    }

    fn heartbeat(&self, worker: &str, id: u64) -> Result<(), String> {
        // The claim file's mtime is the lease clock (see `claim`), so
        // renewing the lease is touching the file. Best-effort, like the
        // claim-time touch: a failed (or raced-away) touch degrades to
        // an early requeue whose duplicate is discarded, never a loss.
        let prefix = format!("job-{id:08}.");
        let suffix = format!(".{worker}.json");
        for name in Self::sorted_entries(&self.claimed())? {
            if name.starts_with(&prefix) && name.ends_with(&suffix) {
                let path = self.claimed().join(&name);
                if let Ok(file) = std::fs::OpenOptions::new().write(true).open(&path) {
                    let _ = file.set_modified(SystemTime::now());
                }
            }
        }
        Ok(())
    }

    fn deliver(&self, worker: &str, id: u64, envelope: &str) -> Result<Delivered, String> {
        let final_path = self.result_path(id);
        let read_existing = || {
            std::fs::read_to_string(&final_path)
                .map_err(|e| format!("{}: {e}", final_path.display()))
        };
        if final_path.exists() {
            return Ok(Delivered::Duplicate {
                existing: read_existing()?,
            });
        }
        // First delivery wins *atomically*: hard_link fails with
        // AlreadyExists if a result landed between the check above and
        // now (two workers completing the same requeued job on a shared
        // mount), so a racing duplicate can never silently overwrite the
        // stored bytes and dodge the comparison. Filesystems without
        // hard links (SMB, FAT) fall back to rename — publish-time
        // semantics of the original broker, atomic-visibility preserved,
        // only the vanishingly narrow first-wins race reopened.
        let tmp = self.results().join(format!(".tmp-result-{id}-{worker}"));
        std::fs::write(&tmp, envelope).map_err(|e| format!("{}: {e}", tmp.display()))?;
        match std::fs::hard_link(&tmp, &final_path) {
            Ok(()) => {
                std::fs::remove_file(&tmp).ok();
                Ok(Delivered::Accepted)
            }
            Err(e) if e.kind() == std::io::ErrorKind::AlreadyExists => {
                std::fs::remove_file(&tmp).ok();
                Ok(Delivered::Duplicate {
                    existing: read_existing()?,
                })
            }
            Err(_) if !final_path.exists() => std::fs::rename(&tmp, &final_path)
                .map(|()| Delivered::Accepted)
                .map_err(|e| format!("{}: {e}", final_path.display())),
            Err(_) => {
                std::fs::remove_file(&tmp).ok();
                Ok(Delivered::Duplicate {
                    existing: read_existing()?,
                })
            }
        }
    }

    fn discard_duplicate(&self, worker: &str, id: u64) -> Result<(), String> {
        self.write_atomic(
            &self.results(),
            &format!("dup-{id:08}.{worker}.marker"),
            &format!("dup-{id}-{worker}"),
            "",
        )
    }

    fn record_conflict(&self, worker: &str, id: u64, envelope: &str) -> Result<(), String> {
        self.write_atomic(
            &self.results(),
            &format!("conflict-{id:08}.{worker}.json"),
            &format!("conflict-{id}-{worker}"),
            envelope,
        )
    }

    fn fetch(&self, id: u64) -> Result<Option<String>, String> {
        let path = self.result_path(id);
        match std::fs::read_to_string(&path) {
            Ok(text) => Ok(Some(text)),
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => Ok(None),
            Err(e) => Err(format!("{}: {e}", path.display())),
        }
    }

    fn requeue_expired(&self, base_timeout: Duration) -> Result<usize, String> {
        let now = SystemTime::now();
        let names = Self::sorted_entries(&self.claimed())?;
        let requeues_of = |id: u64| {
            names
                .iter()
                .filter(|n| n.ends_with(".requeued") && parse_job_id(n) == Some(id))
                .count() as u32
        };
        let mut requeued = 0;
        for name in &names {
            if !name.ends_with(".json") {
                continue; // already marked .requeued
            }
            let Some(id) = parse_job_id(name) else {
                continue;
            };
            if self.result_path(id).exists() {
                continue;
            }
            let path = self.claimed().join(name);
            let required = requeue_backoff(base_timeout, requeues_of(id));
            let stale = std::fs::metadata(&path)
                .and_then(|m| m.modified())
                .ok()
                .and_then(|t| now.duration_since(t).ok())
                .is_some_and(|age| age >= required);
            if !stale {
                continue;
            }
            // Copy the claim back into jobs/ under a fresh submission
            // number, then mark the claim so it is not requeued again.
            let Ok(envelope) = std::fs::read_to_string(&path) else {
                continue; // raced with the worker finishing; harmless
            };
            self.publish(id, &envelope)?;
            let marked = self.claimed().join(format!("{name}.requeued"));
            std::fs::rename(&path, &marked).ok();
            requeued += 1;
        }
        Ok(requeued)
    }

    fn stop(&self) -> Result<(), String> {
        let stop = self.root.join("stop");
        std::fs::write(&stop, b"").map_err(|e| format!("{}: {e}", stop.display()))
    }

    fn stopped(&self) -> Result<bool, String> {
        Ok(self.root.join("stop").exists())
    }

    fn conflicts(&self) -> Result<Vec<String>, String> {
        Ok(Self::sorted_entries(&self.results())?
            .into_iter()
            .filter(|n| n.starts_with("conflict-"))
            .map(|name| {
                format!(
                    "diverging duplicate result recorded at {}",
                    self.results().join(name).display()
                )
            })
            .collect())
    }

    fn counters(&self) -> Result<QueueStats, String> {
        let claimed = Self::sorted_entries(&self.claimed())?;
        let results = Self::sorted_entries(&self.results())?;
        Ok(QueueStats {
            // Every successful claim leaves exactly one file in claimed/
            // (requeue marking renames it in place).
            steals: claimed.len(),
            requeues: claimed.iter().filter(|n| n.ends_with(".requeued")).count(),
            duplicates_discarded: results.iter().filter(|n| n.starts_with("dup-")).count(),
            conflicts: results
                .iter()
                .filter(|n| n.starts_with("conflict-"))
                .count(),
        })
    }
}

/// Locate the `affidavit-worker` executable: the `AFFIDAVIT_WORKER_BIN`
/// environment variable if set, otherwise a sibling of the current
/// executable (all workspace binaries land in the same target directory).
pub fn worker_binary() -> Result<PathBuf, String> {
    if let Ok(path) = std::env::var("AFFIDAVIT_WORKER_BIN") {
        let path = PathBuf::from(path);
        if path.is_file() {
            return Ok(path);
        }
        return Err(format!(
            "AFFIDAVIT_WORKER_BIN={} does not exist",
            path.display()
        ));
    }
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let sibling = exe
        .parent()
        .ok_or("current executable has no parent directory")?
        .join(format!("affidavit-worker{}", std::env::consts::EXE_SUFFIX));
    if sibling.is_file() {
        Ok(sibling)
    } else {
        Err(format!(
            "affidavit-worker not found next to {} (build it with \
             `cargo build -p affidavit-dist` or set AFFIDAVIT_WORKER_BIN)",
            exe.display()
        ))
    }
}

/// Where a spawned `affidavit-worker` should steal from: a spool
/// directory (`--broker`) or a coordinator's TCP listener (`--connect`).
#[derive(Debug, Clone)]
pub enum WorkerEndpoint {
    /// A shared spool directory ([`FsBroker`]).
    Spool(PathBuf),
    /// A coordinator listener address, `HOST:PORT`
    /// ([`TcpBroker`](crate::tcp::TcpBroker)).
    Tcp(String),
}

/// A spawned worker child process, killed on drop if still running.
#[derive(Debug)]
pub struct WorkerHandle {
    child: Child,
    /// The worker's id (`proc-<n>`), as it will appear in results.
    pub worker_id: String,
}

impl WorkerHandle {
    /// Whether the process has exited, without blocking.
    pub fn try_finished(&mut self) -> bool {
        matches!(self.child.try_wait(), Ok(Some(_)))
    }

    /// Wait for the process to exit and report success.
    pub fn wait(&mut self) -> Result<bool, String> {
        self.child
            .wait()
            .map(|status| status.success())
            .map_err(|e| e.to_string())
    }

    /// Kill the process immediately (fault injection in tests; the
    /// coordinator's protocol must treat this exactly like a straggler).
    pub fn kill(&mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
    }
}

impl Drop for WorkerHandle {
    fn drop(&mut self) {
        if self.child.try_wait().map(|s| s.is_none()).unwrap_or(false) {
            let _ = self.child.kill();
            let _ = self.child.wait();
        }
    }
}

/// Spawn `n` real `affidavit-worker` child processes against a broker
/// endpoint. Their stderr is inherited (worker diagnostics stay
/// visible); stdout is discarded.
pub fn spawn_workers(
    worker_bin: &Path,
    endpoint: &WorkerEndpoint,
    n: usize,
    poll: Duration,
) -> Result<Vec<WorkerHandle>, String> {
    (0..n)
        .map(|i| {
            let worker_id = format!("proc-{i}");
            let mut command = Command::new(worker_bin);
            match endpoint {
                WorkerEndpoint::Spool(dir) => command.arg("--broker").arg(dir),
                WorkerEndpoint::Tcp(addr) => command.arg("--connect").arg(addr),
            };
            command
                .arg("--worker-id")
                .arg(&worker_id)
                .arg("--poll-ms")
                .arg(poll.as_millis().max(1).to_string())
                .stdin(Stdio::null())
                .stdout(Stdio::null())
                .spawn()
                .map(|child| WorkerHandle { child, worker_id })
                .map_err(|e| format!("spawning {}: {e}", worker_bin.display()))
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::job::{Job, JobOutcome, JobPayload, JobResult};
    use crate::queue::JobQueue;
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

    fn temp_root(tag: &str) -> PathBuf {
        let root = std::env::temp_dir().join(format!("affidavit-broker-test-{tag}"));
        std::fs::remove_dir_all(&root).ok();
        root
    }

    #[test]
    fn steal_is_exclusive_and_fifo_by_id() {
        let root = temp_root("steal");
        let broker = FsBroker::open(&root).unwrap();
        broker.submit(&dummy_job(1)).unwrap();
        broker.submit(&dummy_job(0)).unwrap();
        // Sorted file names put job 0 first even though it was submitted
        // second.
        assert_eq!(broker.steal("a").unwrap().unwrap().id, 0);
        assert_eq!(broker.steal("b").unwrap().unwrap().id, 1);
        assert!(broker.steal("a").unwrap().is_none());
        assert_eq!(broker.stats().unwrap().steals, 2);
        std::fs::remove_dir_all(&root).ok();
    }

    #[test]
    fn results_roundtrip_and_duplicates_are_checked() {
        let root = temp_root("results");
        let broker = FsBroker::open(&root).unwrap();
        broker.complete("a", &dummy_result(4, "a", "same")).unwrap();
        broker.complete("b", &dummy_result(4, "b", "same")).unwrap();
        assert_eq!(broker.fetch_result(4).unwrap().unwrap().worker, "a");
        assert_eq!(broker.stats().unwrap().duplicates_discarded, 1);
        assert!(broker.check_health().is_ok());
        broker
            .complete("c", &dummy_result(4, "c", "DIFFERENT"))
            .unwrap();
        assert!(broker.check_health().unwrap_err().contains("diverging"));
        assert_eq!(broker.stats().unwrap().conflicts, 1);
        std::fs::remove_dir_all(&root).ok();
    }

    #[test]
    fn stragglers_are_requeued_once() {
        let root = temp_root("stragglers");
        let broker = FsBroker::open(&root).unwrap();
        broker.submit(&dummy_job(9)).unwrap();
        // A worker claims the job and then hangs (we simply never
        // complete it).
        let job = broker.steal("slow").unwrap().unwrap();
        assert_eq!(job.id, 9);
        assert!(broker.steal("fast").unwrap().is_none());
        // With a zero timeout the claim is immediately stale.
        assert_eq!(broker.recover_stragglers(Duration::ZERO).unwrap(), 1);
        // The re-published copy is stealable by another worker; the old
        // claim is marked and not requeued again.
        assert_eq!(broker.recover_stragglers(Duration::ZERO).unwrap(), 0);
        let again = broker.steal("fast").unwrap().unwrap();
        assert_eq!(again.id, 9);
        assert_eq!(broker.requeued_count(), 1);
        assert_eq!(broker.stats().unwrap().requeues, 1);
        // Once a result lands, recovery leaves everything alone.
        broker
            .complete("fast", &dummy_result(9, "fast", "done"))
            .unwrap();
        assert_eq!(broker.recover_stragglers(Duration::ZERO).unwrap(), 0);
        std::fs::remove_dir_all(&root).ok();
    }

    #[test]
    fn heartbeat_renews_the_claim_file_lease() {
        let root = temp_root("heartbeat");
        let broker = FsBroker::open(&root).unwrap();
        broker.submit(&dummy_job(5)).unwrap();
        let _ = broker.steal("w").unwrap().unwrap();
        // Backdate the claim file far past the timeout — a straggler by
        // the lease clock — then heartbeat: the mtime touch renews the
        // lease, so the requeue pass leaves the job alone.
        let claimed = root.join("claimed");
        let backdate = || {
            for entry in std::fs::read_dir(&claimed).unwrap() {
                let file = std::fs::OpenOptions::new()
                    .write(true)
                    .open(entry.unwrap().path())
                    .unwrap();
                file.set_modified(SystemTime::now() - Duration::from_secs(60))
                    .unwrap();
            }
        };
        backdate();
        broker.transport().heartbeat("w", 5).unwrap();
        let timeout = Duration::from_secs(30);
        assert_eq!(broker.recover_stragglers(timeout).unwrap(), 0);
        // The same backdated claim without a heartbeat is a straggler;
        // another worker's heartbeat must not renew it either.
        backdate();
        broker.transport().heartbeat("other", 5).unwrap();
        assert_eq!(broker.recover_stragglers(timeout).unwrap(), 1);
        std::fs::remove_dir_all(&root).ok();
    }

    #[test]
    fn lease_clock_starts_at_claim_not_publish() {
        let root = temp_root("lease-clock");
        let broker = FsBroker::open(&root).unwrap();
        broker.submit(&dummy_job(5)).unwrap();
        // The job sits in the queue longer than the steal timeout before
        // anyone claims it...
        std::thread::sleep(Duration::from_millis(60));
        let _ = broker.steal("w").unwrap().unwrap();
        // ...and must NOT be treated as a straggler the moment it is
        // claimed: the lease began at claim, not at publish.
        assert_eq!(
            broker
                .recover_stragglers(Duration::from_millis(40))
                .unwrap(),
            0,
            "a freshly claimed job is not a straggler, however long it queued"
        );
        std::fs::remove_dir_all(&root).ok();
    }

    #[test]
    fn ensure_fresh_rejects_stale_spools() {
        let root = temp_root("fresh");
        let broker = FsBroker::open(&root).unwrap();
        assert!(broker.ensure_fresh().is_ok());
        broker.submit(&dummy_job(0)).unwrap();
        assert!(broker.ensure_fresh().unwrap_err().contains("stale"));
        // A completed previous run (results + stop) is just as stale.
        let _ = broker.steal("w").unwrap().unwrap();
        broker.complete("w", &dummy_result(0, "w", "done")).unwrap();
        broker.request_shutdown().unwrap();
        assert!(broker.ensure_fresh().unwrap_err().contains("stop"));
        std::fs::remove_dir_all(&root).ok();
    }

    #[test]
    fn ensure_fresh_diagnoses_conflict_leftovers() {
        // A crashed run that recorded diverging duplicates must be
        // called out by name — that spool is evidence, not clutter.
        let root = temp_root("fresh-conflict");
        let broker = FsBroker::open(&root).unwrap();
        broker.complete("a", &dummy_result(3, "a", "one")).unwrap();
        broker.complete("b", &dummy_result(3, "b", "two")).unwrap();
        let err = broker.ensure_fresh().unwrap_err();
        assert!(
            err.contains("1 diverging-duplicate conflict file(s)"),
            "{err}"
        );
        assert!(err.contains("conflict-00000003.b.json"), "{err}");
        assert!(err.contains("determinism"), "{err}");
        std::fs::remove_dir_all(&root).ok();
    }

    #[test]
    fn shutdown_stops_handing_out_pending_jobs() {
        let root = temp_root("abandon");
        let broker = FsBroker::open(&root).unwrap();
        broker.submit(&dummy_job(0)).unwrap();
        broker.request_shutdown().unwrap();
        assert!(broker.steal("w").unwrap().is_none());
        std::fs::remove_dir_all(&root).ok();
    }

    #[test]
    fn shutdown_crosses_broker_instances() {
        let root = temp_root("shutdown");
        let coordinator = FsBroker::open(&root).unwrap();
        let worker_side = FsBroker::open(&root).unwrap();
        assert!(!worker_side.shutdown_requested().unwrap());
        coordinator.request_shutdown().unwrap();
        assert!(worker_side.shutdown_requested().unwrap());
        std::fs::remove_dir_all(&root).ok();
    }
}
