//! The coordinator: fan jobs out, absorb results deterministically.
//!
//! [`execute_jobs`] runs a job list to completion on either backend and
//! returns the results keyed by job id. [`absorb_result`] merges one
//! result into the coordinator's pool — the cross-process version of the
//! ScratchPool absorb step: the worker's pool suffix is re-interned in
//! worker order and the result's symbols are rewritten through the
//! returned [`SymRemap`](affidavit_table::SymRemap). Because absorption
//! happens in job-id order and each result is a pure function of its job,
//! the coordinator's final state is independent of worker count,
//! scheduling, duplicates and straggler retries.

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

use affidavit_core::profiling::{
    outcome_for, paired_csv_stems, stage_file_pair, ProfileOptions, SnapshotProfile, TableOutcome,
    TableProfile,
};
use affidavit_core::{AffidavitConfig, Explanation, ProblemInstance};

use crate::broker::{spawn_workers, worker_binary, FsBroker, WorkerEndpoint, WorkerHandle};
use crate::job::{Job, JobOutcome, JobPayload, JobResult};
use crate::queue::{InProcessQueue, JobQueue, QueueStats};
use crate::tcp::TcpBroker;
use crate::transport::{Broker, Transport};
use crate::wire::{WireConfig, WireInstance};
use crate::worker::run_worker;

/// Where the workers live, and which transport carries the protocol.
#[derive(Debug, Clone, Default)]
pub enum DistBackend {
    /// Worker threads inside this process over an
    /// [`InProcessQueue`] — tests, doctests, library embedding.
    #[default]
    InProcess,
    /// Real `affidavit-worker` child processes over an [`FsBroker`]
    /// spool directory (requires a filesystem the coordinator and all
    /// workers share).
    ChildProcesses {
        /// Spool directory; `None` = a fresh temp directory, removed on
        /// completion. Point it at shared storage to let externally
        /// started workers steal from the same run.
        broker_dir: Option<PathBuf>,
        /// Worker executable; `None` = resolve via
        /// [`worker_binary`].
        worker_bin: Option<PathBuf>,
    },
    /// Real `affidavit-worker` child processes over a
    /// [`TcpBroker`] — no shared filesystem needed; externally started
    /// workers dial `affidavit-worker --connect HOST:PORT`.
    Tcp {
        /// Coordinator bind address; `None` = `127.0.0.1:0` (loopback,
        /// OS-chosen port). Bind a routable address to accept workers
        /// from other machines.
        listen: Option<String>,
        /// Worker executable; `None` = resolve via
        /// [`worker_binary`].
        worker_bin: Option<PathBuf>,
    },
}

/// Knobs of a distributed run.
#[derive(Debug, Clone)]
pub struct DistOptions {
    /// Worker count (threads or child processes). `0` autosizes to one
    /// per hardware thread ([`std::thread::available_parallelism`]).
    pub workers: usize,
    /// Transport and worker placement.
    pub backend: DistBackend,
    /// How many copies of every job to enqueue (speculative duplicate
    /// dispatch; the extras are stolen by idle workers and their results
    /// discarded). `1` — the default — disables it.
    pub redundancy: usize,
    /// Claims older than this without a result are re-published for other
    /// workers to steal.
    pub steal_timeout: Duration,
    /// Hard cap on the whole run.
    pub deadline: Duration,
    /// Worker/coordinator polling nap.
    pub poll: Duration,
    /// Run [`Explanation::validate`] on every absorbed result (full
    /// re-application of the learned functions — slower, but proves the
    /// worker's explanation against the coordinator's own data).
    pub validate: bool,
}

impl Default for DistOptions {
    fn default() -> DistOptions {
        DistOptions {
            workers: 2,
            backend: DistBackend::InProcess,
            redundancy: 1,
            steal_timeout: Duration::from_secs(30),
            deadline: Duration::from_secs(600),
            poll: Duration::from_millis(2),
            validate: false,
        }
    }
}

/// Counters describing one distributed run. The steal-loop counters
/// (`steals`, `stragglers_requeued`, `duplicates_discarded`,
/// `conflicts`) come from the queue's [`QueueStats`] and carry the same
/// meaning on every transport.
#[derive(Debug, Clone, Copy, Default)]
pub struct DistStats {
    /// Jobs dispatched (distinct ids).
    pub jobs: usize,
    /// Workers that served the run.
    pub workers: usize,
    /// Successful exclusive claims across the run (≥ `jobs`: requeues
    /// and redundancy add claims).
    pub steals: usize,
    /// Duplicate results checked and discarded (redundancy, straggler
    /// double-completion).
    pub duplicates_discarded: usize,
    /// Claims re-published after the straggler timeout.
    pub stragglers_requeued: usize,
    /// Diverging duplicates — always 0 in a healthy run (a nonzero count
    /// fails the run before results are absorbed).
    pub conflicts: usize,
}

impl DistStats {
    fn absorb_queue(&mut self, counters: QueueStats) {
        self.steals = counters.steals;
        self.duplicates_discarded = counters.duplicates_discarded;
        self.stragglers_requeued = counters.requeues;
        self.conflicts = counters.conflicts;
    }

    /// Publish these counters into the process-wide metrics registry
    /// under the `dist_*` series, verbatim.
    pub fn publish(&self) {
        let m = affidavit_obs::metrics();
        m.set_counter("dist_jobs", self.jobs as u64);
        m.set_counter("dist_workers", self.workers as u64);
        m.set_counter("dist_steals", self.steals as u64);
        m.set_counter(
            "dist_duplicates_discarded",
            self.duplicates_discarded as u64,
        );
        m.set_counter("dist_stragglers_requeued", self.stragglers_requeued as u64);
        m.set_counter("dist_conflicts", self.conflicts as u64);
    }
}

/// Run `jobs` to completion and return all results keyed by job id.
/// Jobs are taken by value: their (potentially snapshot-sized) payloads
/// are released as soon as they are handed to the queue, so coordinator
/// memory during the wait is bounded by the id/name manifest, not the
/// serialized corpus.
pub fn execute_jobs(
    jobs: Vec<Job>,
    opts: &DistOptions,
) -> Result<(BTreeMap<u64, JobResult>, DistStats), String> {
    let _span = affidavit_obs::span_with(
        "dist.execute",
        vec![("jobs".to_owned(), jobs.len().to_string())],
    );
    let workers = affidavit_core::resolve_parallelism(opts.workers);
    let mut stats = DistStats {
        jobs: jobs.len(),
        workers,
        ..DistStats::default()
    };
    if jobs.is_empty() {
        stats.publish();
        return Ok((BTreeMap::new(), stats));
    }
    let manifest: Vec<u64> = jobs.iter().map(|j| j.id).collect();
    match &opts.backend {
        DistBackend::InProcess => {
            let queue = InProcessQueue::new();
            submit_all(&queue, jobs, opts.redundancy)?;
            let results = std::thread::scope(|scope| -> Result<_, String> {
                let handles: Vec<_> = (0..workers)
                    .map(|w| {
                        let queue = &queue;
                        let poll = opts.poll;
                        let id = format!("local-{w}");
                        scope.spawn(move || run_worker(queue, &id, poll))
                    })
                    .collect();
                let results = wait_for_results(&queue, &manifest, opts, |_| Ok(()));
                // Always release the workers, even on error, or the scope
                // would never join.
                queue.request_shutdown()?;
                for handle in handles {
                    handle
                        .join()
                        .map_err(|_| "worker thread panicked".to_owned())??;
                }
                results
            })?;
            // Late duplicates (redundancy stragglers completing during
            // shutdown) have all been compared once the threads joined.
            queue.check_health()?;
            stats.absorb_queue(queue.stats()?);
            stats.publish();
            Ok((results, stats))
        }
        DistBackend::ChildProcesses {
            broker_dir,
            worker_bin,
        } => {
            // A unique spool per run; an explicit --broker directory must
            // be fresh (job ids restart at 0 every run, so stale results
            // would be absorbed as this run's). On failure the spool is
            // left behind for post-mortem.
            static RUN: std::sync::atomic::AtomicU64 = std::sync::atomic::AtomicU64::new(0);
            let (root, owned) = match broker_dir {
                Some(dir) => (dir.clone(), false),
                None => {
                    // pid + counter alone can collide with a failed
                    // run's leftover spool after PID recycling; the
                    // nanosecond stamp makes the path unique.
                    let nanos = std::time::SystemTime::now()
                        .duration_since(std::time::UNIX_EPOCH)
                        .map(|d| d.as_nanos())
                        .unwrap_or(0);
                    let dir = std::env::temp_dir().join(format!(
                        "affidavit-dist-{}-{}-{nanos}",
                        std::process::id(),
                        RUN.fetch_add(1, std::sync::atomic::Ordering::Relaxed)
                    ));
                    (dir, true)
                }
            };
            let bin = resolve_worker_bin(worker_bin)?;
            let broker = FsBroker::open(&root)?;
            // Even an owned temp spool is checked: job ids restart at 0
            // every run, so absorbing any leftover would silently
            // corrupt this run's profile — better to refuse loudly.
            broker.ensure_fresh()?;
            let endpoint = WorkerEndpoint::Spool(root.clone());
            let results = run_fleet(&broker, &bin, &endpoint, workers, jobs, &manifest, opts)?;
            stats.absorb_queue(broker.stats()?);
            stats.publish();
            if owned {
                std::fs::remove_dir_all(&root).ok();
            }
            Ok((results, stats))
        }
        DistBackend::Tcp { listen, worker_bin } => {
            let bin = resolve_worker_bin(worker_bin)?;
            let broker = Broker::new(TcpBroker::bind(listen.as_deref().unwrap_or("127.0.0.1:0"))?);
            let endpoint = WorkerEndpoint::Tcp(broker.transport().local_addr().to_string());
            let results = run_fleet(&broker, &bin, &endpoint, workers, jobs, &manifest, opts)?;
            stats.absorb_queue(broker.stats()?);
            stats.publish();
            Ok((results, stats))
        }
    }
}

fn resolve_worker_bin(worker_bin: &Option<PathBuf>) -> Result<PathBuf, String> {
    match worker_bin {
        Some(path) => Ok(path.clone()),
        None => worker_binary(),
    }
}

/// Drive a fleet of real `affidavit-worker` child processes over any
/// transport: spawn, submit, wait with straggler recovery and liveness
/// checks, wind down. The transport seam keeps this — the whole
/// coordinator side of the protocol — identical for the spool directory
/// and the TCP listener.
fn run_fleet<T: Transport>(
    queue: &crate::transport::Broker<T>,
    worker_bin: &Path,
    endpoint: &WorkerEndpoint,
    workers: usize,
    jobs: Vec<Job>,
    manifest: &[u64],
    opts: &DistOptions,
) -> Result<BTreeMap<u64, JobResult>, String> {
    let mut children = spawn_workers(worker_bin, endpoint, workers, opts.poll)?;
    let run = |children: &mut Vec<WorkerHandle>| -> Result<BTreeMap<u64, JobResult>, String> {
        submit_all(queue, jobs, opts.redundancy)?;
        let mut last_recovery = Instant::now();
        wait_for_results(queue, manifest, opts, |queue| {
            // Straggler recovery + child liveness, once per timeout
            // window.
            if last_recovery.elapsed() >= opts.steal_timeout {
                last_recovery = Instant::now();
                let _span = affidavit_obs::span("dist.requeue");
                queue.transport().requeue_expired(opts.steal_timeout)?;
            }
            if children.iter_mut().all(|c| c.try_finished()) {
                return Err("all workers exited before the run completed".to_owned());
            }
            Ok(())
        })
    };
    let results = run(&mut children);
    // Wind down the fleet whether the run succeeded or not; the
    // WorkerHandle drop kills anything that ignores the request. The
    // run's own error stays the headline — a shutdown that fails
    // because the transport is already gone must not mask it.
    let shutdown = queue.request_shutdown();
    let results = results?;
    shutdown?;
    for child in &mut children {
        if !child.wait()? {
            return Err(format!("worker {} exited with failure", child.worker_id));
        }
    }
    // The fleet has drained: any straggler duplicate that completed
    // after the last fresh result has been compared by now — surface a
    // late-recorded divergence instead of absorbing quietly.
    queue.check_health()?;
    Ok(results)
}

/// Hand every job (and its `redundancy − 1` speculative copies) to the
/// queue, dropping each payload as soon as the last copy is submitted.
fn submit_all(queue: &dyn JobQueue, jobs: Vec<Job>, redundancy: usize) -> Result<(), String> {
    for job in jobs {
        for _ in 0..redundancy.max(1) {
            queue.submit(&job)?;
        }
    }
    Ok(())
}

fn wait_for_results<Q: JobQueue>(
    queue: &Q,
    manifest: &[u64],
    opts: &DistOptions,
    mut tick: impl FnMut(&Q) -> Result<(), String>,
) -> Result<BTreeMap<u64, JobResult>, String> {
    let deadline = Instant::now() + opts.deadline;
    let mut results: BTreeMap<u64, JobResult> = BTreeMap::new();
    loop {
        let mut fetched_new = false;
        for &id in manifest {
            if let std::collections::btree_map::Entry::Vacant(slot) = results.entry(id) {
                if let Some(result) = queue.fetch_result(id)? {
                    slot.insert(result);
                    fetched_new = true;
                }
            }
        }
        // Conflicts appear only around (duplicate) deliveries, so the
        // health scan — a full results-directory listing on the fs
        // transport — runs on result arrival, not on every poll nap;
        // the fleet teardown does one final check for late duplicates.
        if fetched_new {
            queue.check_health()?;
        }
        if manifest.iter().all(|id| results.contains_key(id)) {
            return Ok(results);
        }
        tick(queue)?;
        if Instant::now() >= deadline {
            return Err(format!(
                "distributed run exceeded its deadline with {}/{} results",
                results.len(),
                manifest.len()
            ));
        }
        std::thread::sleep(opts.poll);
    }
}

/// A worker's explanation, merged into the coordinator's pool.
#[derive(Debug)]
pub struct RemoteExplanation {
    /// The explanation, symbol-valid against the coordinator's pool.
    pub explanation: Explanation,
    /// States the worker's search polled.
    pub polled: usize,
    /// States the worker's search expanded.
    pub expansions: usize,
    /// Worker-side search wall time in milliseconds.
    pub millis: u64,
}

/// Merge one result into the instance it was computed from. `base_len`
/// must be the pool length at ship time ([`WireInstance::base_len`]).
pub fn absorb_result(
    instance: &mut ProblemInstance,
    base_len: usize,
    result: &JobResult,
    validate: bool,
) -> Result<RemoteExplanation, String> {
    let (new_strings, functions, core, deleted, inserted, polled, expansions, millis) =
        match &result.outcome {
            JobOutcome::Failed { reason } => return Err(reason.clone()),
            JobOutcome::Explained {
                new_strings,
                functions,
                core,
                deleted,
                inserted,
                polled,
                expansions,
                millis,
            } => (
                new_strings,
                functions,
                core,
                deleted,
                inserted,
                polled,
                expansions,
                millis,
            ),
        };
    // The cross-process pool merge: the worker's suffix behaves exactly
    // like a ScratchPool overlay frozen at base_len.
    let remap = instance
        .pool
        .absorb_strs(base_len, new_strings.iter().map(String::as_str));
    let worker_pool_len = base_len + new_strings.len();
    let functions = functions
        .iter()
        .map(|wf| wf.to_attr(worker_pool_len).map(|f| f.remap(&remap)))
        .collect::<Result<Vec<_>, String>>()?;
    let (n_src, n_tgt) = (instance.source.len() as u32, instance.target.len() as u32);
    let src_id = |r: &u32| -> Result<affidavit_table::RecordId, String> {
        if *r < n_src {
            Ok(affidavit_table::RecordId(*r))
        } else {
            Err(format!("source row {r} out of range ({n_src} rows)"))
        }
    };
    let tgt_id = |r: &u32| -> Result<affidavit_table::RecordId, String> {
        if *r < n_tgt {
            Ok(affidavit_table::RecordId(*r))
        } else {
            Err(format!("target row {r} out of range ({n_tgt} rows)"))
        }
    };
    let explanation = Explanation::new(
        functions,
        deleted.iter().map(src_id).collect::<Result<_, _>>()?,
        inserted.iter().map(tgt_id).collect::<Result<_, _>>()?,
        core.iter()
            .map(|(s, t)| Ok((src_id(s)?, tgt_id(t)?)))
            .collect::<Result<_, String>>()?,
    );
    if validate {
        explanation.validate(instance)?;
    }
    Ok(RemoteExplanation {
        explanation,
        polled: *polled as usize,
        expansions: *expansions as usize,
        millis: *millis,
    })
}

/// Distribute one search: submit the instance as a job and absorb the
/// result. The queue must have at least one live worker (thread or
/// process). The returned explanation — and hence
/// `report::render_report` over it — is byte-identical to a local
/// [`Affidavit::explain`](affidavit_core::Affidavit::explain) run.
pub fn explain_via(
    queue: &dyn JobQueue,
    instance: &mut ProblemInstance,
    config: &AffidavitConfig,
    deadline: Duration,
) -> Result<RemoteExplanation, String> {
    let base_len = instance.pool.len();
    let job = Job {
        id: 0,
        name: "explain".to_owned(),
        payload: JobPayload::Explain {
            instance: WireInstance::from_instance(instance),
            config: WireConfig(config.clone()),
        },
    };
    queue.submit(&job)?;
    let until = Instant::now() + deadline;
    let result = loop {
        if let Some(result) = queue.fetch_result(job.id)? {
            break result;
        }
        queue.check_health()?;
        if Instant::now() >= until {
            return Err("explain_via exceeded its deadline".to_owned());
        }
        std::thread::sleep(Duration::from_millis(1));
    };
    absorb_result(instance, base_len, &result, false)
}

/// Distributed [`profile_dirs`](affidavit_core::profiling::profile_dirs):
/// the same pairing, ingestion, schema repair and summary computation,
/// but with every table pair's search executed as a stealable job.
///
/// The coordinator stages pairs locally — in parallel across pairs, like
/// [`profile_dirs`](affidavit_core::profiling::profile_dirs) — so
/// ingestion failures carry the same messages as the local profiler;
/// ships staged instances to the workers (each serialized payload is
/// released once submitted); and absorbs results in job order. The
/// profile is byte-identical to
/// [`profile_dirs`](affidavit_core::profiling::profile_dirs)
/// at every worker count, except for the wall-time column — strip it with
/// [`SnapshotProfile::strip_timing`] before byte comparisons.
pub fn profile_dirs_distributed(
    source_dir: &Path,
    target_dir: &Path,
    popts: &ProfileOptions,
    dopts: &DistOptions,
) -> Result<(SnapshotProfile, DistStats), String> {
    use rayon::prelude::*;

    enum Staged {
        Ready(TableOutcome),
        Instance(Box<ProblemInstance>, WireInstance),
    }
    enum Slot {
        Ready(TableOutcome),
        Staged(Box<ProblemInstance>, usize),
    }
    let pairs = paired_csv_stems(source_dir, target_dir)?;
    let staged: Vec<Staged> = pairs
        .par_iter()
        .map(|pair| match (&pair.source, &pair.target) {
            (Some(src), Some(tgt)) => match stage_file_pair(src, tgt, popts) {
                Ok(instance) => {
                    let wire = WireInstance::from_instance(&instance);
                    Staged::Instance(Box::new(instance), wire)
                }
                Err(reason) => Staged::Ready(TableOutcome::Failed { reason }),
            },
            (Some(_), None) => Staged::Ready(TableOutcome::MissingInTarget),
            (None, Some(_)) => Staged::Ready(TableOutcome::MissingInSource),
            (None, None) => unreachable!("a paired stem exists in at least one snapshot"),
        })
        .collect();
    let mut slots: Vec<Slot> = Vec::with_capacity(pairs.len());
    let mut jobs: Vec<Job> = Vec::new();
    for (i, (pair, staged)) in pairs.iter().zip(staged).enumerate() {
        slots.push(match staged {
            Staged::Ready(outcome) => Slot::Ready(outcome),
            Staged::Instance(instance, wire) => {
                let base_len = wire.base_len();
                jobs.push(Job {
                    id: i as u64,
                    name: pair.name.clone(),
                    payload: JobPayload::Explain {
                        instance: wire,
                        config: WireConfig(popts.config.clone()),
                    },
                });
                Slot::Staged(instance, base_len)
            }
        });
    }

    let (results, stats) = execute_jobs(jobs, dopts)?;

    let mut tables = Vec::with_capacity(pairs.len());
    for (i, (pair, slot)) in pairs.iter().zip(slots).enumerate() {
        let outcome = match slot {
            Slot::Ready(outcome) => outcome,
            Slot::Staged(mut instance, base_len) => {
                let result = results
                    .get(&(i as u64))
                    .ok_or_else(|| format!("no result for job {i} ({})", pair.name))?;
                match absorb_result(&mut instance, base_len, result, dopts.validate) {
                    Ok(remote) => outcome_for(&remote.explanation, &instance, remote.millis),
                    Err(reason) => TableOutcome::Failed {
                        reason: format!("worker {}: {reason}", result.worker),
                    },
                }
            }
        };
        tables.push(TableProfile {
            name: pair.name.clone(),
            outcome,
        });
    }
    Ok((SnapshotProfile { tables }, stats))
}
