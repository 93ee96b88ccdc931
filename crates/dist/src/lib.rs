//! Distributed work-stealing for whole-snapshot profiling.
//!
//! The paper's operating point — "database snapshots with **hundreds of
//! tables**" — outgrows one machine before it outgrows the algorithm.
//! This crate fans the profiling workload out over a job queue with
//! work-stealing:
//!
//! * [`wire`] — a versioned, self-describing serialization of
//!   [`ProblemInstance`](affidavit_core::ProblemInstance) +
//!   [`AffidavitConfig`](affidavit_core::AffidavitConfig) (and of
//!   results), covered by round-trip and golden-bytes tests.
//! * [`queue`] — the [`JobQueue`] abstraction and the [`LeaseTable`],
//!   the one work-stealing queue: published jobs, exclusive claims under
//!   a lease, delivered results, straggler re-publication, stop.
//! * [`transport`] — the transport seam: the work-stealing protocol
//!   (publish → exclusive claim/lease → deliver → straggler
//!   re-publication with backoff → duplicate compare-and-discard → stop)
//!   expressed **once**, in [`Broker`], against the [`Transport`] trait's
//!   operations on opaque wire envelopes. In-process worker threads
//!   steal from `Broker<LeaseTable>` directly.
//! * [`frame`] — the length-prefixed frame codec under every socket
//!   protocol (this crate's steal loop and the `affidavit-serve` client
//!   API), with progress-based stall timeouts.
//! * [`tcp`] — how worker processes reach the table: the coordinator's
//!   [`TcpBroker`] serves it on a listener; `affidavit-worker --connect
//!   HOST:PORT` multiplexes framed request/response exchanges over one
//!   keep-alive connection, so no shared filesystem is needed and a
//!   dropped connection mid-job is just a straggler.
//! * [`coordinate`] — the coordinator: one submit/wait/requeue/shutdown
//!   sequence for thread and process workers alike; results are absorbed
//!   **in job-id order** with [`SymRemap`](affidavit_table::SymRemap)
//!   pool merging, so the rendered profile is byte-identical to the
//!   single-process run at every worker count
//!   (`tests/properties_dist.rs`, `tests/properties_transport.rs`).
//!
//! Determinism does not depend on the queue: every job result is a pure
//! function of the job bytes (the engine underneath is byte-identical at
//! any thread count), so straggler retries that complete twice degrade
//! to *wasted work*, never to nondeterminism.
//!
//! ```
//! use std::time::Duration;
//! use affidavit_core::{AffidavitConfig, Affidavit, ProblemInstance};
//! use affidavit_core::report::render_report;
//! use affidavit_dist::queue::{JobQueue, LeaseTable};
//! use affidavit_dist::transport::Broker;
//! use affidavit_dist::coordinate::explain_via;
//! use affidavit_dist::worker::run_worker;
//! use affidavit_table::{Schema, Table, ValuePool};
//!
//! let build = || {
//!     let mut pool = ValuePool::new();
//!     let s = Table::from_rows(Schema::new(["Val"]), &mut pool,
//!         vec![vec!["80000"], vec!["21000"], vec!["65000"]]);
//!     let t = Table::from_rows(Schema::new(["Val"]), &mut pool,
//!         vec![vec!["80"], vec!["21"], vec!["65"]]);
//!     ProblemInstance::new(s, t, pool).unwrap()
//! };
//! let cfg = AffidavitConfig::paper_id();
//!
//! // Distribute the search over one worker thread...
//! let queue = Broker::new(LeaseTable::new());
//! let mut instance = build();
//! let remote = std::thread::scope(|scope| {
//!     scope.spawn(|| run_worker(&queue, "w0", Duration::from_millis(1)));
//!     let remote = explain_via(&queue, &mut instance, &cfg, Duration::from_secs(60));
//!     queue.request_shutdown().unwrap();
//!     remote
//! }).unwrap();
//!
//! // ...and the absorbed result renders byte-identically to a local run.
//! let mut local = build();
//! let outcome = Affidavit::new(cfg).explain(&mut local);
//! assert_eq!(
//!     render_report(&remote.explanation, &instance),
//!     render_report(&outcome.explanation, &local),
//! );
//! ```

#![warn(missing_docs)]

pub mod coordinate;
pub mod frame;
pub mod job;
pub mod queue;
pub mod tcp;
pub mod transport;
pub mod wire;
pub mod worker;

pub use coordinate::{
    absorb_result, execute_jobs, explain_via, profile_dirs_distributed, spawn_workers,
    worker_binary, DistBackend, DistOptions, DistStats, RemoteExplanation, WorkerHandle,
};
pub use frame::{
    configure_stream, read_frame, write_frame, FrameConfig, FrameRead, MAX_FRAME_BYTES,
};
pub use job::{
    decode_job, decode_result, encode_job, encode_result, Job, JobOutcome, JobPayload, JobResult,
};
pub use queue::{JobQueue, LeaseTable, QueueStats};
pub use tcp::{TcpBroker, TcpClient};
pub use transport::{requeue_backoff, Broker, Claimed, Delivered, Transport};
pub use wire::{WireConfig, WireFunction, WireInstance, WIRE_FORMAT, WIRE_VERSION};
pub use worker::{
    run_worker, run_worker_with_reconnect, WorkerExit, WorkerStats, BROKER_LOST_EXIT_CODE,
};
