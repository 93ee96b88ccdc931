//! Jobs, results, and the worker-side execution of a job.
//!
//! A [`Job`] is one unit of stealable work: a serialized problem instance
//! plus the full search configuration. Job ids are assigned by the
//! coordinator in its deterministic work order (sorted table names for a
//! profiling run); results are *absorbed in job-id order* no matter which
//! worker finished first, which is one half of the distributed
//! determinism story. The other half is that [`process_job`] is a pure
//! function of the job bytes — the engine underneath is byte-identical at
//! every thread count — so a job that is stolen
//! twice, retried after a straggler timeout, or replayed by a second
//! worker produces the *same* result, and duplicates degrade to wasted
//! work, never to nondeterminism.

use std::time::Instant;

use affidavit_core::{Affidavit, AffidavitConfig};
use affidavit_table::Sym;
use serde::{Deserialize, Serialize};

use crate::wire::{seal, unseal, WireConfig, WireFunction, WireInstance};

/// One stealable unit of work.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Job {
    /// Coordinator-assigned id; results are absorbed in increasing id
    /// order regardless of completion order.
    pub id: u64,
    /// Human-readable label (the table name for profiling jobs).
    pub name: String,
    /// What to compute.
    pub payload: JobPayload,
}

/// The work a job carries. `explain` is the only task; any other `task`
/// tag fails to decode.
#[derive(Debug, Clone, Serialize, Deserialize)]
#[serde(tag = "task", rename_all = "snake_case")]
pub enum JobPayload {
    /// Run the full Affidavit search over a serialized instance.
    Explain {
        /// The serialized problem instance.
        instance: WireInstance,
        /// The search configuration (seed, β, ϱ, threads, …) — the
        /// worker honours it exactly, so its in-process parallelism is
        /// configured from the coordinator.
        config: WireConfig,
    },
}

/// A completed (or failed) job, as shipped back to the coordinator.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct JobResult {
    /// The job's id.
    pub id: u64,
    /// The job's label, echoed back.
    pub name: String,
    /// Which worker produced this result.
    pub worker: String,
    /// The outcome.
    pub outcome: JobOutcome,
}

/// What a worker produced for one job.
#[derive(Debug, Clone, Serialize, Deserialize)]
#[serde(tag = "status", rename_all = "snake_case")]
pub enum JobOutcome {
    /// The search finished. Everything symbol-valued is expressed against
    /// the worker's pool: the shipped prefix (indices below the job's
    /// [`WireInstance::base_len`]) plus `new_strings`, the strings the
    /// search interned past it, in interning order. The coordinator
    /// absorbs `new_strings` into its own pool and rewrites the function
    /// symbols through the resulting
    /// [`SymRemap`](affidavit_table::SymRemap).
    Explained {
        /// Pool growth past the shipped prefix, in interning order.
        new_strings: Vec<String>,
        /// The learned functions, one per attribute, symbol-indexed.
        functions: Vec<WireFunction>,
        /// Core bijection pairs `(source_row, target_row)`.
        core: Vec<(u32, u32)>,
        /// Source rows labelled deleted.
        deleted: Vec<u32>,
        /// Target rows labelled inserted.
        inserted: Vec<u32>,
        /// States polled by the worker's search.
        polled: u64,
        /// States expanded by the worker's search.
        expansions: u64,
        /// Worker-side search wall time in milliseconds (the only
        /// nondeterministic field; strip it before byte comparisons).
        millis: u64,
    },
    /// The job could not be executed (malformed instance, version skew…).
    Failed {
        /// Human-readable reason.
        reason: String,
    },
}

/// Render a job as a wire message.
pub fn encode_job(job: &Job) -> String {
    seal("job", job.to_value())
}

/// Parse a wire message as a job.
pub fn decode_job(text: &str) -> Result<Job, String> {
    Job::from_value(&unseal(text, "job")?).map_err(|e| e.to_string())
}

/// Render a result as a wire message.
pub fn encode_result(result: &JobResult) -> String {
    seal("result", result.to_value())
}

/// Parse a wire message as a result.
pub fn decode_result(text: &str) -> Result<JobResult, String> {
    JobResult::from_value(&unseal(text, "result")?).map_err(|e| e.to_string())
}

/// Execute a job. Never panics on malformed input — decode errors come
/// back as [`JobOutcome::Failed`] so the coordinator does not hang waiting
/// for a result that will never arrive.
pub fn process_job(job: &Job, worker: &str) -> JobResult {
    let JobPayload::Explain { instance, config } = &job.payload;
    let outcome = run_explain(instance, &config.0);
    JobResult {
        id: job.id,
        name: job.name.clone(),
        worker: worker.to_owned(),
        outcome,
    }
}

fn run_explain(wire: &WireInstance, config: &AffidavitConfig) -> JobOutcome {
    let mut instance = match wire.decode() {
        Ok(instance) => instance,
        Err(reason) => return JobOutcome::Failed { reason },
    };
    let base_len = instance.pool.len();
    let started = Instant::now();
    let outcome = Affidavit::new(config.clone()).explain(&mut instance);
    let millis = started.elapsed().as_millis() as u64;
    let e = &outcome.explanation;
    JobOutcome::Explained {
        new_strings: (base_len..instance.pool.len())
            .map(|i| instance.pool.get(Sym(i as u32)).to_owned())
            .collect(),
        functions: e.functions.iter().map(WireFunction::from_attr).collect(),
        core: e.core_pairs().iter().map(|&(s, t)| (s.0, t.0)).collect(),
        deleted: e.deleted.iter().map(|r| r.0).collect(),
        inserted: e.inserted.iter().map(|r| r.0).collect(),
        polled: outcome.stats.polled as u64,
        expansions: outcome.stats.expansions as u64,
        millis,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use affidavit_table::{Schema, Table, ValuePool};

    fn tiny_job(id: u64) -> Job {
        let mut pool = ValuePool::new();
        let s = Table::from_rows(
            Schema::new(["k", "v"]),
            &mut pool,
            (0..12).map(|i| vec![format!("k{i}"), format!("{}", (i + 1) * 1000)]),
        );
        let t = Table::from_rows(
            Schema::new(["k", "v"]),
            &mut pool,
            (0..12).map(|i| vec![format!("k{i}"), format!("{}", i + 1)]),
        );
        let instance = affidavit_core::ProblemInstance::new(s, t, pool).expect("schemas match");
        Job {
            id,
            name: "tiny".to_owned(),
            payload: JobPayload::Explain {
                instance: WireInstance::from_instance(&instance),
                config: WireConfig(AffidavitConfig::paper_id()),
            },
        }
    }

    #[test]
    fn jobs_and_results_roundtrip() {
        let job = tiny_job(3);
        let text = encode_job(&job);
        let back = decode_job(&text).unwrap();
        assert_eq!(back.id, 3);
        assert_eq!(encode_job(&back), text, "re-encoding is a fixed point");

        let result = process_job(&back, "w0");
        let text = encode_result(&result);
        let back = decode_result(&text).unwrap();
        assert_eq!(back.id, 3);
        assert_eq!(back.worker, "w0");
        assert!(matches!(back.outcome, JobOutcome::Explained { .. }));
    }

    #[test]
    fn processing_is_deterministic_across_workers() {
        let job = tiny_job(0);
        let strip = |mut r: JobResult| {
            r.worker = String::new();
            if let JobOutcome::Explained { millis, .. } = &mut r.outcome {
                *millis = 0;
            }
            encode_result(&r)
        };
        let a = strip(process_job(&job, "w0"));
        let b = strip(process_job(&job, "w1"));
        assert_eq!(a, b, "a stolen-then-duplicated job must be pure waste");
    }

    #[test]
    fn malformed_instance_fails_soft() {
        let mut job = tiny_job(0);
        let JobPayload::Explain { instance, .. } = &mut job.payload;
        instance.source[0][0] = 10_000;
        let result = process_job(&job, "w0");
        assert!(matches!(result.outcome, JobOutcome::Failed { .. }));
    }
}
