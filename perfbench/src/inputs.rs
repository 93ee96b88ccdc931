//! Input generation (Table 2 shapes through the paper's instance
//! generator) and the one-shot explain path every workload checks
//! against.

use std::path::{Path, PathBuf};
use std::time::Instant;

use affidavit_core::profiling::{stage_snapshot_pair, ProfileOptions};
use affidavit_core::report::render_report;
use affidavit_core::{Affidavit, AffidavitConfig, Explanation, ProblemInstance};
use affidavit_datagen::{Blueprint, GenConfig};
use affidavit_datasets::synth::generate_rows;
use affidavit_datasets::DatasetSpec;
use affidavit_store::{ingest_pair, IngestOptions};
use affidavit_table::csv::{write_path, CsvOptions};

use crate::json::{int, obj, text, Value};

/// One source/target CSV pair on disk.
#[derive(Clone)]
pub struct PairFiles {
    pub name: String,
    pub source: PathBuf,
    pub target: PathBuf,
    /// Source plus target file bytes.
    pub bytes: u64,
    /// Source plus target records.
    pub records: u64,
    pub attrs: usize,
}

impl PairFiles {
    pub fn describe(&self) -> Value {
        obj(vec![
            ("name", text(&self.name)),
            ("bytes", int(self.bytes)),
            ("records", int(self.records)),
            ("attributes", int(self.attrs as u64)),
        ])
    }
}

/// Input generation is repeated this many times per run; `setup_s`
/// takes the median.
pub const SETUP_REPS: usize = 3;

/// The paper's two configurations (Table 2): start states `H^id` and the
/// overlap start state `Hs`.
pub fn paper_configs(threads: usize) -> [(&'static str, AffidavitConfig); 2] {
    [
        ("id", AffidavitConfig::paper_id().with_threads(threads)),
        (
            "overlap",
            AffidavitConfig::paper_overlap().with_threads(threads),
        ),
    ]
}

/// A per-pair seed: distinct pairs of one run never share a generator
/// stream, and the same `(seed, salt)` always gives the same bytes.
pub fn pair_seed(seed: u64, salt: u64) -> u64 {
    seed.wrapping_mul(0x9E37_79B9_7F4A_7C15).wrapping_add(salt)
}

/// Generate `rows` records of `spec`, derive the target snapshot with
/// the paper's protocol at η = τ = 0.3 (as `affidavit gen` does), and
/// write both snapshots as CSV.
pub fn write_pair(
    spec: &DatasetSpec,
    rows: usize,
    seed: u64,
    name: &str,
    source: &Path,
    target: &Path,
) -> Result<PairFiles, String> {
    let (base, pool) = generate_rows(spec, rows, seed);
    let generated = Blueprint::new(base, pool, GenConfig::new(0.3, 0.3, seed)).materialize_full();
    let instance = &generated.instance;
    for (path, table) in [(source, &instance.source), (target, &instance.target)] {
        write_path(path, table, &instance.pool, CsvOptions::default())
            .map_err(|e| format!("{}: {e}", path.display()))?;
    }
    let size = |p: &Path| std::fs::metadata(p).map(|m| m.len()).unwrap_or(0);
    Ok(PairFiles {
        name: name.to_owned(),
        source: source.to_owned(),
        target: target.to_owned(),
        bytes: size(source) + size(target),
        records: (instance.source.len() + instance.target.len()) as u64,
        attrs: instance.arity(),
    })
}

/// Wall time of each layer call of one explain, in milliseconds.
#[derive(Clone, Copy, Default)]
pub struct ExplainTimes {
    pub ingest: f64,
    pub stage: f64,
    pub search: f64,
    pub render: f64,
}

/// What one explain produced.
pub struct ExplainRun {
    pub report: String,
    pub polled: u64,
    pub generated: u64,
    pub times: ExplainTimes,
    explanation: Explanation,
    instance: ProblemInstance,
}

impl ExplainRun {
    /// Check the explanation against its instance (Def. 3.3 partitions,
    /// bijective core, every core pair's image equals its target).
    pub fn validate(mut self) -> Result<(), String> {
        self.explanation.validate(&mut self.instance)
    }
}

fn ms_since(t: Instant) -> f64 {
    t.elapsed().as_secs_f64() * 1000.0
}

/// The one-shot path, one public entry point per layer: `store` ingest,
/// `core` staging, the search, and report rendering. Each call is timed
/// and wrapped in a benchmark-side span.
pub fn explain_once(files: &PairFiles, config: &AffidavitConfig) -> Result<ExplainRun, String> {
    let opts = ProfileOptions {
        config: config.clone(),
        ingest: IngestOptions {
            threads: config.threads,
            ..IngestOptions::default()
        },
        ..ProfileOptions::default()
    };
    let mut times = ExplainTimes::default();
    let t = Instant::now();
    let pair = {
        let _span = affidavit_obs::span("bench.store.ingest");
        ingest_pair(&files.source, &files.target, &opts.ingest, &opts.pool)?
    };
    times.ingest = ms_since(t);
    let t = Instant::now();
    let mut instance = {
        let _span = affidavit_obs::span("bench.core.stage");
        stage_snapshot_pair(pair, &opts)?
    };
    times.stage = ms_since(t);
    let t = Instant::now();
    let outcome = {
        let _span = affidavit_obs::span("bench.core.search");
        Affidavit::new(config.clone()).explain(&mut instance)
    };
    times.search = ms_since(t);
    let t = Instant::now();
    let report = {
        let _span = affidavit_obs::span("bench.core.render");
        render_report(&outcome.explanation, &instance)
    };
    times.render = ms_since(t);
    Ok(ExplainRun {
        report,
        polled: outcome.stats.polled as u64,
        generated: outcome.stats.states_generated as u64,
        times,
        explanation: outcome.explanation,
        instance,
    })
}

/// The bytes and counts a correct explain of one pair must reproduce.
#[derive(Clone)]
pub struct Reference {
    pub report: String,
    pub polled: u64,
    pub generated: u64,
}

impl Reference {
    /// Compute the reference once (validating it) during set-up, with
    /// serial ingestion and search: output bytes must not depend on the
    /// thread count, so a divergent parallel path shows as a mismatch.
    pub fn compute(files: &PairFiles, config: &AffidavitConfig) -> Result<Reference, String> {
        let run = explain_once(files, &config.clone().with_threads(1))?;
        let reference = Reference {
            report: run.report.clone(),
            polled: run.polled,
            generated: run.generated,
        };
        run.validate()
            .map_err(|e| format!("reference explanation of {} is invalid: {e}", files.name))?;
        Ok(reference)
    }

    /// Compare a fresh run against this reference.
    pub fn check(
        &self,
        what: &str,
        report: &str,
        polled: u64,
        generated: u64,
    ) -> Result<(), String> {
        if report != self.report {
            return Err(format!("{what}: report differs from the set-up reference"));
        }
        crate::stats::expect_eq(
            &format!("{what}: (polled, generated)"),
            (polled, generated),
            (self.polled, self.generated),
        )
    }
}
