//! Golden reports: pinned output of `affidavit explain --stable` on small
//! generated Table 2 instances.
//!
//! Every other byte-identity battery compares two paths of the same build
//! (serial vs parallel, delta vs from-scratch, served vs one-shot), so a
//! change that shifts both sides the same way passes them all. This one
//! compares against bytes recorded from an earlier build: the full
//! stdout of `explain --stable` (report plus the `search: N states
//! polled, M generated` line) is digested, and the search counters are
//! pinned on their own so a drift names itself.
//!
//! The instances come from `affidavit gen <dataset> --rows 200 --seed 7`
//! and are staged from CSV exactly as `explain` stages them. Threads
//! {1, 2} run with the fan-out floor at 0 so the parallel expansion and
//! refinement paths are exercised even at this size.
//!
//! To re-record after an intended change of search behaviour, run with
//! `AFFIDAVIT_GOLDEN_PRINT=1 cargo test --test golden_reports -- --nocapture`
//! and paste the printed rows.

use std::path::{Path, PathBuf};

use affidavit::core::profiling::{stage_file_pair, ProfileOptions};
use affidavit::core::report::render_report;
use affidavit::core::{Affidavit, AffidavitConfig};
use affidavit::datagen::blueprint::{Blueprint, GenConfig};
use affidavit::datasets::{by_name, synth};
use affidavit::store::{fingerprint_bytes, IngestOptions, PoolConfig};
use affidavit::table::csv;

/// `(dataset, init, polled, generated, digest of the --stable stdout)`.
const GOLDEN: &[(&str, &str, usize, usize, &str)] = &[
    ("letter", "id", 22, 305, "8815c668a7ad9c22-904"),
    ("letter", "overlap", 9, 28, "5fbcd07a8af412d5-902"),
    ("nursery", "id", 17, 124, "903dbe4f6ed55ef7-581"),
    ("nursery", "overlap", 4, 13, "0802ec01d75f3d0a-579"),
    ("abalone", "id", 20, 154, "585ee8815dd58c19-564"),
    ("abalone", "overlap", 4, 12, "5ef867c8df7e8c7c-552"),
    ("hepatitis", "id", 21, 300, "86065eda50e0eb12-966"),
    ("hepatitis", "overlap", 9, 29, "7a194cced699fb36-964"),
    ("adult", "id", 29, 213, "05b82124d70eb44d-826"),
    ("adult", "overlap", 7, 29, "26519308df041e16-808"),
];

const ROWS: usize = 200;
const SEED: u64 = 7;

/// Write the `gen` pair for `dataset` into `dir`, as `affidavit gen
/// <dataset> --rows ROWS --seed SEED` does.
fn gen_pair(dataset: &str, dir: &Path) -> (PathBuf, PathBuf) {
    let spec = by_name(dataset).unwrap();
    let (base, pool) = synth::generate_rows(&spec, ROWS, SEED);
    let generated = Blueprint::new(base, pool, GenConfig::new(0.3, 0.3, SEED)).materialize_full();
    let src = dir.join(format!("{dataset}_source.csv"));
    let tgt = dir.join(format!("{dataset}_target.csv"));
    let inst = &generated.instance;
    csv::write_path(&src, &inst.source, &inst.pool, csv::CsvOptions::default()).unwrap();
    csv::write_path(&tgt, &inst.target, &inst.pool, csv::CsvOptions::default()).unwrap();
    (src, tgt)
}

/// The stdout of `explain SRC TGT --config <init> --threads N --stable`,
/// with the search counters.
fn explain_stable(src: &Path, tgt: &Path, init: &str, threads: usize) -> (String, usize, usize) {
    let mut config = match init {
        "id" => AffidavitConfig::paper_id(),
        "overlap" => AffidavitConfig::paper_overlap(),
        other => panic!("unknown init {other}"),
    }
    .with_threads(threads);
    if threads > 1 {
        config.parallel_min_records = 0;
    }
    let opts = ProfileOptions {
        config: config.clone(),
        align: false,
        ingest: IngestOptions::default(),
        pool: PoolConfig::default(),
    };
    let mut instance = stage_file_pair(src, tgt, &opts).unwrap();
    let outcome = Affidavit::new(config).explain(&mut instance);
    let (polled, generated) = (outcome.stats.polled, outcome.stats.states_generated);
    let stdout = format!(
        "{}\nsearch: {polled} states polled, {generated} generated, {:?}\n",
        render_report(&outcome.explanation, &instance),
        std::time::Duration::ZERO
    );
    (stdout, polled, generated)
}

#[test]
fn explain_reports_match_the_recorded_bytes() {
    let dir = std::env::temp_dir().join(format!("affidavit-golden-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let print = std::env::var_os("AFFIDAVIT_GOLDEN_PRINT").is_some();
    let mut checked = 0;
    for dataset in ["letter", "nursery", "abalone", "hepatitis", "adult"] {
        let (src, tgt) = gen_pair(dataset, &dir);
        for init in ["id", "overlap"] {
            for threads in [1usize, 2] {
                let (stdout, polled, generated) = explain_stable(&src, &tgt, init, threads);
                let digest = fingerprint_bytes(stdout.as_bytes()).to_string();
                if print {
                    println!("    ({dataset:?}, {init:?}, {polled}, {generated}, {digest:?}),");
                    continue;
                }
                let &(_, _, want_polled, want_generated, want_digest) = GOLDEN
                    .iter()
                    .find(|g| g.0 == dataset && g.1 == init)
                    .unwrap_or_else(|| panic!("no golden row for {dataset}/{init}"));
                assert_eq!(
                    (polled, generated),
                    (want_polled, want_generated),
                    "{dataset}/{init}/threads {threads}: search counters drifted"
                );
                assert_eq!(
                    digest, want_digest,
                    "{dataset}/{init}/threads {threads}: report bytes drifted\n{stdout}"
                );
                checked += 1;
            }
        }
    }
    std::fs::remove_dir_all(&dir).ok();
    assert!(print || checked == 20);
}
