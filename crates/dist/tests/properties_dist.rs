//! Worker-count determinism battery for the distributed profiler.
//!
//! The invariant under test: `profile_dirs_distributed` renders a profile
//! **byte-identical** to the single-process `profile_dirs` at every worker
//! count, for both paper configurations, and a job completed twice
//! degrades to wasted work only. Wall time (`millis`) is the one
//! legitimately nondeterministic field and is stripped before
//! comparison. The same battery over real `affidavit-worker` processes
//! lives in `properties_transport.rs`.
//!
//! Also here: wire-format stability — a round-trip fixed point and a
//! golden-bytes fixture that fails loudly when the format changes without
//! a version bump.

use std::path::{Path, PathBuf};

use affidavit_core::profiling::{profile_dirs, ProfileOptions, SnapshotProfile};
use affidavit_core::report::render_report;
use affidavit_core::{Affidavit, AffidavitConfig, ProblemInstance};
use affidavit_datagen::blueprint::{Blueprint, GenConfig};
use affidavit_datasets::synth::generate_rows;
use affidavit_dist::job::process_job;
use affidavit_dist::wire::WireConfig;
use affidavit_dist::{
    absorb_result, decode_job, encode_job, profile_dirs_distributed, Broker, DistBackend,
    DistOptions, Job, JobPayload, JobQueue, LeaseTable, WireInstance,
};
use affidavit_table::{csv, Schema, Table, ValuePool};

/// Build a pair of snapshot directories: three synthetically transformed
/// tables, one unchanged table, one dropped, one created, one malformed
/// (to pin failure-semantics parity between the local and distributed
/// paths).
fn make_snapshot_dirs(root: &Path, seed: u64) -> (PathBuf, PathBuf) {
    let before = root.join("before");
    let after = root.join("after");
    std::fs::create_dir_all(&before).unwrap();
    std::fs::create_dir_all(&after).unwrap();

    for (i, spec_name) in ["iris", "adult", "balance"].iter().enumerate() {
        let spec = affidavit_datasets::by_name(spec_name).expect("dataset exists");
        let s = seed + i as u64;
        let (base, pool) = generate_rows(&spec, spec.rows.min(40), s);
        let generated = Blueprint::new(base, pool, GenConfig::new(0.3, 0.3, s)).materialize_full();
        let name = format!("{spec_name}_{i}");
        for (dir, table) in [
            (&before, &generated.instance.source),
            (&after, &generated.instance.target),
        ] {
            csv::write_path(
                dir.join(format!("{name}.csv")),
                table,
                &generated.instance.pool,
                csv::CsvOptions::default(),
            )
            .unwrap();
        }
    }
    let unchanged = "x,y\n1,a\n2,b\n3,c\n";
    std::fs::write(before.join("static.csv"), unchanged).unwrap();
    std::fs::write(after.join("static.csv"), unchanged).unwrap();
    std::fs::write(before.join("dropped.csv"), "a\n1\n").unwrap();
    std::fs::write(after.join("created.csv"), "a\n1\n").unwrap();
    std::fs::write(before.join("broken.csv"), "a,b\n1,2\n").unwrap();
    std::fs::write(after.join("broken.csv"), "a,b\n1\n").unwrap();
    (before, after)
}

/// Canonical bytes of a profile: timing stripped, rendered report plus
/// the machine-readable JSON (so both output surfaces are pinned).
fn canonical(mut profile: SnapshotProfile) -> String {
    profile.strip_timing();
    format!("{}\n===\n{}", profile.render(), profile.to_json())
}

fn battery(backend_for: impl Fn(usize) -> DistOptions, tag: &str) {
    let root = std::env::temp_dir().join(format!("affidavit-dist-battery-{tag}"));
    std::fs::remove_dir_all(&root).ok();
    let (before, after) = make_snapshot_dirs(&root, 0xD157);

    for (config_name, config) in [
        ("paper_id", AffidavitConfig::paper_id()),
        ("paper_overlap", AffidavitConfig::paper_overlap()),
    ] {
        let popts = ProfileOptions {
            config,
            ..ProfileOptions::default()
        };
        let local = canonical(profile_dirs(&before, &after, &popts).unwrap());
        assert!(
            local.contains("FAILED") && local.contains("dropped in target"),
            "the battery must exercise failure and missing-table paths:\n{local}"
        );
        for workers in [1usize, 2, 4] {
            let dopts = backend_for(workers);
            let (profile, stats) =
                profile_dirs_distributed(&before, &after, &popts, &dopts).unwrap();
            assert_eq!(stats.jobs, 4, "three transformed tables + one static");
            assert_eq!(
                canonical(profile),
                local,
                "{tag}/{config_name}: workers={workers} diverged from the single-process run"
            );
        }
    }
    std::fs::remove_dir_all(&root).ok();
}

#[test]
fn in_process_workers_are_byte_identical_to_local() {
    battery(
        |workers| DistOptions {
            workers,
            backend: DistBackend::InProcess,
            validate: true,
            ..DistOptions::default()
        },
        "inproc",
    );
}

#[test]
fn duplicate_completion_wastes_work_but_not_determinism() {
    // One real search job, published twice (as a straggler requeue
    // does) and completed by both claimants: the table keeps the first
    // result, discards the matching duplicate, and the absorbed report
    // is the local search's.
    let mut pool = ValuePool::new();
    let source = Table::from_rows(
        Schema::new(["k", "v", "unit"]),
        &mut pool,
        (0..40).map(|i| vec![format!("k{i}"), format!("{}", (i + 1) * 1000), "USD".into()]),
    );
    let target = Table::from_rows(
        Schema::new(["k", "v", "unit"]),
        &mut pool,
        (0..40).map(|i| vec![format!("k{i}"), format!("{}", i + 1), "k $".into()]),
    );
    let mut instance = ProblemInstance::new(source, target, pool).unwrap();
    let local_report = {
        let mut local = instance.clone();
        let outcome = Affidavit::new(AffidavitConfig::paper_id()).explain(&mut local);
        render_report(&outcome.explanation, &local)
    };
    let job = Job {
        id: 0,
        name: "duplicate".to_owned(),
        payload: JobPayload::Explain {
            instance: WireInstance::from_instance(&instance),
            config: WireConfig(AffidavitConfig::paper_id()),
        },
    };

    let queue = Broker::new(LeaseTable::new());
    queue.submit(&job).unwrap();
    queue.submit(&job).unwrap();
    for worker in ["a", "b"] {
        let claimed = queue
            .steal(worker)
            .unwrap()
            .expect("one claim per publication");
        queue
            .complete(worker, &process_job(&claimed, worker))
            .unwrap();
    }
    assert!(queue.steal("c").unwrap().is_none());

    let stats = queue.stats().unwrap();
    assert_eq!(stats.steals, 2, "{stats:?}");
    assert_eq!(stats.duplicates_discarded, 1, "{stats:?}");
    assert_eq!(stats.conflicts, 0, "{stats:?}");
    queue.check_health().unwrap();
    let stored = queue.fetch_result(0).unwrap().expect("one stored result");
    assert_eq!(stored.worker, "a", "the first delivery wins");
    assert!(queue.fetch_result(1).unwrap().is_none());
    let base_len = instance.pool.len();
    let remote = absorb_result(&mut instance, base_len, &stored, true).unwrap();
    assert_eq!(render_report(&remote.explanation, &instance), local_report);
}

// ---- wire-format stability ----------------------------------------------

/// The fixture instance: small, covers quoting-sensitive strings, and is
/// pinned byte-for-byte in `tests/fixtures/job_v3.json`. Regenerate the
/// fixtures (after a deliberate format change plus version bump) with
/// `REGEN_FIXTURES=1 cargo test -p affidavit-dist --test properties_dist`.
fn fixture_job() -> Job {
    let mut pool = ValuePool::new();
    let s = Table::from_rows(
        Schema::new(["Val", "Unit"]),
        &mut pool,
        vec![vec!["80000", "USD"], vec!["65", "k \"quoted\" $"]],
    );
    let t = Table::from_rows(
        Schema::new(["Val", "Unit"]),
        &mut pool,
        vec![vec!["80", "USD"], vec!["0.065", "k \"quoted\" $"]],
    );
    let instance = ProblemInstance::new(s, t, pool).unwrap();
    Job {
        id: 42,
        name: "fixture".to_owned(),
        payload: JobPayload::Explain {
            instance: WireInstance::from_instance(&instance),
            config: WireConfig(AffidavitConfig::paper_id()),
        },
    }
}

#[test]
fn wire_roundtrip_is_a_fixed_point() {
    let job = fixture_job();
    let text = encode_job(&job);
    let back = decode_job(&text).unwrap();
    assert_eq!(encode_job(&back), text);
}

/// Pin (or, under `REGEN_FIXTURES=1`, rewrite) one golden fixture.
/// Returns the canonical bytes the rest of the test should decode — the
/// pinned fixture normally, the fresh encoding when regenerating (the
/// compiled-in `include_str!` is stale until the next build).
fn check_golden(path_in_crate: &str, expected: &str, encoded: &str) -> String {
    if std::env::var("REGEN_FIXTURES").is_ok() {
        let path = format!("{}/tests/{path_in_crate}", env!("CARGO_MANIFEST_DIR"));
        std::fs::write(&path, format!("{encoded}\n")).unwrap();
        return encoded.to_owned();
    }
    assert_eq!(
        encoded,
        expected.trim_end(),
        "wire bytes of {path_in_crate} changed without a version bump"
    );
    expected.trim_end().to_owned()
}

#[test]
fn golden_bytes_are_stable() {
    // If this test fails you have changed the wire format: bump
    // WIRE_VERSION, regenerate the fixture, and make decode reject (or
    // migrate) the old version explicitly. Silent format drift strands
    // deployed workers.
    let expected = check_golden(
        "fixtures/job_v3.json",
        include_str!("fixtures/job_v3.json"),
        &encode_job(&fixture_job()),
    );
    let job = decode_job(&expected).unwrap();
    assert_eq!(job.id, 42);
    let JobPayload::Explain { instance, config } = &job.payload;
    assert_eq!(instance.schema, vec!["Val", "Unit"]);
    assert_eq!(config.0.beta, 2);
    assert!(instance.decode().is_ok());
}

#[test]
fn retired_expansion_jobs_are_rejected() {
    // Version 3 once carried `expansion` jobs (frontier states shipped for
    // remote expansion). This build no longer speaks that task: a pinned
    // job of the old kind must decode to an error, never panic or be
    // mistaken for an explain job.
    let text = include_str!("fixtures/expansion_v3.json").trim_end();
    assert!(text.contains(r#""version":3"#) && text.contains(r#""task":"expansion""#));
    assert!(decode_job(text).is_err());
}
