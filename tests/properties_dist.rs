//! Distributed-profiling determinism, exercised through the facade crate
//! with in-process workers (the child-process battery lives next to the
//! worker binary in `crates/dist/tests/properties_dist.rs`).
//!
//! Invariants:
//! * `profile_dirs_distributed` is byte-identical (timing stripped) to
//!   `profile_dirs` at every worker count, for both paper configurations;
//! * `explain_via` + `absorb_result` reproduce the local search's
//!   rendered report exactly — the `SymRemap` pool merge across the
//!   (simulated) process boundary loses nothing;
//! * failure semantics match: broken CSVs fail with the same messages in
//!   both modes.

use std::path::{Path, PathBuf};
use std::time::Duration;

use affidavit::core::profiling::{profile_dirs, ProfileOptions, SnapshotProfile};
use affidavit::core::report::render_report;
use affidavit::core::{Affidavit, AffidavitConfig, ProblemInstance};
use affidavit::dist::{
    explain_via, profile_dirs_distributed, run_worker, Broker, DistBackend, DistOptions, JobQueue,
    LeaseTable,
};
use affidavit::table::{Schema, Table, ValuePool};

fn write_snapshots(root: &Path) -> (PathBuf, PathBuf) {
    let before = root.join("v1");
    let after = root.join("v2");
    std::fs::create_dir_all(&before).unwrap();
    std::fs::create_dir_all(&after).unwrap();
    // A rescaled column plus a constant-replaced unit column.
    let mut s = String::from("k,val,unit\n");
    let mut t = String::from("k,val,unit\n");
    for i in 0..30 {
        s.push_str(&format!("k{i},{},USD\n", (i + 1) * 1000));
        t.push_str(&format!("k{i},{},k $\n", i + 1));
    }
    std::fs::write(before.join("accounts.csv"), &s).unwrap();
    std::fs::write(after.join("accounts.csv"), &t).unwrap();
    // An unchanged table, a dropped table and a malformed pair.
    std::fs::write(before.join("static.csv"), "a,b\n1,2\n").unwrap();
    std::fs::write(after.join("static.csv"), "a,b\n1,2\n").unwrap();
    std::fs::write(before.join("old.csv"), "c\n9\n").unwrap();
    std::fs::write(before.join("bad.csv"), "a,b\n1,2\n").unwrap();
    std::fs::write(after.join("bad.csv"), "a,b\n\"unterminated\n").unwrap();
    (before, after)
}

fn canonical(mut profile: SnapshotProfile) -> String {
    profile.strip_timing();
    format!("{}\n===\n{}", profile.render(), profile.to_json())
}

#[test]
fn distributed_profile_matches_local_at_every_worker_count() {
    let root = std::env::temp_dir().join("affidavit-root-dist-test");
    std::fs::remove_dir_all(&root).ok();
    let (before, after) = write_snapshots(&root);
    for config in [
        AffidavitConfig::paper_id(),
        AffidavitConfig::paper_overlap(),
    ] {
        let popts = ProfileOptions {
            config,
            ..ProfileOptions::default()
        };
        let local = canonical(profile_dirs(&before, &after, &popts).unwrap());
        assert!(
            local.contains("FAILED"),
            "malformed pair must fail: {local}"
        );
        for workers in [1usize, 2, 4] {
            let dopts = DistOptions {
                workers,
                backend: DistBackend::InProcess,
                validate: true,
                ..DistOptions::default()
            };
            let (profile, stats) =
                profile_dirs_distributed(&before, &after, &popts, &dopts).unwrap();
            assert_eq!(stats.jobs, 2, "accounts + static are dispatchable");
            assert!(
                stats.steals >= stats.jobs,
                "every dispatched job is claimed at least once: {stats:?}"
            );
            assert_eq!(stats.conflicts, 0, "{stats:?}");
            assert_eq!(canonical(profile), local, "workers={workers} diverged");
        }
    }
    std::fs::remove_dir_all(&root).ok();
}

#[test]
fn remote_explanation_renders_byte_identically() {
    let build = || {
        let mut pool = ValuePool::new();
        let s = Table::from_rows(
            Schema::new(["Val", "Unit"]),
            &mut pool,
            (0..25).map(|i| vec![format!("{}", (i + 1) * 1000), "USD".to_owned()]),
        );
        let t = Table::from_rows(
            Schema::new(["Val", "Unit"]),
            &mut pool,
            (0..25).map(|i| vec![format!("{}", i + 1), "k $".to_owned()]),
        );
        ProblemInstance::new(s, t, pool).unwrap()
    };
    let cfg = AffidavitConfig::paper_id();

    let mut local = build();
    let outcome = Affidavit::new(cfg.clone()).explain(&mut local);
    let local_report = render_report(&outcome.explanation, &local);

    let queue = Broker::new(LeaseTable::new());
    let mut remote_instance = build();
    let remote = std::thread::scope(|scope| {
        scope.spawn(|| run_worker(&queue, "w0", Duration::from_millis(1)));
        let remote = explain_via(&queue, &mut remote_instance, &cfg, Duration::from_secs(120));
        queue.request_shutdown().unwrap();
        remote
    })
    .unwrap();
    // The worker interned the learned constant "k $"-style parameters into
    // *its* pool; after the SymRemap merge the coordinator renders the
    // exact same bytes.
    assert_eq!(
        render_report(&remote.explanation, &remote_instance),
        local_report
    );
    assert_eq!(remote.polled, outcome.stats.polled);
    assert_eq!(remote.expansions, outcome.stats.expansions);
    // And the merged pool evolved exactly as the local search's pool did.
    assert_eq!(remote_instance.pool.len(), local.pool.len());
}
