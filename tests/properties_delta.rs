//! Incremental re-profiling (`--delta`) differential battery.
//!
//! The load-bearing invariant of `core::delta`: for every input and
//! every edit, a delta run's output bytes equal a from-scratch run's
//! output bytes — a fingerprint mismatch may only ever cost a redo,
//! never a wrong answer. The battery fuzzes snapshot edits (row
//! insert/delete, cell edits, reorders, block-boundary edits, and
//! byte-level no-op rewrites like CRLF and quoting) across both paper
//! configurations × threads {1, 4} × {ram, disk} pools, and also checks
//! the redo path's *pool state* against a from-scratch staging — not
//! just the rendered report. Separately: the streaming fingerprint is
//! chunking-invariant, and a corrupted manifest falls back to a full
//! redo (correct bytes, `fallbacks` bumped) instead of failing.

use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};

use affidavit::core::delta::{
    config_fingerprint, default_explain_state, default_profile_state, explain_delta,
    profile_dirs_delta,
};
use affidavit::core::profiling::{profile_dirs, stage_file_pair, ProfileOptions, SnapshotProfile};
use affidavit::core::report::render_report;
use affidavit::core::{Affidavit, AffidavitConfig, ProblemInstance};
use affidavit::store::{
    fingerprint_bytes, fingerprint_file, Fnv, IngestOptions, PoolBackend, PoolConfig,
};
use proptest::prelude::*;

/// A fresh per-test scratch directory (tests in this file run in
/// parallel under the default harness).
fn temp_dir(tag: &str) -> PathBuf {
    static N: AtomicU64 = AtomicU64::new(0);
    let dir = std::env::temp_dir().join(format!(
        "affidavit-delta-test-{}-{tag}-{}",
        std::process::id(),
        N.fetch_add(1, Ordering::Relaxed)
    ));
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

/// A seeded snapshot pair with a systematic change (rescaled values),
/// deletions and an insertion, so the report has every section.
fn write_pair(dir: &Path, seed: u64) -> (PathBuf, PathBuf) {
    let src = dir.join("source.csv");
    let tgt = dir.join("target.csv");
    let rows = 24 + (seed % 13) as usize;
    let mut s = String::from("k,v,w\n");
    let mut t = String::from("k,v,w\n");
    for i in 0..rows {
        s.push_str(&format!("k{i},{},tag{}\n", (i as u64 + seed) * 1000, i % 5));
        if (i as u64 + seed) % 11 != 10 {
            t.push_str(&format!("k{i},{},tag{}\n", i as u64 + seed, i % 5));
        }
    }
    t.push_str(&format!("extra{seed},7,tagx\n"));
    std::fs::write(&src, s).unwrap();
    std::fs::write(&tgt, t).unwrap();
    (src, tgt)
}

/// The battery's dimension sweep, driven off seed bits: both paper
/// configurations × threads {1, 4} × {ram, disk} pools.
fn opts_for(seed: u64) -> ProfileOptions {
    let mut config = if seed & 1 == 0 {
        AffidavitConfig::paper_id()
    } else {
        AffidavitConfig::paper_overlap()
    };
    config.threads = if seed & 2 == 0 { 1 } else { 4 };
    let pool = if seed & 4 == 0 {
        PoolConfig::default()
    } else {
        // Tiny budget so the disk backend actually spills.
        PoolConfig {
            backend: PoolBackend::Disk,
            budget_bytes: 4096,
        }
    };
    ProfileOptions {
        config,
        align: false,
        ingest: IngestOptions::default(),
        pool,
    }
}

/// Every interned string in pool order — the redo path must leave the
/// instance's pool exactly as a from-scratch staging + search would.
fn pool_dump(instance: &ProblemInstance) -> String {
    let mut out = String::new();
    for (sym, s) in instance.pool.iter() {
        out.push_str(&sym.0.to_string());
        out.push('=');
        out.push_str(s);
        out.push('\u{1}');
    }
    out
}

/// The from-scratch path for the same inputs: stage + search + render,
/// exactly what a non-delta `affidavit explain` runs in-process.
fn from_scratch(src: &Path, tgt: &Path, opts: &ProfileOptions) -> (String, u64, u64, String) {
    let mut instance = stage_file_pair(src, tgt, opts).expect("stage");
    let out = Affidavit::new(opts.config.clone()).explain(&mut instance);
    let report = render_report(&out.explanation, &instance);
    (
        report,
        out.stats.polled as u64,
        out.stats.states_generated as u64,
        pool_dump(&instance),
    )
}

/// One snapshot edit, chosen by `kind`. Kinds 0–4 change the staged
/// records (the delta run must redo); kinds 5–6 rewrite bytes without
/// changing any record (the delta run must still splice).
fn apply_edit(kind: u64, seed: u64, text: &str) -> String {
    let mut lines: Vec<String> = text.lines().map(str::to_owned).collect();
    let data = lines.len() - 1; // line 0 is the header
    let pos = 1 + (seed as usize % data);
    let edit_cell = |line: &str, field: usize, suffix: &str| -> String {
        let mut fields: Vec<String> = line.split(',').map(str::to_owned).collect();
        fields[field].push_str(suffix);
        fields.join(",")
    };
    match kind {
        // Row insert at an arbitrary position.
        0 => lines.insert(pos, format!("ins{seed},42,tagi")),
        // Row delete.
        1 => {
            lines.remove(pos);
        }
        // Cell edit (value column).
        2 => lines[pos] = edit_cell(&lines[pos], 1, "9"),
        // Reorder: rotate the data rows — record ids shift everywhere.
        3 => lines[1..].rotate_left(1),
        // Block-boundary edits: the first and last data rows sit on
        // fingerprint-group boundaries; editing the tag column also
        // changes the blocking partition itself.
        4 => {
            let last = lines.len() - 1;
            lines[1] = edit_cell(&lines[1], 2, "b");
            lines[last] = edit_cell(&lines[last], 2, "b");
        }
        // CRLF rewrite: new raw bytes, identical records.
        5 => return text.replace('\n', "\r\n"),
        // Quoting rewrite: every field quoted, identical records.
        6 => {
            for line in &mut lines {
                *line = line
                    .split(',')
                    .map(|f| format!("\"{f}\""))
                    .collect::<Vec<_>>()
                    .join(",");
            }
        }
        other => panic!("unknown edit kind {other}"),
    }
    let mut out = lines.join("\n");
    out.push('\n');
    out
}

proptest! {
    /// The tentpole invariant, fuzzed: delta output bytes == from-scratch
    /// output bytes, cold (no manifest), warm (splice) and after every
    /// edit kind; the redo path additionally leaves an identical pool.
    #[test]
    fn delta_is_byte_identical_under_edits(seed in 0u64..1_000_000) {
        let kind = seed % 7;
        let pair_seed = seed / 7;
        let dir = temp_dir("fuzz");
        let (src, tgt) = write_pair(&dir, pair_seed);
        let opts = opts_for(seed);
        let state = default_explain_state(&tgt);

        // Cold: no manifest yet — a full redo with identical bytes.
        let (report1, polled1, generated1, pool1) = from_scratch(&src, &tgt, &opts);
        let cold = explain_delta(&src, &tgt, &opts, &state).unwrap();
        prop_assert!(!cold.spliced);
        prop_assert_eq!(&cold.report, &report1);
        prop_assert_eq!(cold.polled, polled1);
        prop_assert_eq!(cold.generated, generated1);
        prop_assert_eq!(pool_dump(cold.instance.as_ref().unwrap()), pool1);
        prop_assert_eq!(cold.stats.fallbacks, 0);

        // Warm: everything clean — a splice with identical bytes.
        let warm = explain_delta(&src, &tgt, &opts, &state).unwrap();
        prop_assert!(warm.spliced);
        prop_assert_eq!(&warm.report, &report1);
        prop_assert_eq!((warm.polled, warm.generated), (polled1, generated1));
        prop_assert_eq!(warm.stats.blocks_redone, 0);
        prop_assert_eq!(warm.stats.fallbacks, 0);

        // Edited: still byte-identical to a from-scratch run over the
        // edited pair, splicing exactly when no record changed.
        let text = std::fs::read_to_string(&tgt).unwrap();
        std::fs::write(&tgt, apply_edit(kind, pair_seed, &text)).unwrap();
        let (report2, polled2, generated2, pool2) = from_scratch(&src, &tgt, &opts);
        let delta = explain_delta(&src, &tgt, &opts, &state).unwrap();
        prop_assert_eq!(&delta.report, &report2);
        prop_assert_eq!(delta.polled, polled2);
        prop_assert_eq!(delta.generated, generated2);
        prop_assert_eq!(delta.stats.fallbacks, 0, "data dirt is a redo, not a fallback");
        if kind >= 5 {
            prop_assert!(
                delta.spliced,
                "a byte-level no-op rewrite (kind {}) must splice",
                kind
            );
        } else {
            prop_assert!(!delta.spliced, "edit kind {} must force a redo", kind);
            prop_assert_eq!(pool_dump(delta.instance.as_ref().unwrap()), pool2);
        }
        std::fs::remove_dir_all(&dir).ok();
    }
}

/// The streaming fingerprint is split-invariant: hashing any
/// chunk-boundary decomposition of the same bytes — or the same bytes
/// through a file — yields the fingerprint of the whole.
#[test]
fn fingerprints_are_chunking_invariant() {
    let data: Vec<u8> = (0..10_000u32)
        .flat_map(|i| format!("row{i},\"quo\"\"ted\",\r\n\u{e9}").into_bytes())
        .collect();
    let whole = fingerprint_bytes(&data);
    for splits in [
        vec![0usize],
        vec![1],
        vec![7, 7],
        vec![data.len() / 2],
        vec![data.len() - 1],
        vec![data.len()],
        vec![64 * 1024, 64 * 1024], // the file reader's chunk size
    ] {
        let mut fnv = Fnv::new();
        let mut rest: &[u8] = &data;
        for s in splits {
            let cut = s.min(rest.len());
            fnv.update(&rest[..cut]);
            rest = &rest[cut..];
        }
        fnv.update(rest);
        assert_eq!(
            fnv.finish(),
            whole,
            "a chunk boundary changed the fingerprint"
        );
    }
    let dir = temp_dir("fp");
    let path = dir.join("blob.bin");
    std::fs::write(&path, &data).unwrap();
    assert_eq!(fingerprint_file(&path).unwrap(), whole);
    std::fs::remove_dir_all(&dir).ok();

    // The length prefix in `update_str` keeps concatenation ambiguity
    // out of composite fingerprints: ("ab","c") != ("a","bc").
    let mut one = Fnv::new();
    one.update_str("ab");
    one.update_str("c");
    let mut two = Fnv::new();
    two.update_str("a");
    two.update_str("bc");
    assert_ne!(one.finish(), two.finish());

    // Fingerprints round-trip through their manifest string form.
    let printed = whole.to_string();
    assert_eq!(
        printed.parse::<affidavit::store::Fingerprint>().unwrap(),
        whole
    );
}

/// A corrupted or stale manifest must never produce a wrong answer or a
/// failure: the run falls back to a full redo (`fallbacks` bumped),
/// returns correct bytes, and rewrites the manifest so the *next* run
/// splices again.
#[test]
fn a_broken_manifest_falls_back_to_a_correct_redo() {
    let dir = temp_dir("broken");
    let (src, tgt) = write_pair(&dir, 3);
    let opts = opts_for(0);
    let state = default_explain_state(&tgt);
    let (report, ..) = from_scratch(&src, &tgt, &opts);

    explain_delta(&src, &tgt, &opts, &state).unwrap();
    for corruption in ["{not json", "", "{\"version\":999}"] {
        std::fs::write(&state, corruption).unwrap();
        let out = explain_delta(&src, &tgt, &opts, &state).unwrap();
        assert!(
            !out.spliced,
            "a broken manifest must not splice: {corruption:?}"
        );
        assert_eq!(
            out.stats.fallbacks, 1,
            "corruption {corruption:?} must count as a fallback"
        );
        assert_eq!(out.report, report);
        // The redo rewrote the manifest: the next run splices again.
        let next = explain_delta(&src, &tgt, &opts, &state).unwrap();
        assert!(next.spliced);
        assert_eq!(next.report, report);
    }
    std::fs::remove_dir_all(&dir).ok();
}

/// A manifest recorded under one pool backend splices under the other:
/// the config fingerprint deliberately excludes byte-transparent knobs
/// (the pool backend), and only them.
#[test]
fn the_manifest_is_portable_across_byte_transparent_knobs() {
    let dir = temp_dir("portable");
    let (src, tgt) = write_pair(&dir, 9);
    let ram = opts_for(0);
    let mut disk = opts_for(0);
    disk.pool = PoolConfig {
        backend: PoolBackend::Disk,
        budget_bytes: 4096,
    };
    assert_eq!(
        config_fingerprint(&ram.config, ram.align),
        config_fingerprint(&disk.config, disk.align)
    );
    let mut threads4 = opts_for(0);
    threads4.config.threads = 4;
    threads4.config.parallel_min_records = 0;
    assert_eq!(
        config_fingerprint(&ram.config, ram.align),
        config_fingerprint(&threads4.config, threads4.align),
        "the search's scheduling knobs are byte-transparent"
    );
    let mut reseeded = opts_for(0);
    reseeded.config.seed ^= 1;
    assert_ne!(
        config_fingerprint(&ram.config, ram.align),
        config_fingerprint(&reseeded.config, reseeded.align),
        "search-shaping knobs must invalidate the manifest"
    );

    let state = default_explain_state(&tgt);
    let cold = explain_delta(&src, &tgt, &ram, &state).unwrap();
    let warm = explain_delta(&src, &tgt, &disk, &state).unwrap();
    assert!(
        warm.spliced,
        "a ram-recorded manifest must splice under the disk backend"
    );
    assert_eq!(warm.report, cold.report);
    std::fs::remove_dir_all(&dir).ok();
}

/// Directory-level sweep: `profile --delta` renders byte-identically
/// (timing stripped) to `profile_dirs` across both paper configurations
/// × both pool backends, redoing exactly the edited table.
#[test]
fn profile_delta_matches_from_scratch_across_the_matrix() {
    let canonical = |mut p: SnapshotProfile| {
        p.strip_timing();
        format!("{}\n{}", p.render(), p.to_json())
    };
    for seed in [0u64, 1, 4, 5] {
        let opts = opts_for(seed);
        let dir = temp_dir("matrix");
        let before = dir.join("before");
        let after = dir.join("after");
        std::fs::create_dir_all(&before).unwrap();
        std::fs::create_dir_all(&after).unwrap();
        for t in 0..3u64 {
            let sub = temp_dir("matrix-pair");
            let (src, tgt) = write_pair(&sub, seed * 10 + t);
            std::fs::rename(&src, before.join(format!("table{t}.csv"))).unwrap();
            std::fs::rename(&tgt, after.join(format!("table{t}.csv"))).unwrap();
            std::fs::remove_dir_all(&sub).ok();
        }
        let state = default_profile_state(&after);
        let (seeded, _) = profile_dirs_delta(&before, &after, &opts, &state).unwrap();
        assert_eq!(
            canonical(seeded),
            canonical(profile_dirs(&before, &after, &opts).unwrap())
        );

        // Edit one table; the delta rerun redoes exactly that pair and
        // still matches a from-scratch profile byte-for-byte.
        let edited_path = after.join("table1.csv");
        let text = std::fs::read_to_string(&edited_path).unwrap();
        std::fs::write(&edited_path, apply_edit(0, seed, &text)).unwrap();
        let (delta, stats) = profile_dirs_delta(&before, &after, &opts, &state).unwrap();
        assert_eq!(
            canonical(delta),
            canonical(profile_dirs(&before, &after, &opts).unwrap()),
            "divergence at seed {seed}"
        );
        assert_eq!(stats.pairs_redone, 1);
        assert_eq!(stats.pairs_spliced, 2);
        assert_eq!(stats.fallbacks, 0);

        // The manifest was written at one search thread; a rerun at two
        // splices every pair and still matches a from-scratch profile.
        let mut threads2 = opts.clone();
        threads2.config.threads = 2;
        let (delta, stats) = profile_dirs_delta(&before, &after, &threads2, &state).unwrap();
        assert_eq!(
            canonical(delta),
            canonical(profile_dirs(&before, &after, &threads2).unwrap()),
            "divergence at seed {seed}, threads 2"
        );
        assert_eq!(stats.pairs_spliced, 3, "seed {seed}: {stats:?}");
        assert_eq!(stats.pairs_redone, 0);
        assert_eq!(stats.fallbacks, 0);
        std::fs::remove_dir_all(&dir).ok();
    }
}
