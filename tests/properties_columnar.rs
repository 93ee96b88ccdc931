//! Row-vs-column differential battery for the columnar table core.
//!
//! The table stores one contiguous `Sym` column per attribute; everything
//! above the table layer must be unable to tell. This suite locks that in
//! three layers:
//!
//! 1. **Builder parity** — `from_rows`, `push`, `push_row` and
//!    `from_columns` produce equal tables, and `project`/`select` agree
//!    with their row-wise definitions.
//! 2. **Proptest round-trip** — for arbitrary string matrices, cells
//!    survive the transpose-in/transpose-out round trip through columns,
//!    row views and materialized records.
//! 3. **Byte-identical output** — `explain` (both paper configs, threads
//!    {1, 4}) and `profile` (RAM and
//!    disk-spilled pool backends) render byte-identical reports and pool
//!    evolution whether the instance tables were built row-wise or
//!    rebuilt from raw columns.

use affidavit::core::config::{AffidavitConfig, InitStrategy};
use affidavit::core::profiling::{profile_dirs, ProfileOptions};
use affidavit::core::report::render_report;
use affidavit::core::search::Affidavit;
use affidavit::store::{PoolBackend, PoolConfig};
use affidavit::table::{csv, AttrId, RecordId, Schema, Sym, Table, ValuePool};
use proptest::prelude::*;

/// Rebuild a table from its raw column slices via `from_columns` — the
/// column-build path. Never touches the pool.
fn column_rebuild(t: &Table) -> Table {
    let cols: Vec<Vec<Sym>> = t.columns().iter().map(<[Sym]>::to_vec).collect();
    Table::from_columns(t.schema().clone(), cols)
}

/// Rebuild a table record by record via `push` — the row-build path.
fn push_rebuild(t: &Table) -> Table {
    let mut out = Table::new(t.schema().clone());
    for (_, r) in t.iter() {
        out.push(r.to_record());
    }
    out
}

#[test]
fn builders_agree() {
    let mut pool = ValuePool::new();
    let t = Table::from_rows(
        Schema::new(["Val", "Unit", "Org"]),
        &mut pool,
        vec![
            vec!["80000", "EUR", "IBM"],
            vec!["65", "k€", "SAP"],
            vec!["80000", "EUR", "IBM"],
            vec!["", "EUR", "BASF"],
        ],
    );
    let by_columns = column_rebuild(&t);
    let by_push = push_rebuild(&t);
    assert_eq!(t, by_columns);
    assert_eq!(t, by_push);

    // push_row path agrees with push(Record).
    let mut by_push_row = Table::new(t.schema().clone());
    for (_, r) in t.iter() {
        by_push_row.push_row(&r.to_vec());
    }
    assert_eq!(t, by_push_row);

    // project/select parity between the row-built and column-built tables.
    let keep = [AttrId(2), AttrId(0)];
    assert_eq!(t.project(&keep), by_columns.project(&keep));
    let ids = [RecordId(3), RecordId(0), RecordId(0)];
    assert_eq!(t.select(&ids), by_columns.select(&ids));

    // Row-wise definitions of project/select hold on the column store.
    let p = t.project(&keep);
    let s = t.select(&ids);
    for (r, _) in t.iter().take(p.len()) {
        for (k, &a) in keep.iter().enumerate() {
            assert_eq!(p.value(r, AttrId(k as u32)), t.value(r, a));
        }
    }
    for (i, &id) in ids.iter().enumerate() {
        assert_eq!(s.record(RecordId(i as u32)), t.record(id));
    }
}

proptest! {
    /// Cells survive the transpose-in/transpose-out round trip for
    /// arbitrary string matrices, and row views agree with materialized
    /// records and raw column slices.
    #[test]
    fn cells_round_trip(
        arity in 1usize..4,
        rows in prop::collection::vec(
            prop::collection::vec("[a-z0-9 ,\"]{0,6}", 4), 0..8),
    ) {
        let rows: Vec<Vec<String>> =
            rows.into_iter().map(|r| r[..arity].to_vec()).collect();
        let mut pool = ValuePool::new();
        let schema = Schema::new((0..arity).map(|a| format!("c{a}")));
        let t = Table::from_rows(schema, &mut pool, rows.clone());
        prop_assert_eq!(t.len(), rows.len());
        prop_assert_eq!(&column_rebuild(&t), &t);
        prop_assert_eq!(&push_rebuild(&t), &t);
        for (r, row) in rows.iter().enumerate() {
            let rid = RecordId(r as u32);
            let view = t.row(rid);
            let rec = t.record(rid);
            prop_assert!(view == rec, "row view must equal materialized record");
            for (a, cell) in row.iter().enumerate() {
                let attr = AttrId(a as u32);
                prop_assert_eq!(pool.get(t.value(rid, attr)), cell);
                prop_assert_eq!(pool.get(t.column(attr)[r]), cell);
                prop_assert_eq!(pool.get(view.get(a)), cell);
                prop_assert_eq!(pool.get(rec.get(a)), cell);
            }
        }
    }
}

/// The determinism-suite instance, built row-wise or rebuilt column-wise
/// from the same interned symbols (identical pools by construction).
fn instance(seed: u64, columnar: bool) -> affidavit::core::instance::ProblemInstance {
    let orgs = ["IBM", "SAP", "BASF", "KUKA"];
    let mut rows_s: Vec<Vec<String>> = Vec::new();
    let mut rows_t: Vec<Vec<String>> = Vec::new();
    for i in 0..40u64 {
        let j = i.wrapping_mul(seed | 1) % 97;
        rows_s.push(vec![
            format!("k{i}"),
            format!("{}", (j + 1) * 500),
            "EUR".to_owned(),
            orgs[(i % 4) as usize].to_owned(),
        ]);
        rows_t.push(vec![
            format!("k{i}"),
            format!("{}", (j + 1) * 5),
            "k€".to_owned(),
            orgs[(i % 4) as usize].to_owned(),
        ]);
    }
    let mut pool = ValuePool::new();
    let schema = Schema::new(["key", "Val", "Unit", "Org"]);
    let s = Table::from_rows(schema.clone(), &mut pool, rows_s);
    let t = Table::from_rows(schema, &mut pool, rows_t);
    let (s, t) = if columnar {
        (column_rebuild(&s), column_rebuild(&t))
    } else {
        (s, t)
    };
    affidavit::core::instance::ProblemInstance::new(s, t, pool).unwrap()
}

/// Everything a divergence could show up in: the rendered report, the
/// search counters, the exact cost, and the full pool evolution.
fn explain_fingerprint(cfg: AffidavitConfig, seed: u64, columnar: bool) -> String {
    let mut inst = instance(seed, columnar);
    let out = Affidavit::new(cfg.with_seed(seed)).explain(&mut inst);
    out.explanation.validate(&mut inst).unwrap();
    let mut pool_dump = String::new();
    for (_, s) in inst.pool.iter() {
        pool_dump.push_str(s);
        pool_dump.push('\u{1}');
    }
    format!(
        "{}\npolled={} generated={} cost={}\npool={}",
        render_report(&out.explanation, &inst),
        out.stats.polled,
        out.stats.states_generated,
        out.stats.end_state_cost.to_bits(),
        pool_dump,
    )
}

#[test]
fn explain_is_build_path_invariant() {
    for init in [InitStrategy::Id, InitStrategy::Overlap] {
        for threads in [1usize, 4] {
            let mut cfg = AffidavitConfig::paper_id();
            cfg.init = init;
            cfg.parallel_min_records = 0;
            let cfg = cfg.with_threads(threads);
            let row = explain_fingerprint(cfg.clone(), 7, false);
            let col = explain_fingerprint(cfg, 7, true);
            assert_eq!(
                row, col,
                "row-built vs column-built diverged ({init:?}, {threads} threads)"
            );
        }
    }
}

/// Profile the same snapshot directories through the RAM backend and the
/// disk-spilled backend (tiny budget, forced spills) — timing stripped,
/// the outputs must be byte-identical.
#[test]
fn profile_is_backend_invariant() {
    let root =
        std::env::temp_dir().join(format!("affidavit-columnar-profile-{}", std::process::id()));
    let before = root.join("before");
    let after = root.join("after");
    std::fs::create_dir_all(&before).unwrap();
    std::fs::create_dir_all(&after).unwrap();
    let inst = instance(3, false);
    csv::write_path(
        before.join("pair.csv"),
        &inst.source,
        &inst.pool,
        csv::CsvOptions::default(),
    )
    .unwrap();
    csv::write_path(
        after.join("pair.csv"),
        &inst.target,
        &inst.pool,
        csv::CsvOptions::default(),
    )
    .unwrap();

    let run = |backend: PoolBackend| {
        let opts = ProfileOptions {
            pool: PoolConfig {
                backend,
                budget_bytes: 512,
            },
            ..ProfileOptions::default()
        };
        let mut profile = profile_dirs(&before, &after, &opts).expect("profiling succeeds");
        profile.strip_timing();
        profile.render()
    };
    let ram = run(PoolBackend::Ram);
    let disk = run(PoolBackend::Disk);
    std::fs::remove_dir_all(&root).ok();
    assert_eq!(ram, disk, "profile must not depend on the pool backend");
    assert!(ram.contains("pair"), "profile covered the table pair");
}
