//! Thread-count invariance of the parallel two-phase extension engine:
//! `explain()` must return a byte-identical explanation (functions, record
//! partition, rendered report) and end-state cost for `threads = 1` and
//! `threads = N`, for any seed — the per-attribute seeded RNGs and the
//! stable merge make scheduling invisible.

use affidavit::core::config::{AffidavitConfig, InitStrategy};
use affidavit::core::report::render_report;
use affidavit::core::search::Affidavit;
use affidavit::table::{Schema, Table, ValuePool};
use proptest::prelude::*;

/// A small but non-trivial instance: scaling, constant replacement, an
/// identity column and asymmetric noise, parameterized by seed.
fn instance(seed: u64) -> affidavit::core::instance::ProblemInstance {
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
    for i in 0..4u64 {
        rows_s.push(vec![
            format!("del{i}"),
            format!("{}", i * 777),
            "EUR".to_owned(),
            "NOISE".to_owned(),
        ]);
        rows_t.push(vec![
            format!("ins{i}"),
            format!("{}", i * 13),
            "k€".to_owned(),
            "NOISE".to_owned(),
        ]);
    }
    let mut pool = ValuePool::new();
    let schema = Schema::new(["key", "Val", "Unit", "Org"]);
    let s = Table::from_rows(schema.clone(), &mut pool, rows_s);
    let t = Table::from_rows(schema, &mut pool, rows_t);
    affidavit::core::instance::ProblemInstance::new(s, t, pool).unwrap()
}

/// Run one search and describe its outcome exhaustively enough that any
/// divergence (functions, costs, alignment partition, trace shape) shows.
fn fingerprint(cfg: AffidavitConfig, seed: u64) -> (String, u64, f64, usize) {
    let mut inst = instance(seed);
    let out = Affidavit::new(cfg.with_seed(seed)).explain(&mut inst);
    let e = &out.explanation;
    e.validate(&mut inst).unwrap();
    (
        render_report(e, &inst),
        e.cost_units(inst.arity()),
        out.stats.end_state_cost,
        out.stats.states_generated,
    )
}

/// The parallel thread count under test. Defaults to 8; the CI
/// determinism leg overrides it via `AFFIDAVIT_TEST_THREADS`.
fn parallel_threads() -> usize {
    std::env::var("AFFIDAVIT_TEST_THREADS")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(8)
}

proptest! {
    /// threads = 1 and the parallel configuration agree byte-for-byte,
    /// both paper configs.
    #[test]
    fn explain_is_thread_count_invariant(seed in 0u64..10_000) {
        let threads = parallel_threads();
        for init in [InitStrategy::Id, InitStrategy::Overlap] {
            let mut base = AffidavitConfig::paper_id();
            base.init = init;
            // Force the fan-out path so the parallel engine itself (not
            // just the sequential fallback) is what the assertion covers.
            base.parallel_min_records = 0;
            if init == InitStrategy::Overlap {
                base.beta = 1;
                base.queue_width = 1;
            }
            let sequential = fingerprint(base.clone().with_threads(1), seed);
            let parallel = fingerprint(base.clone().with_threads(threads), seed);
            prop_assert_eq!(&sequential, &parallel, "divergence at seed {} ({:?})", seed, init);
        }
    }
}

/// Pinned-seed smoke check that also exercises thread counts beyond the
/// machine's core count and the auto (`0`) setting.
#[test]
fn explain_matches_across_many_thread_counts() {
    let mut cfg = AffidavitConfig::paper_id();
    cfg.parallel_min_records = 0;
    let base = fingerprint(cfg.clone().with_threads(1), 7);
    for threads in [2usize, 3, 8, 0] {
        let got = fingerprint(cfg.clone().with_threads(threads), 7);
        assert_eq!(base, got, "threads={threads} diverged");
    }
}

/// Everything a traced search exposes: the rendered report, the rendered
/// trace (ids, poll order, kept flags), the poll/expansion counters and
/// whether the expansion limit fired.
fn traced_fingerprint(
    mut cfg: AffidavitConfig,
    seed: u64,
    threads: usize,
) -> (String, String, usize, usize, bool) {
    let mut inst = instance(seed);
    cfg.parallel_min_records = 0;
    let out =
        Affidavit::new(cfg.with_seed(seed).with_threads(threads).with_trace()).explain(&mut inst);
    out.explanation.validate(&mut inst).unwrap();
    (
        render_report(&out.explanation, &inst),
        out.trace.expect("trace enabled").render(),
        out.stats.polled,
        out.stats.expansions,
        out.stats.hit_expansion_limit,
    )
}

/// The greedy paper_overlap configuration (ϱ = 1) matches its serial
/// search, trace included, at high, odd and auto thread counts.
#[test]
fn overlap_config_matches_across_thread_counts() {
    let cfg = AffidavitConfig::paper_overlap();
    let base = traced_fingerprint(cfg.clone(), 4242, 1);
    for threads in [8usize, 0, 3] {
        let got = traced_fingerprint(cfg.clone(), 4242, threads);
        assert_eq!(base, got, "threads {threads} diverged");
    }
}

/// When the expansion safety valve fires, the finalized partial
/// explanation and trace match the serial engine at every thread count.
#[test]
fn expansion_limit_matches_across_thread_counts() {
    let mut cfg = AffidavitConfig::paper_id();
    cfg.max_expansions = 3;
    let base = traced_fingerprint(cfg.clone(), 77, 1);
    assert!(base.4, "the expansion limit must fire");
    for threads in [2usize, 4, 8] {
        let got = traced_fingerprint(cfg.clone(), 77, threads);
        assert_eq!(base, got, "threads {threads} diverged at the limit");
    }
}
