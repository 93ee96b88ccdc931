//! Whole-snapshot profiling throughput — the paper's stated operating
//! point of comparing "database snapshots with hundreds of tables" (§1/§2)
//! with no per-table user effort.
//!
//! Materializes `--tables N` table pairs (cycling through the evaluation
//! dataset shapes, each synthetically transformed at η = τ = 0.3 with its
//! own seed), writes them as two snapshot directories, and profiles the
//! whole pair with `core::profiling::profile_dirs` (parallel across
//! tables). Prints the per-table outcomes plus aggregate throughput.
//!
//! Flags: `--tables N` (default 24), `--rows N` (cap per table, default
//! 400), `--seed N`, `--align` (exercise the schema-repair path).

use std::path::PathBuf;
use std::time::Instant;

use affidavit_bench::args::Args;
use affidavit_bench::speedup;
use affidavit_core::profiling::{profile_dirs, ProfileOptions, TableOutcome};
use affidavit_datagen::blueprint::{Blueprint, GenConfig};
use affidavit_datasets::specs::all_specs;
use affidavit_datasets::synth::generate_rows;
use affidavit_table::csv;

fn main() {
    let args = Args::parse();
    let tables = args.get_or("tables", 24usize);
    let rows_cap = args.get_or("rows", 400usize);
    let seed: u64 = args.get_or("seed", 0xF00D);
    let align = args.has("align");

    let root = std::env::temp_dir().join(format!("affidavit-repro-profile-{seed}"));
    std::fs::remove_dir_all(&root).ok();
    let before: PathBuf = root.join("before");
    let after: PathBuf = root.join("after");
    std::fs::create_dir_all(&before).expect("temp dir");
    std::fs::create_dir_all(&after).expect("temp dir");

    let specs = all_specs();
    let started_gen = Instant::now();
    let mut total_records = 0usize;
    for i in 0..tables {
        let spec = &specs[i % specs.len()];
        let s = seed + i as u64;
        let rows = spec.rows.min(rows_cap);
        let (base, pool) = generate_rows(spec, rows, s);
        let generated = Blueprint::new(base, pool, GenConfig::new(0.3, 0.3, s)).materialize_full();
        total_records += generated.instance.source.len() + generated.instance.target.len();
        let name = format!("{}_{i:03}", spec.name);
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
            .expect("write snapshot CSV");
        }
    }
    println!(
        "materialized {tables} table pairs ({total_records} records) in {:.2?}\n",
        started_gen.elapsed()
    );

    let opts = ProfileOptions {
        align,
        ..ProfileOptions::default()
    };
    let started = Instant::now();
    let profile = profile_dirs(&before, &after, &opts).expect("profiling succeeds");
    let elapsed = started.elapsed();

    println!("{}", profile.render());

    let explained = profile
        .tables
        .iter()
        .filter(|t| matches!(t.outcome, TableOutcome::Explained { .. }))
        .count();
    let failed = profile
        .tables
        .iter()
        .filter(|t| matches!(t.outcome, TableOutcome::Failed { .. }))
        .count();
    println!(
        "profiled {tables} tables in {:.2?} ({:.0} ms/table, {} explained, {} failed)",
        elapsed,
        elapsed.as_secs_f64() * 1e3 / tables as f64,
        explained,
        failed,
    );
    assert_eq!(failed, 0, "no table pair may fail to profile");

    // Distributed-profiling benchmark: the same snapshot directories
    // profiled through the work-stealing job queue at increasing worker
    // counts. Prefers real `affidavit-worker` child processes (built
    // alongside this binary); falls back to in-process worker threads
    // when the binary is not found. Deterministic absorb keeps the
    // profile byte-identical to `profile_dirs` at every count (asserted).
    let dist = bench_dist(&before, &after, &opts, &[1, 2, 4]);
    println!("\ndistributed profiling ({} jobs):", dist.jobs);
    for row in &dist.rows {
        println!(
            "  {} workers {}: {:.3}s | {:.2}x vs 1 worker | {} steals, {} stragglers requeued, {} duplicates discarded, {} conflicts",
            row.transport,
            row.workers,
            row.total_secs,
            row.speedup_vs_1,
            row.steals,
            row.stragglers_requeued,
            row.duplicates_discarded,
            row.conflicts,
        );
    }
    println!("  deterministic = {}", dist.deterministic);
    if args.get_str("bench-json").is_some() || args.get_str("dist-json").is_some() {
        let path = args.get_str("dist-json").unwrap_or("BENCH_dist.json");
        let json = serde_json::to_string_pretty(&dist).expect("serializable");
        std::fs::write(path, json).expect("write dist bench json");
        println!("wrote {path}");
    }

    std::fs::remove_dir_all(&root).ok();

    // Extension-phase scaling benchmark: one §5.1 synthetic instance,
    // solved at 1 worker vs `--bench-threads` workers. Because the
    // parallel engine is deterministic, both runs return byte-identical
    // explanations; only the extension phase's wall time may differ.
    let bench_threads = args.get_or("bench-threads", 8usize);
    let bench_rows = args.get_or("bench-rows", 2_000usize);
    let bench_runs = args.get_or("bench-runs", 3usize);
    let bench = bench_extension_phase(bench_rows, seed, bench_runs, bench_threads);
    println!(
        "\nextension phase ({} rows, {} runs): 1 thread {:.3}s | {} threads {:.3}s | speedup {:.2}x (of {:.3}s / {:.3}s total)",
        bench.rows,
        bench.runs,
        bench.extension_secs_serial,
        bench.threads,
        bench.extension_secs_parallel,
        bench.extension_speedup,
        bench.total_secs_serial,
        bench.total_secs_parallel,
    );
    println!(
        "columnar core ({} rows x {} attrs, {} runs): apply row {:.4}s | columnar {:.4}s ({:.2}x) | refine row {:.4}s | columnar {:.4}s ({:.2}x) | deterministic = {}",
        bench.columnar.rows,
        bench.columnar.attrs,
        bench.columnar.runs,
        bench.columnar.apply_row_major_secs,
        bench.columnar.apply_columnar_secs,
        bench.columnar.apply_speedup,
        bench.columnar.refine_row_major_secs,
        bench.columnar.refine_columnar_secs,
        bench.columnar.refine_speedup,
        bench.columnar.deterministic,
    );
    if let Some(path) = args.get_str("bench-json") {
        let json = serde_json::to_string_pretty(&bench).expect("serializable");
        std::fs::write(path, json).expect("write bench json");
        println!("wrote {path}");
    }

    // Ingestion-throughput benchmark: adult at its full Table 2 size
    // written as CSV, read back through (a) `csv::read_str` on the
    // pre-loaded string, (b) streaming `ingest::read_path`, and (c) the
    // same into a disk-spilled SegmentPool. All three produce
    // byte-identical `(Table, ValuePool)` pairs (asserted).
    let ingest_rows = args.get_or("ingest-rows", 0usize);
    let ingest_runs = args.get_or("ingest-runs", 3usize);
    let ingest = bench_ingest(ingest_rows, seed, ingest_runs);
    println!(
        "\ningestion ({} rows, {:.1} MB, {} runs): read_str {:.3}s | stream {:.3}s ({:.1} MB/s) | disk backend {:.3}s ({} B spilled) | deterministic = {}",
        ingest.rows,
        ingest.bytes as f64 / 1e6,
        ingest.runs,
        ingest.read_str_secs,
        ingest.stream_secs,
        ingest.mb_per_s_stream,
        ingest.disk_backend_secs,
        ingest.disk_spilled_bytes,
        ingest.deterministic,
    );
    if args.get_str("bench-json").is_some() || args.get_str("ingest-json").is_some() {
        let path = args.get_str("ingest-json").unwrap_or("BENCH_ingest.json");
        let json = serde_json::to_string_pretty(&ingest).expect("serializable");
        std::fs::write(path, json).expect("write ingest bench json");
        println!("wrote {path}");
    }

    // Incremental re-profiling benchmark: a snapshot-pair corpus profiled
    // through `delta::profile_dirs_delta` at increasing dirty fractions.
    // The spliced profile must stay byte-identical (timing stripped) to
    // the from-scratch `profile_dirs` at every fraction, redo work must
    // scale with the dirty fraction, and a fully clean rerun must redo
    // nothing.
    let delta_tables = args.get_or("delta-tables", 40usize);
    let delta_rows = args.get_or("delta-rows", 60usize);
    let delta = bench_delta(delta_tables, delta_rows, seed, align);
    println!(
        "\nincremental re-profiling ({} tables, {} row cap): full profile {:.3}s",
        delta.tables, delta.rows_cap, delta.full_profile_secs
    );
    for (i, &f) in delta.dirty_fractions.iter().enumerate() {
        println!(
            "  {:>5.1}% dirty ({:>2} tables edited): {:.3}s ({:.2}x vs full) | {}/{} blocks redone | {} pairs spliced, {} redone, {} fallbacks",
            f * 100.0,
            delta.dirty_tables[i],
            delta.delta_secs[i],
            delta.speedup_vs_full[i],
            delta.blocks_redone[i],
            delta.blocks_total[i],
            delta.pairs_spliced[i],
            delta.pairs_redone[i],
            delta.fallbacks[i],
        );
    }
    println!("  deterministic = {}", delta.deterministic);
    if args.get_str("bench-json").is_some() || args.get_str("delta-json").is_some() {
        let path = args.get_str("delta-json").unwrap_or("BENCH_delta.json");
        let json = serde_json::to_string_pretty(&delta).expect("serializable");
        std::fs::write(path, json).expect("write delta bench json");
        println!("wrote {path}");
    }
}

/// One measured (transport, worker-count) configuration of the
/// distributed profiler.
#[derive(serde::Serialize)]
struct DistRow {
    /// `"tcp"` (real `affidavit-worker` children dialing the
    /// coordinator's listener) or `"in-process"` (worker threads; fallback
    /// when the worker binary is not found next to this one).
    transport: String,
    /// Worker count of this run.
    workers: usize,
    /// Wall-clock seconds for the whole profile.
    total_secs: f64,
    /// The 1-worker time divided by `total_secs` — only meaningful when
    /// `speedup_valid`.
    speedup_vs_1: f64,
    /// Successful exclusive claims.
    steals: usize,
    /// Claims re-published after the straggler timeout.
    stragglers_requeued: usize,
    /// Duplicate results checked and discarded.
    duplicates_discarded: usize,
    /// Diverging duplicates (must be 0; nonzero fails the run).
    conflicts: usize,
}

/// Distributed-profiling scaling measurement, serialized into
/// `BENCH_dist.json` at the repo root. The same snapshot directories are
/// profiled through `affidavit-dist`'s work-stealing job queue on every
/// available transport at each worker count; every run must render
/// byte-identically (timing stripped) to the single-process
/// `profile_dirs`.
#[derive(serde::Serialize)]
struct DistBench {
    /// Table pairs in the snapshot directories.
    tables: usize,
    /// Jobs dispatched per run (pairs that reached the search).
    jobs: usize,
    /// One row per measured (transport, worker-count) configuration.
    rows: Vec<DistRow>,
    /// Hardware threads available on the measuring machine.
    hardware_threads: usize,
    /// False when the machine cannot physically exhibit parallel speedup
    /// (one hardware thread) — treat `speedup_vs_1` as noise.
    speedup_valid: bool,
    /// Every configuration rendered a profile byte-identical to the
    /// single-process run (timing stripped).
    deterministic: bool,
}

fn bench_dist(
    before: &std::path::Path,
    after: &std::path::Path,
    opts: &ProfileOptions,
    worker_counts: &[usize],
) -> DistBench {
    use affidavit_dist::{worker_binary, DistBackend, DistOptions};

    let canonical = |mut p: affidavit_core::profiling::SnapshotProfile| {
        p.strip_timing();
        format!("{}\n{}", p.render(), p.to_json())
    };
    let local_profile = profile_dirs(before, after, opts).expect("local profile");
    let tables = local_profile.tables.len();
    let local = canonical(local_profile);
    // Real worker processes over the TCP listener when the worker binary
    // is present, in-process worker threads otherwise.
    let (transport, backend) = match worker_binary() {
        Ok(bin) => (
            "tcp",
            DistBackend::Tcp {
                listen: None,
                worker_bin: Some(bin),
            },
        ),
        Err(_) => ("in-process", DistBackend::InProcess),
    };

    let mut rows: Vec<DistRow> = Vec::new();
    let mut jobs = 0;
    let mut deterministic = true;
    let mut secs_at_1 = None;
    for &workers in worker_counts {
        let dopts = DistOptions {
            workers,
            backend: backend.clone(),
            ..DistOptions::default()
        };
        let started = Instant::now();
        let (profile, stats) =
            affidavit_dist::profile_dirs_distributed(before, after, opts, &dopts)
                .expect("distributed profile");
        let total_secs = started.elapsed().as_secs_f64();
        let base = *secs_at_1.get_or_insert(total_secs);
        deterministic &= canonical(profile) == local;
        jobs = stats.jobs;
        rows.push(DistRow {
            transport: transport.to_owned(),
            workers,
            total_secs,
            speedup_vs_1: base / total_secs.max(1e-12),
            steals: stats.steals,
            stragglers_requeued: stats.stragglers_requeued,
            duplicates_discarded: stats.duplicates_discarded,
            conflicts: stats.conflicts,
        });
    }
    assert!(
        deterministic,
        "every worker count must render the single-process profile byte-identically"
    );

    // Registry regression gate: the deterministic counters this JSON is
    // built from must equal what the coordinator itself published into
    // the process-wide metrics registry during the final run.
    let m = affidavit_obs::metrics();
    let last = rows.last().expect("at least one measured configuration");
    for (series, value) in [
        ("dist_jobs", jobs),
        ("dist_steals", last.steals),
        ("dist_stragglers_requeued", last.stragglers_requeued),
        ("dist_duplicates_discarded", last.duplicates_discarded),
        ("dist_conflicts", last.conflicts),
    ] {
        assert_eq!(
            m.counter(series),
            value as u64,
            "registry {series} must match the final distributed run"
        );
    }
    DistBench {
        tables,
        jobs,
        rows,
        hardware_threads: speedup::hardware_threads(),
        speedup_valid: speedup::warn_if_invalid(),
        deterministic,
    }
}

/// One ingestion-throughput measurement, serialized into
/// `BENCH_ingest.json` at the repo root. All three readers — in-memory,
/// streaming, streaming into a disk-spilled `SegmentPool` — must produce
/// byte-identical `(Table, ValuePool)` pairs.
#[derive(serde::Serialize)]
struct IngestBench {
    /// Records in the benchmark table.
    rows: usize,
    /// Attribute count of the table.
    attrs: usize,
    /// CSV size in bytes.
    bytes: usize,
    /// Runs averaged per configuration.
    runs: usize,
    /// Hardware threads available on the measuring machine.
    hardware_threads: usize,
    /// Mean seconds for `csv::read_str` on the pre-loaded string.
    read_str_secs: f64,
    /// Mean seconds for streaming ingestion from the file.
    stream_secs: f64,
    /// Throughput of streaming ingestion, in 10^6 bytes per second.
    mb_per_s_stream: f64,
    /// Mean seconds for streaming ingestion into the disk backend.
    disk_backend_secs: f64,
    /// RAM budget of the disk-backend run.
    disk_budget_bytes: usize,
    /// Bytes spilled by the disk-backend run (must be > 0).
    disk_spilled_bytes: u64,
    /// Every reader produced a byte-identical `(Table, ValuePool)`.
    deterministic: bool,
}

/// Time the three readers over `rows` rows of adult (0 = its full
/// Table 2 size).
fn bench_ingest(rows: usize, seed: u64, runs: usize) -> IngestBench {
    use affidavit_store::{ingest, IngestOptions, PoolBackend, PoolConfig};
    use affidavit_table::{Table, ValuePool};

    let spec = affidavit_datasets::specs::by_name("adult").expect("dataset exists");
    let rows = if rows == 0 { spec.rows } else { rows };
    let (table, pool) = generate_rows(&spec, rows, seed);
    let path = std::env::temp_dir().join(format!("affidavit-bench-ingest-{seed}.csv"));
    csv::write_path(&path, &table, &pool, csv::CsvOptions::default()).expect("write bench CSV");
    let bytes = std::fs::metadata(&path).expect("bench CSV exists").len() as usize;

    let fingerprint = |table: &Table, pool: &ValuePool| {
        let mut out = String::new();
        for (_, s) in pool.iter() {
            out.push_str(s);
            out.push('\u{1}');
        }
        for record in table.rows() {
            for sym in record.iter() {
                out.push_str(&sym.0.to_string());
                out.push(',');
            }
            out.push('\u{2}');
        }
        out
    };

    let mut timings = [0.0f64; 3];
    let mut fingerprints: Vec<String> = Vec::new();
    let mut spilled = 0u64;
    // Registry regression gate: `ingest_rows_total` accumulates across
    // the process, so meter the delta this benchmark's streaming reads
    // contribute and assert it below.
    let rows_metered_before = affidavit_obs::metrics().counter("ingest_rows_total");
    let mut rows_expected = 0u64;
    // Small enough that the distinct-value corpus of the benchmark table
    // cannot fit: the disk run must exercise spill + fault-back paths.
    let disk_budget_bytes = 64 * 1024;
    let opts = IngestOptions::default();
    for _ in 0..runs {
        let mut prints = Vec::new();
        // (a) in-memory parse (file I/O excluded).
        let text = std::fs::read_to_string(&path).expect("read bench CSV");
        let started = Instant::now();
        let mut p = ValuePool::new();
        let t = csv::read_str(&text, &mut p, csv::CsvOptions::default()).expect("parse");
        timings[0] += started.elapsed().as_secs_f64();
        prints.push(fingerprint(&t, &p));
        drop(text);
        // (b) streaming from the file.
        let started = Instant::now();
        let mut p = ValuePool::new();
        let t = ingest::read_path(&path, &mut p, &opts).expect("stream");
        timings[1] += started.elapsed().as_secs_f64();
        rows_expected += t.len() as u64;
        prints.push(fingerprint(&t, &p));
        // (c) streaming into a disk-spilled SegmentPool.
        let started = Instant::now();
        let mut p = PoolConfig {
            backend: PoolBackend::Disk,
            budget_bytes: disk_budget_bytes,
        }
        .build()
        .expect("disk pool");
        let t = ingest::read_path(&path, &mut p, &opts).expect("disk stream");
        timings[2] += started.elapsed().as_secs_f64();
        spilled = p.store_stats().expect("disk backend").spilled_bytes;
        rows_expected += t.len() as u64;
        prints.push(fingerprint(&t, &p));
        fingerprints.push(prints.join("\u{3}"));
    }
    let rows_metered = affidavit_obs::metrics().counter("ingest_rows_total") - rows_metered_before;
    assert_eq!(
        rows_metered, rows_expected,
        "registry ingest_rows_total must meter every streamed record"
    );
    std::fs::remove_file(&path).ok();
    let deterministic = fingerprints.iter().all(|f| f == &fingerprints[0])
        && fingerprints[0]
            .split('\u{3}')
            .collect::<Vec<_>>()
            .windows(2)
            .all(|w| w[0] == w[1]);
    assert!(
        deterministic,
        "all ingestion paths must produce byte-identical pools and tables"
    );
    assert!(spilled > 0, "the disk-backend run must spill");
    let [read_str, stream, disk] = timings.map(|t| t / runs as f64);
    IngestBench {
        rows,
        attrs: spec.attrs,
        bytes,
        runs,
        hardware_threads: speedup::hardware_threads(),
        read_str_secs: read_str,
        stream_secs: stream,
        mb_per_s_stream: bytes as f64 / 1e6 / stream.max(1e-12),
        disk_backend_secs: disk,
        disk_budget_bytes,
        disk_spilled_bytes: spilled,
        deterministic,
    }
}

/// One extension-phase scaling measurement, serialized into
/// `BENCH_search.json` at the repo root.
#[derive(serde::Serialize)]
struct ExtensionBench {
    /// Base-table rows of the synthetic instance.
    rows: usize,
    /// Attribute count of the instance.
    attrs: usize,
    /// Solver runs averaged per configuration.
    runs: usize,
    /// Worker count of the parallel configuration.
    threads: usize,
    /// Hardware threads available on the measuring machine.
    hardware_threads: usize,
    /// Mean wall-clock seconds in the extension phase, `threads = 1`.
    extension_secs_serial: f64,
    /// Mean wall-clock seconds in the extension phase, `threads = N`.
    extension_secs_parallel: f64,
    /// `extension_secs_serial / extension_secs_parallel`. Only
    /// meaningful when `speedup_valid`; on a 1-hardware-thread machine
    /// any deviation from 1.0 is measurement noise.
    extension_speedup: f64,
    /// False when the machine cannot physically exhibit parallel speedup
    /// (`hardware_threads == 1`) — treat `extension_speedup` as noise.
    speedup_valid: bool,
    /// Mean total solve seconds, `threads = 1`.
    total_secs_serial: f64,
    /// Mean total solve seconds, `threads = N`.
    total_secs_parallel: f64,
    /// Both configurations returned identical explanations and costs.
    deterministic: bool,
    /// Columnar-vs-row micro-benchmark of the apply and refine inner
    /// loops over the same instance shape.
    columnar: ColumnarBench,
}

/// Micro-benchmark of the two hot inner loops the columnar table core
/// rewrote — whole-attribute function application (`core::apply`) and
/// per-attribute partitioning (`blocking::refine`) — against a row-major
/// mirror of the same table (one `Vec<Sym>` per record, the old layout).
///
/// Both paths run single-threaded, so unlike the thread-scaling rows the
/// speedup is meaningful on any machine, including one hardware thread;
/// `speedup_valid` is still recorded per `hardware_threads` convention
/// (layout comparisons do not need parallelism, so it is always true).
#[derive(serde::Serialize)]
struct ColumnarBench {
    /// Records in the benchmarked table.
    rows: usize,
    /// Attribute count of the benchmarked table.
    attrs: usize,
    /// Timed repetitions averaged per path.
    runs: usize,
    /// Hardware threads available on the measuring machine.
    hardware_threads: usize,
    /// Mean seconds to apply every attribute's sampled function over the
    /// whole table, walking row-major records (old layout, per-function
    /// cross-row memo).
    apply_row_major_secs: f64,
    /// Mean seconds for the same transforms as one tight loop per
    /// contiguous column with a per-column memo.
    apply_columnar_secs: f64,
    /// `apply_row_major_secs / apply_columnar_secs`.
    apply_speedup: f64,
    /// Mean seconds to partition all records by each attribute's raw
    /// value, row-major walk.
    refine_row_major_secs: f64,
    /// Mean seconds for the same partition scanning each column slice.
    refine_columnar_secs: f64,
    /// `refine_row_major_secs / refine_columnar_secs`.
    refine_speedup: f64,
    /// True: the comparison is single-threaded in both paths.
    speedup_valid: bool,
    /// Both layouts produced identical transforms (resolved to strings)
    /// and identical partitions on every run.
    deterministic: bool,
}

fn bench_columnar(rows: usize, seed: u64, runs: usize) -> ColumnarBench {
    use affidavit_functions::ApplyScratch;
    use affidavit_table::{AttrId, FxHashMap, RecordId, ScratchPool, Sym};

    let spec = affidavit_datasets::specs::by_name("adult").expect("dataset exists");
    let (base, pool) = generate_rows(&spec, rows.min(spec.rows), seed);
    let bp = Blueprint::new(base, pool, GenConfig::new(0.3, 0.3, seed));
    let table = &bp.base;
    let functions = &bp.functions;
    let arity = table.schema().arity();
    let n = table.len();
    // The old layout: one materialized Vec<Sym> per record.
    let row_major: Vec<Vec<Sym>> = table.rows().map(|r| r.to_vec()).collect();

    let mut apply_row = 0.0f64;
    let mut apply_col = 0.0f64;
    let mut refine_row = 0.0f64;
    let mut refine_col = 0.0f64;
    let mut deterministic = true;

    for _ in 0..runs {
        // Apply, row-major: per-function memo shared across rows, rows
        // walked outer — the shape of the old `transform_table`.
        let reader = bp.pool.reader();
        let mut overlay = ScratchPool::new(reader);
        let mut memos: Vec<affidavit_functions::AppliedFunction> = functions
            .iter()
            .cloned()
            .map(affidavit_functions::AppliedFunction::new)
            .collect();
        let started = Instant::now();
        let mut out_rows: Vec<Vec<Option<Sym>>> = Vec::with_capacity(n);
        for row in &row_major {
            let mut out = Vec::with_capacity(arity);
            for (a, f) in memos.iter_mut().enumerate() {
                out.push(f.apply(row[a], &mut overlay));
            }
            out_rows.push(out);
        }
        apply_row += started.elapsed().as_secs_f64();
        let fp_row: Vec<Option<String>> = out_rows
            .iter()
            .flatten()
            .map(|o| o.map(|s| affidavit_table::Interner::get(&overlay, s).to_owned()))
            .collect();

        // Apply, columnar: one tight loop per contiguous column slice,
        // memo keyed per column.
        let reader = bp.pool.reader();
        let mut overlay = ScratchPool::new(reader);
        let mut scratch = ApplyScratch::new();
        let started = Instant::now();
        let mut out_cols: Vec<Vec<Option<Sym>>> = Vec::with_capacity(arity);
        for (a, f) in functions.iter().enumerate() {
            let mut out = Vec::new();
            scratch.apply_column(f, table.column(AttrId(a as u32)), &mut overlay, &mut out);
            out_cols.push(out);
        }
        apply_col += started.elapsed().as_secs_f64();
        let fp_col: Vec<Option<String>> = (0..n)
            .flat_map(|r| (0..arity).map(move |a| (r, a)))
            .map(|(r, a)| {
                out_cols[a][r].map(|s| affidavit_table::Interner::get(&overlay, s).to_owned())
            })
            .collect();
        deterministic &= fp_row == fp_col;

        // Refine, row-major: group records by each attribute's raw value
        // in first-seen key order, reading `rows[r][a]`.
        let partition_fp = |groups: &FxHashMap<Sym, Vec<RecordId>>, order: &[Sym]| {
            order
                .iter()
                .map(|k| (k.0, groups[k].len()))
                .collect::<Vec<_>>()
        };
        let mut fps_row = Vec::with_capacity(arity);
        let started = Instant::now();
        for a in 0..arity {
            let mut groups: FxHashMap<Sym, Vec<RecordId>> = FxHashMap::default();
            let mut order: Vec<Sym> = Vec::new();
            for (r, row) in row_major.iter().enumerate() {
                let key = row[a];
                groups
                    .entry(key)
                    .or_insert_with(|| {
                        order.push(key);
                        Vec::new()
                    })
                    .push(RecordId(r as u32));
            }
            fps_row.push(partition_fp(&groups, &order));
        }
        refine_row += started.elapsed().as_secs_f64();

        // Refine, columnar: the same partition over the column slice.
        let mut fps_col = Vec::with_capacity(arity);
        let started = Instant::now();
        for a in 0..arity {
            let col = table.column(AttrId(a as u32));
            let mut groups: FxHashMap<Sym, Vec<RecordId>> = FxHashMap::default();
            let mut order: Vec<Sym> = Vec::new();
            for (r, &key) in col.iter().enumerate() {
                groups
                    .entry(key)
                    .or_insert_with(|| {
                        order.push(key);
                        Vec::new()
                    })
                    .push(RecordId(r as u32));
            }
            fps_col.push(partition_fp(&groups, &order));
        }
        refine_col += started.elapsed().as_secs_f64();
        deterministic &= fps_row == fps_col;
    }

    let mean = |total: f64| total / runs as f64;
    ColumnarBench {
        rows: n,
        attrs: arity,
        runs,
        hardware_threads: speedup::hardware_threads(),
        apply_row_major_secs: mean(apply_row),
        apply_columnar_secs: mean(apply_col),
        apply_speedup: mean(apply_row) / mean(apply_col).max(1e-12),
        refine_row_major_secs: mean(refine_row),
        refine_columnar_secs: mean(refine_col),
        refine_speedup: mean(refine_row) / mean(refine_col).max(1e-12),
        speedup_valid: true,
        deterministic,
    }
}

/// Incremental re-profiling measurement, serialized into
/// `BENCH_delta.json` at the repo root. One snapshot-pair corpus is
/// re-profiled through the `--delta` manifest at each dirty fraction
/// (the first `⌈f·N⌉` target tables get one appended row); the indexed
/// vectors line up with `dirty_fractions`. Every delta run must render
/// byte-identically (timing stripped) to a from-scratch `profile_dirs`
/// over the same edited directories, `blocks_redone` must be 0 at a 0%
/// dirty fraction and non-decreasing across fractions.
#[derive(serde::Serialize)]
struct DeltaBench {
    /// Table pairs in the corpus.
    tables: usize,
    /// Row cap per generated table.
    rows_cap: usize,
    /// Hardware threads available on the measuring machine.
    hardware_threads: usize,
    /// Wall-clock seconds for one from-scratch profile of the pristine
    /// corpus (the baseline every delta run is compared against).
    full_profile_secs: f64,
    /// The dirty fractions measured.
    dirty_fractions: Vec<f64>,
    /// Target tables actually edited at each fraction (`⌈f·N⌉`).
    dirty_tables: Vec<usize>,
    /// Fingerprint groups seen at each fraction.
    blocks_total: Vec<u64>,
    /// Groups spliced from the manifest at each fraction.
    blocks_reused: Vec<u64>,
    /// Groups that re-entered the search at each fraction — ≈0 when
    /// nothing is dirty, scaling with the dirty fraction.
    blocks_redone: Vec<u64>,
    /// Pairs spliced without a search at each fraction.
    pairs_spliced: Vec<u64>,
    /// Pairs that re-entered the search at each fraction.
    pairs_redone: Vec<u64>,
    /// Broken-manifest fallbacks at each fraction (must be 0: plain data
    /// dirt is a redo, not a fallback).
    fallbacks: Vec<u64>,
    /// Wall-clock seconds of the delta run at each fraction.
    delta_secs: Vec<f64>,
    /// `full_profile_secs / delta_secs[i]`.
    speedup_vs_full: Vec<f64>,
    /// True: splice-vs-search is not a thread-scaling comparison, so the
    /// ratio is meaningful on any machine, including one hardware thread
    /// (recorded per the `hardware_threads` convention).
    speedup_valid: bool,
    /// Every delta run rendered byte-identically (timing stripped) to
    /// the from-scratch profile of the same edited directories.
    deterministic: bool,
}

fn bench_delta(tables: usize, rows_cap: usize, seed: u64, align: bool) -> DeltaBench {
    use affidavit_core::delta::{default_profile_state, profile_dirs_delta};

    let canonical = |mut p: affidavit_core::profiling::SnapshotProfile| {
        p.strip_timing();
        format!("{}\n{}", p.render(), p.to_json())
    };
    let copy_dir = |from: &std::path::Path, to: &std::path::Path| {
        std::fs::create_dir_all(to).expect("copy dir");
        for entry in std::fs::read_dir(from).expect("read dir") {
            let entry = entry.expect("dir entry");
            std::fs::copy(entry.path(), to.join(entry.file_name())).expect("copy file");
        }
    };

    let root = std::env::temp_dir().join(format!("affidavit-bench-delta-{seed}"));
    std::fs::remove_dir_all(&root).ok();
    let before = root.join("before");
    let pristine = root.join("after-pristine");
    std::fs::create_dir_all(&before).expect("temp dir");
    std::fs::create_dir_all(&pristine).expect("temp dir");

    let specs = all_specs();
    for i in 0..tables {
        let spec = &specs[i % specs.len()];
        let s = seed.wrapping_add(0xDE17A).wrapping_add(i as u64);
        let rows = spec.rows.min(rows_cap);
        let (base, pool) = generate_rows(spec, rows, s);
        let generated = Blueprint::new(base, pool, GenConfig::new(0.3, 0.3, s)).materialize_full();
        let name = format!("{}_{i:03}", spec.name);
        for (dir, table) in [
            (&before, &generated.instance.source),
            (&pristine, &generated.instance.target),
        ] {
            csv::write_path(
                dir.join(format!("{name}.csv")),
                table,
                &generated.instance.pool,
                csv::CsvOptions::default(),
            )
            .expect("write snapshot CSV");
        }
    }

    let opts = ProfileOptions {
        align,
        ..ProfileOptions::default()
    };
    let started = Instant::now();
    profile_dirs(&before, &pristine, &opts).expect("full profile");
    let full_profile_secs = started.elapsed().as_secs_f64();
    // Seed the manifest with one pristine delta run (a full redo); the
    // manifest lands at the default in-directory state path, so copying
    // the directory below carries it along.
    profile_dirs_delta(&before, &pristine, &opts, &default_profile_state(&pristine))
        .expect("seed manifest");

    let fractions = [0.0f64, 0.001, 0.01, 0.1, 1.0];
    let mut dirty_tables = Vec::new();
    let mut blocks_total = Vec::new();
    let mut blocks_reused = Vec::new();
    let mut blocks_redone = Vec::new();
    let mut pairs_spliced = Vec::new();
    let mut pairs_redone = Vec::new();
    let mut fallbacks = Vec::new();
    let mut delta_secs = Vec::new();
    let mut speedup_vs_full = Vec::new();
    let mut deterministic = true;
    for &fraction in &fractions {
        let dirty = ((fraction * tables as f64).ceil() as usize).min(tables);
        // A fresh copy of the pristine target directory, seeded manifest
        // included; `before` is shared (sources never change here).
        let after = root.join(format!("after-{}", (fraction * 1000.0) as u64));
        copy_dir(&pristine, &after);
        // Edit the first `dirty` target tables (stem order): append a
        // duplicate of the last data row — a row insert the explanation
        // must newly account for, so the pair cannot be spliced.
        let mut stems: Vec<PathBuf> = std::fs::read_dir(&after)
            .expect("read dir")
            .filter_map(|e| e.ok().map(|e| e.path()))
            .filter(|p| p.extension().is_some_and(|e| e == "csv"))
            .collect();
        stems.sort();
        for path in stems.iter().take(dirty) {
            let text = std::fs::read_to_string(path).expect("read target CSV");
            let last = text.lines().last().expect("a data row").to_owned();
            let mut edited = text;
            if !edited.ends_with('\n') {
                edited.push('\n');
            }
            edited.push_str(&last);
            edited.push('\n');
            std::fs::write(path, edited).expect("write edited CSV");
        }
        let started = Instant::now();
        let (profile, stats) =
            profile_dirs_delta(&before, &after, &opts, &default_profile_state(&after))
                .expect("delta profile");
        let secs = started.elapsed().as_secs_f64();
        let scratch = profile_dirs(&before, &after, &opts).expect("from-scratch profile");
        deterministic &= canonical(profile) == canonical(scratch);
        if dirty == 0 {
            assert_eq!(
                stats.blocks_redone, 0,
                "a clean rerun must splice every pair without redoing a block"
            );
        }
        assert_eq!(
            stats.pairs_redone, dirty as u64,
            "exactly the edited pairs must re-enter the search"
        );
        assert_eq!(stats.fallbacks, 0, "plain data dirt must not be a fallback");
        dirty_tables.push(dirty);
        blocks_total.push(stats.blocks_total);
        blocks_reused.push(stats.blocks_reused);
        blocks_redone.push(stats.blocks_redone);
        pairs_spliced.push(stats.pairs_spliced);
        pairs_redone.push(stats.pairs_redone);
        fallbacks.push(stats.fallbacks);
        delta_secs.push(secs);
        speedup_vs_full.push(full_profile_secs / secs.max(1e-12));
    }
    assert!(
        blocks_redone.windows(2).all(|w| w[0] <= w[1]),
        "redone blocks must be non-decreasing in the dirty fraction: {blocks_redone:?}"
    );
    assert!(
        deterministic,
        "every delta run must render the from-scratch profile byte-identically"
    );
    std::fs::remove_dir_all(&root).ok();
    DeltaBench {
        tables,
        rows_cap,
        hardware_threads: speedup::hardware_threads(),
        full_profile_secs,
        dirty_fractions: fractions.to_vec(),
        dirty_tables,
        blocks_total,
        blocks_reused,
        blocks_redone,
        pairs_spliced,
        pairs_redone,
        fallbacks,
        delta_secs,
        speedup_vs_full,
        speedup_valid: true,
        deterministic,
    }
}

fn bench_extension_phase(rows: usize, seed: u64, runs: usize, threads: usize) -> ExtensionBench {
    use affidavit_core::Affidavit;

    let spec = affidavit_datasets::specs::by_name("adult").expect("dataset exists");
    let solve = |threads: usize| {
        let mut ext = 0.0f64;
        let mut total = 0.0f64;
        let mut fingerprint = String::new();
        for run in 0..runs {
            let (base, pool) = generate_rows(&spec, rows.min(spec.rows), seed + run as u64);
            let mut generated =
                Blueprint::new(base, pool, GenConfig::new(0.3, 0.3, seed + run as u64))
                    .materialize_full();
            let cfg = affidavit_core::AffidavitConfig::paper_id()
                .with_seed(seed + run as u64)
                .with_threads(threads);
            let out = Affidavit::new(cfg).explain(&mut generated.instance);
            ext += out.stats.extension_time.as_secs_f64();
            total += out.stats.duration.as_secs_f64();
            // Fingerprint the *full rendered explanation* (functions,
            // record partition) plus the exact cost — equal-cost function
            // ties must not be able to mask a thread-count divergence.
            fingerprint.push_str(&affidavit_core::report::render_report(
                &out.explanation,
                &generated.instance,
            ));
            fingerprint.push_str(&format!("|{};", out.stats.end_state_cost.to_bits()));
        }
        (ext / runs as f64, total / runs as f64, fingerprint)
    };

    let (ext_serial, total_serial, fp_serial) = solve(1);
    let (ext_parallel, total_parallel, fp_parallel) = solve(threads);
    ExtensionBench {
        rows: rows.min(spec.rows),
        attrs: spec.attrs,
        runs,
        threads,
        hardware_threads: speedup::hardware_threads(),
        extension_secs_serial: ext_serial,
        extension_secs_parallel: ext_parallel,
        extension_speedup: ext_serial / ext_parallel.max(1e-12),
        speedup_valid: speedup::warn_if_invalid(),
        total_secs_serial: total_serial,
        total_secs_parallel: total_parallel,
        deterministic: fp_serial == fp_parallel,
        columnar: bench_columnar(rows, seed, runs),
    }
}
