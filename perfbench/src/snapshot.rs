//! `snapshot`: two snapshot directories holding every Table 2 shape
//! twice, at up to 1000 rows and 15,000 cells a table (34 table pairs).
//! Each iteration restores
//! the pristine target directory, runs one cold delta profile (no
//! manifest, so every pair is searched and the manifest is written),
//! then re-profiles the directory through the manifest after each of
//! nine rounds of edits. Every round edits the next ~10% of the pairs in
//! a fixed rotation, so one iteration edits every pair once and every
//! iteration repeats the same work. The attributes axis of the paper
//! (Fig. 6, the wide flight and uniprot tables) and the delta write
//! path: fingerprints, manifest read and write, splicing.

use std::path::{Path, PathBuf};
use std::time::Instant;

use affidavit_core::delta::{profile_dirs_delta, DeltaStats, ProfileManifest};
use affidavit_core::profiling::{
    profile_dirs, stage_snapshot_pair, ProfileOptions, SnapshotProfile, TableOutcome,
};
use affidavit_datasets::specs::table2_specs;
use affidavit_store::{fingerprint_file, ingest_pair};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::env::{peak_rss_mb, reset_peak_rss, Args};
use crate::inputs::{pair_seed, write_pair, PairFiles, SETUP_REPS};
use crate::metrics::{Latency, Run};
use crate::replay::{root_expansion, ReplayTotals};
use crate::stats::{expect_eq, median, Tally};
use crate::trace::{Tracer, OP_SPAN};

/// Rows per table at most.
const ROW_CAP: usize = 1000;
/// Cells (rows × attributes) per table at most. Without it uniprot (182
/// attributes) alone decides the time of every cold profile and of the
/// slowest re-profiles: at 1000 rows one cold profile took 4.2–6.3 s on
/// a 2-vCPU VM, and the spread of its search effort across seeds became
/// the spread of the benchmark.
const CELL_CAP: usize = 15_000;
const COPIES: usize = 2;
/// Pairs edited per round: ~10% of 34.
const WINDOW: usize = 4;
/// Step of the fixed edit rotation through the pairs (coprime with 34,
/// so heavy and light shapes mix within a round).
const STRIDE: usize = 7;

struct Snapshot {
    source_dir: PathBuf,
    target_dir: PathBuf,
    state: PathBuf,
    pairs: Vec<PairFiles>,
    /// Target bytes as generated, and with the round's edit applied.
    pristine: Vec<Vec<u8>>,
    edited: Vec<Vec<u8>>,
    /// From-scratch outcome of every pair, pristine and edited (timing
    /// zeroed, as JSON).
    expect_pristine: Vec<String>,
    expect_edited: Vec<String>,
    /// The pair indices of each round of one iteration.
    rounds: Vec<Vec<usize>>,
}

/// The seeded edit: append a copy of a random data row to the target,
/// a row insert the explanation must account for, so the pair is dirty.
fn edit(target: &[u8], rng: &mut StdRng) -> Vec<u8> {
    let text = String::from_utf8_lossy(target);
    let rows: Vec<&str> = text.lines().skip(1).collect();
    let row = rows[rng.gen_range(0..rows.len())];
    let mut out = target.to_vec();
    if !out.ends_with(b"\n") {
        out.push(b'\n');
    }
    out.extend_from_slice(row.as_bytes());
    out.push(b'\n');
    out
}

fn outcomes(mut profile: SnapshotProfile) -> Vec<String> {
    profile.strip_timing();
    profile
        .tables
        .iter()
        .map(|t| serde_json::to_string(t).expect("profiles serialize"))
        .collect()
}

fn write(path: &Path, bytes: &[u8]) -> Result<(), String> {
    std::fs::write(path, bytes).map_err(|e| format!("{}: {e}", path.display()))
}

fn setup(args: &Args, dir: &Path) -> Result<(Snapshot, f64), String> {
    let source_dir = dir.join("before");
    let target_dir = dir.join("after");
    let edited_dir = dir.join("after-edited");
    for d in [&source_dir, &target_dir, &edited_dir] {
        std::fs::create_dir_all(d).map_err(|e| format!("{}: {e}", d.display()))?;
    }
    let mut gen_s = Vec::new();
    let mut pairs = Vec::new();
    for _ in 0..SETUP_REPS {
        let t = Instant::now();
        pairs.clear();
        for (i, spec) in table2_specs().iter().enumerate() {
            for copy in 0..COPIES {
                let name = format!("{}_{copy}", spec.name);
                let file = format!("{name}.csv");
                pairs.push(write_pair(
                    spec,
                    spec.rows.min(ROW_CAP).min(CELL_CAP / spec.attrs),
                    pair_seed(args.seed, (i * COPIES + copy) as u64),
                    &name,
                    &source_dir.join(&file),
                    &target_dir.join(&file),
                )?);
            }
        }
        gen_s.push(t.elapsed().as_secs_f64());
    }
    // `profile_dirs` reports pairs sorted by stem.
    pairs.sort_by(|a, b| a.name.cmp(&b.name));
    let t = Instant::now();
    let mut rng = StdRng::seed_from_u64(pair_seed(args.seed, 0xED17));
    let mut pristine = Vec::new();
    let mut edited = Vec::new();
    for pair in &pairs {
        let bytes = std::fs::read(&pair.target).map_err(|e| e.to_string())?;
        let changed = edit(&bytes, &mut rng);
        write(&edited_dir.join(format!("{}.csv", pair.name)), &changed)?;
        pristine.push(bytes);
        edited.push(changed);
    }
    let opts = ProfileOptions::default();
    let expect_pristine = outcomes(profile_dirs(&source_dir, &target_dir, &opts)?);
    let expect_edited = outcomes(profile_dirs(&source_dir, &edited_dir, &opts)?);
    let n = pairs.len();
    let order: Vec<usize> = (0..n).map(|k| k * STRIDE % n).collect();
    let rounds = order.chunks(WINDOW).map(<[usize]>::to_vec).collect();
    let setup_s = median(&gen_s) + t.elapsed().as_secs_f64();
    Ok((
        Snapshot {
            state: dir.join("delta-manifest.json"),
            source_dir,
            target_dir,
            pairs,
            pristine,
            edited,
            expect_pristine,
            expect_edited,
            rounds,
        },
        setup_s,
    ))
}

/// What one measured phase observed, over whole iterations.
#[derive(Default)]
struct Phase {
    iterations: usize,
    cold_ms: Vec<f64>,
    reprofile_ms: Vec<f64>,
    /// Peak resident set of each iteration, in MiB.
    peak_mb: Vec<f64>,
    /// Delta counters of every round of the first iteration.
    round_stats: Vec<DeltaStats>,
    manifest_bytes: u64,
    /// Search counts of one cold profile, from its manifest.
    polled: u64,
    generated: u64,
    /// Summed search wall time of one cold profile's pairs.
    search_ms: f64,
    fingerprint_ms: Vec<f64>,
}

fn check_profile(
    snap: &Snapshot,
    what: &str,
    profile: SnapshotProfile,
    edited: &[bool],
) -> Result<(), String> {
    let got = outcomes(profile);
    expect_eq(&format!("{what}: tables"), got.len(), snap.pairs.len())?;
    for (i, got) in got.iter().enumerate() {
        let want = if edited[i] {
            &snap.expect_edited[i]
        } else {
            &snap.expect_pristine[i]
        };
        if got != want {
            return Err(format!(
                "{what}: {} differs from its from-scratch profile",
                snap.pairs[i].name
            ));
        }
    }
    Ok(())
}

fn check_stats(what: &str, stats: &DeltaStats, redone: usize, total: usize) -> Result<(), String> {
    expect_eq(
        &format!("{what}: (pairs redone, spliced, fallbacks)"),
        (stats.pairs_redone, stats.pairs_spliced, stats.fallbacks),
        (redone as u64, (total - redone) as u64, 0),
    )
}

fn measure(
    snap: &Snapshot,
    seconds: f64,
    tracer: &mut Tracer,
    tally: &mut Tally,
) -> Result<Phase, String> {
    let opts = ProfileOptions::default();
    let n = snap.pairs.len();
    let mut phase = Phase::default();
    let started = Instant::now();
    loop {
        for (i, pair) in snap.pairs.iter().enumerate() {
            write(&pair.target, &snap.pristine[i])?;
        }
        std::fs::remove_file(&snap.state).ok();
        let mut edited = vec![false; n];
        reset_peak_rss();
        let t = Instant::now();
        let cold = {
            let _op = affidavit_obs::span(OP_SPAN);
            profile_dirs_delta(&snap.source_dir, &snap.target_dir, &opts, &snap.state)
        };
        let ms = t.elapsed().as_secs_f64() * 1000.0;
        tracer.after_op(ms);
        let what = format!("cold profile {}", phase.iterations);
        tally.record(cold.and_then(|(profile, stats)| {
            phase.cold_ms.push(ms);
            if phase.iterations == 0 {
                phase.search_ms = profile
                    .tables
                    .iter()
                    .map(|t| match t.outcome {
                        TableOutcome::Explained { millis, .. } => millis as f64,
                        _ => 0.0,
                    })
                    .sum();
                let text = std::fs::read_to_string(&snap.state).map_err(|e| e.to_string())?;
                phase.manifest_bytes = text.len() as u64;
                let manifest: ProfileManifest =
                    serde_json::from_str(&text).map_err(|e| format!("manifest: {e}"))?;
                phase.polled = manifest.tables.iter().map(|t| t.pair.polled).sum();
                phase.generated = manifest.tables.iter().map(|t| t.pair.generated).sum();
            }
            check_stats(&what, &stats, n, n)?;
            check_profile(snap, &what, profile, &edited)
        }));
        tracer.discard();

        for (r, round) in snap.rounds.iter().enumerate() {
            for &i in round {
                write(&snap.pairs[i].target, &snap.edited[i])?;
                edited[i] = true;
            }
            let t = Instant::now();
            let delta = {
                let _op = affidavit_obs::span(OP_SPAN);
                profile_dirs_delta(&snap.source_dir, &snap.target_dir, &opts, &snap.state)
            };
            let ms = t.elapsed().as_secs_f64() * 1000.0;
            tracer.after_op(ms);
            let what = format!("delta re-profile {}.{r}", phase.iterations);
            tally.record(delta.and_then(|(profile, stats)| {
                phase.reprofile_ms.push(ms);
                // The deterministic-count self-check: every iteration
                // makes the same edits, so its delta counters repeat.
                if phase.iterations == 0 {
                    phase.round_stats.push(stats);
                } else {
                    expect_eq(
                        &format!("{what}: delta counters"),
                        stats,
                        phase.round_stats[r],
                    )?;
                }
                check_stats(&what, &stats, round.len(), n)?;
                check_profile(snap, &what, profile, &edited)
            }));
            if tracer.is_on() {
                let t = Instant::now();
                let _span = affidavit_obs::span("bench.store.fingerprint");
                for pair in &snap.pairs {
                    fingerprint_file(&pair.source).map_err(|e| e.to_string())?;
                    fingerprint_file(&pair.target).map_err(|e| e.to_string())?;
                }
                phase
                    .fingerprint_ms
                    .push(t.elapsed().as_secs_f64() * 1000.0);
            }
            tracer.discard();
        }
        phase.peak_mb.push(peak_rss_mb());
        phase.iterations += 1;
        if started.elapsed().as_secs_f64() >= seconds {
            return Ok(phase);
        }
    }
}

pub fn run(args: &Args, dir: &Path) -> Result<Run, String> {
    let (snap, setup_s) = setup(args, dir)?;
    let mut run = Run {
        setup_s,
        setup_reps: SETUP_REPS,
        op: "reprofile",
        inputs: snap.pairs.iter().map(PairFiles::describe).collect(),
        ..Run::default()
    };
    if !args.trace {
        let phase = measure(&snap, args.seconds, &mut Tracer::off(), &mut run.tally)?;
        run.peak_rss_mb = median(&phase.peak_mb);
        run.latency = Latency::of(&phase.reprofile_ms);
        // Throughput per iteration, median over iterations.
        let rounds = snap.rounds.len();
        let per_iteration: Vec<f64> = phase
            .reprofile_ms
            .chunks(rounds)
            .map(|c| c.len() as f64 / (c.iter().sum::<f64>() / 1000.0))
            .collect();
        run.ops_per_s = median(&per_iteration);
        let records: u64 = snap.pairs.iter().map(|p| p.records).sum();
        let per_cold: Vec<f64> = phase
            .cold_ms
            .iter()
            .map(|ms| records as f64 / (ms / 1000.0))
            .collect();
        run.records_per_s = median(&per_cold);
        run.record_ops = phase.cold_ms.len();
        run.notes.push(format!(
            "{} iterations: cold profile median {:.1} ms (n={}), delta re-profile median {:.1} ms (n={})",
            phase.iterations,
            median(&phase.cold_ms),
            phase.cold_ms.len(),
            run.latency.p50,
            run.latency.samples
        ));
        return Ok(run);
    }

    let base = measure(
        &snap,
        args.seconds / 2.0,
        &mut Tracer::off(),
        &mut run.tally,
    )?;
    let mut tracer = Tracer::on();
    let traced = measure(&snap, args.seconds / 2.0, &mut tracer, &mut run.tally)?;
    let (spans, wall_ms) = tracer.finish();

    // Outside calls per pair: ingest, staging and the root-expansion
    // replay (the snapshot profile runs every pair under `H^id`).
    let opts = ProfileOptions::default();
    let mut replay = ReplayTotals::default();
    let (mut ingest_ms, mut stage_ms, mut bytes, mut rows) = (0.0, 0.0, 0u64, 0u64);
    for (pair, pristine) in snap.pairs.iter().zip(&snap.pristine) {
        write(&pair.target, pristine)?;
        let t = Instant::now();
        let ingested = ingest_pair(&pair.source, &pair.target, &opts.ingest, &opts.pool)?;
        ingest_ms += t.elapsed().as_secs_f64() * 1000.0;
        let t = Instant::now();
        let instance = stage_snapshot_pair(ingested, &opts)?;
        stage_ms += t.elapsed().as_secs_f64() * 1000.0;
        bytes += pair.bytes;
        rows += pair.records;
        root_expansion(&instance, &opts.config, &mut replay);
    }

    let colds = traced.cold_ms.len() as f64;
    let rounds = &traced.round_stats;
    let sum = |f: fn(&DeltaStats) -> u64| rounds.iter().map(f).sum::<u64>() as f64;
    let parse = if spans.busy("ingest.parse") > 0.0 {
        "ingest.parse"
    } else {
        "ingest.stream"
    };
    run.layer("table.parse_ms", spans.busy(parse) / colds);
    run.layer("store.ingest_ms", ingest_ms);
    run.layer(
        "store.ingest_mb_per_s",
        bytes as f64 / 1e6 / (ingest_ms / 1000.0),
    );
    run.layer("store.ingest_rows", rows as f64);
    run.layer("store.fingerprint_ms", median(&traced.fingerprint_ms));
    run.layer("core.stage_ms", stage_ms);
    run.layer("core.search_ms", traced.search_ms);
    run.layer("core.polled", traced.polled as f64);
    run.layer("core.generated", traced.generated as f64);
    run.layer(
        "core.polled_per_generated",
        traced.polled as f64 / traced.generated.max(1) as f64,
    );
    run.layer("core.finalize_ms", spans.busy("search.finalize") / colds);
    run.layer("core.render_ms", spans.busy("report.render") / colds);
    run.layer("core.delta_ms", median(&traced.reprofile_ms));
    run.layer("core.delta_pairs_spliced", sum(|s| s.pairs_spliced));
    run.layer("core.delta_pairs_redone", sum(|s| s.pairs_redone));
    run.layer(
        "core.delta_blocks_reused_ratio",
        sum(|s| s.blocks_reused) / sum(|s| s.blocks_total).max(1.0),
    );
    run.layer("core.delta_manifest_bytes", traced.manifest_bytes as f64);
    run.layer("core.delta_fallbacks", sum(|s| s.fallbacks));
    replay.record(&mut run);
    let ops = (traced.cold_ms.len() + traced.reprofile_ms.len()) as f64;
    run.layer("obs.events_per_op", spans.events as f64 / ops);
    let mean = |p: &Phase| {
        (p.cold_ms.iter().sum::<f64>() + p.reprofile_ms.iter().sum::<f64>())
            / (p.cold_ms.len() + p.reprofile_ms.len()) as f64
    };
    run.layer("trace.overhead_ratio", mean(&traced) / mean(&base));
    run.layer("trace.unattributed_ratio", spans.unattributed_ratio());
    run.layer("trace.search_unnamed_ratio", spans.search_unnamed_ratio());
    run.notes.push(format!(
        "traced {} cold profiles and {} delta re-profiles",
        traced.cold_ms.len(),
        traced.reprofile_ms.len()
    ));
    run.notes.extend(spans.report(wall_ms));
    Ok(run)
}
