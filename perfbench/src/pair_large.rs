//! `pair-large`: one caller repeatedly explains adult and letter at full
//! Table 2 size, each under both paper configurations (`id` and
//! `overlap`) with one search thread per hardware thread. The records
//! axis of the paper (Fig. 5): `store` ingest and `blocking` refinement
//! dominate, and the `overlap` runs are the only ones that exercise
//! `blocking::overlap`.

use std::path::Path;
use std::time::Instant;

use affidavit_core::AffidavitConfig;
use affidavit_datasets::by_name;

use crate::env::{hardware_threads, peak_rss_mb, reset_peak_rss, Args};
use crate::inputs::{
    explain_once, pair_seed, paper_configs, write_pair, ExplainTimes, PairFiles, Reference,
    SETUP_REPS,
};
use crate::metrics::{Latency, Run};
use crate::replay::{root_expansion, ReplayTotals};
use crate::stats::{median, Tally};
use crate::trace::{Tracer, OP_SPAN};

const DATASETS: [&str; 2] = ["adult", "letter"];
/// Independently generated instances of each dataset: search effort
/// differs by about a tenth between instances, so every run averages
/// over more than one.
const INSTANCES: usize = 2;

/// One (dataset, configuration) combination and its reference output.
struct Combo {
    files: PairFiles,
    config_name: &'static str,
    config: AffidavitConfig,
    reference: Reference,
}

fn setup(args: &Args, dir: &Path) -> Result<(Vec<Combo>, f64), String> {
    let mut gen_s = Vec::new();
    let mut pairs = Vec::new();
    for _ in 0..SETUP_REPS {
        let t = Instant::now();
        pairs = (0..DATASETS.len() * INSTANCES)
            .map(|i| {
                let spec = by_name(DATASETS[i / INSTANCES]).expect("a Table 2 dataset");
                let name = format!("{}-{}", spec.name, i % INSTANCES);
                write_pair(
                    &spec,
                    spec.rows,
                    pair_seed(args.seed, i as u64),
                    &name,
                    &dir.join(format!("{name}_source.csv")),
                    &dir.join(format!("{name}_target.csv")),
                )
            })
            .collect::<Result<_, _>>()?;
        gen_s.push(t.elapsed().as_secs_f64());
    }
    let t = Instant::now();
    let mut combos = Vec::new();
    for files in &pairs {
        for (config_name, config) in paper_configs(hardware_threads()) {
            let reference = Reference::compute(files, &config)?;
            combos.push(Combo {
                files: files.clone(),
                config_name,
                config,
                reference,
            });
        }
    }
    Ok((combos, median(&gen_s) + t.elapsed().as_secs_f64()))
}

/// What one measured phase observed, over whole cycles (every combo
/// once per cycle, so the mix is the same in every run).
#[derive(Default)]
struct Phase {
    /// Explain wall times per combo, in ms.
    per_combo_ms: Vec<Vec<f64>>,
    /// Wall time of each cycle's explains, in ms.
    cycle_ms: Vec<f64>,
    /// Peak resident set of each cycle, in MiB.
    cycle_peak_mb: Vec<f64>,
    cycles: usize,
    /// Summed layer times over all explains.
    times: ExplainTimes,
    records: u64,
    bytes: u64,
    /// Search counts of one cycle.
    polled: u64,
    generated: u64,
}

impl Phase {
    fn explains(&self) -> usize {
        self.per_combo_ms.iter().map(Vec::len).sum()
    }

    fn total_ms(&self) -> f64 {
        self.per_combo_ms.iter().flatten().sum()
    }

    fn mean_ms(&self) -> f64 {
        self.total_ms() / self.explains().max(1) as f64
    }
}

fn measure(combos: &[Combo], seconds: f64, tracer: &mut Tracer, tally: &mut Tally) -> Phase {
    let mut phase = Phase {
        per_combo_ms: vec![Vec::new(); combos.len()],
        ..Phase::default()
    };
    let started = Instant::now();
    loop {
        let (mut polled, mut generated, mut cycle_ms) = (0, 0, 0.0);
        reset_peak_rss();
        for (i, combo) in combos.iter().enumerate() {
            let t = Instant::now();
            let run = {
                let _op = affidavit_obs::span(OP_SPAN);
                explain_once(&combo.files, &combo.config)
            };
            let ms = t.elapsed().as_secs_f64() * 1000.0;
            cycle_ms += ms;
            tracer.after_op(ms);
            let what = format!("explain {} ({})", combo.files.name, combo.config_name);
            let outcome = run.and_then(|run| {
                phase.per_combo_ms[i].push(ms);
                let t = &mut phase.times;
                t.ingest += run.times.ingest;
                t.stage += run.times.stage;
                t.search += run.times.search;
                t.render += run.times.render;
                phase.records += combo.files.records;
                phase.bytes += combo.files.bytes;
                polled += run.polled;
                generated += run.generated;
                combo
                    .reference
                    .check(&what, &run.report, run.polled, run.generated)?;
                run.validate()
                    .map_err(|e| format!("{what}: invalid explanation: {e}"))
            });
            tally.record(outcome);
            tracer.discard();
        }
        // The deterministic-count self-check: every cycle explains the
        // same inputs, so its search counts repeat exactly.
        if phase.cycles > 0 && (polled, generated) != (phase.polled, phase.generated) {
            tally.fail(format!(
                "cycle {} searched (polled, generated) = ({polled}, {generated}), cycle 0 ({}, {})",
                phase.cycles, phase.polled, phase.generated
            ));
        }
        (phase.polled, phase.generated) = (polled, generated);
        phase.cycle_ms.push(cycle_ms);
        phase.cycle_peak_mb.push(peak_rss_mb());
        phase.cycles += 1;
        if started.elapsed().as_secs_f64() >= seconds {
            return phase;
        }
    }
}

pub fn run(args: &Args, dir: &Path) -> Result<Run, String> {
    let (combos, setup_s) = setup(args, dir)?;
    let mut run = Run {
        setup_s,
        setup_reps: SETUP_REPS,
        op: "explain",
        inputs: combos
            .iter()
            .step_by(2)
            .map(|c| c.files.describe())
            .collect(),
        ..Run::default()
    };
    if !args.trace {
        let phase = measure(&combos, args.seconds, &mut Tracer::off(), &mut run.tally);
        run.peak_rss_mb = median(&phase.cycle_peak_mb);
        let per_combo: Vec<Latency> = phase.per_combo_ms.iter().map(|s| Latency::of(s)).collect();
        // The combos differ up to fivefold in cost, so percentiles
        // are taken per combo and averaged: a pooled median would jump
        // between combos.
        let n = per_combo.len() as f64;
        run.latency = Latency {
            p50: per_combo.iter().map(|l| l.p50).sum::<f64>() / n,
            p90: per_combo.iter().map(|l| l.p90).sum::<f64>() / n,
            samples: phase.explains(),
            beyond_p90: per_combo.iter().map(|l| l.beyond_p90).sum(),
        };
        // Throughput per cycle, median over cycles: a burst of load from
        // outside slows one cycle, not the figure.
        let cycle_records: u64 = combos.iter().map(|c| c.files.records).sum();
        let per_cycle = |count: f64| -> f64 {
            median(
                &phase
                    .cycle_ms
                    .iter()
                    .map(|ms| count / (ms / 1000.0))
                    .collect::<Vec<_>>(),
            )
        };
        run.ops_per_s = per_cycle(combos.len() as f64);
        run.records_per_s = per_cycle(cycle_records as f64);
        run.record_ops = phase.explains();
        for (combo, l) in combos.iter().zip(&per_combo) {
            run.notes.push(format!(
                "explain {:<9} {:<8} p50 {:>9.1} ms  p90 {:>9.1} ms  n={}",
                combo.files.name, combo.config_name, l.p50, l.p90, l.samples
            ));
        }
        return Ok(run);
    }

    // Traced run: half the time untraced, half traced, then the replay.
    let base = measure(
        &combos,
        args.seconds / 2.0,
        &mut Tracer::off(),
        &mut run.tally,
    );
    let mut tracer = Tracer::on();
    let traced = measure(&combos, args.seconds / 2.0, &mut tracer, &mut run.tally);
    let mut replay = ReplayTotals::default();
    for combo in &combos {
        let instance = affidavit_core::profiling::stage_file_pair(
            &combo.files.source,
            &combo.files.target,
            &Default::default(),
        )?;
        root_expansion(&instance, &combo.config, &mut replay);
    }
    let (spans, wall_ms) = tracer.finish();

    let explains = traced.explains() as f64;
    let t = &traced.times;
    run.layer("table.parse_ms", spans.busy("ingest.parse") / explains);
    run.layer("store.ingest_ms", t.ingest / explains);
    run.layer(
        "store.ingest_mb_per_s",
        traced.bytes as f64 / 1e6 / (t.ingest / 1000.0),
    );
    run.layer(
        "store.ingest_rows",
        (traced.records / traced.cycles as u64) as f64,
    );
    run.layer("core.stage_ms", t.stage / explains);
    run.layer("core.search_ms", t.search / explains);
    run.layer("core.render_ms", t.render / explains);
    run.layer("core.finalize_ms", spans.busy("search.finalize") / explains);
    run.layer("core.polled", traced.polled as f64);
    run.layer("core.generated", traced.generated as f64);
    run.layer(
        "core.polled_per_generated",
        traced.polled as f64 / traced.generated.max(1) as f64,
    );
    replay.record(&mut run);
    run.layer("obs.events_per_op", spans.events as f64 / explains);
    run.layer("trace.overhead_ratio", traced.mean_ms() / base.mean_ms());
    run.layer("trace.unattributed_ratio", spans.unattributed_ratio());
    run.layer("trace.search_unnamed_ratio", spans.search_unnamed_ratio());
    run.notes
        .push(format!("traced {} explains", traced.explains()));
    run.notes.extend(spans.report(wall_ms));
    Ok(run)
}
