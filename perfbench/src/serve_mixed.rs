//! `serve-mixed`: an in-process daemon and two keep-alive clients in a
//! closed loop. The clients work through one request stream over
//! eighteen medium Table 2 pairs (six shapes, three seeded instances
//! each), twice as many as the daemon pins at once, with a fixed skew
//! (popular shapes recur often) and both paper configurations.
//! Repeats of a pinned pair are warm session hits that skip ingestion;
//! the rest ingest and evict. The only workload for `serve` framing,
//! admission and the session LRU.

use std::path::Path;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};

use affidavit_core::AffidavitConfig;
use affidavit_datasets::by_name;
use affidavit_serve::{serve, ExplainSpec, ServeClient, ServeHandle, ServeOptions, ServeStats};
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;

use crate::env::{peak_rss_mb, reset_peak_rss, Args};
use crate::inputs::{pair_seed, paper_configs, write_pair, PairFiles, Reference, SETUP_REPS};
use crate::metrics::{Latency, Run};
use crate::stats::{median, Tally};
use crate::trace::{Tracer, OP_SPAN};

/// `(dataset, row cap, requests per pass, instance and configuration)`,
/// most popular first.
const SHAPES: [(&str, usize, usize); 6] = [
    ("nursery", 5000, 6),
    ("plista", 1000, 4),
    ("chess", 5000, 3),
    ("ncvoter-1k", 1000, 2),
    ("horse", 1000, 2),
    ("breast", 1000, 1),
];
/// Independently generated instances of each shape, so a run averages
/// over several draws of search effort.
const COPIES: usize = 3;
/// Pairs the daemon pins at once (half of the pairs).
const SESSIONS: usize = 9;
const CLIENTS: usize = 2;

struct Served {
    pairs: Vec<PairFiles>,
    /// One request per stream slot: `(pair, configuration)`.
    stream: Vec<(usize, usize)>,
    configs: Vec<(&'static str, AffidavitConfig)>,
    /// References per `(pair, configuration)`.
    references: Vec<Vec<Reference>>,
}

impl Served {
    fn spec(&self, pair: usize, config: usize) -> ExplainSpec {
        let files = &self.pairs[pair];
        let mut spec = ExplainSpec::new(
            files.source.to_string_lossy(),
            files.target.to_string_lossy(),
        );
        spec.config = self.configs[config].1.clone();
        spec
    }
}

fn setup(args: &Args, dir: &Path) -> Result<(Served, f64), String> {
    let mut gen_s = Vec::new();
    let mut pairs = Vec::new();
    for _ in 0..SETUP_REPS {
        let t = Instant::now();
        pairs = (0..SHAPES.len() * COPIES)
            .map(|i| {
                let (shape, cap, _) = SHAPES[i / COPIES];
                let spec = by_name(shape).expect("a Table 2 dataset");
                let name = format!("{shape}-{}", i % COPIES);
                write_pair(
                    &spec,
                    spec.rows.min(cap),
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
    // Two concurrent clients fill the hardware threads; each search runs
    // on one.
    let configs = paper_configs(1).to_vec();
    let references = pairs
        .iter()
        .map(|files| {
            configs
                .iter()
                .map(|(_, config)| Reference::compute(files, config))
                .collect::<Result<Vec<_>, _>>()
        })
        .collect::<Result<Vec<_>, _>>()?;
    let mut stream: Vec<(usize, usize)> = (0..pairs.len())
        .flat_map(|pair| {
            let weight = SHAPES[pair / COPIES].2;
            (0..weight).flat_map(move |_| (0..2).map(move |config| (pair, config)))
        })
        .collect();
    // The access pattern is fixed, so every seed sees the same hits,
    // misses and evictions (up to how the clients interleave); the seed
    // decides which generated instance of a shape plays which part.
    stream.shuffle(&mut StdRng::seed_from_u64(0x5E7E));
    let mut roles: Vec<usize> = (0..pairs.len()).collect();
    let mut rng = StdRng::seed_from_u64(pair_seed(args.seed, 0x5E7E));
    for shape in roles.chunks_mut(COPIES) {
        shape.shuffle(&mut rng);
    }
    for (pair, _) in &mut stream {
        *pair = roles[*pair];
    }
    let setup_s = median(&gen_s) + t.elapsed().as_secs_f64();
    Ok((
        Served {
            pairs,
            stream,
            configs,
            references,
        },
        setup_s,
    ))
}

fn start_daemon() -> Result<ServeHandle, String> {
    serve(&ServeOptions {
        sessions: SESSIONS,
        max_inflight: CLIENTS,
        request_deadline: Some(Duration::from_secs(60)),
        ..ServeOptions::default()
    })
}

/// One completed request.
struct Done {
    slot: usize,
    /// Start and end, in seconds since the phase began.
    start: f64,
    end: f64,
    ms: f64,
    warm: bool,
    polled: u64,
    generated: u64,
}

/// What one measured phase observed, over whole passes of the stream.
struct Phase {
    done: Vec<Done>,
    wall_s: f64,
    passes: usize,
    /// Session counters at the start of every pass.
    marks: Vec<ServeStats>,
    /// Peak resident set of each pass, in MiB.
    peak_mb: Vec<f64>,
}

impl Phase {
    fn rt_ms(&self) -> Vec<f64> {
        self.done.iter().map(|d| d.ms).collect()
    }

    /// Throughput of each whole pass: `weight` summed over its requests
    /// per second from the pass's first start to its last end.
    fn per_pass_rate(&self, len: usize, weight: impl Fn(&Done) -> f64) -> Vec<f64> {
        (0..self.passes)
            .map(|p| {
                let pass = self.done.iter().filter(|d| d.slot / len == p);
                let (mut first, mut last, mut sum) = (f64::INFINITY, 0.0f64, 0.0);
                for d in pass {
                    first = first.min(d.start);
                    last = last.max(d.end);
                    sum += weight(d);
                }
                sum / (last - first).max(1e-9)
            })
            .collect()
    }

    /// Per-pass deltas of one session counter.
    fn per_pass(&self, f: fn(&ServeStats) -> u64) -> Vec<f64> {
        self.marks
            .windows(2)
            .take(self.passes)
            .map(|w| (f(&w[1]) - f(&w[0])) as f64)
            .collect()
    }
}

fn measure(served: &Served, daemon: &ServeHandle, seconds: f64, tally: &Mutex<Tally>) -> Phase {
    let len = served.stream.len();
    let next = AtomicUsize::new(0);
    let stop_at = AtomicUsize::new(usize::MAX);
    let done = Mutex::new(Vec::new());
    let marks = Mutex::new(vec![daemon.stats()]);
    let peaks = Mutex::new(Vec::new());
    reset_peak_rss();
    let addr = daemon.local_addr().to_string();
    let started = Instant::now();
    std::thread::scope(|scope| {
        for _ in 0..CLIENTS {
            scope.spawn(|| {
                let client = ServeClient::new(addr.clone());
                loop {
                    let slot = next.fetch_add(1, Ordering::SeqCst);
                    if slot >= stop_at.load(Ordering::SeqCst) {
                        return;
                    }
                    if slot > 0 && slot.is_multiple_of(len) {
                        marks.lock().expect("marks lock").push(daemon.stats());
                        peaks.lock().expect("peaks lock").push(peak_rss_mb());
                        reset_peak_rss();
                    }
                    let (pair, config) = served.stream[slot % len];
                    let spec = served.spec(pair, config);
                    let t = Instant::now();
                    let reply = {
                        let _op = affidavit_obs::span(OP_SPAN);
                        client.explain(&spec)
                    };
                    let ms = t.elapsed().as_secs_f64() * 1000.0;
                    let start = (t - started).as_secs_f64();
                    let what = format!(
                        "request {slot} ({} {})",
                        served.pairs[pair].name, served.configs[config].0
                    );
                    let outcome = reply.map_err(|e| format!("{what}: {e}")).and_then(|reply| {
                        done.lock().expect("results lock").push(Done {
                            slot,
                            start,
                            end: start + ms / 1000.0,
                            ms,
                            warm: reply.warm,
                            polled: reply.polled,
                            generated: reply.generated,
                        });
                        served.references[pair][config].check(
                            &what,
                            &reply.report,
                            reply.polled,
                            reply.generated,
                        )
                    });
                    tally.lock().expect("tally lock").record(outcome);
                    if started.elapsed().as_secs_f64() >= seconds {
                        // Finish the current pass, so every run serves
                        // the same request mix.
                        stop_at.fetch_min((slot / len + 1) * len, Ordering::SeqCst);
                    }
                }
            });
        }
    });
    let wall_s = started.elapsed().as_secs_f64();
    let mut marks = marks.into_inner().expect("marks lock");
    marks.push(daemon.stats());
    let passes = stop_at.load(Ordering::SeqCst) / len;
    let mut peak_mb = peaks.into_inner().expect("peaks lock");
    peak_mb.push(peak_rss_mb());
    peak_mb.truncate(passes);
    Phase {
        done: done.into_inner().expect("results lock"),
        wall_s,
        passes,
        marks,
        peak_mb,
    }
}

/// The daemon's busy-rejection counter, from its metrics endpoint.
fn busy_rejections(daemon: &ServeHandle) -> Result<u64, String> {
    let text = ServeClient::new(daemon.local_addr().to_string())
        .metrics()
        .map_err(|e| e.to_string())?;
    Ok(text
        .lines()
        .find_map(|l| l.strip_prefix("serve_busy_rejections_total "))
        .and_then(|v| v.trim().parse().ok())
        .unwrap_or(0))
}

pub fn run(args: &Args, dir: &Path) -> Result<Run, String> {
    let (served, mut setup_s) = setup(args, dir)?;
    let t = Instant::now();
    let mut daemon = start_daemon()?;
    setup_s += t.elapsed().as_secs_f64();
    let mut run = Run {
        setup_s,
        setup_reps: SETUP_REPS,
        op: "request",
        inputs: served.pairs.iter().map(PairFiles::describe).collect(),
        ..Run::default()
    };
    let tally = Mutex::new(Tally::default());
    let result = if args.trace {
        traced_run(&served, &daemon, args.seconds, &tally, &mut run)
    } else {
        let phase = measure(&served, &daemon, args.seconds, &tally);
        run.peak_rss_mb = median(&phase.peak_mb);
        run.latency = Latency::of(&phase.rt_ms());
        // Throughput per pass, median over passes.
        let len = served.stream.len();
        run.ops_per_s = median(&phase.per_pass_rate(len, |_| 1.0));
        run.records_per_s = median(&phase.per_pass_rate(len, |d| {
            served.pairs[served.stream[d.slot % len].0].records as f64
        }));
        run.record_ops = phase.done.len();
        run.notes.push(format!(
            "{} passes of {} requests, {:.1}% warm",
            phase.passes,
            served.stream.len(),
            100.0 * phase.done.iter().filter(|d| d.warm).count() as f64
                / phase.done.len().max(1) as f64
        ));
        Ok(())
    };
    daemon.shutdown();
    run.tally = tally.into_inner().expect("tally lock");
    result.map(|()| run)
}

fn traced_run(
    served: &Served,
    daemon: &ServeHandle,
    seconds: f64,
    tally: &Mutex<Tally>,
    run: &mut Run,
) -> Result<(), String> {
    let base = measure(served, daemon, seconds / 2.0, tally);
    let tracer = Tracer::on();
    let traced = measure(served, daemon, seconds / 2.0, tally);
    let (spans, _) = tracer.finish();

    let requests = traced.done.len().max(1) as f64;
    let len = served.stream.len();
    let missed: Vec<&PairFiles> = traced
        .done
        .iter()
        .filter(|d| !d.warm)
        .map(|d| &served.pairs[served.stream[d.slot % len].0])
        .collect();
    let misses = missed.len().max(1) as f64;
    let ingest_ms = spans.busy("session.ingest");
    let passes = traced.passes.max(1) as f64;
    run.layer("table.parse_ms", spans.busy("ingest.stream") / misses);
    run.layer("store.ingest_ms", ingest_ms / misses);
    run.layer(
        "store.ingest_mb_per_s",
        missed.iter().map(|p| p.bytes).sum::<u64>() as f64 / 1e6 / (ingest_ms / 1000.0).max(1e-9),
    );
    run.layer(
        "store.ingest_rows",
        missed.iter().map(|p| p.records).sum::<u64>() as f64 / passes,
    );
    let hits = traced.per_pass(|s| s.hits);
    let ingests = traced.per_pass(|s| s.ingests);
    let evictions = traced.per_pass(|s| s.evictions);
    let hit_ratio: Vec<f64> = hits
        .iter()
        .zip(&ingests)
        .map(|(h, i)| h / (h + i).max(1.0))
        .collect();
    run.layer("store.session_hit_ratio", median(&hit_ratio));
    run.layer("store.session_ingests", median(&ingests));
    run.layer("store.session_evictions", median(&evictions));
    let spread = |v: &[f64]| {
        let lo = v.iter().copied().fold(f64::INFINITY, f64::min);
        let hi = v.iter().copied().fold(f64::NEG_INFINITY, f64::max);
        format!("{lo:.3}..{hi:.3}")
    };
    run.notes.push(format!(
        "session counts per pass over {} passes (they depend on how the clients interleave): hit ratio {}, ingests {}, evictions {}",
        hit_ratio.len(),
        spread(&hit_ratio),
        spread(&ingests),
        spread(&evictions)
    ));
    let (stage, search, respond) = (
        spans.busy("serve.stage"),
        spans.busy("serve.search"),
        spans.busy("serve.respond"),
    );
    run.layer("core.stage_ms", stage / requests);
    run.layer("core.search_ms", spans.busy("search.explain") / requests);
    run.layer("core.finalize_ms", spans.busy("search.finalize") / requests);
    run.layer("core.render_ms", spans.busy("report.render") / requests);
    // Every pass serves the same requests, so a pass's counts repeat.
    let per_pass = |f: fn(&Done) -> u64| {
        traced
            .done
            .iter()
            .filter(|d| d.slot < len)
            .map(f)
            .sum::<u64>() as f64
    };
    let (polled, generated) = (per_pass(|d| d.polled), per_pass(|d| d.generated));
    run.layer("core.polled", polled);
    run.layer("core.generated", generated);
    run.layer("core.polled_per_generated", polled / generated.max(1.0));
    run.layer("serve.stage_ms", stage / requests);
    run.layer("serve.search_ms", search / requests);
    run.layer("serve.respond_ms", respond / requests);
    let rt: f64 = traced.rt_ms().iter().sum();
    run.layer("serve.wait_ms", (rt - stage - search - respond) / requests);
    run.layer("serve.busy_rejections", busy_rejections(daemon)? as f64);
    run.layer("obs.events_per_op", spans.events as f64 / requests);
    let per_request = |p: &Phase| p.wall_s / p.done.len().max(1) as f64;
    run.layer(
        "trace.overhead_ratio",
        per_request(&traced) / per_request(&base),
    );
    // The clients only wait, so the daemon's spans are what covers
    // their round trips.
    run.layer("trace.unattributed_ratio", spans.unattributed_ratio());
    run.layer("trace.search_unnamed_ratio", spans.search_unnamed_ratio());
    run.notes
        .push(format!("traced {} requests", traced.done.len()));
    run.notes.extend(spans.report(rt));
    Ok(())
}
