//! CLI subcommand implementations.

use std::path::Path;

use affidavit_core::apply::transform_table;
use affidavit_core::portable::PortableExplanation;
use affidavit_core::report::{render_report, to_sql};
use affidavit_core::{Affidavit, AffidavitConfig, ProblemInstance};
use affidavit_datagen::blueprint::{Blueprint, GenConfig};
use affidavit_store::{ingest, IngestOptions, PoolBackend, PoolConfig};
use affidavit_table::{csv, AttrId, Table, ValuePool};

/// Top-level usage text.
pub const USAGE: &str = "\
affidavit — explain differences between unaligned table snapshots (EDBT 2020)

USAGE:
  affidavit explain <source.csv> <target.csv> [SEARCH] [INGESTION] [INCREMENTAL]
                    [--align] [--sql TABLE] [--trace] [--save F.json] [--stable]
  affidavit diff    <source.csv> <target.csv> --key COL[,COL...]
  affidavit apply   <source.csv> <target.csv> <unseen.csv> [SEARCH] [--out FILE]
  affidavit apply   --explanation F.json <unseen.csv> [--out FILE]
  affidavit gen     <dataset> [--eta F] [--tau F] [--rows N] [--seed N] --out-dir DIR
  affidavit profile <source_dir> <target_dir> [SEARCH] [INGESTION] [DISTRIBUTED]
                    [INCREMENTAL] [--align] [--json FILE] [--stable]
  affidavit serve   [--listen ADDR] [--sessions N] [--max-inflight N]
                    [--request-deadline-secs N]
  affidavit client  --connect HOST:PORT <source.csv> <target.csv> [SEARCH]
                    [INGESTION] [INCREMENTAL] [--align] [--stable]
                    [--format human|json]
  affidavit client  --connect HOST:PORT (--ping | --server-stats | --metrics
                    | --shutdown | --pin <source.csv> <target.csv>)
  affidavit help

Every command also accepts the OBSERVABILITY flags below; any other flag a
command does not list is rejected.

SEARCH FLAGS (explain, apply, profile):
  --config id|overlap      Paper configuration: H^id robust search or Hs greedy
                           overlap search (default: id).
  --seed N                 RNG seed; every sample the search draws is
                           deterministic given the seed (default: 3988201504
                           = 0xEDB72020).
  --threads N              Worker threads for the candidate-generation phase;
                           0 = one per hardware thread (default: 1). Results
                           are byte-identical at every thread count.
                           Ingestion reads serially at every count.
  --trace                  Record and print the search tree (default: off).
  --corpus                 Also draw candidates from the built-in function
                           corpus (default: off; induction only).
  --extended               Enable the extension function kinds: zero padding,
                           thousands grouping, rounding, token programs
                           (default: off; the paper's Table 1 catalogue).

INGESTION FLAGS (explain, profile):
  --pool-backend ram|disk  Value-pool string storage (default: ram). disk
                           spills interned strings to segment files under the
                           budget below.
  --pool-budget-bytes N    RAM budget for the disk backend's resident string
                           bytes, in bytes (default: 67108864 = 64 MiB).

INCREMENTAL FLAGS (explain, profile, client):
  --delta                  Reuse the previous run's results for unchanged
                           table pairs: block fingerprints are diffed
                           against the run's manifest, clean pairs splice
                           their stored report, and only dirty pairs
                           re-enter the search. Output is byte-identical
                           to a from-scratch run; a broken or stale
                           manifest falls back to a full redo, never a
                           wrong answer (default: off).
  --delta-state DIR        Directory holding the delta manifest. On the
                           client this names a directory on the server
                           (default: a sibling of the target —
                           <target.csv>.affidavit-delta.json for explain,
                           <target_dir>/.affidavit-delta.json for
                           profile).

DISTRIBUTED FLAGS (profile):
  --workers N              Fan table pairs out to N affidavit-worker
                           processes over a work-stealing job queue the
                           coordinator serves on a TCP listener
                           (default: 0 — profile in-process). The report
                           is byte-identical at every worker count.
  --listen ADDR            Bind address of the coordinator's listener
                           (default: 127.0.0.1:0 = loopback with an
                           OS-chosen port). Extra workers on any machine
                           can join the run with `affidavit-worker
                           --connect HOST:PORT`; bind a routable address
                           to accept them — trusted networks only: the
                           protocol carries no authentication yet.
  --steal-timeout-secs N   Re-publish a worker's claimed job for others to
                           steal if no result arrives within N seconds;
                           the wait doubles on every retry of the same job
                           (default: 30 seconds).
  --deadline-secs N        Abort the distributed run after N seconds
                           (default: 86400 = 24 h).
  --stable                 Zero wall-clock timings in the output so two
                           runs can be compared byte for byte
                           (default: off).

SERVICE FLAGS (serve, client):
  --listen ADDR            serve: bind address of the daemon's listener.
                           The chosen address is printed on stdout. Bind
                           a routable address to accept clients from
                           other machines — trusted networks only: the
                           protocol carries no authentication yet
                           (default: 127.0.0.1:0 = loopback with an
                           OS-chosen port).
  --sessions N             serve: ingested snapshot pairs kept pinned at
                           once, keyed by content fingerprint; the
                           least-recently-used pair is evicted beyond
                           that (default: 8).
  --max-inflight N         serve: maximum explain/pin requests in flight
                           at once; further ones are answered with a
                           clear busy error instead of queuing
                           (default: 0 = unlimited).
  --request-deadline-secs N
                           serve: wall-clock budget per explain request;
                           an overrunning search is aborted
                           cooperatively and answered with an error.
                           Output stays byte-identical for requests that
                           finish in time (default: 0 = unlimited).
  --connect HOST:PORT      client: the daemon to dial. One keep-alive
                           framed connection carries every request; an
                           unreachable daemon exits with code 3
                           (default: none — required).
  --format human|json      client: output format. human prints the same
                           stdout bytes as the one-shot `explain`; json
                           prints one JSON object on stdout and NDJSON
                           diagnostics on stderr (default: human).
  --ping                   client: liveness probe instead of an explain
                           (default: off).
  --server-stats           client: print the daemon's counters instead
                           of an explain (default: off).
  --metrics                client: print the daemon's metrics registry
                           as Prometheus-style text instead of an
                           explain (default: off).
  --pin SRC TGT            client: ingest and pin a snapshot pair on the
                           server without searching, so a later explain
                           of the same pair is a guaranteed warm hit
                           (default: off).
  --shutdown               client: ask the daemon to exit cleanly
                           (default: off).

OBSERVABILITY FLAGS (all commands):
  --obs-out PATH|-         Write the span/metric event stream as NDJSON
                           to PATH (appending), or to stderr with `-`.
                           A pure side channel: stdout stays
                           byte-identical with or without it. The
                           AFFIDAVIT_OBS environment variable does the
                           same without the flag: `1` enables recording,
                           any other non-empty value is a sink path
                           (default: off).
  --obs-summary            Print a per-phase time profile (calls, busy,
                           wall, max) on stderr when the command
                           finishes (default: off).";

/// Flags every command accepts (read by the observability layer).
const OBS_FLAGS: &[&str] = &["obs-out", "obs-summary"];
/// The SEARCH flags of USAGE.
const SEARCH_FLAGS: &[&str] = &["config", "seed", "threads", "trace", "corpus", "extended"];
/// The INGESTION flags of USAGE.
const INGESTION_FLAGS: &[&str] = &["pool-backend", "pool-budget-bytes"];
/// The INCREMENTAL flags of USAGE.
const INCREMENTAL_FLAGS: &[&str] = &["delta", "delta-state"];
/// The DISTRIBUTED flags of USAGE.
const DISTRIBUTED_FLAGS: &[&str] = &["workers", "listen", "steal-timeout-secs", "deadline-secs"];

/// Flags that never take a value: the next argument after one of them is
/// always a positional or another flag.
const SWITCHES: &[&str] = &[
    "align",
    "corpus",
    "delta",
    "extended",
    "metrics",
    "obs-summary",
    "ping",
    "server-stats",
    "shutdown",
    "stable",
    "trace",
];

/// Simple positional + flag splitter.
struct Parsed<'a> {
    positional: Vec<&'a str>,
    flags: Vec<(&'a str, Option<&'a str>)>,
}

/// Split `args` for `command`, rejecting any `--name` outside the
/// command's `accepted` flag groups (and [`OBS_FLAGS`]) — a mistyped or
/// retired flag fails loudly instead of being silently ignored.
fn parse<'a>(
    args: &'a [String],
    command: &str,
    accepted: &[&[&str]],
) -> Result<Parsed<'a>, String> {
    let parsed = split(args);
    for (name, _) in &parsed.flags {
        if !std::iter::once(OBS_FLAGS)
            .chain(accepted.iter().copied())
            .any(|group| group.contains(name))
        {
            return Err(format!(
                "unknown flag --{name} for `affidavit {command}` (see `affidavit help`)"
            ));
        }
    }
    Ok(parsed)
}

fn split(args: &[String]) -> Parsed<'_> {
    let mut positional = Vec::new();
    let mut flags = Vec::new();
    let mut i = 0;
    while i < args.len() {
        if let Some(name) = args[i].strip_prefix("--") {
            let value = args
                .get(i + 1)
                .filter(|v| !SWITCHES.contains(&name) && !v.starts_with("--"))
                .map(String::as_str);
            if value.is_some() {
                i += 1;
            }
            flags.push((name, value));
        } else {
            positional.push(args[i].as_str());
        }
        i += 1;
    }
    Parsed { positional, flags }
}

impl<'a> Parsed<'a> {
    fn flag(&self, name: &str) -> Option<Option<&'a str>> {
        self.flags.iter().find(|(n, _)| *n == name).map(|(_, v)| *v)
    }

    fn flag_value(&self, name: &str) -> Option<&'a str> {
        self.flag(name).flatten()
    }

    fn has(&self, name: &str) -> bool {
        self.flag(name).is_some()
    }
}

fn load_instance(src: &str, tgt: &str) -> Result<ProblemInstance, String> {
    let mut pool = ValuePool::new();
    let source = read_csv(src, &mut pool)?;
    let target = read_csv(tgt, &mut pool)?;
    ProblemInstance::new(source, target, pool).map_err(|e| e.to_string())
}

fn read_csv(path: &str, pool: &mut ValuePool) -> Result<Table, String> {
    csv::read_path(path, pool, csv::CsvOptions::default()).map_err(|e| format!("{path}: {e}"))
}

fn read_csv_streaming(
    path: &str,
    pool: &mut ValuePool,
    opts: &IngestOptions,
) -> Result<Table, String> {
    ingest::read_path(path, pool, opts).map_err(|e| format!("{path}: {e}"))
}

/// Pool-backend flags shared by `explain`, `profile` and `client`.
fn build_pool(p: &Parsed<'_>) -> Result<PoolConfig, String> {
    let mut pool_cfg = PoolConfig::default();
    if let Some(v) = p.flag_value("pool-backend") {
        pool_cfg.backend = v.parse()?;
    }
    if let Some(v) = p.flag_value("pool-budget-bytes") {
        pool_cfg.budget_bytes = v
            .parse()
            .map_err(|_| format!("bad --pool-budget-bytes {v:?} (RAM budget for string bytes)"))?;
    }
    Ok(pool_cfg)
}

fn build_config(p: &Parsed<'_>) -> Result<AffidavitConfig, String> {
    let mut cfg = match p.flag_value("config").unwrap_or("id") {
        "id" => AffidavitConfig::paper_id(),
        "overlap" => AffidavitConfig::paper_overlap(),
        other => return Err(format!("unknown --config {other:?} (use id|overlap)")),
    };
    if let Some(seed) = p.flag_value("seed") {
        cfg.seed = seed.parse().map_err(|_| format!("bad --seed {seed:?}"))?;
    }
    if let Some(threads) = p.flag_value("threads") {
        cfg.threads = threads
            .parse()
            .map_err(|_| format!("bad --threads {threads:?} (use a count, or 0 for auto)"))?;
    }
    if p.has("trace") {
        cfg.trace = true;
    }
    if p.has("corpus") {
        cfg.use_corpus = true;
    }
    if p.has("extended") {
        cfg.registry = affidavit_functions::Registry::extended();
    }
    Ok(cfg)
}

/// `affidavit explain`: learn the transformation and alignment.
pub fn explain(args: &[String]) -> Result<(), String> {
    let p = parse(
        args,
        "explain",
        &[
            SEARCH_FLAGS,
            INGESTION_FLAGS,
            INCREMENTAL_FLAGS,
            &["align", "sql", "save", "stable"],
        ],
    )?;
    let [src, tgt] = p.positional[..] else {
        return Err(format!("explain needs two CSV paths\n{USAGE}"));
    };
    let cfg = build_config(&p)?;
    let pool_cfg = build_pool(&p)?;
    let ingest_opts = IngestOptions::default();
    if p.has("delta-state") && !p.has("delta") {
        return Err("--delta-state requires --delta".to_owned());
    }
    if p.has("delta") {
        // A spliced run performs no fresh search, so the flags that
        // expose search internals cannot be answered from the manifest.
        for flag in ["trace", "sql", "save"] {
            if p.has(flag) {
                return Err(format!(
                    "--{flag} does not combine with --delta (a spliced run performs no fresh search)"
                ));
            }
        }
        let opts = affidavit_core::profiling::ProfileOptions {
            config: cfg,
            align: p.has("align"),
            ingest: ingest_opts,
            pool: pool_cfg,
        };
        let state = match p.flag_value("delta-state") {
            Some(dir) => Path::new(dir).join("explain.affidavit-delta.json"),
            None => affidavit_core::delta::default_explain_state(Path::new(tgt)),
        };
        let outcome =
            affidavit_core::delta::explain_delta(Path::new(src), Path::new(tgt), &opts, &state)?;
        affidavit_obs::diag("delta", &outcome.stats.summary());
        println!("{}", outcome.report);
        let duration = if p.has("stable") {
            std::time::Duration::ZERO
        } else {
            outcome.duration
        };
        println!(
            "search: {} states polled, {} generated, {duration:?}",
            outcome.polled, outcome.generated
        );
        return Ok(());
    }
    let mut pool = pool_cfg.build().map_err(|e| e.to_string())?;
    let mut instance = if p.has("align") {
        // §6 future work: align renamed/reordered target columns by
        // content before explaining; with unequal arity, first look for
        // merged/split columns and normalize.
        let mut source = read_csv_streaming(src, &mut pool, &ingest_opts)?;
        let mut target = read_csv_streaming(tgt, &mut pool, &ingest_opts)?;
        if source.schema().arity() != target.schema().arity() {
            let Some((s2, t2, applied)) =
                affidavit_core::restructure::normalize_arity(&source, &target, &mut pool)
            else {
                return Err(
                    "--align: column counts differ and no merge/split evidence was found"
                        .to_owned(),
                );
            };
            for r in &applied {
                match r {
                    affidavit_core::restructure::Restructure::Merge {
                        target, left, right, sep, score,
                    } => eprintln!(
                        "detected merge: source {:?} ◦ {sep:?} ◦ {:?} → target {:?} (score {score:.2})",
                        source.schema().name(*left),
                        source.schema().name(*right),
                        t2.schema().name(*target),
                    ),
                    affidavit_core::restructure::Restructure::Split {
                        source: col, left, right, sep, score,
                    } => eprintln!(
                        "detected split: source {:?} → target {:?} ◦ {sep:?} ◦ {:?} (score {score:.2})",
                        source.schema().name(*col),
                        target.schema().name(*left),
                        target.schema().name(*right),
                    ),
                }
            }
            source = s2;
            target = t2;
        }
        let alignment = affidavit_core::schema_align::align_schemas(&source, &target, &pool);
        let pairs: Vec<String> = alignment
            .pairs()
            .map(|(i, j)| format!("{} ← {}", source.schema().name(i), target.schema().name(j)))
            .collect();
        eprintln!(
            "schema alignment (min confidence {:.2}): {}",
            alignment.min_confidence(),
            pairs.join(", ")
        );
        let target = alignment.reorder_target(&target, source.schema());
        ProblemInstance::new(source, target, pool).map_err(|e| e.to_string())?
    } else {
        let source = read_csv_streaming(src, &mut pool, &ingest_opts)?;
        let target = read_csv_streaming(tgt, &mut pool, &ingest_opts)?;
        ProblemInstance::new(source, target, pool).map_err(|e| e.to_string())?
    };
    let outcome = Affidavit::new(cfg).explain(&mut instance);
    if let Some(stats) = instance.pool.store_stats() {
        affidavit_obs::diag(
            "pool backend",
            &format!(
                "disk — {} bytes spilled, {} bytes resident",
                stats.spilled_bytes, stats.resident_bytes
            ),
        );
    }
    println!("{}", render_report(&outcome.explanation, &instance));
    // --stable zeroes the one nondeterministic byte sequence on stdout,
    // so two runs (or a run and a served client) diff clean.
    let duration = if p.has("stable") {
        std::time::Duration::ZERO
    } else {
        outcome.stats.duration
    };
    println!(
        "search: {} states polled, {} generated, {duration:?}",
        outcome.stats.polled, outcome.stats.states_generated
    );
    if let Some(trace) = outcome.trace {
        println!("\nsearch tree:\n{}", trace.render());
    }
    if let Some(table) = p.flag_value("sql") {
        println!("\n{}", to_sql(&outcome.explanation, &instance, table));
    }
    if let Some(path) = p.flag_value("save") {
        let portable = PortableExplanation::from_explanation(&outcome.explanation, &instance);
        std::fs::write(path, portable.to_json()).map_err(|e| e.to_string())?;
        eprintln!("saved explanation to {path}");
    }
    Ok(())
}

/// `affidavit profile`: explain every table pair in two snapshot
/// directories (paired by file stem) — in-process by default, or fanned
/// out to `affidavit-worker` child processes over the coordinator's TCP
/// listener with `--workers N`.
pub fn profile(args: &[String]) -> Result<(), String> {
    let p = parse(
        args,
        "profile",
        &[
            SEARCH_FLAGS,
            INGESTION_FLAGS,
            DISTRIBUTED_FLAGS,
            INCREMENTAL_FLAGS,
            &["align", "json", "stable"],
        ],
    )?;
    let [src_dir, tgt_dir] = p.positional[..] else {
        return Err(format!("profile needs two directories\n{USAGE}"));
    };
    let config = build_config(&p)?;
    let opts = affidavit_core::profiling::ProfileOptions {
        config,
        align: p.has("align"),
        ingest: IngestOptions::default(),
        pool: build_pool(&p)?,
    };
    let workers: usize = match p.flag_value("workers") {
        Some(v) => v
            .parse()
            .map_err(|_| format!("bad --workers {v:?} (workers, 0 = in-process)"))?,
        None => 0,
    };
    let secs_flag = |name: &str, default: u64| -> Result<std::time::Duration, String> {
        match p.flag_value(name) {
            None => Ok(std::time::Duration::from_secs(default)),
            Some(v) => v
                .parse()
                .map(std::time::Duration::from_secs)
                .map_err(|_| format!("bad --{name} {v:?} (seconds)")),
        }
    };
    if p.has("delta-state") && !p.has("delta") {
        return Err("--delta-state requires --delta".to_owned());
    }
    if p.has("delta") && workers > 0 {
        return Err(
            "--delta does not combine with --workers (incremental state is per-process)".to_owned(),
        );
    }
    let mut profile = if workers == 0 {
        for flag in ["listen", "steal-timeout-secs", "deadline-secs"] {
            if p.has(flag) {
                return Err(format!(
                    "--{flag} only applies to distributed runs; add --workers N"
                ));
            }
        }
        if p.has("delta") {
            let state = match p.flag_value("delta-state") {
                Some(dir) => Path::new(dir).join("profile.affidavit-delta.json"),
                None => affidavit_core::delta::default_profile_state(Path::new(tgt_dir)),
            };
            let (profile, stats) = affidavit_core::delta::profile_dirs_delta(
                Path::new(src_dir),
                Path::new(tgt_dir),
                &opts,
                &state,
            )?;
            affidavit_obs::diag("delta", &stats.summary());
            profile
        } else {
            affidavit_core::profiling::profile_dirs(Path::new(src_dir), Path::new(tgt_dir), &opts)?
        }
    } else {
        let backend = affidavit_dist::DistBackend::Tcp {
            listen: p.flag_value("listen").map(str::to_owned),
            worker_bin: None,
        };
        let dopts = affidavit_dist::DistOptions {
            workers,
            backend,
            steal_timeout: secs_flag("steal-timeout-secs", 30)?,
            deadline: secs_flag("deadline-secs", 86_400)?,
            ..affidavit_dist::DistOptions::default()
        };
        let (profile, stats) = affidavit_dist::profile_dirs_distributed(
            Path::new(src_dir),
            Path::new(tgt_dir),
            &opts,
            &dopts,
        )?;
        affidavit_obs::diag(
            "distributed (tcp)",
            &format!(
                "{} jobs over {} workers — {} steals, {} stragglers requeued, \
                 {} duplicates discarded, {} conflicts",
                stats.jobs,
                stats.workers,
                stats.steals,
                stats.stragglers_requeued,
                stats.duplicates_discarded,
                stats.conflicts
            ),
        );
        profile
    };
    if p.has("stable") {
        profile.strip_timing();
    }
    println!("{}", profile.render());
    if let Some(path) = p.flag_value("json") {
        std::fs::write(path, profile.to_json()).map_err(|e| e.to_string())?;
        eprintln!("wrote machine-readable profile to {path}");
    }
    Ok(())
}

/// `affidavit serve`: run the resident profiling daemon until a client
/// asks it to shut down (`affidavit client --connect ADDR --shutdown`).
pub fn serve(args: &[String]) -> Result<(), String> {
    let p = parse(
        args,
        "serve",
        &[&[
            "listen",
            "sessions",
            "max-inflight",
            "request-deadline-secs",
        ]],
    )?;
    if !p.positional.is_empty() {
        return Err(format!("serve takes no positional arguments\n{USAGE}"));
    }
    let sessions: usize = match p.flag_value("sessions") {
        Some(v) => v
            .parse()
            .map_err(|_| format!("bad --sessions {v:?} (pinned snapshot pairs)"))?,
        None => 8,
    };
    let max_inflight: usize = match p.flag_value("max-inflight") {
        Some(v) => v
            .parse()
            .map_err(|_| format!("bad --max-inflight {v:?} (requests, 0 = unlimited)"))?,
        None => 0,
    };
    let request_deadline = match p.flag_value("request-deadline-secs") {
        Some(v) => {
            let secs: u64 = v.parse().map_err(|_| {
                format!("bad --request-deadline-secs {v:?} (seconds, 0 = unlimited)")
            })?;
            (secs > 0).then(|| std::time::Duration::from_secs(secs))
        }
        None => None,
    };
    let opts = affidavit_serve::ServeOptions {
        listen: p.flag_value("listen").unwrap_or("127.0.0.1:0").to_owned(),
        sessions,
        max_inflight,
        request_deadline,
        ..affidavit_serve::ServeOptions::default()
    };
    let mut daemon = affidavit_serve::serve(&opts)?;
    // Scripts capture the chosen port from this line — flush through
    // pipe buffering before parking.
    println!("affidavit serve listening on {}", daemon.local_addr());
    use std::io::Write as _;
    let _ = std::io::stdout().flush();
    daemon.wait();
    let stats = daemon.stats();
    affidavit_obs::diag(
        "serve",
        &format!(
            "{} requests over {} connections — {} ingests, {} warm hits, {} evictions",
            stats.requests, stats.connections, stats.ingests, stats.hits, stats.evictions
        ),
    );
    Ok(())
}

/// `affidavit client`: run one request against a resident daemon. The
/// human-format stdout of an explain is byte-identical to the one-shot
/// `affidavit explain` under the same flags; an unreachable daemon
/// exits with code 3 (the broker-lost convention).
pub fn client(args: &[String]) -> Result<(), crate::Failure> {
    use affidavit_serve::{ClientError, ServeClient};
    let plain = crate::Failure::from;
    let p = parse(
        args,
        "client",
        &[
            SEARCH_FLAGS,
            INGESTION_FLAGS,
            INCREMENTAL_FLAGS,
            &[
                "connect",
                "format",
                "ping",
                "server-stats",
                "metrics",
                "pin",
                "shutdown",
            ],
            &["align", "stable"],
        ],
    )
    .map_err(plain)?;
    let fail = |e: ClientError| crate::Failure {
        code: if matches!(e, ClientError::Lost(_)) {
            affidavit_dist::BROKER_LOST_EXIT_CODE
        } else {
            1
        },
        message: e.to_string(),
    };
    let Some(addr) = p.flag_value("connect") else {
        return Err(plain(format!(
            "client requires --connect HOST:PORT\n{USAGE}"
        )));
    };
    let format = p.flag_value("format").unwrap_or("human");
    let json = match format {
        "human" => false,
        "json" => true,
        other => {
            return Err(plain(format!(
                "unknown --format {other:?} (use human|json)"
            )))
        }
    };
    // Diagnostics go to stderr: plain text under human, NDJSON under
    // json — stdout stays reserved for the data itself either way. The
    // rendering lives in the shared obs layer so every crate's stderr
    // diagnostics speak the same two formats.
    affidavit_obs::set_diag_format(if json {
        affidavit_obs::DiagFormat::Ndjson
    } else {
        affidavit_obs::DiagFormat::Human
    });
    let diag = affidavit_obs::diag;
    let remote = ServeClient::new(addr);
    if p.has("ping") {
        remote.ping().map_err(fail)?;
        if json {
            println!("{{\"status\":\"pong\"}}");
        } else {
            println!("pong from {addr}");
        }
        return Ok(());
    }
    if p.has("server-stats") {
        let stats = remote.stats().map_err(fail)?;
        if json {
            println!(
                "{}",
                serde_json::to_string(&stats).expect("stats serialize")
            );
        } else {
            println!(
                "serve stats: {} requests over {} connections — {} sessions pinned, \
                 {} ingests, {} warm hits, {} evictions",
                stats.requests,
                stats.connections,
                stats.sessions,
                stats.ingests,
                stats.hits,
                stats.evictions
            );
        }
        return Ok(());
    }
    if p.has("metrics") {
        // Prometheus text exposition is already machine-readable, so
        // both formats print it verbatim.
        let text = remote.metrics().map_err(fail)?;
        print!("{text}");
        return Ok(());
    }
    if p.has("pin") {
        // The splitter hands `--pin SRC TGT` over as flag value SRC plus
        // positional TGT; `SRC TGT --pin` arrives as two positionals.
        let (src, tgt) = match (p.flag_value("pin"), &p.positional[..]) {
            (Some(src), [tgt]) => (src, *tgt),
            (None, [src, tgt]) => (*src, *tgt),
            _ => {
                return Err(plain(format!(
                    "client --pin needs two CSV paths (on the server's filesystem)\n{USAGE}"
                )))
            }
        };
        let cfg = build_config(&p).map_err(plain)?;
        let pool_cfg = build_pool(&p).map_err(plain)?;
        let spec = build_spec(src, tgt, cfg, &p, &pool_cfg);
        let warm = remote.pin(&spec).map_err(fail)?;
        diag(
            "session",
            if warm {
                "warm (already pinned)"
            } else {
                "cold (ingested and pinned on the server)"
            },
        );
        if json {
            println!("{{\"status\":\"pinned\",\"warm\":{warm}}}");
        } else {
            println!(
                "pinned {src} and {tgt} on {addr} ({})",
                if warm { "already warm" } else { "cold" }
            );
        }
        return Ok(());
    }
    if p.has("shutdown") {
        remote.shutdown().map_err(fail)?;
        if json {
            println!("{{\"status\":\"shutting_down\"}}");
        } else {
            println!("server at {addr} is shutting down");
        }
        return Ok(());
    }
    let [src, tgt] = p.positional[..] else {
        return Err(plain(format!(
            "client needs two CSV paths (on the server's filesystem)\n{USAGE}"
        )));
    };
    let cfg = build_config(&p).map_err(plain)?;
    let pool_cfg = build_pool(&p).map_err(plain)?;
    let spec = build_spec(src, tgt, cfg, &p, &pool_cfg);
    let reply = remote.explain(&spec).map_err(fail)?;
    diag(
        "session",
        if reply.warm {
            "warm (zero ingestion work)"
        } else {
            "cold (ingested on the server)"
        },
    );
    if json {
        println!(
            "{}",
            serde_json::to_string(&reply).expect("replies serialize")
        );
    } else {
        // Exactly the one-shot `affidavit explain` stdout: the rendered
        // report, then the search line (timing zeroed under --stable).
        println!("{}", reply.report);
        let duration = if p.has("stable") {
            std::time::Duration::ZERO
        } else {
            std::time::Duration::from_millis(reply.millis)
        };
        println!(
            "search: {} states polled, {} generated, {duration:?}",
            reply.polled, reply.generated
        );
    }
    Ok(())
}

/// The wire spec for a client `Explain`/`Pin`, from the parsed flags.
fn build_spec(
    src: &str,
    tgt: &str,
    cfg: AffidavitConfig,
    p: &Parsed<'_>,
    pool_cfg: &PoolConfig,
) -> affidavit_serve::ExplainSpec {
    affidavit_serve::ExplainSpec {
        source: src.to_owned(),
        target: tgt.to_owned(),
        config: cfg,
        align: p.has("align"),
        pool_backend: match pool_cfg.backend {
            PoolBackend::Ram => "ram".to_owned(),
            PoolBackend::Disk => "disk".to_owned(),
        },
        pool_budget_bytes: pool_cfg.budget_bytes,
        delta: p.has("delta"),
        delta_state: p.flag_value("delta-state").map(str::to_owned),
    }
}

/// `affidavit diff`: classic key-based comparison.
pub fn diff(args: &[String]) -> Result<(), String> {
    let p = parse(args, "diff", &[&["key"]])?;
    let [src, tgt] = p.positional[..] else {
        return Err(format!("diff needs two CSV paths\n{USAGE}"));
    };
    let keys = p
        .flag_value("key")
        .ok_or_else(|| "diff requires --key COL[,COL...]".to_owned())?;
    let instance = load_instance(src, tgt)?;
    let key_attrs: Vec<AttrId> = keys
        .split(',')
        .map(|name| {
            instance
                .schema()
                .find(name.trim())
                .ok_or_else(|| format!("unknown key column {name:?}"))
        })
        .collect::<Result<_, _>>()?;
    let report = affidavit_baselines_diff(&instance, &key_attrs);
    println!("{report}");
    Ok(())
}

// The baselines crate is not a CLI dependency (keeps the binary lean), so
// reimplement the small key-diff report here on top of the core types.
fn affidavit_baselines_diff(instance: &ProblemInstance, keys: &[AttrId]) -> String {
    use affidavit_table::{FxHashMap, Sym};
    let mut by_key: FxHashMap<Vec<Sym>, (Vec<affidavit_table::RecordId>, usize)> =
        FxHashMap::default();
    for (tid, rec) in instance.target.iter() {
        let key: Vec<Sym> = keys.iter().map(|a| rec.get(a.index())).collect();
        by_key.entry(key).or_default().0.push(tid);
    }
    let mut matched = 0usize;
    let mut updates = 0usize;
    let mut deletes = 0usize;
    for (sid, rec) in instance.source.iter() {
        let key: Vec<Sym> = keys.iter().map(|a| rec.get(a.index())).collect();
        match by_key.get_mut(&key) {
            Some((tids, next)) if *next < tids.len() => {
                let tid = tids[*next];
                *next += 1;
                matched += 1;
                let changed = instance
                    .schema()
                    .attr_ids()
                    .filter(|a| !keys.contains(a))
                    .any(|a| instance.source.value(sid, a) != instance.target.value(tid, a));
                if changed {
                    updates += 1;
                }
            }
            _ => deletes += 1,
        }
    }
    let inserts: usize = by_key.values().map(|(tids, next)| tids.len() - next).sum();
    format!(
        "key-based diff: {matched} matched ({updates} updated), {deletes} deleted, {inserts} inserted\n\
         note: if keys were reassigned between snapshots this alignment is unreliable — use `affidavit explain`"
    )
}

/// `affidavit apply`: transform unseen rows, either with a freshly learned
/// explanation (three CSV paths) or with a saved one (`--explanation`).
pub fn apply(args: &[String]) -> Result<(), String> {
    let p = parse(args, "apply", &[SEARCH_FLAGS, &["explanation", "out"]])?;
    if let Some(expl_path) = p.flag_value("explanation") {
        let [unseen_path] = p.positional[..] else {
            return Err(format!("apply --explanation needs one CSV path\n{USAGE}"));
        };
        let json = std::fs::read_to_string(expl_path).map_err(|e| format!("{expl_path}: {e}"))?;
        let portable = PortableExplanation::from_json(&json)?;
        let mut pool = ValuePool::new();
        let unseen = read_csv(unseen_path, &mut pool)?;
        let names: Vec<&str> = unseen.schema().names().collect();
        if names
            != portable
                .schema
                .iter()
                .map(String::as_str)
                .collect::<Vec<_>>()
        {
            return Err(format!(
                "schema mismatch: explanation was learned over {:?}, input has {:?}",
                portable.schema, names
            ));
        }
        let functions = portable.functions(&mut pool)?;
        let e = affidavit_core::Explanation::new(functions, vec![], vec![], vec![]);
        let (transformed, failed) = transform_table(&e, &unseen, &mut pool);
        eprintln!(
            "applied saved explanation: {} transformed, {} untransformable",
            transformed.len(),
            failed.len()
        );
        return match p.flag_value("out") {
            Some(path) => {
                csv::write_path(path, &transformed, &pool, csv::CsvOptions::default())
                    .map_err(|e| e.to_string())?;
                eprintln!("wrote {path}");
                Ok(())
            }
            None => {
                let mut stdout = std::io::stdout();
                csv::write(&mut stdout, &transformed, &pool, csv::CsvOptions::default())
                    .map_err(|e| e.to_string())
            }
        };
    }
    let [src, tgt, unseen_path] = p.positional[..] else {
        return Err(format!("apply needs three CSV paths\n{USAGE}"));
    };
    let mut instance = load_instance(src, tgt)?;
    let unseen = {
        let mut pool_ref = std::mem::take(&mut instance.pool);
        let t = read_csv(unseen_path, &mut pool_ref)?;
        instance.pool = pool_ref;
        t
    };
    if unseen.schema() != instance.schema() {
        return Err("unseen table schema differs from the snapshots".to_owned());
    }
    let cfg = build_config(&p)?;
    let outcome = Affidavit::new(cfg).explain(&mut instance);
    let (transformed, failed) = transform_table(&outcome.explanation, &unseen, &mut instance.pool);
    eprintln!(
        "learned explanation (core {}, cost {}); transformed {} records, {} untransformable",
        outcome.explanation.core_size(),
        outcome.explanation.cost_units(instance.arity()),
        transformed.len(),
        failed.len()
    );
    match p.flag_value("out") {
        Some(path) => {
            csv::write_path(
                path,
                &transformed,
                &instance.pool,
                csv::CsvOptions::default(),
            )
            .map_err(|e| e.to_string())?;
            eprintln!("wrote {path}");
        }
        None => {
            let mut stdout = std::io::stdout();
            csv::write(
                &mut stdout,
                &transformed,
                &instance.pool,
                csv::CsvOptions::default(),
            )
            .map_err(|e| e.to_string())?;
        }
    }
    Ok(())
}

/// `affidavit gen`: write a synthetic §5.1 snapshot pair.
pub fn gen(args: &[String]) -> Result<(), String> {
    let p = parse(args, "gen", &[&["eta", "tau", "rows", "seed", "out-dir"]])?;
    let [dataset] = p.positional[..] else {
        return Err(format!("gen needs a dataset name\n{USAGE}"));
    };
    let spec = affidavit_datasets::by_name(dataset)
        .ok_or_else(|| format!("unknown dataset {dataset:?}"))?;
    let eta: f64 = p
        .flag_value("eta")
        .unwrap_or("0.3")
        .parse()
        .map_err(|_| "bad --eta")?;
    let tau: f64 = p
        .flag_value("tau")
        .unwrap_or("0.3")
        .parse()
        .map_err(|_| "bad --tau")?;
    let seed: u64 = p
        .flag_value("seed")
        .unwrap_or("1")
        .parse()
        .map_err(|_| "bad --seed")?;
    let rows: usize = match p.flag_value("rows") {
        Some(r) => r.parse().map_err(|_| "bad --rows")?,
        None => spec.rows,
    };
    let out_dir = p
        .flag_value("out-dir")
        .ok_or_else(|| "gen requires --out-dir DIR".to_owned())?;
    std::fs::create_dir_all(out_dir).map_err(|e| e.to_string())?;

    let (base, pool) = affidavit_datasets::synth::generate_rows(&spec, rows, seed);
    let generated = Blueprint::new(base, pool, GenConfig::new(eta, tau, seed)).materialize_full();
    let dir = Path::new(out_dir);
    let src_path = dir.join(format!("{dataset}_source.csv"));
    let tgt_path = dir.join(format!("{dataset}_target.csv"));
    csv::write_path(
        &src_path,
        &generated.instance.source,
        &generated.instance.pool,
        csv::CsvOptions::default(),
    )
    .map_err(|e| e.to_string())?;
    csv::write_path(
        &tgt_path,
        &generated.instance.target,
        &generated.instance.pool,
        csv::CsvOptions::default(),
    )
    .map_err(|e| e.to_string())?;
    println!(
        "wrote {} and {} (η={eta}, τ={tau}, {} records each, reference cost {})",
        src_path.display(),
        tgt_path.display(),
        generated.instance.source.len(),
        generated.reference.cost_units(generated.instance.arity())
    );
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use affidavit_store::PoolBackend;

    fn argv(items: &[&str]) -> Vec<String> {
        items.iter().map(|s| s.to_string()).collect()
    }

    #[test]
    fn parse_positional_and_flags() {
        let args = argv(&[
            "a.csv", "b.csv", "--config", "overlap", "--trace", "--seed", "9",
        ]);
        let p = split(&args);
        assert_eq!(p.positional, vec!["a.csv", "b.csv"]);
        assert_eq!(p.flag_value("config"), Some("overlap"));
        assert_eq!(p.flag_value("seed"), Some("9"));
        assert!(p.has("trace"));
        assert!(!p.has("sql"));
    }

    #[test]
    fn switches_never_take_a_value() {
        for switch in SWITCHES {
            let args = argv(&[&format!("--{switch}"), "s.csv", "t.csv", "--seed", "5"]);
            let p = split(&args);
            assert_eq!(p.positional, vec!["s.csv", "t.csv"], "--{switch}");
            assert_eq!(p.flag(switch), Some(None), "--{switch}");
            assert_eq!(p.flag_value("seed"), Some("5"), "--{switch}");
        }
        // `--pin SRC TGT` keeps its value.
        let args = argv(&["--pin", "s.csv", "t.csv"]);
        assert_eq!(split(&args).flag_value("pin"), Some("s.csv"));
    }

    #[test]
    fn build_config_variants() {
        let good = argv(&["--config", "overlap", "--seed", "123"]);
        let cfg = build_config(&split(&good)).unwrap();
        assert_eq!(cfg.seed, 123);
        assert_eq!(cfg.queue_width, 1);
        let bad = argv(&["--config", "nope"]);
        assert!(build_config(&split(&bad)).is_err());
    }

    #[test]
    fn build_config_threads() {
        let good = argv(&["--threads", "4"]);
        let cfg = build_config(&split(&good)).unwrap();
        assert_eq!(cfg.threads, 4);
        let bad = argv(&["--threads", "wide"]);
        assert!(build_config(&split(&bad)).is_err());
    }

    #[test]
    fn unknown_and_retired_flags_are_rejected() {
        for (flag, value) in [
            ("--speculative-width", "4"),
            ("--steal", "expansions"),
            ("--thraeds", "4"),
            ("--ingest-chunk-rows", "16"),
        ] {
            let err = explain(&argv(&["a.csv", "b.csv", flag, value])).unwrap_err();
            assert!(err.contains(flag), "{err}");
            let err = profile(&argv(&["a", "b", flag, value])).unwrap_err();
            assert!(err.contains(flag), "{err}");
        }
        // Retired distribution flags: the spool-directory transport is gone.
        for (flag, value) in [("--transport", "tcp"), ("--broker", "/tmp/spool")] {
            let err = profile(&argv(&["a", "b", "--workers", "2", flag, value])).unwrap_err();
            assert!(err.contains(flag), "{err}");
        }
        let err = serve(&argv(&["--expansion-workers", "2"])).unwrap_err();
        assert!(err.contains("--expansion-workers"), "{err}");
        let err = client(&argv(&["--connect", "127.0.0.1:9", "--bogus"])).unwrap_err();
        assert_eq!(err.code, 1);
        assert!(err.message.contains("--bogus"), "{}", err.message);
        // Every command knows the observability flags.
        let err = gen(&argv(&["iris", "--obs-summary"])).unwrap_err();
        assert!(err.contains("--out-dir"), "{err}");
    }

    #[test]
    fn build_pool_flags() {
        let args = argv(&["--pool-backend", "disk", "--pool-budget-bytes", "4096"]);
        let pool_cfg = build_pool(&split(&args)).unwrap();
        assert_eq!(pool_cfg.backend, PoolBackend::Disk);
        assert_eq!(pool_cfg.budget_bytes, 4096);
        assert!(build_pool(&split(&argv(&["--pool-backend", "mmap"]))).is_err());
        assert!(build_pool(&split(&argv(&["--pool-budget-bytes", "many"]))).is_err());
    }

    #[test]
    fn explain_runs_with_disk_pool_backend() {
        let dir = std::env::temp_dir().join("affidavit-cli-diskpool-test");
        std::fs::create_dir_all(&dir).unwrap();
        let src = dir.join("s.csv");
        let tgt = dir.join("t.csv");
        let mut s = String::from("k,v\n");
        let mut t = String::from("k,v\n");
        for i in 0..40 {
            s.push_str(&format!("key{i},{}\n", (i + 1) * 1000));
            t.push_str(&format!("key{i},{}\n", i + 1));
        }
        std::fs::write(&src, s).unwrap();
        std::fs::write(&tgt, t).unwrap();
        explain(&argv(&[
            src.to_str().unwrap(),
            tgt.to_str().unwrap(),
            "--pool-backend",
            "disk",
            "--pool-budget-bytes",
            "256",
        ]))
        .unwrap();
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn explain_rejects_missing_args() {
        assert!(explain(&argv(&["only-one.csv"])).is_err());
        assert!(diff(&argv(&["a.csv", "b.csv"])).is_err()); // missing --key
        assert!(apply(&argv(&["a.csv", "b.csv"])).is_err());
        assert!(gen(&argv(&[])).is_err());
    }

    #[test]
    fn gen_then_explain_roundtrip() {
        let dir = std::env::temp_dir().join("affidavit-cli-test");
        std::fs::create_dir_all(&dir).unwrap();
        let dir_s = dir.to_string_lossy().to_string();
        gen(&argv(&[
            "iris",
            "--rows",
            "100",
            "--seed",
            "3",
            "--out-dir",
            &dir_s,
        ]))
        .unwrap();
        let src = dir.join("iris_source.csv");
        let tgt = dir.join("iris_target.csv");
        assert!(src.is_file() && tgt.is_file());
        explain(&argv(&[
            src.to_str().unwrap(),
            tgt.to_str().unwrap(),
            "--seed",
            "4",
        ]))
        .unwrap();
        diff(&argv(&[
            src.to_str().unwrap(),
            tgt.to_str().unwrap(),
            "--key",
            "pk",
        ]))
        .unwrap();
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn apply_transforms_unseen_rows() {
        let dir = std::env::temp_dir().join("affidavit-cli-apply-test");
        std::fs::create_dir_all(&dir).unwrap();
        let src = dir.join("s.csv");
        let tgt = dir.join("t.csv");
        let unseen = dir.join("u.csv");
        let out = dir.join("o.csv");
        std::fs::write(&src, "k,v\na,1000\nb,2000\nc,3000\n").unwrap();
        std::fs::write(&tgt, "k,v\na,1\nb,2\nc,3\n").unwrap();
        std::fs::write(&unseen, "k,v\nz,9000\n").unwrap();
        apply(&argv(&[
            src.to_str().unwrap(),
            tgt.to_str().unwrap(),
            unseen.to_str().unwrap(),
            "--out",
            out.to_str().unwrap(),
        ]))
        .unwrap();
        let written = std::fs::read_to_string(&out).unwrap();
        assert!(
            written.contains("z,9"),
            "learned x/1000 must apply: {written}"
        );
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn gen_unknown_dataset_fails() {
        assert!(gen(&argv(&["not-a-dataset", "--out-dir", "/tmp"])).is_err());
    }

    #[test]
    fn every_documented_flag_has_a_default_in_help() {
        // The flag audit: each tunable introduced by the parallel search,
        // streaming ingestion, pool-backend and distribution work must be
        // described in USAGE with its default spelled out.
        for flag in [
            "--config",
            "--seed",
            "--threads",
            "--pool-backend",
            "--pool-budget-bytes",
            "--delta",
            "--delta-state",
            "--workers",
            "--listen",
            "--steal-timeout-secs",
            "--deadline-secs",
            "--stable",
            "--listen",
            "--sessions",
            "--max-inflight",
            "--request-deadline-secs",
            "--connect",
            "--format",
            "--ping",
            "--server-stats",
            "--metrics",
            "--pin",
            "--shutdown",
            "--obs-out",
            "--obs-summary",
        ] {
            let line_start = USAGE
                .find(&format!("\n  {flag}"))
                .unwrap_or_else(|| panic!("{flag} missing from the FLAGS sections of USAGE"));
            let description = &USAGE[line_start..][..USAGE[line_start + 1..]
                .find("\n  --")
                .map_or(USAGE.len() - line_start, |i| i + 1)];
            assert!(
                description.contains("(default:"),
                "{flag} must document its default: {description}"
            );
        }
    }

    #[test]
    fn client_round_trips_against_a_daemon_and_codes_its_exits() {
        let dir = std::env::temp_dir().join("affidavit-cli-serve-test");
        std::fs::remove_dir_all(&dir).ok();
        std::fs::create_dir_all(&dir).unwrap();
        let src = dir.join("s.csv");
        let tgt = dir.join("t.csv");
        std::fs::write(&src, "k,v\na,1000\nb,2000\nc,3000\n").unwrap();
        std::fs::write(&tgt, "k,v\na,1\nb,2\nc,3\n").unwrap();
        let mut daemon = affidavit_serve::serve(&affidavit_serve::ServeOptions::default()).unwrap();
        let addr = daemon.local_addr().to_string();
        client(&argv(&["--connect", &addr, "--ping"])).unwrap();
        // A full explain (human and json), twice: the repeat is warm.
        for format in ["human", "json"] {
            client(&argv(&[
                "--connect",
                &addr,
                src.to_str().unwrap(),
                tgt.to_str().unwrap(),
                "--stable",
                "--format",
                format,
            ]))
            .unwrap();
        }
        client(&argv(&["--connect", &addr, "--server-stats"])).unwrap();
        let stats = daemon.stats();
        assert_eq!(stats.requests, 2);
        assert_eq!(stats.ingests, 1, "the repeat must reuse the session");
        assert_eq!(stats.hits, 1);
        // Pinning the already-explained pair performs zero ingestion
        // work, and the metrics op answers for both formats.
        client(&argv(&[
            "--connect",
            &addr,
            "--pin",
            src.to_str().unwrap(),
            tgt.to_str().unwrap(),
        ]))
        .unwrap();
        let stats = daemon.stats();
        assert_eq!(stats.requests, 3);
        assert_eq!(stats.ingests, 1, "a pin of a pinned pair is free");
        client(&argv(&["--connect", &addr, "--metrics"])).unwrap();
        assert_eq!(
            client(&argv(&["--connect", &addr, "--pin"]))
                .unwrap_err()
                .code,
            1,
            "--pin without paths is a usage error"
        );
        // Usage errors are exit code 1; a clean shutdown works; after
        // it, the daemon is unreachable — exit code 3.
        assert_eq!(client(&argv(&["--ping"])).unwrap_err().code, 1);
        let bad = client(&argv(&["--connect", &addr, "--format", "xml"])).unwrap_err();
        assert_eq!(bad.code, 1);
        client(&argv(&["--connect", &addr, "--shutdown"])).unwrap();
        daemon.wait();
        let lost = client(&argv(&["--connect", &addr, "--ping"])).unwrap_err();
        assert_eq!(lost.code, affidavit_dist::BROKER_LOST_EXIT_CODE);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn serve_rejects_bad_flags() {
        assert!(serve(&argv(&["stray-positional"])).is_err());
        assert!(serve(&argv(&["--sessions", "lots"])).is_err());
        assert!(serve(&argv(&["--listen", "not-an-address"])).is_err());
        assert!(serve(&argv(&["--max-inflight", "many"])).is_err());
        assert!(serve(&argv(&["--request-deadline-secs", "soon"])).is_err());
    }

    #[test]
    fn profile_rejects_bad_distribution_flags() {
        let dir = std::env::temp_dir().join("affidavit-cli-distflags-test");
        std::fs::create_dir_all(&dir).unwrap();
        let d = dir.to_str().unwrap();
        let err = profile(&argv(&[d, d, "--workers", "many"])).unwrap_err();
        assert!(err.contains("--workers"), "{err}");
        // Distribution flags without a distributed run fail with a
        // pointed message.
        for (flag, value) in [
            ("--listen", "127.0.0.1:0"),
            ("--steal-timeout-secs", "5"),
            ("--deadline-secs", "60"),
        ] {
            let err = profile(&argv(&[d, d, flag, value])).unwrap_err();
            assert!(err.contains(flag) && err.contains("--workers"), "{err}");
        }
        let err = profile(&argv(&[d, d, "--workers", "2", "--deadline-secs", "soon"])).unwrap_err();
        assert!(err.contains("--deadline-secs"), "{err}");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn delta_flags_validate_and_round_trip() {
        let dir = std::env::temp_dir().join("affidavit-cli-delta-test");
        std::fs::remove_dir_all(&dir).ok();
        std::fs::create_dir_all(&dir).unwrap();
        let src = dir.join("s.csv");
        let tgt = dir.join("t.csv");
        std::fs::write(&src, "k,v\na,1000\nb,2000\nc,3000\n").unwrap();
        std::fs::write(&tgt, "k,v\na,1\nb,2\nc,3\n").unwrap();
        let (s, t) = (src.to_str().unwrap(), tgt.to_str().unwrap());
        // Flag validation: search-internal flags and orphaned state.
        let err = explain(&argv(&[s, t, "--delta", "--trace"])).unwrap_err();
        assert!(err.contains("--trace"), "{err}");
        let err = explain(&argv(&[s, t, "--delta-state", "/tmp/x"])).unwrap_err();
        assert!(err.contains("requires --delta"), "{err}");
        let err = profile(&argv(&[s, t, "--delta", "--workers", "2"])).unwrap_err();
        assert!(err.contains("--workers"), "{err}");
        // A run then a re-run: the manifest lands in --delta-state.
        let state = dir.join("state");
        let state_s = state.to_str().unwrap().to_owned();
        explain(&argv(&[
            s,
            t,
            "--delta",
            "--delta-state",
            &state_s,
            "--stable",
        ]))
        .unwrap();
        assert!(state.join("explain.affidavit-delta.json").is_file());
        explain(&argv(&[
            s,
            t,
            "--delta",
            "--delta-state",
            &state_s,
            "--stable",
        ]))
        .unwrap();
        // Without --delta-state the manifest is a sibling of the target.
        explain(&argv(&[s, t, "--delta"])).unwrap();
        assert!(dir.join("t.csv.affidavit-delta.json").is_file());
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn profile_delta_round_trips_through_the_cli() {
        let root = std::env::temp_dir().join("affidavit-cli-profile-delta-test");
        std::fs::remove_dir_all(&root).ok();
        let src = root.join("v1");
        let tgt = root.join("v2");
        std::fs::create_dir_all(&src).unwrap();
        std::fs::create_dir_all(&tgt).unwrap();
        std::fs::write(src.join("a.csv"), "k,v\nx,1000\ny,2000\nz,3000\n").unwrap();
        std::fs::write(tgt.join("a.csv"), "k,v\nx,1\ny,2\nz,3\n").unwrap();
        let json1 = root.join("p1.json");
        let json2 = root.join("p2.json");
        let args = |json: &Path| {
            argv(&[
                src.to_str().unwrap(),
                tgt.to_str().unwrap(),
                "--delta",
                "--stable",
                "--json",
                json.to_str().unwrap(),
            ])
        };
        profile(&args(&json1)).unwrap();
        assert!(tgt.join(".affidavit-delta.json").is_file());
        profile(&args(&json2)).unwrap();
        assert_eq!(
            std::fs::read_to_string(&json1).unwrap(),
            std::fs::read_to_string(&json2).unwrap(),
            "a clean --delta re-run must reproduce the profile byte for byte"
        );
        std::fs::remove_dir_all(&root).ok();
    }

    #[test]
    fn profile_two_snapshot_directories() {
        let root = std::env::temp_dir().join("affidavit-cli-profile-test");
        std::fs::remove_dir_all(&root).ok();
        let src = root.join("v1");
        let tgt = root.join("v2");
        std::fs::create_dir_all(&src).unwrap();
        std::fs::create_dir_all(&tgt).unwrap();
        std::fs::write(src.join("a.csv"), "k,v\nx,1000\ny,2000\nz,3000\n").unwrap();
        std::fs::write(tgt.join("a.csv"), "k,v\nx,1\ny,2\nz,3\n").unwrap();
        std::fs::write(src.join("gone.csv"), "c\n1\n").unwrap();
        let json = root.join("profile.json");
        profile(&argv(&[
            src.to_str().unwrap(),
            tgt.to_str().unwrap(),
            "--json",
            json.to_str().unwrap(),
        ]))
        .unwrap();
        let written = std::fs::read_to_string(&json).unwrap();
        assert!(written.contains("\"missing_in_target\""), "{written}");
        assert!(written.contains("\"explained\""), "{written}");
        // Bad arguments fail cleanly.
        assert!(profile(&argv(&["only-one-dir"])).is_err());
        std::fs::remove_dir_all(&root).ok();
    }

    #[test]
    fn extended_flag_learns_formatting_and_applies_to_unseen() {
        let dir = std::env::temp_dir().join("affidavit-cli-extended-test");
        std::fs::create_dir_all(&dir).unwrap();
        let src = dir.join("s.csv");
        let tgt = dir.join("t.csv");
        let unseen = dir.join("u.csv");
        let outp = dir.join("o.csv");
        let saved = dir.join("e.json");
        // Amount column gains thousands grouping; org stays put.
        let mut s = String::from("amount,org\n");
        let mut t = String::from("amount,org\n");
        for i in 0..30 {
            let v = 10_000 + i * 7_919;
            let o = ["IBM", "SAP", "BASF"][i % 3];
            s.push_str(&format!("{v},{o}\n"));
            // Grouped amounts contain commas, so the CSV field is quoted.
            t.push_str(&format!(
                "\"{}\",{o}\n",
                affidavit_functions::numeric_format::add_thousands_sep(&v.to_string(), ',')
                    .unwrap()
            ));
        }
        std::fs::write(&src, s).unwrap();
        std::fs::write(&tgt, t).unwrap();
        std::fs::write(&unseen, "amount,org\n7654321,DAB\n").unwrap();
        explain(&argv(&[
            src.to_str().unwrap(),
            tgt.to_str().unwrap(),
            "--extended",
            "--save",
            saved.to_str().unwrap(),
        ]))
        .unwrap();
        apply(&argv(&[
            "--explanation",
            saved.to_str().unwrap(),
            unseen.to_str().unwrap(),
            "--out",
            outp.to_str().unwrap(),
        ]))
        .unwrap();
        let written = std::fs::read_to_string(&outp).unwrap();
        assert!(
            written.contains("7,654,321"),
            "grouping must generalize: {written}"
        );
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn explain_align_normalizes_merged_columns() {
        let dir = std::env::temp_dir().join("affidavit-cli-merge-test");
        std::fs::create_dir_all(&dir).unwrap();
        let src = dir.join("s.csv");
        let tgt = dir.join("t.csv");
        // Source keeps first/last separate; the target merged them.
        let mut s = String::from("first,last,org\n");
        let mut t = String::from("name,org\n");
        for i in 0..25 {
            let f = ["John", "Jane", "Max", "Ada", "Alan"][i % 5];
            let l = ["Doe", "Weber", "Turing", "Hopper", "Liskov"][(i * 2) % 5];
            let o = ["IBM", "SAP"][i % 2];
            s.push_str(&format!("{f}{i},{l},{o}\n"));
            t.push_str(&format!("{f}{i} {l},{o}\n"));
        }
        std::fs::write(&src, s).unwrap();
        std::fs::write(&tgt, t).unwrap();
        explain(&argv(&[
            src.to_str().unwrap(),
            tgt.to_str().unwrap(),
            "--align",
        ]))
        .unwrap();
        // Without --align the arity mismatch must be a clean error.
        assert!(explain(&argv(&[src.to_str().unwrap(), tgt.to_str().unwrap()])).is_err());
        std::fs::remove_dir_all(&dir).ok();
    }
}

#[cfg(test)]
mod portable_tests {
    use super::*;

    fn argv(items: &[&str]) -> Vec<String> {
        items.iter().map(|s| s.to_string()).collect()
    }

    #[test]
    fn save_then_apply_saved_explanation() {
        let dir = std::env::temp_dir().join("affidavit-cli-portable-test");
        std::fs::create_dir_all(&dir).unwrap();
        let src = dir.join("s.csv");
        let tgt = dir.join("t.csv");
        let expl = dir.join("e.json");
        let unseen = dir.join("u.csv");
        let out = dir.join("o.csv");
        std::fs::write(&src, "k,v\na,1000\nb,2000\nc,3000\n").unwrap();
        std::fs::write(&tgt, "k,v\na,1\nb,2\nc,3\n").unwrap();
        std::fs::write(&unseen, "k,v\nz,7000\n").unwrap();
        explain(&argv(&[
            src.to_str().unwrap(),
            tgt.to_str().unwrap(),
            "--save",
            expl.to_str().unwrap(),
        ]))
        .unwrap();
        assert!(expl.is_file());
        apply(&argv(&[
            "--explanation",
            expl.to_str().unwrap(),
            unseen.to_str().unwrap(),
            "--out",
            out.to_str().unwrap(),
        ]))
        .unwrap();
        let written = std::fs::read_to_string(&out).unwrap();
        assert!(written.contains("z,7"), "{written}");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn apply_saved_rejects_schema_mismatch() {
        let dir = std::env::temp_dir().join("affidavit-cli-portable-mismatch");
        std::fs::create_dir_all(&dir).unwrap();
        let expl = dir.join("e.json");
        let portable = affidavit_core::portable::PortableExplanation {
            schema: vec!["x".into()],
            functions: vec![affidavit_core::portable::PortableFunction::Identity],
            core_size: 0,
            deleted: 0,
            inserted: 0,
        };
        std::fs::write(&expl, portable.to_json()).unwrap();
        let unseen = dir.join("u.csv");
        std::fs::write(&unseen, "different\n1\n").unwrap();
        let err = apply(&argv(&[
            "--explanation",
            expl.to_str().unwrap(),
            unseen.to_str().unwrap(),
        ]))
        .unwrap_err();
        assert!(err.contains("schema mismatch"), "{err}");
        std::fs::remove_dir_all(&dir).ok();
    }
}
