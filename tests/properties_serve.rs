//! Serve-vs-one-shot byte-identity battery.
//!
//! The resident daemon's determinism contract: a served explain renders
//! **exactly** the bytes the one-shot CLI path produces for the same
//! inputs and configuration — cold or warm, at any thread count, over
//! either pool backend, under concurrent clients. The battery sweeps
//! both paper configurations × threads {1, 4} × {ram, disk} pools, then
//! hammers one spec with 4 concurrent clients, and asserts throughout
//! (via the daemon's counters) that warm repeats perform zero ingestion
//! work.

use std::path::{Path, PathBuf};

use affidavit_core::profiling::{stage_file_pair, ProfileOptions};
use affidavit_core::report::render_report;
use affidavit_core::{Affidavit, AffidavitConfig};
use affidavit_serve::{serve, ExplainSpec, ServeClient, ServeOptions};
use affidavit_store::{IngestOptions, PoolConfig};

/// A snapshot pair with a systematic change (rescaled values), plus some
/// deletions and insertions so the report has every section.
fn write_pair(dir: &Path) -> (PathBuf, PathBuf) {
    std::fs::create_dir_all(dir).unwrap();
    let src = dir.join("source.csv");
    let tgt = dir.join("target.csv");
    let mut s = String::from("k,v,w\n");
    let mut t = String::from("k,v,w\n");
    for i in 0..60 {
        s.push_str(&format!("k{i},{},tag{}\n", i * 1000, i % 7));
        if i % 11 != 10 {
            t.push_str(&format!("k{i},{i},tag{}\n", i % 7));
        }
    }
    t.push_str("extra,1,tagx\n");
    std::fs::write(&src, s).unwrap();
    std::fs::write(&tgt, t).unwrap();
    (src, tgt)
}

fn spec_for(src: &Path, tgt: &Path, config: &str, threads: usize, backend: &str) -> ExplainSpec {
    let mut cfg = match config {
        "id" => AffidavitConfig::paper_id(),
        "overlap" => AffidavitConfig::paper_overlap(),
        other => panic!("unknown config {other}"),
    };
    cfg.threads = threads;
    ExplainSpec {
        config: cfg,
        pool_backend: backend.to_owned(),
        pool_budget_bytes: 4096, // tiny, so the disk backend actually spills
        ..ExplainSpec::new(src.to_str().unwrap(), tgt.to_str().unwrap())
    }
}

/// The one-shot path for the same spec: ingest + stage + search +
/// render, exactly what `affidavit explain` runs in-process.
fn one_shot(spec: &ExplainSpec) -> (String, u64, u64) {
    let opts = ProfileOptions {
        config: spec.config.clone(),
        align: spec.align,
        ingest: IngestOptions::default(),
        pool: PoolConfig {
            backend: spec.pool_backend.parse().unwrap(),
            budget_bytes: spec.pool_budget_bytes,
        },
    };
    let mut instance =
        stage_file_pair(Path::new(&spec.source), Path::new(&spec.target), &opts).unwrap();
    let outcome = Affidavit::new(spec.config.clone()).explain(&mut instance);
    (
        render_report(&outcome.explanation, &instance),
        outcome.stats.polled as u64,
        outcome.stats.states_generated as u64,
    )
}

#[test]
fn served_reports_match_one_shot_across_the_matrix() {
    let dir = std::env::temp_dir().join("affidavit-serve-battery");
    std::fs::remove_dir_all(&dir).ok();
    let (src, tgt) = write_pair(&dir);
    let mut daemon = serve(&ServeOptions::default()).unwrap();
    let client = ServeClient::new(daemon.local_addr().to_string());

    let mut requests = 0u64;
    for config in ["id", "overlap"] {
        for threads in [1usize, 4] {
            for backend in ["ram", "disk"] {
                let spec = spec_for(&src, &tgt, config, threads, backend);
                let (report, polled, generated) = one_shot(&spec);
                let reply = client.explain(&spec).unwrap();
                requests += 1;
                assert_eq!(
                    reply.report, report,
                    "served bytes diverge ({config}, threads {threads}, {backend})"
                );
                assert_eq!(reply.polled, polled);
                assert_eq!(reply.generated, generated);
                // The session key is content + pool config: the first
                // request per backend ingests, everything after reuses.
                assert_eq!(reply.warm, requests > 2, "request {requests} ({backend})");
            }
        }
    }
    let stats = client.stats().unwrap();
    assert_eq!(stats.requests, 8);
    assert_eq!(
        stats.ingests, 2,
        "one ingestion per pool backend, every repeat warm"
    );
    assert_eq!(stats.hits, 6);
    assert_eq!(stats.sessions, 2);

    client.shutdown().unwrap();
    daemon.wait();
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn pin_prewarms_a_session_without_searching() {
    let dir = std::env::temp_dir().join("affidavit-serve-pin");
    std::fs::remove_dir_all(&dir).ok();
    let (src, tgt) = write_pair(&dir);
    let spec = spec_for(&src, &tgt, "id", 1, "ram");
    let mut daemon = serve(&ServeOptions::default()).unwrap();
    let client = ServeClient::new(daemon.local_addr().to_string());

    // A cold pin ingests; no search runs, so no hit is recorded.
    assert!(!client.pin(&spec).unwrap(), "first pin must be cold");
    let stats = client.stats().unwrap();
    assert_eq!((stats.ingests, stats.hits), (1, 0), "pin must not search");
    assert_eq!(stats.sessions, 1);

    // The pre-warmed explain is a guaranteed session hit …
    let reply = client.explain(&spec).unwrap();
    assert!(reply.warm, "explain after pin must reuse the pinned pair");
    let stats = client.stats().unwrap();
    assert_eq!((stats.ingests, stats.hits), (1, 1));

    // … and re-pinning the same pair is free.
    assert!(client.pin(&spec).unwrap(), "repeat pin must be warm");
    assert_eq!(client.stats().unwrap().ingests, 1);

    client.shutdown().unwrap();
    daemon.wait();
    std::fs::remove_dir_all(&dir).ok();
}

/// A client built before `--ingest-chunk-rows` was retired still sends
/// `ingest_chunk_rows` in its spec; the daemon ignores the field and
/// answers with the normal report.
#[test]
fn a_retired_ingest_chunk_rows_field_is_ignored() {
    use affidavit_dist::frame::{read_frame, write_frame, FrameConfig, FrameRead};
    use affidavit_serve::{ClientRequest, ClientResponse};

    let dir = std::env::temp_dir().join("affidavit-serve-retired-field");
    std::fs::remove_dir_all(&dir).ok();
    let (src, tgt) = write_pair(&dir);
    let spec = spec_for(&src, &tgt, "id", 1, "ram");
    let (report, polled, generated) = one_shot(&spec);
    let mut daemon = serve(&ServeOptions::default()).unwrap();

    let request = serde_json::to_string(&ClientRequest::Explain { spec }).unwrap();
    let old_request = request.replacen("\"spec\":{", "\"spec\":{\"ingest_chunk_rows\":16,", 1);
    assert_ne!(old_request, request, "the spec object must be found");
    let cfg = FrameConfig::default();
    let mut stream = std::net::TcpStream::connect(daemon.local_addr()).unwrap();
    write_frame(&mut stream, &old_request, &cfg).unwrap();
    let FrameRead::Frame(text) = read_frame(&mut stream, &cfg).unwrap() else {
        panic!("the daemon must answer the request");
    };
    match serde_json::from_str::<ClientResponse>(&text).unwrap() {
        ClientResponse::Report { reply } => {
            assert_eq!(reply.report, report);
            assert_eq!((reply.polled, reply.generated), (polled, generated));
        }
        other => panic!("expected a report, got {other:?}"),
    }
    drop(stream);

    ServeClient::new(daemon.local_addr().to_string())
        .shutdown()
        .unwrap();
    daemon.wait();
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn the_metrics_op_mirrors_the_session_counters() {
    let dir = std::env::temp_dir().join("affidavit-serve-metrics");
    std::fs::remove_dir_all(&dir).ok();
    let (src, tgt) = write_pair(&dir);
    let spec = spec_for(&src, &tgt, "id", 1, "ram");
    let mut daemon = serve(&ServeOptions::default()).unwrap();
    let client = ServeClient::new(daemon.local_addr().to_string());

    client.explain(&spec).unwrap();
    client.explain(&spec).unwrap();
    let stats = client.stats().unwrap();
    let text = client.metrics().unwrap();

    // Prometheus-style exposition: typed, one sample line per series,
    // and the serve series equal the daemon's own counters exactly.
    assert!(
        text.contains("# TYPE serve_requests_total counter"),
        "{text}"
    );
    for (series, value) in [
        ("serve_requests_total", stats.requests),
        ("serve_ingests_total", stats.ingests),
        ("serve_hits_total", stats.hits),
        ("serve_evictions_total", stats.evictions),
        ("serve_busy_rejections_total", 0),
        ("serve_deadline_expirations_total", 0),
    ] {
        let line = format!("{series} {value}");
        assert!(
            text.lines().any(|l| l == line),
            "expected `{line}` in:\n{text}"
        );
    }
    assert!(text.lines().any(|l| l == "serve_sessions 1"), "{text}");
    // The searches the daemon ran published into the same registry.
    assert!(text.contains("search_polled"), "{text}");

    client.shutdown().unwrap();
    daemon.wait();
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn an_expired_request_deadline_is_a_clean_rejection() {
    use std::time::Duration;

    let dir = std::env::temp_dir().join("affidavit-serve-deadline");
    std::fs::remove_dir_all(&dir).ok();
    let (src, tgt) = write_pair(&dir);
    let spec = spec_for(&src, &tgt, "id", 1, "ram");
    let opts = ServeOptions {
        request_deadline: Some(Duration::ZERO),
        ..ServeOptions::default()
    };
    let mut daemon = serve(&opts).unwrap();
    let client = ServeClient::new(daemon.local_addr().to_string());

    // A zero budget expires before the first search iteration: the
    // request is answered with an error, not a hang or a partial report.
    let err = client.explain(&spec).expect_err("deadline must expire");
    match err {
        affidavit_serve::ClientError::Rejected(message) => {
            assert!(message.contains("deadline"), "{message}");
        }
        other => panic!("expected a rejection, got {other:?}"),
    }
    // The daemon survives, and the deadline only aborted the search:
    // ingestion had already pinned the pair, so a pin (which never
    // searches) is warm and unaffected by the same deadline.
    let stats = daemon.stats();
    assert_eq!(stats.requests, 1);
    assert_eq!(stats.ingests, 1, "the aborted request still ingested");
    assert!(client.pin(&spec).unwrap());

    client.shutdown().unwrap();
    daemon.wait();
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn served_delta_splices_warm_sessions_and_stays_byte_identical() {
    let dir = std::env::temp_dir().join("affidavit-serve-delta");
    std::fs::remove_dir_all(&dir).ok();
    let (src, tgt) = write_pair(&dir);
    let plain = spec_for(&src, &tgt, "id", 1, "ram");
    let delta_spec = ExplainSpec {
        delta: true,
        ..plain.clone()
    };
    let metric = |text: &str, series: &str| -> u64 {
        text.lines()
            .find_map(|l| {
                l.strip_prefix(&format!("{series} "))
                    .and_then(|v| v.parse().ok())
            })
            .unwrap_or(0)
    };

    let (report, polled, generated) = one_shot(&plain);
    let mut daemon = serve(&ServeOptions::default()).unwrap();
    let client = ServeClient::new(daemon.local_addr().to_string());

    // Pre-warm the session, then run the first --delta explain: no
    // manifest yet, so it redoes — but over the pinned pair, and with
    // bytes identical to the one-shot path.
    assert!(!client.pin(&delta_spec).unwrap());
    let cold = client.explain(&delta_spec).unwrap();
    assert_eq!(cold.report, report);
    assert_eq!((cold.polled, cold.generated), (polled, generated));
    assert!(cold.warm, "the pre-warmed session must be reused");

    // The repeat splices from the manifest the redo just wrote: same
    // bytes, and the registry proves blocks were reused, not re-searched.
    let spliced = client.explain(&delta_spec).unwrap();
    assert_eq!(spliced.report, report);
    assert_eq!((spliced.polled, spliced.generated), (polled, generated));
    assert!(spliced.warm);
    let text = client.metrics().unwrap();
    assert!(
        metric(&text, "delta_blocks_reused_total") > 0,
        "the spliced repeat must reuse fingerprinted blocks:\n{text}"
    );
    assert!(metric(&text, "delta_pairs_spliced_total") > 0, "{text}");
    assert_eq!(metric(&text, "delta_fallbacks_total"), 0, "{text}");

    // Edit the target: the delta rerun redoes and must stay
    // byte-identical to a from-scratch one-shot over the edited pair.
    let mut edited = std::fs::read_to_string(&tgt).unwrap();
    edited.push_str("fresh,5,tagz\n");
    std::fs::write(&tgt, edited).unwrap();
    let (report2, polled2, generated2) = one_shot(&plain);
    assert_ne!(report2, report, "the edit must change the explanation");
    let redone = client.explain(&delta_spec).unwrap();
    assert_eq!(redone.report, report2);
    assert_eq!((redone.polled, redone.generated), (polled2, generated2));
    let text = client.metrics().unwrap();
    assert!(metric(&text, "delta_pairs_redone_total") > 0, "{text}");

    client.shutdown().unwrap();
    daemon.wait();
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn concurrent_clients_get_identical_bytes_from_one_warm_session() {
    let dir = std::env::temp_dir().join("affidavit-serve-concurrent");
    std::fs::remove_dir_all(&dir).ok();
    let (src, tgt) = write_pair(&dir);
    let spec = spec_for(&src, &tgt, "id", 1, "ram");
    let (report, _, _) = one_shot(&spec);

    let mut daemon = serve(&ServeOptions::default()).unwrap();
    let addr = daemon.local_addr().to_string();
    // 4 clients × 2 requests each, racing over their own keep-alive
    // connections. Every reply must carry the same bytes.
    std::thread::scope(|scope| {
        for _ in 0..4 {
            let addr = addr.clone();
            let spec = spec.clone();
            let report = report.as_str();
            scope.spawn(move || {
                let client = ServeClient::new(addr);
                for _ in 0..2 {
                    let reply = client.explain(&spec).unwrap();
                    assert_eq!(reply.report, report);
                }
            });
        }
    });
    let client = ServeClient::new(addr);
    let stats = client.stats().unwrap();
    assert_eq!(stats.requests, 8);
    assert_eq!(stats.ingests, 1, "8 racing requests, one ingestion");
    assert_eq!(stats.hits, 7);
    // And a final repeat from a fresh client is still warm.
    assert!(client.explain(&spec).unwrap().warm);
    client.shutdown().unwrap();
    daemon.wait();
    std::fs::remove_dir_all(&dir).ok();
}
