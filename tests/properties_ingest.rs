//! Ingestion determinism battery.
//!
//! 1. Streaming ingestion (`affidavit_store::ingest`) must produce a
//!    `(Table, ValuePool)` **byte-identical** to the in-memory reader
//!    (`csv::read_str`) for adversarial inputs across seeds, including
//!    from readers that hand over a few bytes at a time.
//! 2. A full `explain` over the Figure 1 instance and a Table 2 dataset
//!    spec must render an **identical report** under `--pool-backend
//!    disk` (tiny budget, forced spills) and `--pool-backend ram`.
//! 3. A `SegmentPool` under a deliberately tiny budget must actually
//!    spill and still round-trip every string.

use affidavit::core::config::AffidavitConfig;
use affidavit::core::instance::ProblemInstance;
use affidavit::core::report::render_report;
use affidavit::core::search::Affidavit;
use affidavit::datasets::running_example::{ATTRS, SOURCE_ROWS, TARGET_ROWS};
use affidavit::store::{ingest, IngestOptions, PoolBackend, PoolConfig};
use affidavit::table::{csv, Table, ValuePool};

/// Everything that makes the pair: schema, pool contents in interning
/// order, and every record's symbol tuple.
fn fingerprint(table: &Table, pool: &ValuePool) -> String {
    let mut out = String::new();
    for name in table.schema().names() {
        out.push_str(name);
        out.push('\u{1}');
    }
    for (_, s) in pool.iter() {
        out.push_str(s);
        out.push('\u{2}');
    }
    for record in table.rows() {
        for sym in record.iter() {
            out.push_str(&sym.0.to_string());
            out.push(',');
        }
        out.push('\u{3}');
    }
    out
}

/// Adversarial CSV: quoted fields with embedded separators, quotes and
/// newlines, CRLF endings, empty fields, blank lines, unicode, values
/// recurring far apart, and a field far longer than one read.
fn adversarial_csv(seed: u64) -> String {
    let mut text = String::from("id,amount,unit,\"no,te\"\n");
    let mut state = seed | 1;
    let mut next = move || {
        state ^= state << 13;
        state ^= state >> 7;
        state ^= state << 17;
        state
    };
    let units = ["USD", "k $", "h€", "", "東京"];
    for i in 0..(240 + (seed % 37)) {
        let r = next();
        let unit = units[(r % 5) as usize];
        match r % 7 {
            0 => text.push_str(&format!("k{i},{},{unit},plain\r\n", r % 100_000)),
            1 => text.push_str(&format!(
                "k{i},{},\"{unit}\",\"quo\"\"ted, with\nnewline\"\n",
                r % 1_000
            )),
            2 => text.push_str(&format!("k{i},,,\n")),
            3 => {
                // Blank line between records (skipped by the parser).
                text.push('\n');
                text.push_str(&format!("k{i},{},{unit},x\n", r % 10));
            }
            4 => text.push_str(&format!("\"k{i}\",\"{}\",{unit},\"\"\n", r % 500)),
            5 => {
                // A field much longer than one BufRead fill.
                let long = "L".repeat(9000 + (r % 100) as usize);
                text.push_str(&format!("k{i},{},{unit},\"{long}\"\n", r % 500));
            }
            _ => text.push_str(&format!("k{i},{},{unit},shared-value\n", r % 50)),
        }
    }
    text.push_str("last,0,USD,\"no trailing newline\"");
    text
}

/// A reader that hands over at most `step` bytes per call, so record and
/// field boundaries fall at every offset of a refill.
struct Trickle<'a> {
    bytes: &'a [u8],
    step: usize,
}

impl std::io::Read for Trickle<'_> {
    fn read(&mut self, out: &mut [u8]) -> std::io::Result<usize> {
        let n = self.step.min(out.len()).min(self.bytes.len());
        out[..n].copy_from_slice(&self.bytes[..n]);
        self.bytes = &self.bytes[n..];
        Ok(n)
    }
}

#[test]
fn streaming_ingestion_is_byte_identical_to_the_in_memory_reader() {
    for seed in [1u64, 2, 3] {
        let text = adversarial_csv(seed);
        let mut mem_pool = ValuePool::new();
        let mem = csv::read_str(&text, &mut mem_pool, csv::CsvOptions::default()).unwrap();
        let want = fingerprint(&mem, &mem_pool);
        for step in [1usize, 7, 4096, usize::MAX] {
            let reader = Trickle {
                bytes: text.as_bytes(),
                step,
            };
            let mut pool = ValuePool::new();
            let table = ingest::read_stream(reader, &mut pool, &IngestOptions::default()).unwrap();
            assert_eq!(
                fingerprint(&table, &pool),
                want,
                "seed {seed}: {step}-byte reads diverged from the in-memory reader"
            );
        }
    }
}

#[test]
fn serial_streaming_reader_matches_in_memory_parser() {
    // `csv::read` (behind `read_path`) streams through the scanner's
    // window instead of slurping, and must stay byte-identical.
    for seed in [4u64, 5] {
        let text = adversarial_csv(seed);
        let mut mem_pool = ValuePool::new();
        let mem = csv::read_str(&text, &mut mem_pool, csv::CsvOptions::default()).unwrap();
        let mut stream_pool = ValuePool::new();
        let stream = csv::read(
            text.as_bytes(),
            &mut stream_pool,
            csv::CsvOptions::default(),
        )
        .unwrap();
        assert_eq!(
            fingerprint(&mem, &mem_pool),
            fingerprint(&stream, &stream_pool)
        );
    }
}

fn rows_to_csv(header: &[&str], rows: &[&[&str]]) -> String {
    let mut text = header.join(",");
    text.push('\n');
    for row in rows {
        text.push_str(&row.join(","));
        text.push('\n');
    }
    text
}

/// Ingest the pair with the given backend, explain it, and return the
/// rendered report plus search counters.
fn explain_through_backend(source_csv: &str, target_csv: &str, backend: PoolBackend) -> String {
    let pool_cfg = PoolConfig {
        backend,
        // Deliberately tiny: the Figure 1 pool alone exceeds this, so the
        // disk run must spill and page segments back in mid-search.
        budget_bytes: 512,
    };
    let mut pool = pool_cfg.build().unwrap();
    let opts = IngestOptions::default();
    let source = ingest::read_stream(source_csv.as_bytes(), &mut pool, &opts).unwrap();
    let target = ingest::read_stream(target_csv.as_bytes(), &mut pool, &opts).unwrap();
    if backend == PoolBackend::Disk {
        let stats = pool.store_stats().expect("disk backend attached");
        assert!(stats.spilled_bytes > 0, "tiny budget must force spills");
    }
    let mut instance = ProblemInstance::new(source, target, pool).unwrap();
    let out =
        Affidavit::new(AffidavitConfig::paper_id().with_seed(0xEDB7_2020)).explain(&mut instance);
    format!(
        "{}\npolled={} expansions={} cost={}",
        render_report(&out.explanation, &instance),
        out.stats.polled,
        out.stats.expansions,
        out.stats.end_state_cost.to_bits()
    )
}

#[test]
fn disk_and_ram_backends_render_identical_figure1_reports() {
    let source_rows: Vec<&[&str]> = SOURCE_ROWS.iter().map(|r| &r[..]).collect();
    let target_rows: Vec<&[&str]> = TARGET_ROWS.iter().map(|r| &r[..]).collect();
    let s = rows_to_csv(&ATTRS, &source_rows);
    let t = rows_to_csv(&ATTRS, &target_rows);
    let ram = explain_through_backend(&s, &t, PoolBackend::Ram);
    let disk = explain_through_backend(&s, &t, PoolBackend::Disk);
    assert_eq!(ram, disk, "disk backend must not change the explanation");
}

#[test]
fn disk_and_ram_backends_render_identical_table2_reports() {
    use affidavit::datagen::blueprint::{Blueprint, GenConfig};
    use affidavit::datasets::specs::by_name;
    use affidavit::datasets::synth::generate_rows;

    // One Table 2 evaluation spec, synthetically transformed as in §5.1.
    let spec = by_name("balance").expect("table 2 spec exists");
    let (base, pool) = generate_rows(&spec, spec.rows.min(150), 11);
    let generated = Blueprint::new(base, pool, GenConfig::new(0.3, 0.3, 11)).materialize_full();
    let mut s = Vec::new();
    let mut t = Vec::new();
    csv::write(
        &mut s,
        &generated.instance.source,
        &generated.instance.pool,
        csv::CsvOptions::default(),
    )
    .unwrap();
    csv::write(
        &mut t,
        &generated.instance.target,
        &generated.instance.pool,
        csv::CsvOptions::default(),
    )
    .unwrap();
    let s = String::from_utf8(s).unwrap();
    let t = String::from_utf8(t).unwrap();
    let ram = explain_through_backend(&s, &t, PoolBackend::Ram);
    let disk = explain_through_backend(&s, &t, PoolBackend::Disk);
    assert_eq!(ram, disk, "disk backend must not change the explanation");
}

#[test]
fn segment_pool_spills_and_round_trips_under_tiny_budget() {
    use affidavit::store::{SegmentPool, SegmentPoolConfig};
    use affidavit::table::Interner;

    let mut pool = SegmentPool::create(SegmentPoolConfig {
        budget_bytes: 256,
        segment_bytes: 64,
        spill_parent: None,
    })
    .unwrap();
    let values: Vec<String> = (0..300).map(|i| format!("spilled-value-{i:05}")).collect();
    let syms: Vec<_> = values.iter().map(|v| pool.intern(v)).collect();
    assert!(pool.spilled_bytes() > 0, "tiny budget must spill to disk");
    assert!(
        pool.resident_bytes() < 1024,
        "resident bytes ({}) must stay near the budget",
        pool.resident_bytes()
    );
    for (v, &sym) in values.iter().zip(&syms) {
        assert_eq!(pool.get(sym), v);
        assert_eq!(pool.intern(v), sym, "re-interning must be idempotent");
    }
}
