//! Property-based CSV round-trip: anything we write we must read back
//! verbatim, including separators, quotes, newlines and unicode — through
//! *both* reading entry points (in-memory `read_str` and the streaming
//! ingestion reader), which must agree byte for byte.

use affidavit::store::{ingest, IngestOptions};
use affidavit::table::{csv, Record, Schema, Table, ValuePool};
use proptest::prelude::*;

/// Parse `text` through the in-memory reader and through streaming
/// ingestion; assert identical results.
fn assert_paths_agree(text: &str) -> (Table, ValuePool) {
    let mut mem_pool = ValuePool::new();
    let mem = csv::read_str(text, &mut mem_pool, csv::CsvOptions::default()).unwrap();
    let mut stream_pool = ValuePool::new();
    let stream =
        ingest::read_stream(text.as_bytes(), &mut stream_pool, &IngestOptions::default()).unwrap();
    assert_eq!(stream.len(), mem.len());
    let mem_strings: Vec<&str> = mem_pool.iter().map(|(_, s)| s).collect();
    let stream_strings: Vec<&str> = stream_pool.iter().map(|(_, s)| s).collect();
    assert_eq!(mem_strings, stream_strings, "interning order must match");
    for (id, rec) in mem.iter() {
        assert_eq!(rec.to_vec().as_slice(), stream.record(id).values());
    }
    (mem, mem_pool)
}

#[test]
fn crlf_line_endings_stream_identically() {
    let (t, _) = assert_paths_agree("a,b\r\n1,2\r\n3,4\r\n");
    assert_eq!(t.len(), 2);
}

#[test]
fn quoted_newlines_and_commas_stream_identically() {
    let text = "a,b\n\"line1\nline2\",\"x,y\"\n\"he said \"\"hi\"\"\",\"tail\r\nend\"\n";
    let (t, pool) = assert_paths_agree(text);
    assert_eq!(t.len(), 2);
    assert_eq!(
        pool.get(t.value(affidavit::table::RecordId(0), affidavit::table::AttrId(0))),
        "line1\nline2"
    );
}

#[test]
fn utf8_bom_is_stripped_on_both_paths() {
    let (t, _) = assert_paths_agree("\u{feff}städte,n\n東京,1\n");
    assert_eq!(t.schema().names().next(), Some("städte"));
    assert_eq!(t.len(), 1);
}

#[test]
fn field_longer_than_the_window_streams_identically() {
    // A quoted field larger than the scanner's 64 KiB window, followed by
    // more records: the window must grow to hold it and keep the records
    // after it intact.
    let long = format!("start\n{}\"\"quote,end", "x".repeat(100_000));
    let text = format!("a,b\n\"{long}\",small\nplain,tail\n");
    let (t, pool) = assert_paths_agree(&text);
    assert_eq!(t.len(), 2);
    let got = pool.get(t.value(affidavit::table::RecordId(0), affidavit::table::AttrId(0)));
    assert_eq!(got.len(), long.len() - 1); // the "" escape collapses to "
    assert!(got.starts_with("start\nxxx"));
    assert!(got.ends_with("\"quote,end"));
    assert_eq!(
        pool.get(t.value(affidavit::table::RecordId(1), affidavit::table::AttrId(1))),
        "tail"
    );
}

/// Arbitrary cell content, adversarial for CSV: quotes, commas, newlines.
fn cell() -> impl Strategy<Value = String> {
    prop_oneof![
        "[a-z0-9]{0,8}",
        "[a-z,\"\\n]{0,8}",
        "\".*\"",
        Just(String::new()),
        "[äöü東京a-z]{0,5}",
    ]
}

proptest! {
    #[test]
    fn write_read_roundtrip(
        rows in prop::collection::vec(prop::collection::vec(cell(), 3), 0..20)
    ) {
        let mut pool = ValuePool::new();
        let mut table = Table::new(Schema::new(["col a", "col,b", "col\"c"]));
        for row in &rows {
            let syms: Vec<_> = row.iter().map(|v| pool.intern(v)).collect();
            table.push(Record::new(syms));
        }
        let mut buf = Vec::new();
        csv::write(&mut buf, &table, &pool, csv::CsvOptions::default()).unwrap();
        let text = String::from_utf8(buf).unwrap();

        let mut pool2 = ValuePool::new();
        let table2 = csv::read_str(&text, &mut pool2, csv::CsvOptions::default()).unwrap();
        prop_assert_eq!(table2.len(), table.len());
        let names: Vec<&str> = table2.schema().names().collect();
        prop_assert_eq!(names, vec!["col a", "col,b", "col\"c"]);
        for (id, rec) in table.iter() {
            let rec2 = table2.record(id);
            for (i, sym) in rec.iter().enumerate() {
                prop_assert_eq!(pool.get(sym), pool2.get(rec2.get(i)));
            }
        }
        // And the streaming path agrees with the in-memory path on the
        // same adversarial bytes.
        assert_paths_agree(&text);
    }

    /// Custom separators round-trip too.
    #[test]
    fn semicolon_roundtrip(rows in prop::collection::vec(prop::collection::vec("[a-z;]{0,6}", 2), 0..10)) {
        let opts = csv::CsvOptions { separator: b';' };
        let mut pool = ValuePool::new();
        let mut table = Table::new(Schema::new(["x", "y"]));
        for row in &rows {
            let syms: Vec<_> = row.iter().map(|v| pool.intern(v)).collect();
            table.push(Record::new(syms));
        }
        let mut buf = Vec::new();
        csv::write(&mut buf, &table, &pool, opts).unwrap();
        let mut pool2 = ValuePool::new();
        let table2 = csv::read_str(std::str::from_utf8(&buf).unwrap(), &mut pool2, opts).unwrap();
        prop_assert_eq!(table2.len(), table.len());
    }
}
