//! Failure injection: malformed inputs must produce precise errors, never
//! panics or silent corruption.

use affidavit::core::ProblemInstance;
use affidavit::table::{csv, Schema, Table, TableError, ValuePool};

#[test]
fn csv_arity_mismatch_reports_line() {
    let mut pool = ValuePool::new();
    let err =
        csv::read_str("a,b\n1,2\n3\n4,5\n", &mut pool, csv::CsvOptions::default()).unwrap_err();
    match err {
        TableError::ArityMismatch {
            line,
            row,
            expected,
            found,
        } => {
            assert_eq!((line, row, expected, found), (3, 2, 2, 1));
        }
        other => panic!("wrong error: {other}"),
    }
}

#[test]
fn csv_unterminated_quote_reports_start_line() {
    let mut pool = ValuePool::new();
    let err =
        csv::read_str("a\nok\n\"broken\n", &mut pool, csv::CsvOptions::default()).unwrap_err();
    assert!(matches!(
        err,
        TableError::UnterminatedQuote { line: 3, column: 1 }
    ));
}

#[test]
fn csv_empty_input_is_an_error() {
    let mut pool = ValuePool::new();
    assert!(matches!(
        csv::read_str("", &mut pool, csv::CsvOptions::default()),
        Err(TableError::EmptyInput)
    ));
}

#[test]
fn csv_missing_file_is_io_error() {
    let mut pool = ValuePool::new();
    let err = csv::read_path(
        "/definitely/not/here.csv",
        &mut pool,
        csv::CsvOptions::default(),
    )
    .unwrap_err();
    assert!(matches!(err, TableError::Io(_)));
    assert!(err.to_string().contains("I/O error"));
}

/// Write `bytes` to a fresh file and stream it through store ingestion.
fn ingest_file(name: &str, bytes: &[u8]) -> Result<Table, TableError> {
    use affidavit::store::{ingest, IngestOptions};
    let path = std::env::temp_dir().join(format!("affidavit-{name}-{}.csv", std::process::id()));
    std::fs::write(&path, bytes).unwrap();
    let mut pool = ValuePool::new();
    let result = ingest::read_path(&path, &mut pool, &IngestOptions::default());
    std::fs::remove_file(&path).ok();
    result
}

#[test]
fn csv_invalid_utf8_reports_its_whole_stream_position() {
    // 5,001 records, then 0xff on line 5002: the position counts from the
    // start of the file, whatever the reader's window holds.
    let mut bytes = b"k,v\n".to_vec();
    for i in 0..5000 {
        bytes.extend_from_slice(format!("key{i},value{i}\n").as_bytes());
    }
    bytes.extend_from_slice(b"bad\xff,z\n");
    let err = ingest_file("invalid-utf8", &bytes).unwrap_err();
    assert!(
        matches!(
            err,
            TableError::InvalidUtf8 {
                line: 5002,
                column: 4
            }
        ),
        "{err:?}"
    );
    assert!(err.to_string().contains("line 5002, column 4"), "{err}");
}

#[test]
fn csv_arity_error_before_invalid_utf8_wins() {
    let err = ingest_file("arity-before-utf8", b"a,b\nx,y\nonly\nq,r\nbad\xff,z\n").unwrap_err();
    assert!(
        matches!(
            err,
            TableError::ArityMismatch {
                line: 3,
                row: 2,
                expected: 2,
                found: 1
            }
        ),
        "{err:?}"
    );
}

#[test]
fn schema_mismatch_names_both_schemas() {
    let mut pool = ValuePool::new();
    let s = Table::from_rows(Schema::new(["a", "b"]), &mut pool, vec![vec!["1", "2"]]);
    let t = Table::from_rows(Schema::new(["a", "c"]), &mut pool, vec![vec!["1", "2"]]);
    let err = ProblemInstance::new(s, t, pool).unwrap_err();
    let msg = err.to_string();
    assert!(msg.contains("\"b\"") && msg.contains("\"c\""), "{msg}");
}

#[test]
fn zero_attribute_instance_does_not_crash() {
    // Degenerate but legal: a schema with no attributes. All records are
    // empty tuples, so the core is the multiset minimum of the sizes.
    let mut pool = ValuePool::new();
    let mut s = Table::new(Schema::new(Vec::<String>::new()));
    let mut t = Table::new(Schema::new(Vec::<String>::new()));
    for _ in 0..3 {
        s.push(affidavit::table::Record::new(vec![]));
    }
    for _ in 0..2 {
        t.push(affidavit::table::Record::new(vec![]));
    }
    let _ = pool.intern("unused");
    let mut inst = ProblemInstance::new(s, t, pool).unwrap();
    let out = affidavit::core::Affidavit::new(affidavit::core::AffidavitConfig::paper_id())
        .explain(&mut inst);
    out.explanation.validate(&mut inst).unwrap();
    assert_eq!(out.explanation.core_size(), 2);
    assert_eq!(out.explanation.deleted.len(), 1);
}

#[test]
fn single_record_tables_work() {
    let mut pool = ValuePool::new();
    let s = Table::from_rows(Schema::new(["a"]), &mut pool, vec![vec!["5000"]]);
    let t = Table::from_rows(Schema::new(["a"]), &mut pool, vec![vec!["5"]]);
    let mut inst = ProblemInstance::new(s, t, pool).unwrap();
    let out = affidavit::core::Affidavit::new(affidavit::core::AffidavitConfig::paper_id())
        .explain(&mut inst);
    out.explanation.validate(&mut inst).unwrap();
}

#[test]
fn unicode_values_flow_through_the_whole_pipeline() {
    let mut pool = ValuePool::new();
    let rows_s: Vec<Vec<String>> = (0..30)
        .map(|i| vec![format!("k{i}"), format!("münchen-{}", i % 5)])
        .collect();
    let rows_t: Vec<Vec<String>> = (0..30)
        .map(|i| vec![format!("k{i}"), format!("MÜNCHEN-{}", i % 5)])
        .collect();
    let s = Table::from_rows(Schema::new(["k", "city"]), &mut pool, rows_s);
    let t = Table::from_rows(Schema::new(["k", "city"]), &mut pool, rows_t);
    let mut inst = ProblemInstance::new(s, t, pool).unwrap();
    let out = affidavit::core::Affidavit::new(affidavit::core::AffidavitConfig::paper_id())
        .explain(&mut inst);
    out.explanation.validate(&mut inst).unwrap();
    assert_eq!(
        out.explanation.functions[1],
        affidavit::functions::AttrFunction::Uppercase
    );
    assert_eq!(out.explanation.core_size(), 30);
}
