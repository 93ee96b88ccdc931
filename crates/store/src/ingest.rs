//! Streaming snapshot ingestion.
//!
//! One reader: the table crate's byte scanner
//! ([`csv::read`](affidavit_table::csv::read)) streams the file through a
//! fixed window, borrows each field from it and interns straight into the
//! pool — disk-backed or not. Memory is bounded by the window plus the
//! longest record; the `(Table, ValuePool)` is byte-identical to
//! [`csv::read_str`](affidavit_table::csv::read_str) on the same bytes.

use std::io::Read;
use std::path::Path;

use affidavit_table::csv::{self, CsvOptions};
use affidavit_table::{Table, TableError, ValuePool};

/// Options for streaming ingestion.
#[derive(Debug, Clone, Copy)]
pub struct IngestOptions {
    /// CSV dialect.
    pub csv: CsvOptions,
    /// Not read: ingestion is one serial scanner. Kept so callers that
    /// still set it build unchanged.
    pub threads: usize,
}

impl Default for IngestOptions {
    fn default() -> Self {
        IngestOptions {
            csv: CsvOptions::default(),
            threads: 1,
        }
    }
}

/// Stream a CSV table from `reader` into `pool`, metering the records
/// read in `ingest_rows_total`.
pub fn read_stream<R: Read>(
    reader: R,
    pool: &mut ValuePool,
    opts: &IngestOptions,
) -> Result<Table, TableError> {
    let _span = affidavit_obs::span("ingest.stream");
    let table = {
        let _span = affidavit_obs::span("ingest.parse");
        csv::read(reader, pool, opts.csv)?
    };
    affidavit_obs::metrics().add_counter("ingest_rows_total", table.len() as u64);
    Ok(table)
}

/// Stream a CSV file from `path` into `pool` (see [`read_stream`]).
pub fn read_path(
    path: impl AsRef<Path>,
    pool: &mut ValuePool,
    opts: &IngestOptions,
) -> Result<Table, TableError> {
    read_stream(std::fs::File::open(path)?, pool, opts)
}

#[cfg(test)]
mod tests {
    use super::*;

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

    #[test]
    fn matches_the_in_memory_reader() {
        let mut text = String::from("id,amount,unit,note\n");
        for i in 0..300 {
            text.push_str(&format!(
                "k{i},{},USD,\"row {i}, with \"\"quotes\"\"\nand a newline\"\r\n",
                i * 100
            ));
        }
        let mut mem_pool = ValuePool::new();
        let mem = csv::read_str(&text, &mut mem_pool, CsvOptions::default()).unwrap();
        let mut pool = ValuePool::new();
        let table = read_stream(text.as_bytes(), &mut pool, &IngestOptions::default()).unwrap();
        assert_eq!(fingerprint(&table, &pool), fingerprint(&mem, &mem_pool));
    }

    #[test]
    fn arity_error_carries_whole_stream_row() {
        let mut text = String::from("a,b\n");
        for i in 0..10 {
            text.push_str(&format!("x{i},y{i}\n"));
        }
        text.push_str("only-one-field\n");
        let mut pool = ValuePool::new();
        let err = read_stream(text.as_bytes(), &mut pool, &IngestOptions::default()).unwrap_err();
        assert!(
            matches!(
                err,
                TableError::ArityMismatch {
                    line: 12,
                    row: 11,
                    expected: 2,
                    found: 1,
                }
            ),
            "{err:?}"
        );
    }

    #[test]
    fn error_order_is_stream_order() {
        // A short record on line 2 precedes an unterminated quote opening
        // on line 3: the record comes first in the stream.
        let mut p = ValuePool::new();
        let opts = IngestOptions::default();
        let err = read_stream(&b"a,b\nonly-one\nx,\"unterminated"[..], &mut p, &opts).unwrap_err();
        assert!(
            matches!(
                err,
                TableError::ArityMismatch {
                    row: 1,
                    line: 2,
                    ..
                }
            ),
            "{err:?}"
        );
        // With clean records ahead of it, the quote error surfaces with
        // its own position.
        let err = read_stream(&b"a,b\nx,y\nq,\"open"[..], &mut p, &opts).unwrap_err();
        assert!(
            matches!(err, TableError::UnterminatedQuote { line: 3, column: 3 }),
            "{err:?}"
        );
    }

    #[test]
    fn empty_input_is_an_error() {
        let mut pool = ValuePool::new();
        let err = read_stream("".as_bytes(), &mut pool, &IngestOptions::default()).unwrap_err();
        assert!(matches!(err, TableError::EmptyInput));
    }

    #[test]
    fn ingests_into_a_disk_backed_pool() {
        let mut text = String::from("k,v\n");
        for i in 0..500 {
            text.push_str(&format!("key-{i:05},value-{i:05}\n"));
        }
        let mut pool = crate::PoolConfig {
            backend: crate::PoolBackend::Disk,
            budget_bytes: 512,
        }
        .build()
        .unwrap();
        let table = read_stream(text.as_bytes(), &mut pool, &IngestOptions::default()).unwrap();
        assert_eq!(table.len(), 500);
        let stats = pool.store_stats().unwrap();
        assert!(stats.spilled_bytes > 0, "tiny budget must spill");
        // Same contents as a RAM ingest, symbol for symbol.
        let mut ram = ValuePool::new();
        let ram_table = csv::read_str(&text, &mut ram, CsvOptions::default()).unwrap();
        assert_eq!(fingerprint(&table, &pool), fingerprint(&ram_table, &ram));
    }
}
