//! Error type for the table substrate.

use std::fmt;

/// Errors produced by the table substrate (CSV parsing, schema mismatches).
///
/// CSV errors carry full positional context — the 1-based physical *line*
/// (counting embedded newlines inside quoted fields), the 1-based data
/// *record* index (header excluded) where applicable, and for quote and
/// UTF-8 errors the 1-based byte *column* of the offending byte — so ingestion
/// failures on multi-gigabyte snapshots are actionable without bisecting
/// the file.
#[derive(Debug)]
pub enum TableError {
    /// Underlying I/O failure.
    Io(std::io::Error),
    /// A CSV record had a different number of fields than the header.
    ArityMismatch {
        /// 1-based physical line the record starts on (quoted fields may
        /// make this differ from `row + 1`).
        line: usize,
        /// 1-based data record index (the header is not counted).
        row: usize,
        /// Number of fields expected (header width).
        expected: usize,
        /// Number of fields found.
        found: usize,
    },
    /// A quoted CSV field was never closed.
    UnterminatedQuote {
        /// 1-based line where the quoted field started.
        line: usize,
        /// 1-based byte column of the opening quote on that line.
        column: usize,
    },
    /// The input was not valid UTF-8.
    InvalidUtf8 {
        /// 1-based line of the first invalid byte.
        line: usize,
        /// 1-based byte column of the first invalid byte on that line.
        column: usize,
    },
    /// The input contained no header row.
    EmptyInput,
    /// Two tables that must share a schema do not.
    SchemaMismatch {
        /// Description of the mismatch.
        detail: String,
    },
}

impl fmt::Display for TableError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TableError::Io(e) => write!(f, "I/O error: {e}"),
            TableError::ArityMismatch {
                line,
                row,
                expected,
                found,
            } => write!(
                f,
                "CSV arity mismatch at record {row} (line {line}): expected {expected} fields, found {found}"
            ),
            TableError::UnterminatedQuote { line, column } => {
                write!(
                    f,
                    "unterminated quoted CSV field starting at line {line}, column {column}"
                )
            }
            TableError::InvalidUtf8 { line, column } => {
                write!(f, "CSV input is not valid UTF-8 at line {line}, column {column}")
            }
            TableError::EmptyInput => write!(f, "CSV input is empty (no header row)"),
            TableError::SchemaMismatch { detail } => write!(f, "schema mismatch: {detail}"),
        }
    }
}

impl std::error::Error for TableError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            TableError::Io(e) => Some(e),
            _ => None,
        }
    }
}

impl From<std::io::Error> for TableError {
    fn from(e: std::io::Error) -> Self {
        TableError::Io(e)
    }
}
