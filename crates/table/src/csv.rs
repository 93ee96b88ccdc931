//! Dependency-free RFC-4180 CSV reader/writer.
//!
//! Supports quoted fields (with escaped quotes `""`), embedded separators
//! and newlines inside quotes, `\r\n` and `\n` line endings, a UTF-8 BOM,
//! and a configurable separator. The first row is the header (schema).
//!
//! Every reading entry point ([`read_str`], [`read`], [`read_path`]) runs
//! one byte scanner. It reads through a fixed window of
//! `WINDOW_BYTES` bytes, carrying a partial record across refills; the
//! window grows only for a record longer than itself, so memory is
//! bounded by the longest record, not by the stream. Fields are borrowed
//! straight from the window and interned from the slice. A field is
//! copied into a reused owned buffer only when its text is not one run of
//! input bytes: a quoted field containing `""`, a bare `\r` outside
//! quotes (the grammar drops it), or text after a closing quote.
//!
//! Errors surface in stream order with whole-stream positions: a record's
//! invalid UTF-8 before its arity, every complete record before an
//! unterminated quote at the end.

use std::io::{Read, Write};
use std::path::Path;

use crate::error::TableError;
use crate::schema::Schema;
use crate::table::Table;
use crate::value::{Sym, ValuePool};

/// CSV parsing options.
#[derive(Debug, Clone, Copy)]
pub struct CsvOptions {
    /// Field separator (default `,`); an ASCII byte other than `"`, `\r`
    /// and `\n`.
    pub separator: u8,
}

impl Default for CsvOptions {
    fn default() -> Self {
        CsvOptions { separator: b',' }
    }
}

/// Bytes the scanner's window holds before a longer record grows it.
const WINDOW_BYTES: usize = 64 * 1024;

/// Where a completed field's text lives: window bytes, or the owned
/// buffer for a field that had to be reassembled. Both are index ranges.
#[derive(Debug, Clone, Copy)]
enum Span {
    Window(usize, usize),
    Owned(usize, usize),
}

/// The content runs of the field being scanned. A field is one run of
/// window bytes unless `""`, a bare `\r` or text after a closing quote
/// splits it; only then are its runs copied into the owned buffer.
#[derive(Default)]
struct FieldRuns {
    /// Start of the run being scanned.
    open: Option<usize>,
    /// The field's first closed run while it is the only one.
    first: Option<(usize, usize)>,
    /// Where the field starts in the owned buffer once it has two runs.
    owned_from: Option<usize>,
}

impl FieldRuns {
    #[inline]
    fn start(&mut self, i: usize) {
        if self.open.is_none() {
            self.open = Some(i);
        }
    }

    /// The grammar's "field is empty": no content byte yet. A quote opens
    /// a quoted section only then.
    #[inline]
    fn is_empty(&self) -> bool {
        self.open.is_none() && self.first.is_none() && self.owned_from.is_none()
    }

    #[inline]
    fn close(&mut self, i: usize, window: &[u8], owned: &mut Vec<u8>) {
        let Some(a) = self.open.take() else { return };
        match (self.first, self.owned_from) {
            (_, Some(_)) => owned.extend_from_slice(&window[a..i]),
            (Some((fa, fb)), None) => {
                self.owned_from = Some(owned.len());
                owned.extend_from_slice(&window[fa..fb]);
                owned.extend_from_slice(&window[a..i]);
            }
            (None, None) => self.first = Some((a, i)),
        }
    }

    #[inline]
    fn finish(&mut self, i: usize, window: &[u8], owned: &mut Vec<u8>) -> Span {
        self.close(i, window, owned);
        let span = match (self.first, self.owned_from) {
            (_, Some(from)) => Span::Owned(from, owned.len()),
            (Some((a, b)), None) => Span::Window(a, b),
            (None, None) => Span::Window(i, i),
        };
        *self = FieldRuns::default();
        span
    }
}

/// One pass of the scanner over the window's unread bytes.
enum Scan {
    /// A record's bytes end at `end`, past its newline if it has one;
    /// `line` is the line after it and `row_line` the line its first byte
    /// sits on.
    Record {
        end: usize,
        line: usize,
        row_line: usize,
    },
    /// The window ends inside a record: refill and scan it again.
    Incomplete,
    /// End of stream with no record left (at most blank lines).
    Exhausted,
    /// End of stream inside a quoted field opened at this position.
    Unterminated { line: usize, column: usize },
}

/// A complete record whose fields borrow the scanner's window and owned
/// buffer.
#[derive(Clone, Copy)]
struct Record<'s> {
    /// 1-based physical line of the record's first byte.
    line: usize,
    /// The record's raw bytes, validated, starting at window index `base`.
    text: &'s str,
    base: usize,
    owned: &'s str,
    spans: &'s [Span],
}

impl<'s> Record<'s> {
    fn len(&self) -> usize {
        self.spans.len()
    }

    fn fields(self) -> impl Iterator<Item = &'s str> {
        self.spans.iter().map(move |span| match *span {
            Span::Window(a, b) => &self.text[a - self.base..b - self.base],
            Span::Owned(a, b) => &self.owned[a..b],
        })
    }
}

/// The byte scanner behind every reader (see the module docs).
struct Scanner<R> {
    reader: R,
    separator: u8,
    /// Bytes that end an unquoted run: the separator, `\r` and `\n`.
    stops: [bool; 256],
    /// Unread bytes are `window[head..tail]`; `window[head]` starts line
    /// `line` at column 1.
    window: Vec<u8>,
    head: usize,
    tail: usize,
    line: usize,
    eof: bool,
    bom_checked: bool,
    spans: Vec<Span>,
    owned: Vec<u8>,
}

impl<R: Read> Scanner<R> {
    fn new(reader: R, opts: CsvOptions, window: usize) -> Scanner<R> {
        let mut stops = [false; 256];
        for b in [opts.separator, b'\r', b'\n'] {
            stops[b as usize] = true;
        }
        Scanner {
            reader,
            separator: opts.separator,
            stops,
            window: vec![0; window.max(1)],
            head: 0,
            tail: 0,
            line: 1,
            eof: false,
            bom_checked: false,
            spans: Vec::new(),
            owned: Vec::new(),
        }
    }

    /// The next record, or `None` at the end of the stream.
    fn next_record(&mut self) -> Result<Option<Record<'_>>, TableError> {
        if !self.bom_checked {
            while self.tail - self.head < 3 && !self.eof {
                self.refill()?;
            }
            if self.window[self.head..self.tail].starts_with(&[0xEF, 0xBB, 0xBF]) {
                self.head += 3;
            }
            self.bom_checked = true;
        }
        let (end, next_line, row_line) = loop {
            match self.scan() {
                Scan::Record {
                    end,
                    line,
                    row_line,
                } => break (end, line, row_line),
                Scan::Incomplete => self.refill()?,
                Scan::Exhausted => return Ok(None),
                Scan::Unterminated { line, column } => {
                    // Invalid bytes inside the unterminated tail come
                    // before the end of the stream, where the quote fails.
                    if let Err(e) = std::str::from_utf8(&self.window[self.head..self.tail]) {
                        return Err(self.invalid_utf8(self.head, self.line, e.valid_up_to()));
                    }
                    return Err(TableError::UnterminatedQuote { line, column });
                }
            }
        };
        let (start, start_line) = (self.head, self.line);
        self.head = end;
        self.line = next_line;
        let this = &*self;
        let text = std::str::from_utf8(&this.window[start..end])
            .map_err(|e| this.invalid_utf8(start, start_line, e.valid_up_to()))?;
        // Owned runs are cut from `text` at ASCII bytes, so they are valid.
        let owned = std::str::from_utf8(&this.owned).expect("runs of a valid record are UTF-8");
        Ok(Some(Record {
            line: row_line,
            text,
            base: start,
            owned,
            spans: &this.spans,
        }))
    }

    /// Scan one record from `head`, committing blank lines as it passes
    /// them so the window never holds them again.
    fn scan(&mut self) -> Scan {
        let Scanner {
            separator,
            stops,
            window,
            head,
            tail,
            line: head_line,
            eof,
            spans,
            owned,
            ..
        } = self;
        spans.clear();
        owned.clear();
        let buf = &window[..*tail];
        let end = buf.len();
        let mut i = *head;
        let mut line = *head_line;
        let mut line_start = i;
        let mut row_line = line;
        let mut row_started = false;
        let mut in_quotes = false;
        let (mut quote_line, mut quote_col) = (line, 1);
        let mut field = FieldRuns::default();
        while i < end {
            let b = buf[i];
            if in_quotes {
                match b {
                    b'"' => {
                        if i + 1 == end && !*eof {
                            // `""` or a closing quote: the next byte decides.
                            return Scan::Incomplete;
                        }
                        if buf.get(i + 1) == Some(&b'"') {
                            field.start(i);
                            field.close(i + 1, buf, owned);
                            i += 2;
                        } else {
                            field.close(i, buf, owned);
                            in_quotes = false;
                            i += 1;
                        }
                    }
                    b'\n' => {
                        field.start(i);
                        line += 1;
                        i += 1;
                        line_start = i;
                    }
                    _ => {
                        field.start(i);
                        i += 1;
                        while i < end && buf[i] != b'"' && buf[i] != b'\n' {
                            i += 1;
                        }
                    }
                }
                continue;
            }
            match b {
                b'"' if field.is_empty() => {
                    in_quotes = true;
                    (quote_line, quote_col) = (line, i - line_start + 1);
                    if !row_started {
                        (row_started, row_line) = (true, line);
                    }
                    i += 1;
                }
                b'\r' => {
                    field.close(i, buf, owned);
                    i += 1;
                }
                b'\n' => {
                    if row_started {
                        spans.push(field.finish(i, buf, owned));
                        return Scan::Record {
                            end: i + 1,
                            line: line + 1,
                            row_line,
                        };
                    }
                    line += 1;
                    i += 1;
                    line_start = i;
                    (*head, *head_line) = (i, line);
                }
                _ if b == *separator => {
                    spans.push(field.finish(i, buf, owned));
                    if !row_started {
                        (row_started, row_line) = (true, line);
                    }
                    i += 1;
                }
                _ => {
                    field.start(i);
                    if !row_started {
                        (row_started, row_line) = (true, line);
                    }
                    i += 1;
                    while i < end && !stops[buf[i] as usize] {
                        i += 1;
                    }
                }
            }
        }
        if !*eof {
            return Scan::Incomplete;
        }
        if in_quotes {
            return Scan::Unterminated {
                line: quote_line,
                column: quote_col,
            };
        }
        if !row_started {
            return Scan::Exhausted;
        }
        spans.push(field.finish(end, buf, owned));
        Scan::Record {
            end,
            line,
            row_line,
        }
    }

    /// Keep the unread bytes, moved to the window's front, and read until
    /// the window is full or the stream ends. A window the partial record
    /// already fills doubles first.
    fn refill(&mut self) -> Result<(), TableError> {
        self.window.copy_within(self.head..self.tail, 0);
        self.tail -= self.head;
        self.head = 0;
        if self.tail == self.window.len() {
            self.window.resize(self.window.len() * 2, 0);
        }
        while self.tail < self.window.len() {
            match self.reader.read(&mut self.window[self.tail..]) {
                Ok(0) => {
                    self.eof = true;
                    break;
                }
                Ok(n) => self.tail += n,
                Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
                Err(e) => return Err(e.into()),
            }
        }
        Ok(())
    }

    /// The error for the first invalid byte, `offset` bytes past window
    /// index `start`, which begins line `start_line`.
    fn invalid_utf8(&self, start: usize, start_line: usize, offset: usize) -> TableError {
        let before = &self.window[start..start + offset];
        let newlines = before.iter().filter(|&&b| b == b'\n').count();
        let column = match before.iter().rposition(|&b| b == b'\n') {
            Some(nl) => offset - nl,
            None => offset + 1,
        };
        TableError::InvalidUtf8 {
            line: start_line + newlines,
            column,
        }
    }
}

/// Parse raw CSV text into rows of fields (header included). A leading
/// UTF-8 BOM is stripped.
pub fn parse_rows(input: &str, opts: CsvOptions) -> Result<Vec<Vec<String>>, TableError> {
    let mut scanner = Scanner::new(input.as_bytes(), opts, WINDOW_BYTES);
    let mut rows = Vec::new();
    while let Some(record) = scanner.next_record()? {
        rows.push(record.fields().map(str::to_owned).collect());
    }
    Ok(rows)
}

/// Build a table from the scanner's records: the first is the header,
/// every later one must match its width. Interning is row-major, so
/// symbols number in first-appearance order.
fn read_records<R: Read>(
    mut scanner: Scanner<R>,
    pool: &mut ValuePool,
) -> Result<Table, TableError> {
    let Some(header) = scanner.next_record()? else {
        return Err(TableError::EmptyInput);
    };
    let mut table = Table::new(Schema::new(header.fields()));
    let arity = table.schema().arity();
    let mut syms: Vec<Sym> = Vec::with_capacity(arity);
    let mut row = 0usize;
    while let Some(record) = scanner.next_record()? {
        row += 1;
        if record.len() != arity {
            return Err(TableError::ArityMismatch {
                line: record.line,
                row,
                expected: arity,
                found: record.len(),
            });
        }
        syms.clear();
        syms.extend(record.fields().map(|field| pool.intern(field)));
        table.push_row(&syms);
    }
    Ok(table)
}

/// Read a table from CSV text. The first row is the header. A leading
/// UTF-8 BOM is stripped.
pub fn read_str(input: &str, pool: &mut ValuePool, opts: CsvOptions) -> Result<Table, TableError> {
    read(input.as_bytes(), pool, opts)
}

/// Read a table from any reader, streaming through the scanner's window
/// in bounded memory. The result is byte-identical to [`read_str`] on the
/// same bytes.
pub fn read<R: Read>(
    reader: R,
    pool: &mut ValuePool,
    opts: CsvOptions,
) -> Result<Table, TableError> {
    read_records(Scanner::new(reader, opts, WINDOW_BYTES), pool)
}

/// Read a table from a file path, streaming in bounded memory.
pub fn read_path(
    path: impl AsRef<Path>,
    pool: &mut ValuePool,
    opts: CsvOptions,
) -> Result<Table, TableError> {
    read(std::fs::File::open(path)?, pool, opts)
}

/// [`read`] through a window of `window` bytes, so tests can put the
/// window's edge anywhere.
#[cfg(test)]
fn read_windowed(
    bytes: &[u8],
    pool: &mut ValuePool,
    opts: CsvOptions,
    window: usize,
) -> Result<Table, TableError> {
    read_records(Scanner::new(bytes, opts, window), pool)
}

/// Write a table as CSV.
pub fn write<W: Write>(
    w: W,
    table: &Table,
    pool: &ValuePool,
    opts: CsvOptions,
) -> Result<(), TableError> {
    let mut w = std::io::BufWriter::new(w);
    let sep = [opts.separator];
    let names: Vec<&str> = table.schema().names().collect();
    for (i, name) in names.iter().enumerate() {
        if i > 0 {
            w.write_all(&sep)?;
        }
        write_escaped(&mut w, name, opts.separator)?;
    }
    w.write_all(b"\n")?;
    for record in table.rows() {
        for (i, sym) in record.iter().enumerate() {
            if i > 0 {
                w.write_all(&sep)?;
            }
            write_escaped(&mut w, pool.get(sym), opts.separator)?;
        }
        w.write_all(b"\n")?;
    }
    w.flush()?;
    Ok(())
}

fn write_escaped<W: Write>(w: &mut W, field: &str, sep: u8) -> std::io::Result<()> {
    let needs_quoting = field
        .bytes()
        .any(|b| b == sep || b == b'"' || b == b'\n' || b == b'\r');
    if !needs_quoting {
        return w.write_all(field.as_bytes());
    }
    w.write_all(b"\"")?;
    let mut rest = field;
    while let Some(pos) = rest.find('"') {
        w.write_all(&rest.as_bytes()[..pos])?;
        w.write_all(b"\"\"")?;
        rest = &rest[pos + 1..];
    }
    w.write_all(rest.as_bytes())?;
    w.write_all(b"\"")
}

/// Write a table to a file path.
pub fn write_path(
    path: impl AsRef<Path>,
    table: &Table,
    pool: &ValuePool,
    opts: CsvOptions,
) -> Result<(), TableError> {
    write(std::fs::File::create(path)?, table, pool, opts)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::record::RecordId;
    use crate::schema::AttrId;

    fn opts() -> CsvOptions {
        CsvOptions::default()
    }

    #[test]
    fn simple_parse() {
        let t = "a,b\n1,2\n3,4\n";
        let rows = parse_rows(t, opts()).unwrap();
        assert_eq!(rows, vec![vec!["a", "b"], vec!["1", "2"], vec!["3", "4"]]);
    }

    #[test]
    fn quoted_fields() {
        let t = "a,b\n\"x,y\",\"he said \"\"hi\"\"\"\n";
        let rows = parse_rows(t, opts()).unwrap();
        assert_eq!(rows[1], vec!["x,y", "he said \"hi\""]);
    }

    #[test]
    fn embedded_newline() {
        let t = "a\n\"line1\nline2\"\n";
        let rows = parse_rows(t, opts()).unwrap();
        assert_eq!(rows[1], vec!["line1\nline2"]);
    }

    #[test]
    fn crlf_endings() {
        let t = "a,b\r\n1,2\r\n";
        let rows = parse_rows(t, opts()).unwrap();
        assert_eq!(rows.len(), 2);
        assert_eq!(rows[1], vec!["1", "2"]);
    }

    #[test]
    fn missing_trailing_newline() {
        let rows = parse_rows("a\n1", opts()).unwrap();
        assert_eq!(rows, vec![vec!["a"], vec!["1"]]);
    }

    #[test]
    fn empty_fields() {
        let rows = parse_rows("a,b,c\n,,\n", opts()).unwrap();
        assert_eq!(rows[1], vec!["", "", ""]);
    }

    #[test]
    fn unterminated_quote_is_error() {
        assert!(matches!(
            parse_rows("a\n\"oops\n", opts()),
            Err(TableError::UnterminatedQuote { line: 2, column: 1 })
        ));
    }

    #[test]
    fn arity_mismatch_carries_row_and_line() {
        let mut pool = ValuePool::new();
        let err = read_str("a,b\n1,2\n1\n", &mut pool, opts()).unwrap_err();
        assert!(matches!(
            err,
            TableError::ArityMismatch {
                line: 3,
                row: 2,
                expected: 2,
                found: 1,
            }
        ));
    }

    #[test]
    fn arity_mismatch_line_counts_embedded_newlines() {
        // The first data record spans three physical lines; the bad record
        // therefore starts on line 5, not line 3.
        let mut pool = ValuePool::new();
        let err = read_str("a,b\n\"x\ny\nz\",2\n1\n", &mut pool, opts()).unwrap_err();
        assert!(
            matches!(
                err,
                TableError::ArityMismatch {
                    line: 5,
                    row: 2,
                    ..
                }
            ),
            "{err:?}"
        );
    }

    #[test]
    fn bom_is_stripped() {
        let mut pool = ValuePool::new();
        let t = read_str("\u{feff}a,b\n1,2\n", &mut pool, opts()).unwrap();
        assert_eq!(t.schema().name(AttrId(0)), "a");
        let mut pool2 = ValuePool::new();
        let t2 = read("\u{feff}a,b\n1,2\n".as_bytes(), &mut pool2, opts()).unwrap();
        assert_eq!(t2.schema().name(AttrId(0)), "a");
        assert_eq!(t2.len(), 1);
    }

    #[test]
    fn read_into_table() {
        let mut pool = ValuePool::new();
        let t = read_str("Type,Org\nA,IBM\nC,SAP\n", &mut pool, opts()).unwrap();
        assert_eq!(t.len(), 2);
        assert_eq!(t.schema().name(AttrId(1)), "Org");
        assert_eq!(pool.get(t.value(RecordId(1), AttrId(0))), "C");
    }

    #[test]
    fn streaming_read_matches_read_str() {
        let text =
            "a,b\nplain,\"quoted,comma\"\n\"multi\r\nline\",\"q\"\"uote\"\n\n東京,x\nlast,row";
        let mut pool_mem = ValuePool::new();
        let t_mem = read_str(text, &mut pool_mem, opts()).unwrap();
        let mut pool_stream = ValuePool::new();
        let t_stream = read(text.as_bytes(), &mut pool_stream, opts()).unwrap();
        assert_eq!(t_mem.len(), t_stream.len());
        let mem: Vec<&str> = pool_mem.iter().map(|(_, s)| s).collect();
        let stream: Vec<&str> = pool_stream.iter().map(|(_, s)| s).collect();
        assert_eq!(mem, stream, "interning order must match");
        for (id, r) in t_mem.iter() {
            assert_eq!(r.to_vec().as_slice(), t_stream.record(id).values());
        }
    }

    #[test]
    fn write_read_roundtrip() {
        let mut pool = ValuePool::new();
        let t = read_str(
            "a,b\nplain,\"quoted,comma\"\n\"multi\nline\",\"q\"\"uote\"\n",
            &mut pool,
            opts(),
        )
        .unwrap();
        let mut out = Vec::new();
        write(&mut out, &t, &pool, opts()).unwrap();
        let text = String::from_utf8(out).unwrap();
        let mut pool2 = ValuePool::new();
        let t2 = read_str(&text, &mut pool2, opts()).unwrap();
        assert_eq!(t2.len(), t.len());
        for (id, r) in t.iter() {
            let r2 = t2.record(id);
            for (i, sym) in r.iter().enumerate() {
                assert_eq!(pool.get(sym), pool2.get(r2.get(i)));
            }
        }
    }

    #[test]
    fn custom_separator() {
        let mut pool = ValuePool::new();
        let t = read_str("a;b\n1;2\n", &mut pool, CsvOptions { separator: b';' }).unwrap();
        assert_eq!(t.len(), 1);
        assert_eq!(t.schema().arity(), 2);
    }

    #[test]
    fn utf8_content() {
        let mut pool = ValuePool::new();
        let t = read_str("städte\nmünchen\n東京\n", &mut pool, opts()).unwrap();
        assert_eq!(t.len(), 2);
        assert_eq!(pool.get(t.value(RecordId(1), AttrId(0))), "東京");
    }

    #[test]
    fn fields_borrow_unless_they_need_reassembly() {
        let text = "h1,h2,h3,h4\nplain,\"quoted\",\"q\"\"e\",a\rb\n\"x\"tail,,\"\",c\r\n";
        let mut scanner = Scanner::new(text.as_bytes(), opts(), WINDOW_BYTES);
        let _header = scanner.next_record().unwrap().unwrap();
        let record = scanner.next_record().unwrap().unwrap();
        let kinds: Vec<bool> = record
            .spans
            .iter()
            .map(|s| matches!(s, Span::Owned(..)))
            .collect();
        assert_eq!(kinds, [false, false, true, true]);
        let fields: Vec<&str> = record.fields().collect();
        assert_eq!(fields, ["plain", "quoted", "q\"e", "ab"]);
        let record = scanner.next_record().unwrap().unwrap();
        let fields: Vec<&str> = record.fields().collect();
        assert_eq!(fields, ["xtail", "", "", "c"]);
        assert!(matches!(record.spans[0], Span::Owned(..)));
        assert!(scanner.next_record().unwrap().is_none());
    }

    #[test]
    fn records_longer_than_the_window_grow_it() {
        let long = "y".repeat(1000);
        let text = format!("a,b\n\"{long}\n{long}\",z\nq,r\n");
        for window in [1, 2, 3, 7, 64] {
            let mut pool = ValuePool::new();
            let t = read_windowed(text.as_bytes(), &mut pool, opts(), window).unwrap();
            assert_eq!(t.len(), 2);
            assert_eq!(
                pool.get(t.value(RecordId(0), AttrId(0))),
                format!("{long}\n{long}")
            );
            assert_eq!(pool.get(t.value(RecordId(1), AttrId(1))), "r");
        }
    }

    #[test]
    fn invalid_utf8_reports_its_stream_position() {
        // 5,001 records, then a 0xff byte on line 5002, column 4.
        let mut text = b"k,v\n".to_vec();
        for i in 0..5000 {
            text.extend_from_slice(format!("key{i},value{i}\n").as_bytes());
        }
        text.extend_from_slice(b"bad\xff,z\n");
        for window in [1, 7, WINDOW_BYTES] {
            let mut pool = ValuePool::new();
            let err = read_windowed(&text, &mut pool, opts(), window).unwrap_err();
            assert!(
                matches!(
                    err,
                    TableError::InvalidUtf8 {
                        line: 5002,
                        column: 4
                    }
                ),
                "window {window}: {err:?}"
            );
        }
    }

    #[test]
    fn an_earlier_arity_error_wins_over_invalid_utf8() {
        let text = b"a,b\nx,y\nonly\nq,r\nbad\xff,z\n";
        for window in [1, 2, 3, 7, 64, WINDOW_BYTES] {
            let mut pool = ValuePool::new();
            let err = read_windowed(text, &mut pool, opts(), window).unwrap_err();
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
                "window {window}: {err:?}"
            );
        }
    }

    #[test]
    fn invalid_utf8_in_an_unterminated_tail_wins_over_the_quote() {
        let mut pool = ValuePool::new();
        let err = read(&b"a\n\"x\n\xe6y"[..], &mut pool, opts()).unwrap_err();
        assert!(
            matches!(err, TableError::InvalidUtf8 { line: 3, column: 1 }),
            "{err:?}"
        );
    }

    /// Schema, pool contents in interning order and every record's
    /// symbols, or the error's variant and positions.
    fn outcome(result: Result<Table, TableError>, pool: &ValuePool) -> Result<String, String> {
        let table = result.map_err(|e| format!("{e:?}"))?;
        let mut out = format!("{:?}\n", table.schema().names().collect::<Vec<_>>());
        out.push_str(&format!(
            "{:?}\n",
            pool.iter().map(|(_, s)| s).collect::<Vec<_>>()
        ));
        for record in table.rows() {
            out.push_str(&format!(
                "{:?}\n",
                record.iter().map(|s| s.0).collect::<Vec<_>>()
            ));
        }
        Ok(out)
    }

    /// Bytes the scanner must treat specially, plus multi-byte and
    /// invalid UTF-8.
    const TOKENS: [&[u8]; 9] = [
        b"a",
        "é".as_bytes(),
        "東".as_bytes(),
        b",",
        b";",
        b"\"",
        b"\r",
        b"\n",
        b"\xff",
    ];

    proptest::proptest! {
        /// Each case checks a batch of inputs: one input rarely reaches a
        /// given corner of the grammar, and the scanner is cheap to run.
        #[test]
        fn scanner_matches_the_oracle(
            batch in proptest::collection::vec(
                (proptest::collection::vec(0usize..TOKENS.len(), 0..48), 0u8..2, 0u8..4),
                32,
            ),
        ) {
            for (picks, semicolon, keep_invalid) in batch {
                // Invalid bytes stay in a quarter of the inputs; elsewhere
                // they would end almost every read before its grammar shows.
                let bytes: Vec<u8> = picks
                    .iter()
                    .map(|&k| if k == TOKENS.len() - 1 && keep_invalid != 0 { 0 } else { k })
                    .flat_map(|k| TOKENS[k].iter().copied())
                    .collect();
                let opts = CsvOptions { separator: if semicolon == 1 { b';' } else { b',' } };
                let want = oracle::expected(&bytes, opts);
                for window in [1, 2, 3, 7, 64, WINDOW_BYTES] {
                    let mut pool = ValuePool::new();
                    let got = outcome(read_windowed(&bytes, &mut pool, opts, window), &pool);
                    proptest::prop_assert_eq!(
                        &got, &want,
                        "window {} on {:?}", window, String::from_utf8_lossy(&bytes)
                    );
                }
            }
        }
    }

    /// The pre-scanner reader, kept verbatim as the scanner's reference:
    /// `parse_rows_trailing` over a `&str` plus `read_str`'s interning
    /// loop.
    mod oracle {
        use super::outcome;
        use crate::csv::CsvOptions;
        use crate::error::TableError;
        use crate::schema::Schema;
        use crate::table::Table;
        use crate::value::{Sym, ValuePool};

        /// What the scanner must produce for `bytes`. Invalid UTF-8
        /// (the 0xff token) parses as a placeholder byte; the first
        /// invalid byte then fails the read unless an arity error in an
        /// earlier record comes first in the stream.
        pub(super) fn expected(bytes: &[u8], opts: CsvOptions) -> Result<String, String> {
            let first_bad = std::str::from_utf8(bytes).err().map(|e| e.valid_up_to());
            let text: Vec<u8> = bytes
                .iter()
                .map(|&b| if b == 0xff { 1 } else { b })
                .collect();
            let text = String::from_utf8(text).expect("0xff is the only invalid token");
            let mut pool = ValuePool::new();
            let result = read_str(&text, &mut pool, opts);
            let Some(bad) = first_bad else {
                return outcome(result, &pool);
            };
            let (rows, _) = parse_rows_trailing(&text, opts, 1);
            let bad_row = rows
                .iter()
                .position(|r| r.fields.iter().any(|f| f.contains('\u{1}')))
                .unwrap_or(usize::MAX);
            if let Err(TableError::ArityMismatch { row, .. }) = result {
                if row < bad_row {
                    return outcome(result, &pool);
                }
            }
            let before = &bytes[..bad];
            let line = 1 + before.iter().filter(|&&b| b == b'\n').count();
            let column = bad
                - before
                    .iter()
                    .rposition(|&b| b == b'\n')
                    .map_or(0, |nl| nl + 1)
                + 1;
            Err(format!("{:?}", TableError::InvalidUtf8 { line, column }))
        }

        #[derive(Debug, Clone, PartialEq, Eq)]
        struct CsvRow {
            line: usize,
            fields: Vec<String>,
        }

        fn read_str(
            input: &str,
            pool: &mut ValuePool,
            opts: CsvOptions,
        ) -> Result<Table, TableError> {
            let input = input.strip_prefix('\u{feff}').unwrap_or(input);
            let (rows, trailing) = parse_rows_trailing(input, opts, 1);
            let mut rows = rows.into_iter();
            let Some(header) = rows.next() else {
                return Err(trailing.unwrap_or(TableError::EmptyInput));
            };
            let arity = header.fields.len();
            let schema = Schema::new(header.fields);
            let mut table = Table::with_capacity(schema, rows.len());
            let mut syms: Vec<Sym> = Vec::new();
            for (idx, row) in rows.enumerate() {
                if row.fields.len() != arity {
                    return Err(TableError::ArityMismatch {
                        line: row.line,
                        row: idx + 1,
                        expected: arity,
                        found: row.fields.len(),
                    });
                }
                // Interning stays row-major (first-appearance order); the table
                // transposes the row into its columns at this edge.
                syms.clear();
                syms.extend(row.fields.iter().map(|v| pool.intern(v)));
                table.push_row(&syms);
            }
            match trailing {
                Some(err) => Err(err),
                None => Ok(table),
            }
        }

        fn parse_rows_trailing(
            input: &str,
            opts: CsvOptions,
            first_line: usize,
        ) -> (Vec<CsvRow>, Option<TableError>) {
            let bytes = input.as_bytes();
            let mut rows: Vec<CsvRow> = Vec::new();
            let mut fields: Vec<String> = Vec::new();
            let mut field = String::new();
            let mut i = 0usize;
            let mut line = first_line;
            let mut col = 1usize;
            let mut in_quotes = false;
            let mut quote_line = first_line;
            let mut quote_col = 1usize;
            let mut row_started = false;
            let mut row_line = first_line;

            while i < bytes.len() {
                let b = bytes[i];
                if in_quotes {
                    match b {
                        b'"' => {
                            if i + 1 < bytes.len() && bytes[i + 1] == b'"' {
                                field.push('"');
                                i += 2;
                                col += 2;
                            } else {
                                in_quotes = false;
                                i += 1;
                                col += 1;
                            }
                        }
                        b'\n' => {
                            field.push('\n');
                            line += 1;
                            col = 1;
                            i += 1;
                        }
                        _ => {
                            // Copy a full UTF-8 code point.
                            let ch_len = utf8_len(b);
                            field.push_str(&input[i..i + ch_len]);
                            i += ch_len;
                            col += ch_len;
                        }
                    }
                    continue;
                }
                match b {
                    b'"' if field.is_empty() => {
                        in_quotes = true;
                        quote_line = line;
                        quote_col = col;
                        if !row_started {
                            row_started = true;
                            row_line = line;
                        }
                        i += 1;
                        col += 1;
                    }
                    b'\r' => {
                        i += 1; // handled by the following \n (or stripped bare)
                        col += 1;
                    }
                    b'\n' => {
                        line += 1;
                        col = 1;
                        i += 1;
                        if row_started || !field.is_empty() || !fields.is_empty() {
                            fields.push(std::mem::take(&mut field));
                            rows.push(CsvRow {
                                line: row_line,
                                fields: std::mem::take(&mut fields),
                            });
                            row_started = false;
                        }
                    }
                    _ if b == opts.separator => {
                        fields.push(std::mem::take(&mut field));
                        if !row_started {
                            row_started = true;
                            row_line = line;
                        }
                        i += 1;
                        col += 1;
                    }
                    _ => {
                        let ch_len = utf8_len(b);
                        field.push_str(&input[i..i + ch_len]);
                        if !row_started {
                            row_started = true;
                            row_line = line;
                        }
                        i += ch_len;
                        col += ch_len;
                    }
                }
            }
            if in_quotes {
                // The unterminated tail is not a row; report it after the
                // complete rows that precede it.
                return (
                    rows,
                    Some(TableError::UnterminatedQuote {
                        line: quote_line,
                        column: quote_col,
                    }),
                );
            }
            if row_started || !field.is_empty() || !fields.is_empty() {
                fields.push(field);
                rows.push(CsvRow {
                    line: row_line,
                    fields,
                });
            }
            (rows, None)
        }

        #[inline]
        fn utf8_len(first_byte: u8) -> usize {
            match first_byte {
                0x00..=0x7f => 1,
                0xc0..=0xdf => 2,
                0xe0..=0xef => 3,
                _ => 4,
            }
        }
    }
}
