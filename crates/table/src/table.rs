//! Table snapshots: a schema plus a bag of records, stored column-major.
//!
//! Tables are *multisets* — snapshots may legitimately contain duplicate
//! rows, and the explanation semantics (Prop. 3.6) are defined over
//! multiset matching (see DESIGN.md §5.4).
//!
//! # Layout
//!
//! The table core is columnar: one contiguous `Vec<Sym>` per attribute,
//! wrapped in a shared [`Column`] handle. The hot loops of the search
//! (function application over the β-batch, blocking refinement,
//! per-attribute statistics) scan [`Table::column`] slices — linear loads
//! over fixed-width `u32`s — instead of pointer-chasing row allocations.
//! Rows are *views*: [`RecordRef`] projects one row out of the columns
//! without materializing it, and [`Table::record`] materializes an owned
//! [`Record`] for the callers that need one. Builders ([`Table::from_rows`],
//! [`Table::push`], CSV/wire decode) transpose at the edge, so everything
//! above the table layer — explanation semantics, reports, the wire
//! format — is untouched by the storage orientation.
//!
//! Columns are reference-counted, so [`Table::project`], [`Table::clone`]
//! and column-preserving rebuilds are O(attrs) handle copies; mutation
//! goes through copy-on-write ([`Table::push`] et al.).

use std::sync::Arc;

use crate::record::{Record, RecordId};
use crate::schema::{AttrId, Schema};
use crate::value::{Sym, ValuePool};

/// A shared handle to one attribute's contiguous value column.
///
/// Dereferences to `&[Sym]`. Cloning a `Column` is O(1) (reference count);
/// the underlying buffer is copy-on-write under table mutation.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Column(Arc<Vec<Sym>>);

impl Column {
    fn with_capacity(n: usize) -> Column {
        Column(Arc::new(Vec::with_capacity(n)))
    }

    /// The column as a contiguous slice, one `Sym` per record.
    #[inline]
    pub fn as_slice(&self) -> &[Sym] {
        &self.0
    }

    /// Append access for builders; copy-on-write when the buffer is shared.
    #[inline]
    fn make_mut(&mut self) -> &mut Vec<Sym> {
        Arc::make_mut(&mut self.0)
    }
}

impl std::ops::Deref for Column {
    type Target = [Sym];
    #[inline]
    fn deref(&self) -> &[Sym] {
        self.as_slice()
    }
}

impl From<Vec<Sym>> for Column {
    fn from(v: Vec<Sym>) -> Column {
        Column(Arc::new(v))
    }
}

/// A zero-copy view of all columns of a table.
#[derive(Debug, Clone, Copy)]
pub struct ColumnsView<'a> {
    columns: &'a [Column],
    rows: usize,
}

impl<'a> ColumnsView<'a> {
    /// Number of attributes.
    pub fn arity(&self) -> usize {
        self.columns.len()
    }

    /// Number of records.
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// The column of attribute `attr` as a contiguous slice.
    #[inline]
    pub fn get(&self, attr: AttrId) -> &'a [Sym] {
        &self.columns[attr.index()]
    }

    /// Iterate the column slices in schema order.
    pub fn iter(&self) -> impl Iterator<Item = &'a [Sym]> + use<'a> {
        self.columns.iter().map(|c| c.as_slice())
    }
}

/// A zero-copy view of one row of a columnar table.
///
/// `RecordRef` is the row-compatibility shim over the column store: it
/// offers the same projections as [`Record`] (`get`, `arity`, iteration)
/// without materializing the tuple. Use [`RecordRef::to_record`] /
/// [`RecordRef::to_vec`] at the edges that need an owned row.
#[derive(Debug, Clone, Copy)]
pub struct RecordRef<'a> {
    columns: &'a [Column],
    row: usize,
}

impl<'a> RecordRef<'a> {
    /// The value of attribute `i` (projection `Π_{a_i}`).
    #[inline]
    pub fn get(&self, i: usize) -> Sym {
        self.columns[i].as_slice()[self.row]
    }

    /// Arity of the tuple.
    pub fn arity(&self) -> usize {
        self.columns.len()
    }

    /// Iterate the row's values in schema order.
    pub fn iter(&self) -> impl Iterator<Item = Sym> + use<'a> {
        let row = self.row;
        self.columns.iter().map(move |c| c.as_slice()[row])
    }

    /// The row's values in schema order, materialized.
    pub fn to_vec(&self) -> Vec<Sym> {
        self.iter().collect()
    }

    /// Materialize an owned [`Record`].
    pub fn to_record(&self) -> Record {
        Record::new(self.to_vec())
    }
}

impl PartialEq for RecordRef<'_> {
    fn eq(&self, other: &RecordRef<'_>) -> bool {
        self.arity() == other.arity() && self.iter().eq(other.iter())
    }
}

impl Eq for RecordRef<'_> {}

impl PartialEq<Record> for RecordRef<'_> {
    fn eq(&self, other: &Record) -> bool {
        self.arity() == other.arity() && self.iter().eq(other.values().iter().copied())
    }
}

impl PartialEq<RecordRef<'_>> for Record {
    fn eq(&self, other: &RecordRef<'_>) -> bool {
        other == self
    }
}

/// A table snapshot with a column-major core.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Table {
    schema: Schema,
    columns: Vec<Column>,
    rows: usize,
}

impl Table {
    /// An empty table under `schema`.
    pub fn new(schema: Schema) -> Table {
        let columns = (0..schema.arity()).map(|_| Column::default()).collect();
        Table {
            schema,
            columns,
            rows: 0,
        }
    }

    /// An empty table with capacity for `n` records.
    pub fn with_capacity(schema: Schema, n: usize) -> Table {
        let columns = (0..schema.arity())
            .map(|_| Column::with_capacity(n))
            .collect();
        Table {
            schema,
            columns,
            rows: 0,
        }
    }

    /// Build a table by interning rows of string values into `pool`.
    ///
    /// Values are interned in row-major order (left to right, top to
    /// bottom) — the first-appearance numbering every other builder
    /// produces — and transposed into columns at this edge.
    ///
    /// Panics if a row's arity does not match the schema (programmer error;
    /// the CSV reader reports arity errors as [`crate::TableError`] instead).
    pub fn from_rows<S: AsRef<str>>(
        schema: Schema,
        pool: &mut ValuePool,
        rows: impl IntoIterator<Item = Vec<S>>,
    ) -> Table {
        let mut t = Table::new(schema);
        let mut syms: Vec<Sym> = Vec::new();
        for row in rows {
            assert_eq!(
                row.len(),
                t.schema.arity(),
                "row arity must match schema arity"
            );
            syms.clear();
            syms.extend(row.iter().map(|v| pool.intern(v.as_ref())));
            t.push_row(&syms);
        }
        t
    }

    /// Build a table directly from per-attribute columns.
    ///
    /// Panics if the column count does not match the schema arity or the
    /// columns have unequal lengths (programmer error).
    pub fn from_columns(schema: Schema, columns: Vec<Vec<Sym>>) -> Table {
        assert_eq!(
            columns.len(),
            schema.arity(),
            "column count must match schema arity"
        );
        let rows = columns.first().map_or(0, Vec::len);
        assert!(
            columns.iter().all(|c| c.len() == rows),
            "columns must have equal lengths"
        );
        Table {
            schema,
            columns: columns.into_iter().map(Column::from).collect(),
            rows,
        }
    }

    /// The table's schema.
    pub fn schema(&self) -> &Schema {
        &self.schema
    }

    /// Number of records.
    pub fn len(&self) -> usize {
        self.rows
    }

    /// True if the table has no records.
    pub fn is_empty(&self) -> bool {
        self.rows == 0
    }

    /// The column of attribute `attr` as a contiguous `Sym` slice.
    #[inline]
    pub fn column(&self, attr: AttrId) -> &[Sym] {
        &self.columns[attr.index()]
    }

    /// A zero-copy view of all columns.
    pub fn columns(&self) -> ColumnsView<'_> {
        ColumnsView {
            columns: &self.columns,
            rows: self.rows,
        }
    }

    /// A zero-copy view of the row at `id`.
    #[inline]
    pub fn row(&self, id: RecordId) -> RecordRef<'_> {
        debug_assert!(id.index() < self.rows);
        RecordRef {
            columns: &self.columns,
            row: id.index(),
        }
    }

    /// The record at `id`, materialized as an owned tuple.
    ///
    /// Prefer [`Table::row`] (zero-copy) or [`Table::column`] (whole
    /// attribute) on hot paths.
    #[inline]
    pub fn record(&self, id: RecordId) -> Record {
        self.row(id).to_record()
    }

    /// Iterate zero-copy row views in record order.
    pub fn rows(&self) -> impl Iterator<Item = RecordRef<'_>> {
        (0..self.rows).map(|row| RecordRef {
            columns: &self.columns,
            row,
        })
    }

    /// Iterate `(RecordId, RecordRef)`.
    pub fn iter(&self) -> impl Iterator<Item = (RecordId, RecordRef<'_>)> {
        (0..self.rows).map(|row| {
            (
                RecordId(row as u32),
                RecordRef {
                    columns: &self.columns,
                    row,
                },
            )
        })
    }

    /// All record ids.
    pub fn record_ids(&self) -> impl Iterator<Item = RecordId> {
        (0..self.rows as u32).map(RecordId)
    }

    /// Append a record.
    ///
    /// Panics on arity mismatch (programmer error).
    pub fn push(&mut self, record: Record) -> RecordId {
        self.push_row(record.values())
    }

    /// Append one row of already-interned values.
    ///
    /// Panics on arity mismatch (programmer error).
    pub fn push_row(&mut self, values: &[Sym]) -> RecordId {
        assert_eq!(values.len(), self.schema.arity());
        for (col, &v) in self.columns.iter_mut().zip(values) {
            col.make_mut().push(v);
        }
        let id = RecordId(self.rows as u32);
        self.rows += 1;
        id
    }

    /// The value of attribute `attr` in record `id`.
    #[inline]
    pub fn value(&self, id: RecordId, attr: AttrId) -> Sym {
        self.columns[attr.index()].as_slice()[id.index()]
    }

    /// A new table keeping only the attributes in `keep` (same record
    /// order). Used by the §5.1 protocol to drop over-distinct or empty
    /// columns.
    ///
    /// O(attrs): kept columns are shared by handle, not copied.
    pub fn project(&self, keep: &[AttrId]) -> Table {
        let schema = self.schema.project(keep);
        let columns = keep
            .iter()
            .map(|a| self.columns[a.index()].clone())
            .collect();
        Table {
            schema,
            columns,
            rows: self.rows,
        }
    }

    /// The same columns under a different (equal-arity) schema. O(attrs):
    /// column storage is shared with `self`.
    ///
    /// Panics if the arity differs (programmer error).
    pub fn renamed(&self, schema: Schema) -> Table {
        assert_eq!(schema.arity(), self.schema.arity());
        Table {
            schema,
            columns: self.columns.clone(),
            rows: self.rows,
        }
    }

    /// A new table containing the records at `ids` (in the given order).
    pub fn select(&self, ids: &[RecordId]) -> Table {
        let columns = self
            .columns
            .iter()
            .map(|col| {
                let src = col.as_slice();
                Column::from(ids.iter().map(|id| src[id.index()]).collect::<Vec<_>>())
            })
            .collect();
        Table {
            schema: self.schema.clone(),
            columns,
            rows: ids.len(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> (Table, ValuePool) {
        let mut pool = ValuePool::new();
        let t = Table::from_rows(
            Schema::new(["Type", "Org"]),
            &mut pool,
            vec![vec!["A", "IBM"], vec!["C", "SAP"], vec!["A", "IBM"]],
        );
        (t, pool)
    }

    #[test]
    fn build_and_access() {
        let (t, pool) = sample();
        assert_eq!(t.len(), 3);
        let v = t.value(RecordId(1), AttrId(1));
        assert_eq!(pool.get(v), "SAP");
    }

    #[test]
    fn duplicates_are_kept() {
        let (t, _) = sample();
        assert_eq!(t.record(RecordId(0)), t.record(RecordId(2)));
        assert_eq!(t.len(), 3);
    }

    #[test]
    fn columns_are_contiguous_per_attribute() {
        let (t, pool) = sample();
        let col: Vec<&str> = t.column(AttrId(0)).iter().map(|&s| pool.get(s)).collect();
        assert_eq!(col, ["A", "C", "A"]);
        let view = t.columns();
        assert_eq!(view.arity(), 2);
        assert_eq!(view.rows(), 3);
        assert_eq!(view.get(AttrId(0)), t.column(AttrId(0)));
        assert_eq!(view.iter().count(), 2);
    }

    #[test]
    fn row_views_match_materialized_records() {
        let (t, _) = sample();
        for (id, row) in t.iter() {
            assert_eq!(row, t.record(id));
            assert_eq!(row.to_vec().as_slice(), t.record(id).values());
            assert_eq!(row.arity(), 2);
        }
        assert_eq!(t.rows().count(), 3);
        assert_eq!(t.row(RecordId(0)), t.row(RecordId(2)));
        assert_ne!(t.row(RecordId(0)), t.row(RecordId(1)));
    }

    #[test]
    fn from_columns_matches_row_build() {
        let (t, _) = sample();
        let cols: Vec<Vec<Sym>> = t.columns().iter().map(<[Sym]>::to_vec).collect();
        let u = Table::from_columns(t.schema().clone(), cols);
        assert_eq!(t, u);
    }

    #[test]
    fn project_and_select() {
        let (t, pool) = sample();
        let p = t.project(&[AttrId(1)]);
        assert_eq!(p.schema().arity(), 1);
        assert_eq!(pool.get(p.value(RecordId(0), AttrId(0))), "IBM");
        // Projection shares column storage with the source table.
        assert_eq!(p.column(AttrId(0)).as_ptr(), t.column(AttrId(1)).as_ptr());
        let s = t.select(&[RecordId(2), RecordId(0)]);
        assert_eq!(s.len(), 2);
        assert_eq!(s.record(RecordId(0)), t.record(RecordId(2)));
    }

    #[test]
    fn push_after_project_copies_on_write() {
        let (t, _) = sample();
        let mut p = t.project(&[AttrId(0)]);
        p.push(Record::new(vec![Sym(7)]));
        assert_eq!(p.len(), 4);
        // The source table's shared column is untouched.
        assert_eq!(t.len(), 3);
        assert_eq!(t.column(AttrId(0)).len(), 3);
    }

    #[test]
    #[should_panic]
    fn arity_mismatch_panics() {
        let mut t = Table::new(Schema::new(["a", "b"]));
        t.push(Record::new(vec![Sym(0)]));
    }

    #[test]
    #[should_panic]
    fn from_columns_unequal_lengths_panic() {
        Table::from_columns(
            Schema::new(["a", "b"]),
            vec![vec![Sym(0)], vec![Sym(1), Sym(2)]],
        );
    }
}
