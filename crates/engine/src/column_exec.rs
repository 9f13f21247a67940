//! Batch execution over the shared column data plane.
//!
//! A [`Column`] carries each distinct value's leaf signature, and its shared
//! row map says where every duplicate lives. Executing a column therefore
//! needs exactly one *decision* per distinct value — reusing the cached leaf
//! for dispatch, never re-tokenizing — and the resulting [`BatchReport`] is
//! columnar: it keeps the distinct decisions plus a reference-counted clone
//! of the column's row map, so nothing is cloned per duplicate row.
//! [`CompiledProgram::execute`] is the raw-rows adapter: it interns the rows
//! into a column first, so every batch entry point runs this one path.
//!
//! On duplicate-heavy columns (the common real-world case) this makes the
//! whole batch run — pattern matching *and* reporting — O(distinct).

use clx_column::{Column, ColumnBuilder};

use crate::compiled::CompiledProgram;
use crate::dispatch::DispatchCache;
use crate::report::{BatchReport, RowOutcome};

impl CompiledProgram {
    /// Execute the program over raw rows: the rows are interned into a
    /// [`Column`] by the sharded [`ColumnBuilder`] (deduplication and
    /// tokenization spread across CPUs, each distinct value tokenized once),
    /// then run through [`CompiledProgram::execute_column`]. The report is
    /// columnar.
    pub fn execute(&self, rows: &[String]) -> BatchReport {
        self.execute_column(&ColumnBuilder::new().build(rows.to_vec()))
    }

    /// Execute the program over a [`Column`], transforming each *distinct*
    /// value exactly once via its cached leaf signature. The report shares
    /// the column's row map instead of fanning outcomes out per row.
    ///
    /// A program is a pure function of the row value, so duplicates share
    /// one outcome and the report answers every row-oriented query.
    pub fn execute_column(&self, column: &Column) -> BatchReport {
        let mut cache = DispatchCache::new();
        self.execute_column_pooled(column, &mut cache)
    }

    /// [`CompiledProgram::execute_column`] reusing a caller-owned dispatch
    /// cache across calls.
    ///
    /// Dispatch runs on the cache's **dense leaf-id tier**: every distinct
    /// value carries the integer leaf-id its building interner assigned
    /// ([`clx_column::DistinctValue::leaf_id`]), so a plan lookup is an
    /// array index — no `Pattern` is hashed or compared anywhere on this
    /// path.
    ///
    /// Because leaf-ids are only meaningful within one id space, the dense
    /// tier carries over between calls only for columns sharing an
    /// [`interner_id`](clx_column::Column::interner_id) — re-executing the
    /// same column (or its clones). Handing in a column from a different
    /// interner resets the tier and re-decides its leaves; for cross-chunk
    /// reuse over a *stream* of data, use [`ColumnStream`](crate::ColumnStream),
    /// which interns every chunk through one persistent interner.
    pub fn execute_column_pooled(&self, column: &Column, cache: &mut DispatchCache) -> BatchReport {
        // One decision per distinct value, dispatched by dense leaf-id.
        let decided: Vec<RowOutcome> = column
            .distinct_values()
            .map(|v| {
                self.transform_one_by_leaf_id(
                    cache,
                    column.interner_id(),
                    column.interner_generation(),
                    v.leaf_id(),
                    v.text(),
                    v.leaf(),
                    None,
                )
            })
            .collect();
        BatchReport::columnar(self.target().clone(), decided, column)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use clx_pattern::{tokenize, Pattern};
    use clx_unifi::{Branch, Expr, Program, StringExpr};

    fn source() -> (Program, Pattern) {
        let program = Program::new(vec![Branch::new(
            tokenize("734.236.3466"),
            Expr::concat(vec![
                StringExpr::extract(1),
                StringExpr::const_str("-"),
                StringExpr::extract(3),
                StringExpr::const_str("-"),
                StringExpr::extract(5),
            ]),
        )]);
        (program, tokenize("734-422-8073"))
    }

    fn compiled() -> CompiledProgram {
        let (program, target) = source();
        CompiledProgram::compile(&program, &target).unwrap()
    }

    fn duplicate_heavy_rows(n: usize) -> Vec<String> {
        (0..n)
            .map(|i| match i % 4 {
                0 | 1 => format!("{:03}.{:03}.{:04}", 100 + i % 5, 200 + i % 5, 3000 + i % 5),
                2 => format!("{:03}-{:03}-{:04}", 100 + i % 5, 200 + i % 5, 3000 + i % 5),
                _ => "N/A".to_string(),
            })
            .collect()
    }

    #[test]
    fn column_execution_equals_row_execution() {
        // Every row of a columnar report equals the interpreter's per-row
        // answer, whichever entry point built the column.
        let (source, target) = source();
        let program = compiled();
        let rows = duplicate_heavy_rows(1_000);
        let column = Column::from_rows(rows.clone());
        assert!(column.distinct_count() < rows.len() / 10);

        let by_column = program.execute_column(&column);
        let by_rows = program.execute(&rows);
        assert!(by_column.is_columnar() && by_rows.is_columnar());
        assert_eq!(by_column.len(), rows.len());
        for (i, (row, got)) in rows.iter().zip(by_column.iter_rows()).enumerate() {
            assert_eq!(
                got,
                &RowOutcome::interpreted(&source, &target, row),
                "row {i}"
            );
            assert_eq!(got, by_rows.row(i), "row {i}");
        }
        assert_eq!(by_rows.stats, by_column.stats);
        // The columnar report stores only the distinct decisions.
        assert_eq!(by_column.outcomes().len(), column.distinct_count());
        assert_eq!(by_rows.outcomes().len(), column.distinct_count());
    }

    #[test]
    fn empty_column_reports_empty() {
        let report = compiled().execute_column(&Column::default());
        assert!(report.is_empty());
        assert_eq!(report.chunk_count, 0);
    }

    #[test]
    fn column_dispatch_is_dense_only() {
        // Every plan is decided and replayed through the dense leaf-id
        // index: one slot per distinct leaf of the column.
        let program = compiled();
        let column = Column::from_rows(duplicate_heavy_rows(500));
        let mut cache = DispatchCache::new();
        let report = program.execute_column_pooled(&column, &mut cache);
        assert_eq!(report.len(), 500);
        assert_eq!(cache.dense_len(), column.leaf_count());
        assert!(cache.dense_len() > 0);

        // A second column from a different interner resets the dense tier
        // instead of aliasing its ids.
        let other = Column::from_values(&["N/A"]);
        assert_ne!(other.interner_id(), column.interner_id());
        program.execute_column_pooled(&other, &mut cache);
        assert_eq!(cache.dense_len(), other.leaf_count());
    }

    #[test]
    fn outcomes_fan_out_to_duplicate_rows() {
        let program = compiled();
        let column = Column::from_values(&["111.222.3333", "N/A", "111.222.3333", "111.222.3333"]);
        let report = program.execute_column(&column);
        assert_eq!(report.transformed_count(), 3);
        assert_eq!(report.flagged_count(), 1);
        assert_eq!(
            report.values(),
            vec!["111-222-3333", "N/A", "111-222-3333", "111-222-3333"]
        );
    }
}
