//! The correctness oracle: the outcome the paper's semantics give a value,
//! computed with the UniFi interpreter, which the workspace keeps as its
//! executable specification.

use std::collections::HashMap;

use clx_core::RowOutcome;
use clx_pattern::Pattern;
use clx_unifi::{transform_lenient, Program, TransformOutcome};

/// The outcome of `value` under `program` labelled to `target`: conforming
/// when it already matches the target, otherwise the first branch that
/// evaluates, otherwise flagged.
pub fn expected(program: &Program, target: &Pattern, value: &str) -> RowOutcome {
    if target.matches(value) {
        return RowOutcome::Conforming {
            value: value.to_string(),
        };
    }
    match transform_lenient(program, value) {
        TransformOutcome::Transformed(to) => RowOutcome::Transformed {
            from: value.to_string(),
            to,
        },
        TransformOutcome::Flagged(value) => RowOutcome::Flagged { value },
    }
}

/// The input value an outcome was decided for.
pub fn input_of(outcome: &RowOutcome) -> &str {
    match outcome {
        RowOutcome::Conforming { value } | RowOutcome::Flagged { value } => value,
        RowOutcome::Transformed { from, .. } => from,
    }
}

/// Expected outcomes of a column's distinct values, memoized per column and
/// program: the interactive loop revisits the same programs on every pass,
/// so the interpreter runs once per (program, value) per benchmark run.
#[derive(Default)]
pub struct ColumnOracle {
    memo: HashMap<(usize, Program), Vec<RowOutcome>>,
}

impl ColumnOracle {
    /// `true` when `outcomes[k]` is the expected outcome of `distinct[k]`
    /// under `program`, for every `k`. `column` names the column, so
    /// columns sharing a program keep separate expectations.
    pub fn agrees<'a>(
        &mut self,
        column: usize,
        program: &Program,
        target: &Pattern,
        distinct: impl Iterator<Item = &'a str>,
        outcomes: &[RowOutcome],
    ) -> bool {
        let expected = self
            .memo
            .entry((column, program.clone()))
            .or_insert_with(|| {
                distinct
                    .map(|value| expected(program, target, value))
                    .collect()
            });
        expected.as_slice() == outcomes
    }
}
