//! [`CompiledProgram::execute`] tokenizes a `&[String]` batch on every
//! core through the sharded column builder; these tests check that the
//! report still answers each row, in input order, at any batch size.

use crate::CompiledProgram;
use clx_pattern::tokenize;
use clx_unifi::{Branch, Expr, Program, StringExpr};

fn dash_program() -> (Program, clx_pattern::Pattern) {
    // (ddd) ddd-dddd and (ddd)ddd-dddd -> ddd-ddd-dddd
    let program = Program::new(vec![
        Branch::new(
            tokenize("(734) 645-8397"),
            Expr::concat(vec![
                StringExpr::extract(2),
                StringExpr::const_str("-"),
                StringExpr::extract(5),
                StringExpr::const_str("-"),
                StringExpr::extract(7),
            ]),
        ),
        Branch::new(
            tokenize("(734)586-7252"),
            Expr::concat(vec![
                StringExpr::extract(2),
                StringExpr::const_str("-"),
                StringExpr::extract(4),
                StringExpr::const_str("-"),
                StringExpr::extract(6),
            ]),
        ),
    ]);
    (program, tokenize("734-422-8073"))
}

fn column(n: usize) -> Vec<String> {
    (0..n)
        .map(|i| match i % 4 {
            0 => format!(
                "({:03}) {:03}-{:04}",
                100 + i % 800,
                200 + i % 700,
                i % 9999
            ),
            1 => format!("({:03}){:03}-{:04}", 100 + i % 800, 200 + i % 700, i % 9999),
            2 => format!("{:03}-{:03}-{:04}", 100 + i % 800, 200 + i % 700, i % 9999),
            _ => "N/A".to_string(),
        })
        .collect()
}

#[test]
fn outcomes_are_correct_and_ordered() {
    let (program, target) = dash_program();
    let compiled = CompiledProgram::compile(&program, &target).unwrap();
    let data = column(999);
    let report = compiled.execute(&data);
    assert_eq!(report.len(), data.len());
    for (row, input) in report.iter_rows().zip(&data) {
        match input.chars().next() {
            Some('(') => assert!(row.is_transformed(), "{input} -> {row:?}"),
            Some('N') => assert!(row.is_flagged(), "{input} -> {row:?}"),
            _ => assert!(row.is_conforming(), "{input} -> {row:?}"),
        }
        if !row.is_flagged() {
            assert!(target.matches(row.value()), "{row:?}");
        }
    }
    assert_eq!(report.stats.rows(), 999);
}

#[test]
fn empty_column() {
    let (program, target) = dash_program();
    let compiled = CompiledProgram::compile(&program, &target).unwrap();
    let report = compiled.execute(&[]);
    assert!(report.is_empty());
    assert_eq!(report.chunk_count, 0);
}

#[test]
fn auto_options_handle_any_size() {
    // The builder sizes its shards itself; every batch size, including
    // those around a shard boundary, keeps one outcome per row.
    let (program, target) = dash_program();
    let compiled = CompiledProgram::compile(&program, &target).unwrap();
    for n in [1, 2, 255, 256, 257, 999, 5_000] {
        let data = column(n);
        let report = compiled.execute(&data);
        assert_eq!(report.len(), n, "size {n}");
        assert_eq!(report.stats.rows(), n, "size {n}");
        for (row, input) in report.iter_rows().zip(&data) {
            if !row.is_flagged() {
                assert!(target.matches(row.value()), "{input} -> {row:?}");
            }
        }
    }
}
