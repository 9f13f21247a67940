//! Throughput of the `clx-engine` batch subsystem on 100k-row generated
//! phone columns: the sequential session `apply` against the two compiled
//! entry points.
//!
//! * `execute` takes raw `&[String]` rows: it builds a column through the
//!   sharded `ColumnBuilder` (dedup + tokenize once per distinct value),
//!   then runs `execute_column` over it;
//! * `execute_column` starts from an already-built column, so it measures
//!   the decision and report assembly alone.
//!
//! Each entry point runs on two inputs: a duplicate-heavy column (100k rows
//! over ≤1k distinct values) and an all-distinct column, where interning
//! buys nothing and is pure overhead over deciding each row.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use std::collections::HashSet;
use std::hint::black_box;

use clx_column::Column;
use clx_core::{ClxSession, TransformReport};
use clx_datagen::{duplicate_heavy_case, large_case};
use clx_pattern::tokenize;

const ROWS: usize = 100_000;
const DISTINCT: usize = 1_000;

fn bench_batch_engine(c: &mut Criterion) {
    let mut group = c.benchmark_group("batch_engine");
    group.sample_size(10);

    // Generated phone numbers almost never repeat; dropping the rare repeat
    // makes the column exactly all-distinct.
    let mut seen = HashSet::new();
    let mut all_distinct = large_case(ROWS, 7).data;
    all_distinct.retain(|row| seen.insert(row.clone()));
    let duplicate_heavy = duplicate_heavy_case(ROWS, DISTINCT, 7).data;

    let session = ClxSession::new(all_distinct.clone())
        .label(tokenize("734-422-8073"))
        .expect("label");
    let compiled = session.compile().expect("compile");

    group.throughput(Throughput::Elements(all_distinct.len() as u64));
    group.bench_with_input(
        BenchmarkId::new("sequential_apply", "all_distinct"),
        &session,
        |b, session| {
            b.iter(|| {
                let report = session.apply().expect("apply");
                black_box(report.transformed_count())
            })
        },
    );

    for (name, data) in [
        ("all_distinct", &all_distinct),
        ("duplicate_heavy", &duplicate_heavy),
    ] {
        group.throughput(Throughput::Elements(data.len() as u64));
        group.bench_with_input(BenchmarkId::new("execute", name), data, |b, data| {
            b.iter(|| black_box(compiled.execute(black_box(data)).transformed_count()))
        });
        let column = Column::from_rows(data.clone());
        group.bench_with_input(
            BenchmarkId::new("execute_column", name),
            &column,
            |b, column| {
                b.iter(|| {
                    black_box(
                        compiled
                            .execute_column(black_box(column))
                            .transformed_count(),
                    )
                })
            },
        );
    }

    // The one-time cost the compiled paths pay up front.
    group.bench_function("compile_program", |b| {
        b.iter(|| black_box(session.compile().expect("compile")))
    });

    group.finish();

    // Sanity: the interpreted and compiled paths agree on this workload (a
    // benchmark of a wrong answer would be worthless).
    let sequential = session.apply().expect("apply");
    let compiled_report = TransformReport::from_batch(compiled.execute(&all_distinct));
    assert_eq!(sequential, compiled_report);
}

criterion_group!(benches, bench_batch_engine);
criterion_main!(benches);
