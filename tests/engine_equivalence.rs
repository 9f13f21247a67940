//! Interpreter/engine equivalence: `ClxSession::apply` and every other
//! compiled `clx-engine` path must produce *exactly* the rows of the
//! interpreter oracle deciding each row on its own — same transformed
//! values, and identical `Flagged` rows (§6.1 "leave unchanged and flag") —
//! on the phone-number workload of `crates/datagen`, and on programs whose
//! patterns the Pike VM cannot compile.

use std::sync::Arc;

use clx::datagen::{DataGenerator, PhoneFormat};
use clx::{
    tokenize, ClxSession, ColumnBuilder, ColumnStream, Labelled, ProgramCache, RowOutcome,
    TransformReport,
};

/// The §7.2 study formats plus the paper's noise formats (`N/A`, `+1 ...`),
/// so the column exercises conforming, transformed and flagged rows.
fn noisy_phone_column(rows: usize, seed: u64) -> Vec<String> {
    let mut generator = DataGenerator::new(seed);
    let mut formats = PhoneFormat::STUDY_FORMATS.to_vec();
    formats.push(PhoneFormat::CountryCode);
    formats.push(PhoneFormat::Missing);
    let weights = [40usize, 25, 12, 8, 4, 3, 4, 4];
    generator.phone_column(rows, &formats, &weights)
}

fn labelled_session(data: Vec<String>) -> ClxSession<Labelled> {
    ClxSession::new(data)
        .label(tokenize("734-422-8073"))
        .unwrap()
}

/// The interpreter's answer for every row of `data`, in order.
fn expected_rows(session: &ClxSession<Labelled>, data: &[String]) -> Vec<RowOutcome> {
    let (program, target) = (session.program(), session.target().clone());
    data.iter()
        .map(|row| RowOutcome::interpreted(&program, &target, row))
        .collect()
}

/// The interpreter's answer for every row of `data`, as a report.
fn oracle_report(session: &ClxSession<Labelled>, data: &[String]) -> TransformReport {
    TransformReport::from_row_outcomes(session.target().clone(), expected_rows(session, data))
}

#[test]
fn parallel_report_is_identical_to_sequential_apply() {
    let data = noisy_phone_column(3_000, 20_19);
    let session = labelled_session(data.clone());

    let applied = session.apply().unwrap();

    // Row-for-row identity: same variants, same values, same order.
    assert_eq!(applied, oracle_report(&session, &data));
}

#[test]
fn flagged_rows_match_exactly() {
    let data = noisy_phone_column(1_500, 7);
    let session = labelled_session(data.clone());

    let sequential = oracle_report(&session, &data);
    let compiled = session.compile().unwrap();
    let parallel = TransformReport::from_batch(compiled.execute(&data));

    // The workload really produces flagged rows: "N/A" never reaches the
    // target pattern, and bare 10-digit rows (`<D>10`) cannot be split at
    // token granularity by UniFi's `Extract`. Both paths must flag the same
    // rows with unchanged values, and `apply` must too.
    assert_eq!(session.apply().unwrap(), sequential);
    let flagged: Vec<&str> = sequential.flagged_values();
    assert!(flagged.contains(&"N/A"), "workload must exercise flagging");
    assert!(flagged
        .iter()
        .all(|v| *v == "N/A" || v.chars().all(|c| c.is_ascii_digit())));
    assert_eq!(flagged, parallel.flagged_values());
    assert_eq!(sequential.flagged_count(), parallel.flagged_count());
    for (s, p) in sequential.iter_rows().zip(parallel.iter_rows()) {
        assert_eq!(s.is_flagged(), p.is_flagged());
        assert_eq!(s.value(), p.value());
    }
}

#[test]
fn chunking_and_thread_count_do_not_change_the_report() {
    let data = noisy_phone_column(1_000, 99);
    let session = labelled_session(data.clone());
    let compiled = session.compile().unwrap();

    // Threads: the builder's shard count. Chunking: the stream's chunk
    // size.
    let baseline = session.apply().unwrap();
    let compiled = Arc::new(compiled);
    for (shards, chunk_size) in [(1, 64), (2, 100), (4, 333), (8, 7), (3, 100_000)] {
        let column = ColumnBuilder::new().shards(shards).build(data.clone());
        let report = TransformReport::from_batch(compiled.execute_column(&column));
        assert_eq!(baseline, report, "shards={shards} diverged");

        let mut stream = ColumnStream::new(Arc::clone(&compiled));
        let mut streamed = Vec::new();
        for chunk in data.chunks(chunk_size) {
            streamed.extend(stream.push_rows(chunk).into_row_outcomes());
        }
        let streamed = TransformReport::from_row_outcomes(baseline.target().clone(), streamed);
        assert_eq!(baseline, streamed, "chunk_size={chunk_size} diverged");
    }
}

#[test]
fn streaming_path_matches_sequential_apply() {
    let data = noisy_phone_column(2_048, 3);
    let session = labelled_session(data.clone());
    let compiled = session.compile().unwrap();
    let sequential = session.apply().unwrap();

    let mut stream = ColumnStream::from_program(compiled);
    let mut streamed = Vec::new();
    for chunk in data.chunks(500) {
        let report = stream.push_rows(chunk);
        streamed.extend(report.iter_rows().cloned());
    }
    let summary = stream.finish();

    let expected = expected_rows(&session, &data);
    assert_eq!(streamed.len(), expected.len());
    for (i, (got, want)) in streamed.iter().zip(&expected).enumerate() {
        assert_eq!(got, want, "row {i}");
    }
    assert_eq!(
        streamed.iter().map(RowOutcome::value).collect::<Vec<_>>(),
        sequential.values()
    );
    assert_eq!(summary.rows(), data.len());
    assert_eq!(summary.stats.flagged, sequential.flagged_count());
    assert_eq!(summary.stats.transformed, sequential.transformed_count());
    assert_eq!(summary.stats.conforming, sequential.conforming_count());
}

#[test]
fn column_execution_is_identical_to_row_execution() {
    // The column path dispatches on cached leaf signatures and decides each
    // distinct value once; the report must still be row-for-row identical
    // to the interpreter deciding every row on its own, and to sequential
    // apply — flagged rows included.
    let data = noisy_phone_column(2_500, 11);
    let session = labelled_session(data.clone());
    let compiled = session.compile().unwrap();

    let sequential = session.apply().unwrap();
    let per_row = TransformReport::from_row_outcomes(
        session.target().clone(),
        expected_rows(&session, &data),
    );
    let from_rows = TransformReport::from_batch(compiled.execute(&data));
    let per_column = TransformReport::from_batch(compiled.execute_column(session.data()));

    assert_eq!(sequential, per_row);
    assert_eq!(from_rows, per_row);
    assert_eq!(per_column, per_row);
    assert_eq!(per_row.flagged_values(), per_column.flagged_values());
}

#[test]
fn program_cache_serves_repeat_sessions() {
    let cache = ProgramCache::new(8);
    let session = labelled_session(noisy_phone_column(200, 1));
    let program = session.program();
    let target = session.target().clone();

    let first = cache.get_or_compile(&program, &target).unwrap();
    let second = cache.get_or_compile(&program, &target).unwrap();
    assert_eq!(cache.hits(), 1);
    assert_eq!(cache.misses(), 1);

    // Both handles are the same compilation and still agree with apply().
    let data = session.data().to_vec();
    let a = TransformReport::from_batch(first.execute(&data));
    let b = TransformReport::from_batch(second.execute(&data));
    let sequential = session.apply().unwrap();
    assert_eq!(a, sequential);
    assert_eq!(b, sequential);
}

/// Regression: a 1,200-digit run is past the Pike VM's repetition bound,
/// and twenty 900-digit runs are past its program size. Synthesis emits a
/// `<D>1200` branch for the long row, a target may have either shape, and
/// `apply`, `compile` and `stream_columns` must run them exactly as the
/// interpreter does (they used to fail to compile).
#[test]
fn patterns_past_the_pike_vm_limits_run_and_equal_the_oracle() {
    let long = "4".repeat(1200);
    let wide_row = |sep: char, digit: char| {
        let run: String = std::iter::repeat_n(digit, 900).collect();
        format!("{run}{sep}").repeat(20)
    };
    let cases = [
        (
            // A 1,200-digit source row next to ordinary dashed phones.
            vec![
                format!("{long}.422.8073"),
                "734.236.3466".to_string(),
                "734-422-8073".to_string(),
            ],
            format!("{long}-645-8397"),
            1,
        ),
        (
            // The 20 x <D>900'-' target over a conforming and a flagged
            // row. (A dotted wide source would add a branch, but its
            // synthesis alone takes seconds in a debug build.)
            vec![wide_row('-', '7'), "N/A".to_string()],
            wide_row('-', '8'),
            0,
        ),
    ];
    for (data, example, transformed) in cases {
        let session = ClxSession::new(data.clone())
            .label_by_example(&example)
            .unwrap();
        let oracle = oracle_report(&session, &data);
        assert_eq!(oracle.transformed_count(), transformed);
        assert_eq!(oracle.conforming_count(), 1 - transformed);
        assert_eq!(session.apply().unwrap(), oracle);

        let compiled = session.compile().unwrap();
        assert_eq!(TransformReport::from_batch(compiled.execute(&data)), oracle);

        let mut stream = session.stream_columns().unwrap();
        let streamed: Vec<RowOutcome> = stream.push_rows(&data).into_row_outcomes();
        assert_eq!(
            TransformReport::from_row_outcomes(session.target().clone(), streamed),
            oracle
        );
    }
}
