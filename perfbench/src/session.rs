//! `session_dup_1m`: the interactive Cluster–Label–Transform loop over one
//! 1M-row duplicate-heavy phone column, then repair clicks.

use std::hint::black_box;
use std::sync::Arc;

use clx_column::ColumnBuilder;
use clx_core::{ClxOptions, ClxSession, Labelled, TransformReport};
use clx_pattern::Pattern;
use clx_telemetry::{InMemorySink, MetricSink};

use crate::measure::{median, ok, Pass, PassRecord, Tally};
use crate::oracle::{input_of, ColumnOracle};
use crate::{drive, Measured};

/// Rows and distinct values of the `session_dup_1m` column.
pub const SESSION_ROWS: usize = 1_000_000;
pub const SESSION_DISTINCT: usize = 10_000;
/// Rows of the set-up loop's column, a prefix of the timed one.
const WARM_ROWS: usize = 2_000;

/// One column a user cleans: its raw rows and the target they label. `id`
/// keeps the oracle's expectations of different columns apart.
pub struct Task {
    pub id: usize,
    pub rows: Vec<String>,
    pub target: Pattern,
}

pub fn session_task(rows: usize, distinct: usize, seed: u64) -> Task {
    let case = clx_datagen::duplicate_heavy_case(rows, distinct, seed);
    Task {
        id: 0,
        target: case.target_pattern(),
        rows: case.data,
    }
}

/// How a loop is checked.
#[derive(Clone, Copy)]
struct Mode {
    /// Also compare against the session's own interpreted `apply` (the
    /// reference path) after the report and after every click. Once per
    /// run, in the oracle pass: later passes compare against the memoized
    /// interpreter outcomes instead.
    literal: bool,
    /// Attach a telemetry sink before the repair clicks, to count the
    /// distincts each click re-decides.
    count_redecided: bool,
}

/// What one loop observed.
struct Outcome {
    clicks: Vec<f64>,
    /// Distincts re-decided by each click (with `count_redecided`).
    redecided: Vec<u64>,
    distinct: usize,
}

/// One closed-loop CLX session over `task`: build the column, profile it,
/// label the target, transform, show the verification view, then click
/// through every source's repair alternatives and back.
fn clt_loop(
    task: &Task,
    mode: Mode,
    pass: &mut Pass,
    tally: &mut Tally,
    oracle: &mut ColumnOracle,
) -> Option<Outcome> {
    let input = pass.off_clock(|| task.rows.clone());
    let column = pass.call(tally, "column.build", || {
        ok(ColumnBuilder::new().build(input))
    })?;
    let (clustered, patterns) = pass.call(tally, "cluster.profile", || {
        let session = ClxSession::from_column(column, ClxOptions::default());
        let patterns = session.patterns();
        ok((session, patterns))
    })?;
    let target = task.target.clone();
    let mut session = pass.call(tally, "synth.synthesize", || clustered.label(target))?;
    let report = pass.call(tally, "core.apply_parallel", || session.apply_parallel())?;
    let summary = pass.call(tally, "core.result_patterns", || session.result_patterns())?;
    pass.call(tally, "unifi.verify_explanation", || {
        session.verify_explanation()
    })?;
    black_box(&patterns);

    pass.pause();
    let good = check_report(task, &session, &report, oracle)
        && summary.iter().map(|(_, n)| n).sum::<usize>() == task.rows.len();
    tally.check(good, || "report disagrees with the oracle".into());
    if mode.literal {
        let fresh = session.apply();
        tally.check(fresh.as_ref() == Ok(&report), || {
            "apply_parallel differs from apply".into()
        });
    }
    let distinct = session.data().distinct_count();
    let sources: Vec<(Pattern, usize)> = session
        .synthesis()
        .sources
        .iter()
        .map(|s| (s.pattern.clone(), s.plans.len()))
        .collect();
    let sink = InMemorySink::shared();
    if mode.count_redecided {
        session = session.attach_telemetry(Arc::clone(&sink) as Arc<dyn MetricSink>);
    }
    pass.resume();

    let mut clicks = Vec::new();
    let mut redecided = Vec::new();
    let mut report = report;
    let mut counted = 0;
    for (pattern, plans) in &sources {
        for choice in (1..*plans).chain([0]) {
            let next = pass.call(tally, "core.reverify", || {
                session.repair_and_reverify(pattern, choice, &report)
            })?;
            clicks.push(pass.spans[pass.last_span()].ms);
            pass.pause();
            let good = check_report(task, &session, &next, oracle);
            tally.check(good, || {
                format!("click {pattern} -> plan {choice}: report disagrees with the oracle")
            });
            if mode.literal {
                let fresh = session.apply();
                tally.check(fresh.as_ref() == Ok(&next), || {
                    format!("click {pattern} -> plan {choice}: reverify differs from a fresh apply")
                });
            }
            if mode.count_redecided {
                let total = sink
                    .snapshot()
                    .counter("engine.delta.distincts_redecided")
                    .unwrap_or(0);
                redecided.push(total - counted);
                counted = total;
            }
            pass.resume();
            report = next;
        }
    }
    pass.off_clock(|| drop((session, report)));
    Some(Outcome {
        clicks,
        redecided,
        distinct,
    })
}

/// Off the clock: every distinct outcome equals the interpreter's, and the
/// report covers every row with that row's own input.
fn check_report(
    task: &Task,
    session: &ClxSession<Labelled>,
    report: &TransformReport,
    oracle: &mut ColumnOracle,
) -> bool {
    oracle.agrees(
        task.id,
        &session.program(),
        session.target(),
        session.data().distinct_values().map(|v| v.text()),
        report.distinct_outcomes(),
    ) && report.len() == task.rows.len()
        && report
            .iter_rows()
            .zip(&task.rows)
            .all(|(outcome, row)| input_of(outcome) == row)
}

/// Run the workload. The timed op is one repair click.
pub fn run(task: &Task, seconds: f64, traced: bool) -> Measured {
    let mut tally = Tally::default();
    let mut oracle = ColumnOracle::default();
    let mode = |literal, count_redecided| Mode {
        literal,
        count_redecided,
    };

    // Set-up: the loop over a prefix of the column, so lazy initialisation
    // and allocator warm-up finish before the first timed pass.
    let warm = Task {
        id: task.id + 1,
        rows: task.rows[..WARM_ROWS.min(task.rows.len())].to_vec(),
        target: task.target.clone(),
    };
    let setup = (0..crate::SETUP_REPS)
        .map(|_| {
            let mut pass = Pass::start(traced);
            clt_loop(
                &warm,
                mode(false, false),
                &mut pass,
                &mut tally,
                &mut oracle,
            );
            pass.finish()
        })
        .collect();

    // The oracle pass (untimed): reference-path checks, and the guard.
    let mut pass = Pass::start(false);
    let first = clt_loop(task, mode(true, true), &mut pass, &mut tally, &mut oracle);
    let mut notes = Vec::new();
    if let Some(first) = &first {
        let clicks = first.redecided.len().max(1) as f64;
        let mean = first.redecided.iter().sum::<u64>() as f64 / clicks;
        let max = first.redecided.iter().copied().max().unwrap_or(0);
        let holds = !first.redecided.is_empty() && (max as usize) < first.distinct;
        notes.push(format!(
            "guard: distincts re-decided per click mean {mean:.1}, max {max} of {} ({:.4} of distincts) -> {}",
            first.distinct,
            mean / first.distinct as f64,
            if holds { "holds" } else { "VIOLATED" }
        ));
        tally.check(holds, || "guard: a click re-decided every distinct".into());
    }

    let mut ops = Vec::new();
    let passes = drive(seconds, traced, |traced| {
        let mut pass = Pass::start(traced);
        let outcome = clt_loop(
            task,
            mode(false, traced),
            &mut pass,
            &mut tally,
            &mut oracle,
        )?;
        if traced {
            let clicks = outcome.redecided.len().max(1) as f64;
            pass.counters.insert(
                "core.distincts_redecided",
                outcome.redecided.iter().sum::<u64>() as f64 / clicks,
            );
        } else {
            ops.extend(&outcome.clicks);
        }
        Some(pass.finish())
    });
    notes.push(stage_note(&passes));
    Measured {
        rows_per_pass: task.rows.len(),
        setup,
        passes,
        ops,
        op: "repair click (repair_and_reverify)",
        tail_preferred: 95.0,
        tally,
        notes,
    }
}

/// The session stages a user waits for, per untraced pass: raw rows ->
/// pattern list, label -> report, and the verification view.
fn stage_note(passes: &[PassRecord]) -> String {
    let stage = |layers: &[&str]| {
        let per_pass: Vec<f64> = passes
            .iter()
            .filter(|p| !p.traced)
            .map(|p| {
                layers
                    .iter()
                    .map(|l| p.layers.get(l).copied().unwrap_or(0.0))
                    .sum()
            })
            .collect();
        median(&per_pass)
    };
    format!(
        "stages (median per pass, ms): patterns_ready {:.3}, report_ready {:.3}, verify_view {:.3}",
        stage(&["column.build", "cluster.profile"]),
        stage(&["synth.synthesize", "core.apply_parallel"]),
        stage(&["core.result_patterns", "unifi.verify_explanation"]),
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn session_loop_is_checked_and_repeatable() {
        let task = session_task(20_000, 400, 4);
        assert_eq!(task.rows, session_task(20_000, 400, 4).rows);
        let redecided = |m: &Measured| -> Vec<f64> {
            m.passes
                .iter()
                .filter(|p| p.traced)
                .map(|p| p.counters["core.distincts_redecided"])
                .collect()
        };
        let first = run(&task, 0.01, true);
        assert_eq!(first.tally.failed, 0, "{:?}", first.tally.messages);
        let second = run(&task, 0.01, true);
        let (a, b) = (redecided(&first), redecided(&second));
        assert!(a.iter().all(|v| *v == a[0]) && a[0] == b[0], "{a:?} {b:?}");
        assert!(!first.ops.is_empty(), "clicks were timed");
    }
}
