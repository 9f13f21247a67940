//! The ingest path: a program synthesized from a sample, then rows pushed
//! through `ColumnStream::push_rows` in fixed chunks. `stream_zipf` reads
//! (Zipf-skewed repeats, decisions replayed); `stream_cold_bounded` writes
//! (every row a new leaf signature under a distinct-value budget).

use std::collections::HashMap;
use std::sync::Arc;

use clx_column::{ColumnBuilder, ColumnInterner, StreamBudget};
use clx_core::{ClxOptions, ClxSession, RowOutcome};
use clx_engine::{ChunkReport, ColumnStream, CompiledProgram};
use clx_pattern::{parse_pattern, tokenize, Pattern};
use clx_telemetry::{InMemorySink, MetricSink};
use clx_unifi::Program;

use crate::inputs::zipf_rows;
use crate::measure::{ok, Pass, Tally};
use crate::oracle::{expected, input_of};
use crate::{drive, Measured};

/// Rows per `push_rows` call.
pub const CHUNK: usize = 8_192;
/// Rows of the sample the program is synthesized from. The Zipf sample is
/// larger because most of its rows repeat.
pub const SAMPLE: usize = 2_000;
pub const ZIPF_SAMPLE: usize = 10_000;

/// One stream workload's generated inputs.
pub struct StreamInput<'a> {
    pub rows: Vec<&'a str>,
    pub sample: Vec<String>,
    pub target: Pattern,
    pub budget: StreamBudget,
    pub cold: bool,
}

/// Distinct phone values of the Zipf stream, and its rows per pass.
pub const ZIPF_DISTINCT: usize = 10_000;
pub const ZIPF_ROWS: usize = 245 * CHUNK;

pub fn zipf_input(pool: &[String], rows: usize, seed: u64) -> StreamInput<'_> {
    let rows = zipf_rows(pool, rows, seed ^ 0x5eed);
    StreamInput {
        sample: rows[..ZIPF_SAMPLE.min(rows.len())]
            .iter()
            .map(|s| s.to_string())
            .collect(),
        rows,
        target: tokenize("734-422-8073"),
        budget: StreamBudget::unbounded(),
        cold: false,
    }
}

/// The cold stream's distinct-value budget, and its rows per pass.
pub const COLD_BUDGET: usize = 10_000;
pub const COLD_ROWS: usize = 24 * 4_096;
/// Rows per `push_rows` call on the cold stream: smaller than [`CHUNK`] so
/// a pass yields enough chunk samples for a steady tail.
pub const COLD_CHUNK: usize = 4_096;

pub fn cold_input(pool: &[String]) -> StreamInput<'_> {
    let step = (pool.len() / SAMPLE).max(1);
    StreamInput {
        rows: pool.iter().map(String::as_str).collect(),
        sample: pool.iter().step_by(step).cloned().collect(),
        target: parse_pattern("'['<D>+']'").expect("cold target parses"),
        budget: StreamBudget::max_distinct(COLD_BUDGET),
        cold: true,
    }
}

/// The sample session: build, profile, label, compile. Returns the program
/// and the compiled engine the streams share.
fn sample_session(
    input: &StreamInput<'_>,
    pass: &mut Pass,
    tally: &mut Tally,
) -> Option<(Program, Arc<CompiledProgram>)> {
    let sample = pass.off_clock(|| input.sample.clone());
    let column = pass.call(tally, "column.build", || {
        ok(ColumnBuilder::new().build(sample))
    })?;
    let clustered = pass.call(tally, "cluster.profile", || {
        ok(ClxSession::from_column(column, ClxOptions::default()))
    })?;
    let target = input.target.clone();
    let session = pass.call(tally, "synth.synthesize", || clustered.label(target))?;
    let compiled = pass.call(tally, "engine.compile", || session.compile())?;
    Some((session.program(), Arc::new(compiled)))
}

/// The traced pass's shadow of the stream's own interner and decisions: the
/// same chunks interned with the same budget, and `decide_cached` run on
/// every id the stream would decide, each timed as its own layer.
struct Shadow {
    interner: ColumnInterner,
    program: CompiledProgram,
    /// Slot generation each id was last decided at.
    decided: Vec<Option<u64>>,
    decides: u64,
}

/// `stream_zipf` / `stream_cold_bounded`. The timed op is one `push_rows`.
pub fn run(input: &StreamInput<'_>, seconds: f64, traced: bool) -> Measured {
    let mut tally = Tally::default();
    let chunk_rows = if input.cold { COLD_CHUNK } else { CHUNK };

    let mut setup = Vec::new();
    let mut compiled = None;
    for _ in 0..crate::SETUP_REPS {
        let mut pass = Pass::start(traced);
        compiled = sample_session(input, &mut pass, &mut tally);
        setup.push(pass.finish());
    }
    let Some((program, compiled)) = compiled else {
        return Measured::failed(input.rows.len(), setup, tally);
    };

    // Expected outcomes of every distinct input, computed once.
    let mut oracle: HashMap<&str, RowOutcome> = HashMap::new();
    for row in &input.rows {
        oracle
            .entry(row)
            .or_insert_with(|| expected(&program, &input.target, row));
    }

    let mut ops = Vec::new();
    let mut guard = Guard::default();
    let passes = drive(seconds, traced, |traced| {
        let mut pass = Pass::start(traced);
        let fused_before = compiled.fused_stats();
        let sink = InMemorySink::shared();
        let mut stream = ColumnStream::with_budget(Arc::clone(&compiled), input.budget);
        let mut shadow = None;
        if traced {
            pass.pause();
            stream = stream.with_telemetry(Arc::clone(&sink) as Arc<dyn MetricSink>);
            shadow = Some(Shadow {
                interner: ColumnInterner::with_budget(input.budget),
                program: CompiledProgram::compile(&program, &input.target)
                    .expect("the shadow compiles what the stream compiled"),
                decided: Vec::new(),
                decides: 0,
            });
            pass.resume();
        }
        for rows in input.rows.chunks(chunk_rows) {
            let report = pass.call(
                &mut tally,
                "engine.push_rows",
                || ok(stream.push_rows(rows)),
            )?;
            let parent = pass.last_span();
            if !traced {
                ops.push(pass.spans[parent].ms);
            }
            if let Some(shadow) = shadow.as_mut() {
                replay(
                    shadow, rows, &stream, &report, parent, &mut pass, &mut tally,
                );
            }
            pass.pause();
            let good = report.len() == rows.len()
                && report
                    .iter_rows()
                    .zip(rows)
                    .all(|(outcome, row)| input_of(outcome) == *row)
                && report
                    .outcomes()
                    .iter()
                    .all(|o| oracle.get(input_of(o)) == Some(o));
            tally.check(good, || {
                format!("chunk {}: report disagrees with the oracle", report.index)
            });
            drop(report);
            pass.resume();
        }
        let interner = stream.interner().stats();
        let summary = stream.finish();
        pass.pause();
        let fused = compiled.fused_stats();
        guard.absorb(
            &summary,
            fused.fused_decisions - fused_before.fused_decisions,
            fused.split_fallbacks - fused_before.split_fallbacks,
        );
        if let Some(shadow) = shadow {
            tally.check(shadow.decides == summary.decision_cache_misses, || {
                format!(
                    "shadow decided {} values, the stream {}",
                    shadow.decides, summary.decision_cache_misses
                )
            });
            let snapshot = sink.snapshot();
            let count = |name| snapshot.counter(name).unwrap_or(0) as f64;
            let ratio = |hits: f64, misses: f64| {
                if hits + misses > 0.0 {
                    hits / (hits + misses)
                } else {
                    0.0
                }
            };
            let c = &mut pass.counters;
            c.insert(
                "column.interner_hit_ratio",
                ratio(interner.intern_hits as f64, interner.intern_misses as f64),
            );
            c.insert("column.evicted_values", interner.evicted_values as f64);
            c.insert(
                "engine.decision_hit_ratio",
                summary.decision_cache_hit_rate(),
            );
            c.insert(
                "engine.dense_hit_ratio",
                ratio(
                    count("engine.dispatch.dense_hits"),
                    count("engine.dispatch.dense_misses"),
                ),
            );
            c.insert("engine.fused_decisions", count("engine.fused.decisions"));
            c.insert(
                "engine.pike_vm_decisions",
                count("engine.fused.pike_vm_decisions"),
            );
            c.insert(
                "engine.split_fallbacks",
                count("engine.fused.split_fallbacks"),
            );
            c.insert(
                "engine.peak_memory_estimate_mb",
                summary.peak_memory_bytes as f64 / 1e6,
            );
        }
        pass.resume();
        Some(pass.finish())
    });

    let notes = vec![guard.verdict(input.cold, &mut tally)];
    Measured {
        rows_per_pass: input.rows.len(),
        setup,
        passes,
        ops,
        op: "push_rows chunk",
        tail_preferred: if input.cold { 90.0 } else { 99.0 },
        tally,
        notes,
    }
}

/// Replay one pushed chunk on the shadow, timing `ColumnInterner::chunk`
/// and `decide_cached` as children of the `push_rows` span, and check that
/// the shadow assigned the stream's own ids and row map.
fn replay(
    shadow: &mut Shadow,
    rows: &[&str],
    stream: &ColumnStream,
    report: &ChunkReport,
    parent: usize,
    pass: &mut Pass,
    tally: &mut Tally,
) {
    let Shadow {
        interner,
        program,
        decided,
        decides,
    } = shadow;
    let chunk = pass.shadow("column.chunk", parent, || interner.chunk(rows));
    pass.shadow("engine.decide", parent, || {
        let interner = chunk.interner();
        if decided.len() < interner.distinct_count() {
            decided.resize(interner.distinct_count(), None);
        }
        for &id in chunk.distinct_ids() {
            let generation = interner.distinct_generation(id);
            if decided[id as usize] != Some(generation) {
                std::hint::black_box(program.decide_cached(interner.leaf(id), interner.value(id)));
                decided[id as usize] = Some(generation);
                *decides += 1;
            }
        }
    });
    pass.pause();
    let own = stream.interner();
    let same = chunk.len() == rows.len()
        && chunk.row_map().len() == report.len()
        && rows.iter().enumerate().all(|(r, row)| {
            let local = chunk.row_map()[r] as usize;
            let id = chunk.distinct_ids()[local];
            own.is_live(id)
                && own.value(id) == *row
                && std::ptr::eq(report.row(r), &report.outcomes()[local])
        });
    tally.check(same, || {
        format!(
            "chunk {}: shadow interner diverged from the stream's",
            report.index
        )
    });
    pass.resume();
}

/// The property each stream workload was chosen for, over all its passes.
#[derive(Default)]
struct Guard {
    rows: u64,
    hits: u64,
    misses: u64,
    evictions: u64,
    fused: u64,
    split_fallbacks: u64,
}

impl Guard {
    fn absorb(&mut self, summary: &clx_engine::StreamSummary, fused: u64, split_fallbacks: u64) {
        self.rows += summary.rows() as u64;
        self.hits += summary.decision_cache_hits;
        self.misses += summary.decision_cache_misses;
        self.evictions += summary.evictions;
        self.fused += fused;
        self.split_fallbacks += split_fallbacks;
    }

    /// Print the measured shares; a violated property fails the run.
    fn verdict(&self, cold: bool, tally: &mut Tally) -> String {
        let hit_ratio = self.hits as f64 / (self.hits + self.misses).max(1) as f64;
        let fused_share = self.fused as f64 / self.rows.max(1) as f64;
        let holds = if cold {
            fused_share >= 0.99 && self.evictions > 0 && self.split_fallbacks == 0
        } else {
            hit_ratio >= 0.95 && self.evictions == 0
        };
        tally.check(holds, || "guard: workload drifted off its property".into());
        format!(
            "guard: decision-hit ratio {hit_ratio:.4}, evictions {}, fused decisions / rows {fused_share:.4}, split fallbacks {} -> {}",
            self.evictions,
            self.split_fallbacks,
            if holds { "holds" } else { "VIOLATED" }
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::inputs::{cold_rows, phone_pool};

    /// Counts a traced pass records; timings excluded.
    fn counts(m: &Measured) -> Vec<Vec<(&'static str, f64)>> {
        m.passes
            .iter()
            .filter(|p| p.traced)
            .map(|p| p.counters.iter().map(|(k, v)| (*k, *v)).collect())
            .collect()
    }

    #[test]
    fn cold_shadow_replays_the_streams_own_interner() {
        // Six chunks under the 10k budget: the last ones evict, so the
        // shadow's ids must follow the stream through slot recycling.
        let pool = cold_rows(6 * COLD_CHUNK, 5);
        let input = cold_input(&pool);
        let first = run(&input, 0.01, true);
        assert_eq!(first.tally.failed, 0, "{:?}", first.tally.messages);
        let second = run(&input, 0.01, true);
        let (a, b) = (counts(&first), counts(&second));
        assert!(a.len() >= 3 && a.iter().all(|c| *c == a[0]), "{a:?}");
        assert_eq!(a[0], b[0], "same seed, same counts");
        let evicted = a[0].iter().find(|(k, _)| *k == "column.evicted_values");
        assert!(evicted.is_some_and(|(_, v)| *v > 0.0));
    }

    #[test]
    fn zipf_shadow_and_guard_hold_at_small_size() {
        let pool = phone_pool(100, 3);
        let rows = zipf_rows(&pool, 32 * CHUNK, 3);
        let input = StreamInput {
            sample: rows[..SAMPLE].iter().map(|s| s.to_string()).collect(),
            rows,
            target: tokenize("734-422-8073"),
            budget: StreamBudget::unbounded(),
            cold: false,
        };
        let measured = run(&input, 0.01, true);
        assert_eq!(measured.tally.failed, 0, "{:?}", measured.tally.messages);
        let c = counts(&measured);
        assert!(c.iter().all(|p| *p == c[0]), "{c:?}");
    }
}
