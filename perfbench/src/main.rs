//! The CLX benchmark: one closed-loop caller drives CLX through its public
//! API from raw rows to verified report, checks every output against the
//! UniFi interpreter, and prints end-to-end metrics (`--trace 0`) or
//! per-layer metrics (`--trace 1`).
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload session_dup_1m --seed 1 --seconds 20 --trace 0
//! ```
//!
//! The last line of standard output is one JSON object:
//! `{"correct": .., "attempted": .., "failed": .., "metrics": {..}}`; the
//! lines before it, each starting with `#`, are the run record.

mod alloc;
mod inputs;
mod measure;
mod oracle;
mod session;
mod stream;

use std::fmt::Write as _;
use std::process::ExitCode;
use std::time::Instant;

use measure::{median, quantile, tail_percentile, PassRecord, Tally};

#[global_allocator]
static ALLOC: alloc::CountingAlloc = alloc::CountingAlloc;

/// Set-up repetitions per run; `setup_s` is their median.
pub const SETUP_REPS: usize = 9;
/// Passes a run makes at least, per kind (untraced, and traced with
/// `--trace 1`), however short `--seconds` is.
const MIN_PASSES: usize = 3;
/// A run stops starting passes after this long, whatever `--seconds` says.
const HARD_STOP_S: f64 = 120.0;

const WORKLOADS: [&str; 3] = ["session_dup_1m", "stream_zipf", "stream_cold_bounded"];

/// Everything a workload run measured.
pub struct Measured {
    pub rows_per_pass: usize,
    pub setup: Vec<PassRecord>,
    pub passes: Vec<PassRecord>,
    /// Latencies (ms) of the workload's unit operation, untraced passes.
    pub ops: Vec<f64>,
    pub op: &'static str,
    /// The tail percentile the op count supports with a margin.
    pub tail_preferred: f64,
    pub tally: Tally,
    /// Run-record lines: guards and stage times.
    pub notes: Vec<String>,
}

impl Measured {
    /// A run whose set-up failed: no passes, the failures in `tally`.
    pub fn failed(rows_per_pass: usize, setup: Vec<PassRecord>, tally: Tally) -> Self {
        Measured {
            rows_per_pass,
            setup,
            passes: Vec::new(),
            ops: Vec::new(),
            op: "",
            tail_preferred: 50.0,
            tally,
            notes: Vec::new(),
        }
    }
}

/// Run passes until `seconds` have gone and each kind has [`MIN_PASSES`].
/// With `traced`, untraced and traced passes alternate, so the two kinds
/// see the same conditions and their ratio is the tracing overhead.
pub fn drive(
    seconds: f64,
    traced: bool,
    mut pass: impl FnMut(bool) -> Option<PassRecord>,
) -> Vec<PassRecord> {
    let start = Instant::now();
    let mut records: Vec<PassRecord> = Vec::new();
    let mut lost = 0;
    for attempt in 0.. {
        let elapsed = start.elapsed().as_secs_f64();
        let untraced = records.iter().filter(|r| !r.traced).count();
        let enough = untraced >= MIN_PASSES && (!traced || records.len() - untraced >= MIN_PASSES);
        if elapsed >= HARD_STOP_S || (elapsed >= seconds && (enough || lost > 0)) {
            break;
        }
        match pass(traced && attempt % 2 == 1) {
            Some(record) => records.push(record),
            None => lost += 1,
        }
    }
    records
}

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = std::env::args().skip(1);
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or(format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => seed = Some(value.parse::<u64>().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                let s = value
                    .parse::<f64>()
                    .map_err(|e| format!("--seconds: {e}"))?;
                if !(s > 0.0 && s <= 60.0) {
                    return Err("--seconds must be in (0, 60]".into());
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace must be 0 or 1".into()),
                })
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    if !WORKLOADS.contains(&workload.as_str()) {
        return Err(format!(
            "unknown workload {workload}; one of {}",
            WORKLOADS.join(", ")
        ));
    }
    Ok(Args {
        workload,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
    })
}

/// Generate the workload's inputs from the seed (untimed), then measure.
/// Returns the measurements and the size of the columns `ColumnBuilder`
/// builds, for the run record.
fn run(args: &Args) -> (Measured, usize) {
    let (seed, seconds, traced) = (args.seed, args.seconds, args.trace);
    match args.workload.as_str() {
        "session_dup_1m" => {
            let task =
                session::session_task(session::SESSION_ROWS, session::SESSION_DISTINCT, seed);
            (session::run(&task, seconds, traced), task.rows.len())
        }
        "stream_zipf" => {
            let pool = inputs::phone_pool(stream::ZIPF_DISTINCT, seed);
            let input = stream::zipf_input(&pool, stream::ZIPF_ROWS, seed);
            (stream::run(&input, seconds, traced), input.sample.len())
        }
        "stream_cold_bounded" => {
            let pool = inputs::cold_rows(stream::COLD_ROWS, seed);
            let input = stream::cold_input(&pool);
            (stream::run(&input, seconds, traced), input.sample.len())
        }
        other => unreachable!("workload {other} was validated"),
    }
}

struct Metric {
    name: &'static str,
    value: f64,
    unit: &'static str,
}

fn end_to_end(m: &Measured, record: &mut Vec<String>) -> Vec<Metric> {
    let untraced: Vec<&PassRecord> = m.passes.iter().filter(|p| !p.traced).collect();
    let setup_ms: Vec<f64> = m.setup.iter().map(|p| p.on_ms).collect();
    let pass_ms: Vec<f64> = untraced.iter().map(|p| p.on_ms).collect();
    let peak = untraced.iter().map(|p| p.peak_bytes).max().unwrap_or(0);
    let tail = tail_percentile(m.ops.len(), m.tail_preferred);
    record.push(format!(
        "samples: setup_s {} set-ups (median), rows_per_s {} passes of {} rows (median pass), peak_heap_mb max of {} passes, op = {}: op_p50_ms / op_tail_ms over {} ops, tail = p{tail} ({:.0} ops beyond)",
        setup_ms.len(),
        pass_ms.len(),
        m.rows_per_pass,
        untraced.len(),
        m.op,
        m.ops.len(),
        m.ops.len() as f64 * (1.0 - tail / 100.0),
    ));
    vec![
        Metric {
            name: "setup_s",
            value: median(&setup_ms) / 1e3,
            unit: "s",
        },
        Metric {
            name: "rows_per_s",
            value: m.rows_per_pass as f64 / (median(&pass_ms) / 1e3),
            unit: "rows/s",
        },
        Metric {
            name: "peak_heap_mb",
            value: peak as f64 / 1e6,
            unit: "MB",
        },
        Metric {
            name: "op_p50_ms",
            value: median(&m.ops),
            unit: "ms",
        },
        Metric {
            name: "op_tail_ms",
            value: quantile(&m.ops, tail / 100.0),
            unit: "ms",
        },
    ]
}

/// Per-layer timings: (metric, span layer). Spans are the benchmark's own,
/// around each call into a crate's public API; `column.chunk` and
/// `engine.decide` are shadow replays (see `stream.rs`).
const LAYER_SPANS: [(&str, &str); 11] = [
    ("column.build_ms", "column.build"),
    ("column.chunk_ms", "column.chunk"),
    ("cluster.profile_ms", "cluster.profile"),
    ("synth.synthesize_ms", "synth.synthesize"),
    ("engine.compile_ms", "engine.compile"),
    ("engine.push_rows_ms", "engine.push_rows"),
    ("engine.decide_ms", "engine.decide"),
    ("core.apply_parallel_ms", "core.apply_parallel"),
    ("core.result_patterns_ms", "core.result_patterns"),
    ("core.reverify_ms", "core.reverify"),
    ("unifi.verify_explanation_ms", "unifi.verify_explanation"),
];

/// Per-layer counts and ratios, recorded by traced passes: (metric, unit).
const LAYER_COUNTERS: [(&str, &str); 9] = [
    ("column.interner_hit_ratio", "ratio"),
    ("column.evicted_values", "count"),
    ("engine.decision_hit_ratio", "ratio"),
    ("engine.dense_hit_ratio", "ratio"),
    ("engine.fused_decisions", "count"),
    ("engine.pike_vm_decisions", "count"),
    ("engine.split_fallbacks", "count"),
    ("engine.peak_memory_estimate_mb", "MB"),
    ("core.distincts_redecided", "count"),
];

/// Per-layer metrics, each the median over traced passes of its per-pass
/// total. A layer the timed passes never call but set-up does (the sample
/// session and `compile` on the streams) is taken per set-up instead; a
/// layer the workload never calls reads 0.
fn per_layer(m: &Measured, record: &mut Vec<String>) -> Vec<Metric> {
    let traced: Vec<&PassRecord> = m.passes.iter().filter(|p| p.traced).collect();
    let untraced: Vec<f64> = m
        .passes
        .iter()
        .filter(|p| !p.traced)
        .map(|p| p.on_ms)
        .collect();
    let per_pass = |passes: &[&PassRecord], f: &dyn Fn(&PassRecord) -> f64| {
        median(&passes.iter().map(|p| f(p)).collect::<Vec<_>>())
    };
    let setup: Vec<&PassRecord> = m.setup.iter().collect();
    let mut metrics = Vec::new();
    let mut table = vec![format!(
        "layer table ({} traced passes, {} set-ups):",
        traced.len(),
        setup.len()
    )];
    for (name, layer) in LAYER_SPANS {
        let (value, source) = if traced.iter().any(|p| p.layers.contains_key(layer)) {
            (
                per_pass(&traced, &|p| p.layers.get(layer).copied().unwrap_or(0.0)),
                "per pass",
            )
        } else if setup.iter().any(|p| p.layers.contains_key(layer)) {
            (
                per_pass(&setup, &|p| p.layers.get(layer).copied().unwrap_or(0.0)),
                "per set-up",
            )
        } else {
            (0.0, "not called")
        };
        table.push(format!("  {name:<34} {value:>14.4} ms   {source}"));
        metrics.push(Metric {
            name,
            value,
            unit: "ms",
        });
    }
    // Zero on workloads without streams, where all three spans are absent.
    let residual = per_pass(&traced, &|p| {
        let layer = |l| p.layers.get(l).copied().unwrap_or(0.0);
        layer("engine.push_rows") - layer("column.chunk") - layer("engine.decide")
    });
    table.push(format!(
        "  {:<34} {residual:>14.4} ms   push_rows - chunk - decide",
        "engine.push_rows_residual_ms"
    ));
    metrics.push(Metric {
        name: "engine.push_rows_residual_ms",
        value: residual,
        unit: "ms",
    });
    for (name, unit) in LAYER_COUNTERS {
        let present = traced.iter().any(|p| p.counters.contains_key(name));
        let value = if present {
            per_pass(&traced, &|p| p.counters.get(name).copied().unwrap_or(0.0))
        } else {
            0.0
        };
        let source = if present { "per pass" } else { "not exercised" };
        table.push(format!("  {name:<34} {value:>14.4} {unit:<5} {source}"));
        if name == "engine.peak_memory_estimate_mb" && present {
            let peak = m.passes.iter().filter(|p| !p.traced).map(|p| p.peak_bytes);
            table.push(format!(
                "  {:<34} {:>14.4} MB    allocator peak, untraced passes",
                "  beside it: peak_heap_mb",
                peak.max().unwrap_or(0) as f64 / 1e6
            ));
        }
        metrics.push(Metric { name, value, unit });
    }
    let unattributed = per_pass(&traced, &|p| p.unattributed_ms / p.on_ms);
    let overhead = per_pass(&traced, &|p| p.on_ms) / median(&untraced) - 1.0;
    table.push(format!(
        "  {:<34} {unattributed:>14.4} ratio of traced pass time in no layer span",
        "trace.unattributed_share"
    ));
    table.push(format!(
        "  {:<34} {overhead:>14.4} ratio traced / untraced pass time - 1",
        "trace.overhead_share"
    ));
    metrics.push(Metric {
        name: "trace.unattributed_share",
        value: unattributed,
        unit: "ratio",
    });
    metrics.push(Metric {
        name: "trace.overhead_share",
        value: overhead,
        unit: "ratio",
    });
    record.extend(table);
    metrics
}

fn git_revision() -> String {
    // The ceiling keeps git from searching above the working directory.
    let ceiling = std::env::current_dir()
        .ok()
        .and_then(|d| d.parent().map(|p| p.display().to_string()))
        .unwrap_or_default();
    std::process::Command::new("git")
        .args(["rev-parse", "--short=12", "HEAD"])
        .env("GIT_CEILING_DIRECTORIES", ceiling)
        .stderr(std::process::Stdio::null())
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
        .unwrap_or_else(|| "unknown (not a git checkout)".into())
}

/// The shard count `ColumnBuilder::new()` resolves to for `rows` rows: one
/// shard per CPU once there are two blocks of 8,192 rows (the column
/// crate's automatic rule), sequential below that.
fn builder_shards(rows: usize, cpus: usize) -> usize {
    const AUTO_MIN_BLOCK: usize = 8_192;
    if rows < 2 * AUTO_MIN_BLOCK {
        1
    } else {
        cpus.min(rows / AUTO_MIN_BLOCK).max(1)
    }
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("perfbench: {e}");
            eprintln!(
                "usage: perfbench --workload <{}> --seed <n> --seconds <s> --trace <0|1>",
                WORKLOADS.join("|")
            );
            return ExitCode::from(2);
        }
    };
    let started = Instant::now();
    let (measured, column_rows) = run(&args);
    let cpus = std::thread::available_parallelism().map_or(1, |n| n.get());

    let mut record = vec![
        format!(
            "workload {} seed {} seconds {} trace {}",
            args.workload,
            args.seed,
            args.seconds,
            u8::from(args.trace)
        ),
        format!(
            "host: nproc {cpus}, ColumnBuilder shards {} (auto, largest built column {column_rows} rows), git {}, profile {}",
            builder_shards(column_rows, cpus),
            git_revision(),
            if cfg!(debug_assertions) { "debug" } else { "release" },
        ),
        "loop: closed, one caller, each call issued after the previous returns".into(),
    ];
    let metrics = if args.trace {
        per_layer(&measured, &mut record)
    } else {
        end_to_end(&measured, &mut record)
    };
    record.extend(measured.notes.iter().cloned());

    let mut tally = measured.tally;
    if measured.passes.is_empty() {
        tally.fail("no pass completed");
    }
    for m in &metrics {
        if !m.value.is_finite() {
            tally.fail(format!("{} is not a finite number", m.name));
        }
    }
    record.push(format!(
        "operations: {} attempted, {} failed, error_rate {}",
        tally.attempted,
        tally.failed,
        tally.failed as f64 / tally.attempted.max(1) as f64
    ));
    record.extend(tally.messages.iter().map(|m| format!("failure: {m}")));
    record.push(format!(
        "wall time {:.1} s",
        started.elapsed().as_secs_f64()
    ));

    let correct = tally.failed == 0;
    let mut json = format!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
        tally.attempted.max(1),
        tally.failed
    );
    for (i, m) in metrics.iter().enumerate() {
        let value = if m.value.is_finite() { m.value } else { 0.0 };
        let sep = if i == 0 { "" } else { ", " };
        let _ = write!(
            json,
            "{sep}\"{}\": {{\"value\": {value}, \"unit\": \"{}\"}}",
            m.name, m.unit
        );
    }
    json.push_str("}}");
    for line in record {
        println!("# {line}");
    }
    println!("{json}");
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
