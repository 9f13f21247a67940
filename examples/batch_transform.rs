//! Batch execution: compile a session's program once, then serve it.
//!
//! The interactive session (see `quickstart.rs`) is for the human in the
//! loop; this example shows the serving side: `ClxSession::compile()` hands
//! the synthesized program to the `clx-engine` subsystem, which interns a
//! large column once and decides each distinct value once, streams columns
//! that do not fit in memory, and caches compiled programs across requests.
//!
//! Run with: `cargo run --release --example batch_transform`

use std::sync::Arc;

use clx::datagen::large_case;
use clx::engine::ProgramCache;
use clx::{tokenize, ClxSession, ColumnStream, TransformReport};

fn main() {
    // ---- Interactive phase: one labelled session ------------------------
    let case = large_case(50_000, 7);
    let session = ClxSession::new(case.data.clone())
        .label(tokenize("734-422-8073"))
        .expect("label");
    println!(
        "session over {} rows, {} pattern clusters",
        case.data.len(),
        session.patterns().len()
    );

    // ---- Compile once --------------------------------------------------
    let compiled = session.compile().expect("program compiles");
    println!(
        "compiled {} branches (fully signature-dispatched: {})",
        compiled.branches().len(),
        compiled.is_fully_transparent()
    );

    // ---- Execute: intern the rows, decide each distinct value once -----
    let report = TransformReport::from_batch(compiled.execute(&case.data));
    println!(
        "execute: {} transformed, {} conforming, {} flagged ({} distinct outcomes)",
        report.transformed_count(),
        report.conforming_count(),
        report.flagged_count(),
        report.distinct_outcomes().len()
    );
    assert_eq!(report.len(), case.data.len());

    // ---- Stream a column larger than we want in memory ------------------
    let mut stream = ColumnStream::new(Arc::new(compiled));
    for chunk in case.data.chunks(8_192) {
        // In a real pipeline each returned chunk goes straight to a sink.
        let chunk_report = stream.push_rows(chunk);
        drop(chunk_report);
    }
    let summary = stream.finish();
    println!(
        "streamed {} rows in {} chunks ({} flagged)",
        summary.rows(),
        summary.chunks,
        summary.stats.flagged
    );
    assert_eq!(summary.stats.flagged, report.flagged_count());
    assert_eq!(summary.stats.transformed, report.transformed_count());

    // ---- Cache compiled programs across requests ------------------------
    let cache = ProgramCache::new(32);
    let program = session.program();
    let target = session.target().clone();
    for _ in 0..3 {
        let served = cache.get_or_compile(&program, &target).expect("compile");
        let _ = served.execute(&case.data[..1_000]);
    }
    println!(
        "program cache: {} hits / {} misses over 3 requests",
        cache.hits(),
        cache.misses()
    );
}
