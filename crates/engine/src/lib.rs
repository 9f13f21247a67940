//! # clx-engine
//!
//! A compiled, interned batch-transformation subsystem for CLX.
//!
//! The interactive `ClxSession` (in `clx-core`) drives the paper's
//! Cluster–Label–Transform loop; every transform it runs — `apply`, the
//! result-pattern view, explanation checks, streams — executes here. The
//! UniFi interpreter (`clx_unifi::transform_lenient`, wrapped as
//! [`RowOutcome::interpreted`]) is the executable specification the tests
//! hold this crate to:
//!
//! * [`CompiledProgram::compile`] turns any UniFi
//!   [`Program`](clx_unifi::Program) plus its labelled target pattern into
//!   an immutable, `Send + Sync` executable: a branch whose `Extract`
//!   bounds fail validation compiles to a branch that never fires (the
//!   interpreter skips it on every row it matches), every pattern gets one
//!   matcher (a pre-built Pike-VM regex program from `clx-regex`, or the
//!   interpreter's pattern matcher where the pattern renders to no VM
//!   program), and a transparency analysis marks the patterns whose match
//!   relation is a function of a row's token-class signature;
//! * execution runs on one interned path: rows are interned into a
//!   `clx-column` id space, each distinct value is decided once, and
//!   dispatch is by the integer leaf-id of its token-class signature — each
//!   distinct leaf pattern is decided once (which branch fires and where
//!   its tokens sit) and every further value with the same leaf is
//!   rewritten with a few slice copies, skipping full pattern matching
//!   entirely;
//! * first-sight decisions themselves are fused: compilation builds one
//!   bit-parallel decision automaton over the target plus every
//!   transparent branch pattern (see the `fused` module), so classifying a
//!   *new* leaf is a single pass over its tokens instead of up to k+1
//!   per-branch matcher runs — with a recorded, behavior-identical
//!   fallback ([`CompiledProgram::fused_fallback`]) when a program cannot
//!   be encoded, and [`CompiledProgram::decide`] exposing the decision
//!   directly;
//! * [`CompiledProgram::execute_column`] executes a `clx-column`
//!   [`Column`](clx_column::Column) by deciding each *distinct* value once
//!   through its cached leaf signature — no row of a session column is
//!   ever tokenized twice — and returns a columnar [`BatchReport`];
//!   [`CompiledProgram::execute`] is its raw-rows adapter, interning the
//!   rows through the sharded [`ColumnBuilder`](clx_column::ColumnBuilder)
//!   first;
//! * [`ColumnStream`] processes columns larger than memory: each pushed
//!   chunk is interned through a persistent
//!   [`ColumnInterner`](clx_column::ColumnInterner), so a distinct value is
//!   tokenized and decided once per *stream*, with the retained state
//!   optionally bounded by a [`StreamBudget`](clx_column::StreamBudget);
//! * [`ProgramCache`] is a bounded, thread-safe LRU of compiled programs
//!   keyed by the structural fingerprint of `(program, target)`.
//!
//! The executor's semantics are exactly those of the interpreter: rows
//! already matching the target conform, the first branch that matches and
//! evaluates rewrites, everything else is left unchanged and flagged (§6.1
//! of the paper).
//!
//! ```
//! use clx_engine::CompiledProgram;
//! use clx_pattern::tokenize;
//! use clx_unifi::{Branch, Expr, Program, StringExpr};
//!
//! // dd/dd/dddd -> dd-dd-dddd
//! let program = Program::new(vec![Branch::new(
//!     tokenize("12/11/2017"),
//!     Expr::concat(vec![
//!         StringExpr::extract(1),
//!         StringExpr::const_str("-"),
//!         StringExpr::extract(3),
//!         StringExpr::const_str("-"),
//!         StringExpr::extract(5),
//!     ]),
//! )]);
//! let compiled = CompiledProgram::compile(&program, &tokenize("12-11-2017")).unwrap();
//!
//! let column: Vec<String> = vec![
//!     "12/11/2017".into(),
//!     "03-04-2018".into(),
//!     "unknown".into(),
//! ];
//! let report = compiled.execute(&column);
//! assert_eq!(report.values(), vec!["12-11-2017", "03-04-2018", "unknown"]);
//! assert_eq!(report.transformed_count(), 1);
//! assert_eq!(report.conforming_count(), 1);
//! assert_eq!(report.flagged_values(), vec!["unknown"]);
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]

mod cache;
mod column_exec;
mod compiled;
mod delta;
mod dispatch;
mod error;
mod fused;
/// Tests of the sharded `&[String]` entry point, [`CompiledProgram::execute`].
#[cfg(test)]
mod parallel {
    mod tests;
}
mod report;
mod stream;

pub use cache::{ProgramCache, ProgramCacheStats};
pub use compiled::{CompiledBranch, CompiledProgram, Decision, FusedStats};
pub use delta::ProgramDelta;
pub use dispatch::{DispatchCache, DispatchStats};
pub use error::CompileError;
pub use fused::{FusedFallback, FUSED_MAX_WIDTH};
pub use report::{BatchReport, ChunkReport, ChunkStats, PatchStats, RowOutcome, RowOutcomes};
pub use stream::{ColumnStream, StreamSummary, SwapSummary};
