//! Compilation of a UniFi [`Program`] into an immutable, thread-safe
//! executable form.

use std::hash::{Hash as _, Hasher as _};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use clx_pattern::{tokenize, Pattern};
use clx_regex::Regex;
use clx_telemetry::{MetricSink, Span};
use clx_unifi::{eval_expr, Expr, Program, StringExpr};

use crate::dispatch::{DispatchCache, LeafPlan, SplitPlan, Step};
use crate::error::CompileError;
use crate::fused::{FusedFallback, FusedMatcher};
use crate::report::RowOutcome;

/// A pattern's full-match test, built once per pattern at compile time:
/// the pre-built Pike VM (`clx-regex`), which runs in guaranteed linear
/// time, whenever the pattern's regex rendering compiles; otherwise the
/// interpreter's own `Pattern::matches` (a run longer than the VM's
/// repetition bound, or a pattern past its program-size limit), so that
/// no pattern the interpreter accepts is refused. The fallback backtracks
/// and can go super-linear on adversarial rows, exactly as the
/// interpreter does on the same pattern.
#[derive(Debug, Clone)]
pub(crate) enum Matcher {
    Pike(Regex),
    Interpreted(Pattern),
}

impl Matcher {
    pub(crate) fn new(pattern: &Pattern) -> Self {
        match Regex::new(&pattern.to_regex()) {
            Ok(regex) => Matcher::Pike(regex),
            Err(_) => Matcher::Interpreted(pattern.clone()),
        }
    }

    pub(crate) fn is_full_match(&self, value: &str) -> bool {
        match self {
            Matcher::Pike(regex) => regex.is_full_match(value),
            Matcher::Interpreted(pattern) => pattern.matches(value),
        }
    }
}

/// One compiled branch: the source pattern, its plan, and the matcher
/// used to test the pattern per value when its leaf cannot decide it.
#[derive(Debug)]
pub struct CompiledBranch {
    pattern: Pattern,
    expr: Expr,
    matcher: Matcher,
    transparent: bool,
}

impl CompiledBranch {
    /// The branch's source pattern.
    pub fn pattern(&self) -> &Pattern {
        &self.pattern
    }

    /// The branch's atomic transformation plan.
    pub fn expr(&self) -> &Expr {
        &self.expr
    }

    /// The branch's per-value full-match test.
    pub(crate) fn matcher(&self) -> &Matcher {
        &self.matcher
    }

    /// `true` when matching this branch is decidable from a row's leaf
    /// pattern alone (see the `dispatch` module docs). A branch whose plan
    /// fails [`Branch::validate`](clx_unifi::Branch::validate) is never
    /// transparent: it is checked per value and never fires.
    pub fn is_transparent(&self) -> bool {
        self.transparent
    }
}

/// A labelled UniFi program compiled for high-throughput batch execution.
///
/// Compilation accepts every program the interpreter runs and performs,
/// once:
///
/// * static validation of every branch's `Extract` bounds: a branch that
///   fails it errors on every row it matches, so it is compiled as a
///   branch that never fires — the interpreter's lenient semantics
///   ([`clx_unifi::transform_lenient`]) skip it on exactly those rows;
/// * one matcher per pattern: a Pike-VM regex program where the pattern
///   renders to one, otherwise the interpreter's own pattern matcher;
/// * the transparency analysis enabling leaf-signature dispatch.
///
/// The result is immutable and `Send + Sync`: one `CompiledProgram` serves
/// any number of executor threads (and callers) concurrently. Execution
/// semantics are exactly those of the interpreter: rows already matching
/// the target are conforming, otherwise the first branch that matches and
/// evaluates rewrites the row, otherwise the row is flagged unchanged
/// (§6.1).
#[derive(Debug)]
pub struct CompiledProgram {
    pub(crate) target: Pattern,
    target_matcher: Matcher,
    target_transparent: bool,
    branches: Vec<CompiledBranch>,
    fingerprint: u64,
    /// Process-unique id of this compilation; [`crate::DispatchCache`]s
    /// bind to it, so a cached plan can never be replayed against another
    /// program — not even under a fingerprint collision.
    instance: u64,
    /// The fused multi-pattern decision automaton (see the `fused` module
    /// docs): one pass over a new leaf signature decides every transparent
    /// pattern at once, instead of up to k+1 per-branch matcher runs.
    /// `None` when construction fell back ([`CompiledProgram::fused_fallback`]).
    fused: Option<FusedMatcher>,
    /// Why `fused` is `None`, when it is.
    fused_fallback: Option<FusedFallback>,
    /// Build the winning branch's split boundaries from the automaton's
    /// accepting path instead of re-running `Pattern::split` (the default;
    /// [`CompiledProgram::without_derived_splits`] turns it off for
    /// differential testing and benchmarking).
    derive_splits: bool,
    /// Cold-path decision tallies (relaxed atomics: the program is shared
    /// across executor threads; plan builds are per distinct leaf, so the
    /// increment never sits on the per-row path).
    tallies: FusedTallies,
}

/// The decision class of one value under a [`CompiledProgram`] — the §6.1
/// outcome without the rewritten string.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Decision {
    /// The value already matches the target pattern.
    Conforming,
    /// The branch at this index rewrites the value (first match wins).
    Branch(usize),
    /// No branch applies: the value is left unchanged and flagged.
    Flagged,
}

/// Lifetime tallies of cold-path (plan-building) decisions, split by which
/// machinery answered. Read via [`CompiledProgram::fused_stats`];
/// [`crate::ColumnStream`] publishes the deltas as `engine.fused.*`
/// counters at chunk boundaries.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct FusedStats {
    /// Cold decisions answered by the fused automaton in one leaf pass.
    pub fused_decisions: u64,
    /// Cold decisions that ran the per-branch matching loop — every
    /// decision of a fallback program, or a non-leaf signature handed to a
    /// fused one.
    pub pike_vm_decisions: u64,
    /// Fused branch decisions whose split boundaries were derived from the
    /// automaton's accepting path — first sight stayed single-pass, no
    /// `Pattern::split` ran.
    pub split_derived: u64,
    /// Fused branch decisions that fell back to `Pattern::split` for the
    /// boundaries ([`FusedFallback::SplitUnderived`]): derived splits
    /// turned off, or the defensive reconstruction walk declined.
    pub split_fallbacks: u64,
}

#[derive(Debug, Default)]
struct FusedTallies {
    fused: AtomicU64,
    pike_vm: AtomicU64,
    split_derived: AtomicU64,
    split_fallbacks: AtomicU64,
}

/// Source of [`CompiledProgram::instance`] ids.
static NEXT_INSTANCE: std::sync::atomic::AtomicU64 = std::sync::atomic::AtomicU64::new(0);

// One compiled program is shared by every worker thread of the executor;
// keep that guarantee compiler-checked.
const _: () = {
    const fn assert_send_sync<T: Send + Sync>() {}
    assert_send_sync::<CompiledProgram>();
};

impl CompiledProgram {
    /// Compile `program` for execution against `target`. Never fails; only
    /// [`CompiledProgram::compile_strict`] can reject a program.
    pub fn compile(program: &Program, target: &Pattern) -> Result<Self, CompileError> {
        Self::compile_observed(program, target, None)
    }

    /// [`CompiledProgram::compile`] under an optional telemetry sink: the
    /// fused-automaton construction is timed as `engine.fused.build_ns`
    /// and a per-program fallback is counted as `engine.fused.fallbacks`.
    /// With `None` this never reads a clock. Never fails.
    pub fn compile_observed(
        program: &Program,
        target: &Pattern,
        telemetry: Option<&Arc<dyn MetricSink>>,
    ) -> Result<Self, CompileError> {
        let branches: Vec<CompiledBranch> = program
            .branches
            .iter()
            .map(|branch| CompiledBranch {
                pattern: branch.pattern.clone(),
                expr: branch.expr.clone(),
                matcher: Matcher::new(&branch.pattern),
                // An ill-formed branch stays out of leaf dispatch: its
                // per-value check fails to evaluate, so it never fires.
                transparent: branch.validate().is_ok() && is_transparent(&branch.pattern),
            })
            .collect();
        let target_transparent = is_transparent(target);
        let (fused, fused_fallback) = {
            let _span = Span::start(telemetry, "engine.fused.build_ns");
            let branch_patterns: Vec<Option<&Pattern>> = branches
                .iter()
                .map(|b| b.transparent.then_some(&b.pattern))
                .collect();
            match FusedMatcher::build(target_transparent.then_some(target), &branch_patterns) {
                Ok(matcher) => (Some(matcher), None),
                Err(fallback) => (None, Some(fallback)),
            }
        };
        if fused_fallback.is_some() {
            if let Some(sink) = telemetry {
                sink.counter("engine.fused.fallbacks", 1);
            }
        }
        Ok(CompiledProgram {
            target: target.clone(),
            target_matcher: Matcher::new(target),
            target_transparent,
            branches,
            fingerprint: fingerprint(program, target),
            instance: NEXT_INSTANCE.fetch_add(1, std::sync::atomic::Ordering::Relaxed),
            fused,
            fused_fallback,
            derive_splits: true,
            tallies: FusedTallies::default(),
        })
    }

    /// [`CompiledProgram::compile_observed`] plus a strict static-analysis
    /// gate: the program is analyzed (`clx-analyze`) and rejected with
    /// [`CompileError::RejectedByAnalysis`] when any `Error`-severity
    /// diagnostic is found (a proven-dead or shadowed branch, or an
    /// `Extract` that errors on every matching row). Warnings never
    /// reject. The default entry points only *record* diagnostics — this
    /// is the opt-in described in the README's "Static program
    /// diagnostics" section.
    pub fn compile_strict(
        program: &Program,
        target: &Pattern,
        telemetry: Option<&Arc<dyn MetricSink>>,
    ) -> Result<Self, CompileError> {
        let report = clx_analyze::analyze_observed(program, target, telemetry);
        if report.has_errors() {
            return Err(CompileError::RejectedByAnalysis {
                findings: report.errors().map(|d| d.to_string()).collect(),
            });
        }
        Self::compile_observed(program, target, telemetry)
    }

    /// This compilation with fused dispatch turned off: every cold-path
    /// decision runs the per-branch matching loop, with behavior
    /// guaranteed identical (the property suite locks this). For
    /// benchmarking and differential testing of the two cold paths.
    pub fn without_fused(mut self) -> Self {
        if self.fused.take().is_some() {
            self.fused_fallback = Some(FusedFallback::Disabled);
        }
        self
    }

    /// This compilation with derived split boundaries turned off: the
    /// fused automaton still classifies every cold decision, but the
    /// winning branch re-runs `Pattern::split` for its token boundaries
    /// (the pre-single-pass cold path, each counted as a
    /// [`FusedFallback::SplitUnderived`] split fallback). Behavior is
    /// guaranteed identical — the derived ranges equal `split`'s, locked
    /// by the property suite. For benchmarking and differential testing.
    pub fn without_derived_splits(mut self) -> Self {
        self.derive_splits = false;
        self
    }

    /// `true` when cold-path decisions go through the fused automaton.
    pub fn fused_active(&self) -> bool {
        self.fused.is_some()
    }

    /// Why this program has no fused automaton (`None` when it has one).
    pub fn fused_fallback(&self) -> Option<FusedFallback> {
        self.fused_fallback
    }

    /// Why fused branch decisions (if any) re-ran `Pattern::split` for
    /// their boundaries: `Some(SplitUnderived)` when derived splits are
    /// turned off or any decision's reconstruction declined, `None` while
    /// every fused branch decision stayed single-pass.
    pub fn split_fallback(&self) -> Option<FusedFallback> {
        if !self.derive_splits || self.tallies.split_fallbacks.load(Ordering::Relaxed) > 0 {
            Some(FusedFallback::SplitUnderived)
        } else {
            None
        }
    }

    /// One consistent read of the cold-path decision tallies.
    pub fn fused_stats(&self) -> FusedStats {
        FusedStats {
            fused_decisions: self.tallies.fused.load(Ordering::Relaxed),
            pike_vm_decisions: self.tallies.pike_vm.load(Ordering::Relaxed),
            split_derived: self.tallies.split_derived.load(Ordering::Relaxed),
            split_fallbacks: self.tallies.split_fallbacks.load(Ordering::Relaxed),
        }
    }

    /// The decision class of `value` — conforming, which branch rewrites
    /// it, or flagged — without building the rewritten string.
    ///
    /// Consults the fused automaton first: one pass over the value's leaf
    /// signature decides every transparent pattern at once. Opaque
    /// patterns are checked per value exactly as in execution, and a
    /// fallback program ([`CompiledProgram::fused_fallback`]) walks the
    /// per-branch loop — the decision is identical either way, and
    /// consistent with the outcome execution gives the value.
    pub fn decide(&self, value: &str) -> Decision {
        self.decide_cached(&tokenize(value), value)
    }

    /// [`CompiledProgram::decide`] for a value whose leaf pattern is
    /// already known; `leaf` must be exactly `tokenize(value)`.
    pub fn decide_cached(&self, leaf: &Pattern, value: &str) -> Decision {
        debug_assert_eq!(leaf, &tokenize(value), "leaf must be the value's own");
        let plan = self.build_plan(leaf, value);
        for step in &plan.steps {
            match step {
                Step::Conforming => return Decision::Conforming,
                Step::Apply { branch, .. } => return Decision::Branch(*branch),
                Step::CheckTarget => {
                    if self.target_matcher.is_full_match(value) {
                        return Decision::Conforming;
                    }
                }
                Step::CheckBranch { branch } => {
                    let b = &self.branches[*branch];
                    if b.matcher.is_full_match(value)
                        && eval_expr(&b.expr, &b.pattern, value).is_ok()
                    {
                        return Decision::Branch(*branch);
                    }
                }
            }
        }
        Decision::Flagged
    }

    /// The target pattern this program was compiled against.
    pub fn target(&self) -> &Pattern {
        &self.target
    }

    /// The compiled branches, in dispatch order.
    pub fn branches(&self) -> &[CompiledBranch] {
        &self.branches
    }

    /// The process-unique instance id of this compilation (distinct even
    /// for equal programs recompiled — it keys per-instance caches).
    pub(crate) fn instance(&self) -> u64 {
        self.instance
    }

    /// The structural hash of `(program, target)`, the key under which
    /// [`crate::ProgramCache`] stores this compilation.
    pub fn fingerprint(&self) -> u64 {
        self.fingerprint
    }

    /// `true` when the target and every branch admit leaf-signature
    /// dispatch, i.e. steady-state execution never runs a full pattern
    /// match.
    pub fn is_fully_transparent(&self) -> bool {
        self.target_transparent && self.branches.iter().all(|b| b.transparent)
    }

    /// Transform one value with no dispatch cache: tokenize it, build its
    /// leaf plan and replay that plan once. The cold path for callers that
    /// hold neither a column nor an interner (re-deciding a report's
    /// affected outcomes one distinct value at a time).
    pub(crate) fn transform_uncached(&self, value: &str) -> RowOutcome {
        let plan = self.build_plan(&tokenize(value), value);
        self.run_plan(&plan, value)
    }

    /// Transform one value dispatching by the dense integer `leaf_id` a
    /// [`clx_column::ColumnInterner`] assigned to `leaf` — the cache lookup
    /// is an array index; no `Pattern` is hashed or compared on the hit
    /// path.
    ///
    /// `source` names the id space `leaf_id` belongs to (the interner's
    /// instance id — [`clx_column::Column::interner_id`] for columns) and
    /// `source_generation` that interner's eviction generation
    /// ([`clx_column::ColumnInterner::generation`];
    /// [`clx_column::Column::interner_generation`] for columns). The cache
    /// resets its dense tier when handed ids from a different space *or* a
    /// different generation — a bounded interner recycles leaf-ids when it
    /// evicts — so a stale plan can never be replayed under an aliased id.
    /// `leaf` must be exactly `tokenize(value)`: the leaf-signature
    /// dispatch (see the `dispatch` module docs) is only sound for leaves
    /// produced by the same tokenizer rules.
    ///
    /// Under a telemetry sink a first-sight decision times its fused
    /// classify as `engine.fused.decide_ns`. With `None` (and on every plan
    /// replay) no clock is read.
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn transform_one_by_leaf_id(
        &self,
        cache: &mut DispatchCache,
        source: u64,
        source_generation: u64,
        leaf_id: u32,
        value: &str,
        leaf: &Pattern,
        telemetry: Option<&Arc<dyn MetricSink>>,
    ) -> RowOutcome {
        debug_assert_eq!(leaf, &tokenize(value), "leaf must be the value's own");
        let plan =
            cache.plan_for_leaf_id(self.instance, source, source_generation, leaf_id, || {
                self.build_plan_observed(leaf, value, telemetry)
            });
        self.run_plan(&plan, value)
    }

    /// Replay one leaf's decision sequence against a concrete row.
    fn run_plan(&self, plan: &LeafPlan, value: &str) -> RowOutcome {
        for step in &plan.steps {
            match step {
                Step::Conforming => {
                    return RowOutcome::Conforming {
                        value: value.to_string(),
                    }
                }
                Step::Apply { branch, split } => {
                    return RowOutcome::Transformed {
                        from: value.to_string(),
                        to: apply_split(&self.branches[*branch].expr, split, value),
                    }
                }
                Step::CheckTarget => {
                    if self.target_matcher.is_full_match(value) {
                        return RowOutcome::Conforming {
                            value: value.to_string(),
                        };
                    }
                }
                Step::CheckBranch { branch } => {
                    let b = &self.branches[*branch];
                    // The matcher is a prefilter; the rewrite itself goes
                    // through the interpreter's own evaluator, so the two
                    // cannot drift, and an ill-formed plan is skipped.
                    if b.matcher.is_full_match(value) {
                        if let Ok(out) = eval_expr(&b.expr, &b.pattern, value) {
                            return RowOutcome::Transformed {
                                from: value.to_string(),
                                to: out,
                            };
                        }
                    }
                }
            }
        }
        RowOutcome::Flagged {
            value: value.to_string(),
        }
    }

    /// Build the decision plan for one leaf; `value` is a representative
    /// row with that leaf (used to precompute split boundaries).
    fn build_plan(&self, leaf: &Pattern, value: &str) -> LeafPlan {
        self.build_plan_observed(leaf, value, None)
    }

    /// [`CompiledProgram::build_plan`], routing through the fused
    /// automaton when the program has one: a single pass over the leaf's
    /// tokens decides every transparent pattern *and* records the frontier
    /// journal from which the winning branch's split boundaries are
    /// reconstructed — first sight never re-runs `Pattern::split` on the
    /// fused path. Falls back to the per-branch loop for fallback programs
    /// and for non-leaf signatures.
    fn build_plan_observed(
        &self,
        leaf: &Pattern,
        value: &str,
        telemetry: Option<&Arc<dyn MetricSink>>,
    ) -> LeafPlan {
        if let Some(fused) = &self.fused {
            let run = {
                let _span = Span::start(telemetry, "engine.fused.decide_ns");
                fused.classify(leaf)
            };
            if let Some(run) = run {
                self.tallies.fused.fetch_add(1, Ordering::Relaxed);
                return self.build_plan_fused(fused, &run, value, telemetry);
            }
        }
        self.tallies.pike_vm.fetch_add(1, Ordering::Relaxed);
        self.build_plan_per_branch(leaf, value)
    }

    /// Turn one fused classification into a plan, preserving the §6.1
    /// step order exactly: transparent target match → `Conforming`; opaque
    /// patterns keep per-row `Check*` steps in dispatch order; the first
    /// matching transparent branch becomes the `Apply` step.
    fn build_plan_fused(
        &self,
        fused: &FusedMatcher,
        run: &clx_pattern::automaton::ClassifyRun,
        value: &str,
        telemetry: Option<&Arc<dyn MetricSink>>,
    ) -> LeafPlan {
        let mut steps = Vec::new();
        if self.target_transparent {
            if fused.target_matches(run) {
                steps.push(Step::Conforming);
                return LeafPlan { steps };
            }
        } else {
            steps.push(Step::CheckTarget);
        }
        for (index, branch) in self.branches.iter().enumerate() {
            if !branch.transparent {
                steps.push(Step::CheckBranch { branch: index });
                continue;
            }
            if !fused.branch_matches(run, index) {
                continue;
            }
            // The winning branch's token boundaries come straight from the
            // accepting path — the classification pass the automaton just
            // ran — so first sight is one pass over the tokens, no second
            // `Pattern::split` match.
            let derived = if self.derive_splits {
                let _span = Span::start(telemetry, "engine.fused.split_ns");
                fused.split_ranges(run, index)
            } else {
                None
            };
            let ranges = match derived {
                Some(ranges) => {
                    self.tallies.split_derived.fetch_add(1, Ordering::Relaxed);
                    #[cfg(debug_assertions)]
                    {
                        let slices = branch
                            .pattern
                            .split(value)
                            .expect("fused automaton proved the branch matches");
                        debug_assert_eq!(
                            ranges,
                            char_ranges(value, &slices),
                            "derived boundaries diverge from Pattern::split on {value:?}"
                        );
                    }
                    ranges
                }
                None => {
                    // Never silent, never wrong: an underived boundary
                    // ([`FusedFallback::SplitUnderived`]) re-runs the
                    // backtracking split and is tallied. The automaton
                    // proved the branch matches, so the split cannot fail;
                    // treated as a non-match if it ever did, which is what
                    // the per-branch loop would conclude.
                    self.tallies.split_fallbacks.fetch_add(1, Ordering::Relaxed);
                    let Ok(slices) = branch.pattern.split(value) else {
                        debug_assert!(
                            false,
                            "fused automaton and Pattern::split disagree on {value:?}"
                        );
                        continue;
                    };
                    char_ranges(value, &slices)
                }
            };
            steps.push(Step::Apply {
                branch: index,
                split: Arc::new(SplitPlan { ranges }),
            });
            return LeafPlan { steps };
        }
        LeafPlan { steps }
    }

    /// The pre-fused cold path: walk the branches, one full backtracking
    /// match each until one fires. Kept as the recorded per-program
    /// fallback ([`CompiledProgram::fused_fallback`]) and as the per-value
    /// fallback for non-leaf signatures.
    fn build_plan_per_branch(&self, leaf: &Pattern, value: &str) -> LeafPlan {
        let mut steps = Vec::new();
        if self.target_transparent {
            if self.target.matches(value) {
                steps.push(Step::Conforming);
                return LeafPlan { steps };
            }
        } else {
            steps.push(Step::CheckTarget);
        }
        for (index, branch) in self.branches.iter().enumerate() {
            if !branch.transparent {
                steps.push(Step::CheckBranch { branch: index });
                continue;
            }
            // Cheap structural pre-filter before the backtracking split.
            if leaf.min_string_len() < branch.pattern.min_string_len() {
                continue;
            }
            if let Ok(slices) = branch.pattern.split(value) {
                steps.push(Step::Apply {
                    branch: index,
                    split: Arc::new(SplitPlan {
                        ranges: char_ranges(value, &slices),
                    }),
                });
                return LeafPlan { steps };
            }
        }
        LeafPlan { steps }
    }
}

/// A pattern is transparent when its literal tokens contain no ASCII
/// alphanumerics, making its match relation a function of the leaf pattern
/// (see the `dispatch` module docs for the argument).
fn is_transparent(pattern: &Pattern) -> bool {
    pattern.iter().all(|t| match t.literal_value() {
        Some(s) => s.chars().all(|c| !c.is_ascii_alphanumeric()),
        None => true,
    })
}

/// The cache key of a `(program, target)` compilation: the program's own
/// structural fingerprint combined with the target pattern.
pub(crate) fn fingerprint(program: &Program, target: &Pattern) -> u64 {
    let mut hasher = std::collections::hash_map::DefaultHasher::new();
    program.fingerprint().hash(&mut hasher);
    target.hash(&mut hasher);
    hasher.finish()
}

/// Convert the byte-offset slices of `Pattern::split` into character ranges
/// reusable across every value with the same leaf.
fn char_ranges(value: &str, slices: &[clx_pattern::TokenSlice]) -> Vec<(usize, usize)> {
    // byte offset -> char index, built in one pass.
    let mut char_of_byte = vec![0usize; value.len() + 1];
    for (chars, (byte, _)) in value.char_indices().enumerate() {
        char_of_byte[byte] = chars;
    }
    char_of_byte[value.len()] = value.chars().count();
    slices
        .iter()
        .map(|s| (char_of_byte[s.start], char_of_byte[s.end]))
        .collect()
}

/// Rewrite `value` through `expr` using precomputed token boundaries.
fn apply_split(expr: &Expr, split: &SplitPlan, value: &str) -> String {
    if value.is_ascii() {
        // Char ranges are byte ranges: pure slice copies.
        let mut out = String::new();
        for part in &expr.parts {
            match part {
                StringExpr::ConstStr(s) => out.push_str(s),
                StringExpr::Extract { from, to } => {
                    let start = split.ranges[from - 1].0;
                    let end = split.ranges[to - 1].1;
                    out.push_str(&value[start..end]);
                }
            }
        }
        return out;
    }
    let byte_offsets: Vec<usize> = value
        .char_indices()
        .map(|(b, _)| b)
        .chain(std::iter::once(value.len()))
        .collect();
    let mut out = String::new();
    for part in &expr.parts {
        match part {
            StringExpr::ConstStr(s) => out.push_str(s),
            StringExpr::Extract { from, to } => {
                let start = byte_offsets[split.ranges[from - 1].0];
                let end = byte_offsets[split.ranges[to - 1].1];
                out.push_str(&value[start..end]);
            }
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fused::FUSED_MAX_WIDTH;
    use clx_column::Column;
    use clx_pattern::{parse_pattern, Token};
    use clx_unifi::{transform, Branch};

    /// The Figure 4 phone program: three source formats normalized to
    /// `(ddd) ddd-dddd`.
    fn phone_program() -> Program {
        Program::new(vec![
            Branch::new(
                tokenize("734-422-8073"),
                Expr::concat(vec![
                    StringExpr::const_str("("),
                    StringExpr::extract(1),
                    StringExpr::const_str(") "),
                    StringExpr::extract(3),
                    StringExpr::const_str("-"),
                    StringExpr::extract(5),
                ]),
            ),
            Branch::new(
                tokenize("(734)586-7252"),
                Expr::concat(vec![
                    StringExpr::const_str("("),
                    StringExpr::extract(2),
                    StringExpr::const_str(") "),
                    StringExpr::extract(4),
                    StringExpr::const_str("-"),
                    StringExpr::extract(6),
                ]),
            ),
        ])
    }

    fn phone_target() -> Pattern {
        tokenize("(734) 645-8397")
    }

    #[test]
    fn compiled_matches_sequential_transform() {
        let program = phone_program();
        let compiled = CompiledProgram::compile(&program, &phone_target()).unwrap();
        let inputs = [
            "734-422-8073",
            "(734)586-7252",
            "555-111-2222",
            "(734) 645-8397",
            "N/A",
            "",
        ];
        for input in inputs {
            let got = compiled.transform_uncached(input);
            if phone_target().matches(input) {
                assert!(got.is_conforming(), "{input:?} -> {got:?}");
            } else {
                let want = transform(&program, input).unwrap();
                assert_eq!(got.value(), want.value(), "on {input:?}");
                assert_eq!(got.is_flagged(), want.is_flagged(), "on {input:?}");
            }
        }
    }

    #[test]
    fn dispatch_cache_replays_decisions() {
        let compiled = CompiledProgram::compile(&phone_program(), &phone_target()).unwrap();
        let rows: Vec<String> = (0..50)
            .map(|n| format!("{:03}-{:03}-{:04}", 100 + n, 200 + n, 3000 + n))
            .collect();
        let mut cache = DispatchCache::new();
        let report = compiled.execute_column_pooled(&Column::from_rows(rows), &mut cache);
        for out in report.iter_rows() {
            assert!(out.is_transformed(), "{out:?}");
        }
        // 50 distinct values, one leaf: one plan.
        assert_eq!(cache.dense_len(), 1);
        assert_eq!(cache.stats().dense_misses, 1);
        assert_eq!(cache.stats().dense_hits, 49);
    }

    #[test]
    fn dispatch_cache_rebinds_across_programs() {
        // Program A has two branches, program B one; a cache populated by A
        // must not replay A's plans (branch indices!) when handed to B.
        let a = CompiledProgram::compile(&phone_program(), &phone_target()).unwrap();
        let b_program = Program::new(vec![Branch::new(
            tokenize("734-422-8073"),
            Expr::concat(vec![StringExpr::extract(5)]),
        )]);
        let b = CompiledProgram::compile(&b_program, &tokenize("9999")).unwrap();

        let column = Column::from_values(&["555-111-2222"]);
        let mut cache = DispatchCache::new();
        assert!(cache.is_empty());
        let via_a = a.execute_column_pooled(&column, &mut cache);
        assert_eq!(via_a.values(), vec!["(555) 111-2222"]);
        // Same leaf-id, different program: the cache resets and re-decides.
        let via_b = b.execute_column_pooled(&column, &mut cache);
        assert_eq!(via_b.values(), vec!["2222"]);
        // And back again.
        let via_a = a.execute_column_pooled(&column, &mut cache);
        assert_eq!(via_a.values(), vec!["(555) 111-2222"]);
    }

    #[test]
    fn strict_compile_rejects_error_diagnostics_default_records_only() {
        // Branch 1 (<D>2) is shadowed by branch 0 (<D>+): an
        // Error-severity CLX002 finding.
        let program = Program::new(vec![
            Branch::new(
                clx_pattern::parse_pattern("<D>+").unwrap(),
                Expr::concat(vec![StringExpr::const_str("000")]),
            ),
            Branch::new(
                clx_pattern::parse_pattern("<D>2").unwrap(),
                Expr::concat(vec![StringExpr::const_str("000")]),
            ),
        ]);
        let target = tokenize("123");

        // Default compilation only records diagnostics; it still accepts.
        assert!(CompiledProgram::compile(&program, &target).is_ok());

        // Strict compilation rejects, naming the finding.
        let err = CompiledProgram::compile_strict(&program, &target, None).unwrap_err();
        let CompileError::RejectedByAnalysis { findings } = &err;
        assert_eq!(findings.len(), 1);
        assert!(findings[0].contains("CLX002"), "{findings:?}");
        assert!(err.to_string().contains("static analysis rejected"));

        // A warnings-only program passes strict compilation.
        let warn_only = Program::new(vec![Branch::new(
            clx_pattern::parse_pattern("<D>3").unwrap(),
            Expr::concat(vec![StringExpr::extract(1)]),
        )]);
        let strict = CompiledProgram::compile_strict(
            &warn_only,
            &clx_pattern::parse_pattern("<D>+").unwrap(),
            None,
        );
        assert!(strict.is_ok());
    }

    #[test]
    fn transparency_analysis() {
        let compiled = CompiledProgram::compile(&phone_program(), &phone_target()).unwrap();
        assert!(compiled.is_fully_transparent());
        assert!(compiled.branches().iter().all(|b| b.is_transparent()));

        // 'CPT' carries alphanumerics: matching it cannot be decided from
        // the leaf.
        let opaque_pattern = Pattern::new(vec![
            Token::literal("CPT"),
            Token::base(clx_pattern::TokenClass::Digit, 3),
        ]);
        let program = Program::new(vec![Branch::new(
            opaque_pattern,
            Expr::concat(vec![StringExpr::extract(2)]),
        )]);
        let compiled = CompiledProgram::compile(&program, &tokenize("123")).unwrap();
        assert!(!compiled.is_fully_transparent());
    }

    #[test]
    fn opaque_branches_distinguish_identical_leaves() {
        // "CPT123" and "XYZ123" share the leaf <U>3<D>3; only the former
        // matches the literal-'CPT' branch. The dispatch cache must not
        // conflate them.
        let opaque_pattern = Pattern::new(vec![
            Token::literal("CPT"),
            Token::base(clx_pattern::TokenClass::Digit, 3),
        ]);
        let program = Program::new(vec![Branch::new(
            opaque_pattern,
            Expr::concat(vec![
                StringExpr::const_str("["),
                StringExpr::extract(2),
                StringExpr::const_str("]"),
            ]),
        )]);
        let compiled = CompiledProgram::compile(&program, &tokenize("[111]")).unwrap();
        let mut cache = DispatchCache::new();
        let report =
            compiled.execute_column_pooled(&Column::from_values(&["CPT123", "XYZ123"]), &mut cache);
        assert_eq!(
            report.row(0),
            &RowOutcome::Transformed {
                from: "CPT123".into(),
                to: "[123]".into(),
            }
        );
        assert_eq!(
            report.row(1),
            &RowOutcome::Flagged {
                value: "XYZ123".into(),
            }
        );
        assert_eq!(cache.dense_len(), 1, "one shared leaf, decided per value");
    }

    #[test]
    fn opaque_target_checked_per_row() {
        // A literal-'N/A' target is opaque; conforming detection must not
        // leak to other values with the same leaf (<U>'/'<U>).
        let target = Pattern::new(vec![Token::literal("N/A")]);
        let compiled = CompiledProgram::compile(&Program::empty(), &target).unwrap();
        assert!(!compiled.is_fully_transparent());
        let report = compiled.execute_column(&Column::from_values(&["N/A", "X/Y"]));
        assert!(report.row(0).is_conforming());
        assert!(report.row(1).is_flagged());
    }

    #[test]
    fn non_ascii_rows_transform_correctly() {
        // 'é' lives in a literal token; extraction must respect UTF-8
        // boundaries.
        let source = tokenize("é42");
        let program = Program::new(vec![Branch::new(
            source,
            Expr::concat(vec![StringExpr::extract(2), StringExpr::const_str("!")]),
        )]);
        let compiled = CompiledProgram::compile(&program, &tokenize("9!")).unwrap();
        assert_eq!(compiled.transform_uncached("é42").value(), "42!");
        // The second value replays the first one's plan (same leaf).
        let report = compiled.execute_column(&Column::from_values(&["é42", "é77"]));
        assert_eq!(report.values(), vec!["42!", "77!"]);
    }

    #[test]
    fn invalid_extract_rejected_at_compile_time() {
        let program = Program::new(vec![Branch::new(
            tokenize("abc"),
            Expr::concat(vec![StringExpr::extract(9)]),
        )]);
        let target = tokenize("x");
        // Strict compilation rejects the branch: CLX005 on branch 0.
        let err = CompiledProgram::compile_strict(&program, &target, None).unwrap_err();
        let CompileError::RejectedByAnalysis { findings } = &err;
        assert!(
            findings
                .iter()
                .any(|f| f.contains("CLX005") && f.contains("branch 0")),
            "{findings:?}"
        );
        // Plain compilation accepts it; the branch never fires, so "abc"
        // is flagged exactly as the interpreter flags it.
        let compiled = CompiledProgram::compile(&program, &target).unwrap();
        assert!(!compiled.branches()[0].is_transparent());
        let want = RowOutcome::interpreted(&program, &target, "abc");
        assert!(want.is_flagged());
        assert_eq!(compiled.transform_uncached("abc"), want);
        assert_eq!(compiled.decide("abc"), Decision::Flagged);
        let report = compiled.execute_column(&Column::from_values(&["abc", "xyz"]));
        assert!(report.iter_rows().all(|row| row.is_flagged()));
    }

    #[test]
    fn patterns_the_pike_vm_refuses_match_through_the_interpreter() {
        // A 1,200-digit run is past the VM's repetition bound, and 20 runs
        // of 900 digits past its program size: both fall back to
        // `Pattern::matches` instead of failing compilation.
        let long = parse_pattern("<D>1200'-'<D>3").unwrap();
        let wide = |separator: &str| {
            Pattern::new(
                (0..20)
                    .flat_map(|_| {
                        [
                            Token::base(clx_pattern::TokenClass::Digit, 900),
                            Token::literal(separator),
                        ]
                    })
                    .collect(),
            )
        };
        let (target, dotted) = (wide("-"), wide("."));
        assert!(Regex::new(&long.to_regex()).is_err());
        assert!(Regex::new(&target.to_regex()).is_err());
        let program = Program::new(vec![
            Branch::new(long, Expr::concat(vec![StringExpr::extract(3)])),
            Branch::new(dotted, Expr::concat(vec![StringExpr::extract(39)])),
        ]);
        let compiled = CompiledProgram::compile(&program, &target).unwrap();
        for branch in compiled.branches() {
            assert!(matches!(branch.matcher(), Matcher::Interpreted(_)));
        }

        let run = "5".repeat(900);
        let values = [
            format!("{}-123", "4".repeat(1200)),
            format!("{run}-").repeat(20),
            format!("{run}.").repeat(20),
            "12-3".to_string(),
        ];
        let report = compiled.execute(&values);
        for (i, value) in values.iter().enumerate() {
            assert_eq!(
                report.row(i),
                &RowOutcome::interpreted(&program, &target, value),
                "row {i}"
            );
        }
        assert_eq!(report.row(0).value(), "123");
        assert!(report.row(1).is_conforming());
        assert_eq!(report.row(2).value(), run);
        assert!(report.row(3).is_flagged());
    }

    #[test]
    fn plus_quantified_sources_use_fast_path() {
        let source = parse_pattern("<U>+'-'<D>+").unwrap();
        let program = Program::new(vec![Branch::new(
            source,
            Expr::concat(vec![
                StringExpr::const_str("["),
                StringExpr::extract_range(1, 3),
                StringExpr::const_str("]"),
            ]),
        )]);
        let compiled =
            CompiledProgram::compile(&program, &parse_pattern("'['<U>+'-'<D>+']'").unwrap())
                .unwrap();
        assert!(compiled.is_fully_transparent());
        assert_eq!(
            compiled.transform_uncached("CPT-00350").value(),
            "[CPT-00350]"
        );
        assert_eq!(compiled.transform_uncached("AB-1").value(), "[AB-1]");
        assert!(compiled.transform_uncached("[CPT-00350]").is_conforming());
    }

    #[test]
    fn fingerprints_distinguish_programs_and_targets() {
        let p1 = phone_program();
        let mut p2 = phone_program();
        p2.branches.pop();
        let t = phone_target();
        let c1 = CompiledProgram::compile(&p1, &t).unwrap();
        let c1b = CompiledProgram::compile(&p1, &t).unwrap();
        let c2 = CompiledProgram::compile(&p2, &t).unwrap();
        let c3 = CompiledProgram::compile(&p1, &tokenize("999")).unwrap();
        assert_eq!(c1.fingerprint(), c1b.fingerprint());
        assert_ne!(c1.fingerprint(), c2.fingerprint());
        assert_ne!(c1.fingerprint(), c3.fingerprint());
    }

    #[test]
    fn decide_agrees_with_and_without_fused() {
        let fused = CompiledProgram::compile(&phone_program(), &phone_target()).unwrap();
        assert!(fused.fused_active());
        assert!(fused.fused_fallback().is_none());
        let plain = CompiledProgram::compile(&phone_program(), &phone_target())
            .unwrap()
            .without_fused();
        assert!(!plain.fused_active());
        assert_eq!(plain.fused_fallback(), Some(FusedFallback::Disabled));

        let cases = [
            ("734-422-8073", Decision::Branch(0)),
            ("(734)586-7252", Decision::Branch(1)),
            ("(734) 645-8397", Decision::Conforming),
            ("N/A", Decision::Flagged),
            ("", Decision::Flagged),
        ];
        for (value, want) in cases {
            assert_eq!(fused.decide(value), want, "fused on {value:?}");
            assert_eq!(plain.decide(value), want, "per-branch on {value:?}");
        }
    }

    #[test]
    fn wide_program_falls_back_with_recorded_reason() {
        // A 300-position pattern cannot be encoded in the automaton's bit
        // budget; the per-branch path must take over with the reason kept.
        let wide = parse_pattern("<D>300").unwrap();
        let program = Program::new(vec![Branch::new(
            wide,
            Expr::concat(vec![StringExpr::extract(1)]),
        )]);
        let compiled = CompiledProgram::compile(&program, &tokenize("123")).unwrap();
        assert!(!compiled.fused_active());
        assert!(matches!(
            compiled.fused_fallback(),
            Some(FusedFallback::WidthExceeded { required }) if required > FUSED_MAX_WIDTH
        ));
        // The fallback path still transforms correctly.
        let row = "7".repeat(300);
        assert_eq!(compiled.transform_uncached(&row).value(), row);
        assert_eq!(compiled.decide(&row), Decision::Branch(0));
        let stats = compiled.fused_stats();
        assert_eq!(stats.fused_decisions, 0);
        assert!(stats.pike_vm_decisions > 0);
    }

    #[test]
    fn opaque_only_program_falls_back_with_recorded_reason() {
        // Opaque target, no branches: nothing for the automaton to encode.
        let target = Pattern::new(vec![Token::literal("N/A")]);
        let compiled = CompiledProgram::compile(&Program::empty(), &target).unwrap();
        assert!(!compiled.fused_active());
        assert_eq!(
            compiled.fused_fallback(),
            Some(FusedFallback::NothingTransparent)
        );
        assert_eq!(compiled.decide("N/A"), Decision::Conforming);
        assert_eq!(compiled.decide("X/Y"), Decision::Flagged);
    }

    #[test]
    fn fused_stats_tally_cold_decisions() {
        let compiled = CompiledProgram::compile(&phone_program(), &phone_target()).unwrap();
        // Two distinct leaves, three values: only first sight of each leaf
        // builds a plan, and the phone program's leaves are all fusable.
        compiled.execute_column(&Column::from_values(&[
            "734-422-8073",
            "555-111-2222",
            "(734)586-7252",
        ]));
        let stats = compiled.fused_stats();
        assert_eq!(stats.fused_decisions, 2);
        assert_eq!(stats.pike_vm_decisions, 0);

        let plain = CompiledProgram::compile(&phone_program(), &phone_target())
            .unwrap()
            .without_fused();
        plain.transform_uncached("734-422-8073");
        let stats = plain.fused_stats();
        assert_eq!(stats.fused_decisions, 0);
        assert_eq!(stats.pike_vm_decisions, 1);
    }

    #[test]
    fn branch_decisions_derive_splits_from_the_accepting_path() {
        let derived = CompiledProgram::compile(&phone_program(), &phone_target()).unwrap();
        let split = CompiledProgram::compile(&phone_program(), &phone_target())
            .unwrap()
            .without_derived_splits();
        let column = Column::from_values(&[
            "734-422-8073",
            "555-111-2222",
            "(734)586-7252",
            "(734) 645-8397",
            "N/A",
        ]);
        let by_derived = derived.execute_column(&column);
        let by_split = split.execute_column(&column);
        for (row, (d, s)) in by_derived.iter_rows().zip(by_split.iter_rows()).enumerate() {
            assert_eq!(d, s, "derived and split boundaries must agree on row {row}");
        }
        // Three distinct branch-winning leaves were decided once each
        // ("734-..." and "555-..." share one); the conforming and flagged
        // leaves derive nothing.
        let stats = derived.fused_stats();
        assert_eq!(stats.split_derived, 2);
        assert_eq!(stats.split_fallbacks, 0);
        assert_eq!(derived.split_fallback(), None);

        // With derived splits off, the same branch decisions are recorded
        // as split fallbacks instead.
        let stats = split.fused_stats();
        assert_eq!(stats.split_derived, 0);
        assert_eq!(stats.split_fallbacks, 2);
        assert_eq!(split.split_fallback(), Some(FusedFallback::SplitUnderived));
    }
}
