//! Clocks, spans, failure accounting and order statistics shared by every
//! workload.
//!
//! A *pass* is one closed-loop run of a workload from raw rows to final
//! report. Its clock runs from the pass start and is paused while the
//! benchmark does its own work (input copies, oracle checks, shadow
//! replays), so the pass time is the time the caller of CLX waited. Every
//! library call is a span named after the crate it enters; a shadow replay
//! is a span with the replayed call as its parent, recorded while the clock
//! is paused.

use std::collections::BTreeMap;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::time::{Duration, Instant};

use crate::alloc;

/// Failure accounting over a whole run: every library call is one attempted
/// operation; an `Err`, a panic or an oracle mismatch is one failure.
#[derive(Default)]
pub struct Tally {
    pub attempted: u64,
    pub failed: u64,
    /// The first few failure messages, for the run record.
    pub messages: Vec<String>,
}

impl Tally {
    pub fn fail(&mut self, what: impl Into<String>) {
        self.failed += 1;
        if self.messages.len() < 5 {
            self.messages.push(what.into());
        }
    }

    /// Count an oracle verdict on an operation already attempted.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        if !ok {
            self.fail(what());
        }
    }
}

/// One span: a call into a layer, or (with a parent) a shadow replay of
/// part of that call.
pub struct Span {
    pub layer: &'static str,
    pub ms: f64,
    pub parent: Option<usize>,
}

/// One pass in progress.
pub struct Pass {
    start: Instant,
    paused: Duration,
    paused_at: Option<Instant>,
    heap_base: usize,
    pub traced: bool,
    pub spans: Vec<Span>,
    /// Per-pass counts and ratios (traced passes), by metric name.
    pub counters: BTreeMap<&'static str, f64>,
}

impl Pass {
    pub fn start(traced: bool) -> Self {
        Pass {
            heap_base: alloc::reset_peak(),
            start: Instant::now(),
            paused: Duration::ZERO,
            paused_at: None,
            traced,
            spans: Vec::new(),
            counters: BTreeMap::new(),
        }
    }

    pub fn pause(&mut self) {
        debug_assert!(self.paused_at.is_none(), "pass clock paused twice");
        self.paused_at = Some(Instant::now());
    }

    pub fn resume(&mut self) {
        let at = self
            .paused_at
            .take()
            .expect("pass clock resumed while running");
        self.paused += at.elapsed();
    }

    /// Run `f` off the clock: benchmark work the caller of CLX never waits
    /// for.
    pub fn off_clock<T>(&mut self, f: impl FnOnce() -> T) -> T {
        self.pause();
        let value = f();
        self.resume();
        value
    }

    /// One library call into `layer`, on the clock. A panic or an `Err` is
    /// counted as a failed operation and yields `None`.
    pub fn call<T, E: std::fmt::Display>(
        &mut self,
        tally: &mut Tally,
        layer: &'static str,
        f: impl FnOnce() -> Result<T, E>,
    ) -> Option<T> {
        tally.attempted += 1;
        let t = Instant::now();
        let result = catch_unwind(AssertUnwindSafe(f));
        self.spans.push(Span {
            layer,
            ms: ms(t.elapsed()),
            parent: None,
        });
        match result {
            Ok(Ok(value)) => Some(value),
            Ok(Err(e)) => {
                tally.fail(format!("{layer}: {e}"));
                None
            }
            Err(panic) => {
                tally.fail(format!("{layer}: panicked: {}", panic_message(&panic)));
                None
            }
        }
    }

    /// Index of the most recent span (the parent of a following shadow).
    pub fn last_span(&self) -> usize {
        self.spans.len() - 1
    }

    /// A shadow replay of part of span `parent`, timed off the pass clock.
    pub fn shadow<T>(&mut self, layer: &'static str, parent: usize, f: impl FnOnce() -> T) -> T {
        self.pause();
        let t = Instant::now();
        let value = f();
        self.spans.push(Span {
            layer,
            ms: ms(t.elapsed()),
            parent: Some(parent),
        });
        self.resume();
        value
    }

    /// Close the pass. The clock must be running.
    pub fn finish(self) -> PassRecord {
        assert!(self.paused_at.is_none(), "pass finished while paused");
        let on_ms = ms(self.start.elapsed() - self.paused);
        let peak_bytes = alloc::peak_since(self.heap_base);
        let mut layers: BTreeMap<&'static str, f64> = BTreeMap::new();
        let mut attributed = 0.0;
        for span in &self.spans {
            *layers.entry(span.layer).or_default() += span.ms;
            if span.parent.is_none() {
                attributed += span.ms;
            }
        }
        PassRecord {
            on_ms,
            peak_bytes,
            traced: self.traced,
            unattributed_ms: on_ms - attributed,
            layers,
            counters: self.counters,
        }
    }
}

/// What one finished pass measured.
pub struct PassRecord {
    pub on_ms: f64,
    pub peak_bytes: usize,
    pub traced: bool,
    pub unattributed_ms: f64,
    /// Total span time per layer.
    pub layers: BTreeMap<&'static str, f64>,
    pub counters: BTreeMap<&'static str, f64>,
}

/// An infallible call's result, for [`Pass::call`].
pub fn ok<T>(value: T) -> Result<T, std::convert::Infallible> {
    Ok(value)
}

pub fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

fn panic_message(panic: &Box<dyn std::any::Any + Send>) -> String {
    if let Some(s) = panic.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = panic.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_string()
    }
}

/// The median of `values` (`NaN` when empty).
pub fn median(values: &[f64]) -> f64 {
    quantile(values, 0.5)
}

/// The `q`-quantile of `values` by the nearest-rank rule (`NaN` when empty).
pub fn quantile(values: &[f64], q: f64) -> f64 {
    if values.is_empty() {
        return f64::NAN;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let rank = (q * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// The tail percentile used for `op_tail_ms`: `preferred` when at least ten
/// samples lie beyond it, otherwise the highest of a fixed ladder that has
/// ten beyond it. Each workload fixes `preferred` from its sample count,
/// with a margin, so the reported percentile does not change between runs.
pub fn tail_percentile(samples: usize, preferred: f64) -> f64 {
    let beyond = |p: f64| samples as f64 * (1.0 - p / 100.0);
    if beyond(preferred) >= 10.0 {
        return preferred;
    }
    [99.0, 95.0, 90.0, 75.0, 50.0]
        .into_iter()
        .find(|&p| beyond(p) >= 10.0)
        .unwrap_or(50.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_quantiles() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(median(&v), 50.0);
        assert_eq!(quantile(&v, 0.99), 99.0);
        assert_eq!(quantile(&v, 1.0), 100.0);
        assert_eq!(quantile(&[3.0], 0.5), 3.0);
    }

    #[test]
    fn tail_keeps_ten_samples_beyond() {
        assert_eq!(tail_percentile(5_000, 99.0), 99.0);
        assert_eq!(tail_percentile(150, 95.0), 90.0);
        assert_eq!(tail_percentile(150, 90.0), 90.0);
        assert_eq!(tail_percentile(12, 99.0), 50.0);
    }
}
