//! Structured observability for the vcoord workspace: counters, histograms,
//! and timed spans registered against static metric ids, recorded into
//! per-thread buffers, plus a JSONL trace exporter.
//!
//! # Design
//!
//! Two recording planes share one metric-name registry:
//!
//! - The **aggregate plane** ([`global_hist`]) is a set of process-global
//!   lock-free histograms that are *always on* — the successor of the old
//!   `vcoord_nps::evals` module, which now delegates here. Snapshots are
//!   monotone; callers subtract two snapshots for a per-run view.
//! - The **gated plane** ([`counter_add`], [`observe`], [`event`], [`span`])
//!   records into a per-thread buffer and is compiled around a single
//!   process-global mode flag ([`set_mode`]). With the mode [`ObsMode::Off`]
//!   (the default) every recording call is one relaxed atomic load and a
//!   branch: no allocation, no clock read, no thread-local borrow — cheap
//!   enough to leave in the hottest inspect/update/fit loops.
//!
//! # Ownership discipline
//!
//! Per-thread buffers are merged *sequentially*, exactly like `EvalPlan`
//! hands chunk results back to its coordinator: a worker thread records
//! freely without synchronization, then [`drain`]s its buffer into an
//! [`ObsReport`] at a deterministic point (e.g. the end of one repetition),
//! and the coordinator [`absorb`]s the reports in a deterministic order
//! (repetition order). Traces produced this way are byte-identical
//! regardless of worker count — the same argument that keeps `--jobs` out
//! of the figure CSV bytes.
//!
//! # Invariants
//!
//! 1. **Numerics-inert**: nothing in this crate feeds back into simulation
//!    state; golden CSVs are byte-identical with tracing on or off.
//! 2. **Near-free when off**: the disabled path allocates nothing (asserted
//!    under [`testing::CountingAllocator`]) and reads no clock.
//!
//! # JSONL trace schema
//!
//! One file per figure, one JSON object per line ([`render_jsonl`] /
//! [`parse_line`]), schema version [`TRACE_SCHEMA`]:
//!
//! ```text
//! {"type":"meta","schema":2,"run":"smoke-seed2006","fig":"fig1","seed":2006,"scale":"smoke"}
//! {"type":"counter","metric":"defense.accept","value":123}
//! {"type":"hist","metric":"nps.round_evals","count":10,"sum":521,"min":8,"max":120,"p50":44.5,"p90":101,"p95":118,"p99":118}
//! {"type":"event","metric":"defense.flag","rep":0,"round":12,"node":5,"value":1}
//! ```
//!
//! The `meta` line is always first. `rep` is the repetition index (`-1`
//! outside any repetition), `round` the simulation round, `node` a node id
//! or `null` ([`NO_NODE`]), `value` a metric-specific payload. Counter and
//! hist lines summarize the whole run; event lines are the per-round
//! trace, in recording order. Trace files are **byte-deterministic** in
//! `(run, fig, seed, scale)`: the meta line carries no wall-clock fields,
//! and exporters call [`ObsReport::strip_timings`] so wall-clock
//! histograms (metric names ending `_ns`) never reach a trace file — they
//! remain available in-process (e.g. the bench-baseline `"obs"` block).

mod aggregate;
pub mod diff;
mod export;
pub mod hdr;
mod record;
mod registry;
mod report;
pub mod testing;

pub use aggregate::{global_hist, global_hists, GlobalHist, HistSnapshot};
pub use export::{parse_jsonl, parse_line, render_jsonl, TraceLine, TraceMeta, TRACE_SCHEMA};
pub use record::{
    absorb, counter_add, drain, event, observe, reset, span, Event, HistData, ObsReport, Span,
    HIST_BUCKETS, NO_NODE, NO_REP,
};
pub use registry::{metric, metric_name, MetricId};
pub use report::{
    digest, summarize, summary_csv, summary_text, Digest, HistRow, RoundRow, SummaryRow,
};

use std::sync::atomic::{AtomicU8, Ordering};

/// Global recording mode for the gated plane.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ObsMode {
    /// Default: recording calls are a load-and-branch no-op.
    Off,
    /// Counters, histograms, and spans are live; events are dropped.
    Metrics,
    /// Everything in `Metrics`, plus events buffered per-thread for JSONL
    /// export.
    Trace,
}

static MODE: AtomicU8 = AtomicU8::new(0);

/// Set the process-global recording mode. Intended to be called once at
/// binary start-up (or around a test body); flipping it mid-run leaves
/// partially recorded buffers behind but is otherwise harmless.
pub fn set_mode(mode: ObsMode) {
    MODE.store(mode as u8, Ordering::Relaxed);
}

/// The current recording mode.
#[inline]
pub fn mode() -> ObsMode {
    match MODE.load(Ordering::Relaxed) {
        0 => ObsMode::Off,
        1 => ObsMode::Metrics,
        _ => ObsMode::Trace,
    }
}

/// Whether the gated plane records at all (mode is not [`ObsMode::Off`]).
///
/// Instrumentation sites that do extra work to *prepare* a record (clock
/// reads, id lookups) should gate on this; the recording calls themselves
/// already check.
#[inline]
pub fn enabled() -> bool {
    MODE.load(Ordering::Relaxed) != 0
}

/// Whether events are buffered for export (mode is [`ObsMode::Trace`]).
#[inline]
pub fn tracing() -> bool {
    MODE.load(Ordering::Relaxed) == ObsMode::Trace as u8
}

/// Initialize the mode from the `VCOORD_OBS` environment variable
/// (`off` | `metrics` | `trace`; anything else leaves the mode unchanged).
/// Returns the mode in effect afterwards.
pub fn init_from_env() -> ObsMode {
    match std::env::var("VCOORD_OBS").as_deref() {
        Ok("off") => set_mode(ObsMode::Off),
        Ok("metrics") => set_mode(ObsMode::Metrics),
        Ok("trace") => set_mode(ObsMode::Trace),
        _ => {}
    }
    mode()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mode_round_trips() {
        // Other unit tests in this binary rely on the default Off mode, so
        // restore it; modes are process-global.
        assert_eq!(mode(), ObsMode::Off);
        set_mode(ObsMode::Trace);
        assert_eq!(mode(), ObsMode::Trace);
        assert!(enabled() && tracing());
        set_mode(ObsMode::Metrics);
        assert!(enabled() && !tracing());
        set_mode(ObsMode::Off);
        assert!(!enabled());
    }
}
