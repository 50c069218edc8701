//! The gated recording plane: per-thread counters, histograms, spans, and
//! event buffers, drained into [`ObsReport`]s and merged sequentially.

use crate::hdr;
use crate::registry::MetricId;
use crate::{enabled, mode, ObsMode};
use std::cell::RefCell;
use std::time::Instant;

/// Bucket count for per-thread histograms — the shared HDR layout from
/// [`crate::hdr`], same as the aggregate plane.
pub const HIST_BUCKETS: usize = hdr::BUCKET_COUNT;

/// `node` value for events with no node subject.
pub const NO_NODE: u32 = u32::MAX;

/// `rep` value for events recorded outside any repetition (see
/// [`ObsReport::retag_rep`]).
pub const NO_REP: i32 = -1;

/// One structured event: something that happened to `node` at `round`
/// during repetition `rep`, with a metric-specific `value` payload.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Event {
    pub metric: MetricId,
    pub rep: i32,
    pub round: u64,
    pub node: u32,
    pub value: f64,
}

/// Summary histogram of [`observe`]d values for one metric: count, sum,
/// min/max, and HDR log buckets (allocated lazily on the first sample, so
/// an empty `HistData` costs nothing).
#[derive(Debug, Clone, PartialEq)]
pub struct HistData {
    pub count: u64,
    pub sum: f64,
    pub min: f64,
    pub max: f64,
    pub buckets: Vec<u64>,
}

impl Default for HistData {
    fn default() -> Self {
        HistData {
            count: 0,
            sum: 0.0,
            min: f64::INFINITY,
            max: f64::NEG_INFINITY,
            buckets: Vec::new(),
        }
    }
}

impl HistData {
    /// Record one sample: running count/sum/min/max plus an HDR bucket
    /// increment (buckets allocate lazily on the first sample).
    pub fn record(&mut self, value: f64) {
        self.count += 1;
        self.sum += value;
        self.min = self.min.min(value);
        self.max = self.max.max(value);
        if self.buckets.is_empty() {
            self.buckets = vec![0; HIST_BUCKETS];
        }
        self.buckets[hdr::index_of(hdr::value_to_u64(value))] += 1;
    }

    /// Fold `other` into `self`: bucket-wise addition, so quantiles of the
    /// merge equal quantiles of recording the union into one histogram.
    pub fn merge(&mut self, other: &HistData) {
        self.count += other.count;
        self.sum += other.sum;
        self.min = self.min.min(other.min);
        self.max = self.max.max(other.max);
        if other.buckets.is_empty() {
            return;
        }
        if self.buckets.is_empty() {
            self.buckets = other.buckets.clone();
            return;
        }
        for (b, o) in self.buckets.iter_mut().zip(&other.buckets) {
            *b += o;
        }
    }

    pub fn is_empty(&self) -> bool {
        self.count == 0
    }

    /// Mean observed value (`NaN` when empty).
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            return f64::NAN;
        }
        self.sum / self.count as f64
    }

    /// Nearest-rank quantile estimate from the HDR buckets (`NaN` when
    /// empty); error bounded by one bucket width at that magnitude.
    pub fn quantile(&self, q: f64) -> f64 {
        hdr::quantile_from_buckets(&self.buckets, self.count, q)
    }

    /// Tail quantiles in one call: `(p50, p90, p95, p99)`.
    pub fn percentiles(&self) -> (f64, f64, f64, f64) {
        (
            self.quantile(0.50),
            self.quantile(0.90),
            self.quantile(0.95),
            self.quantile(0.99),
        )
    }
}

#[derive(Default)]
struct Recorder {
    counters: Vec<u64>,
    hists: Vec<HistData>,
    events: Vec<Event>,
}

thread_local! {
    static RECORDER: RefCell<Recorder> = RefCell::new(Recorder::default());
}

fn with_recorder<R>(f: impl FnOnce(&mut Recorder) -> R) -> R {
    RECORDER.with(|cell| f(&mut cell.borrow_mut()))
}

/// A drained (or merged) snapshot of one thread's gated-plane records.
/// Counters and histograms are sorted by metric id; events are in
/// recording order.
#[derive(Debug, Default, Clone, PartialEq)]
pub struct ObsReport {
    counters: Vec<(MetricId, u64)>,
    hists: Vec<(MetricId, HistData)>,
    events: Vec<Event>,
}

impl ObsReport {
    /// Non-zero counters, sorted by metric id.
    pub fn counters(&self) -> &[(MetricId, u64)] {
        &self.counters
    }

    /// Non-empty histograms, sorted by metric id.
    pub fn hists(&self) -> &[(MetricId, HistData)] {
        &self.hists
    }

    /// Buffered events in recording order (empty unless the run was in
    /// [`ObsMode::Trace`]).
    pub fn events(&self) -> &[Event] {
        &self.events
    }

    /// The value of one counter (0 if absent).
    pub fn counter(&self, id: MetricId) -> u64 {
        self.counters
            .binary_search_by_key(&id, |&(i, _)| i)
            .map(|k| self.counters[k].1)
            .unwrap_or(0)
    }

    pub fn is_empty(&self) -> bool {
        self.counters.is_empty() && self.hists.is_empty() && self.events.is_empty()
    }

    /// Stamp `rep` onto every event still tagged [`NO_REP`]. Called by the
    /// repetition harness right after draining a worker, so nested merges
    /// never re-tag.
    pub fn retag_rep(&mut self, rep: i32) {
        for e in &mut self.events {
            if e.rep == NO_REP {
                e.rep = rep;
            }
        }
    }

    /// Drop every wall-clock histogram (metric name ending in `_ns`).
    /// Trace files must be byte-identical across reruns and `--jobs`
    /// settings, and timing samples are the one nondeterministic thing the
    /// recorder holds — exporters call this before rendering; the timings
    /// remain available to in-process consumers (bench baselines, digests).
    pub fn strip_timings(&mut self) {
        self.hists
            .retain(|(id, _)| !crate::registry::metric_name(*id).ends_with("_ns"));
    }

    /// Fold `other` into `self`: counters add, histograms merge, events
    /// append (caller controls merge order, and therefore determinism).
    pub fn merge(&mut self, other: ObsReport) {
        for (id, n) in other.counters {
            match self.counters.binary_search_by_key(&id, |&(i, _)| i) {
                Ok(k) => self.counters[k].1 += n,
                Err(k) => self.counters.insert(k, (id, n)),
            }
        }
        for (id, h) in other.hists {
            match self.hists.binary_search_by_key(&id, |&(i, _)| i) {
                Ok(k) => self.hists[k].1.merge(&h),
                Err(k) => self.hists.insert(k, (id, h)),
            }
        }
        self.events.extend(other.events);
    }
}

/// Add `n` to a counter. One load-and-branch when the mode is off.
#[inline]
pub fn counter_add(id: MetricId, n: u64) {
    if !enabled() {
        return;
    }
    with_recorder(|r| {
        if r.counters.len() <= id.index() {
            r.counters.resize(id.index() + 1, 0);
        }
        r.counters[id.index()] += n;
    });
}

/// Record one histogram sample. One load-and-branch when the mode is off.
#[inline]
pub fn observe(id: MetricId, value: f64) {
    if !enabled() {
        return;
    }
    with_recorder(|r| {
        if r.hists.len() <= id.index() {
            r.hists.resize_with(id.index() + 1, HistData::default);
        }
        r.hists[id.index()].record(value);
    });
}

/// Record one structured event, buffered for export in [`ObsMode::Trace`]
/// and dropped in every other mode. Use [`NO_NODE`] when there is no node
/// subject.
#[inline]
pub fn event(id: MetricId, round: u64, node: u32, value: f64) {
    if mode() != ObsMode::Trace {
        return;
    }
    with_recorder(|r| {
        r.events.push(Event {
            metric: id,
            rep: NO_REP,
            round,
            node,
            value,
        })
    });
}

/// A timing guard from [`span`]: records the elapsed nanoseconds as an
/// [`observe`] sample on drop. Inert (no clock read) when the mode is off
/// at creation.
#[must_use = "a span records on drop; binding it to `_` drops immediately"]
pub struct Span {
    id: MetricId,
    start: Option<Instant>,
}

/// Start a timed span for `id`.
#[inline]
pub fn span(id: MetricId) -> Span {
    Span {
        id,
        start: enabled().then(Instant::now),
    }
}

impl Drop for Span {
    fn drop(&mut self) {
        if let Some(start) = self.start {
            observe(self.id, start.elapsed().as_nanos() as f64);
        }
    }
}

/// Take the calling thread's records, leaving the buffers empty (capacity
/// retained). The deterministic hand-off point between a worker and its
/// coordinator.
pub fn drain() -> ObsReport {
    with_recorder(|r| {
        let counters = r
            .counters
            .iter()
            .enumerate()
            .filter(|&(_, &v)| v != 0)
            .map(|(i, &v)| (MetricId::from_index(i), v))
            .collect();
        let hists = r
            .hists
            .iter()
            .enumerate()
            .filter(|(_, h)| !h.is_empty())
            .map(|(i, h)| (MetricId::from_index(i), h.clone()))
            .collect();
        r.counters.clear();
        r.hists.clear();
        let events = std::mem::take(&mut r.events);
        ObsReport {
            counters,
            hists,
            events,
        }
    })
}

/// Discard the calling thread's records (a [`drain`] whose report is
/// dropped). Call before a scoped run so earlier leftovers cannot leak in.
pub fn reset() {
    let _ = drain();
}

/// Fold a drained report into the calling thread's recorder, preserving
/// event order. Coordinators call this once per worker report, in a
/// deterministic order.
pub fn absorb(report: ObsReport) {
    with_recorder(|r| {
        for (id, n) in report.counters {
            if r.counters.len() <= id.index() {
                r.counters.resize(id.index() + 1, 0);
            }
            r.counters[id.index()] += n;
        }
        for (id, h) in report.hists {
            if r.hists.len() <= id.index() {
                r.hists.resize_with(id.index() + 1, HistData::default);
            }
            r.hists[id.index()].merge(&h);
        }
        r.events.extend(report.events);
    });
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{metric, set_mode};

    // Mode is process-global: every test here restores Off before
    // returning, and each works on its own drained report so parallel
    // libtest threads (each with their own thread-local recorder) cannot
    // interfere.

    #[test]
    fn disabled_plane_records_nothing() {
        let id = metric("test.record.off");
        reset();
        counter_add(id, 5);
        observe(id, 1.0);
        event(id, 1, 2, 3.0);
        let _ = span(id);
        assert!(drain().is_empty());
    }

    #[test]
    fn counters_hists_events_round_trip_through_drain() {
        let a = metric("test.record.a");
        let b = metric("test.record.b");
        set_mode(ObsMode::Trace);
        reset();
        counter_add(a, 2);
        counter_add(a, 3);
        observe(b, 10.0);
        observe(b, 2.0);
        event(b, 7, 42, 1.5);
        {
            let _s = span(a);
        }
        set_mode(ObsMode::Off);
        let r = drain();
        assert_eq!(r.counter(a), 5);
        // `a` holds the span sample, `b` the two observes; interning order
        // is global, so look each up explicitly.
        assert_eq!(r.hists().len(), 2);
        let hb = &r.hists().iter().find(|(i, _)| *i == b).expect("hist b").1;
        assert_eq!(hb.count, 2);
        assert_eq!(hb.sum, 12.0);
        assert_eq!(hb.min, 2.0);
        assert_eq!(hb.max, 10.0);
        assert!((hb.mean() - 6.0).abs() < 1e-12);
        let ha = &r.hists().iter().find(|(i, _)| *i == a).expect("hist a").1;
        assert_eq!(ha.count, 1);
        assert!(ha.min >= 0.0);
        assert_eq!(
            r.events(),
            &[Event {
                metric: b,
                rep: NO_REP,
                round: 7,
                node: 42,
                value: 1.5
            }]
        );
        // Second drain is empty: the buffers were taken.
        assert!(drain().is_empty());
    }

    #[test]
    fn merge_adds_and_retag_stamps_only_untagged() {
        let a = metric("test.record.merge");
        set_mode(ObsMode::Trace);
        reset();
        counter_add(a, 1);
        event(a, 1, NO_NODE, 0.0);
        let mut first = drain();
        first.retag_rep(0);
        counter_add(a, 10);
        event(a, 2, NO_NODE, 0.0);
        let mut second = drain();
        set_mode(ObsMode::Off);
        second.retag_rep(1);
        first.merge(second);
        assert_eq!(first.counter(a), 11);
        let reps: Vec<i32> = first.events().iter().map(|e| e.rep).collect();
        assert_eq!(reps, vec![0, 1]);
        first.retag_rep(9); // no NO_REP events left: a no-op
        let reps: Vec<i32> = first.events().iter().map(|e| e.rep).collect();
        assert_eq!(reps, vec![0, 1]);
    }

    #[test]
    fn absorb_then_drain_equals_original() {
        let a = metric("test.record.absorb");
        set_mode(ObsMode::Metrics);
        reset();
        counter_add(a, 4);
        observe(a, 8.0);
        let r = drain();
        absorb(r.clone());
        let again = drain();
        set_mode(ObsMode::Off);
        assert_eq!(r, again);
    }

    #[test]
    fn hist_quantiles_track_samples() {
        let mut h = HistData::default();
        assert!(h.buckets.is_empty());
        for v in [10.0, 30.0, 200.0] {
            h.record(v);
        }
        assert_eq!(h.buckets.len(), HIST_BUCKETS);
        // Median sample is 30; HDR resolution there is one bucket width.
        assert!((h.quantile(0.5) - 30.0).abs() <= hdr::width_of(30) as f64);
        let (p50, _, _, p99) = h.percentiles();
        assert_eq!(p50, h.quantile(0.5));
        assert!((p99 - 200.0).abs() <= hdr::width_of(200) as f64);
    }

    #[test]
    fn merge_handles_lazy_buckets() {
        let mut empty = HistData::default();
        let mut full = HistData::default();
        full.record(5.0);
        // empty ← full clones; full ← empty is a no-op on buckets.
        empty.merge(&full);
        assert_eq!(empty.count, 1);
        assert_eq!(empty.quantile(0.5), 5.5);
        full.merge(&HistData::default());
        assert_eq!(full.count, 1);
        let mut both = HistData::default();
        both.record(5.0);
        both.merge(&full);
        assert_eq!(both.count, 2);
        assert_eq!(both.buckets[hdr::index_of(5)], 2);
    }
}
