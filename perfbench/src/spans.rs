//! The benchmark's own spans: one per public call it makes, kept in memory
//! and written out when the run ends.
//!
//! A span may also carry *inner* totals drained from the program's
//! `vcoord-obs` Metrics mode right after the call returned: the splits no
//! public call exposes (Simplex fits, NPS positioning and filtering,
//! defense inspection). They are sums over every occurrence inside the
//! call. The simulations run on one thread, so those sums are elapsed time
//! inside the span, and the containment check below holds by construction.

use std::fmt::Write as _;
use std::time::Instant;
use vcoord::obs::{self, ObsReport};

/// Sum and count of one obs timing histogram inside a span.
#[derive(Debug, Clone)]
pub struct Inner {
    pub name: &'static str,
    pub count: u64,
    pub total_ns: f64,
    /// The inner total this one is nested in (`None`: directly in the span).
    pub within: Option<&'static str>,
}

#[derive(Debug, Clone)]
pub struct Span {
    pub name: &'static str,
    pub parent: Option<usize>,
    pub unit: u32,
    pub start_ns: u64,
    pub end_ns: u64,
    pub inner: Vec<Inner>,
}

impl Span {
    pub fn dur_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }

    pub fn inner_ns(&self, name: &str) -> f64 {
        self.inner
            .iter()
            .filter(|i| i.name == name)
            .map(|i| i.total_ns)
            .sum()
    }

    /// Total of the inner timings nested `within` (`None`: directly in
    /// the span).
    fn nested_ns(&self, within: Option<&str>) -> f64 {
        self.inner
            .iter()
            .filter(|i| i.within == within)
            .map(|i| i.total_ns)
            .sum()
    }

    pub fn inner_count(&self, name: &str) -> u64 {
        self.inner
            .iter()
            .filter(|i| i.name == name)
            .map(|i| i.count)
            .sum()
    }
}

/// In-memory span recorder. When off, `open`/`close` only hand back a
/// dummy id, so untraced units pay no bookkeeping.
pub struct Tracer {
    on: bool,
    unit: u32,
    epoch: Instant,
    spans: Vec<Span>,
}

/// Handle returned by [`Tracer::open`].
#[derive(Debug, Clone, Copy)]
pub struct SpanId(Option<usize>);

impl SpanId {
    /// No parent: a root span.
    pub fn none() -> SpanId {
        SpanId(None)
    }
}

impl Tracer {
    pub fn new() -> Tracer {
        Tracer {
            on: false,
            unit: 0,
            epoch: Instant::now(),
            spans: Vec::new(),
        }
    }

    /// Start recording unit `unit` (`on`) or pass through (`!on`).
    pub fn begin_unit(&mut self, unit: u32, on: bool) {
        self.on = on;
        self.unit = unit;
        if on {
            // Leftovers from set-up bookkeeping must not land in the first
            // call's inner totals.
            obs::reset();
        }
    }

    pub fn is_on(&self) -> bool {
        self.on
    }

    pub fn open(&mut self, name: &'static str, parent: SpanId) -> SpanId {
        if !self.on {
            return SpanId(None);
        }
        let start_ns = self.epoch.elapsed().as_nanos() as u64;
        self.spans.push(Span {
            name,
            parent: parent.0,
            unit: self.unit,
            start_ns,
            end_ns: start_ns,
            inner: Vec::new(),
        });
        SpanId(Some(self.spans.len() - 1))
    }

    /// Close `id` and attach the obs timing histograms named in `inner`
    /// (`(metric, nested-in)` pairs), drained from this thread. Returns the
    /// whole drained report (empty when off).
    pub fn close(
        &mut self,
        id: SpanId,
        inner: &[(&'static str, Option<&'static str>)],
    ) -> ObsReport {
        let Some(k) = id.0 else {
            return ObsReport::default();
        };
        self.spans[k].end_ns = self.epoch.elapsed().as_nanos() as u64;
        let report = obs::drain();
        self.spans[k].inner = inner
            .iter()
            .map(|&(name, within)| {
                let (count, total_ns) = hist_total(&report, name);
                Inner {
                    name,
                    count,
                    total_ns,
                    within,
                }
            })
            .collect();
        report
    }

    /// Run `f` as one call into a layer: when on, a span `name` with the
    /// `inner` obs totals attached (see [`Tracer::close`]).
    pub fn call<R>(
        &mut self,
        name: &'static str,
        parent: SpanId,
        inner: &[(&'static str, Option<&'static str>)],
        f: impl FnOnce() -> R,
    ) -> (R, ObsReport) {
        let id = self.open(name, parent);
        let r = f();
        (r, self.close(id, inner))
    }

    /// Spans of the unit being recorded.
    pub fn current(&self) -> RunSpans<'_> {
        RunSpans(self.spans.iter().filter(|s| s.unit == self.unit).collect())
    }

    /// Per span, the time its child spans and direct inner totals cover.
    fn covered_ns(&self) -> Vec<f64> {
        let mut covered: Vec<f64> = self.spans.iter().map(|s| s.nested_ns(None)).collect();
        for s in &self.spans {
            if let Some(p) = s.parent {
                covered[p] += s.dur_ns() as f64;
            }
        }
        covered
    }

    /// Every violation of span containment: a span's child spans plus its
    /// direct inner totals must not exceed its own duration, and inner
    /// totals nested in another inner total must not exceed that total.
    pub fn containment_violations(&self) -> Vec<String> {
        let mut bad = Vec::new();
        for (s, covered) in self.spans.iter().zip(self.covered_ns()) {
            if covered > s.dur_ns() as f64 {
                bad.push(format!(
                    "{} (unit {}): children {covered:.0} ns > span {} ns",
                    s.name,
                    s.unit,
                    s.dur_ns()
                ));
            }
            for outer in &s.inner {
                let nested = s.nested_ns(Some(outer.name));
                if nested > outer.total_ns {
                    bad.push(format!(
                        "{}/{} (unit {}): nested {nested:.0} ns > {:.0} ns",
                        s.name, outer.name, s.unit, outer.total_ns
                    ));
                }
            }
        }
        bad
    }

    /// All spans as JSON lines, self time included.
    pub fn to_jsonl(&self, run_id: &str) -> String {
        let mut out = String::new();
        for (k, (s, covered)) in self.spans.iter().zip(self.covered_ns()).enumerate() {
            let self_ns = s.dur_ns() as f64 - covered;
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            let inner: Vec<String> = s
                .inner
                .iter()
                .map(|i| {
                    format!(
                        "{{\"name\":\"{}\",\"count\":{},\"total_ns\":{},\"within\":{}}}",
                        i.name,
                        i.count,
                        i.total_ns,
                        i.within.map_or("null".to_string(), |w| format!("\"{w}\""))
                    )
                })
                .collect();
            let _ = writeln!(
                out,
                "{{\"run_id\":\"{run_id}\",\"unit\":{},\"id\":{k},\"parent\":{parent},\"name\":\"{}\",\
                 \"start_ns\":{},\"end_ns\":{},\"self_ns\":{self_ns},\"inner\":[{}]}}",
                s.unit,
                s.name,
                s.start_ns,
                s.end_ns,
                inner.join(",")
            );
        }
        out
    }
}

/// One unit's spans, with the sums the per-layer metrics are made of.
pub struct RunSpans<'a>(Vec<&'a Span>);

impl RunSpans<'_> {
    fn named<'s>(&'s self, name: &'s str) -> impl Iterator<Item = &'s Span> + 's {
        self.0.iter().copied().filter(move |s| s.name == name)
    }

    /// Durations of the spans `name`, ms.
    pub fn ms(&self, name: &str) -> Vec<f64> {
        self.named(name).map(|s| s.dur_ns() as f64 / 1e6).collect()
    }

    /// Total duration of the spans `name`, s.
    pub fn secs(&self, name: &str) -> f64 {
        self.named(name).map(|s| s.dur_ns() as f64).sum::<f64>() / 1e9
    }

    /// Total of the inner obs timing `inner` over the spans `name`, s.
    pub fn inner_secs(&self, name: &str, inner: &str) -> f64 {
        self.named(name).map(|s| s.inner_ns(inner)).sum::<f64>() / 1e9
    }

    /// Occurrences of the inner obs timing `inner` over the spans `name`.
    pub fn inner_count(&self, name: &str, inner: &str) -> f64 {
        self.named(name).map(|s| s.inner_count(inner)).sum::<u64>() as f64
    }
}

/// `(count, sum)` of the obs histogram `name` in `report` (zero if absent).
pub fn hist_total(report: &ObsReport, name: &'static str) -> (u64, f64) {
    let id = obs::metric(name);
    report
        .hists()
        .iter()
        .find(|(h, _)| *h == id)
        .map_or((0, 0.0), |(_, h)| (h.count, h.sum))
}
