//! The experiment suite: one reproducible runner per figure of the paper's
//! evaluation (§5).
//!
//! Every runner takes a [`Scale`] (quick vs full/paper scale) and a master
//! seed, fans independent repetitions out over threads, and returns a
//! [`FigureResult`] — a header plus numeric rows mirroring the series the
//! paper plots. The `figures` binary in `vcoord-bench` prints/persists
//! these; integration tests run them at tiny scale.
//!
//! See `DESIGN.md` for the figure-by-figure index and `EXPERIMENTS.md` for
//! recorded paper-vs-measured outcomes.

pub mod arms_figs;
pub mod attack_figs;
pub mod chaos_figs;
pub mod defense_figs;
pub mod extensions;
pub mod harness;
pub mod nps_figs;
pub mod registry;
pub mod vivaldi_figs;

pub use harness::Run;
pub use registry::{figure_ids, run_figure};

use vcoord_metrics::TimeSeries;

/// Experiment scale knobs.
///
/// `quick` keeps every figure under roughly a minute on a laptop while
/// preserving the paper's qualitative shapes; `full` is the paper-scale
/// configuration (1740 nodes, 10 repetitions).
#[derive(Debug, Clone)]
pub struct Scale {
    /// Nodes drawn from the synthesized 1740-node King-equivalent matrix.
    pub nodes: usize,
    /// Independent repetitions (the paper repeats each scenario 10×).
    pub repetitions: usize,
    /// Vivaldi: ticks before injection (clean convergence phase).
    pub vivaldi_warmup_ticks: u64,
    /// Vivaldi: ticks observed after injection.
    pub vivaldi_attack_ticks: u64,
    /// Vivaldi: metric sampling interval in ticks.
    pub vivaldi_record_every: u64,
    /// NPS: repositioning rounds before injection.
    pub nps_warmup_rounds: u64,
    /// NPS: rounds observed after injection.
    pub nps_attack_rounds: u64,
    /// NPS: metric sampling interval in rounds.
    pub nps_record_every: u64,
    /// Peer-sampling bound handed to `EvalPlan` (all pairs under this).
    pub eval_all_pairs_threshold: usize,
    /// Sampled peers per node above the threshold.
    pub eval_sample_peers: usize,
}

impl Scale {
    /// Laptop-friendly scale (default for the `figures` binary).
    pub fn quick() -> Scale {
        Scale {
            nodes: 400,
            repetitions: 3,
            vivaldi_warmup_ticks: 300,
            vivaldi_attack_ticks: 500,
            vivaldi_record_every: 10,
            nps_warmup_rounds: 25,
            nps_attack_rounds: 50,
            nps_record_every: 2,
            eval_all_pairs_threshold: 128,
            eval_sample_peers: 96,
        }
    }

    /// Paper scale: all 1740 nodes, 10 repetitions, long horizons.
    pub fn full() -> Scale {
        Scale {
            nodes: 1740,
            repetitions: 10,
            vivaldi_warmup_ticks: 2000,
            vivaldi_attack_ticks: 3000,
            vivaldi_record_every: 25,
            nps_warmup_rounds: 50,
            nps_attack_rounds: 100,
            nps_record_every: 2,
            eval_all_pairs_threshold: 256,
            eval_sample_peers: 128,
        }
    }

    /// Minimal scale for smoke tests (seconds, not minutes).
    pub fn smoke() -> Scale {
        Scale {
            nodes: 72,
            repetitions: 1,
            vivaldi_warmup_ticks: 80,
            vivaldi_attack_ticks: 120,
            vivaldi_record_every: 10,
            nps_warmup_rounds: 8,
            nps_attack_rounds: 16,
            nps_record_every: 2,
            eval_all_pairs_threshold: 128,
            eval_sample_peers: 48,
        }
    }
}

/// A regenerated figure: a table of rows mirroring the series the paper
/// plots, with column headers and free-form shape notes.
#[derive(Debug, Clone)]
pub struct FigureResult {
    /// Figure id, e.g. `"fig1"`.
    pub id: String,
    /// Human-readable title (matches the paper's caption).
    pub title: String,
    /// Column names; the first column is the x axis.
    pub columns: Vec<String>,
    /// Data rows.
    pub rows: Vec<Vec<f64>>,
    /// Shape-check annotations recorded by the runner.
    pub notes: Vec<String>,
}

impl FigureResult {
    /// Serialize as CSV (header + rows, `#`-prefixed notes at the top).
    pub fn to_csv(&self) -> String {
        let mut out = String::new();
        out.push_str(&format!("# {}: {}\n", self.id, self.title));
        for n in &self.notes {
            out.push_str(&format!("# note: {n}\n"));
        }
        out.push_str(&self.columns.join(","));
        out.push('\n');
        for row in &self.rows {
            let cells: Vec<String> = row.iter().map(|v| format!("{v:.6}")).collect();
            out.push_str(&cells.join(","));
            out.push('\n');
        }
        out
    }

    /// Render a compact, aligned text table (for terminal output).
    pub fn to_table(&self) -> String {
        let mut out = String::new();
        out.push_str(&format!("== {} — {} ==\n", self.id, self.title));
        out.push_str(&self.columns.join("\t"));
        out.push('\n');
        for row in &self.rows {
            let cells: Vec<String> = row.iter().map(|v| format!("{v:.4}")).collect();
            out.push_str(&cells.join("\t"));
            out.push('\n');
        }
        for n in &self.notes {
            out.push_str(&format!("note: {n}\n"));
        }
        out
    }
}

/// Average several same-shaped time series pointwise (they share tick
/// schedules because every repetition records on the same boundaries).
pub fn average_series(series: &[TimeSeries]) -> TimeSeries {
    let mut out = TimeSeries::new();
    let Some(first) = series.first() else {
        return out;
    };
    let len = series.iter().map(|s| s.len()).min().unwrap_or(0);
    for k in 0..len {
        let tick = first.points()[k].0;
        let mean = series.iter().map(|s| s.points()[k].1).sum::<f64>() / series.len() as f64;
        out.push(tick, mean);
    }
    out
}

/// Run `repetitions` independent jobs on a bounded pool of worker threads
/// and collect their results in repetition order. Used by every figure
/// runner; CPU-bound work, so plain scoped threads (see DESIGN.md
/// guide-conformance notes).
///
/// The pool is capped at [`vcoord_metrics::worker_threads`] — the machine's
/// available parallelism unless the `VCOORD_THREADS` override pins it (CI
/// and benches set the override so runs are reproducible on any core
/// count). Spawning one thread per repetition was fine at the paper's 10
/// repetitions, but over-subscribes badly once sweeps multiply the job
/// count. Workers pull repetition indices from a shared counter, so the cap
/// costs nothing when `repetitions` is small.
///
/// This is also the observability merge seam: when the `vcoord_obs` gated
/// plane is on, each worker drains its thread-local recorder after every
/// repetition (tagging the events with the repetition index) and the
/// coordinator absorbs the reports *in repetition order* — so per-figure
/// traces are byte-identical for any pool width, exactly like the figure
/// CSVs themselves.
pub fn run_repetitions<T, F>(repetitions: usize, f: F) -> Vec<T>
where
    T: Send,
    F: Fn(u64) -> T + Sync,
{
    use std::sync::atomic::{AtomicUsize, Ordering};

    let workers = repetition_pool_width(repetitions);
    let next = AtomicUsize::new(0);
    let mut results: Vec<Option<T>> = (0..repetitions).map(|_| None).collect();
    let mut reports: Vec<Option<vcoord_obs::ObsReport>> = (0..repetitions).map(|_| None).collect();
    std::thread::scope(|scope| {
        let handles: Vec<_> = (0..workers)
            .map(|_| {
                let f = &f;
                let next = &next;
                scope.spawn(move || {
                    let mut done = Vec::new();
                    // Leftovers from earlier work on this pool thread must
                    // not leak into the first repetition's report.
                    if vcoord_obs::enabled() {
                        vcoord_obs::reset();
                    }
                    loop {
                        let rep = next.fetch_add(1, Ordering::Relaxed);
                        if rep >= repetitions {
                            break;
                        }
                        let span = vcoord_obs::span(vcoord_obs::metric_id!("figure.rep_ns"));
                        let value = f(rep as u64);
                        drop(span);
                        let report = if vcoord_obs::enabled() {
                            let mut r = vcoord_obs::drain();
                            r.retag_rep(rep as i32);
                            Some(r)
                        } else {
                            None
                        };
                        done.push((rep, value, report));
                    }
                    done
                })
            })
            .collect();
        for h in handles {
            for (rep, value, report) in h.join().expect("repetition worker panicked") {
                results[rep] = Some(value);
                reports[rep] = report;
            }
        }
    });
    for report in reports.into_iter().flatten() {
        vcoord_obs::absorb(report);
    }
    results
        .into_iter()
        .map(|r| r.expect("all repetitions completed"))
        .collect()
}

/// Width of the [`run_repetitions`] pool for `repetitions` jobs — the
/// single source of truth shared with [`eval_thread_budget`].
pub fn repetition_pool_width(repetitions: usize) -> usize {
    vcoord_metrics::worker_threads().min(repetitions).max(1)
}

/// Leftover per-repetition thread budget for nested sweeps (the
/// [`EvalPlan`] snapshot path) running *inside* a [`run_repetitions`]
/// worker: the machine budget divided by the pool width, never zero.
/// Handing each repetition the full budget instead would multiply pools —
/// W×W scoped threads spawned per sample tick. The sweeps are bit-identical
/// for any worker count, so this is purely a scheduling choice.
///
/// [`EvalPlan`]: vcoord_metrics::EvalPlan
pub fn eval_thread_budget(repetitions: usize) -> usize {
    (vcoord_metrics::worker_threads() / repetition_pool_width(repetitions)).max(1)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn repetition_pool_and_eval_budget_partition_the_machine() {
        let total = vcoord_metrics::worker_threads();
        for reps in [1usize, 2, 3, 10, 1000] {
            let pool = repetition_pool_width(reps);
            let eval = eval_thread_budget(reps);
            assert!(pool >= 1 && eval >= 1);
            assert!(pool <= total.max(1));
            // The product never oversubscribes the budget (up to the
            // integer-division remainder kept by the final .max(1)).
            assert!(
                pool * eval <= total.max(1) || eval == 1,
                "pool={pool} eval={eval} total={total}"
            );
        }
    }

    #[test]
    fn csv_roundtrip_shape() {
        let fig = FigureResult {
            id: "figX".into(),
            title: "test".into(),
            columns: vec!["x".into(), "y".into()],
            rows: vec![vec![1.0, 2.0], vec![3.0, 4.0]],
            notes: vec!["shape holds".into()],
        };
        let csv = fig.to_csv();
        assert!(csv.contains("x,y"));
        assert!(csv.contains("1.000000,2.000000"));
        assert!(csv.contains("# note: shape holds"));
        assert!(fig.to_table().contains("figX"));
    }

    #[test]
    fn average_series_is_pointwise() {
        let mut a = TimeSeries::new();
        let mut b = TimeSeries::new();
        for t in 0..4 {
            a.push(t, t as f64);
            b.push(t, (t as f64) * 3.0);
        }
        let avg = average_series(&[a, b]);
        assert_eq!(avg.points()[2], (2, 4.0));
    }

    #[test]
    fn run_repetitions_preserves_order() {
        let out = run_repetitions(8, |rep| rep * 10);
        assert_eq!(out, vec![0, 10, 20, 30, 40, 50, 60, 70]);
    }

    #[test]
    fn run_repetitions_bounds_concurrency() {
        use std::sync::atomic::{AtomicUsize, Ordering};

        let cap = vcoord_metrics::worker_threads();
        let active = AtomicUsize::new(0);
        let peak = AtomicUsize::new(0);
        // Far more repetitions than cores: the pool must still finish, keep
        // order, and never run more jobs at once than the cap.
        let out = run_repetitions(4 * cap + 3, |rep| {
            let now = active.fetch_add(1, Ordering::SeqCst) + 1;
            peak.fetch_max(now, Ordering::SeqCst);
            std::thread::sleep(std::time::Duration::from_millis(1));
            active.fetch_sub(1, Ordering::SeqCst);
            rep
        });
        assert_eq!(out, (0..(4 * cap as u64 + 3)).collect::<Vec<_>>());
        assert!(
            peak.load(Ordering::SeqCst) <= cap,
            "worker pool exceeded available parallelism: {} > {cap}",
            peak.load(Ordering::SeqCst)
        );
    }

    #[test]
    fn scales_are_ordered() {
        assert!(Scale::smoke().nodes < Scale::quick().nodes);
        assert!(Scale::quick().nodes < Scale::full().nodes);
        assert_eq!(Scale::full().nodes, 1740);
        assert_eq!(Scale::full().repetitions, 10);
    }
}
