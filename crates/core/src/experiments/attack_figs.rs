//! Figure runners for the `attackkit` scenario families (beyond the
//! paper's evaluation): attack-strength sweeps of the generic strategies —
//! frog-boiling, oscillation, network partition, inflation, deflation —
//! against both Vivaldi and NPS, plus a drift-velocity study of
//! frog-boiling step sizes.
//!
//! Each sweep CSV reports, per malicious fraction and strategy, the
//! converged relative error of the honest population *and* its drift
//! velocity (mean coordinate displacement per round). The two metrics
//! separate the attack families: random/inflation lies blow the error up
//! immediately, while gradual attacks keep the error low at first and show
//! up as a steady non-zero drift — the signature any displacement-threshold
//! defence has to contend with.

use crate::experiments::harness::RunSpec;
use crate::experiments::{average_series, FigureResult, Scale};
use vcoord_attackkit::{
    AttackStrategy, Deflation, FrogBoiling, Inflation, NetworkPartition, Oscillation,
};
use vcoord_nps::NpsConfig;
use vcoord_space::Space;

/// The generic strategy labels swept by the attack figures, in CSV column
/// order.
pub const STRATEGIES: [&str; 5] = [
    "frog_boiling",
    "oscillation",
    "partition",
    "inflation",
    "deflation",
];

/// Malicious fractions swept by the attack-strength figures.
const FRACTIONS: [f64; 3] = [0.10, 0.30, 0.50];

/// Workspace-default instance of one generic strategy by label (shared
/// with the defense sweeps in `experiments::defense_figs`).
pub fn strategy_by(label: &str) -> Box<dyn AttackStrategy> {
    match label {
        "frog_boiling" => Box::new(FrogBoiling::default()),
        "oscillation" => Box::new(Oscillation::default()),
        "partition" => Box::new(NetworkPartition::default()),
        "inflation" => Box::new(Inflation::default()),
        "deflation" => Box::new(Deflation::default()),
        other => unreachable!("unknown attackkit strategy label {other}"),
    }
}

/// One attack-strength sweep row set: for each fraction, per-strategy
/// converged error and drift velocity, from `runner(strategy_label,
/// fraction) -> (err, drift)`.
fn sweep_rows<F>(runner: F) -> (Vec<String>, Vec<Vec<f64>>, Vec<String>)
where
    F: Fn(&str, f64) -> (f64, f64),
{
    let mut columns = vec!["fraction_pct".to_string()];
    for s in STRATEGIES {
        columns.push(format!("err_{s}"));
    }
    for s in STRATEGIES {
        columns.push(format!("drift_{s}"));
    }
    let mut rows = Vec::new();
    let mut notes = Vec::new();
    for &f in &FRACTIONS {
        let mut errs = Vec::new();
        let mut drifts = Vec::new();
        for s in STRATEGIES {
            let (e, d) = runner(s, f);
            errs.push(e);
            drifts.push(d);
        }
        let mut row = vec![f * 100.0];
        row.extend(errs.iter().copied());
        row.extend(drifts.iter().copied());
        rows.push(row);
        notes.push(format!(
            "{}% malicious: err frog {:.2} / osc {:.2} / part {:.2} / infl {:.2} / defl {:.2}; drift frog {:.2} / part {:.2} ms/round",
            (f * 100.0).round(),
            errs[0],
            errs[1],
            errs[2],
            errs[3],
            errs[4],
            drifts[0],
            drifts[2],
        ));
    }
    (columns, rows, notes)
}

/// Tail-mean of one series per run, averaged across repetitions — the
/// shared (error, drift) cell aggregation of the sweep figures (also used
/// by `experiments::defense_figs`).
pub(crate) fn mean_tails<'a, R: 'a>(
    runs: &'a [R],
    series: impl Fn(&'a R) -> &'a vcoord_metrics::TimeSeries,
) -> f64 {
    runs.iter().map(|r| series(r).tail_mean(3)).sum::<f64>() / runs.len().max(1) as f64
}

/// `atk-sweep-vivaldi` — attack-strength sweep of the generic strategies
/// against Vivaldi: converged relative error and drift velocity per
/// malicious fraction.
pub fn atk_sweep_vivaldi(scale: &Scale, seed: u64) -> FigureResult {
    let (columns, rows, notes) = sweep_rows(|label, fraction| {
        let runs = RunSpec::vivaldi(Space::Euclidean(2), scale.nodes, fraction, &|_, _, _| {
            (strategy_by(label), None)
        })
        .runs(scale, seed);
        (
            mean_tails(&runs, |r| &r.attack_series),
            mean_tails(&runs, |r| &r.drift_series),
        )
    });
    FigureResult {
        id: "atk-sweep-vivaldi".into(),
        title: "attackkit strategies on Vivaldi: error and drift velocity vs malicious share"
            .into(),
        columns,
        rows,
        notes,
    }
}

/// `atk-sweep-nps` — the same sweep against NPS (default 3-layer
/// hierarchy, security filter on).
pub fn atk_sweep_nps(scale: &Scale, seed: u64) -> FigureResult {
    let (columns, rows, notes) = sweep_rows(|label, fraction| {
        let runs = RunSpec::nps(NpsConfig::default(), scale.nodes, fraction, &|_, _, _| {
            (strategy_by(label), None)
        })
        .runs(scale, seed);
        (
            mean_tails(&runs, |r| &r.attack_series),
            mean_tails(&runs, |r| &r.drift_series),
        )
    });
    FigureResult {
        id: "atk-sweep-nps".into(),
        title: "attackkit strategies on NPS: error and drift velocity vs malicious share".into(),
        columns,
        rows,
        notes,
    }
}

/// `atk-frog-drift` — frog-boiling on Vivaldi: honest-population drift
/// velocity over time for several step sizes (30 % malicious).
///
/// The point of the attack is that the *victim-side* drift stays roughly
/// proportional to the configured step — small enough per round to pass
/// under displacement thresholds — while the offsets integrate without
/// bound.
pub fn atk_frog_drift(scale: &Scale, seed: u64) -> FigureResult {
    let steps = [1.0, 5.0, 25.0];
    let fraction = 0.30;
    let mut columns = vec!["tick".to_string()];
    let mut per_step = Vec::new();
    let mut notes = Vec::new();
    for &step in &steps {
        columns.push(format!("drift_step_{step:.0}ms"));
        let runs = RunSpec::vivaldi(Space::Euclidean(2), scale.nodes, fraction, &|_, _, _| {
            (Box::new(FrogBoiling::new(step)), None)
        })
        .runs(scale, seed);
        let drifts: Vec<_> = runs.iter().map(|r| r.drift_series.clone()).collect();
        let avg = average_series(&drifts);
        let errs = mean_tails(&runs, |r| &r.attack_series);
        notes.push(format!(
            "step {step} ms/round: steady drift {:.2} ms/tick, final error {errs:.2}",
            avg.tail_mean(3)
        ));
        per_step.push(avg);
    }
    let len = per_step.iter().map(|s| s.len()).min().unwrap_or(0);
    let rows: Vec<Vec<f64>> = (0..len)
        .map(|k| {
            let mut row = vec![per_step[0].points()[k].0 as f64];
            row.extend(per_step.iter().map(|s| s.points()[k].1));
            row
        })
        .collect();
    FigureResult {
        id: "atk-frog-drift".into(),
        title: "Frog-boiling on Vivaldi: drift velocity vs time by step size".into(),
        columns,
        rows,
        notes,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sweep_vivaldi_smoke_has_expected_shape() {
        let scale = Scale::smoke();
        let fig = atk_sweep_vivaldi(&scale, 7);
        assert_eq!(fig.id, "atk-sweep-vivaldi");
        assert_eq!(fig.columns.len(), 1 + 2 * STRATEGIES.len());
        assert_eq!(fig.rows.len(), FRACTIONS.len());
        for row in &fig.rows {
            assert_eq!(row.len(), fig.columns.len());
            assert!(row.iter().all(|v| v.is_finite()));
        }
        // Gradual attacks must produce non-zero drift at 50% malicious.
        let last = fig.rows.last().expect("rows");
        let drift_frog = last[1 + STRATEGIES.len()];
        assert!(drift_frog > 0.0, "frog-boiling drift missing: {last:?}");
    }

    #[test]
    fn frog_drift_smoke_tracks_time() {
        let scale = Scale::smoke();
        let fig = atk_frog_drift(&scale, 9);
        assert_eq!(fig.columns.len(), 4);
        assert!(!fig.rows.is_empty());
    }

    #[test]
    fn every_strategy_label_resolves() {
        for s in STRATEGIES {
            assert!(!strategy_by(s).label().is_empty());
        }
    }
}
