//! Figure runners for the defense/detection sweeps (`def-*`): every
//! attackkit strategy crossed with every defensekit strategy, on both
//! systems, plus a frog-boiling drift study and a ROC curve.
//!
//! The sweep surface answers the question the paper leaves open — *how
//! much attack does a defended system absorb?* — and makes the headline
//! claim measurable: error-based filters (MAD outlier rejection, EWMA
//! change-point detection) stop the loud attacks but are structurally
//! blind to frog-boiling, while the drift cap (a bound on the mean
//! *signed* residual a neighbor may sustain — the drag that actually moves
//! victims) catches it with a false-positive rate of zero on honest runs.
//!
//! Detection quality is graded node-level against attackkit's ground-truth
//! malicious set (see `harness::DETECTION_MIN_FLAGS`): TPR = flagged
//! malicious / all malicious, FPR = flagged honest / all honest.

use crate::experiments::attack_figs::{mean_tails, strategy_by, STRATEGIES};
use crate::experiments::harness::RunSpec;
use crate::experiments::{average_series, FigureResult, Scale};
use vcoord_defense::{
    DefenseStrategy, DriftCap, EwmaChangePoint, NoDefense, ResidualOutlier, TriangleCheck,
    TrustedBaseline,
};
use vcoord_metrics::Confusion;
use vcoord_nps::NpsConfig;
use vcoord_space::Space;

/// The defense labels swept by the `def-*` figures, in CSV column order.
pub const DEFENSES: [&str; 6] = [
    "none",
    "mad_outlier",
    "ewma_cpd",
    "drift_cap",
    "triangle",
    "trusted",
];

/// Malicious fraction of the attack×defense sweeps (the paper's standard
/// heavy-attack share).
const FRACTION: f64 = 0.30;

/// Workspace-default instance of one defense by label. `trusted` ids feed
/// the verified-set strategy; the other labels ignore them.
pub fn defense_by(label: &str, trusted: &[usize]) -> Box<dyn DefenseStrategy> {
    match label {
        "none" => Box::new(NoDefense),
        "mad_outlier" => Box::new(ResidualOutlier::default()),
        "ewma_cpd" => Box::new(EwmaChangePoint::default()),
        "drift_cap" => Box::new(DriftCap::default()),
        "triangle" => Box::new(TriangleCheck::default()),
        "trusted" => Box::new(TrustedBaseline::new(trusted.iter().copied())),
        other => unreachable!("unknown defensekit strategy label {other}"),
    }
}

/// Paper-style verified set for Vivaldi: the first tenth of the node ids
/// (at least 8) are declared infrastructure. Trust is an assumption, not
/// knowledge — the uniform attacker draw can and does hit this set.
fn vivaldi_trusted(n: usize) -> Vec<usize> {
    (0..n.div_ceil(10).max(8).min(n)).collect()
}

/// One (attack × defense) cell: converged honest error plus node-level
/// detection quality, merged across repetitions.
struct Cell {
    err: f64,
    tpr: f64,
    fpr: f64,
}

fn vivaldi_cell(scale: &Scale, seed: u64, attack: &'static str, defense: &'static str) -> Cell {
    let runs = RunSpec::vivaldi(Space::Euclidean(2), scale.nodes, FRACTION, &|_, _, _| {
        (strategy_by(attack), None)
    })
    .defense(&|sim, _seeds| defense_by(defense, &vivaldi_trusted(sim.coords().len())))
    .runs(scale, seed);
    let mut confusion = Confusion::new();
    for r in &runs {
        if let Some(d) = &r.defense {
            confusion.merge(&d.confusion);
        }
    }
    Cell {
        err: mean_tails(&runs, |r| &r.attack_series),
        tpr: confusion.tpr().unwrap_or(0.0),
        fpr: confusion.fpr().unwrap_or(0.0),
    }
}

fn nps_cell(scale: &Scale, seed: u64, attack: &'static str, defense: &'static str) -> Cell {
    let runs = RunSpec::nps(NpsConfig::default(), scale.nodes, FRACTION, &|_, _, _| {
        (strategy_by(attack), None)
    })
    .defense(&|sim, _seeds| {
        // The verified set NPS already postulates: the landmarks.
        let landmarks: Vec<usize> = sim
            .layers_of()
            .iter()
            .enumerate()
            .filter(|(_, &l)| l == 0)
            .map(|(i, _)| i)
            .collect();
        defense_by(defense, &landmarks)
    })
    .runs(scale, seed);
    let mut confusion = Confusion::new();
    for r in &runs {
        if let Some(d) = &r.defense {
            confusion.merge(&d.confusion);
        }
    }
    Cell {
        err: mean_tails(&runs, |r| &r.attack_series),
        tpr: confusion.tpr().unwrap_or(0.0),
        fpr: confusion.fpr().unwrap_or(0.0),
    }
}

/// Assemble one sweep figure from `cell(attack, defense)`.
fn sweep_figure(
    id: &str,
    title: &str,
    cell: impl Fn(&'static str, &'static str) -> Cell,
) -> FigureResult {
    let mut columns = vec!["attack_idx".to_string()];
    for d in DEFENSES {
        columns.push(format!("err_{d}"));
    }
    for d in DEFENSES.iter().skip(1) {
        columns.push(format!("tpr_{d}"));
    }
    for d in DEFENSES.iter().skip(1) {
        columns.push(format!("fpr_{d}"));
    }
    let mut rows = Vec::new();
    let mut notes = Vec::new();
    for (a_idx, attack) in STRATEGIES.iter().enumerate() {
        let cells: Vec<Cell> = DEFENSES.iter().map(|d| cell(attack, d)).collect();
        let mut row = vec![a_idx as f64];
        row.extend(cells.iter().map(|c| c.err));
        row.extend(cells.iter().skip(1).map(|c| c.tpr));
        row.extend(cells.iter().skip(1).map(|c| c.fpr));
        rows.push(row);
        // Best real defense by error, with its detection quality.
        let (best_idx, best) = cells
            .iter()
            .enumerate()
            .skip(1)
            .min_by(|a, b| a.1.err.partial_cmp(&b.1.err).unwrap())
            .expect("non-empty defense set");
        notes.push(format!(
            "{attack}: undefended err {:.2}; best defense {} (err {:.2}, tpr {:.2}, fpr {:.2}); drift-cap tpr {:.2}",
            cells[0].err,
            DEFENSES[best_idx],
            best.err,
            best.tpr,
            best.fpr,
            cells[3].tpr,
        ));
    }
    FigureResult {
        id: id.into(),
        title: title.into(),
        columns,
        rows,
        notes,
    }
}

/// `def-sweep-vivaldi` — the full attack×defense matrix on Vivaldi at 30 %
/// malicious: converged honest error per cell plus node-level TPR/FPR per
/// defense.
pub fn def_sweep_vivaldi(scale: &Scale, seed: u64) -> FigureResult {
    sweep_figure(
        "def-sweep-vivaldi",
        "defensekit strategies vs attackkit strategies on Vivaldi: error and detection quality",
        |attack, defense| vivaldi_cell(scale, seed, attack, defense),
    )
}

/// `def-sweep-nps` — the same matrix on NPS (default 3-layer hierarchy,
/// built-in security filter on, defense layered on top).
pub fn def_sweep_nps(scale: &Scale, seed: u64) -> FigureResult {
    sweep_figure(
        "def-sweep-nps",
        "defensekit strategies vs attackkit strategies on NPS: error and detection quality",
        |attack, defense| nps_cell(scale, seed, attack, defense),
    )
}

/// `def-frog-drift` — frog-boiling on Vivaldi (30 % malicious) under no
/// defense, the MAD outlier filter, and the drift cap: honest-population
/// drift velocity and error over time.
///
/// The point of the figure: the residual filter can only touch the drift
/// by cascading — as the attack degrades the embedding, honest residuals
/// overflow a threshold calibrated on the shrinking accepted population,
/// and the filter ends up rejecting half the honest nodes' samples (the
/// paper's figure-20/22 filter inversion, against a generic filter). The
/// drift cap reaches the same drift reduction by banning exactly the
/// colluders — the *integrated* directed pull is what it bounds — at a
/// false-positive rate of zero.
pub fn def_frog_drift(scale: &Scale, seed: u64) -> FigureResult {
    let defenses: [&'static str; 3] = ["none", "mad_outlier", "drift_cap"];
    let mut columns = vec!["tick".to_string()];
    for d in defenses {
        columns.push(format!("drift_{d}"));
    }
    for d in defenses {
        columns.push(format!("err_{d}"));
    }
    let mut drift_avgs = Vec::new();
    let mut err_avgs = Vec::new();
    let mut notes = Vec::new();
    for defense in defenses {
        let runs = RunSpec::vivaldi(Space::Euclidean(2), scale.nodes, FRACTION, &|_, _, _| {
            (strategy_by("frog_boiling"), None)
        })
        .defense(&|sim, _seeds| defense_by(defense, &vivaldi_trusted(sim.coords().len())))
        .runs(scale, seed);
        let drifts: Vec<_> = runs.iter().map(|r| r.drift_series.clone()).collect();
        let errs: Vec<_> = runs.iter().map(|r| r.attack_series.clone()).collect();
        let mut confusion = Confusion::new();
        let mut rejected = 0u64;
        for r in &runs {
            if let Some(d) = &r.defense {
                confusion.merge(&d.confusion);
                rejected += d.rejected;
            }
        }
        let drift_avg = average_series(&drifts);
        notes.push(format!(
            "{defense}: steady drift {:.2} ms/tick, final err {:.2}, tpr {:.2}, fpr {:.2}, {} rejections",
            drift_avg.tail_mean(3),
            mean_tails(&runs, |r| &r.attack_series),
            confusion.tpr().unwrap_or(0.0),
            confusion.fpr().unwrap_or(0.0),
            rejected,
        ));
        drift_avgs.push(drift_avg);
        err_avgs.push(average_series(&errs));
    }
    let len = drift_avgs
        .iter()
        .chain(&err_avgs)
        .map(|s| s.len())
        .min()
        .unwrap_or(0);
    let rows: Vec<Vec<f64>> = (0..len)
        .map(|k| {
            let mut row = vec![drift_avgs[0].points()[k].0 as f64];
            row.extend(drift_avgs.iter().map(|s| s.points()[k].1));
            row.extend(err_avgs.iter().map(|s| s.points()[k].1));
            row
        })
        .collect();
    FigureResult {
        id: "def-frog-drift".into(),
        title: "Frog-boiling vs defenses on Vivaldi: drift velocity and error over time".into(),
        columns,
        rows,
        notes,
    }
}

/// `def-roc` — detection ROC points under frog-boiling on Vivaldi (30 %
/// malicious): the drift cap swept over its drag threshold next to the MAD
/// filter swept over its `k`, each point one (FPR, TPR) pair.
///
/// The expected shape is the tentpole claim in one figure: the drift-cap
/// curve reaches the top-left corner (full detection at zero false
/// positives) while the MAD curve hugs the floor at every threshold —
/// frog-boiling is invisible to error-magnitude detection at any
/// sensitivity.
pub fn def_roc(scale: &Scale, seed: u64) -> FigureResult {
    let caps = [10.0, 20.0, 40.0, 80.0, 160.0];
    let ks = [1.0, 2.0, 3.0, 4.0, 6.0];
    let point = |strategy_for: &(dyn Fn() -> Box<dyn DefenseStrategy> + Sync)| {
        let runs = RunSpec::vivaldi(Space::Euclidean(2), scale.nodes, FRACTION, &|_, _, _| {
            (strategy_by("frog_boiling"), None)
        })
        .defense(&|_sim, _seeds| strategy_for())
        .runs(scale, seed);
        let mut confusion = Confusion::new();
        for r in &runs {
            if let Some(d) = &r.defense {
                confusion.merge(&d.confusion);
            }
        }
        (
            confusion.tpr().unwrap_or(0.0),
            confusion.fpr().unwrap_or(0.0),
        )
    };
    let columns = vec![
        "point_idx".to_string(),
        "drift_cap_ms".to_string(),
        "tpr_drift_cap".to_string(),
        "fpr_drift_cap".to_string(),
        "mad_k".to_string(),
        "tpr_mad".to_string(),
        "fpr_mad".to_string(),
    ];
    let mut rows = Vec::new();
    let mut notes = Vec::new();
    for i in 0..caps.len() {
        let cap = caps[i];
        let k = ks[i];
        let (dr_tpr, dr_fpr) = point(&move || Box::new(DriftCap::new(cap)));
        let (mad_tpr, mad_fpr) = point(&move || Box::new(ResidualOutlier::new(12, k)));
        rows.push(vec![i as f64, cap, dr_tpr, dr_fpr, k, mad_tpr, mad_fpr]);
        notes.push(format!(
            "cap {cap} ms: drift-cap ({dr_fpr:.2}, {dr_tpr:.2}); mad k={k}: ({mad_fpr:.2}, {mad_tpr:.2}) as (fpr, tpr)"
        ));
    }
    FigureResult {
        id: "def-roc".into(),
        title: "Frog-boiling detection ROC on Vivaldi: drift cap vs MAD outlier filter".into(),
        columns,
        rows,
        notes,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_defense_label_resolves() {
        for d in DEFENSES {
            assert!(!defense_by(d, &[0, 1]).label().is_empty());
        }
    }

    #[test]
    fn vivaldi_trusted_is_small_but_nonempty() {
        assert_eq!(vivaldi_trusted(400).len(), 40);
        assert_eq!(vivaldi_trusted(72).len(), 8);
        assert_eq!(vivaldi_trusted(4).len(), 4, "clamped to the population");
    }

    #[test]
    fn frog_drift_figure_shows_drift_cap_mitigation() {
        let scale = Scale::smoke();
        let fig = def_frog_drift(&scale, 7);
        assert_eq!(fig.id, "def-frog-drift");
        assert_eq!(fig.columns.len(), 7);
        assert!(!fig.rows.is_empty());
        for row in &fig.rows {
            assert_eq!(row.len(), fig.columns.len());
            assert!(row.iter().all(|v| v.is_finite()));
        }
        // Tail drift: the drift cap must beat no-defense decisively.
        let tail: Vec<&Vec<f64>> = fig.rows.iter().rev().take(3).collect();
        let tail_mean =
            |col: usize| -> f64 { tail.iter().map(|r| r[col]).sum::<f64>() / tail.len() as f64 };
        let (drift_none, drift_cap) = (tail_mean(1), tail_mean(3));
        assert!(
            drift_cap < drift_none * 0.5,
            "drift cap must kill the drift: none {drift_none:.2} vs capped {drift_cap:.2}"
        );
    }

    #[test]
    fn drift_cap_detects_frog_cleanly_where_mad_pays_collateral() {
        // The tentpole claim, asserted at the harness level: under
        // frog-boiling the drift cap separates colluders from honest
        // nodes (high TPR, zero FPR), while the MAD filter — whatever it
        // does to the drift — cannot act without defaming a substantial
        // share of the dragged honest population.
        let scale = Scale::smoke();
        let frog = vivaldi_cell(&scale, 2006, "frog_boiling", "drift_cap");
        assert!(frog.tpr > 0.9, "drift cap tpr {:.2}", frog.tpr);
        assert_eq!(frog.fpr, 0.0, "drift cap must not defame honest nodes");
        let mad = vivaldi_cell(&scale, 2006, "frog_boiling", "mad_outlier");
        assert!(
            mad.fpr > 0.2,
            "error-based filtering under frog-boiling acts only via honest \
             collateral (the fig-20/22 inversion): fpr {:.2}",
            mad.fpr
        );
    }

    #[test]
    fn roc_figure_shape() {
        let scale = Scale::smoke();
        let fig = def_roc(&scale, 7);
        assert_eq!(fig.columns.len(), 7);
        assert_eq!(fig.rows.len(), 5);
        for row in &fig.rows {
            for v in &row[2..4] {
                assert!((0.0..=1.0).contains(v), "rates in [0,1]: {row:?}");
            }
        }
    }
}
