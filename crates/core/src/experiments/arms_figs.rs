//! Figure runners for the arms-race sweeps (`arms-*`): defense-aware
//! adaptive attackers against the defensekit detectors, on both systems.
//!
//! PR 4's `def-*` sweeps measured static attacks against static defenses
//! and crowned the drift cap — (FPR 0.00, TPR 0.95) against frog-boiling
//! at the 80 ms corner. The paper's central lesson (and the frog-boiling
//! literature after it) is that a published threshold is a target: these
//! figures measure the *next move* on each side.
//!
//! * `arms-sweep-vivaldi` / `arms-sweep-nps` — adaptive attacks
//!   (defense-modeling evasion, feedback-driven threshold probing,
//!   decay-timed sleeper bursts) crossed with the drift cap, its decaying
//!   variant, and the MAD filter.
//! * `arms-evasion-roc` — the headline: classic vs evading frog-boiling
//!   at *matched per-round budget* over a sweep of deployed cap values.
//!   The evader models the default 80 ms cap and throttles its drift to
//!   stay under it, collapsing the cap's TPR toward zero everywhere the
//!   deployment is at (or looser than) the modeled bound — detection
//!   survives only where the defender deployed a cap *tighter* than the
//!   attacker's model.
//! * `arms-decay-tradeoff` — reputation decay half-lives against the
//!   sleeper: forgiveness un-defames the honest nodes a tight cap trips
//!   during bursts (steady-state FPR falls) but re-admits the sleeper for
//!   every new burst (drift/error exposure rises). Permanent bans are the
//!   other corner: one burst is the last, at the price of every false
//!   positive being banned forever.

use crate::experiments::attack_figs::{mean_tails, strategy_by};
use crate::experiments::harness::{DefenseOutcome, RunSpec};
use crate::experiments::{FigureResult, Scale};
use vcoord_attackkit::{
    AttackStrategy, DefenseModel, EvadingFrogBoil, SleeperCollusion, ThresholdProbe,
};
use vcoord_defense::{DefenseStrategy, DriftCap, DriftDecay, ResidualOutlier};
use vcoord_metrics::Confusion;
use vcoord_nps::NpsConfig;
use vcoord_space::Space;

/// The adaptive attack labels swept by the `arms-sweep-*` figures, in CSV
/// column order. `frog_boiling` rides along as the non-adaptive baseline
/// every adaptive variant is judged against.
pub const ARMS_ATTACKS: [&str; 4] = ["frog_boiling", "evading_frog", "threshold_probe", "sleeper"];

/// The defense labels of the `arms-sweep-*` figures: the permanent-ban
/// drift cap, its decaying (forgiving) variant, and the MAD filter as the
/// error-magnitude baseline.
pub const ARMS_DEFENSES: [&str; 3] = ["drift_cap", "drift_cap_decay", "mad_outlier"];

/// Malicious fraction of the arms sweeps (matches the `def-*` sweeps).
const FRACTION: f64 = 0.30;

/// Half-life (rounds) of the sweeps' decaying drift cap — comfortably
/// inside even the smoke-scale attack window so forgiveness is observable.
const SWEEP_HALF_LIFE: f64 = 40.0;

/// Workspace-default instance of one adaptive attack by label.
pub fn arms_strategy_by(label: &str) -> Box<dyn AttackStrategy> {
    match label {
        // Classic baseline at the default 5 ms/round budget.
        "frog_boiling" => strategy_by("frog_boiling"),
        // Same 5 ms/round budget, throttled against the modeled default
        // cap — the matched-budget comparison the evasion ROC plots.
        "evading_frog" => Box::new(EvadingFrogBoil::default()),
        "threshold_probe" => Box::new(ThresholdProbe::default()),
        "sleeper" => Box::new(SleeperCollusion::default()),
        other => unreachable!("unknown arms attack label {other}"),
    }
}

/// Workspace-default instance of one arms-sweep defense by label.
pub fn arms_defense_by(label: &str) -> Box<dyn DefenseStrategy> {
    match label {
        "drift_cap" => Box::new(DriftCap::default()),
        "drift_cap_decay" => Box::new(DriftCap::with_decay(80.0, DriftDecay::new(SWEEP_HALF_LIFE))),
        "mad_outlier" => Box::new(ResidualOutlier::default()),
        other => unreachable!("unknown arms defense label {other}"),
    }
}

/// One (attack × defense) cell of an arms sweep, merged across
/// repetitions.
struct ArmsCell {
    err: f64,
    drift: f64,
    tpr: f64,
    fpr: f64,
    reinstated: f64,
}

/// Defense accounting merged across one cell's repetitions — the single
/// aggregation every arms figure reduces its runs through.
#[derive(Default)]
struct DefenseAgg {
    confusion: Confusion,
    bans: u64,
    reinstated: u64,
    banned_honest: u64,
    banned_malicious: u64,
}

fn aggregate_defense<'a>(outcomes: impl Iterator<Item = Option<&'a DefenseOutcome>>) -> DefenseAgg {
    let mut agg = DefenseAgg::default();
    for d in outcomes.flatten() {
        agg.confusion.merge(&d.confusion);
        agg.bans += d.bans;
        agg.reinstated += d.reinstated;
        agg.banned_honest += d.banned_honest_final;
        agg.banned_malicious += d.banned_malicious_final;
    }
    agg
}

fn vivaldi_arms_cell(
    scale: &Scale,
    seed: u64,
    attack: &'static str,
    defense: &'static str,
) -> ArmsCell {
    let runs = RunSpec::vivaldi(Space::Euclidean(2), scale.nodes, FRACTION, &|_, _, _| {
        (arms_strategy_by(attack), None)
    })
    .defense(&|_sim, _seeds| arms_defense_by(defense))
    .runs(scale, seed);
    let agg = aggregate_defense(runs.iter().map(|r| r.defense.as_ref()));
    ArmsCell {
        err: mean_tails(&runs, |r| &r.attack_series),
        drift: mean_tails(&runs, |r| &r.drift_series),
        tpr: agg.confusion.tpr().unwrap_or(0.0),
        fpr: agg.confusion.fpr().unwrap_or(0.0),
        reinstated: agg.reinstated as f64 / runs.len().max(1) as f64,
    }
}

fn nps_arms_cell(
    scale: &Scale,
    seed: u64,
    attack: &'static str,
    defense: &'static str,
) -> ArmsCell {
    let runs = RunSpec::nps(NpsConfig::default(), scale.nodes, FRACTION, &|_, _, _| {
        (arms_strategy_by(attack), None)
    })
    .defense(&|_sim, _seeds| arms_defense_by(defense))
    .runs(scale, seed);
    let agg = aggregate_defense(runs.iter().map(|r| r.defense.as_ref()));
    ArmsCell {
        err: mean_tails(&runs, |r| &r.attack_series),
        drift: mean_tails(&runs, |r| &r.drift_series),
        tpr: agg.confusion.tpr().unwrap_or(0.0),
        fpr: agg.confusion.fpr().unwrap_or(0.0),
        reinstated: agg.reinstated as f64 / runs.len().max(1) as f64,
    }
}

/// Assemble one arms sweep figure from `cell(attack, defense)`.
fn arms_sweep_figure(
    id: &str,
    title: &str,
    cell: impl Fn(&'static str, &'static str) -> ArmsCell,
) -> FigureResult {
    let mut columns = vec!["attack_idx".to_string()];
    for d in ARMS_DEFENSES {
        columns.push(format!("err_{d}"));
    }
    for d in ARMS_DEFENSES {
        columns.push(format!("drift_{d}"));
    }
    for d in ARMS_DEFENSES {
        columns.push(format!("tpr_{d}"));
    }
    for d in ARMS_DEFENSES {
        columns.push(format!("fpr_{d}"));
    }
    for d in ARMS_DEFENSES {
        columns.push(format!("reinstated_{d}"));
    }
    let mut rows = Vec::new();
    let mut notes = Vec::new();
    for (a_idx, attack) in ARMS_ATTACKS.iter().enumerate() {
        let cells: Vec<ArmsCell> = ARMS_DEFENSES.iter().map(|d| cell(attack, d)).collect();
        let mut row = vec![a_idx as f64];
        row.extend(cells.iter().map(|c| c.err));
        row.extend(cells.iter().map(|c| c.drift));
        row.extend(cells.iter().map(|c| c.tpr));
        row.extend(cells.iter().map(|c| c.fpr));
        row.extend(cells.iter().map(|c| c.reinstated));
        rows.push(row);
        notes.push(format!(
            "{attack}: drift-cap (err {:.2}, tpr {:.2}, fpr {:.2}); with decay (err {:.2}, \
             tpr {:.2}, reinstated {:.1}); mad (err {:.2}, tpr {:.2}, fpr {:.2})",
            cells[0].err,
            cells[0].tpr,
            cells[0].fpr,
            cells[1].err,
            cells[1].tpr,
            cells[1].reinstated,
            cells[2].err,
            cells[2].tpr,
            cells[2].fpr,
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

/// `arms-sweep-vivaldi` — adaptive attacks × (drift cap, decaying drift
/// cap, MAD filter) on Vivaldi at 30 % malicious.
pub fn arms_sweep_vivaldi(scale: &Scale, seed: u64) -> FigureResult {
    arms_sweep_figure(
        "arms-sweep-vivaldi",
        "Adaptive (defense-aware) attacks vs defenses on Vivaldi: error and detection quality",
        |attack, defense| vivaldi_arms_cell(scale, seed, attack, defense),
    )
}

/// `arms-sweep-nps` — the same matrix on NPS (default 3-layer hierarchy,
/// built-in security filter on).
pub fn arms_sweep_nps(scale: &Scale, seed: u64) -> FigureResult {
    arms_sweep_figure(
        "arms-sweep-nps",
        "Adaptive (defense-aware) attacks vs defenses on NPS: error and detection quality",
        |attack, defense| nps_arms_cell(scale, seed, attack, defense),
    )
}

/// `arms-evasion-roc` — classic vs evading frog-boiling at matched 5
/// ms/round budget, against drift caps swept over the deployed bound. The
/// evader models the *default* 80 ms cap; points where the deployment is
/// tighter than the model measure how wrong the attacker's belief may be
/// before evasion fails.
pub fn arms_evasion_roc(scale: &Scale, seed: u64) -> FigureResult {
    let caps = [10.0, 20.0, 40.0, 80.0, 160.0];
    let columns = vec![
        "point_idx".to_string(),
        "deployed_cap_ms".to_string(),
        "tpr_frog".to_string(),
        "fpr_frog".to_string(),
        "drift_frog".to_string(),
        "tpr_evading".to_string(),
        "fpr_evading".to_string(),
        "drift_evading".to_string(),
        "j_frog".to_string(),
        "j_evading".to_string(),
    ];
    let point = |attack: &'static str, cap: f64| {
        let runs = RunSpec::vivaldi(Space::Euclidean(2), scale.nodes, FRACTION, &|_, _, _| {
            (arms_strategy_by(attack), None)
        })
        .defense(&|_sim, _seeds| Box::new(DriftCap::new(cap)))
        .runs(scale, seed);
        let agg = aggregate_defense(runs.iter().map(|r| r.defense.as_ref()));
        (
            agg.confusion.tpr().unwrap_or(0.0),
            agg.confusion.fpr().unwrap_or(0.0),
            mean_tails(&runs, |r| &r.drift_series),
            agg.confusion.youden_j().unwrap_or(0.0),
        )
    };
    let mut rows = Vec::new();
    let mut notes = Vec::new();
    for (i, &cap) in caps.iter().enumerate() {
        let (f_tpr, f_fpr, f_drift, f_j) = point("frog_boiling", cap);
        let (e_tpr, e_fpr, e_drift, e_j) = point("evading_frog", cap);
        rows.push(vec![
            i as f64, cap, f_tpr, f_fpr, f_drift, e_tpr, e_fpr, e_drift, f_j, e_j,
        ]);
        notes.push(format!(
            "cap {cap} ms: classic frog tpr {f_tpr:.2} (drift {f_drift:.2} ms/tick), \
             evading frog tpr {e_tpr:.2} (drift {e_drift:.2} ms/tick) at matched 5 ms/round budget"
        ));
    }
    FigureResult {
        id: "arms-evasion-roc".into(),
        title: "Evasion vs the drift cap on Vivaldi: classic and defense-modeling frog-boiling \
                at matched budget"
            .into(),
        columns,
        rows,
        notes,
    }
}

/// `arms-evasion-learning` — the fixed-model evader vs the *learning*
/// evader ([`EvadingFrogBoil::learning`], PR 6's [`CapLearner`]) over the
/// same deployed-cap sweep as `arms-evasion-roc`. The fixed evader's
/// detectability is a cliff: wherever the deployment is tighter than its
/// hard-coded 80 ms belief, it walks straight into the cap. The learner
/// bisects its believed cap downward from defense feedback, recovering
/// evasion (TPR falls back toward the evader's floor) at deployments the
/// fixed model loses to — the arms race's next move after `def-roc`
/// published the threshold.
///
/// [`CapLearner`]: vcoord_attackkit::CapLearner
pub fn arms_evasion_learning(scale: &Scale, seed: u64) -> FigureResult {
    let caps = [10.0, 20.0, 40.0, 80.0, 160.0];
    let columns = vec![
        "point_idx".to_string(),
        "deployed_cap_ms".to_string(),
        "tpr_fixed".to_string(),
        "fpr_fixed".to_string(),
        "drift_fixed".to_string(),
        "tpr_learning".to_string(),
        "fpr_learning".to_string(),
        "drift_learning".to_string(),
        "err_fixed".to_string(),
        "err_learning".to_string(),
    ];
    let point = |learning: bool, cap: f64| {
        let runs = RunSpec::vivaldi(Space::Euclidean(2), scale.nodes, FRACTION, &|_, _, _| {
            let evader = if learning {
                EvadingFrogBoil::learning(5.0, DefenseModel::default())
            } else {
                EvadingFrogBoil::new(5.0, DefenseModel::default())
            };
            (Box::new(evader), None)
        })
        .defense(&|_sim, _seeds| Box::new(DriftCap::new(cap)))
        .runs(scale, seed);
        let agg = aggregate_defense(runs.iter().map(|r| r.defense.as_ref()));
        (
            agg.confusion.tpr().unwrap_or(0.0),
            agg.confusion.fpr().unwrap_or(0.0),
            mean_tails(&runs, |r| &r.drift_series),
            mean_tails(&runs, |r| &r.attack_series),
        )
    };
    let mut rows = Vec::new();
    let mut notes = Vec::new();
    for (i, &cap) in caps.iter().enumerate() {
        let (f_tpr, f_fpr, f_drift, f_err) = point(false, cap);
        let (l_tpr, l_fpr, l_drift, l_err) = point(true, cap);
        rows.push(vec![
            i as f64, cap, f_tpr, f_fpr, f_drift, l_tpr, l_fpr, l_drift, f_err, l_err,
        ]);
        notes.push(format!(
            "cap {cap} ms: fixed-model evader tpr {f_tpr:.2} (drift {f_drift:.2}), \
             learning evader tpr {l_tpr:.2} (drift {l_drift:.2}) — both believe 80 ms \
             at injection, only the learner revises"
        ));
    }
    FigureResult {
        id: "arms-evasion-learning".into(),
        title: "Learned evasion vs the drift cap on Vivaldi: fixed-model cliff against the \
                cap-learner's recovery over deployed bounds"
            .into(),
        columns,
        rows,
        notes,
    }
}

/// `arms-decay-tradeoff` — the sleeper against drift caps with reputation
/// decay at several half-lives (0 = permanent bans), on Vivaldi.
///
/// The cap is deliberately *tight* (40 ms): under burst drag some honest
/// laggards trip it, so permanence has a measurable defamation cost —
/// exactly the FPR-vs-exposure trade decay is supposed to navigate.
pub fn arms_decay_tradeoff(scale: &Scale, seed: u64) -> FigureResult {
    let half_lives = [0.0, 20.0, 40.0, 80.0];
    let cap = 40.0;
    let columns = vec![
        "point_idx".to_string(),
        "half_life_rounds".to_string(),
        "err".to_string(),
        "drift".to_string(),
        "tpr".to_string(),
        "fpr".to_string(),
        "bans".to_string(),
        "reinstated".to_string(),
        "banned_honest_final".to_string(),
        "banned_malicious_final".to_string(),
    ];
    let mut rows = Vec::new();
    let mut notes = Vec::new();
    for (i, &hl) in half_lives.iter().enumerate() {
        let runs = RunSpec::vivaldi(Space::Euclidean(2), scale.nodes, FRACTION, &|_, _, _| {
            (arms_strategy_by("sleeper"), None)
        })
        .defense(&|_sim, _seeds| -> Box<dyn DefenseStrategy> {
            if hl > 0.0 {
                Box::new(DriftCap::with_decay(cap, DriftDecay::new(hl)))
            } else {
                Box::new(DriftCap::new(cap))
            }
        })
        .runs(scale, seed);
        let agg = aggregate_defense(runs.iter().map(|r| r.defense.as_ref()));
        let n = runs.len().max(1) as f64;
        let err = mean_tails(&runs, |r| &r.attack_series);
        let drift = mean_tails(&runs, |r| &r.drift_series);
        let fpr = agg.confusion.fpr().unwrap_or(0.0);
        rows.push(vec![
            i as f64,
            hl,
            err,
            drift,
            agg.confusion.tpr().unwrap_or(0.0),
            fpr,
            agg.bans as f64 / n,
            agg.reinstated as f64 / n,
            agg.banned_honest as f64 / n,
            agg.banned_malicious as f64 / n,
        ]);
        notes.push(format!(
            "half-life {}: err {err:.2}, drift {drift:.2} ms/tick, fpr {fpr:.2}, \
             {:.1} bans / {:.1} reinstated per run, steady-state banned: \
             {:.1} honest / {:.1} malicious",
            if hl > 0.0 {
                format!("{hl:.0} rounds")
            } else {
                "none (permanent)".to_string()
            },
            agg.bans as f64 / n,
            agg.reinstated as f64 / n,
            agg.banned_honest as f64 / n,
            agg.banned_malicious as f64 / n,
        ));
    }
    FigureResult {
        id: "arms-decay-tradeoff".into(),
        title: "Sleeper collusion vs drift-cap reputation decay on Vivaldi: forgiveness \
                half-life against burst exposure"
            .into(),
        columns,
        rows,
        notes,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_arms_label_resolves() {
        for a in ARMS_ATTACKS {
            assert!(!arms_strategy_by(a).label().is_empty());
        }
        for d in ARMS_DEFENSES {
            assert!(!arms_defense_by(d).label().is_empty());
        }
    }

    #[test]
    fn evasion_collapses_drift_cap_detection_at_the_modeled_cap() {
        // The tentpole claim at harness level: at the deployed = modeled
        // 80 ms cap, the classic frog is caught near-perfectly while the
        // evader — same 5 ms/round budget — goes essentially undetected.
        let scale = Scale::smoke();
        let classic = vivaldi_arms_cell(&scale, 2006, "frog_boiling", "drift_cap");
        let evading = vivaldi_arms_cell(&scale, 2006, "evading_frog", "drift_cap");
        assert!(
            classic.tpr > 0.9,
            "classic frog must be caught: tpr {:.2}",
            classic.tpr
        );
        assert!(
            evading.tpr < 0.25,
            "the evader must collapse drift-cap detection: tpr {:.2}",
            evading.tpr
        );
        // And evasion is not free: the evader's realized drift undercuts
        // the classic frog's (the throttle is a real cost).
        assert!(evading.drift >= 0.0 && classic.drift >= 0.0);
    }

    #[test]
    fn decay_tradeoff_smoke_shape() {
        let scale = Scale::smoke();
        let fig = arms_decay_tradeoff(&scale, 7);
        assert_eq!(fig.id, "arms-decay-tradeoff");
        assert_eq!(fig.columns.len(), 10);
        assert_eq!(fig.rows.len(), 4);
        for row in &fig.rows {
            assert_eq!(row.len(), fig.columns.len());
            assert!(row.iter().all(|v| v.is_finite()));
        }
        // Permanent bans reinstate nobody; decaying caps do.
        assert_eq!(fig.rows[0][7], 0.0, "permanent: no reinstatements");
        assert!(
            fig.rows.iter().skip(1).any(|r| r[7] > 0.0),
            "some decaying half-life must reinstate: {:?}",
            fig.rows
        );
    }
}
