//! Per-run drivers: converge a clean system, inject an attack, record.
//!
//! Both drivers follow the paper's *injection* protocol (§5.2): the system
//! first converges cleanly (warm-up), the malicious population is then
//! selected at random and activated, and metrics are recorded before and
//! after. Every run is fully determined by `(master_seed, repetition)`.

use crate::experiments::Scale;
use vcoord_attackkit::AttackStrategy;
use vcoord_chaos::{ChaosCounters, ChaosPlan};
use vcoord_defense::{DefenseStats, DefenseStrategy};
use vcoord_metrics::{random_baseline_with, Confusion, EvalPlan, FilterLedger, TimeSeries};
use vcoord_netsim::SeedStream;
use vcoord_nps::{NpsConfig, NpsSim};
use vcoord_space::{Coord, Space};
use vcoord_topo::{KingLike, KingLikeConfig};
use vcoord_vivaldi::{VivaldiConfig, VivaldiSim};

/// The random-coordinate interval of the paper's worst-case baseline.
pub const RANDOM_RANGE: f64 = 50_000.0;

/// Flag events a node must accumulate before the harness counts it as
/// *detected* when grading verdicts into a [`Confusion`]: sample-level
/// filters (MAD, EWMA) throw occasional single rejections at honest nodes
/// under noise, so node-level detection requires persistence.
pub const DETECTION_MIN_FLAGS: u64 = 3;

/// Minimum share of a node's inspected samples that must be flagged (on
/// top of [`DETECTION_MIN_FLAGS`]) — the count floor alone stops
/// separating honest tail-noise from real detections as runs get longer.
pub const DETECTION_MIN_RATE: f64 = 0.08;

/// What a deployed defense did during the attack window, graded against
/// attackkit's ground-truth malicious set after the run.
#[derive(Debug, Clone)]
pub struct DefenseOutcome {
    /// The strategy's label.
    pub label: String,
    /// Samples accepted unchanged.
    pub accepted: u64,
    /// Samples rejected.
    pub rejected: u64,
    /// Samples dampened below full strength.
    pub dampened: u64,
    /// Node-level ban events routed through the reputation channel.
    pub bans: u64,
    /// Node-level reinstatements (non-zero only for decaying defenses).
    pub reinstated: u64,
    /// Honest nodes still banned when the run ended — the steady-state
    /// defamation cost a permanently-banning defense accumulates and a
    /// decaying one sheds.
    pub banned_honest_final: u64,
    /// Malicious nodes still banned when the run ended.
    pub banned_malicious_final: u64,
    /// Samples quarantined by provenance (readmission-lease evidence that
    /// was judged but never recorded — see `vcoord_defense::Provenance`).
    pub quarantined: u64,
    /// Node-level detection quality at [`DETECTION_MIN_FLAGS`].
    pub confusion: Confusion,
    /// Rejections per recording interval (the defense's activity trace).
    pub reject_series: TimeSeries,
}

impl DefenseOutcome {
    fn grade(
        label: &str,
        stats: &DefenseStats,
        malicious: &[bool],
        banned_now: &[usize],
        reject_series: TimeSeries,
    ) -> DefenseOutcome {
        let banned_malicious_final = banned_now
            .iter()
            .filter(|&&n| malicious.get(n).copied().unwrap_or(false))
            .count() as u64;
        DefenseOutcome {
            label: label.to_string(),
            accepted: stats.accepted,
            rejected: stats.rejected,
            dampened: stats.dampened,
            bans: stats.bans,
            reinstated: stats.reinstated,
            banned_honest_final: banned_now.len() as u64 - banned_malicious_final,
            banned_malicious_final,
            quarantined: stats.quarantined,
            confusion: stats.confusion_rated(malicious, DETECTION_MIN_FLAGS, DETECTION_MIN_RATE),
            reject_series,
        }
    }
}

/// Outcome of one Vivaldi attack run.
#[derive(Debug, Clone)]
pub struct VivaldiRun {
    /// Average relative error of (eventually honest) nodes, sampled during
    /// warm-up.
    pub clean_series: TimeSeries,
    /// Average relative error of honest nodes after injection.
    pub attack_series: TimeSeries,
    /// Converged clean error (tail mean of the warm-up series) — the
    /// denominator of the paper's *error ratio*.
    pub clean_ref: f64,
    /// Per-honest-node relative errors at the end of the run (CDF input).
    pub final_errors: Vec<f64>,
    /// Error of the focus set (e.g. the isolation target), when tracked.
    pub focus_series: Option<TimeSeries>,
    /// Mean honest-node coordinate displacement per tick during the attack
    /// window (ms/tick) — the *drift velocity* gradual attacks maximize
    /// while staying under displacement thresholds.
    pub drift_series: TimeSeries,
    /// Average error of the random-coordinate baseline on this topology.
    pub random_baseline: f64,
    /// Number of attackers injected.
    pub attackers: usize,
    /// What the deployed defense did, when one was deployed.
    pub defense: Option<DefenseOutcome>,
    /// Fault-injection accounting, when a chaos plan was installed.
    pub chaos: Option<ChaosCounters>,
}

/// Builds the adversary once the attacker set is known. Returns the boxed
/// strategy plus an optional *focus set* of nodes whose error the harness
/// should track separately (isolation targets, designated victims).
pub type VivaldiFactory<'a> = &'a (dyn Fn(&mut VivaldiSim, &[usize], &SeedStream) -> (Box<dyn AttackStrategy>, Option<Vec<usize>>)
         + Sync);

/// Builds the fault-injection plan installed at the injection instant.
/// Like defense factories, chaos factories see the converged system (for
/// structural targeting — landmark ids, system size) and the seed stream;
/// plan times are milliseconds *after installation*.
pub type VivaldiChaosFactory<'a> = &'a (dyn Fn(&VivaldiSim, &SeedStream) -> ChaosPlan + Sync);

/// Chaos-plan factory for NPS runs (see [`VivaldiChaosFactory`]).
pub type NpsChaosFactory<'a> = &'a (dyn Fn(&NpsSim, &SeedStream) -> ChaosPlan + Sync);

/// Builds the defense to deploy at injection time. Unlike the adversary
/// factories this one never sees the attacker set — a defense that knew
/// ground truth would be cheating — only the converged system (for
/// structural configuration like trusted sets) and the seed stream.
pub type VivaldiDefenseFactory<'a> =
    &'a (dyn Fn(&VivaldiSim, &SeedStream) -> Box<dyn DefenseStrategy> + Sync);

/// Defense factory for NPS runs (see [`VivaldiDefenseFactory`]).
pub type NpsDefenseFactory<'a> =
    &'a (dyn Fn(&NpsSim, &SeedStream) -> Box<dyn DefenseStrategy> + Sync);

/// Thread budget for per-tick `EvalPlan` sweeps inside one repetition —
/// see [`eval_thread_budget`](crate::experiments::eval_thread_budget).
fn eval_threads(scale: &Scale) -> usize {
    crate::experiments::eval_thread_budget(scale.repetitions)
}

/// Mean displacement per round of `nodes` between `prev` (updated in
/// place) and their current coordinates — the drift-velocity sample.
fn drift_sample(
    nodes: &[usize],
    prev: &mut [Coord],
    coords: &[Coord],
    space: &Space,
    rounds: u64,
) -> f64 {
    let mut total = 0.0;
    for (k, &i) in nodes.iter().enumerate() {
        total += space.distance(&coords[i], &prev[k]);
        prev[k] = coords[i].clone();
    }
    total / (nodes.len().max(1) as f64 * rounds.max(1) as f64)
}

/// Run one Vivaldi injection experiment.
///
/// `nodes` overrides `scale.nodes` (system-size sweeps); `fraction` is the
/// malicious share of the population.
#[allow(clippy::too_many_arguments)]
pub fn run_vivaldi(
    scale: &Scale,
    space: Space,
    nodes: usize,
    fraction: f64,
    master_seed: u64,
    rep: u64,
    factory: VivaldiFactory<'_>,
) -> VivaldiRun {
    run_vivaldi_defended(
        scale,
        space,
        nodes,
        fraction,
        master_seed,
        rep,
        factory,
        None,
    )
}

/// [`run_vivaldi`] with a defense deployed at injection time (on the
/// converged system, the moment the attack goes live) — the attack×defense
/// sweep driver. With `defense: None` this *is* `run_vivaldi`: the
/// undefended path is untouched.
#[allow(clippy::too_many_arguments)]
pub fn run_vivaldi_defended(
    scale: &Scale,
    space: Space,
    nodes: usize,
    fraction: f64,
    master_seed: u64,
    rep: u64,
    factory: VivaldiFactory<'_>,
    defense: Option<VivaldiDefenseFactory<'_>>,
) -> VivaldiRun {
    run_vivaldi_chaos(
        scale,
        space,
        nodes,
        fraction,
        master_seed,
        rep,
        factory,
        defense,
        None,
    )
}

/// [`run_vivaldi_defended`] with a fault-injection plan installed at the
/// injection instant — the chaos-sweep driver. With `chaos: None` the sim
/// never allocates chaos state and this *is* `run_vivaldi_defended` (the
/// chaos-off inertness property pinned by `tests/chaos_properties.rs`).
#[allow(clippy::too_many_arguments)]
pub fn run_vivaldi_chaos(
    scale: &Scale,
    space: Space,
    nodes: usize,
    fraction: f64,
    master_seed: u64,
    rep: u64,
    factory: VivaldiFactory<'_>,
    defense: Option<VivaldiDefenseFactory<'_>>,
    chaos: Option<VivaldiChaosFactory<'_>>,
) -> VivaldiRun {
    let seeds = SeedStream::new(master_seed).derive_indexed("vivaldi-rep", rep);
    let matrix = KingLike::new(KingLikeConfig::with_nodes(nodes)).generate(&mut seeds.rng("topo"));
    let config = VivaldiConfig::in_space(space);
    let mut sim = VivaldiSim::new(matrix, config, &seeds);
    let threads = eval_threads(scale);

    let all: Vec<usize> = (0..nodes).collect();
    let mut plan_rng = seeds.rng("eval-plan");
    let plan_all = EvalPlan::with_params(
        &all,
        scale.eval_all_pairs_threshold,
        scale.eval_sample_peers,
        &mut plan_rng,
    );

    // Warm-up: converge cleanly, recording the reference series.
    let mut clean_series = TimeSeries::new();
    let mut t = 0;
    while t < scale.vivaldi_warmup_ticks {
        sim.run_ticks(scale.vivaldi_record_every);
        t += scale.vivaldi_record_every;
        clean_series.push(
            sim.now_ticks(),
            plan_all.avg_error_with(sim.coords(), sim.space(), sim.matrix(), threads),
        );
    }
    let clean_ref = clean_series.tail_mean(5).max(1e-6);

    // Injection — and, in the same instant, defense deployment: the sweep
    // measures how a converged, defended system absorbs a fresh attack.
    let attackers = sim.pick_attackers(fraction);
    let n_attackers = attackers.len();
    let (adversary, focus) = factory(&mut sim, &attackers, &seeds);
    sim.inject_adversary(&attackers, adversary);
    if let Some(build) = defense {
        let strategy = build(&sim, &seeds);
        sim.deploy_defense(strategy);
    }
    if let Some(build) = chaos {
        let plan = build(&sim, &seeds);
        sim.install_chaos(plan);
    }

    // Honest-population evaluation plan (the paper measures victims).
    let honest = sim.honest_nodes();
    let plan_honest = EvalPlan::with_params(
        &honest,
        scale.eval_all_pairs_threshold,
        scale.eval_sample_peers,
        &mut plan_rng,
    );
    let focus_indices: Option<Vec<usize>> = focus.as_ref().map(|f| {
        f.iter()
            .filter_map(|id| plan_honest.nodes().iter().position(|&n| n == *id))
            .collect()
    });

    let mut attack_series = TimeSeries::new();
    let mut drift_series = TimeSeries::new();
    let mut reject_series = TimeSeries::new();
    let mut rejected_so_far = 0u64;
    let mut focus_series = focus_indices.as_ref().map(|_| TimeSeries::new());
    let mut final_errors: Vec<f64> = Vec::new();
    let mut prev_coords: Vec<Coord> = plan_honest
        .nodes()
        .iter()
        .map(|&i| sim.coords()[i].clone())
        .collect();
    let mut t = 0;
    while t < scale.vivaldi_attack_ticks {
        sim.run_ticks(scale.vivaldi_record_every);
        t += scale.vivaldi_record_every;
        let errs =
            plan_honest.per_node_errors_with(sim.coords(), sim.space(), sim.matrix(), threads);
        let avg = errs.iter().sum::<f64>() / errs.len().max(1) as f64;
        attack_series.push(sim.now_ticks(), avg);
        drift_series.push(
            sim.now_ticks(),
            drift_sample(
                plan_honest.nodes(),
                &mut prev_coords,
                sim.coords(),
                sim.space(),
                scale.vivaldi_record_every,
            ),
        );
        if let Some(stats) = sim.defense_stats() {
            reject_series.push(sim.now_ticks(), (stats.rejected - rejected_so_far) as f64);
            rejected_so_far = stats.rejected;
        }
        if let (Some(fs), Some(fi)) = (focus_series.as_mut(), focus_indices.as_ref()) {
            let favg = fi.iter().map(|&k| errs[k]).sum::<f64>() / fi.len().max(1) as f64;
            fs.push(sim.now_ticks(), favg);
        }
        final_errors = errs;
    }

    let banned_now: Vec<usize> = sim
        .quarantined()
        .iter()
        .enumerate()
        .filter(|(_, &q)| q)
        .map(|(i, _)| i)
        .collect();
    let defense_outcome = sim.defense().map(|d| {
        DefenseOutcome::grade(
            d.label(),
            d.stats(),
            sim.malicious(),
            &banned_now,
            reject_series,
        )
    });

    let random_baseline = random_baseline_with(
        &plan_honest,
        sim.space(),
        sim.matrix(),
        RANDOM_RANGE,
        &mut seeds.rng("random-baseline"),
        threads,
    );

    VivaldiRun {
        clean_series,
        attack_series,
        clean_ref,
        final_errors,
        focus_series,
        drift_series,
        random_baseline,
        attackers: n_attackers,
        defense: defense_outcome,
        chaos: sim.chaos_counters().copied(),
    }
}

/// Outcome of one NPS attack run.
#[derive(Debug, Clone)]
pub struct NpsRun {
    /// Average relative error during warm-up.
    pub clean_series: TimeSeries,
    /// Average relative error of honest ordinary nodes after injection.
    pub attack_series: TimeSeries,
    /// Converged clean error (ratio denominator).
    pub clean_ref: f64,
    /// Per-honest-node errors at the end (CDF input), in eval-plan order.
    pub final_errors: Vec<f64>,
    /// Per-layer average error series (layer, series) — figure 25.
    pub layer_series: Vec<(u8, TimeSeries)>,
    /// Error of the focus set (designated victims), when tracked.
    pub focus_series: Option<TimeSeries>,
    /// Mean honest-node coordinate displacement per repositioning round
    /// during the attack window (ms/round) — the drift velocity.
    pub drift_series: TimeSeries,
    /// Security-filter events attributable to the attack window.
    pub ledger: FilterLedger,
    /// Probe-threshold eliminations during the attack window.
    pub threshold_ledger: FilterLedger,
    /// Average error of the random-coordinate baseline on this topology.
    pub random_baseline: f64,
    /// Number of attackers injected.
    pub attackers: usize,
    /// What the deployed defense did, when one was deployed.
    pub defense: Option<DefenseOutcome>,
    /// Fault-injection accounting, when a chaos plan was installed.
    pub chaos: Option<ChaosCounters>,
}

/// Adversary factory for NPS runs (see [`VivaldiFactory`]).
pub type NpsFactory<'a> = &'a (dyn Fn(&mut NpsSim, &[usize], &SeedStream) -> (Box<dyn AttackStrategy>, Option<Vec<usize>>)
         + Sync);

/// Run one NPS injection experiment.
#[allow(clippy::too_many_arguments)]
pub fn run_nps(
    scale: &Scale,
    config: NpsConfig,
    nodes: usize,
    fraction: f64,
    master_seed: u64,
    rep: u64,
    factory: NpsFactory<'_>,
) -> NpsRun {
    run_nps_defended(
        scale,
        config,
        nodes,
        fraction,
        master_seed,
        rep,
        factory,
        None,
    )
}

/// [`run_nps`] with a defense deployed at injection time (see
/// [`run_vivaldi_defended`]). With `defense: None` this *is* `run_nps`.
#[allow(clippy::too_many_arguments)]
pub fn run_nps_defended(
    scale: &Scale,
    config: NpsConfig,
    nodes: usize,
    fraction: f64,
    master_seed: u64,
    rep: u64,
    factory: NpsFactory<'_>,
    defense: Option<NpsDefenseFactory<'_>>,
) -> NpsRun {
    run_nps_chaos(
        scale,
        config,
        nodes,
        fraction,
        master_seed,
        rep,
        factory,
        defense,
        None,
    )
}

/// [`run_nps_defended`] with a fault-injection plan installed at the
/// injection instant (see [`run_vivaldi_chaos`]). With `chaos: None` this
/// *is* `run_nps_defended`.
#[allow(clippy::too_many_arguments)]
pub fn run_nps_chaos(
    scale: &Scale,
    config: NpsConfig,
    nodes: usize,
    fraction: f64,
    master_seed: u64,
    rep: u64,
    factory: NpsFactory<'_>,
    defense: Option<NpsDefenseFactory<'_>>,
    chaos: Option<NpsChaosFactory<'_>>,
) -> NpsRun {
    let seeds = SeedStream::new(master_seed).derive_indexed("nps-rep", rep);
    let matrix = KingLike::new(KingLikeConfig::with_nodes(nodes)).generate(&mut seeds.rng("topo"));
    let layers = config.layers;
    let mut sim = NpsSim::new(matrix, config, &seeds);
    let threads = eval_threads(scale);
    let mut plan_rng = seeds.rng("eval-plan");

    // Warm-up: staggered joins + clean repositioning.
    let mut clean_series = TimeSeries::new();
    let mut r = 0;
    while r < scale.nps_warmup_rounds {
        sim.run_rounds(scale.nps_record_every);
        r += scale.nps_record_every;
        let eval = sim.eval_nodes();
        if eval.len() < 8 {
            clean_series.push(sim.now_rounds(), f64::NAN);
            continue; // joins still in progress
        }
        let plan = EvalPlan::with_params(
            &eval,
            scale.eval_all_pairs_threshold,
            scale.eval_sample_peers,
            &mut plan_rng,
        );
        clean_series.push(
            sim.now_rounds(),
            plan.avg_error_with(sim.coords(), sim.space(), sim.matrix(), threads),
        );
    }
    let clean_tail: Vec<f64> = clean_series
        .points()
        .iter()
        .rev()
        .take(5)
        .map(|&(_, v)| v)
        .filter(|v| v.is_finite())
        .collect();
    let clean_ref = if clean_tail.is_empty() {
        1e-6
    } else {
        (clean_tail.iter().sum::<f64>() / clean_tail.len() as f64).max(1e-6)
    };

    let ledger_before = sim.ledger();
    let counters_before = sim.counters();
    let threshold_before = sim.threshold_ledger();
    let _ = counters_before;

    // Injection — and, in the same instant, defense deployment.
    let attackers = sim.pick_attackers(fraction);
    let n_attackers = attackers.len();
    let (adversary, focus) = factory(&mut sim, &attackers, &seeds);
    sim.inject_adversary(&attackers, adversary);
    if let Some(build) = defense {
        let strategy = build(&sim, &seeds);
        sim.deploy_defense(strategy);
    }
    if let Some(build) = chaos {
        let plan = build(&sim, &seeds);
        sim.install_chaos(plan);
    }

    let honest = sim.eval_nodes();
    let plan_honest = EvalPlan::with_params(
        &honest,
        scale.eval_all_pairs_threshold,
        scale.eval_sample_peers,
        &mut plan_rng,
    );
    let node_layers: Vec<u8> = plan_honest
        .nodes()
        .iter()
        .map(|&i| sim.layers_of()[i])
        .collect();
    let focus_indices: Option<Vec<usize>> = focus.as_ref().map(|f| {
        f.iter()
            .filter_map(|id| plan_honest.nodes().iter().position(|&n| n == *id))
            .collect()
    });

    let mut attack_series = TimeSeries::new();
    let mut drift_series = TimeSeries::new();
    let mut reject_series = TimeSeries::new();
    let mut rejected_so_far = 0u64;
    let mut layer_acc: Vec<(u8, TimeSeries)> =
        (1..layers).map(|l| (l as u8, TimeSeries::new())).collect();
    let mut focus_series = focus_indices.as_ref().map(|_| TimeSeries::new());
    let mut final_errors: Vec<f64> = Vec::new();
    let mut prev_coords: Vec<Coord> = plan_honest
        .nodes()
        .iter()
        .map(|&i| sim.coords()[i].clone())
        .collect();
    let mut r = 0;
    while r < scale.nps_attack_rounds {
        sim.run_rounds(scale.nps_record_every);
        r += scale.nps_record_every;
        let errs =
            plan_honest.per_node_errors_with(sim.coords(), sim.space(), sim.matrix(), threads);
        let avg = errs.iter().sum::<f64>() / errs.len().max(1) as f64;
        attack_series.push(sim.now_rounds(), avg);
        drift_series.push(
            sim.now_rounds(),
            drift_sample(
                plan_honest.nodes(),
                &mut prev_coords,
                sim.coords(),
                sim.space(),
                scale.nps_record_every,
            ),
        );
        if let Some(stats) = sim.defense_stats() {
            reject_series.push(sim.now_rounds(), (stats.rejected - rejected_so_far) as f64);
            rejected_so_far = stats.rejected;
        }
        for (l, series) in layer_acc.iter_mut() {
            let vals: Vec<f64> = errs
                .iter()
                .zip(&node_layers)
                .filter(|(_, &nl)| nl == *l)
                .map(|(&e, _)| e)
                .collect();
            if !vals.is_empty() {
                series.push(
                    sim.now_rounds(),
                    vals.iter().sum::<f64>() / vals.len() as f64,
                );
            }
        }
        if let (Some(fs), Some(fi)) = (focus_series.as_mut(), focus_indices.as_ref()) {
            if !fi.is_empty() {
                let favg = fi.iter().map(|&k| errs[k]).sum::<f64>() / fi.len() as f64;
                fs.push(sim.now_rounds(), favg);
            }
        }
        final_errors = errs;
    }

    let banned_now = sim.currently_banned();
    let defense_outcome = sim.defense().map(|d| {
        DefenseOutcome::grade(
            d.label(),
            d.stats(),
            sim.malicious(),
            &banned_now,
            reject_series,
        )
    });

    let ledger_after = sim.ledger();
    let threshold_after = sim.threshold_ledger();
    let ledger = FilterLedger {
        filtered_malicious: ledger_after.filtered_malicious - ledger_before.filtered_malicious,
        filtered_honest: ledger_after.filtered_honest - ledger_before.filtered_honest,
    };
    let threshold_ledger = FilterLedger {
        filtered_malicious: threshold_after.filtered_malicious
            - threshold_before.filtered_malicious,
        filtered_honest: threshold_after.filtered_honest - threshold_before.filtered_honest,
    };

    let random_baseline = random_baseline_with(
        &plan_honest,
        sim.space(),
        sim.matrix(),
        RANDOM_RANGE,
        &mut seeds.rng("random-baseline"),
        threads,
    );

    NpsRun {
        clean_series,
        attack_series,
        clean_ref,
        final_errors,
        layer_series: layer_acc,
        focus_series,
        drift_series,
        ledger,
        threshold_ledger,
        random_baseline,
        attackers: n_attackers,
        defense: defense_outcome,
        chaos: sim.chaos_counters().copied(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::attacks::vivaldi::VivaldiDisorder;
    use vcoord_defense::NoDefense;

    #[test]
    fn no_defense_run_matches_undefended_run_exactly() {
        let scale = Scale::smoke();
        let factory: VivaldiFactory<'_> =
            &|_sim, _attackers, _seeds| (Box::new(VivaldiDisorder::default()), None);
        let bare = run_vivaldi(&scale, Space::Euclidean(2), scale.nodes, 0.2, 5, 0, factory);
        let defended = run_vivaldi_defended(
            &scale,
            Space::Euclidean(2),
            scale.nodes,
            0.2,
            5,
            0,
            factory,
            Some(&|_sim, _seeds| Box::new(NoDefense)),
        );
        // Byte-identical trajectories: the NoDefense fast path perturbs
        // nothing, so every recorded series matches exactly.
        assert_eq!(bare.final_errors, defended.final_errors);
        assert_eq!(bare.attack_series.points(), defended.attack_series.points());
        assert_eq!(bare.drift_series.points(), defended.drift_series.points());
        let outcome = defended.defense.expect("defense was deployed");
        assert_eq!(outcome.label, "none");
        assert_eq!(outcome.rejected, 0);
        assert!(outcome.accepted > 0, "samples flowed through the fast path");
        assert!(bare.defense.is_none());
    }

    #[test]
    fn vivaldi_run_produces_complete_record() {
        let scale = Scale::smoke();
        let run = run_vivaldi(
            &scale,
            Space::Euclidean(2),
            scale.nodes,
            0.3,
            7,
            0,
            &|_sim, _attackers, _seeds| (Box::new(VivaldiDisorder::default()), None),
        );
        assert!(run.clean_series.len() >= 5);
        assert!(run.attack_series.len() >= 5);
        assert!(
            run.clean_ref > 0.0 && run.clean_ref < 2.0,
            "clean_ref={}",
            run.clean_ref
        );
        assert!(!run.final_errors.is_empty());
        assert_eq!(run.attackers, (scale.nodes as f64 * 0.3).round() as usize);
        assert!(run.random_baseline > 10.0);
        // The attack must visibly degrade accuracy.
        let attacked = run.attack_series.tail_mean(3);
        assert!(
            attacked > 3.0 * run.clean_ref,
            "disorder had no effect: clean={} attacked={attacked}",
            run.clean_ref
        );
    }
}
