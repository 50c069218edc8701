//! Figure runners for the fault-injection sweeps (`chaos-*`): churn,
//! correlated loss bursts, landmark takedown, and partitions crossed with
//! the attack and defense families — graceful degradation under fire.
//!
//! Every prior figure family measured an *adversary* against a *healthy*
//! network. Real deployments are never healthy: nodes crash and rejoin,
//! links burst-lose probes, and routing splits. These figures measure two
//! things the paper's threat model leaves open:
//!
//! * **recovery** — after a fault wave, does a defended system re-converge
//!   to its no-fault steady state (the `recovery_ratio` column, pinned at
//!   ≤ 1.1 by the suite's tests), or does degradation compound?
//! * **confusion** — do benign faults look like attacks to the defenses
//!   (loss bursts tripping the drift cap's FPR), and can an attacker hide
//!   inside fault noise (frog-boiling under churn, the headline
//!   `chaos-frog-hides-in-churn`)?
//!
//! Fault plans are installed at the injection instant through the harness
//! chaos seam (`RunSpec::chaos`); all fault randomness draws from the
//! plan's own seeded streams, so the `0`-level row of every sweep is the
//! *byte-identical* no-chaos run.

use crate::experiments::attack_figs::{mean_tails, strategy_by};
use crate::experiments::harness::{AdversaryChoice, DefenseOutcome, RunSpec};
use crate::experiments::{average_series, FigureResult, Scale};
use rand_chacha::ChaCha12Rng;
use vcoord_attackkit::{AttackStrategy, Collusion, CoordView, Honest, Lie, Probe};
use vcoord_chaos::{BurstModel, ChaosCounters, ChaosPlan};
use vcoord_defense::{
    DefenseStrategy, DriftCap, DriftDecay, EwmaChangePoint, ResidualOutlier, TriangleCheck,
};
use vcoord_netsim::{SeedStream, TICK_MS};
use vcoord_nps::{NpsConfig, NpsSim};
use vcoord_space::Space;
use vcoord_vivaldi::VivaldiSim;

/// Malicious fraction of the attacked chaos sweeps (matches `def-*`/`arms-*`).
const FRACTION: f64 = 0.30;

/// NPS repositioning period (ms) at the workspace-default config — the
/// round-to-milliseconds factor for NPS fault schedules.
const NPS_ROUND_MS: u64 = 60_000;

/// Churn-intensity grid shared by the churn sweeps: fraction of the
/// population crashed in the wave (0 = the no-fault baseline row).
const CHURN_FRACTIONS: [f64; 4] = [0.0, 0.1, 0.2, 0.3];

/// Scale with the post-injection window stretched so post-fault recovery
/// is observable: restarted nodes need room to re-converge *after* the
/// restart lands mid-window. Fault waves also add run-to-run variance the
/// attack sweeps don't have (a crash schedule is a handful of discrete
/// events), so the recovery ratios are averaged over at least three
/// repetitions even at smoke scale.
fn recovery_scale(scale: &Scale) -> Scale {
    let mut s = scale.clone();
    s.vivaldi_attack_ticks *= 4;
    s.nps_attack_rounds *= 2;
    s.repetitions = s.repetitions.max(3);
    s
}

/// Fault totals averaged across repetitions.
#[derive(Default)]
struct ChaosAgg {
    crashes: f64,
    restarts: f64,
    timeouts: f64,
    retries: f64,
    evictions: f64,
    failovers: f64,
    burst_losses: f64,
    spiked: f64,
    leases: f64,
    lease_returns: f64,
}

fn aggregate_chaos<'a>(counters: impl Iterator<Item = Option<&'a ChaosCounters>>) -> ChaosAgg {
    let mut agg = ChaosAgg::default();
    let mut n = 0u64;
    for c in counters {
        n += 1;
        let Some(c) = c else { continue };
        agg.crashes += c.crashes as f64;
        agg.restarts += c.restarts as f64;
        agg.timeouts += c.timeouts as f64;
        agg.retries += c.retries as f64;
        agg.evictions += c.evictions as f64;
        agg.failovers += c.failovers as f64;
        agg.burst_losses += c.burst_losses as f64;
        agg.spiked += c.spiked as f64;
        agg.leases += c.leases as f64;
        agg.lease_returns += c.lease_returns as f64;
    }
    let n = n.max(1) as f64;
    agg.crashes /= n;
    agg.restarts /= n;
    agg.timeouts /= n;
    agg.retries /= n;
    agg.evictions /= n;
    agg.failovers /= n;
    agg.burst_losses /= n;
    agg.spiked /= n;
    agg.leases /= n;
    agg.lease_returns /= n;
    agg
}

/// Detection accounting merged across one cell's repetitions.
fn merge_outcomes<'a>(
    outcomes: impl Iterator<Item = Option<&'a DefenseOutcome>>,
) -> (vcoord_metrics::Confusion, f64, f64, f64, f64) {
    let (confusion, bans, reinstated, honest, malicious, _) = merge_outcomes_full(outcomes);
    (confusion, bans, reinstated, honest, malicious)
}

/// [`merge_outcomes`] plus the per-repetition mean of quarantined
/// (lease-provenance) samples — the leak sweep's direct evidence that the
/// relief valve's readmissions are on loan rather than forgiven.
fn merge_outcomes_full<'a>(
    outcomes: impl Iterator<Item = Option<&'a DefenseOutcome>>,
) -> (vcoord_metrics::Confusion, f64, f64, f64, f64, f64) {
    let mut confusion = vcoord_metrics::Confusion::default();
    let (mut bans, mut reinstated, mut honest, mut malicious, mut quarantined, mut n) =
        (0.0, 0.0, 0.0, 0.0, 0.0, 0u64);
    for d in outcomes {
        n += 1;
        let Some(d) = d else { continue };
        confusion.merge(&d.confusion);
        bans += d.bans as f64;
        reinstated += d.reinstated as f64;
        honest += d.banned_honest_final as f64;
        malicious += d.banned_malicious_final as f64;
        quarantined += d.quarantined as f64;
    }
    let n = n.max(1) as f64;
    (
        confusion,
        bans / n,
        reinstated / n,
        honest / n,
        malicious / n,
        quarantined / n,
    )
}

/// The all-honest adversary: chaos-only runs still go through the
/// injection protocol (with an empty attacker set) so fault plans install
/// at the same instant attacks would.
fn honest<S>(_sim: &mut S, _attackers: &[usize], _seeds: &SeedStream) -> AdversaryChoice {
    (Box::new(Honest), None)
}

/// The drift cap most chaos sweeps deploy.
fn drift_cap<S>(_sim: &S, _seeds: &SeedStream) -> Box<dyn DefenseStrategy> {
    Box::new(DriftCap::default())
}

/// `chaos-churn-vivaldi` — crash/restart waves against a defended Vivaldi:
/// probes to dead peers time out, retry with backoff, and stale neighbors
/// are evicted; restarted nodes rejoin from the origin and re-converge.
pub fn chaos_churn_vivaldi(scale: &Scale, seed: u64) -> FigureResult {
    let scale = recovery_scale(scale);
    let columns = vec![
        "point_idx".to_string(),
        "churn_fraction".to_string(),
        "err_tail".to_string(),
        "recovery_ratio".to_string(),
        "crashes".to_string(),
        "restarts".to_string(),
        "timeouts".to_string(),
        "retries".to_string(),
        "evictions".to_string(),
    ];
    let nodes = scale.nodes;
    let cell = |frac: f64| {
        let chaos = |_: &VivaldiSim, _: &SeedStream| {
            ChaosPlan::with_seed(seed ^ 0xC11A05)
                // Down 10 ticks into the window, back up 30 ticks later.
                .churn_wave(nodes, frac, 10 * TICK_MS, 30 * TICK_MS)
        };
        let runs = RunSpec::vivaldi(Space::Euclidean(2), nodes, 0.0, &honest)
            .defense(&drift_cap)
            .chaos(if frac > 0.0 { Some(&chaos) } else { None })
            .runs(&scale, seed);
        let err = mean_tails(&runs, |r| &r.attack_series);
        let agg = aggregate_chaos(runs.iter().map(|r| r.chaos.as_ref()));
        (err, agg)
    };
    let mut rows = Vec::new();
    let mut notes = Vec::new();
    let mut baseline = f64::NAN;
    for (i, &frac) in CHURN_FRACTIONS.iter().enumerate() {
        let (err, agg) = cell(frac);
        if i == 0 {
            baseline = err.max(1e-9);
        }
        let ratio = err / baseline;
        rows.push(vec![
            i as f64,
            frac,
            err,
            ratio,
            agg.crashes,
            agg.restarts,
            agg.timeouts,
            agg.retries,
            agg.evictions,
        ]);
        notes.push(format!(
            "churn {:.0}%: tail err {err:.3} ({ratio:.2}x the no-churn steady state), \
             {:.0} crashes / {:.0} restarts, {:.0} timeouts, {:.0} evictions",
            frac * 100.0,
            agg.crashes,
            agg.restarts,
            agg.timeouts,
            agg.evictions,
        ));
    }
    FigureResult {
        id: "chaos-churn-vivaldi".into(),
        title: "Vivaldi under churn: crash/restart waves vs retry, backoff, and staleness \
                eviction (drift cap deployed)"
            .into(),
        columns,
        rows,
        notes,
    }
}

/// `chaos-churn-nps` — the same crash/restart waves against a defended
/// NPS hierarchy: dead references fail over through the membership
/// replacement channel; restarted ordinary nodes rejoin from scratch.
pub fn chaos_churn_nps(scale: &Scale, seed: u64) -> FigureResult {
    let scale = recovery_scale(scale);
    let columns = vec![
        "point_idx".to_string(),
        "churn_fraction".to_string(),
        "err_tail".to_string(),
        "recovery_ratio".to_string(),
        "crashes".to_string(),
        "restarts".to_string(),
        "timeouts".to_string(),
        "retries".to_string(),
        "failovers".to_string(),
    ];
    let nodes = scale.nodes;
    let cell = |frac: f64| {
        let chaos = |_: &NpsSim, _: &SeedStream| {
            ChaosPlan::with_seed(seed ^ 0xC11A05)
                // Down 2 rounds into the window, back up 6 rounds later.
                .churn_wave(nodes, frac, 2 * NPS_ROUND_MS, 6 * NPS_ROUND_MS)
        };
        let runs = RunSpec::nps(NpsConfig::default(), nodes, 0.0, &honest)
            .defense(&drift_cap)
            .chaos(if frac > 0.0 { Some(&chaos) } else { None })
            .runs(&scale, seed);
        let err = mean_tails(&runs, |r| &r.attack_series);
        let agg = aggregate_chaos(runs.iter().map(|r| r.chaos.as_ref()));
        (err, agg)
    };
    let mut rows = Vec::new();
    let mut notes = Vec::new();
    let mut baseline = f64::NAN;
    for (i, &frac) in CHURN_FRACTIONS.iter().enumerate() {
        let (err, agg) = cell(frac);
        if i == 0 {
            baseline = err.max(1e-9);
        }
        let ratio = err / baseline;
        rows.push(vec![
            i as f64,
            frac,
            err,
            ratio,
            agg.crashes,
            agg.restarts,
            agg.timeouts,
            agg.retries,
            agg.failovers,
        ]);
        notes.push(format!(
            "churn {:.0}%: tail err {err:.3} ({ratio:.2}x no-churn), {:.0} crashes, \
             {:.0} in-round retries, {:.0} reference fail-overs",
            frac * 100.0,
            agg.crashes,
            agg.retries,
            agg.failovers,
        ));
    }
    FigureResult {
        id: "chaos-churn-nps".into(),
        title: "NPS under churn: crash/restart waves vs in-round retries and membership \
                fail-over (drift cap deployed)"
            .into(),
        columns,
        rows,
        notes,
    }
}

/// `chaos-landmark-takedown` — degree-targeted takedown of the layer-0
/// landmark backbone, *permanently*: the paper assumes landmarks are
/// "highly secure machines", so this measures what their loss (not their
/// compromise) costs, and whether membership fail-over absorbs it.
pub fn chaos_landmark_takedown(scale: &Scale, seed: u64) -> FigureResult {
    let scale = recovery_scale(scale);
    let downs = [0usize, 2, 4, 6];
    let columns = vec![
        "point_idx".to_string(),
        "landmarks_down".to_string(),
        "err_tail".to_string(),
        "recovery_ratio".to_string(),
        "crashes".to_string(),
        "timeouts".to_string(),
        "retries".to_string(),
        "failovers".to_string(),
    ];
    let cell = |k: usize| {
        let chaos = |sim: &NpsSim, _: &SeedStream| {
            let landmarks = sim.landmark_ids();
            let k = k.min(landmarks.len());
            ChaosPlan::with_seed(seed ^ 0x7A4E).takedown(&landmarks[..k], NPS_ROUND_MS, None)
        };
        let runs = RunSpec::nps(NpsConfig::default(), scale.nodes, 0.0, &honest)
            .defense(&drift_cap)
            .chaos(if k > 0 { Some(&chaos) } else { None })
            .runs(&scale, seed);
        let err = mean_tails(&runs, |r| &r.attack_series);
        let agg = aggregate_chaos(runs.iter().map(|r| r.chaos.as_ref()));
        (err, agg)
    };
    let mut rows = Vec::new();
    let mut notes = Vec::new();
    let mut baseline = f64::NAN;
    for (i, &k) in downs.iter().enumerate() {
        let (err, agg) = cell(k);
        if i == 0 {
            baseline = err.max(1e-9);
        }
        let ratio = err / baseline;
        rows.push(vec![
            i as f64,
            k as f64,
            err,
            ratio,
            agg.crashes,
            agg.timeouts,
            agg.retries,
            agg.failovers,
        ]);
        notes.push(format!(
            "{k} landmarks down (permanent): tail err {err:.3} ({ratio:.2}x intact), \
             {:.0} fail-overs through membership",
            agg.failovers,
        ));
    }
    FigureResult {
        id: "chaos-landmark-takedown".into(),
        title: "NPS landmark takedown: permanent loss of layer-0 infrastructure vs \
                membership fail-over"
            .into(),
        columns,
        rows,
        notes,
    }
}

/// `chaos-loss-bursts` — Gilbert–Elliott correlated loss/RTT-spike regimes
/// on an *honest* population with the drift cap deployed: do benign burst
/// faults read as attacks (false-positive bans)?
pub fn chaos_loss_bursts(scale: &Scale, seed: u64) -> FigureResult {
    let scale = recovery_scale(scale);
    let enters = [0.0, 0.02, 0.05, 0.10];
    let columns = vec![
        "point_idx".to_string(),
        "p_enter".to_string(),
        "err_tail".to_string(),
        "recovery_ratio".to_string(),
        "fpr".to_string(),
        "banned_honest_final".to_string(),
        "burst_losses".to_string(),
        "spiked".to_string(),
        "timeouts".to_string(),
    ];
    let cell = |p_enter: f64| {
        let chaos = |_: &VivaldiSim, _: &SeedStream| {
            ChaosPlan::with_seed(seed ^ 0xB0557).bursts(BurstModel {
                p_enter,
                ..BurstModel::mild()
            })
        };
        let runs = RunSpec::vivaldi(Space::Euclidean(2), scale.nodes, 0.0, &honest)
            .defense(&drift_cap)
            .chaos(if p_enter > 0.0 { Some(&chaos) } else { None })
            .runs(&scale, seed);
        let err = mean_tails(&runs, |r| &r.attack_series);
        let agg = aggregate_chaos(runs.iter().map(|r| r.chaos.as_ref()));
        let (confusion, _, _, banned_honest, _) =
            merge_outcomes(runs.iter().map(|r| r.defense.as_ref()));
        (err, agg, confusion.fpr().unwrap_or(0.0), banned_honest)
    };
    let mut rows = Vec::new();
    let mut notes = Vec::new();
    let mut baseline = f64::NAN;
    for (i, &p_enter) in enters.iter().enumerate() {
        let (err, agg, fpr, banned_honest) = cell(p_enter);
        if i == 0 {
            baseline = err.max(1e-9);
        }
        let ratio = err / baseline;
        rows.push(vec![
            i as f64,
            p_enter,
            err,
            ratio,
            fpr,
            banned_honest,
            agg.burst_losses,
            agg.spiked,
            agg.timeouts,
        ]);
        notes.push(format!(
            "p_enter {p_enter:.2}: tail err {err:.3} ({ratio:.2}x clean links), drift-cap \
             fpr {fpr:.3}, {banned_honest:.1} honest nodes banned, {:.0} burst losses / \
             {:.0} spiked probes",
            agg.burst_losses, agg.spiked,
        ));
    }
    FigureResult {
        id: "chaos-loss-bursts".into(),
        title: "Gilbert-Elliott loss bursts vs the drift cap on honest Vivaldi: do benign \
                bursts false-positive as attacks?"
            .into(),
        columns,
        rows,
        notes,
    }
}

/// `chaos-frog-hides-in-churn` — the headline cross: frog-boiling at 30 %
/// malicious against the drift cap, swept over churn intensity. Churn
/// noise both *hides* the attacker (TPR under churn) and *defames* honest
/// rejoining nodes (FPR under churn).
pub fn chaos_frog_hides_in_churn(scale: &Scale, seed: u64) -> FigureResult {
    let scale = recovery_scale(scale);
    let columns = vec![
        "point_idx".to_string(),
        "churn_fraction".to_string(),
        "tpr".to_string(),
        "fpr".to_string(),
        "err_tail".to_string(),
        "err_ratio".to_string(),
        "drift".to_string(),
        "crashes".to_string(),
        "evictions".to_string(),
    ];
    let nodes = scale.nodes;
    let cell = |frac: f64| {
        let chaos = |_: &VivaldiSim, _: &SeedStream| {
            ChaosPlan::with_seed(seed ^ 0xF406).churn_wave(nodes, frac, 10 * TICK_MS, 30 * TICK_MS)
        };
        let runs = RunSpec::vivaldi(Space::Euclidean(2), nodes, FRACTION, &|_, _, _| {
            (strategy_by("frog_boiling"), None)
        })
        .defense(&drift_cap)
        .chaos(if frac > 0.0 { Some(&chaos) } else { None })
        .runs(&scale, seed);
        let err = mean_tails(&runs, |r| &r.attack_series);
        let drift = mean_tails(&runs, |r| &r.drift_series);
        let agg = aggregate_chaos(runs.iter().map(|r| r.chaos.as_ref()));
        let (confusion, _, _, _, _) = merge_outcomes(runs.iter().map(|r| r.defense.as_ref()));
        (err, drift, agg, confusion)
    };
    let mut rows = Vec::new();
    let mut notes = Vec::new();
    let mut baseline = f64::NAN;
    for (i, &frac) in CHURN_FRACTIONS.iter().enumerate() {
        let (err, drift, agg, confusion) = cell(frac);
        if i == 0 {
            baseline = err.max(1e-9);
        }
        let tpr = confusion.tpr().unwrap_or(0.0);
        let fpr = confusion.fpr().unwrap_or(0.0);
        rows.push(vec![
            i as f64,
            frac,
            tpr,
            fpr,
            err,
            err / baseline,
            drift,
            agg.crashes,
            agg.evictions,
        ]);
        notes.push(format!(
            "churn {:.0}%: frog-boiling tpr {tpr:.2} / fpr {fpr:.3}, tail err {err:.3} \
             ({:.2}x calm), drift {drift:.2} ms/tick",
            frac * 100.0,
            err / baseline,
        ));
    }
    FigureResult {
        id: "chaos-frog-hides-in-churn".into(),
        title: "Frog-boiling inside churn noise: drift-cap detection quality vs churn \
                intensity (Vivaldi, 30% malicious)"
            .into(),
        columns,
        rows,
        notes,
    }
}

/// `chaos-partition-recovery` — a timed network partition through a
/// defended honest Vivaldi system: error time-series with and without the
/// partition, showing degradation while split and re-convergence after
/// healing.
pub fn chaos_partition_recovery(scale: &Scale, seed: u64) -> FigureResult {
    let scale = recovery_scale(scale);
    let nodes = scale.nodes;
    // Split half the population from the rest for a third of the window.
    let start = 10 * TICK_MS;
    let end = start + (scale.vivaldi_attack_ticks / 3) * TICK_MS;
    let chaos = |_: &VivaldiSim, _: &SeedStream| {
        ChaosPlan::with_seed(seed ^ 0x9A47).split(nodes, 0.5, start, end)
    };
    let run_with = |partitioned: bool| {
        RunSpec::vivaldi(Space::Euclidean(2), nodes, 0.0, &honest)
            .defense(&drift_cap)
            .chaos(if partitioned { Some(&chaos) } else { None })
            .runs(&scale, seed)
    };
    let split_runs = run_with(true);
    let calm_runs = run_with(false);
    let split_series = average_series(
        &split_runs
            .iter()
            .map(|r| r.attack_series.clone())
            .collect::<Vec<_>>(),
    );
    let calm_series = average_series(
        &calm_runs
            .iter()
            .map(|r| r.attack_series.clone())
            .collect::<Vec<_>>(),
    );
    let mut rows = Vec::new();
    for (k, &(tick, err_split)) in split_series.points().iter().enumerate() {
        let err_calm = calm_series
            .points()
            .get(k)
            .map(|&(_, v)| v)
            .unwrap_or(f64::NAN);
        rows.push(vec![
            tick as f64,
            err_split,
            err_calm,
            err_split / err_calm.max(1e-9),
        ]);
    }
    let agg = aggregate_chaos(split_runs.iter().map(|r| r.chaos.as_ref()));
    let tail_split = mean_tails(&split_runs, |r| &r.attack_series);
    let tail_calm = mean_tails(&calm_runs, |r| &r.attack_series).max(1e-9);
    let notes = vec![format!(
        "partition [{start}, {end}) ms: {:.0} timed-out probes, {:.0} retries, {:.0} \
         evictions; tail err {tail_split:.3} vs calm {tail_calm:.3} \
         (recovery ratio {:.2})",
        agg.timeouts,
        agg.retries,
        agg.evictions,
        tail_split / tail_calm,
    )];
    FigureResult {
        id: "chaos-partition-recovery".into(),
        title: "Timed network partition on honest Vivaldi: error while split and \
                re-convergence after healing (drift cap deployed)"
            .into(),
        columns: vec![
            "tick".to_string(),
            "err_partitioned".to_string(),
            "err_baseline".to_string(),
            "ratio".to_string(),
        ],
        rows,
        notes,
    }
}

/// Figure-local burst/reform collusion tuned to NPS geometry: every
/// attacker reports its coordinate shifted a flat 250 ms along axis 0 for
/// the first `attack_rounds` repositioning rounds after injection, then
/// answers honestly forever. The flat offset is flagrant to the drift
/// cap's vector-mean pull (no per-observer cancellation), so every
/// attacker lands in the defense's *global* ban set during the burst —
/// exactly the evidence-starved population the probation channel exists
/// to re-measure once the reform is real.
struct BurstThenReform {
    attack_rounds: u64,
    injected_at: Option<u64>,
}

impl BurstThenReform {
    fn new(attack_rounds: u64) -> BurstThenReform {
        BurstThenReform {
            attack_rounds,
            injected_at: None,
        }
    }
}

impl AttackStrategy for BurstThenReform {
    fn inject(
        &mut self,
        _attackers: &[usize],
        _collusion: &mut Collusion,
        view: &CoordView<'_>,
        _rng: &mut ChaCha12Rng,
    ) {
        self.injected_at = Some(view.round);
    }

    fn respond(
        &mut self,
        probe: &Probe,
        _collusion: &mut Collusion,
        view: &CoordView<'_>,
        _rng: &mut ChaCha12Rng,
    ) -> Option<Lie> {
        let start = self.injected_at.unwrap_or(0);
        if view.round.saturating_sub(start) >= self.attack_rounds {
            return None; // reformed
        }
        let mut coord = view.coords[probe.attacker].clone();
        coord.vec[0] += 250.0;
        Some(Lie {
            coord,
            error: 0.01,
            delay_ms: 0.0,
        })
    }

    fn label(&self) -> &'static str {
        "burst-then-reform"
    }
}

/// Adversary factory of the probation sweeps: a 10-round burst, then reform.
fn burst_then_reform(
    _sim: &mut NpsSim,
    _attackers: &[usize],
    _seeds: &SeedStream,
) -> AdversaryChoice {
    (Box::new(BurstThenReform::new(10)), None)
}

/// The decaying drift cap of the probation sweeps.
fn decaying_cap(_sim: &NpsSim, _seeds: &SeedStream) -> Box<dyn DefenseStrategy> {
    Box::new(DriftCap::with_decay(40.0, DriftDecay::new(5.0)))
}

/// `chaos-probation-nps` — the probation channel: NPS's membership-
/// mediated banning removes banned references from the probe set, which
/// starves reputation *decay* of the evidence it needs to forgive. The
/// sweep crosses probation frequency with the decaying drift cap under a
/// burst-then-reform collusion, plus mild correlated loss bursts riding
/// along (bursts stress retries without resetting any coordinates, so the
/// probation probes themselves must survive fault noise).
pub fn chaos_probation_nps(scale: &Scale, seed: u64) -> FigureResult {
    let mut scale = recovery_scale(scale);
    // Reinstatement timing is the noisiest statistic in the chaos family
    // (a single late probation probe moves the tail by a round's worth of
    // error), so this figure averages more repetitions than the rest.
    // Starvation-relief readmissions are leases now (sim.rs): the relief
    // valve's evidence is quarantined by provenance, so the off-row stays
    // a true evidence-starvation baseline at any window length —
    // `chaos-probation-leak` pins that directly.
    scale.repetitions = scale.repetitions.max(7);
    let periods = [0u64, 8, 4, 2];
    let columns = vec![
        "point_idx".to_string(),
        "probation_every".to_string(),
        "err_tail".to_string(),
        "recovery_ratio".to_string(),
        "bans".to_string(),
        "reinstated".to_string(),
        "banned_honest_final".to_string(),
        "banned_malicious_final".to_string(),
        "fpr".to_string(),
    ];
    let chaos =
        |_: &NpsSim, _: &SeedStream| ChaosPlan::with_seed(seed ^ 0x960B).bursts(BurstModel::mild());
    let mut rows = Vec::new();
    let mut notes = Vec::new();
    let mut baseline = f64::NAN;
    for (i, &every) in periods.iter().enumerate() {
        // Tight reference economy: with the pool this small the membership
        // server has no spare candidates to re-hand a banned reference to
        // an unsuspecting observer, so a banned node's *only* evidence
        // channel is probation — the isolation that makes the sweep's
        // off-row a true evidence-starvation baseline.
        let config = NpsConfig {
            probation_every: every,
            landmarks: 12,
            refs_per_node: 12,
            space: Space::Euclidean(4),
            ..NpsConfig::default()
        };
        let runs = RunSpec::nps(config, scale.nodes, FRACTION, &burst_then_reform)
            .defense(&decaying_cap)
            .chaos(Some(&chaos))
            .runs(&scale, seed);
        let err = mean_tails(&runs, |r| &r.attack_series);
        let (confusion, bans, reinstated, banned_honest, banned_malicious) =
            merge_outcomes(runs.iter().map(|r| r.defense.as_ref()));
        let fpr = confusion.fpr().unwrap_or(0.0);
        if i == 0 {
            baseline = err.max(1e-9);
        }
        let ratio = err / baseline;
        rows.push(vec![
            i as f64,
            every as f64,
            err,
            ratio,
            bans,
            reinstated,
            banned_honest,
            banned_malicious,
            fpr,
        ]);
        notes.push(format!(
            "probation every {}: tail err {err:.3} ({ratio:.2}x channel-off), {bans:.1} bans, \
             {reinstated:.1} reinstated, steady-state banned {banned_honest:.1} honest / \
             {banned_malicious:.1} malicious, fpr {fpr:.3}",
            if every == 0 {
                "never (channel off)".to_string()
            } else {
                format!("{every} rounds")
            },
        ));
    }
    FigureResult {
        id: "chaos-probation-nps".into(),
        title: "The probation channel on NPS: re-measuring banned references lets \
                reputation decay compose with membership banishment (burst-then-reform \
                collusion, decaying drift cap, mild loss bursts)"
            .into(),
        columns,
        rows,
        notes,
    }
}

/// Post-injection window multipliers for the leak sweep, ×recovery-scale
/// rounds (the 1× row is the short-window contrast the leak rate is read
/// against).
const LEAK_WINDOWS: [u64; 4] = [1, 2, 4, 8];

/// `chaos-probation-leak` — the starvation-relief readmission guard's
/// healed-evidence leak, measured directly — and, since readmissions
/// became *leases*, pinned closed. With the probation channel *off*
/// (`probation_every: 0`) and the tight reference economy of
/// `chaos-probation-nps`, a banned reference has exactly one path back
/// into anyone's probe set: the relief valve in `NpsSim::reposition`
/// leases the oldest ban back when fault noise starves a node below the
/// `dim + 1` positioning constraint. Before the fix, each re-admitted (by
/// then reformed) attacker handed honest samples to the decaying drift
/// cap, its reputation healed, and reinstatements appeared on a channel
/// that is nominally closed — leak rate 0.31 at short windows, saturating
/// to 1.00 from 64 rounds. Now every leased sample carries
/// `Provenance::Lease` and the defense quarantines it (judged, never
/// recorded), so the sweep's long windows show leases firing and
/// quarantined evidence piling up while the leak rate stays ≤ 0.05 at
/// every window.
pub fn chaos_probation_leak(scale: &Scale, seed: u64) -> FigureResult {
    let mut base = recovery_scale(scale);
    // Same variance argument as chaos-probation-nps: a single late
    // readmission moves a whole row, so average more repetitions.
    base.repetitions = base.repetitions.max(5);
    let columns = vec![
        "point_idx".to_string(),
        "window_rounds".to_string(),
        "err_tail".to_string(),
        "leases".to_string(),
        "bans".to_string(),
        "leaked_reinstated".to_string(),
        "leak_rate".to_string(),
        "banned_malicious_final".to_string(),
        "quarantined".to_string(),
    ];
    let chaos =
        |_: &NpsSim, _: &SeedStream| ChaosPlan::with_seed(seed ^ 0x1EAC).bursts(BurstModel::mild());
    // Tight reference economy (see chaos-probation-nps): no spare
    // membership candidates means bans are structurally final — the
    // relief valve can only *lease* them back.
    let config = NpsConfig {
        probation_every: 0,
        landmarks: 12,
        refs_per_node: 12,
        space: Space::Euclidean(4),
        ..NpsConfig::default()
    };
    let mut rows = Vec::new();
    let mut notes = Vec::new();
    for (i, &mult) in LEAK_WINDOWS.iter().enumerate() {
        let mut s = base.clone();
        s.nps_attack_rounds = base.nps_attack_rounds * mult;
        let runs = RunSpec::nps(config.clone(), s.nodes, FRACTION, &burst_then_reform)
            .defense(&decaying_cap)
            .chaos(Some(&chaos))
            .runs(&s, seed);
        let err = mean_tails(&runs, |r| &r.attack_series);
        let agg = aggregate_chaos(runs.iter().map(|r| r.chaos.as_ref()));
        let (_, bans, leaked, _, banned_malicious, quarantined) =
            merge_outcomes_full(runs.iter().map(|r| r.defense.as_ref()));
        let leak_rate = if bans > 0.0 { leaked / bans } else { 0.0 };
        rows.push(vec![
            i as f64,
            s.nps_attack_rounds as f64,
            err,
            agg.leases,
            bans,
            leaked,
            leak_rate,
            banned_malicious,
            quarantined,
        ]);
        notes.push(format!(
            "window {} rounds: {:.1} readmission leases, {bans:.1} bans, {leaked:.1} \
             reinstated with the channel off (leak rate {leak_rate:.3}), {quarantined:.0} \
             quarantined samples, steady-state banned malicious {banned_malicious:.1}, \
             tail err {err:.3}",
            s.nps_attack_rounds, agg.leases,
        ));
    }
    FigureResult {
        id: "chaos-probation-leak".into(),
        title: "Readmission leases close the covert probation channel: quarantined \
                lease evidence never heals a decaying ban, at any window (NPS, probation \
                off, burst-then-reform collusion, decaying drift cap, mild loss bursts)"
            .into(),
        columns,
        rows,
        notes,
    }
}

/// Detector grid for `chaos-detectors-under-faults`.
const FAULT_DETECTORS: [&str; 3] = ["mad", "ewma", "triangle"];
/// Fault regimes crossed against the detectors (0 = clean baseline).
const FAULT_REGIMES: [&str; 3] = ["none", "churn", "loss"];

fn detector_by(label: &str) -> Box<dyn DefenseStrategy> {
    match label {
        "mad" => Box::new(ResidualOutlier::default()),
        "ewma" => Box::new(EwmaChangePoint::default()),
        "triangle" => Box::new(TriangleCheck::default()),
        other => unreachable!("unknown detector label {other}"),
    }
}

/// `chaos-detectors-under-faults` — the lightweight per-sample detectors
/// (MAD residual outlier, EWMA change-point, triangle-inequality check)
/// crossed with benign fault regimes (churn wave, correlated loss bursts)
/// under a loud inflation collusion on Vivaldi. The drift cap owns the
/// chaos family's other sweeps; this one asks how the *rest* of the
/// defense rack degrades when fault noise pollutes exactly the statistics
/// each detector keys on — residual spread (MAD), residual trend (EWMA),
/// and RTT-vs-prediction consistency (triangle).
pub fn chaos_detectors_under_faults(scale: &Scale, seed: u64) -> FigureResult {
    let scale = recovery_scale(scale);
    let columns = vec![
        "point_idx".to_string(),
        "detector_idx".to_string(),
        "regime_idx".to_string(),
        "tpr".to_string(),
        "fpr".to_string(),
        "err_tail".to_string(),
        "err_ratio".to_string(),
    ];
    let nodes = scale.nodes;
    let cell = |detector: &'static str, regime: &'static str| {
        let chaos = |_: &VivaldiSim, _: &SeedStream| {
            let plan = ChaosPlan::with_seed(seed ^ 0xDE7EC7);
            match regime {
                "churn" => plan.churn_wave(nodes, 0.2, 10 * TICK_MS, 30 * TICK_MS),
                "loss" => plan.bursts(BurstModel::mild()),
                _ => unreachable!("the clean regime installs no plan"),
            }
        };
        let runs = RunSpec::vivaldi(Space::Euclidean(2), nodes, FRACTION, &|_, _, _| {
            (strategy_by("inflation"), None)
        })
        .defense(&|_sim, _seeds| detector_by(detector))
        .chaos(if regime == "none" { None } else { Some(&chaos) })
        .runs(&scale, seed);
        let err = mean_tails(&runs, |r| &r.attack_series);
        let (confusion, _, _, _, _) = merge_outcomes(runs.iter().map(|r| r.defense.as_ref()));
        (err, confusion)
    };
    let mut rows = Vec::new();
    let mut notes = Vec::new();
    let mut point = 0usize;
    for (di, &detector) in FAULT_DETECTORS.iter().enumerate() {
        let mut baseline = f64::NAN;
        for (ri, &regime) in FAULT_REGIMES.iter().enumerate() {
            let (err, confusion) = cell(detector, regime);
            if ri == 0 {
                baseline = err.max(1e-9);
            }
            let tpr = confusion.tpr().unwrap_or(0.0);
            let fpr = confusion.fpr().unwrap_or(0.0);
            rows.push(vec![
                point as f64,
                di as f64,
                ri as f64,
                tpr,
                fpr,
                err,
                err / baseline,
            ]);
            notes.push(format!(
                "{detector} under {regime}: tpr {tpr:.2} / fpr {fpr:.3}, tail err {err:.3} \
                 ({:.2}x its clean row)",
                err / baseline,
            ));
            point += 1;
        }
    }
    FigureResult {
        id: "chaos-detectors-under-faults".into(),
        title: "MAD / EWMA / triangle detectors under benign fault noise: detection \
                quality vs churn and loss bursts (Vivaldi, inflation collusion, 30% \
                malicious)"
            .into(),
        columns,
        rows,
        notes,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn assert_shape(fig: &FigureResult, rows: usize) {
        assert_eq!(fig.rows.len(), rows, "{}", fig.id);
        for row in &fig.rows {
            assert_eq!(row.len(), fig.columns.len(), "{}", fig.id);
            assert!(row.iter().all(|v| v.is_finite()), "{}: {row:?}", fig.id);
        }
        assert!(!fig.notes.is_empty());
    }

    #[test]
    fn churn_vivaldi_recovers_within_ten_percent() {
        let fig = chaos_churn_vivaldi(&Scale::smoke(), 2006);
        assert_shape(&fig, CHURN_FRACTIONS.len());
        for row in &fig.rows {
            // The acceptance gate: post-churn tail error re-converges to
            // within 10% of the no-churn steady state at every intensity.
            assert!(
                row[3] <= 1.1,
                "churn {:.0}% failed to recover: ratio {:.3}",
                row[1] * 100.0,
                row[3]
            );
        }
        let faulty = &fig.rows[CHURN_FRACTIONS.len() - 1];
        assert!(faulty[4] > 0.0 && faulty[5] > 0.0, "crashes and restarts");
        assert!(faulty[6] > 0.0, "timeouts must be observed");
    }

    #[test]
    fn churn_nps_recovers_and_fails_over() {
        let fig = chaos_churn_nps(&Scale::smoke(), 2006);
        assert_shape(&fig, CHURN_FRACTIONS.len());
        for row in &fig.rows {
            assert!(
                row[3] <= 1.1,
                "churn {:.0}% failed to recover: ratio {:.3}",
                row[1] * 100.0,
                row[3]
            );
        }
        assert!(
            fig.rows.iter().any(|r| r[8] > 0.0),
            "some churn level must force reference fail-overs"
        );
    }

    #[test]
    fn partition_recovery_heals() {
        let fig = chaos_partition_recovery(&Scale::smoke(), 2006);
        assert!(fig.rows.len() >= 5);
        // While split, error is visibly worse than calm at some point...
        let peak = fig
            .rows
            .iter()
            .map(|r| r[3])
            .fold(f64::NEG_INFINITY, f64::max);
        assert!(
            peak > 1.05,
            "partition had no visible effect: peak {peak:.3}"
        );
        // ...and the final ratio shows the healed system re-converged.
        let last = fig.rows.last().unwrap();
        assert!(
            last[3] <= 1.1,
            "post-heal ratio {:.3} did not recover",
            last[3]
        );
    }

    #[test]
    fn probation_reinstates_only_when_enabled() {
        let fig = chaos_probation_nps(&Scale::smoke(), 2006);
        assert_shape(&fig, 4);
        // Channel off: decay starves, nobody comes back.
        // Channel on at some frequency: reinstatements flow.
        let off = fig.rows[0][5];
        let best_on = fig.rows[1..]
            .iter()
            .map(|r| r[5])
            .fold(f64::NEG_INFINITY, f64::max);
        assert!(
            best_on > off,
            "probation must unlock reinstatement: off {off:.1}, best on {best_on:.1}"
        );
        // And forgiveness must not cost accuracy at the fastest channel:
        // with probation every 2 rounds the reinstated (reformed)
        // references settle back to within 10% of the channel-off tail.
        let fastest = fig.rows.last().unwrap();
        assert!(
            fastest[3] <= 1.1,
            "probation every {} failed to recover: ratio {:.3}",
            fastest[1],
            fastest[3]
        );
    }

    #[test]
    fn probation_leak_is_closed_by_leases() {
        let fig = chaos_probation_leak(&Scale::smoke(), 2006);
        assert_shape(&fig, LEAK_WINDOWS.len());
        // The relief valve must actually fire — no leases means the sweep
        // isn't exercising starvation relief at all.
        assert!(
            fig.rows.iter().all(|r| r[3] > 0.0),
            "every window must observe readmission leases"
        );
        // The fix's acceptance gate: before leases the leak rate was 0.31
        // at the shortest window and 1.00 from 64 rounds; with lease
        // evidence quarantined it must stay ≤ 0.05 at EVERY window —
        // including the longest, where the old guard saturated.
        for row in &fig.rows {
            assert!(
                row[6] <= 0.05,
                "window {} rounds leaked: rate {:.3} (reinstated {:.1} of {:.1} bans)",
                row[1],
                row[6],
                row[5],
                row[4]
            );
        }
        // And the quarantine must be doing the closing: leased references
        // keep probing, so quarantined evidence accumulates with the
        // window instead of healing anyone.
        let (first, last) = (&fig.rows[0], fig.rows.last().unwrap());
        assert!(
            last[8] > 0.0 && last[8] >= first[8],
            "quarantined evidence must accumulate: {:.0} -> {:.0}",
            first[8],
            last[8]
        );
    }

    #[test]
    fn detectors_under_faults_covers_the_grid() {
        let fig = chaos_detectors_under_faults(&Scale::smoke(), 2006);
        assert_shape(&fig, FAULT_DETECTORS.len() * FAULT_REGIMES.len());
        // Every detector must actually flag the loud inflation on its
        // clean row — a detector that can't see the attack without fault
        // noise makes the degradation columns meaningless.
        for (di, &detector) in FAULT_DETECTORS.iter().enumerate() {
            let clean = &fig.rows[di * FAULT_REGIMES.len()];
            assert!(
                clean[3] > 0.0,
                "{detector} must flag inflation on the clean row: tpr {:.2}",
                clean[3]
            );
        }
    }

    #[test]
    fn landmark_takedown_fails_over_and_recovers() {
        let fig = chaos_landmark_takedown(&Scale::smoke(), 2006);
        assert_shape(&fig, 4);
        for row in &fig.rows {
            assert!(
                row[3] <= 1.1,
                "{:.0} landmarks down failed to recover: ratio {:.3}",
                row[1],
                row[3]
            );
        }
        assert!(
            fig.rows.iter().any(|r| r[7] > 0.0),
            "takedown must force fail-overs through membership"
        );
    }

    #[test]
    fn loss_bursts_do_not_defame_honest_nodes() {
        let fig = chaos_loss_bursts(&Scale::smoke(), 2006);
        assert_shape(&fig, 4);
        for row in &fig.rows {
            assert!(
                row[3] <= 1.1,
                "p_enter {:.2} failed to recover: ratio {:.3}",
                row[1],
                row[3]
            );
            // Benign bursts must not read as attacks to the drift cap.
            assert!(
                row[4] == 0.0 && row[5] == 0.0,
                "p_enter {:.2}: benign bursts banned honest nodes (fpr {:.3}, {:.1} banned)",
                row[1],
                row[4],
                row[5]
            );
        }
        let faulty = fig.rows.last().unwrap();
        assert!(faulty[6] > 0.0 && faulty[7] > 0.0, "losses and spikes");
    }
}
