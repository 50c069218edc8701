//! The injection driver: converge a clean system, inject an attack, record.
//!
//! Every attacked figure follows the paper's *injection* protocol (§5.2):
//! the system first converges cleanly (warm-up), the malicious population
//! is then picked at random and activated — with a defense and a fault plan
//! optionally deployed in the same instant — and honest-node error is
//! recorded before and after.
//!
//! A `RunSpec` holds everything one run needs except the repetition: the
//! system config, the node count, the malicious fraction, and the attack,
//! defense and chaos factories. `RunSpec::run` is the one driver and
//! `RunSpec::runs` fans the repetitions out. The driver is generic over
//! the crate-private `System` trait, which `VivaldiSim` and `NpsSim`
//! implement. It carries only what differs between the two: the seed label,
//! the tick or round schedule, which nodes are evaluated during warm-up and
//! after injection, how the banned set is read, and the NPS-only per-layer
//! series and filter ledgers. Every run is fully determined by
//! `(master_seed, repetition)`.

use crate::experiments::{eval_thread_budget, run_repetitions, Scale};
use vcoord_attackkit::AttackStrategy;
use vcoord_chaos::{ChaosCounters, ChaosPlan};
use vcoord_defense::{Defense, DefenseStats, DefenseStrategy};
use vcoord_metrics::{random_baseline_with, Confusion, EvalPlan, FilterLedger, TimeSeries};
use vcoord_netsim::SeedStream;
use vcoord_nps::{NpsConfig, NpsSim};
use vcoord_space::{Coord, Space};
use vcoord_topo::{KingLike, KingLikeConfig, RttMatrix};
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

/// Outcome of one injection run.
#[derive(Debug, Clone)]
pub struct Run {
    /// Average relative error of the evaluated nodes, sampled during
    /// warm-up (NaN while too few NPS nodes have joined).
    pub clean_series: TimeSeries,
    /// Average relative error of honest nodes after injection.
    pub attack_series: TimeSeries,
    /// Converged clean error (tail mean of the warm-up series) — the
    /// denominator of the paper's *error ratio*.
    pub clean_ref: f64,
    /// Per-honest-node relative errors at the end of the run (CDF input),
    /// in evaluation-plan order.
    pub final_errors: Vec<f64>,
    /// Per-layer average error series (layer, series) — figure 25. Empty
    /// for Vivaldi, which has no hierarchy.
    pub layer_series: Vec<(u8, TimeSeries)>,
    /// Error of the focus set (isolation target, designated victims), when
    /// the attack factory named one.
    pub focus_series: Option<TimeSeries>,
    /// Mean honest-node coordinate displacement per tick (Vivaldi) or
    /// repositioning round (NPS) during the attack window — the *drift
    /// velocity* gradual attacks maximize while staying under displacement
    /// thresholds.
    pub drift_series: TimeSeries,
    /// Security-filter events attributable to the attack window (NPS only;
    /// empty for Vivaldi).
    pub ledger: FilterLedger,
    /// Probe-threshold eliminations during the attack window (NPS only;
    /// empty for Vivaldi).
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

/// What an attack factory yields: the boxed strategy plus an optional
/// *focus set* of nodes whose error the driver tracks separately
/// (isolation targets, designated victims).
pub(crate) type AdversaryChoice = (Box<dyn AttackStrategy>, Option<Vec<usize>>);

/// Builds the adversary once the attacker set is known.
pub(crate) type AttackFactory<'a, S> =
    &'a (dyn Fn(&mut S, &[usize], &SeedStream) -> AdversaryChoice + Sync);

/// Builds what the driver deploys alongside the attack — a defense or a
/// fault plan — from the converged system and the seed stream.
pub(crate) type Factory<'a, S, T> = &'a (dyn Fn(&S, &SeedStream) -> T + Sync);

/// A system under test, as the injection driver sees it. The items down to
/// `filter_ledgers` are where Vivaldi and NPS differ; the rest forward to
/// the methods both sims have under the same name (`forward_to_sim!`).
pub(crate) trait System: Sized {
    /// What a spec configures: the coordinate space for Vivaldi, the whole
    /// [`NpsConfig`] for NPS.
    type Config: Clone + Sync;
    /// Label under which a repetition's seed stream is derived.
    const SEED_LABEL: &'static str;
    /// Whether warm-up re-plans its evaluation every sample. Vivaldi
    /// evaluates one plan over all nodes, built before warm-up; NPS builds
    /// a plan per sample over the nodes that have joined so far. The number
    /// of plan builds decides what the `eval-plan` stream has left for the
    /// post-injection plan, so each system keeps its own.
    const REPLAN_WARMUP: bool;

    fn build(matrix: RttMatrix, config: Self::Config, seeds: &SeedStream) -> Self;
    /// `(warm-up, attack window, sampling interval)` in this system's steps.
    fn schedule(scale: &Scale) -> (u64, u64, u64);
    fn advance(&mut self, steps: u64);
    fn now(&self) -> u64;
    /// Nodes to evaluate at a warm-up sample; `None` records NaN.
    fn warmup_nodes(&self) -> Option<Vec<usize>>;
    /// Honest nodes evaluated after injection.
    fn eval_nodes(&self) -> Vec<usize>;
    /// Nodes banned when the run ends.
    fn banned(&self) -> Vec<usize>;
    /// The converged clean error from the warm-up series. Both systems take
    /// the mean of the last five samples, but they add them in opposite
    /// orders, which changes the last bit about a third of the time.
    fn clean_ref(clean: &TimeSeries) -> f64;
    /// Number of hierarchy layers (1 for a flat system).
    fn layers(&self) -> usize {
        1
    }
    fn layer_of(&self, _node: usize) -> u8 {
        0
    }
    /// Cumulative `[security filter, probe threshold]` ledgers.
    fn filter_ledgers(&self) -> [FilterLedger; 2] {
        [FilterLedger::new(); 2]
    }

    fn space(&self) -> &Space;
    fn matrix(&self) -> &RttMatrix;
    fn coords(&self) -> &[Coord];
    fn malicious(&self) -> &[bool];
    fn pick_attackers(&mut self, fraction: f64) -> Vec<usize>;
    fn inject_adversary(&mut self, attackers: &[usize], strategy: Box<dyn AttackStrategy>);
    fn deploy_defense(&mut self, strategy: Box<dyn DefenseStrategy>);
    fn install_chaos(&mut self, plan: ChaosPlan);
    fn defense(&self) -> Option<&Defense>;
    fn chaos_counters(&self) -> Option<&ChaosCounters>;
}

/// The [`System`] methods both sims provide under the same name.
macro_rules! forward_to_sim {
    () => {
        fn space(&self) -> &Space {
            Self::space(self)
        }
        fn matrix(&self) -> &RttMatrix {
            Self::matrix(self)
        }
        fn coords(&self) -> &[Coord] {
            Self::coords(self)
        }
        fn malicious(&self) -> &[bool] {
            Self::malicious(self)
        }
        fn pick_attackers(&mut self, fraction: f64) -> Vec<usize> {
            Self::pick_attackers(self, fraction)
        }
        fn inject_adversary(&mut self, attackers: &[usize], strategy: Box<dyn AttackStrategy>) {
            Self::inject_adversary(self, attackers, strategy)
        }
        fn deploy_defense(&mut self, strategy: Box<dyn DefenseStrategy>) {
            Self::deploy_defense(self, strategy)
        }
        fn install_chaos(&mut self, plan: ChaosPlan) {
            Self::install_chaos(self, plan)
        }
        fn defense(&self) -> Option<&Defense> {
            Self::defense(self)
        }
        fn chaos_counters(&self) -> Option<&ChaosCounters> {
            Self::chaos_counters(self)
        }
    };
}

impl System for VivaldiSim {
    type Config = Space;
    const SEED_LABEL: &'static str = "vivaldi-rep";
    const REPLAN_WARMUP: bool = false;

    fn build(matrix: RttMatrix, space: Space, seeds: &SeedStream) -> Self {
        VivaldiSim::new(matrix, VivaldiConfig::in_space(space), seeds)
    }
    fn schedule(scale: &Scale) -> (u64, u64, u64) {
        (
            scale.vivaldi_warmup_ticks,
            scale.vivaldi_attack_ticks,
            scale.vivaldi_record_every,
        )
    }
    fn advance(&mut self, ticks: u64) {
        self.run_ticks(ticks)
    }
    fn now(&self) -> u64 {
        self.now_ticks()
    }
    fn warmup_nodes(&self) -> Option<Vec<usize>> {
        Some((0..self.coords().len()).collect())
    }
    fn eval_nodes(&self) -> Vec<usize> {
        self.honest_nodes()
    }
    fn banned(&self) -> Vec<usize> {
        self.quarantined()
            .iter()
            .enumerate()
            .filter(|(_, &q)| q)
            .map(|(i, _)| i)
            .collect()
    }
    fn clean_ref(clean: &TimeSeries) -> f64 {
        clean.tail_mean(5).max(1e-6)
    }
    forward_to_sim!();
}

impl System for NpsSim {
    type Config = NpsConfig;
    const SEED_LABEL: &'static str = "nps-rep";
    const REPLAN_WARMUP: bool = true;

    fn build(matrix: RttMatrix, config: NpsConfig, seeds: &SeedStream) -> Self {
        NpsSim::new(matrix, config, seeds)
    }
    fn schedule(scale: &Scale) -> (u64, u64, u64) {
        (
            scale.nps_warmup_rounds,
            scale.nps_attack_rounds,
            scale.nps_record_every,
        )
    }
    fn advance(&mut self, rounds: u64) {
        self.run_rounds(rounds)
    }
    fn now(&self) -> u64 {
        self.now_rounds()
    }
    fn warmup_nodes(&self) -> Option<Vec<usize>> {
        // Below 8 joined nodes the error average means nothing yet.
        Some(NpsSim::eval_nodes(self)).filter(|eval| eval.len() >= 8)
    }
    fn eval_nodes(&self) -> Vec<usize> {
        NpsSim::eval_nodes(self)
    }
    fn banned(&self) -> Vec<usize> {
        self.currently_banned()
    }
    fn clean_ref(clean: &TimeSeries) -> f64 {
        // Newest first, skipping the NaN samples of the join phase.
        let tail: Vec<f64> = clean
            .points()
            .iter()
            .rev()
            .take(5)
            .map(|&(_, v)| v)
            .filter(|v| v.is_finite())
            .collect();
        if tail.is_empty() {
            1e-6
        } else {
            (tail.iter().sum::<f64>() / tail.len() as f64).max(1e-6)
        }
    }
    fn layers(&self) -> usize {
        self.config().layers
    }
    fn layer_of(&self, node: usize) -> u8 {
        self.layers_of()[node]
    }
    fn filter_ledgers(&self) -> [FilterLedger; 2] {
        [self.ledger(), self.threshold_ledger()]
    }
    forward_to_sim!();
}

/// One injection scenario: the system config, population and factories of
/// a run, everything but the repetition. Built with [`RunSpec::vivaldi`] or
/// [`RunSpec::nps`], then optionally [`defense`](RunSpec::defense) and
/// [`chaos`](RunSpec::chaos).
pub(crate) struct RunSpec<'a, S: System> {
    config: S::Config,
    /// Population size; overrides `scale.nodes` for system-size sweeps.
    nodes: usize,
    /// Malicious share of the population.
    fraction: f64,
    attack: AttackFactory<'a, S>,
    defense: Option<Factory<'a, S, Box<dyn DefenseStrategy>>>,
    chaos: Option<Factory<'a, S, ChaosPlan>>,
}

impl<'a> RunSpec<'a, VivaldiSim> {
    /// A Vivaldi run in `space` (the workspace-default config otherwise).
    pub(crate) fn vivaldi(
        space: Space,
        nodes: usize,
        fraction: f64,
        attack: AttackFactory<'a, VivaldiSim>,
    ) -> Self {
        RunSpec::new(space, nodes, fraction, attack)
    }
}

impl<'a> RunSpec<'a, NpsSim> {
    /// An NPS run under `config`.
    pub(crate) fn nps(
        config: NpsConfig,
        nodes: usize,
        fraction: f64,
        attack: AttackFactory<'a, NpsSim>,
    ) -> Self {
        RunSpec::new(config, nodes, fraction, attack)
    }
}

impl<'a, S: System> RunSpec<'a, S> {
    fn new(config: S::Config, nodes: usize, fraction: f64, attack: AttackFactory<'a, S>) -> Self {
        RunSpec {
            config,
            nodes,
            fraction,
            attack,
            defense: None,
            chaos: None,
        }
    }

    /// Deploy the defense `build` returns at the injection instant. Unlike
    /// the attack factory it never sees the attacker set — a defense that
    /// knew ground truth would be cheating — only the converged system (for
    /// structural configuration like trusted sets) and the seed stream.
    pub(crate) fn defense(mut self, build: Factory<'a, S, Box<dyn DefenseStrategy>>) -> Self {
        self.defense = Some(build);
        self
    }

    /// Install the fault plan `build` returns at the injection instant,
    /// after the defense; plan times are milliseconds after installation.
    /// With `None` the sim never allocates chaos state, and an empty plan
    /// is bitwise-inert too (`tests/chaos_properties.rs`).
    pub(crate) fn chaos(mut self, build: Option<Factory<'a, S, ChaosPlan>>) -> Self {
        self.chaos = build;
        self
    }

    /// Every repetition of this scenario, in repetition order.
    pub(crate) fn runs(&self, scale: &Scale, master_seed: u64) -> Vec<Run> {
        run_repetitions(scale.repetitions, |rep| self.run(scale, master_seed, rep))
    }

    /// Run repetition `rep` of this scenario.
    pub(crate) fn run(&self, scale: &Scale, master_seed: u64, rep: u64) -> Run {
        let seeds = SeedStream::new(master_seed).derive_indexed(S::SEED_LABEL, rep);
        let matrix =
            KingLike::new(KingLikeConfig::with_nodes(self.nodes)).generate(&mut seeds.rng("topo"));
        let mut sim = S::build(matrix, self.config.clone(), &seeds);
        let (warmup, window, every) = S::schedule(scale);
        let threads = eval_thread_budget(scale.repetitions);
        let mut plan_rng = seeds.rng("eval-plan");
        let mut plan_for = |nodes: Vec<usize>| {
            EvalPlan::with_params(
                &nodes,
                scale.eval_all_pairs_threshold,
                scale.eval_sample_peers,
                &mut plan_rng,
            )
        };

        // Warm-up: converge cleanly, recording the reference series.
        let mut warm_plan = None;
        if !S::REPLAN_WARMUP {
            warm_plan = sim.warmup_nodes().map(&mut plan_for);
        }
        let mut clean_series = TimeSeries::new();
        let mut t = 0;
        while t < warmup {
            sim.advance(every);
            t += every;
            if S::REPLAN_WARMUP {
                warm_plan = sim.warmup_nodes().map(&mut plan_for);
            }
            let err = warm_plan.as_ref().map_or(f64::NAN, |plan| {
                plan.avg_error_with(sim.coords(), sim.space(), sim.matrix(), threads)
            });
            clean_series.push(sim.now(), err);
        }
        let clean_ref = S::clean_ref(&clean_series);
        let ledgers_before = sim.filter_ledgers();

        // Injection — and, in the same instant, defense deployment and the
        // fault plan: the sweeps measure how a converged system absorbs a
        // fresh attack.
        let attackers = sim.pick_attackers(self.fraction);
        let (adversary, focus) = (self.attack)(&mut sim, &attackers, &seeds);
        sim.inject_adversary(&attackers, adversary);
        if let Some(build) = self.defense {
            let strategy = build(&sim, &seeds);
            sim.deploy_defense(strategy);
        }
        if let Some(build) = self.chaos {
            let plan = build(&sim, &seeds);
            sim.install_chaos(plan);
        }

        // Honest-population evaluation plan (the paper measures victims).
        let plan = plan_for(sim.eval_nodes());
        let node_layers: Vec<u8> = plan.nodes().iter().map(|&i| sim.layer_of(i)).collect();
        let focus_indices: Option<Vec<usize>> = focus.as_ref().map(|f| {
            f.iter()
                .filter_map(|id| plan.nodes().iter().position(|&n| n == *id))
                .collect()
        });

        let mut attack_series = TimeSeries::new();
        let mut drift_series = TimeSeries::new();
        let mut reject_series = TimeSeries::new();
        let mut rejected_so_far = 0u64;
        let mut layer_series: Vec<(u8, TimeSeries)> = (1..sim.layers())
            .map(|l| (l as u8, TimeSeries::new()))
            .collect();
        let mut focus_series = focus_indices.as_ref().map(|_| TimeSeries::new());
        let mut final_errors: Vec<f64> = Vec::new();
        let mut prev_coords: Vec<Coord> = plan
            .nodes()
            .iter()
            .map(|&i| sim.coords()[i].clone())
            .collect();
        let mut t = 0;
        while t < window {
            sim.advance(every);
            t += every;
            let now = sim.now();
            let errs = plan.per_node_errors_with(sim.coords(), sim.space(), sim.matrix(), threads);
            let avg = errs.iter().sum::<f64>() / errs.len().max(1) as f64;
            attack_series.push(now, avg);
            drift_series.push(
                now,
                drift_sample(
                    plan.nodes(),
                    &mut prev_coords,
                    sim.coords(),
                    sim.space(),
                    every,
                ),
            );
            if let Some(defense) = sim.defense() {
                let rejected = defense.stats().rejected;
                reject_series.push(now, (rejected - rejected_so_far) as f64);
                rejected_so_far = rejected;
            }
            for (l, series) in layer_series.iter_mut() {
                let vals: Vec<f64> = errs
                    .iter()
                    .zip(&node_layers)
                    .filter(|(_, &nl)| nl == *l)
                    .map(|(&e, _)| e)
                    .collect();
                if !vals.is_empty() {
                    series.push(now, vals.iter().sum::<f64>() / vals.len() as f64);
                }
            }
            if let (Some(fs), Some(fi)) = (focus_series.as_mut(), focus_indices.as_ref()) {
                if !fi.is_empty() {
                    fs.push(
                        now,
                        fi.iter().map(|&k| errs[k]).sum::<f64>() / fi.len() as f64,
                    );
                }
            }
            final_errors = errs;
        }

        let banned_now = sim.banned();
        let defense = sim.defense().map(|d| {
            DefenseOutcome::grade(
                d.label(),
                d.stats(),
                sim.malicious(),
                &banned_now,
                reject_series,
            )
        });
        let [ledger, threshold_ledger] = ledger_delta(sim.filter_ledgers(), ledgers_before);
        let random_baseline = random_baseline_with(
            &plan,
            sim.space(),
            sim.matrix(),
            RANDOM_RANGE,
            &mut seeds.rng("random-baseline"),
            threads,
        );

        Run {
            clean_series,
            attack_series,
            clean_ref,
            final_errors,
            layer_series,
            focus_series,
            drift_series,
            ledger,
            threshold_ledger,
            random_baseline,
            attackers: attackers.len(),
            defense,
            chaos: sim.chaos_counters().copied(),
        }
    }
}

/// Filter events between two snapshots of cumulative ledgers.
fn ledger_delta(after: [FilterLedger; 2], before: [FilterLedger; 2]) -> [FilterLedger; 2] {
    [0, 1].map(|k| FilterLedger {
        filtered_malicious: after[k].filtered_malicious - before[k].filtered_malicious,
        filtered_honest: after[k].filtered_honest - before[k].filtered_honest,
    })
}

/// Mean displacement per step of `nodes` between `prev` (updated in place)
/// and their current coordinates — the drift-velocity sample.
fn drift_sample(
    nodes: &[usize],
    prev: &mut [Coord],
    coords: &[Coord],
    space: &Space,
    steps: u64,
) -> f64 {
    let mut total = 0.0;
    for (k, &i) in nodes.iter().enumerate() {
        total += space.distance(&coords[i], &prev[k]);
        prev[k] = coords[i].clone();
    }
    total / (nodes.len().max(1) as f64 * steps.max(1) as f64)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::attacks::nps::NpsSimpleDisorder;
    use crate::attacks::vivaldi::VivaldiDisorder;
    use vcoord_defense::{DriftCap, NoDefense};
    use vcoord_netsim::TICK_MS;

    /// `spec()` bare, with `NoDefense` deployed, and with an empty chaos
    /// plan installed must record byte-identical trajectories: the NoDefense
    /// fast path and an empty plan perturb nothing.
    fn assert_inert_variants<'a, S: System + 'a>(spec: impl Fn() -> RunSpec<'a, S>) {
        let scale = Scale::smoke();
        let bare = spec().run(&scale, 5, 0);
        let no_defense = spec()
            .defense(&|_sim, _seeds| Box::new(NoDefense))
            .run(&scale, 5, 0);
        let empty_chaos = spec()
            .chaos(Some(&|_sim, _seeds| ChaosPlan::none()))
            .run(&scale, 5, 0);
        for variant in [&no_defense, &empty_chaos] {
            assert_eq!(bare.final_errors, variant.final_errors);
            assert_eq!(bare.clean_series.points(), variant.clean_series.points());
            assert_eq!(bare.attack_series.points(), variant.attack_series.points());
            assert_eq!(bare.drift_series.points(), variant.drift_series.points());
            assert_eq!(bare.layer_series.len(), variant.layer_series.len());
            for ((l, a), (m, b)) in bare.layer_series.iter().zip(&variant.layer_series) {
                assert_eq!((l, a.points()), (m, b.points()));
            }
            assert_eq!(bare.ledger, variant.ledger);
            assert_eq!(bare.threshold_ledger, variant.threshold_ledger);
        }
        let outcome = no_defense.defense.expect("defense was deployed");
        assert_eq!(outcome.label, "none");
        assert_eq!(outcome.rejected, 0);
        assert!(outcome.accepted > 0, "samples flowed through the fast path");
        assert!(bare.defense.is_none() && empty_chaos.defense.is_none());
        assert_eq!(empty_chaos.chaos, Some(ChaosCounters::default()));
        assert!(bare.chaos.is_none());
    }

    #[test]
    fn no_defense_run_matches_undefended_run_exactly() {
        let nodes = Scale::smoke().nodes;
        assert_inert_variants(|| {
            RunSpec::vivaldi(
                Space::Euclidean(2),
                nodes,
                0.2,
                &|_sim, _attackers, _seeds| (Box::new(VivaldiDisorder::default()), None),
            )
        });
        assert_inert_variants(|| {
            RunSpec::nps(
                NpsConfig::default(),
                nodes,
                0.2,
                &|_sim, _attackers, _seeds| (Box::new(NpsSimpleDisorder::default()), None),
            )
        });
    }

    /// Order-sensitive digest of a float vector's exact bits.
    fn bits_digest(values: &[f64]) -> u64 {
        values.iter().fold(0xcbf2_9ce4_8422_2325, |h, v| {
            (h ^ v.to_bits()).wrapping_mul(0x0000_0100_0000_01b3)
        })
    }

    #[test]
    fn sampled_eval_plan_path_is_pinned() {
        // Smoke runs sit below the all-pairs threshold, so `EvalPlan` never
        // draws from the `eval-plan` stream there and the goldens cannot
        // see the order of plan builds. Lowering the threshold makes every
        // plan sample its peers; the bits below were recorded before the
        // harness was generalized and pin that build order for both systems.
        let scale = Scale {
            eval_all_pairs_threshold: 16,
            ..Scale::smoke()
        };
        let nodes = scale.nodes;
        let viv = RunSpec::vivaldi(
            Space::Euclidean(2),
            nodes,
            0.2,
            &|_sim, _attackers, _seeds| (Box::new(VivaldiDisorder::default()), None),
        )
        .defense(&|_sim, _seeds| Box::new(DriftCap::default()))
        .chaos(Some(&|_sim, _seeds| {
            ChaosPlan::with_seed(3).churn_wave(nodes, 0.2, 10 * TICK_MS, 30 * TICK_MS)
        }))
        .run(&scale, 11, 0);
        let nps = RunSpec::nps(
            NpsConfig::default(),
            nodes,
            0.2,
            &|_sim, _attackers, _seeds| (Box::new(NpsSimpleDisorder::default()), None),
        )
        .defense(&|_sim, _seeds| Box::new(DriftCap::default()))
        .chaos(Some(&|_sim, _seeds| {
            ChaosPlan::with_seed(3).churn_wave(nodes, 0.2, 2 * 60_000, 6 * 60_000)
        }))
        .run(&scale, 11, 0);
        let series_digest =
            |s: &TimeSeries| bits_digest(&s.points().iter().map(|p| p.1).collect::<Vec<_>>());
        let pinned = [&viv, &nps].map(|r| {
            (
                r.clean_ref,
                r.random_baseline,
                bits_digest(&r.final_errors),
                series_digest(&r.clean_series),
                series_digest(&r.attack_series),
                r.chaos.map(|c| c.crashes),
            )
        });
        let expected = [
            (
                f64::from_bits(0x3fe5_18bc_c483_e28c),
                f64::from_bits(0x408c_7495_8dbc_cd0f),
                0x3c69_a1da_6a4b_2972,
                0x4866_b18a_0c32_3903,
                0x9ee9_c90d_5461_993e,
                Some(14),
            ),
            (
                f64::from_bits(0x3fcc_de8c_fa7c_ccd2),
                f64::from_bits(0x409f_6988_8a1b_47a0),
                0x31ba_ff50_163e_7cc7,
                0x007a_e51c_fba1_aafa,
                0x5649_6bd1_d21f_ebf6,
                Some(14),
            ),
        ];
        assert_eq!(viv.final_errors.len(), 58);
        assert_eq!(nps.final_errors.len(), 42);
        for ((got, want), system) in pinned.iter().zip(&expected).zip(["vivaldi", "nps"]) {
            assert_eq!(got.0.to_bits(), want.0.to_bits(), "{system} clean_ref");
            assert_eq!(
                got.1.to_bits(),
                want.1.to_bits(),
                "{system} random_baseline"
            );
            assert_eq!(got.2, want.2, "{system} final_errors digest");
            assert_eq!(got.3, want.3, "{system} clean_series digest");
            assert_eq!(got.4, want.4, "{system} attack_series digest");
            assert_eq!(got.5, want.5, "{system} churn crashes");
        }
    }

    #[test]
    fn vivaldi_run_produces_complete_record() {
        let scale = Scale::smoke();
        let run = RunSpec::vivaldi(
            Space::Euclidean(2),
            scale.nodes,
            0.3,
            &|_sim, _attackers, _seeds| (Box::new(VivaldiDisorder::default()), None),
        )
        .run(&scale, 7, 0);
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
        // The NPS-only fields stay empty on a flat system.
        assert!(run.layer_series.is_empty());
        assert_eq!(run.ledger.total() + run.threshold_ledger.total(), 0);
    }
}
