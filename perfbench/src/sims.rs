//! The two simulation workloads on a 1740-node King-like matrix.
//!
//! Both follow the paper's injection protocol: converge cleanly, inject
//! the attackers, keep running, and record `EvalPlan` error at a fixed
//! interval. Each record is one checked operation.

use crate::spans::{RunSpans, SpanId, Tracer};
use crate::{quantile, Unit};
use std::time::Instant;
use vcoord::experiments::Scale;
use vcoord::netsim::TICK_MS;
use vcoord::prelude::*;

/// Nodes of the paper's King matrix.
const NODES: usize = 1740;

/// NPS: rounds before injection, rounds after, and the record interval.
const NPS_WARMUP_ROUNDS: u64 = 16;
const NPS_ATTACK_ROUNDS: u64 = 24;
const NPS_RECORD_EVERY: u64 = 2;
const NPS_ATTACK_FRACTION: f64 = 0.20;

/// Vivaldi: ticks before injection, ticks after, and the record interval.
const VIV_WARMUP_TICKS: u64 = 1000;
const VIV_ATTACK_TICKS: u64 = 1000;
const VIV_RECORD_EVERY: u64 = 10;
const VIV_ATTACK_FRACTION: f64 = 0.30;
const VIV_CHURN_FRACTION: f64 = 0.10;

/// The obs timings drained after each `run_rounds` call: positioning, and
/// the Simplex fits, filtering and defense inspection inside it.
const NPS_ROUND_INNER: &[(&str, Option<&str>)] = &[
    ("nps.position_ns", None),
    ("simplex.fit_ns", Some("nps.position_ns")),
    ("nps.filter_ns", Some("nps.position_ns")),
    ("defense.inspect_ns", Some("nps.position_ns")),
];

/// The obs timings drained after each `run_ticks` call. Simplex is listed
/// so that its absence is measured.
const VIV_TICK_INNER: &[(&str, Option<&str>)] =
    &[("defense.inspect_ns", None), ("simplex.fit_ns", None)];

/// Builds the matrix from the seed, inside a `topo.generate` span.
fn generate(seeds: &SeedStream, tr: &mut Tracer, root: SpanId) -> RttMatrix {
    let s = tr.open("topo.generate", root);
    let matrix = KingLike::new(KingLikeConfig::with_nodes(NODES)).generate(&mut seeds.rng("topo"));
    tr.close(s, &[]);
    matrix
}

/// Makes `EvalPlan`s with `Scale::full()`'s evaluation parameters (all
/// pairs up to 256 nodes, 128 sampled peers above), drawing peers from the
/// workload's `eval-plan` stream.
fn planner(seeds: &SeedStream) -> impl FnMut(&[usize]) -> EvalPlan {
    let full = Scale::full();
    let mut rng = seeds.rng("eval-plan");
    move |nodes| {
        EvalPlan::with_params(
            nodes,
            full.eval_all_pairs_threshold,
            full.eval_sample_peers,
            &mut rng,
        )
    }
}

/// What an `EvalPlan` reads from a sim: coordinates, their space, and the
/// true RTTs.
type View<'a> = (&'a [Coord], &'a Space, &'a RttMatrix);

trait Sim {
    fn view(&self) -> View<'_>;
}

impl Sim for NpsSim {
    fn view(&self) -> View<'_> {
        (self.coords(), self.space(), self.matrix())
    }
}

impl Sim for VivaldiSim {
    fn view(&self) -> View<'_> {
        (self.coords(), self.space(), self.matrix())
    }
}

/// One timed `EvalPlan` record. It fails if its value or any evaluated
/// coordinate is not finite.
fn record(plan: &EvalPlan, (coords, space, matrix): View, tr: &mut Tracer, parent: SpanId) -> bool {
    let (err, _) = tr.call("metrics.eval", parent, &[], || {
        plan.avg_error_with(coords, space, matrix, 1)
    });
    !err.is_finite() || plan.nodes().iter().any(|&i| !coords[i].is_finite())
}

/// The median per-node error at the end of the run, and whether any
/// per-node error is not finite.
fn final_error(plan: &EvalPlan, (coords, space, matrix): View) -> (f64, bool) {
    let errs = plan.per_node_errors_with(coords, space, matrix, 1);
    let bad = errs.iter().any(|e| !e.is_finite());
    (quantile(&errs, 0.5), bad)
}

/// Per-layer values both simulations have: topology and `EvalPlan`.
fn common_layers(s: &RunSpans, wall_s: f64) -> Vec<(&'static str, f64)> {
    let eval_ms = s.ms("metrics.eval");
    let eval_s = s.secs("metrics.eval");
    vec![
        ("topo.generate_s", s.secs("topo.generate")),
        ("metrics.eval_ms_p50", quantile(&eval_ms, 0.5)),
        ("metrics.eval_ms_p90", quantile(&eval_ms, 0.9)),
        ("metrics.eval_s", eval_s),
        ("metrics.eval_share", eval_s / wall_s),
    ]
}

/// `nps-disorder`: NPS with its security filter on, 20% simple-disorder
/// attackers injected into the converged hierarchy, no defense deployed.
pub struct NpsDisorder {
    seeds: SeedStream,
}

impl NpsDisorder {
    pub fn new(seed: u64) -> NpsDisorder {
        NpsDisorder {
            seeds: SeedStream::new(seed).derive("nps-disorder"),
        }
    }

    /// The set-up: the matrix and the simulation, under the unit's root span.
    fn setup(&self, tr: &mut Tracer) -> (NpsSim, SpanId) {
        let root = tr.open("unit", SpanId::none());
        let matrix = generate(&self.seeds, tr, root);
        let s = tr.open("nps.new", root);
        let sim = NpsSim::new(matrix, NpsConfig::default(), &self.seeds);
        tr.close(
            s,
            &[
                ("nps.embed_ns", None),
                ("simplex.fit_ns", Some("nps.embed_ns")),
            ],
        );
        (sim, root)
    }
}

impl crate::Workload for NpsDisorder {
    fn unit(&self, tr: &mut Tracer) -> Unit {
        let t = Instant::now();
        let (mut sim, root) = self.setup(tr);
        let setup_s = t.elapsed().as_secs_f64();
        let mut plan = planner(&self.seeds);
        let (mut attempted, mut failed) = (0u64, 0u64);
        let phase = tr.open("timed", root);
        let start = Instant::now();

        // Converge: staggered joins, then clean repositioning. The set of
        // positioned nodes grows during joins, so each record gets a plan.
        for r in 1..=NPS_WARMUP_ROUNDS {
            tr.call("nps.run_rounds", phase, NPS_ROUND_INNER, || {
                sim.run_rounds(1)
            });
            if r % NPS_RECORD_EVERY == 0 {
                let eval = sim.eval_nodes();
                if eval.len() >= 8 {
                    attempted += 1;
                    failed += u64::from(record(&plan(&eval), sim.view(), tr, phase));
                }
            }
        }
        let attackers = sim.pick_attackers(NPS_ATTACK_FRACTION);
        sim.inject_adversary(&attackers, Box::new(NpsSimpleDisorder::default()));
        let honest = plan(&sim.eval_nodes());
        for r in 1..=NPS_ATTACK_ROUNDS {
            tr.call("nps.run_rounds", phase, NPS_ROUND_INNER, || {
                sim.run_rounds(1)
            });
            if r % NPS_RECORD_EVERY == 0 {
                attempted += 1;
                failed += u64::from(record(&honest, sim.view(), tr, phase));
            }
        }
        let wall_s = start.elapsed().as_secs_f64();
        tr.close(phase, &[]);
        tr.close(root, &[]);
        let (rel_error_p50, bad) = final_error(&honest, sim.view());
        attempted += 1;
        failed += u64::from(bad);

        let c = sim.counters();
        let mut layers = Vec::new();
        if tr.is_on() {
            let s = tr.current();
            let round_ms = s.ms("nps.run_rounds");
            let fit_s = s.inner_secs("nps.run_rounds", "simplex.fit_ns");
            layers = common_layers(&s, wall_s);
            layers.extend([
                ("nps.embed_s", s.secs("nps.new")),
                ("nps.round_ms_p50", quantile(&round_ms, 0.5)),
                ("nps.round_ms_p90", quantile(&round_ms, 0.9)),
                (
                    "nps.evals_per_positioning",
                    c.objective_evals as f64 / c.positionings.max(1) as f64,
                ),
                (
                    "nps.filter_s",
                    s.inner_secs("nps.run_rounds", "nps.filter_ns"),
                ),
                ("nps.positionings", c.positionings as f64),
                (
                    "nps.skipped_frac",
                    c.skipped_rounds as f64 / (c.positionings + c.skipped_rounds).max(1) as f64,
                ),
                ("nps.refs_filtered", c.refs_filtered as f64),
                ("space.simplex_fit_s", fit_s),
                (
                    "space.simplex_fits",
                    s.inner_count("nps.run_rounds", "simplex.fit_ns"),
                ),
                ("space.simplex_share", fit_s / wall_s),
                (
                    "netsim.nps_self_s",
                    s.secs("nps.run_rounds") - s.inner_secs("nps.run_rounds", "nps.position_ns"),
                ),
                (
                    "defense.inspect_s",
                    s.inner_secs("nps.run_rounds", "defense.inspect_ns"),
                ),
                (
                    "defense.inspections",
                    s.inner_count("nps.run_rounds", "defense.inspect_ns"),
                ),
            ]);
        }
        Unit {
            wall_s,
            setups: vec![setup_s],
            ops: c.positionings,
            attempted,
            failed,
            rel_error_p50,
            exact: vec![
                ("nps.positionings", c.positionings as f64),
                ("nps.skipped_rounds", c.skipped_rounds as f64),
                ("nps.objective_evals", c.objective_evals as f64),
                ("nps.refs_filtered", c.refs_filtered as f64),
                ("nps.lies_served", c.lies_served as f64),
                ("eval.records", attempted as f64),
            ],
            layers,
        }
    }
}

/// `vivaldi-frog-chaos`: Vivaldi with 30% frog-boiling attackers, a drift
/// cap deployed at injection, and a chaos plan of mild loss bursts plus a
/// 10% crash/restart wave.
pub struct VivaldiFrogChaos {
    seeds: SeedStream,
}

impl VivaldiFrogChaos {
    pub fn new(seed: u64) -> VivaldiFrogChaos {
        VivaldiFrogChaos {
            seeds: SeedStream::new(seed).derive("vivaldi-frog-chaos"),
        }
    }

    /// The set-up: the matrix and the simulation, under the unit's root span.
    fn setup(&self, tr: &mut Tracer) -> (VivaldiSim, SpanId) {
        let root = tr.open("unit", SpanId::none());
        let matrix = generate(&self.seeds, tr, root);
        let s = tr.open("vivaldi.new", root);
        let sim = VivaldiSim::new(matrix, VivaldiConfig::default(), &self.seeds);
        tr.close(s, &[]);
        (sim, root)
    }
}

impl crate::Workload for VivaldiFrogChaos {
    fn unit(&self, tr: &mut Tracer) -> Unit {
        let t = Instant::now();
        let (mut sim, root) = self.setup(tr);
        let setup_s = t.elapsed().as_secs_f64();
        let mut plan = planner(&self.seeds);
        let (mut attempted, mut failed) = (0u64, 0u64);
        let phase = tr.open("timed", root);
        let start = Instant::now();

        let all = plan(&(0..NODES).collect::<Vec<_>>());
        for t in 1..=VIV_WARMUP_TICKS {
            tr.call("vivaldi.run_ticks", phase, VIV_TICK_INNER, || {
                sim.run_ticks(1)
            });
            if t % VIV_RECORD_EVERY == 0 {
                attempted += 1;
                failed += u64::from(record(&all, sim.view(), tr, phase));
            }
        }
        let attackers = sim.pick_attackers(VIV_ATTACK_FRACTION);
        sim.inject_adversary(&attackers, Box::new(FrogBoiling::default()));
        sim.deploy_defense(Box::new(DriftCap::default()));
        sim.install_chaos(
            ChaosPlan::with_seed(self.seeds.seed_for("chaos"))
                .bursts(BurstModel::mild())
                .churn_wave(NODES, VIV_CHURN_FRACTION, 10 * TICK_MS, 30 * TICK_MS),
        );
        let honest = plan(&sim.honest_nodes());
        for t in 1..=VIV_ATTACK_TICKS {
            tr.call("vivaldi.run_ticks", phase, VIV_TICK_INNER, || {
                sim.run_ticks(1)
            });
            if t % VIV_RECORD_EVERY == 0 {
                attempted += 1;
                failed += u64::from(record(&honest, sim.view(), tr, phase));
            }
        }
        let wall_s = start.elapsed().as_secs_f64();
        tr.close(phase, &[]);
        tr.close(root, &[]);
        let (rel_error_p50, bad) = final_error(&honest, sim.view());
        attempted += 1;
        failed += u64::from(bad);

        let c = sim.counters();
        let d = sim.defense_stats().cloned().unwrap_or_default();
        let x = sim.chaos_counters().copied().unwrap_or_default();
        let mut layers = Vec::new();
        if tr.is_on() {
            let s = tr.current();
            let tick_ms = s.ms("vivaldi.run_ticks");
            let inspect_s = s.inner_secs("vivaldi.run_ticks", "defense.inspect_ns");
            let fit_s = s.inner_secs("vivaldi.run_ticks", "simplex.fit_ns");
            layers = common_layers(&s, wall_s);
            layers.extend([
                ("vivaldi.new_s", s.secs("vivaldi.new")),
                ("vivaldi.tick_ms_p50", quantile(&tick_ms, 0.5)),
                ("vivaldi.tick_ms_p90", quantile(&tick_ms, 0.9)),
                ("vivaldi.samples_applied", c.samples_applied as f64),
                (
                    "netsim.vivaldi_self_s",
                    s.secs("vivaldi.run_ticks") - inspect_s,
                ),
                ("defense.inspect_s", inspect_s),
                (
                    "defense.inspections",
                    s.inner_count("vivaldi.run_ticks", "defense.inspect_ns"),
                ),
                (
                    "defense.reject_frac",
                    d.rejected as f64 / d.total().max(1) as f64,
                ),
                ("chaos.timeouts", x.timeouts as f64),
                ("chaos.retries", x.retries as f64),
                ("chaos.burst_losses", x.burst_losses as f64),
                ("chaos.evictions", x.evictions as f64),
                ("space.simplex_fit_s", fit_s),
                (
                    "space.simplex_fits",
                    s.inner_count("vivaldi.run_ticks", "simplex.fit_ns"),
                ),
                ("space.simplex_share", fit_s / wall_s),
            ]);
        }
        Unit {
            wall_s,
            setups: vec![setup_s],
            ops: c.samples_applied,
            attempted,
            failed,
            rel_error_p50,
            exact: vec![
                ("vivaldi.samples_applied", c.samples_applied as f64),
                ("vivaldi.probes_sent", c.probes_sent as f64),
                ("defense.accepted", d.accepted as f64),
                ("defense.rejected", d.rejected as f64),
                ("chaos.timeouts", x.timeouts as f64),
                ("chaos.retries", x.retries as f64),
                ("chaos.burst_losses", x.burst_losses as f64),
                ("chaos.evictions", x.evictions as f64),
                ("eval.records", attempted as f64),
            ],
            layers,
        }
    }
}
