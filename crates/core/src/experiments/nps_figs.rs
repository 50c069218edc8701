//! Figure runners for the NPS attacks (paper figures 14–26).
//!
//! x axes are repositioning rounds (one round ≈ 60 s simulated); attack
//! injection happens at `scale.nps_warmup_rounds`.

use crate::attacks::nps::{
    NpsAntiDetection, NpsCollusionIsolation, NpsCombined, NpsSimpleDisorder,
};
use crate::experiments::harness::{AttackFactory, Run, RunSpec};
use crate::experiments::{average_series, FigureResult, Scale};
use crate::knowledge::Knowledge;
use vcoord_metrics::Cdf;
use vcoord_nps::{NpsConfig, NpsSim};
use vcoord_space::Space;

/// Malicious fractions used across the NPS figures.
pub const FRACTIONS: [f64; 5] = [0.10, 0.20, 0.30, 0.40, 0.50];

fn quantile_grid() -> Vec<f64> {
    (0..=50).map(|k| k as f64 / 50.0).collect()
}

type BoxedNpsAdversary = Box<dyn vcoord_attackkit::AttackStrategy>;

fn disorder_factory() -> impl Fn(
    &mut NpsSim,
    &[usize],
    &vcoord_netsim::SeedStream,
) -> (BoxedNpsAdversary, Option<Vec<usize>>)
       + Sync {
    |_sim, _attackers, _seeds| {
        (
            Box::new(NpsSimpleDisorder::default()) as BoxedNpsAdversary,
            None,
        )
    }
}

fn anti_detection_factory(
    knowledge: Knowledge,
    sophisticated: bool,
) -> impl Fn(
    &mut NpsSim,
    &[usize],
    &vcoord_netsim::SeedStream,
) -> (BoxedNpsAdversary, Option<Vec<usize>>)
       + Sync {
    move |_sim, _attackers, _seeds| {
        let adv = if sophisticated {
            NpsAntiDetection::sophisticated(knowledge)
        } else {
            NpsAntiDetection::naive(knowledge)
        };
        (Box::new(adv) as BoxedNpsAdversary, None)
    }
}

/// Colluding-isolation factory; victims are reported as the focus set so
/// the harness can track their error separately (figure 25).
fn collusion_factory(
    victim_fraction: f64,
) -> impl Fn(
    &mut NpsSim,
    &[usize],
    &vcoord_netsim::SeedStream,
) -> (BoxedNpsAdversary, Option<Vec<usize>>)
       + Sync {
    move |sim, attackers, seeds| {
        use rand::seq::SliceRandom;
        // Choose the common victim set here so it can double as the focus
        // set; pass it to the adversary as a preset.
        let mut pool: Vec<usize> = (0..sim.matrix().len())
            .filter(|&i| sim.layers_of()[i] == 2 && !attackers.contains(&i))
            .collect();
        pool.shuffle(&mut seeds.rng("collusion-victims"));
        let k = ((pool.len() as f64) * victim_fraction).round().max(1.0) as usize;
        pool.truncate(k);
        let mut adv = NpsCollusionIsolation::new(victim_fraction);
        adv.preset_victims(pool.iter().copied().collect());
        (Box::new(adv) as BoxedNpsAdversary, Some(pool))
    }
}

fn combined_factory(
    knowledge: Knowledge,
) -> impl Fn(
    &mut NpsSim,
    &[usize],
    &vcoord_netsim::SeedStream,
) -> (BoxedNpsAdversary, Option<Vec<usize>>)
       + Sync {
    move |_sim, _attackers, _seeds| {
        (
            Box::new(NpsCombined::new(knowledge, 0.2)) as BoxedNpsAdversary,
            None,
        )
    }
}

/// Error-vs-time figure over fractions × configs (figures 14, 18, 26).
fn error_vs_time(
    id: &str,
    title: &str,
    scale: &Scale,
    seed: u64,
    fractions: &[f64],
    configs: &[(&str, NpsConfig)],
    factory: AttackFactory<'_, NpsSim>,
) -> FigureResult {
    let mut columns = vec!["round".to_string()];
    let mut all_series = Vec::new();
    let mut notes = Vec::new();
    for &f in fractions {
        for (label, config) in configs {
            columns.push(format!("err_{}pct_{label}", (f * 100.0).round() as u32));
            let runs = RunSpec::nps(config.clone(), scale.nodes, f, factory).runs(scale, seed);
            let avg = average_series(
                &runs
                    .iter()
                    .map(|r| r.attack_series.clone())
                    .collect::<Vec<_>>(),
            );
            let clean = runs.iter().map(|r| r.clean_ref).sum::<f64>() / runs.len() as f64;
            notes.push(format!(
                "{}% {label}: clean {:.2} -> attacked {:.2}",
                (f * 100.0).round(),
                clean,
                avg.tail_mean(3)
            ));
            all_series.push(avg);
        }
    }
    let len = all_series.iter().map(|s| s.len()).min().unwrap_or(0);
    let rows: Vec<Vec<f64>> = (0..len)
        .map(|k| {
            let mut row = vec![all_series[0].points()[k].0 as f64];
            row.extend(all_series.iter().map(|s| s.points()[k].1));
            row
        })
        .collect();
    FigureResult {
        id: id.into(),
        title: title.into(),
        columns,
        rows,
        notes,
    }
}

/// Figure 14 — independent disorder without the detection mechanism.
pub fn fig14(scale: &Scale, seed: u64) -> FigureResult {
    let insecure = NpsConfig {
        security: false,
        ..NpsConfig::default()
    };
    let secure = NpsConfig {
        security: true,
        ..NpsConfig::default()
    };
    error_vs_time(
        "fig14",
        "Injection of independent Disorder attackers on NPS (security off vs on): average relative error",
        scale,
        seed,
        &[0.10, 0.20, 0.30, 0.50],
        &[("off", insecure), ("on", secure)],
        &disorder_factory(),
    )
}

/// Figure 15 — independent disorder: CDF, security on vs off.
pub fn fig15(scale: &Scale, seed: u64) -> FigureResult {
    let grid = quantile_grid();
    let fractions = [0.20, 0.40];
    let mut columns = vec!["quantile".to_string()];
    let mut cdfs = Vec::new();
    let mut notes = Vec::new();
    let factory = disorder_factory();
    for &f in &fractions {
        for security in [false, true] {
            let config = NpsConfig {
                security,
                ..NpsConfig::default()
            };
            let label = if security { "on" } else { "off" };
            columns.push(format!("err_{}pct_sec_{label}", (f * 100.0) as u32));
            let runs = RunSpec::nps(config, scale.nodes, f, &factory).runs(scale, seed);
            let all: Vec<f64> = runs.iter().flat_map(|r| r.final_errors.clone()).collect();
            let cdf = Cdf::from_samples(&all);
            notes.push(format!(
                "{}% sec={label}: median {:.2}",
                (f * 100.0) as u32,
                cdf.median()
            ));
            cdfs.push(cdf);
        }
    }
    let rows: Vec<Vec<f64>> = grid
        .iter()
        .map(|&q| {
            let mut row = vec![q];
            row.extend(cdfs.iter().map(|c| c.quantile(q)));
            row
        })
        .collect();
    FigureResult {
        id: "fig15".into(),
        title: "Injection of independent Disorder attackers on NPS: CDF".into(),
        columns,
        rows,
        notes,
    }
}

/// Figure 16 — independent disorder: impact of dimensionality.
pub fn fig16(scale: &Scale, seed: u64) -> FigureResult {
    let dims = [2usize, 4, 8, 12];
    let fractions = [0.10, 0.20, 0.30, 0.50];
    let mut columns = vec!["fraction_pct".to_string()];
    for d in dims {
        columns.push(format!("err_{d}D"));
    }
    let factory = disorder_factory();
    let mut rows = Vec::new();
    let mut notes = Vec::new();
    let mut clean_by_dim = vec![0.0; dims.len()];
    for (k, &f) in fractions.iter().enumerate() {
        let mut row = vec![f * 100.0];
        for (di, &d) in dims.iter().enumerate() {
            let config = NpsConfig::in_space(Space::Euclidean(d));
            let runs = RunSpec::nps(config, scale.nodes, f, &factory).runs(scale, seed);
            row.push(
                runs.iter()
                    .map(|r| r.attack_series.tail_mean(3))
                    .sum::<f64>()
                    / runs.len() as f64,
            );
            if k == 0 {
                clean_by_dim[di] =
                    runs.iter().map(|r| r.clean_ref).sum::<f64>() / runs.len() as f64;
            }
        }
        rows.push(row);
    }
    for (di, &d) in dims.iter().enumerate() {
        notes.push(format!("{d}D clean error {:.2}", clean_by_dim[di]));
    }
    FigureResult {
        id: "fig16".into(),
        title: "Injection of independent Disorder attackers on NPS: impact of dimensionality"
            .into(),
        columns,
        rows,
        notes,
    }
}

/// Figure 17 is the anti-detection geometry *diagram*; this runner emits
/// the closed-form quantities it illustrates (push bound per α, and the
/// sophistication cut for the 5 s threshold), which are unit-tested in
/// `attacks::geometry`.
pub fn fig17(_scale: &Scale, _seed: u64) -> FigureResult {
    use crate::attacks::geometry::{naive_push_bound, sophistication_cut_ms};
    let alphas = [0.0, 1.0, 2.0, 4.0];
    let rows: Vec<Vec<f64>> = alphas
        .iter()
        .map(|&a| {
            vec![
                a,
                naive_push_bound(a),
                sophistication_cut_ms(5_000.0, naive_push_bound(a)),
            ]
        })
        .collect();
    FigureResult {
        id: "fig17".into(),
        title: "Anti-detection NPS attack geometry (diagram; closed forms)".into(),
        columns: vec![
            "alpha".into(),
            "push_bound_x_d".into(),
            "victim_cut_ms".into(),
        ],
        rows,
        notes: vec![
            "fig 17 in the paper is a geometry diagram, not a data plot".into(),
            "lie construction verified by attacks::geometry unit tests".into(),
        ],
    }
}

/// Figure 18 — anti-detection naive attackers: impact on convergence,
/// security on vs off (probe threshold always on).
pub fn fig18(scale: &Scale, seed: u64) -> FigureResult {
    let on = NpsConfig {
        security: true,
        ..NpsConfig::default()
    };
    // Threshold stays on in the "off" arm: the paper's comparison.
    let off = NpsConfig {
        security: false,
        ..NpsConfig::default()
    };
    error_vs_time(
        "fig18",
        "Injection in NPS of anti-detection naive attackers: impact on convergence",
        scale,
        seed,
        &[0.10, 0.20, 0.30],
        &[("secOn", on), ("secOff", off)],
        &anti_detection_factory(Knowledge::half(), false),
    )
}

/// Figure 19 — anti-detection naive: effect of victim-coordinate knowledge
/// on the error ratio.
pub fn fig19(scale: &Scale, seed: u64) -> FigureResult {
    knowledge_sweep(
        "fig19",
        "Injection in NPS of anti-detection naive attackers: effect of victim coordinate knowledge",
        scale,
        seed,
        false,
        KnowledgeMetric::ErrorRatio,
    )
}

/// Figure 20 — anti-detection naive: ratio of filtered malicious nodes to
/// all filtered nodes, per knowledge level.
pub fn fig20(scale: &Scale, seed: u64) -> FigureResult {
    knowledge_sweep(
        "fig20",
        "Anti-detection naive attackers: filtered-malicious share of all filter events",
        scale,
        seed,
        false,
        KnowledgeMetric::FilteredMaliciousRatio,
    )
}

/// Figure 21 — anti-detection sophisticated attackers: CDF.
pub fn fig21(scale: &Scale, seed: u64) -> FigureResult {
    let grid = quantile_grid();
    let fractions = [0.10, 0.20, 0.30];
    let factory = anti_detection_factory(Knowledge::half(), true);
    let mut columns = vec!["quantile".to_string()];
    let mut cdfs = Vec::new();
    let mut notes = Vec::new();
    for &f in &fractions {
        columns.push(format!("err_{}pct", (f * 100.0) as u32));
        let runs = RunSpec::nps(NpsConfig::default(), scale.nodes, f, &factory).runs(scale, seed);
        let all: Vec<f64> = runs.iter().flat_map(|r| r.final_errors.clone()).collect();
        let clean = runs.iter().map(|r| r.clean_ref).sum::<f64>() / runs.len() as f64;
        let cdf = Cdf::from_samples(&all);
        notes.push(format!(
            "{}%: median {:.2} (clean system mean ≈ {:.2}); fraction worse than clean mean: {:.2}",
            (f * 100.0) as u32,
            cdf.median(),
            clean,
            1.0 - cdf.fraction_below(clean)
        ));
        cdfs.push(cdf);
    }
    let rows: Vec<Vec<f64>> = grid
        .iter()
        .map(|&q| {
            let mut row = vec![q];
            row.extend(cdfs.iter().map(|c| c.quantile(q)));
            row
        })
        .collect();
    FigureResult {
        id: "fig21".into(),
        title: "Injected anti-detection sophisticated attacks on NPS: CDF".into(),
        columns,
        rows,
        notes,
    }
}

/// Figure 22 — anti-detection sophisticated: filtered-malicious share per
/// knowledge level.
pub fn fig22(scale: &Scale, seed: u64) -> FigureResult {
    knowledge_sweep(
        "fig22",
        "Anti-detection sophisticated attackers: filtered-malicious share per knowledge level",
        scale,
        seed,
        true,
        KnowledgeMetric::FilteredMaliciousRatio,
    )
}

enum KnowledgeMetric {
    ErrorRatio,
    FilteredMaliciousRatio,
}

fn knowledge_sweep(
    id: &str,
    title: &str,
    scale: &Scale,
    seed: u64,
    sophisticated: bool,
    metric: KnowledgeMetric,
) -> FigureResult {
    let knowledges = [Knowledge::None, Knowledge::half(), Knowledge::Oracle];
    let fractions = [0.05, 0.10, 0.20, 0.30];
    let mut columns = vec!["fraction_pct".to_string()];
    for k in &knowledges {
        columns.push(format!("p{}", k.probability()));
    }
    let mut rows = Vec::new();
    let mut notes = Vec::new();
    for &f in &fractions {
        let mut row = vec![f * 100.0];
        for &k in &knowledges {
            let factory = anti_detection_factory(k, sophisticated);
            let runs =
                RunSpec::nps(NpsConfig::default(), scale.nodes, f, &factory).runs(scale, seed);
            let value = match metric {
                KnowledgeMetric::ErrorRatio => {
                    runs.iter()
                        .map(|r| r.attack_series.tail_mean(3) / r.clean_ref.max(1e-9))
                        .sum::<f64>()
                        / runs.len() as f64
                }
                KnowledgeMetric::FilteredMaliciousRatio => {
                    // Pool filter events over repetitions (single runs may
                    // have few events).
                    let mut pooled = vcoord_metrics::FilterLedger::new();
                    for r in &runs {
                        pooled.merge(&r.ledger);
                    }
                    if matches!(metric, KnowledgeMetric::FilteredMaliciousRatio) {
                        notes.push(format!(
                            "{}% p={}: filter events {} (malicious {}), threshold bans {}",
                            (f * 100.0).round(),
                            k.probability(),
                            pooled.total(),
                            pooled.filtered_malicious,
                            runs.iter().map(|r| r.threshold_ledger.total()).sum::<u64>()
                        ));
                    }
                    pooled.malicious_ratio().unwrap_or(0.0)
                }
            };
            row.push(value);
        }
        rows.push(row);
    }
    FigureResult {
        id: id.into(),
        title: title.into(),
        columns,
        rows,
        notes,
    }
}

/// Figure 23 — colluding isolation, 3-layer system: CDF of relative errors.
pub fn fig23(scale: &Scale, seed: u64) -> FigureResult {
    collusion_cdf("fig23", 3, scale, seed)
}

/// Figure 24 — colluding isolation, 4-layer system: CDF of relative errors.
pub fn fig24(scale: &Scale, seed: u64) -> FigureResult {
    collusion_cdf("fig24", 4, scale, seed)
}

fn collusion_cdf(id: &str, layers: usize, scale: &Scale, seed: u64) -> FigureResult {
    let grid = quantile_grid();
    let fractions = [0.10, 0.20, 0.30];
    let factory = collusion_factory(0.2);
    let mut columns = vec!["quantile".to_string()];
    let mut cdfs = Vec::new();
    let mut notes = Vec::new();
    for &f in &fractions {
        columns.push(format!("err_{}pct", (f * 100.0) as u32));
        let runs = RunSpec::nps(NpsConfig::with_layers(layers), scale.nodes, f, &factory)
            .runs(scale, seed);
        let all: Vec<f64> = runs.iter().flat_map(|r| r.final_errors.clone()).collect();
        let victims_err: f64 = {
            let vals: Vec<f64> = runs
                .iter()
                .filter_map(|r| r.focus_series.as_ref().map(|s| s.tail_mean(3)))
                .collect();
            vals.iter().sum::<f64>() / vals.len().max(1) as f64
        };
        let cdf = Cdf::from_samples(&all);
        notes.push(format!(
            "{layers}-layer {}%: system median {:.2}, victim avg {:.2}",
            (f * 100.0) as u32,
            cdf.median(),
            victims_err
        ));
        cdfs.push(cdf);
    }
    let rows: Vec<Vec<f64>> = grid
        .iter()
        .map(|&q| {
            let mut row = vec![q];
            row.extend(cdfs.iter().map(|c| c.quantile(q)));
            row
        })
        .collect();
    FigureResult {
        id: id.into(),
        title: format!(
            "Injection of colluding Isolation attack on NPS ({layers}-layer): CDF of relative errors"
        ),
        columns,
        rows,
        notes,
    }
}

/// Figure 25 — colluding isolation: propagation of errors across layers
/// (layer-2 victims vs layer-3 nodes, clean vs 20 % corrupted).
pub fn fig25(scale: &Scale, seed: u64) -> FigureResult {
    let factory = collusion_factory(0.2);
    let honest_factory: AttackFactory<'_, NpsSim> = &|_sim, _attackers, _seeds| {
        (
            Box::new(vcoord_attackkit::Honest) as BoxedNpsAdversary,
            None,
        )
    };
    let fraction = 0.20;

    // Corrupted 3-layer and 4-layer systems.
    let r3 =
        RunSpec::nps(NpsConfig::with_layers(3), scale.nodes, fraction, &factory).runs(scale, seed);
    let r4 =
        RunSpec::nps(NpsConfig::with_layers(4), scale.nodes, fraction, &factory).runs(scale, seed);
    // Clean references (0% attackers; honest factory keeps plumbing equal).
    let c3 =
        RunSpec::nps(NpsConfig::with_layers(3), scale.nodes, 0.0, honest_factory).runs(scale, seed);
    let c4 =
        RunSpec::nps(NpsConfig::with_layers(4), scale.nodes, 0.0, honest_factory).runs(scale, seed);

    let layer_avg = |runs: &[Run], layer: u8| -> f64 {
        let vals: Vec<f64> = runs
            .iter()
            .flat_map(|r| {
                r.layer_series
                    .iter()
                    .filter(|(l, _)| *l == layer)
                    .map(|(_, s)| s.tail_mean(3))
            })
            .collect();
        vals.iter().sum::<f64>() / vals.len().max(1) as f64
    };
    let victim_avg = |runs: &[Run]| -> f64 {
        let vals: Vec<f64> = runs
            .iter()
            .filter_map(|r| r.focus_series.as_ref().map(|s| s.tail_mean(3)))
            .collect();
        vals.iter().sum::<f64>() / vals.len().max(1) as f64
    };

    let rows = vec![
        vec![
            3.0,
            2.0,
            layer_avg(&c3, 2),
            layer_avg(&r3, 2),
            victim_avg(&r3),
        ],
        vec![
            4.0,
            2.0,
            layer_avg(&c4, 2),
            layer_avg(&r4, 2),
            victim_avg(&r4),
        ],
        vec![4.0, 3.0, layer_avg(&c4, 3), layer_avg(&r4, 3), f64::NAN],
    ];
    let notes = vec![
        format!(
            "layer-2 victim error similar across structures: 3L {:.2} vs 4L {:.2}",
            victim_avg(&r3),
            victim_avg(&r4)
        ),
        format!(
            "layer-3 amplification in 4-layer system: clean {:.2} -> attacked {:.2}",
            layer_avg(&c4, 3),
            layer_avg(&r4, 3)
        ),
    ];
    FigureResult {
        id: "fig25".into(),
        title: "Colluding Isolation on NPS: propagation of errors across layers".into(),
        columns: vec![
            "system_layers".into(),
            "layer".into(),
            "clean_err".into(),
            "attacked_err".into(),
            "victim_err".into(),
        ],
        rows,
        notes,
    }
}

/// Figure 26 — combined NPS attacks: impact on convergence.
pub fn fig26(scale: &Scale, seed: u64) -> FigureResult {
    error_vs_time(
        "fig26",
        "Injection of combined attacks on NPS: impact on convergence",
        scale,
        seed,
        &[0.05, 0.10, 0.15],
        &[("combined", NpsConfig::default())],
        &combined_factory(Knowledge::half()),
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fig17_is_static_and_correct() {
        let fig = fig17(&Scale::smoke(), 0);
        assert_eq!(fig.rows.len(), 4);
        // α = 2 row: bound 399.
        let row = &fig.rows[2];
        assert_eq!(row[0], 2.0);
        assert!((row[1] - 399.0).abs() < 1e-9);
    }

    #[test]
    fn fig14_smoke_shows_attack_effect() {
        let scale = Scale::smoke();
        let fig = fig14(&scale, 5);
        assert!(!fig.rows.is_empty());
        assert_eq!(fig.columns.len(), 1 + 4 * 2);
    }
}
