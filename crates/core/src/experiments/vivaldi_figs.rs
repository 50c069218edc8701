//! Figure runners for the Vivaldi attacks (paper figures 1–13).
//!
//! Each function regenerates one figure's data series. Scaling notes:
//! x axes are simulation ticks (≈17 s each) counted from simulation start;
//! attack injection happens at `scale.vivaldi_warmup_ticks`.

use crate::attacks::vivaldi::{
    VivaldiCollusionLure, VivaldiCollusionRepel, VivaldiCombined, VivaldiDisorder, VivaldiRepulsion,
};
use crate::experiments::harness::{AdversaryChoice, AttackFactory, RunSpec};
use crate::experiments::{average_series, FigureResult, Scale};
use rand::seq::SliceRandom;
use vcoord_metrics::Cdf;
use vcoord_space::Space;
use vcoord_vivaldi::VivaldiSim;

/// Malicious fractions used across the Vivaldi figures (§5.2).
pub const FRACTIONS: [f64; 6] = [0.10, 0.20, 0.30, 0.40, 0.50, 0.75];

/// Quantile grid used for all CDF figures.
fn quantile_grid() -> Vec<f64> {
    (0..=50).map(|k| k as f64 / 50.0).collect()
}

fn disorder_factory(
) -> impl Fn(&mut VivaldiSim, &[usize], &vcoord_netsim::SeedStream) -> AdversaryChoice + Sync {
    |_sim, _attackers, _seeds| {
        (
            Box::new(VivaldiDisorder::default()) as Box<dyn vcoord_attackkit::AttackStrategy>,
            None,
        )
    }
}

fn repulsion_factory(
    subset: Option<usize>,
) -> impl Fn(&mut VivaldiSim, &[usize], &vcoord_netsim::SeedStream) -> AdversaryChoice + Sync {
    move |_sim, _attackers, _seeds| {
        let adv: Box<dyn vcoord_attackkit::AttackStrategy> = match subset {
            Some(k) => Box::new(VivaldiRepulsion::with_subset(50_000.0, k)),
            None => Box::new(VivaldiRepulsion::default()),
        };
        (adv, None)
    }
}

/// Collusion strategy-1 factory (repel everyone from a random target).
fn collusion_repel_factory(
) -> impl Fn(&mut VivaldiSim, &[usize], &vcoord_netsim::SeedStream) -> AdversaryChoice + Sync {
    |sim, attackers, seeds| {
        // Attackers are not yet flagged malicious at factory time: exclude
        // them explicitly so the isolation target is a genuine victim.
        let honest: Vec<usize> = sim
            .honest_nodes()
            .into_iter()
            .filter(|n| !attackers.contains(n))
            .collect();
        let target = *honest
            .choose(&mut seeds.rng("collusion-target"))
            .expect("honest nodes exist");
        (
            Box::new(VivaldiCollusionRepel::against(target, 10_000.0))
                as Box<dyn vcoord_attackkit::AttackStrategy>,
            Some(vec![target]),
        )
    }
}

/// Collusion strategy-2 factory (lure a random target into a remote
/// cluster).
fn collusion_lure_factory(
) -> impl Fn(&mut VivaldiSim, &[usize], &vcoord_netsim::SeedStream) -> AdversaryChoice + Sync {
    |sim, attackers, seeds| {
        let honest: Vec<usize> = sim
            .honest_nodes()
            .into_iter()
            .filter(|n| !attackers.contains(n))
            .collect();
        let target = *honest
            .choose(&mut seeds.rng("collusion-target"))
            .expect("honest nodes exist");
        (
            Box::new(VivaldiCollusionLure::against(target, 10_000.0))
                as Box<dyn vcoord_attackkit::AttackStrategy>,
            Some(vec![target]),
        )
    }
}

fn combined_factory(
) -> impl Fn(&mut VivaldiSim, &[usize], &vcoord_netsim::SeedStream) -> AdversaryChoice + Sync {
    |_sim, _attackers, _seeds| {
        (
            Box::new(VivaldiCombined::new()) as Box<dyn vcoord_attackkit::AttackStrategy>,
            None,
        )
    }
}

/// Ratio-vs-time figure over a set of fractions (figures 1, 9, 12).
fn ratio_vs_time(
    id: &str,
    title: &str,
    scale: &Scale,
    seed: u64,
    fractions: &[f64],
    factory: AttackFactory<'_, VivaldiSim>,
) -> FigureResult {
    let mut columns = vec!["tick".to_string()];
    let mut per_fraction: Vec<vcoord_metrics::TimeSeries> = Vec::new();
    let mut notes = Vec::new();
    for &f in fractions {
        columns.push(format!("ratio_{}pct", (f * 100.0).round() as u32));
        let runs = RunSpec::vivaldi(Space::Euclidean(2), scale.nodes, f, factory).runs(scale, seed);
        let ratios: Vec<_> = runs
            .iter()
            .map(|r| r.attack_series.ratio_to(r.clean_ref))
            .collect();
        let avg = average_series(&ratios);
        let random_ratio = runs
            .iter()
            .map(|r| r.random_baseline / r.clean_ref.max(1e-9))
            .sum::<f64>()
            / runs.len() as f64;
        notes.push(format!(
            "{}% malicious: final ratio {:.1} (random-system ratio ≈ {:.0})",
            (f * 100.0).round(),
            avg.tail_mean(3),
            random_ratio
        ));
        per_fraction.push(avg);
    }
    let len = per_fraction.iter().map(|s| s.len()).min().unwrap_or(0);
    let rows: Vec<Vec<f64>> = (0..len)
        .map(|k| {
            let mut row = vec![per_fraction[0].points()[k].0 as f64];
            row.extend(per_fraction.iter().map(|s| s.points()[k].1));
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

/// CDF figure over a set of fractions (figures 2, 5).
fn cdf_by_fraction(
    id: &str,
    title: &str,
    scale: &Scale,
    seed: u64,
    fractions: &[f64],
    factory: AttackFactory<'_, VivaldiSim>,
) -> FigureResult {
    let grid = quantile_grid();
    let mut columns = vec!["quantile".to_string()];
    let mut cdfs: Vec<Cdf> = Vec::new();
    let mut notes = Vec::new();
    for &f in fractions {
        columns.push(format!("err_{}pct", (f * 100.0).round() as u32));
        let runs = RunSpec::vivaldi(Space::Euclidean(2), scale.nodes, f, factory).runs(scale, seed);
        let all: Vec<f64> = runs.iter().flat_map(|r| r.final_errors.clone()).collect();
        let baseline = runs.iter().map(|r| r.random_baseline).sum::<f64>() / runs.len() as f64;
        let cdf = Cdf::from_samples(&all);
        notes.push(format!(
            "{}% malicious: median {:.2}, p90 {:.2}, random baseline {:.0}, fraction at/above random {:.2}",
            (f * 100.0).round(),
            cdf.median(),
            cdf.quantile(0.9),
            baseline,
            1.0 - cdf.fraction_below(baseline)
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
        title: title.into(),
        columns,
        rows,
        notes,
    }
}

/// Dimension-sweep figure (figures 3, 6): converged error per space per
/// fraction, plus the random baseline per space.
fn dimension_sweep(
    id: &str,
    title: &str,
    scale: &Scale,
    seed: u64,
    factory: AttackFactory<'_, VivaldiSim>,
) -> FigureResult {
    let spaces = [
        Space::Euclidean(2),
        Space::Euclidean(3),
        Space::Euclidean(5),
        Space::EuclideanHeight(2),
    ];
    let fractions = [0.10, 0.20, 0.30, 0.50];
    let mut columns = vec!["fraction_pct".to_string()];
    for s in &spaces {
        columns.push(format!("err_{}", s.label()));
    }
    for s in &spaces {
        columns.push(format!("rand_{}", s.label()));
    }
    let mut rows = Vec::new();
    let mut notes = Vec::new();
    // Track clean errors to verify the accuracy/vulnerability trade-off.
    let mut clean_by_space = vec![0.0; spaces.len()];
    let mut attacked_low_fraction = vec![0.0; spaces.len()];
    let mut baselines = vec![0.0; spaces.len()];
    for (k, &f) in fractions.iter().enumerate() {
        let mut row = vec![f * 100.0];
        let mut rands = Vec::new();
        for (si, &space) in spaces.iter().enumerate() {
            let runs = RunSpec::vivaldi(space, scale.nodes, f, factory).runs(scale, seed);
            let err = runs
                .iter()
                .map(|r| r.attack_series.tail_mean(3))
                .sum::<f64>()
                / runs.len() as f64;
            let rand = runs.iter().map(|r| r.random_baseline).sum::<f64>() / runs.len() as f64;
            row.push(err);
            rands.push(rand);
            if k == 0 {
                clean_by_space[si] =
                    runs.iter().map(|r| r.clean_ref).sum::<f64>() / runs.len() as f64;
                attacked_low_fraction[si] = err;
                baselines[si] = rand;
            }
        }
        row.extend(rands);
        rows.push(row);
    }
    for (si, s) in spaces.iter().enumerate() {
        notes.push(format!(
            "{}: clean {:.3}, attacked@10% {:.2}, random {:.0}",
            s.label(),
            clean_by_space[si],
            attacked_low_fraction[si],
            baselines[si]
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

/// System-size sweep (figures 4, 8, 13).
fn size_sweep(
    id: &str,
    title: &str,
    scale: &Scale,
    seed: u64,
    fractions: &[f64],
    factory: AttackFactory<'_, VivaldiSim>,
) -> FigureResult {
    let sizes: Vec<usize> = if scale.nodes >= 1740 {
        vec![200, 400, 800, 1200, 1740]
    } else {
        vec![(scale.nodes / 4).max(40), scale.nodes / 2, scale.nodes]
    };
    let mut columns = vec!["system_size".to_string()];
    for &f in fractions {
        columns.push(format!("err_{}pct", (f * 100.0).round() as u32));
    }
    let mut rows = Vec::new();
    for &n in &sizes {
        let mut row = vec![n as f64];
        for &f in fractions {
            let runs = RunSpec::vivaldi(Space::Euclidean(2), n, f, factory).runs(scale, seed);
            let err = runs
                .iter()
                .map(|r| r.attack_series.tail_mean(3))
                .sum::<f64>()
                / runs.len() as f64;
            row.push(err);
        }
        rows.push(row);
    }
    let mut notes = Vec::new();
    if rows.len() >= 2 {
        let first = rows.first().expect("non-empty");
        let last = rows.last().expect("non-empty");
        for (k, &f) in fractions.iter().enumerate() {
            let shrink = last[k + 1] / first[k + 1].max(1e-9);
            notes.push(format!(
                "{}% malicious: error shrinks ×{:.2} from n={} to n={} (larger is more resilient when < 1)",
                (f * 100.0).round(),
                shrink,
                first[0],
                last[0]
            ));
        }
    }
    FigureResult {
        id: id.into(),
        title: title.into(),
        columns,
        rows,
        notes,
    }
}

/// Figure 1 — injected disorder: average relative error *ratio* vs time.
pub fn fig01(scale: &Scale, seed: u64) -> FigureResult {
    ratio_vs_time(
        "fig1",
        "Injection of Disorder attackers on Vivaldi: average relative error ratio",
        scale,
        seed,
        &FRACTIONS,
        &disorder_factory(),
    )
}

/// Figure 2 — injected disorder: CDF of relative error after the attack.
pub fn fig02(scale: &Scale, seed: u64) -> FigureResult {
    cdf_by_fraction(
        "fig2",
        "Injected Disorder attack on Vivaldi: CDF of relative error",
        scale,
        seed,
        &FRACTIONS,
        &disorder_factory(),
    )
}

/// Figure 3 — injected disorder: impact of space dimension.
pub fn fig03(scale: &Scale, seed: u64) -> FigureResult {
    dimension_sweep(
        "fig3",
        "Injected Disorder attack on Vivaldi: impact of space dimensions",
        scale,
        seed,
        &disorder_factory(),
    )
}

/// Figure 4 — injected disorder: impact of system size.
pub fn fig04(scale: &Scale, seed: u64) -> FigureResult {
    size_sweep(
        "fig4",
        "Injection of Disorder attackers on Vivaldi: impact of system size",
        scale,
        seed,
        &[0.10, 0.30, 0.50],
        &disorder_factory(),
    )
}

/// Figure 5 — injected repulsion: CDF of relative error.
pub fn fig05(scale: &Scale, seed: u64) -> FigureResult {
    cdf_by_fraction(
        "fig5",
        "Injected Repulsion attack on Vivaldi: CDF of relative error",
        scale,
        seed,
        &FRACTIONS,
        &repulsion_factory(None),
    )
}

/// Figure 6 — injected repulsion: impact of space dimensions.
pub fn fig06(scale: &Scale, seed: u64) -> FigureResult {
    dimension_sweep(
        "fig6",
        "Injected Repulsion attack on Vivaldi: impact of space dimensions",
        scale,
        seed,
        &repulsion_factory(None),
    )
}

/// Figure 7 — repulsion on subsets of target nodes.
pub fn fig07(scale: &Scale, seed: u64) -> FigureResult {
    let shares = [0.10, 0.30, 1.00];
    let fractions = [0.10, 0.20, 0.30, 0.50];
    let mut columns = vec!["fraction_pct".to_string()];
    for &s in &shares {
        columns.push(format!("err_subset_{}pct", (s * 100.0) as u32));
    }
    let mut rows = Vec::new();
    for &f in &fractions {
        let mut row = vec![f * 100.0];
        for &s in &shares {
            let subset = ((scale.nodes as f64) * s).round() as usize;
            let factory = repulsion_factory(Some(subset));
            let runs =
                RunSpec::vivaldi(Space::Euclidean(2), scale.nodes, f, &factory).runs(scale, seed);
            row.push(
                runs.iter()
                    .map(|r| r.attack_series.tail_mean(3))
                    .sum::<f64>()
                    / runs.len() as f64,
            );
        }
        rows.push(row);
    }
    let notes =
        vec!["smaller independently-chosen subsets dilute the attack (paper fig. 7)".into()];
    FigureResult {
        id: "fig7".into(),
        title: "Injected Repulsion attack on subsets of target nodes".into(),
        columns,
        rows,
        notes,
    }
}

/// Figure 8 — injected repulsion: effect of system size.
pub fn fig08(scale: &Scale, seed: u64) -> FigureResult {
    size_sweep(
        "fig8",
        "Injection Repulsion attack on Vivaldi: effect of system size",
        scale,
        seed,
        &[0.10, 0.30, 0.50],
        &repulsion_factory(None),
    )
}

/// Figure 9 — colluding isolation (strategy 1): average error ratio.
pub fn fig09(scale: &Scale, seed: u64) -> FigureResult {
    ratio_vs_time(
        "fig9",
        "Colluding Isolation attack on Vivaldi: average relative error ratio",
        scale,
        seed,
        &FRACTIONS[..5], // 10–50%
        &collusion_repel_factory(),
    )
}

/// Figure 10 — colluding isolation: the target's relative error over time,
/// strategy 1 (repel the world) vs strategy 2 (lure the target).
pub fn fig10(scale: &Scale, seed: u64) -> FigureResult {
    let fraction = 0.30;
    let s1 = RunSpec::vivaldi(
        Space::Euclidean(2),
        scale.nodes,
        fraction,
        &collusion_repel_factory(),
    )
    .runs(scale, seed);
    let s2 = RunSpec::vivaldi(
        Space::Euclidean(2),
        scale.nodes,
        fraction,
        &collusion_lure_factory(),
    )
    .runs(scale, seed);
    let series1 = average_series(
        &s1.iter()
            .filter_map(|r| r.focus_series.clone())
            .collect::<Vec<_>>(),
    );
    let series2 = average_series(
        &s2.iter()
            .filter_map(|r| r.focus_series.clone())
            .collect::<Vec<_>>(),
    );
    let len = series1.len().min(series2.len());
    let rows: Vec<Vec<f64>> = (0..len)
        .map(|k| {
            vec![
                series1.points()[k].0 as f64,
                series1.points()[k].1,
                series2.points()[k].1,
            ]
        })
        .collect();
    let notes = vec![format!(
        "target final error: strategy1 {:.2}, strategy2 {:.2} (paper: strategy 1 is more effective)",
        series1.tail_mean(3),
        series2.tail_mean(3)
    )];
    FigureResult {
        id: "fig10".into(),
        title: "Colluding Isolation attack on Vivaldi: target relative error".into(),
        columns: vec![
            "tick".into(),
            "target_err_strategy1".into(),
            "target_err_strategy2".into(),
        ],
        rows,
        notes,
    }
}

/// Figure 11 — colluding isolation: CDF of relative errors under both
/// strategies.
pub fn fig11(scale: &Scale, seed: u64) -> FigureResult {
    let fraction = 0.30;
    let grid = quantile_grid();
    let mut cdfs = Vec::new();
    for (label, factory) in [
        (
            "strategy1",
            &collusion_repel_factory() as AttackFactory<'_, VivaldiSim>,
        ),
        ("strategy2", &collusion_lure_factory()),
    ] {
        let runs =
            RunSpec::vivaldi(Space::Euclidean(2), scale.nodes, fraction, factory).runs(scale, seed);
        let all: Vec<f64> = runs.iter().flat_map(|r| r.final_errors.clone()).collect();
        cdfs.push((label, Cdf::from_samples(&all)));
    }
    let rows: Vec<Vec<f64>> = grid
        .iter()
        .map(|&q| vec![q, cdfs[0].1.quantile(q), cdfs[1].1.quantile(q)])
        .collect();
    let notes = vec![format!(
        "system-wide median error: strategy1 {:.2}, strategy2 {:.2} (strategy 1 distorts the whole space)",
        cdfs[0].1.median(),
        cdfs[1].1.median()
    )];
    FigureResult {
        id: "fig11".into(),
        title: "Colluding Isolation attack on Vivaldi: CDF of relative errors".into(),
        columns: vec![
            "quantile".into(),
            "err_strategy1".into(),
            "err_strategy2".into(),
        ],
        rows,
        notes,
    }
}

/// Figure 12 — combined attacks at low residual levels: impact on
/// convergence.
pub fn fig12(scale: &Scale, seed: u64) -> FigureResult {
    ratio_vs_time(
        "fig12",
        "Combining attacks on Vivaldi: impact on convergence",
        scale,
        seed,
        &[0.03, 0.06, 0.09, 0.15],
        &combined_factory(),
    )
}

/// Figure 13 — combined attacks: effect of system size.
pub fn fig13(scale: &Scale, seed: u64) -> FigureResult {
    size_sweep(
        "fig13",
        "Combined attacks on Vivaldi: effect of system size",
        scale,
        seed,
        &[0.06, 0.15],
        &combined_factory(),
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fig01_smoke_has_expected_shape() {
        let scale = Scale::smoke();
        let fig = fig01(&scale, 99);
        assert_eq!(fig.id, "fig1");
        assert_eq!(fig.columns.len(), 1 + FRACTIONS.len());
        assert!(!fig.rows.is_empty());
        // More attackers, more damage: final ratio monotone-ish between the
        // extreme fractions.
        let last = fig.rows.last().expect("rows");
        assert!(
            last[FRACTIONS.len()] > last[1],
            "75% should beat 10%: {last:?}"
        );
    }

    #[test]
    fn fig10_tracks_targets() {
        let scale = Scale::smoke();
        let fig = fig10(&scale, 42);
        assert_eq!(fig.columns.len(), 3);
        assert!(!fig.rows.is_empty());
        let last = fig.rows.last().expect("rows");
        // Both strategies must hurt the target noticeably.
        assert!(last[1] > 1.0 || last[2] > 1.0, "{last:?}");
    }
}
