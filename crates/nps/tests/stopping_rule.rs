//! The Simplex stopping rule is alive at NPS's objective scale: with the
//! default relative tolerance, almost every repositioning fit ends by
//! converging rather than by running into the iteration cap.
//!
//! The obs mode is process-global, so this file holds exactly one
//! `#[test]` — a sibling test on another libtest thread would race it.

use vcoord_netsim::SeedStream;
use vcoord_nps::{NpsConfig, NpsSim};
use vcoord_topo::{KingLike, KingLikeConfig};

#[test]
fn most_smoke_scale_fits_converge_before_the_cap() {
    // Smoke scale: 72 nodes with the paper's defaults, the figures' 8
    // warm-up rounds, then their 16 measured rounds. The warm-up holds the
    // staggered joins, whose first fits descend from the origin and are
    // the ones the 150-iteration budget cuts short; they are not counted.
    let seeds = SeedStream::new(2006);
    let matrix = KingLike::new(KingLikeConfig::with_nodes(72)).generate(&mut seeds.rng("topo"));
    let mut sim = NpsSim::new(matrix, NpsConfig::default(), &seeds);
    sim.run_rounds(8);
    vcoord_obs::set_mode(vcoord_obs::ObsMode::Metrics);
    vcoord_obs::reset();
    sim.run_rounds(16);
    let report = vcoord_obs::drain();
    vcoord_obs::set_mode(vcoord_obs::ObsMode::Off);

    let converged = report.counter(vcoord_obs::metric("simplex.converged"));
    let capped = report.counter(vcoord_obs::metric("simplex.capped"));
    let fits = report
        .hists()
        .iter()
        .find(|(id, _)| vcoord_obs::metric_name(*id) == "simplex.fit_ns")
        .map_or(0, |(_, h)| h.count);
    assert!(fits > 400, "{fits} fits in 16 rounds");
    assert_eq!(converged + capped, fits, "every fit ends exactly one way");
    let share = converged as f64 / fits as f64;
    assert!(
        share >= 0.9,
        "only {converged} of {fits} fits converged ({:.1}%)",
        share * 100.0
    );
}
