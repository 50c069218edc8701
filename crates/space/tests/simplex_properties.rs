//! Property tests pinning the allocation-free Simplex kernel to the
//! retained oracle: on random quadratics and Rosenbrock starts the two must
//! agree on the returned point (bit for bit), objective value, iteration
//! count, convergence flag, and evaluation count — the guarantee behind the
//! byte-identical figure CSVs — and pinning the relative stopping rule:
//! scaling the objective by a power of two changes no decision.

use proptest::prelude::*;
use vcoord_space::simplex::oracle::simplex_downhill_reference;
use vcoord_space::{simplex_downhill_scratch, SimplexOptions, SimplexResult, SimplexScratch};

/// Full bit-level comparison of two runs (panics on divergence, which the
/// vendored proptest stub reports with the generated inputs).
fn assert_identical(new: &SimplexResult, old: &SimplexResult) {
    prop_assert_eq!(new.iterations, old.iterations, "iteration count diverges");
    prop_assert_eq!(new.converged, old.converged, "convergence flag diverges");
    prop_assert_eq!(new.evals, old.evals, "evaluation count diverges");
    prop_assert_eq!(
        new.value.to_bits(),
        old.value.to_bits(),
        "value diverges: {} vs {}",
        new.value,
        old.value
    );
    let new_bits: Vec<u64> = new.point.iter().map(|v| v.to_bits()).collect();
    let old_bits: Vec<u64> = old.point.iter().map(|v| v.to_bits()).collect();
    prop_assert_eq!(new_bits, old_bits, "point diverges");
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Axis-weighted quadratics of random dimension, center, and start —
    /// the family NPS positioning objectives live in near convergence.
    #[test]
    fn kernel_matches_oracle_on_random_quadratics(
        dim in 1usize..6,
        center in prop::collection::vec(-80.0f64..80.0, 6),
        weights in prop::collection::vec(0.1f64..10.0, 6),
        start in prop::collection::vec(-100.0f64..100.0, 6),
        initial_step in 1.0f64..60.0,
        max_iterations in 20usize..500,
    ) {
        let f = |x: &[f64]| -> f64 {
            x.iter()
                .zip(&center)
                .zip(&weights)
                .map(|((xi, c), w)| w * (xi - c) * (xi - c))
                .sum()
        };
        let opts = SimplexOptions {
            initial_step,
            max_iterations,
            ..SimplexOptions::default()
        };
        let x0 = &start[..dim];
        // Reuse one scratch across two runs: results must not depend on
        // scratch history.
        let mut scratch = SimplexScratch::new();
        let first = simplex_downhill_scratch(f, x0, &opts, &mut scratch);
        let second = simplex_downhill_scratch(f, x0, &opts, &mut scratch);
        let oracle = simplex_downhill_reference(f, x0, &opts);
        assert_identical(&first, &oracle);
        assert_identical(&second, &oracle);
    }

    /// The banana valley exercises long zig-zag trajectories with frequent
    /// contractions and occasional shrinks — the moves where incremental
    /// order maintenance could drift from a full re-sort if it were wrong.
    #[test]
    fn kernel_matches_oracle_on_rosenbrock_starts(
        x0 in -2.0f64..2.0,
        y0 in -1.0f64..3.0,
        initial_step in 0.05f64..2.0,
        max_iterations in 100usize..3000,
    ) {
        let f = |x: &[f64]| -> f64 {
            (1.0 - x[0]).powi(2) + 100.0 * (x[1] - x[0] * x[0]).powi(2)
        };
        let opts = SimplexOptions {
            initial_step,
            max_iterations,
            ..SimplexOptions::default()
        };
        let mut scratch = SimplexScratch::new();
        let new = simplex_downhill_scratch(f, &[x0, y0], &opts, &mut scratch);
        let oracle = simplex_downhill_reference(f, &[x0, y0], &opts);
        assert_identical(&new, &oracle);
    }

    /// One scratch reused across a multi-round sequence of drifting
    /// objectives (each round starting where the last one ended, as NPS
    /// repositioning does) is bitwise-inert: every round matches the oracle
    /// exactly, scratch history notwithstanding.
    #[test]
    fn reused_scratch_is_bitwise_inert_across_rounds(
        dim in 1usize..6,
        center in prop::collection::vec(-80.0f64..80.0, 6),
        drift in prop::collection::vec(-2.0f64..2.0, 6),
        start in prop::collection::vec(-100.0f64..100.0, 6),
        initial_step in 1.0f64..60.0,
        max_iterations in 20usize..400,
    ) {
        let rounds = 1 + max_iterations % 5;
        let opts = SimplexOptions {
            initial_step,
            max_iterations,
            ..SimplexOptions::default()
        };
        let mut scratch = SimplexScratch::new();
        let mut x0 = start[..dim].to_vec();
        for round in 0..rounds {
            let c: Vec<f64> = center[..dim]
                .iter()
                .zip(&drift[..dim])
                .map(|(c, d)| c + d * round as f64)
                .collect();
            let f = |x: &[f64]| -> f64 {
                x.iter().zip(&c).map(|(xi, ci)| (xi - ci) * (xi - ci)).sum()
            };
            let plain = simplex_downhill_scratch(&f, &x0, &opts, &mut scratch);
            let oracle = simplex_downhill_reference(f, &x0, &opts);
            assert_identical(&plain, &oracle);
            x0 = plain.point;
        }
    }

    /// The stopping rule is scale-free: multiplying an objective whose
    /// minimum is at least 1 by `2^k` (an exact rescaling, k ∈ [−10, 20])
    /// leaves the iteration count, the convergence flag and the point bits
    /// unchanged. An absolute spread test fails this — it fires at one
    /// scale and not at another.
    #[test]
    fn stopping_rule_is_scale_free(
        dim in 1usize..6,
        center in prop::collection::vec(-80.0f64..80.0, 6),
        weights in prop::collection::vec(0.1f64..10.0, 6),
        start in prop::collection::vec(-100.0f64..100.0, 6),
        floor in 1.0f64..500.0,
        tolerance in 1e-6f64..1e-2,
    ) {
        // NPS's initial step and iteration cap.
        let opts = SimplexOptions {
            initial_step: 20.0,
            tolerance,
            max_iterations: 150,
            ..SimplexOptions::default()
        };
        let x0 = &start[..dim];
        let run = |k: i32| {
            let scale = 2f64.powi(k);
            let f = |x: &[f64]| -> f64 {
                let bowl: f64 = x
                    .iter()
                    .zip(&center)
                    .zip(&weights)
                    .map(|((xi, c), w)| w * (xi - c) * (xi - c))
                    .sum();
                scale * (floor + bowl)
            };
            simplex_downhill_scratch(f, x0, &opts, &mut SimplexScratch::new())
        };
        let unscaled = run(0);
        for k in -10..=20 {
            let scaled = run(k);
            prop_assert_eq!(scaled.iterations, unscaled.iterations, "k = {}", k);
            prop_assert_eq!(scaled.converged, unscaled.converged, "k = {}", k);
            let a: Vec<u64> = scaled.point.iter().map(|v| v.to_bits()).collect();
            let b: Vec<u64> = unscaled.point.iter().map(|v| v.to_bits()).collect();
            prop_assert_eq!(a, b, "k = {}", k);
        }
    }
}
