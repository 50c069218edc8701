//! Nelder–Mead *Simplex Downhill* minimizer.
//!
//! GNP and NPS both position nodes by minimizing a latency-fit objective with
//! the Simplex Downhill method (Nelder & Mead, 1965). This is a faithful,
//! dependency-free implementation with the standard reflection / expansion /
//! contraction / shrink moves and deterministic behaviour (no internal
//! randomness; ties broken by index).
//!
//! Two entry points share one kernel: [`simplex_downhill`] allocates its own
//! working state per call, while [`simplex_downhill_scratch`] reuses a
//! caller-held [`SimplexScratch`] so the hot NPS repositioning path runs
//! **allocation-free** (the only allocation left is the returned best point).
//! The kernel replaces the original full index sort per iteration with an
//! incrementally maintained order array — a single ordered reinsertion on
//! the common reflect/expand/contract moves — while performing *bit-identical*
//! floating-point operations in the identical order, so optimization
//! trajectories match the retained [`oracle`] exactly (property-tested in
//! this module and relied on by the figure-CSV golden tests).
//!
//! Every entry point counts objective evaluations in
//! [`SimplexResult::evals`] and reports whether the stopping rule or the
//! iteration cap ended the search in [`SimplexResult::converged`].
//!
//! # Stopping rule
//!
//! [`SimplexOptions::tolerance`] is a *relative* tolerance, the textbook
//! test of Numerical Recipes' `amoeba`: the search stops as soon as
//! `2·|f_worst − f_best| ≤ tolerance·(|f_worst| + |f_best| + 1e-10)`. The
//! test is scale-free — multiplying the objective by a power of two leaves
//! every decision, and so every trajectory, unchanged — so one tolerance
//! serves objectives measured in ms² and in unit-free ratios alike. An
//! absolute spread test on an NPS objective (ms², residuals in the
//! hundreds) never fires and silently turns every fit into a full
//! iteration-cap run.

/// Tuning knobs for [`simplex_downhill`].
#[derive(Debug, Clone, serde::Serialize, serde::Deserialize)]
pub struct SimplexOptions {
    /// Reflection coefficient (α > 0). Standard: 1.0.
    pub alpha: f64,
    /// Expansion coefficient (γ > 1). Standard: 2.0.
    pub gamma: f64,
    /// Contraction coefficient (0 < ρ ≤ 0.5). Standard: 0.5.
    pub rho: f64,
    /// Shrink coefficient (0 < σ < 1). Standard: 0.5.
    pub sigma: f64,
    /// Initial step added to each axis to build the starting simplex.
    pub initial_step: f64,
    /// Relative stopping tolerance: stop once
    /// `2·|f_worst − f_best| ≤ tolerance·(|f_worst| + |f_best| + 1e-10)`
    /// (Numerical Recipes' `amoeba` test; see the module docs). Scale-free:
    /// it does not depend on the objective's units.
    pub tolerance: f64,
    /// Hard iteration cap.
    pub max_iterations: usize,
}

impl Default for SimplexOptions {
    fn default() -> Self {
        SimplexOptions {
            alpha: 1.0,
            gamma: 2.0,
            rho: 0.5,
            sigma: 0.5,
            initial_step: 50.0,
            tolerance: 1e-8,
            max_iterations: 400,
        }
    }
}

/// Outcome of a [`simplex_downhill`] run.
#[derive(Debug, Clone)]
pub struct SimplexResult {
    /// Minimizing point found.
    pub point: Vec<f64>,
    /// Objective value at [`SimplexResult::point`].
    pub value: f64,
    /// Iterations actually performed.
    pub iterations: usize,
    /// Whether the tolerance criterion (rather than the iteration cap) ended
    /// the search.
    pub converged: bool,
    /// Objective evaluations performed, counting the `n + 1` initial-vertex
    /// evaluations as well as every trial and shrink evaluation.
    pub evals: usize,
}

/// Reusable working state for [`simplex_downhill_scratch`].
///
/// Holds the simplex vertices and objective values, the incrementally
/// maintained vertex order, the centroid, and the trial-point buffers. A
/// scratch grows to fit the largest dimension it has seen and never shrinks,
/// so a long-lived scratch (e.g. one per [`NpsSim`] world) makes every
/// positioning after the first allocation-free.
///
/// [`NpsSim`]: https://docs.rs/vcoord-nps
#[derive(Debug, Clone, Default)]
pub struct SimplexScratch {
    /// `n + 1` simplex vertices of dimension `n`.
    verts: Vec<Vec<f64>>,
    /// Objective value per vertex, parallel to `verts`.
    vals: Vec<f64>,
    /// Vertex indices sorted ascending by `(value, index)` — exactly the
    /// stable-sort-by-value order of the reference implementation.
    order: Vec<usize>,
    /// Centroid of all vertices but the worst.
    centroid: Vec<f64>,
    /// Copy of the best vertex, pinned during a shrink.
    best: Vec<f64>,
    /// Reflection/contraction trial point.
    trial: Vec<f64>,
    /// Expansion trial point.
    trial2: Vec<f64>,
}

impl SimplexScratch {
    /// A new, empty scratch. Buffers are sized lazily on first use.
    pub fn new() -> SimplexScratch {
        SimplexScratch::default()
    }

    /// Size every buffer for an `n`-dimensional problem, retaining capacity.
    fn reset(&mut self, n: usize) {
        self.verts.resize_with(n + 1, Vec::new);
        for v in &mut self.verts {
            v.clear();
            v.resize(n, 0.0);
        }
        self.vals.clear();
        self.vals.resize(n + 1, 0.0);
        self.order.clear();
        self.centroid.clear();
        self.centroid.resize(n, 0.0);
        self.best.clear();
        self.best.resize(n, 0.0);
        self.trial.clear();
        self.trial.resize(n, 0.0);
        self.trial2.clear();
        self.trial2.resize(n, 0.0);
    }
}

/// Compare two vertices by `(value, index)` — the total order equivalent to
/// the reference implementation's *stable* sort by value over an
/// index-ascending array.
#[inline]
fn before(vals: &[f64], a: usize, b: usize) -> bool {
    match vals[a].partial_cmp(&vals[b]) {
        Some(std::cmp::Ordering::Less) => true,
        Some(std::cmp::Ordering::Greater) => false,
        _ => a < b,
    }
}

/// In-place lerp: `out[j] = from[j] + t * (to[j] - from[j])`.
#[inline]
fn lerp_into(out: &mut [f64], from: &[f64], to: &[f64], t: f64) {
    for ((o, a), b) in out.iter_mut().zip(from).zip(to) {
        *o = a + t * (b - a);
    }
}

/// Minimize `f` starting from `x0` using the Simplex Downhill method.
///
/// ```
/// use vcoord_space::{simplex_downhill, SimplexOptions};
///
/// let f = |x: &[f64]| (x[0] - 3.0).powi(2) + (x[1] + 1.0).powi(2);
/// let r = simplex_downhill(f, &[0.0, 0.0], &SimplexOptions::default());
/// assert!((r.point[0] - 3.0).abs() < 0.01);
/// assert!((r.point[1] + 1.0).abs() < 0.01);
/// ```
///
/// Returns the best vertex found. `f` must be finite at `x0`; non-finite
/// objective values elsewhere are treated as `+∞` so the simplex retreats
/// from them, which keeps adversarially-poisoned NPS objectives from
/// propagating NaNs into coordinates.
///
/// This is the convenience wrapper that allocates a fresh [`SimplexScratch`]
/// per call; hot paths should hold a scratch and call
/// [`simplex_downhill_scratch`].
///
/// # Panics
/// Panics if `x0` is empty.
pub fn simplex_downhill<F>(f: F, x0: &[f64], opts: &SimplexOptions) -> SimplexResult
where
    F: FnMut(&[f64]) -> f64,
{
    let mut scratch = SimplexScratch::new();
    simplex_downhill_scratch(f, x0, opts, &mut scratch)
}

/// [`simplex_downhill`] reusing caller-held buffers: the allocation-free
/// kernel (only the returned point is allocated).
///
/// The objective is `FnMut` so callers can thread their own evaluation
/// scratch (e.g. a reusable coordinate) through it without interior
/// mutability.
///
/// # Panics
/// Panics if `x0` is empty.
pub fn simplex_downhill_scratch<F>(
    mut f: F,
    x0: &[f64],
    opts: &SimplexOptions,
    scratch: &mut SimplexScratch,
) -> SimplexResult
where
    F: FnMut(&[f64]) -> f64,
{
    assert!(!x0.is_empty(), "cannot optimize a zero-dimensional point");
    let n = x0.len();
    scratch.reset(n);
    let mut evals = 0usize;
    let mut eval = |x: &[f64]| -> f64 {
        evals += 1;
        let v = f(x);
        if v.is_finite() {
            v
        } else {
            f64::INFINITY
        }
    };
    // Initial simplex: `x0` plus one vertex per axis.
    for (k, v) in scratch.verts.iter_mut().enumerate() {
        v.copy_from_slice(x0);
        if k > 0 {
            let i = k - 1;
            v[i] += if v[i].abs() > 1.0 {
                opts.initial_step.copysign(v[i])
            } else {
                opts.initial_step
            };
        }
    }
    let (iterations, converged) = descend(&mut eval, opts, scratch, n);
    if vcoord_obs::enabled() {
        vcoord_obs::counter_add(vcoord_obs::metric_id!("simplex.evals"), evals as u64);
        let ended_by = if converged {
            vcoord_obs::metric_id!("simplex.converged")
        } else {
            vcoord_obs::metric_id!("simplex.capped")
        };
        vcoord_obs::counter_add(ended_by, 1);
    }
    let (bi, bv) = scratch
        .vals
        .iter()
        .enumerate()
        .min_by(|a, b| a.1.partial_cmp(b.1).unwrap_or(std::cmp::Ordering::Equal))
        .expect("simplex has at least one vertex");
    SimplexResult {
        point: scratch.verts[bi].clone(),
        value: *bv,
        iterations,
        converged,
        evals,
    }
}

/// The relative stopping test shared by the kernel and the [`oracle`]: the
/// best–worst spread is within `tolerance` of the values' magnitude. An
/// infinite worst vertex (a poisoned region) never counts as converged.
#[inline]
fn spread_converged(best: f64, worst: f64, tolerance: f64) -> bool {
    worst.is_finite()
        && 2.0 * (worst - best).abs() <= tolerance * (worst.abs() + best.abs() + 1e-10)
}

/// The descent loop: evaluate the already-initialized vertices, establish
/// the `(value, index)` order, and run the standard reflect / expand /
/// contract / shrink moves until the stopping rule or the iteration cap.
fn descend<E>(
    eval: &mut E,
    opts: &SimplexOptions,
    scratch: &mut SimplexScratch,
    n: usize,
) -> (usize, bool)
where
    E: FnMut(&[f64]) -> f64,
{
    let SimplexScratch {
        verts,
        vals,
        order,
        centroid,
        best: best_buf,
        trial,
        trial2,
    } = scratch;
    for (val, v) in vals.iter_mut().zip(verts.iter()) {
        *val = eval(v);
    }

    // Establish the (value, index) order once; reflect/expand/contract
    // moves below maintain it with a single ordered reinsertion, and only
    // the rare shrink move pays for a full re-sort.
    order.extend(0..=n);
    order.sort_unstable_by(|&a, &b| {
        if before(vals, a, b) {
            std::cmp::Ordering::Less
        } else {
            std::cmp::Ordering::Greater
        }
    });

    // Replace the worst vertex (at `order[n]`) with `src`/`value` and slot
    // it back into the maintained order.
    let reinsert =
        |verts: &mut [Vec<f64>], vals: &mut [f64], order: &mut [usize], src: &[f64], value: f64| {
            let worst = order[n];
            verts[worst].copy_from_slice(src);
            vals[worst] = value;
            let pos = order[..n].partition_point(|&o| before(vals, o, worst));
            order[pos..=n].rotate_right(1);
        };

    let mut iterations = 0;
    let mut converged = false;
    while iterations < opts.max_iterations {
        iterations += 1;

        let best = order[0];
        let worst = order[n];
        let second_worst = order[n - 1];

        if spread_converged(vals[best], vals[worst], opts.tolerance) {
            converged = true;
            break;
        }

        // Centroid of all but the worst vertex, accumulated in order so the
        // floating-point sum matches the reference bit for bit.
        centroid.fill(0.0);
        for &i in order.iter().take(n) {
            for (c, x) in centroid.iter_mut().zip(&verts[i]) {
                *c += x;
            }
        }
        for c in centroid.iter_mut() {
            *c /= n as f64;
        }

        // Reflection.
        lerp_into(trial, centroid, &verts[worst], -opts.alpha);
        let fr = eval(trial);
        if fr < vals[best] {
            // Expansion.
            lerp_into(trial2, centroid, &verts[worst], -opts.gamma);
            let fe = eval(trial2);
            if fe < fr {
                reinsert(verts, vals, order, trial2, fe);
            } else {
                reinsert(verts, vals, order, trial, fr);
            }
            continue;
        }
        if fr < vals[second_worst] {
            reinsert(verts, vals, order, trial, fr);
            continue;
        }

        // Contraction (outside if the reflection improved on the worst,
        // inside otherwise).
        if fr < vals[worst] {
            lerp_into(trial2, centroid, trial, opts.rho);
        } else {
            lerp_into(trial2, centroid, &verts[worst], opts.rho);
        }
        let fc = eval(trial2);
        if fc < vals[worst].min(fr) {
            reinsert(verts, vals, order, trial2, fc);
            continue;
        }

        // Shrink toward the best vertex; every value changes, so re-sort.
        best_buf.copy_from_slice(&verts[best]);
        for i in 0..=n {
            if i == best {
                continue;
            }
            let v = &mut verts[i];
            for (x, b) in v.iter_mut().zip(best_buf.iter()) {
                *x = b + opts.sigma * (*x - b);
            }
            vals[i] = eval(v);
        }
        order.sort_unstable_by(|&a, &b| {
            if before(vals, a, b) {
                std::cmp::Ordering::Less
            } else {
                std::cmp::Ordering::Greater
            }
        });
    }

    (iterations, converged)
}

/// The original allocating implementation, retained as the correctness
/// and performance oracle for the allocation-free kernel. It shares only
/// the stopping test with the kernel, so both stop under one rule.
///
/// Property tests prove [`simplex_downhill`] reproduces this function's
/// trajectories bit for bit; the `kernels` bench measures the speedup
/// against it. Not intended for production use.
pub mod oracle {
    use super::{spread_converged, SimplexOptions, SimplexResult};

    /// Reference Nelder–Mead implementation (full sort + fresh allocations
    /// every iteration). See the module docs.
    ///
    /// # Panics
    /// Panics if `x0` is empty.
    pub fn simplex_downhill_reference<F>(f: F, x0: &[f64], opts: &SimplexOptions) -> SimplexResult
    where
        F: Fn(&[f64]) -> f64,
    {
        assert!(!x0.is_empty(), "cannot optimize a zero-dimensional point");
        let n = x0.len();
        let evals = std::cell::Cell::new(0usize);
        let eval = |x: &[f64]| -> f64 {
            evals.set(evals.get() + 1);
            let v = f(x);
            if v.is_finite() {
                v
            } else {
                f64::INFINITY
            }
        };

        // Initial simplex: x0 plus one vertex per axis.
        let mut verts: Vec<Vec<f64>> = Vec::with_capacity(n + 1);
        verts.push(x0.to_vec());
        for i in 0..n {
            let mut v = x0.to_vec();
            v[i] += if v[i].abs() > 1.0 {
                opts.initial_step.copysign(v[i])
            } else {
                opts.initial_step
            };
            verts.push(v);
        }
        let mut vals: Vec<f64> = verts.iter().map(|v| eval(v)).collect();

        let mut iterations = 0;
        let mut converged = false;
        while iterations < opts.max_iterations {
            iterations += 1;

            // Order vertices: best first. Stable sort keeps determinism on
            // ties.
            let mut order: Vec<usize> = (0..=n).collect();
            order.sort_by(|&a, &b| {
                vals[a]
                    .partial_cmp(&vals[b])
                    .unwrap_or(std::cmp::Ordering::Equal)
            });
            let best = order[0];
            let worst = order[n];
            let second_worst = order[n - 1];

            if spread_converged(vals[best], vals[worst], opts.tolerance) {
                converged = true;
                break;
            }

            // Centroid of all but the worst vertex.
            let mut centroid = vec![0.0; n];
            for &i in order.iter().take(n) {
                for (c, x) in centroid.iter_mut().zip(&verts[i]) {
                    *c += x;
                }
            }
            for c in &mut centroid {
                *c /= n as f64;
            }

            let lerp = |from: &[f64], to: &[f64], t: f64| -> Vec<f64> {
                from.iter().zip(to).map(|(a, b)| a + t * (b - a)).collect()
            };

            // Reflection.
            let reflected = lerp(&centroid, &verts[worst], -opts.alpha);
            let fr = eval(&reflected);
            if fr < vals[best] {
                // Expansion.
                let expanded = lerp(&centroid, &verts[worst], -opts.gamma);
                let fe = eval(&expanded);
                if fe < fr {
                    verts[worst] = expanded;
                    vals[worst] = fe;
                } else {
                    verts[worst] = reflected;
                    vals[worst] = fr;
                }
                continue;
            }
            if fr < vals[second_worst] {
                verts[worst] = reflected;
                vals[worst] = fr;
                continue;
            }

            // Contraction (outside if the reflection improved on the worst,
            // inside otherwise).
            let contracted = if fr < vals[worst] {
                lerp(&centroid, &reflected, opts.rho)
            } else {
                lerp(&centroid, &verts[worst], opts.rho)
            };
            let fc = eval(&contracted);
            if fc < vals[worst].min(fr) {
                verts[worst] = contracted;
                vals[worst] = fc;
                continue;
            }

            // Shrink toward the best vertex.
            let best_v = verts[best].clone();
            for &i in order.iter().skip(1) {
                verts[i] = lerp(&best_v, &verts[i], opts.sigma);
                vals[i] = eval(&verts[i]);
            }
        }

        let (bi, bv) = vals
            .iter()
            .enumerate()
            .min_by(|a, b| a.1.partial_cmp(b.1).unwrap_or(std::cmp::Ordering::Equal))
            .expect("simplex has at least one vertex");
        SimplexResult {
            point: verts[bi].clone(),
            value: *bv,
            iterations,
            converged,
            evals: evals.get(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn minimizes_sphere_function() {
        let f = |x: &[f64]| x.iter().map(|v| v * v).sum::<f64>();
        let r = simplex_downhill(f, &[10.0, -7.0, 3.0], &SimplexOptions::default());
        assert!(r.value < 1e-6, "value={}", r.value);
        assert!(r.point.iter().all(|v| v.abs() < 1e-2));
    }

    #[test]
    fn minimizes_shifted_quadratic() {
        let f = |x: &[f64]| (x[0] - 3.0).powi(2) + (x[1] + 5.0).powi(2) + 2.0;
        let r = simplex_downhill(f, &[0.0, 0.0], &SimplexOptions::default());
        assert!((r.value - 2.0).abs() < 1e-5);
        assert!((r.point[0] - 3.0).abs() < 1e-2);
        assert!((r.point[1] + 5.0).abs() < 1e-2);
    }

    #[test]
    fn minimizes_rosenbrock_2d() {
        let f = |x: &[f64]| (1.0 - x[0]).powi(2) + 100.0 * (x[1] - x[0] * x[0]).powi(2);
        let opts = SimplexOptions {
            max_iterations: 5000,
            initial_step: 0.5,
            ..Default::default()
        };
        let r = simplex_downhill(f, &[-1.2, 1.0], &opts);
        assert!(r.value < 1e-4, "value={}", r.value);
    }

    #[test]
    fn survives_nan_objective_regions() {
        // NaN away from origin: solver must treat it as +inf and not panic.
        let f = |x: &[f64]| {
            let s: f64 = x.iter().map(|v| v * v).sum();
            if x[0] > 5.0 {
                f64::NAN
            } else {
                s
            }
        };
        let r = simplex_downhill(f, &[4.0, 0.0], &SimplexOptions::default());
        assert!(r.value.is_finite());
        assert!(r.value < 1e-4);
    }

    #[test]
    fn respects_iteration_cap() {
        let f = |x: &[f64]| x[0].sin() * x[1].cos() + x[0] * x[0] * 1e-4;
        let opts = SimplexOptions {
            max_iterations: 3,
            ..Default::default()
        };
        let r = simplex_downhill(f, &[1.0, 1.0], &opts);
        assert_eq!(r.iterations, 3);
        assert!(!r.converged);
    }

    #[test]
    fn one_dimensional_works() {
        let f = |x: &[f64]| (x[0] - 42.0).powi(2);
        let r = simplex_downhill(f, &[0.0], &SimplexOptions::default());
        assert!((r.point[0] - 42.0).abs() < 1e-3);
    }

    #[test]
    fn deterministic_across_runs() {
        let f = |x: &[f64]| (x[0] - 1.0).powi(2) + (x[1] - 2.0).powi(2) * 3.0;
        let a = simplex_downhill(f, &[9.0, -9.0], &SimplexOptions::default());
        let b = simplex_downhill(f, &[9.0, -9.0], &SimplexOptions::default());
        assert_eq!(a.point, b.point);
        assert_eq!(a.iterations, b.iterations);
    }

    /// Bit-level equality against the oracle: point, value, iteration count
    /// and convergence flag must all match exactly.
    fn assert_bit_identical<F: Fn(&[f64]) -> f64>(f: F, x0: &[f64], opts: &SimplexOptions) {
        let new = simplex_downhill(&f, x0, opts);
        let old = oracle::simplex_downhill_reference(&f, x0, opts);
        assert_eq!(new.iterations, old.iterations, "iterations diverge");
        assert_eq!(new.converged, old.converged, "convergence flag diverges");
        assert_eq!(new.evals, old.evals, "evaluation count diverges");
        assert_eq!(
            new.value.to_bits(),
            old.value.to_bits(),
            "value diverges: {} vs {}",
            new.value,
            old.value
        );
        let new_bits: Vec<u64> = new.point.iter().map(|v| v.to_bits()).collect();
        let old_bits: Vec<u64> = old.point.iter().map(|v| v.to_bits()).collect();
        assert_eq!(
            new_bits, old_bits,
            "point diverges: {:?} vs {:?}",
            new.point, old.point
        );
    }

    #[test]
    fn kernel_matches_oracle_on_standard_objectives() {
        let opts = SimplexOptions::default();
        assert_bit_identical(
            |x| x.iter().map(|v| v * v).sum::<f64>(),
            &[10.0, -7.0, 3.0],
            &opts,
        );
        assert_bit_identical(
            |x| (x[0] - 3.0).powi(2) + (x[1] + 5.0).powi(2) + 2.0,
            &[0.0, 0.0],
            &opts,
        );
        let rosen = SimplexOptions {
            max_iterations: 5000,
            initial_step: 0.5,
            ..Default::default()
        };
        assert_bit_identical(
            |x| (1.0 - x[0]).powi(2) + 100.0 * (x[1] - x[0] * x[0]).powi(2),
            &[-1.2, 1.0],
            &rosen,
        );
    }

    #[test]
    fn kernel_matches_oracle_with_nan_regions_and_caps() {
        let f = |x: &[f64]| {
            let s: f64 = x.iter().map(|v| v * v).sum();
            if x[0] > 5.0 {
                f64::NAN
            } else {
                s
            }
        };
        assert_bit_identical(f, &[4.0, 0.0], &SimplexOptions::default());
        let capped = SimplexOptions {
            max_iterations: 3,
            ..Default::default()
        };
        assert_bit_identical(
            |x: &[f64]| x[0].sin() * x[1].cos() + x[0] * x[0] * 1e-4,
            &[1.0, 1.0],
            &capped,
        );
    }

    #[test]
    fn scratch_reuse_does_not_leak_state() {
        // A scratch reused across problems of different dimensions must
        // reproduce fresh-scratch results exactly.
        let mut scratch = SimplexScratch::new();
        let opts = SimplexOptions::default();
        let f3 = |x: &[f64]| x.iter().map(|v| (v - 2.0) * (v - 2.0)).sum::<f64>();
        let f1 = |x: &[f64]| (x[0] - 42.0).powi(2);
        for _ in 0..3 {
            let a = simplex_downhill_scratch(f3, &[9.0, -9.0, 0.5], &opts, &mut scratch);
            let b = simplex_downhill(f3, &[9.0, -9.0, 0.5], &opts);
            assert_eq!(a.point, b.point);
            assert_eq!(a.iterations, b.iterations);
            let a1 = simplex_downhill_scratch(f1, &[0.0], &opts, &mut scratch);
            let b1 = simplex_downhill(f1, &[0.0], &opts);
            assert_eq!(a1.point, b1.point);
        }
    }

    #[test]
    fn evals_counts_every_objective_call() {
        let calls = std::cell::Cell::new(0usize);
        let f = |x: &[f64]| {
            calls.set(calls.get() + 1);
            (x[0] - 3.0).powi(2) + (x[1] + 1.0).powi(2)
        };
        let r = simplex_downhill(f, &[0.0, 0.0], &SimplexOptions::default());
        assert_eq!(r.evals, calls.get());
        assert!(r.evals >= 3, "at least the initial vertices are evaluated");
    }
}
