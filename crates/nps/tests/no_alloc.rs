//! Allocation accounting for the instrumented NPS fit path with the obs
//! plane off: the per-round evals histogram (`evals::record_round`, on the
//! always-on aggregate plane) must be allocation-free, and the Simplex
//! kernel must stay at exactly one allocation per call (the returned
//! point) — i.e. the `simplex.evals` / `simplex.converged` /
//! `simplex.capped` counters added to it must cost nothing when disabled.
//!
//! This file holds exactly one `#[test]`: the libtest harness runs tests on
//! worker threads, and a sibling test allocating concurrently would
//! corrupt the global counter.

use vcoord_nps::evals;
use vcoord_obs::testing::{allocations, min_allocations_over, CountingAllocator};
use vcoord_space::{simplex_downhill_scratch, SimplexOptions, SimplexScratch};

#[global_allocator]
static ALLOCATOR: CountingAllocator = CountingAllocator;

#[test]
fn fit_hot_path_allocation_budget_holds_with_obs_off() {
    assert_eq!(vcoord_obs::mode(), vcoord_obs::ObsMode::Off);

    // --- Aggregate plane: recording a round is pure atomics. ---
    evals::record_round(17); // pay the lazy histogram registration
    let allocs = min_allocations_over(3, || {
        for n in 0..100_000usize {
            evals::record_round(n % 300);
        }
    });
    assert_eq!(
        allocs, 0,
        "evals::record_round allocated with the obs plane off"
    );

    // --- Kernel: exactly one allocation per call (the returned
    // point), so the disabled Simplex counters add nothing. ---
    let objective = |x: &[f64]| -> f64 { x.iter().map(|v| (v - 3.0) * (v - 3.0)).sum::<f64>() };
    let opts = SimplexOptions::default();
    let start = vec![1.0; 4];
    let mut scratch = SimplexScratch::new();
    let _ = simplex_downhill_scratch(objective, &start, &opts, &mut scratch); // size the scratch
    const CALLS: u64 = 1_000;
    let allocs = min_allocations_over(3, || {
        for _ in 0..CALLS {
            std::hint::black_box(simplex_downhill_scratch(
                objective,
                &start,
                &opts,
                &mut scratch,
            ));
        }
    });
    assert_eq!(
        allocs, CALLS,
        "simplex kernel must allocate exactly the returned point per call"
    );

    // Allocator sanity: the counter does observe real allocations.
    let before = allocations();
    drop(std::hint::black_box(vec![1u8; 64]));
    assert!(allocations() > before, "counting allocator is live");
}
