//! Adversarial inputs: build the Section 4 worst-case permutation, watch
//! the Thrust baseline degrade, and verify CF-Merge doesn't care.
//!
//! Run with: `cargo run --release --example worst_case_attack`

use cfmerge::core::inputs::InputSpec;
use cfmerge::core::metrics::MetricsError;
use cfmerge::core::sort::SortAlgorithm::{CfMerge, ThrustMergesort};
use cfmerge::core::worst_case::{lockstep_baseline_conflicts, predicted_warp_conflicts};
use cfmerge::prelude::*;

fn main() -> Result<(), MetricsError> {
    let config = SortConfig::paper_e15_u512();
    let (w, e, u) = (32usize, 15usize, 512usize);
    let n = 64 * e * u; // 64 tiles

    // Theorem 8: the closed-form worst-case conflict count per warp.
    println!(
        "Theorem 8 prediction for (w={w}, E={e}): {} conflicts per warp per merge",
        predicted_warp_conflicts(w, e)
    );
    println!(
        "lock-step DMM measurement on the constructed pair: {} per warp\n",
        lockstep_baseline_conflicts(w, e, 4) / 4
    );

    // Build the adversarial permutation and a random control.
    let worst = InputSpec::WorstCase { w, e, u }.generate(n);
    let random = InputSpec::UniformRandom { seed: 1 }.generate(n);

    let t_worst = simulate_sort(&worst, ThrustMergesort, &config);
    let t_rand = simulate_sort(&random, ThrustMergesort, &config);
    let c_worst = simulate_sort(&worst, CfMerge, &config);
    let c_rand = simulate_sort(&random, CfMerge, &config);

    println!("n = {n} keys:");
    println!("                      random        worst-case    slowdown");
    println!(
        "  Thrust baseline   {:8.0} e/µs  {:8.0} e/µs   {:.2}×",
        t_rand.throughput()?,
        t_worst.throughput()?,
        t_rand.throughput()? / t_worst.throughput()?
    );
    println!(
        "  CF-Merge          {:8.0} e/µs  {:8.0} e/µs   {:.2}×",
        c_rand.throughput()?,
        c_worst.throughput()?,
        c_rand.throughput()? / c_worst.throughput()?
    );
    println!(
        "\n  Thrust merge-phase conflicts: {} (random) vs {} (worst)",
        t_rand.profile.merge_bank_conflicts(),
        t_worst.profile.merge_bank_conflicts()
    );
    println!(
        "  CF-Merge merge-phase conflicts: {} and {} — input-independent",
        c_rand.profile.merge_bank_conflicts(),
        c_worst.profile.merge_bank_conflicts()
    );
    assert_eq!(c_worst.profile.merge_bank_conflicts(), 0);
    assert_eq!(t_worst.output, c_worst.output);
    Ok(())
}
