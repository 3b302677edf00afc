//! The paper's quantitative claims, asserted end to end (coarse bands —
//! the bench binaries produce the precise tables in EXPERIMENTS.md).

use cfmerge::core::inputs::InputSpec;
use cfmerge::core::params::SortParams;
use cfmerge::core::sort::{simulate_sort, SortAlgorithm, SortConfig};
use cfmerge::core::worst_case::{lockstep_baseline_conflicts, predicted_warp_conflicts};
use cfmerge::gpu_sim::device::Device;
use cfmerge::gpu_sim::occupancy::{mergesort_regs_estimate, occupancy, BlockResources};

const N_TILES: usize = 16;

fn run(params: SortParams, algo: SortAlgorithm, spec: InputSpec) -> cfmerge::core::sort::SortRun {
    let cfg = SortConfig::with_params(params);
    let input = spec.generate(N_TILES * params.tile());
    simulate_sort(&input, algo, &cfg)
}

/// §1/§5: "the modified mergesort takes virtually the same time to run on
/// the worst-case inputs as it does on random inputs".
#[test]
fn claim_cf_is_input_independent() {
    let params = SortParams::e15_u512();
    let worst = run(params, SortAlgorithm::CfMerge, InputSpec::worst_case(params));
    let random = run(params, SortAlgorithm::CfMerge, InputSpec::UniformRandom { seed: 1 });
    let ratio = worst.simulated_seconds / random.simulated_seconds;
    assert!((0.9..1.1).contains(&ratio), "CF worst/random time ratio {ratio}");
}

/// §5.1: CF ≈ Thrust on random inputs (the gather's overhead amounts to a
/// couple of extra accesses per element).
#[test]
fn claim_cf_matches_thrust_on_random() {
    for params in [SortParams::e15_u512(), SortParams::e17_u256()] {
        let t = run(params, SortAlgorithm::ThrustMergesort, InputSpec::UniformRandom { seed: 2 });
        let c = run(params, SortAlgorithm::CfMerge, InputSpec::UniformRandom { seed: 2 });
        let ratio = c.simulated_seconds / t.simulated_seconds;
        assert!((0.85..1.15).contains(&ratio), "E={} cf/thrust on random = {ratio}", params.e);
    }
}

/// §5.1: CF-Merge speedup on worst-case inputs ≈ 1.37–1.47 (E=15,u=512)
/// and ≈ 1.17–1.25 (E=17,u=256). Asserted with ±0.15 slack at one size.
#[test]
fn claim_worst_case_speedup_bands() {
    let cases = [(SortParams::e15_u512(), 1.37, 1.47), (SortParams::e17_u256(), 1.17, 1.25)];
    for (params, lo, hi) in cases {
        let t = run(params, SortAlgorithm::ThrustMergesort, InputSpec::worst_case(params));
        let c = run(params, SortAlgorithm::CfMerge, InputSpec::worst_case(params));
        let speedup = t.simulated_seconds / c.simulated_seconds;
        assert!(
            speedup > lo - 0.15 && speedup < hi + 0.15,
            "E={} speedup {speedup} outside [{lo}, {hi}] ± 0.15",
            params.e
        );
    }
}

/// §5: "we confirmed that our implementation produces no bank conflicts
/// during merging" (nvprof) — exact here, on every input shape.
#[test]
fn claim_cf_zero_merge_conflicts() {
    for params in [SortParams::e15_u512(), SortParams::e17_u256()] {
        for spec in [
            InputSpec::UniformRandom { seed: 3 },
            InputSpec::worst_case(params),
            InputSpec::Sorted,
            InputSpec::Reversed,
        ] {
            let r = run(params, SortAlgorithm::CfMerge, spec);
            assert_eq!(r.profile.merge_bank_conflicts(), 0, "E={} on {}", params.e, spec.label());
        }
    }
}

/// §5 / [29]: Thrust incurs 2–3 bank conflicts per merge step on random
/// inputs.
#[test]
fn claim_karsin_two_to_three_conflicts() {
    for params in [SortParams::e15_u512(), SortParams::e17_u256()] {
        let r = run(params, SortAlgorithm::ThrustMergesort, InputSpec::UniformRandom { seed: 4 });
        let c = r.conflicts_per_merge_round();
        assert!((1.5..3.5).contains(&c), "E={}: {c} conflicts/step", params.e);
    }
}

/// §5 / [8]: worst-case inputs slow the Thrust baseline by roughly 20–50%.
#[test]
fn claim_berney_sitchinava_slowdown() {
    let params = SortParams::e15_u512();
    let w = run(params, SortAlgorithm::ThrustMergesort, InputSpec::worst_case(params));
    let r = run(params, SortAlgorithm::ThrustMergesort, InputSpec::UniformRandom { seed: 5 });
    let slowdown = w.simulated_seconds / r.simulated_seconds;
    assert!((1.2..1.6).contains(&slowdown), "slowdown {slowdown}");
}

/// §5: the occupancy explanation of the two parameter sets.
#[test]
fn claim_occupancy_of_parameter_sets() {
    let dev = Device::rtx2080ti();
    let occ = |params: SortParams| {
        occupancy(
            &dev,
            &BlockResources {
                threads: params.u as u32,
                shared_bytes: params.shared_bytes(),
                regs_per_thread: mergesort_regs_estimate(params.e as u32),
            },
        )
        .expect("paper configs launch")
        .fraction
    };
    assert_eq!(occ(SortParams::e15_u512()), 1.0);
    assert_eq!(occ(SortParams::e17_u256()), 0.75);
}

/// §4 / Theorem 8: the closed forms match the lock-step measurement for
/// the headline parameters (within the counting-convention band).
#[test]
fn claim_theorem8_headline_numbers() {
    assert_eq!(predicted_warp_conflicts(32, 15), 225);
    assert_eq!(predicted_warp_conflicts(32, 17), 288);
    for (w, e) in [(32usize, 15usize), (32, 17), (32, 16)] {
        let measured = lockstep_baseline_conflicts(w, e, 4) as f64 / 4.0;
        let predicted = predicted_warp_conflicts(w, e) as f64;
        assert!(
            (0.85..=1.05).contains(&(measured / predicted)),
            "(w={w},E={e}): measured {measured} / predicted {predicted}"
        );
    }
}

/// §5: E=15,u=512 outperforms Thrust's default E=17,u=256 (the occupancy
/// effect), for both pipelines on random inputs.
#[test]
fn claim_e15_u512_is_faster() {
    for algo in [SortAlgorithm::ThrustMergesort, SortAlgorithm::CfMerge] {
        let fast = run(SortParams::e15_u512(), algo, InputSpec::UniformRandom { seed: 6 });
        let slow = run(SortParams::e17_u256(), algo, InputSpec::UniformRandom { seed: 6 });
        let (fast, slow) = (fast.throughput().unwrap(), slow.throughput().unwrap());
        assert!(fast > slow, "{algo:?}: {fast} vs {slow}");
    }
}
