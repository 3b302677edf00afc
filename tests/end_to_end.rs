//! Cross-crate integration tests: the simulated pipelines against the
//! CPU oracle, across algorithms, parameter sets, and input shapes.

use cfmerge::core::inputs::InputSpec;
use cfmerge::core::params::SortParams;
use cfmerge::core::sort::{simulate_sort, SortAlgorithm, SortConfig};
use cfmerge::mergepath::cpu::{merge_sort_par, merge_sort_seq};

fn all_inputs() -> Vec<InputSpec> {
    vec![
        InputSpec::UniformRandom { seed: 0xE2E },
        InputSpec::RandomPermutation { seed: 0xE2E },
        InputSpec::Sorted,
        InputSpec::Reversed,
        InputSpec::FewDistinct { seed: 0xE2E, distinct: 3 },
        InputSpec::NearlySorted { seed: 0xE2E, swaps: 100 },
    ]
}

#[test]
fn gpu_pipelines_match_cpu_oracle() {
    for params in [SortParams::e15_u512(), SortParams::e17_u256(), SortParams::new(5, 64)] {
        let cfg = SortConfig::with_params(params);
        for spec in all_inputs() {
            let n = 3 * params.tile() + 17; // ragged on purpose
            let input = spec.generate(n);

            let mut oracle = input.clone();
            merge_sort_seq(&mut oracle);

            for algo in [SortAlgorithm::ThrustMergesort, SortAlgorithm::CfMerge] {
                let run = simulate_sort(&input, algo, &cfg);
                assert_eq!(
                    run.output,
                    oracle,
                    "mismatch: {:?} on {} with E={},u={}",
                    algo,
                    spec.label(),
                    params.e,
                    params.u
                );
            }
        }
    }
}

#[test]
fn cpu_sorts_agree_with_each_other() {
    for spec in all_inputs() {
        for n in [0usize, 1, 2, 1000, 12345] {
            let input = spec.generate(n);
            let mut a = input.clone();
            let mut b = input.clone();
            merge_sort_seq(&mut a);
            merge_sort_par(&mut b, 480);
            assert_eq!(a, b, "{} n={n}", spec.label());
        }
    }
}

#[test]
fn both_pipelines_produce_identical_output() {
    // Identical inputs → identical sorted output, whatever the internal
    // layout differences.
    let cfg = SortConfig::paper_e15_u512();
    let input = InputSpec::UniformRandom { seed: 99 }.generate(4 * 7680);
    let a = simulate_sort(&input, SortAlgorithm::ThrustMergesort, &cfg);
    let b = simulate_sort(&input, SortAlgorithm::CfMerge, &cfg);
    assert_eq!(a.output, b.output);
    assert_eq!(a.n, b.n);
}

#[test]
fn global_traffic_parity_between_pipelines() {
    // CF-Merge's permutation lives entirely in shared addressing: the
    // DRAM traffic must be byte-identical to the baseline.
    let cfg = SortConfig::paper_e15_u512();
    let input = InputSpec::UniformRandom { seed: 5 }.generate(8 * 7680);
    let a = simulate_sort(&input, SortAlgorithm::ThrustMergesort, &cfg);
    let b = simulate_sort(&input, SortAlgorithm::CfMerge, &cfg);
    assert_eq!(a.profile.total().global_ld_sectors, b.profile.total().global_ld_sectors);
    assert_eq!(a.profile.total().global_st_sectors, b.profile.total().global_st_sectors);
}

#[test]
fn throughput_rises_with_n_before_saturation() {
    // The left side of the paper's Figure 6: throughput climbs with n
    // while the grid is too small to fill the device (more blocks → more
    // SMs busy), and simulated time still increases monotonically.
    let cfg = SortConfig::with_params(SortParams::new(5, 32));
    let mut prev_time = 0.0f64;
    let mut first_tp = None;
    let mut last_tp = 0.0f64;
    for tiles in [4usize, 16, 64, 256] {
        let n = tiles * cfg.params.tile();
        let run = simulate_sort(
            &InputSpec::UniformRandom { seed: 1 }.generate(n),
            SortAlgorithm::CfMerge,
            &cfg,
        );
        assert!(run.simulated_seconds > prev_time, "time must grow with n");
        prev_time = run.simulated_seconds;
        last_tp = run.throughput().unwrap();
        first_tp.get_or_insert(last_tp);
    }
    assert!(
        last_tp > 2.0 * first_tp.unwrap(),
        "throughput should climb steeply in the unsaturated regime: {first_tp:?} → {last_tp}"
    );
}

#[test]
fn profile_counters_are_internally_consistent() {
    let cfg = SortConfig::paper_e17_u256();
    let input = InputSpec::UniformRandom { seed: 2 }.generate(8 * 4352);
    for algo in [SortAlgorithm::ThrustMergesort, SortAlgorithm::CfMerge] {
        let run = simulate_sort(&input, algo, &cfg);
        let t = run.profile.total();
        // Transactions ≥ requests (every request is at least one
        // transaction) for loads and stores separately.
        assert!(t.shared_ld_transactions >= t.shared_ld_requests);
        assert!(t.shared_st_transactions >= t.shared_st_requests);
        // Global sectors ≥ requests.
        assert!(t.global_ld_sectors >= t.global_ld_requests);
        // Kernel sum equals the aggregate.
        let mut sum = 0u64;
        for k in &run.kernels {
            sum += k.profile.total().shared_ld_transactions;
        }
        assert_eq!(sum, t.shared_ld_transactions);
    }
}
