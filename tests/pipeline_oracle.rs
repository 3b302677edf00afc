//! Oracle for the one pipeline driver: every entry point runs the same
//! driver, so on an empty fault plan they must agree bit for bit, and a
//! single transient fault must cost exactly one priced retry and touch
//! no launch's report.
//!
//! The plain entry points group each launch's blocks into classes of
//! identical order pattern and simulate one block per class; the traced
//! and checked ones simulate every block. Inputs whose blocks repeat
//! (the worst case, sorted, all-equal, two-valued, a sentinel-padded
//! tail) pin the classed run to the block-by-block one.

use cfmerge::core::inputs::InputSpec;
use cfmerge::core::params::SortParams;
use cfmerge::core::recovery::{simulate_sort_robust, RobustConfig};
use cfmerge::core::sort::{
    simulate_sort, simulate_sort_checked, simulate_sort_traced, KernelReport, SortAlgorithm,
    SortConfig, SortKey, SortRun,
};
use cfmerge::gpu_sim::fault::{FaultKind, FaultPlan, FaultSite, Persistence};

const ALGOS: [SortAlgorithm; 2] = [SortAlgorithm::ThrustMergesort, SortAlgorithm::CfMerge];

/// E = 5, u = 32: a 160-key tile, so 4 tiles give a block sort and two
/// merge passes of four blocks each.
fn config() -> SortConfig {
    SortConfig::with_params(SortParams::new(5, 32))
}

fn keys_u32(n: usize) -> Vec<u32> {
    InputSpec::UniformRandom { seed: 61 }.generate(n)
}

/// Order-preserving widening: equal keys stay equal, so a `u64` input
/// has the order pattern of its `u32` source.
fn widen(keys: Vec<u32>) -> Vec<u64> {
    keys.into_iter().map(|k| (u64::from(k) << 32) | u64::from(k.rotate_left(7))).collect()
}

fn keys_u64(n: usize) -> Vec<u64> {
    widen(keys_u32(n))
}

/// Inputs whose blocks share order patterns within a launch.
fn repeating_inputs() -> Vec<(&'static str, Vec<u32>)> {
    let n = 8 * 160;
    vec![
        ("worst-case", InputSpec::worst_case(config().params).generate(n)),
        ("sorted", InputSpec::Sorted.generate(n)),
        ("all-equal", vec![7; n]),
        ("two-valued", (0..n as u32).map(|i| i % 2).collect()),
        ("sentinel-padded", InputSpec::Sorted.generate(3 * 160 + 17)),
    ]
}

fn assert_same_report(a: &KernelReport, b: &KernelReport, what: &str) {
    assert_eq!(a.name, b.name, "{what}");
    assert_eq!(a.blocks, b.blocks, "{what}: {}", a.name);
    assert_eq!(a.profile, b.profile, "{what}: {}", a.name);
    assert_eq!(a.time, b.time, "{what}: {}", a.name);
}

fn assert_same_run<K: SortKey + std::fmt::Debug>(a: &SortRun<K>, b: &SortRun<K>, what: &str) {
    assert_eq!(a.output, b.output, "{what}: output");
    assert_eq!(a.n, b.n, "{what}: n");
    assert_eq!(a.profile, b.profile, "{what}: profile");
    assert_eq!(a.simulated_seconds, b.simulated_seconds, "{what}: modeled seconds");
    assert_eq!(a.kernels.len(), b.kernels.len(), "{what}: launches");
    for (ka, kb) in a.kernels.iter().zip(&b.kernels) {
        assert_same_report(ka, kb, what);
    }
}

fn entry_points_agree<K: SortKey + std::fmt::Debug>(input: &[K]) {
    let cfg = config();
    for algo in ALGOS {
        let plain = simulate_sort(input, algo, &cfg);
        let mut expect = input.to_vec();
        expect.sort_unstable();
        assert_eq!(plain.output, expect, "{}: plain output is the sorted input", algo.label());

        let traced = simulate_sort_traced(input, algo, &cfg);
        assert_same_run(&plain, &traced.run, &format!("{} traced", algo.label()));
        assert_eq!(traced.trace.kernels.len(), plain.kernels.len());

        let checked = simulate_sort_checked(input, algo, &cfg);
        assert_same_run(&plain, &checked.run, &format!("{} checked", algo.label()));
        assert!(checked.is_clean(), "{}:\n{}", algo.label(), checked.report());

        let robust =
            simulate_sort_robust(input, algo, &RobustConfig::new(cfg.clone()), &FaultPlan::none())
                .expect("fault-free robust run");
        assert_same_run(&plain, &robust.run, &format!("{} robust", algo.label()));
        assert!(robust.report.is_clean());
    }
}

#[test]
fn fault_free_entry_points_agree_u32() {
    entry_points_agree(&keys_u32(4 * 160 + 13));
}

#[test]
fn fault_free_entry_points_agree_u64() {
    entry_points_agree(&keys_u64(4 * 160 + 13));
}

#[test]
fn classed_runs_match_every_block_simulated_u32() {
    for (what, input) in repeating_inputs() {
        println!("{what}");
        entry_points_agree(&input);
    }
}

#[test]
fn classed_runs_match_every_block_simulated_u64() {
    for (what, input) in repeating_inputs() {
        println!("{what}");
        entry_points_agree(&widen(input));
    }
}

/// The worst case at the paper's size (n = 2^16·15, E = 15, u = 512),
/// where every block of every launch shares one order pattern: the
/// classed run must match the traced one, which simulates all 128 blocks
/// of each launch. Ignored by default (a second of release time, minutes
/// in debug); CI runs it with `--release -- --include-ignored`.
#[test]
#[ignore = "paper-size; run in release with --include-ignored"]
fn classed_worst_case_at_paper_size_matches_traced() {
    let cfg = SortConfig::paper_e15_u512();
    let input = InputSpec::worst_case(cfg.params).generate((1 << 16) * 15);
    for algo in ALGOS {
        let classed = simulate_sort(&input, algo, &cfg);
        let traced = simulate_sort_traced(&input, algo, &cfg);
        assert_same_run(&classed, &traced.run, &format!("{} paper size", algo.label()));
    }
}

/// One transient stuck bank at (kernel 1, block 1), i.e. block 1 of
/// `merge-pass-0`: detected once, retried once, and priced only as
/// `retry_seconds` (plus its backoff). Every launch's report — the
/// faulted one included, since its accepted attempt is the clean retry —
/// stays bit-identical to the fault-free run.
fn one_transient_fault_is_one_priced_retry<K: SortKey + std::fmt::Debug>(input: &[K]) {
    let rcfg = RobustConfig::new(config());
    let plan = FaultPlan::from_sites(vec![FaultSite {
        kernel: 1,
        block: 1,
        phase: 1,
        kind: FaultKind::StuckBank { bank: 3, bit: 7 },
        persistence: Persistence::Transient,
    }]);
    for algo in ALGOS {
        let what = algo.label();
        let clean = simulate_sort(input, algo, &rcfg.base);
        let faulted = simulate_sort_robust(input, algo, &rcfg, &plan).expect("transient fault");
        let report = &faulted.report;
        assert_eq!(faulted.algorithm, algo, "{what}: no fallback");
        assert_eq!(report.detections.len(), 1, "{what}: {:?}", report.detections);
        assert_eq!(
            (report.detections[0].kernel.as_str(), report.detections[0].block),
            ("merge-pass-0", 1)
        );
        assert_eq!(report.counters.retries, 1, "{what}");
        assert!(report.retry_seconds > 0.0, "{what}: the retry is priced");
        assert_eq!(report.spike_seconds, 0.0, "{what}");
        assert_eq!(report.hedges.hedge_seconds, 0.0, "{what}");

        assert_eq!(faulted.run.output, clean.output, "{what}");
        assert_eq!(faulted.run.profile, clean.profile, "{what}: retries stay out of the profile");
        assert_eq!(faulted.run.kernels.len(), clean.kernels.len(), "{what}");
        for (f, c) in faulted.run.kernels.iter().zip(&clean.kernels) {
            assert_same_report(f, c, what);
        }
        // The modeled total is the fault-free launches plus the retry and
        // its backoff on merge-pass-0, summed in the driver's order.
        let mut expect = 0.0;
        for k in &clean.kernels {
            let extra = if k.name == "merge-pass-0" {
                report.retry_seconds + report.backoff_seconds
            } else {
                0.0
            };
            expect += k.time.seconds + extra;
        }
        assert_eq!(faulted.run.simulated_seconds, expect, "{what}");
    }
}

#[test]
fn one_transient_fault_is_one_priced_retry_u32() {
    one_transient_fault_is_one_priced_retry(&keys_u32(4 * 160));
}

#[test]
fn one_transient_fault_is_one_priced_retry_u64() {
    one_transient_fault_is_one_priced_retry(&keys_u64(4 * 160));
}
