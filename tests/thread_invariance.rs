//! Thread-count invariance: the simulator fans thread blocks out over
//! real threads, and the same inputs must give the same bytes at any
//! width. Each check runs under 1, 2, 4 and 7 threads (pinned with
//! `rayon::ThreadPoolBuilder`) and requires bit-identical results:
//! outputs, per-launch reports, modeled seconds, recovery forensics in
//! order, and a cluster report's serialized JSON.

use cfmerge::core::inputs::InputSpec;
use cfmerge::core::params::SortParams;
use cfmerge::core::recovery::{simulate_sort_robust, RobustConfig};
use cfmerge::core::resilience::{
    ClusterConfig, ClusterService, DeviceFaultPlan, DeviceFaultSpec, HedgeConfig, LoadGenConfig,
};
use cfmerge::core::sort::{simulate_merge, simulate_sort, SortAlgorithm, SortConfig, SortKey};
use cfmerge::gpu_sim::fault::{FaultKind, FaultPlan, FaultSite, Persistence};
use cfmerge::mergepath::cpu::merge_sort_par;
use cfmerge_json::ToJson;

const ALGOS: [SortAlgorithm; 2] = [SortAlgorithm::ThrustMergesort, SortAlgorithm::CfMerge];

/// E = 5, u = 32: a 160-key tile, so 16 tiles give 16 blocks per launch.
fn config() -> SortConfig {
    SortConfig::with_params(SortParams::new(5, 32))
}

fn keys_u32(n: usize) -> Vec<u32> {
    InputSpec::UniformRandom { seed: 29 }.generate(n)
}

fn keys_u64(n: usize) -> Vec<u64> {
    keys_u32(n).into_iter().map(|k| (u64::from(k) << 32) | u64::from(k.rotate_left(11))).collect()
}

/// Run `observe` at each width and require the width-1 result from all.
fn assert_thread_count_invariant(observe: impl Fn() -> String + Send + Sync) {
    let at = |n: usize| {
        rayon::ThreadPoolBuilder::new().num_threads(n).build().expect("pool").install(&observe)
    };
    let reference = at(1);
    for n in [2, 4, 7] {
        assert!(at(n) == reference, "result at {n} threads differs from 1 thread");
    }
}

fn sort_fingerprint<K: SortKey + std::fmt::Debug>(input: &[K]) -> String {
    let mut out = String::new();
    for algo in ALGOS {
        let run = simulate_sort(input, algo, &config());
        out +=
            &format!("{:?} {:?} {:#x}\n", run.output, run.kernels, run.simulated_seconds.to_bits());
    }
    out
}

#[test]
fn simulate_sort_u32() {
    let input = keys_u32(16 * 160 - 7);
    assert_thread_count_invariant(|| sort_fingerprint(&input));
}

#[test]
fn simulate_sort_u64() {
    let input = keys_u64(16 * 160 - 7);
    assert_thread_count_invariant(|| sort_fingerprint(&input));
}

/// The worst case shares one order pattern across the blocks of every
/// launch, so each launch simulates one block per class and reuses it.
#[test]
fn simulate_sort_worst_case() {
    let input = InputSpec::worst_case(config().params).generate(16 * 160);
    assert_thread_count_invariant(|| sort_fingerprint(&input));
}

/// One transient stuck bank (detected, retried) and one latency spike
/// (hedged) in different blocks of different launches.
#[test]
fn simulate_sort_robust_report() {
    let input = keys_u32(16 * 160);
    let mut rcfg = RobustConfig::new(config());
    rcfg.hedge = HedgeConfig::on();
    let site = |kernel, block, kind| FaultSite {
        kernel,
        block,
        phase: 1,
        kind,
        persistence: Persistence::Transient,
    };
    let plan = FaultPlan::from_sites(vec![
        site(1, 5, FaultKind::StuckBank { bank: 3, bit: 7 }),
        site(2, 3, FaultKind::LatencySpike { cycles: 50_000 }),
    ]);
    let first = simulate_sort_robust(&input, SortAlgorithm::CfMerge, &rcfg, &plan).expect("ok");
    assert_eq!(first.report.detections.len(), 1, "the stuck bank is caught");
    assert_eq!(first.report.hedges.launched, 1, "the spike is hedged");
    assert_thread_count_invariant(|| {
        let r = simulate_sort_robust(&input, SortAlgorithm::CfMerge, &rcfg, &plan).expect("ok");
        format!(
            "{:?} {:?} {:#x}\n{}",
            r.run.output,
            r.run.kernels,
            r.run.simulated_seconds.to_bits(),
            r.report.to_json().to_string_pretty()
        )
    });
}

#[test]
fn simulate_merge_runs() {
    let mut a = keys_u32(5 * 160 + 3);
    let mut b = keys_u32(6 * 160 - 9);
    a.sort_unstable();
    b.sort_unstable();
    assert_thread_count_invariant(|| {
        let mut out = String::new();
        for algo in ALGOS {
            let run = simulate_merge(&a, &b, algo, &config());
            out += &format!(
                "{:?} {:?} {:#x}\n",
                run.output,
                run.kernel,
                run.simulated_seconds.to_bits()
            );
        }
        out
    });
}

#[test]
fn merge_sort_par_output() {
    let input = keys_u32(5_000);
    assert_thread_count_invariant(|| {
        let mut v = input.clone();
        merge_sort_par(&mut v, 64);
        format!("{v:?}")
    });
}

/// A two-device cluster with seeded device faults and telemetry on.
#[test]
fn cluster_report_json() {
    assert_thread_count_invariant(|| {
        let mut cfg = ClusterConfig::homogeneous(2, RobustConfig::new(config()));
        cfg.faults = DeviceFaultPlan::generate(
            5,
            2,
            2e-4,
            &DeviceFaultSpec { events: 2, ..DeviceFaultSpec::default() },
        );
        let mut cluster = ClusterService::new(cfg);
        cluster.enable_telemetry();
        for req in LoadGenConfig::steady(17, 12, 1e5).generate() {
            cluster.submit_request(req);
        }
        cluster.run().to_json().to_string_pretty()
    });
}
