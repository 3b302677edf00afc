//! Golden-file pin for the recovery report: a small deterministic
//! fault-injection run must serialize its [`RecoveryReport`] (counters,
//! injection and detection records, degradations, priced recovery time)
//! byte-for-byte to the committed golden file.
//!
//! Regenerate with `UPDATE_GOLDEN=1 cargo test --test recovery_report`
//! after an intentional schema change.

use cfmerge::core::inputs::InputSpec;
use cfmerge::core::params::SortParams;
use cfmerge::core::recovery::{
    pipeline_shape, simulate_sort_robust, simulate_sort_robust_traced, RobustConfig,
};
use cfmerge::core::sort::{SortAlgorithm, SortConfig};
use cfmerge::core::verify::verify_sorted_permutation;
use cfmerge::gpu_sim::fault::{FaultKind, FaultPlan, FaultSite, FaultSpec, Persistence};
use cfmerge_json::{FromJson, Json, ToJson};

#[test]
fn recovery_report_matches_golden_file() {
    let params = SortParams::new(5, 32);
    let n = 2 * params.tile() + 9;
    let spec = FaultSpec {
        sites: 4,
        max_phase: 6,
        sticky_permille: 400,
        permanent_permille: 0,
        spikes: true,
    };
    let plan = FaultPlan::generate(0xD00D_FEED, &pipeline_shape(n, &params), &spec);
    let input = InputSpec::UniformRandom { seed: 11 }.generate(n);
    let rcfg = RobustConfig::new(SortConfig::with_params(params));

    let run = simulate_sort_robust(&input, SortAlgorithm::CfMerge, &rcfg, &plan)
        .expect("recoverable plan");
    assert_eq!(verify_sorted_permutation(&input, &run.run.output), Ok(()));
    // The pinned plan must actually exercise the machinery, otherwise the
    // golden file pins a trivial document.
    assert!(run.report.counters.faults_injected > 0);
    assert!(run.report.counters.faults_detected > 0);

    let doc = Json::obj([
        ("algorithm", Json::from(format!("{:?}", run.algorithm))),
        ("n", Json::from(n)),
        ("report", run.report.to_json()),
    ]);
    let got = doc.to_string_pretty();

    let golden_path = concat!(env!("CARGO_MANIFEST_DIR"), "/tests/golden/recovery_report.json");
    if std::env::var_os("UPDATE_GOLDEN").is_some() {
        std::fs::write(golden_path, &got).expect("bless golden file");
    }
    let want = std::fs::read_to_string(golden_path).unwrap_or_else(|e| {
        panic!("missing golden file {golden_path}: {e} (run with UPDATE_GOLDEN=1 to create it)")
    });
    assert_eq!(
        got.trim(),
        want.trim(),
        "recovery report drifted from the golden file; if the change is\n\
         intentional, regenerate tests/golden/recovery_report.json"
    );

    // Round-trip: the counters embedded in the golden document parse back.
    let parsed = Json::parse(&want).expect("golden file parses");
    let counters = cfmerge::core::recovery::RecoveryCounters::from_json(
        parsed.req("report").unwrap().req("counters").unwrap(),
    )
    .expect("counters round-trip");
    assert_eq!(counters, run.report.counters);
}

/// One block of a worst-case block sort, where every block shares one
/// order pattern, carries a transient stuck bank. That block must run
/// alone (its fault fires, is detected and is retried), and the report
/// must equal the same run with a tracer attached, which forms no block
/// classes and simulates every block.
#[test]
fn faulted_block_runs_alone_in_a_classed_launch() {
    let params = SortParams::new(5, 32);
    let input = InputSpec::worst_case(params).generate(8 * params.tile());
    let rcfg = RobustConfig::new(SortConfig::with_params(params));
    let plan = FaultPlan::from_sites(vec![FaultSite {
        kernel: 0,
        block: 0,
        phase: 1,
        kind: FaultKind::StuckBank { bank: 3, bit: 2 },
        persistence: Persistence::Transient,
    }]);
    for algo in [SortAlgorithm::ThrustMergesort, SortAlgorithm::CfMerge] {
        let classed = simulate_sort_robust(&input, algo, &rcfg, &plan).expect("recoverable");
        let (traced, _) = simulate_sort_robust_traced(&input, algo, &rcfg, &plan).expect("traced");
        let detected: Vec<_> =
            classed.report.detections.iter().map(|d| (d.kernel.as_str(), d.block)).collect();
        assert_eq!(detected, [("blocksort", 0)], "{algo:?}");
        assert_eq!(classed.report.counters.retries, 1, "{algo:?}");
        assert_eq!(
            classed.report.to_json().to_string_pretty(),
            traced.report.to_json().to_string_pretty(),
            "{algo:?}"
        );
        assert_eq!(classed.run.output, traced.run.output, "{algo:?}");
        assert_eq!(classed.run.simulated_seconds, traced.run.simulated_seconds, "{algo:?}");
        assert_eq!(format!("{:?}", classed.run.kernels), format!("{:?}", traced.run.kernels));
    }
}
