//! Golden-file pin for the service resilience report: a small
//! deterministic `SortService` scenario — breaker trip, quarantine,
//! probe, recovery, a retry-budget denial, and an admission rejection —
//! must serialize its [`ServiceCounters`], per-job outcomes, and
//! breaker snapshots byte-for-byte to the committed golden file.
//!
//! Regenerate with `UPDATE_GOLDEN=1 cargo test --test resilience_report`
//! after an intentional schema change.

use cfmerge::core::inputs::InputSpec;
use cfmerge::core::params::SortParams;
use cfmerge::core::recovery::RobustConfig;
use cfmerge::core::resilience::{
    AdmissionConfig, BreakerConfig, ResilienceConfig, RetryBudgetConfig, ServiceCounters,
    ShedPolicy, SortService,
};
use cfmerge::core::sort::{SortAlgorithm, SortConfig};
use cfmerge::gpu_sim::fault::{FaultKind, FaultPlan, FaultSite, Persistence};
use cfmerge_json::{FromJson, Json, ToJson};

/// A sticky fault at the first blocksort block: defeats every retry, is
/// rescued by the fallback pipeline, and so reads as a breaker failure
/// signal (`fallbacks > 0`) without erroring the job.
fn sticky_poison() -> FaultPlan {
    FaultPlan::from_sites(vec![FaultSite {
        kernel: 0,
        block: 0,
        phase: 1,
        kind: FaultKind::StuckBank { bank: 1, bit: 3 },
        persistence: Persistence::Sticky,
    }])
}

#[test]
fn resilience_report_matches_golden_file() {
    let params = SortParams::new(5, 32);
    let n = 2 * params.tile();
    let rcfg = RobustConfig::new(SortConfig::with_params(params));
    let mut svc = SortService::with_resilience(
        rcfg,
        ResilienceConfig {
            admission: AdmissionConfig::bounded(4, ShedPolicy::RejectNewest),
            retry_budget: RetryBudgetConfig::bounded(4.0),
            breaker: BreakerConfig {
                enabled: true,
                failure_threshold: 2,
                // One launch overhead: the job right after the trip is
                // quarantined at the unchanged clock, and the job after
                // that probes (the quarantined job advanced the clock).
                cooldown_s: 3e-6,
            },
        },
    );

    let input = |seed: u64| InputSpec::UniformRandom { seed }.generate(n);
    // Two poisoned jobs trip the breaker (threshold 2), the third is
    // quarantined, the fourth probes and closes it. A fifth submission
    // overflows the bounded queue and is rejected up front.
    for i in 0..2 {
        svc.submit_with_faults(
            &format!("golden/poisoned-{i}"),
            input(i),
            SortAlgorithm::CfMerge,
            sticky_poison(),
            None,
        );
    }
    svc.submit("golden/quarantined", input(2), SortAlgorithm::CfMerge);
    svc.submit("golden/probe", input(3), SortAlgorithm::CfMerge);
    svc.submit("golden/rejected", input(4), SortAlgorithm::CfMerge);

    let outcomes = svc.drain();
    assert_eq!(outcomes.len(), 5);
    // The pinned scenario must actually exercise the machinery,
    // otherwise the golden file pins a trivial document.
    assert_eq!(svc.counters().breaker_opens, 1);
    assert_eq!(svc.counters().breaker_closes, 1);
    assert_eq!(svc.counters().quarantined, 1);
    assert_eq!(svc.counters().probes, 1);
    assert_eq!(svc.counters().shed_overload, 1);
    assert!(svc.counters().budget_denied > 0);

    let jobs: Vec<Json> = outcomes
        .iter()
        .map(|o| {
            let result = match &o.result {
                Ok(run) => Json::obj([
                    ("ok", Json::from(true)),
                    ("n", Json::from(run.run.n)),
                    ("seconds", Json::from(run.run.simulated_seconds)),
                    ("fallbacks", Json::from(run.report.counters.fallbacks)),
                ]),
                Err(e) => Json::obj([("ok", Json::from(false)), ("error", e.to_json())]),
            };
            Json::obj([
                ("id", Json::from(o.id.to_string())),
                ("label", Json::from(o.label.clone())),
                ("quarantined", Json::from(o.quarantined)),
                ("probe", Json::from(o.probe)),
                ("retries_granted", Json::from(o.retries_granted)),
                ("result", result),
            ])
        })
        .collect();
    let breakers: Vec<Json> = svc
        .breaker_snapshots()
        .into_iter()
        .map(|(algo, e, u, state, opens)| {
            Json::obj([
                ("pipeline", Json::from(algo)),
                ("e", Json::from(e)),
                ("u", Json::from(u)),
                ("state", Json::from(state.label())),
                ("opens", Json::from(opens)),
            ])
        })
        .collect();
    let doc = Json::obj([
        ("n", Json::from(n)),
        ("jobs", Json::arr(jobs)),
        ("counters", svc.counters().to_json()),
        ("breakers", Json::arr(breakers)),
        ("clock_s", Json::from(svc.clock_s())),
        ("budget_tokens", Json::from(svc.budget_tokens().unwrap_or(f64::NAN))),
    ]);
    let got = doc.to_string_pretty();

    let golden_path = concat!(env!("CARGO_MANIFEST_DIR"), "/tests/golden/resilience_report.json");
    if std::env::var_os("UPDATE_GOLDEN").is_some() {
        std::fs::write(golden_path, &got).expect("bless golden file");
    }
    let want = std::fs::read_to_string(golden_path).unwrap_or_else(|e| {
        panic!("missing golden file {golden_path}: {e} (run with UPDATE_GOLDEN=1 to create it)")
    });
    assert_eq!(
        got.trim(),
        want.trim(),
        "resilience report drifted from the golden file; if the change is\n\
         intentional, regenerate tests/golden/resilience_report.json"
    );

    // Round-trip: the counters embedded in the golden document parse back.
    let parsed = Json::parse(&want).expect("golden file parses");
    let counters =
        ServiceCounters::from_json(parsed.req("counters").unwrap()).expect("counters round-trip");
    assert_eq!(&counters, svc.counters());
}
