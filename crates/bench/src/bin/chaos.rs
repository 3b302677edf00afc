//! Chaos campaigns for the robust sort service.
//!
//! Three suites, selectable by argument (`chaos sweep`, `chaos service`,
//! `chaos cluster`; no argument runs all three):
//!
//! * **sweep** — the pinned-seed fault-injection campaign: for each of
//!   64 pinned seeds × 2 pipelines, a deterministic [`FaultPlan`]
//!   (3 sites, ~15% sticky) is injected into a small sort and the robust
//!   driver must come back with an output that the exact oracle
//!   (`verify_sorted_permutation`) confirms is the sorted permutation of
//!   the input. A further 8 plans per pipeline carry a permanent fault
//!   and must come back as a *typed* `UnrecoverableFault` — or a
//!   verified success when the fault happened not to corrupt anything —
//!   never as silently wrong output. Artifact: `results/chaos.json`
//!   (compact per-job records).
//!
//! * **service** — pinned service-level scenarios exercising the
//!   resilience stack end to end: a fault storm that trips a circuit
//!   breaker and drains the retry budget, queue overflow under deadline
//!   pressure with typed load shedding, kill-and-resume from a verified
//!   checkpoint, and a straggler storm answered by hedged duplicates.
//!   Artifact: `results/resilience.json`.
//!
//! * **cluster** — the traffic × fault × policy chaos matrix for the
//!   multi-device cluster service: each pinned scenario replays a seeded
//!   load-generator stream (steady, diurnal, bursty, or a Theorem-8
//!   worst-case flood) against a device fleet under a device fault plan
//!   (none, crash, crash-with-restart, degrade) and an admission /
//!   migration policy. Every verified success must be the exact sorted
//!   permutation; every failure must be a typed error; crashed devices
//!   must hand their work over by checkpoint migration when failover is
//!   on. The final scenario byte-compares a fault-free single-device
//!   cluster against [`SortService`] directly. Artifact:
//!   `results/cluster.json`.
//!
//! `chaos --list` names every suite's scenarios. `--only <name>` runs a
//! single scenario: `chaos sweep --only <pipeline>`, `chaos service
//! --only <scenario>`, `chaos cluster --only <cell>` (bare `chaos
//! --only <cell>` still means the cluster suite). Every filtered run
//! skips its artifact, so a partial run can never clobber a pinned
//! baseline.
//!
//! Exit is nonzero on any violation: undetected corruption, an
//! unrecovered recoverable fault, a shed job that executed anyway, a
//! retry-budget underflow, breaker flapping beyond the pinned count, a
//! resume that re-executed verified passes, a device crash that lost
//! work with migration enabled, or a cluster/service parity break. CI
//! runs `sweep` as the `chaos` job, `service` as the `resilience` job,
//! and `cluster` as the `cluster-chaos` job.

use cfmerge_bench::artifact::{self, RunArtifact, RunRecord};
use cfmerge_bench::report::format_table;
use cfmerge_core::inputs::InputSpec;
use cfmerge_core::params::SortParams;
use cfmerge_core::recovery::{pipeline_shape, RobustConfig};
use cfmerge_core::resilience::{
    aggregate_counters, AdmissionConfig, BreakerConfig, CheckpointPolicy, ClusterConfig,
    ClusterReport, ClusterService, DeviceFaultEvent, DeviceFaultKind, DeviceFaultPlan, HedgeConfig,
    LoadGenConfig, MigrationConfig, ResilienceConfig, RetryBudgetConfig, ServiceCounters,
    ShedPolicy, SortService, TrafficShape,
};
use cfmerge_core::sort::{SortAlgorithm, SortConfig, SortError};
use cfmerge_core::telemetry::MetricsSnapshot;
use cfmerge_core::verify::verify_sorted_permutation;
use cfmerge_gpu_sim::fault::{FaultKind, FaultPlan, FaultSite, FaultSpec, Persistence};
use cfmerge_json::{Json, ToJson};
use std::process::ExitCode;

/// Pinned sweep seed base — change it and the whole campaign changes, so
/// don't.
const BASE_SEED: u64 = 0xC4A0_5EED;
/// Recoverable plans per pipeline (2 pipelines ⇒ 128 jobs ≥ the
/// 100-plan floor).
const RECOVERABLE_PLANS: u64 = 64;
/// Additional plans per pipeline carrying a permanent fault.
const PERMANENT_PLANS: u64 = 8;

const USAGE: &str = "usage: chaos [sweep|service|cluster] [--list] [--only <scenario>]";

fn main() -> ExitCode {
    let mut mode: Option<String> = None;
    let mut list = false;
    let mut only: Option<String> = None;
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut it = args.iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--list" => list = true,
            "--only" => match it.next() {
                Some(name) => only = Some(name.clone()),
                None => {
                    eprintln!("--only needs a scenario name\n{USAGE}");
                    return ExitCode::FAILURE;
                }
            },
            other if mode.is_none() && !other.starts_with('-') => mode = Some(other.to_string()),
            other => {
                eprintln!("unexpected argument `{other}`\n{USAGE}");
                return ExitCode::FAILURE;
            }
        }
    }
    if list {
        print_scenario_list();
        return ExitCode::SUCCESS;
    }
    let (run_sweep_suite, run_service_suite, run_cluster_suite) = match mode.as_deref() {
        // `--only` names a cluster scenario, so it narrows a no-mode
        // invocation to the cluster suite.
        None if only.is_some() => (false, false, true),
        None => (true, true, true),
        Some("sweep") => (true, false, false),
        Some("service") => (false, true, false),
        Some("cluster") => (false, false, true),
        Some(other) => {
            eprintln!("unknown suite `{other}`\n{USAGE}");
            return ExitCode::FAILURE;
        }
    };
    if only.is_some() && run_sweep_suite && run_service_suite {
        // Unreachable today (a bare `--only` narrows to cluster above),
        // but keep the all-suites + filter combination an explicit error
        // rather than a guess about which suite the name belongs to.
        eprintln!("--only needs a suite (sweep, service, or cluster)\n{USAGE}");
        return ExitCode::FAILURE;
    }
    let mut ok = true;
    if run_sweep_suite {
        ok &= run_sweep(only.as_deref());
    }
    if run_service_suite {
        ok &= run_service(only.as_deref());
    }
    if run_cluster_suite {
        ok &= run_cluster(only.as_deref());
    }
    if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

fn print_scenario_list() {
    println!("suites: sweep, service, cluster");
    println!("sweep pipelines (run one with `chaos sweep --only <name>`):");
    for algo in [SortAlgorithm::ThrustMergesort, SortAlgorithm::CfMerge] {
        println!(
            "  {:<28} {} recoverable + {} permanent-fault plans",
            algo.label(),
            RECOVERABLE_PLANS,
            PERMANENT_PLANS
        );
    }
    println!("service scenarios (run one with `chaos service --only <name>`):");
    for (name, _) in service_scenarios() {
        println!("  {name}");
    }
    println!("cluster scenarios (run one with `chaos --only <name>`):");
    for s in cluster_matrix() {
        println!(
            "  {:<28} {} devices, {} jobs, fault={}, policy={}",
            s.name,
            s.devices,
            s.jobs,
            s.fault.label(),
            s.policy_label()
        );
    }
    println!("  {:<28} byte-compares an N=1 fault-free cluster against SortService", PARITY_NAME);
}

// ---------------------------------------------------------------------------
// Sweep suite (the `chaos` CI job)
// ---------------------------------------------------------------------------

fn run_sweep(only: Option<&str>) -> bool {
    let pipelines = [SortAlgorithm::ThrustMergesort, SortAlgorithm::CfMerge];
    if let Some(name) = only {
        if !pipelines.iter().any(|a| a.label() == name) {
            eprintln!("unknown sweep pipeline `{name}`; `chaos --list` names them");
            return false;
        }
    }
    let params = SortParams::new(5, 32);
    let cfg = RobustConfig::new(SortConfig::with_params(params));
    // 4 full tiles plus a ragged tail: exercises sentinel padding under
    // injection too.
    let n = 4 * params.tile() + 17;
    let shape = pipeline_shape(n, &params);

    let recoverable_spec = FaultSpec {
        sites: 3,
        max_phase: 6,
        sticky_permille: 150,
        permanent_permille: 0,
        spikes: true,
    };
    let permanent_spec = FaultSpec { permanent_permille: 1000, ..recoverable_spec };

    let mut svc = SortService::new(cfg);
    svc.enable_telemetry();
    let mut jobs = Vec::new();
    for algo in pipelines {
        if only.is_some_and(|o| o != algo.label()) {
            continue;
        }
        for i in 0..RECOVERABLE_PLANS + PERMANENT_PLANS {
            let permanent = i >= RECOVERABLE_PLANS;
            let seed = BASE_SEED ^ (i << 8) ^ u64::from(algo == SortAlgorithm::CfMerge);
            let spec = if permanent { &permanent_spec } else { &recoverable_spec };
            let plan = FaultPlan::generate(seed, &shape, spec);
            let input = InputSpec::UniformRandom { seed }.generate(n);
            let label = format!(
                "{}/chaos/seed={seed:#x}{}",
                algo.label(),
                if permanent { "/permanent" } else { "" }
            );
            let id = svc.submit_with_faults(&label, input.clone(), algo, plan.clone(), None);
            jobs.push((id, label, input, plan, permanent));
        }
    }
    println!(
        "chaos sweep: {} jobs ({} recoverable + {} permanent-fault plans per pipeline), n={n}",
        jobs.len(),
        RECOVERABLE_PLANS,
        PERMANENT_PLANS
    );

    let outcomes = svc.drain();
    let mut art = RunArtifact::new("chaos", device());
    let mut violations: Vec<String> = Vec::new();
    let mut unrecoverable_typed = 0u64;
    for ((_, label, input, plan, permanent), outcome) in jobs.iter().zip(&outcomes) {
        assert_eq!(*label, outcome.label, "service must preserve submission order");
        match &outcome.result {
            Ok(run) => {
                // The one invariant chaos exists to check: a success is
                // always the exact sorted permutation of the input.
                if let Err(failure) = verify_sorted_permutation(input, &run.run.output) {
                    violations.push(format!("{label}: UNDETECTED CORRUPTION: {failure}"));
                }
                art.runs.push(RunRecord::compact_from_robust_run(label, run));
            }
            Err(SortError::UnrecoverableFault { .. }) if *permanent => {
                // Permanent faults are allowed exactly one escape hatch:
                // a typed error.
                unrecoverable_typed += 1;
            }
            Err(e) => {
                debug_assert!(!plan.has_permanent() || *permanent);
                violations.push(format!("{label}: unrecovered recoverable fault: {e}"));
            }
        }
    }

    let totals = aggregate_counters(&outcomes);
    let rows = vec![
        vec!["jobs".into(), outcomes.len().to_string()],
        vec!["faults injected".into(), totals.faults_injected.to_string()],
        vec!["faults detected".into(), totals.faults_detected.to_string()],
        vec!["blocks retried".into(), totals.blocks_retried.to_string()],
        vec!["retries".into(), totals.retries.to_string()],
        vec!["fallbacks".into(), totals.fallbacks.to_string()],
        vec!["typed unrecoverable (permanent plans)".into(), unrecoverable_typed.to_string()],
        vec!["violations".into(), violations.len().to_string()],
    ];
    println!("\n{}", format_table(&["metric", "value"], &rows));

    art.add_summary("jobs", Json::from(outcomes.len()));
    art.add_summary("faults_injected", Json::from(totals.faults_injected));
    art.add_summary("faults_detected", Json::from(totals.faults_detected));
    art.add_summary("retries", Json::from(totals.retries));
    art.add_summary("fallbacks", Json::from(totals.fallbacks));
    art.add_summary("unrecoverable_typed", Json::from(unrecoverable_typed));
    art.add_summary("violations", Json::from(violations.len()));
    art.add_summary("service", svc.counters().to_json());
    let snap = svc.telemetry_snapshot().expect("telemetry enabled above").with_prefix("sweep_");
    add_latency_summary(&mut art, "sweep", &snap);
    art.telemetry = Some(snap);
    if only.is_none() {
        artifact::emit(&art);
    } else {
        println!("(--only run: skipping results/chaos.json so the pinned campaign stays intact)");
    }

    if violations.is_empty() {
        println!(
            "\nOK: all {} injected faults were detected, recovered, or typed; every \
             success verified as the exact sorted permutation.",
            totals.faults_injected
        );
        true
    } else {
        for v in &violations {
            eprintln!("FAIL: {v}");
        }
        false
    }
}

// ---------------------------------------------------------------------------
// Service suite (the `resilience` CI job)
// ---------------------------------------------------------------------------

/// Sticky shared-bank corruption at block 0 of the block sort: defeats
/// every same-pipeline retry, forcing the Thrust fallback — the breaker's
/// definition of a config-health failure.
fn sticky_poison() -> FaultPlan {
    FaultPlan::from_sites(vec![FaultSite {
        kernel: 0,
        block: 0,
        phase: 1,
        kind: FaultKind::StuckBank { bank: 1, bit: 3 },
        persistence: Persistence::Sticky,
    }])
}

/// A transient latency spike on one block of the block sort: the block's
/// result is correct but late — hedging's prey.
fn straggler_plan(block: u32, cycles: u64) -> FaultPlan {
    FaultPlan::from_sites(vec![FaultSite {
        kernel: 0,
        block,
        phase: 1,
        kind: FaultKind::LatencySpike { cycles },
        persistence: Persistence::Transient,
    }])
}

fn small_rcfg() -> RobustConfig {
    RobustConfig::new(SortConfig::with_params(SortParams::new(5, 32)))
}

/// One service-suite scenario: stable CLI name plus its runner.
type ServiceScenario =
    (&'static str, fn(&mut Vec<String>, &mut RunArtifact, &mut ServiceCounters) -> MetricsSnapshot);

fn service_scenarios() -> [ServiceScenario; 4] {
    [
        ("fault-storm", scenario_fault_storm),
        ("queue-overflow", scenario_queue_overflow),
        ("kill-and-resume", scenario_kill_and_resume),
        ("straggler-storm", scenario_straggler_storm),
    ]
}

fn run_service(only: Option<&str>) -> bool {
    let scenarios = service_scenarios();
    if let Some(name) = only {
        if !scenarios.iter().any(|(n, _)| *n == name) {
            eprintln!("unknown service scenario `{name}`; `chaos --list` names them");
            return false;
        }
    }
    let mut violations: Vec<String> = Vec::new();
    let mut art = RunArtifact::new("resilience", device());
    let mut service_totals = ServiceCounters::default();

    // Each scenario hands back its telemetry snapshot with a scenario
    // prefix; the merged snapshot rides in the artifact so the perf gate
    // pins every counter, gauge, and latency percentile of the campaign.
    let mut telemetry = MetricsSnapshot::default();
    for (name, scenario) in scenarios {
        if only.is_some_and(|o| o != name) {
            continue;
        }
        telemetry = telemetry.merged(&scenario(&mut violations, &mut art, &mut service_totals));
    }

    art.add_summary("service", service_totals.to_json());
    art.add_summary("violations", Json::from(violations.len()));
    art.telemetry = Some(telemetry);
    if only.is_none() {
        artifact::emit(&art);
    } else {
        println!(
            "(--only run: skipping results/resilience.json so the pinned campaign stays intact)"
        );
    }

    if violations.is_empty() {
        println!(
            "\nOK: every service job was verified-sorted, cleanly shed with a typed error, \
             or resumed without re-executing verified passes."
        );
        true
    } else {
        for v in &violations {
            eprintln!("FAIL: {v}");
        }
        false
    }
}

/// Fault storm: three consecutive sticky-poisoned jobs trip the breaker
/// (threshold 3) and drain the retry budget; the next clean job is
/// quarantined onto E=17,u=256, and the one after probes the real config
/// and closes the breaker. Budget tokens must never underflow and
/// breaker opens are pinned at exactly one.
fn scenario_fault_storm(
    violations: &mut Vec<String>,
    art: &mut RunArtifact,
    totals: &mut ServiceCounters,
) -> MetricsSnapshot {
    let params = SortParams::new(5, 32);
    let n = 4 * params.tile() + 17;
    let mut svc = SortService::with_resilience(
        small_rcfg(),
        ResilienceConfig {
            // Cooldown = one launch overhead: the job right after the
            // trip is still inside the window (the clock only moves when
            // jobs run), the one after it probes.
            breaker: BreakerConfig { enabled: true, failure_threshold: 3, cooldown_s: 3e-6 },
            retry_budget: RetryBudgetConfig::bounded(6.0),
            ..ResilienceConfig::default()
        },
    );
    svc.enable_telemetry();
    let mut inputs = Vec::new();
    for i in 0..3u64 {
        let seed = BASE_SEED ^ 0x5101 ^ (i << 8);
        let input = InputSpec::UniformRandom { seed }.generate(n);
        svc.submit_with_faults(
            &format!("storm/poisoned-{i}"),
            input.clone(),
            SortAlgorithm::CfMerge,
            sticky_poison(),
            None,
        );
        inputs.push(input);
    }
    for (i, label) in ["storm/quarantined", "storm/probe"].iter().enumerate() {
        let seed = BASE_SEED ^ 0x5201 ^ ((i as u64) << 8);
        let input = InputSpec::UniformRandom { seed }.generate(n);
        svc.submit(label, input.clone(), SortAlgorithm::CfMerge);
        inputs.push(input);
    }
    let outcomes = svc.drain();
    for (input, o) in inputs.iter().zip(&outcomes) {
        match &o.result {
            Ok(run) => {
                if let Err(f) = verify_sorted_permutation(input, &run.run.output) {
                    violations.push(format!("{}: UNDETECTED CORRUPTION: {f}", o.label));
                }
                art.runs.push(RunRecord::compact_from_robust_run(&o.label, run));
            }
            Err(e) => violations.push(format!("{}: storm job must be rescued, got: {e}", o.label)),
        }
    }
    let sc = *svc.counters();
    if sc.breaker_opens != 1 {
        violations.push(format!("storm: breaker flapped: {} opens (pinned: 1)", sc.breaker_opens));
    }
    if sc.quarantined != 1 || sc.probes != 1 || sc.breaker_closes != 1 {
        violations.push(format!(
            "storm: expected 1 quarantine / 1 probe / 1 close, got {}/{}/{}",
            sc.quarantined, sc.probes, sc.breaker_closes
        ));
    }
    match svc.budget_tokens() {
        Some(t) if t < 0.0 => violations.push(format!("storm: retry budget underflow: {t}")),
        Some(_) => {}
        None => violations.push("storm: budget should be bounded".into()),
    }
    if sc.budget_denied == 0 {
        violations.push("storm: the drained budget never denied a grant".into());
    }
    println!(
        "fault-storm: {} jobs, breaker opens={} closes={}, quarantined={}, probes={}, \
         budget tokens left={:?}, denials={}",
        outcomes.len(),
        sc.breaker_opens,
        sc.breaker_closes,
        sc.quarantined,
        sc.probes,
        svc.budget_tokens(),
        sc.budget_denied
    );
    art.add_summary("fault_storm", svc.counters().to_json());
    totals.merge(&sc);
    let snap = svc.telemetry_snapshot().expect("telemetry enabled").with_prefix("storm_");
    add_latency_summary(art, "storm", &snap);
    snap
}

/// Queue overflow under deadline pressure: a bounded queue of 8 under
/// the deadline-aware policy takes 24 mixed submissions. Every job must
/// end verified-sorted, typed-shed (never executed), or typed-rejected.
fn scenario_queue_overflow(
    violations: &mut Vec<String>,
    art: &mut RunArtifact,
    totals: &mut ServiceCounters,
) -> MetricsSnapshot {
    let params = SortParams::new(5, 32);
    let n = 2 * params.tile();
    let mut svc = SortService::with_resilience(
        small_rcfg(),
        ResilienceConfig {
            admission: AdmissionConfig::bounded(8, ShedPolicy::DeadlineAware),
            ..ResilienceConfig::default()
        },
    );
    svc.enable_telemetry();
    let mut inputs = Vec::new();
    for i in 0..24u64 {
        let seed = BASE_SEED ^ 0x0F10 ^ (i << 8);
        let input = InputSpec::UniformRandom { seed }.generate(n);
        // Every third job carries an impossible deadline — the shed
        // policy's designated victims once the queue fills.
        let deadline = if i % 3 == 2 { Some(1e-12) } else { None };
        svc.submit_with_faults(
            &format!("overflow/job-{i}"),
            input.clone(),
            SortAlgorithm::CfMerge,
            FaultPlan::none(),
            deadline,
        );
        inputs.push(input);
    }
    let outcomes = svc.drain();
    let (mut ran, mut shed, mut rejected) = (0u64, 0u64, 0u64);
    for (input, o) in inputs.iter().zip(&outcomes) {
        match &o.result {
            Ok(run) => {
                ran += 1;
                if let Err(f) = verify_sorted_permutation(input, &run.run.output) {
                    violations.push(format!("{}: UNDETECTED CORRUPTION: {f}", o.label));
                }
            }
            Err(SortError::Shed { .. }) => shed += 1,
            Err(SortError::Overloaded { .. }) => rejected += 1,
            Err(e) => violations.push(format!("{}: untyped overflow outcome: {e}", o.label)),
        }
    }
    let sc = *svc.counters();
    // Shed jobs never execute — not even partially.
    if sc.executed != ran {
        violations.push(format!("overflow: executed {} jobs but {} ran", sc.executed, ran));
    }
    if ran + shed + rejected != outcomes.len() as u64 {
        violations.push("overflow: outcomes don't partition into ran/shed/rejected".into());
    }
    if shed == 0 || rejected == 0 {
        violations.push(format!(
            "overflow: deadline pressure should both shed ({shed}) and reject ({rejected})"
        ));
    }
    println!(
        "queue-overflow: {} submissions → {} ran, {} shed (deadline-aware), {} rejected",
        outcomes.len(),
        ran,
        shed,
        rejected
    );
    art.add_summary("queue_overflow", svc.counters().to_json());
    totals.merge(&sc);
    let snap = svc.telemetry_snapshot().expect("telemetry enabled").with_prefix("overflow_");
    add_latency_summary(art, "overflow", &snap);
    snap
}

/// Kill-and-resume: a checkpointing job is killed after its first merge
/// pass; the resume must produce byte-identical output at the identical
/// modeled cost without re-executing the verified passes.
fn scenario_kill_and_resume(
    violations: &mut Vec<String>,
    art: &mut RunArtifact,
    totals: &mut ServiceCounters,
) -> MetricsSnapshot {
    let params = SortParams::new(5, 32);
    let n = 8 * params.tile() + 3;
    let input = InputSpec::UniformRandom { seed: BASE_SEED ^ 0xCE50 }.generate(n);

    let mut reference = SortService::new(small_rcfg());
    reference.submit("resume/uninterrupted", input.clone(), SortAlgorithm::CfMerge);
    let whole = match reference.drain().remove(0).result {
        Ok(run) => run,
        Err(e) => {
            violations.push(format!("resume: clean reference run failed: {e}"));
            return MetricsSnapshot::default();
        }
    };

    let mut svc = SortService::new(small_rcfg());
    svc.enable_telemetry();
    svc.submit_with_policy(
        "resume/killed",
        input.clone(),
        SortAlgorithm::CfMerge,
        FaultPlan::none(),
        None,
        CheckpointPolicy::kill_after(1),
    );
    let killed = svc.drain().remove(0);
    let cp = match killed.result {
        Err(SortError::Interrupted { after_pass: 1, checkpoint }) => *checkpoint,
        other => {
            violations.push(format!("resume: expected Interrupted after pass 1, got {other:?}"));
            return MetricsSnapshot::default();
        }
    };
    svc.submit_resume("resume/resumed", cp, FaultPlan::none(), None);
    let resumed = match svc.drain().remove(0).result {
        Ok(run) => run,
        Err(e) => {
            violations.push(format!("resume: resumed job failed: {e}"));
            return MetricsSnapshot::default();
        }
    };
    if resumed.run.output != whole.run.output {
        violations.push("resume: output differs from the uninterrupted run".into());
    }
    if resumed.run.simulated_seconds != whole.run.simulated_seconds {
        violations.push(format!(
            "resume: modeled seconds diverged: {} vs {}",
            resumed.run.simulated_seconds, whole.run.simulated_seconds
        ));
    }
    // The resumed half must not contain the already-verified launches.
    if resumed.run.kernels.iter().any(|k| k.name == "blocksort" || k.name == "merge-pass-0") {
        violations.push("resume: re-executed a pass the checkpoint had already verified".into());
    }
    let sc = *svc.counters();
    println!(
        "kill-and-resume: byte-identical output, {} modeled s, resumed launches: {}",
        resumed.run.simulated_seconds,
        resumed.run.kernels.len()
    );
    art.runs.push(RunRecord::compact_from_robust_run("resume/resumed", &resumed));
    art.add_summary("kill_and_resume", svc.counters().to_json());
    totals.merge(&sc);
    let snap = svc.telemetry_snapshot().expect("telemetry enabled").with_prefix("resume_");
    add_latency_summary(art, "resume", &snap);
    snap
}

/// Straggler storm: every job has one block of the block sort delayed by
/// a transient half-million-cycle spike. With hedging on, each straggler
/// gets a priced duplicate that wins (the spike does not re-fire), so the
/// hedged service finishes strictly faster than the unhedged one.
fn scenario_straggler_storm(
    violations: &mut Vec<String>,
    art: &mut RunArtifact,
    totals: &mut ServiceCounters,
) -> MetricsSnapshot {
    let params = SortParams::new(5, 32);
    let n = 8 * params.tile();
    let jobs = 6u64;
    let build = |hedge: HedgeConfig| {
        let mut cfg = small_rcfg();
        cfg.hedge = hedge;
        let mut svc = SortService::new(cfg);
        svc.enable_telemetry();
        let mut inputs = Vec::new();
        for i in 0..jobs {
            let seed = BASE_SEED ^ 0x57A6 ^ (i << 8);
            let input = InputSpec::UniformRandom { seed }.generate(n);
            svc.submit_with_faults(
                &format!("straggler/job-{i}"),
                input.clone(),
                SortAlgorithm::CfMerge,
                straggler_plan((i % 8) as u32, 500_000),
                None,
            );
            inputs.push(input);
        }
        (svc, inputs)
    };

    let (mut hedged_svc, inputs) = build(HedgeConfig::on());
    let hedged = hedged_svc.drain();
    let (mut plain_svc, _) = build(HedgeConfig::default());
    let plain = plain_svc.drain();

    for (input, o) in inputs.iter().zip(&hedged) {
        match &o.result {
            Ok(run) => {
                if let Err(f) = verify_sorted_permutation(input, &run.run.output) {
                    violations.push(format!("{}: UNDETECTED CORRUPTION: {f}", o.label));
                }
                art.runs.push(RunRecord::compact_from_robust_run(&o.label, run));
            }
            Err(e) => violations.push(format!("{}: straggler job failed: {e}", o.label)),
        }
    }
    let counters = aggregate_counters(&hedged);
    if counters.hedges_launched != jobs || counters.hedges_won != jobs {
        violations.push(format!(
            "straggler: expected {jobs} hedges launched and won, got {}/{}",
            counters.hedges_launched, counters.hedges_won
        ));
    }
    if hedged_svc.clock_s() >= plain_svc.clock_s() {
        violations.push(format!(
            "straggler: hedging did not pay: {} s hedged vs {} s unhedged",
            hedged_svc.clock_s(),
            plain_svc.clock_s()
        ));
    }
    // Hedging must not change any output, only the modeled latency.
    for (h, p) in hedged.iter().zip(&plain) {
        if let (Ok(hr), Ok(pr)) = (&h.result, &p.result) {
            if hr.run.output != pr.run.output {
                violations.push(format!("{}: hedged output diverged from unhedged", h.label));
            }
        }
    }
    let sc = *hedged_svc.counters();
    println!(
        "straggler-storm: {} jobs, {} hedges launched, {} won, {:.3e} s hedged vs {:.3e} s \
         unhedged",
        jobs,
        counters.hedges_launched,
        counters.hedges_won,
        hedged_svc.clock_s(),
        plain_svc.clock_s()
    );
    art.add_summary("straggler_storm", hedged_svc.counters().to_json());
    totals.merge(&sc);
    let snap =
        hedged_svc.telemetry_snapshot().expect("telemetry enabled").with_prefix("straggler_");
    add_latency_summary(art, "straggler", &snap);
    snap
}

/// Surface one scenario's modeled latency percentiles in the artifact
/// summaries (the gate pins them; humans read them in `bench_diff`).
fn add_latency_summary(art: &mut RunArtifact, scenario: &str, snap: &MetricsSnapshot) {
    let Some(lat) = snap.histogram(&format!("{scenario}_service_job_latency_seconds")) else {
        return;
    };
    art.add_summary(
        &format!("{scenario}_latency"),
        Json::obj([
            ("count", Json::from(lat.count)),
            ("p50_s", Json::from(lat.p50 as f64 / 1e9)),
            ("p99_s", Json::from(lat.p99 as f64 / 1e9)),
            ("p999_s", Json::from(lat.p999 as f64 / 1e9)),
        ]),
    );
}

/// The campaign device (the artifact wants it; the service owns the
/// config, so reconstruct the default).
fn device() -> cfmerge_gpu_sim::device::Device {
    cfmerge_gpu_sim::device::Device::rtx2080ti()
}

// ---------------------------------------------------------------------------
// Cluster suite (the `cluster-chaos` CI job)
// ---------------------------------------------------------------------------

/// The name of the non-matrix parity scenario.
const PARITY_NAME: &str = "n1-parity";

/// Device fault axis of the scenario matrix.
#[derive(Clone, Copy)]
enum FaultMode {
    /// No device faults.
    None,
    /// Permanently crash the device running the longest-latency job of
    /// the fault-free pre-pass, halfway through that job.
    Crash,
    /// Same crash, but the device restarts after a cooldown of one
    /// fault-free makespan.
    CrashRestart,
    /// Device 0 runs the whole campaign under a latency multiplier.
    Degrade { multiplier: f64 },
}

impl FaultMode {
    fn label(&self) -> &'static str {
        match self {
            FaultMode::None => "none",
            FaultMode::Crash => "crash",
            FaultMode::CrashRestart => "crash-restart",
            FaultMode::Degrade { .. } => "degrade",
        }
    }
}

/// One pinned cell of the traffic × fault × policy matrix.
struct ClusterScenario {
    name: &'static str,
    devices: usize,
    shape: TrafficShape,
    jobs: usize,
    tenants: &'static [&'static str],
    fault: FaultMode,
    admission: AdmissionConfig,
    migration_enabled: bool,
    interactive_deadline_s: Option<f64>,
    expect_migrations: bool,
    expect_device_lost: bool,
    expect_shed: bool,
}

impl ClusterScenario {
    fn policy_label(&self) -> String {
        let adm = match self.admission.capacity {
            Some(cap) => format!("bounded({cap},{})", self.admission.policy.label()),
            None => "unbounded".to_string(),
        };
        let mig = if self.migration_enabled { "migrate" } else { "no-migrate" };
        format!("{adm}+{mig}")
    }
}

/// The pinned scenario matrix. Names are stable CLI/report identifiers —
/// the golden artifact and CI gate key off them, so add cells rather
/// than renaming.
fn cluster_matrix() -> Vec<ClusterScenario> {
    let unbounded = AdmissionConfig::default();
    let base = |name, fault, expect_migrations, expect_device_lost| ClusterScenario {
        name,
        devices: 2,
        shape: TrafficShape::Steady { rate_hz: 2e5 },
        jobs: 14,
        tenants: &["tenant-a", "tenant-b"],
        fault,
        admission: unbounded,
        migration_enabled: true,
        interactive_deadline_s: None,
        expect_migrations,
        expect_device_lost,
        expect_shed: false,
    };
    vec![
        base("steady-baseline", FaultMode::None, false, false),
        base("steady-crash-migrate", FaultMode::Crash, true, false),
        ClusterScenario {
            migration_enabled: false,
            expect_migrations: false,
            expect_device_lost: true,
            ..base("steady-crash-lost", FaultMode::Crash, false, true)
        },
        base("steady-restart-migrate", FaultMode::CrashRestart, true, false),
        base("steady-degrade", FaultMode::Degrade { multiplier: 4.0 }, false, false),
        ClusterScenario {
            shape: TrafficShape::Diurnal { base_hz: 1e5, peak_hz: 4e5, period_s: 1e-4 },
            jobs: 20,
            tenants: &["tenant-a", "tenant-b", "tenant-c"],
            ..base("diurnal-fair", FaultMode::None, false, false)
        },
        ClusterScenario {
            shape: TrafficShape::Diurnal { base_hz: 1e5, peak_hz: 4e5, period_s: 1e-4 },
            jobs: 16,
            tenants: &["tenant-a", "tenant-b", "tenant-c"],
            ..base("diurnal-crash-migrate", FaultMode::Crash, true, false)
        },
        ClusterScenario {
            devices: 1,
            shape: TrafficShape::Bursty { base_hz: 1e5, burst_every_s: 5e-5, burst_size: 6 },
            jobs: 18,
            admission: AdmissionConfig::bounded(3, ShedPolicy::RejectLargest),
            expect_shed: true,
            ..base("bursty-shed-largest", FaultMode::None, false, false)
        },
        ClusterScenario {
            shape: TrafficShape::Bursty { base_hz: 1e5, burst_every_s: 5e-5, burst_size: 5 },
            jobs: 16,
            ..base("bursty-restart-migrate", FaultMode::CrashRestart, true, false)
        },
        ClusterScenario {
            devices: 1,
            shape: TrafficShape::Bursty { base_hz: 1e5, burst_every_s: 5e-5, burst_size: 6 },
            jobs: 18,
            admission: AdmissionConfig::bounded(4, ShedPolicy::DeadlineAware),
            interactive_deadline_s: Some(1e-9),
            expect_shed: true,
            ..base("bursty-degrade-deadline", FaultMode::Degrade { multiplier: 8.0 }, false, false)
        },
        ClusterScenario {
            devices: 1,
            shape: TrafficShape::WorstCaseFlood { rate_hz: 4e5 },
            jobs: 16,
            admission: AdmissionConfig::bounded(2, ShedPolicy::RejectNewest),
            expect_shed: true,
            ..base("flood-shed-newest", FaultMode::None, false, false)
        },
        ClusterScenario {
            shape: TrafficShape::WorstCaseFlood { rate_hz: 2e5 },
            jobs: 10,
            ..base("flood-crash-migrate", FaultMode::Crash, true, false)
        },
    ]
}

/// Build the scenario's cluster and the aligned input copies (outcome
/// `i` is submission `i`, so the oracle can re-check every success).
fn build_cluster(
    s: &ClusterScenario,
    idx: usize,
    faults: DeviceFaultPlan,
) -> (ClusterService, Vec<Vec<u32>>) {
    let mut cfg = ClusterConfig::homogeneous(s.devices, small_rcfg());
    cfg.resilience.admission = s.admission;
    cfg.migration =
        if s.migration_enabled { MigrationConfig::default() } else { MigrationConfig::disabled() };
    cfg.faults = faults;
    let mut cluster = ClusterService::new(cfg);
    cluster.enable_telemetry();
    let gen = LoadGenConfig {
        shape: s.shape,
        jobs: s.jobs,
        tenants: s.tenants.iter().map(|t| (*t).to_string()).collect(),
        seed: BASE_SEED ^ ((idx as u64 + 1) << 16),
        interactive_deadline_s: s.interactive_deadline_s,
        ..LoadGenConfig::steady(0, 0, 1e5)
    };
    let reqs = gen.generate();
    let inputs = reqs.iter().map(|r| r.input.clone()).collect();
    for req in reqs {
        cluster.submit_request(req);
    }
    (cluster, inputs)
}

/// Concretize the scenario's fault axis. Crash modes run a fault-free
/// pre-pass and aim the crash at the midpoint of the last-completing
/// job, so the fault is guaranteed to interrupt in-flight work — the
/// whole point of the cell — while staying fully deterministic.
fn derive_faults(s: &ClusterScenario, idx: usize) -> DeviceFaultPlan {
    match s.fault {
        FaultMode::None => DeviceFaultPlan::none(),
        FaultMode::Degrade { multiplier } => DeviceFaultPlan::from_events(vec![DeviceFaultEvent {
            at_s: 0.0,
            device: 0,
            kind: DeviceFaultKind::Degrade { multiplier, duration_s: 10.0 },
        }]),
        FaultMode::Crash | FaultMode::CrashRestart => {
            let (mut pre, _) = build_cluster(s, idx, DeviceFaultPlan::none());
            let report = pre.run();
            let victim = report
                .outcomes
                .iter()
                .filter(|o| o.result.is_ok() && o.device.is_some())
                .max_by(|a, b| a.completed_s.total_cmp(&b.completed_s))
                .expect("fault-free pre-pass must verify at least one job");
            let exec_s = victim.result.as_ref().expect("filtered Ok").run.simulated_seconds;
            let kind = match s.fault {
                FaultMode::CrashRestart => {
                    DeviceFaultKind::CrashWithRestart { cooldown_s: report.clock_s.max(exec_s) }
                }
                _ => DeviceFaultKind::Crash,
            };
            DeviceFaultPlan::from_events(vec![DeviceFaultEvent {
                at_s: victim.completed_s - 0.5 * exec_s,
                device: victim.device.expect("filtered Some"),
                kind,
            }])
        }
    }
}

/// Scenario invariants: every success is the exact sorted permutation,
/// every failure is a typed error from the classes the cell provokes,
/// and the cell's expected counters actually moved.
fn check_cluster_scenario(
    s: &ClusterScenario,
    inputs: &[Vec<u32>],
    report: &ClusterReport,
    violations: &mut Vec<String>,
) {
    let mut verified = 0u64;
    for (input, o) in inputs.iter().zip(&report.outcomes) {
        match &o.result {
            Ok(run) => {
                verified += 1;
                if let Err(f) = verify_sorted_permutation(input, &run.run.output) {
                    violations.push(format!("{}/{}: UNDETECTED CORRUPTION: {f}", s.name, o.label));
                }
            }
            Err(
                SortError::Shed { .. }
                | SortError::Overloaded { .. }
                | SortError::DeadlineExceeded { .. }
                | SortError::InvalidDeadline { .. },
            ) => {}
            Err(e @ (SortError::DeviceLost { .. } | SortError::MigrationFailed { .. })) => {
                if matches!(s.fault, FaultMode::None | FaultMode::Degrade { .. }) {
                    violations.push(format!(
                        "{}/{}: device loss without a device fault: {e}",
                        s.name, o.label
                    ));
                }
            }
            Err(e) => violations.push(format!("{}/{}: untyped outcome: {e}", s.name, o.label)),
        }
    }
    if verified == 0 {
        violations.push(format!("{}: no job verified", s.name));
    }
    let c = &report.counters;
    if s.expect_migrations {
        if c.migrations == 0 {
            violations.push(format!("{}: expected checkpoint migrations, saw none", s.name));
        }
        // With failover on and a surviving compatible device, a crash
        // must never cost a job: interrupted work completes elsewhere.
        if c.device_lost + c.migrations_failed > 0 {
            violations.push(format!(
                "{}: migration enabled but {} jobs lost / {} migrations failed",
                s.name, c.device_lost, c.migrations_failed
            ));
        }
    }
    if s.expect_device_lost && c.device_lost == 0 {
        violations.push(format!("{}: expected DeviceLost outcomes, saw none", s.name));
    }
    if s.expect_shed && c.shed_overload + c.shed_largest + c.shed_deadline == 0 {
        violations.push(format!("{}: expected load shedding, saw none", s.name));
    }
}

/// Parity cell: a fault-free single-device cluster must be bit-identical
/// to [`SortService`] — outcomes, modeled clock, and counters.
fn scenario_n1_parity(violations: &mut Vec<String>) -> ClusterReport {
    let params = SortParams::new(5, 32);
    let mut svc = SortService::new(small_rcfg());
    let mut cluster =
        ClusterService::new(ClusterConfig::single(small_rcfg(), ResilienceConfig::default()));
    for (i, tiles) in [2usize, 4, 3, 8, 2, 5].iter().enumerate() {
        let n = tiles * params.tile() + i;
        let seed = BASE_SEED ^ 0xA117 ^ ((i as u64) << 8);
        let input = InputSpec::UniformRandom { seed }.generate(n);
        let algo = if i % 3 == 2 { SortAlgorithm::ThrustMergesort } else { SortAlgorithm::CfMerge };
        let label = format!("parity/job-{i}");
        svc.submit(&label, input.clone(), algo);
        cluster.submit(&label, input, algo);
    }
    let svc_out = svc.drain();
    let report = cluster.run();
    for (c, s) in report.outcomes.iter().zip(&svc_out) {
        match (&c.result, &s.result) {
            (Ok(cr), Ok(sr)) => {
                if cr.run.output != sr.run.output
                    || cr.run.simulated_seconds != sr.run.simulated_seconds
                {
                    violations
                        .push(format!("{PARITY_NAME}/{}: run diverged from SortService", c.label));
                }
            }
            (Err(ce), Err(se)) if ce.to_string() == se.to_string() => {}
            _ => violations.push(format!("{PARITY_NAME}/{}: outcome class diverged", c.label)),
        }
    }
    if report.clock_s != svc.clock_s() {
        violations.push(format!(
            "{PARITY_NAME}: modeled clock diverged: cluster {} vs service {}",
            report.clock_s,
            svc.clock_s()
        ));
    }
    if report.counters != *svc.counters() {
        violations.push(format!(
            "{PARITY_NAME}: counters diverged:\n  cluster: {:?}\n  service: {:?}",
            report.counters,
            svc.counters()
        ));
    }
    report
}

fn run_cluster(only: Option<&str>) -> bool {
    let matrix = cluster_matrix();
    if let Some(name) = only {
        if name != PARITY_NAME && !matrix.iter().any(|s| s.name == name) {
            eprintln!("unknown cluster scenario `{name}`; `chaos cluster --list` names them");
            return false;
        }
    }
    let mut violations: Vec<String> = Vec::new();
    let mut art = RunArtifact::new("cluster", device());
    let mut totals = ServiceCounters::default();
    let mut telemetry = MetricsSnapshot::default();
    let mut rows = Vec::new();
    let mut ran_any = false;

    for (idx, s) in matrix.iter().enumerate() {
        if only.is_some_and(|o| o != s.name) {
            continue;
        }
        ran_any = true;
        let faults = derive_faults(s, idx);
        let (mut cluster, inputs) = build_cluster(s, idx, faults);
        let report = cluster.run();
        check_cluster_scenario(s, &inputs, &report, &mut violations);
        add_cluster_summaries(&mut art, s.name, &report);
        totals.merge(&report.counters);
        if let Some(snap) = &report.telemetry {
            telemetry =
                telemetry.merged(&snap.with_prefix(&format!("{}_", s.name.replace('-', "_"))));
        }
        let all = report.tenant_slos.last().expect("`all` row is always appended");
        rows.push(vec![
            s.name.to_string(),
            format!("{}", s.devices),
            format!("{}", report.outcomes.len()),
            format!("{}", all.verified),
            format!("{}", report.counters.migrations),
            format!("{}", report.counters.device_lost),
            format!(
                "{}",
                report.counters.shed_overload
                    + report.counters.shed_largest
                    + report.counters.shed_deadline
            ),
            format!("{:.3e}", all.p99_s),
            format!("{:.3e}", report.clock_s),
        ]);
    }
    if only.is_none() || only == Some(PARITY_NAME) {
        ran_any = true;
        let report = scenario_n1_parity(&mut violations);
        add_cluster_summaries(&mut art, PARITY_NAME, &report);
        totals.merge(&report.counters);
        let all = report.tenant_slos.last().expect("`all` row is always appended");
        rows.push(vec![
            PARITY_NAME.to_string(),
            "1".into(),
            format!("{}", report.outcomes.len()),
            format!("{}", all.verified),
            "0".into(),
            "0".into(),
            "0".into(),
            format!("{:.3e}", all.p99_s),
            format!("{:.3e}", report.clock_s),
        ]);
    }
    if !ran_any {
        eprintln!("no cluster scenario matched");
        return false;
    }

    println!(
        "\ncluster chaos matrix:\n{}",
        format_table(
            &["scenario", "dev", "jobs", "verified", "migr", "lost", "shed", "p99 s", "clock s"],
            &rows
        )
    );

    if only.is_none() {
        art.add_summary("scenarios", Json::from(rows.len()));
        art.add_summary("service", totals.to_json());
        art.add_summary("violations", Json::from(violations.len()));
        art.telemetry = Some(telemetry);
        artifact::emit(&art);
    } else {
        println!("(--only run: skipping results/cluster.json so the pinned matrix stays intact)");
    }

    if violations.is_empty() {
        println!(
            "\nOK: every cluster job was verified-sorted, typed-shed, or typed device-lost; \
             every crash with failover enabled completed via checkpoint migration."
        );
        true
    } else {
        for v in &violations {
            eprintln!("FAIL: {v}");
        }
        false
    }
}

/// Per-scenario artifact summaries: the `all` SLO row plus the makespan
/// and failover price — the numbers the perf gate pins.
fn add_cluster_summaries(art: &mut RunArtifact, name: &str, report: &ClusterReport) {
    let all = report.tenant_slos.last().expect("`all` row is always appended");
    art.add_summary(
        &format!("{}_slo", name.replace('-', "_")),
        Json::obj([
            ("verified", Json::from(all.verified)),
            ("p50_s", Json::from(all.p50_s)),
            ("p99_s", Json::from(all.p99_s)),
            ("p999_s", Json::from(all.p999_s)),
            ("clock_s", Json::from(report.clock_s)),
            ("lost_work_s", Json::from(report.lost_work_s)),
            ("migration_s", Json::from(report.migration_s)),
        ]),
    );
}
