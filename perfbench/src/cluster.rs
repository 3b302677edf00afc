//! The cluster workload: a two-device tuned `ClusterService` serving 100
//! CF-Merge jobs on an open-loop modeled-time schedule, with one device
//! crash-and-restart in the middle of the arrival window.

use crate::layers::{
    end_to_end, modeled_sorts, per_layer, trace_sorts, ClusterLayers, EndToEnd, SetupLayers,
    SortJob,
};
use crate::report::{median, oracle, peak_rss_mib, Outcome};
use crate::spans::Spans;
use crate::Args;
use cfmerge_core::cert::build_certificate_table;
use cfmerge_core::params::SortParams;
use cfmerge_core::recovery::RobustConfig;
use cfmerge_core::resilience::{
    ClusterConfig, ClusterReport, ClusterService, DeviceFaultEvent, DeviceFaultKind,
    DeviceFaultPlan, LoadGenConfig, ServiceCounters, TrafficShape,
};
use cfmerge_core::sort::SortConfig;
use cfmerge_core::tuning::{build_tuning_table, TuningPolicy};
use std::time::Instant;

/// Jobs per run.
const JOBS: usize = 100;
/// Modeled arrival rate, below the two devices' modeled capacity.
const RATE_HZ: f64 = 5_000.0;
/// Set-up samples at least (one per timed batch); the median is reported.
const MIN_SETUPS: usize = 5;

/// Load-generator seed of batch `j`: the seed itself for batch 0, then a
/// golden-ratio stride per batch.
fn batch_seed(seed: u64, j: u64) -> u64 {
    seed.wrapping_add(j.wrapping_mul(0x9E37_79B9_7F4A_7C15))
}

/// A cluster ready to run, with what building it took.
struct Setup {
    service: ClusterService,
    inputs: Vec<Vec<u32>>,
    total_s: f64,
    layers: SetupLayers,
}

fn setup(seed: u64) -> Setup {
    let t0 = Instant::now();
    let cert = build_certificate_table();
    let t1 = Instant::now();
    let table = build_tuning_table(&cert);
    let t2 = Instant::now();
    let ladder_rungs = table.ladders.iter().map(|l| l.rungs.len() as u64).sum();

    let requests = LoadGenConfig {
        shape: TrafficShape::Steady { rate_hz: RATE_HZ },
        jobs: JOBS,
        seed,
        params: SortParams::e15_u512(),
        min_tiles: 1,
        max_tiles: 4,
        ..LoadGenConfig::steady(seed, JOBS, RATE_HZ)
    }
    .generate();
    let mut config = ClusterConfig::homogeneous(2, RobustConfig::new(SortConfig::paper_e15_u512()));
    config.faults = DeviceFaultPlan::from_events(vec![DeviceFaultEvent {
        at_s: 0.010,
        device: 1,
        kind: DeviceFaultKind::CrashWithRestart { cooldown_s: 0.001 },
    }]);
    let mut service = ClusterService::new(config);
    service.enable_telemetry();
    service.enable_tuning(table, TuningPolicy::default()).expect("a freshly built table verifies");
    let mut inputs = Vec::with_capacity(JOBS);
    for r in requests {
        inputs.push(r.input.clone());
        service.submit_request(r);
    }
    Setup {
        service,
        inputs,
        total_s: t0.elapsed().as_secs_f64(),
        layers: SetupLayers {
            cert_build_s: (t1 - t0).as_secs_f64(),
            tuning_build_s: (t2 - t1).as_secs_f64(),
            ladder_rungs,
            ..SetupLayers::default()
        },
    }
}

/// Check every outcome: `Ok`, and the output is the sorted input.
fn check_report(out: &mut Outcome, report: &ClusterReport, expected: &[Vec<u32>]) {
    out.check(report.outcomes.len() == expected.len(), || {
        format!("{} outcomes for {} jobs", report.outcomes.len(), expected.len())
    });
    for (o, want) in report.outcomes.iter().zip(expected) {
        match &o.result {
            Ok(run) => out.check(run.run.output == *want, || format!("{}: wrong output", o.label)),
            Err(e) => out.check(false, || format!("{}: {e}", o.label)),
        }
    }
}

/// Replay jobs: each input at the parameters its job ran on.
fn jobs_of(
    tuned: &[Option<SortParams>],
    inputs: Vec<Vec<u32>>,
    expected: Vec<Vec<u32>>,
) -> Vec<SortJob> {
    let base = SortConfig::paper_e15_u512();
    tuned
        .iter()
        .zip(inputs.into_iter().zip(expected))
        .map(|(t, (input, expected))| {
            let config = SortConfig { params: t.unwrap_or(base.params), ..base.clone() };
            SortJob { input, config, expected }
        })
        .collect()
}

/// What is kept of a report once its outputs are checked.
#[derive(Debug)]
struct Summary {
    clock_s: f64,
    exec_s: Vec<f64>,
    latency_s: Vec<f64>,
    tuned: Vec<Option<SortParams>>,
    counters: ServiceCounters,
}

impl Summary {
    fn of(report: &ClusterReport) -> Self {
        let o = &report.outcomes;
        Self {
            clock_s: report.clock_s,
            exec_s: o
                .iter()
                .map(|o| o.result.as_ref().map_or(0.0, |r| r.run.simulated_seconds))
                .collect(),
            latency_s: o.iter().map(|o| o.latency_s()).collect(),
            tuned: o.iter().map(|o| o.tuned).collect(),
            counters: report.counters,
        }
    }
}

/// Run the cluster workload.
pub fn run(args: &Args) -> (Outcome, Spans) {
    let mut out = Outcome::default();
    out.lines.push(format!(
        "cluster: 2 devices, {JOBS} CF-Merge jobs of 1-4 tiles (E=15, u=512), open loop at \
         {RATE_HZ} jobs/s modeled, crash+restart on device 1 at 10 ms (1 ms cooldown), seed={}",
        args.seed
    ));

    if args.trace {
        let mut s = setup(args.seed);
        let t0 = Instant::now();
        let report = s.service.run();
        let run_host_s = t0.elapsed().as_secs_f64();
        let sum = Summary::of(&report);
        let expected: Vec<Vec<u32>> = s.inputs.iter().map(|i| oracle(i)).collect();
        check_report(&mut out, &report, &expected);
        let jobs = jobs_of(&sum.tuned, std::mem::take(&mut s.inputs), expected);
        let traced = trace_sorts(&jobs, &mut out);
        let c = &sum.counters;
        let layers = ClusterLayers {
            run_host_s,
            queue_wait_s: sum.latency_s.iter().zip(&sum.exec_s).map(|(l, x)| l - x).collect(),
            device_busy_ratio: sum.exec_s.iter().sum::<f64>()
                / (report.per_device.len() as f64 * sum.clock_s),
            steals: c.steals,
            migrations: c.migrations,
            crashes: c.device_crashes,
            shed: c.shed_overload + c.shed_largest + c.shed_deadline,
            tuned_jobs: c.tuned_jobs,
            lost_work_s: report.lost_work_s,
            checkpoints: c.checkpoints_taken,
            retries: report
                .outcomes
                .iter()
                .filter_map(|o| o.result.as_ref().ok())
                .map(|r| r.report.counters.retries)
                .sum(),
        };
        out.metrics = per_layer(&traced, &s.layers, &layers);
        return (out, traced.spans);
    }

    // Each timed batch is the same scenario on its own job stream. Host
    // time per key depends on a stream's job sizes (each job pads to a
    // power-of-two tile count), so the median over several streams keeps
    // the host metric steady from seed to seed. The modeled metrics come
    // from batch 0 alone, so they do not depend on how many batches the
    // host ran in the time given.
    let start = Instant::now();
    let mut setup_s = Vec::new();
    let mut rates = Vec::new();
    let mut first: Option<(Summary, Vec<SortJob>)> = None;
    while rates.is_empty() || start.elapsed().as_secs_f64() < args.seconds {
        let mut s = setup(batch_seed(args.seed, rates.len() as u64));
        setup_s.push(s.total_s);
        let keys: usize = s.inputs.iter().map(Vec::len).sum();
        let t0 = Instant::now();
        let report = s.service.run();
        rates.push(keys as f64 / t0.elapsed().as_secs_f64());
        let expected: Vec<Vec<u32>> = s.inputs.iter().map(|i| oracle(i)).collect();
        check_report(&mut out, &report, &expected);
        if first.is_none() {
            let sum = Summary::of(&report);
            let jobs = jobs_of(&sum.tuned, s.inputs, expected);
            first = Some((sum, jobs));
        }
    }
    while setup_s.len() < MIN_SETUPS {
        setup_s.push(setup(batch_seed(args.seed, setup_s.len() as u64)).total_s);
    }
    let (sum, jobs) = first.expect("at least one batch ran");
    let c = &sum.counters;
    out.lines.push(format!(
        "host keys/s of {} timed batches: {rates:.0?}; batch 0: {} crash, {} restart, \
         {} migration, {} steals, {} shed, {} failed",
        rates.len(),
        c.device_crashes,
        c.device_restarts,
        c.migrations,
        c.steals,
        c.shed_overload + c.shed_largest + c.shed_deadline,
        c.failed
    ));
    let modeled = modeled_sorts(&jobs, &mut out);
    out.metrics = end_to_end(&EndToEnd {
        host_keys_per_s: median(&rates),
        setup_s: median(&setup_s),
        peak_rss_mb: peak_rss_mib().unwrap_or(0.0),
        modeled: [modeled[0].elems_per_us(), modeled[1].elems_per_us()],
        job_latency_s: sum.latency_s,
    });
    (out, Spans::default())
}
