//! The sorts a workload performs, measured layer by layer, and the
//! metric tables built from them.

use crate::replay::{replay_sort, same_program};
use crate::report::{metric, nearest_rank, oracle, Metric, Outcome};
use crate::spans::{Span, Spans};
use cfmerge_core::metrics::elements_per_us;
use cfmerge_core::recovery::{simulate_sort_robust, RobustConfig};
use cfmerge_core::sort::{simulate_sort, SortAlgorithm, SortConfig, SortRun};
use cfmerge_gpu_sim::fault::FaultPlan;
use cfmerge_gpu_sim::profiler::{KernelProfile, PhaseClass};

/// Both pipelines, in metric order.
pub const ALGOS: [SortAlgorithm; 2] = [SortAlgorithm::ThrustMergesort, SortAlgorithm::CfMerge];

/// Phase classes reported per pipeline.
const PHASES: [PhaseClass; 6] = [
    PhaseClass::LoadTile,
    PhaseClass::Search,
    PhaseClass::Merge,
    PhaseClass::Gather,
    PhaseClass::Sort,
    PhaseClass::StoreTile,
];

/// One sort of the workload: its input, configuration, and oracle.
#[derive(Debug)]
pub struct SortJob {
    /// Keys to sort.
    pub input: Vec<u32>,
    /// Configuration both pipelines run it under.
    pub config: SortConfig,
    /// `input` sorted by `std`.
    pub expected: Vec<u32>,
}

impl SortJob {
    /// A job with its oracle computed.
    #[must_use]
    pub fn new(input: Vec<u32>, config: SortConfig) -> Self {
        let expected = oracle(&input);
        Self { input, config, expected }
    }
}

/// Check a pipeline's output against the oracle and, for CF-Merge, the
/// paper's claim of zero merge/gather bank conflicts.
pub fn check_run(out: &mut Outcome, what: &str, job: &SortJob, algo: SortAlgorithm, run: &SortRun) {
    out.check(run.output == job.expected, || format!("{what}: output is not the sorted input"));
    if algo == SortAlgorithm::CfMerge {
        let conflicts = run.profile.merge_bank_conflicts();
        out.check(conflicts == 0, || format!("{what}: CF-Merge had {conflicts} merge conflicts"));
    }
}

/// Modeled totals of one pipeline over a workload's sorts.
#[derive(Debug, Clone, Default)]
pub struct Modeled {
    /// Input keys sorted.
    pub keys: usize,
    /// Modeled seconds, all launches.
    pub seconds: f64,
    /// Sum of every launch's profile.
    pub profile: KernelProfile,
    /// Σ shared, global, latency, ALU and launch components of modeled time.
    pub parts: [f64; 5],
    /// Modeled seconds of block-sort launches.
    pub blocksort_s: f64,
    /// Modeled seconds of merge-pass launches.
    pub merge_pass_s: f64,
    /// Merge-pass launches.
    pub merge_passes: u64,
    /// Padded keys through block sort.
    pub blocksort_keys: u64,
    /// Padded keys through merge passes (one count per pass).
    pub merge_pass_keys: u64,
}

impl Modeled {
    /// Fold one run in.
    pub fn add(&mut self, run: &SortRun, config: &SortConfig) {
        let tile = config.params.tile() as u64;
        self.keys += run.n;
        self.seconds += run.simulated_seconds;
        self.profile.merge(&run.profile);
        for k in &run.kernels {
            let t = &k.time;
            for (acc, v) in self.parts.iter_mut().zip([
                t.shared_s,
                t.global_s,
                t.latency_s,
                t.alu_s,
                t.launch_s,
            ]) {
                *acc += v;
            }
            if k.name == "blocksort" {
                self.blocksort_s += t.seconds;
                self.blocksort_keys += k.blocks * tile;
            } else {
                self.merge_pass_s += t.seconds;
                self.merge_passes += 1;
                self.merge_pass_keys += k.blocks * tile;
            }
        }
    }

    /// Modeled throughput in elements/µs (Figures 5 and 6); 0 before any run.
    #[must_use]
    pub fn elems_per_us(&self) -> f64 {
        elements_per_us(self.keys, self.seconds).unwrap_or(0.0)
    }
}

/// Modeled totals of both pipelines over `jobs` via `simulate_sort`,
/// every output checked.
pub fn modeled_sorts(jobs: &[SortJob], out: &mut Outcome) -> [Modeled; 2] {
    let mut modeled: [Modeled; 2] = Default::default();
    for (i, job) in jobs.iter().enumerate() {
        for (m, algo) in modeled.iter_mut().zip(ALGOS) {
            let run = simulate_sort(&job.input, algo, &job.config);
            check_run(out, &format!("job {i} {}", algo.label()), job, algo, &run);
            m.add(&run, &job.config);
        }
    }
    modeled
}

/// Result of the traced pass over a workload's sorts.
#[derive(Debug, Default)]
pub struct Traced {
    /// Every host-time span.
    pub spans: Spans,
    /// Modeled totals per pipeline.
    pub modeled: [Modeled; 2],
    /// Block retries the robust sort needed.
    pub robust_retries: u64,
}

/// Run every job on both pipelines four ways: `simulate_sort`, the
/// replay with counting on and then off, and `simulate_sort_robust`.
/// Checks each output against the oracle and the counting-on replay
/// against `simulate_sort` bit for bit.
pub fn trace_sorts(jobs: &[SortJob], out: &mut Outcome) -> Traced {
    let mut t = Traced::default();
    for (i, job) in jobs.iter().enumerate() {
        for (a, algo) in ALGOS.into_iter().enumerate() {
            let label = algo.label();
            let op = (i * ALGOS.len() + a) as u64;
            let what = format!("job {i} {label}");

            let id = t.spans.open("simulate_sort", label, true, None, op);
            let run = simulate_sort(&job.input, algo, &job.config);
            t.spans.close(id);
            check_run(out, &what, job, algo, &run);
            t.modeled[a].add(&run, &job.config);

            let id = t.spans.open("replay", label, true, None, op);
            let replay = replay_sort(&job.input, algo, &job.config, &mut t.spans, id, op);
            t.spans.close(id);
            let same = same_program(&replay, &run);
            out.check(same.is_ok(), || format!("{what}: replay is not simulate_sort: {same:?}"));

            let off = SortConfig { count_accesses: false, ..job.config.clone() };
            let id = t.spans.open("replay", label, false, None, op);
            let replay = replay_sort(&job.input, algo, &off, &mut t.spans, id, op);
            t.spans.close(id);
            out.check(replay.output == job.expected, || format!("{what}: counting-off replay"));

            let robust_cfg = RobustConfig::new(job.config.clone());
            let id = t.spans.open("simulate_sort_robust", label, true, None, op);
            let robust = simulate_sort_robust(&job.input, algo, &robust_cfg, &FaultPlan::none());
            t.spans.close(id);
            match robust {
                Ok(r) => {
                    out.check(r.run.output == job.expected, || format!("{what}: robust output"));
                    t.robust_retries += r.report.counters.retries;
                }
                Err(e) => out.check(false, || format!("{what}: robust sort failed: {e}")),
            }
        }
    }
    t
}

/// Inputs to the end-to-end table.
#[derive(Debug, Clone, Default)]
pub struct EndToEnd {
    /// Median input keys sorted per host second over the timed iterations.
    pub host_keys_per_s: f64,
    /// Median set-up seconds.
    pub setup_s: f64,
    /// Peak resident set, MiB.
    pub peak_rss_mb: f64,
    /// Modeled throughput per pipeline (Thrust, CF-Merge).
    pub modeled: [f64; 2],
    /// Modeled latency of each CF-Merge job, seconds.
    pub job_latency_s: Vec<f64>,
}

/// The end-to-end metrics, in `BENCHMARK.json` order.
#[must_use]
pub fn end_to_end(e: &EndToEnd) -> Vec<Metric> {
    let lat = if e.job_latency_s.is_empty() { vec![0.0] } else { e.job_latency_s.clone() };
    let mut m = vec![
        metric("host_keys_per_s", "keys/s", e.host_keys_per_s),
        metric("setup_s", "s", e.setup_s),
        metric("peak_rss_mb", "MiB", e.peak_rss_mb),
    ];
    for (algo, v) in ALGOS.iter().zip(e.modeled) {
        m.push(metric(format!("modeled_elems_per_us.{}", algo.label()), "elem/us", v));
    }
    m.push(metric("modeled_job_p50_s", "modeled_s", nearest_rank(&lat, 0.5)));
    m.push(metric("modeled_job_p90_s", "modeled_s", nearest_rank(&lat, 0.9)));
    m
}

/// Layer measurements taken during set-up (zero where the workload does
/// not run the layer).
#[derive(Debug, Clone, Copy, Default)]
pub struct SetupLayers {
    /// Median host seconds of the Section-4 worst-case construction.
    pub worst_case_build_s: f64,
    /// Host seconds of one `build_certificate_table` call.
    pub cert_build_s: f64,
    /// Host seconds of one `build_tuning_table` call.
    pub tuning_build_s: f64,
    /// Rungs across every tuning ladder.
    pub ladder_rungs: u64,
}

/// Cluster-layer measurements (zero on workloads without a cluster).
#[derive(Debug, Clone, Default)]
pub struct ClusterLayers {
    /// Host seconds of `ClusterService::run`.
    pub run_host_s: f64,
    /// Modeled queue wait of each job (latency minus execution).
    pub queue_wait_s: Vec<f64>,
    /// Σ job execution ÷ (devices × makespan), modeled.
    pub device_busy_ratio: f64,
    /// Jobs stolen by an idle device.
    pub steals: u64,
    /// Checkpoint migrations.
    pub migrations: u64,
    /// Device crashes.
    pub crashes: u64,
    /// Jobs shed by admission.
    pub shed: u64,
    /// Jobs whose launch configuration came from a tuning ladder.
    pub tuned_jobs: u64,
    /// Modeled device-seconds lost at crash instants.
    pub lost_work_s: f64,
    /// Checkpoints captured.
    pub checkpoints: u64,
    /// Block retries across the cluster's jobs.
    pub retries: u64,
}

fn host(spans: &Spans, name: &str, counting: bool) -> (f64, u64) {
    spans.total(|s: &Span| s.name == name && s.counting == counting)
}

fn ratio(a: f64, b: f64) -> f64 {
    if b == 0.0 {
        0.0
    } else {
        a / b
    }
}

/// The per-layer metrics, in `BENCHMARK.json` order. Every workload
/// prints every metric; a layer the workload does not run reads 0.
#[must_use]
pub fn per_layer(t: &Traced, setup: &SetupLayers, c: &ClusterLayers) -> Vec<Metric> {
    let mut m = Vec::new();
    let kernel_on = host(&t.spans, "blocksort", true).0 + host(&t.spans, "merge_pass", true).0;
    let kernel_off = host(&t.spans, "blocksort", false).0 + host(&t.spans, "merge_pass", false).0;
    let accounting_s = kernel_on - kernel_off;
    let mut requests = 0u64;

    for (algo, md) in ALGOS.iter().zip(&t.modeled) {
        let l = algo.label();
        let total = md.profile.total();
        requests += total.shared_requests();
        m.push(metric(
            format!("banks.shared_requests.{l}"),
            "count",
            total.shared_requests() as f64,
        ));
        m.push(metric(
            format!("banks.shared_transactions.{l}"),
            "count",
            total.shared_transactions() as f64,
        ));
        m.push(metric(
            format!("banks.replay_ratio.{l}"),
            "ratio",
            ratio(total.shared_transactions() as f64, total.shared_requests() as f64),
        ));
        m.push(metric(
            format!("banks.merge_conflicts_per_round.{l}"),
            "conflicts/round",
            md.profile.merge_degree_hist.mean_conflicts_per_round(),
        ));
    }
    m.push(metric("banks.accounting_host_s", "s", accounting_s));
    m.push(metric("banks.host_ns_per_request", "ns", ratio(accounting_s * 1e9, requests as f64)));

    for (algo, md) in ALGOS.iter().zip(&t.modeled) {
        let l = algo.label();
        for (part, v) in ["shared", "global", "latency", "alu", "launch"].iter().zip(md.parts) {
            m.push(metric(format!("timing.{part}_s.{l}"), "modeled_s", v));
        }
        let total = md.profile.total();
        let global_requests = total.global_ld_requests + total.global_st_requests;
        m.push(metric(
            format!("global.sectors_per_request.{l}"),
            "ratio",
            ratio(total.global_sectors() as f64, global_requests as f64),
        ));
        for class in PHASES {
            m.push(metric(
                format!("phase.{}.shared_transactions.{l}", class.label()),
                "count",
                md.profile.phase(class).shared_transactions() as f64,
            ));
        }
    }

    let sum = |f: fn(&Modeled) -> f64| t.modeled.iter().map(f).sum::<f64>();
    let (bs_s, bs_n) = host(&t.spans, "blocksort", true);
    m.push(metric("blocksort.calls", "count", bs_n as f64));
    m.push(metric("blocksort.host_s", "s", bs_s));
    m.push(metric(
        "blocksort.host_ns_per_key",
        "ns/key",
        ratio(bs_s * 1e9, sum(|x| x.blocksort_keys as f64)),
    ));
    m.push(metric("blocksort.modeled_s", "modeled_s", sum(|x| x.blocksort_s)));

    let (mp_s, mp_n) = host(&t.spans, "merge_pass", true);
    m.push(metric("merge_pass.passes", "count", sum(|x| x.merge_passes as f64)));
    m.push(metric("merge_pass.calls", "count", mp_n as f64));
    m.push(metric("merge_pass.host_s", "s", mp_s));
    m.push(metric(
        "merge_pass.host_ns_per_key",
        "ns/key",
        ratio(mp_s * 1e9, sum(|x| x.merge_pass_keys as f64)),
    ));
    m.push(metric("merge_pass.modeled_s", "modeled_s", sum(|x| x.merge_pass_s)));

    let (pt_s, pt_n) = host(&t.spans, "partition", true);
    m.push(metric("partition.calls", "count", pt_n as f64));
    m.push(metric("partition.host_s", "s", pt_s));

    let sim_s = host(&t.spans, "simulate_sort", true).0;
    m.push(metric("pipeline.wall_s", "s", sim_s));
    m.push(metric("pipeline.kernel_to_wall_ratio", "ratio", ratio(kernel_on + pt_s, sim_s)));

    m.push(metric("worst_case.build_s", "s", setup.worst_case_build_s));

    let robust_s = host(&t.spans, "simulate_sort_robust", true).0;
    m.push(metric("recovery.overhead_ratio", "ratio", ratio(robust_s, sim_s)));
    m.push(metric("recovery.checkpoints", "count", c.checkpoints as f64));
    m.push(metric("recovery.retries", "count", (t.robust_retries + c.retries) as f64));

    // The cluster ran CF-Merge only: its own work is the CF robust replay.
    let cf_robust_s = t
        .spans
        .total(|s| s.name == "simulate_sort_robust" && s.algo == SortAlgorithm::CfMerge.label())
        .0;
    let cluster_overhead_s = if c.run_host_s > 0.0 { c.run_host_s - cf_robust_s } else { 0.0 };
    let waits = if c.queue_wait_s.is_empty() { vec![0.0] } else { c.queue_wait_s.clone() };
    m.push(metric("cluster.run_host_s", "s", c.run_host_s));
    m.push(metric("cluster.overhead_host_s", "s", cluster_overhead_s));
    m.push(metric("cluster.queue_wait_p50_s", "modeled_s", nearest_rank(&waits, 0.5)));
    m.push(metric("cluster.queue_wait_p90_s", "modeled_s", nearest_rank(&waits, 0.9)));
    m.push(metric("cluster.device_busy_ratio", "ratio", c.device_busy_ratio));
    m.push(metric("cluster.steals", "count", c.steals as f64));
    m.push(metric("cluster.migrations", "count", c.migrations as f64));
    m.push(metric("cluster.crashes", "count", c.crashes as f64));
    m.push(metric("cluster.shed", "count", c.shed as f64));
    m.push(metric("cluster.tuned_jobs", "count", c.tuned_jobs as f64));
    m.push(metric("cluster.lost_work_s", "modeled_s", c.lost_work_s));

    m.push(metric("cert.build_s", "s", setup.cert_build_s));
    m.push(metric("tuning.build_s", "s", setup.tuning_build_s));
    m.push(metric("tuning.ladder_rungs", "count", setup.ladder_rungs as f64));

    m.push(metric(
        "modeled.cf_speedup",
        "ratio",
        ratio(t.modeled[0].seconds, t.modeled[1].seconds),
    ));
    let replay_s = host(&t.spans, "replay", true).0;
    m.push(metric("trace.overhead_ratio", "ratio", ratio(replay_s, sim_s)));
    m
}
