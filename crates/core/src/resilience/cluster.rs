//! The multi-device cluster service: a deterministic discrete-event
//! simulation of N sort devices behind one front door.
//!
//! [`ClusterService`] drives one device executor per simulated device
//! (possibly heterogeneous) — the same executor that sits behind
//! [`SortService`]'s queue, with its own breakers, retry budget, tuning
//! ladder, and modeled clock — over modeled time, with the
//! [`EventQueue`] as the single ordering authority. Jobs arrive on an
//! open-loop schedule (see [`crate::resilience::loadgen`]) and pass the
//! shared admission decision ([`crate::resilience::admission`]) at
//! arrival, against the cluster-wide in-flight count and with every
//! queued fresh job sheddable. They shard to a home device by tenant
//! hash and are dispatched by `(priority class, per-tenant served
//! seconds, job id)` — idle devices steal from the longest queue.
//!
//! Device-level fault domains ([`crate::resilience::faultdomain`]) layer
//! whole-device crashes, crash-with-restart, and degrade windows on top
//! of the block-granular fault injection. A job interrupted by a crash
//! migrates to a surviving compatible device from its last usable
//! checkpoint (the checksum-validated [`SortCheckpoint`] path);
//! migrations are priced in modeled time and tallied in
//! [`ServiceCounters`]. When migration is off or impossible, the job
//! fails with a typed [`SortError::DeviceLost`] /
//! [`SortError::MigrationFailed`] — never silent corruption.
//!
//! **Parity invariant** (asserted by unit tests and
//! `tests/cluster_determinism.rs`): with device faults off, one device,
//! all arrivals at `t = 0`, and one tenant/priority class, the cluster
//! reproduces [`SortService`] bit for bit — same outcomes, same modeled
//! clock, same counters — under any admission policy.
//!
//! **Modeling notes** (honest imperfections, also in
//! `docs/ROBUSTNESS.md`): the crash-interruption decision probes the
//! job against the device's *baseline* profile — a run whose real
//! execution is altered by budget caps or breaker quarantine is charged
//! as if the baseline run happened; a resume's deadline is checked on
//! total execution seconds without the degrade multiplier; and
//! `lost_work_s` counts all device-seconds between dispatch and crash,
//! including progress later salvaged from a checkpoint.
//!
//! [`SortService`]: crate::resilience::service::SortService

use cfmerge_gpu_sim::fault::FaultPlan;
use cfmerge_json::{Json, ToJson};

use crate::params::SortParams;
use crate::recovery::{
    resume_sort_robust, simulate_sort_robust_checkpointed, RobustConfig, RobustSortRun,
};
use crate::resilience::admission::{self, AdmissionConfig};
use crate::resilience::checkpoint::{CheckpointPolicy, SortCheckpoint};
use crate::resilience::device::{verify_table, Device, QueuedJob, Work};
use crate::resilience::faultdomain::{DeviceFaultPlan, DeviceTimeline};
use crate::resilience::loadgen::{ClusterRequest, Priority};
use crate::resilience::scheduler::EventQueue;
use crate::resilience::service::{JobId, ResilienceConfig, ServiceCounters};
use crate::sort::pipeline::SortAlgorithm;
use crate::sort::SortError;
use crate::telemetry::{MetricsRegistry, MetricsSnapshot};
use crate::tuning::{TuningPolicy, TuningTable};

/// Handle to a job submitted to a [`ClusterService`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct ClusterJobId(u64);

impl std::fmt::Display for ClusterJobId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "cjob-{}", self.0)
    }
}

/// Checkpoint-migration failover policy.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MigrationConfig {
    /// Whether interrupted jobs migrate at all; off, a whole-device
    /// crash turns the running job into [`SortError::DeviceLost`].
    pub enabled: bool,
    /// Migrations permitted per job before it fails with
    /// [`SortError::MigrationFailed`] (a crash-looping job must not
    /// bounce forever).
    pub max_migrations: u32,
    /// Fixed modeled cost of one migration (checkpoint transfer setup).
    pub fixed_s: f64,
    /// Per-key modeled cost of one migration (checkpoint payload).
    pub per_key_s: f64,
}

impl Default for MigrationConfig {
    fn default() -> Self {
        Self { enabled: true, max_migrations: 4, fixed_s: 5e-6, per_key_s: 1e-9 }
    }
}

impl MigrationConfig {
    /// Failover off: crashed devices take their running job with them.
    #[must_use]
    pub fn disabled() -> Self {
        Self { enabled: false, ..Self::default() }
    }
}

/// Full cluster configuration: the device fleet, the cluster-level
/// resilience policy, the failover policy, and the device fault plan.
#[derive(Debug, Clone)]
pub struct ClusterConfig {
    /// One robust-driver configuration per device (index = device id).
    pub devices: Vec<RobustConfig>,
    /// Cluster-level admission plus per-device breaker/budget policy.
    pub resilience: ResilienceConfig,
    /// Checkpoint-migration failover policy.
    pub migration: MigrationConfig,
    /// Device-level fault schedule.
    pub faults: DeviceFaultPlan,
}

impl ClusterConfig {
    /// `n` identical devices running `device`, everything else default
    /// (unbounded admission, migration on, no faults).
    #[must_use]
    pub fn homogeneous(n: usize, device: RobustConfig) -> Self {
        Self {
            devices: vec![device; n],
            resilience: ResilienceConfig::default(),
            migration: MigrationConfig::default(),
            faults: DeviceFaultPlan::none(),
        }
    }

    /// A single-device cluster under an explicit resilience policy (the
    /// parity configuration against [`SortService`]).
    ///
    /// [`SortService`]: crate::resilience::service::SortService
    #[must_use]
    pub fn single(device: RobustConfig, resilience: ResilienceConfig) -> Self {
        Self { resilience, ..Self::homogeneous(1, device) }
    }
}

/// A cluster job: the shared queued-job record plus what only the
/// cluster tracks.
#[derive(Debug)]
struct ClusterJob {
    id: ClusterJobId,
    tenant: String,
    priority: Priority,
    arrival_s: f64,
    /// Checkpoint migrations survived so far.
    migrations: u32,
    cancelled: bool,
    job: QueuedJob,
}

/// One simulated device: its executor, compiled fault timeline, and
/// local queue.
struct DeviceSlot {
    device: Device,
    timeline: DeviceTimeline,
    queue: Vec<ClusterJob>,
    up: bool,
    busy: bool,
}

impl DeviceSlot {
    /// Whether `job` may run on this device. Fresh jobs run anywhere;
    /// a checkpoint is pinned to its `(E, u)` launch configuration.
    fn compatible(&self, job: &QueuedJob) -> bool {
        match &job.work {
            Work::Fresh { .. } => true,
            Work::Resume { checkpoint } => {
                let params = self.device.config().base.params;
                params.e == checkpoint.e && params.u == checkpoint.u
            }
        }
    }
}

/// Everything the event loop reacts to.
enum ClusterEvent {
    /// A submitted job reaches the front door.
    Arrival(Box<ClusterJob>),
    /// Device goes down (permanently or until its restart event).
    Crash(usize),
    /// Device rejoins after a crash-with-restart cooldown.
    Restart(usize),
    /// The job occupying the device finishes.
    Completion(usize),
    /// A migrated checkpoint lands in the target device's queue.
    MigrationReady { device: usize, job: Box<ClusterJob> },
}

/// How one cluster job ended.
#[derive(Debug)]
pub struct ClusterOutcome {
    /// The job's handle.
    pub id: ClusterJobId,
    /// The label it was submitted under.
    pub label: String,
    /// Owning tenant.
    pub tenant: String,
    /// Priority class.
    pub priority: Priority,
    /// Device that produced the final outcome (`None` for jobs that
    /// never dispatched: shed, cancelled, invalid, or stranded).
    pub device: Option<usize>,
    /// Arrival time in modeled seconds.
    pub arrival_s: f64,
    /// Completion time in modeled seconds (equals `arrival_s` for jobs
    /// refused at the front door).
    pub completed_s: f64,
    /// Checkpoint migrations this job survived.
    pub migrations: u32,
    /// The verified run — or the typed reason there isn't one.
    pub result: Result<RobustSortRun<u32>, SortError>,
    /// The job ran on the quarantine config because its breaker was open.
    pub quarantined: bool,
    /// The job was a half-open breaker probe.
    pub probe: bool,
    /// The job ran on a `degraded`-tier rung of the device's tuning
    /// ladder (always `false` without tuning).
    pub degraded: bool,
    /// The job was a deterministic canary probe of the tuning policy's
    /// candidate rung.
    pub canary: bool,
    /// The launch parameters the device's tuning ladder ran the job on
    /// (`None` without tuning and for jobs that never executed).
    pub tuned: Option<SortParams>,
    /// The per-block retry cap the budget granted this job.
    pub retries_granted: u32,
}

impl ClusterOutcome {
    /// The outcome of a job that never ran to completion on a device.
    fn unrun(job: ClusterJob, device: Option<usize>, completed_s: f64, err: SortError) -> Self {
        Self {
            id: job.id,
            label: job.job.label,
            tenant: job.tenant,
            priority: job.priority,
            device,
            arrival_s: job.arrival_s,
            completed_s,
            migrations: job.migrations,
            result: Err(err),
            quarantined: false,
            probe: false,
            degraded: false,
            canary: false,
            tuned: None,
            retries_granted: 0,
        }
    }

    /// End-to-end modeled latency (queueing + execution).
    #[must_use]
    pub fn latency_s(&self) -> f64 {
        self.completed_s - self.arrival_s
    }
}

/// Per-tenant modeled-latency SLO summary over verified jobs
/// (nearest-rank percentiles; the reserved tenant name `"all"` is the
/// cluster-wide row).
#[derive(Debug, Clone, PartialEq)]
pub struct TenantSlo {
    /// Tenant name (`"all"` = every tenant).
    pub tenant: String,
    /// Verified jobs in the sample.
    pub verified: u64,
    /// Median end-to-end latency in modeled seconds.
    pub p50_s: f64,
    /// 99th-percentile latency.
    pub p99_s: f64,
    /// 99.9th-percentile latency.
    pub p999_s: f64,
}

impl ToJson for TenantSlo {
    fn to_json(&self) -> Json {
        Json::obj([
            ("tenant", Json::from(self.tenant.clone())),
            ("verified", Json::from(self.verified)),
            ("p50_s", Json::from(self.p50_s)),
            ("p99_s", Json::from(self.p99_s)),
            ("p999_s", Json::from(self.p999_s)),
        ])
    }
}

/// Per-device execution summary (from the device's executor).
#[derive(Debug, Clone, PartialEq)]
pub struct DeviceSummary {
    /// Device index.
    pub device: usize,
    /// Jobs the device executed.
    pub executed: u64,
    /// Executed jobs that verified in deadline.
    pub verified_ok: u64,
    /// Executed jobs that ended in a typed error.
    pub failed: u64,
    /// The device's modeled clock (idle time included).
    pub clock_s: f64,
}

impl ToJson for DeviceSummary {
    fn to_json(&self) -> Json {
        Json::obj([
            ("device", Json::from(self.device)),
            ("executed", Json::from(self.executed)),
            ("verified_ok", Json::from(self.verified_ok)),
            ("failed", Json::from(self.failed)),
            ("clock_s", Json::from(self.clock_s)),
        ])
    }
}

/// Everything one [`ClusterService::run`] produced.
#[derive(Debug)]
pub struct ClusterReport {
    /// Per-job outcomes in submission order.
    pub outcomes: Vec<ClusterOutcome>,
    /// Front-door tallies merged with every device's executor
    /// counters.
    pub counters: ServiceCounters,
    /// Makespan: the latest modeled completion time across all jobs.
    pub clock_s: f64,
    /// Device-seconds in flight at crash instants (progress salvaged by
    /// checkpoints included — see the module docs).
    pub lost_work_s: f64,
    /// Total modeled seconds spent moving checkpoints between devices.
    pub migration_s: f64,
    /// Per-tenant SLO rows plus the cluster-wide `"all"` row.
    pub tenant_slos: Vec<TenantSlo>,
    /// Per-device execution summaries.
    pub per_device: Vec<DeviceSummary>,
    /// Frozen cluster telemetry (`None` unless
    /// [`ClusterService::enable_telemetry`] was called).
    pub telemetry: Option<MetricsSnapshot>,
}

impl ToJson for ClusterReport {
    fn to_json(&self) -> Json {
        Json::obj([
            ("devices", Json::from(self.per_device.len())),
            ("clock_s", Json::from(self.clock_s)),
            ("lost_work_s", Json::from(self.lost_work_s)),
            ("migration_s", Json::from(self.migration_s)),
            ("counters", self.counters.to_json()),
            ("tenant_slos", Json::arr(self.tenant_slos.iter().map(TenantSlo::to_json))),
            ("per_device", Json::arr(self.per_device.iter().map(DeviceSummary::to_json))),
            (
                "outcomes",
                Json::arr(self.outcomes.iter().map(|o| {
                    let mut fields = vec![
                        ("id", Json::from(o.id.to_string())),
                        ("label", Json::from(o.label.clone())),
                        ("tenant", Json::from(o.tenant.clone())),
                        ("priority", Json::from(o.priority.label())),
                        ("arrival_s", Json::from(o.arrival_s)),
                        ("completed_s", Json::from(o.completed_s)),
                        ("migrations", Json::from(u64::from(o.migrations))),
                    ];
                    if let Some(d) = o.device {
                        fields.push(("device", Json::from(d)));
                    }
                    match &o.result {
                        Ok(run) => {
                            fields.push(("ok", Json::from(true)));
                            fields.push(("seconds", Json::from(run.run.simulated_seconds)));
                            fields.push(("n", Json::from(run.run.output.len())));
                        }
                        Err(e) => {
                            fields.push(("ok", Json::from(false)));
                            fields.push(("error", e.to_json()));
                        }
                    }
                    Json::obj(fields)
                })),
            ),
        ])
    }
}

/// FNV-1a, for the deterministic tenant → home-device shard.
fn fnv1a(s: &str) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for b in s.bytes() {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0100_0000_01b3);
    }
    h
}

/// Nearest-rank percentile of an ascending sample.
fn percentile(sorted: &[f64], q: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let rank = (q * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// The multi-device front door: submit jobs (each with a tenant,
/// priority, arrival time, optional fault plan, and optional deadline),
/// then [`ClusterService::run`] simulates the whole cluster and returns
/// a [`ClusterReport`]. Each `run` is a self-contained simulation
/// starting at modeled `t = 0`.
pub struct ClusterService {
    config: ClusterConfig,
    arrivals: Vec<ClusterJob>,
    next_id: u64,
    telemetry: bool,
    tuning: Option<(TuningTable, TuningPolicy)>,
}

impl ClusterService {
    /// A cluster under `config`.
    ///
    /// # Panics
    /// Panics if the fleet is empty.
    #[must_use]
    pub fn new(config: ClusterConfig) -> Self {
        assert!(!config.devices.is_empty(), "a cluster needs at least one device");
        Self { config, arrivals: Vec::new(), next_id: 0, telemetry: false, tuning: None }
    }

    /// Switch cluster telemetry on (the zero-cost-observer pattern:
    /// purely observational, never feeds back into modeled time).
    pub fn enable_telemetry(&mut self) {
        self.telemetry = true;
    }

    /// Install a tuning ladder on every device for all subsequent
    /// [`ClusterService::run`] calls. The table is verified fail-closed
    /// here, once (see [`SortService::enable_tuning`]); each device then
    /// routes through its *own* ladder (matched by device name), so a
    /// heterogeneous fleet degrades per-profile.
    ///
    /// [`SortService::enable_tuning`]: crate::resilience::service::SortService::enable_tuning
    pub fn enable_tuning(
        &mut self,
        table: TuningTable,
        policy: TuningPolicy,
    ) -> Result<(), SortError> {
        verify_table(&table, "cluster")?;
        self.tuning = Some((table, policy));
        Ok(())
    }

    /// Submit a production job: default tenant, interactive priority,
    /// arrival at `t = 0`, no faults, no deadline.
    pub fn submit(&mut self, label: &str, input: Vec<u32>, algo: SortAlgorithm) -> ClusterJobId {
        self.submit_at(
            label,
            "default",
            Priority::Interactive,
            0.0,
            input,
            algo,
            FaultPlan::none(),
            None,
        )
    }

    /// Submit a fully specified job. An `at_s` that is not a finite,
    /// non-negative modeled time is refused at the front door with
    /// [`SortError::InvalidArrival`].
    #[allow(clippy::too_many_arguments)]
    pub fn submit_at(
        &mut self,
        label: &str,
        tenant: &str,
        priority: Priority,
        at_s: f64,
        input: Vec<u32>,
        algo: SortAlgorithm,
        plan: FaultPlan,
        deadline_s: Option<f64>,
    ) -> ClusterJobId {
        let id = ClusterJobId(self.next_id);
        self.next_id += 1;
        self.arrivals.push(ClusterJob {
            id,
            tenant: tenant.to_string(),
            priority,
            arrival_s: at_s,
            migrations: 0,
            cancelled: false,
            job: QueuedJob::fresh(
                label,
                input,
                algo,
                plan,
                deadline_s,
                CheckpointPolicy::default(),
            ),
        });
        id
    }

    /// Submit a load-generated request (see
    /// [`crate::resilience::loadgen::LoadGenConfig`]).
    pub fn submit_request(&mut self, req: ClusterRequest) -> ClusterJobId {
        self.submit_at(
            &req.label,
            &req.tenant,
            req.priority,
            req.at_s,
            req.input,
            req.algo,
            FaultPlan::none(),
            req.deadline_s,
        )
    }

    /// Cancel a job that has not run yet. Returns `false` if the id is
    /// unknown or its batch already ran.
    pub fn cancel(&mut self, id: ClusterJobId) -> bool {
        match self.arrivals.iter_mut().find(|j| j.id == id) {
            Some(job) => {
                job.cancelled = true;
                true
            }
            None => false,
        }
    }

    /// Jobs waiting for the next [`ClusterService::run`].
    #[must_use]
    pub fn pending(&self) -> usize {
        self.arrivals.len()
    }

    /// Simulate the cluster over the submitted batch and return the
    /// report. Deterministic: the same configuration and submissions
    /// always produce a bit-identical report.
    pub fn run(&mut self) -> ClusterReport {
        let slots = self
            .config
            .devices
            .iter()
            .enumerate()
            .map(|(d, cfg)| {
                // Breaker, budget and ladder are per-device; the
                // admission bound belongs to the cluster's front door.
                let mut device = Device::new(cfg.clone(), &self.config.resilience);
                if let Some((table, policy)) = &self.tuning {
                    device.set_tuning(table.clone(), *policy);
                }
                DeviceSlot {
                    device,
                    timeline: DeviceTimeline::compile(&self.config.faults, d),
                    queue: Vec::new(),
                    up: true,
                    busy: false,
                }
            })
            .collect::<Vec<_>>();

        let mut sim = Sim {
            admission: self.config.resilience.admission,
            migration: self.config.migration,
            slots,
            eq: EventQueue::new(),
            outcomes: Vec::new(),
            served: Vec::new(),
            counters: ServiceCounters::default(),
            in_flight: 0,
            lost_work_s: 0.0,
            migration_s: 0.0,
            telemetry: if self.telemetry { Some(MetricsRegistry::new()) } else { None },
        };

        // Fault-domain events first (at equal timestamps a crash beats
        // an arrival: a device crashing at t cannot accept work at t),
        // then arrivals in submission order.
        for d in 0..sim.slots.len() {
            let downtimes = sim.slots[d].timeline.downtimes().to_vec();
            for (start, end) in downtimes {
                sim.eq.push(start, ClusterEvent::Crash(d));
                if let Some(end) = end {
                    sim.eq.push(end, ClusterEvent::Restart(d));
                }
            }
        }
        for job in std::mem::take(&mut self.arrivals) {
            // The event queue orders usable modeled times only: a job
            // whose arrival time is not one reaches the door at t = 0,
            // where admission refuses it.
            let at_s = if admission::valid_time(job.arrival_s) { job.arrival_s } else { 0.0 };
            sim.eq.push(at_s, ClusterEvent::Arrival(Box::new(job)));
        }
        sim.run()
    }
}

/// The running simulation (split from [`ClusterService`] so the event
/// loop can borrow its pieces independently).
struct Sim {
    admission: AdmissionConfig,
    migration: MigrationConfig,
    slots: Vec<DeviceSlot>,
    eq: EventQueue<ClusterEvent>,
    outcomes: Vec<ClusterOutcome>,
    /// Per-tenant device-seconds served so far (fairness state; a Vec,
    /// not a map, so iteration order is deterministic).
    served: Vec<(String, f64)>,
    counters: ServiceCounters,
    /// Admitted jobs not yet finished (the cluster's queue depth for
    /// admission purposes).
    in_flight: usize,
    lost_work_s: f64,
    migration_s: f64,
    telemetry: Option<MetricsRegistry>,
}

impl Sim {
    fn run(mut self) -> ClusterReport {
        let mut now = 0.0f64;
        while let Some(ev) = self.eq.pop() {
            now = ev.at_s;
            self.handle(ev.payload, now);
            // Drain every event at exactly this timestamp before
            // dispatching, so simultaneous arrivals/crashes see one
            // consistent queue state.
            while self.eq.peek_time() == Some(now) {
                let ev = self.eq.pop().expect("peeked");
                self.handle(ev.payload, now);
            }
            self.dispatch_all(now);
        }
        self.fail_stranded(now);
        self.finish()
    }

    fn handle(&mut self, ev: ClusterEvent, now: f64) {
        match ev {
            ClusterEvent::Arrival(job) => self.admit(*job, now),
            ClusterEvent::Crash(d) => {
                self.slots[d].up = false;
                self.slots[d].busy = false;
                self.counters.device_crashes += 1;
                if let Some(reg) = &mut self.telemetry {
                    reg.inc("cluster_device_crashes_total", 1);
                }
            }
            ClusterEvent::Restart(d) => {
                self.slots[d].up = true;
                self.counters.device_restarts += 1;
                if let Some(reg) = &mut self.telemetry {
                    reg.inc("cluster_device_restarts_total", 1);
                }
            }
            ClusterEvent::Completion(d) => self.slots[d].busy = false,
            ClusterEvent::MigrationReady { device, job } => self.slots[device].queue.push(*job),
        }
    }

    /// Cluster-level admission: the shared decision against the
    /// cluster-wide in-flight count, with every queued fresh job (on any
    /// device) sheddable. Resumes in flight are never shed.
    fn admit(&mut self, job: ClusterJob, now: f64) {
        let queued = self.slots.iter().enumerate().flat_map(|(d, slot)| {
            slot.queue
                .iter()
                .enumerate()
                .filter(|(_, j)| !j.job.is_resume())
                .map(move |(pos, j)| ((d, pos), j.job.ticket(j.id.0)))
        });
        let verdict = admission::decide(
            job.job.ticket(job.id.0),
            Some(job.arrival_s),
            queued,
            self.in_flight,
            self.admission,
            &self.slots[0].device.config().base,
        );
        self.counters.merge(&verdict.counters);
        if let Some(reg) = &mut self.telemetry {
            reg.inc("cluster_jobs_submitted_total", 1);
        }
        // Remove victims back to front, so queue positions stay valid.
        let mut evicted = verdict.evicted;
        evicted.sort_by_key(|&(loc, _)| std::cmp::Reverse(loc));
        for ((d, pos), err) in evicted {
            let victim = self.slots[d].queue.remove(pos);
            self.in_flight -= 1;
            self.refuse(victim, now, err);
        }
        if let Some(err) = verdict.refused {
            self.refuse(job, now, err);
            return;
        }
        if let Some(reg) = &mut self.telemetry {
            reg.inc("cluster_jobs_admitted_total", 1);
        }
        if job.cancelled {
            self.counters.cancelled += 1;
            if let Some(reg) = &mut self.telemetry {
                reg.inc("cluster_jobs_cancelled_total", 1);
            }
            self.outcomes.push(ClusterOutcome::unrun(job, None, now, SortError::Cancelled));
            return;
        }
        self.in_flight += 1;
        if let Some(reg) = &mut self.telemetry {
            reg.set_gauge("cluster_inflight", self.in_flight as f64);
        }
        let home = (fnv1a(&job.tenant) % self.slots.len() as u64) as usize;
        self.slots[home].queue.push(job);
    }

    /// Outcome for a job the front door refused or shed.
    fn refuse(&mut self, job: ClusterJob, now: f64, err: SortError) {
        if let Some(reg) = &mut self.telemetry {
            let name = match err {
                SortError::InvalidDeadline { .. } => "cluster_invalid_deadline_total",
                SortError::InvalidArrival { .. } => "cluster_invalid_arrival_total",
                _ => "cluster_jobs_shed_total",
            };
            reg.inc(name, 1);
        }
        self.outcomes.push(ClusterOutcome::unrun(job, None, now, err));
    }

    /// Keep handing work to free devices until nothing moves: own queue
    /// first, then steal from the longest other queue.
    fn dispatch_all(&mut self, now: f64) {
        loop {
            let mut progressed = false;
            for d in 0..self.slots.len() {
                if !self.slots[d].up || self.slots[d].busy {
                    continue;
                }
                if let Some((job, stolen)) = self.take_job_for(d) {
                    if stolen {
                        self.counters.steals += 1;
                        if let Some(reg) = &mut self.telemetry {
                            reg.inc("cluster_steals_total", 1);
                        }
                    }
                    self.dispatch_one(d, job, now);
                    progressed = true;
                }
            }
            if !progressed {
                break;
            }
        }
    }

    /// Best compatible job for device `d`: from its own queue, else
    /// stolen from the longest other queue (ties to the lowest index).
    /// "Best" = lowest `(priority rank, tenant served-seconds, job id)`,
    /// which reduces to strict submission order when every job shares a
    /// tenant and priority — the [`SortService`] parity condition.
    fn take_job_for(&mut self, d: usize) -> Option<(ClusterJob, bool)> {
        if let Some(pos) = self.best_pos(d, d) {
            return Some((self.slots[d].queue.remove(pos), false));
        }
        let mut source: Option<(usize, usize, usize)> = None; // (len, src, pos)
        for s in 0..self.slots.len() {
            if s == d {
                continue;
            }
            if let Some(pos) = self.best_pos(s, d) {
                let len = self.slots[s].queue.len();
                if source.is_none_or(|(best_len, ..)| len > best_len) {
                    source = Some((len, s, pos));
                }
            }
        }
        source.map(|(_, s, pos)| (self.slots[s].queue.remove(pos), true))
    }

    /// Position of the best job in `src`'s queue that device `dst` can
    /// run.
    fn best_pos(&self, src: usize, dst: usize) -> Option<usize> {
        let mut best: Option<(usize, (u8, f64, u64))> = None;
        for (pos, job) in self.slots[src].queue.iter().enumerate() {
            if !self.slots[dst].compatible(&job.job) {
                continue;
            }
            let key = (job.priority.rank(), self.served_s(&job.tenant), job.id.0);
            let better = best.as_ref().is_none_or(|(_, b)| {
                key.0.cmp(&b.0).then(key.1.total_cmp(&b.1)).then(key.2.cmp(&b.2)).is_lt()
            });
            if better {
                best = Some((pos, key));
            }
        }
        best.map(|(pos, _)| pos)
    }

    fn served_s(&self, tenant: &str) -> f64 {
        self.served.iter().find(|(t, _)| t == tenant).map_or(0.0, |(_, s)| *s)
    }

    fn add_served(&mut self, tenant: &str, seconds: f64) {
        match self.served.iter_mut().find(|(t, _)| t == tenant) {
            Some((_, s)) => *s += seconds,
            None => self.served.push((tenant.to_string(), seconds)),
        }
    }

    fn dispatch_one(&mut self, d: usize, job: ClusterJob, now: f64) {
        let mult = self.slots[d].timeline.multiplier_at(now);
        if let Some((crash_s, _)) = self.slots[d].timeline.next_crash_after(now) {
            let (elapsed, ckpts) = self.probe(d, &job.job);
            if now + elapsed * mult > crash_s {
                self.interrupt(d, job, now, crash_s, mult, ckpts);
                return;
            }
        }
        self.execute_on(d, job, now, mult);
    }

    /// Price the job against the device's baseline profile without
    /// touching the device's state (the crash-interruption decision).
    /// Failed probes price as 0 — a typed error "completes" instantly,
    /// before any crash.
    fn probe(&self, d: usize, job: &QueuedJob) -> (f64, Vec<SortCheckpoint>) {
        let cfg = self.slots[d].device.config();
        match &job.work {
            Work::Fresh { input, algo } => match simulate_sort_robust_checkpointed::<u32>(
                input,
                *algo,
                cfg,
                &job.plan,
                CheckpointPolicy::every_pass(),
            ) {
                Ok((run, ckpts)) => (run.run.simulated_seconds, ckpts),
                Err(_) => (0.0, Vec::new()),
            },
            Work::Resume { checkpoint } => {
                match resume_sort_robust::<u32>(checkpoint, cfg, &job.plan) {
                    Ok(run) => (
                        (run.run.simulated_seconds - checkpoint.seconds_so_far).max(0.0),
                        Vec::new(),
                    ),
                    Err(_) => (0.0, Vec::new()),
                }
            }
        }
    }

    /// The device will crash mid-run: account the lost work, then either
    /// migrate the job (from its best pre-crash checkpoint) or fail it
    /// with a typed device-scoped error.
    fn interrupt(
        &mut self,
        d: usize,
        mut job: ClusterJob,
        now: f64,
        crash_s: f64,
        mult: f64,
        ckpts: Vec<SortCheckpoint>,
    ) {
        self.lost_work_s += crash_s - now;
        if let Some(reg) = &mut self.telemetry {
            reg.observe_seconds("cluster_lost_work_seconds", crash_s - now);
        }
        // Checkpoints the run captured before the crash are real work
        // the cluster performed, even though the probe ran them.
        let usable = ckpts
            .into_iter()
            .filter(|c| now + c.seconds_so_far * mult <= crash_s)
            .collect::<Vec<_>>();
        self.counters.checkpoints_taken += usable.len() as u64;
        // The device stays occupied until its crash event clears it.
        self.slots[d].busy = true;

        if !self.migration.enabled {
            self.counters.device_lost += 1;
            let reason = format!("whole-device crash at {crash_s:.3e}s with migration disabled");
            self.fail(job, d, crash_s, SortError::DeviceLost { device: d, reason });
            return;
        }
        if job.migrations >= self.migration.max_migrations {
            self.counters.migrations_failed += 1;
            let reason = format!("migration cap {} exhausted", self.migration.max_migrations);
            self.fail(job, d, crash_s, SortError::MigrationFailed { from_device: d, reason });
            return;
        }
        // A fresh job upgrades to a resume from the last checkpoint that
        // completed before the crash; a resume (whose probe captures no
        // checkpoints) re-migrates its own.
        if let Some(cp) = usable.into_iter().next_back() {
            job.job.work = Work::Resume { checkpoint: Box::new(cp) };
        }
        let cost = self.migration.fixed_s + self.migration.per_key_s * job.job.n as f64;
        let ready = crash_s + cost;
        // Target: the compatible device that is up soonest after the
        // checkpoint lands; ties to the shortest queue, then the lowest
        // index. The crashed device itself is eligible if it restarts.
        let mut target: Option<(f64, usize, usize)> = None;
        for (t, slot) in self.slots.iter().enumerate() {
            if !slot.compatible(&job.job) {
                continue;
            }
            let Some(up_t) = slot.timeline.up_at_or_after(ready) else { continue };
            let key = (up_t, slot.queue.len(), t);
            let better = target.is_none_or(|b| {
                key.0.total_cmp(&b.0).then(key.1.cmp(&b.1)).then(key.2.cmp(&b.2)).is_lt()
            });
            if better {
                target = Some(key);
            }
        }
        match target {
            Some((_, _, t)) => {
                self.counters.migrations += 1;
                self.migration_s += cost;
                if let Some(reg) = &mut self.telemetry {
                    reg.inc("cluster_migrations_total", 1);
                    reg.observe_seconds("cluster_migration_seconds", cost);
                }
                job.migrations += 1;
                self.eq.push(ready, ClusterEvent::MigrationReady { device: t, job: Box::new(job) });
            }
            None => {
                self.counters.migrations_failed += 1;
                let reason = "no surviving compatible device".to_string();
                self.fail(job, d, crash_s, SortError::MigrationFailed { from_device: d, reason });
            }
        }
    }

    /// Outcome for a job killed by the fault domain (typed, counted,
    /// removed from flight).
    fn fail(&mut self, job: ClusterJob, d: usize, at_s: f64, err: SortError) {
        self.in_flight -= 1;
        if let Some(reg) = &mut self.telemetry {
            reg.inc("cluster_jobs_failed_total", 1);
            reg.set_gauge("cluster_inflight", self.in_flight as f64);
        }
        self.outcomes.push(ClusterOutcome::unrun(job, Some(d), at_s, err));
    }

    /// Run the job on device `d`'s executor and record its outcome. The
    /// device is occupied for the job's *device* seconds (total minus
    /// the checkpointed prefix) scaled by any degrade multiplier.
    fn execute_on(&mut self, d: usize, job: ClusterJob, now: f64, mult: f64) {
        let s0 = match &job.job.work {
            Work::Resume { checkpoint } => checkpoint.seconds_so_far,
            Work::Fresh { .. } => 0.0,
        };
        let ClusterJob { id, tenant, priority, arrival_s, migrations, job, .. } = job;
        let outcome = self.slots[d].device.execute(JobId(id.0), job, now);
        // The device clock advanced by the job's execution seconds (a
        // deadline miss still advances by the time it burned); the
        // device itself is only occupied for the un-checkpointed suffix.
        let elapsed_exec = match &outcome.result {
            Ok(run) => run.run.simulated_seconds,
            Err(SortError::DeadlineExceeded { needed_s, .. }) => *needed_s,
            Err(_) => 0.0,
        };
        let eff = (elapsed_exec - s0).max(0.0) * mult;
        let completed_s = now + eff;
        self.add_served(&tenant, eff);
        self.in_flight -= 1;
        if let Some(reg) = &mut self.telemetry {
            reg.inc("cluster_jobs_executed_total", 1);
            match &outcome.result {
                Ok(_) => {
                    reg.inc("cluster_jobs_verified_total", 1);
                    reg.observe_seconds("cluster_job_latency_seconds", completed_s - arrival_s);
                    let name =
                        format!("cluster_tenant_{}_latency_seconds", tenant.replace('-', "_"));
                    reg.observe_seconds(&name, completed_s - arrival_s);
                }
                Err(_) => reg.inc("cluster_jobs_failed_total", 1),
            }
            reg.set_gauge("cluster_inflight", self.in_flight as f64);
        }
        self.outcomes.push(ClusterOutcome {
            id,
            label: outcome.label,
            tenant,
            priority,
            device: Some(d),
            arrival_s,
            completed_s,
            migrations,
            result: outcome.result,
            quarantined: outcome.quarantined,
            probe: outcome.probe,
            degraded: outcome.degraded,
            canary: outcome.canary,
            tuned: outcome.tuned,
            retries_granted: outcome.retries_granted,
        });
        if eff > 0.0 {
            self.slots[d].busy = true;
            self.eq.push(completed_s, ClusterEvent::Completion(d));
        }
    }

    /// The event queue is dry but work is still queued: every surviving
    /// device is either permanently down or incompatible. Fail each
    /// stranded job with a typed device-scoped error, in id order.
    fn fail_stranded(&mut self, now: f64) {
        let mut stranded: Vec<(usize, ClusterJob)> = Vec::new();
        for (d, slot) in self.slots.iter_mut().enumerate() {
            stranded.extend(slot.queue.drain(..).map(|job| (d, job)));
        }
        stranded.sort_by_key(|(_, job)| job.id.0);
        for (d, job) in stranded {
            self.counters.device_lost += 1;
            let reason = "queued on a dead device with no surviving compatible device".to_string();
            self.fail(job, d, now, SortError::DeviceLost { device: d, reason });
        }
    }

    fn finish(mut self) -> ClusterReport {
        self.outcomes.sort_by_key(|o| o.id.0);
        let clock_s = self.outcomes.iter().map(|o| o.completed_s).fold(0.0, f64::max);
        let mut counters = self.counters;
        let mut per_device = Vec::new();
        for (d, slot) in self.slots.iter().enumerate() {
            let executor = slot.device.counters;
            per_device.push(DeviceSummary {
                device: d,
                executed: executor.executed,
                verified_ok: executor.verified_ok,
                failed: executor.failed,
                clock_s: slot.device.clock_s(),
            });
            counters.merge(&executor);
        }
        let tenant_slos = Self::compute_slos(&self.outcomes);
        if let Some(reg) = &mut self.telemetry {
            reg.set_gauge("cluster_clock_seconds", clock_s);
        }
        ClusterReport {
            telemetry: self.telemetry.as_ref().map(MetricsRegistry::snapshot),
            outcomes: self.outcomes,
            counters,
            clock_s,
            lost_work_s: self.lost_work_s,
            migration_s: self.migration_s,
            tenant_slos,
            per_device,
        }
    }

    /// Per-tenant (sorted by name) plus cluster-wide latency SLOs over
    /// verified outcomes. Computed from the outcomes directly — the SLO
    /// rows exist whether or not telemetry was enabled.
    fn compute_slos(outcomes: &[ClusterOutcome]) -> Vec<TenantSlo> {
        let slo = |tenant: &str, mut lats: Vec<f64>| {
            lats.sort_by(|a, b| a.total_cmp(b));
            TenantSlo {
                tenant: tenant.to_string(),
                verified: lats.len() as u64,
                p50_s: percentile(&lats, 0.50),
                p99_s: percentile(&lats, 0.99),
                p999_s: percentile(&lats, 0.999),
            }
        };
        let mut tenants: Vec<&str> = outcomes.iter().map(|o| o.tenant.as_str()).collect();
        tenants.sort_unstable();
        tenants.dedup();
        let mut rows = Vec::with_capacity(tenants.len() + 1);
        for t in tenants {
            let lats = outcomes
                .iter()
                .filter(|o| o.tenant == t && o.result.is_ok())
                .map(ClusterOutcome::latency_s)
                .collect();
            rows.push(slo(t, lats));
        }
        let all =
            outcomes.iter().filter(|o| o.result.is_ok()).map(ClusterOutcome::latency_s).collect();
        rows.push(slo("all", all));
        rows
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::inputs::InputSpec;
    use crate::params::SortParams;
    use crate::recovery::simulate_sort_robust;
    use crate::resilience::admission::{AdmissionConfig, ShedPolicy};
    use crate::resilience::faultdomain::{DeviceFaultEvent, DeviceFaultKind};
    use crate::resilience::service::SortService;
    use crate::sort::pipeline::SortConfig;

    fn rcfg() -> RobustConfig {
        RobustConfig::new(SortConfig::with_params(SortParams::new(5, 32)))
    }

    /// Where the default tenant homes in an `n`-device fleet.
    fn home_of(n: usize) -> usize {
        (fnv1a("default") % n as u64) as usize
    }

    #[test]
    fn n1_fault_free_cluster_matches_sort_service() {
        // (a) bounded RejectLargest admission, exactly the single-device
        // service's scenario; (b) unbounded with a deadline miss, a
        // cancel, and an invalid deadline.
        let small = InputSpec::UniformRandom { seed: 44 }.generate(160);
        let big = InputSpec::UniformRandom { seed: 45 }.generate(8 * 160);
        let huge = InputSpec::UniformRandom { seed: 46 }.generate(16 * 160);
        let resilience = ResilienceConfig {
            admission: AdmissionConfig::bounded(2, ShedPolicy::RejectLargest),
            ..ResilienceConfig::default()
        };

        let mut svc = SortService::with_resilience(rcfg(), resilience);
        svc.submit("small", small.clone(), SortAlgorithm::CfMerge);
        svc.submit("big", big.clone(), SortAlgorithm::CfMerge);
        svc.submit("newcomer", small.clone(), SortAlgorithm::CfMerge);
        svc.submit("huge", huge.clone(), SortAlgorithm::CfMerge);
        let svc_out = svc.drain();

        let mut cluster = ClusterService::new(ClusterConfig::single(rcfg(), resilience));
        cluster.submit("small", small.clone(), SortAlgorithm::CfMerge);
        cluster.submit("big", big, SortAlgorithm::CfMerge);
        cluster.submit("newcomer", small, SortAlgorithm::CfMerge);
        cluster.submit("huge", huge, SortAlgorithm::CfMerge);
        let report = cluster.run();

        assert_eq!(report.outcomes.len(), svc_out.len());
        for (c, s) in report.outcomes.iter().zip(&svc_out) {
            match (&c.result, &s.result) {
                (Ok(cr), Ok(sr)) => {
                    assert_eq!(cr.run.output, sr.run.output);
                    assert_eq!(cr.run.simulated_seconds, sr.run.simulated_seconds);
                }
                (Err(ce), Err(se)) => assert_eq!(ce.to_string(), se.to_string()),
                other => panic!("outcome mismatch: {other:?}"),
            }
        }
        assert_eq!(report.clock_s, svc.clock_s());
        assert_eq!(report.per_device[0].clock_s, svc.clock_s());
        assert_eq!(report.counters, *svc.counters());

        // (b) deadlines, cancels, invalid deadlines — unbounded.
        let input = InputSpec::UniformRandom { seed: 18 }.generate(2 * 160);
        let mut svc = SortService::new(rcfg());
        svc.submit("ok", input.clone(), SortAlgorithm::CfMerge);
        let cancel = svc.submit("cancel-me", input.clone(), SortAlgorithm::CfMerge);
        svc.submit_with_faults(
            "tight",
            input.clone(),
            SortAlgorithm::CfMerge,
            FaultPlan::none(),
            Some(1e-12),
        );
        svc.submit_with_faults(
            "bad",
            input.clone(),
            SortAlgorithm::CfMerge,
            FaultPlan::none(),
            Some(-1.0),
        );
        svc.cancel(cancel);
        let svc_out = svc.drain();

        let mut cluster =
            ClusterService::new(ClusterConfig::single(rcfg(), ResilienceConfig::default()));
        cluster.submit("ok", input.clone(), SortAlgorithm::CfMerge);
        let ccancel = cluster.submit("cancel-me", input.clone(), SortAlgorithm::CfMerge);
        cluster.submit_at(
            "tight",
            "default",
            Priority::Interactive,
            0.0,
            input.clone(),
            SortAlgorithm::CfMerge,
            FaultPlan::none(),
            Some(1e-12),
        );
        cluster.submit_at(
            "bad",
            "default",
            Priority::Interactive,
            0.0,
            input,
            SortAlgorithm::CfMerge,
            FaultPlan::none(),
            Some(-1.0),
        );
        assert!(cluster.cancel(ccancel));
        let report = cluster.run();

        for (c, s) in report.outcomes.iter().zip(&svc_out) {
            match (&c.result, &s.result) {
                (Ok(cr), Ok(sr)) => assert_eq!(cr.run.simulated_seconds, sr.run.simulated_seconds),
                (Err(ce), Err(se)) => assert_eq!(ce.to_string(), se.to_string()),
                other => panic!("outcome mismatch: {other:?}"),
            }
        }
        assert_eq!(report.clock_s, svc.clock_s());
        assert_eq!(report.counters, *svc.counters());
    }

    #[test]
    fn invalid_arrival_times_are_refused_at_the_door() {
        let input = InputSpec::UniformRandom { seed: 96 }.generate(4 * 160);
        let submit = |cluster: &mut ClusterService, label: &str, at_s: f64| {
            cluster.submit_at(
                label,
                "default",
                Priority::Interactive,
                at_s,
                input.clone(),
                SortAlgorithm::CfMerge,
                FaultPlan::none(),
                None,
            );
        };
        let mut alone = ClusterService::new(ClusterConfig::homogeneous(2, rcfg()));
        submit(&mut alone, "valid", 1e-6);
        let alone = alone.run();

        let mut cluster = ClusterService::new(ClusterConfig::homogeneous(2, rcfg()));
        cluster.enable_telemetry();
        submit(&mut cluster, "valid", 1e-6);
        for (label, at_s) in [("nan", f64::NAN), ("negative", -1.0), ("infinite", f64::INFINITY)] {
            submit(&mut cluster, label, at_s);
        }
        let report = cluster.run();

        for o in &report.outcomes[1..] {
            assert!(
                matches!(o.result, Err(SortError::InvalidArrival { .. })),
                "{}: expected InvalidArrival, got {:?}",
                o.label,
                o.result
            );
            assert_eq!((o.device, o.completed_s), (None, 0.0), "{} never ran", o.label);
        }
        let c = &report.counters;
        assert_eq!((c.submitted, c.admitted, c.invalid_arrival, c.executed), (4, 1, 3, 1));
        assert!(report.clock_s.is_finite());
        assert!(report
            .tenant_slos
            .iter()
            .all(|r| r.p50_s.is_finite() && r.p99_s.is_finite() && r.p999_s.is_finite()));
        let telemetry = report.telemetry.as_ref().expect("telemetry on");
        assert!(matches!(
            telemetry.get("cluster_invalid_arrival_total"),
            Some(crate::telemetry::MetricValue::Counter(3))
        ));

        // The valid job's outcome is untouched by its refused neighbours.
        let (a, b) = (&alone.outcomes[0], &report.outcomes[0]);
        assert_eq!((a.device, a.completed_s), (b.device, b.completed_s));
        let (ra, rb) = (a.result.as_ref().expect("valid job"), b.result.as_ref().expect("valid"));
        assert_eq!(ra.run.output, rb.run.output);
        assert_eq!(report.clock_s, alone.clock_s);
        assert_eq!(report.tenant_slos, alone.tenant_slos);
        // The counter serialises only when nonzero.
        assert!(alone.counters.to_json().get("invalid_arrival").is_none());
        assert!(report.counters.to_json().get("invalid_arrival").is_some());
    }

    #[test]
    fn reject_largest_ties_evict_the_newest_across_devices() {
        let mut cfg = ClusterConfig::homogeneous(2, rcfg());
        cfg.resilience.admission = AdmissionConfig::bounded(2, ShedPolicy::RejectLargest);
        let mut cluster = ClusterService::new(cfg);
        let big = InputSpec::UniformRandom { seed: 97 }.generate(4 * 160);
        let small = InputSpec::UniformRandom { seed: 98 }.generate(160);
        // Two tenants that home to different devices, so the tied
        // victims sit in different queues.
        let tenants = ["a", "b", "c", "d"];
        let homes = tenants.map(|t| fnv1a(t) % 2);
        let older = tenants[0];
        let newer = tenants[(1..4).find(|&i| homes[i] != homes[0]).expect("both homes used")];
        let submit = |cluster: &mut ClusterService, tenant: &str, input: &[u32]| {
            cluster.submit_at(
                tenant,
                tenant,
                Priority::Interactive,
                0.0,
                input.to_vec(),
                SortAlgorithm::CfMerge,
                FaultPlan::none(),
                None,
            )
        };
        let older = submit(&mut cluster, older, &big);
        let newer = submit(&mut cluster, newer, &big);
        let incoming = submit(&mut cluster, "incoming", &small);
        let report = cluster.run();
        let by_id = |id: ClusterJobId| report.outcomes.iter().find(|o| o.id == id).unwrap();
        assert!(by_id(older).result.is_ok());
        assert!(matches!(&by_id(newer).result, Err(SortError::Shed { .. })));
        assert!(by_id(incoming).result.is_ok());
        assert_eq!(report.counters.shed_largest, 1);
    }

    #[test]
    fn crash_migrates_checkpoint_to_surviving_device() {
        let input = InputSpec::UniformRandom { seed: 91 }.generate(8 * 160 + 3);
        let solo =
            simulate_sort_robust(&input, SortAlgorithm::CfMerge, &rcfg(), &FaultPlan::none())
                .expect("baseline run");
        let total = solo.run.simulated_seconds;
        let home = home_of(2);

        let mut cfg = ClusterConfig::homogeneous(2, rcfg());
        cfg.faults = DeviceFaultPlan::from_events(vec![DeviceFaultEvent {
            at_s: 0.7 * total,
            device: home,
            kind: DeviceFaultKind::Crash,
        }]);
        let mut cluster = ClusterService::new(cfg);
        cluster.submit("victim", input.clone(), SortAlgorithm::CfMerge);
        let report = cluster.run();

        let o = &report.outcomes[0];
        let run = o.result.as_ref().expect("job survives via checkpoint migration");
        let mut expect = input;
        expect.sort_unstable();
        assert_eq!(run.run.output, expect, "migrated job must produce uncorrupted output");
        assert_eq!(o.device, Some(1 - home));
        assert_eq!(o.migrations, 1);
        assert_eq!(report.counters.device_crashes, 1);
        assert_eq!(report.counters.migrations, 1);
        assert_eq!(
            report.counters.resumed, 1,
            "migration resumes the checkpoint, not a cold restart"
        );
        assert!(report.counters.checkpoints_taken >= 1);
        assert!(report.lost_work_s > 0.0);
        assert!(report.migration_s > 0.0);
        assert!(o.completed_s > 0.7 * total);
    }

    #[test]
    fn crash_without_migration_is_typed_device_lost() {
        let input = InputSpec::UniformRandom { seed: 92 }.generate(8 * 160);
        let solo =
            simulate_sort_robust(&input, SortAlgorithm::CfMerge, &rcfg(), &FaultPlan::none())
                .expect("baseline run");
        let home = home_of(2);

        let mut cfg = ClusterConfig::homogeneous(2, rcfg());
        cfg.migration = MigrationConfig::disabled();
        cfg.faults = DeviceFaultPlan::from_events(vec![DeviceFaultEvent {
            at_s: 0.5 * solo.run.simulated_seconds,
            device: home,
            kind: DeviceFaultKind::Crash,
        }]);
        let mut cluster = ClusterService::new(cfg);
        cluster.submit("doomed", input, SortAlgorithm::CfMerge);
        let report = cluster.run();

        let o = &report.outcomes[0];
        assert!(
            matches!(&o.result, Err(SortError::DeviceLost { device, .. }) if *device == home),
            "expected DeviceLost, got {:?}",
            o.result
        );
        assert_eq!(report.counters.device_lost, 1);
        assert_eq!(report.counters.migrations, 0);
        assert_eq!(report.counters.verified_ok, 0);
    }

    #[test]
    fn idle_devices_steal_queued_work() {
        let mut cluster = ClusterService::new(ClusterConfig::homogeneous(2, rcfg()));
        for i in 0..6 {
            let input = InputSpec::UniformRandom { seed: 100 + i }.generate(2 * 160);
            cluster.submit(&format!("job-{i}"), input, SortAlgorithm::CfMerge);
        }
        let report = cluster.run();
        assert_eq!(report.counters.verified_ok, 6);
        assert!(
            report.counters.steals >= 1,
            "one tenant homes to one device; the other must steal"
        );
        assert!(report.per_device.iter().all(|d| d.executed >= 1), "{:?}", report.per_device);
        // Two devices working in parallel beat one device's serial sum.
        let serial: f64 = report
            .outcomes
            .iter()
            .map(|o| o.result.as_ref().expect("ok").run.simulated_seconds)
            .sum();
        assert!(report.clock_s < serial);
    }

    #[test]
    fn crash_with_restart_migrates_back_onto_the_same_device() {
        let input = InputSpec::UniformRandom { seed: 93 }.generate(8 * 160 + 1);
        let solo =
            simulate_sort_robust(&input, SortAlgorithm::CfMerge, &rcfg(), &FaultPlan::none())
                .expect("baseline run");
        let total = solo.run.simulated_seconds;

        let mut cfg = ClusterConfig::homogeneous(1, rcfg());
        cfg.faults = DeviceFaultPlan::from_events(vec![DeviceFaultEvent {
            at_s: 0.5 * total,
            device: 0,
            kind: DeviceFaultKind::CrashWithRestart { cooldown_s: total },
        }]);
        let mut cluster = ClusterService::new(cfg);
        cluster.submit("phoenix", input.clone(), SortAlgorithm::CfMerge);
        let report = cluster.run();

        let o = &report.outcomes[0];
        let run = o.result.as_ref().expect("job survives the restart");
        let mut expect = input;
        expect.sort_unstable();
        assert_eq!(run.run.output, expect);
        assert_eq!(o.device, Some(0));
        assert_eq!(report.counters.device_crashes, 1);
        assert_eq!(report.counters.device_restarts, 1);
        assert_eq!(report.counters.migrations, 1);
        assert!(o.completed_s >= 1.5 * total, "completion waits for the restart");
    }

    #[test]
    fn degraded_devices_stretch_completion_time() {
        let input = InputSpec::UniformRandom { seed: 94 }.generate(4 * 160);
        let solo =
            simulate_sort_robust(&input, SortAlgorithm::CfMerge, &rcfg(), &FaultPlan::none())
                .expect("baseline run");
        let mut cfg = ClusterConfig::homogeneous(1, rcfg());
        cfg.faults = DeviceFaultPlan::from_events(vec![DeviceFaultEvent {
            at_s: 0.0,
            device: 0,
            kind: DeviceFaultKind::Degrade { multiplier: 3.0, duration_s: 1.0 },
        }]);
        let mut cluster = ClusterService::new(cfg);
        cluster.submit("slow", input, SortAlgorithm::CfMerge);
        let report = cluster.run();
        let o = &report.outcomes[0];
        assert!(o.result.is_ok());
        let expected = 3.0 * solo.run.simulated_seconds;
        assert!(
            (o.completed_s - expected).abs() < 1e-12,
            "degrade multiplier must scale device time: {} vs {expected}",
            o.completed_s
        );
    }

    #[test]
    fn reports_are_bit_stable_across_runs() {
        let build = || {
            let mut cfg = ClusterConfig::homogeneous(2, rcfg());
            cfg.faults = DeviceFaultPlan::from_events(vec![DeviceFaultEvent {
                at_s: 1e-5,
                device: 0,
                kind: DeviceFaultKind::CrashWithRestart { cooldown_s: 2e-5 },
            }]);
            let mut cluster = ClusterService::new(cfg);
            cluster.enable_telemetry();
            let stream = crate::resilience::loadgen::LoadGenConfig::steady(7, 12, 5e4);
            for req in stream.generate() {
                cluster.submit_request(req);
            }
            cluster.run()
        };
        let a = build();
        let b = build();
        assert_eq!(
            a.to_json().to_string_pretty(),
            b.to_json().to_string_pretty(),
            "cluster reports must be bit-stable"
        );
        assert_eq!(a.counters, b.counters);
        let ta = a.telemetry.expect("telemetry on").to_json().to_string_pretty();
        let tb = b.telemetry.expect("telemetry on").to_json().to_string_pretty();
        assert_eq!(ta, tb);
    }

    #[test]
    fn heterogeneous_fleet_tunes_per_device_profile() {
        use crate::cert::build_certificate_table;
        use crate::tuning::{build_tuning_table, RungTier, TuningPolicy};
        use cfmerge_gpu_sim::device::Device;

        // Device 0 is the rtx profile (certified cf ladder), device 1
        // the 64-bit-bank profile (every cf rung degraded tier): each
        // device must route through its *own* ladder.
        let table = build_tuning_table(&build_certificate_table());
        let rtx = RobustConfig::new(SortConfig::paper_e17_u256());
        let kepler = RobustConfig::new(SortConfig {
            device: Device::kepler_64bit_like(),
            ..SortConfig::paper_e17_u256()
        });
        let mut cfg = ClusterConfig::homogeneous(2, rtx.clone());
        cfg.devices = vec![rtx.clone(), kepler.clone()];
        let mut cluster = ClusterService::new(cfg);
        cluster.enable_tuning(table.clone(), TuningPolicy::default()).expect("table verifies");

        let input = InputSpec::UniformRandom { seed: 95 }.generate(4500);
        for i in 0..4 {
            cluster.submit(&format!("job-{i}"), input.clone(), SortAlgorithm::CfMerge);
        }
        cluster.submit("thrust-job", input, SortAlgorithm::ThrustMergesort);
        let report = cluster.run();

        let device_of = |d: usize| if d == 0 { &rtx } else { &kepler };
        for o in &report.outcomes {
            if o.label == "thrust-job" {
                // No certified thrust rung exists on any profile.
                assert!(matches!(&o.result, Err(SortError::Uncertified { .. })));
                assert_eq!(o.tuned, None);
                continue;
            }
            assert!(o.result.is_ok(), "{}: {:?}", o.label, o.result);
            let d = o.device.expect("executed jobs name their device");
            let dev_name = &device_of(d).base.device.name;
            let ladder = table.ladder_for(dev_name, "cf-merge").expect("cf ladder");
            let params = o.tuned.expect("tuned jobs record their params");
            let rung = ladder.rung_for(params).expect("executed config is on the ladder");
            assert_eq!(o.degraded, rung.tier == RungTier::Degraded);
        }
        // Both tiers were actually exercised: work landed on each device.
        assert!(report.outcomes.iter().any(|o| o.degraded));
        assert!(report.outcomes.iter().any(|o| o.tuned.is_some() && !o.degraded));
        assert_eq!(report.counters.uncertified_rejected, 1);
        assert_eq!(report.counters.tuned_jobs, 4);
    }
}
