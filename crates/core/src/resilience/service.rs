//! The resilient batch sort service: one admission queue in front of
//! one device executor.
//!
//! [`SortService`] owns the queue, the job ids, and the admission bound;
//! each submission goes through the shared admission decision
//! ([`crate::resilience::admission`]) at submit time. Everything that
//! outlives a job — circuit breakers, the service-wide retry budget, the
//! tuning ladder, the modeled clock, the counters, and the `service_*`
//! telemetry — lives in the device, the same executor each
//! [`ClusterService`](crate::resilience::cluster::ClusterService) slot
//! runs, and carries across [`SortService::drain`] calls.
//!
//! Everything here is deterministic. [`SortService::drain`] executes the
//! batch *sequentially in submission order* (each job is internally
//! parallel via the robust driver), and the device clock advances by
//! each completed job's modeled seconds — so breaker cooldowns, budget
//! refill, and probe scheduling are pure functions of the job sequence.
//! With the default [`ResilienceConfig`] (everything off) the service
//! behaves exactly like the legacy batch front-end.

use cfmerge_gpu_sim::fault::FaultPlan;

use crate::params::SortParams;
use crate::recovery::{RecoveryCounters, RobustConfig, RobustSortRun};
use crate::resilience::admission::{self, AdmissionConfig};
use crate::resilience::breaker::{BreakerConfig, BreakerState};
use crate::resilience::budget::RetryBudgetConfig;
use crate::resilience::checkpoint::{CheckpointPolicy, SortCheckpoint};
use crate::resilience::device::{verify_table, Device, QueuedJob};
use crate::sort::pipeline::SortAlgorithm;
use crate::sort::SortError;
use crate::telemetry::{counter_set, MetricsRegistry, MetricsSnapshot};
use crate::tuning::{TuningPolicy, TuningTable};

/// Handle to a job submitted to a [`SortService`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct JobId(pub(crate) u64);

impl std::fmt::Display for JobId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "job-{}", self.0)
    }
}

/// The service's resilience policy; the default switches every mechanism
/// off, which reproduces the legacy service bit for bit.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct ResilienceConfig {
    /// Queue bound and shed policy.
    pub admission: AdmissionConfig,
    /// Service-wide retry token bucket.
    pub retry_budget: RetryBudgetConfig,
    /// Per-(pipeline, launch-config) circuit breakers.
    pub breaker: BreakerConfig,
}

/// One queue entry: the shared job record plus the service's own
/// bookkeeping.
struct Entry {
    id: JobId,
    job: QueuedJob,
    cancelled: bool,
    /// Set at admission time when the job was refused or shed; such jobs
    /// never execute, not even partially.
    pre_shed: Option<SortError>,
}

impl Entry {
    fn admitted(&self) -> bool {
        self.pre_shed.is_none() && !self.cancelled
    }
}

/// How one service job ended.
#[derive(Debug)]
pub struct JobOutcome {
    /// The job's handle.
    pub id: JobId,
    /// The label it was submitted under.
    pub label: String,
    /// The verified run — or the typed reason there isn't one.
    pub result: Result<RobustSortRun<u32>, SortError>,
    /// The job ran on the quarantine config because its breaker was
    /// open.
    pub quarantined: bool,
    /// The job was a half-open breaker probe.
    pub probe: bool,
    /// The job ran on a `degraded`-tier rung of the tuning ladder — a
    /// certified bounded-degree config that is *not* conflict-free.
    /// Always `false` without tuning (the explicit marker the ladder
    /// contract requires).
    pub degraded: bool,
    /// The job was a deterministic canary probe of the tuning policy's
    /// candidate rung.
    pub canary: bool,
    /// The launch parameters the tuning ladder actually ran the job on
    /// (`None` without tuning, for resumes, and for fail-closed
    /// rejections).
    pub tuned: Option<SortParams>,
    /// The per-block retry cap the budget granted this job.
    pub retries_granted: u32,
    /// Checkpoints captured during the run (empty unless the job was
    /// submitted with a non-noop [`CheckpointPolicy`]).
    pub checkpoints: Vec<SortCheckpoint>,
}

impl JobOutcome {
    /// The outcome of a job that never ran.
    pub(crate) fn unrun(id: JobId, label: String, err: SortError) -> Self {
        Self {
            id,
            label,
            result: Err(err),
            quarantined: false,
            probe: false,
            degraded: false,
            canary: false,
            tuned: None,
            retries_granted: 0,
            checkpoints: Vec::new(),
        }
    }

    /// The job's recovery counters; for failed jobs, a zeroed set with
    /// `unrecovered = 1` when the failure was an unrecoverable fault.
    #[must_use]
    pub fn counters(&self) -> RecoveryCounters {
        match &self.result {
            Ok(run) => run.report.counters,
            Err(SortError::UnrecoverableFault { .. }) => {
                RecoveryCounters { unrecovered: 1, ..RecoveryCounters::default() }
            }
            Err(_) => RecoveryCounters::default(),
        }
    }
}

/// Sum the counters of a batch of outcomes (the artifact-level "N
/// injected / N detected / N recovered" statement).
#[must_use]
pub fn aggregate_counters(outcomes: &[JobOutcome]) -> RecoveryCounters {
    let mut total = RecoveryCounters::default();
    for o in outcomes {
        total.merge(&o.counters());
    }
    total
}

counter_set! {
    /// Lifetime tallies of every resilience decision the service made.
    pub struct ServiceCounters {
        /// Jobs ever submitted (sheds and cancels included).
        submitted: Required,
        /// Jobs the queue accepted (some may be shed later by the
        /// reject-largest or deadline-aware [`ShedPolicy`]).
        ///
        /// [`ShedPolicy`]: crate::resilience::ShedPolicy
        admitted: Required,
        /// Jobs that actually ran the robust driver.
        executed: Required,
        /// Executed jobs that returned a verified sorted output in deadline.
        verified_ok: Required,
        /// Executed jobs that ended in a typed error.
        failed: Required,
        /// Jobs cancelled before execution.
        cancelled: Required,
        /// Incoming jobs refused with [`SortError::Overloaded`].
        shed_overload: Required,
        /// Queued jobs evicted by the reject-largest shed policy.
        shed_largest: Required,
        /// Queued jobs shed by the deadline-aware shed policy.
        shed_deadline: Required,
        /// Submissions refused with [`SortError::InvalidDeadline`].
        invalid_deadline: Required,
        /// Cluster submissions refused with [`SortError::InvalidArrival`].
        invalid_arrival: Sparse,
        /// Jobs whose retry cap was reduced by the budget.
        budget_denied: Required,
        /// Breaker transitions into `Open`.
        breaker_opens: Required,
        /// Breaker transitions into `HalfOpen`.
        breaker_half_opens: Required,
        /// Breaker transitions into `Closed`.
        breaker_closes: Required,
        /// Jobs routed to the quarantine config by an open breaker.
        quarantined: Required,
        /// Jobs run as half-open breaker probes.
        probes: Required,
        /// Checkpoint-resume jobs executed.
        resumed: Required,
        /// Checkpoints captured across all jobs.
        checkpoints_taken: Required,
        // Cluster-era fields: absent from older artifacts.
        /// Whole-device crash events observed by the cluster layer.
        device_crashes: Defaulted,
        /// Devices that rejoined after a crash-with-restart cooldown.
        device_restarts: Defaulted,
        /// Jobs that ended in a typed [`SortError::DeviceLost`].
        device_lost: Defaulted,
        /// Checkpoint migrations that moved an interrupted job to a
        /// surviving device.
        migrations: Defaulted,
        /// Migrations that could not complete ([`SortError::MigrationFailed`]).
        migrations_failed: Defaulted,
        /// Jobs a free device stole from another device's queue.
        steals: Defaulted,
        // Tuner-era fields are written only when nonzero, so every
        // artifact pinned before the tuner existed — and every run with
        // tuning off — stays bit-identical.
        /// Fresh jobs whose launch config was selected from a tuning ladder.
        tuned_jobs: Sparse,
        /// Total rungs stepped down the ladder by open breakers.
        ladder_steps: Sparse,
        /// Jobs refused with [`SortError::Uncertified`]: no ladder for the
        /// pipeline/device, an empty ladder, or a ladder exhausted by open
        /// breakers. Such jobs never execute an uncertified config.
        uncertified_rejected: Sparse,
        /// Jobs routed to the canary candidate rung.
        canary_jobs: Sparse,
        /// Canary candidates rolled back (a failed or degraded canary run,
        /// or a candidate the ladder does not certify).
        canary_rollbacks: Sparse,
        /// Canary candidates promoted to the active rung.
        canary_promotions: Sparse,
    }
}

/// Degradation-aware batch front-end over the robust driver: submit jobs
/// (optionally with fault plans, deadlines, and checkpoint policies),
/// cancel any of them, then [`SortService::drain`] executes the batch
/// deterministically and returns per-job typed outcomes.
pub struct SortService {
    admission: AdmissionConfig,
    queue: Vec<Entry>,
    next_id: u64,
    device: Device,
}

impl SortService {
    /// A service running every job under `config`, with every resilience
    /// mechanism off (legacy behavior).
    #[must_use]
    pub fn new(config: RobustConfig) -> Self {
        Self::with_resilience(config, ResilienceConfig::default())
    }

    /// A service under `config` with an explicit resilience policy.
    #[must_use]
    pub fn with_resilience(config: RobustConfig, resilience: ResilienceConfig) -> Self {
        Self {
            admission: resilience.admission,
            queue: Vec::new(),
            next_id: 0,
            device: Device::new(config, &resilience),
        }
    }

    /// Install a tuning ladder and canary policy. From here on fresh
    /// jobs launch on their pipeline's active rung, open breakers step
    /// *down* the ladder instead of jumping to
    /// [`SortParams::known_good_default`], requests the ladder cannot
    /// certify fail closed with [`SortError::Uncertified`], and the
    /// canary policy (if any) deterministically probes its candidate
    /// rung. The table is verified fail-closed: a schema or checksum
    /// mismatch rejects the install and leaves the service untouched.
    pub fn enable_tuning(
        &mut self,
        table: TuningTable,
        policy: TuningPolicy,
    ) -> Result<(), SortError> {
        verify_table(&table, &self.device.config().base.device.name)?;
        self.device.set_tuning(table, policy);
        Ok(())
    }

    /// Lifetime resilience tallies.
    #[must_use]
    pub fn counters(&self) -> &ServiceCounters {
        &self.device.counters
    }

    /// Switch telemetry on: from here on the service records queue depth
    /// at admission, per-job end-to-end latency (modeled seconds),
    /// breaker transitions, retry-budget level, and the per-job recovery
    /// counters into a [`MetricsRegistry`]. Purely observational — job
    /// outcomes and modeled time are unchanged.
    pub fn enable_telemetry(&mut self) {
        self.device.telemetry.get_or_insert_with(MetricsRegistry::new);
    }

    /// Frozen view of the telemetry recorded so far (`None` unless
    /// [`SortService::enable_telemetry`] was called).
    #[must_use]
    pub fn telemetry_snapshot(&self) -> Option<MetricsSnapshot> {
        self.device.telemetry.as_ref().map(MetricsRegistry::snapshot)
    }

    /// The modeled service clock: the sum of every executed job's
    /// simulated seconds so far.
    #[must_use]
    pub fn clock_s(&self) -> f64 {
        self.device.clock_s()
    }

    /// Retry tokens currently in the budget (`None` when unlimited).
    #[must_use]
    pub fn budget_tokens(&self) -> Option<f64> {
        self.device.budget_tokens()
    }

    /// Snapshot of every breaker the service has instantiated:
    /// `(pipeline label, E, u, state, opens)`.
    #[must_use]
    pub fn breaker_snapshots(&self) -> Vec<(String, usize, usize, BreakerState, u64)> {
        self.device.breaker_snapshots()
    }

    /// Submit a production job (no fault injection, no deadline).
    pub fn submit(&mut self, label: &str, input: Vec<u32>, algo: SortAlgorithm) -> JobId {
        self.submit_with_faults(label, input, algo, FaultPlan::none(), None)
    }

    /// Submit a job with a fault plan and an optional deadline in modeled
    /// seconds. A job whose modeled completion time (retries, backoff,
    /// and spikes included) exceeds the deadline fails with
    /// [`SortError::DeadlineExceeded`].
    pub fn submit_with_faults(
        &mut self,
        label: &str,
        input: Vec<u32>,
        algo: SortAlgorithm,
        plan: FaultPlan,
        deadline_s: Option<f64>,
    ) -> JobId {
        self.submit_with_policy(label, input, algo, plan, deadline_s, CheckpointPolicy::default())
    }

    /// Submit a job that also captures checkpoints under `policy` (and,
    /// for a kill policy, dies with [`SortError::Interrupted`] carrying
    /// the checkpoint to resume from).
    pub fn submit_with_policy(
        &mut self,
        label: &str,
        input: Vec<u32>,
        algo: SortAlgorithm,
        plan: FaultPlan,
        deadline_s: Option<f64>,
        policy: CheckpointPolicy,
    ) -> JobId {
        self.enqueue(QueuedJob::fresh(label, input, algo, plan, deadline_s, policy))
    }

    /// Submit a resume of an interrupted job from its checkpoint. The
    /// checkpoint's integrity is validated at execution time; tampered or
    /// mismatched checkpoints fail with [`SortError::CheckpointInvalid`].
    pub fn submit_resume(
        &mut self,
        label: &str,
        checkpoint: SortCheckpoint,
        plan: FaultPlan,
        deadline_s: Option<f64>,
    ) -> JobId {
        self.enqueue(QueuedJob::resume(label, checkpoint, plan, deadline_s))
    }

    /// Assign an id, run admission control, and queue the job. Ids are
    /// monotonically increasing for the lifetime of the service — they
    /// are never reused across batches, so a stale handle from a drained
    /// batch can never cancel a newer job.
    fn enqueue(&mut self, job: QueuedJob) -> JobId {
        let id = JobId(self.next_id);
        self.next_id += 1;
        let waiting = self.queue.iter().enumerate().filter(|(_, e)| e.admitted());
        let verdict = admission::decide(
            job.ticket(id.0),
            None,
            waiting.clone().map(|(i, e)| (i, e.job.ticket(e.id.0))),
            waiting.count(),
            self.admission,
            &self.device.config().base,
        );
        self.device.counters.merge(&verdict.counters);
        for (i, err) in verdict.evicted {
            self.queue[i].pre_shed = Some(err);
        }
        let admitted = verdict.refused.is_none();
        self.queue.push(Entry { id, job, cancelled: false, pre_shed: verdict.refused });
        self.record_admission(admitted);
        id
    }

    /// Telemetry hook for one admission event: the submission counter and
    /// the queue depth *after* the decision, both as a histogram sample
    /// (the time series the ROADMAP's traffic-scale work wants) and as a
    /// last-value gauge.
    fn record_admission(&mut self, admitted: bool) {
        let Some(reg) = &mut self.device.telemetry else { return };
        let depth = self.queue.iter().filter(|e| e.admitted()).count() as u64;
        reg.inc("service_jobs_submitted_total", 1);
        if admitted {
            reg.inc("service_jobs_admitted_total", 1);
        }
        reg.observe("service_queue_depth_at_admission", depth);
        reg.set_gauge("service_queue_depth", depth as f64);
    }

    /// Cancel a pending job. Returns `false` if the id is unknown (or the
    /// batch containing it already ran).
    pub fn cancel(&mut self, id: JobId) -> bool {
        match self.queue.iter_mut().find(|e| e.id == id) {
            Some(entry) => {
                entry.cancelled = true;
                true
            }
            None => false,
        }
    }

    /// Number of jobs waiting in the current batch (cancelled and shed
    /// included — they still produce an outcome).
    #[must_use]
    pub fn pending(&self) -> usize {
        self.queue.len()
    }

    /// Execute every submitted job and drain the batch. Outcomes come
    /// back in submission order; cancelled jobs yield
    /// [`SortError::Cancelled`] and shed jobs their typed shed error,
    /// without running. Deterministic: jobs run sequentially in
    /// submission order, each starting when the previous one ends on the
    /// modeled clock.
    pub fn drain(&mut self) -> Vec<JobOutcome> {
        let queue = std::mem::take(&mut self.queue);
        queue.into_iter().map(|entry| self.run(entry)).collect()
    }

    fn run(&mut self, Entry { id, job, cancelled, pre_shed }: Entry) -> JobOutcome {
        let (err, metric) = match pre_shed {
            Some(err) => (err, "service_jobs_shed_total"),
            None if cancelled => {
                self.device.counters.cancelled += 1;
                (SortError::Cancelled, "service_jobs_cancelled_total")
            }
            None => {
                let now = self.device.clock_s();
                return self.device.execute(id, job, now);
            }
        };
        if let Some(reg) = &mut self.device.telemetry {
            reg.inc(metric, 1);
        }
        JobOutcome::unrun(id, job.label, err)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::inputs::InputSpec;
    use crate::params::SortParams;
    use crate::resilience::admission::ShedPolicy;
    use crate::sort::pipeline::SortConfig;
    use cfmerge_gpu_sim::fault::{FaultKind, FaultSite, Persistence};
    use cfmerge_json::ToJson;

    fn small_rcfg() -> RobustConfig {
        RobustConfig::new(SortConfig::with_params(SortParams::new(5, 32)))
    }

    fn site(kernel: u32, block: u32, kind: FaultKind, persistence: Persistence) -> FaultSite {
        FaultSite { kernel, block, phase: 1, kind, persistence }
    }

    #[test]
    fn service_runs_cancels_and_enforces_deadlines() {
        let mut svc = SortService::new(small_rcfg());
        let input = InputSpec::UniformRandom { seed: 18 }.generate(2 * 160);
        let ok_id = svc.submit("ok", input.clone(), SortAlgorithm::CfMerge);
        let cancel_id = svc.submit("cancel-me", input.clone(), SortAlgorithm::CfMerge);
        let tight_id = svc.submit_with_faults(
            "tight",
            input.clone(),
            SortAlgorithm::CfMerge,
            FaultPlan::none(),
            Some(1e-12),
        );
        let faulty_id = svc.submit_with_faults(
            "faulty",
            input.clone(),
            SortAlgorithm::CfMerge,
            FaultPlan::from_sites(vec![site(
                0,
                0,
                FaultKind::StuckBank { bank: 0, bit: 0 },
                Persistence::Transient,
            )]),
            Some(1.0),
        );
        assert!(svc.cancel(cancel_id));
        assert!(!svc.cancel(JobId(999)));
        assert_eq!(svc.pending(), 4);

        let outcomes = svc.drain();
        assert_eq!(svc.pending(), 0);
        assert_eq!(outcomes.len(), 4);
        assert_eq!(outcomes[0].id, ok_id);
        let ok_run = outcomes[0].result.as_ref().expect("ok job");
        let mut expect = input.clone();
        expect.sort_unstable();
        assert_eq!(ok_run.run.output, expect);
        assert_eq!(outcomes[1].id, cancel_id);
        assert!(matches!(outcomes[1].result, Err(SortError::Cancelled)));
        assert_eq!(outcomes[2].id, tight_id);
        assert!(matches!(outcomes[2].result, Err(SortError::DeadlineExceeded { .. })));
        assert_eq!(outcomes[3].id, faulty_id);
        let faulty_run = outcomes[3].result.as_ref().expect("faulty job recovers");
        assert_eq!(faulty_run.run.output, expect);

        let total = aggregate_counters(&outcomes);
        assert!(total.faults_injected >= 1);
        assert_eq!(total.faults_detected, 1);
        assert_eq!(total.retries, 1);
        assert_eq!(total.unrecovered, 0);

        let sc = svc.counters();
        assert_eq!(sc.submitted, 4);
        assert_eq!(sc.executed, 3);
        assert_eq!(sc.verified_ok, 2);
        assert_eq!(sc.failed, 1);
        assert_eq!(sc.cancelled, 1);
        assert!(svc.clock_s() > 0.0);
    }

    #[test]
    fn job_ids_never_reset_across_batches() {
        let mut svc = SortService::new(small_rcfg());
        let input = InputSpec::UniformRandom { seed: 40 }.generate(160);
        let a = svc.submit("a", input.clone(), SortAlgorithm::CfMerge);
        svc.drain();
        let b = svc.submit("b", input, SortAlgorithm::CfMerge);
        assert_ne!(a, b, "a drained batch's ids must never be reissued");
        // A stale handle from the drained batch cannot cancel anything.
        assert!(!svc.cancel(a));
        assert!(svc.cancel(b));
    }

    #[test]
    fn invalid_deadlines_are_typed_not_panics() {
        let mut svc = SortService::new(small_rcfg());
        let input = InputSpec::UniformRandom { seed: 41 }.generate(160);
        for bad in [-1.0, f64::NAN, f64::NEG_INFINITY] {
            svc.submit_with_faults(
                "bad",
                input.clone(),
                SortAlgorithm::CfMerge,
                FaultPlan::none(),
                Some(bad),
            );
        }
        // A zero deadline at t=0 is *valid* — it just cannot be met.
        svc.submit_with_faults(
            "zero",
            input.clone(),
            SortAlgorithm::CfMerge,
            FaultPlan::none(),
            Some(0.0),
        );
        let outcomes = svc.drain();
        for o in &outcomes[..3] {
            assert!(
                matches!(o.result, Err(SortError::InvalidDeadline { .. })),
                "expected InvalidDeadline, got {:?}",
                o.result
            );
        }
        assert!(matches!(outcomes[3].result, Err(SortError::DeadlineExceeded { .. })));
        assert_eq!(svc.counters().invalid_deadline, 3);
        assert_eq!(svc.counters().executed, 1);
    }

    #[test]
    fn cancelling_a_resume_job_never_executes_it() {
        let rcfg = small_rcfg();
        let input = InputSpec::UniformRandom { seed: 42 }.generate(4 * 160);
        let cp = match crate::recovery::simulate_sort_robust_checkpointed(
            &input,
            SortAlgorithm::CfMerge,
            &rcfg,
            &FaultPlan::none(),
            CheckpointPolicy::kill_after(0),
        ) {
            Err(SortError::Interrupted { checkpoint, .. }) => *checkpoint,
            other => panic!("expected Interrupted, got {other:?}"),
        };
        let mut svc = SortService::new(rcfg);
        let id = svc.submit_resume("resume", cp, FaultPlan::none(), None);
        assert!(svc.cancel(id));
        let outcomes = svc.drain();
        assert!(matches!(outcomes[0].result, Err(SortError::Cancelled)));
        assert_eq!(svc.counters().resumed, 0, "cancelled resume must not execute");
        assert_eq!(svc.clock_s(), 0.0);
    }

    #[test]
    fn reject_newest_sheds_the_incoming_job() {
        let mut svc = SortService::with_resilience(
            small_rcfg(),
            ResilienceConfig {
                admission: AdmissionConfig::bounded(2, ShedPolicy::RejectNewest),
                ..ResilienceConfig::default()
            },
        );
        let input = InputSpec::UniformRandom { seed: 43 }.generate(160);
        svc.submit("a", input.clone(), SortAlgorithm::CfMerge);
        svc.submit("b", input.clone(), SortAlgorithm::CfMerge);
        svc.submit("c", input, SortAlgorithm::CfMerge);
        let outcomes = svc.drain();
        assert!(outcomes[0].result.is_ok());
        assert!(outcomes[1].result.is_ok());
        assert!(matches!(outcomes[2].result, Err(SortError::Overloaded { capacity: 2 })));
        assert_eq!(svc.counters().shed_overload, 1);
        assert_eq!(svc.counters().executed, 2);
    }

    #[test]
    fn reject_largest_evicts_the_biggest_queued_job() {
        let mut svc = SortService::with_resilience(
            small_rcfg(),
            ResilienceConfig {
                admission: AdmissionConfig::bounded(2, ShedPolicy::RejectLargest),
                ..ResilienceConfig::default()
            },
        );
        let small = InputSpec::UniformRandom { seed: 44 }.generate(160);
        let big = InputSpec::UniformRandom { seed: 45 }.generate(8 * 160);
        svc.submit("small", small.clone(), SortAlgorithm::CfMerge);
        let big_id = svc.submit("big", big, SortAlgorithm::CfMerge);
        let new_id = svc.submit("newcomer", small.clone(), SortAlgorithm::CfMerge);
        // An incoming job larger than everything queued is refused
        // instead (evicting a smaller job would not make room policy-
        // wise).
        let huge = InputSpec::UniformRandom { seed: 46 }.generate(16 * 160);
        let huge_id = svc.submit("huge", huge, SortAlgorithm::CfMerge);
        let outcomes = svc.drain();
        let by_id = |id: JobId| outcomes.iter().find(|o| o.id == id).unwrap();
        assert!(
            matches!(&by_id(big_id).result, Err(SortError::Shed { policy, .. }) if *policy == "reject-largest")
        );
        assert!(by_id(new_id).result.is_ok());
        assert!(matches!(by_id(huge_id).result, Err(SortError::Overloaded { .. })));
        assert_eq!(svc.counters().shed_largest, 1);
        assert_eq!(svc.counters().shed_overload, 1);
    }

    #[test]
    fn reject_largest_ties_evict_the_newest() {
        let mut svc = SortService::with_resilience(
            small_rcfg(),
            ResilienceConfig {
                admission: AdmissionConfig::bounded(2, ShedPolicy::RejectLargest),
                ..ResilienceConfig::default()
            },
        );
        let big = InputSpec::UniformRandom { seed: 51 }.generate(4 * 160);
        let small = InputSpec::UniformRandom { seed: 52 }.generate(160);
        let older = svc.submit("older", big.clone(), SortAlgorithm::CfMerge);
        let newer = svc.submit("newer", big, SortAlgorithm::CfMerge);
        let incoming = svc.submit("incoming", small, SortAlgorithm::CfMerge);
        let outcomes = svc.drain();
        let by_id = |id: JobId| outcomes.iter().find(|o| o.id == id).unwrap();
        assert!(by_id(older).result.is_ok());
        assert!(matches!(&by_id(newer).result, Err(SortError::Shed { .. })));
        assert!(by_id(incoming).result.is_ok());
    }

    #[test]
    fn deadline_aware_sheds_unreachable_jobs_first() {
        let mut svc = SortService::with_resilience(
            small_rcfg(),
            ResilienceConfig {
                admission: AdmissionConfig::bounded(2, ShedPolicy::DeadlineAware),
                ..ResilienceConfig::default()
            },
        );
        let input = InputSpec::UniformRandom { seed: 47 }.generate(4 * 160);
        svc.submit("feasible", input.clone(), SortAlgorithm::CfMerge);
        let doomed = svc.submit_with_faults(
            "doomed",
            input.clone(),
            SortAlgorithm::CfMerge,
            FaultPlan::none(),
            Some(1e-15),
        );
        let late = svc.submit("latecomer", input, SortAlgorithm::CfMerge);
        let outcomes = svc.drain();
        let by_id = |id: JobId| outcomes.iter().find(|o| o.id == id).unwrap();
        assert!(
            matches!(&by_id(doomed).result, Err(SortError::Shed { policy, .. }) if *policy == "deadline-aware")
        );
        assert!(by_id(late).result.is_ok());
        assert_eq!(svc.counters().shed_deadline, 1);
        assert_eq!(svc.counters().executed, 2);
    }

    #[test]
    fn breaker_quarantines_then_probe_closes() {
        // Cooldown shorter than one job's modeled runtime (launch
        // overhead alone is 3µs): the job right after the trip is still
        // inside the cooldown window and quarantines; the one after that
        // probes and closes the breaker.
        let mut svc = SortService::with_resilience(
            small_rcfg(),
            ResilienceConfig {
                breaker: BreakerConfig { enabled: true, failure_threshold: 1, cooldown_s: 1e-6 },
                ..ResilienceConfig::default()
            },
        );
        let input = InputSpec::UniformRandom { seed: 48 }.generate(2 * 160);
        // A sticky fault defeats every retry and forces the Thrust
        // fallback: the output is verified but the requested config
        // failed health-wise.
        let poison = FaultPlan::from_sites(vec![site(
            0,
            0,
            FaultKind::StuckBank { bank: 1, bit: 3 },
            Persistence::Sticky,
        )]);
        svc.submit_with_faults("trip", input.clone(), SortAlgorithm::CfMerge, poison, None);
        svc.submit("clean-1", input.clone(), SortAlgorithm::CfMerge);
        svc.submit("clean-2", input.clone(), SortAlgorithm::CfMerge);
        let outcomes = svc.drain();

        assert!(outcomes[0].result.is_ok(), "fallback rescues the tripping job");
        assert!(outcomes[1].quarantined, "job inside the cooldown runs quarantined");
        let qrun = outcomes[1].result.as_ref().expect("quarantined job succeeds");
        let mut expect = input;
        expect.sort_unstable();
        assert_eq!(qrun.run.output, expect);
        // Quarantined runs use the known-good paper config: 320 keys fit
        // one E=17,u=256 tile, so the whole sort is a single blocksort
        // launch (the small 5/32 config would need a merge pass too).
        assert_eq!(qrun.run.kernels.len(), 1);
        assert_eq!(qrun.run.kernels[0].name, "blocksort");

        assert!(outcomes[2].probe, "job after the cooldown probes the real config");
        assert!(outcomes[2].result.is_ok());

        let sc = svc.counters();
        assert_eq!(sc.breaker_opens, 1);
        assert_eq!(sc.quarantined, 1);
        assert_eq!(sc.probes, 1);
        assert_eq!(sc.breaker_half_opens, 1);
        assert_eq!(sc.breaker_closes, 1);
        let snaps = svc.breaker_snapshots();
        assert_eq!(snaps.len(), 1);
        assert_eq!(snaps[0].3, BreakerState::Closed);
    }

    #[test]
    fn tuning_selects_the_best_rung_and_steps_down_open_breakers() {
        use crate::cert::build_certificate_table;
        use crate::sort::pipeline::SortConfig;
        use crate::tuning::build_tuning_table;

        let table = build_tuning_table(&build_certificate_table());
        // Base config E=17,u=256 sits on rung 0 of the rtx cf ladder;
        // rung 1 is E=15,u=512. Cooldown far above any modeled job
        // time, so an opened breaker stays open for the whole batch.
        let mut svc = SortService::with_resilience(
            RobustConfig::new(SortConfig::paper_e17_u256()),
            ResilienceConfig {
                breaker: BreakerConfig { enabled: true, failure_threshold: 1, cooldown_s: 1.0 },
                ..ResilienceConfig::default()
            },
        );
        svc.enable_tuning(table, TuningPolicy::default()).expect("table verifies");

        let input = InputSpec::UniformRandom { seed: 90 }.generate(4500);
        let poison = || {
            FaultPlan::from_sites(vec![site(
                0,
                0,
                FaultKind::StuckBank { bank: 1, bit: 3 },
                Persistence::Sticky,
            )])
        };
        svc.submit_with_faults("trip-r0", input.clone(), SortAlgorithm::CfMerge, poison(), None);
        svc.submit("stepped", input.clone(), SortAlgorithm::CfMerge);
        svc.submit_with_faults("trip-r1", input.clone(), SortAlgorithm::CfMerge, poison(), None);
        svc.submit("exhausted", input.clone(), SortAlgorithm::CfMerge);
        let outcomes = svc.drain();

        // Job 1 runs on rung 0; the fallback rescue opens its breaker.
        assert_eq!(outcomes[0].tuned, Some(SortParams::e17_u256()));
        assert!(outcomes[0].result.is_ok() && !outcomes[0].quarantined);
        // Job 2 is quarantined by the open rung-0 breaker and steps DOWN
        // the ladder to rung 1 instead of the hardcoded constant.
        assert!(outcomes[1].quarantined);
        assert_eq!(outcomes[1].tuned, Some(SortParams::e15_u512()));
        assert!(!outcomes[1].degraded, "rung 1 is certified, not degraded");
        let mut expect = input;
        expect.sort_unstable();
        assert_eq!(outcomes[1].result.as_ref().expect("stepped job verifies").run.output, expect);
        // Job 3 steps down too, and its fallback rescue opens rung 1's
        // breaker — stepped-down runs feed the rung they executed on.
        assert!(outcomes[2].quarantined);
        assert_eq!(outcomes[2].tuned, Some(SortParams::e15_u512()));
        // Job 4 finds every rung's breaker open and fails closed: an
        // uncertified config is never executed.
        assert!(matches!(
            &outcomes[3].result,
            Err(SortError::Uncertified { why, .. }) if why.contains("exhausted")
        ));
        assert_eq!(outcomes[3].tuned, None);

        let sc = svc.counters();
        assert_eq!(sc.tuned_jobs, 3);
        assert_eq!(sc.ladder_steps, 2);
        assert_eq!(sc.uncertified_rejected, 1);
        assert_eq!(sc.quarantined, 3);
        assert_eq!(sc.breaker_opens, 2);
        let open = svc
            .breaker_snapshots()
            .iter()
            .filter(|s| s.3 == BreakerState::Open)
            .map(|s| (s.1, s.2))
            .collect::<Vec<_>>();
        assert_eq!(open, vec![(17, 256), (15, 512)]);
    }

    #[test]
    fn canary_rollback_is_deterministic_and_promotion_moves_the_rung() {
        use crate::cert::build_certificate_table;
        use crate::sort::pipeline::SortConfig;
        use crate::tuning::{build_tuning_table, CanaryPolicy};

        let run = |poison_third: bool| {
            let table = build_tuning_table(&build_certificate_table());
            let mut svc = SortService::new(RobustConfig::new(SortConfig::paper_e17_u256()));
            svc.enable_tuning(
                table,
                TuningPolicy {
                    canary: Some(CanaryPolicy {
                        candidate: SortParams::e15_u512(),
                        every: 3,
                        promote_after: 2,
                    }),
                },
            )
            .expect("table verifies");
            let input = InputSpec::UniformRandom { seed: 91 }.generate(4500);
            for i in 1..=7 {
                let plan = if poison_third && i == 3 {
                    FaultPlan::from_sites(vec![site(
                        0,
                        0,
                        FaultKind::StuckBank { bank: 1, bit: 3 },
                        Persistence::Sticky,
                    )])
                } else {
                    FaultPlan::none()
                };
                svc.submit_with_faults(
                    &format!("job-{i}"),
                    input.clone(),
                    SortAlgorithm::CfMerge,
                    plan,
                    None,
                );
            }
            let outcomes = svc.drain();
            let trace: Vec<(Option<SortParams>, bool)> =
                outcomes.iter().map(|o| (o.tuned, o.canary)).collect();
            (svc, trace)
        };

        // Rollback: the poisoned canary (job 3, the cadence's first
        // firing) is rescued by the fallback, so the candidate is
        // retired and every later job stays on the active rung — and a
        // replay of the same batch is bit-identical.
        let (svc_a, trace_a) = run(true);
        let (_, trace_b) = run(true);
        assert_eq!(trace_a, trace_b, "canary decisions replay bit-identically");
        assert_eq!(trace_a[2], (Some(SortParams::e15_u512()), true));
        assert!(trace_a.iter().enumerate().all(|(i, t)| i == 2 || !t.1), "one canary fired");
        assert!(trace_a
            .iter()
            .enumerate()
            .all(|(i, t)| i == 2 || t.0 == Some(SortParams::e17_u256())));
        let sc = svc_a.counters();
        assert_eq!((sc.canary_jobs, sc.canary_rollbacks, sc.canary_promotions), (1, 1, 0));

        // Promotion: clean canaries at jobs 3 and 6 reach the streak of
        // two; job 7 then runs the candidate as the new active rung.
        let (svc_c, trace_c) = run(false);
        assert_eq!(trace_c[2], (Some(SortParams::e15_u512()), true));
        assert_eq!(trace_c[5], (Some(SortParams::e15_u512()), true));
        assert_eq!(trace_c[6], (Some(SortParams::e15_u512()), false), "promoted");
        assert_eq!(trace_c[3], (Some(SortParams::e17_u256()), false));
        let sc = svc_c.counters();
        assert_eq!((sc.canary_jobs, sc.canary_rollbacks, sc.canary_promotions), (2, 0, 1));
    }

    #[test]
    fn tuning_fails_closed_on_thrust_and_rejects_corrupt_tables() {
        use crate::cert::build_certificate_table;
        use crate::sort::pipeline::SortConfig;
        use crate::tuning::build_tuning_table;

        let table = build_tuning_table(&build_certificate_table());

        // A tampered checksum can never be installed.
        let mut corrupt = table.clone();
        corrupt.checksum = "fnv1a64:0000000000000000".to_string();
        let mut svc = SortService::new(RobustConfig::new(SortConfig::paper_e17_u256()));
        assert!(matches!(
            svc.enable_tuning(corrupt, TuningPolicy::default()),
            Err(SortError::Uncertified { .. })
        ));

        // Thrust's serial merge has no certified degree bound: its
        // ladder is empty and every job fails closed.
        svc.enable_tuning(table, TuningPolicy::default()).expect("genuine table verifies");
        let input = InputSpec::UniformRandom { seed: 92 }.generate(4500);
        svc.submit("thrust-job", input, SortAlgorithm::ThrustMergesort);
        let outcomes = svc.drain();
        assert!(matches!(
            &outcomes[0].result,
            Err(SortError::Uncertified { algo, .. }) if algo == "thrust"
        ));
        assert_eq!(svc.counters().uncertified_rejected, 1);
        assert_eq!(svc.counters().executed, 0, "rejected before execution");
    }

    #[test]
    fn degraded_rungs_carry_the_explicit_marker() {
        use crate::cert::build_certificate_table;
        use crate::sort::pipeline::SortConfig;
        use crate::tuning::build_tuning_table;
        use cfmerge_gpu_sim::device::Device;

        // On the 64-bit-bank profile every cf rung is degraded tier.
        let table = build_tuning_table(&build_certificate_table());
        let cfg =
            SortConfig { device: Device::kepler_64bit_like(), ..SortConfig::paper_e17_u256() };
        let mut svc = SortService::new(RobustConfig::new(cfg));
        svc.enable_tuning(table, TuningPolicy::default()).expect("table verifies");
        let input = InputSpec::UniformRandom { seed: 93 }.generate(4500);
        svc.submit("degraded-job", input.clone(), SortAlgorithm::CfMerge);
        let outcomes = svc.drain();
        assert!(outcomes[0].degraded, "degraded-tier rung is explicitly marked");
        assert_eq!(outcomes[0].tuned, Some(SortParams::e17_u256()));
        let mut expect = input;
        expect.sort_unstable();
        assert_eq!(outcomes[0].result.as_ref().expect("verified").run.output, expect);
    }

    #[test]
    fn budget_exhaustion_degrades_to_fallback_not_retry_storms() {
        let mut svc = SortService::with_resilience(
            small_rcfg(),
            ResilienceConfig {
                retry_budget: RetryBudgetConfig::bounded(1.0),
                ..ResilienceConfig::default()
            },
        );
        let input = InputSpec::UniformRandom { seed: 49 }.generate(2 * 160);
        let faulty = || {
            FaultPlan::from_sites(vec![site(
                0,
                1,
                FaultKind::StuckBank { bank: 0, bit: 0 },
                Persistence::Transient,
            )])
        };
        svc.submit_with_faults("first", input.clone(), SortAlgorithm::CfMerge, faulty(), None);
        svc.submit_with_faults("second", input.clone(), SortAlgorithm::CfMerge, faulty(), None);
        let outcomes = svc.drain();
        // First job spends the lone token on its retry.
        let r0 = outcomes[0].result.as_ref().expect("first recovers by retry");
        assert_eq!(r0.report.counters.retries, 1);
        assert_eq!(r0.report.counters.fallbacks, 0);
        assert_eq!(outcomes[0].retries_granted, 1);
        // Second job gets zero retries and degrades straight to the
        // fallback — still verified sorted.
        assert_eq!(outcomes[1].retries_granted, 0);
        let r1 = outcomes[1].result.as_ref().expect("second rescued by fallback");
        assert_eq!(r1.report.counters.retries, 0);
        assert_eq!(r1.report.counters.fallbacks, 1);
        let mut expect = input;
        expect.sort_unstable();
        assert_eq!(r1.run.output, expect);
        // Both jobs were capped below their full per-job retry cap.
        assert_eq!(svc.counters().budget_denied, 2);
        assert_eq!(svc.budget_tokens(), Some(0.0));
    }

    #[test]
    fn telemetry_is_purely_observational_and_deterministic() {
        let run_batch = |telemetry: bool| {
            let mut svc = SortService::with_resilience(
                small_rcfg(),
                ResilienceConfig {
                    retry_budget: RetryBudgetConfig::bounded(4.0),
                    breaker: BreakerConfig {
                        enabled: true,
                        failure_threshold: 1,
                        cooldown_s: 1e-6,
                    },
                    ..ResilienceConfig::default()
                },
            );
            if telemetry {
                svc.enable_telemetry();
            }
            let input = InputSpec::UniformRandom { seed: 77 }.generate(2 * 160);
            let poison = FaultPlan::from_sites(vec![site(
                0,
                0,
                FaultKind::StuckBank { bank: 1, bit: 3 },
                Persistence::Sticky,
            )]);
            svc.submit_with_faults("trip", input.clone(), SortAlgorithm::CfMerge, poison, None);
            svc.submit("clean-1", input.clone(), SortAlgorithm::CfMerge);
            svc.submit("clean-2", input, SortAlgorithm::CfMerge);
            let outcomes = svc.drain();
            (svc, outcomes)
        };

        let (off, out_off) = run_batch(false);
        let (on, out_on) = run_batch(true);

        // Zero-cost observer: outcomes and modeled time are bit-identical
        // whether telemetry is on or off.
        assert_eq!(off.clock_s(), on.clock_s());
        assert_eq!(off.counters(), on.counters());
        for (a, b) in out_off.iter().zip(&out_on) {
            assert_eq!(a.result.is_ok(), b.result.is_ok());
            if let (Ok(ra), Ok(rb)) = (&a.result, &b.result) {
                assert_eq!(ra.run.simulated_seconds, rb.run.simulated_seconds);
                assert_eq!(ra.run.output, rb.run.output);
            }
        }
        assert!(off.telemetry_snapshot().is_none());

        // The snapshot itself is deterministic (two identical runs agree
        // byte for byte) and reports the expected latency distribution.
        let snap = on.telemetry_snapshot().expect("telemetry enabled");
        let snap2 = run_batch(true).0.telemetry_snapshot().expect("telemetry enabled");
        assert_eq!(
            snap.to_json().to_string_pretty(),
            snap2.to_json().to_string_pretty(),
            "telemetry snapshots must be bit-stable"
        );
        let lat = snap.histogram("service_job_latency_seconds").expect("latency histogram");
        assert_eq!(lat.count, 3, "all three jobs verified");
        assert!(lat.p50 > 0 && lat.p50 <= lat.p99 && lat.p99 <= lat.p999);
        assert!(snap.get("service_breaker_opens_total").is_some());
        assert!(snap.histogram("service_queue_depth_at_admission").is_some());
    }

    #[test]
    fn service_kill_and_resume_round_trip() {
        let rcfg = small_rcfg();
        let input = InputSpec::UniformRandom { seed: 50 }.generate(4 * 160 + 5);
        let mut svc = SortService::new(rcfg.clone());
        svc.submit("whole", input.clone(), SortAlgorithm::CfMerge);
        let whole = svc.drain().remove(0).result.expect("whole run");

        let mut svc2 = SortService::new(rcfg);
        svc2.submit_with_policy(
            "killed",
            input,
            SortAlgorithm::CfMerge,
            FaultPlan::none(),
            None,
            CheckpointPolicy::kill_after(0),
        );
        let killed = svc2.drain().remove(0);
        let cp = match killed.result {
            Err(SortError::Interrupted { checkpoint, .. }) => *checkpoint,
            other => panic!("expected Interrupted, got {other:?}"),
        };
        svc2.submit_resume("resumed", cp, FaultPlan::none(), None);
        let resumed = svc2.drain().remove(0).result.expect("resume succeeds");
        assert_eq!(resumed.run.output, whole.run.output);
        assert_eq!(resumed.run.simulated_seconds, whole.run.simulated_seconds);
        assert_eq!(svc2.counters().resumed, 1);
    }
}
