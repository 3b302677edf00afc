//! The resilient batch sort service: admission control, circuit
//! breakers, a service-wide retry budget, and checkpoint/resume layered
//! over the robust driver.
//!
//! Everything here is deterministic. [`SortService::drain`] executes the
//! batch *sequentially in submission order* (each job is internally
//! parallel via the robust driver), and the service clock advances by
//! each completed job's modeled seconds — so breaker cooldowns, budget
//! refill, and probe scheduling are pure functions of the job sequence.
//! With the default [`ResilienceConfig`] (everything off) the service
//! behaves exactly like the legacy batch front-end.

use cfmerge_gpu_sim::fault::FaultPlan;
use cfmerge_json::{FromJson, Json, JsonError, ToJson};

use crate::params::SortParams;
use crate::recovery::{
    resume_sort_robust, simulate_sort_robust, simulate_sort_robust_checkpointed, RecoveryCounters,
    RobustConfig, RobustSortRun,
};
use crate::resilience::admission::{estimate_sort_seconds, AdmissionConfig, ShedPolicy};
use crate::resilience::breaker::{BreakerConfig, BreakerState, CircuitBreaker, Route};
use crate::resilience::budget::{RetryBudget, RetryBudgetConfig};
use crate::resilience::checkpoint::{CheckpointPolicy, SortCheckpoint};
use crate::sort::pipeline::SortAlgorithm;
use crate::sort::SortError;
use crate::telemetry::{MetricsRegistry, MetricsSnapshot};
use crate::tuning::{RungTier, TuningPolicy, TuningTable};

/// Handle to a job submitted to a [`SortService`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct JobId(u64);

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

/// What a job sorts: fresh input, or a checkpoint to resume.
enum Payload {
    Fresh { input: Vec<u32>, algo: SortAlgorithm },
    Resume { checkpoint: Box<SortCheckpoint> },
}

struct Job {
    id: JobId,
    label: String,
    payload: Payload,
    plan: FaultPlan,
    deadline_s: Option<f64>,
    cancelled: bool,
    checkpoint_policy: CheckpointPolicy,
    /// Set at admission time when the job was refused or shed; such jobs
    /// never execute, not even partially.
    pre_shed: Option<SortError>,
    /// Key count, for admission sizing.
    n: usize,
}

impl Job {
    fn admitted(&self) -> bool {
        self.pre_shed.is_none() && !self.cancelled
    }

    fn algo_label(&self) -> String {
        match &self.payload {
            Payload::Fresh { algo, .. } => algo.label().to_string(),
            Payload::Resume { checkpoint } => checkpoint.algorithm.clone(),
        }
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

/// Lifetime tallies of every resilience decision the service made.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ServiceCounters {
    /// Jobs ever submitted (sheds and cancels included).
    pub submitted: u64,
    /// Jobs the queue accepted (some may be shed later by
    /// [`ShedPolicy::RejectLargest`] / [`ShedPolicy::DeadlineAware`]).
    pub admitted: u64,
    /// Jobs that actually ran the robust driver.
    pub executed: u64,
    /// Executed jobs that returned a verified sorted output in deadline.
    pub verified_ok: u64,
    /// Executed jobs that ended in a typed error.
    pub failed: u64,
    /// Jobs cancelled before execution.
    pub cancelled: u64,
    /// Incoming jobs refused with [`SortError::Overloaded`].
    pub shed_overload: u64,
    /// Queued jobs evicted by [`ShedPolicy::RejectLargest`].
    pub shed_largest: u64,
    /// Queued jobs shed by [`ShedPolicy::DeadlineAware`].
    pub shed_deadline: u64,
    /// Submissions refused with [`SortError::InvalidDeadline`].
    pub invalid_deadline: u64,
    /// Jobs whose retry cap was reduced by the budget.
    pub budget_denied: u64,
    /// Breaker transitions into `Open`.
    pub breaker_opens: u64,
    /// Breaker transitions into `HalfOpen`.
    pub breaker_half_opens: u64,
    /// Breaker transitions into `Closed`.
    pub breaker_closes: u64,
    /// Jobs routed to the quarantine config by an open breaker.
    pub quarantined: u64,
    /// Jobs run as half-open breaker probes.
    pub probes: u64,
    /// Checkpoint-resume jobs executed.
    pub resumed: u64,
    /// Checkpoints captured across all jobs.
    pub checkpoints_taken: u64,
    /// Whole-device crash events observed by the cluster layer.
    pub device_crashes: u64,
    /// Devices that rejoined after a crash-with-restart cooldown.
    pub device_restarts: u64,
    /// Jobs that ended in a typed [`SortError::DeviceLost`].
    pub device_lost: u64,
    /// Checkpoint migrations that moved an interrupted job to a
    /// surviving device.
    pub migrations: u64,
    /// Migrations that could not complete ([`SortError::MigrationFailed`]).
    pub migrations_failed: u64,
    /// Jobs a free device stole from another device's queue.
    pub steals: u64,
    /// Fresh jobs whose launch config was selected from a tuning ladder.
    pub tuned_jobs: u64,
    /// Total rungs stepped down the ladder by open breakers.
    pub ladder_steps: u64,
    /// Jobs refused with [`SortError::Uncertified`]: no ladder for the
    /// pipeline/device, an empty ladder, or a ladder exhausted by open
    /// breakers. Such jobs never execute an uncertified config.
    pub uncertified_rejected: u64,
    /// Jobs routed to the canary candidate rung.
    pub canary_jobs: u64,
    /// Canary candidates rolled back (a failed or degraded canary run,
    /// or a candidate the ladder does not certify).
    pub canary_rollbacks: u64,
    /// Canary candidates promoted to the active rung.
    pub canary_promotions: u64,
}

impl ServiceCounters {
    /// Fold `other` into `self` field by field.
    pub fn merge(&mut self, other: &ServiceCounters) {
        self.submitted += other.submitted;
        self.admitted += other.admitted;
        self.executed += other.executed;
        self.verified_ok += other.verified_ok;
        self.failed += other.failed;
        self.cancelled += other.cancelled;
        self.shed_overload += other.shed_overload;
        self.shed_largest += other.shed_largest;
        self.shed_deadline += other.shed_deadline;
        self.invalid_deadline += other.invalid_deadline;
        self.budget_denied += other.budget_denied;
        self.breaker_opens += other.breaker_opens;
        self.breaker_half_opens += other.breaker_half_opens;
        self.breaker_closes += other.breaker_closes;
        self.quarantined += other.quarantined;
        self.probes += other.probes;
        self.resumed += other.resumed;
        self.checkpoints_taken += other.checkpoints_taken;
        self.device_crashes += other.device_crashes;
        self.device_restarts += other.device_restarts;
        self.device_lost += other.device_lost;
        self.migrations += other.migrations;
        self.migrations_failed += other.migrations_failed;
        self.steals += other.steals;
        self.tuned_jobs += other.tuned_jobs;
        self.ladder_steps += other.ladder_steps;
        self.uncertified_rejected += other.uncertified_rejected;
        self.canary_jobs += other.canary_jobs;
        self.canary_rollbacks += other.canary_rollbacks;
        self.canary_promotions += other.canary_promotions;
    }
}

impl ToJson for ServiceCounters {
    fn to_json(&self) -> Json {
        let mut pairs = vec![
            ("submitted", Json::from(self.submitted)),
            ("admitted", Json::from(self.admitted)),
            ("executed", Json::from(self.executed)),
            ("verified_ok", Json::from(self.verified_ok)),
            ("failed", Json::from(self.failed)),
            ("cancelled", Json::from(self.cancelled)),
            ("shed_overload", Json::from(self.shed_overload)),
            ("shed_largest", Json::from(self.shed_largest)),
            ("shed_deadline", Json::from(self.shed_deadline)),
            ("invalid_deadline", Json::from(self.invalid_deadline)),
            ("budget_denied", Json::from(self.budget_denied)),
            ("breaker_opens", Json::from(self.breaker_opens)),
            ("breaker_half_opens", Json::from(self.breaker_half_opens)),
            ("breaker_closes", Json::from(self.breaker_closes)),
            ("quarantined", Json::from(self.quarantined)),
            ("probes", Json::from(self.probes)),
            ("resumed", Json::from(self.resumed)),
            ("checkpoints_taken", Json::from(self.checkpoints_taken)),
            ("device_crashes", Json::from(self.device_crashes)),
            ("device_restarts", Json::from(self.device_restarts)),
            ("device_lost", Json::from(self.device_lost)),
            ("migrations", Json::from(self.migrations)),
            ("migrations_failed", Json::from(self.migrations_failed)),
            ("steals", Json::from(self.steals)),
        ];
        // Tuner-era fields are emitted only when nonzero, so every
        // artifact pinned before the tuner existed — and every run with
        // tuning off — stays bit-identical.
        for (name, value) in [
            ("tuned_jobs", self.tuned_jobs),
            ("ladder_steps", self.ladder_steps),
            ("uncertified_rejected", self.uncertified_rejected),
            ("canary_jobs", self.canary_jobs),
            ("canary_rollbacks", self.canary_rollbacks),
            ("canary_promotions", self.canary_promotions),
        ] {
            if value != 0 {
                pairs.push((name, Json::from(value)));
            }
        }
        Json::obj(pairs)
    }
}

impl FromJson for ServiceCounters {
    fn from_json(v: &Json) -> Result<Self, JsonError> {
        Ok(Self {
            submitted: v.field("submitted")?,
            admitted: v.field("admitted")?,
            executed: v.field("executed")?,
            verified_ok: v.field("verified_ok")?,
            failed: v.field("failed")?,
            cancelled: v.field("cancelled")?,
            shed_overload: v.field("shed_overload")?,
            shed_largest: v.field("shed_largest")?,
            shed_deadline: v.field("shed_deadline")?,
            invalid_deadline: v.field("invalid_deadline")?,
            budget_denied: v.field("budget_denied")?,
            breaker_opens: v.field("breaker_opens")?,
            breaker_half_opens: v.field("breaker_half_opens")?,
            breaker_closes: v.field("breaker_closes")?,
            quarantined: v.field("quarantined")?,
            probes: v.field("probes")?,
            resumed: v.field("resumed")?,
            checkpoints_taken: v.field("checkpoints_taken")?,
            // Cluster-era fields (PR 8): absent from older artifacts.
            device_crashes: v.field_opt("device_crashes")?.unwrap_or(0),
            device_restarts: v.field_opt("device_restarts")?.unwrap_or(0),
            device_lost: v.field_opt("device_lost")?.unwrap_or(0),
            migrations: v.field_opt("migrations")?.unwrap_or(0),
            migrations_failed: v.field_opt("migrations_failed")?.unwrap_or(0),
            steals: v.field_opt("steals")?.unwrap_or(0),
            // Tuner-era fields: omitted whenever zero.
            tuned_jobs: v.field_opt("tuned_jobs")?.unwrap_or(0),
            ladder_steps: v.field_opt("ladder_steps")?.unwrap_or(0),
            uncertified_rejected: v.field_opt("uncertified_rejected")?.unwrap_or(0),
            canary_jobs: v.field_opt("canary_jobs")?.unwrap_or(0),
            canary_rollbacks: v.field_opt("canary_rollbacks")?.unwrap_or(0),
            canary_promotions: v.field_opt("canary_promotions")?.unwrap_or(0),
        })
    }
}

/// Degradation-aware batch front-end over the robust driver: submit jobs
/// (optionally with fault plans, deadlines, and checkpoint policies),
/// cancel any of them, then [`SortService::drain`] executes the batch
/// deterministically and returns per-job typed outcomes.
pub struct SortService {
    config: RobustConfig,
    resilience: ResilienceConfig,
    jobs: Vec<Job>,
    next_id: u64,
    budget: RetryBudget,
    breakers: Vec<((String, usize, usize), CircuitBreaker)>,
    clock_s: f64,
    counters: ServiceCounters,
    /// Opt-in metrics (the zero-cost-observer pattern: `None` — the
    /// default — records nothing, and recording never feeds back into
    /// modeled time, so enabling telemetry leaves every job outcome and
    /// modeled second bit-identical).
    telemetry: Option<MetricsRegistry>,
    /// Opt-in certified auto-tuning (same pattern: `None` — the default
    /// — reproduces the legacy service bit for bit).
    tuning: Option<TuningState>,
}

/// Live state of an installed tuning ladder: the verified table, the
/// canary policy, and the per-pipeline active rung.
struct TuningState {
    table: TuningTable,
    policy: TuningPolicy,
    /// Active rung rank per pipeline label, initialized lazily from the
    /// base config's position on the ladder (rung 0 if the base config
    /// is not on it).
    active: Vec<(String, usize)>,
    /// Fresh admitted jobs seen so far — the deterministic canary clock.
    fresh_admitted: u64,
    /// Consecutive successful canary runs of the current candidate.
    canary_successes: u32,
    /// The candidate was promoted or rolled back; no more canaries fire.
    canary_retired: bool,
}

/// One ladder decision for one job.
struct TuningChoice {
    params: SortParams,
    rank: usize,
    degraded: bool,
    canary: bool,
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
            config,
            resilience,
            jobs: Vec::new(),
            next_id: 0,
            budget: RetryBudget::new(resilience.retry_budget),
            breakers: Vec::new(),
            clock_s: 0.0,
            counters: ServiceCounters::default(),
            telemetry: None,
            tuning: None,
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
        if let Err(why) = table.verify() {
            return Err(SortError::Uncertified {
                algo: "*".to_string(),
                device: self.config.base.device.name.clone(),
                why,
            });
        }
        self.tuning = Some(TuningState {
            table,
            policy,
            active: Vec::new(),
            fresh_admitted: 0,
            canary_successes: 0,
            canary_retired: false,
        });
        Ok(())
    }

    /// Ladder admission for one fresh job: pick the active rung (or the
    /// canary candidate on its deterministic cadence), or fail closed.
    /// Only called when tuning is installed.
    fn tuning_select(&mut self, algo: &str) -> Result<TuningChoice, SortError> {
        let device = self.config.base.device.name.clone();
        let base = self.config.base.params;
        let state = self.tuning.as_mut().expect("caller checked tuning is installed");
        let Some(ladder) = state.table.ladder_for(&device, algo) else {
            return Err(SortError::Uncertified {
                algo: algo.to_string(),
                device,
                why: "no ladder for this pipeline/device in the tuning table".to_string(),
            });
        };
        if ladder.rungs.is_empty() {
            let why = match ladder.excluded.first() {
                Some(x) => format!(
                    "the ladder has no certified rungs (e.g. E={}, u={} excluded: {})",
                    x.e, x.u, x.reason
                ),
                None => "the ladder has no certified rungs".to_string(),
            };
            return Err(SortError::Uncertified { algo: algo.to_string(), device, why });
        }
        // Lazy active-rank init: start from the base config's rung when
        // the ladder certifies it, else from the ladder's best rung.
        let active_rank = match state.active.iter().find(|(a, _)| a == algo) {
            Some((_, rank)) => *rank,
            None => {
                let rank = ladder.rung_for(base).map_or(0, |rg| rg.rank);
                state.active.push((algo.to_string(), rank));
                rank
            }
        };
        state.fresh_admitted += 1;

        // Deterministic canary: on its cadence, probe the candidate rung
        // instead of the active one. A candidate the ladder does not
        // certify is rejected (a rollback) the first time it would fire.
        if let Some(canary) = state.policy.canary {
            if !state.canary_retired && canary.fires_on(state.fresh_admitted) {
                match ladder.rung_for(canary.candidate) {
                    Some(rung) if rung.rank != active_rank => {
                        return Ok(TuningChoice {
                            params: rung.params(),
                            rank: rung.rank,
                            degraded: rung.tier == RungTier::Degraded,
                            canary: true,
                        });
                    }
                    Some(_) => {
                        // Candidate is already the active rung: nothing
                        // to probe, retire the policy quietly.
                        state.canary_retired = true;
                    }
                    None => {
                        state.canary_retired = true;
                        self.counters.canary_rollbacks += 1;
                    }
                }
            }
        }

        let rung = &ladder.rungs[active_rank];
        Ok(TuningChoice {
            params: rung.params(),
            rank: rung.rank,
            degraded: rung.tier == RungTier::Degraded,
            canary: false,
        })
    }

    /// The breaker at `from_rank` is open: walk down the ladder to the
    /// first rung whose own breaker is not open, or fail closed when the
    /// ladder is exhausted. Returns the substitute choice and the number
    /// of rungs stepped.
    fn tuning_step_down(
        &mut self,
        algo: &str,
        from_rank: usize,
    ) -> Result<(TuningChoice, u64), SortError> {
        // Snapshot the open breakers first (disjoint from tuning state).
        let open: Vec<(usize, usize)> = self
            .breakers
            .iter()
            .filter(|((label, _, _), b)| label == algo && b.state() == BreakerState::Open)
            .map(|((_, e, u), _)| (*e, *u))
            .collect();
        let device = self.config.base.device.name.clone();
        let state = self.tuning.as_ref().expect("caller checked tuning is installed");
        let ladder = state
            .table
            .ladder_for(&device, algo)
            .expect("step-down only happens after a successful select");
        for rung in &ladder.rungs[from_rank + 1..] {
            if !open.contains(&(rung.e, rung.u)) {
                return Ok((
                    TuningChoice {
                        params: rung.params(),
                        rank: rung.rank,
                        degraded: rung.tier == RungTier::Degraded,
                        canary: false,
                    },
                    (rung.rank - from_rank) as u64,
                ));
            }
        }
        Err(SortError::Uncertified {
            algo: algo.to_string(),
            device,
            why: format!(
                "degradation ladder exhausted below rung {from_rank}: every lower rung's \
                 breaker is open"
            ),
        })
    }

    /// Lifetime resilience tallies.
    #[must_use]
    pub fn counters(&self) -> &ServiceCounters {
        &self.counters
    }

    /// Switch telemetry on: from here on the service records queue depth
    /// at admission, per-job end-to-end latency (modeled seconds),
    /// breaker transitions, retry-budget level, and the per-job recovery
    /// counters into a [`MetricsRegistry`]. Purely observational — job
    /// outcomes and modeled time are unchanged.
    pub fn enable_telemetry(&mut self) {
        if self.telemetry.is_none() {
            self.telemetry = Some(MetricsRegistry::new());
        }
    }

    /// Frozen view of the telemetry recorded so far (`None` unless
    /// [`SortService::enable_telemetry`] was called).
    #[must_use]
    pub fn telemetry_snapshot(&self) -> Option<MetricsSnapshot> {
        self.telemetry.as_ref().map(MetricsRegistry::snapshot)
    }

    /// The modeled service clock: the sum of every executed job's
    /// simulated seconds so far.
    #[must_use]
    pub fn clock_s(&self) -> f64 {
        self.clock_s
    }

    /// Advance the service clock to the cluster's global event time (a
    /// device that sat idle still saw its retry budget refill and its
    /// breaker cooldowns tick). Never moves the clock backwards, and is
    /// a no-op in the single-device batch pattern where dispatch times
    /// coincide with the accumulated clock — which is exactly why N=1
    /// fault-free cluster runs stay bit-identical to [`SortService`].
    pub(crate) fn sync_clock(&mut self, now_s: f64) {
        if now_s > self.clock_s {
            self.clock_s = now_s;
        }
    }

    /// Retry tokens currently in the budget (`None` when unlimited).
    #[must_use]
    pub fn budget_tokens(&self) -> Option<f64> {
        self.budget.tokens()
    }

    /// Snapshot of every breaker the service has instantiated:
    /// `(pipeline label, E, u, state, opens)`.
    #[must_use]
    pub fn breaker_snapshots(&self) -> Vec<(String, usize, usize, BreakerState, u64)> {
        self.breakers
            .iter()
            .map(|((label, e, u), b)| (label.clone(), *e, *u, b.state(), b.opens()))
            .collect()
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
        let n = input.len();
        self.enqueue(Job {
            id: JobId(0), // assigned by enqueue
            label: label.to_string(),
            payload: Payload::Fresh { input, algo },
            plan,
            deadline_s,
            cancelled: false,
            checkpoint_policy: policy,
            pre_shed: None,
            n,
        })
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
        let n = checkpoint.n;
        self.enqueue(Job {
            id: JobId(0),
            label: label.to_string(),
            payload: Payload::Resume { checkpoint: Box::new(checkpoint) },
            plan,
            deadline_s,
            cancelled: false,
            checkpoint_policy: CheckpointPolicy::default(),
            pre_shed: None,
            n,
        })
    }

    /// Assign an id, run admission control, and queue the job. Ids are
    /// monotonically increasing for the lifetime of the service — they
    /// are never reused across batches, so a stale handle from a drained
    /// batch can never cancel a newer job.
    fn enqueue(&mut self, mut job: Job) -> JobId {
        job.id = JobId(self.next_id);
        self.next_id += 1;
        self.counters.submitted += 1;

        // Deadline sanity comes first: a NaN or negative deadline is a
        // caller bug, not load.
        if let Some(d) = job.deadline_s {
            if !d.is_finite() || d < 0.0 {
                self.counters.invalid_deadline += 1;
                job.pre_shed = Some(SortError::InvalidDeadline { deadline_s: d });
                let id = job.id;
                self.jobs.push(job);
                self.record_admission(false);
                return id;
            }
        }

        match self.resilience.admission.capacity {
            Some(capacity) if self.admitted_count() >= capacity => {
                self.apply_shed_policy(&mut job, capacity);
            }
            _ => {}
        }
        let admitted = job.pre_shed.is_none();
        if admitted {
            self.counters.admitted += 1;
        }
        let id = job.id;
        self.jobs.push(job);
        self.record_admission(admitted);
        id
    }

    /// Telemetry hook for one admission event: the submission counter and
    /// the queue depth *after* the decision, both as a histogram sample
    /// (the time series the ROADMAP's traffic-scale work wants) and as a
    /// last-value gauge.
    fn record_admission(&mut self, admitted: bool) {
        if self.telemetry.is_none() {
            return;
        }
        let depth = self.admitted_count() as u64;
        let reg = self.telemetry.as_mut().expect("checked above");
        reg.inc("service_jobs_submitted_total", 1);
        if admitted {
            reg.inc("service_jobs_admitted_total", 1);
        }
        reg.observe("service_queue_depth_at_admission", depth);
        reg.set_gauge("service_queue_depth", depth as f64);
    }

    fn admitted_count(&self) -> usize {
        self.jobs.iter().filter(|j| j.admitted()).count()
    }

    /// The queue is full: decide who pays, per the configured policy.
    fn apply_shed_policy(&mut self, incoming: &mut Job, capacity: usize) {
        match self.resilience.admission.policy {
            ShedPolicy::RejectNewest => {
                self.counters.shed_overload += 1;
                incoming.pre_shed = Some(SortError::Overloaded { capacity });
            }
            ShedPolicy::RejectLargest => {
                // Evict the largest queued job (ties to the newest) if it
                // is at least as large as the incoming one.
                let victim = self
                    .jobs
                    .iter()
                    .enumerate()
                    .filter(|(_, j)| j.admitted() && j.n >= incoming.n)
                    .max_by_key(|(i, j)| (j.n, *i))
                    .map(|(i, _)| i);
                match victim {
                    Some(i) => {
                        self.counters.shed_largest += 1;
                        let n = self.jobs[i].n;
                        self.jobs[i].pre_shed = Some(SortError::Shed {
                            policy: ShedPolicy::RejectLargest.label(),
                            reason: format!(
                                "evicted ({n} keys) for a newer {}-key job with the queue at \
                                 capacity {capacity}",
                                incoming.n
                            ),
                        });
                    }
                    None => {
                        self.counters.shed_overload += 1;
                        incoming.pre_shed = Some(SortError::Overloaded { capacity });
                    }
                }
            }
            ShedPolicy::DeadlineAware => {
                // Shed queued jobs that provably cannot meet their own
                // deadline: the optimistic lower-bound estimate already
                // exceeds it, so running them would only burn modeled
                // time ahead of feasible work.
                let mut shed_any = false;
                for j in &mut self.jobs {
                    if !j.admitted() {
                        continue;
                    }
                    if let Some(d) = j.deadline_s {
                        let floor = estimate_sort_seconds(j.n, &self.config.base);
                        if floor > d {
                            shed_any = true;
                            self.counters.shed_deadline += 1;
                            j.pre_shed = Some(SortError::Shed {
                                policy: ShedPolicy::DeadlineAware.label(),
                                reason: format!(
                                    "deadline {d:.3e}s unreachable: optimistic lower bound is \
                                     {floor:.3e}s"
                                ),
                            });
                        }
                    }
                }
                if !shed_any {
                    self.counters.shed_overload += 1;
                    incoming.pre_shed = Some(SortError::Overloaded { capacity });
                }
            }
        }
    }

    /// Cancel a pending job. Returns `false` if the id is unknown (or the
    /// batch containing it already ran).
    pub fn cancel(&mut self, id: JobId) -> bool {
        match self.jobs.iter_mut().find(|j| j.id == id) {
            Some(job) => {
                job.cancelled = true;
                true
            }
            None => false,
        }
    }

    /// Number of jobs waiting in the current batch (cancelled and shed
    /// included — they still produce an outcome).
    #[must_use]
    pub fn pending(&self) -> usize {
        self.jobs.len()
    }

    /// Execute every submitted job and drain the batch. Outcomes come
    /// back in submission order; cancelled jobs yield
    /// [`SortError::Cancelled`] and shed jobs their typed shed error,
    /// without running. Deterministic: jobs run sequentially in
    /// submission order and all scheduling is in modeled time.
    pub fn drain(&mut self) -> Vec<JobOutcome> {
        let jobs = std::mem::take(&mut self.jobs);
        jobs.into_iter().map(|job| self.execute(job)).collect()
    }

    fn breaker_for(&mut self, key: (String, usize, usize)) -> &mut CircuitBreaker {
        if let Some(i) = self.breakers.iter().position(|(k, _)| *k == key) {
            return &mut self.breakers[i].1;
        }
        self.breakers.push((key, CircuitBreaker::new()));
        &mut self.breakers.last_mut().expect("just pushed").1
    }

    /// Tally breaker transitions that happened after index `from`.
    fn tally_breaker_transitions(&mut self, key: &(String, usize, usize), from: usize) {
        let Some((_, b)) = self.breakers.iter().find(|(k, _)| k == key) else { return };
        for t in &b.transitions()[from..] {
            let name = match t.to {
                BreakerState::Open => {
                    self.counters.breaker_opens += 1;
                    "service_breaker_opens_total"
                }
                BreakerState::HalfOpen => {
                    self.counters.breaker_half_opens += 1;
                    "service_breaker_half_opens_total"
                }
                BreakerState::Closed => {
                    self.counters.breaker_closes += 1;
                    "service_breaker_closes_total"
                }
            };
            if let Some(reg) = &mut self.telemetry {
                reg.inc(name, 1);
            }
        }
    }

    fn execute(&mut self, job: Job) -> JobOutcome {
        if let Some(err) = job.pre_shed {
            if let Some(reg) = &mut self.telemetry {
                reg.inc("service_jobs_shed_total", 1);
            }
            return JobOutcome {
                id: job.id,
                label: job.label,
                result: Err(err),
                quarantined: false,
                probe: false,
                degraded: false,
                canary: false,
                tuned: None,
                retries_granted: 0,
                checkpoints: Vec::new(),
            };
        }
        if job.cancelled {
            self.counters.cancelled += 1;
            if let Some(reg) = &mut self.telemetry {
                reg.inc("service_jobs_cancelled_total", 1);
            }
            return JobOutcome {
                id: job.id,
                label: job.label,
                result: Err(SortError::Cancelled),
                quarantined: false,
                probe: false,
                degraded: false,
                canary: false,
                tuned: None,
                retries_granted: 0,
                checkpoints: Vec::new(),
            };
        }

        // Ladder admission (only when tuning is installed): fresh jobs
        // launch on their pipeline's active rung — or the canary
        // candidate on its deterministic cadence — and requests the
        // ladder cannot certify fail closed before touching the
        // breakers or the budget. Resumes stay pinned to their
        // checkpoint's launch config.
        let is_resume = matches!(job.payload, Payload::Resume { .. });
        let mut choice: Option<TuningChoice> = None;
        if self.tuning.is_some() && !is_resume {
            match self.tuning_select(&job.algo_label()) {
                Ok(c) => choice = Some(c),
                Err(err) => {
                    self.counters.uncertified_rejected += 1;
                    if let Some(reg) = &mut self.telemetry {
                        reg.inc("service_uncertified_rejected_total", 1);
                    }
                    return JobOutcome {
                        id: job.id,
                        label: job.label,
                        result: Err(err),
                        quarantined: false,
                        probe: false,
                        degraded: false,
                        canary: false,
                        tuned: None,
                        retries_granted: 0,
                        checkpoints: Vec::new(),
                    };
                }
            }
        }
        self.counters.executed += 1;

        // Breaker routing on the rung (or legacy base config) the job
        // was admitted at. Resumes bypass the breaker entirely: they
        // can neither be quarantined (the checkpoint's shape would not
        // match) nor serve as probes. Canary jobs also bypass it — a
        // probe of the candidate rung must not perturb breaker state.
        let routed_params = choice.as_ref().map_or(self.config.base.params, |c| c.params);
        let is_canary = choice.as_ref().is_some_and(|c| c.canary);
        let key = (job.algo_label(), routed_params.e, routed_params.u);
        let transitions_before =
            self.breakers.iter().find(|(k, _)| *k == key).map_or(0, |(_, b)| b.transitions().len());
        let route = if self.resilience.breaker.enabled && !is_resume && !is_canary {
            let now = self.clock_s;
            self.breaker_for(key.clone()).route(now)
        } else {
            Route::Normal
        };
        let quarantined = route == Route::Quarantine;
        let probe = route == Route::Probe;
        if quarantined {
            self.counters.quarantined += 1;
        }
        if probe {
            self.counters.probes += 1;
        }

        // An open breaker quarantines the job. A tuned service steps
        // DOWN the ladder to the first rung whose own breaker is not
        // open — failing closed when the ladder is exhausted — while
        // the legacy service substitutes the known-good constant.
        let mut preempt: Option<SortError> = None;
        let mut exec_params = routed_params;
        if quarantined {
            match &choice {
                Some(c) => match self.tuning_step_down(&job.algo_label(), c.rank) {
                    Ok((sub, steps)) => {
                        self.counters.ladder_steps += steps;
                        exec_params = sub.params;
                        choice = Some(sub);
                    }
                    Err(err) => {
                        self.counters.uncertified_rejected += 1;
                        preempt = Some(err);
                    }
                },
                None => exec_params = SortParams::known_good_default(),
            }
        }
        let preempted = preempt.is_some();

        // Which breaker the outcome feeds: the executed rung's. A
        // legacy quarantined run feeds nothing (a known-good run says
        // nothing about the poisoned config), but a tuned stepped-down
        // run DOES feed the rung it executed on — that is what lets a
        // persistent fault cascade breakers open down the ladder.
        let feed_key: Option<(String, usize, usize)> =
            if !self.resilience.breaker.enabled || is_resume || is_canary || preempted {
                None
            } else if quarantined {
                choice.as_ref().map(|_| (job.algo_label(), exec_params.e, exec_params.u))
            } else {
                Some(key.clone())
            };
        let feed_transitions_before = feed_key.as_ref().filter(|fk| **fk != key).map(|fk| {
            self.breakers.iter().find(|(k, _)| k == fk).map_or(0, |(_, b)| b.transitions().len())
        });

        // Budget grant: the effective per-block retry cap for this job.
        // A preempted job executes nothing and draws no tokens.
        self.budget.advance_to(self.clock_s);
        let want = self.config.max_retries;
        let granted = if preempted { 0 } else { self.budget.grant(want) };
        if !preempted && granted < want {
            self.counters.budget_denied += 1;
        }

        let mut cfg = self.config.clone();
        cfg.max_retries = granted;
        cfg.base.params = exec_params;

        let mut checkpoints = Vec::new();
        let result = match preempt {
            Some(err) => Err(err),
            None => match &job.payload {
                Payload::Resume { checkpoint } => {
                    self.counters.resumed += 1;
                    resume_sort_robust::<u32>(checkpoint, &cfg, &job.plan)
                }
                Payload::Fresh { input, algo } if !job.checkpoint_policy.is_noop() => {
                    simulate_sort_robust_checkpointed(
                        input,
                        *algo,
                        &cfg,
                        &job.plan,
                        job.checkpoint_policy,
                    )
                    .map(|(run, taken)| {
                        checkpoints = taken;
                        run
                    })
                }
                Payload::Fresh { input, algo } => {
                    simulate_sort_robust(input, *algo, &cfg, &job.plan)
                }
            },
        };
        self.counters.checkpoints_taken += checkpoints.len() as u64;

        // Settle the budget and the breaker on the run's real outcome,
        // then advance the modeled clock.
        let elapsed = match &result {
            Ok(run) => {
                self.budget.debit(run.report.counters.retries);
                run.run.simulated_seconds
            }
            Err(_) => 0.0,
        };
        if let Some(fk) = &feed_key {
            // Success means the executed config carried the job without
            // pipeline-level degradation; a fallback rescue is a health
            // failure of the config even though the job's output is fine.
            let success = match &result {
                Ok(run) => run.report.counters.fallbacks == 0,
                Err(_) => false,
            };
            let at = self.clock_s + elapsed;
            let bc = self.resilience.breaker;
            self.breaker_for(fk.clone()).on_outcome(success, at, &bc);
        }
        self.tally_breaker_transitions(&key, transitions_before);
        if let (Some(fk), Some(before)) = (&feed_key, feed_transitions_before) {
            // The stepped-down rung's breaker is a different one; the
            // filter above guarantees this never double-tallies.
            self.tally_breaker_transitions(fk, before);
        }
        self.clock_s += elapsed;

        // Deadline enforcement on the exact modeled duration.
        let result = result.and_then(|run| match job.deadline_s {
            Some(d) if run.run.simulated_seconds > d => Err(SortError::DeadlineExceeded {
                deadline_s: d,
                needed_s: run.run.simulated_seconds,
            }),
            _ => Ok(run),
        });
        match &result {
            Ok(_) => self.counters.verified_ok += 1,
            Err(_) => self.counters.failed += 1,
        }

        // Canary settlement: a clean run (verified, no fallback rescue,
        // deadline met) extends the candidate's streak and promotes it
        // to the active rung at the configured length; anything else
        // rolls the candidate back — the previously active rung simply
        // stays active, which is the whole rollback.
        if is_canary {
            self.counters.canary_jobs += 1;
            let success = match &result {
                Ok(run) => run.report.counters.fallbacks == 0,
                Err(_) => false,
            };
            let algo = job.algo_label();
            let state = self.tuning.as_mut().expect("canary implies tuning");
            if success {
                state.canary_successes += 1;
                let streak = state.canary_successes;
                if state.policy.canary.is_some_and(|c| streak >= c.promote_after) {
                    let rank = choice.as_ref().expect("canary implies a choice").rank;
                    if let Some(slot) = state.active.iter_mut().find(|(a, _)| *a == algo) {
                        slot.1 = rank;
                    }
                    state.canary_retired = true;
                    self.counters.canary_promotions += 1;
                }
            } else {
                state.canary_retired = true;
                self.counters.canary_rollbacks += 1;
            }
        }

        let tuned = if choice.is_some() && !preempted { Some(exec_params) } else { None };
        let degraded = choice.as_ref().is_some_and(|c| c.degraded) && !preempted;
        if tuned.is_some() {
            self.counters.tuned_jobs += 1;
        }

        // Telemetry settles last, from the same values the outcome is
        // built from — never the other way around.
        if let Some(reg) = &mut self.telemetry {
            reg.inc("service_jobs_executed_total", 1);
            if quarantined {
                reg.inc("service_quarantined_total", 1);
            }
            if probe {
                reg.inc("service_probes_total", 1);
            }
            if tuned.is_some() {
                reg.inc("service_tuned_jobs_total", 1);
            }
            if degraded {
                reg.inc("service_degraded_jobs_total", 1);
            }
            if is_canary {
                reg.inc("service_canary_jobs_total", 1);
            }
            if !preempted && granted < want {
                reg.inc("service_budget_denied_total", 1);
            }
            match &result {
                Ok(run) => {
                    reg.inc("service_jobs_verified_total", 1);
                    reg.observe_seconds("service_job_latency_seconds", run.run.simulated_seconds);
                    reg.record_recovery("service", &run.report.counters);
                }
                Err(SortError::UnrecoverableFault { .. }) => {
                    reg.inc("service_jobs_failed_total", 1);
                    reg.inc("service_unrecovered_total", 1);
                }
                Err(_) => reg.inc("service_jobs_failed_total", 1),
            }
            if let Some(tokens) = self.budget.tokens() {
                reg.set_gauge("service_retry_budget_tokens", tokens);
            }
            reg.set_gauge("service_clock_seconds", self.clock_s);
        }

        JobOutcome {
            id: job.id,
            label: job.label,
            result,
            quarantined,
            probe,
            degraded,
            canary: is_canary,
            tuned,
            retries_granted: granted,
            checkpoints,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::inputs::InputSpec;
    use crate::params::SortParams;
    use crate::sort::pipeline::SortConfig;
    use cfmerge_gpu_sim::fault::{FaultKind, FaultSite, Persistence};

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
