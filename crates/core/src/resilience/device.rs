//! The executor both service doors share: one simulated device running
//! queued jobs through the robust driver.
//!
//! A [`Device`] owns everything that outlives a single job on it — the
//! per-(pipeline, launch-config) circuit breakers, the retry budget, the
//! tuning ladder, the modeled clock, the executor counters, and the
//! `service_*` executor telemetry. [`SortService`] is a queue in front
//! of one device; [`ClusterService`] drives one device per fleet slot.
//! Neither door executes anything itself.
//!
//! [`SortService`]: crate::resilience::service::SortService
//! [`ClusterService`]: crate::resilience::cluster::ClusterService

use cfmerge_gpu_sim::fault::FaultPlan;

use crate::params::SortParams;
use crate::recovery::{
    resume_sort_robust, simulate_sort_robust, simulate_sort_robust_checkpointed, RobustConfig,
};
use crate::resilience::admission::Ticket;
use crate::resilience::breaker::{BreakerConfig, BreakerState, CircuitBreaker, Route};
use crate::resilience::budget::RetryBudget;
use crate::resilience::checkpoint::{CheckpointPolicy, SortCheckpoint};
use crate::resilience::service::{JobId, JobOutcome, ResilienceConfig, ServiceCounters};
use crate::sort::pipeline::SortAlgorithm;
use crate::sort::SortError;
use crate::telemetry::MetricsRegistry;
use crate::tuning::{RungTier, TuningPolicy, TuningRung, TuningTable};

/// What a queued job sorts: fresh input, or a checkpoint to resume.
#[derive(Debug)]
pub(crate) enum Work {
    Fresh { input: Vec<u32>, algo: SortAlgorithm },
    Resume { checkpoint: Box<SortCheckpoint> },
}

/// One job waiting in either door's queue.
#[derive(Debug)]
pub(crate) struct QueuedJob {
    pub label: String,
    pub work: Work,
    pub plan: FaultPlan,
    pub deadline_s: Option<f64>,
    pub checkpoint_policy: CheckpointPolicy,
    /// Key count, for admission sizing and migration pricing.
    pub n: usize,
}

impl QueuedJob {
    pub(crate) fn fresh(
        label: &str,
        input: Vec<u32>,
        algo: SortAlgorithm,
        plan: FaultPlan,
        deadline_s: Option<f64>,
        checkpoint_policy: CheckpointPolicy,
    ) -> Self {
        let n = input.len();
        let work = Work::Fresh { input, algo };
        Self { label: label.to_string(), work, plan, deadline_s, checkpoint_policy, n }
    }

    pub(crate) fn resume(
        label: &str,
        checkpoint: SortCheckpoint,
        plan: FaultPlan,
        deadline_s: Option<f64>,
    ) -> Self {
        let n = checkpoint.n;
        let work = Work::Resume { checkpoint: Box::new(checkpoint) };
        let checkpoint_policy = CheckpointPolicy::default();
        Self { label: label.to_string(), work, plan, deadline_s, checkpoint_policy, n }
    }

    pub(crate) fn is_resume(&self) -> bool {
        matches!(self.work, Work::Resume { .. })
    }

    /// The job as admission sees it; `seq` orders it among its queue.
    pub(crate) fn ticket(&self, seq: u64) -> Ticket {
        Ticket { n: self.n, deadline_s: self.deadline_s, seq }
    }

    fn algo_label(&self) -> String {
        match &self.work {
            Work::Fresh { algo, .. } => algo.label().to_string(),
            Work::Resume { checkpoint } => checkpoint.algorithm.clone(),
        }
    }
}

/// Fail-closed tuning-table check shared by both doors: a schema or
/// checksum mismatch refuses the install.
pub(crate) fn verify_table(table: &TuningTable, device: &str) -> Result<(), SortError> {
    table.verify().map_err(|why| SortError::Uncertified {
        algo: "*".to_string(),
        device: device.to_string(),
        why,
    })
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

impl TuningChoice {
    fn of(rung: &TuningRung, canary: bool) -> Self {
        let degraded = rung.tier == RungTier::Degraded;
        Self { params: rung.params(), rank: rung.rank, degraded, canary }
    }
}

/// One simulated device: the robust driver plus the breaker, budget,
/// ladder and clock state that carry from job to job.
pub(crate) struct Device {
    config: RobustConfig,
    breaker: BreakerConfig,
    budget: RetryBudget,
    breakers: Vec<((String, usize, usize), CircuitBreaker)>,
    clock_s: f64,
    pub(crate) counters: ServiceCounters,
    /// Opt-in metrics (the zero-cost-observer pattern: `None` — the
    /// default — records nothing, and recording never feeds back into
    /// modeled time, so enabling telemetry leaves every job outcome and
    /// modeled second bit-identical).
    pub(crate) telemetry: Option<MetricsRegistry>,
    /// Opt-in certified auto-tuning (same pattern: `None` — the default
    /// — reproduces the untuned device bit for bit).
    tuning: Option<TuningState>,
}

impl Device {
    /// A device running every job under `config`, with the breaker and
    /// retry-budget policy of `resilience` (its admission bound belongs
    /// to the door, not the device).
    pub(crate) fn new(config: RobustConfig, resilience: &ResilienceConfig) -> Self {
        Self {
            config,
            breaker: resilience.breaker,
            budget: RetryBudget::new(resilience.retry_budget),
            breakers: Vec::new(),
            clock_s: 0.0,
            counters: ServiceCounters::default(),
            telemetry: None,
            tuning: None,
        }
    }

    pub(crate) fn config(&self) -> &RobustConfig {
        &self.config
    }

    /// The modeled clock: every executed job's simulated seconds, plus
    /// any idle time the caller's clock skipped over.
    pub(crate) fn clock_s(&self) -> f64 {
        self.clock_s
    }

    /// Install an already verified tuning table (see [`verify_table`]).
    pub(crate) fn set_tuning(&mut self, table: TuningTable, policy: TuningPolicy) {
        self.tuning = Some(TuningState {
            table,
            policy,
            active: Vec::new(),
            fresh_admitted: 0,
            canary_successes: 0,
            canary_retired: false,
        });
    }

    pub(crate) fn budget_tokens(&self) -> Option<f64> {
        self.budget.tokens()
    }

    pub(crate) fn breaker_snapshots(&self) -> Vec<(String, usize, usize, BreakerState, u64)> {
        self.breakers
            .iter()
            .map(|((label, e, u), b)| (label.clone(), *e, *u, b.state(), b.opens()))
            .collect()
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
                        return Ok(TuningChoice::of(rung, true));
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

        Ok(TuningChoice::of(&ladder.rungs[active_rank], false))
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
                return Ok((TuningChoice::of(rung, false), (rung.rank - from_rank) as u64));
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

    /// Run one admitted job, starting no earlier than `now_s` on the
    /// caller's clock. An idle device still saw that time pass: budget
    /// refill and breaker cooldowns are functions of the modeled clock,
    /// which therefore first advances to `now_s` (never backwards).
    pub(crate) fn execute(&mut self, id: JobId, job: QueuedJob, now_s: f64) -> JobOutcome {
        self.clock_s = self.clock_s.max(now_s);

        // Ladder admission (only when tuning is installed): fresh jobs
        // launch on their pipeline's active rung — or the canary
        // candidate on its deterministic cadence — and requests the
        // ladder cannot certify fail closed before touching the
        // breakers or the budget. Resumes stay pinned to their
        // checkpoint's launch config.
        let is_resume = job.is_resume();
        let mut choice: Option<TuningChoice> = None;
        if self.tuning.is_some() && !is_resume {
            match self.tuning_select(&job.algo_label()) {
                Ok(c) => choice = Some(c),
                Err(err) => {
                    self.counters.uncertified_rejected += 1;
                    if let Some(reg) = &mut self.telemetry {
                        reg.inc("service_uncertified_rejected_total", 1);
                    }
                    return JobOutcome::unrun(id, job.label, err);
                }
            }
        }
        self.counters.executed += 1;

        // Breaker routing on the rung (or untuned base config) the job
        // was admitted at. Resumes bypass the breaker entirely: they
        // can neither be quarantined (the checkpoint's shape would not
        // match) nor serve as probes. Canary jobs also bypass it — a
        // probe of the candidate rung must not perturb breaker state.
        let routed_params = choice.as_ref().map_or(self.config.base.params, |c| c.params);
        let is_canary = choice.as_ref().is_some_and(|c| c.canary);
        let key = (job.algo_label(), routed_params.e, routed_params.u);
        let transitions_before =
            self.breakers.iter().find(|(k, _)| *k == key).map_or(0, |(_, b)| b.transitions().len());
        let route = if self.breaker.enabled && !is_resume && !is_canary {
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

        // An open breaker quarantines the job. A tuned device steps
        // DOWN the ladder to the first rung whose own breaker is not
        // open — failing closed when the ladder is exhausted — while
        // an untuned one substitutes the known-good constant.
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

        // Which breaker the outcome feeds: the executed rung's. An
        // untuned quarantined run feeds nothing (a known-good run says
        // nothing about the poisoned config), but a tuned stepped-down
        // run DOES feed the rung it executed on — that is what lets a
        // persistent fault cascade breakers open down the ladder.
        let feed_key: Option<(String, usize, usize)> =
            if !self.breaker.enabled || is_resume || is_canary || preempted {
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
            None => match &job.work {
                Work::Resume { checkpoint } => {
                    self.counters.resumed += 1;
                    resume_sort_robust::<u32>(checkpoint, &cfg, &job.plan)
                }
                Work::Fresh { input, algo } if !job.checkpoint_policy.is_noop() => {
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
                Work::Fresh { input, algo } => simulate_sort_robust(input, *algo, &cfg, &job.plan),
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
            let bc = self.breaker;
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
            id,
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
