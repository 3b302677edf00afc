//! The pipeline driver: verified, block-granular execution of either
//! sort pipeline, with recovery and graceful degradation.
//!
//! Every entry point runs through this one driver: the plain
//! [`simulate_sort`](crate::sort::simulate_sort) family (no faults, no
//! retries, no fallback) and the robust trio [`simulate_sort_robust`],
//! [`simulate_sort_robust_checkpointed`] and [`resume_sort_robust`].
//! Every block's output is verified (sortedness + multiset checksum, see
//! [`crate::verify`]), and failures are recovered at block granularity:
//!
//! 1. **Retry**: a block whose output fails verification is re-executed
//!    up to [`RobustConfig::max_retries`] times. Each retry is priced in
//!    the timing model (the failed execution's profile becomes an extra
//!    launch) plus exponential backoff
//!    (`retry_backoff_s · 2^(r−1)` for retry `r`).
//! 2. **Fallback**: a block that keeps failing — or a configuration that
//!    cannot launch at all — degrades to the Thrust-style pipeline
//!    (substituting Thrust's shipped `(E, u)` when the requested shape is
//!    unlaunchable). Every degradation is reported in the
//!    [`RecoveryReport`]; nothing degrades silently.
//! 3. **Typed failure**: a fault that survives both retries and fallback
//!    (a [`Persistence::Permanent`](cfmerge_gpu_sim::fault::Persistence)
//!    site) surfaces as
//!    [`SortError::UnrecoverableFault`] — never as silently corrupt
//!    output.
//!
//! Every block runs under one pair of hooks (see [`Hooks`]): its
//! observer, then its injector. A block whose [`FaultPlan`] arms no site
//! pairs its observer with the null hooks `()`, so with an empty plan and
//! the null observer every block takes the zero-cost fault-free path and
//! verification is the only work added.
//!
//! Within one launch, fault-free blocks whose observer does not set
//! [`Hooks::OBSERVES`] form **classes** of identical order pattern. One
//! representative per class is simulated and its profile is reused for
//! every member; each member's output is the host reference, and the
//! class's last member is simulated again as an audit. Nothing is cached
//! across launches.
//!
//! See `docs/ROBUSTNESS.md` for the full design.

use crate::params::SortParams;
use crate::resilience::checkpoint::{CheckpointPolicy, SortCheckpoint};
use crate::resilience::hedge::{HedgeConfig, HedgeCounters};
use crate::sort::blocksort::blocksort_block_faulty;
use crate::sort::error::{validate_sort_config, Degradation, SortError};
use crate::sort::key::SortKey;
use crate::sort::merge_pass::{merge_pass_block_faulty, MergeChunkJob};
use crate::sort::pipeline::{sort_trace, KernelReport, SortAlgorithm, SortConfig, SortRun};
use crate::telemetry::counter_set;
use crate::verify::{multiset_checksum, verify_sorted_checksum, VerifyFailure};
use cfmerge_gpu_sim::block::Hooks;
use cfmerge_gpu_sim::fault::{FaultPlan, InjectionRecord};
use cfmerge_gpu_sim::global::SECTOR_WORDS;
use cfmerge_gpu_sim::profiler::{KernelProfile, PhaseClass};
use cfmerge_gpu_sim::trace::{BlockTracer, SortTrace};
use cfmerge_json::{Json, ToJson};
use cfmerge_mergepath::diagonal::{merge_path, merge_path_steps};
use cfmerge_mergepath::partition::partition_merge;
use rayon::prelude::*;
use std::collections::HashMap;

/// Configuration of the robust driver: the underlying sort configuration
/// plus the recovery policy.
#[derive(Debug, Clone)]
pub struct RobustConfig {
    /// The sort configuration (parameters, device, timing model).
    pub base: SortConfig,
    /// Re-executions permitted per block before the driver gives up on
    /// retrying (0 = verify once, never retry).
    pub max_retries: u32,
    /// Backoff charged before retry `r` (1-based): `retry_backoff_s ·
    /// 2^(r−1)` modeled seconds.
    pub retry_backoff_s: f64,
    /// Whether the driver may degrade to the fallback pipeline when
    /// retries are exhausted or the requested configuration cannot
    /// launch. With `false`, those cases are typed errors.
    pub allow_fallback: bool,
    /// Straggler-hedging policy (disabled by default — fault-free runs
    /// stay bit-identical either way, because a launch with no latency
    /// spikes has no stragglers).
    pub hedge: HedgeConfig,
}

impl RobustConfig {
    /// Default policy around a sort configuration: 2 retries, 1 µs base
    /// backoff, fallback permitted, hedging off.
    #[must_use]
    pub fn new(base: SortConfig) -> Self {
        Self {
            base,
            max_retries: 2,
            retry_backoff_s: 1e-6,
            allow_fallback: true,
            hedge: HedgeConfig::default(),
        }
    }
}

counter_set! {
    /// Scalar recovery counters, designed to fold into run artifacts so CI
    /// can assert "N faults injected, N detected, N recovered".
    pub struct RecoveryCounters {
        /// Fault injections that actually fired (all kinds, spikes included).
        faults_injected: Required,
        /// Block verification failures observed (each failed attempt counts).
        faults_detected: Required,
        /// Distinct block executions that needed at least one retry.
        blocks_retried: Required,
        /// Total extra block executions (failed attempts that were re-run).
        retries: Required,
        /// Pipeline-level fallbacks taken.
        fallbacks: Required,
        /// Jobs that ended in [`SortError::UnrecoverableFault`] (only nonzero
        /// in service-level aggregates — a run that returns `Ok` recovered
        /// everything it detected).
        unrecovered: Required,
        // The hedge counters postdate the original schema; absent in
        // pre-resilience artifacts.
        /// Hedged duplicate executions launched for straggling blocks.
        hedges_launched: Defaulted,
        /// Hedges whose duplicate beat the straggler.
        hedges_won: Defaulted,
    }
}

/// One verification failure the driver observed, located to the launch,
/// block, and attempt that produced it.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DetectionRecord {
    /// Kernel launch name (`blocksort`, `merge-pass-0`, `output-verify`).
    pub kernel: String,
    /// Block index within the launch.
    pub block: usize,
    /// Execution attempt that failed (0 = first try).
    pub attempt: u32,
    /// What the verifier saw.
    pub failure: VerifyFailure,
}

impl std::fmt::Display for DetectionRecord {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{} block {} attempt {}: {}", self.kernel, self.block, self.attempt, self.failure)
    }
}

impl ToJson for DetectionRecord {
    fn to_json(&self) -> Json {
        Json::obj([
            ("kernel", Json::from(self.kernel.as_str())),
            ("block", Json::from(self.block)),
            ("attempt", Json::from(self.attempt)),
            ("failure", Json::from(self.failure.to_string().as_str())),
        ])
    }
}

/// Full forensic record of a robust run: what fired, what was caught,
/// what it cost, and how the driver compromised (if it did).
#[derive(Debug, Clone, Default)]
pub struct RecoveryReport {
    /// Scalar counters (artifact-friendly).
    pub counters: RecoveryCounters,
    /// Every fault injection that fired, in launch/block order.
    pub injections: Vec<InjectionRecord>,
    /// Every verification failure observed.
    pub detections: Vec<DetectionRecord>,
    /// Every degradation taken (empty = the requested pipeline ran as
    /// asked).
    pub degradations: Vec<Degradation>,
    /// Modeled seconds of exponential backoff charged before retries.
    pub backoff_seconds: f64,
    /// Modeled seconds spent re-executing failed blocks.
    pub retry_seconds: f64,
    /// Modeled seconds of injected latency spikes (after hedge wins
    /// replaced straggler latencies).
    pub spike_seconds: f64,
    /// What straggler hedging did (zeroed when hedging is disabled or
    /// nothing straggled).
    pub hedges: HedgeCounters,
}

impl RecoveryReport {
    /// `true` when nothing fired, nothing failed verification, and
    /// nothing degraded: the run was indistinguishable from a plain one.
    #[must_use]
    pub fn is_clean(&self) -> bool {
        self.injections.is_empty() && self.detections.is_empty() && self.degradations.is_empty()
    }
}

impl ToJson for RecoveryReport {
    fn to_json(&self) -> Json {
        Json::obj([
            ("counters", self.counters.to_json()),
            ("injections", Json::arr(self.injections.iter().map(ToJson::to_json))),
            ("detections", Json::arr(self.detections.iter().map(ToJson::to_json))),
            ("degradations", Json::arr(self.degradations.iter().map(ToJson::to_json))),
            ("backoff_seconds", Json::from(self.backoff_seconds)),
            ("retry_seconds", Json::from(self.retry_seconds)),
            ("spike_seconds", Json::from(self.spike_seconds)),
            ("hedges", self.hedges.to_json()),
        ])
    }
}

/// A sort that completed under the robust driver: the run itself, the
/// pipeline that actually produced it, and the recovery forensics.
#[derive(Debug, Clone)]
pub struct RobustSortRun<K = u32> {
    /// Output, profile, per-launch reports, modeled seconds
    /// (`simulated_seconds` includes retries, backoff, and spikes).
    pub run: SortRun<K>,
    /// The pipeline that produced the output (differs from the request
    /// after a fallback — and the report says why).
    pub algorithm: SortAlgorithm,
    /// What happened along the way.
    pub report: RecoveryReport,
}

/// Blocks per kernel launch for a sort of `n` keys at `params` — the
/// shape [`FaultPlan::generate`] needs. Launch 0 is the block sort; each
/// of the `log₂(runs)` merge passes launches the same number of blocks.
#[must_use]
pub fn pipeline_shape(n: usize, params: &SortParams) -> Vec<u64> {
    if n == 0 {
        return Vec::new();
    }
    let runs = n.div_ceil(params.tile()).next_power_of_two();
    vec![runs as u64; 1 + runs.trailing_zeros() as usize]
}

/// Per-block observer of every launch, aligned with [`SortRun::kernels`].
pub(crate) type Observers<O> = Vec<Vec<O>>;

/// Hands every block execution a fresh observer.
pub(crate) type Observe<'a, O> = &'a (dyn Fn() -> O + Sync);

/// One kernel launch of the pipeline: which kernel, over which source
/// buffer. [`Exec::run`] holds the one call of each kernel's `*_faulty`
/// entry point, shared by attempts, retries and hedges.
#[derive(Clone, Copy)]
enum Kernel<'a, K> {
    /// Launch 0: block `b` sorts tile `b` of `src`.
    BlockSort { src: &'a [K] },
    /// A merge pass: block `b` merges `jobs[b]` out of `src`.
    MergePass { src: &'a [K], jobs: &'a [MergeChunkJob] },
}

/// Merge-path diagonals a merge block's prefilter probes.
const PREFILTER_PROBES: usize = 64;

/// One multiply-rotate hashing step (FxHash's): fold `v` into `h`.
fn mix(h: u64, v: u64) -> u64 {
    (h.rotate_left(5) ^ v).wrapping_mul(0x517c_c1b7_2722_0a95)
}

/// The position-dependent part of a merge block's class key: `|A|`, then
/// where its loads fall in 32-byte sectors. Loads use absolute indices,
/// and a sector count survives only shifts by whole sectors, so the key
/// holds `a_begin` and `b_begin` mod [`SECTOR_WORDS`] and whether `A`'s
/// last sector is `B`'s first (one warp round then reads both).
fn merge_geometry(job: MergeChunkJob, tile: usize) -> [u32; 4] {
    let sector = SECTOR_WORDS as usize;
    let a_len = job.a_len();
    let shared = a_len > 0 && a_len < tile && (job.a_end - 1) / sector == job.b_begin / sector;
    [a_len as u32, (job.a_begin % sector) as u32, (job.b_begin % sector) as u32, u32::from(shared)]
}

/// A merge job's ranges `(A, B)` in `src`.
fn merge_parts<K>(src: &[K], job: MergeChunkJob) -> (&[K], &[K]) {
    (&src[job.a_begin..job.a_end], &src[job.b_begin..job.b_end])
}

impl<K: SortKey> Kernel<'_, K> {
    /// Multiset checksum block `b`'s output must carry: its input tile's,
    /// or by additivity the sum of its two merge ranges'.
    fn expect(&self, b: usize, tile: usize) -> u64 {
        match *self {
            Kernel::BlockSort { src } => multiset_checksum(&src[b * tile..(b + 1) * tile]),
            Kernel::MergePass { src, jobs } => {
                let (a, bs) = merge_parts(src, jobs[b]);
                multiset_checksum(a).wrapping_add(multiset_checksum(bs))
            }
        }
    }

    /// Cheap prefilter of block `b`'s class: a function of its
    /// [`Self::class_key`], so the blocks of one class always agree. The
    /// block sort hashes the tile's adjacent comparisons; a merge block
    /// hashes its geometry and its merge-path splits at the inner
    /// multiples of `tile / PREFILTER_PROBES`.
    fn prefilter(&self, b: usize, tile: usize) -> u64 {
        match *self {
            Kernel::BlockSort { src } => src[b * tile..(b + 1) * tile]
                .windows(2)
                .fold(0, |h, w| mix(h, w[0].cmp(&w[1]) as i8 as u64)),
            Kernel::MergePass { src, jobs } => {
                let (a, bs) = merge_parts(src, jobs[b]);
                let h = merge_geometry(jobs[b], tile).into_iter().fold(0, |h, g| mix(h, g.into()));
                (1..PREFILTER_PROBES)
                    .fold(h, |h, k| mix(h, merge_path(a, bs, k * tile / PREFILTER_PROBES) as u64))
            }
        }
    }

    /// Block `b`'s exact class key, with its host-reference output
    /// written to `out`.
    ///
    /// Every data-dependent branch in both kernels is a `<=` between two
    /// keys of the block, so blocks with equal keys issue the same
    /// address stream and ALU charges and get the same profile:
    /// - block sort: the tile's dense-rank pattern, ties kept (the kernel
    ///   addresses global memory tile-relative, so position is moot);
    /// - merge pass: [`merge_geometry`], then one code per output of the
    ///   stable merge: bit 0 set when it came from `B`, bit 1 set when it
    ///   equals the output before it.
    fn class_key(&self, b: usize, out: &mut [K]) -> Vec<u32> {
        let tile = out.len();
        match *self {
            Kernel::BlockSort { src } => {
                let mut order: Vec<(K, u32)> =
                    src[b * tile..(b + 1) * tile].iter().copied().zip(0..).collect();
                order.sort_unstable();
                let mut ranks = vec![0u32; tile];
                let mut rank = 0;
                for (j, &(k, i)) in order.iter().enumerate() {
                    if j > 0 && k != order[j - 1].0 {
                        rank += 1;
                    }
                    ranks[i as usize] = rank;
                    out[j] = k;
                }
                ranks
            }
            Kernel::MergePass { src, jobs } => {
                let (a, bs) = merge_parts(src, jobs[b]);
                let mut key = Vec::with_capacity(4 + tile);
                key.extend(merge_geometry(jobs[b], tile));
                let (mut i, mut j) = (0, 0);
                for o in 0..tile {
                    let from_b = i == a.len() || (j < bs.len() && bs[j] < a[i]);
                    let k = if from_b { bs[j] } else { a[i] };
                    (i, j) = if from_b { (i, j + 1) } else { (i + 1, j) };
                    key.push(u32::from(from_b) | u32::from(o > 0 && out[o - 1] == k) << 1);
                    out[o] = k;
                }
                key
            }
        }
    }
}

/// How one block of a launch executes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Role {
    /// Simulated: a block alone in its class, or a class representative.
    Simulate,
    /// Reuses the profile of its class representative `rep`. Its output,
    /// the host reference, is already in place.
    Member { rep: usize },
    /// The class's last member: simulated anyway, and must reproduce the
    /// representative's profile and its own host-reference output.
    Audit { rep: usize },
}

/// Group one launch's `eligible` blocks into classes of equal
/// [`Kernel::class_key`]; every other block is simulated alone.
///
/// Each block's cheap [`Kernel::prefilter`] proposes the lowest block
/// with the same prefilter as its representative. A class of two saves
/// nothing (its one member would be the audit), so only prefilter groups
/// of three or more go on: their candidates compute their full key,
/// writing their host-reference output to their chunk of `dst`, and join
/// the class only when that key equals the representative's element for
/// element. At most one full key is held per class, and the roles do not
/// depend on the thread count.
fn block_classes<K: SortKey>(
    kernel: Kernel<'_, K>,
    eligible: &dyn Fn(usize) -> bool,
    dst: &mut [K],
    tile: usize,
) -> Vec<Role> {
    let blocks = dst.len() / tile;
    let mut first = HashMap::new();
    let mut rep_of = vec![None; blocks];
    let mut candidates = vec![0usize; blocks];
    for b in (0..blocks).filter(|&b| eligible(b)) {
        let rep = *first.entry(kernel.prefilter(b, tile)).or_insert(b);
        if rep != b {
            rep_of[b] = Some(rep);
            candidates[rep] += 1;
        }
    }
    let reps: Vec<usize> = (0..blocks).filter(|&r| candidates[r] >= 2).collect();
    let mut roles = vec![Role::Simulate; blocks];
    if reps.is_empty() {
        return roles;
    }
    let rep_keys: Vec<Vec<u32>> =
        reps.iter().map(|&r| kernel.class_key(r, &mut vec![K::default(); tile])).collect();
    let confirmed: Vec<bool> = dst
        .par_chunks_mut(tile)
        .enumerate()
        .map(|(b, out)| {
            rep_of[b]
                .and_then(|r| reps.binary_search(&r).ok())
                .is_some_and(|i| kernel.class_key(b, out) == rep_keys[i])
        })
        .collect();
    let mut audited = vec![false; blocks];
    for b in (0..blocks).rev() {
        if let (true, Some(rep)) = (confirmed[b], rep_of[b]) {
            roles[b] = if std::mem::replace(&mut audited[rep], true) {
                Role::Member { rep }
            } else {
                Role::Audit { rep }
            };
        }
    }
    roles
}

/// Host-side partition of one merge pass over sorted runs of `width`:
/// one job per output tile, plus the modeled cost of the device's
/// partition kernel that finds those splits (one boundary search per
/// block, 2 uncoalesced global loads per iteration).
fn partition_pass<K: SortKey>(
    src: &[K],
    width: usize,
    tile: usize,
    count_accesses: bool,
) -> (Vec<MergeChunkJob>, KernelProfile) {
    let pair = 2 * width;
    let mut jobs = Vec::with_capacity(src.len() / tile);
    let mut search_cost = KernelProfile::new();
    for pair_lo in (0..src.len()).step_by(pair) {
        let a = &src[pair_lo..pair_lo + width];
        let b = &src[pair_lo + width..pair_lo + pair];
        for c in partition_merge(a, b, tile) {
            jobs.push(MergeChunkJob {
                a_begin: pair_lo + c.a_begin,
                a_end: pair_lo + c.a_end,
                b_begin: pair_lo + width + c.b_begin,
                b_end: pair_lo + width + c.b_end,
            });
        }
        if count_accesses {
            let blocks_in_pair = (pair / tile) as u64;
            let steps = u64::from(merge_path_steps(pair / 2, width, width));
            let s = search_cost.phase_mut(PhaseClass::Search);
            s.global_ld_requests += blocks_in_pair * steps * 2;
            s.global_ld_sectors += blocks_in_pair * steps * 2;
            s.alu_ops += blocks_in_pair * steps * 6;
        }
    }
    (jobs, search_cost)
}

/// One verified execution of one block.
struct Attempt<O> {
    profile: KernelProfile,
    observer: O,
    spike_cycles: u64,
    injections: Vec<InjectionRecord>,
    verdict: Result<(), VerifyFailure>,
}

/// Outcome of one block's execute-verify-retry loop.
struct BlockExec<O> {
    /// Profile of the successful attempt.
    profile: KernelProfile,
    /// Observer of the successful attempt (`None` if none succeeded).
    observer: Option<O>,
    /// Merged profiles of every failed attempt that was re-run.
    retry_profile: KernelProfile,
    /// Total executions (1 = verified first try).
    executions: u32,
    /// Latency-spike cycles accumulated across all attempts.
    spike_cycles: u64,
    injections: Vec<InjectionRecord>,
    detections: Vec<DetectionRecord>,
    /// `Some` when the last permitted attempt still failed verification.
    failure: Option<VerifyFailure>,
    /// Hedged duplicate executions launched for this block.
    hedges: u32,
    /// Hedges that beat the straggler (their latency was taken).
    hedge_wins: u32,
    /// Straggler spike cycles avoided by winning hedges.
    hedge_cycles_saved: u64,
    /// Merged profiles of every hedged duplicate (priced as an auxiliary
    /// launch in [`Exec::settle`]).
    hedge_profile: KernelProfile,
}

impl<O> BlockExec<O> {
    fn new() -> Self {
        Self {
            profile: KernelProfile::new(),
            observer: None,
            retry_profile: KernelProfile::new(),
            executions: 0,
            spike_cycles: 0,
            injections: Vec::new(),
            detections: Vec::new(),
            failure: None,
            hedges: 0,
            hedge_wins: 0,
            hedge_cycles_saved: 0,
            hedge_profile: KernelProfile::new(),
        }
    }

    /// Apply one hedged duplicate execution to its straggler.
    ///
    /// A winning hedge (verified output, fewer spike cycles than the
    /// straggler accumulated) replaces the block's latency contribution;
    /// the output bytes need no replacing, because a verified duplicate
    /// *is* the unique sorted permutation the straggler already produced.
    /// A losing or corrupted hedge is discarded — its injections are still
    /// recorded, but a failed duplicate is not a detection against the
    /// primary result.
    fn apply_hedge(&mut self, hedge: Attempt<O>) {
        self.hedges += 1;
        self.hedge_profile.merge(&hedge.profile);
        self.injections.extend(hedge.injections);
        if hedge.verdict.is_ok() && hedge.spike_cycles < self.spike_cycles {
            self.hedge_wins += 1;
            self.hedge_cycles_saved += self.spike_cycles - hedge.spike_cycles;
            self.spike_cycles = hedge.spike_cycles;
        }
    }
}

/// A block that exhausted its retries — the trigger for fallback (or,
/// failing that, [`SortError::UnrecoverableFault`]).
struct BlockFailure {
    kernel: String,
    block: usize,
    attempts: u32,
    failure: VerifyFailure,
}

impl BlockFailure {
    fn into_error(self) -> SortError {
        SortError::UnrecoverableFault {
            kernel: self.kernel,
            block: self.block,
            attempts: self.attempts,
            failure: self.failure,
        }
    }
}

impl RecoveryReport {
    /// Record a fallback to the Thrust pipeline.
    fn fall_back(&mut self, from: SortAlgorithm, reason: String) {
        self.degradations.push(Degradation::Fallback {
            from,
            to: SortAlgorithm::ThrustMergesort,
            reason,
        });
        self.counters.fallbacks += 1;
    }
}

/// A settled kernel launch.
struct Launched<O> {
    report: KernelReport,
    /// Modeled seconds beyond the main launch: retries, hedges, spikes,
    /// backoff.
    extra_seconds: f64,
    /// Observer of each block's accepted attempt.
    observers: Vec<O>,
    /// The first block that stayed failed after its retries.
    failure: Option<BlockFailure>,
}

/// Checkpoint control threaded through one pipeline execution: the
/// policy plus the checkpoints captured along the way.
struct CkptCtl {
    policy: CheckpointPolicy,
    taken: Vec<SortCheckpoint>,
}

impl CkptCtl {
    fn noop() -> Self {
        Self { policy: CheckpointPolicy::default(), taken: Vec::new() }
    }
}

/// One pipeline execution's settings: launch configuration, recovery
/// policy, fault plan, pipeline, and the per-block observer factory.
struct Exec<'a, O> {
    cfg: &'a SortConfig,
    rcfg: &'a RobustConfig,
    plan: &'a FaultPlan,
    algo: SortAlgorithm,
    /// Running the degraded fallback pipeline (fault persistence keys on
    /// it).
    fallback: bool,
    observe: Observe<'a, O>,
}

impl<O: Hooks + Send> Exec<'_, O> {
    /// Run block `b` of `kernel` into `dst` under `hooks`.
    fn run<K: SortKey, H: Hooks>(
        &self,
        kernel: Kernel<'_, K>,
        b: usize,
        dst: &mut [K],
        hooks: H,
    ) -> (KernelProfile, H) {
        let (banks, u, e) = (self.cfg.device.bank_model(), self.cfg.params.u, self.cfg.params.e);
        let (strategy, count) = (self.algo.strategy(), self.cfg.count_accesses);
        match kernel {
            Kernel::BlockSort { src } => {
                let tile = u * e;
                let s = &src[b * tile..(b + 1) * tile];
                blocksort_block_faulty(banks, u, e, strategy, s, dst, b * tile, count, hooks)
            }
            Kernel::MergePass { src, jobs } => {
                merge_pass_block_faulty(banks, u, e, strategy, src, jobs[b], dst, count, hooks)
            }
        }
    }

    /// Execute block `b` of launch `idx` once, as execution `attempt`,
    /// and verify what it wrote to `dst`.
    ///
    /// This is the driver's one selection: the block's observer is paired
    /// with the null hooks `()` when its plan arms no site, the zero-cost
    /// fault-free kernel, and with its
    /// [`BlockFaults`](cfmerge_gpu_sim::fault::BlockFaults) injector
    /// otherwise.
    fn attempt<K: SortKey>(
        &self,
        kernel: Kernel<'_, K>,
        idx: u32,
        b: usize,
        attempt: u32,
        dst: &mut [K],
    ) -> Attempt<O> {
        let faults = self.plan.block_faults(idx, b as u32, attempt, self.fallback);
        let observer = (self.observe)();
        let (profile, observer, spike_cycles, injections) = if faults.is_armed() {
            let (p, (o, faults)) = self.run(kernel, b, dst, (observer, faults));
            (p, o, faults.spike_cycles(), faults.into_records())
        } else {
            let (p, (o, ())) = self.run(kernel, b, dst, (observer, ()));
            (p, o, 0, Vec::new())
        };
        let verdict = verify_sorted_checksum(dst, kernel.expect(b, dst.len()));
        Attempt { profile, observer, spike_cycles, injections, verdict }
    }

    /// Execute-verify loop for block `b`: up to `max_retries`
    /// re-executions until its output verifies.
    fn recover_block<K: SortKey>(
        &self,
        kernel: Kernel<'_, K>,
        (idx, name): (u32, &str),
        b: usize,
        dst: &mut [K],
    ) -> BlockExec<O> {
        let mut out = BlockExec::new();
        for attempt in 0..=self.rcfg.max_retries {
            let a = self.attempt(kernel, idx, b, attempt, dst);
            out.executions = attempt + 1;
            out.spike_cycles += a.spike_cycles;
            out.injections.extend(a.injections);
            match a.verdict {
                Ok(()) => {
                    out.profile = a.profile;
                    out.observer = Some(a.observer);
                    out.failure = None;
                    return out;
                }
                Err(failure) => {
                    out.detections.push(DetectionRecord {
                        kernel: name.to_string(),
                        block: b,
                        attempt,
                        failure,
                    });
                    out.retry_profile.merge(&a.profile);
                    out.failure = Some(failure);
                }
            }
        }
        out
    }

    /// Launch `kernel` as launch `idx`: blocks form classes (see
    /// [`block_classes`]) unless the observer sets [`Hooks::OBSERVES`]; every
    /// simulated block runs its execute-verify-retry loop, every class
    /// member verifies its host-reference output and reuses its
    /// representative's profile, each class's audit must match, stragglers
    /// get a hedged duplicate, and the launch is priced on top of
    /// `base_profile`.
    fn launch<K: SortKey>(
        &self,
        kernel: Kernel<'_, K>,
        (idx, name): (u32, &str),
        dst: &mut [K],
        base_profile: KernelProfile,
        report: &mut RecoveryReport,
    ) -> Result<Launched<O>, SortError> {
        let tile = self.cfg.params.tile();
        let roles = if O::OBSERVES {
            vec![Role::Simulate; dst.len() / tile]
        } else {
            let fault_free =
                |b: usize| !self.plan.block_faults(idx, b as u32, 0, self.fallback).is_armed();
            block_classes(kernel, &fault_free, dst, tile)
        };
        // Each audit's host-reference output, before its simulation
        // overwrites it.
        let audits: Vec<(usize, usize, Vec<K>)> = roles
            .iter()
            .enumerate()
            .filter_map(|(b, role)| match *role {
                Role::Audit { rep } => Some((b, rep, dst[b * tile..(b + 1) * tile].to_vec())),
                _ => None,
            })
            .collect();
        let (mut execs, reused): (Vec<BlockExec<O>>, Vec<Option<usize>>) = dst
            .par_chunks_mut(tile)
            .enumerate()
            .map(|(b, chunk)| match roles[b] {
                Role::Member { rep }
                    if verify_sorted_checksum(chunk, kernel.expect(b, tile)).is_ok() =>
                {
                    let observer = Some((self.observe)());
                    (BlockExec { executions: 1, observer, ..BlockExec::new() }, Some(rep))
                }
                _ => (self.recover_block(kernel, (idx, name), b, chunk), None),
            })
            .collect::<Vec<_>>()
            .into_iter()
            .unzip();
        for (b, rep, reference) in audits {
            let verified = execs[b].failure.is_none() && execs[rep].failure.is_none();
            if verified
                && (execs[b].profile != execs[rep].profile
                    || dst[b * tile..(b + 1) * tile] != reference[..])
            {
                return Err(SortError::ClassAuditMismatch {
                    kernel: name.to_string(),
                    representative: rep,
                    member: b,
                });
            }
        }
        for (b, rep) in reused.into_iter().enumerate() {
            if let Some(rep) = rep {
                execs[b].profile = execs[rep].profile.clone();
            }
        }
        let latencies: Vec<u64> = execs.iter().map(|ex| ex.spike_cycles).collect();
        for b in self.rcfg.hedge.stragglers(&latencies) {
            if execs[b].failure.is_some() {
                continue; // about to trigger fallback; duplicating it is pointless
            }
            let mut scratch = vec![K::default(); tile];
            let hedge = self.attempt(kernel, idx, b, execs[b].executions, &mut scratch);
            execs[b].apply_hedge(hedge);
        }
        self.settle(name, base_profile, execs, report)
    }

    /// Fold one launch's per-block outcomes into the report, price the
    /// launch (main profile as one launch; retries as an extra launch;
    /// hedges as an auxiliary launch; spikes at the device clock; backoff
    /// as configured), and surface the first unrecovered block if any.
    fn settle(
        &self,
        name: &str,
        base_profile: KernelProfile,
        execs: Vec<BlockExec<O>>,
        report: &mut RecoveryReport,
    ) -> Result<Launched<O>, SortError> {
        let cfg = self.cfg;
        let blocks = execs.len() as u64;
        let mut profile = base_profile;
        let mut retry_profile = KernelProfile::new();
        let mut retried_execs = 0u64;
        let mut spike_cycles = 0u64;
        let mut backoff = 0.0f64;
        let mut failure: Option<BlockFailure> = None;
        let mut hedge_profile = KernelProfile::new();
        let mut hedged_execs = 0u64;
        let mut observers = Vec::with_capacity(execs.len());
        for (block, mut ex) in execs.into_iter().enumerate() {
            profile.merge(&ex.profile);
            observers.extend(ex.observer);
            retry_profile.merge(&ex.retry_profile);
            report.counters.faults_injected += ex.injections.len() as u64;
            report.counters.faults_detected += ex.detections.len() as u64;
            report.injections.append(&mut ex.injections);
            report.detections.append(&mut ex.detections);
            hedge_profile.merge(&ex.hedge_profile);
            hedged_execs += u64::from(ex.hedges);
            report.counters.hedges_launched += u64::from(ex.hedges);
            report.counters.hedges_won += u64::from(ex.hedge_wins);
            report.hedges.launched += u64::from(ex.hedges);
            report.hedges.won += u64::from(ex.hedge_wins);
            report.hedges.cycles_saved += ex.hedge_cycles_saved;
            if ex.executions > 1 {
                let retries = u64::from(ex.executions - 1);
                report.counters.blocks_retried += 1;
                report.counters.retries += retries;
                retried_execs += retries;
                // Σ_{r=1..retries} backoff · 2^(r−1) = backoff · (2^retries − 1).
                backoff += self.rcfg.retry_backoff_s * (2f64.powi(retries as i32) - 1.0);
            }
            spike_cycles += ex.spike_cycles;
            if failure.is_none() {
                if let Some(f) = ex.failure {
                    failure = Some(BlockFailure {
                        kernel: name.to_string(),
                        block,
                        attempts: ex.executions,
                        failure: f,
                    });
                }
            }
        }
        let unlaunchable = |why| SortError::Unlaunchable { device: cfg.device.name.clone(), why };
        let time = cfg
            .timing
            .kernel_time(&cfg.device, &profile.total(), &cfg.launch(blocks))
            .map_err(unlaunchable)?;
        let mut extra = 0.0f64;
        if retried_execs > 0 {
            let rt = cfg
                .timing
                .kernel_time(&cfg.device, &retry_profile.total(), &cfg.launch(retried_execs))
                .map_err(unlaunchable)?;
            extra += rt.seconds;
            report.retry_seconds += rt.seconds;
        }
        if hedged_execs > 0 {
            // Hedged duplicates are enqueued device-side while the primary
            // launch drains — priced in full minus the host launch overhead.
            let ht = cfg
                .timing
                .auxiliary_launch_time(
                    &cfg.device,
                    &hedge_profile.total(),
                    &cfg.launch(hedged_execs),
                )
                .map_err(unlaunchable)?;
            extra += ht.seconds;
            report.hedges.hedge_seconds += ht.seconds;
        }
        let spike_s = spike_cycles as f64 / cfg.device.clock_hz;
        extra += spike_s;
        report.spike_seconds += spike_s;
        extra += backoff;
        report.backoff_seconds += backoff;
        Ok(Launched {
            report: KernelReport { name: name.to_string(), blocks, profile, time },
            extra_seconds: extra,
            observers,
            failure,
        })
    }

    /// One pipeline execution: the block sort (launch 0), then one merge
    /// pass per further launch of [`pipeline_shape`]. `Ok(Err(_))` is a
    /// block that stayed failed after retries (the fallback trigger);
    /// outer `Err` is a configuration-level error (or a simulated kill,
    /// when `ckpt` asks for one). With `resume`, the launches the
    /// checkpoint completed are skipped and execution continues from its
    /// verified state (the caller has already validated it).
    #[allow(clippy::type_complexity)]
    fn run_pipeline<K: SortKey>(
        &self,
        input: &[K],
        report: &mut RecoveryReport,
        resume: Option<&SortCheckpoint>,
        ckpt: &mut CkptCtl,
    ) -> Result<Result<(SortRun<K>, Observers<O>), BlockFailure>, SortError> {
        let (e, u) = (self.cfg.params.e, self.cfg.params.u);
        let tile = u * e;
        let n = resume.map_or(input.len(), |cp| cp.n);
        let shape = pipeline_shape(n, &self.cfg.params);
        let Some(&runs) = shape.first() else {
            let empty = SortRun {
                output: Vec::new(),
                profile: KernelProfile::new(),
                simulated_seconds: 0.0,
                kernels: Vec::new(),
                n: 0,
            };
            return Ok(Ok((empty, Vec::new())));
        };
        let n_pad = runs as usize * tile;
        let track = !ckpt.policy.is_noop();

        let (mut src, input_checksum, padded_checksum, first, mut seconds);
        if let Some(cp) = resume {
            src = cp.state_keys::<K>();
            input_checksum = cp.unpadded_input_checksum::<K>();
            padded_checksum = cp.input_checksum;
            first = cp.completed_passes + 1;
            seconds = cp.seconds_so_far;
        } else {
            input_checksum = multiset_checksum(input);
            src = input.to_vec();
            src.resize(n_pad, K::MAX_SENTINEL);
            padded_checksum = if track { multiset_checksum(&src) } else { 0 };
            first = 0;
            seconds = 0.0;
        }
        let mut dst = vec![K::default(); n_pad];
        let mut kernels: Vec<KernelReport> = Vec::with_capacity(shape.len() - first);
        let mut observers: Observers<O> = Vec::with_capacity(shape.len() - first);

        for launch in first..shape.len() {
            let (jobs, base_profile, name);
            let kernel = if launch == 0 {
                (base_profile, name) = (KernelProfile::new(), "blocksort".to_string());
                Kernel::BlockSort { src: &src }
            } else {
                let width = tile << (launch - 1);
                (jobs, base_profile) = partition_pass(&src, width, tile, self.cfg.count_accesses);
                name = format!("merge-pass-{}", launch - 1);
                Kernel::MergePass { src: &src, jobs: &jobs }
            };
            let done =
                self.launch(kernel, (launch as u32, &name), &mut dst, base_profile, report)?;
            seconds += done.report.time.seconds + done.extra_seconds;
            kernels.push(done.report);
            observers.push(done.observers);
            if let Some(f) = done.failure {
                return Ok(Err(f));
            }
            std::mem::swap(&mut src, &mut dst);

            // `launch` merge passes are now complete (the block sort
            // counts as pass 0): sorted runs of `tile << launch`.
            if track && (ckpt.policy.every_pass || ckpt.policy.kill_after_pass == Some(launch)) {
                let cp = SortCheckpoint::capture(
                    self.algo.label(),
                    (e, u),
                    n,
                    tile << launch,
                    launch,
                    seconds,
                    report.counters,
                    padded_checksum,
                    &src,
                );
                if ckpt.policy.kill_after_pass == Some(launch) {
                    return Err(SortError::Interrupted {
                        after_pass: launch,
                        checkpoint: Box::new(cp),
                    });
                }
                ckpt.taken.push(cp);
            }
        }

        src.truncate(n);
        // Defense in depth: the whole output against the whole input. Block
        // verification should make this unreachable; if it ever fires, the
        // run is treated exactly like a failed block (fallback, then typed
        // error) — never returned as a success.
        if let Err(failure) = verify_sorted_checksum(&src, input_checksum) {
            report.counters.faults_detected += 1;
            report.detections.push(DetectionRecord {
                kernel: "output-verify".into(),
                block: 0,
                attempt: 0,
                failure,
            });
            return Ok(Err(BlockFailure {
                kernel: "output-verify".into(),
                block: 0,
                attempts: 1,
                failure,
            }));
        }

        let mut profile = KernelProfile::new();
        for k in &kernels {
            profile.merge(&k.profile);
        }
        Ok(Ok((
            SortRun { output: src, profile, simulated_seconds: seconds, kernels, n },
            observers,
        )))
    }
}

/// The plain entry points' run of the driver: no faults, no retries, no
/// fallback, no hedging. A block whose output fails verification comes
/// back as [`SortError::UnrecoverableFault`]; a wrong sort is never
/// returned.
pub(crate) fn simulate_sort_observed<K: SortKey, O: Hooks + Send>(
    input: &[K],
    algo: SortAlgorithm,
    config: &SortConfig,
    observe: Observe<'_, O>,
) -> Result<(SortRun<K>, Observers<O>), SortError> {
    let rcfg =
        RobustConfig { max_retries: 0, allow_fallback: false, ..RobustConfig::new(config.clone()) };
    let (robust, observers) =
        drive(input, algo, &rcfg, &FaultPlan::none(), &mut CkptCtl::noop(), observe)?;
    Ok((robust.run, observers))
}

/// Sort under fault injection with verified, block-granular recovery.
///
/// Every block's output is verified (sorted + multiset checksum of its
/// input ranges); failed blocks are re-executed up to
/// [`RobustConfig::max_retries`] times with priced retries and backoff;
/// persistent failures degrade to the Thrust pipeline when
/// [`RobustConfig::allow_fallback`] permits. The returned
/// [`RecoveryReport`] records every injection, detection, and
/// degradation. Faults that survive everything come back as
/// [`SortError::UnrecoverableFault`] — a successful return is always a
/// verified sorted permutation of the input.
///
/// Pass [`FaultPlan::none()`] for a production (no-injection) run: the
/// result is bit-identical to [`crate::sort::pipeline::simulate_sort`],
/// which runs the same driver.
pub fn simulate_sort_robust<K: SortKey>(
    input: &[K],
    algo: SortAlgorithm,
    config: &RobustConfig,
    plan: &FaultPlan,
) -> Result<RobustSortRun<K>, SortError> {
    Ok(drive(input, algo, config, plan, &mut CkptCtl::noop(), &|| ())?.0)
}

/// [`simulate_sort_robust`] with every block traced: the run plus its
/// [`SortTrace`] (the accepted attempt of each block). A traced run forms
/// no block classes, so it simulates every block of every launch; the
/// trace's label names the requested configuration.
///
/// # Errors
/// Same contract as [`simulate_sort_robust`].
pub fn simulate_sort_robust_traced<K: SortKey>(
    input: &[K],
    algo: SortAlgorithm,
    config: &RobustConfig,
    plan: &FaultPlan,
) -> Result<(RobustSortRun<K>, SortTrace), SortError> {
    let banks = config.base.device.bank_model();
    let observe: Observe<'_, BlockTracer> = &|| BlockTracer::new(banks);
    let (run, observers) = drive(input, algo, config, plan, &mut CkptCtl::noop(), observe)?;
    let trace = sort_trace(&run.run, observers, run.algorithm, &config.base);
    Ok((run, trace))
}

/// [`simulate_sort_robust`] with checkpoint capture: returns the run
/// plus the checkpoints taken under `policy`. A
/// [`CheckpointPolicy::kill_after`] policy instead interrupts the run
/// with [`SortError::Interrupted`] carrying the checkpoint — the modeled
/// equivalent of killing the process mid-sort. If the primary pipeline
/// degrades to the fallback, checkpoints restart with the fallback run
/// (the primary's partial state is junk once abandoned).
///
/// # Errors
/// Same contract as [`simulate_sort_robust`], plus
/// [`SortError::Interrupted`] when the policy kills the run.
pub fn simulate_sort_robust_checkpointed<K: SortKey>(
    input: &[K],
    algo: SortAlgorithm,
    config: &RobustConfig,
    plan: &FaultPlan,
    policy: CheckpointPolicy,
) -> Result<(RobustSortRun<K>, Vec<SortCheckpoint>), SortError> {
    let mut ctl = CkptCtl { policy, taken: Vec::new() };
    let (run, _) = drive(input, algo, config, plan, &mut ctl, &|| ())?;
    Ok((run, ctl.taken))
}

/// The driver proper: validate (substituting a launchable configuration
/// if fallback allows), run the requested pipeline, and fall back to the
/// Thrust pipeline on a block that stays failed.
fn drive<K: SortKey, O: Hooks + Send>(
    input: &[K],
    algo: SortAlgorithm,
    config: &RobustConfig,
    plan: &FaultPlan,
    ckpt: &mut CkptCtl,
    observe: Observe<'_, O>,
) -> Result<(RobustSortRun<K>, Observers<O>), SortError> {
    let mut report = RecoveryReport::default();
    let mut cfg = config.base.clone();
    let mut algo_used = algo;

    match validate_sort_config(&cfg) {
        Ok(()) => {}
        Err(SortError::Unlaunchable { device, why }) if config.allow_fallback => {
            let sub = SortParams::known_good_default();
            report.degradations.push(Degradation::ParamsSubstituted {
                from: (cfg.params.e, cfg.params.u),
                to: (sub.e, sub.u),
            });
            report.fall_back(
                algo_used,
                format!("requested configuration cannot launch on {device}: {why}"),
            );
            cfg.params = sub;
            algo_used = SortAlgorithm::ThrustMergesort;
            validate_sort_config(&cfg)?;
        }
        Err(e) => return Err(e),
    }

    let mut exec =
        Exec { cfg: &cfg, rcfg: config, plan, algo: algo_used, fallback: false, observe };
    let (run, observers) = match exec.run_pipeline(input, &mut report, None, ckpt)? {
        Ok(done) => done,
        Err(f) if config.allow_fallback => {
            report.fall_back(
                exec.algo,
                format!(
                    "{} block {} failed verification after {} attempts",
                    f.kernel, f.block, f.attempts
                ),
            );
            ckpt.taken.clear(); // primary checkpoints are void once abandoned
            (exec.algo, exec.fallback) = (SortAlgorithm::ThrustMergesort, true);
            exec.run_pipeline(input, &mut report, None, ckpt)?.map_err(BlockFailure::into_error)?
        }
        Err(f) => return Err(f.into_error()),
    };
    Ok((RobustSortRun { run, algorithm: exec.algo, report }, observers))
}

/// Resume a sort from a [`SortCheckpoint`], skipping the block sort and
/// every completed merge pass.
///
/// The checkpoint is validated first — version, structural shape, every
/// run sorted, every block checksum matching
/// ([`SortCheckpoint::validate_as`]), and its padded size and run width
/// matching [`pipeline_shape`] at the configured `(E, u)` — so work is
/// only skipped when the saved state is provably the verified state the
/// original run produced.
/// The resumed run's `simulated_seconds` includes the checkpoint's
/// `seconds_so_far`, and with the same fault plan the final output is
/// byte-identical to the uninterrupted run; on a fault-free plan the
/// total modeled seconds and recovery counters are byte-identical too.
/// (With live faults exact cost equality is not guaranteed: a
/// corruption that stale scratch data masked in the original run is
/// detected against the resume's fresh scratch buffers and priced as an
/// extra retry, and a fallback restart discards the abandoned
/// pipeline's partial seconds while a resume keeps the checkpoint's
/// committed seconds.) Kernel reports cover only the re-executed
/// remainder. The checkpoint's counters are folded into the returned
/// report.
///
/// If a resumed block exhausts its retries and fallback is allowed, the
/// driver re-sorts the checkpoint state on the Thrust pipeline (the
/// state is a permutation of the padded input, so sorting it yields the
/// same output).
///
/// # Errors
/// [`SortError::CheckpointInvalid`] when validation fails, otherwise the
/// [`simulate_sort_robust`] contract.
pub fn resume_sort_robust<K: SortKey>(
    checkpoint: &SortCheckpoint,
    config: &RobustConfig,
    plan: &FaultPlan,
) -> Result<RobustSortRun<K>, SortError> {
    checkpoint.validate_as::<K>()?;
    let invalid = |reason: String| Err(SortError::CheckpointInvalid { reason });
    let algo = if checkpoint.algorithm == SortAlgorithm::CfMerge.label() {
        SortAlgorithm::CfMerge
    } else if checkpoint.algorithm == SortAlgorithm::ThrustMergesort.label() {
        SortAlgorithm::ThrustMergesort
    } else {
        return invalid(format!("unknown algorithm {:?}", checkpoint.algorithm));
    };
    let cfg = &config.base;
    if (cfg.params.e, cfg.params.u) != (checkpoint.e, checkpoint.u) {
        return invalid(format!(
            "checkpoint captured at (E={}, u={}) cannot resume under (E={}, u={})",
            checkpoint.e, checkpoint.u, cfg.params.e, cfg.params.u
        ));
    }
    let shape = pipeline_shape(checkpoint.n, &cfg.params);
    let tile = cfg.params.tile();
    if checkpoint.n_pad != shape[0] as usize * tile
        || checkpoint.completed_passes >= shape.len()
        || checkpoint.width != tile << checkpoint.completed_passes
    {
        return invalid(format!(
            "n_pad {} / width {} after {} passes does not match the pipeline for n={}",
            checkpoint.n_pad, checkpoint.width, checkpoint.completed_passes, checkpoint.n
        ));
    }
    validate_sort_config(cfg)?;

    let mut report = RecoveryReport::default();
    let observe: Observe<'_, ()> = &|| ();
    let mut exec = Exec { cfg, rcfg: config, plan, algo, fallback: false, observe };
    let resumed =
        exec.run_pipeline::<K>(&[], &mut report, Some(checkpoint), &mut CkptCtl::noop())?;
    let run = match resumed {
        Ok((run, _)) => run,
        Err(f) if config.allow_fallback => {
            report.fall_back(
                exec.algo,
                format!(
                    "resumed {} block {} failed verification after {} attempts",
                    f.kernel, f.block, f.attempts
                ),
            );
            (exec.algo, exec.fallback) = (SortAlgorithm::ThrustMergesort, true);
            // Restart from the checkpoint state as input: a permutation
            // of the padded input, so its sort is the same output (the
            // sentinels sort to the tail and are truncated off).
            let keys = checkpoint.state_keys::<K>();
            let (mut run, _) = exec
                .run_pipeline(&keys, &mut report, None, &mut CkptCtl::noop())?
                .map_err(BlockFailure::into_error)?;
            run.output.truncate(checkpoint.n);
            run.n = checkpoint.n;
            run.simulated_seconds += checkpoint.seconds_so_far;
            run
        }
        Err(f) => return Err(f.into_error()),
    };

    report.counters.merge(&checkpoint.counters);
    Ok(RobustSortRun { run, algorithm: exec.algo, report })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::inputs::InputSpec;
    use crate::sort::pipeline::simulate_sort;
    use crate::verify::verify_sorted_permutation;
    use cfmerge_gpu_sim::fault::{FaultKind, FaultSite, Persistence};
    use cfmerge_json::FromJson;

    fn small_rcfg() -> RobustConfig {
        RobustConfig::new(SortConfig::with_params(SortParams::new(5, 32)))
    }

    fn site(kernel: u32, block: u32, kind: FaultKind, persistence: Persistence) -> FaultSite {
        FaultSite { kernel, block, phase: 1, kind, persistence }
    }

    #[test]
    fn clean_run_matches_plain_pipeline_exactly() {
        let rcfg = small_rcfg();
        let input = InputSpec::UniformRandom { seed: 11 }.generate(4 * 160 + 7);
        for algo in [SortAlgorithm::ThrustMergesort, SortAlgorithm::CfMerge] {
            let plain = simulate_sort(&input, algo, &rcfg.base);
            let robust =
                simulate_sort_robust(&input, algo, &rcfg, &FaultPlan::none()).expect("clean run");
            assert_eq!(robust.run.output, plain.output);
            assert_eq!(robust.run.simulated_seconds, plain.simulated_seconds, "{algo:?}");
            assert_eq!(robust.run.kernels.len(), plain.kernels.len());
            assert_eq!(robust.algorithm, algo);
            assert!(robust.report.is_clean());
            assert_eq!(robust.report.counters, RecoveryCounters::default());
        }
    }

    #[test]
    fn transient_fault_is_detected_and_retried() {
        let rcfg = small_rcfg();
        let input = InputSpec::UniformRandom { seed: 12 }.generate(4 * 160);
        let plan = FaultPlan::from_sites(vec![site(
            0,
            0,
            FaultKind::StuckBank { bank: 0, bit: 4 },
            Persistence::Transient,
        )]);
        let r = simulate_sort_robust(&input, SortAlgorithm::CfMerge, &rcfg, &plan)
            .expect("transient fault must recover");
        verify_sorted_permutation(&input, &r.run.output).expect("output exactly sorted");
        assert_eq!(r.algorithm, SortAlgorithm::CfMerge, "no fallback needed");
        assert!(r.report.counters.faults_injected >= 1);
        assert_eq!(r.report.counters.faults_detected, 1);
        assert_eq!(r.report.counters.blocks_retried, 1);
        assert_eq!(r.report.counters.retries, 1);
        assert_eq!(r.report.counters.fallbacks, 0);
        assert!(r.report.backoff_seconds > 0.0);
        assert!(r.report.retry_seconds > 0.0);
        let plain = simulate_sort(&input, SortAlgorithm::CfMerge, &rcfg.base);
        assert!(
            r.run.simulated_seconds > plain.simulated_seconds,
            "recovery must cost modeled time"
        );
    }

    #[test]
    fn merge_pass_fault_recovers_via_checksum_additivity() {
        let rcfg = small_rcfg();
        let input = InputSpec::UniformRandom { seed: 21 }.generate(4 * 160);
        let plan = FaultPlan::from_sites(vec![site(
            1,
            1,
            FaultKind::StuckBank { bank: 3, bit: 7 },
            Persistence::Transient,
        )]);
        let r = simulate_sort_robust(&input, SortAlgorithm::ThrustMergesort, &rcfg, &plan)
            .expect("merge-pass fault must recover");
        verify_sorted_permutation(&input, &r.run.output).expect("output exactly sorted");
        assert_eq!(r.report.detections[0].kernel, "merge-pass-0");
        assert_eq!(r.report.counters.retries, 1);
    }

    #[test]
    fn sticky_fault_degrades_to_fallback() {
        let rcfg = small_rcfg();
        let input = InputSpec::UniformRandom { seed: 13 }.generate(2 * 160);
        let plan = FaultPlan::from_sites(vec![site(
            0,
            1,
            FaultKind::StuckBank { bank: 1, bit: 2 },
            Persistence::Sticky,
        )]);
        let r = simulate_sort_robust(&input, SortAlgorithm::CfMerge, &rcfg, &plan)
            .expect("sticky fault must recover via fallback");
        verify_sorted_permutation(&input, &r.run.output).expect("output exactly sorted");
        assert_eq!(r.algorithm, SortAlgorithm::ThrustMergesort);
        assert_eq!(r.report.counters.fallbacks, 1);
        assert!(matches!(r.report.degradations[0], Degradation::Fallback { .. }));
        // Detected on the first try and on both retries before degrading.
        assert_eq!(r.report.counters.faults_detected, 1 + u64::from(rcfg.max_retries));
    }

    #[test]
    fn sticky_fault_without_fallback_is_typed() {
        let mut rcfg = small_rcfg();
        rcfg.allow_fallback = false;
        let input = InputSpec::UniformRandom { seed: 14 }.generate(160);
        let plan = FaultPlan::from_sites(vec![site(
            0,
            0,
            FaultKind::StuckBank { bank: 1, bit: 2 },
            Persistence::Sticky,
        )]);
        match simulate_sort_robust(&input, SortAlgorithm::CfMerge, &rcfg, &plan) {
            Err(SortError::UnrecoverableFault { kernel, block, attempts, .. }) => {
                assert_eq!(kernel, "blocksort");
                assert_eq!(block, 0);
                assert_eq!(attempts, rcfg.max_retries + 1);
            }
            other => panic!("expected UnrecoverableFault, got {other:?}"),
        }
    }

    #[test]
    fn permanent_fault_is_unrecoverable_even_with_fallback() {
        let rcfg = small_rcfg();
        let input = InputSpec::UniformRandom { seed: 15 }.generate(160);
        let plan = FaultPlan::from_sites(vec![site(
            0,
            0,
            FaultKind::StuckBank { bank: 0, bit: 1 },
            Persistence::Permanent,
        )]);
        match simulate_sort_robust(&input, SortAlgorithm::CfMerge, &rcfg, &plan) {
            Err(SortError::UnrecoverableFault { .. }) => {}
            other => panic!("expected UnrecoverableFault, got {other:?}"),
        }
    }

    #[test]
    fn unlaunchable_config_substitutes_params_and_reports() {
        let mut rcfg = RobustConfig::new(SortConfig::with_params(SortParams::new(15, 2048)));
        let input = InputSpec::UniformRandom { seed: 16 }.generate(10_000);
        let r = simulate_sort_robust(&input, SortAlgorithm::CfMerge, &rcfg, &FaultPlan::none())
            .expect("must degrade, not fail");
        verify_sorted_permutation(&input, &r.run.output).expect("output exactly sorted");
        assert_eq!(r.algorithm, SortAlgorithm::ThrustMergesort);
        assert!(matches!(r.report.degradations[0], Degradation::ParamsSubstituted { .. }));
        assert!(matches!(r.report.degradations[1], Degradation::Fallback { .. }));
        rcfg.allow_fallback = false;
        match simulate_sort_robust(&input, SortAlgorithm::CfMerge, &rcfg, &FaultPlan::none()) {
            Err(SortError::Unlaunchable { .. }) => {}
            other => panic!("expected Unlaunchable, got {other:?}"),
        }
    }

    #[test]
    fn latency_spike_costs_time_but_needs_no_retry() {
        let rcfg = small_rcfg();
        let input = InputSpec::UniformRandom { seed: 17 }.generate(160);
        let plan = FaultPlan::from_sites(vec![site(
            0,
            0,
            FaultKind::LatencySpike { cycles: 1_000_000 },
            Persistence::Transient,
        )]);
        let r = simulate_sort_robust(&input, SortAlgorithm::CfMerge, &rcfg, &plan).expect("ok");
        assert!(r.run.output.is_sorted());
        assert_eq!(r.report.counters.faults_detected, 0);
        assert_eq!(r.report.counters.retries, 0);
        assert!(r.report.spike_seconds > 0.0);
        let plain = simulate_sort(&input, SortAlgorithm::CfMerge, &rcfg.base);
        assert!(r.run.simulated_seconds > plain.simulated_seconds);
    }

    #[test]
    fn empty_and_single_inputs_are_fine() {
        let rcfg = small_rcfg();
        let r = simulate_sort_robust::<u32>(&[], SortAlgorithm::CfMerge, &rcfg, &FaultPlan::none())
            .expect("empty");
        assert!(r.run.output.is_empty());
        let r = simulate_sort_robust(&[42u32], SortAlgorithm::CfMerge, &rcfg, &FaultPlan::none())
            .expect("single");
        assert_eq!(r.run.output, vec![42]);
    }

    #[test]
    fn pipeline_shape_matches_driver() {
        let p = SortParams::new(5, 32); // tile = 160
        assert_eq!(pipeline_shape(0, &p), Vec::<u64>::new());
        assert_eq!(pipeline_shape(1, &p), vec![1]);
        assert_eq!(pipeline_shape(160, &p), vec![1]);
        assert_eq!(pipeline_shape(161, &p), vec![2, 2]);
        assert_eq!(pipeline_shape(4 * 160, &p), vec![4, 4, 4]);
    }

    #[test]
    fn hedging_cuts_straggler_latency_and_is_priced() {
        let mut rcfg = small_rcfg();
        rcfg.hedge = HedgeConfig::on();
        let input = InputSpec::UniformRandom { seed: 31 }.generate(8 * 160);
        // One block of the block-sort launch stalls for half a million
        // cycles; the other seven are clean, so it is a clear p95 outlier.
        let plan = FaultPlan::from_sites(vec![site(
            0,
            3,
            FaultKind::LatencySpike { cycles: 500_000 },
            Persistence::Transient,
        )]);
        let hedged =
            simulate_sort_robust(&input, SortAlgorithm::CfMerge, &rcfg, &plan).expect("hedged run");
        verify_sorted_permutation(&input, &hedged.run.output).expect("output exactly sorted");
        assert_eq!(hedged.report.hedges.launched, 1);
        // The spike is transient: it does not re-fire on the duplicate
        // (attempt 1), so the hedge wins and the spike cost vanishes.
        assert_eq!(hedged.report.hedges.won, 1);
        assert_eq!(hedged.report.hedges.cycles_saved, 500_000);
        assert!(hedged.report.hedges.hedge_seconds > 0.0);
        assert_eq!(hedged.report.counters.hedges_launched, 1);
        assert_eq!(hedged.report.counters.hedges_won, 1);
        assert_eq!(hedged.report.spike_seconds, 0.0);

        let mut unhedged_cfg = small_rcfg();
        unhedged_cfg.hedge = HedgeConfig::default();
        let unhedged = simulate_sort_robust(&input, SortAlgorithm::CfMerge, &unhedged_cfg, &plan)
            .expect("unhedged run");
        assert_eq!(unhedged.run.output, hedged.run.output);
        assert!(
            hedged.run.simulated_seconds < unhedged.run.simulated_seconds,
            "winning hedge must beat eating the spike: {} vs {}",
            hedged.run.simulated_seconds,
            unhedged.run.simulated_seconds
        );
    }

    #[test]
    fn hedging_is_bit_identical_on_fault_free_runs() {
        let mut rcfg = small_rcfg();
        rcfg.hedge = HedgeConfig::on();
        let input = InputSpec::UniformRandom { seed: 32 }.generate(4 * 160 + 9);
        let plain = simulate_sort(&input, SortAlgorithm::CfMerge, &rcfg.base);
        let r = simulate_sort_robust(&input, SortAlgorithm::CfMerge, &rcfg, &FaultPlan::none())
            .expect("clean run");
        assert_eq!(r.run.output, plain.output);
        assert_eq!(r.run.simulated_seconds, plain.simulated_seconds);
        assert_eq!(r.report.hedges, HedgeCounters::default());
    }

    #[test]
    fn sticky_spike_hedge_loses_and_costs_time() {
        let mut rcfg = small_rcfg();
        rcfg.hedge = HedgeConfig::on();
        let input = InputSpec::UniformRandom { seed: 33 }.generate(8 * 160);
        // A sticky spike re-fires on the hedged duplicate too: the hedge
        // loses and the straggler's latency stands.
        let plan = FaultPlan::from_sites(vec![site(
            0,
            5,
            FaultKind::LatencySpike { cycles: 500_000 },
            Persistence::Sticky,
        )]);
        let r = simulate_sort_robust(&input, SortAlgorithm::CfMerge, &rcfg, &plan).expect("ok");
        assert_eq!(r.report.hedges.launched, 1);
        assert_eq!(r.report.hedges.won, 0);
        assert!(r.report.spike_seconds > 0.0, "losing hedge leaves the spike in place");
    }

    #[test]
    fn checkpoints_capture_every_pass() {
        let rcfg = small_rcfg();
        let input = InputSpec::UniformRandom { seed: 34 }.generate(4 * 160 + 17);
        let (run, checkpoints) = simulate_sort_robust_checkpointed(
            &input,
            SortAlgorithm::CfMerge,
            &rcfg,
            &FaultPlan::none(),
            CheckpointPolicy::every_pass(),
        )
        .expect("checkpointed run");
        // One capture point per launch: blocksort plus every merge pass.
        let launches = pipeline_shape(input.len(), &rcfg.base.params).len();
        assert_eq!(checkpoints.len(), launches);
        for (i, cp) in checkpoints.iter().enumerate() {
            assert_eq!(cp.completed_passes, i);
            cp.validate_as::<u32>().expect("every captured checkpoint validates");
        }
        // Capture must not perturb the run itself.
        let plain = simulate_sort_robust(&input, SortAlgorithm::CfMerge, &rcfg, &FaultPlan::none())
            .expect("plain robust run");
        assert_eq!(run.run.output, plain.run.output);
        assert_eq!(run.run.simulated_seconds, plain.run.simulated_seconds);
    }

    #[test]
    fn kill_and_resume_is_byte_identical_without_redoing_passes() {
        let rcfg = small_rcfg();
        let input = InputSpec::UniformRandom { seed: 35 }.generate(8 * 160 + 3);
        // A transient fault in a *late* merge pass: it must still fire
        // (and be recovered) in the resumed half of the run.
        let plan = FaultPlan::from_sites(vec![site(
            3,
            1,
            FaultKind::StuckBank { bank: 2, bit: 5 },
            Persistence::Transient,
        )]);
        let whole = simulate_sort_robust(&input, SortAlgorithm::CfMerge, &rcfg, &plan)
            .expect("uninterrupted run");

        let killed = simulate_sort_robust_checkpointed(
            &input,
            SortAlgorithm::CfMerge,
            &rcfg,
            &plan,
            CheckpointPolicy::kill_after(1),
        );
        let cp = match killed {
            Err(SortError::Interrupted { after_pass: 1, checkpoint }) => *checkpoint,
            other => panic!("expected Interrupted after pass 1, got {other:?}"),
        };
        let resumed = resume_sort_robust::<u32>(&cp, &rcfg, &plan).expect("resume");
        assert_eq!(resumed.run.output, whole.run.output, "byte-identical output");
        assert_eq!(
            resumed.run.simulated_seconds, whole.run.simulated_seconds,
            "modeled seconds match the uninterrupted run"
        );
        assert_eq!(resumed.report.counters, whole.report.counters);
        // Only the remaining passes were executed: no blocksort, no
        // merge-pass-0 (completed_passes = 1 covers both).
        assert_eq!(resumed.run.kernels.first().map(|k| k.name.as_str()), Some("merge-pass-1"));
        assert!(resumed.run.kernels.len() < whole.run.kernels.len());
    }

    #[test]
    fn tampered_checkpoint_is_rejected() {
        let rcfg = small_rcfg();
        let input = InputSpec::UniformRandom { seed: 36 }.generate(4 * 160);
        let cp = match simulate_sort_robust_checkpointed(
            &input,
            SortAlgorithm::CfMerge,
            &rcfg,
            &FaultPlan::none(),
            CheckpointPolicy::kill_after(0),
        ) {
            Err(SortError::Interrupted { checkpoint, .. }) => *checkpoint,
            other => panic!("expected Interrupted, got {other:?}"),
        };
        let mut bad = cp.clone();
        bad.state[7] ^= 0x10;
        assert!(matches!(
            resume_sort_robust::<u32>(&bad, &rcfg, &FaultPlan::none()),
            Err(SortError::CheckpointInvalid { .. })
        ));
        // A pass count that disagrees with the run width.
        let mut skewed = cp.clone();
        skewed.completed_passes += 1;
        assert!(matches!(
            resume_sort_robust::<u32>(&skewed, &rcfg, &FaultPlan::none()),
            Err(SortError::CheckpointInvalid { .. })
        ));
        // Wrong launch config for the checkpoint.
        let other_cfg = RobustConfig::new(SortConfig::with_params(SortParams::new(4, 64)));
        assert!(matches!(
            resume_sort_robust::<u32>(&cp, &other_cfg, &FaultPlan::none()),
            Err(SortError::CheckpointInvalid { .. })
        ));
    }

    /// Every block of a launch eligible: its roles, with the host
    /// reference written into a scratch destination.
    fn roles<K: SortKey>(kernel: Kernel<'_, K>, blocks: usize, tile: usize) -> Vec<Role> {
        block_classes(kernel, &|_| true, &mut vec![K::default(); blocks * tile], tile)
    }

    /// Roles of every launch of the pipeline over `input` (E = 5, u = 32).
    fn pipeline_roles(input: &[u32]) -> Vec<Vec<Role>> {
        let tile = 160;
        let mut src = input.to_vec();
        src.resize(pipeline_shape(input.len(), &SortParams::new(5, 32))[0] as usize * tile, !0);
        let mut out = vec![roles(Kernel::BlockSort { src: &src }, src.len() / tile, tile)];
        src.chunks_mut(tile).for_each(<[u32]>::sort_unstable);
        let mut width = tile;
        while width < src.len() {
            let (jobs, _) = partition_pass(&src, width, tile, false);
            out.push(roles(Kernel::MergePass { src: &src, jobs: &jobs }, jobs.len(), tile));
            width *= 2;
            src.chunks_mut(width).for_each(<[u32]>::sort_unstable);
        }
        out
    }

    #[test]
    fn repeating_inputs_form_classes_in_every_launch() {
        let n = 8 * 160;
        for (what, input) in [
            ("worst-case", InputSpec::worst_case(SortParams::new(5, 32)).generate(n)),
            ("sorted", InputSpec::Sorted.generate(n)),
            ("all-equal", vec![7; n]),
            ("two-valued", (0..n as u32).map(|i| i % 2).collect()),
        ] {
            for (launch, roles) in pipeline_roles(&input).iter().enumerate() {
                let shared = roles.iter().filter(|r| **r != Role::Simulate).count();
                assert!(shared > 0, "{what}: launch {launch} formed no class: {roles:?}");
            }
        }
        // Three full sorted tiles share a class; the sentinel-padded
        // fourth does not.
        let padded = pipeline_roles(&InputSpec::Sorted.generate(3 * 160 + 17));
        assert_eq!(
            padded[0][1..],
            [Role::Member { rep: 0 }, Role::Audit { rep: 0 }, Role::Simulate]
        );
        let random = InputSpec::UniformRandom { seed: 3 }.generate(n);
        assert!(pipeline_roles(&random)[0].iter().all(|r| *r == Role::Simulate));
    }

    #[test]
    fn sector_phase_separates_equal_order_patterns() {
        let (u, e, tile) = (32, 5, 160);
        // One (A, B) pair, with B 8 words past A's end, stored at four
        // offsets: one order pattern. The last offset is one word off the
        // sector grid; A's last sector is never B's first.
        let pair: Vec<u32> = (0..80).map(|i| 2 * i).chain((0..80).map(|i| 2 * i + 1)).collect();
        let at = [0, 176, 352, 529];
        let mut src = vec![0; at[3] + 168];
        for o in at {
            src[o..o + 80].copy_from_slice(&pair[..80]);
            src[o + 88..o + 168].copy_from_slice(&pair[80..]);
        }
        let jobs = at.map(|o| MergeChunkJob {
            a_begin: o,
            a_end: o + 80,
            b_begin: o + 88,
            b_end: o + 168,
        });
        let profiles = jobs.map(|job| {
            let banks = cfmerge_gpu_sim::banks::BankModel::new(32);
            let strategy = crate::sort::blocksort::MergeStrategy::DirectSerial;
            let mut out = vec![0; tile];
            crate::sort::merge_pass::merge_pass_block(
                banks, u, e, strategy, &src, job, &mut out, true,
            )
        });
        // Whole-sector shifts keep the profile; the one-word shift moves
        // the loads across sectors, so that block must not join.
        assert_eq!(profiles[0], profiles[1]);
        assert_ne!(profiles[0], profiles[3]);
        assert_eq!(
            roles(Kernel::MergePass { src: &src, jobs: &jobs }, 4, tile),
            [Role::Simulate, Role::Member { rep: 0 }, Role::Audit { rep: 0 }, Role::Simulate]
        );
    }

    #[test]
    fn tile_patterns_with_different_ties_differ() {
        let tile = 150;
        let tiles: Vec<u32> = [[1, 1, 2], [1, 2, 2], [5, 5, 9], [3, 3, 4]]
            .iter()
            .flat_map(|p| p.iter().copied().cycle().take(tile))
            .collect();
        let kernel = Kernel::BlockSort { src: &tiles };
        let key = |b| kernel.class_key(b, &mut vec![0; tile]);
        assert_ne!(key(0), key(1));
        assert_eq!(key(0), key(2), "same pattern, other values");
        assert_eq!(
            roles(kernel, 4, tile),
            [Role::Simulate, Role::Simulate, Role::Member { rep: 0 }, Role::Audit { rep: 0 }]
        );
    }

    #[test]
    fn prefilter_collision_simulates_both_blocks() {
        let tile = 160;
        // Adjacent comparisons agree (<, >, <, <, …); the rank pattern of
        // tile 1 differs from tiles 0 and 2.
        let input: Vec<u32> = [[1, 3, 2], [2, 3, 1], [1, 3, 2]]
            .iter()
            .flat_map(|head| head.iter().copied().chain(4..tile as u32 + 1))
            .collect();
        let kernel = Kernel::BlockSort { src: &input };
        assert_eq!(kernel.prefilter(0, tile), kernel.prefilter(1, tile));
        let key = |b| kernel.class_key(b, &mut vec![0; tile]);
        assert_ne!(key(0), key(1));
        assert_eq!(
            roles(kernel, 3, tile),
            [Role::Simulate, Role::Simulate, Role::Audit { rep: 0 }]
        );
        let cfg = small_rcfg().base;
        for algo in [SortAlgorithm::ThrustMergesort, SortAlgorithm::CfMerge] {
            let classed = simulate_sort(&input, algo, &cfg);
            let traced = crate::sort::pipeline::simulate_sort_traced(&input, algo, &cfg).run;
            assert_eq!(classed.output, traced.output);
            assert_eq!(classed.kernels.len(), traced.kernels.len());
            for (c, t) in classed.kernels.iter().zip(&traced.kernels) {
                assert_eq!((&c.profile, c.time), (&t.profile, t.time), "{}", c.name);
            }
        }
    }

    #[test]
    fn report_serializes() {
        let rcfg = small_rcfg();
        let input = InputSpec::UniformRandom { seed: 19 }.generate(160);
        let plan = FaultPlan::from_sites(vec![site(
            0,
            0,
            FaultKind::SharedBitFlip { bit: 3 },
            Persistence::Transient,
        )]);
        let r = simulate_sort_robust(&input, SortAlgorithm::CfMerge, &rcfg, &plan).expect("ok");
        let j = r.report.to_json();
        assert!(j.req("counters").is_ok());
        let back: RecoveryCounters =
            RecoveryCounters::from_json(j.req("counters").unwrap()).expect("round trip");
        assert_eq!(back, r.report.counters);
    }
}
