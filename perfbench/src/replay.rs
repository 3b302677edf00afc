//! The sort pipeline replayed through the program's public per-block
//! functions (`blocksort_block`, `partition_merge`, `merge_pass_block`),
//! with a host-time span around every call.
//!
//! The replay mirrors `simulate_sort`'s pipeline loop so each layer's host time
//! can be measured from outside. [`same_program`] checks it against
//! `simulate_sort` bit for bit: a replay that drifts from the pipeline
//! measures some other program, and its per-layer numbers are rejected.

use crate::spans::Spans;
use cfmerge_core::sort::blocksort::{blocksort_block, MergeStrategy};
use cfmerge_core::sort::merge_pass::{merge_pass_block, MergeChunkJob};
use cfmerge_core::sort::{KernelReport, SortAlgorithm, SortConfig, SortRun};
use cfmerge_gpu_sim::occupancy::{mergesort_regs_estimate, BlockResources};
use cfmerge_gpu_sim::profiler::{KernelProfile, PhaseClass};
use cfmerge_gpu_sim::timing::LaunchConfig;
use cfmerge_mergepath::diagonal::merge_path_steps;
use cfmerge_mergepath::partition::partition_merge;

/// What a replayed sort produced.
#[derive(Debug)]
pub struct Replay {
    /// Sorted keys.
    pub output: Vec<u32>,
    /// Per-launch profile and modeled time, in launch order.
    pub kernels: Vec<KernelReport>,
    /// Sum of every block's profile (partition-kernel accounting included).
    pub blocks_total: KernelProfile,
}

fn strategy(algo: SortAlgorithm) -> MergeStrategy {
    match algo {
        SortAlgorithm::ThrustMergesort => MergeStrategy::DirectSerial,
        SortAlgorithm::CfMerge => MergeStrategy::Gather,
    }
}

fn launch(config: &SortConfig, blocks: u64) -> LaunchConfig {
    let p = config.params;
    LaunchConfig {
        blocks,
        resources: BlockResources {
            threads: u32::try_from(p.u).expect("u fits u32"),
            shared_bytes: p.shared_bytes(),
            regs_per_thread: mergesort_regs_estimate(u32::try_from(p.e).expect("E fits u32")),
        },
    }
}

fn report(config: &SortConfig, name: String, blocks: u64, profile: KernelProfile) -> KernelReport {
    let time = config
        .timing
        .kernel_time(&config.device, &profile.total(), &launch(config, blocks))
        .expect("the workload's configurations launch on the modeled device");
    KernelReport { name, blocks, profile, time }
}

/// Replay one sort of a non-empty `input`. Every call opens a span under
/// `parent` tagged with `op`.
///
/// # Panics
/// Panics if `input` is empty or the configuration is invalid.
#[must_use]
pub fn replay_sort(
    input: &[u32],
    algo: SortAlgorithm,
    config: &SortConfig,
    spans: &mut Spans,
    parent: usize,
    op: u64,
) -> Replay {
    assert!(!input.is_empty(), "the workloads never sort an empty input");
    let label = algo.label();
    let count = config.count_accesses;
    let banks = config.device.bank_model();
    let (e, u) = (config.params.e, config.params.u);
    let tile = u * e;
    let runs = input.len().div_ceil(tile).next_power_of_two();
    let n_pad = runs * tile;
    let mut src = input.to_vec();
    src.resize(n_pad, u32::MAX);
    let mut dst = vec![0u32; n_pad];
    let mut kernels = Vec::new();
    let mut blocks_total = KernelProfile::new();

    let mut profile = KernelProfile::new();
    for (t, (s, d)) in src.chunks(tile).zip(dst.chunks_mut(tile)).enumerate() {
        let id = spans.open("blocksort", label, count, Some(parent), op);
        let p = blocksort_block(banks, u, e, strategy(algo), s, d, t * tile, count);
        spans.close(id);
        blocks_total.merge(&p);
        profile.merge(&p);
    }
    kernels.push(report(config, "blocksort".into(), runs as u64, profile));
    std::mem::swap(&mut src, &mut dst);

    let mut width = tile;
    let mut pass = 0usize;
    while width < n_pad {
        let pair = 2 * width;
        let mut jobs = Vec::with_capacity(runs);
        let mut profile = KernelProfile::new();
        for pair_lo in (0..n_pad).step_by(pair) {
            let a = &src[pair_lo..pair_lo + width];
            let b = &src[pair_lo + width..pair_lo + pair];
            let id = spans.open("partition", label, count, Some(parent), op);
            let chunks = partition_merge(a, b, tile);
            spans.close(id);
            jobs.extend(chunks.into_iter().map(|c| MergeChunkJob {
                a_begin: pair_lo + c.a_begin,
                a_end: pair_lo + c.a_end,
                b_begin: pair_lo + width + c.b_begin,
                b_end: pair_lo + width + c.b_end,
            }));
            // The partition kernel's modeled accounting, as `simulate_sort`
            // charges it: one boundary search per block of the pair.
            if count {
                let blocks_in_pair = (pair / tile) as u64;
                let steps = u64::from(merge_path_steps(pair / 2, width, width));
                let s = profile.phase_mut(PhaseClass::Search);
                s.global_ld_requests += blocks_in_pair * steps * 2;
                s.global_ld_sectors += blocks_in_pair * steps * 2;
                s.alu_ops += blocks_in_pair * steps * 6;
            }
        }
        blocks_total.merge(&profile);
        for (job, chunk) in jobs.iter().zip(dst.chunks_mut(tile)) {
            let id = spans.open("merge_pass", label, count, Some(parent), op);
            let p = merge_pass_block(banks, u, e, strategy(algo), &src, *job, chunk, count);
            spans.close(id);
            blocks_total.merge(&p);
            profile.merge(&p);
        }
        kernels.push(report(config, format!("merge-pass-{pass}"), jobs.len() as u64, profile));
        std::mem::swap(&mut src, &mut dst);
        width = pair;
        pass += 1;
    }
    src.truncate(input.len());
    Replay { output: src, kernels, blocks_total }
}

/// Bit-for-bit comparison of a replay with `simulate_sort`'s run: output,
/// Σ block profiles, and every launch's name, grid, profile and modeled
/// time. Returns the first difference.
///
/// # Errors
/// Names the first field that differs.
pub fn same_program(replay: &Replay, run: &SortRun) -> Result<(), String> {
    if replay.output != run.output {
        return Err("output differs".into());
    }
    if replay.blocks_total != run.profile {
        return Err("sum of block profiles differs".into());
    }
    if replay.kernels.len() != run.kernels.len() {
        return Err(format!("{} launches vs {}", replay.kernels.len(), run.kernels.len()));
    }
    for (r, k) in replay.kernels.iter().zip(&run.kernels) {
        if r.name != k.name || r.blocks != k.blocks || r.profile != k.profile || r.time != k.time {
            return Err(format!("launch {} differs", k.name));
        }
    }
    Ok(())
}
