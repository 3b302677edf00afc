//! The generic dual-sequence scan combinator — the paper's concluding
//! observation, as a library API.
//!
//! > "while the subarrays are merged in case of the mergesort, once they
//! > are in registers, they can also be processed in some other way …
//! > our approach can be used to convert **any algorithm that involves a
//! > parallel scan of a pair of arrays** into a bank conflict free
//! > algorithm."
//!
//! [`dual_scan_block`] runs the conflict-free gather and hands every
//! thread its `(Aᵢ, Bᵢ)` pair — each restored to ascending order — to an
//! arbitrary register-space closure. The closure must be data-oblivious
//! in its *memory* behaviour by construction (it only sees registers);
//! its ALU cost is charged via the returned op count.
//!
//! The module also ships one worked application beyond merging:
//! [`intersect_counts`], counting `|Aᵢ ∩ Bᵢ|` per thread (the building
//! block of merge-based set intersection).

use super::layout::CfLayout;
use super::schedule::{GatherSchedule, RegisterSlot, ThreadSplit};
use cfmerge_gpu_sim::block::BlockSim;
use cfmerge_gpu_sim::fault::FaultWord;
use cfmerge_gpu_sim::profiler::PhaseClass;

/// One thread's gathered pair, both subsequences in ascending order.
#[derive(Debug, Clone)]
pub struct DualPair<K> {
    /// `Aᵢ`, ascending.
    pub a: Vec<K>,
    /// `Bᵢ`, ascending.
    pub b: Vec<K>,
}

/// Gather every thread's `(Aᵢ, Bᵢ)` conflict-free and apply `f` in
/// register space. Returns one result per thread; `f` returns
/// `(result, alu_ops)` and the ops are charged to the RegisterOps phase.
///
/// The shared memory of `block` must hold the permuted tile
/// `ρ(A ∪ π(B))` for `layout` (see [`super::simulate::permuted_tile`] /
/// the pipelines' load phase).
///
/// ```
/// use cfmerge_core::gather::{dual_scan_block, CfLayout, ThreadSplit};
/// use cfmerge_core::gather::simulate::permuted_tile;
/// use cfmerge_gpu_sim::{BankModel, BlockSim, PhaseClass};
///
/// // One 4-lane warp, E = 3: thread i takes i elements from A.
/// let (w, e) = (4usize, 3usize);
/// let lens = [0usize, 1, 2, 3];
/// let mut splits = Vec::new();
/// let mut acc = 0;
/// for len in lens {
///     splits.push(ThreadSplit { a_begin: acc, a_len: len });
///     acc += len;
/// }
/// let a = vec![10u32, 20, 30, 40, 50, 60];
/// let b = vec![1u32, 2, 3, 4, 5, 6];
/// let layout = CfLayout::new(w, e, w * e, a.len());
/// let tile = permuted_tile(&a, &b, &layout);
/// let mut block = BlockSim::<u32>::new(BankModel::new(w as u32), w, w * e);
/// block.phase(PhaseClass::LoadTile, |tid, lane| {
///     for r in 0..e { lane.st(r * w + tid, tile[r * w + tid]); }
/// });
/// // Sum each thread's pair — any register-space fold works.
/// let sums = dual_scan_block(&mut block, &layout, &splits, |_tid, p| {
///     (p.a.iter().chain(&p.b).sum::<u32>(), (p.a.len() + p.b.len()) as u64)
/// });
/// assert_eq!(sums.len(), 4);
/// assert_eq!(block.profile.phase(PhaseClass::Gather).bank_conflicts(), 0);
/// ```
///
/// # Panics
/// Panics if shapes disagree (one split per thread, layout covering the
/// block tile).
pub fn dual_scan_block<K, R, F>(
    block: &mut BlockSim<K>,
    layout: &CfLayout,
    splits: &[ThreadSplit],
    mut f: F,
) -> Vec<R>
where
    K: Copy + Default + FaultWord,
    F: FnMut(usize, &DualPair<K>) -> (R, u64),
{
    assert_eq!(splits.len(), block.threads(), "one split per thread");
    assert_eq!(layout.total, block.threads() * layout.e, "layout must cover the block tile");
    let e = layout.e;
    let mut results = Vec::with_capacity(splits.len());
    block.phase(PhaseClass::Gather, |tid, lane| {
        let sched = GatherSchedule::new(*layout, tid, splits[tid]);
        let mut pair = DualPair {
            a: vec![K::default(); splits[tid].a_len],
            b: vec![K::default(); e - splits[tid].a_len],
        };
        for j in 0..e {
            match sched.round(j) {
                RegisterSlot::A { m, slot } => pair.a[m] = lane.ld(slot),
                RegisterSlot::B { m, slot } => pair.b[m] = lane.ld(slot),
            }
        }
        let (r, ops) = f(tid, &pair);
        lane.alu(ops);
        results.push(r);
    });
    results
}

/// Count `|Aᵢ ∩ Bᵢ|` per thread with a two-finger register scan — an
/// example non-merge consumer of the gather. Elements must be sorted
/// (they are: the pipelines only ever gather sorted subsequences).
#[must_use]
pub fn intersect_counts(
    block: &mut BlockSim<u32>,
    layout: &CfLayout,
    splits: &[ThreadSplit],
) -> Vec<u32> {
    dual_scan_block(block, layout, splits, |_tid, pair| {
        let (mut i, mut j, mut count) = (0usize, 0usize, 0u32);
        let mut ops = 0u64;
        while i < pair.a.len() && j < pair.b.len() {
            ops += 3;
            match pair.a[i].cmp(&pair.b[j]) {
                std::cmp::Ordering::Less => i += 1,
                std::cmp::Ordering::Greater => j += 1,
                std::cmp::Ordering::Equal => {
                    count += 1;
                    i += 1;
                    j += 1;
                }
            }
        }
        (count, ops)
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gather::simulate::permuted_tile;
    use cfmerge_gpu_sim::banks::BankModel;
    use rand::{Rng, SeedableRng};

    fn setup(
        w: usize,
        e: usize,
        warps: usize,
        seed: u64,
    ) -> (BlockSim<u32>, CfLayout, Vec<ThreadSplit>, Vec<u32>, Vec<u32>) {
        let mut rng = rand::rngs::SmallRng::seed_from_u64(seed);
        let u = w * warps;
        let mut splits = Vec::with_capacity(u);
        let mut a_total = 0usize;
        for _ in 0..u {
            let len = rng.gen_range(0..=e);
            splits.push(ThreadSplit { a_begin: a_total, a_len: len });
            a_total += len;
        }
        let layout = CfLayout::new(w, e, u * e, a_total);
        let mut a: Vec<u32> = (0..a_total).map(|_| rng.gen_range(0..40)).collect();
        let mut b: Vec<u32> = (0..u * e - a_total).map(|_| rng.gen_range(0..40)).collect();
        a.sort_unstable();
        b.sort_unstable();
        let tile = permuted_tile(&a, &b, &layout);
        let mut block = BlockSim::<u32>::new(BankModel::new(w as u32), u, u * e);
        block.phase(PhaseClass::LoadTile, |tid, lane| {
            for r in 0..e {
                lane.st(r * u + tid, tile[r * u + tid]);
            }
        });
        (block, layout, splits, a, b)
    }

    #[test]
    fn dual_scan_delivers_ascending_subsequences() {
        for &(w, e, warps) in &[(12usize, 5usize, 1usize), (9, 6, 2), (32, 15, 2)] {
            let (mut block, layout, splits, a, b) = setup(w, e, warps, 11);
            let pairs = dual_scan_block(&mut block, &layout, &splits, |_tid, p| (p.clone(), 0));
            for (tid, (pair, split)) in pairs.iter().zip(&splits).enumerate() {
                let b_begin = tid * e - split.a_begin;
                assert_eq!(pair.a, a[split.a_begin..split.a_begin + split.a_len]);
                assert_eq!(pair.b, b[b_begin..b_begin + (e - split.a_len)]);
                assert!(pair.a.is_sorted() && pair.b.is_sorted());
            }
            assert_eq!(block.profile.phase(PhaseClass::Gather).bank_conflicts(), 0);
        }
    }

    #[test]
    fn intersect_counts_match_reference() {
        let (mut block, layout, splits, a, b) = setup(32, 15, 2, 12);
        let counts = intersect_counts(&mut block, &layout, &splits);
        for (tid, (&count, split)) in counts.iter().zip(&splits).enumerate() {
            let e = layout.e;
            let b_begin = tid * e - split.a_begin;
            let sa = &a[split.a_begin..split.a_begin + split.a_len];
            let sb = &b[b_begin..b_begin + (e - split.a_len)];
            // Reference multiset-intersection size via two-finger scan.
            let (mut i, mut j, mut expect) = (0usize, 0usize, 0u32);
            while i < sa.len() && j < sb.len() {
                match sa[i].cmp(&sb[j]) {
                    std::cmp::Ordering::Less => i += 1,
                    std::cmp::Ordering::Greater => j += 1,
                    std::cmp::Ordering::Equal => {
                        expect += 1;
                        i += 1;
                        j += 1;
                    }
                }
            }
            assert_eq!(count, expect, "tid={tid}");
        }
        assert_eq!(block.profile.phase(PhaseClass::Gather).bank_conflicts(), 0);
        assert!(block.profile.phase(PhaseClass::Gather).alu_ops > 0);
    }

    #[test]
    fn dual_scan_is_conflict_free_noncoprime_too() {
        let (mut block, layout, splits, _, _) = setup(8, 6, 3, 13);
        let _ = dual_scan_block(&mut block, &layout, &splits, |_t, p| (p.a.len() + p.b.len(), 1));
        assert_eq!(block.profile.phase(PhaseClass::Gather).bank_conflicts(), 0);
    }
}
