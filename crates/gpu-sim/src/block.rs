//! Warp-synchronous thread-block execution engine.
//!
//! A kernel is expressed as a sequence of barrier-delimited **phases**; in
//! each phase every thread of the block runs the same per-lane closure.
//! Each lane's shared- and global-memory accesses are recorded as an
//! ordered trace, and traces are aligned *by access index* across the `w`
//! lanes of each warp: the `r`-th shared access of every lane forms the
//! warp's round `r`, exactly the lock-step model of the paper (Section 1,
//! footnote 2: conflict-free warps have no reason to diverge). Rounds are
//! priced by [`BankModel::round_cost`] and accumulated into a
//! [`KernelProfile`].
//!
//! ## Fidelity notes
//!
//! * Lanes of a warp execute *sequentially* inside the simulator but are
//!   costed as if lock-step. This is exact provided no lane reads a shared
//!   word written by a different lane **in the same phase** — which on a
//!   real GPU would equally require a `__syncthreads()`. The engine
//!   enforces this with a per-phase write-epoch race detector and panics
//!   on violation, so an un-barriered kernel cannot silently produce
//!   results the hardware would not.
//! * Every kernel in this repository issues the same number of accesses on
//!   every lane of a warp within a phase (serial merge: `E` loads; gather:
//!   `E` loads; searches: a fixed iteration count), so index alignment is
//!   not an approximation for them. Lanes that issue fewer accesses are
//!   treated as predicated off for the trailing rounds.

use crate::banks::BankModel;
use crate::fault::FaultWord;
use crate::global::sectors_touched;
use crate::profiler::{KernelProfile, PhaseClass};
use crate::trace::{GlobalRoundEvent, SharedRoundEvent};

/// The one hook seam of the block engine: everything a tracer, a memory
/// checker or a fault injector needs to observe or corrupt a block.
///
/// Every hook has an inlined no-op default, so an implementor overrides
/// only what it needs. `()` is the null hooks, a zero-sized type whose
/// calls compile away: a block built with [`BlockSim::new`] runs exactly
/// the unhooked engine. `(A, B)` composes two hooks, calling `A` and then
/// `B` on every hook.
///
/// The implementations are [`BlockTracer`](crate::trace::BlockTracer)
/// (see [`crate::trace`]), [`Sanitizer`](crate::check::Sanitizer) (see
/// [`crate::check`]) and [`BlockFaults`](crate::fault::BlockFaults) (see
/// [`crate::fault`]).
pub trait Hooks {
    /// Whether [`LaneCtx`] routes every access through
    /// [`Self::shared_access`] / [`Self::global_access`]. When set, the
    /// engine's panicking race asserts stand down: the hooks own hazard
    /// detection and decide whether each access proceeds, so a hazardous
    /// kernel runs to completion.
    const CHECKS: bool = false;

    /// Whether these hooks must see every block. The pipeline driver
    /// shares one block's simulation among blocks of identical order
    /// pattern only when this is unset, because a shared simulation calls
    /// no hooks for the blocks that reuse it. The default is `true`, so a
    /// new implementation sees every block unless it opts out.
    const OBSERVES: bool = true;

    /// A block simulation starts: `w` lanes per warp, `u` threads, and a
    /// shared-memory extent of `shared_len` words.
    #[inline]
    fn begin_block(&mut self, w: usize, u: usize, shared_len: usize) {
        let _ = (w, u, shared_len);
    }

    /// A barrier-delimited phase opens.
    #[inline]
    fn phase_begin(&mut self, class: PhaseClass) {
        let _ = class;
    }

    /// The phase's closing barrier.
    #[inline]
    fn phase_end(&mut self, class: PhaseClass) {
        let _ = class;
    }

    /// Warp `warp` starts executing the current phase.
    #[inline]
    fn warp_begin(&mut self, warp: usize) {
        let _ = warp;
    }

    /// Warp `warp` finished the current phase (divergence checkpoint).
    #[inline]
    fn warp_end(&mut self, warp: usize, class: PhaseClass) {
        let _ = (warp, class);
    }

    /// One warp shared-memory round was issued and costed.
    #[inline]
    fn shared_round(&mut self, ev: &SharedRoundEvent<'_>) {
        let _ = ev;
    }

    /// One warp global-memory round was issued and coalesced.
    #[inline]
    fn global_round(&mut self, ev: &GlobalRoundEvent) {
        let _ = ev;
    }

    /// `ops` scalar ALU operations were charged to the phase (summed over
    /// all lanes of the block).
    #[inline]
    fn alu(&mut self, class: PhaseClass, ops: u64) {
        let _ = (class, ops);
    }

    /// Lane `tid` touches shared word `idx` (`store` distinguishes write
    /// from read). Called only when [`Self::CHECKS`] is set. Return
    /// `false` to suppress the access (e.g. it is out of bounds);
    /// suppressed loads yield `T::default()`.
    #[inline]
    fn shared_access(&mut self, tid: u32, idx: usize, store: bool) -> bool {
        let _ = (tid, idx, store);
        true
    }

    /// Lane `tid` touches global word `idx` of an array of `len` words.
    /// Called only when [`Self::CHECKS`] is set. Return `false` to
    /// suppress the access.
    #[inline]
    fn global_access(&mut self, tid: u32, idx: usize, len: usize, store: bool) -> bool {
        let _ = (tid, idx, len, store);
        true
    }

    /// XOR mask applied to the value lane `tid` loads from shared `idx`
    /// (0 = pristine).
    #[inline]
    fn shared_ld_mask(&mut self, tid: u32, idx: usize) -> u64 {
        let _ = (tid, idx);
        0
    }

    /// XOR mask applied to the value lane `tid` stores to shared `idx`.
    #[inline]
    fn shared_st_mask(&mut self, tid: u32, idx: usize) -> u64 {
        let _ = (tid, idx);
        0
    }

    /// XOR mask applied to the value lane `tid` stores to global `idx`.
    #[inline]
    fn global_st_mask(&mut self, tid: u32, idx: usize) -> u64 {
        let _ = (tid, idx);
        0
    }

    /// Whether lane `tid`'s stores are currently dropped (lane drop-out).
    /// The access is still issued and costed; the data never commits.
    #[inline]
    fn drops_store(&mut self, tid: u32) -> bool {
        let _ = tid;
        false
    }
}

/// The null hooks: observe nothing, corrupt nothing, compile away.
impl Hooks for () {
    const OBSERVES: bool = false;
}

/// Two hooks in sequence: `A` then `B` on every hook, never
/// short-circuiting (both may record on every call). Accesses proceed
/// only if both allow them, masks combine by XOR, a store drops if
/// either drops it, and each const is set if either side sets it.
impl<A: Hooks, B: Hooks> Hooks for (A, B) {
    const CHECKS: bool = A::CHECKS || B::CHECKS;
    const OBSERVES: bool = A::OBSERVES || B::OBSERVES;

    #[inline]
    fn begin_block(&mut self, w: usize, u: usize, shared_len: usize) {
        self.0.begin_block(w, u, shared_len);
        self.1.begin_block(w, u, shared_len);
    }

    #[inline]
    fn phase_begin(&mut self, class: PhaseClass) {
        self.0.phase_begin(class);
        self.1.phase_begin(class);
    }

    #[inline]
    fn phase_end(&mut self, class: PhaseClass) {
        self.0.phase_end(class);
        self.1.phase_end(class);
    }

    #[inline]
    fn warp_begin(&mut self, warp: usize) {
        self.0.warp_begin(warp);
        self.1.warp_begin(warp);
    }

    #[inline]
    fn warp_end(&mut self, warp: usize, class: PhaseClass) {
        self.0.warp_end(warp, class);
        self.1.warp_end(warp, class);
    }

    #[inline]
    fn shared_round(&mut self, ev: &SharedRoundEvent<'_>) {
        self.0.shared_round(ev);
        self.1.shared_round(ev);
    }

    #[inline]
    fn global_round(&mut self, ev: &GlobalRoundEvent) {
        self.0.global_round(ev);
        self.1.global_round(ev);
    }

    #[inline]
    fn alu(&mut self, class: PhaseClass, ops: u64) {
        self.0.alu(class, ops);
        self.1.alu(class, ops);
    }

    #[inline]
    fn shared_access(&mut self, tid: u32, idx: usize, store: bool) -> bool {
        self.0.shared_access(tid, idx, store) & self.1.shared_access(tid, idx, store)
    }

    #[inline]
    fn global_access(&mut self, tid: u32, idx: usize, len: usize, store: bool) -> bool {
        self.0.global_access(tid, idx, len, store) & self.1.global_access(tid, idx, len, store)
    }

    #[inline]
    fn shared_ld_mask(&mut self, tid: u32, idx: usize) -> u64 {
        self.0.shared_ld_mask(tid, idx) ^ self.1.shared_ld_mask(tid, idx)
    }

    #[inline]
    fn shared_st_mask(&mut self, tid: u32, idx: usize) -> u64 {
        self.0.shared_st_mask(tid, idx) ^ self.1.shared_st_mask(tid, idx)
    }

    #[inline]
    fn global_st_mask(&mut self, tid: u32, idx: usize) -> u64 {
        self.0.global_st_mask(tid, idx) ^ self.1.global_st_mask(tid, idx)
    }

    #[inline]
    fn drops_store(&mut self, tid: u32) -> bool {
        self.0.drops_store(tid) | self.1.drops_store(tid)
    }
}

/// XOR `mask` into `v`'s bit pattern; a null mask folds to `v`.
#[inline]
fn flip<T: FaultWord>(v: T, mask: u64) -> T {
    if mask == 0 {
        v
    } else {
        T::from_fault_bits(v.to_fault_bits() ^ mask)
    }
}

/// One recorded shared-memory access.
#[derive(Debug, Clone, Copy)]
struct SharedAcc {
    addr: u32,
    store: bool,
}

/// One recorded global-memory access (element index within a flat space).
#[derive(Debug, Clone, Copy)]
struct GlobalAcc {
    idx: u64,
    store: bool,
}

/// Simulated thread block: `u` threads over a shared-memory array of `T`,
/// observed and corrupted by its [`Hooks`] `H`. The default `()` compiles
/// every hook away, leaving the built-in panic-on-race asserts in force.
pub struct BlockSim<T: Copy + Default + FaultWord, H: Hooks = ()> {
    banks: BankModel,
    /// Threads per block (`u` in the paper; must be a multiple of `w`).
    u: usize,
    shared: Vec<T>,
    write_epoch: Vec<u32>,
    write_lane: Vec<u32>,
    epoch: u32,
    /// Accumulated counters for this block.
    pub profile: KernelProfile,
    counting: bool,
    hooks: H,
    // Reusable scratch (one slot per lane of a warp).
    shared_traces: Vec<Vec<SharedAcc>>,
    global_traces: Vec<Vec<GlobalAcc>>,
}

impl<T: Copy + Default + FaultWord> BlockSim<T> {
    /// New unhooked block: `u` threads, shared memory of `shared_len`
    /// words, warp width / bank count from `banks`.
    ///
    /// # Panics
    /// Panics if `u` is zero or not a multiple of the warp width.
    #[must_use]
    pub fn new(banks: BankModel, u: usize, shared_len: usize) -> Self {
        Self::with_hooks(banks, u, shared_len, ())
    }
}

impl<T: Copy + Default + FaultWord, H: Hooks> BlockSim<T, H> {
    /// New block observed and corrupted by `hooks`. Hooks that set
    /// [`Hooks::CHECKS`] replace the engine's panicking race asserts:
    /// hazards become their findings and the kernel runs to completion.
    ///
    /// # Panics
    /// Panics if `u` is zero or not a multiple of the warp width.
    #[must_use]
    pub fn with_hooks(banks: BankModel, u: usize, shared_len: usize, mut hooks: H) -> Self {
        let w = banks.num_banks as usize;
        assert!(u > 0 && u.is_multiple_of(w), "u={u} must be a positive multiple of w={w}");
        hooks.begin_block(w, u, shared_len);
        Self {
            banks,
            u,
            shared: vec![T::default(); shared_len],
            write_epoch: vec![0; shared_len],
            write_lane: vec![u32::MAX; shared_len],
            epoch: 0,
            profile: KernelProfile::new(),
            counting: true,
            hooks,
            shared_traces: vec![Vec::new(); w],
            global_traces: vec![Vec::new(); w],
        }
    }

    /// The hooks attached to this block.
    #[must_use]
    pub fn hooks(&self) -> &H {
        &self.hooks
    }

    /// Consume the block, returning its accumulated profile and hooks —
    /// the pair a kernel hands back to its launcher.
    #[must_use]
    pub fn finish(self) -> (KernelProfile, H) {
        (self.profile, self.hooks)
    }

    /// Warp width `w`.
    #[must_use]
    pub fn warp_width(&self) -> usize {
        self.banks.num_banks as usize
    }

    /// Threads per block `u`.
    #[must_use]
    pub fn threads(&self) -> usize {
        self.u
    }

    /// Number of warps `u / w`.
    #[must_use]
    pub fn warps(&self) -> usize {
        self.u / self.warp_width()
    }

    /// Shared-memory size in words.
    #[must_use]
    pub fn shared_len(&self) -> usize {
        self.shared.len()
    }

    /// Read-only view of shared memory (host-side inspection in tests).
    #[must_use]
    pub fn shared(&self) -> &[T] {
        &self.shared
    }

    /// Disable access accounting (correctness-only fast path for very
    /// large inputs). The race detector stays on.
    pub fn set_counting(&mut self, on: bool) {
        self.counting = on;
    }

    /// Run one barrier-delimited phase. `body(tid, lane)` is invoked once
    /// per thread; all its shared/global accesses are recorded and costed
    /// under `class`.
    pub fn phase<F>(&mut self, class: PhaseClass, mut body: F)
    where
        F: FnMut(usize, &mut LaneCtx<'_, T, H>),
    {
        self.epoch = self.epoch.wrapping_add(1);
        self.hooks.phase_begin(class);
        let w = self.warp_width();
        let warps = self.warps();
        let mut alu_total = 0u64;

        for warp in 0..warps {
            self.hooks.warp_begin(warp);
            for t in &mut self.shared_traces {
                t.clear();
            }
            for t in &mut self.global_traces {
                t.clear();
            }
            for lane in 0..w {
                let tid = warp * w + lane;
                let mut alu = 0u64;
                {
                    let mut ctx = LaneCtx {
                        shared: &mut self.shared,
                        write_epoch: &mut self.write_epoch,
                        write_lane: &mut self.write_lane,
                        epoch: self.epoch,
                        tid: tid as u32,
                        counting: self.counting,
                        shared_trace: &mut self.shared_traces[lane],
                        global_trace: &mut self.global_traces[lane],
                        alu: &mut alu,
                        hooks: &mut self.hooks,
                    };
                    body(tid, &mut ctx);
                }
                alu_total += alu;
            }
            self.hooks.warp_end(warp, class);
            if self.counting {
                self.account_warp(class, warp);
            }
        }
        self.profile.phase_mut(class).alu_ops += alu_total;
        if alu_total > 0 {
            self.hooks.alu(class, alu_total);
        }
        self.hooks.phase_end(class);
    }

    /// Convenience: run a phase with no memory side effects, charging only
    /// `alu` operations per thread (e.g. register-space sorting networks).
    pub fn alu_phase(&mut self, class: PhaseClass, ops_per_thread: u64) {
        let ops = ops_per_thread * self.u as u64;
        self.profile.phase_mut(class).alu_ops += ops;
        self.hooks.phase_begin(class);
        self.hooks.alu(class, ops);
        self.hooks.phase_end(class);
    }

    fn account_warp(&mut self, class: PhaseClass, warp: usize) {
        let w = self.warp_width();
        // --- shared memory rounds ---
        let max_len = self.shared_traces.iter().map(Vec::len).max().unwrap_or(0);
        let mut ld_buf: Vec<u32> = Vec::with_capacity(w);
        let mut st_buf: Vec<u32> = Vec::with_capacity(w);
        for r in 0..max_len {
            ld_buf.clear();
            st_buf.clear();
            for trace in &self.shared_traces {
                if let Some(acc) = trace.get(r) {
                    if acc.store {
                        st_buf.push(acc.addr);
                    } else {
                        ld_buf.push(acc.addr);
                    }
                }
            }
            let ld_cost = self.banks.round_cost(&ld_buf);
            let st_cost = self.banks.round_cost(&st_buf);
            self.hooks.shared_round(&SharedRoundEvent {
                class,
                warp,
                round: r,
                loads: &ld_buf,
                stores: &st_buf,
                ld_cost,
                st_cost,
            });
            if matches!(class, PhaseClass::Merge | PhaseClass::Gather) && ld_cost.active_lanes > 0 {
                self.profile.merge_degree_hist.record(ld_cost.transactions);
            }
            let c = self.profile.phase_mut(class);
            if ld_cost.active_lanes > 0 {
                c.shared_ld_requests += 1;
                c.shared_ld_transactions += u64::from(ld_cost.transactions);
            }
            if st_cost.active_lanes > 0 {
                c.shared_st_requests += 1;
                c.shared_st_transactions += u64::from(st_cost.transactions);
            }
        }

        // --- global memory rounds ---
        let max_len = self.global_traces.iter().map(Vec::len).max().unwrap_or(0);
        let mut gld: Vec<u64> = Vec::with_capacity(w);
        let mut gst: Vec<u64> = Vec::with_capacity(w);
        for r in 0..max_len {
            gld.clear();
            gst.clear();
            for trace in &self.global_traces {
                if let Some(acc) = trace.get(r) {
                    if acc.store {
                        gst.push(acc.idx);
                    } else {
                        gld.push(acc.idx);
                    }
                }
            }
            let ld_sectors = sectors_touched(&gld);
            let st_sectors = sectors_touched(&gst);
            let c = self.profile.phase_mut(class);
            if !gld.is_empty() {
                c.global_ld_requests += 1;
                c.global_ld_sectors += ld_sectors;
            }
            if !gst.is_empty() {
                c.global_st_requests += 1;
                c.global_st_sectors += st_sectors;
            }
            self.hooks.global_round(&GlobalRoundEvent {
                class,
                warp,
                round: r,
                ld_lanes: gld.len() as u32,
                st_lanes: gst.len() as u32,
                ld_sectors,
                st_sectors,
            });
        }
    }
}

/// Per-lane handle passed to phase bodies: the only way kernel code can
/// touch memory, so every access is recorded.
///
/// With hooks that set [`Hooks::CHECKS`], every access is routed through
/// them and they may suppress it (out-of-bounds accesses become findings
/// instead of panics; suppressed loads yield `T::default()`), and the
/// built-in panicking race asserts stand down in favor of the hooks'
/// own race detection.
///
/// The hooks' masks and drop-outs may corrupt loads and stores; the
/// traffic is recorded and costed either way — on real hardware a
/// faulted store still occupies its transaction.
pub struct LaneCtx<'a, T, H: Hooks = ()> {
    shared: &'a mut [T],
    write_epoch: &'a mut [u32],
    write_lane: &'a mut [u32],
    epoch: u32,
    tid: u32,
    counting: bool,
    shared_trace: &'a mut Vec<SharedAcc>,
    global_trace: &'a mut Vec<GlobalAcc>,
    alu: &'a mut u64,
    hooks: &'a mut H,
}

impl<T: Copy + Default + FaultWord, H: Hooks> LaneCtx<'_, T, H> {
    /// This thread's id within the block.
    #[must_use]
    pub fn tid(&self) -> usize {
        self.tid as usize
    }

    /// Shared-memory load.
    ///
    /// # Panics
    /// Unless the hooks check accesses, panics if the word was written by
    /// a *different* lane in the same phase (a missing-barrier race the
    /// hardware would not tolerate either), or on out-of-bounds access.
    /// With checking hooks, hazards are recorded as findings instead.
    #[must_use]
    pub fn ld(&mut self, idx: usize) -> T {
        if H::CHECKS {
            if !self.hooks.shared_access(self.tid, idx, false) {
                return T::default();
            }
        } else {
            assert!(
                self.write_epoch[idx] != self.epoch || self.write_lane[idx] == self.tid,
                "race: lane {} loads shared[{idx}] written by lane {} in the same phase \
                 (missing barrier)",
                self.tid,
                self.write_lane[idx],
            );
        }
        if self.counting {
            self.shared_trace.push(SharedAcc { addr: idx as u32, store: false });
        }
        flip(self.shared[idx], self.hooks.shared_ld_mask(self.tid, idx))
    }

    /// Shared-memory store.
    ///
    /// # Panics
    /// Unless the hooks check accesses, panics if another lane already
    /// wrote this word in the same phase.
    pub fn st(&mut self, idx: usize, v: T) {
        if H::CHECKS {
            if !self.hooks.shared_access(self.tid, idx, true) {
                return;
            }
        } else {
            assert!(
                self.write_epoch[idx] != self.epoch || self.write_lane[idx] == self.tid,
                "race: lanes {} and {} both store shared[{idx}] in the same phase \
                 (missing barrier)",
                self.write_lane[idx],
                self.tid,
            );
            self.write_epoch[idx] = self.epoch;
            self.write_lane[idx] = self.tid;
        }
        if self.counting {
            self.shared_trace.push(SharedAcc { addr: idx as u32, store: true });
        }
        if self.hooks.drops_store(self.tid) {
            return; // lane drop-out: traffic costed, data never commits
        }
        self.shared[idx] = flip(v, self.hooks.shared_st_mask(self.tid, idx));
    }

    /// Global-memory load from a caller-provided array. The element index
    /// `idx` is recorded for coalescing accounting.
    #[must_use]
    pub fn ld_global(&mut self, data: &[T], idx: usize) -> T {
        if H::CHECKS && !self.hooks.global_access(self.tid, idx, data.len(), false) {
            return T::default();
        }
        if self.counting {
            self.global_trace.push(GlobalAcc { idx: idx as u64, store: false });
        }
        data[idx]
    }

    /// Global-memory store into a caller-provided array.
    pub fn st_global(&mut self, data: &mut [T], idx: usize, v: T) {
        if H::CHECKS && !self.hooks.global_access(self.tid, idx, data.len(), true) {
            return;
        }
        if self.counting {
            self.global_trace.push(GlobalAcc { idx: idx as u64, store: true });
        }
        if self.hooks.drops_store(self.tid) {
            return;
        }
        data[idx] = flip(v, self.hooks.global_st_mask(self.tid, idx));
    }

    /// Record the *traffic* of a global load at `idx` without moving
    /// data — for kernels that stage their reads/writes outside the
    /// engine (e.g. scatter kernels whose output buffer cannot be
    /// mutably shared across concurrently simulated blocks). No bounds
    /// are known here, so checking hooks only count the access.
    pub fn mark_global_ld(&mut self, idx: usize) {
        if H::CHECKS {
            let _ = self.hooks.global_access(self.tid, idx, usize::MAX, false);
        }
        if self.counting {
            self.global_trace.push(GlobalAcc { idx: idx as u64, store: false });
        }
    }

    /// Record the traffic of a global store at `idx` without writing.
    pub fn mark_global_st(&mut self, idx: usize) {
        if H::CHECKS {
            let _ = self.hooks.global_access(self.tid, idx, usize::MAX, true);
        }
        if self.counting {
            self.global_trace.push(GlobalAcc { idx: idx as u64, store: true });
        }
    }

    /// Whether this lane's stores are currently dropped by the hooks.
    /// Kernels that commit their output *outside* the engine (the
    /// [`Self::mark_global_st`] pattern) must consult this themselves —
    /// `st`/`st_global` handle it automatically.
    pub fn store_dropped(&mut self) -> bool {
        self.hooks.drops_store(self.tid)
    }

    /// Apply the hooks' global-store corruption to `v` destined for
    /// element `idx` — the data-path companion to
    /// [`Self::mark_global_st`] for kernels staging writes outside the
    /// engine. Identity under hooks that corrupt nothing.
    #[must_use]
    pub fn corrupt_global_st(&mut self, idx: usize, v: T) -> T {
        flip(v, self.hooks.global_st_mask(self.tid, idx))
    }

    /// Charge `n` scalar ALU operations to this lane.
    pub fn alu(&mut self, n: u64) {
        *self.alu += n;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn block(u: usize, w: u32, len: usize) -> BlockSim<u32> {
        BlockSim::new(BankModel::new(w), u, len)
    }

    #[test]
    fn unit_stride_store_then_load_is_conflict_free() {
        let mut b = block(8, 8, 64);
        b.phase(PhaseClass::LoadTile, |tid, lane| {
            for r in 0..4 {
                lane.st(r * 8 + tid, (r * 8 + tid) as u32);
            }
        });
        b.phase(PhaseClass::Merge, |tid, lane| {
            for r in 0..4 {
                let v = lane.ld(r * 8 + tid);
                assert_eq!(v, (r * 8 + tid) as u32);
            }
        });
        let p = b.profile.total();
        assert_eq!(p.shared_st_requests, 4);
        assert_eq!(p.shared_st_transactions, 4);
        assert_eq!(p.shared_ld_requests, 4);
        assert_eq!(p.shared_ld_transactions, 4);
        assert_eq!(b.profile.total_bank_conflicts(), 0);
    }

    #[test]
    fn same_bank_column_scan_serializes() {
        // All 8 lanes scan the same 8-element column (stride w) — the
        // worst case: every round is an 8-way conflict.
        let mut b = block(8, 8, 64);
        b.phase(PhaseClass::LoadTile, |tid, lane| {
            lane.st(tid, tid as u32); // seed something readable
        });
        b.phase(PhaseClass::Merge, |_tid, lane| {
            for r in 0..8usize {
                let _ = lane.ld(r * 8); // all lanes read word r*8 → same bank 0...
            }
        });
        // Careful: all lanes read the SAME word each round → broadcast,
        // zero conflicts. Use distinct words in one bank instead:
        let mut b2 = block(8, 8, 64);
        b2.phase(PhaseClass::Merge, |tid, lane| {
            for r in 0..4usize {
                let _ = lane.ld(((tid + r) % 8) * 8); // distinct words, all bank 0
            }
        });
        assert_eq!(b.profile.merge_bank_conflicts(), 0);
        let m = b2.profile.phase(PhaseClass::Merge);
        assert_eq!(m.shared_ld_requests, 4);
        assert_eq!(m.shared_ld_transactions, 32);
        assert_eq!(b2.profile.merge_bank_conflicts(), 28);
    }

    #[test]
    fn multi_warp_blocks_account_per_warp() {
        // 2 warps of 4; each warp does one conflict-free round.
        let mut b = block(8, 4, 32);
        b.phase(PhaseClass::Gather, |tid, lane| {
            let _ = lane.ld(tid % 4); // lanes of each warp read words 0..3
        });
        let g = b.profile.phase(PhaseClass::Gather);
        assert_eq!(g.shared_ld_requests, 2); // one request per warp
        assert_eq!(g.shared_ld_transactions, 2);
    }

    #[test]
    fn cross_warp_same_phase_rw_is_allowed_only_with_barrier() {
        // Writes in phase 1, reads in phase 2: fine even across warps.
        let mut b = block(8, 4, 32);
        b.phase(PhaseClass::LoadTile, |tid, lane| lane.st(tid, tid as u32 * 10));
        b.phase(PhaseClass::Merge, |tid, lane| {
            let v = lane.ld((tid + 4) % 8);
            assert_eq!(v, (((tid + 4) % 8) * 10) as u32);
        });
    }

    #[test]
    #[should_panic(expected = "missing barrier")]
    fn same_phase_race_detected() {
        let mut b = block(8, 8, 32);
        b.phase(PhaseClass::Other, |tid, lane| {
            lane.st(tid, 1);
            if tid == 3 {
                let _ = lane.ld(0); // written by lane 0 this phase
            }
        });
    }

    #[test]
    #[should_panic(expected = "missing barrier")]
    fn same_phase_write_write_race_detected() {
        let mut b = block(8, 8, 32);
        b.phase(PhaseClass::Other, |tid, lane| {
            lane.st(5, tid as u32);
        });
    }

    #[test]
    fn same_lane_rmw_in_phase_is_fine() {
        let mut b = block(8, 8, 32);
        b.phase(PhaseClass::Other, |tid, lane| {
            lane.st(tid, 7);
            let v = lane.ld(tid);
            lane.st(tid, v + 1);
        });
        assert_eq!(b.shared()[0], 8);
    }

    #[test]
    fn global_coalescing_counted() {
        let data: Vec<u32> = (0..256).collect();
        let mut out = vec![0u32; 256];
        let mut b = block(32, 32, 64);
        b.phase(PhaseClass::LoadTile, |tid, lane| {
            // Unit stride: 32 lanes × 2 rounds → 2 requests, 4 sectors each.
            for r in 0..2 {
                let v = lane.ld_global(&data, r * 32 + tid);
                lane.st_global(&mut out, r * 32 + tid, v + 1);
            }
        });
        let c = b.profile.phase(PhaseClass::LoadTile);
        assert_eq!(c.global_ld_requests, 2);
        assert_eq!(c.global_ld_sectors, 8);
        assert_eq!(c.global_st_requests, 2);
        assert_eq!(c.global_st_sectors, 8);
        assert_eq!(out[33], 34);
    }

    #[test]
    fn predicated_lanes_shorter_traces() {
        // Odd lanes issue 1 load, even lanes 2: round 1 has 4 lanes.
        let mut b = block(8, 8, 32);
        b.phase(PhaseClass::Search, |tid, lane| {
            let _ = lane.ld(tid);
            if tid % 2 == 0 {
                let _ = lane.ld(8 + tid);
            }
        });
        let c = b.profile.phase(PhaseClass::Search);
        assert_eq!(c.shared_ld_requests, 2);
        assert_eq!(c.shared_ld_transactions, 2);
    }

    #[test]
    fn counting_off_still_moves_data() {
        let mut b = block(8, 8, 32);
        b.set_counting(false);
        b.phase(PhaseClass::LoadTile, |tid, lane| lane.st(tid, 42));
        b.phase(PhaseClass::Merge, |tid, lane| {
            assert_eq!(lane.ld(tid), 42);
        });
        assert_eq!(b.profile.total().shared_requests(), 0);
    }

    #[test]
    fn alu_phase_charges_ops() {
        let mut b = block(8, 8, 16);
        b.alu_phase(PhaseClass::RegisterOps, 10);
        assert_eq!(b.profile.phase(PhaseClass::RegisterOps).alu_ops, 80);
    }

    #[test]
    #[should_panic(expected = "multiple of w")]
    fn non_multiple_block_rejected() {
        let _ = block(10, 8, 16);
    }

    fn checked_block(u: usize, w: u32, len: usize) -> BlockSim<u32, Sanitizer> {
        BlockSim::with_hooks(BankModel::new(w), u, len, Sanitizer::new())
    }

    use crate::check::{Hazard, Sanitizer};

    #[test]
    fn sanitizer_records_race_instead_of_panicking() {
        let mut b = checked_block(8, 8, 32);
        b.phase(PhaseClass::Other, |tid, lane| {
            lane.st(5, tid as u32); // all lanes store word 5
        });
        let (_, ck) = b.finish();
        assert!(!ck.is_clean());
        assert!(
            ck.findings().iter().any(|f| matches!(f.hazard, Hazard::WriteWriteRace { .. })),
            "{}",
            ck.report()
        );
    }

    #[test]
    fn sanitizer_suppresses_oob_and_keeps_running() {
        let mut b = checked_block(8, 8, 16);
        b.phase(PhaseClass::LoadTile, |tid, lane| lane.st(tid, 7));
        b.phase(PhaseClass::Merge, |tid, lane| {
            let v = lane.ld(if tid == 3 { 999 } else { tid });
            if tid == 3 {
                assert_eq!(v, 0, "suppressed OOB load yields the default value");
            }
        });
        let (_, ck) = b.finish();
        let oob: Vec<_> = ck
            .findings()
            .iter()
            .filter(|f| matches!(f.hazard, Hazard::SharedOutOfBounds { .. }))
            .collect();
        assert_eq!(oob.len(), 1);
        assert_eq!(oob[0].addr, Some(999));
    }

    #[test]
    fn sanitizer_clean_on_well_formed_kernel() {
        let mut b = checked_block(8, 8, 32);
        b.phase(PhaseClass::LoadTile, |tid, lane| {
            for r in 0..4 {
                lane.st(r * 8 + tid, tid as u32);
            }
        });
        b.phase(PhaseClass::Merge, |tid, lane| {
            for r in 0..4 {
                let _ = lane.ld(r * 8 + (tid + 1) % 8);
            }
        });
        assert!(b.hooks().is_clean(), "{}", b.hooks().report());
    }

    use crate::fault::{FaultKind, FaultPlan, FaultSite, Persistence};
    use crate::trace::BlockTracer;

    /// One conflicted store round then one conflicted load round; returns
    /// the hooks and the final shared memory.
    fn strided_kernel<H: Hooks>(hooks: H) -> (H, Vec<u32>) {
        let mut b = BlockSim::<u32, H>::with_hooks(BankModel::new(8), 8, 64, hooks);
        b.phase(PhaseClass::LoadTile, |tid, lane| lane.st(tid * 8, tid as u32 + 1));
        b.phase(PhaseClass::Merge, |tid, lane| {
            let _ = lane.ld(tid * 8);
        });
        let shared = b.shared().to_vec();
        (b.finish().1, shared)
    }

    #[test]
    fn tracer_paired_with_faults_matches_each_alone() {
        let banks = BankModel::new(8);
        let plan = FaultPlan::from_sites(vec![FaultSite {
            kernel: 0,
            block: 0,
            phase: 1,
            kind: FaultKind::SharedBitFlip { bit: 4 },
            persistence: Persistence::Transient,
        }]);
        let faults = || plan.block_faults(0, 0, 0, false);
        let ((tracer, injector), shared) = strided_kernel((BlockTracer::new(banks), faults()));
        let ((traced_alone, ()), clean) = strided_kernel((BlockTracer::new(banks), ()));
        let (injected_alone, corrupted) = strided_kernel(faults());
        assert_eq!(tracer, traced_alone);
        assert_eq!(injector.records().len(), 1, "the armed flip fires once");
        assert_eq!(injector.records(), injected_alone.records());
        assert_eq!(shared, corrupted);
        assert_ne!(shared, clean, "the flip must corrupt shared memory");
    }

    /// Every lane stores the same word in one phase: a write-write race.
    fn racy_kernel<H: Hooks>(hooks: H) -> H {
        let mut b = BlockSim::<u32, H>::with_hooks(BankModel::new(8), 8, 32, hooks);
        b.phase(PhaseClass::Other, |tid, lane| lane.st(5, tid as u32));
        b.finish().1
    }

    #[test]
    fn tracer_paired_with_sanitizer_finds_what_sanitizer_finds() {
        let (_, paired) = racy_kernel((BlockTracer::new(BankModel::new(8)), Sanitizer::new()));
        let alone = racy_kernel(Sanitizer::new());
        assert!(!alone.is_clean());
        assert_eq!(paired.findings(), alone.findings());
    }
}
