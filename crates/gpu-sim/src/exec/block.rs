//! Block-level execution: bulk-synchronous supersteps with buffered stores.
//!
//! A kernel is a sequence of [`BlockCtx::step`] calls. Within a step every
//! active thread runs the same closure; shared-memory **loads observe the
//! pre-step state** and **stores are buffered** until the step's closing
//! barrier. This models the `read / __syncthreads() / write /
//! __syncthreads()` discipline of the paper's CUDA kernels and makes the
//! in-place CR/PCR/RD updates deterministic regardless of thread order.
//!
//! When recording is enabled (the representative block of a launch), every
//! shared access is logged with its word address and instruction slot so
//! bank conflicts can be counted exactly, and every arithmetic helper call
//! increments FLOP/division counters at warp granularity.

use crate::counters::{KernelStats, Phase, StepRecord};
use crate::device::DeviceConfig;
use crate::exec::shadow::{ShadowLog, ShadowOp, ShadowSpace, ShadowState};
use crate::memory::banks::conflict_degree;
use crate::memory::global::{GlobalArray, GlobalMem};
use crate::memory::shared::{PendingStore, Shared, SharedMem};
use crate::sanitize::{Diagnostic, SanitizeOptions, Sanitizer};
use core::ops::Range;
use core::panic::Location;
use tridiag_core::Real;

/// One recorded shared-memory access (representative block only).
#[derive(Debug, Clone, Copy)]
struct AccessRec {
    tid: u32,
    slot: u16,
    word: u32,
    /// Source location of the access (for the bank-conflict lint).
    loc: &'static Location<'static>,
}

/// Per-thread arithmetic counters for the current step.
#[derive(Debug, Clone, Copy, Default)]
struct OpCounts {
    ops: u32,
    divs: u32,
    dependent_loads: u32,
}

/// Execution context of one block.
pub struct BlockCtx<'g, T: Real> {
    device: DeviceConfig,
    global: &'g mut GlobalMem<T>,
    shared: SharedMem<T>,
    pending: Vec<PendingStore<T>>,
    block_dim: usize,
    recording: bool,
    /// Hazard/race/overflow checker (all blocks when sanitizing is on).
    sanitizer: Option<Box<Sanitizer>>,
    /// Access capture for the symbolic verifier (shadowed contexts only).
    shadow: Option<Box<ShadowState>>,
    // Per-step scratch (recording only).
    accesses: Vec<AccessRec>,
    ops: Vec<OpCounts>,
    step_shared_loads: u64,
    step_shared_stores: u64,
    step_global_loads: u64,
    step_global_stores: u64,
    stats: KernelStats,
}

impl<'g, T: Real> BlockCtx<'g, T> {
    /// Creates a context. `recording` enables full instrumentation; race
    /// detection needs a sanitizer (see [`BlockCtx::sanitized`]).
    pub fn new(
        device: &DeviceConfig,
        global: &'g mut GlobalMem<T>,
        block_dim: usize,
        recording: bool,
    ) -> Self {
        assert!(
            block_dim >= 1 && block_dim <= device.max_threads_per_block,
            "block dim {block_dim} out of range"
        );
        Self {
            device: device.clone(),
            global,
            shared: SharedMem::new(),
            pending: Vec::new(),
            block_dim,
            recording,
            sanitizer: None,
            shadow: None,
            accesses: Vec::new(),
            ops: vec![OpCounts::default(); block_dim],
            step_shared_loads: 0,
            step_shared_stores: 0,
            step_global_loads: 0,
            step_global_stores: 0,
            stats: KernelStats { element_bytes: T::BYTES, block_dim, ..KernelStats::default() },
        }
    }

    /// Creates a context carrying a [`Sanitizer`] when `opts.mode` is on.
    /// `block_id` tags the diagnostics. Must be used *before* any shared
    /// allocations so the shadow valid-bitmaps stay in sync.
    pub fn sanitized(
        device: &DeviceConfig,
        global: &'g mut GlobalMem<T>,
        block_dim: usize,
        recording: bool,
        opts: SanitizeOptions,
        block_id: usize,
    ) -> Self {
        let mut ctx = Self::new(device, global, block_dim, recording);
        if opts.mode.is_on() {
            ctx.sanitizer = Some(Box::new(Sanitizer::new(opts, block_id)));
        }
        ctx
    }

    /// Creates a *shadowed* context for the symbolic verifier: recording
    /// and sanitizing are off, and every shared/global access is captured
    /// into a [`ShadowLog`] (read back with [`BlockCtx::finish_shadow`]).
    /// Invalid-handle and out-of-bounds accesses are recorded and then
    /// suppressed, mirroring the sanitizer, so buggy fixture kernels can
    /// be captured end-to-end. `budget` bounds the number of captured
    /// events; past it the log is flagged truncated.
    pub fn shadowed(
        device: &DeviceConfig,
        global: &'g mut GlobalMem<T>,
        block_dim: usize,
        block_id: usize,
        budget: usize,
    ) -> Self {
        let mut ctx = Self::new(device, global, block_dim, false);
        ctx.shadow = Some(Box::new(ShadowState::new(block_id, block_dim, budget)));
        ctx
    }

    /// Threads in the block.
    #[inline]
    pub fn block_dim(&self) -> usize {
        self.block_dim
    }

    /// Allocates a shared array of `len` elements (a `__shared__` buffer).
    pub fn alloc(&mut self, len: usize) -> Shared<T> {
        if let Some(san) = self.sanitizer.as_mut() {
            san.on_alloc(len);
        }
        self.shared.alloc(len)
    }

    /// Shared-memory footprint so far, in 32-bit words.
    pub fn shared_words_used(&self) -> usize {
        self.shared.words_used()
    }

    /// Host-side view of a shared array (tests/diagnostics only).
    pub fn shared_slice(&self, arr: Shared<T>) -> &[T] {
        self.shared.as_slice(arr)
    }

    /// Runs one barrier-separated superstep with the contiguous thread range
    /// `active`. The closure receives each thread's [`ThreadCtx`].
    pub fn step(
        &mut self,
        phase: Phase,
        active: Range<usize>,
        mut f: impl FnMut(&mut ThreadCtx<'_, 'g, T>),
    ) {
        assert!(
            active.end <= self.block_dim && active.start <= active.end,
            "active range {active:?} exceeds block dim {}",
            self.block_dim
        );
        if active.is_empty() {
            return;
        }
        if let Some(san) = self.sanitizer.as_mut() {
            san.begin_step(phase);
        }
        if let Some(shadow) = self.shadow.as_mut() {
            shadow.begin_step(phase, active.clone());
        }
        if self.recording {
            self.accesses.clear();
            self.step_shared_loads = 0;
            self.step_shared_stores = 0;
            self.step_global_loads = 0;
            self.step_global_stores = 0;
            for o in &mut self.ops {
                *o = OpCounts::default();
            }
        }
        for tid in active.clone() {
            let pending_start = self.pending.len();
            let mut t = ThreadCtx {
                block: self,
                tid,
                slot: 0,
                ops: 0,
                divs: 0,
                dependent_loads: 0,
                pending_start,
            };
            f(&mut t);
            let (ops, divs, dependent_loads) = (t.ops, t.divs, t.dependent_loads);
            if self.recording {
                self.ops[tid] = OpCounts { ops, divs, dependent_loads };
            }
        }
        self.apply_pending();
        if self.recording {
            self.finish_step(phase, active);
        }
    }

    /// Applies buffered stores at the step's closing barrier. A sanitizing
    /// context first sorts the step's stores and reports every intra-step
    /// write-write race as a [`Diagnostic`].
    fn apply_pending(&mut self) {
        if let Some(san) = self.sanitizer.as_mut() {
            let pending = &self.pending;
            let mut order: Vec<u32> = (0..pending.len() as u32).collect();
            order.sort_unstable_by_key(|&k| {
                let p = &pending[k as usize];
                (p.array, p.index, p.tid)
            });
            for w in order.windows(2) {
                let a = pending[w[0] as usize];
                let b = pending[w[1] as usize];
                if a.array == b.array && a.index == b.index && a.tid != b.tid {
                    san.note_race(a.tid, b.tid, a.array, a.index, a.loc, b.loc);
                }
            }
        }
        let pending = core::mem::take(&mut self.pending);
        for p in &pending {
            self.shared.write(
                Shared { index: p.array, _marker: core::marker::PhantomData },
                p.index,
                p.value,
            );
            if let Some(san) = self.sanitizer.as_mut() {
                san.mark_valid(p.array, p.index);
            }
        }
        self.pending = pending;
        self.pending.clear();
    }

    /// Computes the step's [`StepRecord`] from the recorded accesses.
    fn finish_step(&mut self, phase: Phase, active: Range<usize>) {
        let hw = self.device.half_warp;
        let ws = self.device.warp_size;

        // Group shared accesses by (instruction slot, half-warp).
        self.accesses.sort_unstable_by_key(|r| (r.slot, r.tid / hw as u32));
        let mut shared_instructions = 0u64;
        let mut serialized = 0u64;
        let mut max_degree = 0u32;
        let mut i = 0;
        let mut words: Vec<u32> = Vec::with_capacity(hw);
        let mut lint_sites: Vec<(u32, &'static Location<'static>)> = Vec::new();
        while i < self.accesses.len() {
            let key = (self.accesses[i].slot, self.accesses[i].tid / hw as u32);
            let site = self.accesses[i].loc;
            words.clear();
            while i < self.accesses.len()
                && (self.accesses[i].slot, self.accesses[i].tid / hw as u32) == key
            {
                words.push(self.accesses[i].word);
                i += 1;
            }
            let deg = conflict_degree(&words, self.device.banks);
            shared_instructions += 1;
            serialized += deg as u64;
            max_degree = max_degree.max(deg);
            if self.sanitizer.is_some() && deg > 1 {
                lint_sites.push((deg, site));
            }
        }
        if let Some(san) = self.sanitizer.as_mut() {
            // Bank-conflict lint: attribute the worst degree to each source
            // site (recording block only — all blocks execute identical
            // control flow, so banking is identical across blocks).
            for (deg, loc) in lint_sites {
                san.note_bank_conflict(deg, loc);
            }
        }

        // Warp-granular arithmetic: per warp, the slowest lane sets the
        // instruction count (lockstep issue).
        let first_warp = active.start / ws;
        let last_warp = (active.end - 1) / ws;
        let mut warp_ops = 0u64;
        let mut warp_divs = 0u64;
        let mut total_ops = 0u64;
        let mut total_divs = 0u64;
        for w in first_warp..=last_warp {
            let lo = (w * ws).max(active.start);
            let hi = ((w + 1) * ws).min(active.end);
            let mut mo = 0u32;
            let mut md = 0u32;
            for tid in lo..hi {
                let o = self.ops[tid];
                mo = mo.max(o.ops);
                md = md.max(o.divs);
                total_ops += o.ops as u64;
                total_divs += o.divs as u64;
            }
            warp_ops += mo as u64;
            warp_divs += md as u64;
        }

        let max_dependent_chain =
            active.clone().map(|tid| self.ops[tid].dependent_loads as u64).max().unwrap_or(0);

        let first_hw = active.start / hw;
        let last_hw = (active.end - 1) / hw;
        self.stats.steps.push(StepRecord {
            phase,
            active_threads: active.len(),
            warps: last_warp - first_warp + 1,
            half_warps: last_hw - first_hw + 1,
            shared_loads: self.step_shared_loads,
            shared_stores: self.step_shared_stores,
            shared_instructions,
            serialized_shared_instructions: serialized,
            max_conflict_degree: max_degree.max(1),
            ops: total_ops,
            divs: total_divs,
            warp_op_instructions: warp_ops,
            warp_div_instructions: warp_divs,
            global_loads: self.step_global_loads,
            global_stores: self.step_global_stores,
            max_dependent_chain,
        });
        self.stats.global_accesses += self.step_global_loads + self.step_global_stores;
        self.stats.global_bytes_read += self.step_global_loads * T::BYTES as u64;
        self.stats.global_bytes_written += self.step_global_stores * T::BYTES as u64;
    }

    /// Finalizes the block and returns its counters.
    pub fn finish(self) -> KernelStats {
        self.finish_with_diagnostics().0
    }

    /// Finalizes the block, returning counters plus any sanitizer findings
    /// (empty when no sanitizer is attached).
    pub fn finish_with_diagnostics(mut self) -> (KernelStats, Vec<Diagnostic>) {
        assert!(self.pending.is_empty(), "finish() called mid-step");
        self.stats.shared_words = self.shared.words_used();
        let diags = self.sanitizer.take().map(|s| s.into_diagnostics()).unwrap_or_default();
        (self.stats, diags)
    }

    /// Finalizes a shadowed block (see [`BlockCtx::shadowed`]) and returns
    /// its capture log, annotated with the final arena geometry.
    ///
    /// # Panics
    /// Panics when the context was not created with [`BlockCtx::shadowed`].
    pub fn finish_shadow(mut self) -> ShadowLog {
        assert!(self.pending.is_empty(), "finish_shadow() called mid-step");
        let shadow = self.shadow.take().expect("finish_shadow on a non-shadowed context");
        let mut shared_lens = Vec::with_capacity(self.shared.num_arrays());
        let mut shared_base_words = Vec::with_capacity(self.shared.num_arrays());
        for index in 0..self.shared.num_arrays() as u32 {
            let arr = Shared::<T> { index, _marker: core::marker::PhantomData };
            shared_lens.push(self.shared.len_of(arr));
            shared_base_words.push(self.shared.word_of(arr, 0) as usize);
        }
        let global_lens = (0..self.global.num_arrays() as u32)
            .map(|index| {
                self.global.len_of(GlobalArray::<T> { index, _marker: core::marker::PhantomData })
            })
            .collect();
        shadow.finish(shared_lens, shared_base_words, T::SHARED_WORDS, global_lens)
    }
}

/// Per-thread view inside a superstep.
pub struct ThreadCtx<'b, 'g, T: Real> {
    block: &'b mut BlockCtx<'g, T>,
    tid: usize,
    slot: u16,
    ops: u32,
    divs: u32,
    dependent_loads: u32,
    /// Index into `block.pending` where this thread's own buffered stores
    /// begin (threads run sequentially within a step) — used for the
    /// same-thread read-after-buffered-write hazard scan.
    pending_start: usize,
}

impl<T: Real> ThreadCtx<'_, '_, T> {
    /// This thread's index within the block.
    #[inline]
    pub fn tid(&self) -> usize {
        self.tid
    }

    /// Reads shared memory — observes the *pre-step* state.
    #[inline]
    #[track_caller]
    pub fn load(&mut self, arr: Shared<T>, i: usize) -> T {
        let loc = Location::caller();
        if self.block.sanitizer.is_some() && !self.sanitize_shared(arr.index, i, false, loc) {
            return T::ZERO;
        }
        if self.block.shadow.is_some() && !self.shadow_shared(arr.index, i, ShadowOp::Load, loc) {
            return T::ZERO;
        }
        self.record_shared(arr, i, false, loc);
        self.block.shared.read(arr, i)
    }

    /// Writes shared memory — buffered until the step's closing barrier.
    #[inline]
    #[track_caller]
    pub fn store(&mut self, arr: Shared<T>, i: usize, v: T) {
        let loc = Location::caller();
        if self.block.sanitizer.is_some() {
            if !self.sanitize_shared(arr.index, i, true, loc) {
                return;
            }
            if !v.is_finite() {
                let tid = self.tid;
                if let Some(san) = self.block.sanitizer.as_mut() {
                    san.note_nonfinite(tid, loc);
                }
            }
        }
        if self.block.shadow.is_some() && !self.shadow_shared(arr.index, i, ShadowOp::Store, loc) {
            return;
        }
        self.record_shared(arr, i, true, loc);
        self.block.pending.push(PendingStore {
            array: arr.index,
            index: i,
            value: v,
            tid: self.tid,
            loc,
        });
    }

    /// Runs the sanitizer's shared-memory checks. Returns `false` when the
    /// access must be suppressed (invalid handle or out of bounds) so the
    /// storage layer is never reached with a bad address.
    fn sanitize_shared(
        &mut self,
        array: u32,
        i: usize,
        store: bool,
        loc: &'static Location<'static>,
    ) -> bool {
        let tid = self.tid;
        let pending_start = self.pending_start;
        // Disjoint field borrows of the block.
        let block: &mut BlockCtx<'_, T> = self.block;
        let san = block.sanitizer.as_mut().expect("sanitize_shared without sanitizer");
        if !san.shared_handle_ok(array) {
            san.note_invalid_handle(tid, array, true, loc);
            return false;
        }
        let len = san.shared_len(array);
        if i >= len {
            san.note_shared_oob(tid, array, i, len, store, loc);
            return false;
        }
        if !store {
            // Same-thread store-then-load: the load observes the stale
            // pre-step value, which the paper's read/sync/write compilation
            // would not — report, then proceed (the simulator's semantics
            // stay deterministic either way).
            if let Some(p) =
                block.pending[pending_start..].iter().find(|p| p.array == array && p.index == i)
            {
                let store_loc = p.loc;
                san.note_hazard(tid, array, i, loc, store_loc);
            }
            if !san.is_valid(array, i) {
                san.note_uninit(tid, array, i, loc);
            }
        }
        true
    }

    /// Records a shared access into the shadow log. Returns `false` when
    /// the access must be suppressed (invalid handle or out of bounds), so
    /// the storage layer is never reached with a bad address — the same
    /// discipline as [`ThreadCtx::sanitize_shared`].
    fn shadow_shared(
        &mut self,
        array: u32,
        i: usize,
        op: ShadowOp,
        loc: &'static Location<'static>,
    ) -> bool {
        let tid = self.tid;
        let block: &mut BlockCtx<'_, T> = self.block;
        let handle = Shared::<T> { index: array, _marker: core::marker::PhantomData };
        let ok = (array as usize) < block.shared.num_arrays() && i < block.shared.len_of(handle);
        let shadow = block.shadow.as_mut().expect("shadow_shared without shadow");
        shadow.record(tid, loc, ShadowSpace::Shared, op, array, i, ok);
        ok
    }

    /// Records a global access into the shadow log; `false` suppresses it.
    fn shadow_global(
        &mut self,
        array: u32,
        i: usize,
        op: ShadowOp,
        loc: &'static Location<'static>,
    ) -> bool {
        let tid = self.tid;
        let block: &mut BlockCtx<'_, T> = self.block;
        let handle = GlobalArray::<T> { index: array, _marker: core::marker::PhantomData };
        let ok = (array as usize) < block.global.num_arrays() && i < block.global.len_of(handle);
        let shadow = block.shadow.as_mut().expect("shadow_global without shadow");
        shadow.record(tid, loc, ShadowSpace::Global, op, array, i, ok);
        ok
    }

    /// Runs the sanitizer's global-memory checks; `false` suppresses the
    /// access.
    fn sanitize_global(
        &mut self,
        arr: GlobalArray<T>,
        i: usize,
        store: bool,
        loc: &'static Location<'static>,
    ) -> bool {
        let tid = self.tid;
        let block: &mut BlockCtx<'_, T> = self.block;
        let san = block.sanitizer.as_mut().expect("sanitize_global without sanitizer");
        if (arr.index as usize) >= block.global.num_arrays() {
            san.note_invalid_handle(tid, arr.index, false, loc);
            return false;
        }
        let len = block.global.len_of(arr);
        if i >= len {
            san.note_global_oob(tid, arr.index, i, len, store, loc);
            return false;
        }
        true
    }

    #[inline]
    fn record_shared(
        &mut self,
        arr: Shared<T>,
        i: usize,
        store: bool,
        loc: &'static Location<'static>,
    ) {
        if self.block.recording {
            if store {
                self.block.step_shared_stores += 1;
            } else {
                self.block.step_shared_loads += 1;
            }
            // An f64 element is two 32-bit words = two bank transactions.
            let base = self.block.shared.word_of(arr, i);
            for w in 0..T::SHARED_WORDS as u32 {
                self.block.accesses.push(AccessRec {
                    tid: self.tid as u32,
                    slot: self.slot,
                    word: base + w,
                    loc,
                });
                self.slot += 1;
            }
        } else {
            self.slot = self.slot.wrapping_add(T::SHARED_WORDS as u16);
        }
    }

    /// Reads an element from global memory (coalesced traffic accounting).
    #[inline]
    #[track_caller]
    pub fn load_global(&mut self, arr: GlobalArray<T>, i: usize) -> T {
        let loc = Location::caller();
        if self.block.sanitizer.is_some() && !self.sanitize_global(arr, i, false, loc) {
            return T::ZERO;
        }
        if self.block.shadow.is_some() && !self.shadow_global(arr.index, i, ShadowOp::Load, loc) {
            return T::ZERO;
        }
        if self.block.recording {
            self.block.step_global_loads += 1;
        }
        self.block.global.read(arr, i)
    }

    /// Reads an element from global memory as a link in a *serial
    /// dependence chain* (the address or use depends on the previous
    /// load). Each link pays the full memory latency — neither warps nor
    /// resident blocks can hide a chain, which is what makes
    /// thread-per-system (coarse-grained) kernels latency-bound.
    #[inline]
    #[track_caller]
    pub fn load_global_dependent(&mut self, arr: GlobalArray<T>, i: usize) -> T {
        let loc = Location::caller();
        if self.block.sanitizer.is_some() && !self.sanitize_global(arr, i, false, loc) {
            self.dependent_loads += 1;
            return T::ZERO;
        }
        if self.block.shadow.is_some() && !self.shadow_global(arr.index, i, ShadowOp::Load, loc) {
            self.dependent_loads += 1;
            return T::ZERO;
        }
        if self.block.recording {
            self.block.step_global_loads += 1;
        }
        self.dependent_loads += 1;
        self.block.global.read(arr, i)
    }

    /// Writes an element to global memory (applied immediately; the solvers
    /// only write distinct result elements at kernel end).
    #[inline]
    #[track_caller]
    pub fn store_global(&mut self, arr: GlobalArray<T>, i: usize, v: T) {
        let loc = Location::caller();
        if self.block.sanitizer.is_some() {
            if !self.sanitize_global(arr, i, true, loc) {
                return;
            }
            if !v.is_finite() {
                let tid = self.tid;
                if let Some(san) = self.block.sanitizer.as_mut() {
                    san.note_nonfinite(tid, loc);
                }
            }
        }
        if self.block.shadow.is_some() && !self.shadow_global(arr.index, i, ShadowOp::Store, loc) {
            return;
        }
        if self.block.recording {
            self.block.step_global_stores += 1;
        }
        self.block.global.write(arr, i, v);
    }

    /// Counted addition.
    #[inline]
    pub fn add(&mut self, a: T, b: T) -> T {
        self.ops += 1;
        a + b
    }

    /// Counted subtraction.
    #[inline]
    pub fn sub(&mut self, a: T, b: T) -> T {
        self.ops += 1;
        a - b
    }

    /// Counted multiplication.
    #[inline]
    pub fn mul(&mut self, a: T, b: T) -> T {
        self.ops += 1;
        a * b
    }

    /// Counted negation.
    #[inline]
    pub fn neg(&mut self, a: T) -> T {
        self.ops += 1;
        -a
    }

    /// Counted division (tracked separately: divisions are far more
    /// expensive on GT200 and the paper reports them separately in Table 1).
    #[inline]
    pub fn div(&mut self, a: T, b: T) -> T {
        self.ops += 1;
        self.divs += 1;
        a / b
    }

    /// Counted multiply-add `a * b + c` (2 flops, like the paper's MADs).
    #[inline]
    pub fn fma(&mut self, a: T, b: T, c: T) -> T {
        self.ops += 2;
        a.mul_add(b, c)
    }

    /// Charges `n` extra arithmetic instructions without computing anything
    /// — used for work done with host operators that still costs issue
    /// slots on the device (comparisons, abs, min/max chains).
    #[inline]
    pub fn ops_charge(&mut self, n: u32) {
        self.ops += n;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ctx(global: &mut GlobalMem<f32>, dim: usize) -> BlockCtx<'_, f32> {
        BlockCtx::new(&DeviceConfig::gtx280(), global, dim, true)
    }

    #[test]
    fn stores_are_buffered_until_barrier() {
        let mut g = GlobalMem::new();
        let mut b = ctx(&mut g, 16);
        let arr = b.alloc(16);
        b.step(Phase::Other("init"), 0..16, |t| {
            let i = t.tid();
            t.store(arr, i, i as f32);
        });
        // Reverse in place: every thread reads its mirror. With buffered
        // stores this is exact regardless of sequential thread order.
        b.step(Phase::Other("reverse"), 0..16, |t| {
            let i = t.tid();
            let v = t.load(arr, 15 - i);
            t.store(arr, i, v);
        });
        let got: Vec<f32> = b.shared_slice(arr).to_vec();
        let want: Vec<f32> = (0..16).rev().map(|i| i as f32).collect();
        assert_eq!(got, want);
    }

    #[test]
    fn unit_stride_has_no_conflicts() {
        let mut g = GlobalMem::new();
        let mut b = ctx(&mut g, 32);
        let arr = b.alloc(32);
        b.step(Phase::Other("copy"), 0..32, |t| {
            let i = t.tid();
            t.store(arr, i, 1.0);
        });
        let stats = b.finish();
        assert_eq!(stats.steps.len(), 1);
        let s = &stats.steps[0];
        assert_eq!(s.max_conflict_degree, 1);
        assert_eq!(s.shared_stores, 32);
        assert_eq!(s.shared_instructions, 2); // two half-warps, one slot
        assert_eq!(s.serialized_shared_instructions, 2);
    }

    #[test]
    fn stride_16_is_16way_conflicted() {
        let mut g = GlobalMem::new();
        let mut b = ctx(&mut g, 32);
        let arr = b.alloc(512);
        b.step(Phase::Other("strided"), 0..32, |t| {
            let i = t.tid() * 16;
            t.store(arr, i, 1.0);
        });
        let stats = b.finish();
        assert_eq!(stats.steps[0].max_conflict_degree, 16);
        // 2 half-warps, each serialized 16-ways.
        assert_eq!(stats.steps[0].serialized_shared_instructions, 32);
    }

    #[test]
    fn op_counting_is_warp_granular() {
        let mut g = GlobalMem::new();
        let mut b = ctx(&mut g, 64);
        let arr = b.alloc(64);
        // Half the threads in each warp do extra work; the warp pays for
        // the slowest lane.
        b.step(Phase::Other("divergent"), 0..64, |t| {
            let i = t.tid();
            let mut v = i as f32;
            v = t.add(v, 1.0);
            if i % 2 == 0 {
                v = t.mul(v, 2.0);
                v = t.div(v, 3.0);
            }
            t.store(arr, i, v);
        });
        let stats = b.finish();
        let s = &stats.steps[0];
        assert_eq!(s.ops, 64 + 32 * 2); // thread-level
        assert_eq!(s.divs, 32);
        assert_eq!(s.warp_op_instructions, 2 * 3); // 2 warps x max 3 ops
        assert_eq!(s.warp_div_instructions, 2);
    }

    #[test]
    fn global_traffic_is_counted() {
        let mut g = GlobalMem::new();
        let input = g.upload(vec![2.0f32; 64]);
        let output = g.alloc_zeroed(64);
        let mut b = ctx(&mut g, 64);
        let arr = b.alloc(64);
        b.step(Phase::GlobalLoad, 0..64, |t| {
            let i = t.tid();
            let v = t.load_global(input, i);
            t.store(arr, i, v);
        });
        b.step(Phase::GlobalStore, 0..64, |t| {
            let i = t.tid();
            let v = t.load(arr, i);
            t.store_global(output, i, v);
        });
        let stats = b.finish();
        assert_eq!(stats.global_bytes_read, 64 * 4);
        assert_eq!(stats.global_bytes_written, 64 * 4);
        assert_eq!(stats.global_accesses, 128);
        assert_eq!(g.view(output), vec![2.0f32; 64].as_slice());
    }

    #[test]
    fn empty_active_range_is_a_noop() {
        let mut g = GlobalMem::new();
        let mut b = ctx(&mut g, 8);
        b.step(Phase::Other("empty"), 4..4, |_| panic!("must not run"));
        assert_eq!(b.finish().steps.len(), 0);
    }

    #[test]
    fn offset_active_range_counts_warps_correctly() {
        let mut g = GlobalMem::new();
        let mut b = ctx(&mut g, 128);
        let arr = b.alloc(128);
        // Threads 64..128 active: warps 2..3 -> 2 warps, 4 half-warps.
        b.step(Phase::Other("offset"), 64..128, |t| {
            let i = t.tid();
            t.store(arr, i, 0.5);
        });
        let stats = b.finish();
        assert_eq!(stats.steps[0].warps, 2);
        assert_eq!(stats.steps[0].half_warps, 4);
        assert_eq!(stats.steps[0].active_threads, 64);
    }

    #[test]
    fn write_race_is_detected() {
        use crate::sanitize::{DiagnosticKind, SanitizeOptions};
        let mut g = GlobalMem::new();
        let mut b = BlockCtx::sanitized(
            &DeviceConfig::gtx280(),
            &mut g,
            4,
            true,
            SanitizeOptions::record(),
            0,
        );
        let arr = b.alloc(4);
        b.step(Phase::Other("race"), 0..4, |t| {
            t.store(arr, 0, t.tid() as f32);
        });
        let (_, diags) = b.finish_with_diagnostics();
        let race: Vec<_> =
            diags.iter().filter(|d| d.kind == DiagnosticKind::WriteWriteRace).collect();
        assert_eq!(race.len(), 1);
        assert!(race[0].related.is_some(), "both colliding locations reported");
        assert_eq!(race[0].occurrences, 3, "4 threads -> 3 colliding pairs");

        // Without a sanitizer nothing checks: the stores land in thread
        // order and the last writer wins.
        let mut g = GlobalMem::new();
        let mut plain = ctx(&mut g, 4);
        let arr = plain.alloc(4);
        plain.step(Phase::Other("race"), 0..4, |t| {
            t.store(arr, 0, t.tid() as f32);
        });
        assert_eq!(plain.shared_slice(arr)[0], 3.0);
    }

    #[test]
    fn sanitizer_reports_invalid_shared_handle() {
        use crate::sanitize::{DiagnosticKind, SanitizeOptions};
        let mut g = GlobalMem::new();
        let mut b = BlockCtx::sanitized(
            &DeviceConfig::gtx280(),
            &mut g,
            1,
            true,
            SanitizeOptions::record(),
            0,
        );
        let _arr = b.alloc(4);
        // A handle from "another context": index beyond this arena.
        let foreign: Shared<f32> = Shared { index: 7, _marker: core::marker::PhantomData };
        b.step(Phase::Other("bad-handle"), 0..1, |t| {
            let v = t.load(foreign, 0);
            assert_eq!(v, 0.0, "suppressed access reads as zero");
            t.store(foreign, 1, 1.0);
        });
        let (_, diags) = b.finish_with_diagnostics();
        assert!(diags
            .iter()
            .any(|d| d.kind == DiagnosticKind::InvalidHandle && d.array == Some(7)));
    }

    #[test]
    fn sanitizer_reports_same_thread_store_then_load_hazard() {
        use crate::sanitize::{DiagnosticKind, SanitizeOptions};
        let mut g = GlobalMem::new();
        let mut b = BlockCtx::sanitized(
            &DeviceConfig::gtx280(),
            &mut g,
            2,
            true,
            SanitizeOptions::record(),
            0,
        );
        let arr = b.alloc(2);
        b.step(Phase::Other("init"), 0..2, |t| t.store(arr, t.tid(), 1.0));
        b.step(Phase::Other("hazard"), 0..2, |t| {
            let i = t.tid();
            t.store(arr, i, 2.0);
            let _ = t.load(arr, i); // observes stale pre-step value
        });
        let (_, diags) = b.finish_with_diagnostics();
        let h: Vec<_> =
            diags.iter().filter(|d| d.kind == DiagnosticKind::ReadWriteHazard).collect();
        assert_eq!(h.len(), 1);
        assert!(h[0].related.is_some(), "buffered store location attached");
        assert_eq!(h[0].occurrences, 2);
    }

    #[test]
    fn sanitizer_reports_uninitialized_read_and_oob() {
        use crate::sanitize::{DiagnosticKind, SanitizeOptions};
        let mut g = GlobalMem::<f32>::new();
        let out = g.alloc_zeroed(2);
        let mut b = BlockCtx::sanitized(
            &DeviceConfig::gtx280(),
            &mut g,
            2,
            true,
            SanitizeOptions::record(),
            0,
        );
        let arr = b.alloc(2);
        let _other = b.alloc(2);
        b.step(Phase::Other("bugs"), 0..2, |t| {
            let i = t.tid();
            let v = t.load(arr, i); // never written -> uninit
            let w = t.load(arr, 2 + i); // OOB (would hit _other's words)
            assert_eq!(w, 0.0);
            t.store_global(out, 4 + i, v); // global OOB -> dropped
        });
        let (_, diags) = b.finish_with_diagnostics();
        assert!(diags.iter().any(|d| d.kind == DiagnosticKind::UninitializedRead));
        assert!(diags.iter().any(|d| d.kind == DiagnosticKind::SharedOutOfBounds));
        assert!(diags.iter().any(|d| d.kind == DiagnosticKind::GlobalOutOfBounds));
    }

    #[test]
    fn sanitizer_flags_nonfinite_origin_and_bank_conflicts() {
        use crate::sanitize::{DiagnosticKind, SanitizeOptions};
        let mut g = GlobalMem::new();
        let mut b = BlockCtx::sanitized(
            &DeviceConfig::gtx280(),
            &mut g,
            32,
            true,
            SanitizeOptions::record(),
            0,
        );
        let arr = b.alloc(512);
        b.step(Phase::Other("strided"), 0..32, |t| {
            let i = t.tid() * 16; // 16-way conflict on 16 banks
            let v = if t.tid() == 3 { f32::INFINITY } else { 1.0 };
            t.store(arr, i, v);
        });
        let (_, diags) = b.finish_with_diagnostics();
        let nf: Vec<_> =
            diags.iter().filter(|d| d.kind == DiagnosticKind::NonFiniteOrigin).collect();
        assert_eq!(nf.len(), 1);
        assert_eq!(nf[0].tid, 3);
        let bc: Vec<_> = diags.iter().filter(|d| d.kind == DiagnosticKind::BankConflict).collect();
        assert_eq!(bc.len(), 1);
        assert_eq!(bc[0].degree, Some(16));
    }

    #[test]
    fn clean_kernel_yields_no_diagnostics_and_identical_counters() {
        use crate::sanitize::SanitizeOptions;
        let run = |opts: Option<SanitizeOptions>| {
            let mut g = GlobalMem::new();
            let input = g.upload((0..32).map(|i| i as f32).collect());
            let output = g.alloc_zeroed(32);
            let mut b = match opts {
                Some(o) => BlockCtx::sanitized(&DeviceConfig::gtx280(), &mut g, 32, true, o, 0),
                None => BlockCtx::new(&DeviceConfig::gtx280(), &mut g, 32, true),
            };
            let arr = b.alloc(32);
            b.step(Phase::GlobalLoad, 0..32, |t| {
                let v = t.load_global(input, t.tid());
                t.store(arr, t.tid(), v);
            });
            b.step(Phase::GlobalStore, 0..32, |t| {
                let v = t.load(arr, 31 - t.tid());
                t.store_global(output, t.tid(), v);
            });
            b.finish_with_diagnostics()
        };
        let (plain, d0) = run(None);
        let (sanitized, d1) = run(Some(SanitizeOptions::record()));
        assert!(d0.is_empty());
        assert!(d1.is_empty(), "clean kernel must produce no diagnostics: {d1:?}");
        assert_eq!(plain, sanitized, "sanitizing must not perturb counters");
    }

    #[test]
    fn f64_access_spans_two_slots() {
        let mut g: GlobalMem<f64> = GlobalMem::new();
        let mut b = BlockCtx::new(&DeviceConfig::gtx280(), &mut g, 16, true);
        let arr = b.alloc(16);
        b.step(Phase::Other("f64"), 0..16, |t| {
            let i = t.tid();
            t.store(arr, i, 1.0f64);
        });
        let stats = b.finish();
        // 16 lanes x 2 words = 1 half-warp x 2 slots; stride-2 words give a
        // 2-way conflict per slot on 16 banks.
        assert_eq!(stats.steps[0].shared_instructions, 2);
        assert_eq!(stats.steps[0].max_conflict_degree, 2);
    }
}
