//! Kernel sanitizer: always-on hazard/race/overflow analysis.
//!
//! The simulator's default launch path checks nothing. This module is the
//! `compute-sanitizer`-style checker: with a [`SanitizeMode`] other than
//! `Off`, **every block of every launch** carries a [`Sanitizer`] that
//! checks
//!
//! * intra-step **write-write races** (two threads storing the same shared
//!   cell between barriers), reporting both colliding source locations;
//! * **read-after-buffered-write hazards** — a thread loading a cell it
//!   already stored in the same superstep, i.e. code that cannot be
//!   compiled to the paper's `read / __syncthreads() / write` discipline;
//! * shared/global **out-of-bounds** accesses and **invalid handles**
//!   (cross-arena misuse);
//! * **uninitialized reads** via a shadow valid-bitmap per shared array
//!   (real `__shared__` memory is uninitialized; the simulator zero-fills);
//! * **non-finite origin** — the first step/thread/site that stores an
//!   Inf/NaN, turning §5.2's RD overflow from a wrong answer into a
//!   pinpointed diagnostic;
//! * a **bank-conflict lint** attributing worst conflict degree to source
//!   sites (recording block only — all blocks execute identical control
//!   flow, so their banking is identical).
//!
//! Reports are [`Diagnostic`]s, merged across blocks by (kind, site,
//! array); `Enforce` mode panics after the launch if any `Error`-severity
//! diagnostic was recorded (warnings — bank conflicts, non-finite values —
//! never panic, since CR's 16-way conflicts and RD's overflow are known,
//! *documented* behaviours of the paper's algorithms).

mod diagnostic;

pub use diagnostic::{diagnostics_to_json, Diagnostic, DiagnosticKind, Severity};

use crate::counters::Phase;
use core::panic::Location;
use std::collections::HashMap;

/// How much checking a launch performs.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum SanitizeMode {
    /// No sanitizer state and no checks (races included).
    #[default]
    Off,
    /// Check all blocks, collect diagnostics in the launch report, never
    /// panic.
    Record,
    /// Like `Record`, but panic after the launch if any `Error`-severity
    /// diagnostic was found.
    Enforce,
}

impl SanitizeMode {
    /// `true` unless `Off`.
    #[inline]
    pub fn is_on(self) -> bool {
        !matches!(self, SanitizeMode::Off)
    }
}

/// Sanitizer configuration carried by a [`crate::Launcher`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SanitizeOptions {
    /// Checking mode.
    pub mode: SanitizeMode,
    /// Bank-conflict lint threshold: an access site whose half-warp
    /// conflict degree reaches this value is reported (warning severity).
    pub bank_conflict_threshold: u32,
    /// Maximum number of *distinct* diagnostics kept per launch; further
    /// new sites are dropped (repeats of known sites still count).
    pub max_diagnostics: usize,
}

impl Default for SanitizeOptions {
    fn default() -> Self {
        Self { mode: SanitizeMode::Off, bank_conflict_threshold: 8, max_diagnostics: 64 }
    }
}

impl SanitizeOptions {
    /// Collect-only configuration.
    pub fn record() -> Self {
        Self { mode: SanitizeMode::Record, ..Self::default() }
    }

    /// Panic-on-error configuration.
    pub fn enforce() -> Self {
        Self { mode: SanitizeMode::Enforce, ..Self::default() }
    }
}

/// Dedup key: (kind, source site, array handle).
type SiteKey = (DiagnosticKind, usize, Option<u32>);

fn loc_key(loc: &'static Location<'static>) -> usize {
    loc as *const Location<'static> as usize
}

/// Per-block sanitizer state, driven by hooks in
/// [`crate::exec::block::BlockCtx`].
#[derive(Debug)]
pub struct Sanitizer {
    opts: SanitizeOptions,
    block: usize,
    step: u64,
    phase: Phase,
    /// Shadow valid-bitmap per shared array (true = a barrier-committed
    /// store has written the cell).
    valid: Vec<Vec<bool>>,
    nonfinite_latched: bool,
    sites: HashMap<SiteKey, usize>,
    diags: Vec<Diagnostic>,
    dropped: u64,
}

impl Sanitizer {
    /// New sanitizer for block `block`.
    pub fn new(opts: SanitizeOptions, block: usize) -> Self {
        Self {
            opts,
            block,
            step: 0,
            phase: Phase::Other("pre-step"),
            valid: Vec::new(),
            nonfinite_latched: false,
            sites: HashMap::new(),
            diags: Vec::new(),
            dropped: 0,
        }
    }

    /// Configured options.
    #[inline]
    pub fn options(&self) -> &SanitizeOptions {
        &self.opts
    }

    /// Registers a freshly-allocated shared array of `len` elements. Its
    /// shadow bitmap starts all-invalid: the simulator zero-fills but real
    /// `__shared__` memory is uninitialized.
    pub(crate) fn on_alloc(&mut self, len: usize) {
        self.valid.push(vec![false; len]);
    }

    /// Marks the start of superstep `phase`.
    pub(crate) fn begin_step(&mut self, phase: Phase) {
        self.phase = phase;
        self.step += 1;
    }

    /// `true` if `array` is a handle this block's arena ever allocated.
    #[inline]
    pub(crate) fn shared_handle_ok(&self, array: u32) -> bool {
        (array as usize) < self.valid.len()
    }

    /// Length of shared array `array` per the shadow state.
    #[inline]
    pub(crate) fn shared_len(&self, array: u32) -> usize {
        self.valid[array as usize].len()
    }

    /// `true` if a barrier-committed store has written `array[index]`.
    #[inline]
    pub(crate) fn is_valid(&self, array: u32, index: usize) -> bool {
        self.valid[array as usize][index]
    }

    /// Marks `array[index]` initialized (called when a buffered store is
    /// applied at the step's closing barrier).
    pub(crate) fn mark_valid(&mut self, array: u32, index: usize) {
        if let Some(bits) = self.valid.get_mut(array as usize) {
            if let Some(b) = bits.get_mut(index) {
                *b = true;
            }
        }
    }

    #[allow(clippy::too_many_arguments)] // internal sink; every field is a diagnostic column
    fn push(
        &mut self,
        kind: DiagnosticKind,
        tid: usize,
        array: Option<u32>,
        index: Option<usize>,
        degree: Option<u32>,
        location: &'static Location<'static>,
        related: Option<&'static Location<'static>>,
        message: String,
    ) {
        let key: SiteKey = (kind, loc_key(location), array);
        if let Some(&i) = self.sites.get(&key) {
            let d = &mut self.diags[i];
            d.occurrences += 1;
            // Bank-conflict lint keeps the *worst* degree per site.
            if let (Some(new), Some(old)) = (degree, d.degree) {
                if new > old {
                    d.degree = Some(new);
                    d.message = message;
                }
            }
            return;
        }
        if self.diags.len() >= self.opts.max_diagnostics {
            self.dropped += 1;
            return;
        }
        self.sites.insert(key, self.diags.len());
        self.diags.push(Diagnostic {
            kind,
            severity: kind.severity(),
            block: self.block,
            step: self.step.saturating_sub(1),
            phase: self.phase,
            tid,
            array,
            index,
            degree,
            location,
            related,
            occurrences: 1,
            message,
        });
    }

    /// Reports an intra-step write-write race between `tid_a` and `tid_b`.
    pub(crate) fn note_race(
        &mut self,
        tid_a: usize,
        tid_b: usize,
        array: u32,
        index: usize,
        loc_a: &'static Location<'static>,
        loc_b: &'static Location<'static>,
    ) {
        self.push(
            DiagnosticKind::WriteWriteRace,
            tid_a,
            Some(array),
            Some(index),
            None,
            loc_a,
            Some(loc_b),
            format!(
                "threads {tid_a} and {tid_b} both stored to shared array {array} element \
                 {index} in one superstep"
            ),
        );
    }

    /// Reports a same-thread read-after-buffered-write hazard.
    pub(crate) fn note_hazard(
        &mut self,
        tid: usize,
        array: u32,
        index: usize,
        load_loc: &'static Location<'static>,
        store_loc: &'static Location<'static>,
    ) {
        self.push(
            DiagnosticKind::ReadWriteHazard,
            tid,
            Some(array),
            Some(index),
            None,
            load_loc,
            Some(store_loc),
            format!(
                "thread {tid} loads shared array {array} element {index} after buffering a \
                 store to it in the same superstep (missing __syncthreads barrier)"
            ),
        );
    }

    /// Reports a shared-memory out-of-bounds access.
    pub(crate) fn note_shared_oob(
        &mut self,
        tid: usize,
        array: u32,
        index: usize,
        len: usize,
        store: bool,
        loc: &'static Location<'static>,
    ) {
        let what = if store { "store" } else { "load" };
        self.push(
            DiagnosticKind::SharedOutOfBounds,
            tid,
            Some(array),
            Some(index),
            None,
            loc,
            None,
            format!("{what} at index {index} of shared array {array} (len {len})"),
        );
    }

    /// Reports a global-memory out-of-bounds access.
    pub(crate) fn note_global_oob(
        &mut self,
        tid: usize,
        array: u32,
        index: usize,
        len: usize,
        store: bool,
        loc: &'static Location<'static>,
    ) {
        let what = if store { "store" } else { "load" };
        self.push(
            DiagnosticKind::GlobalOutOfBounds,
            tid,
            Some(array),
            Some(index),
            None,
            loc,
            None,
            format!("{what} at index {index} of global array {array} (len {len})"),
        );
    }

    /// Reports use of a handle foreign to this block's arena.
    pub(crate) fn note_invalid_handle(
        &mut self,
        tid: usize,
        array: u32,
        shared: bool,
        loc: &'static Location<'static>,
    ) {
        let space = if shared { "shared" } else { "global" };
        self.push(
            DiagnosticKind::InvalidHandle,
            tid,
            Some(array),
            None,
            None,
            loc,
            None,
            format!("{space} handle {array} does not belong to this context's arena"),
        );
    }

    /// Reports a read of a never-written shared cell.
    pub(crate) fn note_uninit(
        &mut self,
        tid: usize,
        array: u32,
        index: usize,
        loc: &'static Location<'static>,
    ) {
        self.push(
            DiagnosticKind::UninitializedRead,
            tid,
            Some(array),
            Some(index),
            None,
            loc,
            None,
            format!(
                "thread {tid} reads shared array {array} element {index} before any \
                 barrier-committed store initialized it"
            ),
        );
    }

    /// Latches the first non-finite store of the block.
    pub(crate) fn note_nonfinite(&mut self, tid: usize, loc: &'static Location<'static>) {
        if self.nonfinite_latched {
            return;
        }
        self.nonfinite_latched = true;
        let (step, phase) = (self.step.saturating_sub(1), self.phase.label());
        self.push(
            DiagnosticKind::NonFiniteOrigin,
            tid,
            None,
            None,
            None,
            loc,
            None,
            format!(
                "first non-finite value stored at step {step} ({phase}) by thread {tid} — \
                 overflow origin"
            ),
        );
    }

    /// Reports an access site whose conflict degree reached the lint
    /// threshold.
    pub(crate) fn note_bank_conflict(&mut self, degree: u32, loc: &'static Location<'static>) {
        if degree < self.opts.bank_conflict_threshold {
            return;
        }
        self.push(
            DiagnosticKind::BankConflict,
            0,
            None,
            None,
            Some(degree),
            loc,
            None,
            format!("{degree}-way bank conflict at this access site"),
        );
    }

    /// Consumes the sanitizer, returning its findings.
    pub fn into_diagnostics(self) -> Vec<Diagnostic> {
        self.diags
    }
}

/// Merges `from` into `into`, collapsing diagnostics with the same
/// (kind, source site, array) by summing occurrences and keeping the worst
/// conflict degree. Used by the launcher to fold per-block reports.
pub fn merge_diagnostics(into: &mut Vec<Diagnostic>, from: Vec<Diagnostic>) {
    for d in from {
        if let Some(e) = into.iter_mut().find(|e| {
            e.kind == d.kind && loc_key(e.location) == loc_key(d.location) && e.array == d.array
        }) {
            e.occurrences += d.occurrences;
            if let (Some(new), Some(old)) = (d.degree, e.degree) {
                if new > old {
                    e.degree = Some(new);
                    e.message = d.message;
                }
            }
        } else {
            into.push(d);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn here() -> &'static Location<'static> {
        Location::caller()
    }

    #[test]
    fn dedup_counts_occurrences() {
        let mut s = Sanitizer::new(SanitizeOptions::record(), 0);
        s.on_alloc(8);
        s.begin_step(Phase::Other("t"));
        let loc = here();
        for tid in 0..5 {
            s.note_uninit(tid, 0, tid, loc);
        }
        let d = s.into_diagnostics();
        assert_eq!(d.len(), 1);
        assert_eq!(d[0].occurrences, 5);
        assert_eq!(d[0].tid, 0, "first occurrence wins the slot");
    }

    #[test]
    fn cap_limits_distinct_sites() {
        let mut opts = SanitizeOptions::record();
        opts.max_diagnostics = 2;
        let mut s = Sanitizer::new(opts, 0);
        s.on_alloc(8);
        // Three distinct arrays -> three distinct keys at one site.
        s.note_uninit(0, 0, 0, here());
        s.note_uninit(0, 1, 0, here());
        s.note_uninit(0, 2, 0, here());
        assert_eq!(s.into_diagnostics().len(), 2);
    }

    #[test]
    fn nonfinite_latches_once() {
        let mut s = Sanitizer::new(SanitizeOptions::record(), 0);
        s.begin_step(Phase::Scan);
        s.note_nonfinite(3, here());
        s.note_nonfinite(4, here());
        let d = s.into_diagnostics();
        assert_eq!(d.len(), 1);
        assert_eq!(d[0].kind, DiagnosticKind::NonFiniteOrigin);
        assert_eq!(d[0].severity, Severity::Warning);
        assert_eq!(d[0].tid, 3);
    }

    #[test]
    fn bank_lint_respects_threshold_and_keeps_worst() {
        let mut s = Sanitizer::new(SanitizeOptions::record(), 0);
        s.begin_step(Phase::ForwardReduction);
        let loc = here();
        s.note_bank_conflict(2, loc); // below threshold 8 -> ignored
        s.note_bank_conflict(8, loc);
        s.note_bank_conflict(16, loc);
        s.note_bank_conflict(4, loc); // below threshold -> ignored
        let d = s.into_diagnostics();
        assert_eq!(d.len(), 1);
        assert_eq!(d[0].degree, Some(16));
        assert_eq!(d[0].occurrences, 2);
    }

    #[test]
    fn merge_collapses_same_site() {
        let mut a = Sanitizer::new(SanitizeOptions::record(), 0);
        let mut b = Sanitizer::new(SanitizeOptions::record(), 1);
        a.on_alloc(4);
        b.on_alloc(4);
        let loc = here();
        a.note_uninit(0, 0, 1, loc);
        b.note_uninit(0, 0, 1, loc);
        b.note_uninit(0, 0, 2, loc);
        let mut merged = a.into_diagnostics();
        merge_diagnostics(&mut merged, b.into_diagnostics());
        assert_eq!(merged.len(), 1);
        assert_eq!(merged[0].occurrences, 3);
        assert_eq!(merged[0].block, 0, "first block's entry wins");
    }

    #[test]
    fn mode_flags() {
        assert!(!SanitizeMode::Off.is_on());
        assert!(SanitizeMode::Record.is_on());
        assert!(SanitizeMode::Enforce.is_on());
        assert_eq!(SanitizeOptions::default().mode, SanitizeMode::Off);
        assert_eq!(SanitizeOptions::enforce().mode, SanitizeMode::Enforce);
    }
}
