//! Deterministic fault injection: a chaos layer for the simulated device.
//!
//! The simulated GTX 280 is, by construction, a *perfect* device — every
//! launch succeeds, every store lands, every block finishes on schedule.
//! Real devices are not: production batch solvers live with transient
//! launch failures, ECC misses silently corrupting a result, straggler
//! SMs, and the occasional wholesale device loss. This module makes those
//! adversities **reproducible**: a [`FaultPlan`] installed on a
//! [`crate::Launcher`] draws a deterministic, seed-keyed schedule of
//!
//! * **transient launch failures** — the launch aborts with
//!   [`tridiag_core::TridiagError::DeviceFault`] before any block runs;
//! * **bit flips** — after the kernel completes, one (or several) exponent
//!   bits of elements in global arrays *written by the launch* are flipped,
//!   modelling an ECC miss on the result path (distinct from the
//!   sanitizer's *program* bugs: the kernel is correct, the memory lied);
//! * **NaN poisoning** — a written element is overwritten with NaN;
//! * **SM stalls** — the launch's simulated timing is inflated by a
//!   multiplier (a straggler), numerics untouched;
//! * **sticky device loss** — from a configured launch index onward, every
//!   launch fails with [`tridiag_core::TridiagError::DeviceLost`].
//!
//! Everything is **off by default** and counter-neutral when off: a
//! `Launcher` without a plan (or with an all-zero-rate plan) produces
//! byte-identical counters, timings, and solutions to the pre-fault-layer
//! simulator — mirroring the `SanitizeMode::Off` contract.
//!
//! Determinism: the per-launch decision is a *pure function* of
//! `(seed, launch index)` — not of a shared sequential RNG — so the
//! schedule is independent of thread interleaving; only the assignment of
//! launch indices (one atomic counter per plan) is order-dependent. A
//! sequential driver replays the exact same schedule every run
//! ([`FaultPlan::schedule`] exposes it for pinned tests).

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use tridiag_core::splitmix64;

/// Rates and knobs for one fault plan. All rates are per-launch
/// probabilities in `[0, 1]`; everything defaults to zero (no faults).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FaultConfig {
    /// Seed keying the whole schedule. Same seed + same config ⇒ same
    /// schedule, always.
    pub seed: u64,
    /// Probability that a launch aborts with a transient
    /// [`tridiag_core::TridiagError::DeviceFault`].
    pub launch_failure_rate: f64,
    /// The first `launch_fault_burst` launches *always* fail transiently —
    /// a deterministic adversity window for breaker tests, applied on top
    /// of the stochastic rate.
    pub launch_fault_burst: u64,
    /// Probability that a completed launch has output bits flipped.
    pub bit_flip_rate: f64,
    /// Elements corrupted per bit-flip event (1 = single-event upset).
    pub flips_per_event: u32,
    /// Probability that a completed launch has one output element
    /// overwritten with NaN.
    pub nan_poison_rate: f64,
    /// Probability that a launch is a straggler: its simulated timing is
    /// multiplied by [`FaultConfig::stall_multiplier`].
    pub stall_rate: f64,
    /// Simulated-time inflation factor for straggler launches (> 1).
    pub stall_multiplier: f64,
    /// When set, every launch with index `>= k` fails with
    /// [`tridiag_core::TridiagError::DeviceLost`] — sticky, never recovers.
    pub device_lost_after: Option<u64>,
}

impl Default for FaultConfig {
    fn default() -> Self {
        Self {
            seed: 0,
            launch_failure_rate: 0.0,
            launch_fault_burst: 0,
            bit_flip_rate: 0.0,
            flips_per_event: 1,
            nan_poison_rate: 0.0,
            stall_rate: 0.0,
            stall_multiplier: 4.0,
            device_lost_after: None,
        }
    }
}

impl FaultConfig {
    /// A plan that injects nothing — byte-identical behaviour to no plan
    /// at all (the counter-neutrality baseline).
    pub fn quiet(seed: u64) -> Self {
        Self { seed, ..Self::default() }
    }

    /// The chaos-sweep shorthand: transient launch failures at `launch`,
    /// bit flips at `flip` (single-event, exponent-bit), no stalls.
    pub fn chaos(seed: u64, launch: f64, flip: f64) -> Self {
        Self { seed, launch_failure_rate: launch, bit_flip_rate: flip, ..Self::default() }
    }
}

/// How a launch fails, when it fails.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FailKind {
    /// Transient: the launch aborts, a retry may succeed.
    Transient,
    /// Sticky device loss: this and every later launch fails.
    Lost,
}

/// The fault decision for one launch — pure function of (config, index).
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct LaunchDecision {
    /// Abort the launch with this failure, if set.
    pub fail: Option<FailKind>,
    /// Number of output elements to bit-flip after the kernel.
    pub bit_flips: u32,
    /// Number of output elements to poison with NaN after the kernel.
    pub nan_poisons: u32,
    /// Inflate the launch's simulated timing by this factor, if set.
    pub stall: Option<f64>,
}

impl LaunchDecision {
    /// `true` when this launch is completely unaffected.
    pub fn is_clean(&self) -> bool {
        self.fail.is_none() && self.bit_flips == 0 && self.nan_poisons == 0 && self.stall.is_none()
    }
}

/// One fault that was actually applied to a completed launch (failures
/// surface as launch errors instead and never appear here).
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum InjectedFault {
    /// An exponent bit of a written global-memory element was flipped.
    BitFlip {
        /// Global array handle index.
        array: u32,
        /// Element index within the array.
        index: usize,
    },
    /// A written global-memory element was overwritten with NaN.
    NanPoison {
        /// Global array handle index.
        array: u32,
        /// Element index within the array.
        index: usize,
    },
    /// The launch's simulated timing was inflated by this factor.
    Stall {
        /// Multiplier applied to the timing report.
        multiplier: f64,
    },
}

/// Aggregate injection counts since the plan was created.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct FaultStats {
    /// Launches the plan has adjudicated (failed or not).
    pub launches: u64,
    /// Launches aborted with a transient `DeviceFault`.
    pub launch_failures: u64,
    /// Launches aborted with `DeviceLost`.
    pub device_lost_failures: u64,
    /// Elements bit-flipped post-kernel.
    pub bit_flips: u64,
    /// Elements NaN-poisoned post-kernel.
    pub nan_poisons: u64,
    /// Straggler launches (timing inflated).
    pub stalls: u64,
}

/// A deterministic per-launch fault schedule, shareable (via `Arc`)
/// between launcher clones so all of them draw from one launch counter.
pub struct FaultPlan {
    cfg: FaultConfig,
    next_launch: AtomicU64,
    stats: Mutex<FaultStats>,
}

impl core::fmt::Debug for FaultPlan {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        f.debug_struct("FaultPlan")
            .field("cfg", &self.cfg)
            .field("next_launch", &self.next_launch.load(Ordering::Relaxed))
            .finish()
    }
}

impl FaultPlan {
    /// Creates a plan from `cfg`.
    pub fn new(cfg: FaultConfig) -> Self {
        Self { cfg, next_launch: AtomicU64::new(0), stats: Mutex::new(FaultStats::default()) }
    }

    /// The configuration this plan draws from.
    pub fn config(&self) -> &FaultConfig {
        &self.cfg
    }

    /// Injection counts so far.
    pub fn stats(&self) -> FaultStats {
        *self.stats.lock().unwrap_or_else(|p| p.into_inner())
    }

    /// The decision sequence for the first `launches` launches — the
    /// schedule a sequential driver will observe. Pure: two calls with the
    /// same config always agree (the determinism guard pins this).
    pub fn schedule(cfg: &FaultConfig, launches: u64) -> Vec<LaunchDecision> {
        (0..launches).map(|i| decide(cfg, i)).collect()
    }

    /// Claims the next launch index and returns its decision, recording
    /// failure stats. Corruption/stall stats are recorded by the launcher
    /// after it applies them (a decided flip may find nothing to corrupt).
    pub(crate) fn begin_launch(&self) -> (u64, LaunchDecision) {
        let launch = self.next_launch.fetch_add(1, Ordering::Relaxed);
        let decision = decide(&self.cfg, launch);
        let mut stats = self.stats.lock().unwrap_or_else(|p| p.into_inner());
        stats.launches += 1;
        match decision.fail {
            Some(FailKind::Transient) => stats.launch_failures += 1,
            Some(FailKind::Lost) => stats.device_lost_failures += 1,
            None => {}
        }
        (launch, decision)
    }

    /// Records faults the launcher actually applied.
    pub(crate) fn record_applied(&self, applied: &[InjectedFault]) {
        if applied.is_empty() {
            return;
        }
        let mut stats = self.stats.lock().unwrap_or_else(|p| p.into_inner());
        for fault in applied {
            match fault {
                InjectedFault::BitFlip { .. } => stats.bit_flips += 1,
                InjectedFault::NanPoison { .. } => stats.nan_poisons += 1,
                InjectedFault::Stall { .. } => stats.stalls += 1,
            }
        }
    }
}

/// The per-launch decision: a pure function of `(cfg, launch index)`.
fn decide(cfg: &FaultConfig, launch: u64) -> LaunchDecision {
    if let Some(k) = cfg.device_lost_after {
        if launch >= k {
            return LaunchDecision { fail: Some(FailKind::Lost), ..Default::default() };
        }
    }
    if launch < cfg.launch_fault_burst {
        return LaunchDecision { fail: Some(FailKind::Transient), ..Default::default() };
    }
    // Independent draws per fault class, each from its own keyed stream so
    // the classes do not alias each other.
    let mut decision = LaunchDecision::default();
    if unit(cfg.seed, launch, 0x1) < cfg.launch_failure_rate {
        decision.fail = Some(FailKind::Transient);
        return decision;
    }
    if unit(cfg.seed, launch, 0x2) < cfg.bit_flip_rate {
        decision.bit_flips = cfg.flips_per_event.max(1);
    }
    if unit(cfg.seed, launch, 0x3) < cfg.nan_poison_rate {
        decision.nan_poisons = 1;
    }
    if unit(cfg.seed, launch, 0x4) < cfg.stall_rate {
        decision.stall = Some(cfg.stall_multiplier.max(1.0));
    }
    decision
}

/// Derives the fault-plan seed for one device of a multi-device pool as a
/// **pure function** of `(pool_seed, device_index)` — no shared RNG, no
/// ordering dependence. Two pools built from the same pool seed therefore
/// replay byte-identical per-device fault schedules regardless of how many
/// devices exist, which device spins up first, or what any other device
/// does: whole-pool chaos runs are reproducible cell by cell.
///
/// Distinct devices draw distinct seeds (the index is mixed through
/// SplitMix64 twice), and device 0's seed differs from the raw pool seed so
/// a single-device pool is *also* decorrelated from a bare launcher using
/// the pool seed directly.
#[inline]
pub fn derive_device_seed(pool_seed: u64, device_index: u64) -> u64 {
    splitmix64(pool_seed ^ splitmix64(device_index.wrapping_mul(0xA076_1D64_78BD_642F) ^ 0xDE71CE))
}

/// Derives the pool seed for one node of a multi-node cluster as a **pure
/// function** of `(cluster_seed, node_index)` — the node-level analogue of
/// [`derive_device_seed`]. Layered together,
/// `derive_device_seed(derive_node_seed(cluster, node), device)` makes every
/// device's fault schedule a pure function of `(cluster seed, node id,
/// device id)`: a node that crashes and restarts rebuilds the exact same
/// per-device plans, and no two devices anywhere in the cluster share a
/// schedule.
///
/// The mixing constant differs from the device layer's so that
/// `derive_node_seed(s, i) != derive_device_seed(s, i)` — node `i`'s pool
/// seed never collides with device `i`'s plan seed under the same parent.
#[inline]
pub fn derive_node_seed(cluster_seed: u64, node_index: u64) -> u64 {
    splitmix64(
        cluster_seed ^ splitmix64(node_index.wrapping_mul(0x8CB9_2BA7_2F3D_8DD7) ^ 0xC1A5_7E12),
    )
}

impl FaultConfig {
    /// This configuration re-keyed for device `device_index` of a pool
    /// seeded with `pool_seed`: every rate and knob is kept, only the seed
    /// is replaced by [`derive_device_seed`].
    pub fn for_device(self, pool_seed: u64, device_index: u64) -> Self {
        Self { seed: derive_device_seed(pool_seed, device_index), ..self }
    }
}

/// Uniform `[0, 1)` draw keyed by (seed, launch, stream).
#[inline]
fn unit(seed: u64, launch: u64, stream: u64) -> f64 {
    let bits = splitmix64(seed ^ splitmix64(launch.wrapping_mul(0x517C_C1B7_2722_0A95) ^ stream));
    (bits >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
}

/// Deterministic element pick for corruption: returns a pseudo-random
/// value keyed by (seed, launch, which corruption event).
#[inline]
pub(crate) fn corrupt_draw(seed: u64, launch: u64, event: u64) -> u64 {
    splitmix64(seed ^ splitmix64(launch ^ 0x0C04_40C7 ^ event.wrapping_mul(0x2545_F491_4F6C_DD1D)))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quiet_config_never_faults() {
        let schedule = FaultPlan::schedule(&FaultConfig::quiet(42), 256);
        assert!(schedule.iter().all(LaunchDecision::is_clean));
    }

    #[test]
    fn schedule_is_deterministic() {
        let cfg = FaultConfig {
            seed: 7,
            launch_failure_rate: 0.2,
            bit_flip_rate: 0.1,
            nan_poison_rate: 0.05,
            stall_rate: 0.3,
            ..Default::default()
        };
        assert_eq!(FaultPlan::schedule(&cfg, 512), FaultPlan::schedule(&cfg, 512));
        // Different seeds draw different schedules (overwhelmingly likely).
        let other = FaultConfig { seed: 8, ..cfg };
        assert_ne!(FaultPlan::schedule(&cfg, 512), FaultPlan::schedule(&other, 512));
    }

    #[test]
    fn rates_are_roughly_honoured() {
        let cfg = FaultConfig { seed: 3, launch_failure_rate: 0.25, ..Default::default() };
        let n = 4000;
        let fails = FaultPlan::schedule(&cfg, n).iter().filter(|d| d.fail.is_some()).count();
        let rate = fails as f64 / n as f64;
        assert!((0.2..0.3).contains(&rate), "observed failure rate {rate}");
    }

    #[test]
    fn burst_fails_exactly_the_first_k_launches() {
        let cfg = FaultConfig { seed: 1, launch_fault_burst: 5, ..Default::default() };
        let schedule = FaultPlan::schedule(&cfg, 16);
        for (i, d) in schedule.iter().enumerate() {
            if i < 5 {
                assert_eq!(d.fail, Some(FailKind::Transient), "launch {i}");
            } else {
                assert!(d.is_clean(), "launch {i}");
            }
        }
    }

    #[test]
    fn device_lost_is_sticky_and_wins_over_everything() {
        let cfg = FaultConfig {
            seed: 1,
            launch_fault_burst: 100,
            device_lost_after: Some(3),
            ..Default::default()
        };
        let schedule = FaultPlan::schedule(&cfg, 8);
        assert!(schedule[..3].iter().all(|d| d.fail == Some(FailKind::Transient)));
        assert!(schedule[3..].iter().all(|d| d.fail == Some(FailKind::Lost)));
    }

    #[test]
    fn plan_counts_launches_and_failures() {
        let plan =
            FaultPlan::new(FaultConfig { seed: 1, launch_fault_burst: 2, ..Default::default() });
        for _ in 0..5 {
            let _ = plan.begin_launch();
        }
        let stats = plan.stats();
        assert_eq!(stats.launches, 5);
        assert_eq!(stats.launch_failures, 2);
        assert_eq!(stats.device_lost_failures, 0);
    }

    #[test]
    fn device_seeds_are_pure_distinct_and_decorrelated() {
        // Pure function: same inputs, same seed — across calls and pools.
        assert_eq!(derive_device_seed(42, 3), derive_device_seed(42, 3));
        // Distinct devices draw distinct seeds, and none equals the raw
        // pool seed (device 0 included).
        let seeds: Vec<u64> = (0..16).map(|i| derive_device_seed(42, i)).collect();
        for (i, &a) in seeds.iter().enumerate() {
            assert_ne!(a, 42, "device {i} must not reuse the pool seed");
            for (j, &b) in seeds.iter().enumerate().skip(i + 1) {
                assert_ne!(a, b, "devices {i} and {j} collided");
            }
        }
        // Different pool seeds shift every device.
        assert_ne!(derive_device_seed(42, 0), derive_device_seed(43, 0));
    }

    #[test]
    fn for_device_rekeys_but_keeps_the_rates() {
        let base = FaultConfig { seed: 7, launch_failure_rate: 0.25, ..Default::default() };
        let derived = base.for_device(99, 2);
        assert_eq!(derived.seed, derive_device_seed(99, 2));
        assert_eq!(derived.launch_failure_rate, 0.25);
        // The derived schedule is exactly the schedule of the derived seed.
        let direct = FaultConfig { seed: derive_device_seed(99, 2), ..base };
        assert_eq!(FaultPlan::schedule(&derived, 128), FaultPlan::schedule(&direct, 128));
    }

    #[test]
    fn failed_launches_do_not_also_corrupt() {
        let cfg = FaultConfig {
            seed: 9,
            launch_failure_rate: 1.0,
            bit_flip_rate: 1.0,
            nan_poison_rate: 1.0,
            stall_rate: 1.0,
            ..Default::default()
        };
        for d in FaultPlan::schedule(&cfg, 32) {
            assert_eq!(d.fail, Some(FailKind::Transient));
            assert_eq!(d.bit_flips, 0);
            assert_eq!(d.nan_poisons, 0);
            assert_eq!(d.stall, None);
        }
    }
}
