//! The device pool: N independent simulated GPUs behind one scheduler.
//!
//! Each [`SimDevice`] wraps its own [`Launcher`] — its own fault plan
//! (seeded as a pure function of the pool seed and the device index, see
//! [`gpu_sim::derive_device_seed`]), its own launch counter, and its own
//! accumulated simulated busy time. The [`DevicePool`] routes work
//! round-robin across the healthy subset and keeps the counters that the
//! serving layer surfaces per device.

use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::Arc;

use gpu_sim::{FaultConfig, FaultPlan, Launcher};

/// Blueprint for a pool: how many devices and how they are seeded.
#[derive(Debug, Clone)]
pub struct PoolConfig {
    /// Number of simulated devices (must be >= 1).
    pub devices: usize,
    /// Pool-level seed. Every device's fault plan is re-keyed from this
    /// via [`gpu_sim::derive_device_seed`], so a whole-pool chaos run is
    /// replayable from this one number.
    pub seed: u64,
    /// Fault-configuration *template* applied to every device (its `seed`
    /// field is ignored and replaced per device). `None` leaves devices
    /// fault-free.
    pub fault: Option<FaultConfig>,
    /// Per-device overrides `(device index, template)` taking precedence
    /// over `fault`; also re-seeded per device. Lets a scenario give one
    /// device a sticky `device_lost_after` while the rest stay quiet.
    pub fault_overrides: Vec<(usize, FaultConfig)>,
    /// The launcher cloned for every device (device model, cost model,
    /// sanitizer settings). Any fault plan installed on it is discarded in
    /// favour of the per-device plans above.
    pub base: Launcher,
}

impl PoolConfig {
    /// A quiet pool of `devices` GTX 280s.
    pub fn new(devices: usize) -> Self {
        Self {
            devices,
            seed: 0x9E37_79B9_7F4A_7C15,
            fault: None,
            fault_overrides: Vec::new(),
            base: Launcher::gtx280(),
        }
    }

    /// Builds the pool.
    pub fn build(self) -> DevicePool {
        DevicePool::new(self)
    }
}

impl Default for PoolConfig {
    fn default() -> Self {
        Self::new(1)
    }
}

/// One simulated GPU in the pool: an independent launcher plus the
/// counters the scheduler and metrics layer need.
#[derive(Debug)]
pub struct SimDevice {
    /// Position in the pool (0-based); also the fault-seed derivation key.
    pub id: usize,
    /// The device's launcher. Clones share the device's fault plan (and
    /// therefore its launch counter) via `Arc`.
    pub launcher: Launcher,
    lost: AtomicBool,
    dispatched: AtomicU64,
    steals: AtomicU64,
    /// Busy time accumulated by dispatch, nanoseconds (fixed-point so it
    /// fits an atomic).
    busy_ns: AtomicU64,
}

impl SimDevice {
    fn new(id: usize, launcher: Launcher) -> Self {
        Self {
            id,
            launcher,
            lost: AtomicBool::new(false),
            dispatched: AtomicU64::new(0),
            steals: AtomicU64::new(0),
            busy_ns: AtomicU64::new(0),
        }
    }

    /// `true` once the device has been marked lost (sticky).
    pub fn is_lost(&self) -> bool {
        self.lost.load(Ordering::Acquire)
    }

    /// Records one dispatched unit of work that kept the device busy for
    /// `ms` simulated milliseconds.
    pub fn note_dispatched(&self, ms: f64) {
        self.dispatched.fetch_add(1, Ordering::Relaxed);
        self.busy_ns.fetch_add((ms.max(0.0) * 1e6) as u64, Ordering::Relaxed);
    }

    /// Records a job this device stole from another device's queue.
    pub fn note_steal(&self) {
        self.steals.fetch_add(1, Ordering::Relaxed);
    }

    /// Units of work dispatched on this device so far.
    pub fn dispatched(&self) -> u64 {
        self.dispatched.load(Ordering::Relaxed)
    }

    /// Jobs stolen *by* this device so far.
    pub fn steals(&self) -> u64 {
        self.steals.load(Ordering::Relaxed)
    }

    /// Accumulated simulated busy milliseconds.
    pub fn busy_ms(&self) -> f64 {
        self.busy_ns.load(Ordering::Relaxed) as f64 / 1e6
    }
}

/// A deterministic multi-GPU node: devices plus routing state.
#[derive(Debug)]
pub struct DevicePool {
    devices: Vec<SimDevice>,
    rr: AtomicUsize,
}

impl DevicePool {
    /// Builds a pool from `cfg`. Each device gets a clone of `cfg.base`
    /// with a fault plan seeded by `derive_device_seed(cfg.seed, id)` —
    /// the pure derivation that makes whole-pool chaos runs replayable.
    ///
    /// # Panics
    /// If `cfg.devices` is 0 or an override names a device out of range.
    pub fn new(cfg: PoolConfig) -> Self {
        assert!(cfg.devices >= 1, "a pool needs at least one device");
        for &(id, _) in &cfg.fault_overrides {
            assert!(id < cfg.devices, "fault override for device {id} out of range");
        }
        let devices = (0..cfg.devices)
            .map(|id| {
                let template = cfg
                    .fault_overrides
                    .iter()
                    .rev()
                    .find(|(d, _)| *d == id)
                    .map(|(_, t)| *t)
                    .or(cfg.fault);
                let mut launcher = cfg.base.clone();
                launcher.fault =
                    template.map(|t| Arc::new(FaultPlan::new(t.for_device(cfg.seed, id as u64))));
                SimDevice::new(id, launcher)
            })
            .collect();
        Self { devices, rr: AtomicUsize::new(0) }
    }

    /// Wraps one existing launcher — fault plan and all — as a 1-device
    /// pool. This is the backward-compatible path: a service configured
    /// without a pool behaves exactly as before.
    pub fn single(launcher: Launcher) -> Self {
        Self { devices: vec![SimDevice::new(0, launcher)], rr: AtomicUsize::new(0) }
    }

    /// Number of devices (healthy or not).
    pub fn len(&self) -> usize {
        self.devices.len()
    }

    /// `true` iff the pool has no devices (never, by construction).
    pub fn is_empty(&self) -> bool {
        self.devices.is_empty()
    }

    /// The device with id `i`.
    pub fn device(&self, i: usize) -> &SimDevice {
        &self.devices[i]
    }

    /// All devices in id order.
    pub fn devices(&self) -> &[SimDevice] {
        &self.devices
    }

    /// Ids of devices not marked lost, ascending.
    pub fn healthy(&self) -> Vec<usize> {
        self.devices.iter().filter(|d| !d.is_lost()).map(|d| d.id).collect()
    }

    /// Marks device `i` lost (sticky). Routing skips it from now on.
    pub fn mark_lost(&self, i: usize) {
        self.devices[i].lost.store(true, Ordering::Release);
    }

    /// `true` once device `i` has been marked lost.
    pub fn is_lost(&self, i: usize) -> bool {
        self.devices[i].is_lost()
    }

    /// Picks the next healthy device in round-robin order, or `None` when
    /// every device is lost (callers fall back to the CPU safety net).
    pub fn route(&self) -> Option<usize> {
        let healthy = self.healthy();
        if healthy.is_empty() {
            return None;
        }
        let tick = self.rr.fetch_add(1, Ordering::Relaxed);
        Some(healthy[tick % healthy.len()])
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gpu_sim::derive_device_seed;

    fn chaos_cfg(devices: usize) -> PoolConfig {
        PoolConfig { fault: Some(FaultConfig::chaos(0, 0.05, 0.01)), ..PoolConfig::new(devices) }
    }

    #[test]
    fn devices_get_pure_derived_seeds() {
        let cfg = chaos_cfg(8);
        let seed = cfg.seed;
        let pool = cfg.build();
        for d in pool.devices() {
            let plan = d.launcher.fault.as_ref().expect("chaos template installs a plan");
            assert_eq!(
                plan.config().seed,
                derive_device_seed(seed, d.id as u64),
                "device {} seed must be the pure derivation",
                d.id
            );
        }
    }

    #[test]
    fn pool_rebuild_replays_identical_fault_schedules() {
        // Satellite: whole-pool chaos runs are replayable — building the
        // same config twice yields per-device plans with identical
        // decision schedules, and distinct devices get distinct schedules.
        let a = chaos_cfg(4).build();
        let b = chaos_cfg(4).build();
        let mut schedules = Vec::new();
        for id in 0..4 {
            let ca = *a.device(id).launcher.fault.as_ref().unwrap().config();
            let cb = *b.device(id).launcher.fault.as_ref().unwrap().config();
            let sa = FaultPlan::schedule(&ca, 256);
            assert_eq!(sa, FaultPlan::schedule(&cb, 256), "device {id} replay");
            schedules.push(sa);
        }
        for i in 0..4 {
            for j in (i + 1)..4 {
                assert_ne!(schedules[i], schedules[j], "devices {i}/{j} must decorrelate");
            }
        }
        // A different pool seed re-keys every device.
        let c = PoolConfig { seed: 7, ..chaos_cfg(4) }.build();
        let c0 = *c.device(0).launcher.fault.as_ref().unwrap().config();
        let a0 = *a.device(0).launcher.fault.as_ref().unwrap().config();
        assert_ne!(FaultPlan::schedule(&c0, 256), FaultPlan::schedule(&a0, 256));
    }

    #[test]
    fn overrides_win_and_are_reseeded() {
        let mut cfg = chaos_cfg(3);
        cfg.fault_overrides =
            vec![(1, FaultConfig { device_lost_after: Some(2), ..FaultConfig::quiet(0) })];
        let seed = cfg.seed;
        let pool = cfg.build();
        let plan1 = *pool.device(1).launcher.fault.as_ref().unwrap().config();
        assert_eq!(plan1.device_lost_after, Some(2));
        assert_eq!(plan1.seed, derive_device_seed(seed, 1));
        // Other devices keep the template.
        let plan0 = *pool.device(0).launcher.fault.as_ref().unwrap().config();
        assert!(plan0.launch_failure_rate > 0.0);
    }

    #[test]
    fn round_robin_cycles_and_skips_lost_devices() {
        let pool = PoolConfig::new(4).build();
        let first: Vec<_> = (0..8).map(|_| pool.route().unwrap()).collect();
        assert_eq!(first, vec![0, 1, 2, 3, 0, 1, 2, 3]);
        pool.mark_lost(2);
        let after: Vec<_> = (0..6).map(|_| pool.route().unwrap()).collect();
        assert!(!after.contains(&2), "lost device must not be routed to: {after:?}");
        assert_eq!(pool.healthy(), vec![0, 1, 3]);
    }

    #[test]
    fn route_returns_none_when_every_device_is_lost() {
        let pool = PoolConfig::new(2).build();
        pool.mark_lost(0);
        pool.mark_lost(1);
        assert_eq!(pool.route(), None);
        assert!(pool.healthy().is_empty());
    }

    #[test]
    fn single_preserves_the_installed_fault_plan() {
        let plan = Arc::new(FaultPlan::new(FaultConfig::chaos(3, 0.5, 0.0)));
        let pool = DevicePool::single(Launcher::gtx280().with_fault_plan(plan.clone()));
        assert_eq!(pool.len(), 1);
        let installed = pool.device(0).launcher.fault.as_ref().unwrap();
        assert!(Arc::ptr_eq(installed, &plan), "single() must not re-key the plan");
    }

    #[test]
    fn stats_track_dispatch_busy_time_and_steals() {
        let pool = PoolConfig::new(2).build();
        pool.device(0).note_dispatched(1.5);
        pool.device(0).note_dispatched(0.5);
        pool.device(1).note_steal();
        let (d0, d1) = (pool.device(0), pool.device(1));
        assert_eq!(d0.dispatched(), 2);
        assert!((d0.busy_ms() - 2.0).abs() < 1e-9);
        assert_eq!(d1.steals(), 1);
        assert!(!d0.is_lost() && !d1.is_lost());
    }
}
