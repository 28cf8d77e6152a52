//! Service observability: counters, histograms, and a serializable report.
//!
//! The hot path touches only atomics and two small maps behind short-held
//! mutexes (dispatch counts keyed by engine, occupancy keyed by batch
//! size). [`MetricsSnapshot`] is a cheap, consistent-enough copy for
//! dashboards and tests; `to_json` is hand-rolled because the build is
//! offline and the in-tree `serde` shim provides derives but no
//! serializer.
//!
//! **Conservation laws** the test suite holds the service to:
//!
//! * `sum(dispatch_counts.values()) == completed` — every completed
//!   request was dispatched on exactly one engine;
//! * `sum(occupancy.values() × key weighting) == completed` — the
//!   occupancy histogram counts *systems* (not batches) per dispatch-group
//!   size, so it partitions the same population (and equals the summed
//!   occupancy of the `Served` trace events, one per group);
//! * `flushes_<reason>` counts batcher flushes, one per `Flush` trace
//!   event, however many groups dispatch splits a flush into;
//! * `submitted == completed + in flight` at quiescence, with `rejected`
//!   counted separately (rejected requests were never admitted).

use crate::batcher::FlushReason;
use serde::Serialize;
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::Duration;

/// Number of log2 latency buckets: bucket `i` holds latencies in
/// `[2^i, 2^(i+1))` microseconds; 40 buckets cover ~12 days.
const LATENCY_BUCKETS: usize = 40;

/// Shared, thread-safe metric sinks. One instance per service.
pub struct ServiceMetrics {
    submitted: AtomicU64,
    completed: AtomicU64,
    rejected: AtomicU64,
    repaired: AtomicU64,
    flushes_full: AtomicU64,
    flushes_linger: AtomicU64,
    flushes_deadline: AtomicU64,
    flushes_shutdown: AtomicU64,
    retries: AtomicU64,
    device_faults: AtomicU64,
    corruptions_caught: AtomicU64,
    degraded_flushes: AtomicU64,
    deadline_misses: AtomicU64,
    factor_hits: AtomicU64,
    factor_misses: AtomicU64,
    factor_evictions: AtomicU64,
    warm_flushes: AtomicU64,
    condest_calls: AtomicU64,
    certs_issued: AtomicU64,
    cert_skipped_verifies: AtomicU64,
    cert_sampled_verifies: AtomicU64,
    certs_revoked: AtomicU64,
    latency_us: [AtomicU64; LATENCY_BUCKETS],
    /// batch size → systems served in batches of that size.
    occupancy: Mutex<BTreeMap<usize, u64>>,
    /// engine spelling → systems served on that engine.
    dispatch: Mutex<BTreeMap<String, u64>>,
    /// engine spelling → engine milliseconds consumed (simulated device
    /// time for GPU engines, wall-clock for CPU engines).
    engine_ms: Mutex<BTreeMap<String, f64>>,
}

impl Default for ServiceMetrics {
    fn default() -> Self {
        Self::new()
    }
}

impl ServiceMetrics {
    /// Fresh, all-zero metrics.
    pub fn new() -> Self {
        Self {
            submitted: AtomicU64::new(0),
            completed: AtomicU64::new(0),
            rejected: AtomicU64::new(0),
            repaired: AtomicU64::new(0),
            flushes_full: AtomicU64::new(0),
            flushes_linger: AtomicU64::new(0),
            flushes_deadline: AtomicU64::new(0),
            flushes_shutdown: AtomicU64::new(0),
            retries: AtomicU64::new(0),
            device_faults: AtomicU64::new(0),
            corruptions_caught: AtomicU64::new(0),
            degraded_flushes: AtomicU64::new(0),
            deadline_misses: AtomicU64::new(0),
            factor_hits: AtomicU64::new(0),
            factor_misses: AtomicU64::new(0),
            factor_evictions: AtomicU64::new(0),
            warm_flushes: AtomicU64::new(0),
            condest_calls: AtomicU64::new(0),
            certs_issued: AtomicU64::new(0),
            cert_skipped_verifies: AtomicU64::new(0),
            cert_sampled_verifies: AtomicU64::new(0),
            certs_revoked: AtomicU64::new(0),
            latency_us: core::array::from_fn(|_| AtomicU64::new(0)),
            occupancy: Mutex::new(BTreeMap::new()),
            dispatch: Mutex::new(BTreeMap::new()),
            engine_ms: Mutex::new(BTreeMap::new()),
        }
    }

    /// One request admitted.
    pub fn on_submit(&self) {
        self.submitted.fetch_add(1, Ordering::Relaxed);
    }

    /// One request rejected at admission (queue full / shutting down).
    pub fn on_reject(&self) {
        self.rejected.fetch_add(1, Ordering::Relaxed);
    }

    /// One batcher flush for `reason`. Counted once per flush, however
    /// many dispatch groups the dispatcher splits it into.
    pub fn on_flush(&self, reason: FlushReason) {
        match reason {
            FlushReason::Full => &self.flushes_full,
            FlushReason::Linger => &self.flushes_linger,
            FlushReason::Deadline => &self.flushes_deadline,
            FlushReason::Shutdown => &self.flushes_shutdown,
        }
        .fetch_add(1, Ordering::Relaxed);
    }

    /// One dispatch group of `occupancy` systems served on `engine` in
    /// `engine_ms` milliseconds (simulated for GPU engines, wall-clock for
    /// CPU); `repairs` of its systems needed the GEP safety net.
    pub fn on_batch_served(&self, engine: &str, occupancy: usize, repairs: usize, engine_ms: f64) {
        self.repaired.fetch_add(repairs as u64, Ordering::Relaxed);
        *self.occupancy.lock().unwrap_or_else(|p| p.into_inner()).entry(occupancy).or_insert(0) +=
            occupancy as u64;
        *self
            .dispatch
            .lock()
            .unwrap_or_else(|p| p.into_inner())
            .entry(engine.to_string())
            .or_insert(0) += occupancy as u64;
        *self
            .engine_ms
            .lock()
            .unwrap_or_else(|p| p.into_inner())
            .entry(engine.to_string())
            .or_insert(0.0) += engine_ms;
    }

    /// Degradation accounting for one served flush: `retries` engine
    /// re-dispatches, `device_faults` launches aborted by the device,
    /// `corruptions` memory corruptions caught by verification, and
    /// whether the flush was ultimately `degraded` to an engine other
    /// than the one the planner chose (CPU safety net or a lower-ranked
    /// GPU candidate).
    pub fn on_degradation(
        &self,
        retries: u64,
        device_faults: u64,
        corruptions: u64,
        degraded: bool,
    ) {
        self.retries.fetch_add(retries, Ordering::Relaxed);
        self.device_faults.fetch_add(device_faults, Ordering::Relaxed);
        self.corruptions_caught.fetch_add(corruptions, Ordering::Relaxed);
        if degraded {
            self.degraded_flushes.fetch_add(1, Ordering::Relaxed);
        }
    }

    /// One request whose response was delivered after its deadline.
    pub fn on_deadline_miss(&self) {
        self.deadline_misses.fetch_add(1, Ordering::Relaxed);
    }

    /// One flush found its factorization in the cache (warm dispatch).
    pub fn on_factor_hit(&self) {
        self.factor_hits.fetch_add(1, Ordering::Relaxed);
    }

    /// One flush carried a matrix key the cache had not factored yet.
    pub fn on_factor_miss(&self) {
        self.factor_misses.fetch_add(1, Ordering::Relaxed);
    }

    /// `count` cached factorizations evicted (LRU pressure) or
    /// invalidated (failed warm verify).
    pub fn on_factor_evictions(&self, count: u64) {
        self.factor_evictions.fetch_add(count, Ordering::Relaxed);
    }

    /// One flush served entirely by back-substitution (no elimination).
    pub fn on_warm_flush(&self) {
        self.warm_flushes.fetch_add(1, Ordering::Relaxed);
    }

    /// `count` Hager condition-estimator invocations spent by the static
    /// analyzer (at most one per matrix key — analysis is memoized).
    pub fn on_condest_calls(&self, count: u64) {
        self.condest_calls.fetch_add(count, Ordering::Relaxed);
    }

    /// One matrix key earned a live numeric certificate.
    pub fn on_cert_issued(&self) {
        self.certs_issued.fetch_add(1, Ordering::Relaxed);
    }

    /// One certified flush skipped the per-answer residual verify
    /// (NaN/Inf guard only).
    pub fn on_cert_skipped_verify(&self) {
        self.cert_skipped_verifies.fetch_add(1, Ordering::Relaxed);
    }

    /// One certified flush paid the deterministic 1-in-K sampled verify.
    pub fn on_cert_sampled_verify(&self) {
        self.cert_sampled_verifies.fetch_add(1, Ordering::Relaxed);
    }

    /// One certificate permanently revoked after a caught corruption.
    pub fn on_cert_revoked(&self) {
        self.certs_revoked.fetch_add(1, Ordering::Relaxed);
    }

    /// One request completed with end-to-end `latency`.
    pub fn on_complete(&self, latency: Duration) {
        self.completed.fetch_add(1, Ordering::Relaxed);
        let us = latency.as_micros().max(1) as u64;
        let bucket = (63 - us.leading_zeros() as usize).min(LATENCY_BUCKETS - 1);
        self.latency_us[bucket].fetch_add(1, Ordering::Relaxed);
    }

    /// Requests completed so far (drain-rate input for the
    /// `QueueFull::retry_after` hint).
    pub fn completed_total(&self) -> u64 {
        self.completed.load(Ordering::Relaxed)
    }

    /// Consistent-enough copy of everything, plus the caller-supplied
    /// instantaneous gauges.
    pub fn snapshot(&self, queue_depth: usize, plan_tunes: u64, plan_hits: u64) -> MetricsSnapshot {
        let latency: Vec<u64> = self.latency_us.iter().map(|b| b.load(Ordering::Relaxed)).collect();
        MetricsSnapshot {
            submitted: self.submitted.load(Ordering::Relaxed),
            completed: self.completed.load(Ordering::Relaxed),
            rejected: self.rejected.load(Ordering::Relaxed),
            repaired: self.repaired.load(Ordering::Relaxed),
            flushes_full: self.flushes_full.load(Ordering::Relaxed),
            flushes_linger: self.flushes_linger.load(Ordering::Relaxed),
            flushes_deadline: self.flushes_deadline.load(Ordering::Relaxed),
            flushes_shutdown: self.flushes_shutdown.load(Ordering::Relaxed),
            degradation: DegradationState {
                retries: self.retries.load(Ordering::Relaxed),
                device_faults: self.device_faults.load(Ordering::Relaxed),
                corruptions_caught: self.corruptions_caught.load(Ordering::Relaxed),
                degraded_flushes: self.degraded_flushes.load(Ordering::Relaxed),
                deadline_misses: self.deadline_misses.load(Ordering::Relaxed),
                breaker_opened: 0,
                breaker_closed: 0,
                breaker_denials: 0,
                breaker_states: BTreeMap::new(),
            },
            factor_hits: self.factor_hits.load(Ordering::Relaxed),
            factor_misses: self.factor_misses.load(Ordering::Relaxed),
            factor_evictions: self.factor_evictions.load(Ordering::Relaxed),
            warm_flushes: self.warm_flushes.load(Ordering::Relaxed),
            condest_calls: self.condest_calls.load(Ordering::Relaxed),
            certs_issued: self.certs_issued.load(Ordering::Relaxed),
            cert_skipped_verifies: self.cert_skipped_verifies.load(Ordering::Relaxed),
            cert_sampled_verifies: self.cert_sampled_verifies.load(Ordering::Relaxed),
            certs_revoked: self.certs_revoked.load(Ordering::Relaxed),
            queue_depth,
            plan_tunes,
            plan_hits,
            latency_p50_us: percentile_us(&latency, 0.50),
            latency_p95_us: percentile_us(&latency, 0.95),
            latency_p99_us: percentile_us(&latency, 0.99),
            occupancy_systems: self.occupancy.lock().unwrap_or_else(|p| p.into_inner()).clone(),
            dispatch_systems: self.dispatch.lock().unwrap_or_else(|p| p.into_inner()).clone(),
            engine_ms: self.engine_ms.lock().unwrap_or_else(|p| p.into_inner()).clone(),
            devices: Vec::new(),
        }
    }
}

/// Upper bound (in µs) of the log2 bucket containing quantile `q`, or 0
/// when no samples were recorded.
fn percentile_us(buckets: &[u64], q: f64) -> u64 {
    let total: u64 = buckets.iter().sum();
    if total == 0 {
        return 0;
    }
    let rank = ((total as f64) * q).ceil().max(1.0) as u64;
    let mut seen = 0u64;
    for (i, &count) in buckets.iter().enumerate() {
        seen += count;
        if seen >= rank {
            return 1u64 << (i + 1); // bucket upper bound
        }
    }
    1u64 << buckets.len()
}

/// Point-in-time view of the service's resilience machinery: how often it
/// retried, degraded, or missed deadlines, and what the per-engine circuit
/// breakers are doing. All-zero on a healthy, fault-free service — the
/// contract the counter-neutrality tests pin down.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct DegradationState {
    /// Engine re-dispatches after a transient device fault.
    pub retries: u64,
    /// Launches aborted by an (injected or real) device fault.
    pub device_faults: u64,
    /// Memory corruptions caught by verification and repaired.
    pub corruptions_caught: u64,
    /// Flushes served on a different engine than planned (CPU safety net
    /// or a lower-ranked GPU candidate).
    pub degraded_flushes: u64,
    /// Responses delivered after their caller-set deadline.
    pub deadline_misses: u64,
    /// Circuit breakers tripped Closed→Open.
    pub breaker_opened: u64,
    /// Circuit breakers recovered HalfOpen→Closed.
    pub breaker_closed: u64,
    /// Flushes denied an engine by an open breaker.
    pub breaker_denials: u64,
    /// Engine → breaker state label ("closed" / "open" / "half-open").
    pub breaker_states: BTreeMap<String, String>,
}

impl DegradationState {
    /// `true` when nothing degraded: the state a fault-free run must show.
    pub fn is_quiet(&self) -> bool {
        self.retries == 0
            && self.device_faults == 0
            && self.corruptions_caught == 0
            && self.degraded_flushes == 0
            && self.deadline_misses == 0
            && self.breaker_opened == 0
            && self.breaker_closed == 0
            && self.breaker_denials == 0
            && self.breaker_states.values().all(|s| s == "closed")
    }
}

/// Per-device gauges for the metrics snapshot: one entry per pool device,
/// id order, filled by `SolverService::metrics` from the device pool and
/// the `dev{id}:`-prefixed breaker keys.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct DeviceSnapshot {
    /// Device id within the pool (also its queue index).
    pub id: usize,
    /// Batches dispatched on this device (GPU engines only).
    pub dispatched: u64,
    /// Simulated device milliseconds consumed by those batches.
    pub device_ms: f64,
    /// Batches this device's worker stole from other devices' queues.
    pub steals: u64,
    /// Whether the pool has marked the device lost (sticky).
    pub lost: bool,
    /// Worst breaker state across this device's engines
    /// ("closed" / "half-open" / "open").
    pub breaker: String,
}

/// Point-in-time copy of the service's metrics — the service's
/// machine-readable status report.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct MetricsSnapshot {
    /// Requests admitted to the queue.
    pub submitted: u64,
    /// Requests completed (ticket fulfilled).
    pub completed: u64,
    /// Requests rejected at admission (backpressure).
    pub rejected: u64,
    /// Systems re-solved by the GEP safety net.
    pub repaired: u64,
    /// Batches flushed because they reached the target size.
    pub flushes_full: u64,
    /// Batches flushed by the linger deadline.
    pub flushes_linger: u64,
    /// Batches flushed early because a member's completion deadline would
    /// not survive the remaining linger window.
    pub flushes_deadline: u64,
    /// Batches flushed by shutdown drain.
    pub flushes_shutdown: u64,
    /// Resilience counters and breaker states (all-zero when healthy).
    pub degradation: DegradationState,
    /// Flushes whose factorization came from the cache (warm dispatch).
    /// Factor counters are *activity*, not degradation: a quiet
    /// [`DegradationState`] stays quiet however warm the traffic runs.
    pub factor_hits: u64,
    /// Flushes that carried a matrix key the cache had not factored yet.
    pub factor_misses: u64,
    /// Cached factorizations evicted by LRU pressure or invalidated
    /// after a failed warm verify.
    pub factor_evictions: u64,
    /// Flushes served entirely by back-substitution (no elimination).
    pub warm_flushes: u64,
    /// Hager condition-estimator invocations by the static analyzer (at
    /// most one per matrix key). Certification counters, like the factor
    /// counters above, are *activity*, not degradation.
    pub condest_calls: u64,
    /// Matrix keys holding a live numeric certificate.
    pub certs_issued: u64,
    /// Certified flushes that skipped the per-answer residual verify.
    pub cert_skipped_verifies: u64,
    /// Certified flushes that paid the deterministic 1-in-K sample.
    pub cert_sampled_verifies: u64,
    /// Certificates permanently revoked after a caught corruption.
    pub certs_revoked: u64,
    /// Requests waiting in the scheduler's buckets (admitted, not yet
    /// flushed to a worker) at snapshot time; admission refuses at
    /// `ServiceConfig::queue_capacity` of them.
    pub queue_depth: usize,
    /// Autotune tournaments run so far.
    pub plan_tunes: u64,
    /// Plans served from cache.
    pub plan_hits: u64,
    /// Median end-to-end latency (log2-bucket upper bound, µs).
    pub latency_p50_us: u64,
    /// 95th-percentile latency (µs).
    pub latency_p95_us: u64,
    /// 99th-percentile latency (µs).
    pub latency_p99_us: u64,
    /// Batch size → systems served in batches of that size.
    pub occupancy_systems: BTreeMap<usize, u64>,
    /// Engine spelling → systems served on that engine.
    pub dispatch_systems: BTreeMap<String, u64>,
    /// Engine spelling → engine milliseconds consumed (simulated device
    /// time for GPU engines, wall-clock for CPU engines).
    pub engine_ms: BTreeMap<String, f64>,
    /// Per-device gauges, pool id order. Empty in a bare
    /// [`ServiceMetrics::snapshot`]; `SolverService::metrics` fills it
    /// from the device pool.
    pub devices: Vec<DeviceSnapshot>,
}

impl MetricsSnapshot {
    /// Total systems accounted for by the dispatch counts.
    pub fn dispatched_total(&self) -> u64 {
        self.dispatch_systems.values().sum()
    }

    /// Total systems accounted for by the occupancy histogram.
    pub fn occupancy_total(&self) -> u64 {
        self.occupancy_systems.values().sum()
    }

    /// Total batches flushed, across all flush reasons.
    pub fn flushes_total(&self) -> u64 {
        self.flushes_full + self.flushes_linger + self.flushes_deadline + self.flushes_shutdown
    }

    /// Serializes the snapshot as a JSON object (hand-rolled: the offline
    /// `serde` shim has no serializer).
    pub fn to_json(&self) -> String {
        let mut s = String::with_capacity(512);
        s.push('{');
        let scalars: [(&str, u64); 23] = [
            ("submitted", self.submitted),
            ("completed", self.completed),
            ("rejected", self.rejected),
            ("repaired", self.repaired),
            ("flushes_full", self.flushes_full),
            ("flushes_linger", self.flushes_linger),
            ("flushes_deadline", self.flushes_deadline),
            ("flushes_shutdown", self.flushes_shutdown),
            ("factor_hits", self.factor_hits),
            ("factor_misses", self.factor_misses),
            ("factor_evictions", self.factor_evictions),
            ("warm_flushes", self.warm_flushes),
            ("condest_calls", self.condest_calls),
            ("certs_issued", self.certs_issued),
            ("cert_skipped_verifies", self.cert_skipped_verifies),
            ("cert_sampled_verifies", self.cert_sampled_verifies),
            ("certs_revoked", self.certs_revoked),
            ("queue_depth", self.queue_depth as u64),
            ("plan_tunes", self.plan_tunes),
            ("plan_hits", self.plan_hits),
            ("latency_p50_us", self.latency_p50_us),
            ("latency_p95_us", self.latency_p95_us),
            ("latency_p99_us", self.latency_p99_us),
        ];
        for (key, value) in scalars {
            s.push_str(&format!("\"{key}\":{value},"));
        }
        s.push_str("\"degradation\":{");
        let d = &self.degradation;
        let degradation_scalars: [(&str, u64); 8] = [
            ("retries", d.retries),
            ("device_faults", d.device_faults),
            ("corruptions_caught", d.corruptions_caught),
            ("degraded_flushes", d.degraded_flushes),
            ("deadline_misses", d.deadline_misses),
            ("breaker_opened", d.breaker_opened),
            ("breaker_closed", d.breaker_closed),
            ("breaker_denials", d.breaker_denials),
        ];
        for (key, value) in degradation_scalars {
            s.push_str(&format!("\"{key}\":{value},"));
        }
        s.push_str("\"breaker_states\":{");
        for (i, (engine, state)) in d.breaker_states.iter().enumerate() {
            if i > 0 {
                s.push(',');
            }
            s.push_str(&format!("\"{engine}\":\"{state}\""));
        }
        s.push_str("}},");
        s.push_str("\"occupancy_systems\":{");
        for (i, (size, systems)) in self.occupancy_systems.iter().enumerate() {
            if i > 0 {
                s.push(',');
            }
            s.push_str(&format!("\"{size}\":{systems}"));
        }
        s.push_str("},\"dispatch_systems\":{");
        for (i, (engine, systems)) in self.dispatch_systems.iter().enumerate() {
            if i > 0 {
                s.push(',');
            }
            s.push_str(&format!("\"{engine}\":{systems}"));
        }
        s.push_str("},\"engine_ms\":{");
        for (i, (engine, ms)) in self.engine_ms.iter().enumerate() {
            if i > 0 {
                s.push(',');
            }
            s.push_str(&format!("\"{engine}\":{ms:.3}"));
        }
        s.push_str("},\"devices\":[");
        for (i, dev) in self.devices.iter().enumerate() {
            if i > 0 {
                s.push(',');
            }
            s.push_str(&format!(
                "{{\"id\":{},\"dispatched\":{},\"device_ms\":{:.3},\"steals\":{},\
                 \"lost\":{},\"breaker\":\"{}\"}}",
                dev.id, dev.dispatched, dev.device_ms, dev.steals, dev.lost, dev.breaker
            ));
        }
        s.push_str("]}");
        s
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn conservation_between_dispatch_and_occupancy() {
        let m = ServiceMetrics::new();
        for _ in 0..10 {
            m.on_submit();
        }
        m.on_flush(FlushReason::Full);
        m.on_batch_served("cr+pcr@32", 6, 1, 0.25);
        m.on_flush(FlushReason::Linger);
        m.on_batch_served("cpu-thomas", 3, 0, 0.5);
        m.on_flush(FlushReason::Shutdown);
        m.on_batch_served("cpu-thomas", 1, 0, 0.25);
        for _ in 0..10 {
            m.on_complete(Duration::from_micros(300));
        }
        let snap = m.snapshot(0, 2, 1);
        assert_eq!(snap.submitted, 10);
        assert_eq!(snap.completed, 10);
        assert_eq!(snap.dispatched_total(), 10);
        assert_eq!(snap.occupancy_total(), 10);
        assert_eq!(snap.flushes_total(), 3);
        assert_eq!(snap.repaired, 1);
        // 6 systems rode a size-6 batch, 3 a size-3, 1 alone.
        assert_eq!(snap.occupancy_systems[&6], 6);
        assert_eq!(snap.occupancy_systems[&3], 3);
        assert_eq!(snap.occupancy_systems[&1], 1);
        assert_eq!(snap.dispatch_systems["cpu-thomas"], 4);
        assert_eq!(snap.engine_ms["cpu-thomas"], 0.75);
        assert_eq!(snap.engine_ms["cr+pcr@32"], 0.25);
    }

    #[test]
    fn percentiles_come_from_log2_buckets() {
        let m = ServiceMetrics::new();
        // 99 fast (≈100 µs) + 1 slow (≈100 ms).
        for _ in 0..99 {
            m.on_complete(Duration::from_micros(100));
        }
        m.on_complete(Duration::from_millis(100));
        let snap = m.snapshot(0, 0, 0);
        assert_eq!(snap.latency_p50_us, 128); // 100 µs lives in [64,128)
        assert_eq!(snap.latency_p95_us, 128);
        assert_eq!(snap.latency_p99_us, 128);
        // The tail sample only surfaces at p100-ish ranks; verify it's
        // recorded by pushing a second slow sample and checking p99 moves.
        for _ in 0..5 {
            m.on_complete(Duration::from_millis(100));
        }
        let snap = m.snapshot(0, 0, 0);
        assert!(snap.latency_p99_us >= 1 << 17, "{}", snap.latency_p99_us); // ≈131 ms bucket
    }

    #[test]
    fn empty_metrics_report_zero_percentiles() {
        let snap = ServiceMetrics::new().snapshot(3, 0, 0);
        assert_eq!(snap.latency_p50_us, 0);
        assert_eq!(snap.queue_depth, 3);
    }

    #[test]
    fn degradation_state_is_quiet_until_faults_happen() {
        let m = ServiceMetrics::new();
        assert!(m.snapshot(0, 0, 0).degradation.is_quiet(), "fresh metrics are quiet");
        m.on_degradation(2, 3, 1, true);
        m.on_degradation(0, 0, 0, false); // a clean flush adds nothing
        m.on_deadline_miss();
        m.on_flush(FlushReason::Deadline);
        m.on_batch_served("cr", 4, 0, 0.1);
        let snap = m.snapshot(0, 0, 0);
        let d = &snap.degradation;
        assert!(!d.is_quiet());
        assert_eq!(d.retries, 2);
        assert_eq!(d.device_faults, 3);
        assert_eq!(d.corruptions_caught, 1);
        assert_eq!(d.degraded_flushes, 1);
        assert_eq!(d.deadline_misses, 1);
        assert_eq!(snap.flushes_deadline, 1);
        assert_eq!(snap.flushes_total(), 1);
        let json = snap.to_json();
        assert!(json.contains("\"degradation\":{\"retries\":2"), "{json}");
        assert!(json.contains("\"flushes_deadline\":1"), "{json}");
        assert!(json.contains("\"breaker_states\":{}"), "{json}");
        assert_eq!(json.matches('{').count(), json.matches('}').count());
    }

    #[test]
    fn factor_counters_accumulate_without_disturbing_quiet() {
        let m = ServiceMetrics::new();
        m.on_factor_miss();
        m.on_factor_hit();
        m.on_factor_hit();
        m.on_factor_evictions(3);
        m.on_warm_flush();
        let snap = m.snapshot(0, 0, 0);
        assert_eq!(snap.factor_hits, 2);
        assert_eq!(snap.factor_misses, 1);
        assert_eq!(snap.factor_evictions, 3);
        assert_eq!(snap.warm_flushes, 1);
        // Cache traffic is activity, not degradation: warm serving on a
        // fault-free run must leave the quiet invariant intact.
        assert!(snap.degradation.is_quiet());
        let json = snap.to_json();
        assert!(json.contains("\"factor_hits\":2"), "{json}");
        assert!(json.contains("\"warm_flushes\":1"), "{json}");
    }

    #[test]
    fn certification_counters_accumulate_without_disturbing_quiet() {
        let m = ServiceMetrics::new();
        m.on_condest_calls(1);
        m.on_cert_issued();
        m.on_cert_sampled_verify();
        m.on_cert_skipped_verify();
        m.on_cert_skipped_verify();
        m.on_cert_revoked();
        let snap = m.snapshot(0, 0, 0);
        assert_eq!(snap.condest_calls, 1);
        assert_eq!(snap.certs_issued, 1);
        assert_eq!(snap.cert_sampled_verifies, 1);
        assert_eq!(snap.cert_skipped_verifies, 2);
        assert_eq!(snap.certs_revoked, 1);
        // Certification traffic is activity, not degradation.
        assert!(snap.degradation.is_quiet());
        let json = snap.to_json();
        assert!(json.contains("\"condest_calls\":1"), "{json}");
        assert!(json.contains("\"cert_skipped_verifies\":2"), "{json}");
        assert!(json.contains("\"certs_revoked\":1"), "{json}");
    }

    #[test]
    fn json_is_well_formed_and_complete() {
        let m = ServiceMetrics::new();
        m.on_submit();
        m.on_flush(FlushReason::Linger);
        m.on_batch_served("pcr", 1, 0, 0.125);
        m.on_complete(Duration::from_micros(50));
        let json = m.snapshot(0, 1, 0).to_json();
        assert!(json.starts_with('{') && json.ends_with('}'), "{json}");
        for key in [
            "\"submitted\":1",
            "\"completed\":1",
            "\"flushes_linger\":1",
            "\"dispatch_systems\":{\"pcr\":1}",
            "\"occupancy_systems\":{\"1\":1}",
            "\"engine_ms\":{\"pcr\":0.125}",
            "\"plan_tunes\":1",
        ] {
            assert!(json.contains(key), "missing {key} in {json}");
        }
        // Balanced braces (a cheap structural check without a parser).
        assert_eq!(json.matches('{').count(), json.matches('}').count());
        // Bare snapshots carry an empty device block — the service fills it.
        assert!(json.ends_with("\"devices\":[]}"), "{json}");
    }

    #[test]
    fn devices_block_serializes_per_device_gauges() {
        let m = ServiceMetrics::new();
        m.on_flush(FlushReason::Full);
        m.on_batch_served("cr+pcr@32", 2, 0, 0.5);
        let mut snap = m.snapshot(0, 0, 0);
        snap.devices = vec![
            DeviceSnapshot {
                id: 0,
                dispatched: 3,
                device_ms: 0.5,
                steals: 1,
                lost: false,
                breaker: "closed".to_string(),
            },
            DeviceSnapshot {
                id: 1,
                dispatched: 0,
                device_ms: 0.0,
                steals: 0,
                lost: true,
                breaker: "open".to_string(),
            },
        ];
        let json = snap.to_json();
        assert!(
            json.contains(
                "\"devices\":[{\"id\":0,\"dispatched\":3,\"device_ms\":0.500,\"steals\":1,\
                 \"lost\":false,\"breaker\":\"closed\"}"
            ),
            "{json}"
        );
        assert!(json.contains("{\"id\":1,"), "{json}");
        assert!(json.contains("\"lost\":true,\"breaker\":\"open\""), "{json}");
        assert_eq!(json.matches('{').count(), json.matches('}').count());
        assert_eq!(json.matches('[').count(), json.matches(']').count());
    }
}
