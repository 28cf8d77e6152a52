//! The simulated inter-node network: a per-link cost model shaped like
//! the PCIe model in [`gpu_sim::CostModel`] (fixed latency + payload over
//! bandwidth), plus a seed-replayable [`NetFaultPlan`]-style adversity
//! layer — message drops, latency spikes, sticky link loss, asymmetric
//! partitions, and node crash/restart windows.
//!
//! Determinism mirrors the device fault layer exactly: every stochastic
//! decision (drop, spike) is a **pure function** of `(seed, src, dst,
//! per-link message index)` — not of a shared sequential RNG — so the
//! schedule is independent of call interleaving; only the assignment of
//! message indices (one atomic counter per directed link) is
//! order-dependent, and the single-threaded cluster driver assigns them
//! in a fixed order. Structural adversities (partitions, link loss,
//! crashes) are tick windows on the virtual clock, so a chaos scenario is
//! replayable from one seed plus its window list.
//!
//! [`Network::send`] never advances the clock — it *prices* a message.
//! The RPC layer decides how much of that price (capped by its deadline)
//! the sender actually waits.

use gpu_sim::{Clock, Tick};
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Duration;
use tridiag_core::splitmix64;

/// Cost model for one directed link: fixed latency plus payload over
/// bandwidth — the same shape as `CostModel::pcie_seconds`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LinkModel {
    /// One-way fixed latency, microseconds.
    pub latency_us: f64,
    /// Link bandwidth, gigabytes per second.
    pub bandwidth_gbps: f64,
}

impl LinkModel {
    /// A datacenter 10 GbE-class link: 50 µs one-way, 1.25 GB/s.
    pub fn ten_gbe() -> Self {
        Self { latency_us: 50.0, bandwidth_gbps: 1.25 }
    }

    /// Seconds to move `bytes` one way over this link.
    pub fn seconds(&self, bytes: usize) -> f64 {
        self.latency_us * 1e-6 + bytes as f64 / (self.bandwidth_gbps * 1e9)
    }

    /// [`LinkModel::seconds`] as a [`Duration`].
    pub fn duration(&self, bytes: usize) -> Duration {
        Duration::from_secs_f64(self.seconds(bytes))
    }
}

impl Default for LinkModel {
    fn default() -> Self {
        Self::ten_gbe()
    }
}

/// A directed link outage window: messages `src → dst` are blocked for
/// `[from, until)` ticks. One window models sticky link loss (`until:
/// None` — never heals); a *pair* of windows over disjoint direction sets
/// models an asymmetric partition (A can't reach B while B still reaches
/// A).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BlockedWindow {
    /// Sending node.
    pub src: usize,
    /// Receiving node.
    pub dst: usize,
    /// First tick the outage is active.
    pub from: Tick,
    /// First tick after the outage heals; `None` = permanent.
    pub until: Option<Tick>,
}

impl BlockedWindow {
    /// `true` when the outage covers `now`.
    pub fn active(&self, now: Tick) -> bool {
        now >= self.from && self.until.is_none_or(|u| now < u)
    }
}

/// A node outage window: the node neither sends nor receives during
/// `[down_from, up_at)`. `up_at: Some` models a crash/restart cycle (the
/// cluster rebuilds the node's pool from its derived seed at `up_at`);
/// `None` is a sticky node kill.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CrashWindow {
    /// The node that goes down.
    pub node: usize,
    /// First tick the node is down.
    pub down_from: Tick,
    /// First tick the node is back up; `None` = never restarts.
    pub up_at: Option<Tick>,
}

impl CrashWindow {
    /// `true` when the node is down at `now`.
    pub fn active(&self, now: Tick) -> bool {
        now >= self.down_from && self.up_at.is_none_or(|u| now < u)
    }
}

/// The network's adversity plan: stochastic per-message faults keyed by
/// one seed, plus structural tick windows. All rates default to zero and
/// the window lists to empty — a default plan is a perfect network.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct NetFaultConfig {
    /// Seed keying the drop/spike schedule of every link.
    pub seed: u64,
    /// Per-message probability a message silently vanishes.
    pub drop_rate: f64,
    /// Per-message probability the latency is multiplied by
    /// [`NetFaultConfig::spike_multiplier`].
    pub spike_rate: f64,
    /// Latency inflation for spiked messages (> 1).
    pub spike_multiplier: f64,
    /// Directed link outages: sticky link loss and asymmetric partitions.
    pub blocked: Vec<BlockedWindow>,
    /// Node crash/restart windows.
    pub crashes: Vec<CrashWindow>,
}

impl NetFaultConfig {
    /// A plan that injects nothing (the counter-neutral baseline).
    pub fn quiet(seed: u64) -> Self {
        Self { seed, ..Self::default() }
    }

    /// The chaos shorthand: drops at `drop_rate`, 10× latency spikes at
    /// `spike_rate`, no structural outages.
    pub fn chaos(seed: u64, drop_rate: f64, spike_rate: f64) -> Self {
        Self { seed, drop_rate, spike_rate, spike_multiplier: 10.0, ..Self::default() }
    }
}

/// What happened to one message.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Delivery {
    /// Delivered after this one-way latency.
    Delivered(Duration),
    /// Silently dropped mid-flight (sender learns via timeout only).
    Dropped,
    /// Structurally unreachable: link blocked or an endpoint down. The
    /// sender cannot distinguish this from a drop — it also times out.
    Blocked,
}

impl Delivery {
    /// The latency if delivered.
    pub fn latency(&self) -> Option<Duration> {
        match self {
            Delivery::Delivered(d) => Some(*d),
            Delivery::Dropped | Delivery::Blocked => None,
        }
    }
}

/// Uniform `[0, 1)` draw keyed by (seed, link, message index, stream).
#[inline]
fn unit(seed: u64, link: u64, msg: u64, stream: u64) -> f64 {
    let k = splitmix64(link.wrapping_mul(0xD6E8_FEB8_6659_FD93) ^ stream);
    let bits = splitmix64(seed ^ k ^ splitmix64(msg.wrapping_mul(0x517C_C1B7_2722_0A95)));
    (bits >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
}

const STREAM_DROP: u64 = 0x11;
const STREAM_SPIKE: u64 = 0x22;

/// The simulated network: every inter-node message goes through
/// [`Network::send`], which adjudicates structural outages, the drop/spike
/// schedule, and the link cost model.
#[derive(Debug)]
pub struct Network {
    nodes: usize,
    link: LinkModel,
    fault: NetFaultConfig,
    /// Per-directed-link message counters (`src * nodes + dst`), assigning
    /// each message its schedule index.
    counters: Vec<AtomicU64>,
    clock: Clock,
}

impl Network {
    /// A network over `nodes` nodes pricing with `link` and injecting
    /// `fault`, reading time from `clock`.
    pub fn new(nodes: usize, link: LinkModel, fault: NetFaultConfig, clock: Clock) -> Self {
        let counters = (0..nodes * nodes).map(|_| AtomicU64::new(0)).collect();
        Self { nodes, link, fault, counters, clock }
    }

    /// Number of nodes the network connects.
    pub fn nodes(&self) -> usize {
        self.nodes
    }

    /// The link cost model.
    pub fn link(&self) -> &LinkModel {
        &self.link
    }

    /// The adversity plan.
    pub fn fault(&self) -> &NetFaultConfig {
        &self.fault
    }

    /// `true` while `node` is inside a crash window at `now`.
    pub fn node_down(&self, node: usize, now: Tick) -> bool {
        self.fault.crashes.iter().any(|c| c.node == node && c.active(now))
    }

    /// `true` while a blocked window covers `src → dst` at `now`.
    pub fn link_blocked(&self, src: usize, dst: usize, now: Tick) -> bool {
        self.fault.blocked.iter().any(|b| b.src == src && b.dst == dst && b.active(now))
    }

    /// Adjudicates one `src → dst` message of `bytes` at the current tick.
    /// Pure pricing — the clock is read, never advanced.
    pub fn send(&self, src: usize, dst: usize, bytes: usize) -> Delivery {
        let now = self.clock.now();
        if self.node_down(src, now) || self.node_down(dst, now) {
            return Delivery::Blocked;
        }
        if self.link_blocked(src, dst, now) {
            return Delivery::Blocked;
        }
        let link = (src * self.nodes + dst) as u64;
        let msg = self.counters[src * self.nodes + dst].fetch_add(1, Ordering::Relaxed);
        if unit(self.fault.seed, link, msg, STREAM_DROP) < self.fault.drop_rate {
            return Delivery::Dropped;
        }
        let mut secs = self.link.seconds(bytes);
        if unit(self.fault.seed, link, msg, STREAM_SPIKE) < self.fault.spike_rate {
            secs *= self.fault.spike_multiplier.max(1.0);
        }
        Delivery::Delivered(Duration::from_secs_f64(secs))
    }

    /// Prices a request/response round trip; `Some(total latency)` only
    /// when both legs deliver.
    pub fn round_trip(
        &self,
        src: usize,
        dst: usize,
        req_bytes: usize,
        resp_bytes: usize,
    ) -> Option<Duration> {
        let out = self.send(src, dst, req_bytes).latency()?;
        let back = self.send(dst, src, resp_bytes).latency()?;
        Some(out + back)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sim_net(fault: NetFaultConfig) -> (Network, Clock) {
        let clock = Clock::sim();
        (Network::new(4, LinkModel::ten_gbe(), fault, clock.clone()), clock)
    }

    #[test]
    fn link_cost_mirrors_the_pcie_shape() {
        let link = LinkModel { latency_us: 50.0, bandwidth_gbps: 1.25 };
        // Latency floor dominates tiny messages...
        assert!((link.seconds(0) - 50e-6).abs() < 1e-12);
        // ...bandwidth dominates bulk: 1.25 GB over a 1.25 GB/s link ≈ 1 s.
        assert!((link.seconds(1_250_000_000) - 1.000_05).abs() < 1e-6);
    }

    #[test]
    fn quiet_network_delivers_everything_at_the_model_price() {
        let (net, _clock) = sim_net(NetFaultConfig::quiet(1));
        for _ in 0..256 {
            match net.send(0, 1, 4096) {
                Delivery::Delivered(d) => assert_eq!(d, net.link().duration(4096)),
                other => panic!("quiet network must deliver: {other:?}"),
            }
        }
    }

    #[test]
    fn drop_schedule_is_a_pure_function_of_seed_and_message_index() {
        let schedule = |seed| {
            let (net, _clock) = sim_net(NetFaultConfig::chaos(seed, 0.2, 0.1));
            (0..512).map(|_| net.send(0, 1, 64).latency().is_some()).collect::<Vec<_>>()
        };
        assert_eq!(schedule(7), schedule(7), "same seed must replay");
        assert_ne!(schedule(7), schedule(8), "different seeds must diverge");
        let drops = schedule(7).iter().filter(|d| !**d).count();
        let rate = drops as f64 / 512.0;
        assert!((0.1..0.35).contains(&rate), "observed drop rate {rate}");
    }

    #[test]
    fn distinct_links_draw_distinct_schedules() {
        let (net, _clock) = sim_net(NetFaultConfig::chaos(3, 0.3, 0.0));
        let a: Vec<bool> = (0..256).map(|_| net.send(0, 1, 64).latency().is_some()).collect();
        let b: Vec<bool> = (0..256).map(|_| net.send(1, 0, 64).latency().is_some()).collect();
        assert_ne!(a, b, "0→1 and 1→0 must not alias");
    }

    #[test]
    fn blocked_windows_open_and_heal_on_the_virtual_clock() {
        let fault = NetFaultConfig {
            blocked: vec![BlockedWindow { src: 0, dst: 2, from: 1_000, until: Some(2_000) }],
            ..NetFaultConfig::quiet(0)
        };
        let (net, clock) = sim_net(fault);
        assert!(net.send(0, 2, 8).latency().is_some(), "before the window");
        clock.advance(Duration::from_nanos(1_000));
        assert_eq!(net.send(0, 2, 8), Delivery::Blocked, "inside the window");
        assert!(net.send(2, 0, 8).latency().is_some(), "asymmetric: reverse flows");
        clock.advance(Duration::from_nanos(1_000));
        assert!(net.send(0, 2, 8).latency().is_some(), "healed");
    }

    #[test]
    fn crashed_nodes_neither_send_nor_receive() {
        let fault = NetFaultConfig {
            crashes: vec![CrashWindow { node: 1, down_from: 0, up_at: None }],
            ..NetFaultConfig::quiet(0)
        };
        let (net, _clock) = sim_net(fault);
        assert_eq!(net.send(0, 1, 8), Delivery::Blocked);
        assert_eq!(net.send(1, 0, 8), Delivery::Blocked);
        assert!(net.send(0, 2, 8).latency().is_some(), "other links unaffected");
        assert!(net.node_down(1, 0));
        assert!(!net.node_down(0, 0));
    }

    #[test]
    fn round_trip_needs_both_legs() {
        let fault = NetFaultConfig {
            blocked: vec![BlockedWindow { src: 2, dst: 0, from: 0, until: None }],
            ..NetFaultConfig::quiet(0)
        };
        let (net, _clock) = sim_net(fault);
        // Request 0→2 delivers, response 2→0 is blocked → no round trip.
        assert_eq!(net.round_trip(0, 2, 64, 64), None);
        assert!(net.round_trip(0, 1, 64, 64).is_some());
    }
}
