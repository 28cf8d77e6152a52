//! # cluster — multi-node distributed solve on a faulty network
//!
//! The distributed tier of the suite: N simulated nodes, each carrying a
//! [`device_pool::DevicePool`] of M simulated GPUs, joined by a
//! deterministic faulty network. Everything above the kernels that the
//! single-node stack already proved — batching, autotuned plans, verify
//! and repair, circuit breakers — is reused; this crate adds what only
//! exists between nodes:
//!
//! - **[`net`]** — the network model: per-link latency + bandwidth pricing
//!   (the PCIe cost-model shape, one level up) and a seed-replayable
//!   adversity plan: message drops, latency spikes, sticky link loss,
//!   asymmetric partitions, node crash/restart windows.
//! - **[`gossip`]** — SWIM-style health protocol: per-observer
//!   `Alive → Suspect → Dead` views from consecutive missed heartbeats,
//!   driving per-node circuit breakers.
//! - **[`ring`]** — consistent hashing of plan-cache keys: each size
//!   class has a sticky home node (autotune once, cluster-wide) and a
//!   deterministic failover order in which only a dead node's keys move.
//! - **[`solve`]** — the only multi-device partitioned solve: node-local
//!   modified-Thomas reduction on each pool, one small interface system
//!   on the coordinator, fan-out back-substitution. A single device pool
//!   is a one-node cluster (`ClusterConfig::new(1, devices)`): no RPC,
//!   no network cost, the same algebra.
//! - **[`service`]** — cluster dispatch: batches route on the ring, ride
//!   deadline-guarded hedged RPCs, and fail over ring → retry → local
//!   degrade so a dead or partitioned node's backlog drains to survivors
//!   with zero wrong answers and zero losses. Within a node, batches go
//!   round-robin over the healthy devices, and every delivered answer is
//!   judged by a residual recomputed from the held system.
//!
//! Every stochastic decision is a pure function of the cluster seed (per
//! link, per message) and every structural fault is a tick window on the
//! shared [`gpu_sim::Clock`], so whole cluster chaos scenarios replay
//! bit-identically from one seed.

#![warn(missing_docs)]

pub mod cluster;
pub mod gossip;
pub mod net;
pub mod node;
pub mod ring;
pub mod service;
pub mod solve;

pub use cluster::{Cluster, ClusterConfig, RpcConfig, RpcTimeout};
pub use gossip::{node_key, Gossip, GossipConfig, PeerState};
pub use net::{BlockedWindow, CrashWindow, Delivery, LinkModel, NetFaultConfig, Network};
pub use node::ClusterNode;
pub use ring::HashRing;
pub use service::{run_cluster_service, ClusterRunStats, ClusterServiceConfig, ClusterWorkload};
pub use solve::{solve_partitioned_cluster, ClusterSolveReport, ClusterTiming};
