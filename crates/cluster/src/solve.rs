//! The two-level cluster partitioned solve.
//!
//! Level one is the node cut: the system is sliced into contiguous node
//! spans, shipped over the (faulty, priced) network, and each node runs
//! the device-pool substructuring over its own span — modified-Thomas
//! local reduction per chunk across its healthy devices. Level two is the
//! cluster interface: every chunk contributes its two reduced boundary
//! rows, the coordinator gathers them into one small tridiagonal
//! interface system, solves it with PCR on a local device, and fans the
//! interface solution back out for parallel back-substitution.
//!
//! This is the only multi-device partitioned solve; a single
//! device pool is a one-node cluster, where every phase runs locally on
//! the coordinator and the network costs nothing. The reduction is
//! associative, so cutting by node first and device second yields the
//! *same* interface system as a flat cut over all devices: a 2×2 cluster
//! and a 1×4 cluster return bit-identical solutions. That is what opens
//! `n` far beyond a single pool: the interface stays `2 × total chunks`
//! rows no matter how many nodes feed it. The kernel-level building
//! blocks (`local_reduce`, `solve_interface`, `back_substitute`) are
//! shared with `gpu_solvers::solve_partitioned_single`.
//!
//! Adversity at every layer funnels into one replan loop: an RPC that
//! exhausts its retries excludes that **node** for this solve (the
//! coordinator cannot tell a dead node from a dead link — and does not
//! need to); a `DeviceLost` inside a node marks that **device** lost in
//! the node's pool and replans over the survivors.

use crate::cluster::Cluster;
use gpu_solvers::partitioned::{
    back_substitute, even_offsets, local_reduce, solve_interface, InterfaceSystem, LocalPhase,
    MIN_CHUNK,
};
use solver_service::TraceEvent;
use tridiag_core::{Real, Result, TridiagError, TridiagonalSystem};

/// Phase timings for a cluster solve, milliseconds. Parallel phases
/// (local, back-substitution, per-node network legs) cost the max across
/// nodes; the interface solve is serial on the coordinator.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct ClusterTiming {
    /// Local-reduction kernels (max across nodes).
    pub local_ms: f64,
    /// Interface PCR solve on the coordinator.
    pub interface_ms: f64,
    /// Back-substitution kernels (max across nodes).
    pub backsubst_ms: f64,
    /// Host↔device transfers inside the nodes (max across nodes).
    pub transfer_ms: f64,
    /// Inter-node network time (max across remote nodes per direction,
    /// summed over the four transport phases).
    pub net_ms: f64,
}

impl ClusterTiming {
    /// Sum of all phases.
    pub fn total_ms(&self) -> f64 {
        self.local_ms + self.interface_ms + self.backsubst_ms + self.transfer_ms + self.net_ms
    }
}

/// Outcome of a cluster-wide partitioned solve.
#[derive(Debug, Clone)]
pub struct ClusterSolveReport<T> {
    /// Solution vector, natural order.
    pub x: Vec<T>,
    /// Nodes that executed spans, in span order.
    pub nodes_used: Vec<usize>,
    /// `[start, end)` of each node's span, same order.
    pub node_spans: Vec<(usize, usize)>,
    /// Total chunks across the whole cluster.
    pub chunks_total: usize,
    /// Meaningful interface rows (`2 × chunks_total`).
    pub interface_rows: usize,
    /// Padded interface size PCR solved.
    pub interface_padded: usize,
    /// Phase timings.
    pub timing: ClusterTiming,
}

/// One device's share within one node's span.
#[derive(Debug, Clone)]
struct DevicePlan {
    device: usize,
    /// Global row range.
    start: usize,
    end: usize,
    /// Chunk boundaries relative to the device span.
    offsets: Vec<usize>,
}

/// One node's share of the plan.
#[derive(Debug, Clone)]
struct NodePlan {
    node: usize,
    start: usize,
    end: usize,
    devices: Vec<DevicePlan>,
}

/// Cuts `n` rows node-first, device-second. `participants` lists each
/// node with its healthy devices. The global chunk budget is `cap / 2`
/// (padded interface must fit one PCR block), split evenly over all
/// participating devices.
fn plan_cluster(
    n: usize,
    participants: &[(usize, Vec<usize>)],
    chunks_per_device: usize,
    cap: usize,
) -> Result<Vec<NodePlan>> {
    if chunks_per_device == 0 {
        return Err(TridiagError::InvalidConfig { what: "chunks_per_device must be >= 1" });
    }
    if n < MIN_CHUNK {
        return Err(TridiagError::SizeTooSmall { n, min: MIN_CHUNK });
    }
    if cap < 2 {
        return Err(TridiagError::InvalidConfig { what: "interface cap below one chunk" });
    }
    // Nodes that can hold at least one chunk each.
    let used = participants.len().min(n / MIN_CHUNK).max(1);
    let max_total_chunks = cap / 2;
    // Cap devices per node so even one-chunk-per-device fits the budget.
    let max_devs_per_node = (max_total_chunks / used).max(1);
    let total_devices: usize =
        participants.iter().take(used).map(|(_, h)| h.len().min(max_devs_per_node)).sum();
    let cpd = chunks_per_device.min((max_total_chunks / total_devices).max(1)).max(1);
    let (base, rem) = (n / used, n % used);
    let mut plans = Vec::with_capacity(used);
    let mut start = 0;
    for (slot, (node, healthy)) in participants.iter().take(used).enumerate() {
        let len = base + usize::from(slot < rem);
        let devs = healthy.len().min(max_devs_per_node);
        // Devices within the node that can hold at least one chunk each.
        let dev_used = devs.min(len / MIN_CHUNK).max(1);
        let (dbase, drem) = (len / dev_used, len % dev_used);
        let mut devices = Vec::with_capacity(dev_used);
        let mut dstart = start;
        for (dslot, &device) in healthy.iter().take(dev_used).enumerate() {
            let dlen = dbase + usize::from(dslot < drem);
            let chunks = cpd.min(dlen / MIN_CHUNK).max(1);
            let offsets = even_offsets(dlen, chunks)?;
            devices.push(DevicePlan { device, start: dstart, end: dstart + dlen, offsets });
            dstart += dlen;
        }
        debug_assert_eq!(dstart, start + len);
        plans.push(NodePlan { node: *node, start, end: start + len, devices });
        start += len;
    }
    debug_assert_eq!(start, n);
    Ok(plans)
}

/// Why one attempt failed (funnelled into the replan loop).
enum Fail {
    /// RPC to this node exhausted its retries — exclude the node.
    Node(usize),
    /// A device died mid-phase — mark it lost and replan.
    Device { node: usize, device: usize },
    /// Not recoverable by replanning.
    Fatal(TridiagError),
}

/// Solves `system` across the cluster, coordinated by node
/// `coordinator`: node-local reductions → one interface solve on the
/// coordinator → fan-out back-substitution. Re-plans around nodes whose
/// RPCs exhaust retries and devices that die mid-phase; falls back to a
/// coordinator-only (then CPU-assisted) solve only when no peer is
/// reachable — returning [`TridiagError::DeviceLost`] only when *nothing*
/// in the cluster can run a kernel.
pub fn solve_partitioned_cluster<T: Real>(
    cluster: &Cluster,
    coordinator: usize,
    system: &TridiagonalSystem<T>,
    chunks_per_device: usize,
) -> Result<ClusterSolveReport<T>> {
    let mut excluded = vec![false; cluster.len()];
    // Each replan loses at most one node or device; a few extra attempts
    // absorb transient drops on top.
    let mut attempts = cluster.len() + cluster.node(coordinator).pool.len() + 3;
    let mut last_err = TridiagError::DeviceLost;
    loop {
        let now = cluster.clock().now();
        let participants: Vec<(usize, Vec<usize>)> = (0..cluster.len())
            .filter(|&i| {
                !excluded[i] && cluster.eligible_from(coordinator, i) && {
                    // The coordinator never routes to a node it can see is
                    // inside a crash window (its own view suffices).
                    i == coordinator || !cluster.net().node_down(i, now)
                }
            })
            .map(|i| (i, cluster.node(i).pool.healthy()))
            .filter(|(_, h)| !h.is_empty())
            .collect();
        if participants.is_empty() {
            return Err(last_err);
        }
        match try_solve(cluster, coordinator, &participants, system, chunks_per_device) {
            Ok(report) => return Ok(report),
            Err(Fail::Node(node)) => {
                excluded[node] = true;
                last_err = TridiagError::DeviceLost;
            }
            Err(Fail::Device { node, device }) => {
                cluster.node(node).pool.mark_lost(device);
                last_err = TridiagError::DeviceLost;
            }
            Err(Fail::Fatal(err)) => return Err(err),
        }
        attempts -= 1;
        if attempts == 0 {
            return Err(last_err);
        }
    }
}

fn try_solve<T: Real>(
    cluster: &Cluster,
    coordinator: usize,
    participants: &[(usize, Vec<usize>)],
    system: &TridiagonalSystem<T>,
    chunks_per_device: usize,
) -> core::result::Result<ClusterSolveReport<T>, Fail> {
    // The interface solves on the coordinator when it participates, else
    // on the first participant (the coordinator's own pool may be dead).
    let iface_node =
        participants.iter().find(|(i, _)| *i == coordinator).map_or(participants[0].0, |(i, _)| *i);
    let iface_dev = cluster.node(iface_node).pool.healthy()[0];
    let iface_launcher = &cluster.node(iface_node).pool.device(iface_dev).launcher;
    let cap = InterfaceSystem::<T>::max_padded_rows(T::BYTES, &iface_launcher.device);
    let plans =
        plan_cluster(system.n(), participants, chunks_per_device, cap).map_err(Fail::Fatal)?;
    let rpc_attempts = cluster.rpc_config().max_attempts;
    let link = *cluster.net().link();

    // Local reduction, node by node. Remote spans ride an RPC carrying
    // the four coefficient arrays out and the reduced boundary rows back;
    // phases are parallel across nodes, so kernel and network costs take
    // the max.
    let mut node_phases: Vec<Vec<LocalPhase<T>>> = Vec::with_capacity(plans.len());
    let (mut local_ms, mut transfer_ms, mut net_ms) = (0.0f64, 0.0f64, 0.0f64);
    for plan in &plans {
        let node = cluster.node(plan.node);
        let mut reduce = || -> core::result::Result<Vec<LocalPhase<T>>, Fail> {
            let mut phases = Vec::with_capacity(plan.devices.len());
            for dp in &plan.devices {
                let dev = node.pool.device(dp.device);
                let (s, e) = (dp.start, dp.end);
                let phase = local_reduce(
                    &dev.launcher,
                    &system.a[s..e],
                    &system.b[s..e],
                    &system.c[s..e],
                    &system.d[s..e],
                    &dp.offsets,
                )
                .map_err(|err| match err {
                    TridiagError::DeviceLost => Fail::Device { node: plan.node, device: dp.device },
                    other => Fail::Fatal(other),
                })?;
                dev.note_dispatched(phase.local_ms);
                local_ms = local_ms.max(phase.local_ms);
                transfer_ms = transfer_ms.max(phase.upload_ms);
                phases.push(phase);
            }
            Ok(phases)
        };
        let phases = if plan.node == coordinator {
            reduce()?
        } else {
            let span_len = plan.end - plan.start;
            let chunks: usize = plan.devices.iter().map(|d| d.offsets.len() - 1).sum();
            let up_bytes = 4 * span_len * T::BYTES;
            let down_bytes = 4 * 2 * chunks * T::BYTES;
            net_ms = net_ms.max(link.seconds(up_bytes) * 1e3 + link.seconds(down_bytes) * 1e3);
            cluster
                .rpc(coordinator, plan.node, up_bytes, down_bytes, rpc_attempts, reduce)
                .map_err(|_| Fail::Node(plan.node))??
        };
        node_phases.push(phases);
    }

    // Gather the reduced rows (node-span order, device order within —
    // exactly the global chunk order).
    let total_chunks: usize = node_phases.iter().flatten().map(|p| p.reduced.0.len() / 2).sum();
    let mut ra = Vec::with_capacity(2 * total_chunks);
    let mut rb = Vec::with_capacity(2 * total_chunks);
    let mut rc = Vec::with_capacity(2 * total_chunks);
    let mut rd = Vec::with_capacity(2 * total_chunks);
    for p in node_phases.iter().flatten() {
        ra.extend_from_slice(&p.reduced.0);
        rb.extend_from_slice(&p.reduced.1);
        rc.extend_from_slice(&p.reduced.2);
        rd.extend_from_slice(&p.reduced.3);
    }
    let interface = InterfaceSystem::assemble(&ra, &rb, &rc, &rd);
    let (xi, interface_ms) =
        solve_interface(iface_launcher, &interface).map_err(|err| match err {
            TridiagError::DeviceLost => Fail::Device { node: iface_node, device: iface_dev },
            other => Fail::Fatal(other),
        })?;
    cluster.node(iface_node).pool.device(iface_dev).note_dispatched(interface_ms);
    cluster.trace().emit(|| TraceEvent::InterfaceSolve {
        at: cluster.clock().now(),
        n: system.n() as u64,
        rows: interface.rows as u64,
        node: iface_node as u64,
    });

    // Fan out: each node back-substitutes its span against its slice of
    // the interface solution.
    let mut x = vec![T::ZERO; system.n()];
    let mut backsubst_ms = 0.0f64;
    let mut scatter_net = 0.0f64;
    let mut row = 0usize;
    for (plan, phases) in plans.iter().zip(node_phases.iter_mut()) {
        let node = cluster.node(plan.node);
        let node_rows: usize = phases.iter().map(|p| p.reduced.0.len()).sum();
        let xi_slice = &xi[row..row + node_rows];
        let out = &mut x[plan.start..plan.end];
        let mut backsub = || -> core::result::Result<(), Fail> {
            let mut r = 0usize;
            let mut cursor = 0usize;
            for (dp, phase) in plan.devices.iter().zip(phases.iter_mut()) {
                let dev = node.pool.device(dp.device);
                let rows = phase.reduced.0.len();
                let (span_x, kernel_ms, dl_ms) = back_substitute(
                    &dev.launcher,
                    phase,
                    &xi_slice[r..r + rows],
                )
                .map_err(|err| match err {
                    TridiagError::DeviceLost => Fail::Device { node: plan.node, device: dp.device },
                    other => Fail::Fatal(other),
                })?;
                dev.note_dispatched(kernel_ms);
                backsubst_ms = backsubst_ms.max(kernel_ms);
                transfer_ms = transfer_ms.max(dl_ms);
                out[cursor..cursor + span_x.len()].copy_from_slice(&span_x);
                cursor += span_x.len();
                r += rows;
            }
            debug_assert_eq!(cursor, plan.end - plan.start);
            Ok(())
        };
        if plan.node == coordinator {
            backsub()?;
        } else {
            let up_bytes = node_rows * T::BYTES;
            let down_bytes = (plan.end - plan.start) * T::BYTES;
            scatter_net =
                scatter_net.max(link.seconds(up_bytes) * 1e3 + link.seconds(down_bytes) * 1e3);
            cluster
                .rpc(coordinator, plan.node, up_bytes, down_bytes, rpc_attempts, backsub)
                .map_err(|_| Fail::Node(plan.node))??;
        }
        row += node_rows;
    }
    debug_assert_eq!(row, interface.rows);

    Ok(ClusterSolveReport {
        x,
        nodes_used: plans.iter().map(|p| p.node).collect(),
        node_spans: plans.iter().map(|p| (p.start, p.end)).collect(),
        chunks_total: total_chunks,
        interface_rows: interface.rows,
        interface_padded: interface.padded,
        timing: ClusterTiming {
            local_ms,
            interface_ms,
            backsubst_ms,
            transfer_ms,
            net_ms: net_ms + scatter_net,
        },
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn devices_of(plans: &[NodePlan]) -> Vec<&DevicePlan> {
        plans.iter().flat_map(|p| &p.devices).collect()
    }

    #[test]
    fn one_node_plan_covers_n_with_min_chunks_and_cap() {
        let plans = plan_cluster(1000, &[(0, vec![0, 1, 2, 3])], 8, 512).unwrap();
        let devs = devices_of(&plans);
        assert_eq!(devs.len(), 4);
        assert_eq!(devs[0].start, 0);
        assert_eq!(devs.last().unwrap().end, 1000);
        for w in devs.windows(2) {
            assert_eq!(w[0].end, w[1].start, "device spans must tile");
        }
        let chunks: usize = devs.iter().map(|d| d.offsets.len() - 1).sum();
        assert!(2 * chunks <= 512);
        // Tiny system: falls back to fewer devices than offered.
        let plans = plan_cluster(7, &[(0, vec![0, 1, 2, 3])], 8, 512).unwrap();
        let devs = devices_of(&plans);
        assert!(devs.len() <= 3, "7 rows cannot feed 4 chunks of >= 2: {}", devs.len());
        assert_eq!(devs.last().unwrap().end, 7);
    }

    #[test]
    fn one_node_plan_splits_a_prime_size_unevenly() {
        // n = 1021 (prime) over 4 devices → spans 256/255/255/255.
        let plans = plan_cluster(1021, &[(0, vec![0, 1, 2, 3])], 5, 512).unwrap();
        let lens: Vec<usize> = devices_of(&plans).iter().map(|d| d.end - d.start).collect();
        assert_eq!(lens, vec![256, 255, 255, 255]);
    }

    #[test]
    fn one_node_plan_respects_interface_cap() {
        // cap 16 → at most 8 chunks total across 4 devices → 2 per device.
        let plans = plan_cluster(4096, &[(0, vec![0, 1, 2, 3])], 64, 16).unwrap();
        let chunks: usize = devices_of(&plans).iter().map(|d| d.offsets.len() - 1).sum();
        assert!(chunks <= 8, "total chunks {chunks} must respect the cap");
    }
}
