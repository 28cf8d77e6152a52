//! Integration tests for the two-level cluster partitioned solve:
//! correctness against the CPU GEP oracle, failover around dead nodes and
//! devices, and bit-identical determinism under network chaos.

use cluster::{
    solve_partitioned_cluster, BlockedWindow, ClusterConfig, CrashWindow, NetFaultConfig,
};
use gpu_sim::FaultConfig;
use tridiag_core::residual::l2_residual;
use tridiag_core::{Generator, TridiagonalSystem, Workload};

#[test]
fn four_node_solve_matches_gep() {
    let n = 1 << 14;
    let sys: TridiagonalSystem<f64> = Generator::new(41).system(Workload::DiagonallyDominant, n);
    let cluster = ClusterConfig::new(4, 4).build();
    let report = solve_partitioned_cluster(&cluster, 0, &sys, 4).unwrap();
    let x_ref = cpu_solvers::gep::solve(&sys).unwrap();
    for i in 0..n {
        assert!((report.x[i] - x_ref[i]).abs() < 1e-9, "i={i}");
    }
    assert_eq!(report.nodes_used, vec![0, 1, 2, 3]);
    assert_eq!(report.node_spans.last().unwrap().1, n);
    // Every node's devices did local + back-substitution work.
    for node in cluster.nodes() {
        for d in node.pool.devices() {
            assert!(d.dispatched() >= 2, "node {} device {} idle", node.id, d.id);
        }
    }
    assert!(report.timing.net_ms > 0.0, "remote spans must be priced");
}

#[test]
fn two_by_two_cluster_is_bit_identical_to_a_one_by_four_pool() {
    // The node-first/device-second cut reduces to the same interface
    // system as a flat device cut, so the solutions agree bit for bit —
    // including sizes that do not divide evenly over the devices.
    for n in [4093usize, 4096, 16384] {
        let sys: TridiagonalSystem<f64> = Generator::new(7).system(Workload::DiagonallyDominant, n);
        let two_by_two = ClusterConfig::new(2, 2).build();
        let one_by_four = ClusterConfig::new(1, 4).build();
        let a = solve_partitioned_cluster(&two_by_two, 0, &sys, 4).unwrap();
        let b = solve_partitioned_cluster(&one_by_four, 0, &sys, 4).unwrap();
        assert_eq!((a.chunks_total, a.interface_rows), (b.chunks_total, b.interface_rows));
        assert!(
            a.x.iter().zip(&b.x).all(|(p, q)| p.to_bits() == q.to_bits()),
            "n={n}: 2x2 and 1x4 solutions differ"
        );
        let r = l2_residual(&sys, &a.x).unwrap();
        assert!(r < 1e-8, "n={n}: residual {r}");
    }
}

#[test]
fn dead_node_is_excluded_and_survivors_solve() {
    let n = 8192;
    let sys: TridiagonalSystem<f64> = Generator::new(3).system(Workload::DiagonallyDominant, n);
    let mut cfg = ClusterConfig::new(3, 2);
    // Node 1 is down from the start and never comes back.
    cfg.net_fault = NetFaultConfig {
        crashes: vec![CrashWindow { node: 1, down_from: 0, up_at: None }],
        ..NetFaultConfig::quiet(0)
    };
    let cluster = cfg.build();
    let report = solve_partitioned_cluster(&cluster, 0, &sys, 4).unwrap();
    assert!(!report.nodes_used.contains(&1), "dead node must not appear: {:?}", report.nodes_used);
    let r = l2_residual(&sys, &report.x).unwrap();
    assert!(r < 1e-8, "residual {r}");
}

#[test]
fn asymmetrically_partitioned_node_is_routed_around() {
    let n = 8192;
    let sys: TridiagonalSystem<f64> = Generator::new(9).system(Workload::DiagonallyDominant, n);
    let mut cfg = ClusterConfig::new(3, 2);
    // Coordinator 0 cannot reach node 2 (one direction only) — RPCs to 2
    // lose their request leg and exhaust retries.
    cfg.net_fault = NetFaultConfig {
        blocked: vec![BlockedWindow { src: 0, dst: 2, from: 0, until: None }],
        ..NetFaultConfig::quiet(0)
    };
    let cluster = cfg.build();
    let report = solve_partitioned_cluster(&cluster, 0, &sys, 4).unwrap();
    assert!(!report.nodes_used.contains(&2), "partitioned node used: {:?}", report.nodes_used);
    let r = l2_residual(&sys, &report.x).unwrap();
    assert!(r < 1e-8, "residual {r}");
    assert!(cluster.rpc_timeouts() > 0, "the partition must actually cost timeouts");
}

#[test]
fn device_death_inside_a_node_replans_without_excluding_the_node() {
    let n = 8192;
    let sys: TridiagonalSystem<f64> = Generator::new(5).system(Workload::DiagonallyDominant, n);
    let mut cfg = ClusterConfig::new(2, 3);
    // Node 1, device 1 dies on its first launch; the node's other devices
    // keep the span.
    cfg.device_fault_overrides =
        vec![(1, 1, FaultConfig { device_lost_after: Some(0), ..FaultConfig::quiet(0) })];
    let cluster = cfg.build();
    let report = solve_partitioned_cluster(&cluster, 0, &sys, 4).unwrap();
    assert!(cluster.node(1).pool.is_lost(1), "the dead device must be marked lost");
    assert!(
        report.nodes_used.contains(&1),
        "node 1 must stay in the plan: {:?}",
        report.nodes_used
    );
    let r = l2_residual(&sys, &report.x).unwrap();
    assert!(r < 1e-8, "residual {r}");
}

#[test]
fn all_nodes_dead_surfaces_device_lost() {
    let sys: TridiagonalSystem<f64> = Generator::new(1).system(Workload::DiagonallyDominant, 256);
    let cluster = ClusterConfig::new(2, 2).build();
    for node in cluster.nodes() {
        for d in 0..node.pool.len() {
            node.pool.mark_lost(d);
        }
    }
    assert!(solve_partitioned_cluster(&cluster, 0, &sys, 4).is_err());
}

#[test]
fn chaos_solve_is_bit_identical_across_runs() {
    let n = 8192;
    let run = || {
        let sys: TridiagonalSystem<f64> =
            Generator::new(13).system(Workload::DiagonallyDominant, n);
        let mut cfg = ClusterConfig::new(3, 2);
        cfg.seed = 0xC1A5_0001;
        cfg.net_fault = NetFaultConfig::chaos(0xC1A5_0001, 0.05, 0.05);
        let cluster = cfg.build();
        let report = solve_partitioned_cluster(&cluster, 0, &sys, 4).unwrap();
        (
            report.x,
            report.nodes_used,
            report.node_spans,
            report.chunks_total,
            cluster.rpc_timeouts(),
            cluster.rpc_retries(),
            cluster.clock().now(),
        )
    };
    let a = run();
    let b = run();
    assert_eq!(a.1, b.1, "node sets diverged");
    assert_eq!(a.2, b.2, "spans diverged");
    assert_eq!(a.4, b.4, "timeout counts diverged");
    assert_eq!(a.5, b.5, "retry counts diverged");
    assert_eq!(a.6, b.6, "final ticks diverged");
    assert!(a.0.iter().zip(&b.0).all(|(x, y)| x.to_bits() == y.to_bits()), "solutions diverged");
}
