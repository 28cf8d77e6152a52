//! A device pool is a one-node cluster: property tests for the
//! partitioned solve on `ClusterConfig::new(1, devices)`. For random
//! diagonally dominant systems the solve must match the CPU GEP
//! reference across 1/2/4/8 devices, awkward (non-power-of-two) sizes,
//! uneven device spans, and sizes far beyond one block's shared memory
//! (n = 2^16); it must replan around a device that dies mid-solve and
//! surface `DeviceLost` only when every device is gone.

use cluster::{solve_partitioned_cluster, ClusterConfig};
use gpu_sim::FaultConfig;
use tridiag_core::residual::l2_residual;
use tridiag_core::{Generator, TridiagError, TridiagonalSystem, Workload};

/// Element-wise agreement with GEP, scaled by the solution magnitude.
fn assert_matches_gep(sys: &TridiagonalSystem<f64>, x: &[f64], tag: &str) {
    let x_ref = cpu_solvers::gep::solve(sys).unwrap();
    let scale = x_ref.iter().fold(1.0f64, |m, v| m.max(v.abs()));
    for i in 0..sys.n() {
        let err = (x[i] - x_ref[i]).abs() / scale;
        assert!(err < 1e-10, "{tag}: i={i} rel err {err:.3e} ({} vs {})", x[i], x_ref[i]);
    }
}

#[test]
fn partitioned_matches_gep_across_pool_sizes() {
    let mut rng = 0x1234_5678_u64;
    let mut next = move || {
        rng ^= rng << 13;
        rng ^= rng >> 7;
        rng ^= rng << 17;
        rng
    };
    for devices in [1usize, 2, 4, 8] {
        for _ in 0..3 {
            let seed = next();
            // Awkward sizes: random in [64, 4096], frequently non-pow2.
            let n = 64 + (seed % 4033) as usize;
            let chunks_per_device = 1 + (seed >> 32) as usize % 8;
            let sys: TridiagonalSystem<f64> =
                Generator::new(seed).system(Workload::DiagonallyDominant, n);
            let pool = ClusterConfig::new(1, devices).build();
            let report = solve_partitioned_cluster(&pool, 0, &sys, chunks_per_device).unwrap();
            assert_matches_gep(
                &sys,
                &report.x,
                &format!("devices={devices} n={n} cpd={chunks_per_device} seed={seed}"),
            );
            assert_eq!(report.node_spans, vec![(0, n)], "one node spans the system");
            assert_eq!(report.interface_rows, 2 * report.chunks_total);
            assert_eq!(report.timing.net_ms, 0.0, "a one-node cluster never touches the network");
        }
    }
}

#[test]
fn uneven_spans_from_non_divisible_sizes_stay_accurate() {
    // n = 1021 (prime) never splits evenly: over 4 devices the spans are
    // 256/255/255/255 with short chunks inside each; 8 is more ragged.
    for devices in [2usize, 4, 8] {
        let n = 1021;
        let sys: TridiagonalSystem<f64> =
            Generator::new(97).system(Workload::DiagonallyDominant, n);
        let pool = ClusterConfig::new(1, devices).build();
        let report = solve_partitioned_cluster(&pool, 0, &sys, 5).unwrap();
        assert_matches_gep(&sys, &report.x, &format!("uneven devices={devices}"));
        for d in pool.node(0).pool.devices() {
            assert!(d.dispatched() >= 1, "devices={devices}: device {} got no span", d.id);
        }
    }
}

#[test]
fn large_n_beyond_shared_memory_verifies_on_all_pool_sizes() {
    // n = 2^16 — far past any one block's shared memory — must verify
    // against GEP on every pool size.
    let n = 1 << 16;
    let sys: TridiagonalSystem<f64> = Generator::new(42).system(Workload::DiagonallyDominant, n);
    let x_ref = cpu_solvers::gep::solve(&sys).unwrap();
    let scale = x_ref.iter().fold(1.0f64, |m, v| m.max(v.abs()));
    let solve = |devices| {
        solve_partitioned_cluster(&ClusterConfig::new(1, devices).build(), 0, &sys, 16).unwrap()
    };
    let solo = solve(1);
    for devices in [1usize, 2, 4, 8] {
        let report = solve(devices);
        for i in 0..n {
            let err = (report.x[i] - x_ref[i]).abs() / scale;
            assert!(err < 1e-9, "devices={devices} i={i} rel err {err:.3e}");
        }
        let r = l2_residual(&sys, &report.x).unwrap();
        assert!(r < 1e-6, "devices={devices} residual {r}");
        assert!(report.timing.total_ms() > 0.0);
        // More devices must not *increase* the parallel-phase cost.
        assert!(
            report.timing.local_ms <= solo.timing.local_ms + 1e-9,
            "devices={devices}: local phase should not regress vs one device"
        );
    }
}

#[test]
fn four_device_solve_matches_gep_and_uses_every_device() {
    let n = 4096;
    let sys: TridiagonalSystem<f64> = Generator::new(11).system(Workload::DiagonallyDominant, n);
    let pool = ClusterConfig::new(1, 4).build();
    let report = solve_partitioned_cluster(&pool, 0, &sys, 8).unwrap();
    let x_ref = cpu_solvers::gep::solve(&sys).unwrap();
    for i in 0..n {
        assert!((report.x[i] - x_ref[i]).abs() < 1e-9, "i={i}");
    }
    // Every device did local + back-substitution work.
    for d in pool.node(0).pool.devices() {
        assert!(d.dispatched() >= 2, "device {} dispatched {}", d.id, d.dispatched());
    }
}

#[test]
fn device_loss_mid_solve_replans_on_survivors() {
    let n = 2048;
    let sys: TridiagonalSystem<f64> = Generator::new(3).system(Workload::DiagonallyDominant, n);
    let mut cfg = ClusterConfig::new(1, 4);
    // Device 2 dies on its very first launch.
    cfg.device_fault_overrides =
        vec![(0, 2, FaultConfig { device_lost_after: Some(0), ..FaultConfig::quiet(0) })];
    let pool = cfg.build();
    let report = solve_partitioned_cluster(&pool, 0, &sys, 4).unwrap();
    assert!(pool.node(0).pool.is_lost(2), "the dead device must be marked lost");
    assert_eq!(pool.node(0).pool.device(2).dispatched(), 0, "replan must avoid the dead device");
    assert_eq!(report.nodes_used, vec![0], "the node keeps its span on the survivors");
    let r = l2_residual(&sys, &report.x).unwrap();
    assert!(r < 1e-8, "residual {r}");
}

#[test]
fn all_devices_lost_surfaces_device_lost() {
    let sys: TridiagonalSystem<f32> = Generator::new(1).system(Workload::DiagonallyDominant, 64);
    let pool = ClusterConfig::new(1, 2).build();
    pool.node(0).pool.mark_lost(0);
    pool.node(0).pool.mark_lost(1);
    assert_eq!(solve_partitioned_cluster(&pool, 0, &sys, 2).unwrap_err(), TridiagError::DeviceLost);
}
