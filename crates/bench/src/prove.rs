//! The `prove` subcommand: the static kernel-verification gate.
//!
//! ```text
//! cargo run --release -p bench -- prove            # full family sweep
//! cargo run --release -p bench -- prove --quick    # CI gate subset
//! ```
//!
//! Where the `sanitize` gate *runs* every solver under the dynamic
//! sanitizer on one batch, this gate *proves* them: every registered
//! production solver is verified symbolically over its declared size
//! family ([`verify_family`]), and the gate demands each member be
//! `Proven` — or `Unproven` only where the soundness boundary is
//! documented (the per-thread Thomas kernel's count-dependent access
//! skeleton). The deliberately-buggy fixture kernels must all come back
//! `Violated`: a verifier that cannot catch a planted race would be
//! worthless as a sanitize replacement. Results land in
//! `target/repro/BENCH_prove.json` and are gated against the floors in
//! `baselines/prove.json`.
//!
//! The serving layer consumes the same verdicts: a service holding a
//! `kernel_verify::VerifiedCatalog` plans only proven kernels. This sweep
//! covers the hybrids at the m = 32 switch point; the switch points the
//! autotune tournament actually plans (`n/2`, `n/4`) are held `Proven`
//! by the `solver-service` planner tests.

use crate::report::Table;
use gpu_sim::DeviceConfig;
use gpu_solvers::{verify_family, GpuAlgorithm, RdMode, FIXTURE_NAMES};
use kernel_verify::{verify_block_cr, verify_fixture, verify_solver, ProofStatus, VerifyOptions};
use std::time::Instant;
use tridiag_core::Real;

/// Every production solver the proof gate covers, hybrids at the m = 32
/// switch point (their families extend over all admissible n ≥ m).
fn registered() -> Vec<GpuAlgorithm> {
    vec![
        GpuAlgorithm::Cr,
        GpuAlgorithm::Pcr,
        GpuAlgorithm::Rd(RdMode::Plain),
        GpuAlgorithm::Rd(RdMode::Rescaled),
        GpuAlgorithm::CrPcr { m: 32 },
        GpuAlgorithm::CrRd { m: 32, mode: RdMode::Plain },
        GpuAlgorithm::CrRd { m: 32, mode: RdMode::Rescaled },
        GpuAlgorithm::CrEvenOdd,
        GpuAlgorithm::CrGlobalOnly,
        GpuAlgorithm::ThomasPerThread,
    ]
}

/// `true` for the solvers whose `Unproven` verdict is the *documented*
/// soundness boundary rather than a regression: the per-thread Thomas
/// kernel's interleaved index `i*count + s` is bilinear in (thread,
/// count), so no affine family proof exists for it by design.
fn documented_unproven(alg: GpuAlgorithm) -> bool {
    matches!(alg, GpuAlgorithm::ThomasPerThread)
}

/// Tally of one element type's family sweep.
#[derive(Debug, Default, Clone, Copy)]
struct SweepTotals {
    proven: usize,
    documented_unproven: usize,
    violated: usize,
    unexpected_unproven: usize,
}

/// Sweeps every registered solver's declared family (members ≤ `cap`) at
/// width `T`, appending one table row and one JSON row per solver.
fn sweep_type<T: Real>(
    ty: &str,
    cap: usize,
    table: &mut Table,
    json_rows: &mut Vec<String>,
) -> SweepTotals {
    let device = DeviceConfig::gtx280();
    let opts = VerifyOptions::default();
    let mut totals = SweepTotals::default();
    for alg in registered() {
        let family: Vec<usize> =
            verify_family(alg, T::BYTES, &device).into_iter().filter(|&n| n <= cap).collect();
        let started = Instant::now();
        let mut proven = 0usize;
        let mut unproven = 0usize;
        let mut violated = 0usize;
        let mut worst = String::from("-");
        for &n in &family {
            let v = verify_solver::<T>(alg, n, &opts);
            match v.status {
                ProofStatus::Proven => proven += 1,
                ProofStatus::Unproven => {
                    unproven += 1;
                    if worst == "-" {
                        worst =
                            format!("n={n}: {}", v.unproven.first().cloned().unwrap_or_default());
                    }
                }
                ProofStatus::Violated => {
                    violated += 1;
                    worst = format!(
                        "n={n}: {}",
                        v.findings.first().map(|f| f.site()).unwrap_or_default()
                    );
                }
            }
        }
        let wall_ms = started.elapsed().as_secs_f64() * 1e3;
        let status = if violated > 0 {
            "VIOLATED"
        } else if unproven > 0 && documented_unproven(alg) && proven == 0 {
            "unproven (documented)"
        } else if unproven > 0 {
            "UNPROVEN (unexpected)"
        } else {
            "all proven"
        };
        totals.proven += proven;
        totals.violated += violated;
        if documented_unproven(alg) {
            totals.documented_unproven += unproven;
        } else {
            totals.unexpected_unproven += unproven;
        }
        table.row(vec![
            alg.name().to_string(),
            ty.to_string(),
            family.len().to_string(),
            proven.to_string(),
            unproven.to_string(),
            violated.to_string(),
            status.to_string(),
            format!("{wall_ms:.0}"),
            worst,
        ]);
        json_rows.push(format!(
            "{{\"name\":\"{alg}/{ty}\",\"members\":{},\"proven\":{proven},\
             \"unproven\":{unproven},\"violated\":{violated},\"verify_ms\":{wall_ms:.1}}}",
            family.len(),
        ));
    }
    totals
}

/// Verifies the block-tridiagonal CR kernel over `sizes`; returns the
/// number proven (the gate demands all of them).
fn sweep_block_cr(sizes_f32: &[usize], f64_n: Option<usize>, table: &mut Table) -> (usize, usize) {
    let opts = VerifyOptions::default();
    let mut proven = 0usize;
    let mut total = 0usize;
    let mut check = |v: kernel_verify::SizeVerdict, ty: &str, n: usize| {
        total += 1;
        let ok = v.status == ProofStatus::Proven;
        if ok {
            proven += 1;
        }
        table.row(vec![
            "block-cr".to_string(),
            ty.to_string(),
            "1".to_string(),
            if ok { "1" } else { "0" }.to_string(),
            if v.status == ProofStatus::Unproven { "1" } else { "0" }.to_string(),
            if v.status == ProofStatus::Violated { "1" } else { "0" }.to_string(),
            if ok { "all proven".to_string() } else { v.status.name().to_string() },
            format!("{:.0}", v.wall_ms),
            format!("n={n}"),
        ]);
    };
    for &n in sizes_f32 {
        check(verify_block_cr::<f32>(n, &opts), "f32", n);
    }
    if let Some(n) = f64_n {
        check(verify_block_cr::<f64>(n, &opts), "f64", n);
    }
    (proven, total)
}

/// Runs every buggy fixture through the verifier; returns (caught,
/// expected). A fixture is *caught* when the verdict is `Violated` at
/// every probed size.
fn sweep_fixtures(sizes: &[usize], table: &mut Table) -> (usize, usize) {
    let opts = VerifyOptions::default();
    let mut caught = 0usize;
    for name in FIXTURE_NAMES {
        let mut all_violated = true;
        let mut worst = String::from("-");
        let started = Instant::now();
        for &n in sizes {
            let v = verify_fixture::<f32>(name, n, &opts);
            if v.status != ProofStatus::Violated {
                all_violated = false;
            } else if let Some(f) = v.findings.first() {
                worst = format!("{} at {}", f.kind.name(), f.site());
            }
        }
        if all_violated {
            caught += 1;
        }
        table.row(vec![
            name.to_string(),
            "f32".to_string(),
            sizes.len().to_string(),
            "0".to_string(),
            "0".to_string(),
            if all_violated { sizes.len().to_string() } else { "MISSED".to_string() },
            if all_violated { "violated (caught)" } else { "NOT CAUGHT" }.to_string(),
            format!("{:.0}", started.elapsed().as_secs_f64() * 1e3),
            worst,
        ]);
    }
    (caught, FIXTURE_NAMES.len())
}

/// Runs the proof gate; returns the process exit code.
pub fn run(args: &[String]) -> i32 {
    let parsed = match crate::cli::parse("prove", args, &[], 0) {
        Ok(parsed) => parsed,
        Err(code) => return code,
    };
    let quick = parsed.quick;

    let cap = if quick { 256 } else { 4096 };
    let mut table = Table::new(
        if quick { "Symbolic proof sweep (--quick)" } else { "Symbolic proof sweep" },
        &["solver", "type", "members", "proven", "unproven", "violated", "status", "ms", "detail"],
    );
    let mut json_rows: Vec<String> = Vec::new();
    let f32_totals = sweep_type::<f32>("f32", cap, &mut table, &mut json_rows);
    let f64_totals = if quick {
        SweepTotals::default()
    } else {
        sweep_type::<f64>("f64", cap, &mut table, &mut json_rows)
    };
    let (block_proven, block_total) = if quick {
        sweep_block_cr(&[16, 64], None, &mut table)
    } else {
        sweep_block_cr(&[4, 16, 64, 128], Some(32), &mut table)
    };
    let fixture_sizes: &[usize] = if quick { &[16] } else { &[16, 64] };
    let (caught, expected) = sweep_fixtures(fixture_sizes, &mut table);
    table.note(format!(
        "families from verify_family, members capped at n <= {cap}; \
         the per-thread Thomas kernel is the documented Unproven boundary"
    ));
    table.note("fixtures are the deliberately-buggy kernels: all must come back VIOLATED");
    println!("{table}");

    // Gate clauses, hard ones first.
    let mut failures: Vec<String> = Vec::new();
    let violated = f32_totals.violated + f64_totals.violated;
    if violated > 0 {
        failures.push(format!("{violated} production family member(s) VIOLATED"));
    }
    let unexpected = f32_totals.unexpected_unproven + f64_totals.unexpected_unproven;
    if unexpected > 0 {
        failures.push(format!("{unexpected} undocumented Unproven member(s)"));
    }
    if block_proven != block_total {
        failures.push(format!("block-cr: {block_proven}/{block_total} proven"));
    }
    if caught != expected {
        failures.push(format!("fixtures: only {caught}/{expected} caught"));
    }

    // Baseline floors (guard against the family silently shrinking).
    match crate::cli::baseline_path("prove.json") {
        Some(path) => {
            let text = std::fs::read_to_string(&path).unwrap_or_default();
            let floor_key = if quick { "min_proven_quick" } else { "min_proven_full" };
            if let Some(row) = crate::cli::json_object_with(&text, "name", "solvers") {
                if let Some(floor) = crate::cli::json_u64(row, floor_key) {
                    let proven = (f32_totals.proven + f64_totals.proven) as u64;
                    if proven < floor {
                        failures.push(format!("proven members {proven} < baseline floor {floor}"));
                    }
                }
            }
            if let Some(row) = crate::cli::json_object_with(&text, "name", "fixtures") {
                if let Some(floor) = crate::cli::json_u64(row, "min_caught") {
                    if (caught as u64) < floor {
                        failures.push(format!("fixtures caught {caught} < floor {floor}"));
                    }
                }
            }
        }
        None => println!("[prove] note: baselines/prove.json not found; floors skipped"),
    }

    let pass = failures.is_empty();
    json_rows.insert(
        0,
        format!(
            "{{\"name\":\"solvers\",\"proven\":{},\"documented_unproven\":{},\
             \"violated\":{violated},\"unexpected_unproven\":{unexpected}}}",
            f32_totals.proven + f64_totals.proven,
            f32_totals.documented_unproven + f64_totals.documented_unproven,
        ),
    );
    json_rows.push(format!(
        "{{\"name\":\"block-cr\",\"proven\":{block_proven},\"total\":{block_total}}}"
    ));
    json_rows
        .push(format!("{{\"name\":\"fixtures\",\"caught\":{caught},\"expected\":{expected}}}"));
    let json = format!(
        "{{\"bench\":\"prove\",\"quick\":{quick},\"rows\":[{}],\"pass\":{pass}}}",
        json_rows.join(",")
    );
    match crate::cli::write_bench("BENCH_prove.json", &json) {
        Ok(path) => println!("[prove] wrote {}", path.display()),
        Err(e) => eprintln!("[prove] could not write BENCH_prove.json: {e}"),
    }
    if parsed.json {
        println!("{json}");
    }

    if pass {
        println!("[prove] PASS: every family member proven (or documented unproven)");
        crate::cli::EXIT_PASS
    } else {
        for f in &failures {
            eprintln!("[prove] FAIL: {f}");
        }
        crate::cli::EXIT_GATE_FAIL
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quick_sweep_gates_green() {
        // The full quick gate must pass from a clean tree — this is the CI
        // contract, asserted here so `cargo test` catches a broken gate
        // before the shell pipeline does.
        assert_eq!(run(&["--quick".to_string()]), crate::cli::EXIT_PASS);
    }

    #[test]
    fn fixtures_are_all_caught() {
        let mut table = Table::new("t", &["s", "t", "m", "p", "u", "v", "st", "ms", "d"]);
        let (caught, expected) = sweep_fixtures(&[16], &mut table);
        assert_eq!(caught, expected);
    }

    #[test]
    fn rejects_unknown_flags() {
        assert_eq!(run(&["--bogus".to_string()]), crate::cli::EXIT_USAGE);
        assert_eq!(run(&["--overhead".to_string()]), crate::cli::EXIT_USAGE);
    }
}
