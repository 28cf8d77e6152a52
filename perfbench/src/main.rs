//! The repository benchmark: four closed-loop workloads over the
//! tridiagonal solver stack, judged by an independent oracle.
//!
//! ```text
//! perfbench --workload <paper_batch|cold_sweep|warm_rhs|trickle> --seed <n>
//!           --seconds <s> --trace <0|1> [--out-dir <dir>] [--plant-fault]
//! ```
//!
//! A run measures `--seconds` seconds' worth of work: a fixed number of
//! calls per second, sized to the reference host (see
//! `Workload::cycles_per_second`).
//!
//! `--trace 0` measures the end-to-end metrics with tracing off.
//! `--trace 1` alternates untraced and traced cycles, reports the per-layer
//! metrics and the tracing overhead, and writes the spans to `--out-dir`.
//! `--plant-fault` corrupts one delivered answer before the oracle sees it;
//! the run must then fail. The last line of standard output is the JSON
//! result; the exit code is 1 when any answer failed the oracle.

mod gen;
mod judge;
mod oracle;
mod probes;
mod report;
mod spans;
mod workloads;

use judge::Judge;
use report::{median, Label, Metric};
use spans::{MemorySink, Spans};
use std::collections::BTreeMap;
use std::path::PathBuf;
use std::sync::Arc;
use std::time::{Duration, Instant};
use workloads::{ColdSweep, PaperBatch, Trickle, WarmRhs, Workload};

/// Set-ups per run; `setup_s` is their median.
const SETUP_REPS: usize = 7;

/// A run on a host slower than the reference stops measuring after this
/// many times `--seconds`, so the benchmark's total time stays bounded.
const MAX_SLOWDOWN: u32 = 2;

/// A segment during which the hypervisor ran something else on this
/// machine's CPUs for more than this share of their time timed the host,
/// not the program, and is left out of the medians.
const MAX_STEAL: f64 = 0.02;

/// Child spans must cover at least this share of each traced
/// `solve_batch` call: the rest is the glue `solve_batch` itself runs.
const MIN_SPAN_COVERAGE: f64 = 0.95;

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    plant_fault: bool,
    out_dir: PathBuf,
}

fn parse_args() -> Result<Args, String> {
    let mut args = std::env::args().skip(1);
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    let mut plant_fault = false;
    let mut out_dir = PathBuf::from(".bench_build/perfbench");
    while let Some(flag) = args.next() {
        if flag == "--plant-fault" {
            plant_fault = true;
            continue;
        }
        let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |what: &str| format!("{flag}: expected {what}, got {value:?}");
        match flag.as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => seed = Some(value.parse().map_err(|_| bad("an integer"))?),
            "--seconds" => {
                let s: f64 = value.parse().map_err(|_| bad("a number"))?;
                if !(s > 0.0 && s <= 120.0) {
                    return Err(bad("a number of seconds in (0, 120]"));
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad("0 or 1")),
                })
            }
            "--out-dir" => out_dir = PathBuf::from(&value),
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
        plant_fault,
        out_dir,
    })
}

fn main() {
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(2);
        }
    };
    let ok = match args.workload.as_str() {
        "paper_batch" => run(PaperBatch::new(args.seed), &args),
        "cold_sweep" => run(ColdSweep::new(args.seed), &args),
        "warm_rhs" => run(WarmRhs::new(args.seed), &args),
        "trickle" => run(Trickle::new(args.seed), &args),
        other => {
            eprintln!("perfbench: unknown workload {other:?}");
            std::process::exit(2);
        }
    };
    std::process::exit(if ok { 0 } else { 1 });
}

/// Nearest-rank percentile of sorted samples.
fn percentile(sorted: &[f64], p: f64) -> f64 {
    let rank = ((p / 100.0) * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// Cumulative (steal, total) CPU ticks of the machine, from `/proc/stat`;
/// zeros where the kernel does not report them.
fn cpu_ticks() -> (u64, u64) {
    let stat = std::fs::read_to_string("/proc/stat").unwrap_or_default();
    let ticks: Vec<u64> = stat
        .lines()
        .next()
        .unwrap_or_default()
        .split_whitespace()
        .skip(1)
        .filter_map(|t| t.parse().ok())
        .collect();
    (ticks.get(7).copied().unwrap_or(0), ticks.iter().sum())
}

/// The process's peak resident set, from `/proc/self/status`.
fn peak_rss_mib() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kib| kib / 1024.0)
}

/// Totals over the calls of one measured stretch.
#[derive(Default)]
struct Tally {
    call_ms: Vec<f64>,
    ns: u64,
    systems: u64,
    modeled_ms: f64,
}

impl Tally {
    fn add(&mut self, call: workloads::Call) {
        self.call_ms.push(call.ns as f64 / 1e6);
        self.ns += call.ns;
        self.systems += call.systems;
        self.modeled_ms += call.modeled_ms;
    }
}

/// One cycle of calls.
fn cycle<W: Workload>(
    w: &mut W,
    state: &mut W::State,
    k: &mut usize,
    judge: &mut Judge,
    mut spans: Option<&mut Spans>,
    tally: &mut Tally,
) {
    for _ in 0..w.cycle() {
        let call = w.call(state, *k, judge, spans.as_deref_mut(), *k as u64);
        tally.add(call);
        *k += 1;
    }
}

fn run<W: Workload>(mut w: W, args: &Args) -> bool {
    let mut judge = Judge::new(args.plant_fault);
    // Whole seconds of work at the reference speed; see `cycles_per_second`.
    let seconds = args.seconds.round().max(1.0) as usize;
    let mut notes = Vec::new();
    let (metrics, ungated) = if args.trace {
        (traced(&mut w, args, seconds, &mut judge, &mut notes), Vec::new())
    } else {
        untraced(&mut w, seconds, &mut judge)
    };

    let error_rate = judge.failed as f64 / judge.attempted.max(1) as f64;
    let self_check = judge.oracle_self_check();
    if !self_check {
        notes.push("oracle self-check failed: a planted fault went unnoticed".to_string());
    }
    let finite = metrics.iter().all(|m| m.value.is_finite());
    if !finite {
        notes.push("a metric is not finite".to_string());
    }
    let correct = judge.failed == 0 && self_check && finite && notes.is_empty();

    println!("workload {} seed {} trace {}", args.workload, args.seed, args.trace as u8);
    report::print_table("metrics:", &metrics);
    let error_rate = Metric::new("error_rate", error_rate, "ratio", Label::Count).note(format!(
        "{} of {} systems failed (rejected, non-finite, or backward error > {:e})",
        judge.failed,
        judge.attempted,
        oracle::MAX_BACKWARD_ERROR
    ));
    report::print_table("not gated:", &[ungated, vec![error_rate]].concat());
    let plans: BTreeMap<String, Vec<&String>> =
        judge.engines.iter().map(|(n, e)| (n.to_string(), e.keys().collect())).collect();
    println!("plans {}", plans_json(&plans));
    for note in &notes {
        println!("FAIL: {note}");
    }
    println!("{}", report::result_json(correct, judge.attempted, judge.failed, &metrics));
    correct
}

fn plans_json(plans: &BTreeMap<String, Vec<&String>>) -> String {
    let entries: Vec<String> = plans
        .iter()
        .map(|(n, engines)| {
            let list: Vec<String> = engines.iter().map(|e| format!("\"{e}\"")).collect();
            format!("\"{n}\": [{}]", list.join(", "))
        })
        .collect();
    format!("{{{}}}", entries.join(", "))
}

/// The end-to-end run: set up several times, then calls with tracing off,
/// in `seconds` segments of one reference second of work each. Each
/// metric is the median over the segments the hypervisor did not steal
/// from, so a burst of load from elsewhere on the host moves one segment
/// rather than the run's figure. Every run does the same work either way.
/// Returns the gated end-to-end metrics and the ones only printed.
fn untraced<W: Workload>(
    w: &mut W,
    seconds: usize,
    judge: &mut Judge,
) -> (Vec<Metric>, Vec<Metric>) {
    let mut setups = Vec::new();
    let mut state = None;
    for _ in 0..SETUP_REPS {
        drop(state.take());
        let t0 = Instant::now();
        state = Some(w.setup(judge, None));
        setups.push(t0.elapsed().as_secs_f64());
    }
    let mut state = state.expect("SETUP_REPS >= 1");

    // One row per segment: systems/s, p50, p90, p99, steal share.
    let mut segments: Vec<[f64; 5]> = Vec::new();
    let (mut calls, mut modeled_ms, mut systems) = (0, 0.0, 0);
    let (start, mut k) = (Instant::now(), 0);
    let limit = Duration::from_secs((seconds as u64) * u64::from(MAX_SLOWDOWN));
    while segments.len() < seconds && start.elapsed() < limit {
        let failed_before = judge.failed;
        let mut tally = Tally::default();
        let (steal0, total0) = cpu_ticks();
        for _ in 0..w.cycles_per_second() {
            cycle(w, &mut state, &mut k, judge, None, &mut tally);
        }
        let (steal1, total1) = cpu_ticks();
        let passed = tally.systems - (judge.failed - failed_before);
        let mut sorted = tally.call_ms;
        sorted.sort_by(|a, b| a.total_cmp(b));
        segments.push([
            passed as f64 / (tally.ns as f64 / 1e9),
            percentile(&sorted, 50.0),
            percentile(&sorted, 90.0),
            percentile(&sorted, 99.0),
            (steal1 - steal0) as f64 / (total1 - total0).max(1) as f64,
        ]);
        calls += sorted.len();
        modeled_ms += tally.modeled_ms;
        systems += tally.systems;
    }
    drop(state);

    // Segments the hypervisor stole from timed the host, not the program;
    // they are left out unless they are most of the run.
    let count = segments.len();
    let clean: Vec<[f64; 5]> = segments.iter().copied().filter(|s| s[4] <= MAX_STEAL).collect();
    let kept = if clean.len() * 2 >= count { clean } else { segments };
    let column = |i: usize| median(kept.iter().map(|s| s[i]).collect());
    let per_segment = calls / count;
    let samples = format!(
        "median of {} of {count} segments of ~{per_segment} calls ({} left out for steal)",
        kept.len(),
        count - kept.len()
    );
    let gated = vec![
        Metric::new("systems_per_s", column(0), "1/s", Label::Measured)
            .note(format!("{samples}; systems passed by the oracle over summed call time")),
        Metric::new("call_ms_p50", column(1), "ms", Label::Measured).note(samples.clone()),
        Metric::new("call_ms_p90", column(2), "ms", Label::Measured).note(samples.clone()),
        Metric::new("setup_s", median(setups), "s", Label::Measured)
            .note(format!("median of {SETUP_REPS} set-ups")),
        Metric::new("peak_rss_mib", peak_rss_mib(), "MiB", Label::Measured),
    ];
    // Tail latency on a shared host moves by up to a third between runs,
    // more than any bound could absorb, so p99 is printed but not gated.
    let mut ungated = vec![Metric::new("call_ms_p99", column(3), "ms", Label::Measured).note(
        if per_segment >= 1000 {
            samples
        } else {
            format!("{samples}: fewer than 1000 per segment, so near each segment's maximum")
        },
    )];
    if modeled_ms > 0.0 {
        ungated.push(
            Metric::new(
                "modeled_device_us_per_system",
                modeled_ms * 1e3 / systems as f64,
                "us",
                Label::Modeled,
            )
            .note("repeats exactly; reported per layer by the traced run"),
        );
    }
    (gated, ungated)
}

/// The traced run: untraced and traced cycles alternate on two identically
/// set-up states; then the per-layer probes run on a sample of the
/// workload's inputs.
fn traced<W: Workload>(
    w: &mut W,
    args: &Args,
    seconds: usize,
    judge: &mut Judge,
    notes: &mut Vec<String>,
) -> Vec<Metric> {
    let sink = Arc::new(MemorySink::default());
    let mut plain = w.setup(judge, None);
    let mut traced = w.setup(judge, Some(sink.clone()));
    sink.take();
    let before = w.service(&traced).map(|s| s.metrics());

    let mut spans = Spans::new();
    let (mut plain_tally, mut traced_tally) = (Tally::default(), Tally::default());
    let (start, mut k) = (Instant::now(), 0);
    let limit = Duration::from_secs((seconds as u64) * u64::from(MAX_SLOWDOWN));
    for _ in 0..(seconds * w.cycles_per_second()).div_ceil(2) {
        if start.elapsed() > limit {
            break;
        }
        cycle(w, &mut plain, &mut k, judge, None, &mut plain_tally);
        cycle(w, &mut traced, &mut k, judge, Some(&mut spans), &mut traced_tally);
    }
    let events = sink.take();
    drop(plain);

    let per_system = |t: &Tally| t.ns as f64 / t.systems.max(1) as f64;
    let mut metrics: BTreeMap<String, Metric> = BTreeMap::new();
    let mut put = |m: Metric| {
        metrics.insert(m.name.clone(), m);
    };
    put(Metric::new(
        "trace.overhead_frac",
        per_system(&traced_tally) / per_system(&plain_tally) - 1.0,
        "ratio",
        Label::Measured,
    )
    .note(format!(
        "traced vs untraced call time per system, {} vs {} calls",
        traced_tally.call_ms.len(),
        plain_tally.call_ms.len()
    )));
    let coverage = spans.child_coverage(w.call_span());
    put(Metric::new("trace.span_coverage", coverage, "ratio", Label::Measured).note(format!(
        "share of each `{}` span its child spans cover (0: no child spans)",
        w.call_span()
    )));

    let sample = w.sample();
    match (w.service(&traced), before) {
        (Some(svc), Some(before)) => {
            let after = svc.metrics();
            for m in probes::service_metrics(&events, &before, &after, traced_tally.ns as f64) {
                put(m);
            }
            put(probes::submit_us(&spans, svc, &sample, judge));
        }
        _ => {
            // No service on this workload's path: its layers read 0.
            let empty = solver_service::ServiceMetrics::new().snapshot(0, 0, 0);
            for m in probes::service_metrics(&[], &empty, &empty, 0.0) {
                put(m.note("n/a: no service on this workload"));
            }
            put(Metric::new("solver-service.submit_us", 0.0, "us", Label::Measured)
                .note("n/a: no service on this workload"));
            let both = plain_tally.systems + traced_tally.systems;
            put(Metric::new(
                "modeled_device_us_per_system",
                (plain_tally.modeled_ms + traced_tally.modeled_ms) * 1e3 / both.max(1) as f64,
                "us",
                Label::Modeled,
            )
            .note("TimingReport::total_ms per system: kernel + PCIe"));
            if coverage < MIN_SPAN_COVERAGE {
                notes.push(format!(
                    "upload + launch + download cover {coverage:.4} of solve_batch, below {MIN_SPAN_COVERAGE}"
                ));
            }
        }
    }
    drop(traced);

    for m in probes::layer_probes(&sample, &w.plan_sizes()) {
        put(m);
    }
    // Where the workload's own calls were split at the transfer
    // boundaries, their spans replace the probe's transfer times.
    for name in ["upload", "download"] {
        let ns = spans.durations_ns(name);
        if !ns.is_empty() {
            put(Metric::new(
                &format!("gpu-solvers.{name}_us"),
                median(ns) / 1e3,
                "us",
                Label::Measured,
            )
            .note("median span of the traced calls"));
        }
    }

    let path = args.out_dir.join(format!("trace-{}-seed{}.json", args.workload, args.seed));
    match spans.write(&path, &events) {
        Ok(()) => println!("trace written to {}", path.display()),
        Err(e) => notes.push(format!("writing {}: {e}", path.display())),
    }
    metrics.into_values().collect()
}
