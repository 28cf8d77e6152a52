//! Scenario: the complete, self-contained description of one load-lab
//! run. A trace file embeds its scenario, so `repro replay <trace>` can
//! re-run the exact workload with no side channel.
//!
//! Every parameter is an integer (rates in parts-per-million, times in
//! nanoseconds/microseconds) so the binary encoding is exact — no float
//! formatting ambiguity can creep into the provenance hash.
//!
//! Arrival processes are pure functions of `(seed, pattern, index)`:
//!
//! * [`Pattern::Steady`] — fixed inter-arrival period.
//! * [`Pattern::Diurnal`] — the period follows an integer triangle wave
//!   (load doubles at the "peak", halves in the "trough"), a deliberately
//!   float-free stand-in for a day curve.
//! * [`Pattern::Bursty`] — bursts of back-to-back arrivals separated by
//!   idle gaps, the classic open-loop flash crowd.
//! * [`Pattern::AdversarialSmallN`] — a flood of tiny systems with many
//!   distinct sizes, deliberately defeating batching (one bucket per
//!   size), pinning traffic to the CPU path and offered faster than the
//!   server can solve it.

use crate::codec::{put_str, put_u64, CodecError, Reader};
use gpu_sim::Tick;

/// The arrival process shape.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Pattern {
    /// Constant rate.
    Steady,
    /// Triangle-wave modulated rate (half → double the base rate).
    Diurnal,
    /// `burst_len` arrivals back-to-back, then an idle gap.
    Bursty,
    /// High-rate flood of tiny, size-diverse systems.
    AdversarialSmallN,
}

impl Pattern {
    /// Stable lower-case label for reports and JSON.
    pub fn label(self) -> &'static str {
        match self {
            Pattern::Steady => "steady",
            Pattern::Diurnal => "diurnal",
            Pattern::Bursty => "bursty",
            Pattern::AdversarialSmallN => "adversarial-small-n",
        }
    }

    fn byte(self) -> u8 {
        match self {
            Pattern::Steady => 0,
            Pattern::Diurnal => 1,
            Pattern::Bursty => 2,
            Pattern::AdversarialSmallN => 3,
        }
    }

    fn from_u64(offset: usize, v: u64) -> Result<Self, CodecError> {
        match v {
            0 => Ok(Pattern::Steady),
            1 => Ok(Pattern::Diurnal),
            2 => Ok(Pattern::Bursty),
            3 => Ok(Pattern::AdversarialSmallN),
            other => Err(CodecError::BadEnum { offset, what: "Pattern", value: other }),
        }
    }
}

/// One load-lab run, fully described. See the module docs for the arrival
/// processes; the service knobs mirror `ServiceConfig`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Scenario {
    /// Report label (also the default trace file stem).
    pub name: String,
    /// Seed keying arrivals, system contents, and the fault plan.
    pub seed: u64,
    /// Arrival process shape.
    pub pattern: Pattern,
    /// Total requests offered.
    pub requests: u64,
    /// Mean offered load, requests per simulated second.
    pub rate_rps: u64,
    /// Candidate system sizes, drawn per request by the seeded RNG.
    pub sizes: Vec<u64>,
    /// Arrivals per burst ([`Pattern::Bursty`] only; ignored otherwise).
    pub burst_len: u64,
    /// Transient launch-failure rate, parts per million.
    pub launch_fault_ppm: u64,
    /// Output bit-flip rate, parts per million.
    pub bit_flip_ppm: u64,
    /// Batcher target batch size.
    pub target_batch: u64,
    /// Batcher max linger, microseconds.
    pub max_linger_us: u64,
    /// Admission queue capacity (pending requests across all buckets).
    pub queue_capacity: u64,
    /// Flushes smaller than this run on the CPU.
    pub min_gpu_batch: u64,
    /// When nonzero, pin every flush to the GPU cr+pcr hybrid with this
    /// switchover `m`, bypassing the planner. The sim cost model makes
    /// the CPU win the autotune tournament at lab batch sizes, so fault
    /// injection (a GPU-launch phenomenon) only engages on a pinned cell.
    /// Zero = autotune.
    pub pin_cr_pcr_m: u64,
    /// When nonzero, arrivals reuse a pool of this many distinct matrices
    /// (the RHS still varies per request) and the harness enables the
    /// factorization cache, so warm traffic exercises the back-substitution
    /// tier. Zero = every request carries a fresh matrix, cache off.
    pub matrix_pool: u64,
    /// When nonzero, the harness enables the certified catalog with this
    /// 1-in-K sampling period: certified matrices skip the per-answer
    /// residual verify on all but every K-th flush. Zero = full
    /// verification on every answer (catalog off).
    pub certify: u64,
}

impl Scenario {
    /// The steady-state baseline cell.
    pub fn steady(requests: u64) -> Self {
        Self {
            name: "steady".into(),
            seed: 0x51EA_D715,
            pattern: Pattern::Steady,
            requests,
            rate_rps: 200_000,
            sizes: vec![64, 128, 256],
            burst_len: 0,
            launch_fault_ppm: 0,
            bit_flip_ppm: 0,
            target_batch: 8,
            max_linger_us: 200,
            queue_capacity: 256,
            min_gpu_batch: 1,
            pin_cr_pcr_m: 0,
            matrix_pool: 0,
            certify: 0,
        }
    }

    /// The day-curve cell: same mean rate as steady, triangle-modulated.
    pub fn diurnal(requests: u64) -> Self {
        Self {
            name: "diurnal".into(),
            pattern: Pattern::Diurnal,
            seed: 0xD1A1_0001,
            ..Self::steady(requests)
        }
    }

    /// The flash-crowd cell: bursts at 10x the steady rate with idle gaps.
    pub fn bursty(requests: u64) -> Self {
        Self {
            name: "bursty".into(),
            pattern: Pattern::Bursty,
            seed: 0xB0B5_0002,
            burst_len: 32,
            ..Self::steady(requests)
        }
    }

    /// The adversarial cell: a small-n flood with many distinct sizes
    /// (batching defeated — every size is its own bucket) under a 5%
    /// transient-fault device, offered faster than the server can solve.
    pub fn adversarial(requests: u64) -> Self {
        Self {
            name: "adversarial-small-n".into(),
            pattern: Pattern::AdversarialSmallN,
            seed: 0xADE5_0003,
            // An overload, not a linger artefact: the work-conserving
            // server solves this flood at about 2.5M req/s of virtual
            // time, flushing whatever few same-size requests arrived
            // during its last serve, so at 3.2M req/s pending overruns the
            // queue — the cell must shed load to pass.
            rate_rps: 3_200_000,
            sizes: vec![4, 8, 16, 32, 5, 9, 17, 33],
            launch_fault_ppm: 50_000,
            bit_flip_ppm: 10_000,
            // Eight size buckets that each need 16 same-size arrivals to
            // fill: batching cannot catch up with the flood.
            target_batch: 16,
            queue_capacity: 64,
            ..Self::steady(requests)
        }
    }

    /// The replay-gate chaos cell: mixed sizes at 5% launch faults + 1%
    /// bit flips — the stream the bit-identical replay acceptance gate
    /// captures.
    pub fn chaos(requests: u64) -> Self {
        Self {
            name: "chaos".into(),
            seed: 0xCA05_2026,
            launch_fault_ppm: 50_000,
            bit_flip_ppm: 10_000,
            // Pinned to the GPU hybrid: faults are injected per kernel
            // launch, so the gate must keep traffic on the device to
            // capture retries, repairs, and breaker transitions.
            pin_cr_pcr_m: 32,
            ..Self::steady(requests)
        }
    }

    /// The warm-traffic cell: steady arrivals over a small pool of shared
    /// matrices with the factorization cache on, so most flushes take the
    /// back-substitution fast path. The stream the warm bit-identical
    /// replay gate captures.
    pub fn warm(requests: u64) -> Self {
        Self { name: "warm".into(), seed: 0xFAC7_2026, matrix_pool: 4, ..Self::steady(requests) }
    }

    /// The certification cell: warm traffic with the certified catalog on
    /// at the default 1-in-8 sampling period, so certified matrices skip
    /// the per-answer residual verify on most flushes. The stream the
    /// certified bit-identical replay gate captures.
    pub fn certified(requests: u64) -> Self {
        Self { name: "certified".into(), seed: 0xCE27_2026, certify: 8, ..Self::warm(requests) }
    }

    /// Mean inter-arrival period in ticks (ns). Never zero.
    pub fn base_period(&self) -> Tick {
        (1_000_000_000 / self.rate_rps.max(1)).max(1)
    }

    /// The arrival tick of request `index` — a pure function of the
    /// scenario, whatever order it is asked in.
    pub fn arrival_tick(&self, index: u64) -> Tick {
        let base = self.base_period();
        match self.pattern {
            Pattern::Steady | Pattern::AdversarialSmallN => base.saturating_mul(index),
            Pattern::Diurnal => {
                // Integer triangle wave over a 64-request "day": the
                // period sweeps base/2 → 2*base and back, so cumulative
                // arrival time is the prefix sum of per-index periods.
                let mut at: Tick = 0;
                for i in 0..index {
                    at = at.saturating_add(diurnal_period(base, i));
                }
                at
            }
            Pattern::Bursty => {
                let burst = self.burst_len.max(1);
                let cycle = index / burst;
                let within = index % burst;
                // Each cycle of `burst` requests lands in one tight volley
                // (1/10th the base spacing), cycles separated by the full
                // idle gap the volley "saved up".
                let gap = base.saturating_mul(burst);
                cycle.saturating_mul(gap).saturating_add(within.saturating_mul(base / 10))
            }
        }
    }

    /// Binary encoding (all varints + one string), used by the trace-file
    /// header and hashed into the provenance `config_hash`.
    pub fn encode(&self, out: &mut Vec<u8>) {
        put_str(out, &self.name);
        put_u64(out, self.seed);
        out.push(self.pattern.byte());
        put_u64(out, self.requests);
        put_u64(out, self.rate_rps);
        put_u64(out, self.sizes.len() as u64);
        for &n in &self.sizes {
            put_u64(out, n);
        }
        put_u64(out, self.burst_len);
        put_u64(out, self.launch_fault_ppm);
        put_u64(out, self.bit_flip_ppm);
        put_u64(out, self.target_batch);
        put_u64(out, self.max_linger_us);
        put_u64(out, self.queue_capacity);
        put_u64(out, self.min_gpu_batch);
        put_u64(out, self.pin_cr_pcr_m);
        put_u64(out, self.matrix_pool);
        put_u64(out, self.certify);
    }

    /// Decodes what [`Scenario::encode`] wrote.
    pub fn decode(r: &mut Reader<'_>) -> Result<Self, CodecError> {
        let name = r.str()?;
        let seed = r.u64()?;
        let offset = r.pos();
        let pattern = Pattern::from_u64(offset, r.u64()?)?;
        let requests = r.u64()?;
        let rate_rps = r.u64()?;
        let len_offset = r.pos();
        let size_count = r.u64()?;
        let size_count = usize::try_from(size_count)
            .ok()
            .filter(|&c| c <= r.remaining())
            .ok_or(CodecError::Truncated { offset: len_offset, wanted: "size list" })?;
        let mut sizes = Vec::with_capacity(size_count);
        for _ in 0..size_count {
            sizes.push(r.u64()?);
        }
        Ok(Self {
            name,
            seed,
            pattern,
            requests,
            rate_rps,
            sizes,
            burst_len: r.u64()?,
            launch_fault_ppm: r.u64()?,
            bit_flip_ppm: r.u64()?,
            target_batch: r.u64()?,
            max_linger_us: r.u64()?,
            queue_capacity: r.u64()?,
            min_gpu_batch: r.u64()?,
            pin_cr_pcr_m: r.u64()?,
            matrix_pool: r.u64()?,
            certify: r.u64()?,
        })
    }
}

/// Per-index inter-arrival period for the diurnal triangle wave: sweeps
/// `base/2` (peak load) up to `2*base` (trough) over a 64-request cycle.
fn diurnal_period(base: Tick, index: u64) -> Tick {
    const CYCLE: u64 = 64;
    let phase = index % CYCLE;
    // Triangle: 0..32 ramps 0→32, 32..64 ramps back 32→0.
    let tri = if phase < CYCLE / 2 { phase } else { CYCLE - phase };
    // Map tri ∈ [0, 32] onto period ∈ [base/2, 2*base].
    let half = base / 2;
    half + (base.saturating_mul(3) / 2) * tri / (CYCLE / 2)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn arrival_ticks_are_monotone_for_every_pattern() {
        for scenario in [
            Scenario::steady(100),
            Scenario::diurnal(100),
            Scenario::bursty(100),
            Scenario::adversarial(100),
        ] {
            let ticks: Vec<Tick> = (0..100).map(|i| scenario.arrival_tick(i)).collect();
            assert!(
                ticks.windows(2).all(|w| w[0] <= w[1]),
                "{}: arrivals must never go backwards",
                scenario.name
            );
        }
    }

    #[test]
    fn bursty_arrivals_cluster_then_gap() {
        let s = Scenario::bursty(100);
        let base = s.base_period();
        // Within a burst: tight spacing.
        let within = s.arrival_tick(1) - s.arrival_tick(0);
        assert!(within <= base / 10, "burst spacing {within} vs base {base}");
        // Across bursts: a real gap.
        let burst = s.burst_len;
        let gap = s.arrival_tick(burst) - s.arrival_tick(burst - 1);
        assert!(gap > base, "inter-burst gap {gap} vs base {base}");
    }

    #[test]
    fn scenarios_round_trip_through_the_codec() {
        for scenario in [
            Scenario::steady(1000),
            Scenario::diurnal(1),
            Scenario::bursty(u64::MAX),
            Scenario::adversarial(42),
            Scenario::chaos(1000),
            Scenario::warm(1000),
            Scenario::certified(1000),
        ] {
            let mut buf = Vec::new();
            scenario.encode(&mut buf);
            let mut r = Reader::new(&buf);
            assert_eq!(Scenario::decode(&mut r).unwrap(), scenario);
            assert!(r.is_empty());
        }
    }

    #[test]
    fn truncated_scenarios_error_instead_of_panicking() {
        let mut buf = Vec::new();
        Scenario::chaos(1000).encode(&mut buf);
        for cut in 0..buf.len() {
            let mut r = Reader::new(&buf[..cut]);
            assert!(Scenario::decode(&mut r).is_err(), "prefix of {cut} bytes decoded");
        }
    }
}
