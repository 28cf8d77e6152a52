//! Bookkeeping for delivered answers: the oracle verdicts, the engines
//! that served each size class, and one kept answer for the oracle's own
//! self-check.

use crate::oracle;
use std::collections::BTreeMap;
use tridiag_core::TridiagonalSystem;

pub struct Judge {
    /// Corrupt the next judged answer before the oracle sees it.
    plant: bool,
    pub attempted: u64,
    pub failed: u64,
    /// Systems served per size class and engine label.
    pub engines: BTreeMap<usize, BTreeMap<String, u64>>,
    kept: Option<(TridiagonalSystem<f32>, Vec<f32>)>,
}

impl Judge {
    pub fn new(plant: bool) -> Self {
        Judge { plant, attempted: 0, failed: 0, engines: BTreeMap::new(), kept: None }
    }

    /// Judges one delivered answer.
    pub fn answer(&mut self, system: (&[f32], &[f32], &[f32], &[f32]), x: &[f32], engine: &str) {
        let (a, b, c, d) = system;
        self.attempted += 1;
        *self.engines.entry(b.len()).or_default().entry(engine.to_string()).or_default() += 1;
        let ok = if self.plant {
            self.plant = false;
            let mut bad = x.to_vec();
            oracle::corrupt(&mut bad);
            oracle::accepts(a, b, c, d, &bad)
        } else {
            oracle::accepts(a, b, c, d, x)
        };
        if !ok {
            self.failed += 1;
        } else if self.kept.is_none() {
            let sys = TridiagonalSystem::new(a.to_vec(), b.to_vec(), c.to_vec(), d.to_vec())
                .expect("judged systems are valid");
            self.kept = Some((sys, x.to_vec()));
        }
    }

    /// A system the program never answered (rejected after its one retry).
    pub fn rejected(&mut self) {
        self.attempted += 1;
        self.failed += 1;
    }

    /// Shows the oracle can fail: it must accept a kept delivered answer
    /// and reject the same answer with the planted fault.
    pub fn oracle_self_check(&self) -> bool {
        let Some((s, x)) = &self.kept else { return false };
        let mut bad = x.clone();
        oracle::corrupt(&mut bad);
        oracle::accepts(&s.a, &s.b, &s.c, &s.d, x) && !oracle::accepts(&s.a, &s.b, &s.c, &s.d, &bad)
    }
}
