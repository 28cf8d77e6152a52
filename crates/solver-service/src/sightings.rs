//! Second-sighting admission for the warm tier's write side.
//!
//! The warm tier pays off only on matrices that recur. Certifying a key
//! (`numeric_verify::analyze`) and factoring it into the
//! [`FactorCache`](factor_cache::FactorCache) are write-side costs, and
//! on one-hit traffic — batches of distinct systems, each solved once —
//! they buy nothing: the certificate never licenses a skip and the
//! factorization is evicted unread. So dispatch runs the write side for
//! a key only on its **second sighting**: a flush holding at least two
//! systems with that key, or any flush after one that already saw it.
//! This is TinyLFU's "doorkeeper" admission filter (Einziger, Friedman &
//! Manes, ACM TOS 2017) — a CDN's "cache on second hit".
//!
//! The table is a fixed direct-mapped array of key fingerprints. A flush
//! records each distinct key's fingerprint once, with one lock-free
//! `swap`; it is a repeat if the slot already held that fingerprint. Collisions are safe in both
//! directions: two keys with equal fingerprints admit early (what every
//! key did before admission existed), and a key whose slot another key
//! overwrote waits one more sighting. Its memory is fixed — it never
//! grows with traffic — and each service owns its own, so virtual-clock
//! runs and replays start from an empty table every time.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::OnceLock;
use tridiag_core::splitmix64;

/// log2 of the slot count: 4,096 fingerprints, 32 KiB.
const SLOT_BITS: u32 = 12;

/// The direct-mapped fingerprint table (see the module docs). The slots
/// are allocated on the first sighting, so a service that never serves a
/// keyed flush never pays for them.
#[derive(Debug, Default)]
pub struct Sightings {
    slots: OnceLock<Box<[AtomicU64]>>,
}

impl Sightings {
    /// An empty table.
    pub fn new() -> Self {
        Self::default()
    }

    /// Records one sighting of `fingerprint` (non-zero, see
    /// `MatrixKey::fingerprint`) and returns `true` when its slot already
    /// held it: the key was seen before and not displaced since.
    pub fn record(&self, fingerprint: u64) -> bool {
        let slots = self
            .slots
            .get_or_init(|| (0..1usize << SLOT_BITS).map(|_| AtomicU64::new(0)).collect());
        slots[slot_of(fingerprint)].swap(fingerprint, Ordering::Relaxed) == fingerprint
    }
}

/// The slot `fingerprint` maps to: the top bits of its mix, so keys that
/// differ only in low bits still spread.
pub(crate) fn slot_of(fingerprint: u64) -> usize {
    (splitmix64(fingerprint) >> (64 - SLOT_BITS)) as usize
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn second_sighting_is_a_repeat() {
        let table = Sightings::new();
        assert!(!table.record(42), "first sighting");
        assert!(table.record(42), "second sighting");
        assert!(table.record(42), "and every one after");
    }

    #[test]
    fn a_displaced_key_waits_one_more_sighting() {
        let table = Sightings::new();
        // Find a second fingerprint that maps to 42's slot.
        let rival = (43..).find(|&fp| slot_of(fp) == slot_of(42)).unwrap();
        assert!(!table.record(42));
        assert!(!table.record(rival), "the rival's first sighting displaces 42");
        assert!(!table.record(42), "42 lost its slot: not a repeat");
        assert!(table.record(42), "...until it is seen again");
    }
}
