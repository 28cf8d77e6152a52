//! The workspace's one 64-bit mixer: SplitMix64 (Steele, Lea & Flood,
//! OOPSLA 2014).
//!
//! Every deterministic stream in the workspace draws from it — fault
//! plans, the cluster's network model and hash ring, the replay and gate
//! request generators — and [`crate::MatrixKey`] hashes matrix content
//! through it. Two call shapes with one arithmetic:
//!
//! * [`splitmix64`] — the pure `u64 → u64` finalizer (golden-ratio
//!   increment, then multiply–xorshift avalanche), a bijection on `u64`;
//! * [`splitmix64_next`] — the stateful generator step: advance `state`
//!   by the golden-ratio increment and return the finalized value.
//!
//! `splitmix64_next(&mut s)` returns exactly `splitmix64(s)` for the
//! state `s` it was called with, so a stream can be written either way.

/// The golden-ratio increment, `⌊2^64 / φ⌋`.
const GOLDEN_GAMMA: u64 = 0x9E37_79B9_7F4A_7C15;

/// SplitMix64 finalizer: a bijective avalanche of `z`.
#[inline]
pub fn splitmix64(mut z: u64) -> u64 {
    z = z.wrapping_add(GOLDEN_GAMMA);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// One SplitMix64 generator step: advances `state` and returns the next
/// draw of the stream.
#[inline]
pub fn splitmix64_next(state: &mut u64) -> u64 {
    let out = splitmix64(*state);
    *state = state.wrapping_add(GOLDEN_GAMMA);
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reference_values() {
        // The published SplitMix64 stream from seed 0.
        let mut s = 0u64;
        assert_eq!(splitmix64_next(&mut s), 0xE220_A839_7B1D_CDAF);
        assert_eq!(splitmix64_next(&mut s), 0x6E78_9E6A_A1B9_65F4);
        assert_eq!(splitmix64_next(&mut s), 0x06C4_5D18_8009_454F);
    }

    #[test]
    fn both_shapes_share_one_stream() {
        let mut s = 0xDEAD_BEEF_u64;
        for _ in 0..16 {
            let before = s;
            assert_eq!(splitmix64_next(&mut s), splitmix64(before));
            assert_eq!(s, before.wrapping_add(GOLDEN_GAMMA));
        }
    }
}
