//! The on-disk trace format: provenance header + event stream + checksum.
//!
//! ```text
//! [4]  magic "TLB1"
//! [v]  version          (varint, currently 2)
//! [v]  seed             (varint, echo of scenario.seed)
//! [8]  config_hash      (FNV-1a/64 of the encoded scenario, LE)
//! [s]  git_rev          (length-prefixed string; "unknown" outside git)
//! [..] scenario         (Scenario::encode)
//! [..] events           (count-prefixed, codec::encode_events)
//! [8]  checksum         (FNV-1a/64 of every preceding byte, LE)
//! ```
//!
//! Reading verifies, in order: length, checksum, magic, version, codec,
//! config-hash consistency, and that no trailing bytes remain. Corrupt or
//! truncated files return a typed [`TraceError`]; they never panic.

use crate::codec::{self, put_str, put_u64, CodecError, Reader};
use crate::scenario::Scenario;
use solver_service::TraceEvent;
use std::path::Path;

/// File magic: "trace-lab, format 1".
pub const MAGIC: [u8; 4] = *b"TLB1";

/// Current format version. It moves whenever the harness's decisions do,
/// not only when the byte layout does: version 2 is the work-conserving
/// harness (rule 5 in [`crate::harness`]), so a version-1 capture — whose
/// stream the harness no longer reproduces — is refused with
/// [`TraceError::BadVersion`] instead of diverging on replay.
pub const VERSION: u64 = 2;

/// Why a trace file failed to load.
#[derive(Debug)]
pub enum TraceError {
    /// The underlying read/write failed.
    Io(std::io::Error),
    /// The payload failed to decode.
    Codec(CodecError),
    /// The file does not start with [`MAGIC`].
    BadMagic,
    /// The file's version is not [`VERSION`].
    BadVersion(u64),
    /// The trailer checksum does not match the content.
    ChecksumMismatch {
        /// Checksum stored in the trailer.
        stored: u64,
        /// Checksum recomputed from the content.
        computed: u64,
    },
    /// The header's `config_hash` does not hash the embedded scenario.
    ConfigHashMismatch {
        /// Hash stored in the header.
        stored: u64,
        /// Hash recomputed from the embedded scenario.
        computed: u64,
    },
    /// Bytes remain between the event stream and the checksum trailer.
    TrailingBytes {
        /// How many.
        count: usize,
    },
    /// The file is too short to even hold the fixed fields.
    TooShort,
}

impl core::fmt::Display for TraceError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            TraceError::Io(e) => write!(f, "trace i/o: {e}"),
            TraceError::Codec(e) => write!(f, "trace decode: {e}"),
            TraceError::BadMagic => f.write_str("not a trace file (bad magic)"),
            TraceError::BadVersion(v) => write!(f, "unsupported trace version {v}"),
            TraceError::ChecksumMismatch { stored, computed } => write!(
                f,
                "trace corrupt: checksum {stored:#018x} stored, {computed:#018x} computed"
            ),
            TraceError::ConfigHashMismatch { stored, computed } => write!(
                f,
                "trace header inconsistent: config hash {stored:#018x} stored, \
                 {computed:#018x} computed from the embedded scenario"
            ),
            TraceError::TrailingBytes { count } => {
                write!(f, "trace corrupt: {count} trailing byte(s) after the event stream")
            }
            TraceError::TooShort => f.write_str("trace truncated: shorter than the fixed fields"),
        }
    }
}

impl std::error::Error for TraceError {}

impl From<CodecError> for TraceError {
    fn from(e: CodecError) -> Self {
        TraceError::Codec(e)
    }
}

impl From<std::io::Error> for TraceError {
    fn from(e: std::io::Error) -> Self {
        TraceError::Io(e)
    }
}

/// FNV-1a 64-bit over `bytes` — the format's checksum and config hash.
pub fn fnv1a64(bytes: &[u8]) -> u64 {
    let mut hash: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        hash ^= u64::from(b);
        hash = hash.wrapping_mul(0x1_0000_01b3);
    }
    hash
}

/// Hash a scenario the way trace headers do.
pub fn config_hash(scenario: &Scenario) -> u64 {
    let mut buf = Vec::new();
    scenario.encode(&mut buf);
    fnv1a64(&buf)
}

/// The short git revision of the working tree, or `"unknown"` when git is
/// unavailable — provenance only, never compared by replay.
pub fn current_git_rev() -> String {
    std::process::Command::new("git")
        .args(["rev-parse", "--short", "HEAD"])
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .map(|s| s.trim().to_string())
        .filter(|s| !s.is_empty())
        .unwrap_or_else(|| "unknown".to_string())
}

/// A loaded (or about-to-be-written) trace: provenance + scenario + the
/// captured decision stream.
#[derive(Debug, Clone, PartialEq)]
pub struct TraceFile {
    /// Echo of `scenario.seed` (also readable without decoding the
    /// scenario).
    pub seed: u64,
    /// FNV-1a/64 of the encoded scenario.
    pub config_hash: u64,
    /// Git revision the capture ran at (provenance only).
    pub git_rev: String,
    /// The workload that produced the events — replay re-runs this.
    pub scenario: Scenario,
    /// The captured decision stream.
    pub events: Vec<TraceEvent>,
}

impl TraceFile {
    /// Stamps a capture with provenance.
    pub fn new(scenario: Scenario, events: Vec<TraceEvent>) -> Self {
        Self {
            seed: scenario.seed,
            config_hash: config_hash(&scenario),
            git_rev: current_git_rev(),
            scenario,
            events,
        }
    }

    /// Serializes to the on-disk format.
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut out = Vec::new();
        out.extend_from_slice(&MAGIC);
        put_u64(&mut out, VERSION);
        put_u64(&mut out, self.seed);
        out.extend_from_slice(&self.config_hash.to_le_bytes());
        put_str(&mut out, &self.git_rev);
        self.scenario.encode(&mut out);
        codec::encode_events(&self.events, &mut out);
        let checksum = fnv1a64(&out);
        out.extend_from_slice(&checksum.to_le_bytes());
        out
    }

    /// Parses and fully verifies the on-disk format.
    pub fn from_bytes(bytes: &[u8]) -> Result<Self, TraceError> {
        // Fixed minimum: magic + version + seed + hash + trailer.
        if bytes.len() < MAGIC.len() + 1 + 1 + 8 + 8 {
            return Err(TraceError::TooShort);
        }
        let (content, trailer) = bytes.split_at(bytes.len() - 8);
        let stored = u64::from_le_bytes(trailer.try_into().expect("8-byte trailer"));
        let computed = fnv1a64(content);
        if stored != computed {
            return Err(TraceError::ChecksumMismatch { stored, computed });
        }
        if content[..MAGIC.len()] != MAGIC {
            return Err(TraceError::BadMagic);
        }
        let mut r = Reader::new(&content[MAGIC.len()..]);
        let version = r.u64()?;
        if version != VERSION {
            return Err(TraceError::BadVersion(version));
        }
        let seed = r.u64()?;
        let stored_hash = r.u64_le()?;
        let git_rev = r.str()?;
        let scenario = Scenario::decode(&mut r)?;
        let computed_hash = config_hash(&scenario);
        if stored_hash != computed_hash {
            return Err(TraceError::ConfigHashMismatch {
                stored: stored_hash,
                computed: computed_hash,
            });
        }
        let events = codec::decode_events(&mut r)?;
        if !r.is_empty() {
            return Err(TraceError::TrailingBytes { count: r.remaining() });
        }
        Ok(Self { seed, config_hash: stored_hash, git_rev, scenario, events })
    }

    /// Writes the serialized trace to `path`, creating parent directories.
    pub fn write(&self, path: &Path) -> Result<(), TraceError> {
        if let Some(parent) = path.parent() {
            std::fs::create_dir_all(parent)?;
        }
        std::fs::write(path, self.to_bytes())?;
        Ok(())
    }

    /// Reads and verifies a trace from `path`.
    pub fn read(path: &Path) -> Result<Self, TraceError> {
        Self::from_bytes(&std::fs::read(path)?)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use solver_service::{FlushReason, TraceEvent};

    fn sample() -> TraceFile {
        let scenario = Scenario::chaos(100);
        let events = vec![
            TraceEvent::Admit { at: 0, id: 0, n: 64 },
            TraceEvent::Flush { at: 200_000, n: 64, occupancy: 1, reason: FlushReason::Linger },
        ];
        TraceFile::new(scenario, events)
    }

    #[test]
    fn round_trips_bytes_exactly() {
        let trace = sample();
        let bytes = trace.to_bytes();
        let back = TraceFile::from_bytes(&bytes).unwrap();
        assert_eq!(back, trace);
        assert_eq!(back.to_bytes(), bytes, "re-encoding must be byte-stable");
    }

    #[test]
    fn every_single_byte_flip_is_detected() {
        let bytes = sample().to_bytes();
        for i in 0..bytes.len() {
            let mut corrupt = bytes.clone();
            corrupt[i] ^= 0x01;
            assert!(TraceFile::from_bytes(&corrupt).is_err(), "flipping byte {i} went unnoticed");
        }
    }

    #[test]
    fn truncation_at_every_prefix_errors_cleanly() {
        let bytes = sample().to_bytes();
        for cut in 0..bytes.len() {
            assert!(TraceFile::from_bytes(&bytes[..cut]).is_err(), "prefix of {cut} bytes loaded");
        }
    }

    #[test]
    fn bad_magic_and_version_are_distinguished() {
        // Corrupt the magic, then re-stamp a valid checksum so the failure
        // is attributed to the magic itself.
        let mut bytes = sample().to_bytes();
        bytes[0] = b'X';
        let len = bytes.len();
        let checksum = fnv1a64(&bytes[..len - 8]);
        bytes[len - 8..].copy_from_slice(&checksum.to_le_bytes());
        assert!(matches!(TraceFile::from_bytes(&bytes), Err(TraceError::BadMagic)));

        let mut bytes = sample().to_bytes();
        bytes[4] = 9; // version varint
        let len = bytes.len();
        let checksum = fnv1a64(&bytes[..len - 8]);
        bytes[len - 8..].copy_from_slice(&checksum.to_le_bytes());
        assert!(matches!(TraceFile::from_bytes(&bytes), Err(TraceError::BadVersion(9))));
    }

    #[test]
    fn a_version_1_trace_is_refused() {
        // Byte-identical layout, but captured under the lingering harness:
        // replaying it would diverge, so loading refuses it up front.
        let mut bytes = sample().to_bytes();
        assert_eq!(bytes[4], VERSION as u8);
        bytes[4] = 1;
        let len = bytes.len();
        let checksum = fnv1a64(&bytes[..len - 8]);
        bytes[len - 8..].copy_from_slice(&checksum.to_le_bytes());
        assert!(matches!(TraceFile::from_bytes(&bytes), Err(TraceError::BadVersion(1))));
    }

    #[test]
    fn writes_and_reads_through_the_filesystem() {
        let trace = sample();
        let dir = std::env::temp_dir().join("trace-lab-test");
        let path = dir.join("sample.trace");
        trace.write(&path).unwrap();
        assert_eq!(TraceFile::read(&path).unwrap(), trace);
        let _ = std::fs::remove_file(&path);
    }
}
