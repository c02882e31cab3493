//! Versioned binary checkpoint format for hosted sessions.
//!
//! The workspace has no serde (offline constraint), so the codec is
//! hand-rolled: fixed-width little-endian fields, `f64`s stored as raw IEEE
//! bits (the round trip must be **bit-exact** — a restored session has to
//! continue wave-for-wave identically), and a trailing word-wise FNV-1a
//! checksum over everything before it. Decoding is total: any truncation,
//! bad magic, unknown version, checksum mismatch, or inconsistent field
//! combination comes back as a typed [`SnapshotError`], never a panic.
//! The checksum is verified first, so a snapshot sealed by a version-1
//! build (byte-serial FNV-1a) fails as a checksum mismatch, and a
//! version-1 header under a valid checksum as
//! [`UnsupportedVersion`](SnapshotError::UnsupportedVersion).
//!
//! Decoding is `O(bytes)`: each sample is rebuilt with [`Sample::new`],
//! which defers its sorted index to first use, so a snapshot read only
//! for its counts never sorts.
//!
//! # Layout (version 2)
//!
//! All integers little-endian; `f64` as `to_bits()` little-endian.
//!
//! | field | type | notes |
//! |---|---|---|
//! | magic | 4 bytes | `b"RPSN"` |
//! | version | `u16` | currently 2 (1 sealed with byte-serial FNV-1a) |
//! | `p` | `u64` | algorithm count |
//! | `config.repetitions` | `u64` | |
//! | `config.parallelism.threads` | `u64` | stored, advisory: results never depend on it; the service decides a hosted `Score`'s threads |
//! | `config.parallelism.chunk` | `u64` | stored, advisory (as above) |
//! | reserved | `u8` | 0 written; 0 or 1 accepted (once a pair-schedule tag) |
//! | `seed` | `u64` | clustering seed |
//! | `criterion.stable_waves` | `u64` | |
//! | `criterion.score_tol` | `f64` | |
//! | `ingested` | `u8` | 0/1 |
//! | `dirty` | `p × u8` | 0/1 each |
//! | samples | `p ×` (`u8` present; if 1: `u64` len + `len × f64`) | insertion order |
//! | table present | `u8` | 0/1 |
//! | table (if present) | `u64` width + `u64` num_classes + `p × width × f64` | row-major score rows |
//! | `waves` | `u64` | |
//! | `stable_run` | `u64` | |
//! | `converged` | `u8` | 0/1 |
//! | RNG states | `u64` count + `count × 4 × u64` | per-placement xoshiro256++ words (campaigns; empty for bare sessions) |
//! | checksum | `u64` | word-wise FNV-1a 64 over all preceding bytes |
//!
//! The comparator is deliberately **not** serialized: it is code, not
//! data. A restore pairs the decoded state with the comparator the service
//! was built with, and the per-repetition comparison caches restart cold —
//! every cached outcome is a pure function of `(samples, stream)`, so the
//! first wave after a restore recomputes exactly what the warm caches
//! held.

use relperf_core::cluster::{ClusterConfig, Parallelism, ScoreTable};
use relperf_core::session::{ConvergenceCriterion, SessionState};
use relperf_measure::Sample;
use std::fmt;

/// The 4-byte magic prefix of every snapshot.
pub const MAGIC: [u8; 4] = *b"RPSN";

/// The current format version (version 1 sealed with byte-serial FNV-1a).
pub const VERSION: u16 = 2;

/// Everything a checkpoint carries: the session's data state plus the
/// configuration needed to rebuild it, plus the carried measurement RNG
/// states of a service-driven campaign (empty for bare sessions).
#[derive(Debug, Clone, PartialEq)]
pub struct SessionSnapshot {
    /// The session's clustering configuration.
    pub config: ClusterConfig,
    /// The session's clustering seed.
    pub seed: u64,
    /// The session's convergence criterion.
    pub criterion: ConvergenceCriterion,
    /// The exported data state (samples, table, convergence bookkeeping).
    pub state: SessionState,
    /// Per-placement measurement RNG states (xoshiro256++ words) for
    /// campaigns that draw their own measurements; empty otherwise.
    pub rng_states: Vec<[u64; 4]>,
}

/// Why a snapshot failed to decode.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SnapshotError {
    /// The byte stream ended before the field at `offset` could be read.
    Truncated {
        /// Offset of the first missing byte.
        offset: usize,
    },
    /// The magic prefix was not [`MAGIC`].
    BadMagic,
    /// The version field named a format this build does not read — an
    /// older one or a future one; the bytes are likely fine.
    UnsupportedVersion {
        /// Version found in the snapshot header.
        found: u16,
        /// The version this build reads and writes.
        supported: u16,
    },
    /// The trailing checksum did not match the content.
    ChecksumMismatch {
        /// Checksum stored in the snapshot.
        stored: u64,
        /// Checksum computed over the received bytes.
        computed: u64,
    },
    /// A field combination that checksums correctly but is semantically
    /// impossible (unknown enum tag, non-finite value, empty sample, …).
    Malformed(&'static str),
    /// Bytes left over after the checksum.
    TrailingBytes {
        /// How many bytes followed the checksum.
        extra: usize,
    },
}

impl fmt::Display for SnapshotError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SnapshotError::Truncated { offset } => {
                write!(f, "snapshot truncated at byte {offset}")
            }
            SnapshotError::BadMagic => write!(f, "not a session snapshot (bad magic)"),
            SnapshotError::UnsupportedVersion { found, supported } => write!(
                f,
                "snapshot version {found} is not supported (this build reads version {supported})"
            ),
            SnapshotError::ChecksumMismatch { stored, computed } => write!(
                f,
                "checksum mismatch: stored {stored:#018x}, computed {computed:#018x}"
            ),
            SnapshotError::Malformed(what) => write!(f, "malformed snapshot: {what}"),
            SnapshotError::TrailingBytes { extra } => {
                write!(f, "{extra} trailing byte(s) after the checksum")
            }
        }
    }
}

impl std::error::Error for SnapshotError {}

/// FNV-1a 64 offset basis: the checksum of the empty input, and the
/// starting `hash` of every fresh [`fnv1a64_words`].
pub(crate) const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;

/// The one checksum of every framed format (wire `RPWP`, journal `RPJL`,
/// snapshot `RPSN`, replication `SHIP`): FNV-1a 64 continued from `hash`
/// over the little-endian `u64` words of `bytes`, then over the 0–7 tail
/// bytes one at a time. Small, allocation-free, and plenty for integrity
/// checking of checkpoints and frames (this is corruption detection, not
/// cryptographic authentication).
///
/// Each step `h ↦ (h ^ w)·P` is a bijection (`P` is odd), both of `h`
/// for a fixed word `w` and of `w` for a fixed `h`, so a single-bit change
/// anywhere in `bytes` always changes the result. Taking a word per step
/// keeps the serial xor-multiply chain to one link per 8 bytes.
///
/// It is **not** byte-streamable: `f(f(s, x), y) == f(s, x ∥ y)` holds
/// only when `x.len() % 8 == 0`. Replication's cumulative digest chains
/// it per segment — on the shipper and the follower alike — so both ends
/// agree segment by segment.
pub(crate) fn fnv1a64_words(mut hash: u64, bytes: &[u8]) -> u64 {
    const PRIME: u64 = 0x0000_0100_0000_01b3;
    let mut words = bytes.chunks_exact(8);
    for word in &mut words {
        hash ^= u64::from_le_bytes(word.try_into().expect("8 bytes"));
        hash = hash.wrapping_mul(PRIME);
    }
    for &b in words.remainder() {
        hash ^= u64::from(b);
        hash = hash.wrapping_mul(PRIME);
    }
    hash
}

/// The little-endian byte sink shared by the snapshot codec and the wire
/// protocol — both speak the same framing dialect (LE integers, `f64` as
/// raw bits, a [`fnv1a64_words`] trailer).
pub(crate) struct Writer {
    pub(crate) buf: Vec<u8>,
}

impl Writer {
    pub(crate) fn u8(&mut self, v: u8) {
        self.buf.push(v);
    }
    pub(crate) fn u16(&mut self, v: u16) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }
    pub(crate) fn u32(&mut self, v: u32) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }
    pub(crate) fn u64(&mut self, v: u64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }
    pub(crate) fn f64(&mut self, v: f64) {
        self.u64(v.to_bits());
    }
    /// A `u64` length, then each value as [`f64`](Writer::f64) writes it.
    pub(crate) fn f64s(&mut self, values: &[f64]) {
        self.u64(values.len() as u64);
        self.buf.reserve(values.len() * 8);
        for &v in values {
            self.f64(v);
        }
    }
    pub(crate) fn flag(&mut self, v: bool) {
        self.u8(v as u8);
    }
}

/// The bounds-checked little-endian reader shared with the wire protocol.
/// Every accessor is total: running off the end or hitting an impossible
/// tag is a typed [`SnapshotError`], never a panic.
pub(crate) struct Reader<'a> {
    pub(crate) bytes: &'a [u8],
    pub(crate) pos: usize,
}

impl<'a> Reader<'a> {
    pub(crate) fn take(&mut self, n: usize) -> Result<&'a [u8], SnapshotError> {
        if self.pos + n > self.bytes.len() {
            return Err(SnapshotError::Truncated { offset: self.pos });
        }
        let slice = &self.bytes[self.pos..self.pos + n];
        self.pos += n;
        Ok(slice)
    }
    pub(crate) fn u8(&mut self) -> Result<u8, SnapshotError> {
        Ok(self.take(1)?[0])
    }
    pub(crate) fn u16(&mut self) -> Result<u16, SnapshotError> {
        Ok(u16::from_le_bytes(self.take(2)?.try_into().expect("2 bytes")))
    }
    pub(crate) fn u32(&mut self) -> Result<u32, SnapshotError> {
        Ok(u32::from_le_bytes(self.take(4)?.try_into().expect("4 bytes")))
    }
    pub(crate) fn u64(&mut self) -> Result<u64, SnapshotError> {
        Ok(u64::from_le_bytes(self.take(8)?.try_into().expect("8 bytes")))
    }
    pub(crate) fn f64(&mut self) -> Result<f64, SnapshotError> {
        Ok(f64::from_bits(self.u64()?))
    }
    /// What [`Writer::f64s`] wrote: one length check covers every value,
    /// which then decode straight from the byte slice.
    pub(crate) fn f64s(&mut self) -> Result<Vec<f64>, SnapshotError> {
        let len = self.len(8)?;
        let bytes = self.take(len * 8)?;
        Ok(bytes
            .chunks_exact(8)
            .map(|b| f64::from_bits(u64::from_le_bytes(b.try_into().expect("8 bytes"))))
            .collect())
    }
    pub(crate) fn flag(&mut self, what: &'static str) -> Result<bool, SnapshotError> {
        match self.u8()? {
            0 => Ok(false),
            1 => Ok(true),
            _ => Err(SnapshotError::Malformed(what)),
        }
    }
    /// A length that must still fit in the remaining bytes if each element
    /// occupies at least `elem_size` bytes — rejects absurd lengths before
    /// any allocation.
    pub(crate) fn len(&mut self, elem_size: usize) -> Result<usize, SnapshotError> {
        let n = self.u64()?;
        let remaining = (self.bytes.len() - self.pos) as u64;
        if n.saturating_mul(elem_size as u64) > remaining {
            return Err(SnapshotError::Truncated { offset: self.pos });
        }
        Ok(n as usize)
    }
}

/// Writes a [`ClusterConfig`] in the layout the snapshot and the wire
/// `SessionSpec` share: `repetitions`, `threads` and `chunk` as `u64`,
/// then one reserved byte. The byte once tagged a pair schedule; both
/// schedules gave bit-identical tables, so it is written as 0 and
/// [`dec_config`] accepts 0 or 1.
pub(crate) fn enc_config(w: &mut Writer, c: &ClusterConfig) {
    w.u64(c.repetitions as u64);
    w.u64(c.parallelism.threads as u64);
    w.u64(c.parallelism.chunk as u64);
    w.u8(0);
}

/// Reads a [`ClusterConfig`] written by [`enc_config`] (or by an older
/// build that could write 1 in the reserved byte).
pub(crate) fn dec_config(r: &mut Reader) -> Result<ClusterConfig, SnapshotError> {
    let repetitions = r.u64()? as usize;
    let threads = r.u64()? as usize;
    let chunk = r.u64()? as usize;
    if r.u8()? > 1 {
        return Err(SnapshotError::Malformed("unknown pair schedule"));
    }
    Ok(ClusterConfig {
        repetitions,
        parallelism: Parallelism { threads, chunk },
    })
}

/// Serializes a snapshot (format version [`VERSION`]).
pub fn encode(snapshot: &SessionSnapshot) -> Vec<u8> {
    let state = &snapshot.state;
    let p = state.samples.len();
    assert_eq!(state.dirty.len(), p, "dirty flags must cover every algorithm");
    let mut w = Writer { buf: Vec::new() };
    w.buf.extend_from_slice(&MAGIC);
    w.u16(VERSION);
    w.u64(p as u64);
    enc_config(&mut w, &snapshot.config);
    w.u64(snapshot.seed);
    w.u64(snapshot.criterion.stable_waves as u64);
    w.f64(snapshot.criterion.score_tol);
    w.flag(state.ingested);
    for &d in &state.dirty {
        w.flag(d);
    }
    for sample in &state.samples {
        match sample {
            None => w.flag(false),
            Some(s) => {
                w.flag(true);
                w.f64s(s.values());
            }
        }
    }
    match &state.table {
        None => w.flag(false),
        Some(table) => {
            w.flag(true);
            let rows = table.score_rows();
            w.u64(rows[0].len() as u64);
            w.u64(table.num_classes() as u64);
            for row in rows {
                for &s in row {
                    w.f64(s);
                }
            }
        }
    }
    w.u64(state.waves as u64);
    w.u64(state.stable_run as u64);
    w.flag(state.converged);
    w.u64(snapshot.rng_states.len() as u64);
    for s in &snapshot.rng_states {
        for &word in s {
            w.u64(word);
        }
    }
    let checksum = fnv1a64_words(FNV_OFFSET, &w.buf);
    w.u64(checksum);
    w.buf
}

/// Deserializes a snapshot, validating magic, version, checksum, and every
/// semantic invariant the session layer relies on.
pub fn decode(bytes: &[u8]) -> Result<SessionSnapshot, SnapshotError> {
    if bytes.len() < MAGIC.len() + 2 + 8 {
        return Err(SnapshotError::Truncated {
            offset: bytes.len(),
        });
    }
    // Checksum first: everything after it is garbage-in detection.
    let body_len = bytes.len() - 8;
    let stored = u64::from_le_bytes(bytes[body_len..].try_into().expect("8 bytes"));
    let computed = fnv1a64_words(FNV_OFFSET, &bytes[..body_len]);
    if stored != computed {
        return Err(SnapshotError::ChecksumMismatch { stored, computed });
    }
    let mut r = Reader {
        bytes: &bytes[..body_len],
        pos: 0,
    };
    if r.take(MAGIC.len())? != MAGIC {
        return Err(SnapshotError::BadMagic);
    }
    let version = r.u16()?;
    if version != VERSION {
        return Err(SnapshotError::UnsupportedVersion {
            found: version,
            supported: VERSION,
        });
    }
    let p = r.len(2)?; // ≥ 1 dirty byte + 1 sample-presence byte each
    if p == 0 {
        return Err(SnapshotError::Malformed("zero algorithms"));
    }
    let config = dec_config(&mut r)?;
    if config.repetitions == 0 {
        return Err(SnapshotError::Malformed("zero repetitions"));
    }
    let seed = r.u64()?;
    let criterion = ConvergenceCriterion {
        stable_waves: r.u64()? as usize,
        score_tol: r.f64()?,
    };
    if criterion.try_validate().is_err() {
        return Err(SnapshotError::Malformed("invalid convergence criterion"));
    }
    let ingested = r.flag("ingested flag")?;
    let mut dirty = Vec::with_capacity(p);
    for _ in 0..p {
        dirty.push(r.flag("dirty flag")?);
    }
    let mut samples = Vec::with_capacity(p);
    for _ in 0..p {
        if !r.flag("sample presence flag")? {
            samples.push(None);
            continue;
        }
        let values = r.f64s()?;
        if values.is_empty() {
            return Err(SnapshotError::Malformed("empty sample"));
        }
        // `Sample::new` validates the values and defers the sorted index
        // to first use; the index is a pure function of the values, so the
        // restored sample is bit-identical to the exported one (the
        // `Sample` growth contract) and decoding stays O(bytes).
        let sample =
            Sample::new(values).map_err(|_| SnapshotError::Malformed("non-finite sample value"))?;
        samples.push(Some(sample));
    }
    let table = if r.flag("table presence flag")? {
        let width = r.len(8)?;
        let max_rank = r.u64()? as usize;
        if max_rank > width {
            return Err(SnapshotError::Malformed("num_classes exceeds row width"));
        }
        if width == 0 {
            return Err(SnapshotError::Malformed("zero-width score rows"));
        }
        let mut rows = Vec::with_capacity(p);
        for _ in 0..p {
            let mut row = Vec::with_capacity(width);
            for _ in 0..width {
                let s = r.f64()?;
                if !s.is_finite() {
                    return Err(SnapshotError::Malformed("non-finite score"));
                }
                row.push(s);
            }
            rows.push(row);
        }
        Some(ScoreTable::from_rows(rows, max_rank))
    } else {
        None
    };
    let waves = r.u64()? as usize;
    let stable_run = r.u64()? as usize;
    let converged = r.flag("converged flag")?;
    let rng_count = r.len(32)?;
    let mut rng_states = Vec::with_capacity(rng_count);
    for _ in 0..rng_count {
        let mut s = [0u64; 4];
        for word in &mut s {
            *word = r.u64()?;
        }
        if s == [0, 0, 0, 0] {
            return Err(SnapshotError::Malformed("all-zero RNG state"));
        }
        rng_states.push(s);
    }
    if r.pos != body_len {
        return Err(SnapshotError::TrailingBytes {
            extra: body_len - r.pos,
        });
    }
    Ok(SessionSnapshot {
        config,
        seed,
        criterion,
        state: SessionState {
            samples,
            dirty,
            ingested,
            table,
            waves,
            stable_run,
            converged,
        },
        rng_states,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample(values: &[f64]) -> Option<Sample> {
        Some(Sample::new(values.to_vec()).unwrap())
    }

    fn snapshot() -> SessionSnapshot {
        SessionSnapshot {
            config: ClusterConfig {
                repetitions: 30,
                parallelism: Parallelism { threads: 3, chunk: 7 },
            },
            seed: 0xDEAD_BEEF,
            criterion: ConvergenceCriterion {
                stable_waves: 2,
                score_tol: 0.05,
            },
            state: SessionState {
                samples: vec![sample(&[3.0, 1.0, 2.0]), None, sample(&[0.5])],
                dirty: vec![true, false, true],
                ingested: true,
                table: Some(ScoreTable::from_rows(
                    vec![
                        vec![1.0, 0.0, 0.0],
                        vec![0.25, 0.75, 0.0],
                        vec![0.0, 0.5, 0.5],
                    ],
                    3,
                )),
                waves: 4,
                stable_run: 1,
                converged: false,
            },
            rng_states: vec![[1, 2, 3, 4], [u64::MAX, 9, 8, 7]],
        }
    }

    #[test]
    fn round_trip_is_bit_exact() {
        let snap = snapshot();
        let decoded = decode(&encode(&snap)).unwrap();
        assert_eq!(decoded, snap);
        // Insertion order (not just the multiset) must survive.
        assert_eq!(
            decoded.state.samples[0].as_ref().unwrap().values(),
            &[3.0, 1.0, 2.0]
        );
    }

    #[test]
    fn round_trip_without_table_or_rngs() {
        let mut snap = snapshot();
        snap.state.table = None;
        snap.rng_states.clear();
        assert_eq!(decode(&encode(&snap)).unwrap(), snap);
    }

    #[test]
    fn every_single_byte_corruption_is_detected() {
        let bytes = encode(&snapshot());
        for i in 0..bytes.len() {
            let mut corrupt = bytes.clone();
            corrupt[i] ^= 0x40;
            assert!(
                decode(&corrupt).is_err(),
                "flipping byte {i} went undetected"
            );
        }
    }

    #[test]
    fn truncations_are_detected() {
        let bytes = encode(&snapshot());
        for cut in [0, 3, 6, bytes.len() / 2, bytes.len() - 1] {
            assert!(decode(&bytes[..cut]).is_err(), "cut at {cut} accepted");
        }
    }

    #[test]
    fn trailing_bytes_rejected() {
        let mut bytes = encode(&snapshot());
        bytes.extend_from_slice(&[0u8; 3]);
        // Appending after the checksum breaks the checksum position, which
        // reads garbage — either error is fine, but it must not decode.
        assert!(decode(&bytes).is_err());
    }

    /// Decodes the test snapshot with byte `at` set to `value` and the
    /// checksum fixed up, so only that field itself is wrong.
    fn decode_patched(at: usize, value: u8) -> Result<SessionSnapshot, SnapshotError> {
        let mut bytes = encode(&snapshot());
        bytes[at] = value;
        let n = bytes.len() - 8;
        let sum = fnv1a64_words(FNV_OFFSET, &bytes[..n]);
        bytes[n..].copy_from_slice(&sum.to_le_bytes());
        decode(&bytes)
    }

    #[test]
    fn wrong_magic_and_version_rejected() {
        assert_eq!(decode_patched(0, b'X').unwrap_err(), SnapshotError::BadMagic);
        assert_eq!(
            decode_patched(4, 99).unwrap_err(),
            SnapshotError::UnsupportedVersion {
                found: 99,
                supported: super::VERSION
            }
        );
    }

    /// A version-1 header under a valid checksum is refused as a typed
    /// `UnsupportedVersion`, never as a checksum mismatch.
    #[test]
    fn version_one_snapshot_is_refused_typed() {
        assert_eq!(
            decode_patched(4, 1).unwrap_err(),
            SnapshotError::UnsupportedVersion {
                found: 1,
                supported: 2
            }
        );
    }

    /// The frame checksum's contract: a single-bit flip anywhere in a
    /// buffer changes it, at every length 0..=40 — so the word body, the
    /// byte tail and the boundary between them are all covered.
    #[test]
    fn checksum_catches_every_single_bit_flip() {
        for len in 0..=40usize {
            let buf: Vec<u8> = (0..len)
                .map(|i| (i as u8).wrapping_mul(151) ^ 0x3C)
                .collect();
            let sum = fnv1a64_words(FNV_OFFSET, &buf);
            for bit in 0..len * 8 {
                let mut flipped = buf.clone();
                flipped[bit / 8] ^= 1 << (bit % 8);
                assert_ne!(
                    fnv1a64_words(FNV_OFFSET, &flipped),
                    sum,
                    "length {len}: flipping bit {bit} kept the checksum"
                );
            }
        }
        assert_eq!(fnv1a64_words(FNV_OFFSET, &[]), FNV_OFFSET);
        // Chaining equals one pass only across a word boundary.
        let (x, y) = ([7u8; 16], [9u8; 5]);
        let whole: Vec<u8> = x.iter().chain(&y).copied().collect();
        assert_eq!(
            fnv1a64_words(fnv1a64_words(FNV_OFFSET, &x), &y),
            fnv1a64_words(FNV_OFFSET, &whole)
        );
    }

    /// The config's reserved byte once tagged a pair schedule: a 1 written
    /// by an older build decodes to the same snapshot as the 0 written
    /// now, and the restored sessions score bit-identically.
    #[test]
    fn reserved_config_byte_accepts_legacy_one() {
        // magic, version, p, repetitions, threads, chunk
        const RESERVED: usize = 4 + 2 + 4 * 8;
        assert_eq!(encode(&snapshot())[RESERVED], 0, "encoders write 0");
        let current = decode_patched(RESERVED, 0).unwrap();
        let legacy = decode_patched(RESERVED, 1).unwrap();
        assert_eq!(legacy, current);
        assert_eq!(
            decode_patched(RESERVED, 2).unwrap_err(),
            SnapshotError::Malformed("unknown pair schedule")
        );

        let score = |snap: SessionSnapshot| {
            let mut session = relperf_core::session::ClusterSession::restore(
                relperf_measure::compare::MedianComparator::new(0.05),
                snap.config,
                snap.seed,
                snap.criterion,
                snap.state,
            );
            session.extend(1, &[2.0, 2.5]).unwrap();
            session.score().clone()
        };
        assert_eq!(score(legacy), score(current));
    }

    #[test]
    fn error_display_is_informative() {
        assert!(SnapshotError::BadMagic.to_string().contains("magic"));
        assert!(SnapshotError::Truncated { offset: 9 }.to_string().contains('9'));
        assert!(SnapshotError::Malformed("x").to_string().contains('x'));
    }
}
