//! Versioned, CRC-checked solver checkpoints.
//!
//! A PCG iteration is fully described by a handful of vectors and scalars
//! (§"Checkpoint/resume" of DESIGN.md): the iterate `x`, the residual `r`,
//! the search direction `p`, the scalar `rᵀz`, the initial residual norm
//! used by the divergence guard, and the residual history. With a fault
//! plan armed, the injector's RNG cursor and counters ride along so a
//! resumed run replays the *same* fault stream — making resume bit-identical
//! to an uninterrupted solve, faults and all.
//!
//! The wire format is deliberately boring: a fixed magic, a format version,
//! little-endian fixed-width integers, `f64` values as raw IEEE-754 bits
//! (bit-exactness survives the round trip by construction), and a trailing
//! CRC-32 over everything before it. Decoding is total: corrupted or
//! truncated bytes produce a typed [`CheckpointError`], never a panic, and
//! length fields are validated against the remaining payload before any
//! allocation.

use std::fmt;
#[cfg(test)]
use std::fs;
use std::io;
use std::path::{Path, PathBuf};

use crate::storage::{self, RealStorage, StorageIo};
use alrescha_obs::crc32;
use alrescha_sim::InjectorSnapshot;

/// File magic: "ALCK" (ALrescha ChecKpoint).
const MAGIC: [u8; 4] = *b"ALCK";
/// Current wire-format version.
const VERSION: u32 = 1;

/// Which solver produced a checkpoint (resuming into the wrong solver is a
/// typed error, not a silent wrong answer).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SolverKind {
    /// [`AcceleratedPcg`](crate::solver::AcceleratedPcg) — SymGS-preconditioned CG.
    Pcg,
    /// [`AcceleratedMgPcg`](crate::solver::AcceleratedMgPcg) — V-cycle-preconditioned CG.
    MgPcg,
}

impl SolverKind {
    fn tag(self) -> u8 {
        match self {
            SolverKind::Pcg => 0,
            SolverKind::MgPcg => 1,
        }
    }

    fn from_tag(tag: u8) -> Option<Self> {
        match tag {
            0 => Some(SolverKind::Pcg),
            1 => Some(SolverKind::MgPcg),
            _ => None,
        }
    }
}

/// Errors raised while decoding or validating a checkpoint.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[non_exhaustive]
pub enum CheckpointError {
    /// The bytes do not start with the `ALCK` magic.
    BadMagic,
    /// The format version is newer than this build understands.
    UnsupportedVersion(u32),
    /// The byte stream ends before the advertised payload.
    Truncated {
        /// Bytes the decoder needed next.
        needed: usize,
        /// Bytes actually remaining.
        got: usize,
    },
    /// The trailing CRC-32 does not match the payload.
    CrcMismatch {
        /// Checksum stored in the trailer.
        stored: u32,
        /// Checksum recomputed over the payload.
        computed: u32,
    },
    /// A field holds a value the format forbids (unknown solver tag,
    /// implausible length).
    Malformed(&'static str),
    /// A structurally valid checkpoint does not belong to the resuming
    /// solver (wrong kind, wrong problem size, wrong right-hand side).
    Mismatch {
        /// Which field disagreed.
        field: &'static str,
    },
}

impl fmt::Display for CheckpointError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CheckpointError::BadMagic => write!(f, "not a checkpoint: bad magic"),
            CheckpointError::UnsupportedVersion(v) => {
                write!(f, "unsupported checkpoint version {v} (this build reads {VERSION})")
            }
            CheckpointError::Truncated { needed, got } => {
                write!(f, "truncated checkpoint: needed {needed} more bytes, found {got}")
            }
            CheckpointError::CrcMismatch { stored, computed } => {
                write!(
                    f,
                    "checkpoint CRC mismatch: stored {stored:#010x}, computed {computed:#010x}"
                )
            }
            CheckpointError::Malformed(what) => write!(f, "malformed checkpoint: {what}"),
            CheckpointError::Mismatch { field } => {
                write!(f, "checkpoint does not match this solve: {field} disagrees")
            }
        }
    }
}

impl std::error::Error for CheckpointError {}

/// Snapshot of a PCG/MG-PCG solve at the end of one iteration.
///
/// Captured by
/// [`AcceleratedPcg::solve_with_checkpoints`](crate::solver::AcceleratedPcg::solve_with_checkpoints)
/// and consumed by [`AcceleratedPcg::resume`](crate::solver::AcceleratedPcg::resume);
/// [`SolverCheckpoint::to_bytes`] / [`SolverCheckpoint::from_bytes`] move it
/// through durable storage.
#[derive(Debug, Clone, PartialEq)]
pub struct SolverCheckpoint {
    /// Which solver wrote this checkpoint.
    pub kind: SolverKind,
    /// Problem size.
    pub n: usize,
    /// Completed iterations when the checkpoint was taken.
    pub iteration: usize,
    /// Current iterate.
    pub x: Vec<f64>,
    /// Current residual `b − A·x`.
    pub r: Vec<f64>,
    /// Current search direction.
    pub p: Vec<f64>,
    /// Current `rᵀz` scalar.
    pub rz: f64,
    /// Initial residual norm (anchors the divergence guard).
    pub r0: f64,
    /// Residual norm after each completed iteration (`1..=iteration`).
    pub residual_history: Vec<f64>,
    /// Fault-injector cursor at the checkpoint boundary, when a plan was
    /// armed — restoring it replays the identical fault stream.
    pub fault: Option<InjectorSnapshot>,
}

struct Reader<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> Reader<'a> {
    fn take(&mut self, len: usize) -> Result<&'a [u8], CheckpointError> {
        let got = self.bytes.len() - self.pos;
        if got < len {
            return Err(CheckpointError::Truncated { needed: len, got });
        }
        let out = &self.bytes[self.pos..self.pos + len];
        self.pos += len;
        Ok(out)
    }

    fn u8(&mut self) -> Result<u8, CheckpointError> {
        Ok(self.take(1)?[0])
    }

    fn u32(&mut self) -> Result<u32, CheckpointError> {
        let b = self.take(4)?;
        Ok(u32::from_le_bytes([b[0], b[1], b[2], b[3]]))
    }

    fn u64(&mut self) -> Result<u64, CheckpointError> {
        let b = self.take(8)?;
        let mut a = [0u8; 8];
        a.copy_from_slice(b);
        Ok(u64::from_le_bytes(a))
    }

    fn f64(&mut self) -> Result<f64, CheckpointError> {
        Ok(f64::from_bits(self.u64()?))
    }

    /// Reads a length-prefixed vector of `f64` bit patterns. The length is
    /// validated against the bytes actually remaining *before* allocating,
    /// so a corrupted length field cannot request an absurd allocation.
    fn f64_vec(&mut self) -> Result<Vec<f64>, CheckpointError> {
        let len = self.u64()?;
        let remaining = self.bytes.len() - self.pos;
        let len = usize::try_from(len).map_err(|_| CheckpointError::Malformed("vector length"))?;
        let needed = len
            .checked_mul(8)
            .ok_or(CheckpointError::Malformed("vector length"))?;
        if needed > remaining {
            return Err(CheckpointError::Truncated {
                needed,
                got: remaining,
            });
        }
        let mut out = Vec::with_capacity(len);
        for _ in 0..len {
            out.push(self.f64()?);
        }
        Ok(out)
    }
}

fn put_u64(out: &mut Vec<u8>, v: u64) {
    out.extend_from_slice(&v.to_le_bytes());
}

fn put_f64_vec(out: &mut Vec<u8>, v: &[f64]) {
    put_u64(out, v.len() as u64);
    for &value in v {
        put_u64(out, value.to_bits());
    }
}

impl SolverCheckpoint {
    /// Serializes to the versioned wire format with a trailing CRC-32.
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(64 + 8 * (self.x.len() + self.r.len() + self.p.len()));
        out.extend_from_slice(&MAGIC);
        out.extend_from_slice(&VERSION.to_le_bytes());
        out.push(self.kind.tag());
        out.push(u8::from(self.fault.is_some()));
        put_u64(&mut out, self.n as u64);
        put_u64(&mut out, self.iteration as u64);
        put_u64(&mut out, self.rz.to_bits());
        put_u64(&mut out, self.r0.to_bits());
        if let Some(fault) = &self.fault {
            put_u64(&mut out, fault.rng_state);
            put_u64(&mut out, fault.cycle);
            put_u64(&mut out, fault.counters.injected);
            put_u64(&mut out, fault.counters.detected);
            put_u64(&mut out, fault.counters.recovered);
            put_u64(&mut out, fault.counters.retries);
            put_u64(&mut out, fault.counters.degraded);
        }
        put_f64_vec(&mut out, &self.x);
        put_f64_vec(&mut out, &self.r);
        put_f64_vec(&mut out, &self.p);
        put_f64_vec(&mut out, &self.residual_history);
        let crc = crc32(&out);
        out.extend_from_slice(&crc.to_le_bytes());
        out
    }

    /// Decodes and validates a checkpoint.
    ///
    /// # Errors
    ///
    /// Every malformation is a typed [`CheckpointError`]; this function
    /// never panics on arbitrary input.
    pub fn from_bytes(bytes: &[u8]) -> Result<Self, CheckpointError> {
        if bytes.len() < 4 + 4 + 4 {
            return Err(CheckpointError::Truncated {
                needed: 12,
                got: bytes.len(),
            });
        }
        // The CRC trailer covers everything before it; verify first so every
        // later error means "well-formed prefix, genuinely bad field".
        let (payload, trailer) = bytes.split_at(bytes.len() - 4);
        let stored = u32::from_le_bytes([trailer[0], trailer[1], trailer[2], trailer[3]]);
        let computed = crc32(payload);
        if payload[..4] != MAGIC {
            return Err(CheckpointError::BadMagic);
        }
        if stored != computed {
            return Err(CheckpointError::CrcMismatch { stored, computed });
        }

        let mut rd = Reader {
            bytes: payload,
            pos: 4,
        };
        let version = rd.u32()?;
        if version != VERSION {
            return Err(CheckpointError::UnsupportedVersion(version));
        }
        let kind = SolverKind::from_tag(rd.u8()?)
            .ok_or(CheckpointError::Malformed("unknown solver kind"))?;
        let has_fault = match rd.u8()? {
            0 => false,
            1 => true,
            _ => return Err(CheckpointError::Malformed("fault flag")),
        };
        let n = usize::try_from(rd.u64()?)
            .map_err(|_| CheckpointError::Malformed("problem size"))?;
        let iteration = usize::try_from(rd.u64()?)
            .map_err(|_| CheckpointError::Malformed("iteration count"))?;
        let rz = rd.f64()?;
        let r0 = rd.f64()?;
        let fault = if has_fault {
            Some(InjectorSnapshot {
                rng_state: rd.u64()?,
                cycle: rd.u64()?,
                counters: alrescha_sim::FaultCounters {
                    injected: rd.u64()?,
                    detected: rd.u64()?,
                    recovered: rd.u64()?,
                    retries: rd.u64()?,
                    degraded: rd.u64()?,
                },
            })
        } else {
            None
        };
        let x = rd.f64_vec()?;
        let r = rd.f64_vec()?;
        let p = rd.f64_vec()?;
        let residual_history = rd.f64_vec()?;
        if rd.pos != payload.len() {
            return Err(CheckpointError::Malformed("trailing bytes after payload"));
        }
        if x.len() != n || r.len() != n || p.len() != n {
            return Err(CheckpointError::Malformed("vector length disagrees with n"));
        }
        Ok(SolverCheckpoint {
            kind,
            n,
            iteration,
            x,
            r,
            p,
            rz,
            r0,
            residual_history,
            fault,
        })
    }

    /// Writes the checkpoint to `path` **atomically and durably**: the
    /// encoded bytes go to a temporary sibling file first, that file is
    /// fsynced, and only then is it renamed over `path` (rename within one
    /// directory is atomic on POSIX filesystems). A crash at any instant
    /// therefore leaves either the previous checkpoint or the new one —
    /// never a torn mixture — and [`SolverCheckpoint::read_from_path`]
    /// additionally rejects any torn image via the CRC trailer.
    ///
    /// # Errors
    ///
    /// Filesystem errors (the temporary file is cleaned up best-effort on
    /// failure).
    pub fn write_to_path(&self, path: &Path) -> io::Result<()> {
        write_atomic(path, &self.to_bytes())
    }

    /// [`SolverCheckpoint::write_to_path`] through an injectable
    /// [`StorageIo`] — the entry point the chaos harness drives.
    ///
    /// # Errors
    ///
    /// Filesystem errors, including injected ones.
    pub fn write_to_path_with(&self, io: &dyn StorageIo, path: &Path) -> io::Result<()> {
        write_atomic_with(io, path, &self.to_bytes())
    }

    /// Reads and decodes a checkpoint written by
    /// [`SolverCheckpoint::write_to_path`].
    ///
    /// # Errors
    ///
    /// Filesystem errors, or [`io::ErrorKind::InvalidData`] wrapping the
    /// [`CheckpointError`] when the bytes fail validation (torn write,
    /// corruption, foreign file).
    pub fn read_from_path(path: &Path) -> io::Result<Self> {
        SolverCheckpoint::read_from_path_with(&RealStorage, path)
    }

    /// [`SolverCheckpoint::read_from_path`] through an injectable
    /// [`StorageIo`]. A transient read-side bit flip fails the CRC and is
    /// absorbed by re-reading; only a *stable* anomaly (the same bad bytes
    /// twice in a row) is reported as corruption.
    ///
    /// # Errors
    ///
    /// Filesystem errors, or [`io::ErrorKind::InvalidData`] wrapping the
    /// [`CheckpointError`] when the bytes fail validation (torn write,
    /// corruption, foreign file).
    pub fn read_from_path_with(io: &dyn StorageIo, path: &Path) -> io::Result<Self> {
        let mut last_err = None;
        let mut prev_bytes: Option<Vec<u8>> = None;
        for _ in 0..READ_RETRY_LIMIT {
            let bytes = io.read(path)?;
            match SolverCheckpoint::from_bytes(&bytes) {
                Ok(cp) => return Ok(cp),
                Err(e) => {
                    let stable = prev_bytes.as_deref() == Some(bytes.as_slice());
                    prev_bytes = Some(bytes);
                    last_err = Some(io::Error::new(io::ErrorKind::InvalidData, e));
                    if stable {
                        break;
                    }
                }
            }
        }
        Err(last_err.unwrap_or_else(|| io::Error::other("checkpoint read retries exhausted")))
    }
}

/// Consecutive whole-file reads attempted before a CRC anomaly is treated
/// as stable (on-disk) corruption rather than a transient read fault.
const READ_RETRY_LIMIT: usize = 8;

/// The temporary sibling used by [`write_atomic`] for `path`.
fn tmp_sibling(path: &Path) -> PathBuf {
    let mut name = path.file_name().unwrap_or_default().to_os_string();
    name.push(".tmp");
    path.with_file_name(name)
}

/// Atomically and durably replaces the contents of `path` with `bytes`:
/// write to a `.tmp` sibling, fsync it, rename it over `path`, fsync the
/// parent directory so the rename itself survives a power cut. Readers
/// never observe a partially written file.
pub fn write_atomic(path: &Path, bytes: &[u8]) -> io::Result<()> {
    write_atomic_with(&RealStorage, path, bytes)
}

/// [`write_atomic`] through an injectable [`StorageIo`]. The rename is the
/// commit point: any failure before it (short write, `ENOSPC`, failed
/// fsync) aborts the replacement, removes the torn `.tmp` sibling, and
/// leaves the previous contents of `path` untouched.
///
/// # Errors
///
/// Filesystem errors, including injected ones.
pub fn write_atomic_with(io: &dyn StorageIo, path: &Path, bytes: &[u8]) -> io::Result<()> {
    let tmp = tmp_sibling(path);
    let result = (|| {
        let mut file = io.create(&tmp)?;
        storage::write_all(file.as_mut(), bytes)?;
        file.sync()?;
        drop(file);
        io.rename(&tmp, path)?;
        // Persist the directory entry; platforms that cannot fsync a
        // directory handle still performed the atomic rename above.
        io.sync_parent_dir(path)?;
        Ok(())
    })();
    if result.is_err() {
        let _ = io.remove_file(&tmp);
    }
    result
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample(fault: bool) -> SolverCheckpoint {
        SolverCheckpoint {
            kind: SolverKind::Pcg,
            n: 3,
            iteration: 7,
            x: vec![1.0, -2.5, 3.25],
            r: vec![0.5, 0.0, -0.125],
            p: vec![-1.0, 2.0, f64::MIN_POSITIVE],
            rz: 0.375,
            r0: 12.5,
            residual_history: vec![10.0, 5.0, 2.5],
            fault: fault.then_some(InjectorSnapshot {
                rng_state: 0xDEAD_BEEF_CAFE_F00D,
                cycle: 424242,
                counters: alrescha_sim::FaultCounters {
                    injected: 5,
                    detected: 4,
                    recovered: 3,
                    retries: 2,
                    degraded: 1,
                },
            }),
        }
    }

    #[test]
    fn round_trip_is_bit_exact() {
        for fault in [false, true] {
            let cp = sample(fault);
            let decoded = SolverCheckpoint::from_bytes(&cp.to_bytes()).unwrap();
            assert_eq!(cp, decoded);
            // Bit exactness, not approximate equality.
            for (a, b) in cp.x.iter().zip(&decoded.x) {
                assert_eq!(a.to_bits(), b.to_bits());
            }
        }
    }

    #[test]
    fn single_byte_corruption_is_detected() {
        let bytes = sample(true).to_bytes();
        for i in 0..bytes.len() {
            let mut bad = bytes.clone();
            bad[i] ^= 0x40;
            assert!(
                SolverCheckpoint::from_bytes(&bad).is_err(),
                "flip at byte {i} went undetected"
            );
        }
    }

    #[test]
    fn truncation_is_detected_at_every_length() {
        let bytes = sample(false).to_bytes();
        for len in 0..bytes.len() {
            assert!(
                SolverCheckpoint::from_bytes(&bytes[..len]).is_err(),
                "truncation to {len} bytes went undetected"
            );
        }
    }

    #[test]
    fn bad_magic_is_a_typed_error() {
        let mut bytes = sample(false).to_bytes();
        bytes[0] = b'X';
        assert_eq!(
            SolverCheckpoint::from_bytes(&bytes),
            Err(CheckpointError::BadMagic)
        );
    }

    #[test]
    fn future_version_is_rejected() {
        let mut bytes = sample(false).to_bytes();
        bytes[4..8].copy_from_slice(&99u32.to_le_bytes());
        // Re-seal the CRC so the version check is what fires.
        let crc_pos = bytes.len() - 4;
        let crc = crc32(&bytes[..crc_pos]);
        bytes[crc_pos..].copy_from_slice(&crc.to_le_bytes());
        assert_eq!(
            SolverCheckpoint::from_bytes(&bytes),
            Err(CheckpointError::UnsupportedVersion(99))
        );
    }

    #[test]
    fn absurd_length_field_is_rejected_without_allocation() {
        let mut bytes = sample(false).to_bytes();
        // The x-vector length lives right after the fixed header
        // (4 magic + 4 version + 2 flags + 4×8 scalars = 42).
        bytes[42..50].copy_from_slice(&u64::MAX.to_le_bytes());
        let crc_pos = bytes.len() - 4;
        let crc = crc32(&bytes[..crc_pos]);
        bytes[crc_pos..].copy_from_slice(&crc.to_le_bytes());
        match SolverCheckpoint::from_bytes(&bytes) {
            Err(CheckpointError::Malformed(_) | CheckpointError::Truncated { .. }) => {}
            other => panic!("expected typed rejection, got {other:?}"),
        }
    }

    /// A unique scratch directory under the target-local temp dir.
    fn scratch(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!(
            "alrescha-ckpt-{tag}-{}",
            std::process::id()
        ));
        fs::create_dir_all(&dir).unwrap();
        dir
    }

    #[test]
    fn file_round_trip_is_bit_exact() {
        let dir = scratch("roundtrip");
        let path = dir.join("job-1.ckpt");
        let cp = sample(true);
        cp.write_to_path(&path).unwrap();
        let decoded = SolverCheckpoint::read_from_path(&path).unwrap();
        assert_eq!(cp, decoded);
        // No temporary file is left behind after a successful write.
        assert!(!tmp_sibling(&path).exists());
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn atomic_write_replaces_existing_checkpoint() {
        let dir = scratch("replace");
        let path = dir.join("job-2.ckpt");
        let old = sample(false);
        let mut new = sample(false);
        new.iteration = 99;
        old.write_to_path(&path).unwrap();
        new.write_to_path(&path).unwrap();
        assert_eq!(
            SolverCheckpoint::read_from_path(&path).unwrap().iteration,
            99
        );
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn partial_write_to_final_path_is_rejected_old_tmp_is_harmless() {
        // Simulate the failure write_to_path is designed to prevent: a
        // crash mid-write leaving a truncated image at the final path.
        let dir = scratch("torn");
        let path = dir.join("job-3.ckpt");
        let bytes = sample(true).to_bytes();
        for cut in [1, bytes.len() / 2, bytes.len() - 1] {
            fs::write(&path, &bytes[..cut]).unwrap();
            let err = SolverCheckpoint::read_from_path(&path).unwrap_err();
            assert_eq!(err.kind(), std::io::ErrorKind::InvalidData, "cut {cut}");
        }
        // A leftover temporary from a crashed writer never shadows the
        // real checkpoint: the next atomic write simply overwrites it.
        fs::write(tmp_sibling(&path), &bytes[..7]).unwrap();
        let cp = sample(true);
        cp.write_to_path(&path).unwrap();
        assert_eq!(SolverCheckpoint::read_from_path(&path).unwrap(), cp);
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn error_display_is_informative() {
        let e = CheckpointError::CrcMismatch {
            stored: 1,
            computed: 2,
        };
        assert!(e.to_string().contains("CRC mismatch"));
        assert!(CheckpointError::BadMagic.to_string().contains("magic"));
        assert!(CheckpointError::Mismatch { field: "n" }
            .to_string()
            .contains("n disagrees"));
    }
}
