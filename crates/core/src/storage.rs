//! Injectable storage I/O — the host-side analogue of `sim::fault`.
//!
//! The device simulator earns its durability claims against a *seeded,
//! replayable* fault stream ([`alrescha_sim::FaultPlan`]); the host side
//! of the stack — the job journal and the checkpoint files — historically
//! talked to `std::fs` directly, so the only storage fault ever exercised
//! was a clean process death. This module closes that gap:
//!
//! * [`StorageIo`] / [`StorageFile`] — the narrow trait pair the journal
//!   and checkpoint writer actually need (open-append, create, read,
//!   rename, remove, fsync, truncate);
//! * [`RealStorage`] — the passthrough to `std::fs` every production
//!   caller uses (and the default everywhere);
//! * [`ChaosStorage`] — a decorator over any inner [`StorageIo`] that
//!   injects the faults real deployments see, drawn from a splitmix64
//!   stream seeded by an [`IoFaultPlan`]: **short writes**, **`EINTR`**,
//!   **`ENOSPC` tearing a partial record onto disk**, **failed `fsync`**,
//!   and **read-side bit flips**. Identical plans over identical call
//!   sequences fire identical faults — a failing seed replays exactly.
//!
//! Every fault fired is tallied in [`IoFaultCounters`] and, when a
//! telemetry handle is attached, counted into `alchaos_io_*_total`
//! metrics and dropped into the trace as an instant event, so a failing
//! chaos seed is diagnosable from its timeline.

use std::fmt;
use std::fs;
use std::io::{self, Read as _, Write as _};
use std::path::Path;
use std::sync::{Arc, Mutex, MutexGuard, PoisonError};

/// One open file as the storage layer sees it: append-or-create writes,
/// durability, and truncation. Reads go through [`StorageIo::read`] — the
/// journal and checkpoint formats are small enough to (re)read whole.
pub trait StorageFile: Send {
    /// Writes a prefix of `buf`, returning how many bytes were accepted.
    /// May short-write or fail with `EINTR`/`ENOSPC` like a real `write(2)`.
    ///
    /// # Errors
    ///
    /// Underlying I/O failures, including injected ones.
    fn write(&mut self, buf: &[u8]) -> io::Result<usize>;

    /// Flushes file contents and metadata to stable storage (`fsync`).
    ///
    /// # Errors
    ///
    /// Underlying I/O failures, including injected ones. After a failed
    /// sync no earlier unsynced write may be trusted.
    fn sync(&mut self) -> io::Result<()>;

    /// Truncates (or extends) the file to `len` bytes.
    ///
    /// # Errors
    ///
    /// Underlying I/O failures. Never fault-injected: truncation is the
    /// *rollback* primitive crash consistency leans on.
    fn set_len(&mut self, len: u64) -> io::Result<()>;
}

/// The filesystem surface the serve stack's durability rests on. Small by
/// design: everything the journal and the atomic checkpoint writer do is
/// expressible in these seven calls, so one chaos decorator covers every
/// storage-touching path.
pub trait StorageIo: Send + Sync + fmt::Debug {
    /// Opens `path` for appending, creating it if absent.
    ///
    /// # Errors
    ///
    /// Underlying I/O failures.
    fn open_append(&self, path: &Path) -> io::Result<Box<dyn StorageFile>>;

    /// Creates (truncating) `path` for writing.
    ///
    /// # Errors
    ///
    /// Underlying I/O failures.
    fn create(&self, path: &Path) -> io::Result<Box<dyn StorageFile>>;

    /// Reads the entire contents of `path`.
    ///
    /// # Errors
    ///
    /// Underlying I/O failures. A chaos implementation may return bytes
    /// with bits flipped — callers must CRC-validate and re-read.
    fn read(&self, path: &Path) -> io::Result<Vec<u8>>;

    /// Renames `from` to `to` (atomic within one directory on POSIX).
    ///
    /// # Errors
    ///
    /// Underlying I/O failures.
    fn rename(&self, from: &Path, to: &Path) -> io::Result<()>;

    /// Removes `path`.
    ///
    /// # Errors
    ///
    /// Underlying I/O failures.
    fn remove_file(&self, path: &Path) -> io::Result<()>;

    /// Fsyncs the parent directory of `path` so a rename survives power
    /// loss. Best-effort on platforms that cannot sync a directory.
    ///
    /// # Errors
    ///
    /// Underlying I/O failures.
    fn sync_parent_dir(&self, path: &Path) -> io::Result<()>;
}

/// Writes all of `buf`, absorbing short writes and `EINTR` the way
/// `Write::write_all` does — the loop every durable append must use once
/// writes can legally be partial.
///
/// # Errors
///
/// The first non-`Interrupted` error, or `WriteZero` if the file stops
/// accepting bytes.
pub fn write_all(file: &mut dyn StorageFile, mut buf: &[u8]) -> io::Result<()> {
    while !buf.is_empty() {
        match file.write(buf) {
            Ok(0) => {
                return Err(io::Error::new(
                    io::ErrorKind::WriteZero,
                    "storage accepted zero bytes",
                ))
            }
            Ok(n) => buf = &buf[n.min(buf.len())..],
            Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
            Err(e) => return Err(e),
        }
    }
    Ok(())
}

// ---------------------------------------------------------------------------
// Real storage
// ---------------------------------------------------------------------------

/// The production [`StorageIo`]: a direct passthrough to `std::fs`.
#[derive(Debug, Clone, Copy, Default)]
pub struct RealStorage;

struct RealFile(fs::File);

impl StorageFile for RealFile {
    fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
        self.0.write(buf)
    }

    fn sync(&mut self) -> io::Result<()> {
        self.0.sync_all()
    }

    fn set_len(&mut self, len: u64) -> io::Result<()> {
        self.0.set_len(len)
    }
}

impl StorageIo for RealStorage {
    fn open_append(&self, path: &Path) -> io::Result<Box<dyn StorageFile>> {
        let file = fs::OpenOptions::new()
            .create(true)
            .append(true)
            .open(path)?;
        Ok(Box::new(RealFile(file)))
    }

    fn create(&self, path: &Path) -> io::Result<Box<dyn StorageFile>> {
        Ok(Box::new(RealFile(fs::File::create(path)?)))
    }

    fn read(&self, path: &Path) -> io::Result<Vec<u8>> {
        let mut file = fs::File::open(path)?;
        let mut out = Vec::new();
        file.read_to_end(&mut out)?;
        Ok(out)
    }

    fn rename(&self, from: &Path, to: &Path) -> io::Result<()> {
        fs::rename(from, to)
    }

    fn remove_file(&self, path: &Path) -> io::Result<()> {
        fs::remove_file(path)
    }

    fn sync_parent_dir(&self, path: &Path) -> io::Result<()> {
        if let Some(dir) = path.parent().filter(|d| !d.as_os_str().is_empty()) {
            if let Ok(handle) = fs::File::open(dir) {
                let _ = handle.sync_all();
            }
        }
        Ok(())
    }
}

// ---------------------------------------------------------------------------
// Fault plan
// ---------------------------------------------------------------------------

/// A seed-driven description of which storage faults to inject, at what
/// per-call rates — the host-storage sibling of
/// [`alrescha_sim::FaultPlan`].
///
/// Rates are per-opportunity probabilities: write-side rates are drawn
/// once per [`StorageFile::write`] call, `fsync_fail_rate` once per
/// [`StorageFile::sync`], and `bit_flip_rate` once per [`StorageIo::read`]
/// (the flip corrupts the returned bytes, not the disk — modelling bus /
/// DRAM transients that vanish on re-read, which the journal's replay
/// retry loop must absorb).
#[derive(Debug, Clone, PartialEq)]
pub struct IoFaultPlan {
    /// Seed for the fault stream. Identical seeds over identical call
    /// sequences reproduce identical faults.
    pub seed: u64,
    /// Probability per write of accepting only a prefix (legal short
    /// write; the bytes written are real).
    pub short_write_rate: f64,
    /// Probability per write of failing with `EINTR` before any byte.
    pub interrupt_rate: f64,
    /// Probability per write of writing a *partial prefix to disk* and
    /// then failing with `ENOSPC` — the fault that tears a final record.
    pub enospc_rate: f64,
    /// Probability per sync of failing with `EIO`. After a failed fsync
    /// the caller may not trust any unsynced write.
    pub fsync_fail_rate: f64,
    /// Probability per whole-file read of flipping one bit in the
    /// returned bytes.
    pub bit_flip_rate: f64,
}

impl IoFaultPlan {
    /// A plan with every rate zero — attachable for instrumentation
    /// without perturbing behaviour.
    pub fn inert(seed: u64) -> Self {
        IoFaultPlan {
            seed,
            short_write_rate: 0.0,
            interrupt_rate: 0.0,
            enospc_rate: 0.0,
            fsync_fail_rate: 0.0,
            bit_flip_rate: 0.0,
        }
    }

    /// The chaos-harness default: every fault kind armed at rates high
    /// enough to fire within a handful of operations, low enough that
    /// retried operations converge.
    pub fn aggressive(seed: u64) -> Self {
        IoFaultPlan {
            seed,
            short_write_rate: 0.20,
            interrupt_rate: 0.10,
            enospc_rate: 0.12,
            fsync_fail_rate: 0.08,
            bit_flip_rate: 0.15,
        }
    }
}

/// Which storage fault fired (metric / trace labelling).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[non_exhaustive]
pub enum IoFaultKind {
    /// A write accepted only a prefix of the buffer.
    ShortWrite,
    /// A write failed with `EINTR` before any byte landed.
    Interrupted,
    /// A write tore a partial prefix onto disk and failed with `ENOSPC`.
    NoSpace,
    /// An `fsync` failed with `EIO`.
    FsyncFailed,
    /// A whole-file read returned bytes with one bit flipped.
    BitFlip,
}

impl IoFaultKind {
    /// Stable lowercase label used in metric names and trace events.
    pub fn label(self) -> &'static str {
        match self {
            IoFaultKind::ShortWrite => "short_write",
            IoFaultKind::Interrupted => "eintr",
            IoFaultKind::NoSpace => "enospc",
            IoFaultKind::FsyncFailed => "fsync_fail",
            IoFaultKind::BitFlip => "bit_flip",
        }
    }
}

impl fmt::Display for IoFaultKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.label())
    }
}

/// Per-plan tally of storage faults fired, one counter per
/// [`IoFaultKind`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct IoFaultCounters {
    /// Short writes injected.
    pub short_writes: u64,
    /// `EINTR` failures injected.
    pub interrupts: u64,
    /// `ENOSPC` failures injected (each tore a partial prefix onto disk).
    pub enospc: u64,
    /// `fsync` failures injected.
    pub fsync_failures: u64,
    /// Read-side bit flips injected.
    pub bit_flips: u64,
}

impl IoFaultCounters {
    /// Total faults fired.
    pub fn total(&self) -> u64 {
        self.short_writes + self.interrupts + self.enospc + self.fsync_failures + self.bit_flips
    }

    /// True when every fault kind has fired at least once — the coverage
    /// predicate the chaos harness asserts across its seed matrix.
    pub fn all_kinds_fired(&self) -> bool {
        self.short_writes > 0
            && self.interrupts > 0
            && self.enospc > 0
            && self.fsync_failures > 0
            && self.bit_flips > 0
    }

    /// Accumulates `other` into `self` (merging per-seed tallies).
    pub fn merge(&mut self, other: &IoFaultCounters) {
        self.short_writes += other.short_writes;
        self.interrupts += other.interrupts;
        self.enospc += other.enospc;
        self.fsync_failures += other.fsync_failures;
        self.bit_flips += other.bit_flips;
    }
}

/// The raw `ENOSPC` errno, used instead of `ErrorKind::StorageFull` so
/// match-sites can also recognise genuine kernel-reported exhaustion.
pub const ENOSPC: i32 = 28;

/// True when `e` looks like storage exhaustion (`ENOSPC` / `EDQUOT`),
/// injected or kernel-reported — the condition `alserve` maps to in-band
/// storage-pressure backpressure rather than a torn-down connection.
pub fn is_storage_full(e: &io::Error) -> bool {
    matches!(e.raw_os_error(), Some(code) if code == ENOSPC || code == 122)
        || e.kind() == io::ErrorKind::StorageFull
        || e.kind() == io::ErrorKind::QuotaExceeded
}

use crate::util::splitmix64;

/// One uniform draw in `[0, 1)` from the splitmix64 stream.
fn draw_unit(state: &mut u64) -> f64 {
    crate::util::unit_f64(splitmix64(state))
}

// ---------------------------------------------------------------------------
// Chaos storage
// ---------------------------------------------------------------------------

struct ChaosState {
    rng: u64,
    counters: IoFaultCounters,
}

/// Shared fault-decision state: the plan, the RNG cursor, the counters,
/// and the optional telemetry sink.
struct ChaosCore {
    plan: IoFaultPlan,
    state: Mutex<ChaosState>,
    telemetry: Option<Arc<alrescha_obs::Telemetry>>,
}

fn lock_state(core: &ChaosCore) -> MutexGuard<'_, ChaosState> {
    core.state.lock().unwrap_or_else(PoisonError::into_inner)
}

impl ChaosCore {
    fn fired(&self, kind: IoFaultKind, state: &mut ChaosState) {
        match kind {
            IoFaultKind::ShortWrite => state.counters.short_writes += 1,
            IoFaultKind::Interrupted => state.counters.interrupts += 1,
            IoFaultKind::NoSpace => state.counters.enospc += 1,
            IoFaultKind::FsyncFailed => state.counters.fsync_failures += 1,
            IoFaultKind::BitFlip => state.counters.bit_flips += 1,
        }
        if let Some(tele) = &self.telemetry {
            tele.metrics()
                .counter(
                    &format!("alchaos_io_{}_total", kind.label()),
                    false,
                    "storage faults injected by ChaosStorage, by kind",
                )
                .inc();
            tele.instant(format!("alchaos.io.{}", kind.label()));
        }
    }
}

/// A [`StorageIo`] decorator that injects seeded, replayable storage
/// faults around an inner implementation (usually [`RealStorage`]).
///
/// Fault decisions are drawn from one shared splitmix64 stream in call
/// order, so a single-threaded caller replays bit-identically from the
/// seed alone; concurrent callers still see a deterministic *total* fault
/// budget per prefix of operations.
#[derive(Clone)]
pub struct ChaosStorage {
    inner: Arc<dyn StorageIo>,
    core: Arc<ChaosCore>,
}

impl fmt::Debug for ChaosStorage {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("ChaosStorage")
            .field("plan", &self.core.plan)
            .field("counters", &self.counters())
            .finish_non_exhaustive()
    }
}

impl ChaosStorage {
    /// Chaos over the real filesystem.
    pub fn new(plan: IoFaultPlan) -> Self {
        ChaosStorage::over(Arc::new(RealStorage), plan)
    }

    /// Chaos over an arbitrary inner storage.
    pub fn over(inner: Arc<dyn StorageIo>, plan: IoFaultPlan) -> Self {
        let rng = plan.seed;
        ChaosStorage {
            inner,
            core: Arc::new(ChaosCore {
                plan,
                state: Mutex::new(ChaosState {
                    rng,
                    counters: IoFaultCounters::default(),
                }),
                telemetry: None,
            }),
        }
    }

    /// Attaches a telemetry sink: every injected fault increments an
    /// `alchaos_io_<kind>_total` counter and records an instant event.
    #[must_use]
    pub fn with_telemetry(mut self, tele: Arc<alrescha_obs::Telemetry>) -> Self {
        let state = {
            let s = lock_state(&self.core);
            ChaosState {
                rng: s.rng,
                counters: s.counters,
            }
        };
        self.core = Arc::new(ChaosCore {
            plan: self.core.plan.clone(),
            state: Mutex::new(state),
            telemetry: Some(tele),
        });
        self
    }

    /// The plan this storage injects from.
    pub fn plan(&self) -> &IoFaultPlan {
        &self.core.plan
    }

    /// Faults fired so far.
    pub fn counters(&self) -> IoFaultCounters {
        lock_state(&self.core).counters
    }
}

struct ChaosFile {
    inner: Box<dyn StorageFile>,
    core: Arc<ChaosCore>,
}

/// Which write fault, if any, a single draw selected.
enum WriteFault {
    None,
    /// Fail with `EINTR`; nothing written.
    Interrupt,
    /// Write a prefix of `cut` bytes for real, then fail with `ENOSPC`.
    Tear {
        cut: usize,
    },
    /// Accept only `keep` bytes (a legal short write; the bytes are real).
    Short {
        keep: usize,
    },
}

impl StorageFile for ChaosFile {
    fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
        let fault = {
            let mut state = lock_state(&self.core);
            let plan = &self.core.plan;
            let roll = draw_unit(&mut state.rng);
            // One roll decides among the mutually exclusive write faults
            // by stacking their rates into disjoint intervals.
            if roll < plan.interrupt_rate {
                self.core.fired(IoFaultKind::Interrupted, &mut state);
                WriteFault::Interrupt
            } else if roll < plan.interrupt_rate + plan.enospc_rate {
                self.core.fired(IoFaultKind::NoSpace, &mut state);
                // Tear a strict prefix onto the real file, then report
                // exhaustion: exactly the torn-final-record crash shape.
                let cut = if buf.is_empty() {
                    0
                } else {
                    (splitmix64(&mut state.rng) as usize) % buf.len()
                };
                WriteFault::Tear { cut }
            } else if roll < plan.interrupt_rate + plan.enospc_rate + plan.short_write_rate {
                self.core.fired(IoFaultKind::ShortWrite, &mut state);
                let keep = if buf.len() <= 1 {
                    buf.len()
                } else {
                    1 + (splitmix64(&mut state.rng) as usize) % (buf.len() - 1)
                };
                WriteFault::Short { keep }
            } else {
                WriteFault::None
            }
        };
        match fault {
            WriteFault::Interrupt => Err(io::Error::from(io::ErrorKind::Interrupted)),
            WriteFault::Tear { cut } => {
                if cut > 0 {
                    write_all(self.inner.as_mut(), &buf[..cut])?;
                }
                Err(io::Error::from_raw_os_error(ENOSPC))
            }
            WriteFault::Short { keep } => {
                write_all(self.inner.as_mut(), &buf[..keep])?;
                Ok(keep)
            }
            WriteFault::None => self.inner.write(buf),
        }
    }

    fn sync(&mut self) -> io::Result<()> {
        let fail = {
            let mut state = lock_state(&self.core);
            if draw_unit(&mut state.rng) < self.core.plan.fsync_fail_rate {
                self.core.fired(IoFaultKind::FsyncFailed, &mut state);
                true
            } else {
                false
            }
        };
        if fail {
            return Err(io::Error::other("injected fsync failure (EIO)"));
        }
        self.inner.sync()
    }

    fn set_len(&mut self, len: u64) -> io::Result<()> {
        // Never injected: truncation is the rollback primitive.
        self.inner.set_len(len)
    }
}

impl StorageIo for ChaosStorage {
    fn open_append(&self, path: &Path) -> io::Result<Box<dyn StorageFile>> {
        Ok(Box::new(ChaosFile {
            inner: self.inner.open_append(path)?,
            core: Arc::clone(&self.core),
        }))
    }

    fn create(&self, path: &Path) -> io::Result<Box<dyn StorageFile>> {
        Ok(Box::new(ChaosFile {
            inner: self.inner.create(path)?,
            core: Arc::clone(&self.core),
        }))
    }

    fn read(&self, path: &Path) -> io::Result<Vec<u8>> {
        let mut bytes = self.inner.read(path)?;
        let flip = {
            let mut state = lock_state(&self.core);
            if !bytes.is_empty() && draw_unit(&mut state.rng) < self.core.plan.bit_flip_rate {
                self.core.fired(IoFaultKind::BitFlip, &mut state);
                Some(splitmix64(&mut state.rng) as usize % (bytes.len() * 8))
            } else {
                None
            }
        };
        if let Some(bit) = flip {
            bytes[bit / 8] ^= 1 << (bit % 8);
        }
        Ok(bytes)
    }

    fn rename(&self, from: &Path, to: &Path) -> io::Result<()> {
        self.inner.rename(from, to)
    }

    fn remove_file(&self, path: &Path) -> io::Result<()> {
        self.inner.remove_file(path)
    }

    fn sync_parent_dir(&self, path: &Path) -> io::Result<()> {
        self.inner.sync_parent_dir(path)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::path::PathBuf;

    fn scratch(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("alchaos-io-{tag}-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        fs::create_dir_all(&dir).unwrap();
        dir
    }

    #[test]
    fn real_storage_round_trips() {
        let dir = scratch("real");
        let path = dir.join("a.bin");
        let io = RealStorage;
        let mut f = io.open_append(&path).unwrap();
        write_all(f.as_mut(), b"hello ").unwrap();
        write_all(f.as_mut(), b"world").unwrap();
        f.sync().unwrap();
        drop(f);
        assert_eq!(io.read(&path).unwrap(), b"hello world");
        let renamed = dir.join("b.bin");
        io.rename(&path, &renamed).unwrap();
        io.sync_parent_dir(&renamed).unwrap();
        assert_eq!(io.read(&renamed).unwrap(), b"hello world");
        io.remove_file(&renamed).unwrap();
        assert!(io.read(&renamed).is_err());
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn inert_plan_injects_nothing() {
        let dir = scratch("inert");
        let path = dir.join("a.bin");
        let io = ChaosStorage::new(IoFaultPlan::inert(1));
        let mut f = io.create(&path).unwrap();
        for _ in 0..100 {
            write_all(f.as_mut(), b"0123456789").unwrap();
            f.sync().unwrap();
        }
        drop(f);
        assert_eq!(io.read(&path).unwrap().len(), 1000);
        assert_eq!(io.counters(), IoFaultCounters::default());
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn identical_seeds_fire_identical_fault_streams() {
        let runs: Vec<IoFaultCounters> = (0..2)
            .map(|_| {
                let dir = scratch("det");
                let path = dir.join("a.bin");
                let io = ChaosStorage::new(IoFaultPlan::aggressive(0xC0FFEE));
                let mut f = io.create(&path).unwrap();
                for i in 0..200u32 {
                    let _ = write_all(f.as_mut(), &i.to_le_bytes());
                    let _ = f.sync();
                }
                drop(f);
                for _ in 0..50 {
                    let _ = io.read(&path);
                }
                let counters = io.counters();
                let _ = fs::remove_dir_all(&dir);
                counters
            })
            .collect();
        assert_eq!(runs[0], runs[1], "same seed must fire the same faults");
        assert!(
            runs[0].all_kinds_fired(),
            "aggressive plan left a kind silent: {:?}",
            runs[0]
        );
    }

    #[test]
    fn enospc_tears_a_strict_prefix_onto_disk() {
        // Crank only ENOSPC so the first write tears deterministically.
        let plan = IoFaultPlan {
            enospc_rate: 1.0,
            ..IoFaultPlan::inert(7)
        };
        let dir = scratch("tear");
        let path = dir.join("a.bin");
        let io = ChaosStorage::new(plan);
        let mut f = io.create(&path).unwrap();
        let payload = vec![0xABu8; 64];
        let err = write_all(f.as_mut(), &payload).unwrap_err();
        assert!(is_storage_full(&err), "expected ENOSPC, got {err:?}");
        drop(f);
        let on_disk = RealStorage.read(&path).unwrap();
        assert!(on_disk.len() < payload.len(), "nothing was torn");
        assert!(on_disk.iter().all(|&b| b == 0xAB));
        assert_eq!(io.counters().enospc, 1);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn short_writes_and_eintr_are_absorbed_by_write_all() {
        let plan = IoFaultPlan {
            short_write_rate: 0.5,
            interrupt_rate: 0.3,
            ..IoFaultPlan::inert(3)
        };
        let dir = scratch("short");
        let path = dir.join("a.bin");
        let io = ChaosStorage::new(plan);
        let mut f = io.create(&path).unwrap();
        for i in 0..100u64 {
            write_all(f.as_mut(), &i.to_le_bytes()).unwrap();
        }
        drop(f);
        let bytes = RealStorage.read(&path).unwrap();
        assert_eq!(bytes.len(), 800, "write_all must land every byte");
        for i in 0..100u64 {
            assert_eq!(&bytes[i as usize * 8..][..8], &i.to_le_bytes());
        }
        let c = io.counters();
        assert!(
            c.short_writes > 0 && c.interrupts > 0,
            "faults never fired: {c:?}"
        );
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn bit_flips_corrupt_the_read_not_the_disk() {
        let plan = IoFaultPlan {
            bit_flip_rate: 1.0,
            ..IoFaultPlan::inert(11)
        };
        let dir = scratch("flip");
        let path = dir.join("a.bin");
        fs::write(&path, vec![0u8; 256]).unwrap();
        let io = ChaosStorage::new(plan);
        let corrupted = io.read(&path).unwrap();
        assert_eq!(corrupted.iter().map(|b| b.count_ones()).sum::<u32>(), 1);
        // The disk image is untouched; a clean re-read sees zeros.
        assert!(RealStorage.read(&path).unwrap().iter().all(|&b| b == 0));
        assert_eq!(io.counters().bit_flips, 1);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn telemetry_counts_and_marks_every_fault() {
        let tele = alrescha_obs::Telemetry::new();
        let plan = IoFaultPlan {
            fsync_fail_rate: 1.0,
            ..IoFaultPlan::inert(5)
        };
        let dir = scratch("tele");
        let path = dir.join("a.bin");
        let io = ChaosStorage::new(plan).with_telemetry(Arc::clone(&tele));
        let mut f = io.create(&path).unwrap();
        assert!(f.sync().is_err());
        assert!(f.sync().is_err());
        drop(f);
        let snapshot = tele.metrics().snapshot_json();
        assert!(
            snapshot.contains("alchaos_io_fsync_fail_total"),
            "metric missing from {snapshot}"
        );
        assert_eq!(io.counters().fsync_failures, 2);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn storage_full_predicate_matches_injected_and_kind_errors() {
        assert!(is_storage_full(&io::Error::from_raw_os_error(ENOSPC)));
        assert!(!is_storage_full(&io::Error::from(
            io::ErrorKind::Interrupted
        )));
    }
}
