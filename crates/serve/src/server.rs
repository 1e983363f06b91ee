//! The `alserve` daemon: durable admission, checkpointed execution,
//! crash recovery, breaker-backed degradation, and graceful drain.
//!
//! # Life of a job
//!
//! ```text
//!  Submit ──► quota? ──► queue room? ──► journal.accept (fsync) ──► Accepted
//!                                                 │
//!   worker dequeues ◄── queue ◄───────────────────┘
//!        │
//!        ├── breaker gate: Device → on-device │ Probe → one probe job
//!        │                 Cpu → pinned to the host backend
//!        ├── checkpoint every N iterations → data_dir/job-<id>.ckpt
//!        │   (atomic: temp + fsync + rename) + Progress to waiters
//!        └── terminal → journal.terminal (fsync) → Done/Failed to waiters
//! ```
//!
//! # Recovery state machine (per job, evaluated at startup)
//!
//! ```text
//!  [no journal record]      → not owed: the client never saw Accepted
//!  [Accepted only]          → owed: re-enqueue; resume from the newest
//!                             intact checkpoint file, else iteration 0
//!  [Accepted + terminal]    → settled: nothing to do
//! ```
//!
//! Resume is bit-identical in the solution fields
//! ([`alrescha::fleet::JobOutput::solution_fingerprint`]), so a client
//! that reconnects after a server crash observes the same answer it would
//! have gotten from an uninterrupted run.

use std::cmp::Reverse;
use std::collections::{BTreeMap, HashMap, VecDeque};
use std::fmt;
use std::fmt::Write as _;
use std::io::{self, Read, Write};
use std::net::{TcpListener, TcpStream};
use std::os::unix::net::{UnixListener, UnixStream};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, PoisonError};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use alrescha::breaker::{BackendChoice, BreakerConfig, SharedBreaker};
use alrescha::checkpoint::SolverCheckpoint;
use alrescha::convert::{convert, KernelType};
use alrescha::fleet::{Fleet, FleetConfig, JobKernel, JobOutput, JobSpec, Station};
use alrescha::storage::{RealStorage, StorageIo};
use alrescha::SolverOptions;
use alrescha_lint::analyze_table;
use alrescha_obs::flight::{self, FlightRecorder};
use alrescha_obs::{Telemetry, MICROS_BUCKETS};
use alrescha_sim::SimConfig;

use crate::journal::{Journal, JournalError, JournalRecord};
use crate::protocol::{Frame, JobPayload, ScrapeKind, SolveResult, TraceContext, WireError};
use crate::quota::{QuotaDecision, QuotaTable};
use crate::slo::SloTable;

/// Where the server listens.
#[derive(Debug, Clone)]
pub enum Bind {
    /// TCP, e.g. `127.0.0.1:0` (port 0 = ephemeral; the handle reports
    /// the actual address).
    Tcp(String),
    /// A unix domain socket path (removed and re-created on start).
    Unix(PathBuf),
}

/// Server configuration.
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// Listen address.
    pub bind: Bind,
    /// Directory for the journal and per-job checkpoint files.
    pub data_dir: PathBuf,
    /// Worker threads executing solves.
    pub workers: usize,
    /// Bound on queued (admitted, not yet running) jobs. Also the number
    /// of most recently settled jobs whose `Done` keeps its solution
    /// vector; older ones answer with the scalars and fingerprint only,
    /// like a job settled before a restart.
    pub queue_capacity: usize,
    /// Per-tenant in-flight cap.
    pub per_tenant_quota: usize,
    /// Checkpoint cadence in solver iterations. `0` disables mid-solve
    /// durability — recovery then restarts owed jobs from iteration 0,
    /// which is still fingerprint-identical, just slower.
    pub checkpoint_every: usize,
    /// Base unit for `retry_after` backpressure hints.
    pub retry_after_hint: Duration,
    /// Device circuit-breaker configuration (service-wide, shared).
    pub breaker: BreakerConfig,
    /// Optional telemetry sink for spans/metrics.
    pub telemetry: Option<Arc<Telemetry>>,
    /// Storage backend for the journal and checkpoint files. The default
    /// is the real filesystem; the chaos harness swaps in a
    /// [`alrescha::ChaosStorage`] to exercise every durability path under
    /// injected faults.
    pub storage: Arc<dyn StorageIo>,
    /// Service-level deadline budget in engine cycles. When set, every
    /// submission is bounded at admission by the alprove AL404 static
    /// analysis: the worst case of a full PCG solve — `max_iters + 1`
    /// iterations of one SpMV plus one SymGS preconditioner application —
    /// is computed from the job's matrix alone, and a job whose bound
    /// already exceeds the budget is rejected in-band before any engine
    /// work or journal write happens. `None` (the default) disables the
    /// gate.
    pub admission_cycle_budget: Option<u64>,
    /// Always-on flight recorder: a fixed-size in-memory ring of
    /// structured events (admission decisions, breaker transitions,
    /// journal/compaction ops) synced to `data_dir/alserve.alfr` at every
    /// durability point, so even a SIGKILL leaves a readable record of
    /// the server's last moments that lags the journal by at most one
    /// event. Sharing one recorder between the daemon and a process-wide
    /// panic hook is the intended use.
    pub flight: Arc<FlightRecorder>,
    /// End-to-end latency target per request for the per-tenant SLO
    /// (accept → terminal). Requests over this burn the tenant's error
    /// budget.
    pub slo_target_e2e: Duration,
    /// Width of the sliding burn-rate window, in whole seconds.
    pub slo_window: Duration,
}

impl Default for ServerConfig {
    fn default() -> Self {
        ServerConfig {
            bind: Bind::Tcp("127.0.0.1:0".to_owned()),
            data_dir: PathBuf::from("alserve-data"),
            workers: 2,
            queue_capacity: 64,
            per_tenant_quota: 8,
            checkpoint_every: 8,
            retry_after_hint: Duration::from_millis(25),
            breaker: BreakerConfig::default(),
            telemetry: None,
            storage: Arc::new(RealStorage),
            admission_cycle_budget: None,
            flight: Arc::new(FlightRecorder::new(1024)),
            slo_target_e2e: Duration::from_millis(250),
            slo_window: Duration::from_mins(1),
        }
    }
}

/// Errors raised while starting the server.
#[derive(Debug)]
#[non_exhaustive]
pub enum ServerError {
    /// Socket or filesystem failure.
    Io(io::Error),
    /// Journal open/replay failure.
    Journal(JournalError),
}

impl fmt::Display for ServerError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ServerError::Io(e) => write!(f, "server io: {e}"),
            ServerError::Journal(e) => write!(f, "server journal: {e}"),
        }
    }
}

impl std::error::Error for ServerError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            ServerError::Io(e) => Some(e),
            ServerError::Journal(e) => Some(e),
        }
    }
}

impl From<io::Error> for ServerError {
    fn from(e: io::Error) -> Self {
        ServerError::Io(e)
    }
}

impl From<JournalError> for ServerError {
    fn from(e: JournalError) -> Self {
        ServerError::Journal(e)
    }
}

fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(PoisonError::into_inner)
}

/// Where a job currently stands, as reported to clients.
#[derive(Debug)]
enum JobState {
    Queued,
    Running { iteration: u64, residual: f64 },
    Done { result: SolveResult },
    Failed { error: String },
    Parked,
}

impl JobState {
    fn is_terminal(&self) -> bool {
        matches!(
            self,
            JobState::Done { .. } | JobState::Failed { .. } | JobState::Parked
        )
    }

    /// The `(iteration, residual bits)` a waiter is sent as `Progress`,
    /// or `None` once terminal. `Queued` reads as iteration 0 with a NaN
    /// residual, the same as a job that started running.
    fn progress(&self) -> Option<(u64, u64)> {
        let bits = |r: f64| {
            if r.is_nan() {
                f64::NAN.to_bits()
            } else {
                r.to_bits()
            }
        };
        match self {
            JobState::Queued => Some((0, bits(f64::NAN))),
            JobState::Running {
                iteration,
                residual,
            } => Some((*iteration, bits(*residual))),
            _ => None,
        }
    }

    fn to_frame(&self, job_id: u64) -> Frame {
        match self {
            JobState::Queued => Frame::Progress {
                job_id,
                iteration: 0,
                residual: f64::NAN,
            },
            JobState::Running {
                iteration,
                residual,
            } => Frame::Progress {
                job_id,
                iteration: *iteration,
                residual: *residual,
            },
            JobState::Done { result } => Frame::Done {
                job_id,
                result: result.clone(),
            },
            JobState::Failed { error } => Frame::Failed {
                job_id,
                error: error.clone(),
            },
            JobState::Parked => Frame::Parked { job_id },
        }
    }
}

/// The job status map plus its wakeup primitive — shared between workers,
/// connection threads, and the fleet's checkpoint hook, so there is
/// exactly one source of truth for `Status`/`Wait` clients.
struct StatusBoard {
    board: Mutex<Board>,
    cv: Condvar,
    /// How many settled jobs keep their solution vector
    /// (`ServerConfig::queue_capacity`).
    keep_x: usize,
}

#[derive(Default)]
struct Board {
    jobs: HashMap<u64, JobState>,
    /// Settled jobs whose `Done` still holds its solution vector, oldest
    /// first.
    solved: VecDeque<u64>,
}

impl StatusBoard {
    fn new(keep_x: usize) -> Self {
        StatusBoard {
            board: Mutex::new(Board::default()),
            cv: Condvar::new(),
            keep_x,
        }
    }

    fn set(&self, job_id: u64, state: JobState) {
        let mut board = lock(&self.board);
        let Board { jobs, solved } = &mut *board;
        // Never let a late progress update overwrite a terminal state.
        let settled = jobs.get(&job_id).is_some_and(JobState::is_terminal) && !state.is_terminal();
        if !settled {
            let has_x = matches!(&state, JobState::Done { result } if !result.x.is_empty());
            jobs.insert(job_id, state);
            if has_x && !solved.contains(&job_id) {
                solved.push_back(job_id);
            }
            while solved.len() > self.keep_x {
                let Some(old) = solved.pop_front() else { break };
                if let Some(JobState::Done { result }) = jobs.get_mut(&old) {
                    result.x = Vec::new();
                }
            }
        }
        drop(board);
        self.cv.notify_all();
    }

    /// The frame a one-shot `Status` is answered with.
    fn frame(&self, job_id: u64) -> Frame {
        lock(&self.board)
            .jobs
            .get(&job_id)
            .map_or(Frame::NotFound { job_id }, |s| s.to_frame(job_id))
    }
}

struct QueuedJob {
    job_id: u64,
    tenant: String,
    job: JobPayload,
    resume: Option<SolverCheckpoint>,
    enqueued: Instant,
    /// Client-minted distributed-trace id (0 = untraced; recovered jobs
    /// run untraced — the id lives in the Submit frame, not the journal).
    trace_id: u64,
}

/// The admission queue: strict priority levels (higher first), stable
/// FIFO within a level. Keys are `(Reverse(priority), sequence)`, so
/// `BTreeMap::pop_first` yields the highest-priority, oldest job.
#[derive(Default)]
struct JobQueue {
    entries: BTreeMap<(Reverse<u8>, u64), QueuedJob>,
    seq: u64,
}

impl JobQueue {
    fn push(&mut self, job: QueuedJob) {
        let key = (Reverse(job.job.priority), self.seq);
        self.seq += 1;
        self.entries.insert(key, job);
    }

    fn pop(&mut self) -> Option<QueuedJob> {
        self.entries.pop_first().map(|(_, job)| job)
    }

    fn len(&self) -> usize {
        self.entries.len()
    }

    fn drain_all(&mut self) -> Vec<QueuedJob> {
        std::mem::take(&mut self.entries)
            .into_values()
            .collect()
    }
}

/// State shared between the accept loop, connection threads, and workers.
struct Inner {
    config: ServerConfig,
    journal: Mutex<Journal>,
    quota: Mutex<QuotaTable>,
    fleet: Fleet,
    breaker: SharedBreaker,
    /// Storage-pressure breaker: trips on journal append failures
    /// (`ENOSPC`, failed fsync) so a filling disk turns into in-band
    /// `Rejected { retry_after }` backpressure instead of per-request
    /// journal hammering.
    storage_breaker: SharedBreaker,
    queue: Mutex<JobQueue>,
    queue_cv: Condvar,
    status: Arc<StatusBoard>,
    next_id: AtomicU64,
    shutdown: AtomicBool,
    draining: AtomicBool,
    conns: Mutex<Vec<JoinHandle<()>>>,
    /// Per-tenant SLO state (latency histograms + burn windows).
    slo: Mutex<SloTable>,
    /// job_id → trace_id for in-flight jobs, so the checkpoint hook and
    /// terminal paths can stamp their spans with the submitting client's
    /// trace. Shared with the fleet checkpoint hook.
    trace_ids: Arc<Mutex<HashMap<u64, u64>>>,
    /// Server start instant; burn-window slots are whole seconds since.
    started: Instant,
    /// Last observed breaker states `(device, storage)` as Display
    /// strings, so transitions (and only transitions) hit the flight
    /// recorder.
    breaker_seen: Mutex<(String, String)>,
}

impl Inner {
    fn tele(&self) -> Option<&Arc<Telemetry>> {
        self.config.telemetry.as_ref()
    }

    fn count(&self, name: &str, help: &'static str) {
        if let Some(tele) = self.tele() {
            tele.metrics().counter(name, true, help).inc();
        }
    }

    fn ckpt_path(&self, job_id: u64) -> PathBuf {
        self.config.data_dir.join(format!("job-{job_id}.ckpt"))
    }

    fn flight_path(&self) -> PathBuf {
        self.config.data_dir.join("alserve.alfr")
    }

    /// Records one flight event (always on; the ring is allocation-free).
    fn fr(&self, code: u16, a: u64, b: u64, tag: &str) {
        self.config.flight.record(code, a, b, tag);
    }

    /// Best-effort atomic dump of the flight ring next to the journal.
    /// Called at durability points so a SIGKILL leaves a dump whose tail
    /// matches the journal tail.
    fn flight_sync(&self) {
        let _ = self.config.flight.sync_to(&self.flight_path());
    }

    /// Burn-window slot for "now": whole seconds since server start.
    fn slot(&self) -> u64 {
        self.started.elapsed().as_secs()
    }

    /// Records per-tenant latency into both the SLO table and (when
    /// telemetry is attached) the labelled Prometheus histograms.
    fn observe_latency(&self, kind: &str, tenant: &str, us: u64) {
        if let Some(tele) = self.tele() {
            tele.metrics()
                .histogram(
                    &format!("alserve_slo_{kind}_us{{tenant=\"{tenant}\"}}"),
                    MICROS_BUCKETS,
                    false,
                    "per-tenant SLO latency (microseconds)",
                )
                .observe(us);
        }
    }

    /// Diffs both breaker states against the last observation and flight-
    /// records any transition.
    fn note_breakers(&self) {
        let device = self.breaker.state().to_string();
        let storage = self.storage_breaker.state().to_string();
        let mut seen = lock(&self.breaker_seen);
        if seen.0 != device {
            self.fr(flight::EV_BREAKER, 0, 0, &format!("device:{device}"));
            seen.0 = device;
        }
        if seen.1 != storage {
            self.fr(flight::EV_BREAKER, 1, 0, &format!("storage:{storage}"));
            seen.1 = storage;
        }
    }

    /// Queued + running jobs (anything non-terminal in the status map).
    fn active_jobs(&self) -> usize {
        lock(&self.status.board)
            .jobs
            .values()
            .filter(|s| !s.is_terminal())
            .count()
    }
}

// ---------------------------------------------------------------------------
// Transport
// ---------------------------------------------------------------------------

enum Listener {
    Tcp(TcpListener),
    Unix(UnixListener),
}

impl Listener {
    fn accept(&self) -> io::Result<Stream> {
        match self {
            Listener::Tcp(l) => {
                let (s, _) = l.accept()?;
                s.set_nodelay(true).ok();
                Ok(Stream::Tcp(s))
            }
            Listener::Unix(l) => {
                let (s, _) = l.accept()?;
                Ok(Stream::Unix(s))
            }
        }
    }

    fn set_nonblocking(&self, nb: bool) -> io::Result<()> {
        match self {
            Listener::Tcp(l) => l.set_nonblocking(nb),
            Listener::Unix(l) => l.set_nonblocking(nb),
        }
    }
}

pub(crate) enum Stream {
    Tcp(TcpStream),
    Unix(UnixStream),
}

impl Stream {
    pub(crate) fn set_read_timeout(&self, t: Option<Duration>) -> io::Result<()> {
        match self {
            Stream::Tcp(s) => s.set_read_timeout(t),
            Stream::Unix(s) => s.set_read_timeout(t),
        }
    }
}

impl Read for Stream {
    fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
        match self {
            Stream::Tcp(s) => s.read(buf),
            Stream::Unix(s) => s.read(buf),
        }
    }
}

impl Write for Stream {
    fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
        match self {
            Stream::Tcp(s) => s.write(buf),
            Stream::Unix(s) => s.write(buf),
        }
    }

    fn flush(&mut self) -> io::Result<()> {
        match self {
            Stream::Tcp(s) => s.flush(),
            Stream::Unix(s) => s.flush(),
        }
    }
}

// ---------------------------------------------------------------------------
// Server
// ---------------------------------------------------------------------------

/// The daemon entry point: holds a [`ServerConfig`] and starts the
/// listener, workers, and recovery replay.
#[derive(Debug)]
pub struct Server {
    config: ServerConfig,
}

impl Server {
    /// A server with the given configuration.
    pub fn new(config: ServerConfig) -> Self {
        Server { config }
    }

    /// Opens the journal (replaying and truncating as needed), re-enqueues
    /// every owed job, binds the listener, and spawns workers plus the
    /// accept loop.
    ///
    /// # Errors
    ///
    /// Bind failures, a data directory that cannot be created, or journal
    /// corruption beyond torn-tail truncation.
    pub fn start(self) -> Result<ServerHandle, ServerError> {
        let config = self.config;
        std::fs::create_dir_all(&config.data_dir)?;
        config.flight.record(flight::EV_START, 0, 0, "alserve start");
        let mut journal = Journal::open_with(
            config.data_dir.join("jobs.wal"),
            Arc::clone(&config.storage),
        )?;
        let recovered = journal.recover();
        let settled = journal.settled();
        let next_id = journal.next_job_id();
        // Startup compaction: drop the bulky Accepted records of settled
        // jobs (terminal records and pending jobs are kept), bounding log
        // growth across kill/restart cycles. Best-effort — compaction is
        // an optimization, and its atomic rewrite leaves the journal
        // intact on failure, so a flaky disk at startup must not prevent
        // serving the jobs the journal already guarantees.
        let compaction_failed = journal.compact().is_err();
        config.flight.record(
            flight::EV_JOURNAL_COMPACT,
            u64::from(compaction_failed),
            0,
            if compaction_failed { "failed" } else { "ok" },
        );

        let status = Arc::new(StatusBoard::new(config.queue_capacity));

        // The fleet's checkpoint hook runs on worker threads between solver
        // iterations: persist atomically, then publish progress to waiters.
        // A failed checkpoint write degrades durability, not correctness —
        // recovery falls back to the previous intact checkpoint (or a
        // restart from iteration zero).
        let trace_ids: Arc<Mutex<HashMap<u64, u64>>> = Arc::new(Mutex::new(HashMap::new()));
        let hook_dir = config.data_dir.clone();
        let hook_status = Arc::clone(&status);
        let hook_storage = Arc::clone(&config.storage);
        let hook_flight = Arc::clone(&config.flight);
        let hook_traces = Arc::clone(&trace_ids);
        let hook_tele = config.telemetry.clone();
        let fleet = Fleet::new(
            FleetConfig::default()
                .with_workers(1)
                .with_queue_capacity(config.queue_capacity.max(1))
                .with_retry_after_hint(config.retry_after_hint),
        )
        .with_checkpoint_hook(Arc::new(move |job_id, ckpt| {
            let iteration = ckpt.iteration as u64;
            // Checkpoint writes are part of the job's distributed trace:
            // stamp an instant with the submitting client's trace id so
            // `alobs stitch` nests it under the same timeline.
            if let Some(tele) = &hook_tele {
                let trace = lock(&hook_traces).get(&job_id).copied().unwrap_or(0);
                if trace != 0 {
                    tele.instant(format!("trace:{trace:016x}:checkpoint:{job_id}:{iteration}"));
                }
            }
            hook_flight.record(flight::EV_CHECKPOINT, job_id, iteration, "ckpt");
            let _ = ckpt.write_to_path_with(
                hook_storage.as_ref(),
                &hook_dir.join(format!("job-{job_id}.ckpt")),
            );
            hook_status.set(
                job_id,
                JobState::Running {
                    iteration,
                    residual: ckpt.residual_history.last().copied().unwrap_or(f64::NAN),
                },
            );
        }));
        let fleet = match &config.telemetry {
            Some(tele) => fleet.with_telemetry(Arc::clone(tele)),
            None => fleet,
        };

        let (listener, local_addr) = match &config.bind {
            Bind::Tcp(addr) => {
                let l = TcpListener::bind(addr)?;
                let actual = l.local_addr()?.to_string();
                (Listener::Tcp(l), actual)
            }
            Bind::Unix(path) => {
                let _ = std::fs::remove_file(path);
                (
                    Listener::Unix(UnixListener::bind(path)?),
                    path.display().to_string(),
                )
            }
        };

        let quota = QuotaTable::new(config.per_tenant_quota, config.retry_after_hint);
        let breaker = SharedBreaker::new(config.breaker);
        let storage_breaker = SharedBreaker::new(config.breaker);
        let workers = config.workers.max(1);
        let slo = SloTable::new(
            u64::try_from(config.slo_target_e2e.as_micros()).unwrap_or(u64::MAX),
            config.slo_window.as_secs().max(1),
        );
        let breaker_seen = (
            breaker.state().to_string(),
            storage_breaker.state().to_string(),
        );
        let inner = Arc::new(Inner {
            config,
            journal: Mutex::new(journal),
            quota: Mutex::new(quota),
            fleet,
            breaker,
            storage_breaker,
            queue: Mutex::new(JobQueue::default()),
            queue_cv: Condvar::new(),
            status,
            next_id: AtomicU64::new(next_id),
            shutdown: AtomicBool::new(false),
            draining: AtomicBool::new(false),
            conns: Mutex::new(Vec::new()),
            slo: Mutex::new(slo),
            trace_ids,
            started: Instant::now(),
            breaker_seen: Mutex::new(breaker_seen),
        });
        if compaction_failed {
            inner.count(
                "alserve_compaction_failures_total",
                "startup journal compactions that failed and were skipped",
            );
        }

        // Settled replay: jobs that reached a terminal state in a previous
        // run stay queryable, so a client reconnecting across a crash can
        // still fetch its outcome. The journal does not retain the solution
        // vector — only the scalars and the resume-invariant fingerprint.
        for record in settled {
            match record {
                JournalRecord::Completed {
                    job_id,
                    fingerprint,
                    iterations,
                    residual,
                    converged,
                } => inner.status.set(
                    job_id,
                    JobState::Done {
                        result: SolveResult {
                            x: Vec::new(),
                            iterations,
                            residual,
                            converged,
                            solution_fingerprint: fingerprint,
                        },
                    },
                ),
                JournalRecord::Failed { job_id, error } => {
                    inner.status.set(job_id, JobState::Failed { error });
                }
                JournalRecord::Accepted { .. } => {}
            }
        }

        // Recovery replay: every owed job goes back on the queue, resuming
        // from its newest intact checkpoint when one exists.
        {
            let mut queue = lock(&inner.queue);
            let mut quota = lock(&inner.quota);
            for (job_id, tenant, job) in recovered {
                let resume = SolverCheckpoint::read_from_path_with(
                    inner.config.storage.as_ref(),
                    &inner.ckpt_path(job_id),
                )
                .ok();
                quota.charge(&tenant);
                inner.status.set(job_id, JobState::Queued);
                inner.fr(
                    flight::EV_RECOVERY,
                    job_id,
                    u64::from(resume.is_some()),
                    &tenant,
                );
                queue.push(QueuedJob {
                    job_id,
                    tenant,
                    job,
                    resume,
                    enqueued: Instant::now(),
                    trace_id: 0,
                });
                inner.count(
                    "alserve_jobs_recovered_total",
                    "jobs re-enqueued by journal recovery at startup",
                );
            }
        }
        inner.queue_cv.notify_all();
        inner.flight_sync();

        let mut worker_threads = Vec::with_capacity(workers);
        for w in 0..workers {
            let inner = Arc::clone(&inner);
            worker_threads.push(std::thread::spawn(move || worker_loop(&inner, w)));
        }

        listener.set_nonblocking(true)?;
        let accept = {
            let inner = Arc::clone(&inner);
            std::thread::spawn(move || accept_loop(&inner, &listener))
        };

        Ok(ServerHandle {
            addr: local_addr,
            inner,
            workers: worker_threads,
            accept: Some(accept),
        })
    }
}

/// A running server: address, drain/stop controls, and introspection.
pub struct ServerHandle {
    addr: String,
    inner: Arc<Inner>,
    workers: Vec<JoinHandle<()>>,
    accept: Option<JoinHandle<()>>,
}

impl fmt::Debug for ServerHandle {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("ServerHandle")
            .field("addr", &self.addr)
            .field("active_jobs", &self.inner.active_jobs())
            .finish_non_exhaustive()
    }
}

impl ServerHandle {
    /// The bound address: `ip:port` for TCP (resolved when port 0 was
    /// requested), the socket path for unix.
    pub fn addr(&self) -> &str {
        &self.addr
    }

    /// Queued + running jobs.
    pub fn active_jobs(&self) -> usize {
        self.inner.active_jobs()
    }

    /// Stops admitting new jobs and parks everything still queued (owed
    /// jobs stay in the journal and are recovered on the next start).
    /// Running jobs finish normally.
    pub fn drain(&self) {
        drain_server(&self.inner);
    }

    /// True once a drain has been requested.
    pub fn is_draining(&self) -> bool {
        self.inner.draining.load(Ordering::SeqCst)
    }

    /// Blocks until no job is queued or running, polling at `tick`.
    pub fn wait_idle(&self, tick: Duration) {
        while self.inner.active_jobs() > 0 {
            std::thread::sleep(tick);
        }
    }

    /// Graceful shutdown: stop accepting, wake every thread, join them.
    /// The solve in flight on each worker runs to completion first.
    pub fn stop(mut self) {
        self.shutdown_and_join();
    }

    fn shutdown_and_join(&mut self) {
        self.inner.fr(flight::EV_SHUTDOWN, 0, 0, "graceful stop");
        self.inner.flight_sync();
        self.inner.shutdown.store(true, Ordering::SeqCst);
        self.inner.queue_cv.notify_all();
        self.inner.status.cv.notify_all();
        if let Some(h) = self.accept.take() {
            let _ = h.join();
        }
        for h in self.workers.drain(..) {
            let _ = h.join();
        }
        let conns: Vec<JoinHandle<()>> = lock(&self.inner.conns).drain(..).collect();
        for h in conns {
            let _ = h.join();
        }
    }
}

impl Drop for ServerHandle {
    fn drop(&mut self) {
        if !self.inner.shutdown.load(Ordering::SeqCst) {
            self.shutdown_and_join();
        }
    }
}

fn drain_server(inner: &Arc<Inner>) {
    inner.draining.store(true, Ordering::SeqCst);
    let parked: Vec<QueuedJob> = lock(&inner.queue).drain_all();
    inner.fr(flight::EV_DRAIN, parked.len() as u64, 0, "drain");
    {
        let mut quota = lock(&inner.quota);
        for job in &parked {
            inner.status.set(job.job_id, JobState::Parked);
            quota.release(&job.tenant);
        }
    }
    if !parked.is_empty() {
        inner.count(
            "alserve_jobs_parked_total",
            "queued jobs parked by a drain (recovered on next start)",
        );
    }
    inner.flight_sync();
    inner.queue_cv.notify_all();
}

// ---------------------------------------------------------------------------
// Accept + connection handling
// ---------------------------------------------------------------------------

fn accept_loop(inner: &Arc<Inner>, listener: &Listener) {
    if let Some(tele) = inner.tele() {
        tele.name_thread("alserve-accept");
    }
    loop {
        if inner.shutdown.load(Ordering::SeqCst) {
            break;
        }
        match listener.accept() {
            Ok(stream) => {
                let conn_inner = Arc::clone(inner);
                let h = std::thread::spawn(move || connection_loop(&conn_inner, stream));
                lock(&inner.conns).push(h);
            }
            Err(e) if e.kind() == io::ErrorKind::WouldBlock => {
                std::thread::sleep(Duration::from_millis(5));
            }
            Err(_) => std::thread::sleep(Duration::from_millis(5)),
        }
    }
}

fn connection_loop(inner: &Arc<Inner>, stream: Stream) {
    if let Some(tele) = inner.tele() {
        tele.name_thread("alserve-conn");
    }
    let _ = stream.set_read_timeout(Some(Duration::from_millis(100)));
    let mut stream = stream;
    loop {
        if inner.shutdown.load(Ordering::SeqCst) {
            break;
        }
        let frame = match Frame::read_from(&mut stream) {
            Ok(f) => f,
            Err(WireError::Io(e))
                if e.kind() == io::ErrorKind::WouldBlock
                    || e.kind() == io::ErrorKind::TimedOut =>
            {
                continue;
            }
            Err(WireError::Io(_)) => break, // EOF or transport failure.
            Err(e) => {
                // Undecodable frame. Integrity failures (bad magic, CRC
                // mismatch, truncation) are transport damage — the client
                // may well resend the frame intact, so hint a retry. Only
                // a frame that decodes as structurally impossible (unknown
                // tag, malformed field, future version) is permanent.
                let transport_damage = matches!(
                    e,
                    WireError::BadMagic
                        | WireError::CrcMismatch { .. }
                        | WireError::Truncated { .. }
                        | WireError::TooLarge { .. }
                );
                if transport_damage {
                    inner.count(
                        "alserve_frame_integrity_rejections_total",
                        "frames rejected for transport integrity (CRC/magic/truncation)",
                    );
                }
                let _ = Frame::Rejected {
                    reason: e.to_string(),
                    retry_after: transport_damage.then_some(inner.config.retry_after_hint),
                }
                .write_to(&mut stream);
                break;
            }
        };
        if !handle_frame(inner, &mut stream, frame) {
            break;
        }
    }
}

/// Handles one request frame; returns `false` when the connection should
/// close (write failure or protocol misuse).
fn handle_frame(inner: &Arc<Inner>, stream: &mut Stream, frame: Frame) -> bool {
    match frame {
        Frame::Ping => Frame::Pong.write_to(stream).is_ok(),
        Frame::Drain => {
            drain_server(inner);
            Frame::Draining.write_to(stream).is_ok()
        }
        Frame::Submit { tenant, job, trace } => {
            admit(inner, &tenant, job, trace).write_to(stream).is_ok()
        }
        Frame::Status { job_id } => inner.status.frame(job_id).write_to(stream).is_ok(),
        Frame::Scrape { kind } => Frame::ScrapeReply {
            body: scrape(inner, kind),
        }
        .write_to(stream)
        .is_ok(),
        Frame::Wait { job_id } => wait_loop(inner, stream, job_id, false),
        Frame::Observe { job_id } => wait_loop(inner, stream, job_id, true),
        // Server-to-client frames arriving at the server are misuse.
        _ => false,
    }
}

/// The alprove static-admission gate (`Some(reason)` = reject). Converts
/// the job's matrix for the two kernels a PCG iteration applies, runs the
/// abstract interpreter on each, and bounds the whole solve as
/// `(max_iters + 1) · (SpMV bound + SymGS bound)` — the `+ 1` covers the
/// residual/setup application before the loop. Resource errors
/// (AL401–AL403) also reject: a schedule the analysis proves to wedge the
/// RCU would burn its whole budget stalled. Semantics are deliberately
/// conservative — "cannot prove it fits the deadline" rejects, so an
/// accepted job never owes the engine more cycles than the budget.
fn static_admission_reason(inner: &Arc<Inner>, job: &JobPayload) -> Option<String> {
    let budget = inner.config.admission_cycle_budget?;
    let config = SimConfig::default();
    let mut total: u64 = 0;
    for kernel in [KernelType::SpMv, KernelType::SymGs] {
        let (alf, table) = match convert(kernel, &job.matrix, config.omega) {
            Ok(pair) => pair,
            Err(e) => return Some(format!("malformed job: {kernel:?} conversion failed: {e}")),
        };
        let analysis = analyze_table(kernel, &table, &alf, &config);
        if !analysis.is_admissible() {
            let codes: Vec<&str> = analysis
                .diagnostics
                .iter()
                .filter(|d| d.severity == alrescha_lint::Severity::Error)
                .map(|d| d.code)
                .collect();
            return Some(format!(
                "static analysis rejects {kernel:?} program: {}",
                codes.join(", ")
            ));
        }
        total = total.saturating_add(analysis.cycle_bound.admission_bound());
    }
    let bound = total.saturating_mul(job.max_iters.saturating_add(1));
    (bound > budget).then(|| {
        format!(
            "AL404: static cycle bound {bound} for {} PCG iterations exceeds the \
             {budget}-cycle service budget",
            job.max_iters
        )
    })
}

/// Admission: drain gate → job sanity → alprove static bound → per-tenant
/// quota → queue room → durable journal append → `Accepted`. Every
/// decision lands in the flight recorder; the quota `retry_after` is
/// additionally scaled by the tenant's SLO burn rate, so a tenant already
/// torching its error budget is told to back off harder.
fn admit(inner: &Arc<Inner>, tenant: &str, job: JobPayload, trace: TraceContext) -> Frame {
    let _span = (trace.trace_id != 0)
        .then(|| alrescha_obs::span!(inner.config.telemetry, format!("{}:admit", trace.prefix())))
        .flatten();
    if inner.draining.load(Ordering::SeqCst) {
        inner.fr(flight::EV_REJECT_DRAINING, trace.trace_id, 0, tenant);
        return Frame::Draining;
    }
    if job.matrix.rows() != job.matrix.cols() || job.b.len() != job.matrix.rows() {
        inner.fr(flight::EV_REJECT_SANITY, trace.trace_id, 0, tenant);
        return Frame::Rejected {
            reason: "malformed job: matrix must be square and match |b|".to_owned(),
            retry_after: None,
        };
    }
    if let Some(reason) = static_admission_reason(inner, &job) {
        inner.count(
            "alserve_admission_rejected_static_total",
            "submissions rejected by the alprove static cycle bound (AL404)",
        );
        inner.fr(flight::EV_REJECT_STATIC, trace.trace_id, 0, tenant);
        // Permanent for this job shape: retrying the same job cannot help,
        // so no retry_after hint.
        return Frame::Rejected {
            reason,
            retry_after: None,
        };
    }
    match lock(&inner.quota).try_admit(tenant) {
        QuotaDecision::Reject { retry_after } => {
            inner.count(
                "alserve_quota_rejections_total",
                "submissions rejected by per-tenant quota",
            );
            // SLO coupling: the burn-rate window turns into harder
            // backpressure — 1× inside the error budget, up to 8× when
            // the tenant is burning it flat out.
            let scale = lock(&inner.slo).retry_scale(tenant);
            let retry_after = retry_after.saturating_mul(scale);
            inner.fr(
                flight::EV_REJECT_QUOTA,
                trace.trace_id,
                u64::from(scale),
                tenant,
            );
            return Frame::Rejected {
                reason: format!(
                    "tenant {tenant:?} is at its in-flight quota ({})",
                    inner.config.per_tenant_quota
                ),
                retry_after: Some(retry_after),
            };
        }
        QuotaDecision::Admit => {}
    }
    // Queue room, with the fleet's linear backpressure ramp
    // (worker-count-independent, like `FleetConfig::retry_after`).
    {
        let queue = lock(&inner.queue);
        let capacity = inner.config.queue_capacity;
        if queue.len() >= capacity {
            lock(&inner.quota).release(tenant);
            let excess = queue.len() - capacity + 1;
            let retry_after = inner
                .config
                .retry_after_hint
                .saturating_mul(u32::try_from(excess).unwrap_or(u32::MAX));
            inner.count(
                "alserve_queue_rejections_total",
                "submissions rejected by the bounded queue",
            );
            inner.fr(
                flight::EV_REJECT_QUEUE_FULL,
                trace.trace_id,
                queue.len() as u64,
                tenant,
            );
            return Frame::Rejected {
                reason: format!("queue full: capacity {capacity}"),
                retry_after: Some(retry_after),
            };
        }
    }
    // Storage-pressure gate: while the storage breaker is open (recent
    // journal append failures — ENOSPC, failed fsync), pre-reject with a
    // retry hint instead of hammering a failing disk. Half-open lets one
    // probe submission through to test recovery.
    let storage_choice = inner.storage_breaker.gate();
    if matches!(storage_choice, BackendChoice::Cpu) {
        lock(&inner.quota).release(tenant);
        inner.count(
            "alserve_storage_rejections_total",
            "submissions rejected by storage-pressure admission control",
        );
        inner.fr(flight::EV_REJECT_STORAGE, trace.trace_id, 0, tenant);
        inner.note_breakers();
        return Frame::Rejected {
            reason: "storage pressure: journal writes are failing".to_owned(),
            retry_after: Some(inner.config.retry_after_hint.saturating_mul(4)),
        };
    }
    let storage_probe = matches!(storage_choice, BackendChoice::Probe);
    let job_id = inner.next_id.fetch_add(1, Ordering::SeqCst);
    // Durability point: fsync the Accepted record BEFORE acknowledging.
    let accepted = {
        let _journal_span = (trace.trace_id != 0).then(|| {
            alrescha_obs::span!(
                inner.config.telemetry,
                format!("{}:journal-accept:{job_id}", trace.prefix())
            )
        });
        lock(&inner.journal).accept(job_id, tenant, &job)
    };
    if let Err(e) = accepted {
        lock(&inner.quota).release(tenant);
        if storage_probe {
            inner.storage_breaker.record_probe(false);
        } else {
            inner.storage_breaker.record_failure();
        }
        inner.count(
            "alserve_storage_rejections_total",
            "submissions rejected by storage-pressure admission control",
        );
        inner.fr(flight::EV_FAULT_STORAGE, trace.trace_id, job_id, tenant);
        inner.note_breakers();
        // In-band, transient: the client backs off and retries rather than
        // losing the connection. The job was never acknowledged, so no
        // durability promise is broken.
        return Frame::Rejected {
            reason: format!("storage pressure: journal append failed: {e}"),
            retry_after: Some(inner.config.retry_after_hint.saturating_mul(4)),
        };
    }
    if storage_probe {
        inner.storage_breaker.record_probe(true);
    } else {
        inner.storage_breaker.record_success();
    }
    inner.note_breakers();
    if trace.trace_id != 0 {
        lock(&inner.trace_ids).insert(job_id, trace.trace_id);
    }
    inner.fr(flight::EV_JOURNAL_ACCEPT, trace.trace_id, job_id, tenant);
    inner.status.set(job_id, JobState::Queued);
    lock(&inner.queue).push(QueuedJob {
        job_id,
        tenant: tenant.to_owned(),
        job,
        resume: None,
        enqueued: Instant::now(),
        trace_id: trace.trace_id,
    });
    inner.queue_cv.notify_one();
    inner.count(
        "alserve_jobs_accepted_total",
        "jobs durably journaled and acknowledged",
    );
    inner.fr(flight::EV_ADMIT_OK, trace.trace_id, job_id, tenant);
    // Durability point for the flight dump too: after this sync the
    // on-disk ring's tail contains this job's journal-accept event, so a
    // SIGKILL dump can be cross-checked against the journal tail.
    inner.flight_sync();
    Frame::Accepted { job_id }
}

/// Minimal JSON string escaping for the hand-rolled scrape bodies.
fn json_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out
}

/// Renders one live-introspection body for a [`Frame::Scrape`].
fn scrape(inner: &Arc<Inner>, kind: ScrapeKind) -> String {
    let queue_depth = lock(&inner.queue).len();
    match kind {
        ScrapeKind::Metrics => {
            let Some(tele) = inner.tele() else {
                return "# alserve: telemetry not attached; no metrics collected\n".to_owned();
            };
            // Refresh the point-in-time families right before rendering.
            let m = tele.metrics();
            m.gauge("alserve_queue_depth", false, "queued (not yet running) jobs")
                .set(queue_depth as f64);
            m.gauge("alserve_active_jobs", false, "queued + running jobs")
                .set(inner.active_jobs() as f64);
            m.gauge(
                "alserve_flight_events_total",
                false,
                "events recorded by the flight recorder since start",
            )
            .set(inner.config.flight.total() as f64);
            let slo = lock(&inner.slo);
            for (tenant, _) in slo.tenants() {
                m.gauge(
                    &format!("alserve_slo_burn_rate{{tenant=\"{tenant}\"}}"),
                    false,
                    "fraction of requests missing the e2e SLO in the burn window",
                )
                .set(slo.burn_rate(tenant));
                m.gauge(
                    &format!("alserve_slo_retry_scale{{tenant=\"{tenant}\"}}"),
                    false,
                    "current burn-driven multiplier on quota retry_after hints",
                )
                .set(f64::from(slo.retry_scale(tenant)));
            }
            drop(slo);
            m.to_prometheus()
        }
        ScrapeKind::Health => {
            let status = if inner.shutdown.load(Ordering::SeqCst) {
                "stopping"
            } else if inner.draining.load(Ordering::SeqCst) {
                "draining"
            } else {
                "ok"
            };
            format!(
                "{{\"status\":\"{status}\",\"active_jobs\":{},\"queue_depth\":{queue_depth},\
                 \"breaker\":\"{}\",\"storage_breaker\":\"{}\",\"flight_events\":{},\
                 \"uptime_secs\":{}}}",
                inner.active_jobs(),
                inner.breaker.state(),
                inner.storage_breaker.state(),
                inner.config.flight.total(),
                inner.started.elapsed().as_secs(),
            )
        }
        ScrapeKind::Jobs => {
            let map = &lock(&inner.status.board).jobs;
            let mut ids: Vec<u64> = map.keys().copied().collect();
            ids.sort_unstable();
            let rows: Vec<String> = ids
                .iter()
                .filter_map(|id| {
                    map.get(id).map(|state| {
                        let (name, detail) = match state {
                            JobState::Queued => ("queued".to_owned(), String::new()),
                            JobState::Running {
                                iteration,
                                residual,
                            } => (
                                "running".to_owned(),
                                if residual.is_finite() {
                                    format!(",\"iteration\":{iteration},\"residual\":{residual:e}")
                                } else {
                                    format!(",\"iteration\":{iteration},\"residual\":null")
                                },
                            ),
                            JobState::Done { result } => (
                                "done".to_owned(),
                                format!(
                                    ",\"iterations\":{},\"converged\":{}",
                                    result.iterations, result.converged
                                ),
                            ),
                            JobState::Failed { error } => (
                                "failed".to_owned(),
                                format!(",\"error\":\"{}\"", json_escape(error)),
                            ),
                            JobState::Parked => ("parked".to_owned(), String::new()),
                        };
                        format!("{{\"job_id\":{id},\"state\":\"{name}\"{detail}}}")
                    })
                })
                .collect();
            format!("[{}]", rows.join(","))
        }
        ScrapeKind::Top => {
            let slo = lock(&inner.slo);
            let quota = lock(&inner.quota);
            // Tenants seen by either the quota table (in-flight now) or
            // the SLO table (any history).
            let mut tenants: Vec<String> = slo
                .tenants()
                .iter()
                .map(|(name, _)| (*name).to_owned())
                .collect();
            tenants.sort();
            let rows: Vec<String> = tenants
                .iter()
                .map(|tenant| {
                    let row = slo
                        .tenants()
                        .into_iter()
                        .find(|(name, _)| name == tenant)
                        .map_or(0, |(_, t)| t.e2e.count());
                    format!(
                        "{{\"tenant\":\"{}\",\"inflight\":{},\"quota\":{},\
                         \"burn_rate\":{:.4},\"retry_scale\":{},\"e2e_count\":{row}}}",
                        json_escape(tenant),
                        quota.inflight(tenant),
                        quota.per_tenant(),
                        slo.burn_rate(tenant),
                        slo.retry_scale(tenant),
                    )
                })
                .collect();
            format!(
                "{{\"queue_depth\":{queue_depth},\"active_jobs\":{},\"draining\":{},\
                 \"breaker\":\"{}\",\"storage_breaker\":\"{}\",\"quota_rejections\":{},\
                 \"tenants\":[{}]}}",
                inner.active_jobs(),
                inner.draining.load(Ordering::SeqCst),
                inner.breaker.state(),
                inner.storage_breaker.state(),
                quota.rejections(),
                rows.join(","),
            )
        }
    }
}

/// Streams progress to a client until the job is terminal. With
/// `observe` set (a passive [`Frame::Observe`] subscriber), terminal
/// `Done` frames are sent with the solution vector stripped: observers
/// get the job's progress and scalar outcome, not the tenant's data.
fn wait_loop(inner: &Arc<Inner>, stream: &mut Stream, job_id: u64, observe: bool) -> bool {
    // The progress last sent: a poll that finds it unchanged sends nothing.
    let mut last_sent: Option<(u64, u64)> = None;
    loop {
        if inner.shutdown.load(Ordering::SeqCst) {
            return false;
        }
        let map = lock(&inner.status.board);
        let Some(state) = map.jobs.get(&job_id) else {
            drop(map);
            return Frame::NotFound { job_id }.write_to(stream).is_ok();
        };
        let progress = state.progress();
        if progress.is_some() && progress == last_sent {
            drop(
                inner
                    .status
                    .cv
                    .wait_timeout(map, Duration::from_millis(50))
                    .unwrap_or_else(PoisonError::into_inner),
            );
            continue;
        }
        let mut frame = state.to_frame(job_id);
        drop(map);
        if observe {
            if let Frame::Done { result, .. } = &mut frame {
                result.x = Vec::new();
            }
        }
        if frame.write_to(stream).is_err() {
            return false;
        }
        if progress.is_none() {
            return true;
        }
        last_sent = progress;
    }
}

// ---------------------------------------------------------------------------
// Workers
// ---------------------------------------------------------------------------

fn worker_loop(inner: &Arc<Inner>, worker: usize) {
    if let Some(tele) = inner.tele() {
        tele.name_thread(format!("alserve-worker-{worker}"));
    }
    let mut station = inner.fleet.station(worker);
    loop {
        let job = {
            let mut queue = lock(&inner.queue);
            loop {
                if inner.shutdown.load(Ordering::SeqCst) {
                    return;
                }
                if let Some(job) = queue.pop() {
                    break job;
                }
                let (q, _) = inner
                    .queue_cv
                    .wait_timeout(queue, Duration::from_millis(50))
                    .unwrap_or_else(PoisonError::into_inner);
                queue = q;
            }
        };
        run_job(inner, &mut station, job);
    }
}

fn run_job(inner: &Arc<Inner>, station: &mut Station, job: QueuedJob) {
    let QueuedJob {
        job_id,
        tenant,
        job: payload,
        resume,
        enqueued,
        trace_id,
    } = job;
    let queue_wait = enqueued.elapsed();
    {
        let mut slo = lock(&inner.slo);
        slo.observe_queue_wait(
            &tenant,
            u64::try_from(queue_wait.as_micros()).unwrap_or(u64::MAX),
        );
    }
    inner.observe_latency(
        "queue_wait",
        &tenant,
        u64::try_from(queue_wait.as_micros()).unwrap_or(u64::MAX),
    );
    // Service-level breaker: while the device is suspect, new jobs are
    // pinned to the host backend; exactly one half-open probe runs
    // on-device at a time (SharedBreaker's single-probe invariant).
    let choice = inner.breaker.gate();
    let cpu_only = matches!(choice, BackendChoice::Cpu);
    let probe = matches!(choice, BackendChoice::Probe);
    if cpu_only {
        inner.count(
            "alserve_cpu_degraded_jobs_total",
            "jobs pinned to the host backend by the open breaker",
        );
    }
    inner.status.set(
        job_id,
        JobState::Running {
            iteration: resume.as_ref().map_or(0, |c| c.iteration as u64),
            residual: f64::NAN,
        },
    );

    let mut spec = JobSpec::new(
        payload.matrix,
        JobKernel::Pcg {
            b: payload.b,
            opts: SolverOptions {
                tol: payload.tol,
                max_iters: usize::try_from(payload.max_iters).unwrap_or(usize::MAX),
            },
        },
    )
    .with_id(job_id)
    .with_checkpoint_every(inner.config.checkpoint_every)
    .with_cpu_only(cpu_only)
    .with_priority(payload.priority)
    .with_trace_id(trace_id);
    if let Some(ckpt) = resume {
        spec = spec.with_resume_from(ckpt);
    }

    let solve_started = Instant::now();
    let record = inner
        .fleet
        .execute_on(station, job_id as usize, &spec, queue_wait);
    let solve_us = u64::try_from(solve_started.elapsed().as_micros()).unwrap_or(u64::MAX);

    let (state, terminal) = match record.result {
        Ok(out) => {
            if probe {
                inner.breaker.record_probe(true);
            } else if !cpu_only {
                inner.breaker.record_success();
            }
            let result = match &out {
                JobOutput::Pcg { outcome } => SolveResult {
                    x: outcome.x.clone(),
                    iterations: outcome.iterations as u64,
                    residual: outcome.residual,
                    converged: outcome.converged,
                    solution_fingerprint: out.solution_fingerprint(),
                },
                // A Pcg spec always yields a Pcg output; tolerate anything
                // else defensively rather than panicking a worker.
                other => SolveResult {
                    x: other.values().to_vec(),
                    iterations: 0,
                    residual: f64::NAN,
                    converged: false,
                    solution_fingerprint: other.solution_fingerprint(),
                },
            };
            let terminal = JournalRecord::Completed {
                job_id,
                fingerprint: result.solution_fingerprint,
                iterations: result.iterations,
                residual: result.residual,
                converged: result.converged,
            };
            (JobState::Done { result }, terminal)
        }
        Err(e) => {
            if probe {
                inner.breaker.record_probe(false);
            } else if !cpu_only {
                inner.breaker.record_failure();
            }
            let error = e.to_string();
            // A solve fault is exactly the moment the flight recorder
            // exists for: capture it and flush the ring immediately.
            inner.fr(flight::EV_SOLVE_FAULT, trace_id, job_id, &error);
            inner.flight_sync();
            (
                JobState::Failed {
                    error: error.clone(),
                },
                JournalRecord::Failed { job_id, error },
            )
        }
    };
    inner.note_breakers();

    // Terminal record first (durable), then the in-memory state clients
    // see. A crash between the two re-runs the job on recovery, which is
    // safe: the solve is deterministic and fingerprint-identical.
    let appended = {
        let _terminal_span = (trace_id != 0).then(|| {
            alrescha_obs::span!(
                inner.config.telemetry,
                format!("trace:{trace_id:016x}:journal-terminal:{job_id}")
            )
        });
        lock(&inner.journal).terminal(&terminal)
    };
    if appended.is_err() {
        inner.count(
            "alserve_journal_terminal_failures_total",
            "terminal records that failed to append",
        );
    }
    inner.fr(
        flight::EV_JOURNAL_TERMINAL,
        trace_id,
        job_id,
        if matches!(terminal, JournalRecord::Completed { .. }) {
            "completed"
        } else {
            "failed"
        },
    );
    let _ = inner.config.storage.remove_file(&inner.ckpt_path(job_id));
    lock(&inner.quota).release(&tenant);
    lock(&inner.trace_ids).remove(&job_id);
    // Per-tenant SLO accounting at the terminal edge: solve latency and
    // end-to-end (accept → terminal), the latter judged against the
    // target and charged to this second's burn slot. Recorded *before*
    // the terminal state is published, so a scrape issued the moment a
    // waiter's `Done` lands already reflects this job.
    let e2e_us = u64::try_from(enqueued.elapsed().as_micros()).unwrap_or(u64::MAX);
    {
        let mut slo = lock(&inner.slo);
        slo.observe_solve(&tenant, solve_us);
        slo.observe_e2e(&tenant, e2e_us, inner.slot());
    }
    inner.observe_latency("solve", &tenant, solve_us);
    inner.observe_latency("e2e", &tenant, e2e_us);
    inner.count(
        "alserve_jobs_finished_total",
        "jobs that reached a terminal state",
    );
    inner.status.set(job_id, state);
    inner.flight_sync();
}

#[cfg(test)]
mod tests {
    use super::*;

    fn done(x: Vec<f64>, fingerprint: u64) -> JobState {
        JobState::Done {
            result: SolveResult {
                x,
                iterations: 3,
                residual: 1e-9,
                converged: true,
                solution_fingerprint: fingerprint,
            },
        }
    }

    fn done_result(board: &StatusBoard, job_id: u64) -> SolveResult {
        match board.frame(job_id) {
            Frame::Done { result, .. } => result,
            other => panic!("job {job_id}: expected Done, got {other:?}"),
        }
    }

    #[test]
    fn only_the_newest_settled_jobs_keep_their_solution() {
        let board = StatusBoard::new(2);
        for id in 1..=3 {
            board.set(id, done(vec![1.0, 2.0], 100 + id));
        }
        let evicted = done_result(&board, 1);
        assert!(evicted.x.is_empty(), "the oldest job is past the bound");
        assert_eq!(evicted.solution_fingerprint, 101);
        assert_eq!((evicted.iterations, evicted.converged), (3, true));
        for id in 2..=3 {
            assert_eq!(done_result(&board, id).x, vec![1.0, 2.0], "job {id}");
        }
        // A replayed Done (no vector) and a failure hold nothing to evict,
        // so they leave the kept vectors alone.
        board.set(4, done(Vec::new(), 104));
        board.set(5, JobState::Failed { error: "e".into() });
        assert_eq!(done_result(&board, 2).x.len(), 2);
        board.set(6, done(vec![3.0], 106));
        assert!(done_result(&board, 2).x.is_empty());
        assert_eq!(done_result(&board, 3).x.len(), 2);
    }

    #[test]
    fn queued_and_a_fresh_run_send_the_same_progress() {
        let fresh = JobState::Running {
            iteration: 0,
            residual: f64::NAN,
        };
        assert_eq!(JobState::Queued.progress(), fresh.progress());
        let later = JobState::Running {
            iteration: 1,
            residual: 0.5,
        };
        assert_ne!(later.progress(), fresh.progress());
        assert_eq!(done(Vec::new(), 1).progress(), None);
    }
}
