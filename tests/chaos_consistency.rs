//! `alchaos` crash-consistency harness: seeded storage and network fault
//! injection against the serve stack, with replayable failures.
//!
//! Every test here runs a per-seed property over a seed matrix:
//!
//! * `CHAOS_SEED=<n>` runs exactly that seed — the repro knob printed
//!   when a seed fails;
//! * `CHAOS_SEEDS=<count>` sets the matrix width (CI uses 32);
//! * unset, a small default keeps `cargo test` quick.
//!
//! The invariants, per seed:
//!
//! 1. **No acked record is ever lost.** Any journal operation that
//!    returned `Ok` under fault injection is present after a clean
//!    reopen; operations that returned `Err` may or may not have landed
//!    (crash-consistent either way), but can never tear the records
//!    around them.
//! 2. **Recovery is bit-identical.** Replaying the journal through the
//!    chaos storage (bit-flip reads and all) yields exactly the same
//!    pending/settled sets as a clean replay, and a served solve that
//!    lived through storage+network chaos fingerprints identically to
//!    an uninterrupted in-process run.
//! 3. **Checkpoints are atomic.** A reader only ever observes the old
//!    or the new checkpoint, bit-identically — never a blend or a torn
//!    file.
//! 4. **Every fault kind demonstrably fires** across the matrix,
//!    asserted from the injector counters and visible in alobs metrics.

use std::panic::{self, AssertUnwindSafe};
use std::path::PathBuf;
use std::sync::Arc;
use std::time::Duration;

use alrescha::checkpoint::{SolverCheckpoint, SolverKind};
use alrescha::{ChaosStorage, IoFaultCounters, IoFaultPlan, StorageIo};
use alrescha_obs::Telemetry;
use alrescha_serve::chaos::{ChaosProxy, NetFaultCounters, NetFaultPlan};
use alrescha_serve::{
    Bind, Client, JobPayload, Journal, JournalRecord, RetryPolicy, Server, ServerConfig,
};

/// Base offset so chaos seeds are recognizable in logs.
const SEED_BASE: u64 = 0xA15C_0000;

/// The seed matrix: `CHAOS_SEED` pins one seed, `CHAOS_SEEDS` widens the
/// matrix (CI passes 32), otherwise `default_count` seeds run.
fn seed_matrix(default_count: u64) -> Vec<u64> {
    if let Ok(pinned) = std::env::var("CHAOS_SEED") {
        let seed = pinned
            .parse::<u64>()
            .unwrap_or_else(|_| panic!("CHAOS_SEED must be a u64, got {pinned:?}"));
        return vec![seed];
    }
    let count = std::env::var("CHAOS_SEEDS")
        .ok()
        .and_then(|s| s.parse::<u64>().ok())
        .unwrap_or(default_count);
    (0..count).map(|i| SEED_BASE + i).collect()
}

/// Runs `body` for every seed in the matrix; a failing seed prints a
/// copy-pasteable repro line before propagating the panic.
fn for_each_seed(test: &str, default_count: u64, body: impl Fn(u64)) {
    let seeds = seed_matrix(default_count);
    for &seed in &seeds {
        if let Err(payload) = panic::catch_unwind(AssertUnwindSafe(|| body(seed))) {
            eprintln!(
                "\nchaos seed {seed} failed; reproduce with:\n  \
                 CHAOS_SEED={seed} cargo test --release --test chaos_consistency {test} -- --nocapture\n"
            );
            panic::resume_unwind(payload);
        }
    }
}

/// Coverage assertions only make sense over a real matrix, not a pinned
/// single-seed repro run.
fn full_matrix() -> bool {
    std::env::var("CHAOS_SEED").is_err()
}

fn tempdir(name: &str, seed: u64) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("alchaos-{name}-{seed}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

fn small_job(seed: u64) -> JobPayload {
    let matrix = alrescha_sparse::gen::stencil27(2);
    let b: Vec<f64> = (0..matrix.rows())
        .map(|i| ((i as f64) + (seed as f64) * 0.5).cos() + 1.5)
        .collect();
    JobPayload {
        matrix,
        b,
        tol: 1e-10,
        max_iters: 100,
        priority: (seed % 4) as u8,
    }
}

// ---------------------------------------------------------------------------
// Invariant 1 + 2a: the journal under storage chaos
// ---------------------------------------------------------------------------

#[test]
fn journal_never_loses_an_acked_record() {
    let merged = std::sync::Mutex::new(IoFaultCounters::default());
    for_each_seed("journal_never_loses_an_acked_record", 8, |seed| {
        let dir = tempdir("journal", seed);
        let wal = dir.join("jobs.wal");
        let storage = Arc::new(ChaosStorage::new(IoFaultPlan::aggressive(seed)));

        // Three open→work→drop rounds: each open replays through the
        // chaos read path (bit flips), each round appends under write
        // faults. Track exactly which operations were acknowledged.
        let mut acked_accepts: Vec<u64> = Vec::new();
        let mut acked_terminals: Vec<u64> = Vec::new();
        let mut next_id = 1u64;
        for round in 0..3u64 {
            let journal = Journal::open_with(&wal, Arc::clone(&storage) as Arc<dyn StorageIo>);
            // A stable-read failure after 32 retries is theoretically
            // possible but means the harness, not the journal, is
            // miscalibrated — surface it as a failure.
            let mut journal = journal
                .unwrap_or_else(|e| panic!("seed {seed} round {round}: journal open failed: {e}"));
            // Replay must never have dropped an acked record.
            let pending: Vec<u64> = journal.recover().iter().map(|(id, _, _)| *id).collect();
            for id in &acked_accepts {
                let settled = journal.settled().iter().any(|r| match r {
                    JournalRecord::Completed { job_id, .. }
                    | JournalRecord::Failed { job_id, .. } => job_id == id,
                    _ => false,
                });
                assert!(
                    pending.contains(id) || settled,
                    "seed {seed} round {round}: acked job {id} lost on replay"
                );
            }
            for id in &acked_terminals {
                assert!(
                    !pending.contains(id),
                    "seed {seed} round {round}: acked terminal for {id} lost (job re-pending)"
                );
            }

            let job = small_job(seed);
            for op in 0..12u64 {
                let id = next_id;
                if op % 3 == 2 && acked_accepts.iter().any(|a| !acked_terminals.contains(a)) {
                    // Settle the oldest unfinished acked job.
                    let open = *acked_accepts
                        .iter()
                        .find(|a| !acked_terminals.contains(a))
                        .unwrap();
                    let record = JournalRecord::Completed {
                        job_id: open,
                        fingerprint: seed ^ open,
                        iterations: op,
                        residual: 1e-12,
                        converged: true,
                    };
                    if journal.terminal(&record).is_ok() {
                        acked_terminals.push(open);
                    }
                } else if journal.accept(id, "chaos", &job).is_ok() {
                    acked_accepts.push(id);
                    next_id += 1;
                } else {
                    // Unacked: the record may or may not be on disk; both
                    // are crash-consistent. Skip the id to mimic a fresh
                    // admission after a client retry.
                    next_id += 1;
                }
            }
        }

        // Final verification: a clean replay (no read faults) and a chaos
        // replay (stable-read loop) must agree bit-for-bit on recovery.
        let clean = Journal::open(&wal).unwrap();
        let chaos = Journal::open_with(&wal, Arc::clone(&storage) as Arc<dyn StorageIo>)
            .unwrap_or_else(|e| panic!("seed {seed}: chaos reopen failed: {e}"));
        assert_eq!(
            clean.recover(),
            chaos.recover(),
            "seed {seed}: chaos replay diverged from clean replay (pending)"
        );
        assert_eq!(
            clean.settled(),
            chaos.settled(),
            "seed {seed}: chaos replay diverged from clean replay (settled)"
        );
        let pending: Vec<u64> = clean.recover().iter().map(|(id, _, _)| *id).collect();
        for id in &acked_accepts {
            let settled = acked_terminals.contains(id);
            assert!(
                pending.contains(id) || settled,
                "seed {seed}: acked job {id} missing after clean reopen"
            );
        }
        for id in &acked_terminals {
            assert!(
                !pending.contains(id),
                "seed {seed}: acked terminal for {id} missing after clean reopen"
            );
        }

        merged.lock().unwrap().merge(&storage.counters());
        let _ = std::fs::remove_dir_all(&dir);
    });

    if full_matrix() {
        let merged = merged.lock().unwrap();
        assert!(
            merged.all_kinds_fired(),
            "storage fault coverage incomplete across the matrix: {merged:?}"
        );
    }
}

// ---------------------------------------------------------------------------
// Invariant 3: checkpoint atomicity
// ---------------------------------------------------------------------------

fn checkpoint_fixture(tag: u64, n: usize) -> SolverCheckpoint {
    let f = |i: usize| ((i as f64) + (tag as f64) * 0.25).sin();
    SolverCheckpoint {
        kind: SolverKind::Pcg,
        n,
        iteration: tag as usize + 1,
        x: (0..n).map(f).collect(),
        r: (0..n).map(|i| f(i) * 0.5).collect(),
        p: (0..n).map(|i| f(i) * 0.25).collect(),
        rz: 1.0 + tag as f64,
        r0: 10.0,
        residual_history: (0..=tag).map(|k| 1.0 / (k as f64 + 1.0)).collect(),
        fault: None,
    }
}

#[test]
fn checkpoint_writes_are_atomic_old_or_new() {
    for_each_seed("checkpoint_writes_are_atomic_old_or_new", 8, |seed| {
        let dir = tempdir("ckpt", seed);
        let path = dir.join("job-1.ckpt");
        let storage = ChaosStorage::new(IoFaultPlan::aggressive(seed));

        // Establish a known-good "old" checkpoint, then hammer the path
        // with "new" checkpoints through the fault injector.
        let mut current = checkpoint_fixture(0, 24);
        current.write_to_path(&path).unwrap();
        for attempt in 1..=12u64 {
            let next = checkpoint_fixture(attempt, 24);
            let wrote = next.write_to_path_with(&storage, &path).is_ok();
            // Old-or-new: a clean read must yield exactly one of the two
            // candidate checkpoints, bit-identically.
            let seen = SolverCheckpoint::read_from_path(&path).unwrap_or_else(|e| {
                panic!("seed {seed} attempt {attempt}: checkpoint unreadable (torn?): {e}")
            });
            if wrote {
                assert_eq!(
                    seen, next,
                    "seed {seed} attempt {attempt}: acked write not visible"
                );
            } else {
                assert!(
                    seen == current || seen == next,
                    "seed {seed} attempt {attempt}: torn checkpoint observed"
                );
            }
            current = seen;
            // The chaos read path (bit-flip retries) agrees with the
            // clean read.
            let chaos_seen =
                SolverCheckpoint::read_from_path_with(&storage, &path).unwrap_or_else(|e| {
                    panic!("seed {seed} attempt {attempt}: chaos read failed: {e}")
                });
            assert_eq!(chaos_seen, current);
        }
        let _ = std::fs::remove_dir_all(&dir);
    });
}

// ---------------------------------------------------------------------------
// Invariant 2b + 4: the full serve stack under storage AND network chaos
// ---------------------------------------------------------------------------

fn reference_fingerprint(job: &JobPayload) -> u64 {
    use alrescha::fleet::{Fleet, FleetConfig, JobKernel, JobSpec};
    let spec = JobSpec::new(
        job.matrix.clone(),
        JobKernel::Pcg {
            b: job.b.clone(),
            opts: alrescha::SolverOptions {
                tol: job.tol,
                max_iters: usize::try_from(job.max_iters).unwrap(),
            },
        },
    );
    let fleet = Fleet::new(FleetConfig::default().with_workers(1));
    let report = fleet.run_sequential(vec![spec]);
    report.jobs[0]
        .result
        .as_ref()
        .unwrap()
        .solution_fingerprint()
}

fn chaos_policy(seed: u64) -> RetryPolicy {
    RetryPolicy {
        deadline: Duration::from_mins(2),
        max_attempts: 2000,
        base: Duration::from_millis(1),
        cap: Duration::from_millis(10),
        seed,
    }
}

#[test]
fn serve_stack_survives_storage_and_network_chaos() {
    let merged_net = std::sync::Mutex::new(NetFaultCounters::default());
    let merged_io = std::sync::Mutex::new(IoFaultCounters::default());
    for_each_seed(
        "serve_stack_survives_storage_and_network_chaos",
        2,
        |seed| {
            let dir = tempdir("serve", seed);
            let tele = Telemetry::new();
            // Storage chaos is dialed below the journal-test rates: the server
            // must make forward progress through its storage breaker, not
            // spend the whole run rejecting.
            let io_plan = IoFaultPlan {
                short_write_rate: 0.10,
                interrupt_rate: 0.05,
                enospc_rate: 0.04,
                fsync_fail_rate: 0.03,
                bit_flip_rate: 0.10,
                seed,
            };
            let storage = Arc::new(ChaosStorage::new(io_plan).with_telemetry(Arc::clone(&tele)));
            let config = ServerConfig {
                bind: Bind::Tcp("127.0.0.1:0".to_owned()),
                data_dir: dir.clone(),
                workers: 2,
                queue_capacity: 16,
                per_tenant_quota: 8,
                checkpoint_every: 3,
                retry_after_hint: Duration::from_millis(2),
                storage: Arc::clone(&storage) as Arc<dyn StorageIo>,
                ..ServerConfig::default()
            };
            let handle = Server::new(config).start().unwrap();
            let proxy = ChaosProxy::start_with_telemetry(
                handle.addr().to_owned(),
                NetFaultPlan::aggressive(seed),
                Some(Arc::clone(&tele)),
            )
            .unwrap();

            // Submit a small prioritized batch THROUGH the proxy and wait for
            // every job the server acknowledged.
            let mut client = Client::tcp(proxy.addr().to_owned(), chaos_policy(seed));
            let jobs: Vec<JobPayload> = (0..3u64)
                .map(|j| {
                    let mut job = small_job(seed.wrapping_add(j));
                    job.priority = [0u8, 200, 9][j as usize];
                    job
                })
                .collect();
            let mut ids = Vec::new();
            for job in &jobs {
                let id = client
                    .submit("chaos", job)
                    .unwrap_or_else(|e| panic!("seed {seed}: submit failed: {e:?}"));
                ids.push(id);
            }
            for (id, job) in ids.iter().zip(&jobs) {
                let result = client
                    .wait(*id)
                    .unwrap_or_else(|e| panic!("seed {seed}: wait({id}) failed: {e:?}"));
                assert!(result.converged, "seed {seed}: job {id} did not converge");
                assert_eq!(
                    result.solution_fingerprint,
                    reference_fingerprint(job),
                    "seed {seed}: job {id} diverged from the uninterrupted reference"
                );
            }
            proxy_counters_into(&proxy, &merged_net);
            handle.stop();

            // Crash-consistency coda: restart CLEAN (no chaos) over whatever
            // the chaotic run left on disk. Every acked job must either be
            // settled or recovered and re-run to the identical fingerprint.
            let clean_config = ServerConfig {
                bind: Bind::Tcp("127.0.0.1:0".to_owned()),
                data_dir: dir.clone(),
                workers: 2,
                retry_after_hint: Duration::from_millis(2),
                ..ServerConfig::default()
            };
            let handle = Server::new(clean_config).start().unwrap();
            let mut client = Client::tcp(handle.addr().to_owned(), chaos_policy(seed));
            for (id, job) in ids.iter().zip(&jobs) {
                let result = client.wait(*id).unwrap_or_else(|e| {
                    panic!("seed {seed}: post-restart wait({id}) failed: {e:?}")
                });
                assert!(result.converged);
                assert_eq!(
                    result.solution_fingerprint,
                    reference_fingerprint(job),
                    "seed {seed}: job {id} not bit-identical after clean restart"
                );
            }
            handle.stop();

            // Telemetry: injected faults are visible as alobs counters.
            let snapshot = tele.metrics().snapshot_json();
            if storage.counters().total() > 0 {
                assert!(
                    snapshot.contains("alchaos_io_"),
                    "seed {seed}: storage faults fired but no alchaos_io_* metric"
                );
            }
            merged_io.lock().unwrap().merge(&storage.counters());
            let _ = std::fs::remove_dir_all(&dir);
        },
    );

    // Coverage across the matrix: every network fault kind fired. (The
    // storage-side coverage assert lives in the journal test, whose rates
    // are tuned to fire every kind; here the dialed-down plan still must
    // have injected a meaningful number of faults.)
    if full_matrix() && seed_matrix(2).len() >= 8 {
        let net = merged_net.lock().unwrap();
        assert!(
            net.all_kinds_fired(),
            "network fault coverage incomplete across the matrix: {net:?}"
        );
        let io = merged_io.lock().unwrap();
        assert!(
            io.total() > 0,
            "storage injector never fired during the e2e matrix"
        );
    }
}

fn proxy_counters_into(proxy: &ChaosProxy, merged: &std::sync::Mutex<NetFaultCounters>) {
    merged.lock().unwrap().merge(&proxy.counters());
}
