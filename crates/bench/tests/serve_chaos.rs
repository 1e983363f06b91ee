//! Chaos soak for the serve stack: repeated stop/restart cycles with
//! **both** fault injectors armed — seeded storage faults under the
//! journal/checkpoint path and a seeded frame-aware fault proxy between
//! the client and the server.
//!
//! The SIGKILL soak (`serve_soak.rs`) proves crash recovery against a
//! hard process death on healthy storage; this soak proves the same
//! invariants when the storage and the network are actively hostile:
//!
//! * every job the server acknowledged is eventually served,
//!   bit-identical to an uninterrupted in-process run, across every
//!   stop/restart cycle;
//! * the server never deadlocks and never leaks connections while the
//!   proxy drops, truncates, corrupts, delays, and severs frames;
//! * the whole run is replayable from `CHAOS_SEED`.
//!
//! Cycle count: `CHAOS_CYCLES` env var; defaults to 8 in release builds
//! (the CI chaos job) and 3 under debug so `cargo test` stays quick.

use std::collections::BTreeMap;
use std::sync::Arc;
use std::time::Duration;

use alrescha::fleet::{Fleet, FleetConfig, JobKernel, JobSpec};
use alrescha::util::splitmix64;
use alrescha::{ChaosStorage, IoFaultPlan, SolverOptions, StorageIo};
use alrescha_obs::flight::FlightDump;
use alrescha_serve::chaos::{ChaosProxy, NetFaultCounters, NetFaultPlan};
use alrescha_serve::{Bind, Client, JobPayload, Journal, RetryPolicy, Server, ServerConfig};

fn tempdir(name: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join(format!("alserve-chaos-{name}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

fn sample_job(side: usize, seed: u64) -> JobPayload {
    let matrix = alrescha_sparse::gen::stencil27(side);
    let b: Vec<f64> = (0..matrix.rows())
        .map(|i| ((i as f64) + (seed as f64) * 0.25).sin() + 1.5)
        .collect();
    JobPayload {
        matrix,
        b,
        tol: 1e-10,
        max_iters: 200,
        priority: (seed % 3) as u8,
    }
}

fn reference_fingerprint(job: &JobPayload) -> u64 {
    let spec = JobSpec::new(
        job.matrix.clone(),
        JobKernel::Pcg {
            b: job.b.clone(),
            opts: SolverOptions {
                tol: job.tol,
                max_iters: usize::try_from(job.max_iters).unwrap(),
            },
        },
    );
    let fleet = Fleet::new(FleetConfig::default().with_workers(1));
    fleet.run_sequential(vec![spec]).jobs[0]
        .result
        .as_ref()
        .unwrap()
        .solution_fingerprint()
}

fn chaos_server(dir: &std::path::Path, storage: Arc<dyn StorageIo>) -> ServerConfig {
    ServerConfig {
        bind: Bind::Tcp("127.0.0.1:0".to_owned()),
        data_dir: dir.to_path_buf(),
        workers: 2,
        queue_capacity: 32,
        per_tenant_quota: 64,
        checkpoint_every: 2,
        retry_after_hint: Duration::from_millis(2),
        storage,
        ..ServerConfig::default()
    }
}

/// Preserves the server's flight-recorder dump for a failing seed: the
/// `.alfr` in the data dir is copied to a stable path so the panic
/// message can point at the black box that explains the failure.
fn capture_flight(dir: &std::path::Path, seed: u64) -> String {
    let src = dir.join("alserve.alfr");
    let dst = std::env::temp_dir().join(format!("alserve-chaos-flight-{seed:x}.alfr"));
    match std::fs::copy(&src, &dst) {
        Ok(_) => format!("flight dump captured at {} (decode with `alobs flight`)", dst.display()),
        Err(e) => format!("no flight dump captured ({}: {e})", src.display()),
    }
}

fn chaos_client(addr: &str, seed: u64) -> Client {
    Client::tcp(
        addr,
        RetryPolicy {
            deadline: Duration::from_mins(3),
            max_attempts: 10_000,
            base: Duration::from_millis(1),
            cap: Duration::from_millis(15),
            seed,
        },
    )
}

#[test]
fn chaos_soak_stop_restart_under_storage_and_network_faults() {
    let cycles: u64 = std::env::var("CHAOS_CYCLES")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(if cfg!(debug_assertions) { 3 } else { 8 });
    let seed: u64 = std::env::var("CHAOS_SEED")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(0xA15C_50AC);
    let dir = tempdir("soak");
    let mut rng = seed;

    // The storage injector persists across cycles (one fault stream for
    // the whole soak); rates are dialed so the server keeps making
    // progress through its storage breaker.
    let io_plan = IoFaultPlan {
        seed,
        short_write_rate: 0.08,
        interrupt_rate: 0.05,
        enospc_rate: 0.03,
        fsync_fail_rate: 0.02,
        bit_flip_rate: 0.08,
    };
    let storage = Arc::new(ChaosStorage::new(io_plan));

    // job_id -> (side, payload seed).
    let mut accepted: BTreeMap<u64, (usize, u64)> = BTreeMap::new();
    let mut net_totals = NetFaultCounters::default();
    let mut pending_observed = 0usize;

    let mut handle = Server::new(chaos_server(&dir, Arc::clone(&storage) as Arc<dyn StorageIo>))
        .start()
        .unwrap();
    for cycle in 0..cycles {
        let proxy = ChaosProxy::start(
            handle.addr().to_owned(),
            NetFaultPlan::aggressive(seed.wrapping_add(cycle)),
        )
        .unwrap();
        let mut client = chaos_client(proxy.addr(), seed ^ cycle);
        for &side in &[3usize, 4] {
            let payload_seed = cycle * 2 + u64::from(side == 4);
            let id = client
                .submit("chaos", &sample_job(side, payload_seed))
                .unwrap_or_else(|e| {
                    panic!("cycle {cycle}: submit failed (CHAOS_SEED={seed}): {e}")
                });
            // Proxy drops can make the client resubmit after a lost
            // Accepted ack, so duplicate server-side jobs are legal —
            // but the id handed back must be fresh.
            assert!(
                accepted.insert(id, (side, payload_seed)).is_none(),
                "job id {id} reused (CHAOS_SEED={seed})"
            );
        }
        // Stop the server at a pseudo-random moment — before the first
        // checkpoint, mid-solve, or after completion — severing every
        // proxied connection mid-conversation.
        std::thread::sleep(Duration::from_millis(splitmix64(&mut rng) % 8));
        handle.stop();
        net_totals.merge(&proxy.counters());
        proxy.stop();
        // Journal must stay replayable after every chaotic cycle.
        let journal = Journal::open(dir.join("jobs.wal"))
            .unwrap_or_else(|e| panic!("journal unreadable after cycle {cycle} (CHAOS_SEED={seed}): {e}"));
        pending_observed += journal.recover().len();
        drop(journal);
        // The flight dump must stay CRC-valid and non-empty under active
        // storage and network hostility — it is the artifact a failing
        // seed gets triaged from, so it may never be the casualty.
        let dump = FlightDump::read(&dir.join("alserve.alfr"))
            .unwrap_or_else(|e| panic!("no flight dump after cycle {cycle} (CHAOS_SEED={seed}): {e}"))
            .unwrap_or_else(|e| {
                panic!("flight dump corrupt after cycle {cycle} (CHAOS_SEED={seed}): {e}")
            });
        assert!(
            !dump.records.is_empty(),
            "empty flight dump after cycle {cycle} (CHAOS_SEED={seed})"
        );
        handle = Server::new(chaos_server(&dir, Arc::clone(&storage) as Arc<dyn StorageIo>))
            .start()
            .unwrap_or_else(|e| panic!("restart {cycle} failed (CHAOS_SEED={seed}): {e}"));
    }

    // Final pass on a CLEAN transport (no proxy): every acked job must be
    // served bit-identically, regardless of which cycle accepted it and
    // what the injectors did to it.
    let mut client = chaos_client(handle.addr(), seed);
    for (&id, &(side, payload_seed)) in &accepted {
        let result = client.wait(id).unwrap_or_else(|e| {
            panic!(
                "job {id} lost after {cycles} chaotic cycles (CHAOS_SEED={seed}): {e}; {}",
                capture_flight(&dir, seed)
            )
        });
        assert!(
            result.converged,
            "job {id} did not converge (CHAOS_SEED={seed}); {}",
            capture_flight(&dir, seed)
        );
        assert_eq!(
            result.solution_fingerprint,
            reference_fingerprint(&sample_job(side, payload_seed)),
            "job {id} diverged from the uninterrupted reference (CHAOS_SEED={seed}); {}",
            capture_flight(&dir, seed)
        );
    }
    assert_eq!(accepted.len() as u64, cycles * 2, "acceptance bookkeeping is off");
    handle.stop();

    let io_totals = storage.counters();
    eprintln!(
        "chaos soak (CHAOS_SEED={seed}): {cycles} stop/restart cycles, {} jobs acked, \
         {pending_observed} in-flight recoveries, 0 lost; storage faults {} \
         (short={}, eintr={}, enospc={}, fsync={}, flip={}); network faults {} \
         (delay={}, corrupt={}, trunc={}, drop={}, disc={})",
        accepted.len(),
        io_totals.total(),
        io_totals.short_writes,
        io_totals.interrupts,
        io_totals.enospc,
        io_totals.fsync_failures,
        io_totals.bit_flips,
        net_totals.total(),
        net_totals.delays,
        net_totals.corruptions,
        net_totals.truncations,
        net_totals.drops,
        net_totals.disconnects,
    );
    let _ = std::fs::remove_dir_all(&dir);
}
