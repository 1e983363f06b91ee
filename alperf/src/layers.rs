//! Traced calls into each layer's public functions, and the layer sweep.
//!
//! Every helper takes the tracer and an op id and wraps exactly one public
//! call in a span named `<layer>.<call>`; quantities that are not times
//! (bytes, counts, ratios) go to the tracer's ledger under the metric name.
//! The sweep drives, once per traced run, every layer a workload's own ops
//! do not reach, on inputs derived from that workload's matrix, so the
//! traced run reports every per-layer metric; its spans carry
//! [`SWEEP_OP`] and count only where the ops left a metric empty.

use std::path::Path;
use std::sync::Arc;

use alrescha::fleet::JobKernel;
use alrescha::{
    convert, Alrescha, Fleet, FleetConfig, FleetReport, JobSpec, KernelType, ProgrammedKernel,
    SolveOutcome, SolverCheckpoint, SolverKind, SolverOptions,
};
use alrescha_serve::{Client, Frame, JobPayload, Journal, JournalRecord, RetryPolicy, SolveResult};
use alrescha_serve::{Server, ServerConfig, TraceContext};
use alrescha_sim::{ExecutionReport, PageRankConfig, SimConfig};
use alrescha_sparse::alf::AlfLayout;
use alrescha_sparse::{Alf, Coo, MetaData};

use crate::trace::Tracer;

/// Band half-width of [`spd_from_pattern`]: 7 blocks of ω = 8.
pub const SPD_BAND: usize = 56;

/// Op id of every span and ledger entry the sweep records.
pub const SWEEP_OP: u64 = u64::MAX;

/// Engine blocks a report streamed, over every data path.
pub fn blocks(rep: &ExecutionReport) -> u64 {
    rep.datapaths.gemv_blocks + rep.datapaths.dsymgs_blocks + rep.datapaths.graph_blocks
}

/// Bytes of an ALF image: streamed block payloads plus the diagonal.
pub fn alf_bytes(alf: &Alf) -> usize {
    alf.streamed_bytes() + std::mem::size_of_val(alf.diagonal())
}

/// Programs `kernel` on `a`. Traced, it first times the two stages the
/// programming call runs inside — ALF packing and Algorithm-1 conversion —
/// as separate public calls on the same operand.
pub fn program(
    tr: &Tracer,
    op: u64,
    acc: &mut Alrescha,
    kernel: KernelType,
    a: &Coo,
) -> ProgrammedKernel {
    if tr.enabled() {
        let oriented = match kernel {
            KernelType::Bfs | KernelType::Sssp | KernelType::PageRank => a.transpose(),
            _ => a.clone(),
        };
        let layout = if kernel == KernelType::SymGs {
            AlfLayout::SymGs
        } else {
            AlfLayout::Streaming
        };
        let omega = acc.config().omega;
        let alf = tr.span("sparse.alf_pack", op, || {
            Alf::from_coo(&oriented, omega, layout)
        });
        let alf = alf.expect("workload matrices pack into ALF");
        tr.record("sparse.alf_mb", alf_bytes(&alf) as f64 / 1e6, op);
        tr.span("convert.convert", op, || {
            convert::convert(kernel, &oriented, omega)
        })
        .expect("workload matrices convert");
        tr.record("convert.nnz", oriented.nnz() as f64, op);
    }
    tr.span("accelerator.program", op, || acc.program(kernel, a))
        .expect("workload matrices program")
}

/// alverify preflight of a programmed kernel; true when launchable.
pub fn preflight(tr: &Tracer, op: u64, prog: &ProgrammedKernel, config: &SimConfig) -> bool {
    tr.span("lint.preflight", op, || {
        alrescha_lint::is_launchable(&alrescha_lint::verify_programmed(prog, config))
    })
}

/// alprove analysis of a programmed kernel; true when admissible.
pub fn analyze(tr: &Tracer, op: u64, prog: &ProgrammedKernel, config: &SimConfig) -> bool {
    tr.span("lint.analyze", op, || {
        alrescha_lint::analyze_programmed(prog, config).is_admissible()
    })
}

/// Programs and gates one kernel, as setup does for every workload.
pub fn program_checked(
    tr: &Tracer,
    op: u64,
    acc: &mut Alrescha,
    kernel: KernelType,
    a: &Coo,
) -> ProgrammedKernel {
    let prog = program(tr, op, acc, kernel, a);
    let config = acc.config().clone();
    assert!(
        preflight(tr, op, &prog, &config),
        "{kernel:?} program fails alverify preflight"
    );
    assert!(
        analyze(tr, op, &prog, &config),
        "{kernel:?} program fails alprove analysis"
    );
    prog
}

/// Host-time ns per engine block for one traced engine call.
pub fn engine_call<T>(
    tr: &Tracer,
    op: u64,
    name: &'static str,
    per_block: &'static str,
    f: impl FnOnce() -> alrescha::Result<(T, ExecutionReport)>,
) -> alrescha::Result<(T, ExecutionReport)> {
    let t0 = std::time::Instant::now();
    let out = tr.span(name, op, f);
    if let (true, Ok((_, rep))) = (tr.enabled(), &out) {
        let ns = t0.elapsed().as_nanos() as f64;
        tr.record(per_block, ns / blocks(rep).max(1) as f64, op);
    }
    out
}

/// The batch runtime with both static gates attached; traced, each gate
/// call is wrapped in its lint span.
pub fn fleet(tr: &Arc<Tracer>, op: u64, workers: usize) -> Fleet {
    let preflight = alrescha_lint::fleet_preflight_hook();
    let admission = alrescha_lint::fleet_admission_hook();
    let fleet = Fleet::new(FleetConfig::default().with_workers(workers));
    if !tr.enabled() {
        return fleet.with_preflight(preflight).with_admission(admission);
    }
    let (t1, t2) = (Arc::clone(tr), Arc::clone(tr));
    fleet
        .with_preflight(Arc::new(move |prog, cfg| {
            t1.span("lint.preflight", op, || preflight(prog, cfg))
        }))
        .with_admission(Arc::new(move |prog, cfg, budget| {
            t2.span("lint.analyze", op, || admission(prog, cfg, budget))
        }))
}

/// Records a fleet batch's per-job and aggregate statistics.
pub fn record_fleet(tr: &Tracer, op: u64, report: &FleetReport) {
    let s = &report.stats;
    let mut busy_ms = 0.0;
    for j in &report.jobs {
        let run = j.run_time.as_secs_f64() * 1e3;
        busy_ms += run;
        tr.record("fleet.job_run_ms", run, op);
        tr.record("fleet.queue_wait_ms", j.queue_wait.as_secs_f64() * 1e3, op);
    }
    let capacity_ms = s.workers.max(1) as f64 * s.wall_time.as_secs_f64() * 1e3;
    tr.record("fleet.busy_ms", busy_ms, op);
    tr.record("fleet.capacity_ms", capacity_ms, op);
    tr.record("fleet.cache_hits", s.cache_hits as f64, op);
    tr.record(
        "fleet.cache_lookups",
        (s.cache_hits + s.cache_misses) as f64,
        op,
    );
    tr.record("fleet.engine_reuses", s.engine_reuses as f64, op);
}

/// Encodes and decodes the job's `Submit` frame, checking the round trip.
pub fn codec(tr: &Tracer, op: u64, job: &JobPayload) -> bool {
    let frame = Frame::Submit {
        tenant: "t0".to_owned(),
        job: job.clone(),
        trace: TraceContext::default(),
    };
    let bytes = tr.span("codec.submit_encode", op, || frame.encode());
    let back = tr.span("codec.submit_decode", op, || Frame::decode(&bytes));
    tr.record("codec.submit_bytes", bytes.len() as f64, op);
    back.is_ok_and(|f| f == frame)
}

/// Journals the job's accept and terminal records, each fsynced.
pub fn journal(tr: &Tracer, op: u64, journal: &mut Journal, job_id: u64, job: &JobPayload) {
    let before = std::fs::metadata(journal.path()).map_or(0, |m| m.len());
    tr.span("journal.accept", op, || journal.accept(job_id, "t0", job))
        .expect("journal accept");
    let done = JournalRecord::Completed {
        job_id,
        fingerprint: job_id,
        iterations: 0,
        residual: 0.0,
        converged: true,
    };
    tr.span("journal.terminal", op, || journal.terminal(&done))
        .expect("journal terminal");
    let after = std::fs::metadata(journal.path()).map_or(0, |m| m.len());
    tr.record(
        "journal.bytes_per_job",
        after.saturating_sub(before) as f64,
        op,
    );
}

/// Writes a PCG checkpoint sized for the job atomically under `dir`.
pub fn checkpoint(tr: &Tracer, op: u64, dir: &Path, x: &[f64], b: &[f64]) {
    let n = x.len();
    let cp = SolverCheckpoint {
        kind: SolverKind::Pcg,
        n,
        iteration: 8,
        x: x.to_vec(),
        r: b.to_vec(),
        p: b.to_vec(),
        rz: 1.0,
        r0: 1.0,
        residual_history: vec![1.0; 8],
        fault: None,
    };
    let path = dir.join(format!("bench-{}.ckpt", op % 4));
    tr.span("checkpoint.write", op, || cp.write_to_path(&path))
        .expect("checkpoint write");
    tr.record("checkpoint.bytes", cp.to_bytes().len() as f64, op);
}

/// A client whose retry schedule is fixed by `seed`.
pub fn client(addr: &str, seed: u64) -> Client {
    Client::tcp(
        addr,
        RetryPolicy {
            seed,
            ..RetryPolicy::default()
        },
    )
}

/// Records the retries a client's telemetry saw (one instant per
/// reconnect or transient rejection) and how many were rejections.
pub fn record_retries(tr: &Tracer, op: u64, tele: &alrescha_obs::Telemetry) {
    let (mut retries, mut rejected) = (0, 0);
    for snap in tele.snapshot_threads() {
        for e in &snap.events {
            if let alrescha_obs::SpanEvent::Instant { name, .. } = e {
                retries += 1;
                rejected += usize::from(name.ends_with("rejected-transient"));
            }
        }
    }
    tr.record("client.retries", f64::from(retries), op);
    tr.record("server.rejected", rejected as f64, op);
}

/// Submits and waits for one job, timing the two client calls apart.
pub fn serve_round(
    tr: &Tracer,
    op: u64,
    client: &mut Client,
    tenant: &str,
    job: &JobPayload,
) -> Option<SolveResult> {
    let id = tr
        .span("client.submit", op, || client.submit(tenant, job))
        .ok()?;
    tr.span("client.wait", op, || client.wait(id)).ok()
}

/// A served PCG job for matrix `a` and right-hand side `b`.
pub fn payload(a: &Coo, b: &[f64], opts: &SolverOptions) -> JobPayload {
    JobPayload {
        matrix: a.clone(),
        b: b.to_vec(),
        tol: opts.tol,
        max_iters: opts.max_iters as u64,
        priority: 0,
    }
}

/// `A' = L + I` for the symmetrised pattern of `a`, kept to edges within
/// [`SPD_BAND`] of the diagonal: SPD, with at most 14 off-diagonal blocks
/// per block row so the SymGS link stack fits, so the solver layers can
/// run on a graph workload's structure.
pub fn spd_from_pattern(a: &Coo) -> Coo {
    let n = a.rows();
    let mut off = Coo::with_capacity(n, n, 2 * a.nnz());
    for &(i, j, _) in a.entries() {
        if i != j && i.abs_diff(j) < SPD_BAND {
            off.push(i, j, -1.0);
            off.push(j, i, -1.0);
        }
    }
    let mut out = off.compress().map_values(|_| -1.0);
    let mut degree = vec![0.0; n];
    for &(i, _, _) in out.entries() {
        degree[i] += 1.0;
    }
    for (i, d) in degree.into_iter().enumerate() {
        out.push(i, i, d + 1.0);
    }
    out.compress()
}

/// The off-diagonal pattern of `a` as a graph with positive weights.
pub fn graph_from_matrix(a: &Coo) -> Coo {
    let mut out = Coo::with_capacity(a.rows(), a.cols(), a.nnz());
    for &(i, j, v) in a.entries() {
        if i != j {
            out.push(i, j, v.abs().max(0.05));
        }
    }
    out.compress()
}

/// Drives, once, every layer on inputs derived from the workload's SPD
/// matrix `spd` and graph `graph`, under [`SWEEP_OP`].
pub fn sweep(tr: &Arc<Tracer>, dir: &Path, spd: &Coo, graph: &Coo) {
    let op = SWEEP_OP;
    std::fs::create_dir_all(dir).expect("sweep directory is creatable");
    let mut acc = Alrescha::with_paper_config();
    let n = spd.rows();
    let b: Vec<f64> = (0..n).map(|i| 1.0 + (i % 7) as f64 / 7.0).collect();
    let spmv = program_checked(tr, op, &mut acc, KernelType::SpMv, spd);
    let symgs = program_checked(tr, op, &mut acc, KernelType::SymGs, spd);
    let pr = program_checked(tr, op, &mut acc, KernelType::PageRank, graph);
    let sssp = program_checked(tr, op, &mut acc, KernelType::Sssp, graph);
    let bfs = program_checked(tr, op, &mut acc, KernelType::Bfs, graph);
    let (y, _) = engine_call(tr, op, "engine.spmv", "engine.spmv_ns_per_block", || {
        acc.spmv(&spmv, &b)
    })
    .expect("sweep spmv");
    let mut x = vec![0.0; n];
    engine_call(tr, op, "engine.symgs", "engine.symgs_ns_per_block", || {
        acc.symgs(&symgs, &b, &mut x).map(|r| ((), r))
    })
    .expect("sweep symgs");
    engine_call(
        tr,
        op,
        "engine.pagerank",
        "engine.pagerank_ns_per_block",
        || acc.pagerank(&pr, &PageRankConfig::default()),
    )
    .expect("sweep pagerank");
    engine_call(tr, op, "engine.sssp", "engine.sssp_ns_per_block", || {
        acc.sssp(&sssp, 0)
    })
    .expect("sweep sssp");
    engine_call(tr, op, "engine.bfs", "engine.bfs_ns_per_block", || {
        acc.bfs(&bfs, 0)
    })
    .expect("sweep bfs");
    let opts = SolverOptions {
        tol: 1e-8,
        max_iters: 500,
    };
    let pcg = alrescha::AcceleratedPcg::from_programs(spmv, symgs).expect("sweep solver");
    let t0 = std::time::Instant::now();
    let out: SolveOutcome = tr
        .span("solver.solve", op, || pcg.solve(&mut acc, &b, &opts))
        .expect("sweep solve");
    let ms = t0.elapsed().as_secs_f64() * 1e3;
    tr.record("solver.iterations", out.iterations as f64, op);
    tr.record("solver.iter_ms", ms / out.iterations.max(1) as f64, op);

    let jobs: Vec<JobSpec> = (0..4)
        .map(|_| JobSpec::new(spd.clone(), JobKernel::SpMv { x: y.clone() }))
        .collect();
    let fleet = fleet(tr, op, 2);
    let report = tr.span("fleet.run", op, || fleet.run(jobs));
    record_fleet(tr, op, &report);

    checkpoint(tr, op, dir, &out.x, &b);
    let job = payload(spd, &b, &opts);
    codec(tr, op, &job);
    let mut wal = Journal::open(dir.join("sweep.wal")).expect("sweep journal");
    journal(tr, op, &mut wal, 1, &job);

    let server = Server::new(ServerConfig {
        data_dir: dir.join("sweep-serve"),
        ..ServerConfig::default()
    })
    .start()
    .expect("sweep server starts");
    let tele = alrescha_obs::Telemetry::new();
    let mut c = client(server.addr(), 7).with_telemetry(Arc::clone(&tele));
    serve_round(tr, op, &mut c, "t0", &job).expect("sweep served job completes");
    drop(c);
    server.stop();
    record_retries(tr, op, &tele);
}
