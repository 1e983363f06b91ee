//! End-to-end fault-injection acceptance tests: ABFT checksum coverage of
//! FCU bit-flips, retry-based recovery, graceful degradation to the host
//! kernels, watchdog/deadline enforcement, and circuit-breaker failover —
//! all seeded and fully deterministic.

use alrescha::{
    Alrescha, BreakerConfig, ExecBudget, FaultPlan, KernelType, RecoveryPolicy, TerminationReason,
};
use alrescha_kernels::spmv::spmv;
use alrescha_sim::{ExecutionReport, PageRankConfig, SimError};
use alrescha_sparse::{gen, AlfBlock, Csr};

/// The GEMV column-sum checksums must catch at least 95% of injected FCU
/// lane and reduction-tree bit-flips (the escapes are compensating
/// multi-flip patterns within one block, which a single check value cannot
/// separate).
#[test]
fn checksums_detect_95_percent_of_fcu_flips() {
    let coo = gen::banded(512, 6, 11);
    let mut acc = Alrescha::with_paper_config();
    let prog = acc.program(KernelType::SpMv, &coo).unwrap();
    // FCU-only plan: every injected fault is a lane or tree flip.
    acc.set_fault_plan(Some(
        FaultPlan::inert(0xA15C_E5CA)
            .with_fcu_lane_rate(0.02)
            .with_fcu_tree_rate(0.02),
    ));
    acc.set_recovery_policy(RecoveryPolicy::Retry {
        max_retries: 16,
        backoff_cycles: 8,
    });
    let x: Vec<f64> = (0..coo.cols())
        .map(|i| 1.0 + ((i % 7) as f64) * 0.5)
        .collect();
    let (_, report) = acc.spmv(&prog, &x).expect("retries absorb transient flips");

    assert!(
        report.faults.injected >= 20,
        "plan too quiet to be meaningful: {} injections",
        report.faults.injected
    );
    let coverage = report.faults.detected as f64 / report.faults.injected as f64;
    assert!(
        coverage >= 0.95,
        "checksum coverage {:.3} ({} detected / {} injected)",
        coverage,
        report.faults.detected,
        report.faults.injected
    );
    assert_eq!(
        report.faults.recovered, report.faults.detected,
        "a surviving run must have recovered everything it caught"
    );
}

/// Retry-from-checkpoint recovers the exact SpMV result whenever nothing
/// slipped past the checksums, and always charges the retry cycles.
#[test]
fn retry_policy_recovers_spmv() {
    let coo = gen::stencil27(4);
    let x: Vec<f64> = (0..coo.cols()).map(|i| (i as f64 * 0.11).sin()).collect();
    // Baseline: the fault-free device run (the reference CSR kernel only
    // agrees up to floating-point reassociation of the blocked order).
    let mut clean = Alrescha::with_paper_config();
    let prog = clean.program(KernelType::SpMv, &coo).unwrap();
    let (expect, _) = clean.spmv(&prog, &x).unwrap();

    let mut acc = Alrescha::with_paper_config();
    let prog = acc.program(KernelType::SpMv, &coo).unwrap();
    acc.set_fault_plan(Some(FaultPlan::inert(7).with_fcu_tree_rate(0.05)));
    acc.set_recovery_policy(RecoveryPolicy::Retry {
        max_retries: 16,
        backoff_cycles: 8,
    });
    let (y, report) = acc.spmv(&prog, &x).expect("retries succeed");
    assert!(report.faults.detected > 0, "plan must actually fire");
    assert!(report.faults.retries > 0, "recovery must have retried");
    if report.faults.detected == report.faults.injected {
        assert_eq!(y, expect, "nothing slipped, so recovery must be exact");
    } else {
        assert!(alrescha_sparse::approx_eq(&y, &expect, 1e-6));
    }
}

/// SymGS under buffer-drop faults: occupancy checks catch the drops, the
/// push sequence is rolled back and retried, and the sweep result matches
/// the fault-free device run exactly (drops never corrupt values).
#[test]
fn retry_policy_recovers_symgs_buffer_drops() {
    let coo = gen::stencil27(3);
    let b = vec![1.0; coo.rows()];

    let mut clean = Alrescha::with_paper_config();
    let prog = clean.program(KernelType::SymGs, &coo).unwrap();
    let mut x_clean = vec![0.0; coo.cols()];
    clean.symgs(&prog, &b, &mut x_clean).unwrap();

    let mut acc = Alrescha::with_paper_config();
    let prog = acc.program(KernelType::SymGs, &coo).unwrap();
    acc.set_fault_plan(Some(
        FaultPlan::inert(3)
            .with_lifo_drop_rate(0.05)
            .with_fifo_drop_rate(0.05),
    ));
    acc.set_recovery_policy(RecoveryPolicy::Retry {
        max_retries: 16,
        backoff_cycles: 4,
    });
    let mut x = vec![0.0; coo.cols()];
    let report = acc.symgs(&prog, &b, &mut x).expect("drops are recoverable");
    assert!(report.faults.detected > 0, "plan must actually fire");
    assert_eq!(report.faults.recovered, report.faults.detected);
    assert_eq!(x, x_clean, "buffer drops never corrupt values");
    assert!(
        report.cycles > 0,
        "recovered run still reports device cycles"
    );
}

/// A full PCG solve under permanent stuck-at memory faults: every device
/// kernel degrades to the host implementation, the solve still converges to
/// the true solution, and the degradation is visible in the report.
#[test]
fn pcg_degrades_to_cpu_and_stays_correct() {
    let coo = gen::stencil27(3);
    let csr = Csr::from_coo(&coo);
    let x_true: Vec<f64> = (0..coo.rows()).map(|i| ((i % 5) as f64) - 2.0).collect();
    let b = spmv(&csr, &x_true);

    let mut acc = Alrescha::with_paper_config();
    let solver = alrescha::AcceleratedPcg::program(&mut acc, &coo).unwrap();
    // Stuck-at faults re-apply on every retry, so the device always gives up.
    acc.set_fault_plan(Some(FaultPlan::inert(99).with_memory_stuck_rate(1.0)));
    acc.set_recovery_policy(RecoveryPolicy::DegradeToCpu {
        max_retries: 1,
        backoff_cycles: 4,
    });
    let out = solver
        .solve(&mut acc, &b, &alrescha::SolverOptions::default())
        .expect("degraded solve completes");
    assert!(out.converged, "residual {}", out.residual);
    assert!(alrescha_sparse::approx_eq(&out.x, &x_true, 1e-6));
    assert!(
        out.report.faults.degraded > 0,
        "degradation must be visible in the report"
    );
    assert!(out.report.faults.detected > 0);
}

/// A permanently wedged D-SymGS block scheduler must surface as a typed
/// stall within the watchdog window — the solve cannot hang.
#[test]
fn wedged_scheduler_stalls_within_budget() {
    let coo = gen::stencil27(3);
    let mut acc = Alrescha::with_paper_config();
    let prog = acc.program(KernelType::SymGs, &coo).unwrap();
    // The scheduler stops issuing blocks after the third one, forever.
    acc.set_fault_plan(Some(FaultPlan::inert(1).with_dsymgs_stall_after(3)));
    acc.set_budget(ExecBudget::cycles(5_000_000).with_watchdog(1024));
    let b = vec![1.0; coo.rows()];
    let mut x = vec![0.0; coo.cols()];
    let err = acc.symgs(&prog, &b, &mut x).unwrap_err();
    match err {
        alrescha::CoreError::Sim(SimError::Stalled {
            site,
            cycle,
            idle_cycles,
        }) => {
            assert_eq!(site, "d-symgs block scheduler");
            assert_eq!(idle_cycles, 1024, "watchdog window is what fired");
            assert!(
                cycle < 5_000_000,
                "stall must be reported inside the cycle budget, got {cycle}"
            );
        }
        other => panic!("expected Stalled, got {other:?}"),
    }
    assert_eq!(
        TerminationReason::from_error(&err),
        Some(TerminationReason::Stalled)
    );
}

/// A cycle budget tighter than the watchdog window wins: the run reports
/// the deadline, not the stall.
#[test]
fn tight_cycle_budget_reports_deadline() {
    let coo = gen::stencil27(3);
    let mut acc = Alrescha::with_paper_config();
    let prog = acc.program(KernelType::SpMv, &coo).unwrap();
    acc.set_budget(ExecBudget::cycles(10));
    let err = acc.spmv(&prog, &vec![1.0; coo.cols()]).unwrap_err();
    assert!(
        matches!(
            err,
            alrescha::CoreError::Sim(SimError::DeadlineExceeded {
                budget: "cycle",
                ..
            })
        ),
        "{err:?}"
    );
    assert_eq!(
        TerminationReason::from_error(&err),
        Some(TerminationReason::BudgetExhausted)
    );
}

/// Full PCG under a permanent device outage with a circuit breaker: the
/// breaker trips to the CPU backend after the configured failure run, the
/// solve still converges to the true solution, and the trips, fallback
/// runs, and recovery cycles are all visible in the merged report.
#[test]
fn breaker_failover_keeps_pcg_correct_and_visible() {
    let coo = gen::stencil27(3);
    let csr = Csr::from_coo(&coo);
    let x_true: Vec<f64> = (0..coo.rows()).map(|i| ((i % 5) as f64) - 2.0).collect();
    let b = spmv(&csr, &x_true);

    let mut acc = Alrescha::with_paper_config();
    let solver = alrescha::AcceleratedPcg::program(&mut acc, &coo).unwrap();
    // Permanent outage: stuck-at memory faults defeat every device attempt.
    acc.set_fault_plan(Some(FaultPlan::inert(99).with_memory_stuck_rate(1.0)));
    acc.set_circuit_breaker(Some(BreakerConfig {
        failure_threshold: 2,
        cooldown_ops: 8,
        max_attempts: 2,
        ..BreakerConfig::default()
    }));
    let out = solver
        .solve(&mut acc, &b, &alrescha::SolverOptions::default())
        .expect("breaker failover completes the solve");
    assert!(out.converged, "residual {}", out.residual);
    assert_eq!(out.reason, TerminationReason::Converged);
    assert!(alrescha_sparse::approx_eq(&out.x, &x_true, 1e-6));

    assert!(out.report.breaker.trips >= 1, "breaker must have tripped");
    assert!(
        out.report.breaker.cpu_fallback_runs > 0,
        "open-state operations must be served by the CPU"
    );
    assert!(
        out.report.breakdown.recovery_cycles > 0,
        "wasted device attempts and backoff must be charged"
    );
    assert_eq!(
        out.report.breakdown.total(),
        out.report.cycles,
        "cycle breakdown invariant must survive failover accounting"
    );
    assert!(out.report.faults.degraded > 0);
}

/// Fault hooks disabled: the armed-but-inert engine output is bit-identical
/// to the plain engine (the stronger regression is the property suite in
/// `crates/sim/tests/fault_determinism.rs`).
#[test]
fn disabled_hooks_are_bit_identical() {
    // An inert plan arms the ABFT checksums and the FIFO/link-stack
    // occupancy checks without firing a fault, so every data path must
    // match the uninstrumented run bit for bit. n = 27 and n = 100 are not
    // multiples of ω = 8 (padded tail chunks), and the SymGS layout streams
    // its upper-triangle and diagonal blocks reversed.
    let plain = every_data_path(None);
    let armed = every_data_path(Some(FaultPlan::inert(123)));
    for ((kernel, out_plain, rep_plain), (_, out_armed, rep_armed)) in plain.iter().zip(&armed) {
        assert_eq!(out_plain, out_armed, "{kernel}: outputs");
        assert_eq!(rep_plain, rep_armed, "{kernel}: reports");
    }
}

/// Runs SpMV, SymGS, SSOR, PageRank, SSSP, BFS, and connected components
/// with `plan` armed; returns each kernel's output bits and report.
fn every_data_path(plan: Option<FaultPlan>) -> Vec<(&'static str, Vec<u64>, ExecutionReport)> {
    let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
    let mut acc = Alrescha::with_paper_config();
    acc.set_fault_plan(plan);
    let mut runs = Vec::new();

    let coo = gen::stencil27(3);
    let n = coo.rows();
    let x: Vec<f64> = (0..n).map(|i| (i as f64 * 0.31).cos()).collect();
    let prog = acc.program(KernelType::SpMv, &coo).unwrap();
    let (y, rep) = acc.spmv(&prog, &x).unwrap();
    runs.push(("spmv", bits(&y), rep));

    let prog = acc.program(KernelType::SymGs, &coo).unwrap();
    assert!(prog.matrix().blocks().iter().any(AlfBlock::reversed));
    let b: Vec<f64> = (0..n).map(|i| 1.0 + (i % 5) as f64).collect();
    let mut xs = vec![0.0; n];
    let rep = acc.symgs(&prog, &b, &mut xs).unwrap();
    runs.push(("symgs", bits(&xs), rep));
    let mut xs = vec![0.0; n];
    let rep = acc.ssor(&prog, &b, &mut xs, 1.3).unwrap();
    runs.push(("sor", bits(&xs), rep));

    let graph = gen::GraphClass::Social.generate(100, 5);
    let prog = acc.program(KernelType::PageRank, &graph).unwrap();
    let (ranks, rep) = acc.pagerank(&prog, &PageRankConfig::default()).unwrap();
    runs.push(("pagerank", bits(&ranks), rep));
    let prog = acc.program(KernelType::Sssp, &graph).unwrap();
    let (dist, rep) = acc.sssp(&prog, 0).unwrap();
    runs.push(("sssp", bits(&dist), rep));
    let prog = acc.program(KernelType::Bfs, &graph).unwrap();
    let (levels, rep) = acc.bfs(&prog, 0).unwrap();
    runs.push(("bfs", bits(&levels), rep));
    let prog = acc
        .program(KernelType::ConnectedComponents, &graph)
        .unwrap();
    let (labels, rep) = acc.connected_components(&prog).unwrap();
    runs.push(("cc", labels.iter().map(|&l| l as u64).collect(), rep));

    assert_eq!(acc.fault_counters().injected, 0);
    runs
}
