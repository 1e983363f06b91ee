//! PCG on the accelerator — the algorithm of Figure 2 driven through the
//! device kernels.
//!
//! SpMV and the SymGS preconditioner run on the accelerator (they dominate
//! the execution time, Figure 3); the dot products and AXPYs run host-side,
//! "so ubiquitous that they are executed using special hardware in some
//! supercomputers" (§2). The returned report accumulates the device work of
//! every iteration.

use std::fmt;

use alrescha_kernels::{dot, norm2, spmv::axpy};
use alrescha_sim::{ExecutionReport, SimConfig, SimError};
use alrescha_sparse::Coo;

use crate::accelerator::{Alrescha, ProgrammedKernel};
use crate::checkpoint::{CheckpointError, SolverCheckpoint, SolverKind};
use crate::convert::KernelType;
use crate::{CoreError, Result};

/// Divergence guard: a residual that grows this far past its starting point
/// (or goes non-finite) aborts the solve with [`CoreError::Diverged`] —
/// typically the footprint of a fault that slipped past detection.
const DIVERGENCE_FACTOR: f64 = 1e8;

/// Returns [`CoreError::Diverged`] when a residual norm is non-finite or has
/// blown up relative to the larger of its starting value and `‖b‖`.
fn check_residual(r_norm: f64, r0: f64, b_norm: f64, iteration: usize) -> Result<()> {
    if !r_norm.is_finite() || r_norm > DIVERGENCE_FACTOR * r0.max(b_norm) {
        return Err(CoreError::Diverged {
            iteration,
            residual: r_norm,
        });
    }
    Ok(())
}

/// Unwraps the accumulated device report; every solve path performs device
/// work before reaching a return, so `None` means the driver is broken.
fn finished_report(report: Option<ExecutionReport>) -> Result<ExecutionReport> {
    report.ok_or(CoreError::InvalidProgram {
        reason: "solver finished without any device work",
    })
}

/// Options for [`AcceleratedPcg`].
#[derive(Debug, Clone, PartialEq)]
pub struct SolverOptions {
    /// Relative residual target.
    pub tol: f64,
    /// Iteration budget.
    pub max_iters: usize,
}

impl Default for SolverOptions {
    fn default() -> Self {
        SolverOptions {
            tol: 1e-10,
            max_iters: 500,
        }
    }
}

/// Why a solve stopped.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[non_exhaustive]
pub enum TerminationReason {
    /// The relative residual target was met.
    Converged,
    /// The residual went non-finite or blew past the divergence guard
    /// (reported via [`CoreError::Diverged`]; surfaced here by
    /// [`TerminationReason::from_error`]).
    Diverged,
    /// A budget ran out: the iteration budget in a returned
    /// [`SolveOutcome`], or a cycle/wall-clock budget via
    /// [`SimError::DeadlineExceeded`].
    BudgetExhausted,
    /// The watchdog saw no forward progress
    /// ([`SimError::Stalled`]; surfaced by
    /// [`TerminationReason::from_error`]).
    Stalled,
    /// Converged after resuming from a checkpoint.
    Resumed,
}

impl TerminationReason {
    /// Maps a solve error to the reason it encodes, for reporting paths
    /// that want a uniform label for both `Ok` and `Err` terminations.
    /// `None` for errors that are not terminations (bad input, wrong
    /// kernel, …).
    pub fn from_error(err: &CoreError) -> Option<Self> {
        match err {
            CoreError::Diverged { .. } => Some(TerminationReason::Diverged),
            CoreError::Sim(SimError::Stalled { .. }) => Some(TerminationReason::Stalled),
            CoreError::Sim(SimError::DeadlineExceeded { .. }) => {
                Some(TerminationReason::BudgetExhausted)
            }
            _ => None,
        }
    }
}

impl fmt::Display for TerminationReason {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            TerminationReason::Converged => "converged",
            TerminationReason::Diverged => "diverged",
            TerminationReason::BudgetExhausted => "budget exhausted",
            TerminationReason::Stalled => "stalled",
            TerminationReason::Resumed => "converged (resumed)",
        })
    }
}

/// Result of an accelerated PCG solve.
#[derive(Debug, Clone)]
pub struct SolveOutcome {
    /// Final iterate.
    pub x: Vec<f64>,
    /// Iterations performed.
    pub iterations: usize,
    /// Final residual norm.
    pub residual: f64,
    /// Whether the relative target was met.
    pub converged: bool,
    /// Why the solve stopped.
    pub reason: TerminationReason,
    /// Accumulated device-side execution report.
    pub report: ExecutionReport,
}

/// Merges a per-kernel report into the solve's accumulator.
fn absorb_into(rep: ExecutionReport, report: &mut Option<ExecutionReport>, config: &SimConfig) {
    match report {
        Some(acc_rep) => acc_rep.merge(&rep, config),
        None => *report = Some(rep),
    }
}

/// One device kernel application inside the PCG loop: `f(acc, v, report)`
/// returns the result vector and absorbs its execution report.
type KernelCall<'s> =
    dyn FnMut(&mut Alrescha, &[f64], &mut Option<ExecutionReport>) -> Result<Vec<f64>> + 's;

/// The Figure 2 PCG loop, shared by [`AcceleratedPcg`] and
/// [`AcceleratedMgPcg`]: `spmv` computes `A·v`, `precond` applies `M⁻¹`
/// (one SymGS sweep or a full V-cycle).
///
/// The loop state at the end of iteration `k` — `(x, r, p, rz)` plus the
/// divergence anchor `r0` and the residual history — is exactly a
/// [`SolverCheckpoint`]; with `checkpoint_every > 0` one is emitted to
/// `sink` every that-many iterations, and with `resume_from` the loop picks
/// up from a prior checkpoint instead of from `x = 0`. Because the device
/// call sequence after the checkpoint boundary is identical to the
/// uninterrupted run's (including the fault injector's restored RNG
/// cursor), a resumed solve is bit-identical to one that never stopped.
#[allow(clippy::too_many_arguments)]
fn run_pcg(
    acc: &mut Alrescha,
    b: &[f64],
    opts: &SolverOptions,
    kind: SolverKind,
    n: usize,
    spmv: &mut KernelCall<'_>,
    precond: &mut KernelCall<'_>,
    checkpoint_every: usize,
    mut sink: Option<&mut dyn FnMut(SolverCheckpoint)>,
    resume_from: Option<&SolverCheckpoint>,
) -> Result<SolveOutcome> {
    if b.len() != n {
        return Err(CoreError::DimensionMismatch {
            expected: n,
            found: b.len(),
        });
    }
    let b_norm = norm2(b).max(f64::MIN_POSITIVE);
    let mut report: Option<ExecutionReport> = None;
    let resumed = resume_from.is_some();
    let tele = acc.telemetry().cloned();
    let _solve_span = alrescha_obs::span!(tele, format!("pcg:{kind:?}"));
    let iter_counter = tele.as_ref().map(|t| {
        t.metrics().counter(
            "alrescha_pcg_iterations_total",
            true,
            "PCG iterations executed (across all solves)",
        )
    });

    let (mut x, mut r, mut p, mut rz, r0, mut history, start_k);
    if let Some(cp) = resume_from {
        if cp.kind != kind {
            return Err(CheckpointError::Mismatch {
                field: "solver kind",
            }
            .into());
        }
        if cp.n != n || cp.x.len() != n || cp.r.len() != n || cp.p.len() != n {
            return Err(CheckpointError::Mismatch { field: "n" }.into());
        }
        if cp.iteration >= opts.max_iters {
            return Err(CheckpointError::Mismatch {
                field: "iteration budget",
            }
            .into());
        }
        x = cp.x.clone();
        r = cp.r.clone();
        p = cp.p.clone();
        rz = cp.rz;
        r0 = cp.r0;
        history = cp.residual_history.clone();
        start_k = cp.iteration + 1;
        if let Some(snap) = &cp.fault {
            acc.restore_fault_snapshot(snap);
        }
    } else {
        x = vec![0.0; n];
        r = b.to_vec();
        r0 = norm2(&r);
        check_residual(r0, r0, b_norm, 0)?;
        if r0 <= opts.tol * b_norm {
            spmv(acc, &x, &mut report)?;
            return Ok(SolveOutcome {
                x,
                iterations: 0,
                residual: r0,
                converged: true,
                reason: TerminationReason::Converged,
                report: finished_report(report)?,
            });
        }
        let z = precond(acc, &r, &mut report)?;
        rz = dot(&r, &z);
        p = z;
        history = Vec::new();
        start_k = 1;
    }

    for k in start_k..=opts.max_iters {
        if let Some(c) = &iter_counter {
            c.inc();
        }
        let ap = spmv(acc, &p, &mut report)?;
        let pap = dot(&p, &ap);
        if !pap.is_finite() {
            return Err(CoreError::Diverged {
                iteration: k,
                residual: norm2(&r),
            });
        }
        if pap <= 0.0 {
            return Err(CoreError::Breakdown { iteration: k });
        }
        let alpha = rz / pap;
        axpy(alpha, &p, &mut x);
        axpy(-alpha, &ap, &mut r);
        let r_norm = norm2(&r);
        history.push(r_norm);
        if r_norm <= opts.tol * b_norm {
            return Ok(SolveOutcome {
                x,
                iterations: k,
                residual: r_norm,
                converged: true,
                reason: if resumed {
                    TerminationReason::Resumed
                } else {
                    TerminationReason::Converged
                },
                report: finished_report(report)?,
            });
        }
        check_residual(r_norm, r0, b_norm, k)?;
        let z = precond(acc, &r, &mut report)?;
        let rz_next = dot(&r, &z);
        let beta = rz_next / rz;
        rz = rz_next;
        for (pi, zi) in p.iter_mut().zip(&z) {
            *pi = zi + beta * *pi;
        }
        if checkpoint_every > 0 && k % checkpoint_every == 0 {
            if let Some(sink) = sink.as_deref_mut() {
                let cp = SolverCheckpoint {
                    kind,
                    n,
                    iteration: k,
                    x: x.clone(),
                    r: r.clone(),
                    p: p.clone(),
                    rz,
                    r0,
                    residual_history: history.clone(),
                    fault: acc.fault_snapshot(),
                };
                // Size the encoded image only when someone is watching —
                // serialization is pure cost otherwise.
                if acc.telemetry().is_some_and(|t| t.is_enabled()) {
                    acc.note_checkpoint_write(cp.to_bytes().len() as u64);
                }
                sink(cp);
            }
        }
    }

    let residual = norm2(&r);
    Ok(SolveOutcome {
        x,
        iterations: opts.max_iters,
        residual,
        converged: false,
        reason: TerminationReason::BudgetExhausted,
        report: finished_report(report)?,
    })
}

/// A PCG solver whose SpMV and SymGS kernels run on the accelerator.
#[derive(Debug)]
pub struct AcceleratedPcg {
    spmv_prog: ProgrammedKernel,
    symgs_prog: ProgrammedKernel,
    n: usize,
}

impl AcceleratedPcg {
    /// Programs both device kernels for the SPD matrix `a`.
    ///
    /// # Errors
    ///
    /// Conversion failures (non-square matrix, zero block width, missing
    /// diagonal for SymGS).
    pub fn program(acc: &mut Alrescha, a: &Coo) -> Result<Self> {
        if a.rows() != a.cols() {
            return Err(CoreError::NotSquare {
                rows: a.rows(),
                cols: a.cols(),
            });
        }
        let spmv_prog = acc.program(KernelType::SpMv, a)?;
        let symgs_prog = acc.program(KernelType::SymGs, a)?;
        Ok(AcceleratedPcg {
            spmv_prog,
            symgs_prog,
            n: a.rows(),
        })
    }

    /// Assembles a solver from two already-programmed kernels — the batch
    /// runtime uses this to reuse cached conversions instead of re-running
    /// Algorithm 1. Cloning a [`ProgrammedKernel`] is cheap (its payloads
    /// are reference-counted).
    ///
    /// # Errors
    ///
    /// [`CoreError::WrongKernel`] if either program encodes the wrong
    /// kernel; [`CoreError::InvalidProgram`] if the two programs disagree
    /// on the system size.
    pub fn from_programs(
        spmv_prog: ProgrammedKernel,
        symgs_prog: ProgrammedKernel,
    ) -> Result<Self> {
        if spmv_prog.kernel() != KernelType::SpMv {
            return Err(CoreError::WrongKernel {
                programmed: spmv_prog.kernel(),
                requested: KernelType::SpMv,
            });
        }
        if symgs_prog.kernel() != KernelType::SymGs {
            return Err(CoreError::WrongKernel {
                programmed: symgs_prog.kernel(),
                requested: KernelType::SymGs,
            });
        }
        let n = spmv_prog.matrix().rows();
        if n != symgs_prog.matrix().rows() {
            return Err(CoreError::InvalidProgram {
                reason: "spmv and symgs programs encode different system sizes",
            });
        }
        Ok(AcceleratedPcg {
            spmv_prog,
            symgs_prog,
            n,
        })
    }

    /// Solves `A x = b` with the SymGS-preconditioned CG of Figure 2.
    ///
    /// # Errors
    ///
    /// Device errors, dimension mismatches, or a numerical breakdown
    /// (`pᵀAp ≤ 0`, impossible for SPD input).
    pub fn solve(
        &self,
        acc: &mut Alrescha,
        b: &[f64],
        opts: &SolverOptions,
    ) -> Result<SolveOutcome> {
        self.drive(acc, b, opts, 0, None, None)
    }

    /// Like [`AcceleratedPcg::solve`], emitting a [`SolverCheckpoint`] to
    /// `sink` after every `every` iterations (`every = 0` never emits).
    ///
    /// # Errors
    ///
    /// As [`AcceleratedPcg::solve`].
    pub fn solve_with_checkpoints(
        &self,
        acc: &mut Alrescha,
        b: &[f64],
        opts: &SolverOptions,
        every: usize,
        sink: &mut dyn FnMut(SolverCheckpoint),
    ) -> Result<SolveOutcome> {
        self.drive(acc, b, opts, every, Some(sink), None)
    }

    /// Continues a solve from `checkpoint` (taken by
    /// [`AcceleratedPcg::solve_with_checkpoints`] against the same system
    /// and right-hand side). The resumed run is bit-identical to the
    /// uninterrupted one; a converged outcome reports
    /// [`TerminationReason::Resumed`].
    ///
    /// # Errors
    ///
    /// [`CoreError::Checkpoint`] when the checkpoint belongs to a different
    /// solver kind, problem size, or an already-exhausted iteration budget;
    /// otherwise as [`AcceleratedPcg::solve`].
    pub fn resume(
        &self,
        acc: &mut Alrescha,
        b: &[f64],
        opts: &SolverOptions,
        checkpoint: &SolverCheckpoint,
    ) -> Result<SolveOutcome> {
        self.drive(acc, b, opts, 0, None, Some(checkpoint))
    }

    /// The crash-recovery path: emits a [`SolverCheckpoint`] to `sink`
    /// every `every` iterations **and** (when `resume_from` is set) picks
    /// up from a prior checkpoint — the combination a persistent solver
    /// service needs, since a resumed job must keep checkpointing so a
    /// *second* crash resumes from the newest boundary instead of the one
    /// that survived the first.
    ///
    /// # Errors
    ///
    /// As [`AcceleratedPcg::resume`].
    pub fn solve_journaled(
        &self,
        acc: &mut Alrescha,
        b: &[f64],
        opts: &SolverOptions,
        every: usize,
        sink: &mut dyn FnMut(SolverCheckpoint),
        resume_from: Option<&SolverCheckpoint>,
    ) -> Result<SolveOutcome> {
        self.drive(acc, b, opts, every, Some(sink), resume_from)
    }

    fn drive(
        &self,
        acc: &mut Alrescha,
        b: &[f64],
        opts: &SolverOptions,
        every: usize,
        sink: Option<&mut dyn FnMut(SolverCheckpoint)>,
        resume_from: Option<&SolverCheckpoint>,
    ) -> Result<SolveOutcome> {
        let config = acc.config().clone();
        let n = self.n;
        run_pcg(
            acc,
            b,
            opts,
            SolverKind::Pcg,
            n,
            &mut |acc, v, report| {
                let (y, rep) = acc.spmv(&self.spmv_prog, v)?;
                absorb_into(rep, report, &config);
                Ok(y)
            },
            &mut |acc, r, report| {
                // Device SymGS application: z = M⁻¹ r.
                let mut z = vec![0.0; n];
                absorb_into(acc.symgs(&self.symgs_prog, r, &mut z)?, report, &config);
                Ok(z)
            },
            every,
            sink,
            resume_from,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use alrescha_kernels::spmv::spmv;
    use alrescha_sparse::{gen, Csr};

    #[test]
    fn solves_stencil_system() {
        let coo = gen::stencil27(3);
        let csr = Csr::from_coo(&coo);
        let x_true: Vec<f64> = (0..coo.rows()).map(|i| ((i % 5) as f64) - 2.0).collect();
        let b = spmv(&csr, &x_true);

        let mut acc = Alrescha::with_paper_config();
        let solver = AcceleratedPcg::program(&mut acc, &coo).unwrap();
        let out = solver
            .solve(&mut acc, &b, &SolverOptions::default())
            .unwrap();
        assert!(out.converged, "residual {}", out.residual);
        assert!(alrescha_sparse::approx_eq(&out.x, &x_true, 1e-6));
        assert!(out.report.cycles > 0);
        assert!(out.report.datapaths.dsymgs_blocks > 0);
    }

    #[test]
    fn iteration_count_matches_host_pcg() {
        // The accelerator computes the same arithmetic as the host PCG, so
        // the convergence trajectory must agree.
        let coo = gen::banded(200, 4, 7);
        let csr = Csr::from_coo(&coo);
        let b: Vec<f64> = (0..200).map(|i| (f64::from(i) * 0.1).sin()).collect();

        let host =
            alrescha_kernels::pcg::pcg(&csr, &b, &alrescha_kernels::pcg::PcgOptions::default())
                .unwrap();

        let mut acc = Alrescha::with_paper_config();
        let solver = AcceleratedPcg::program(&mut acc, &coo).unwrap();
        let out = solver
            .solve(
                &mut acc,
                &b,
                &SolverOptions {
                    tol: 1e-10,
                    max_iters: 500,
                },
            )
            .unwrap();
        assert!(out.converged);
        let diff = (out.iterations as i64 - host.iterations as i64).abs();
        assert!(
            diff <= 1,
            "device {} host {}",
            out.iterations,
            host.iterations
        );
        assert!(alrescha_sparse::approx_eq(&out.x, &host.x, 1e-6));
    }

    #[test]
    fn rejects_rectangular() {
        let mut acc = Alrescha::with_paper_config();
        let a = Coo::new(3, 4);
        assert!(AcceleratedPcg::program(&mut acc, &a).is_err());
    }

    #[test]
    fn rejects_wrong_rhs_length() {
        let mut acc = Alrescha::with_paper_config();
        let solver = AcceleratedPcg::program(&mut acc, &gen::stencil27(2)).unwrap();
        assert!(solver
            .solve(&mut acc, &[1.0], &SolverOptions::default())
            .is_err());
    }

    #[test]
    fn nan_rhs_is_reported_as_divergence() {
        let coo = gen::stencil27(2);
        let mut acc = Alrescha::with_paper_config();
        let solver = AcceleratedPcg::program(&mut acc, &coo).unwrap();
        let mut b = vec![1.0; coo.rows()];
        b[0] = f64::NAN;
        let err = solver
            .solve(&mut acc, &b, &SolverOptions::default())
            .unwrap_err();
        assert!(
            matches!(err, CoreError::Diverged { iteration: 0, .. }),
            "{err:?}"
        );
    }

    #[test]
    fn infinite_rhs_is_reported_as_divergence() {
        let coo = gen::stencil27(2);
        let mut acc = Alrescha::with_paper_config();
        let solver = AcceleratedPcg::program(&mut acc, &coo).unwrap();
        let mut b = vec![1.0; coo.rows()];
        b[3] = f64::INFINITY;
        let err = solver
            .solve(&mut acc, &b, &SolverOptions::default())
            .unwrap_err();
        assert!(matches!(err, CoreError::Diverged { .. }), "{err:?}");
    }

    #[test]
    fn zero_rhs_converges_immediately() {
        let coo = gen::stencil27(2);
        let mut acc = Alrescha::with_paper_config();
        let solver = AcceleratedPcg::program(&mut acc, &coo).unwrap();
        let out = solver
            .solve(&mut acc, &vec![0.0; coo.rows()], &SolverOptions::default())
            .unwrap();
        assert!(out.converged);
        assert_eq!(out.iterations, 0);
        assert_eq!(out.reason, TerminationReason::Converged);
    }

    #[test]
    fn exhausted_iteration_budget_reports_reason() {
        let coo = gen::stencil27(3);
        let mut acc = Alrescha::with_paper_config();
        let solver = AcceleratedPcg::program(&mut acc, &coo).unwrap();
        let out = solver
            .solve(
                &mut acc,
                &vec![1.0; coo.rows()],
                &SolverOptions {
                    tol: 1e-14,
                    max_iters: 2,
                },
            )
            .unwrap();
        assert!(!out.converged);
        assert_eq!(out.reason, TerminationReason::BudgetExhausted);
        assert_eq!(out.iterations, 2);
    }

    #[test]
    fn resume_from_checkpoint_is_bit_identical() {
        let coo = gen::stencil27(3);
        let csr = Csr::from_coo(&coo);
        let x_true: Vec<f64> = (0..coo.rows()).map(|i| ((i % 5) as f64) - 2.0).collect();
        let b = spmv(&csr, &x_true);
        let opts = SolverOptions::default();

        let mut acc = Alrescha::with_paper_config();
        let solver = AcceleratedPcg::program(&mut acc, &coo).unwrap();
        let full = solver.solve(&mut acc, &b, &opts).unwrap();

        let mut checkpoints = Vec::new();
        let out = solver
            .solve_with_checkpoints(&mut acc, &b, &opts, 3, &mut |cp| checkpoints.push(cp))
            .unwrap();
        assert!(out.converged);
        assert!(!checkpoints.is_empty(), "solve must emit checkpoints");
        // Checkpointing must not perturb the solve.
        assert_eq!(out.iterations, full.iterations);
        for (a, b) in out.x.iter().zip(&full.x) {
            assert_eq!(a.to_bits(), b.to_bits());
        }

        // "Kill" the run: resume from an intermediate checkpoint only.
        let cp = &checkpoints[checkpoints.len() / 2];
        let resumed = solver.resume(&mut acc, &b, &opts, cp).unwrap();
        assert!(resumed.converged);
        assert_eq!(resumed.reason, TerminationReason::Resumed);
        assert_eq!(resumed.iterations, full.iterations);
        assert_eq!(resumed.residual.to_bits(), full.residual.to_bits());
        for (a, b) in resumed.x.iter().zip(&full.x) {
            assert_eq!(a.to_bits(), b.to_bits(), "resume must be bit-identical");
        }
    }

    #[test]
    fn resume_rejects_foreign_checkpoints() {
        use crate::checkpoint::{CheckpointError, SolverCheckpoint, SolverKind};
        let coo = gen::stencil27(2);
        let mut acc = Alrescha::with_paper_config();
        let solver = AcceleratedPcg::program(&mut acc, &coo).unwrap();
        let b = vec![1.0; coo.rows()];
        let n = coo.rows();
        let cp = SolverCheckpoint {
            kind: SolverKind::MgPcg,
            n,
            iteration: 1,
            x: vec![0.0; n],
            r: b.clone(),
            p: b.clone(),
            rz: 1.0,
            r0: 1.0,
            residual_history: vec![],
            fault: None,
        };
        let err = solver
            .resume(&mut acc, &b, &SolverOptions::default(), &cp)
            .unwrap_err();
        assert!(
            matches!(
                err,
                CoreError::Checkpoint(CheckpointError::Mismatch {
                    field: "solver kind"
                })
            ),
            "{err:?}"
        );

        let cp_wrong_n = SolverCheckpoint {
            kind: SolverKind::Pcg,
            n: n + 1,
            ..cp.clone()
        };
        let err = solver
            .resume(&mut acc, &b, &SolverOptions::default(), &cp_wrong_n)
            .unwrap_err();
        assert!(
            matches!(
                err,
                CoreError::Checkpoint(CheckpointError::Mismatch { field: "n" })
            ),
            "{err:?}"
        );

        let cp_spent = SolverCheckpoint {
            kind: SolverKind::Pcg,
            iteration: 600,
            ..cp
        };
        let err = solver
            .resume(&mut acc, &b, &SolverOptions::default(), &cp_spent)
            .unwrap_err();
        assert!(matches!(err, CoreError::Checkpoint(_)), "{err:?}");
    }

    #[test]
    fn termination_reason_maps_errors() {
        let diverged = CoreError::Diverged {
            iteration: 3,
            residual: f64::NAN,
        };
        assert_eq!(
            TerminationReason::from_error(&diverged),
            Some(TerminationReason::Diverged)
        );
        let stalled = CoreError::Sim(SimError::Stalled {
            site: "d-symgs block scheduler",
            cycle: 10,
            idle_cycles: 5,
        });
        assert_eq!(
            TerminationReason::from_error(&stalled),
            Some(TerminationReason::Stalled)
        );
        let deadline = CoreError::Sim(SimError::DeadlineExceeded {
            budget: "cycle",
            cycle: 10,
        });
        assert_eq!(
            TerminationReason::from_error(&deadline),
            Some(TerminationReason::BudgetExhausted)
        );
        assert_eq!(
            TerminationReason::from_error(&CoreError::Breakdown { iteration: 1 }),
            None
        );
        assert_eq!(
            TerminationReason::Resumed.to_string(),
            "converged (resumed)"
        );
    }
}

/// PCG with an HPCG-style multigrid V-cycle preconditioner whose SymGS
/// smoothers and residual SpMVs all run on the accelerator.
///
/// Demonstrates the multi-kernel capability Table 2 credits ALRESCHA with:
/// a solve interleaves SpMV and SymGS programs across every grid level,
/// exercising the runtime reconfiguration path continuously.
#[derive(Debug)]
pub struct AcceleratedMgPcg {
    /// Per level: (spmv program, symgs program, coarse injection map).
    levels: Vec<(ProgrammedKernel, ProgrammedKernel, Vec<usize>)>,
    n: usize,
}

impl AcceleratedMgPcg {
    /// Programs every level of `hierarchy` onto the accelerator.
    ///
    /// # Errors
    ///
    /// Propagates programming failures (the stencil hierarchy always
    /// programs cleanly).
    pub fn program(
        acc: &mut Alrescha,
        hierarchy: &alrescha_kernels::multigrid::GridHierarchy,
    ) -> Result<Self> {
        let mut levels = Vec::with_capacity(hierarchy.levels().len());
        for level in hierarchy.levels() {
            let coo = level.matrix.to_coo();
            let spmv_prog = acc.program(KernelType::SpMv, &coo)?;
            let symgs_prog = acc.program(KernelType::SymGs, &coo)?;
            levels.push((spmv_prog, symgs_prog, level.coarse_to_fine.clone()));
        }
        let n = hierarchy.levels()[0].matrix.rows();
        Ok(AcceleratedMgPcg { levels, n })
    }

    fn v_cycle(
        &self,
        acc: &mut Alrescha,
        level: usize,
        r: &[f64],
        report: &mut Option<ExecutionReport>,
    ) -> Result<Vec<f64>> {
        let (spmv_prog, symgs_prog, coarse_map) = &self.levels[level];
        let n = r.len();
        let mut z = vec![0.0; n];
        let config = acc.config().clone();
        let absorb = |rep: ExecutionReport, report: &mut Option<ExecutionReport>| match report {
            Some(acc_rep) => acc_rep.merge(&rep, &config),
            None => *report = Some(rep),
        };

        absorb(acc.symgs(symgs_prog, r, &mut z)?, report);
        if level + 1 == self.levels.len() {
            return Ok(z);
        }

        let (az, rep) = acc.spmv(spmv_prog, &z)?;
        absorb(rep, report);
        let residual: Vec<f64> = r.iter().zip(&az).map(|(ri, azi)| ri - azi).collect();
        let rc: Vec<f64> = coarse_map.iter().map(|&f| residual[f]).collect();
        let zc = self.v_cycle(acc, level + 1, &rc, report)?;
        for (c, &f) in coarse_map.iter().enumerate() {
            z[f] += zc[c];
        }
        absorb(acc.symgs(symgs_prog, r, &mut z)?, report);
        Ok(z)
    }

    /// Solves `A x = b` with V-cycle-preconditioned CG on the device.
    ///
    /// # Errors
    ///
    /// Device errors, dimension mismatches, or [`CoreError::Breakdown`] on
    /// non-SPD input.
    pub fn solve(
        &self,
        acc: &mut Alrescha,
        b: &[f64],
        opts: &SolverOptions,
    ) -> Result<SolveOutcome> {
        self.drive(acc, b, opts, 0, None, None)
    }

    /// Like [`AcceleratedMgPcg::solve`], emitting a [`SolverCheckpoint`] to
    /// `sink` after every `every` iterations (`every = 0` never emits).
    ///
    /// # Errors
    ///
    /// As [`AcceleratedMgPcg::solve`].
    pub fn solve_with_checkpoints(
        &self,
        acc: &mut Alrescha,
        b: &[f64],
        opts: &SolverOptions,
        every: usize,
        sink: &mut dyn FnMut(SolverCheckpoint),
    ) -> Result<SolveOutcome> {
        self.drive(acc, b, opts, every, Some(sink), None)
    }

    /// Continues a solve from `checkpoint` (see
    /// [`AcceleratedPcg::resume`]; the checkpoint must carry
    /// [`SolverKind::MgPcg`]).
    ///
    /// # Errors
    ///
    /// [`CoreError::Checkpoint`] on a foreign checkpoint; otherwise as
    /// [`AcceleratedMgPcg::solve`].
    pub fn resume(
        &self,
        acc: &mut Alrescha,
        b: &[f64],
        opts: &SolverOptions,
        checkpoint: &SolverCheckpoint,
    ) -> Result<SolveOutcome> {
        self.drive(acc, b, opts, 0, None, Some(checkpoint))
    }

    fn drive(
        &self,
        acc: &mut Alrescha,
        b: &[f64],
        opts: &SolverOptions,
        every: usize,
        sink: Option<&mut dyn FnMut(SolverCheckpoint)>,
        resume_from: Option<&SolverCheckpoint>,
    ) -> Result<SolveOutcome> {
        let config = acc.config().clone();
        run_pcg(
            acc,
            b,
            opts,
            SolverKind::MgPcg,
            self.n,
            &mut |acc, v, report| {
                let (y, rep) = acc.spmv(&self.levels[0].0, v)?;
                absorb_into(rep, report, &config);
                Ok(y)
            },
            &mut |acc, r, report| self.v_cycle(acc, 0, r, report),
            every,
            sink,
            resume_from,
        )
    }
}

#[cfg(test)]
mod mg_tests {
    use super::*;
    use alrescha_kernels::multigrid::GridHierarchy;
    use alrescha_kernels::spmv::spmv;
    use alrescha_sparse::Csr;

    #[test]
    fn accelerated_mg_pcg_matches_host_mg_pcg() {
        let hierarchy = GridHierarchy::build(8, 3).unwrap();
        let a = hierarchy.levels()[0].matrix.clone();
        let x_true: Vec<f64> = (0..a.rows()).map(|i| ((i % 6) as f64) - 2.5).collect();
        let b = spmv(&a, &x_true);

        let (_, host_iters, host_converged) = hierarchy.solve(&b, 1e-9, 100).unwrap();
        assert!(host_converged);

        let mut acc = Alrescha::with_paper_config();
        let solver = AcceleratedMgPcg::program(&mut acc, &hierarchy).unwrap();
        let out = solver
            .solve(
                &mut acc,
                &b,
                &SolverOptions {
                    tol: 1e-9,
                    max_iters: 100,
                },
            )
            .unwrap();
        assert!(out.converged);
        assert!(alrescha_sparse::approx_eq(&out.x, &x_true, 1e-5));
        assert!(
            (out.iterations as i64 - host_iters as i64).abs() <= 1,
            "device {} host {host_iters}",
            out.iterations
        );
        // The multi-level workload reconfigures constantly, all hidden.
        assert!(out.report.reconfig.switches > 10);
        assert_eq!(out.report.reconfig.exposed_cycles, 0);
    }

    #[test]
    fn mg_beats_plain_symgs_pcg_on_the_device() {
        let hierarchy = GridHierarchy::build(8, 3).unwrap();
        let coo = hierarchy.levels()[0].matrix.to_coo();
        let csr = Csr::from_coo(&coo);
        let b = spmv(&csr, &vec![1.0; csr.cols()]);

        let mut acc = Alrescha::with_paper_config();
        let plain = AcceleratedPcg::program(&mut acc, &coo).unwrap();
        let plain_out = plain
            .solve(
                &mut acc,
                &b,
                &SolverOptions {
                    tol: 1e-9,
                    max_iters: 100,
                },
            )
            .unwrap();

        let mg = AcceleratedMgPcg::program(&mut acc, &hierarchy).unwrap();
        let mg_out = mg
            .solve(
                &mut acc,
                &b,
                &SolverOptions {
                    tol: 1e-9,
                    max_iters: 100,
                },
            )
            .unwrap();

        assert!(plain_out.converged && mg_out.converged);
        assert!(
            mg_out.iterations <= plain_out.iterations,
            "mg {} plain {}",
            mg_out.iterations,
            plain_out.iterations
        );
    }

    #[test]
    fn mg_nan_rhs_is_reported_as_divergence() {
        let hierarchy = GridHierarchy::build(4, 2).unwrap();
        let mut acc = Alrescha::with_paper_config();
        let solver = AcceleratedMgPcg::program(&mut acc, &hierarchy).unwrap();
        let n = hierarchy.levels()[0].matrix.rows();
        let mut b = vec![1.0; n];
        b[0] = f64::NAN;
        let err = solver
            .solve(&mut acc, &b, &SolverOptions::default())
            .unwrap_err();
        assert!(matches!(err, CoreError::Diverged { .. }), "{err:?}");
    }

    #[test]
    fn mg_rejects_wrong_rhs() {
        let hierarchy = GridHierarchy::build(4, 2).unwrap();
        let mut acc = Alrescha::with_paper_config();
        let solver = AcceleratedMgPcg::program(&mut acc, &hierarchy).unwrap();
        assert!(solver
            .solve(&mut acc, &[1.0], &SolverOptions::default())
            .is_err());
    }
}
