//! `pcg_stencil`: one `AcceleratedPcg::solve` per op on a 27-point stencil
//! system programmed once in setup, over a pool of seeded right-hand sides.

use std::sync::Arc;
use std::time::Instant;

use alrescha::util::SplitMix64;
use alrescha::{AcceleratedPcg, Alrescha, JobOutput, KernelType, ProgrammedKernel};
use alrescha::{SolveOutcome, SolverOptions};
use alrescha_obs::Telemetry;
use alrescha_sparse::{gen, Coo, Csr};

use crate::bench::{Checked, Counts, Workload};
use crate::layers;
use crate::trace::Tracer;

/// Grid side: n = 12³ = 1728 unknowns.
pub const SIDE: usize = 12;
/// Distinct right-hand sides; op `k` uses `k % RHS_POOL`.
pub const RHS_POOL: u64 = 4;
pub const TOL: f64 = 1e-8;

pub struct PcgStencil {
    a: Coo,
    csr: Csr,
    rhs: Vec<Vec<f64>>,
    spmv: ProgrammedKernel,
    symgs: ProgrammedKernel,
    pcg: AcceleratedPcg,
    opts: SolverOptions,
}

pub fn seeded_vec(n: usize, seed: u64) -> Vec<f64> {
    let mut rng = SplitMix64::new(seed);
    (0..n).map(|_| 0.5 + rng.unit()).collect()
}

impl PcgStencil {
    pub fn setup(tr: &Arc<Tracer>, seed: u64) -> Self {
        let a = gen::stencil27(SIDE);
        let n = a.rows();
        let rhs = (0..RHS_POOL)
            .map(|i| seeded_vec(n, seed ^ (i + 1) << 32))
            .collect();
        let mut acc = Alrescha::with_paper_config();
        let spmv = layers::program_checked(tr, 0, &mut acc, KernelType::SpMv, &a);
        let symgs = layers::program_checked(tr, 0, &mut acc, KernelType::SymGs, &a);
        let pcg = AcceleratedPcg::from_programs(spmv.clone(), symgs.clone())
            .expect("stencil programs form a solver");
        PcgStencil {
            csr: Csr::from_coo(&a),
            a,
            rhs,
            spmv,
            symgs,
            pcg,
            opts: SolverOptions {
                tol: TOL,
                max_iters: 500,
            },
        }
    }
}

/// ‖b − A·x‖ / ‖b‖ with the host reference SpMV.
pub fn true_rel_residual(a: &Csr, x: &[f64], b: &[f64]) -> f64 {
    let ax = alrescha_kernels::spmv::spmv(a, x);
    let r: f64 = b.iter().zip(&ax).map(|(bi, yi)| (bi - yi).powi(2)).sum();
    let bb: f64 = b.iter().map(|v| v * v).sum();
    (r / bb).sqrt()
}

impl Workload for PcgStencil {
    type Client = Alrescha;
    type Input = (u64, Vec<f64>);
    type Output = (Vec<f64>, Result<SolveOutcome, alrescha::CoreError>);

    fn client(&self, _idx: usize) -> Alrescha {
        Alrescha::with_paper_config()
    }

    fn prepare(&self, acc: &mut Alrescha, tele: Option<&Arc<Telemetry>>) {
        acc.reset();
        acc.set_telemetry(tele.cloned());
    }

    fn input(&self, k: u64) -> Self::Input {
        let key = k % RHS_POOL;
        (key, self.rhs[key as usize].clone())
    }

    fn run(
        &self,
        acc: &mut Alrescha,
        (_, b): Self::Input,
        tr: &Arc<Tracer>,
        op: u64,
    ) -> Self::Output {
        let t0 = Instant::now();
        let out = tr.span("solver.solve", op, || self.pcg.solve(acc, &b, &self.opts));
        if tr.enabled() {
            if let Ok(o) = &out {
                let ms = t0.elapsed().as_secs_f64() * 1e3;
                tr.record("solver.iterations", o.iterations as f64, op);
                tr.record("solver.iter_ms", ms / o.iterations.max(1) as f64, op);
            }
            // One direct call per data path the solve drives, timed alone.
            layers::engine_call(tr, op, "engine.spmv", "engine.spmv_ns_per_block", || {
                acc.spmv(&self.spmv, &b)
            })
            .expect("stencil spmv");
            let mut x = vec![0.0; b.len()];
            layers::engine_call(tr, op, "engine.symgs", "engine.symgs_ns_per_block", || {
                acc.symgs(&self.symgs, &b, &mut x).map(|r| ((), r))
            })
            .expect("stencil symgs");
        }
        (b, out)
    }

    fn check(&self, k: u64, (b, out): &Self::Output) -> Checked {
        let key = k % RHS_POOL;
        let Ok(outcome) = out else {
            return Checked {
                ok: false,
                key,
                fingerprint: 0,
                counts: Counts::default(),
            };
        };
        let ok = outcome.converged && true_rel_residual(&self.csr, &outcome.x, b) <= TOL;
        let counts = Counts::of(&outcome.report);
        let fingerprint = JobOutput::Pcg {
            outcome: outcome.clone(),
        }
        .fingerprint();
        Checked {
            ok,
            key,
            fingerprint,
            counts,
        }
    }

    fn sweep_inputs(&self) -> (Coo, Coo) {
        (self.a.clone(), layers::graph_from_matrix(&self.a))
    }
}
