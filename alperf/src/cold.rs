//! `cold_batch`: one `Fleet::run` per op over 32 distinct SpMV jobs that
//! span every `ScienceClass`, on a fresh fleet (empty conversion cache)
//! with the alverify preflight and alprove admission hooks attached.

use std::sync::Arc;

use alrescha::fleet::JobKernel;
use alrescha::{Alrescha, FleetReport, JobSpec, KernelType};
use alrescha_obs::Telemetry;
use alrescha_sparse::gen::ScienceClass;
use alrescha_sparse::{Coo, Csr};

use crate::bench::{Checked, Counts, Workload};
use crate::layers;
use crate::probe::{self, Probe};
use crate::pcg::seeded_vec;
use crate::trace::Tracer;

pub const JOBS: usize = 32;
pub const N: usize = 1000;
pub const WORKERS: usize = 2;
/// Relative SpMV tolerance against the host CSR kernel.
pub const REL_TOL: f64 = 1e-12;

pub struct ColdBatch {
    jobs: Vec<JobSpec>,
    refs: Vec<Vec<f64>>,
}

impl ColdBatch {
    pub fn setup(_tr: &Arc<Tracer>, seed: u64) -> Self {
        let mut jobs = Vec::with_capacity(JOBS);
        let mut refs = Vec::with_capacity(JOBS);
        for i in 0..JOBS {
            let class = ScienceClass::ALL[i % ScienceClass::ALL.len()];
            let s = seed.wrapping_mul(1000).wrapping_add(i as u64);
            // Scaling makes every matrix distinct, the unseeded stencil too,
            // so the fresh fleet's conversion cache never hits.
            let a = class.generate(N, s).scale(1.0 + i as f64 / 64.0);
            let x = seeded_vec(a.cols(), s ^ 0xc01d);
            refs.push(alrescha_kernels::spmv::spmv(&Csr::from_coo(&a), &x));
            jobs.push(JobSpec::new(a, JobKernel::SpMv { x }));
        }
        ColdBatch { jobs, refs }
    }
}

impl Workload for ColdBatch {
    type Client = Option<Arc<Telemetry>>;
    type Input = Vec<JobSpec>;
    type Output = FleetReport;

    const PROBE: Probe = probe::TWO_CORES;

    fn client(&self, _idx: usize) -> Self::Client {
        None
    }

    fn prepare(&self, client: &mut Self::Client, tele: Option<&Arc<Telemetry>>) {
        *client = tele.cloned();
    }

    fn input(&self, _k: u64) -> Vec<JobSpec> {
        self.jobs.clone()
    }

    fn run(
        &self,
        tele: &mut Self::Client,
        jobs: Vec<JobSpec>,
        tr: &Arc<Tracer>,
        op: u64,
    ) -> FleetReport {
        if tr.enabled() {
            // The fleet converts internally; time the same layer calls on
            // the same operands directly, plus one engine SpMV per job.
            let mut acc = Alrescha::with_paper_config();
            for job in &jobs {
                let prog = layers::program(tr, op, &mut acc, KernelType::SpMv, &job.matrix);
                if let JobKernel::SpMv { x } = &job.kernel {
                    layers::engine_call(tr, op, "engine.spmv", "engine.spmv_ns_per_block", || {
                        acc.spmv(&prog, x)
                    })
                    .expect("cold_batch spmv");
                }
            }
        }
        let mut fleet = layers::fleet(tr, op, WORKERS);
        if let Some(t) = tele {
            fleet = fleet.with_telemetry(Arc::clone(t));
        }
        let report = tr.span("fleet.run", op, || fleet.run(jobs));
        if tr.enabled() {
            layers::record_fleet(tr, op, &report);
        }
        report
    }

    fn check(&self, _k: u64, report: &FleetReport) -> Checked {
        let mut ok = report.jobs.len() == JOBS;
        let mut counts = Counts::default();
        let mut fingerprint = 0xcbf2_9ce4_8422_2325_u64;
        for (rec, want) in report.jobs.iter().zip(&self.refs) {
            let Ok(out) = &rec.result else {
                ok = false;
                continue;
            };
            let scale = want.iter().fold(0.0_f64, |m, v| m.max(v.abs()));
            let err = out
                .values()
                .iter()
                .zip(want)
                .fold(0.0_f64, |m, (a, b)| m.max((a - b).abs()));
            ok &= out.values().len() == want.len() && err <= REL_TOL * scale;
            counts.add(Counts::of(out.report()));
            fingerprint = (fingerprint ^ out.fingerprint()).wrapping_mul(0x0100_0000_01b3);
        }
        Checked {
            ok,
            key: 0,
            fingerprint,
            counts,
        }
    }

    fn sweep_inputs(&self) -> (Coo, Coo) {
        let a = self.jobs[0].matrix.clone();
        let g = layers::graph_from_matrix(&a);
        (a, g)
    }
}
