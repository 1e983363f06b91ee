//! `serve_pcg`: two closed-loop clients, each on its own TCP connection
//! and tenant, submit small PCG solves to an in-process `alserve` server
//! (`ServerConfig::default()`: 2 workers, fsync-before-ack journal,
//! checkpoint every 8 iterations) and wait for Done.

use std::path::{Path, PathBuf};
use std::sync::{Arc, Mutex};

use alrescha::fleet::JobKernel;
use alrescha::{JobSpec, KernelType, SolverOptions};
use alrescha_obs::Telemetry;
use alrescha_serve::{
    Client, JobPayload, Journal, Server, ServerConfig, ServerHandle, SolveResult,
};
use alrescha_sparse::gen::ScienceClass;
use alrescha_sparse::Coo;

use crate::bench::{count_events, Checked, Counts, Workload};
use crate::layers;
use crate::probe::{self, Probe};
use crate::pcg::seeded_vec;
use crate::trace::Tracer;

pub const N: usize = 216;
pub const CLASSES: [ScienceClass; 4] = [
    ScienceClass::Fluid,
    ScienceClass::Structural,
    ScienceClass::Electromagnetic,
    ScienceClass::Acoustics,
];
pub const CLIENTS: usize = 2;

pub struct ServePcg {
    jobs: Vec<JobPayload>,
    ref_fp: Vec<u64>,
    ref_counts: Vec<Counts>,
    server: ServerHandle,
    /// Traced runs only: a second server with alobs telemetry attached.
    obs: Option<(ServerHandle, Arc<Telemetry>)>,
    /// Traced runs only: client telemetry whose instants count retries.
    retries: Option<Arc<Telemetry>>,
    journal: Option<Mutex<Journal>>,
    dir: PathBuf,
    seed: u64,
}

pub struct ServeClient {
    plain: Client,
    obs: Option<Client>,
    use_obs: bool,
    tenant: String,
}

fn start(dir: &Path, telemetry: Option<Arc<Telemetry>>) -> ServerHandle {
    let _ = std::fs::remove_dir_all(dir);
    Server::new(ServerConfig {
        data_dir: dir.to_path_buf(),
        telemetry,
        ..ServerConfig::default()
    })
    .start()
    .expect("alserve starts on loopback")
}

impl ServePcg {
    /// Generates the jobs and their in-process fleet references, starts
    /// the server, and serves one warm-up round (its first conversions).
    pub fn setup(tr: &Arc<Tracer>, seed: u64, dir: &Path) -> Self {
        let opts = SolverOptions {
            tol: 1e-8,
            max_iters: 500,
        };
        let mut jobs = Vec::new();
        for (i, class) in CLASSES.iter().enumerate() {
            let s = seed.wrapping_mul(31).wrapping_add(i as u64);
            let a = class.generate(N, s);
            let b = seeded_vec(a.rows(), s ^ 0xb);
            jobs.push(layers::payload(&a, &b, &opts));
        }
        if tr.enabled() {
            let mut acc = alrescha::Alrescha::with_paper_config();
            for j in &jobs {
                layers::program_checked(tr, 0, &mut acc, KernelType::SpMv, &j.matrix);
                layers::program_checked(tr, 0, &mut acc, KernelType::SymGs, &j.matrix);
            }
        }
        let specs = jobs
            .iter()
            .map(|j| {
                let kernel = JobKernel::Pcg {
                    b: j.b.clone(),
                    opts: opts.clone(),
                };
                JobSpec::new(j.matrix.clone(), kernel)
            })
            .collect();
        let fleet = layers::fleet(tr, 0, 2);
        let report = tr.span("fleet.run", 0, || fleet.run(specs));
        layers::record_fleet(tr, 0, &report);
        let mut ref_fp = Vec::new();
        let mut ref_counts = Vec::new();
        for rec in &report.jobs {
            let out = rec.result.as_ref().expect("reference solve succeeds");
            ref_fp.push(out.solution_fingerprint());
            ref_counts.push(Counts::of(out.report()));
            if let alrescha::JobOutput::Pcg { outcome } = out {
                let iters = outcome.iterations.max(1) as f64;
                tr.record("solver.iterations", outcome.iterations as f64, 0);
                tr.record(
                    "solver.iter_ms",
                    rec.run_time.as_secs_f64() * 1e3 / iters,
                    0,
                );
            }
        }
        std::fs::create_dir_all(dir).expect("serve directory is creatable");
        let server = start(&dir.join("serve"), None);
        let (obs, retries, journal) = if tr.enabled() {
            let tele = Telemetry::new();
            let h = start(&dir.join("serve-obs"), Some(Arc::clone(&tele)));
            let wal = Journal::open(dir.join("bench.wal")).expect("bench journal opens");
            (
                Some((h, tele)),
                Some(Telemetry::new()),
                Some(Mutex::new(wal)),
            )
        } else {
            (None, None, None)
        };
        let w = ServePcg {
            jobs,
            ref_fp,
            ref_counts,
            server,
            obs,
            retries,
            journal,
            dir: dir.to_path_buf(),
            seed,
        };
        w.warm_up();
        w
    }

    fn warm_up(&self) {
        let mut addrs = vec![self.server.addr().to_owned()];
        addrs.extend(self.obs.as_ref().map(|(h, _)| h.addr().to_owned()));
        for addr in addrs {
            let mut c = layers::client(&addr, self.seed);
            for (job, fp) in self.jobs.iter().zip(&self.ref_fp) {
                let id = c.submit("warmup", job).expect("warm-up submit");
                let r = c.wait(id).expect("warm-up solve");
                assert_eq!(
                    r.solution_fingerprint, *fp,
                    "served solve differs from the fleet's"
                );
            }
        }
    }
}

impl Workload for ServePcg {
    type Client = ServeClient;
    type Input = (u64, JobPayload);
    type Output = (u64, Option<SolveResult>);

    fn clients(&self) -> usize {
        CLIENTS
    }

    const PROBE: Probe = probe::TWO_CORES_HANDOFFS;

    fn client(&self, idx: usize) -> ServeClient {
        let seed = self.seed ^ (idx as u64 + 1);
        let mut plain = layers::client(self.server.addr(), seed);
        if let Some(t) = &self.retries {
            plain = plain.with_telemetry(Arc::clone(t));
        }
        let obs = self
            .obs
            .as_ref()
            .map(|(h, t)| layers::client(h.addr(), seed).with_telemetry(Arc::clone(t)));
        ServeClient {
            plain,
            obs,
            use_obs: false,
            tenant: format!("tenant-{idx}"),
        }
    }

    fn prepare(&self, c: &mut ServeClient, tele: Option<&Arc<Telemetry>>) {
        c.use_obs = tele.is_some() && c.obs.is_some();
    }

    fn owned_events(&self) -> usize {
        self.obs.as_ref().map_or(0, |(_, t)| count_events(t))
    }

    fn input(&self, k: u64) -> Self::Input {
        let key = k % self.jobs.len() as u64;
        (key, self.jobs[key as usize].clone())
    }

    fn run(
        &self,
        c: &mut ServeClient,
        (key, job): Self::Input,
        tr: &Arc<Tracer>,
        op: u64,
    ) -> Self::Output {
        let client = match (&mut c.obs, c.use_obs) {
            (Some(obs), true) => obs,
            _ => &mut c.plain,
        };
        if !tr.enabled() {
            let result = client
                .submit(&c.tenant, &job)
                .and_then(|id| client.wait(id))
                .ok();
            return (key, result);
        }
        let result = layers::serve_round(tr, op, client, &c.tenant, &job);
        // The same job through the codec, journal, and checkpoint layers
        // the server drives, timed call by call.
        layers::codec(tr, op, &job);
        if let Some(wal) = &self.journal {
            let mut wal = wal.lock().expect("bench journal poisoned");
            let id = wal.next_job_id();
            layers::journal(tr, op, &mut wal, id, &job);
        }
        if let Some(r) = &result {
            layers::checkpoint(tr, op, &self.dir, &r.x, &job.b);
        }
        (key, result)
    }

    fn check(&self, _k: u64, (key, result): &Self::Output) -> Checked {
        let i = *key as usize;
        let ok = result
            .as_ref()
            .is_some_and(|r| r.converged && r.solution_fingerprint == self.ref_fp[i]);
        Checked {
            ok,
            key: *key,
            fingerprint: result.as_ref().map_or(0, |r| r.solution_fingerprint),
            counts: self.ref_counts[i],
        }
    }

    fn finish(&self, tr: &Tracer) {
        if let Some(t) = &self.retries {
            layers::record_retries(tr, 0, t);
            t.set_enabled(false);
        }
    }

    fn sweep_inputs(&self) -> (Coo, Coo) {
        let a = self.jobs[0].matrix.clone();
        let g = layers::graph_from_matrix(&a);
        (a, g)
    }
}
