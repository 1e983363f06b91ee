//! `graph_rmat`: PageRank, then SSSP, then BFS per op on a fixed RMAT graph
//! programmed once in setup, from a pool of seeded sources.

use std::sync::Arc;

use alrescha::util::SplitMix64;
use alrescha::{Alrescha, KernelType, ProgrammedKernel};
use alrescha_kernels::graph::{self, PageRankOptions};
use alrescha_obs::Telemetry;
use alrescha_sim::{ExecutionReport, PageRankConfig};
use alrescha_sparse::{gen, Coo, Csr};

use crate::bench::{Checked, Counts, Workload};
use crate::layers;
use crate::trace::Tracer;

/// Vertices requested (RMAT rounds up to 2048) and mean out-degree.
pub const VERTICES: usize = 2000;
pub const DEGREE: usize = 8;
pub const SOURCE_POOL: u64 = 4;
/// Seed of the RMAT graph. The graph is fixed, as `pcg_stencil`'s matrix
/// is, and `--seed` draws the sources: the simulated work of an RMAT graph
/// this size varies by about 12% with its seed, more than a run's noise.
pub const GRAPH_SEED: u64 = 1;
pub const TOL: f64 = 1e-8;

pub struct GraphRmat {
    g: Coo,
    pagerank: ProgrammedKernel,
    sssp: ProgrammedKernel,
    bfs: ProgrammedKernel,
    sources: Vec<usize>,
    ref_ranks: Vec<f64>,
    ref_dist: Vec<Vec<f64>>,
    ref_levels: Vec<Vec<f64>>,
    pr_config: PageRankConfig,
}

pub struct GraphOut {
    ranks: Vec<f64>,
    dist: Vec<f64>,
    levels: Vec<f64>,
    reports: Vec<ExecutionReport>,
}

impl GraphRmat {
    pub fn setup(tr: &Arc<Tracer>, seed: u64) -> Self {
        let g = gen::rmat(VERTICES, DEGREE, GRAPH_SEED);
        let csr = Csr::from_coo(&g);
        let mut acc = Alrescha::with_paper_config();
        let pagerank = layers::program_checked(tr, 0, &mut acc, KernelType::PageRank, &g);
        let sssp = layers::program_checked(tr, 0, &mut acc, KernelType::Sssp, &g);
        let bfs = layers::program_checked(tr, 0, &mut acc, KernelType::Bfs, &g);
        // Sources with out-edges, so every traversal reaches past itself.
        let mut rng = SplitMix64::new(seed ^ 0x5eed);
        let mut sources = Vec::new();
        while sources.len() < SOURCE_POOL as usize {
            let s = rng.below(g.rows() as u64) as usize;
            if csr.row_nnz(s) > 0 && !sources.contains(&s) {
                sources.push(s);
            }
        }
        let pr_opts = PageRankOptions {
            tol: TOL,
            ..PageRankOptions::default()
        };
        let (ref_ranks, _) = graph::pagerank(&csr, &pr_opts).expect("host pagerank");
        let ref_dist = sources
            .iter()
            .map(|&s| graph::sssp(&csr, s).expect("host sssp"))
            .collect();
        let ref_levels = sources
            .iter()
            .map(|&s| graph::bfs(&csr, s).expect("host bfs"))
            .collect();
        GraphRmat {
            g,
            pagerank,
            sssp,
            bfs,
            sources,
            ref_ranks,
            ref_dist,
            ref_levels,
            pr_config: PageRankConfig {
                tol: TOL,
                ..PageRankConfig::default()
            },
        }
    }
}

fn fingerprint(out: &GraphOut) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325_u64;
    for v in out.ranks.iter().chain(&out.dist).chain(&out.levels) {
        h = (h ^ v.to_bits()).wrapping_mul(0x0100_0000_01b3);
    }
    h
}

impl Workload for GraphRmat {
    type Client = Alrescha;
    type Input = u64;
    type Output = Result<GraphOut, alrescha::CoreError>;

    fn client(&self, _idx: usize) -> Alrescha {
        Alrescha::with_paper_config()
    }

    fn prepare(&self, acc: &mut Alrescha, tele: Option<&Arc<Telemetry>>) {
        acc.reset();
        acc.set_telemetry(tele.cloned());
    }

    fn input(&self, k: u64) -> u64 {
        k % SOURCE_POOL
    }

    fn run(&self, acc: &mut Alrescha, key: u64, tr: &Arc<Tracer>, op: u64) -> Self::Output {
        let src = self.sources[key as usize];
        let (ranks, r1) = layers::engine_call(
            tr,
            op,
            "engine.pagerank",
            "engine.pagerank_ns_per_block",
            || acc.pagerank(&self.pagerank, &self.pr_config),
        )?;
        let (dist, r2) =
            layers::engine_call(tr, op, "engine.sssp", "engine.sssp_ns_per_block", || {
                acc.sssp(&self.sssp, src)
            })?;
        let (levels, r3) =
            layers::engine_call(tr, op, "engine.bfs", "engine.bfs_ns_per_block", || {
                acc.bfs(&self.bfs, src)
            })?;
        Ok(GraphOut {
            ranks,
            dist,
            levels,
            reports: vec![r1, r2, r3],
        })
    }

    fn check(&self, k: u64, out: &Self::Output) -> Checked {
        let key = k % SOURCE_POOL;
        let Ok(out) = out else {
            return Checked {
                ok: false,
                key,
                fingerprint: 0,
                counts: Counts::default(),
            };
        };
        let l1: f64 = out
            .ranks
            .iter()
            .zip(&self.ref_ranks)
            .map(|(a, b)| (a - b).abs())
            .sum();
        let ok = l1 <= TOL
            && out.dist == self.ref_dist[key as usize]
            && out.levels == self.ref_levels[key as usize];
        let mut counts = Counts::default();
        for r in &out.reports {
            counts.add(Counts::of(r));
        }
        Checked {
            ok,
            key,
            fingerprint: fingerprint(out),
            counts,
        }
    }

    fn sweep_inputs(&self) -> (Coo, Coo) {
        (layers::spd_from_pattern(&self.g), self.g.clone())
    }
}
