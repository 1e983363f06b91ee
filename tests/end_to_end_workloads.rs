//! Scenario tests: the workloads a downstream adopter would actually run,
//! end to end on the device, across every dataset class.

use alrescha::{AcceleratedPcg, Alrescha, KernelType, SolverOptions, TerminationReason};
use alrescha_kernels::graph;
use alrescha_kernels::pcg::{pcg as pcg_host, PcgOptions};
use alrescha_kernels::spmv::spmv;
use alrescha_lint::Preflight;
use alrescha_sim::PageRankConfig;
use alrescha_sparse::{approx_eq, gen, Csr, MetaData};

#[test]
fn pcg_on_every_science_class_end_to_end() {
    for class in gen::ScienceClass::ALL {
        let coo = class.generate(220, 41);
        let csr = Csr::from_coo(&coo);
        let x_true: Vec<f64> = (0..coo.rows())
            .map(|i| ((i % 8) as f64) * 0.25 - 1.0)
            .collect();
        let b = spmv(&csr, &x_true);

        let mut acc = Alrescha::with_paper_config();
        // Static verification first: the solve must start from a program
        // with zero error-severity diagnostics.
        let checked = acc.program(KernelType::SymGs, &coo).expect("program");
        let diags = acc
            .preflight(&checked)
            .expect("preflight refused a shipped class");
        assert!(
            diags
                .iter()
                .all(|d| d.severity != alrescha_lint::Severity::Error),
            "{}: {diags:?}",
            class.name()
        );
        let solver = AcceleratedPcg::program(&mut acc, &coo).expect("program");
        let out = solver
            .solve(
                &mut acc,
                &b,
                &SolverOptions {
                    tol: 1e-8,
                    max_iters: 300,
                },
            )
            .expect("solve");
        assert!(out.converged, "{} did not converge", class.name());
        assert_eq!(out.reason, TerminationReason::Converged, "{}", class.name());
        assert!(
            approx_eq(&out.x, &x_true, 1e-4),
            "{} wrong solution",
            class.name()
        );

        // Device trajectory equals the host oracle's.
        let host = pcg_host(
            &csr,
            &b,
            &PcgOptions {
                tol: 1e-8,
                max_iters: 300,
                ..Default::default()
            },
        )
        .expect("host pcg");
        assert!(
            (out.iterations as i64 - host.iterations as i64).abs() <= 1,
            "{}: device {} host {}",
            class.name(),
            out.iterations,
            host.iterations
        );
    }
}

#[test]
fn graph_suite_runs_all_kernels_on_table3_analogs() {
    // Two representative Table 3 analogs at test scale: the densest and the
    // sparsest ends of the degree spectrum.
    for (name, coo) in [
        ("kron-like", gen::rmat(256, 16, 77)),
        ("road-like", gen::road_grid(16)),
    ] {
        let csr = Csr::from_coo(&coo);
        let mut acc = Alrescha::with_paper_config();

        let prog = acc.program(KernelType::Bfs, &coo).expect("program");
        acc.preflight(&prog).expect("bfs preflight");
        let (levels, _) = acc.bfs(&prog, 0).expect("bfs");
        assert_eq!(levels, graph::bfs(&csr, 0).expect("ref"), "{name}");

        let prog = acc.program(KernelType::Sssp, &coo).expect("program");
        acc.preflight(&prog).expect("sssp preflight");
        let (dist, _) = acc.sssp(&prog, 0).expect("sssp");
        let expect = graph::sssp(&csr, 0).expect("ref");
        assert!(
            dist.iter()
                .zip(&expect)
                .all(|(a, b)| (a.is_infinite() && b.is_infinite()) || (a - b).abs() < 1e-9),
            "{name}"
        );

        let prog = acc.program(KernelType::PageRank, &coo).expect("program");
        acc.preflight(&prog).expect("pagerank preflight");
        let (ranks, _) = acc
            .pagerank(
                &prog,
                &PageRankConfig {
                    tol: 1e-8,
                    ..Default::default()
                },
            )
            .expect("pr");
        assert!((ranks.iter().sum::<f64>() - 1.0).abs() < 1e-6, "{name}");

        let prog = acc
            .program(KernelType::ConnectedComponents, &coo)
            .expect("program");
        acc.preflight(&prog).expect("cc preflight");
        let (labels, _) = acc.connected_components(&prog).expect("cc");
        assert_eq!(
            labels,
            graph::connected_components(&csr).expect("ref"),
            "{name}"
        );
    }
}

#[test]
fn ssor_preconditioned_device_pcg_via_closure() {
    // Host PCG with the preconditioner application running on the device —
    // the hybrid integration pcg_with enables.
    let coo = gen::stencil27(3);
    let csr = Csr::from_coo(&coo);
    let x_true: Vec<f64> = (0..coo.rows()).map(|i| (i as f64 * 0.21).sin()).collect();
    let b = spmv(&csr, &x_true);

    let mut acc = Alrescha::with_paper_config();
    let prog = acc.program(KernelType::SymGs, &coo).expect("program");
    acc.preflight(&prog).expect("ssor preflight");
    let sol = alrescha_kernels::pcg::pcg_with(&csr, &b, 1e-9, 200, |_, r| {
        let mut z = vec![0.0; r.len()];
        acc.ssor(&prog, r, &mut z, 1.0).map_err(|_| {
            alrescha_kernels::KernelError::NoConvergence {
                iterations: 0,
                residual: f64::NAN,
            }
        })?;
        Ok(z)
    })
    .expect("hybrid pcg");
    assert!(sol.converged);
    assert!(approx_eq(&sol.x, &x_true, 1e-6));
}

#[test]
fn starved_iteration_budget_reports_budget_exhausted() {
    // An adopter that under-budgets a hard system gets a truthful outcome:
    // not converged, reason BudgetExhausted, and the partial iterate is the
    // same one a host PCG reaches after the same number of iterations.
    let coo = gen::stencil27(3);
    let csr = Csr::from_coo(&coo);
    let b = spmv(&csr, &vec![1.0; coo.cols()]);

    let mut acc = Alrescha::with_paper_config();
    let checked = acc.program(KernelType::SymGs, &coo).expect("program");
    acc.preflight(&checked).expect("preflight");
    let solver = AcceleratedPcg::program(&mut acc, &coo).expect("program");
    let out = solver
        .solve(
            &mut acc,
            &b,
            &SolverOptions {
                tol: 1e-12,
                max_iters: 3,
            },
        )
        .expect("a starved budget is not an error");
    assert!(!out.converged);
    assert_eq!(out.reason, TerminationReason::BudgetExhausted);
    assert_eq!(out.iterations, 3);
    assert!(out.residual.is_finite());

    let host = pcg_host(
        &csr,
        &b,
        &PcgOptions {
            tol: 1e-12,
            max_iters: 3,
            ..Default::default()
        },
    )
    .expect("host pcg");
    assert!(approx_eq(&out.x, &host.x, 1e-9));
}

#[test]
fn dataset_scaling_is_monotone_in_device_time() {
    // Bigger instances of the same class must take longer on the device.
    let mut prev_seconds = 0.0;
    for side in [4usize, 6, 8] {
        let coo = gen::stencil27(side);
        let mut acc = Alrescha::with_paper_config();
        let prog = acc.program(KernelType::SpMv, &coo).expect("program");
        acc.preflight(&prog).expect("spmv preflight");
        let x = vec![1.0; coo.cols()];
        let (_, report) = acc.spmv(&prog, &x).expect("run");
        assert!(
            report.seconds > prev_seconds,
            "side {side}: {} !> {prev_seconds}",
            report.seconds
        );
        prev_seconds = report.seconds;
        assert!(coo.nnz() > 0);
    }
}
