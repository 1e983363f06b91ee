//! Property tests for the fault-injection subsystem: the plan's seed fully
//! determines the fault stream (identical runs produce identical reports),
//! and disabled or inert plans leave the engine bit-identical to its
//! un-instrumented behaviour.

use proptest::prelude::*;

use alrescha_sim::{Engine, FaultPlan, RecoveryPolicy, SimConfig};
use alrescha_sparse::alf::AlfLayout;
use alrescha_sparse::{Alf, Coo};

/// Small diagonally dominant matrices (SymGS-safe, well conditioned).
fn arb_dd_matrix() -> impl Strategy<Value = Coo> {
    (2usize..24).prop_flat_map(|n| {
        let entry = (0..n, 0..n, 1i32..50);
        proptest::collection::vec(entry, 0..60).prop_map(move |entries| {
            let mut coo = Coo::new(n, n);
            let mut row_sum = vec![0.0; n];
            for (r, c, v) in entries {
                if r != c {
                    let v = -f64::from(v) / 60.0;
                    coo.push(r, c, v);
                    row_sum[r] += v.abs();
                }
            }
            for (i, s) in row_sum.iter().enumerate() {
                coo.push(i, i, s + 1.0);
            }
            coo.compress()
        })
    })
}

fn arb_transient_plan() -> impl Strategy<Value = FaultPlan> {
    (0u64..u64::MAX, 0.0f64..0.2, 0.0f64..0.2, 0.0f64..0.2).prop_map(|(seed, lane, tree, cache)| {
        FaultPlan::inert(seed)
            .with_fcu_lane_rate(lane)
            .with_fcu_tree_rate(tree)
            .with_cache_fault_rate(cache)
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(40))]

    /// The same plan on the same input is exactly reproducible: results,
    /// timing, and every fault counter agree between two fresh engines.
    #[test]
    fn same_seed_gives_identical_reports(
        coo in arb_dd_matrix(),
        plan in arb_transient_plan(),
    ) {
        let a = Alf::from_coo(&coo, 8, AlfLayout::Streaming).expect("formats");
        let x: Vec<f64> = (0..coo.cols()).map(|i| (i as f64 * 0.3).cos()).collect();
        let policy = RecoveryPolicy::Retry { max_retries: 4, backoff_cycles: 8 };

        let mut runs = Vec::new();
        for _ in 0..2 {
            let mut engine = Engine::new(SimConfig::paper());
            engine.set_fault_plan(Some(plan.clone()));
            engine.set_recovery_policy(policy);
            runs.push(engine.run_spmv(&a, &x));
        }
        let second = runs.pop().expect("two runs");
        let first = runs.pop().expect("two runs");
        match (first, second) {
            (Ok((y1, rep1)), Ok((y2, rep2))) => {
                prop_assert_eq!(y1, y2);
                prop_assert_eq!(rep1, rep2);
            }
            (Err(e1), Err(e2)) => prop_assert_eq!(e1.to_string(), e2.to_string()),
            (a, b) => prop_assert!(false, "runs disagree: {a:?} vs {b:?}"),
        }
    }

    /// A plan with every rate at zero exercises the checksum machinery but
    /// must leave results and timing bit-identical to no plan at all.
    #[test]
    fn inert_plan_is_bit_identical_to_uninstrumented(
        coo in arb_dd_matrix(),
        seed in 0u64..u64::MAX,
    ) {
        let a = Alf::from_coo(&coo, 8, AlfLayout::Streaming).expect("formats");
        let x: Vec<f64> = (0..coo.cols()).map(|i| (i as f64 * 0.7).sin()).collect();

        let mut plain = Engine::new(SimConfig::paper());
        let (y_plain, rep_plain) = plain.run_spmv(&a, &x).expect("runs");

        let mut armed = Engine::new(SimConfig::paper());
        armed.set_fault_plan(Some(FaultPlan::inert(seed)));
        let (y_armed, rep_armed) = armed.run_spmv(&a, &x).expect("runs");

        prop_assert_eq!(y_plain, y_armed);
        prop_assert_eq!(rep_plain, rep_armed);
    }

    /// Same for SymGS, whose link-stack and FIFO fill paths are also hooked.
    #[test]
    fn inert_plan_symgs_is_bit_identical(
        coo in arb_dd_matrix(),
        seed in 0u64..u64::MAX,
    ) {
        let a = Alf::from_coo(&coo, 8, AlfLayout::SymGs).expect("formats");
        let b = vec![1.0; coo.rows()];

        let mut plain = Engine::new(SimConfig::paper());
        let mut x_plain = vec![0.0; coo.cols()];
        let rep_plain = plain.run_symgs(&a, &b, &mut x_plain).expect("runs");

        let mut armed = Engine::new(SimConfig::paper());
        armed.set_fault_plan(Some(FaultPlan::inert(seed)));
        let mut x_armed = vec![0.0; coo.cols()];
        let rep_armed = armed.run_symgs(&a, &b, &mut x_armed).expect("runs");

        prop_assert_eq!(x_plain, x_armed);
        prop_assert_eq!(rep_plain, rep_armed);
    }

    /// Fault accounting is consistent on every surviving run, and a run in
    /// which nothing fired is bit-identical to the fault-free result. (A
    /// run with injections may legally differ: the single column-sum check
    /// per block cannot catch compensating multi-bit escapes, which is why
    /// the coverage target is ≥95%, not 100%.)
    #[test]
    fn recovered_runs_keep_counters_consistent(
        coo in arb_dd_matrix(),
        plan in arb_transient_plan(),
    ) {
        let a = Alf::from_coo(&coo, 8, AlfLayout::Streaming).expect("formats");
        let x: Vec<f64> = (0..coo.cols()).map(|i| 1.0 + (i % 3) as f64).collect();

        let mut plain = Engine::new(SimConfig::paper());
        let (y_ref, _) = plain.run_spmv(&a, &x).expect("runs");

        let mut armed = Engine::new(SimConfig::paper());
        armed.set_fault_plan(Some(plan));
        armed.set_recovery_policy(RecoveryPolicy::Retry { max_retries: 6, backoff_cycles: 4 });
        if let Ok((y, report)) = armed.run_spmv(&a, &x) {
            prop_assert!(report.faults.detected <= report.faults.injected);
            // On a surviving run everything the checksums caught was
            // recovered by a successful retry.
            prop_assert_eq!(report.faults.recovered, report.faults.detected);
            if report.faults.injected == 0 {
                prop_assert_eq!(y, y_ref);
            }
        }
    }
}
