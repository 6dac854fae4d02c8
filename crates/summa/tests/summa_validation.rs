//! SUMMA validation: correctness against the sequential kernel in both
//! modes, the Table II schedule trace, and the sync-vs-nosync cost shape.

use ripple_core::ExecMode;
use ripple_kv::KvStore;
use ripple_store_mem::{FaultPlan, MemStore};
use ripple_summa::{multiply, DenseMatrix, SummaOptions};

fn store() -> MemStore {
    MemStore::builder().default_parts(3).build()
}

fn opts(grid: u32, mode: ExecMode) -> SummaOptions {
    SummaOptions {
        grid,
        mode,
        ..SummaOptions::default()
    }
}

#[test]
fn synchronized_multiply_is_correct() {
    let a = DenseMatrix::random(12, 12, 1);
    let b = DenseMatrix::random(12, 12, 2);
    let (c, report) = multiply(&store(), &a, &b, &opts(3, ExecMode::Synchronized)).unwrap();
    assert!(c.approx_eq(&a.multiply(&b), 1e-9));
    assert!(report.outcome.metrics.barriers > 0);
}

#[test]
fn unsynchronized_multiply_is_correct() {
    let a = DenseMatrix::random(12, 12, 3);
    let b = DenseMatrix::random(12, 12, 4);
    let (c, report) = multiply(&store(), &a, &b, &opts(3, ExecMode::Unsynchronized)).unwrap();
    assert!(c.approx_eq(&a.multiply(&b), 1e-9));
    assert_eq!(report.outcome.metrics.barriers, 0);
}

#[test]
fn rectangular_matrices_multiply_correctly() {
    // (12x6) x (6x9) on a 3x3 grid.
    let a = DenseMatrix::random(12, 6, 5);
    let b = DenseMatrix::random(6, 9, 6);
    for mode in [ExecMode::Synchronized, ExecMode::Unsynchronized] {
        let (c, _) = multiply(&store(), &a, &b, &opts(3, mode)).unwrap();
        assert!(c.approx_eq(&a.multiply(&b), 1e-9), "{mode:?}");
    }
}

#[test]
fn various_grid_sizes() {
    let a = DenseMatrix::random(8, 8, 7);
    let b = DenseMatrix::random(8, 8, 8);
    let want = a.multiply(&b);
    for grid in [1u32, 2, 4] {
        for mode in [ExecMode::Synchronized, ExecMode::Unsynchronized] {
            let (c, _) = multiply(&store(), &a, &b, &opts(grid, mode)).unwrap();
            assert!(c.approx_eq(&want, 1e-9), "grid {grid} {mode:?}");
        }
    }
}

#[test]
fn table2_schedule_trace_matches_paper() {
    // M = N = 3, equal blocks: the BSPified schedule takes 7 steps with
    // 1, 3, 6, 3, 6, 3, 5 block multiplications per step (Table II), 27 in
    // total — even though each component does only 3.
    let a = DenseMatrix::random(6, 6, 9);
    let b = DenseMatrix::random(6, 6, 10);
    let options = SummaOptions {
        grid: 3,
        mode: ExecMode::Synchronized,
        trace: true,
        ..SummaOptions::default()
    };
    let (c, report) = multiply(&store(), &a, &b, &options).unwrap();
    assert!(c.approx_eq(&a.multiply(&b), 1e-9));
    let trace = report.multiplies_per_step.expect("tracing was on");
    assert_eq!(trace, vec![1, 3, 6, 3, 6, 3, 5], "Table II");
    assert_eq!(trace.iter().sum::<u64>(), 27);
    assert_eq!(report.outcome.steps, 7);
}

#[test]
fn nosync_needs_fewer_serial_multiply_rounds() {
    // The 7/3 claim: with barriers, 7 serial multiply steps; without, a
    // component is bounded only by its own 3 multiplies and the pipeline.
    let a = DenseMatrix::random(6, 6, 11);
    let b = DenseMatrix::random(6, 6, 12);
    let (_, with_sync) = multiply(&store(), &a, &b, &opts(3, ExecMode::Synchronized)).unwrap();
    let (_, without) = multiply(&store(), &a, &b, &opts(3, ExecMode::Unsynchronized)).unwrap();
    assert_eq!(with_sync.outcome.steps, 7);
    assert_eq!(without.outcome.steps, 0);
    // Per-component invocations collapse without barriers: 9 components
    // need 7 steps * enabled components with sync, but only a handful of
    // message-driven invocations without.
    assert!(
        without.outcome.metrics.invocations < with_sync.outcome.metrics.invocations,
        "nosync {} vs sync {}",
        without.outcome.metrics.invocations,
        with_sync.outcome.metrics.invocations
    );
}

#[test]
fn dimension_mismatch_is_rejected() {
    let a = DenseMatrix::random(6, 6, 1);
    let b = DenseMatrix::random(9, 6, 2);
    assert!(multiply(&store(), &a, &b, &opts(3, ExecMode::Synchronized)).is_err());
    // Not divisible by the grid.
    let b2 = DenseMatrix::random(6, 7, 3);
    assert!(multiply(&store(), &a, &b2, &opts(3, ExecMode::Synchronized)).is_err());
}

#[test]
fn identity_multiplication() {
    let n = 9;
    let mut eye = DenseMatrix::zeros(n, n);
    for i in 0..n {
        eye.set(i, i, 1.0);
    }
    let a = DenseMatrix::random(n, n, 13);
    let (c, _) = multiply(&store(), &a, &eye, &opts(3, ExecMode::Unsynchronized)).unwrap();
    assert!(c.approx_eq(&a, 1e-12));
}

#[test]
fn failed_run_drops_its_state_table() {
    let a = DenseMatrix::random(6, 6, 14);
    let b = DenseMatrix::random(6, 6, 15);
    for mode in [ExecMode::Synchronized, ExecMode::Unsynchronized] {
        // A part that crashes on its second operation fails the run (no
        // recovery is asked for); a crash fires once per store.
        let store = MemStore::builder()
            .default_parts(3)
            .fault_plan(FaultPlan::seeded(1).crash_part(1, 2))
            .build();
        let err = multiply(&store, &a, &b, &opts(3, mode)).expect_err("a crashed part");
        let leaked: Vec<String> = store
            .table_names()
            .into_iter()
            .filter(|t| t.starts_with("__summa_"))
            .collect();
        assert!(leaked.is_empty(), "{mode:?} ({err}) left {leaked:?}");
    }
}
