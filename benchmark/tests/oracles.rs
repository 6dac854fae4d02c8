//! Each oracle must reject a corrupted result, or `ops_failed` could never
//! fire and a broken program would benchmark as a fast one.

use ripple_benchmark::workloads::{distances_match, product_matches, ranks_match};
use ripple_graph::generate::{power_law_graph, random_undirected};
use ripple_graph::pagerank::{reference_ranks, PageRankConfig};
use ripple_graph::sssp::bfs_oracle;
use ripple_summa::DenseMatrix;

#[test]
fn rank_oracle_rejects_corruption() {
    let graph = power_law_graph(50, 400, 0.8, 1);
    let reference = reference_ranks(&graph, PageRankConfig::default());
    let good: Vec<(u32, f64)> = reference
        .iter()
        .copied()
        .zip(0..)
        .map(|(r, v)| (v, r))
        .collect();
    ranks_match(&good, &reference).expect("the reference matches itself");

    // Inside the tolerance: floating-point fold order may differ.
    let mut close = good.clone();
    close[7].1 += 1e-12;
    ranks_match(&close, &reference).expect("1e-12 is within 1e-9");

    let mut off = good.clone();
    off[7].1 += 1e-6;
    assert!(ranks_match(&off, &reference).is_err(), "a rank off by 1e-6");

    let mut nan = good.clone();
    nan[3].1 = f64::NAN;
    assert!(ranks_match(&nan, &reference).is_err(), "a NaN rank");

    let mut missing = good.clone();
    missing.remove(10);
    assert!(
        ranks_match(&missing, &reference).is_err(),
        "a missing vertex"
    );

    let mut swapped = good;
    swapped.swap(1, 2);
    assert!(
        ranks_match(&swapped, &reference).is_err(),
        "vertices out of order"
    );
}

#[test]
fn distance_oracle_rejects_corruption() {
    let graph = random_undirected(60, 300, 0.8, 2);
    let oracle = bfs_oracle(&graph, 0);
    let good: Vec<(u32, u32)> = oracle
        .iter()
        .copied()
        .zip(0..)
        .map(|(d, v)| (v, d))
        .collect();
    distances_match(&good, &oracle).expect("the oracle matches itself");

    let mut off = good.clone();
    off[5].1 += 1;
    assert!(
        distances_match(&off, &oracle).is_err(),
        "a distance off by one"
    );

    let mut short = good;
    short.pop();
    assert!(
        distances_match(&short, &oracle).is_err(),
        "a missing vertex"
    );
}

#[test]
fn product_oracle_rejects_corruption() {
    let a = DenseMatrix::random(6, 6, 3);
    let b = DenseMatrix::random(6, 6, 4);
    let reference = a.multiply(&b);
    product_matches(&reference, &reference).expect("the kernel matches itself");

    let mut off = reference.clone();
    off.set(2, 3, off.get(2, 3) + 1e-4);
    assert!(
        product_matches(&off, &reference).is_err(),
        "an element off by 1e-4"
    );

    let wrong_shape = DenseMatrix::zeros(6, 3);
    assert!(
        product_matches(&wrong_shape, &reference).is_err(),
        "a wrong shape"
    );
}
