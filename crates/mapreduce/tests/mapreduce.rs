//! Tests of the MapReduce layer: couplets, combiners, empty reductions,
//! iterated convergence, and the two-syncs-per-iteration cost shape.

use std::sync::Arc;

use ripple_mapreduce::{run_map_reduce, IteratedMapReduce, MapReduce};
use ripple_store_mem::MemStore;

fn store() -> MemStore {
    MemStore::builder().default_parts(4).build()
}

struct WordCount;

impl MapReduce for WordCount {
    type InKey = u32;
    type InValue = String;
    type MidKey = String;
    type MidValue = u64;
    type OutValue = u64;

    fn map(&self, _doc: &u32, text: &String, emit: &mut dyn FnMut(String, u64)) {
        for word in text.split_whitespace() {
            emit(word.to_owned(), 1);
        }
    }

    fn reduce(&self, _word: &String, counts: Vec<u64>) -> Option<u64> {
        Some(counts.into_iter().sum())
    }

    fn combine(&self, _word: &String, into: &mut u64, n: u64) -> Option<u64> {
        *into += n;
        None
    }
}

#[test]
fn word_count_end_to_end() {
    let input = vec![
        (1u32, "the quick brown fox".to_owned()),
        (2, "the lazy dog".to_owned()),
        (3, "the quick dog".to_owned()),
    ];
    let mut out = run_map_reduce(&store(), Arc::new(WordCount), input).unwrap();
    out.sort();
    assert_eq!(
        out,
        vec![
            ("brown".to_owned(), 1),
            ("dog".to_owned(), 2),
            ("fox".to_owned(), 1),
            ("lazy".to_owned(), 1),
            ("quick".to_owned(), 2),
            ("the".to_owned(), 3),
        ]
    );
}

#[test]
fn empty_input_gives_empty_output() {
    let out = run_map_reduce(&store(), Arc::new(WordCount), Vec::new()).unwrap();
    assert!(out.is_empty());
}

struct FilterEvens;

impl MapReduce for FilterEvens {
    type InKey = u32;
    type InValue = u32;
    type MidKey = u32;
    type MidValue = u32;
    type OutValue = u32;

    fn map(&self, _k: &u32, v: &u32, emit: &mut dyn FnMut(u32, u32)) {
        emit(v % 10, *v);
    }

    fn reduce(&self, bucket: &u32, values: Vec<u32>) -> Option<u32> {
        // Only even buckets produce output: reductions may emit nothing.
        (bucket.is_multiple_of(2)).then(|| values.into_iter().sum())
    }
}

#[test]
fn reduce_may_emit_nothing() {
    let input: Vec<(u32, u32)> = (0..20).map(|i| (i, i)).collect();
    let mut out = run_map_reduce(&store(), Arc::new(FilterEvens), input).unwrap();
    out.sort();
    let buckets: Vec<u32> = out.iter().map(|(b, _)| *b).collect();
    assert_eq!(buckets, vec![0, 2, 4, 6, 8]);
    // Bucket b sums b and b+10.
    for (b, sum) in out {
        assert_eq!(sum, b + (b + 10));
    }
}

/// An iterative computation: repeatedly halve values until all are <= 1.
struct HalveAll;

impl MapReduce for HalveAll {
    type InKey = u32;
    type InValue = u64;
    type MidKey = u32;
    type MidValue = u64;
    type OutValue = u64;

    fn map(&self, k: &u32, v: &u64, emit: &mut dyn FnMut(u32, u64)) {
        emit(*k, v / 2);
    }

    fn reduce(&self, _k: &u32, values: Vec<u64>) -> Option<u64> {
        values.into_iter().next()
    }
}

#[test]
fn iterated_map_reduce_converges_with_two_syncs_per_iteration() {
    let input: Vec<(u32, u64)> = (0..8u32).map(|k| (k, 1 << k)).collect();
    let driver = IteratedMapReduce::new(Arc::new(HalveAll), 64);
    let (out, report) = driver
        .run(
            &store(),
            input,
            |k, v| (*k, *v),
            |_iter, out| out.iter().all(|(_, v)| *v <= 1),
        )
        .unwrap();
    // 1 << 7 needs 7 halvings to reach 1.
    assert_eq!(report.iterations, 7);
    assert_eq!(report.steps, 14, "two BSP steps per iteration");
    assert_eq!(report.barriers, 14, "two synchronizations per iteration");
    let max = out.iter().map(|(_, v)| *v).max().unwrap();
    assert_eq!(max, 1);
}

#[test]
fn iteration_cap_stops_divergent_jobs() {
    let input: Vec<(u32, u64)> = vec![(0, u64::MAX)];
    let driver = IteratedMapReduce::new(Arc::new(HalveAll), 3);
    let (_, report) = driver
        .run(&store(), input, |k, v| (*k, *v), |_, _| false)
        .unwrap();
    assert_eq!(report.iterations, 3);
}

/// The combiner must not change results, only reduce shuffle volume.
#[test]
fn combiner_is_semantically_transparent() {
    struct NoCombine;
    impl MapReduce for NoCombine {
        type InKey = u32;
        type InValue = String;
        type MidKey = String;
        type MidValue = u64;
        type OutValue = u64;
        fn map(&self, k: &u32, text: &String, emit: &mut dyn FnMut(String, u64)) {
            WordCount.map(k, text, emit);
        }
        fn reduce(&self, w: &String, counts: Vec<u64>) -> Option<u64> {
            WordCount.reduce(w, counts)
        }
    }
    let input = vec![
        (1u32, "x y x y x".to_owned()),
        (2, "y z z".to_owned()),
        (3, "x x x".to_owned()),
    ];
    let mut with = run_map_reduce(&store(), Arc::new(WordCount), input.clone()).unwrap();
    let mut without = run_map_reduce(&store(), Arc::new(NoCombine), input).unwrap();
    with.sort();
    without.sort();
    assert_eq!(with, without);
}
