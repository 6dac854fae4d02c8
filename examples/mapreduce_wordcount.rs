//! MapReduce layered on K/V EBSP (Figure 2): classic word count plus an
//! iterated k-means-flavored refinement, showing the couplet costs the
//! direct EBSP formulations avoid.
//!
//! Run: `cargo run --example mapreduce_wordcount`

use std::sync::Arc;

use ripple::mapreduce::{run_map_reduce, IteratedMapReduce, MapReduce};
use ripple::prelude::*;

struct WordCount;

impl MapReduce for WordCount {
    type InKey = u32;
    type InValue = String;
    type MidKey = String;
    type MidValue = u64;
    type OutValue = u64;

    fn map(&self, _doc: &u32, text: &String, emit: &mut dyn FnMut(String, u64)) {
        for word in text.split_whitespace() {
            emit(word.to_lowercase(), 1);
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

/// An iterative couplet: each round moves every value halfway toward the
/// mean of its bucket — a toy smoothing analytic that needs iteration.
struct Smooth;

impl MapReduce for Smooth {
    type InKey = u32;
    type InValue = f64;
    type MidKey = u32;
    type MidValue = f64;
    type OutValue = f64;

    fn map(&self, k: &u32, v: &f64, emit: &mut dyn FnMut(u32, f64)) {
        // Bucket neighbors exchange values.
        emit(*k, *v);
        emit(k ^ 1, *v);
    }

    fn reduce(&self, _k: &u32, values: Vec<f64>) -> Option<f64> {
        let mean = values.iter().sum::<f64>() / values.len() as f64;
        Some(mean)
    }
}

fn main() -> Result<(), EbspError> {
    let store = MemStore::builder().default_parts(4).build();

    // --- One couplet: word count -----------------------------------------
    let docs = vec![
        (
            1u32,
            "the quick brown fox jumps over the lazy dog".to_owned(),
        ),
        (2, "The dog barks and the fox runs".to_owned()),
        (3, "quick quick slow".to_owned()),
    ];
    let mut counts = run_map_reduce(&store, Arc::new(WordCount), docs)?;
    counts.sort_by(|a, b| b.1.cmp(&a.1).then(a.0.cmp(&b.0)));
    println!("word counts:");
    for (word, n) in counts.iter().take(6) {
        println!("  {word:>8}: {n}");
    }
    assert_eq!(
        counts.first().map(|(w, n)| (w.as_str(), *n)),
        Some(("the", 4))
    );

    // --- Iterated couplets -------------------------------------------------
    let input: Vec<(u32, f64)> = (0..8u32).map(|k| (k, f64::from(k))).collect();
    let driver = IteratedMapReduce::new(Arc::new(Smooth), 32);
    let (out, report) = driver.run(
        &store,
        input,
        |k, v| (*k, *v),
        |_iter, out| {
            // Converged when paired buckets agree.
            out.chunks(2)
                .all(|pair| pair.len() < 2 || (pair[0].1 - pair[1].1).abs() < 1e-9)
        },
    )?;
    println!(
        "\nsmoothing converged after {} iterations — {} steps, {} barriers \
         (two of each per iteration: the cost iterated MapReduce pays)",
        report.iterations, report.steps, report.barriers
    );
    assert_eq!(report.barriers, 2 * report.iterations);
    for (k, v) in out {
        println!("  bucket {k}: {v:.4}");
    }
    Ok(())
}
