//! MapReduce — and *iterated* MapReduce — layered over K/V EBSP.
//!
//! Figure 2 of the Ripple paper shows MapReduce as one of the programming
//! models that "may be easily provided above K/V EBSP".  This crate is that
//! layer: a [`MapReduce`] couplet runs as a two-step EBSP job —
//!
//! - **step 1 (map)**: one component per input key reads its input value
//!   from the input state table and emits intermediate (key, value) pairs
//!   as BSP messages — the message flow across the barrier *is* the
//!   shuffle;
//! - **step 2 (reduce)**: one component per intermediate key receives the
//!   collected value list and writes its reduction into the output state
//!   table.
//!
//! [`IteratedMapReduce`] chains couplets, feeding each iteration's output
//! table back in as the next iteration's input — incurring exactly the
//! costs the paper attributes to iterating MapReduce: **two
//! synchronizations per iteration** and a full round-trip of the dataset
//! through the key/value store between reduce and the following map.  The
//! evaluation's "MapReduce variant" baselines are built this way; the
//! "direct" K/V EBSP variants fuse reduce with the following map and skip
//! both costs.
//!
//! # Examples
//!
//! Word count:
//!
//! ```
//! use std::sync::Arc;
//! use ripple_mapreduce::{run_map_reduce, MapReduce};
//! use ripple_store_mem::MemStore;
//!
//! struct WordCount;
//!
//! impl MapReduce for WordCount {
//!     type InKey = u32;          // document id
//!     type InValue = String;     // document text
//!     type MidKey = String;      // word
//!     type MidValue = u64;       // occurrences
//!     type OutValue = u64;       // total occurrences
//!
//!     fn map(&self, _doc: &u32, text: &String, emit: &mut dyn FnMut(String, u64)) {
//!         for word in text.split_whitespace() {
//!             emit(word.to_owned(), 1);
//!         }
//!     }
//!
//!     fn reduce(&self, _word: &String, counts: Vec<u64>) -> Option<u64> {
//!         Some(counts.into_iter().sum())
//!     }
//!
//!     fn combine(&self, _word: &String, into: &mut u64, n: u64) -> Option<u64> {
//!         *into += n;
//!         None
//!     }
//! }
//!
//! # fn main() -> Result<(), ripple_core::EbspError> {
//! let store = MemStore::builder().default_parts(4).build();
//! let input = vec![(1u32, "a b a".to_owned()), (2, "b c".to_owned())];
//! let mut counts = run_map_reduce(&store, Arc::new(WordCount), input)?;
//! counts.sort();
//! assert_eq!(
//!     counts,
//!     vec![
//!         ("a".to_owned(), 2),
//!         ("b".to_owned(), 2),
//!         ("c".to_owned(), 1)
//!     ]
//! );
//! # Ok(())
//! # }
//! ```

mod closure;
mod iterate;
mod job;
mod key;

pub use closure::ClosureMapReduce;
pub use iterate::{IteratedMapReduce, IterationReport};
pub use job::{run_map_reduce, MapReduceJob, MrOutput};
pub use key::{MrKey, MrState};

use std::hash::Hash;

use ripple_wire::Wire;

/// One map-reduce couplet: the client supplies `map`, `reduce`, and
/// optionally a combiner, exactly as in classic MapReduce.
pub trait MapReduce: Send + Sync + 'static {
    /// Input key type.
    type InKey: Wire + Eq + Hash + Ord;
    /// Input value type.
    type InValue: Wire;
    /// Intermediate (shuffle) key type; also keys the output.
    type MidKey: Wire + Eq + Hash + Ord;
    /// Intermediate value type.
    type MidValue: Wire;
    /// Output value type.
    type OutValue: Wire;

    /// Maps one input pair to intermediate pairs via `emit`.
    fn map(
        &self,
        key: &Self::InKey,
        value: &Self::InValue,
        emit: &mut dyn FnMut(Self::MidKey, Self::MidValue),
    );

    /// Reduces all intermediate values of one key; `None` emits nothing.
    fn reduce(&self, key: &Self::MidKey, values: Vec<Self::MidValue>) -> Option<Self::OutValue>;

    /// Optional pairwise combiner applied during the shuffle: fold `value`
    /// into `into` and return `None`, or hand it back as `Some(value)` to
    /// keep both — the default, which combines nothing.
    fn combine(
        &self,
        key: &Self::MidKey,
        into: &mut Self::MidValue,
        value: Self::MidValue,
    ) -> Option<Self::MidValue> {
        let _ = (key, into);
        Some(value)
    }
}
