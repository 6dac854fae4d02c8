//! Ad-hoc couplets from plain closures, for one-off analyses where a named
//! type is ceremony.

use std::hash::Hash;

use ripple_wire::Wire;

use crate::MapReduce;

/// A [`MapReduce`] built from a map closure and a reduce closure.
///
/// # Examples
///
/// ```
/// use std::sync::Arc;
/// use ripple_mapreduce::{run_map_reduce, ClosureMapReduce};
/// use ripple_store_mem::MemStore;
///
/// # fn main() -> Result<(), ripple_core::EbspError> {
/// let mr = ClosureMapReduce::new(
///     |key: &u32, value: &u32, emit: &mut dyn FnMut(u32, u64)| {
///         emit(key % 2, u64::from(*value));
///     },
///     |_parity: &u32, values: Vec<u64>| Some(values.into_iter().sum::<u64>()),
/// );
/// let store = MemStore::builder().default_parts(2).build();
/// let input: Vec<(u32, u32)> = (1..=6).map(|i| (i, i * 10)).collect();
/// let mut sums = run_map_reduce(&store, Arc::new(mr), input)?;
/// sums.sort();
/// assert_eq!(sums, vec![(0, 120), (1, 90)]); // evens: 20+40+60, odds: 10+30+50
/// # Ok(())
/// # }
/// ```
pub struct ClosureMapReduce<IK, IV, MK, MV, OV, M, R> {
    map: M,
    reduce: R,
    #[allow(
        clippy::type_complexity,
        reason = "the marker only names the five type parameters"
    )]
    _marker: std::marker::PhantomData<fn() -> (IK, IV, MK, MV, OV)>,
}

impl<IK, IV, MK, MV, OV, M, R> ClosureMapReduce<IK, IV, MK, MV, OV, M, R>
where
    M: Fn(&IK, &IV, &mut dyn FnMut(MK, MV)) + Send + Sync + 'static,
    R: Fn(&MK, Vec<MV>) -> Option<OV> + Send + Sync + 'static,
{
    /// Wraps `map` and `reduce`.
    pub fn new(map: M, reduce: R) -> Self {
        Self {
            map,
            reduce,
            _marker: std::marker::PhantomData,
        }
    }
}

impl<IK, IV, MK, MV, OV, M, R> MapReduce for ClosureMapReduce<IK, IV, MK, MV, OV, M, R>
where
    IK: Wire + Eq + Hash + Ord,
    IV: Wire,
    MK: Wire + Eq + Hash + Ord,
    MV: Wire,
    OV: Wire,
    M: Fn(&IK, &IV, &mut dyn FnMut(MK, MV)) + Send + Sync + 'static,
    R: Fn(&MK, Vec<MV>) -> Option<OV> + Send + Sync + 'static,
{
    type InKey = IK;
    type InValue = IV;
    type MidKey = MK;
    type MidValue = MV;
    type OutValue = OV;

    fn map(&self, key: &IK, value: &IV, emit: &mut dyn FnMut(MK, MV)) {
        (self.map)(key, value, emit);
    }

    fn reduce(&self, key: &MK, values: Vec<MV>) -> Option<OV> {
        (self.reduce)(key, values)
    }
}
