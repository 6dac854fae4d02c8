//! Named value combiners: server-side folding that can cross a wire.
//!
//! The paper's SPI puts message combiners at the heart of the BSP model
//! ("the platform may combine some of them by one or more invocations, at
//! arbitrary times and places").  A [`CombinerSpec`] extends that license
//! to the *store*: a table bound to a combiner
//! ([`KvStore::bind_combiner`](crate::KvStore::bind_combiner)) folds each
//! incoming batch record into the resident value — under the part lock, on
//! the owning server — instead of overwriting it, so duplicate-key traffic
//! shrinks before it ever hits table storage.
//!
//! Like named part-tasks ([`TaskRegistry`](crate::TaskRegistry)), the
//! combiner itself is mobile only by *name*: both sides of a wire register
//! the same fold function under the same stable string, and only the name
//! travels.  A [`CombinerRegistry`] is the per-store name → fold map;
//! clones share registrations.

use std::collections::HashMap;
use std::sync::{Arc, RwLock};

use bytes::Bytes;

use crate::KvError;

/// A fold function over encoded values: `(resident, incoming) → folded`.
///
/// Both arguments and the result are wire bytes, because the fold must be
/// applicable on a server that knows nothing about the value's Rust type.
/// Implementations must be deterministic, and associative + commutative in
/// the value they encode — the store may apply them in any grouping (the
/// `ripple-audit` crate's shuffled-delivery probes exist to catch
/// combiners that lie about this).
pub type CombineFn = Arc<dyn Fn(&[u8], &[u8]) -> Result<Bytes, KvError> + Send + Sync>;

/// The serializable identity of a registered combiner: a stable name both
/// sides of a wire agree on.
///
/// # Examples
///
/// ```
/// use ripple_kv::CombinerSpec;
///
/// let spec = CombinerSpec::new("pagerank.sum");
/// assert_eq!(spec.name(), "pagerank.sum");
/// ```
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct CombinerSpec {
    name: String,
}

impl CombinerSpec {
    /// A spec naming the combiner registered as `name`.
    #[must_use]
    pub fn new(name: impl Into<String>) -> Self {
        Self { name: name.into() }
    }

    /// The registered name this spec refers to.
    #[must_use]
    pub fn name(&self) -> &str {
        &self.name
    }
}

/// The built-in combiner name for concatenating wire-encoded vectors.
///
/// Folding `Vec<T>` values by concatenation is type-oblivious: the wire
/// form is a varint element count followed by the elements, so the fold
/// rewrites the count and splices the element bytes.  Every
/// [`CombinerRegistry`] registers it by default, so a table of message
/// lists can be bound to it without per-job setup.
pub const VEC_CONCAT: &str = "ripple.vec-concat";

/// A registry of named combiners, shared by all handles to one store.
///
/// Cloning is cheap and clones observe each other's registrations — the
/// registry is the store-wide name → fold map, not a per-handle one.  The
/// [`VEC_CONCAT`] builtin is pre-registered.
#[derive(Clone)]
pub struct CombinerRegistry {
    combiners: Arc<RwLock<HashMap<String, CombineFn>>>,
}

impl Default for CombinerRegistry {
    fn default() -> Self {
        let reg = Self {
            combiners: Arc::new(RwLock::new(HashMap::new())),
        };
        reg.register(VEC_CONCAT, vec_concat);
        reg
    }
}

impl CombinerRegistry {
    /// A registry holding only the builtins.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Registers (or replaces) the combiner called `name`.
    ///
    /// # Panics
    ///
    /// Panics if the registry lock is poisoned (a registrant panicked).
    pub fn register<F>(&self, name: &str, combine: F)
    where
        F: Fn(&[u8], &[u8]) -> Result<Bytes, KvError> + Send + Sync + 'static,
    {
        self.combiners
            .write()
            .expect("combiner registry lock poisoned")
            .insert(name.to_owned(), Arc::new(combine));
    }

    /// Looks up the combiner called `name`.
    ///
    /// # Panics
    ///
    /// Panics if the registry lock is poisoned (a registrant panicked).
    #[must_use]
    pub fn get(&self, name: &str) -> Option<CombineFn> {
        self.combiners
            .read()
            .expect("combiner registry lock poisoned")
            .get(name)
            .cloned()
    }

    /// Looks up `name`, erroring with [`KvError::NoSuchCombiner`] when it
    /// is not registered.
    ///
    /// # Errors
    ///
    /// Fails with [`KvError::NoSuchCombiner`].
    pub fn resolve(&self, name: &str) -> Result<CombineFn, KvError> {
        self.get(name).ok_or_else(|| KvError::NoSuchCombiner {
            name: name.to_owned(),
        })
    }

    /// Copies every registration from `other` into this registry
    /// (replacing same-named entries).  Lets a test harness or server
    /// bootstrap mirror one process's combiners into another store's
    /// registry, the way the wire contract requires.
    ///
    /// # Panics
    ///
    /// Panics if either registry lock is poisoned (a registrant panicked).
    pub fn merge_from(&self, other: &CombinerRegistry) {
        let theirs = other
            .combiners
            .read()
            .expect("combiner registry lock poisoned")
            .clone();
        self.combiners
            .write()
            .expect("combiner registry lock poisoned")
            .extend(theirs);
    }

    /// Names of all registered combiners, sorted.
    ///
    /// # Panics
    ///
    /// Panics if the registry lock is poisoned (a registrant panicked).
    #[must_use]
    pub fn names(&self) -> Vec<String> {
        let mut names: Vec<String> = self
            .combiners
            .read()
            .expect("combiner registry lock poisoned")
            .keys()
            .cloned()
            .collect();
        names.sort();
        names
    }
}

impl std::fmt::Debug for CombinerRegistry {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("CombinerRegistry")
            .field("names", &self.names())
            .finish()
    }
}

/// The [`VEC_CONCAT`] fold: concatenates two wire-encoded vectors by
/// rewriting the element-count varint and splicing the element bytes.
fn vec_concat(resident: &[u8], incoming: &[u8]) -> Result<Bytes, KvError> {
    let split = |bytes: &[u8]| -> Result<(u64, usize), KvError> {
        ripple_wire::from_wire_prefix::<u64>(bytes).map_err(|e| KvError::Backend {
            detail: format!("vec-concat fold on a non-vector value: {e}"),
        })
    };
    let (a_count, a_used) = split(resident)?;
    let (b_count, b_used) = split(incoming)?;
    let total = a_count.checked_add(b_count).ok_or(KvError::Backend {
        detail: "vec-concat element count overflow".to_owned(),
    })?;
    let mut w = ripple_wire::ByteWriter::with_capacity(10 + resident.len() + incoming.len());
    ripple_wire::Encode::encode(&total, &mut w);
    w.extend(&resident[a_used..]);
    w.extend(&incoming[b_used..]);
    Ok(w.into_bytes())
}

#[cfg(test)]
mod tests {
    use super::*;
    use ripple_wire::{from_wire, to_wire};

    #[test]
    fn register_lookup_and_names() {
        let reg = CombinerRegistry::new();
        assert!(reg.get(VEC_CONCAT).is_some(), "builtin missing");
        assert!(reg.get("sum").is_none());
        reg.register("sum", |a, _b| Ok(Bytes::copy_from_slice(a)));
        assert!(reg.get("sum").is_some());
        assert_eq!(reg.names(), vec![VEC_CONCAT.to_owned(), "sum".to_owned()]);
    }

    #[test]
    fn clones_share_registrations() {
        let reg = CombinerRegistry::new();
        let other = reg.clone();
        reg.register("late", |a, _b| Ok(Bytes::copy_from_slice(a)));
        assert!(other.get("late").is_some());
    }

    #[test]
    fn resolve_reports_missing_name() {
        let reg = CombinerRegistry::new();
        assert!(matches!(
            reg.resolve("absent"),
            Err(KvError::NoSuchCombiner { name }) if name == "absent"
        ));
    }

    #[test]
    fn vec_concat_splices_typed_vectors() {
        let fold = CombinerRegistry::new().resolve(VEC_CONCAT).unwrap();
        let a = to_wire(&vec![1u32, 2]);
        let b = to_wire(&vec![300u32]);
        let folded = fold(&a, &b).unwrap();
        let back: Vec<u32> = from_wire(&folded).unwrap();
        assert_eq!(back, vec![1, 2, 300]);
        // Strings too — the fold never looks at element types.
        let a = to_wire(&vec!["x".to_owned()]);
        let b = to_wire(&vec!["y".to_owned(), "z".to_owned()]);
        let folded = fold(&a, &b).unwrap();
        let back: Vec<String> = from_wire(&folded).unwrap();
        assert_eq!(back, vec!["x", "y", "z"]);
    }

    #[test]
    fn vec_concat_rejects_garbage() {
        let fold = CombinerRegistry::new().resolve(VEC_CONCAT).unwrap();
        assert!(fold(&[], &to_wire(&vec![1u32])).is_err());
    }
}
