//! Fixture: one non-generic function lost its `#[inline]`.

/// Non-generic, and the attribute is lost.
#[must_use]
pub fn zigzag(value: i64) -> u64 {
    ((value << 1) ^ (value >> 63)) as u64
}

/// A lifetime alone does not make a function generic.
#[inline]
pub fn first<'a>(bytes: &'a [u8]) -> Option<&'a u8> {
    bytes.first()
}

/// Generic: instantiated in the caller's crate, no attribute needed.
pub fn apply<T>(value: T, f: impl Fn(T) -> u64) -> u64 {
    f(value)
}

/// A function pointer type is not a function item.
#[inline]
pub fn call(f: fn(u8) -> u8) -> u8 {
    f(1)
}

pub struct Wrapper<T>(pub T);

impl<T> Wrapper<T> {
    /// Generic through its impl.
    pub fn get(&self) -> &T {
        &self.0
    }
}

#[cfg(test)]
mod tests {
    fn helper() -> u8 {
        7
    }

    #[test]
    fn helper_is_seven() {
        assert_eq!(helper(), 7);
    }
}
