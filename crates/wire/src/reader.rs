use crate::WireError;

/// A cursor over a byte slice used as the decoding source.
///
/// # Examples
///
/// ```
/// use ripple_wire::ByteReader;
///
/// # fn main() -> Result<(), ripple_wire::WireError> {
/// let mut r = ByteReader::new(&[1, 2, 3]);
/// assert_eq!(r.read_byte()?, 1);
/// assert_eq!(r.read_slice(2)?, &[2, 3]);
/// assert!(r.is_empty());
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct ByteReader<'a> {
    rest: &'a [u8],
}

impl<'a> ByteReader<'a> {
    /// Creates a reader over `bytes`.
    #[inline]
    #[must_use]
    pub fn new(bytes: &'a [u8]) -> Self {
        Self { rest: bytes }
    }

    /// Number of unread bytes.
    #[inline]
    #[must_use]
    pub fn remaining(&self) -> usize {
        self.rest.len()
    }

    /// Whether all bytes have been consumed.
    #[inline]
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.rest.is_empty()
    }

    /// The unread bytes, not consumed.
    #[inline]
    pub(crate) fn rest(&self) -> &'a [u8] {
        self.rest
    }

    /// Consumes `len` bytes the caller has inspected through
    /// [`ByteReader::rest`].
    #[inline]
    pub(crate) fn advance(&mut self, len: usize) {
        self.rest = &self.rest[len..];
    }

    /// Reads one byte.
    ///
    /// # Errors
    ///
    /// Returns [`WireError::UnexpectedEof`] when the reader is empty.
    #[inline]
    pub fn read_byte(&mut self) -> Result<u8, WireError> {
        match self.rest.split_first() {
            Some((&b, rest)) => {
                self.rest = rest;
                Ok(b)
            }
            None => Err(WireError::UnexpectedEof {
                needed: 1,
                remaining: 0,
            }),
        }
    }

    /// Reads exactly `len` bytes.
    ///
    /// # Errors
    ///
    /// Returns [`WireError::UnexpectedEof`] when fewer than `len` bytes
    /// remain.
    #[inline]
    pub fn read_slice(&mut self, len: usize) -> Result<&'a [u8], WireError> {
        if self.rest.len() < len {
            return Err(WireError::UnexpectedEof {
                needed: len,
                remaining: self.rest.len(),
            });
        }
        let (head, tail) = self.rest.split_at(len);
        self.rest = tail;
        Ok(head)
    }

    /// Reads a fixed-size array of bytes.
    ///
    /// # Errors
    ///
    /// Returns [`WireError::UnexpectedEof`] when fewer than `N` bytes remain.
    #[inline]
    pub fn read_array<const N: usize>(&mut self) -> Result<[u8; N], WireError> {
        let slice = self.read_slice(N)?;
        let mut out = [0u8; N];
        out.copy_from_slice(slice);
        Ok(out)
    }

    /// Validates that a declared collection length is plausible for the
    /// bytes remaining, guarding against hostile length prefixes.
    ///
    /// Each element must occupy at least `min_elem_size` bytes (use 1 for
    /// variable-size elements).
    ///
    /// # Errors
    ///
    /// Returns [`WireError::LengthOverrun`] when `declared * min_elem_size`
    /// exceeds the remaining bytes.
    #[inline]
    pub fn check_len(&self, declared: u64, min_elem_size: usize) -> Result<usize, WireError> {
        let need = declared.saturating_mul(min_elem_size.max(1) as u64);
        if need > self.rest.len() as u64 {
            return Err(WireError::LengthOverrun {
                declared,
                available: self.rest.len(),
            });
        }
        // `declared` fits in the remaining length just checked, so the
        // conversion cannot truncate.
        Ok(usize::try_from(declared).unwrap_or(self.rest.len()))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn read_past_end_is_eof() {
        let mut r = ByteReader::new(&[1]);
        assert_eq!(r.read_byte().unwrap(), 1);
        assert!(matches!(
            r.read_byte(),
            Err(WireError::UnexpectedEof {
                needed: 1,
                remaining: 0
            })
        ));
        assert!(matches!(
            r.read_slice(3),
            Err(WireError::UnexpectedEof {
                needed: 3,
                remaining: 0
            })
        ));
    }

    #[test]
    fn read_array_exact() {
        let mut r = ByteReader::new(&[1, 2, 3, 4]);
        let a: [u8; 4] = r.read_array().unwrap();
        assert_eq!(a, [1, 2, 3, 4]);
        assert!(r.is_empty());
    }

    #[test]
    fn check_len_guards_hostile_prefixes() {
        let r = ByteReader::new(&[0; 8]);
        assert_eq!(r.check_len(8, 1).unwrap(), 8);
        assert!(matches!(
            r.check_len(9, 1),
            Err(WireError::LengthOverrun { .. })
        ));
        assert!(matches!(
            r.check_len(u64::MAX, 4),
            Err(WireError::LengthOverrun { .. })
        ));
        // Zero-size elements are treated as size one for the check.
        assert_eq!(r.check_len(8, 0).unwrap(), 8);
    }
}
