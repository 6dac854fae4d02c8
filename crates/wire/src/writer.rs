use bytes::Bytes;

/// An append-only byte buffer used as the encoding target.
///
/// # Examples
///
/// ```
/// use ripple_wire::ByteWriter;
///
/// let mut w = ByteWriter::new();
/// w.push(1);
/// w.extend(&[2, 3]);
/// assert_eq!(w.as_slice(), &[1, 2, 3]);
/// ```
#[derive(Debug, Default, Clone)]
pub struct ByteWriter {
    buf: Vec<u8>,
}

impl ByteWriter {
    /// Creates an empty writer.
    #[inline]
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Creates an empty writer pre-sized to `capacity` bytes.
    #[inline]
    #[must_use]
    pub fn with_capacity(capacity: usize) -> Self {
        Self {
            buf: Vec::with_capacity(capacity),
        }
    }

    /// Appends a single byte.
    #[inline]
    pub fn push(&mut self, byte: u8) {
        self.buf.push(byte);
    }

    /// Appends a slice of bytes.
    #[inline]
    pub fn extend(&mut self, bytes: &[u8]) {
        self.buf.extend_from_slice(bytes);
    }

    /// Makes room for `additional` more bytes, so that appending up to that
    /// many grows the buffer at most this once.
    #[inline]
    pub fn reserve(&mut self, additional: usize) {
        self.buf.reserve(additional);
    }

    /// Empties the writer, keeping its allocation for reuse.
    #[inline]
    pub fn clear(&mut self) {
        self.buf.clear();
    }

    /// Number of bytes written so far.
    #[inline]
    #[must_use]
    pub fn len(&self) -> usize {
        self.buf.len()
    }

    /// Whether nothing has been written yet.
    #[inline]
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.buf.is_empty()
    }

    /// A view of the bytes written so far.
    #[inline]
    #[must_use]
    pub fn as_slice(&self) -> &[u8] {
        &self.buf
    }

    /// Consumes the writer, yielding its bytes.
    #[inline]
    #[must_use]
    pub fn into_bytes(self) -> Bytes {
        Bytes::from(self.buf)
    }

    /// Consumes the writer, yielding the raw vector.
    #[inline]
    #[must_use]
    pub fn into_vec(self) -> Vec<u8> {
        self.buf
    }
}

impl From<ByteWriter> for Bytes {
    #[inline]
    fn from(w: ByteWriter) -> Bytes {
        w.into_bytes()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn starts_empty() {
        let w = ByteWriter::new();
        assert!(w.is_empty());
        assert_eq!(w.len(), 0);
    }

    #[test]
    fn push_and_extend_accumulate() {
        let mut w = ByteWriter::with_capacity(4);
        w.push(9);
        w.extend(&[8, 7]);
        assert_eq!(w.len(), 3);
        assert_eq!(w.into_vec(), vec![9, 8, 7]);
    }

    #[test]
    fn clear_keeps_capacity() {
        let mut w = ByteWriter::with_capacity(16);
        w.extend(b"abcdef");
        w.clear();
        assert!(w.is_empty());
        w.push(1);
        assert_eq!(w.as_slice(), &[1]);
    }

    #[test]
    fn converts_to_bytes() {
        let mut w = ByteWriter::new();
        w.extend(b"abc");
        let b: Bytes = w.into();
        assert_eq!(&b[..], b"abc");
    }
}
