use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use ripple_wire::{ByteReader, ByteWriter, Decode, Encode, WireError};

/// A dense row-major `f64` matrix.
#[derive(Debug, Clone, PartialEq)]
pub struct DenseMatrix {
    rows: usize,
    cols: usize,
    data: Vec<f64>,
}

impl DenseMatrix {
    /// An all-zero matrix.
    ///
    /// # Panics
    ///
    /// Panics if either dimension is zero.
    pub fn zeros(rows: usize, cols: usize) -> Self {
        assert!(rows > 0 && cols > 0, "matrix dimensions must be positive");
        Self {
            rows,
            cols,
            data: vec![0.0; rows * cols],
        }
    }

    /// A matrix of uniform random values in [-1, 1), seeded.
    pub fn random(rows: usize, cols: usize, seed: u64) -> Self {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut m = Self::zeros(rows, cols);
        for x in &mut m.data {
            *x = rng.gen_range(-1.0..1.0);
        }
        m
    }

    /// Builds from a row-major vector.
    ///
    /// # Panics
    ///
    /// Panics if `data.len() != rows * cols`.
    pub fn from_vec(rows: usize, cols: usize, data: Vec<f64>) -> Self {
        assert_eq!(data.len(), rows * cols, "data length mismatch");
        assert!(rows > 0 && cols > 0, "matrix dimensions must be positive");
        Self { rows, cols, data }
    }

    /// Row count.
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Column count.
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// The element at (r, c).
    ///
    /// # Panics
    ///
    /// Panics when out of bounds.
    pub fn get(&self, r: usize, c: usize) -> f64 {
        assert!(r < self.rows && c < self.cols, "index out of bounds");
        self.data[r * self.cols + c]
    }

    /// Sets the element at (r, c).
    ///
    /// # Panics
    ///
    /// Panics when out of bounds.
    pub fn set(&mut self, r: usize, c: usize, v: f64) {
        assert!(r < self.rows && c < self.cols, "index out of bounds");
        self.data[r * self.cols + c] = v;
    }

    /// Naive `self × rhs` — the sequential reference and the per-block
    /// kernel.
    ///
    /// # Panics
    ///
    /// Panics on dimension mismatch.
    pub fn multiply(&self, rhs: &DenseMatrix) -> DenseMatrix {
        assert_eq!(self.cols, rhs.rows, "inner dimensions must agree");
        let mut out = DenseMatrix::zeros(self.rows, rhs.cols);
        for i in 0..self.rows {
            for k in 0..self.cols {
                let aik = self.data[i * self.cols + k];
                if aik == 0.0 {
                    continue;
                }
                let row = k * rhs.cols;
                let orow = i * rhs.cols;
                for j in 0..rhs.cols {
                    out.data[orow + j] += aik * rhs.data[row + j];
                }
            }
        }
        out
    }

    /// `self += rhs`, elementwise.
    ///
    /// # Panics
    ///
    /// Panics on dimension mismatch.
    pub fn add_assign(&mut self, rhs: &DenseMatrix) {
        assert_eq!((self.rows, self.cols), (rhs.rows, rhs.cols));
        for (a, b) in self.data.iter_mut().zip(&rhs.data) {
            *a += b;
        }
    }

    /// Elementwise approximate equality.
    pub fn approx_eq(&self, rhs: &DenseMatrix, tol: f64) -> bool {
        self.rows == rhs.rows
            && self.cols == rhs.cols
            && self
                .data
                .iter()
                .zip(&rhs.data)
                .all(|(a, b)| (a - b).abs() <= tol)
    }

    /// Splits into an `n × n` grid of equal blocks.
    ///
    /// # Panics
    ///
    /// Panics unless both dimensions are divisible by `n`.
    pub fn split(&self, n: usize) -> Vec<Vec<DenseMatrix>> {
        assert!(
            n > 0 && self.rows.is_multiple_of(n) && self.cols.is_multiple_of(n),
            "dimensions {}x{} not divisible into a {n}x{n} grid",
            self.rows,
            self.cols
        );
        let (br, bc) = (self.rows / n, self.cols / n);
        (0..n)
            .map(|bi| {
                (0..n)
                    .map(|bj| {
                        let mut block = DenseMatrix::zeros(br, bc);
                        for r in 0..br {
                            for c in 0..bc {
                                block.data[r * bc + c] = self.get(bi * br + r, bj * bc + c);
                            }
                        }
                        block
                    })
                    .collect()
            })
            .collect()
    }

    /// Reassembles an `n × n` grid of equal blocks.
    ///
    /// # Panics
    ///
    /// Panics if the grid is ragged.
    pub fn assemble(blocks: &[Vec<DenseMatrix>]) -> DenseMatrix {
        let n = blocks.len();
        assert!(n > 0 && blocks.iter().all(|row| row.len() == n));
        let (br, bc) = (blocks[0][0].rows, blocks[0][0].cols);
        let mut out = DenseMatrix::zeros(n * br, n * bc);
        for (bi, row) in blocks.iter().enumerate() {
            for (bj, block) in row.iter().enumerate() {
                assert_eq!((block.rows, block.cols), (br, bc), "ragged grid");
                for r in 0..br {
                    for c in 0..bc {
                        out.set(bi * br + r, bj * bc + c, block.get(r, c));
                    }
                }
            }
        }
        out
    }
}

impl Encode for DenseMatrix {
    fn encode(&self, w: &mut ByteWriter) {
        (self.rows as u32).encode(w);
        (self.cols as u32).encode(w);
        // No length prefix: rows × cols give it.
        f64::encode_seq(&self.data, w);
    }
    fn size_hint(&self) -> usize {
        10 + 8 * self.data.len()
    }
}

impl Decode for DenseMatrix {
    fn decode(r: &mut ByteReader<'_>) -> Result<Self, WireError> {
        let rows = u32::decode(r)? as usize;
        let cols = u32::decode(r)? as usize;
        let len = rows.checked_mul(cols).ok_or(WireError::IntOutOfRange {
            target: "matrix size",
        })?;
        let len = r.check_len(len as u64, 8)?;
        let data = f64::decode_seq(r, len)?;
        Ok(Self { rows, cols, data })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ripple_wire::{from_wire, to_wire};

    /// Golden bytes: dimensions as varints, then the doubles little
    /// endian with no length prefix — the block format of SUMMA messages
    /// and states, whichever path writes the doubles.
    #[test]
    fn block_format_is_fixed() {
        let m = DenseMatrix::from_vec(2, 3, vec![1.0, -0.5, 0.0, 2.5, f64::INFINITY, 1e-300]);
        let bytes = [
            0x02, 0x03, //
            0, 0, 0, 0, 0, 0, 0xf0, 0x3f, //
            0, 0, 0, 0, 0, 0, 0xe0, 0xbf, //
            0, 0, 0, 0, 0, 0, 0, 0, //
            0, 0, 0, 0, 0, 0, 0x04, 0x40, //
            0, 0, 0, 0, 0, 0, 0xf0, 0x7f, //
            0x59, 0xf3, 0xf8, 0xc2, 0x1f, 0x6e, 0xa5, 0x01,
        ];
        assert_eq!(&to_wire(&m)[..], &bytes);
        assert_eq!(from_wire::<DenseMatrix>(&bytes).unwrap(), m);
        // A block longer than the stack chunk, and a truncated one.
        let big = DenseMatrix::random(9, 23, 5);
        let encoded = to_wire(&big);
        assert_eq!(encoded.len(), 2 + 8 * 9 * 23);
        assert_eq!(from_wire::<DenseMatrix>(&encoded).unwrap(), big);
        assert!(matches!(
            from_wire::<DenseMatrix>(&encoded[..encoded.len() - 1]),
            Err(WireError::LengthOverrun { .. })
        ));
    }

    #[test]
    fn multiply_matches_hand_example() {
        let a = DenseMatrix::from_vec(2, 3, vec![1., 2., 3., 4., 5., 6.]);
        let b = DenseMatrix::from_vec(3, 2, vec![7., 8., 9., 10., 11., 12.]);
        let c = a.multiply(&b);
        assert_eq!(c, DenseMatrix::from_vec(2, 2, vec![58., 64., 139., 154.]));
    }

    #[test]
    fn split_assemble_roundtrip() {
        let m = DenseMatrix::random(12, 12, 3);
        for n in [1usize, 2, 3, 4, 6] {
            let blocks = m.split(n);
            assert_eq!(blocks.len(), n);
            assert_eq!(DenseMatrix::assemble(&blocks), m, "grid {n}");
        }
    }

    #[test]
    fn blockwise_multiply_equals_direct() {
        let a = DenseMatrix::random(6, 6, 10);
        let b = DenseMatrix::random(6, 6, 11);
        let (ab, bb) = (a.split(3), b.split(3));
        let mut blocks: Vec<Vec<DenseMatrix>> = (0..3)
            .map(|_| (0..3).map(|_| DenseMatrix::zeros(2, 2)).collect())
            .collect();
        for i in 0..3 {
            for j in 0..3 {
                for k in 0..3 {
                    blocks[i][j].add_assign(&ab[i][k].multiply(&bb[k][j]));
                }
            }
        }
        assert!(DenseMatrix::assemble(&blocks).approx_eq(&a.multiply(&b), 1e-12));
    }

    #[test]
    fn wire_roundtrip() {
        let m = DenseMatrix::random(4, 5, 9);
        let back: DenseMatrix = from_wire(&to_wire(&m)).unwrap();
        assert_eq!(m, back);
    }

    #[test]
    fn hostile_matrix_header_rejected() {
        // Claims 1e9 x 1e9 with no data.
        let mut w = ripple_wire::ByteWriter::new();
        1_000_000_000u32.encode(&mut w);
        1_000_000_000u32.encode(&mut w);
        assert!(from_wire::<DenseMatrix>(&w.into_bytes()).is_err());
    }

    #[test]
    #[should_panic(expected = "divisible")]
    fn ragged_split_panics() {
        DenseMatrix::zeros(5, 5).split(2);
    }

    #[test]
    fn add_assign_and_approx_eq() {
        let mut a = DenseMatrix::zeros(2, 2);
        let b = DenseMatrix::from_vec(2, 2, vec![1., 2., 3., 4.]);
        a.add_assign(&b);
        a.add_assign(&b);
        assert!(a.approx_eq(&DenseMatrix::from_vec(2, 2, vec![2., 4., 6., 8.]), 0.0));
        assert!(!a.approx_eq(&b, 1e-9));
    }
}
