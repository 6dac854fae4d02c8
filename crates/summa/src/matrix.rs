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
    #[must_use]
    pub fn zeros(rows: usize, cols: usize) -> Self {
        assert!(rows > 0 && cols > 0, "matrix dimensions must be positive");
        Self {
            rows,
            cols,
            data: vec![0.0; rows * cols],
        }
    }

    /// A matrix of uniform random values in [-1, 1), seeded.
    #[must_use]
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
    #[must_use]
    pub fn from_vec(rows: usize, cols: usize, data: Vec<f64>) -> Self {
        assert_eq!(data.len(), rows * cols, "data length mismatch");
        assert!(rows > 0 && cols > 0, "matrix dimensions must be positive");
        Self { rows, cols, data }
    }

    /// Row count.
    #[must_use]
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Column count.
    #[must_use]
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// The element at (r, c).
    ///
    /// # Panics
    ///
    /// Panics when out of bounds.
    #[must_use]
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

    /// `self × rhs` — the sequential reference: a zero matrix plus
    /// [`mul_add`](Self::mul_add).
    ///
    /// # Panics
    ///
    /// Panics on dimension mismatch.
    #[must_use]
    pub fn multiply(&self, rhs: &DenseMatrix) -> DenseMatrix {
        let mut out = DenseMatrix::zeros(self.rows, rhs.cols);
        out.mul_add(self, rhs);
        out
    }

    /// `self += a × b` — the per-block kernel of SUMMA.
    ///
    /// For each 8-column panel of `b`, the panel is copied once into a
    /// contiguous `inner × 8` scratch of aligned column pairs (zero padded
    /// past the last column), and every 3-row stripe of `a` is swept over
    /// it: a 3 × 8 tile of the result is accumulated in registers across
    /// the whole inner dimension and added into `self` once.  Each element's products are summed in inner-index order from
    /// zero before that one addition, so the result is bitwise repeatable.
    /// No term is skipped: `0 × ∞` contributes NaN.
    ///
    /// # Panics
    ///
    /// Panics unless `a.cols() == b.rows()` and `self` is
    /// `a.rows() × b.cols()`.
    pub fn mul_add(&mut self, a: &DenseMatrix, b: &DenseMatrix) {
        assert_eq!(a.cols, b.rows, "inner dimensions must agree");
        assert_eq!(
            (self.rows, self.cols),
            (a.rows, b.cols),
            "the accumulator must have the product's shape"
        );
        let (inner, cols) = (a.cols, self.cols);
        if inner == 0 {
            return;
        }
        let mut panel = vec![Pair::default(); inner * TILE_PAIRS];
        for j0 in (0..cols).step_by(TILE_COLS) {
            let width = TILE_COLS.min(cols - j0);
            for (dst, src) in panel
                .chunks_exact_mut(TILE_PAIRS)
                .zip(b.data.chunks_exact(cols))
            {
                let mut row = [0.0; TILE_COLS];
                row[..width].copy_from_slice(&src[j0..j0 + width]);
                for (pair, x) in dst.iter_mut().zip(row.chunks_exact(2)) {
                    *pair = Pair([x[0], x[1]]);
                }
            }
            let mut a_stripes = a.data.chunks_exact(TILE_ROWS * inner);
            let mut c_stripes = self.data.chunks_exact_mut(TILE_ROWS * cols);
            for (a_stripe, c_stripe) in (&mut a_stripes).zip(&mut c_stripes) {
                tile::<TILE_ROWS>(a_stripe, &panel, c_stripe, j0, width);
            }
            let tail_rows = a_stripes
                .remainder()
                .chunks_exact(inner)
                .zip(c_stripes.into_remainder().chunks_exact_mut(cols));
            for (a_row, c_row) in tail_rows {
                tile::<1>(a_row, &panel, c_row, j0, width);
            }
        }
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
    #[must_use]
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
    #[must_use]
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
                        let rows = self.data[bi * br * self.cols..].chunks_exact(self.cols);
                        for (dst, src) in block.data.chunks_exact_mut(bc).zip(rows) {
                            dst.copy_from_slice(&src[bj * bc..(bj + 1) * bc]);
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
    #[must_use]
    pub fn assemble(blocks: &[Vec<DenseMatrix>]) -> DenseMatrix {
        let n = blocks.len();
        assert!(n > 0 && blocks.iter().all(|row| row.len() == n));
        let (br, bc) = (blocks[0][0].rows, blocks[0][0].cols);
        let mut out = DenseMatrix::zeros(n * br, n * bc);
        for (bi, row) in blocks.iter().enumerate() {
            for (bj, block) in row.iter().enumerate() {
                assert_eq!((block.rows, block.cols), (br, bc), "ragged grid");
                let rows = out.data[bi * br * out.cols..].chunks_exact_mut(out.cols);
                for (dst, src) in rows.zip(block.data.chunks_exact(bc)) {
                    dst[bj * bc..(bj + 1) * bc].copy_from_slice(src);
                }
            }
        }
        out
    }
}

/// Rows of the result one register tile covers.
const TILE_ROWS: usize = 3;

/// Column pairs one register tile covers: with [`TILE_ROWS`], 12 pairs of
/// accumulators in the 16 SSE2 registers of baseline x86-64, beside a
/// panel row and the broadcast element of `a`.
const TILE_PAIRS: usize = 4;

/// Columns of the result one register tile covers, and the width of a
/// packed panel of `b`.
const TILE_COLS: usize = 2 * TILE_PAIRS;

/// Two adjacent columns of a packed panel or of a register tile, aligned
/// so that one SSE2 register holds them.  Keeping the pairs explicit lets
/// the compiler give each accumulator pair its own register; a flat
/// `[f64; 8]` row ran 15–20 % slower, its pairs re-aligned by shuffles.
#[derive(Debug, Clone, Copy, Default)]
#[repr(C, align(16))]
struct Pair([f64; 2]);

/// Accumulates `a × panel` for one stripe of `R` rows into columns
/// `j0..j0 + width` of `c`.  `a` holds the stripe's `R` rows of the left
/// operand, `panel` one packed `inner × TILE_COLS` panel of the right one,
/// and `c` the stripe's `R` full rows of the result.
fn tile<const R: usize>(a: &[f64], panel: &[Pair], c: &mut [f64], j0: usize, width: usize) {
    let inner = panel.len() / TILE_PAIRS;
    let rows: [&[f64]; R] = std::array::from_fn(|r| &a[r * inner..(r + 1) * inner]);
    let mut acc = [[Pair::default(); TILE_PAIRS]; R];
    for (p, b) in panel.chunks_exact(TILE_PAIRS).enumerate() {
        // Indexed on purpose: the iterator form of this loop keeps `acc`
        // in memory instead of in registers and runs at half the speed.
        for (acc_row, a_row) in acc.iter_mut().zip(&rows) {
            let x = a_row[p];
            for l in 0..TILE_PAIRS {
                acc_row[l].0[0] += x * b[l].0[0];
                acc_row[l].0[1] += x * b[l].0[1];
            }
        }
    }
    let cols = c.len() / R;
    for (c_row, acc_row) in c.chunks_exact_mut(cols).zip(&acc) {
        let sums = acc_row.iter().flat_map(|pair| pair.0);
        for (dst, sum) in c_row[j0..j0 + width].iter_mut().zip(sums) {
            *dst += sum;
        }
    }
}

impl Encode for DenseMatrix {
    fn encode(&self, w: &mut ByteWriter) {
        let dimension = |d: usize| u32::try_from(d).expect("a matrix dimension fits a u32");
        dimension(self.rows).encode(w);
        dimension(self.cols).encode(w);
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
        let _ = DenseMatrix::zeros(5, 5).split(2);
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
