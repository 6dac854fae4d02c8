//! Dense matrix multiplication in the SUMMA communication/computation
//! pattern, BSPified per the Ripple paper (§V-B).
//!
//! `C ← A × B` with all three matrices decomposed into an `N × N` grid of
//! blocks held by the same `N²` components.  Each block of `A` is multicast
//! through its grid row and each block of `B` through its grid column — not
//! with a multicast primitive, but *pipelined* as point-to-point sends from
//! one grid neighbor to the next, interleaved with the block
//! multiply-adds, so no component ever buffers much.
//!
//! Moving SUMMA onto BSP introduces synchronization the algorithm does not
//! need.  The BSPified schedule (exactly the paper's):
//!
//! - a component does **at most one block multiply-add per step**;
//! - it sends **at most one block per direction per step** (so blocks do
//!   not pile up);
//! - all sends and multiplies respect the SUMMA panel order, with the
//!   liberalization that the horizontal and vertical streams progress
//!   independently;
//! - a component does as much work per step as those rules allow.
//!
//! On a 3×3 grid this takes 7 steps whose per-step multiply counts are
//! `1, 3, 6, 3, 6, 3, 5` (Table II) even though each component only does 3
//! multiplies — a 7/3 slowdown in serial multiply steps.  The same job
//! declares the `incremental` property (messages per (sender, receiver)
//! arrive in order; steps are irrelevant), so Ripple can also run it
//! **with no synchronization at all**, where each component simply drains
//! every block as it arrives — the §V-B experiment's 90 s vs 51 s
//! comparison.
//!
//! # The block kernel
//!
//! Nearly all of a multiplication's time is the per-block multiply-add,
//! the `w` of the BSP cost `T = Σ (w_i + g·h_i + l)`.
//! [`DenseMatrix::mul_add`] computes `C += A × B` on the panels a
//! component already holds, borrowed from its state.  For each 8-column
//! panel of `B`, it copies the panel once into a contiguous
//! `inner × 8` scratch.  Then it sweeps every 3-row stripe of `A` over
//! it, keeping a 3 × 8 tile of `C` in registers across the whole inner
//! dimension and adding it into `C` once.  The panel is packed because
//! an unpacked tile reads `B` with a stride of a whole row: that measured
//! little faster than the naive loop at 256 × 256 and slower than it at
//! 768 × 768.
//! The kernel is safe, portable Rust for baseline x86-64 (SSE2): fused
//! multiply-adds or wider vectors would need `target_feature` or
//! `unsafe`, and stay out.
//!
//! # Examples
//!
//! ```
//! use ripple_store_mem::MemStore;
//! use ripple_summa::{multiply, DenseMatrix, SummaOptions};
//!
//! # fn main() -> Result<(), ripple_core::EbspError> {
//! let store = MemStore::builder().default_parts(3).build();
//! let a = DenseMatrix::random(12, 12, 1);
//! let b = DenseMatrix::random(12, 12, 2);
//! let (c, _report) = multiply(&store, &a, &b, &SummaOptions::default())?;
//! assert!(c.approx_eq(&a.multiply(&b), 1e-9));
//! # Ok(())
//! # }
//! ```

mod job;
mod matrix;

pub use job::{block_loader, multiply, BlockMsg, SummaJob, SummaOptions, SummaReport};
pub use matrix::DenseMatrix;
