//! Dense *and sparse* linear algebra plus derivative-free minimization
//! for `castg`.
//!
//! This crate provides the numerical substrate used by the rest of the
//! workspace:
//!
//! * [`Matrix`] — a small dense row-major matrix, the MNA circuit
//!   simulator's stamping target for macro-sized systems.
//! * [`LuWorkspace`] — the dense LU factorization (partial pivoting)
//!   with reusable factor/solve buffers: Newton iterations re-factor
//!   the same-sized system hundreds of times, and the workspace makes
//!   each cycle allocation-free.
//! * [`SparseMatrix`] / [`SparseLu`] — the sparse (CSC) counterpart for
//!   large systems: a pattern-fixed stamping target plus a left-looking
//!   LU with threshold partial pivoting and KLU-style numeric
//!   refactorization. A workspace's first factorization picks its own
//!   pivots and records the symbolic skeleton ([`SparseSymbolic`]: fill
//!   structure, pivot order and column ordering) behind an `Arc`; its
//!   later factorizations replay it, and clones share it, so a
//!   workspace pays one symbolic analysis for all its solves. A
//!   fill-reducing **approximate minimum degree** column ordering
//!   ([`SparsePattern::amd_ordering`], applied via
//!   [`SparseLu::set_ordering`]) keeps mesh/crossbar-shaped systems
//!   — whose natural-order fill is O(n·√n) — factoring with near-linear
//!   fill; ladder/chain systems stay in natural order, bit-identical to
//!   before orderings existed; [`SparsePattern::symmetric_fill`]
//!   prices an ordering from the pattern alone. See [`sparse`] for the
//!   architecture notes.
//! * [`StampTarget`] — the stamping abstraction both matrix types
//!   implement, so one circuit-assembly routine drives either solver.
//! * [`brent_min`] — Brent's derivative-free one-dimensional minimizer
//!   (golden-section with parabolic interpolation), the method the paper
//!   uses for single-parameter test configurations.
//! * [`powell_min`] — Powell's direction-set method for multi-parameter
//!   configurations, with bound constraints handled by restricting every
//!   line search to the feasible segment.
//! * [`Bounds`] / [`ParamSpace`] — rectangular parameter domains with
//!   normalization helpers.
//! * [`grid`] — sweep helpers used to compute tps-graphs.
//!
//! # Dense or sparse?
//!
//! Dense LU is O(n³) with tiny constants — unbeatable for macro-sized
//! MNA systems (n ≲ 64–128), where the whole matrix fits in L1/L2 and
//! index chasing would dominate. The sparse path wins when the system
//! is both *large* and *structurally sparse*: assembly touches O(nnz)
//! slots instead of clearing n² entries, factorization cost follows the
//! fill (linear in n for the banded/tree-like matrices real netlists
//! produce), and the symbolic skeleton — fill pattern, pivot order,
//! traversal order — is computed once per pattern and replayed
//! numerically by every subsequent factorization. The circuit simulator
//! (`castg-spice`) automates the choice per circuit: sparse iff
//! `n ≥ 64` and `nnz/n² ≤ 0.25`, overridable through its
//! `AnalysisOptions::solver`. A differential test harness
//! (`tests/sparse_differential.rs`, `crates/numeric/tests/
//! proptest_sparse.rs`) pins the two paths to 1e-9 relative agreement.
//!
//! # Orderings and block-triangular decomposition
//!
//! The sparse factorization supports three preorderings, in increasing
//! structural ambition:
//!
//! * **Natural** — factor in stamping order. Optimal for banded
//!   (ladder/chain) patterns, where any permutation only adds fill.
//! * **AMD** ([`SparsePattern::amd_ordering`]) — a global approximate
//!   minimum degree column ordering. Cuts mesh/crossbar factor fill by
//!   2–3× (2.4× on a 578-unknown mesh: 27,698 → 11,659 nnz) at the
//!   price of a one-time symbolic analysis.
//! * **BTF** ([`SparsePattern::btf_order`], applied via
//!   [`SparseLu::set_btf_order`]) — the KLU-style block-triangular
//!   decomposition: a maximum transversal
//!   ([`SparsePattern::max_transversal`], Duff's MC21) puts a zero-free
//!   diagonal on the pattern, Tarjan's SCC condensation of the resulting
//!   digraph yields a block *upper* triangular permutation, and each
//!   diagonal block gets its own local AMD ordering
//!   ([`SparsePattern::btf_condensation`] stops before that last, costly
//!   step, for callers that only need the block counts). Only the diagonal
//!   blocks are factored — off-diagonal coupling entries are stored raw
//!   and retired during back-substitution in reverse block order — so
//!   fill cannot spread across blocks and pivoting stays block-local.
//!   The structural case for it is one-directional macro chains
//!   (cascaded stages whose DC pattern has no feedback): a 512-unknown
//!   OTA chain condenses into 259 blocks of size ≤ 2, but global AMD
//!   already factors that chain fill-free, and its DC solve is no
//!   faster under BTF (0.67–1.07× AMD's speed, median 0.96×, over five
//!   runs on a shared 2-core box); on irreducible patterns
//!   (meshes, feedback loops) the condensation finds one block and the
//!   caller should fall back to AMD — `castg-spice`'s `OrderingKind`
//!   dispatch does exactly that.
//!
//! The block structure is recorded in [`SparseSymbolic`]
//! ([`SparseSymbolic::blocks`], [`SparseSymbolic::block_fill`]), and
//! the BTF request persists on the workspace, so refactorizations and
//! stability fallbacks keep the decomposition.
//!
//! # Example
//!
//! ```
//! use castg_numeric::{brent_min, BrentOptions};
//!
//! let f = |x: f64| (x - 2.0).powi(2) + 1.0;
//! let m = brent_min(f, 0.0, 5.0, &BrentOptions::default());
//! assert!((m.x - 2.0).abs() < 1e-8);
//! assert!((m.value - 1.0).abs() < 1e-12);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod bounds;
mod brent;
pub mod btf;
mod error;
pub mod grid;
mod lu;
mod matrix;
mod powell;
pub mod sparse;

pub use bounds::{Bounds, ParamSpace};
pub use btf::BtfOrder;
pub use brent::{brent_min, golden_section_min, BrentOptions, Minimum};
pub use error::NumericError;
pub use lu::LuWorkspace;
pub use matrix::Matrix;
pub use powell::{powell_min, PowellOptions, PowellResult};
pub use sparse::{SparseLu, SparseMatrix, SparsePattern, SparseSymbolic, StampTarget};
