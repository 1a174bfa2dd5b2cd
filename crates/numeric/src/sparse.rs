//! Sparse (CSC) matrix storage and LU factorization for large MNA
//! systems.
//!
//! Dense LU is O(n³) and fine for macro-sized netlists (n ≲ 128); the
//! ladder and chain macros used for scaling work push n into the
//! hundreds or thousands, where the MNA matrix is extremely sparse
//! (a handful of entries per row). This module provides the sparse
//! counterpart of [`Matrix`](crate::Matrix) + [`LuWorkspace`](crate::LuWorkspace):
//!
//! * [`SparseMatrix`] — a compressed-sparse-column matrix with a
//!   **fixed sparsity pattern**. The pattern is built once per circuit
//!   (from the stamp plan's slot list) and shared via `Arc`; per Newton
//!   iteration only the values are cleared and re-stamped, so assembly
//!   is O(nnz) instead of the dense path's O(n²) clear.
//! * [`SparseLu`] — a left-looking (Gilbert–Peierls) LU factorization
//!   with threshold partial pivoting. The first factorization performs
//!   the symbolic analysis (depth-first reachability per column, fill
//!   pattern, pivot order); subsequent factorizations of a matrix with
//!   the **same pattern** replay that symbolic skeleton numerically
//!   (a KLU-style *refactorization*), skipping all graph traversal and
//!   pivot search. A refactorization whose recycled pivot turns
//!   numerically unacceptable falls back to a fresh pivoting
//!   factorization transparently.
//!
//! Row indices inside L/U are stored in *pivot order* (the permuted row
//! space), so the triangular solves and the refactorization loop are
//! straight array walks with no indirection through the permutation.
//!
//! # Fill-reducing column ordering
//!
//! Natural MNA order is near-optimal for chain/ladder netlists, but a
//! 2-D mesh or crossbar fills catastrophically under it (a grid of `n`
//! unknowns factored in row-major order produces O(n·√n) fill).
//! [`SparsePattern::amd_ordering`] computes a deterministic approximate
//! minimum degree permutation of the symmetrized pattern, and
//! [`SparseLu::set_ordering`] makes subsequent full factorizations
//! eliminate columns in that order: the factorization computes
//! `P·A·Q = L·U` (row permutation `P` from threshold pivoting with
//! diagonal preference, column pre-ordering `Q`), and
//! [`solve_into`](SparseLu::solve_into) scatters solutions back to
//! original coordinates, so callers never observe the permutation. The
//! ordering travels inside [`SparseSymbolic`] ([`SparseSymbolic::ordering`]),
//! which means seeded workspaces, refactorizations and stability
//! fallbacks all keep factoring under the ordering they were analyzed
//! with — one AMD run per pattern, shared everywhere the skeleton is.
//! With the identity ordering every code path (and every bit of every
//! result) is unchanged from before orderings existed.
//!
//! # Example
//!
//! ```
//! use castg_numeric::{SparseLu, SparseMatrix, StampTarget};
//!
//! // 2×2 system: [[4, 3], [6, 3]] · x = [10, 12]  →  x = [1, 2].
//! let mut a = SparseMatrix::from_entries(2, &[(0, 0), (0, 1), (1, 0), (1, 1)]);
//! a.add(0, 0, 4.0);
//! a.add(0, 1, 3.0);
//! a.add(1, 0, 6.0);
//! a.add(1, 1, 3.0);
//! let mut lu = SparseLu::new();
//! let mut x = vec![0.0; 2];
//! lu.factor(&a)?;
//! lu.solve_into(&[10.0, 12.0], &mut x)?;
//! assert!((x[0] - 1.0).abs() < 1e-12);
//! assert!((x[1] - 2.0).abs() < 1e-12);
//! # Ok::<(), castg_numeric::NumericError>(())
//! ```

use std::ops::Range;
use std::sync::Arc;

use crate::btf::BtfOrder;
use crate::{Matrix, NumericError};

/// Pivots with absolute value below this threshold are treated as zero
/// (mirrors the dense kernel's convention).
const PIVOT_EPS: f64 = 1e-300;

/// Threshold for preferring the diagonal entry during pivot selection:
/// the diagonal is taken whenever it is within this factor of the
/// column's largest candidate. Diagonal pivots keep the fill pattern of
/// diagonally-dominant MNA systems stable across refactorizations.
const DIAG_PREFERENCE: f64 = 0.1;

/// A refactorization pivot must stay within this factor of its column's
/// largest entry, or the workspace falls back to a fresh pivoting
/// factorization.
const REFACTOR_TOL: f64 = 1e-8;

/// A target that MNA device stamps can be accumulated into.
///
/// Implemented by the dense [`Matrix`](crate::Matrix) and by
/// [`SparseMatrix`]; the circuit simulator's assembly loop is generic
/// over this trait so one compiled stamp plan drives both solver paths.
pub trait StampTarget {
    /// Resets every (structural) entry to zero, keeping the allocation
    /// and, for sparse targets, the pattern.
    fn clear(&mut self);

    /// Adds `value` to the entry at `(row, col)`.
    ///
    /// # Panics
    ///
    /// Panics if the position is out of bounds — or, for pattern-fixed
    /// sparse targets, not part of the pattern.
    fn add(&mut self, row: usize, col: usize, value: f64);
}

impl StampTarget for Matrix {
    fn clear(&mut self) {
        Matrix::clear(self);
    }

    fn add(&mut self, row: usize, col: usize, value: f64) {
        Matrix::add(self, row, col, value);
    }
}

/// The immutable structure of a [`SparseMatrix`]: dimension plus CSC
/// column pointers and sorted row indices. Shared by `Arc` between the
/// matrix, its clones, and the [`SparseLu`] symbolic analysis, so
/// "same pattern" checks are pointer comparisons.
#[derive(Debug, PartialEq, Eq)]
pub struct SparsePattern {
    pub(crate) n: usize,
    pub(crate) col_ptr: Vec<usize>,
    pub(crate) row_idx: Vec<usize>,
}

impl SparsePattern {
    /// Matrix dimension.
    pub fn dim(&self) -> usize {
        self.n
    }

    /// Number of structural nonzeros.
    pub fn nnz(&self) -> usize {
        self.row_idx.len()
    }

    /// Structural fill density `nnz / n²` (zero for an empty matrix).
    pub fn density(&self) -> f64 {
        if self.n == 0 {
            return 0.0;
        }
        self.nnz() as f64 / (self.n * self.n) as f64
    }

    /// Index into the value array for slot `(row, col)`, if the slot is
    /// part of the pattern.
    ///
    /// Assembly fast paths resolve their slots through this once and
    /// then stamp by [`SparseMatrix::values_mut`] index, skipping the
    /// per-add binary search.
    pub fn slot(&self, row: usize, col: usize) -> Option<usize> {
        let lo = self.col_ptr[col];
        let hi = self.col_ptr[col + 1];
        self.row_idx[lo..hi].binary_search(&row).ok().map(|p| lo + p)
    }

    /// Computes a fill-reducing **approximate minimum degree** (AMD)
    /// column ordering for this pattern: `perm[k]` is the original
    /// column eliminated at step `k`.
    ///
    /// The algorithm is the element-absorption minimum-degree family
    /// AMD belongs to, run on the symmetrized graph of `A + Aᵀ`
    /// (diagonal dropped): eliminating a vertex turns its neighborhood
    /// into a quotient-graph *element*, elements reached through the
    /// pivot are absorbed into the new one, and external degrees of the
    /// affected vertices are recomputed by a mark-based union. Ties
    /// break to the smallest vertex index, so the ordering is fully
    /// deterministic. The result is always a valid permutation of
    /// `0..n`, including on degenerate patterns (empty columns, dense
    /// rows, `n ≤ 1`).
    ///
    /// Natural MNA order is near-optimal for chain/ladder netlists;
    /// mesh- and crossbar-like netlists fill catastrophically under it,
    /// and this ordering is what [`SparseLu`] consumes (via
    /// [`SparseLu::set_ordering`]) to keep their factors sparse.
    pub fn amd_ordering(&self) -> Vec<usize> {
        let n = self.n;
        if n <= 1 {
            return (0..n).collect();
        }
        // Symmetrized adjacency A + Aᵀ, diagonal dropped.
        let mut adj: Vec<Vec<usize>> = vec![Vec::new(); n];
        for c in 0..n {
            for p in self.col_ptr[c]..self.col_ptr[c + 1] {
                let r = self.row_idx[p];
                if r != c {
                    adj[r].push(c);
                    adj[c].push(r);
                }
            }
        }
        for l in &mut adj {
            l.sort_unstable();
            l.dedup();
        }

        // Quotient-graph state: eliminated vertices become elements;
        // a live vertex sees plain neighbors (`adj`) plus the member
        // lists of the elements it belongs to (`var_elems`).
        let mut elems: Vec<Vec<usize>> = Vec::new();
        let mut var_elems: Vec<Vec<usize>> = vec![Vec::new(); n];
        let mut alive = vec![true; n];
        let mut degree: Vec<usize> = adj.iter().map(Vec::len).collect();
        let mut mark = vec![0usize; n];
        let mut generation = 0usize;
        let mut perm = Vec::with_capacity(n);

        // Pivot selection: lazy min-heap on `(degree, vertex)` — the
        // lexicographic order *is* "minimum external degree, ties to
        // the smallest index", so the selection is identical to a
        // linear scan, at O(log n) per operation instead of O(n) per
        // step. Stale entries (eliminated vertices, superseded
        // degrees) are skipped on pop; every degree update pushes a
        // fresh entry.
        use std::cmp::Reverse;
        use std::collections::BinaryHeap;
        let mut queue: BinaryHeap<Reverse<(usize, usize)>> =
            degree.iter().enumerate().map(|(v, &d)| Reverse((d, v))).collect();

        for _ in 0..n {
            let pivot = loop {
                let Reverse((d, v)) = queue.pop().expect("a live vertex remains");
                if alive[v] && degree[v] == d {
                    break v;
                }
            };
            alive[pivot] = false;
            perm.push(pivot);

            // Members of the new element: live neighbors of the pivot,
            // direct and through its absorbed elements.
            generation += 1;
            let mut members: Vec<usize> = Vec::new();
            for &v in &adj[pivot] {
                if alive[v] && mark[v] != generation {
                    mark[v] = generation;
                    members.push(v);
                }
            }
            let absorbed = std::mem::take(&mut var_elems[pivot]);
            for &e in &absorbed {
                for &v in &elems[e] {
                    if alive[v] && mark[v] != generation {
                        mark[v] = generation;
                        members.push(v);
                    }
                }
            }
            members.sort_unstable();
            adj[pivot].clear();

            // Rewire every member: drop the pivot, dead vertices and
            // co-members (now covered by the new element) from its
            // plain adjacency, and replace absorbed elements by the
            // new one. Every live member of an absorbed element is a
            // member of the new element, so the absorbed lists can be
            // freed outright.
            let enew = elems.len();
            for &v in &members {
                adj[v].retain(|&u| alive[u] && mark[u] != generation);
                var_elems[v].retain(|e| !absorbed.contains(e));
                var_elems[v].push(enew);
            }
            for e in absorbed {
                elems[e] = Vec::new();
            }
            elems.push(members.clone());

            // Exact external degrees of the affected vertices.
            for &v in &members {
                generation += 1;
                mark[v] = generation;
                let mut d = 0;
                for &u in &adj[v] {
                    if alive[u] && mark[u] != generation {
                        mark[u] = generation;
                        d += 1;
                    }
                }
                for &e in &var_elems[v] {
                    for &u in &elems[e] {
                        if alive[u] && mark[u] != generation {
                            mark[u] = generation;
                            d += 1;
                        }
                    }
                }
                degree[v] = d;
                queue.push(Reverse((d, v)));
            }
        }
        perm
    }

    /// The pattern extended by the given `(row, col)` slots: identical
    /// content to rebuilding from the union of all slots, built by a
    /// linear merge instead of an O(nnz log nnz) sort. Slots already
    /// present are ignored; when nothing new remains, the existing
    /// `Arc` is returned unchanged (content-equal patterns are
    /// interchangeable — every consumer keys on content, and pointer
    /// sharing only widens symbolic reuse).
    ///
    /// This is the fault-campaign fast path: a bridge delta-stamp adds
    /// at most two off-diagonal slots to a nominal pattern with
    /// thousands.
    ///
    /// # Panics
    ///
    /// Panics if a slot is out of bounds.
    pub fn merged_with(self: &Arc<Self>, extra: &[(usize, usize)]) -> Arc<SparsePattern> {
        let n = self.n;
        let mut add: Vec<(usize, usize)> = extra
            .iter()
            .map(|&(r, c)| {
                assert!(r < n && c < n, "slot ({r},{c}) out of bounds for dim {n}");
                (c, r)
            })
            .filter(|&(c, r)| self.slot(r, c).is_none())
            .collect();
        add.sort_unstable();
        add.dedup();
        if add.is_empty() {
            return Arc::clone(self);
        }
        let mut col_ptr = Vec::with_capacity(n + 1);
        let mut row_idx = Vec::with_capacity(self.row_idx.len() + add.len());
        col_ptr.push(0);
        let mut next = add.iter().copied().peekable();
        for c in 0..n {
            let seg = &self.row_idx[self.col_ptr[c]..self.col_ptr[c + 1]];
            let mut s = 0;
            while let Some(&(ac, ar)) = next.peek() {
                if ac != c {
                    break;
                }
                while s < seg.len() && seg[s] < ar {
                    row_idx.push(seg[s]);
                    s += 1;
                }
                row_idx.push(ar);
                next.next();
            }
            row_idx.extend_from_slice(&seg[s..]);
            col_ptr.push(row_idx.len());
        }
        Arc::new(SparsePattern { n, col_ptr, row_idx })
    }
}

/// A square CSC matrix with a fixed, `Arc`-shared sparsity pattern.
///
/// Built once from the full slot list of a circuit's stamp plan;
/// stamping ([`add`](SparseMatrix::add)) binary-searches the (short)
/// column segment, and [`clear`](SparseMatrix::clear) zeroes only the
/// structural nonzeros. Cloning shares the pattern and copies values.
#[derive(Debug, Clone, PartialEq)]
pub struct SparseMatrix {
    pattern: Arc<SparsePattern>,
    values: Vec<f64>,
}

impl SparseMatrix {
    /// Builds an all-zero matrix whose pattern is the union of the
    /// given `(row, col)` slots (duplicates are merged). Every slot
    /// must satisfy `row < n && col < n`.
    ///
    /// # Panics
    ///
    /// Panics if a slot is out of bounds.
    pub fn from_entries(n: usize, entries: &[(usize, usize)]) -> Self {
        let mut slots: Vec<(usize, usize)> = entries
            .iter()
            .map(|&(r, c)| {
                assert!(r < n && c < n, "slot ({r},{c}) out of bounds for dim {n}");
                (c, r)
            })
            .collect();
        slots.sort_unstable();
        slots.dedup();
        let mut col_ptr = vec![0usize; n + 1];
        let mut row_idx = Vec::with_capacity(slots.len());
        for &(c, r) in &slots {
            col_ptr[c + 1] += 1;
            row_idx.push(r);
        }
        for c in 0..n {
            col_ptr[c + 1] += col_ptr[c];
        }
        SparseMatrix {
            pattern: Arc::new(SparsePattern { n, col_ptr, row_idx }),
            values: vec![0.0; slots.len()],
        }
    }

    /// Builds an all-zero matrix with an existing (shared) pattern.
    pub fn with_pattern(pattern: Arc<SparsePattern>) -> Self {
        let nnz = pattern.nnz();
        SparseMatrix { pattern, values: vec![0.0; nnz] }
    }

    /// The shared pattern.
    pub fn pattern(&self) -> &Arc<SparsePattern> {
        &self.pattern
    }

    /// Mutable access to the structural-nonzero value array (indexed by
    /// [`SparsePattern::slot`]). The fast assembly path of precompiled
    /// stamp plans accumulates directly through this.
    pub fn values_mut(&mut self) -> &mut [f64] {
        &mut self.values
    }

    /// Matrix dimension.
    pub fn dim(&self) -> usize {
        self.pattern.n
    }

    /// Number of structural nonzeros.
    pub fn nnz(&self) -> usize {
        self.pattern.nnz()
    }

    /// Value of entry `(row, col)`; structural zeros read as `0.0`.
    ///
    /// # Panics
    ///
    /// Panics if out of bounds.
    pub fn get(&self, row: usize, col: usize) -> f64 {
        assert!(row < self.pattern.n && col < self.pattern.n);
        self.pattern.slot(row, col).map_or(0.0, |s| self.values[s])
    }

    /// Densifies (tests and diagnostics only).
    pub fn to_dense(&self) -> Matrix {
        let n = self.pattern.n;
        let mut m = Matrix::zeros(n, n);
        for c in 0..n {
            for p in self.pattern.col_ptr[c]..self.pattern.col_ptr[c + 1] {
                m[(self.pattern.row_idx[p], c)] = self.values[p];
            }
        }
        m
    }

    /// Iterates the structural entries as `(row, col, value)` in
    /// column-major order (including explicit zeros).
    pub fn entries(&self) -> impl Iterator<Item = (usize, usize, f64)> + '_ {
        let pat = &self.pattern;
        (0..pat.n).flat_map(move |c| {
            (pat.col_ptr[c]..pat.col_ptr[c + 1])
                .map(move |p| (pat.row_idx[p], c, self.values[p]))
        })
    }

    /// Computes `self * x` (tests and residual checks).
    ///
    /// # Errors
    ///
    /// [`NumericError::DimensionMismatch`] if `x.len() != n`.
    pub fn mul_vec(&self, x: &[f64]) -> Result<Vec<f64>, NumericError> {
        let n = self.pattern.n;
        if x.len() != n {
            return Err(NumericError::DimensionMismatch { expected: n, actual: x.len() });
        }
        let mut y = vec![0.0; n];
        for (c, &xc) in x.iter().enumerate() {
            if xc != 0.0 {
                for p in self.pattern.col_ptr[c]..self.pattern.col_ptr[c + 1] {
                    y[self.pattern.row_idx[p]] += self.values[p] * xc;
                }
            }
        }
        Ok(y)
    }
}

impl StampTarget for SparseMatrix {
    fn clear(&mut self) {
        self.values.fill(0.0);
    }

    fn add(&mut self, row: usize, col: usize, value: f64) {
        match self.pattern.slot(row, col) {
            Some(s) => self.values[s] += value,
            None => panic!("slot ({row},{col}) is not part of the sparsity pattern"),
        }
    }
}

/// Marker for "row not yet chosen as a pivot" in `pinv`.
const EMPTY: usize = usize::MAX;

/// The value-independent skeleton of a sparse LU factorization: the
/// analyzed pattern, the fill structure of L and U, and the pivot
/// order.
///
/// One full (pivoting) factorization computes this; any number of
/// [`SparseLu`] workspaces can then share it by `Arc` (see
/// [`SparseLu::seed_symbolic`]) and run pure numeric refactorizations
/// against it — the mechanism fault-campaign engines use to pay one
/// symbolic analysis per circuit variant instead of one per solve.
#[derive(Debug)]
pub struct SparseSymbolic {
    /// Pattern this skeleton was computed for.
    pattern: Arc<SparsePattern>,
    /// L strictly-lower CSC structure in pivot-order row coordinates;
    /// unit diagonal implicit.
    lp: Vec<usize>,
    li: Vec<usize>,
    /// U strictly-upper CSC structure in pivot-order row coordinates
    /// (row < col); the diagonal lives in the numeric workspace.
    up: Vec<usize>,
    ui: Vec<usize>,
    /// `pinv[orig_row] = pivot position`; `rowperm[pivot_pos] = orig_row`.
    pinv: Vec<usize>,
    rowperm: Vec<usize>,
    /// Column pre-ordering: `colperm[k]` is the original column
    /// eliminated at step `k` (identity for natural order). Solution
    /// component `k` of the permuted solve belongs to original unknown
    /// `colperm[k]`.
    colperm: Vec<usize>,
    /// Whether `colperm` is a non-identity permutation (the solve path
    /// needs a scatter through it only then).
    permuted: bool,
    /// Diagonal-block boundaries in pivot positions: block `b` spans
    /// `block_ptr[b]..block_ptr[b+1]`. A plain (non-BTF) factorization
    /// is the single block `[0, n]`.
    block_ptr: Vec<usize>,
    /// Off-diagonal coupling structure (BTF only; empty otherwise):
    /// per-column CSC of the entries of `P·A·Q` that land *above* the
    /// diagonal blocks. Row indices are pivot positions in earlier
    /// blocks; the values stay raw `A` entries (never factored), stored
    /// in `SparseLu::ox`.
    op: Vec<usize>,
    oi: Vec<usize>,
    /// The BTF preordering this skeleton factors under, if any —
    /// carried so stability fallbacks and reseeded workspaces keep the
    /// same block structure.
    btf: Option<Arc<BtfOrder>>,
}

impl SparseSymbolic {
    /// The pattern the skeleton was analyzed for.
    pub fn pattern(&self) -> &Arc<SparsePattern> {
        &self.pattern
    }

    /// Matrix dimension.
    pub fn dim(&self) -> usize {
        self.rowperm.len()
    }

    /// Structural nonzeros in the L factor (unit diagonal excluded).
    pub fn l_nnz(&self) -> usize {
        self.li.len()
    }

    /// Structural nonzeros in the U factor (diagonal excluded).
    pub fn u_nnz(&self) -> usize {
        self.ui.len()
    }

    /// Structural nonzeros the factorization stores: `L + U` with the
    /// diagonal counted once, plus (for BTF skeletons) the raw
    /// off-diagonal coupling entries — the fill metric ordering quality
    /// is judged by. Identical to [`block_fill`](SparseSymbolic::block_fill)
    /// for non-BTF skeletons.
    pub fn fill_nnz(&self) -> usize {
        self.block_fill() + self.oi.len()
    }

    /// Summed fill of the diagonal blocks alone (`L + U` nonzeros with
    /// the diagonal counted once, excluding the raw off-diagonal
    /// coupling entries) — the part of the storage that factorization
    /// actually creates.
    pub fn block_fill(&self) -> usize {
        self.li.len() + self.ui.len() + self.dim()
    }

    /// Diagonal-block boundaries in pivot positions: block `b` spans
    /// `blocks()[b]..blocks()[b+1]`. A plain factorization reports the
    /// single block `[0, n]`.
    pub fn blocks(&self) -> &[usize] {
        &self.block_ptr
    }

    /// Number of diagonal blocks (1 for any non-BTF skeleton of a
    /// nonempty matrix).
    pub fn block_count(&self) -> usize {
        self.block_ptr.len().saturating_sub(1)
    }

    /// Number of raw off-diagonal coupling entries (0 for non-BTF
    /// skeletons).
    pub fn off_nnz(&self) -> usize {
        self.oi.len()
    }

    /// The BTF preordering this skeleton factors under, if any.
    pub fn btf(&self) -> Option<&Arc<BtfOrder>> {
        self.btf.as_ref()
    }

    /// The column pre-ordering this skeleton factors under:
    /// `ordering()[k]` is the original column eliminated at step `k`
    /// (the identity for natural order).
    pub fn ordering(&self) -> &[usize] {
        &self.colperm
    }

    /// Whether the skeleton factors under a non-identity column
    /// ordering.
    pub fn is_permuted(&self) -> bool {
        self.permuted
    }
}

/// Outcome of [`SparseLu::factor_until_fill`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FillLimited {
    /// The factorization completed; the workspace is factored and
    /// [`SparseLu::symbolic`] reports its final fill.
    Complete,
    /// The fill reached the limit before the last column: the final
    /// fill is at least `fill_at_least`. The elimination is paused, and
    /// the next `factor_until_fill` of the same matrix resumes it.
    Stopped {
        /// Fill so far: `L + U` nonzeros (plus BTF couplings) of the
        /// eliminated columns, plus one diagonal entry per unknown — a
        /// lower bound of the final [`SparseSymbolic::fill_nnz`].
        fill_at_least: usize,
    },
}

/// The state of a full (pivoting) factorization between columns: the
/// structure built so far plus the next elimination step. Values live
/// in the workspace (`lx`/`ux`/`ox`/`udiag`), so a paused elimination
/// resumes exactly where it stopped.
#[derive(Debug, Clone)]
struct Elimination {
    /// Pattern of the matrix being factored.
    pattern: Arc<SparsePattern>,
    /// Block-triangular preordering the elimination runs under, if any.
    btf: Option<Arc<BtfOrder>>,
    colperm: Vec<usize>,
    block_ptr: Vec<usize>,
    lp: Vec<usize>,
    li: Vec<usize>,
    up: Vec<usize>,
    ui: Vec<usize>,
    op: Vec<usize>,
    oi: Vec<usize>,
    pinv: Vec<usize>,
    rowperm: Vec<usize>,
    /// Next elimination step and the diagonal block containing it.
    next: usize,
    block: usize,
}

impl Elimination {
    /// Fill so far, counting every diagonal entry (eliminated or not):
    /// a lower bound of the final fill that only grows column by
    /// column.
    fn fill(&self) -> usize {
        self.li.len() + self.ui.len() + self.oi.len() + self.rowperm.len()
    }
}

/// Sparse LU workspace: factors a [`SparseMatrix`] and solves against
/// the stored factors, reusing the symbolic analysis across
/// factorizations of the same pattern.
///
/// See the [module docs](self) for the algorithm; the API mirrors
/// [`LuWorkspace`](crate::LuWorkspace) (factor, then solve into a
/// caller-provided buffer, allocating nothing on the steady-state
/// path). The symbolic skeleton lives behind an `Arc`
/// ([`SparseSymbolic`]): cloning a workspace — or seeding a fresh one
/// with [`seed_symbolic`](SparseLu::seed_symbolic) — shares the
/// analysis, so only the numeric refactorization is paid per instance.
#[derive(Debug, Clone, Default)]
pub struct SparseLu {
    /// Shared fill structure + pivot order; `None` until the first
    /// factorization (or until seeded).
    symbolic: Option<Arc<SparseSymbolic>>,
    /// Numeric payload of L (aligned with the symbolic `li`).
    lx: Vec<f64>,
    /// Numeric payload of U (aligned with the symbolic `ui`), diagonal
    /// split out into `udiag`.
    ux: Vec<f64>,
    udiag: Vec<f64>,
    /// Dense accumulator in pivot-order coordinates.
    work: Vec<f64>,
    /// Per-row marker for the symbolic DFS (`mark` generation counter).
    flag: Vec<usize>,
    mark: usize,
    /// Explicit DFS stack of `(row, next-child-position)` pairs.
    dfs: Vec<(usize, usize)>,
    /// Column pattern in topological order (pivot positions / rows).
    reach: Vec<usize>,
    /// Column pre-ordering requested via
    /// [`set_ordering`](SparseLu::set_ordering); consulted (not
    /// consumed) by every full factorization whose dimension matches.
    ordering: Option<Vec<usize>>,
    /// Position-space scratch for the permuted solve path.
    solve_buf: Vec<f64>,
    factored: bool,
    /// Numeric payload of the raw off-diagonal coupling entries
    /// (aligned with the symbolic `oi`; empty for non-BTF skeletons).
    ox: Vec<f64>,
    /// Block-triangular preordering requested via
    /// [`set_btf_order`](SparseLu::set_btf_order); consulted (not
    /// consumed) by every full factorization whose dimension matches.
    btf: Option<Arc<BtfOrder>>,
    /// Worker threads for block-parallel refactorization (0 or 1 =
    /// serial). Results are bit-identical at every thread count.
    threads: usize,
    /// Cached per-worker accumulators for the parallel refactorization
    /// (each sized `n`, kept zeroed between uses).
    thread_work: Vec<Vec<f64>>,
    /// A full factorization paused by
    /// [`factor_until_fill`](SparseLu::factor_until_fill).
    paused: Option<Box<Elimination>>,
}

impl SparseLu {
    /// Creates an empty workspace; the first
    /// [`factor`](SparseLu::factor) sizes it.
    pub fn new() -> Self {
        SparseLu::default()
    }

    /// Whether a usable factorization is stored.
    pub fn is_factored(&self) -> bool {
        self.factored
    }

    /// Dimension of the stored factorization (0 before the first
    /// factor).
    pub fn dim(&self) -> usize {
        self.symbolic.as_ref().map_or(0, |s| s.dim())
    }

    /// The shared symbolic skeleton, if one has been computed (by this
    /// workspace or whichever workspace it was seeded from).
    pub fn symbolic(&self) -> Option<Arc<SparseSymbolic>> {
        self.symbolic.clone()
    }

    /// Sets a fill-reducing column pre-ordering (for example
    /// [`SparsePattern::amd_ordering`]) for subsequent **full**
    /// factorizations: step `k` of the elimination processes original
    /// column `perm[k]`, and solutions are scattered back to original
    /// coordinates, so callers never see the permutation. The ordering
    /// persists across factorizations (it is consulted, not consumed)
    /// and is ignored for matrices whose dimension does not match its
    /// length. A stored skeleton whose ordering differs from `perm` is
    /// dropped, so the next [`factor`](SparseLu::factor) honors the
    /// request with a full factorization instead of silently
    /// refactoring under the old ordering; a skeleton already using
    /// `perm` is kept.
    ///
    /// # Panics
    ///
    /// The next matching full factorization panics if `perm` is not a
    /// permutation of `0..perm.len()`.
    pub fn set_ordering(&mut self, perm: Vec<usize>) {
        if self.symbolic.as_ref().is_some_and(|s| s.colperm != perm || s.btf.is_some()) {
            self.symbolic = None;
            self.factored = false;
        }
        self.paused = None;
        self.btf = None;
        self.ordering = Some(perm);
    }

    /// Sets a block-triangular preordering (see
    /// [`SparsePattern::btf_order`]) for subsequent **full**
    /// factorizations: elimination is restricted to the diagonal
    /// blocks, the off-diagonal coupling entries are stored raw, and
    /// the solve back-substitutes through them in reverse block order.
    /// Supersedes a pending [`set_ordering`](SparseLu::set_ordering)
    /// request; a stored skeleton with a different block structure is
    /// dropped so the next [`factor`](SparseLu::factor) honors the
    /// request.
    ///
    /// The order **must** describe the pattern of the matrices this
    /// workspace will factor (computed from it, or from a pattern with
    /// identical structure): the next matching full factorization
    /// panics if a structural entry falls below the block diagonal.
    pub fn set_btf_order(&mut self, order: Arc<BtfOrder>) {
        let matches = |s: &SparseSymbolic| {
            s.btf.as_ref().is_some_and(|b| {
                b.colperm == order.colperm && b.block_ptr == order.block_ptr
            })
        };
        if self.symbolic.as_ref().is_some_and(|s| !matches(s)) {
            self.symbolic = None;
            self.factored = false;
        }
        self.paused = None;
        self.ordering = None;
        self.btf = Some(order);
    }

    /// Sets the worker-thread count for block-parallel numeric
    /// refactorization (0 or 1 = serial). Only BTF skeletons with more
    /// than one diagonal block fan out; results are **bit-identical**
    /// at every thread count (each block's arithmetic is self-contained
    /// and unchanged by the partitioning).
    pub fn set_threads(&mut self, threads: usize) {
        self.threads = threads;
    }

    /// Adopts a shared symbolic skeleton computed elsewhere: the next
    /// [`factor`](SparseLu::factor) of a matrix with the skeleton's
    /// pattern runs as a pure numeric refactorization (falling back to
    /// a fresh pivoting factorization if a recycled pivot has become
    /// numerically unacceptable). Clears any stored factorization.
    ///
    /// The seeded analysis supersedes a pending
    /// [`set_ordering`](SparseLu::set_ordering) request whose
    /// permutation differs from the skeleton's: whoever computed the
    /// skeleton fixed its ordering, and subsequent factorizations
    /// (including stability fallbacks) eliminate under it — a stale
    /// explicit request must not make the fallback path diverge from
    /// the refactorization path.
    pub fn seed_symbolic(&mut self, symbolic: Arc<SparseSymbolic>) {
        if self.ordering.as_ref().is_some_and(|p| p[..] != symbolic.colperm[..]) {
            self.ordering = None;
        }
        // Likewise the skeleton's block structure (or lack of one) wins
        // over a pending BTF request, so stability fallbacks re-factor
        // under the blocks the skeleton was analyzed with.
        self.btf = symbolic.btf.clone();
        let n = symbolic.dim();
        self.lx.clear();
        self.lx.resize(symbolic.l_nnz(), 0.0);
        self.ux.clear();
        self.ux.resize(symbolic.u_nnz(), 0.0);
        self.ox.clear();
        self.ox.resize(symbolic.off_nnz(), 0.0);
        self.udiag.clear();
        self.udiag.resize(n, 0.0);
        self.work.clear();
        self.work.resize(n, 0.0);
        self.solve_buf.clear();
        self.solve_buf.resize(n, 0.0);
        self.symbolic = Some(symbolic);
        self.factored = false;
        self.paused = None;
    }

    /// Factors `a`. If `a` shares the pattern of the stored symbolic
    /// skeleton (same `Arc`), the skeleton — fill pattern, pivot order,
    /// traversal order — is replayed numerically with no graph work;
    /// otherwise (or when a recycled pivot is numerically unacceptable)
    /// a full left-looking factorization with threshold partial
    /// pivoting runs and records a fresh skeleton.
    ///
    /// # Errors
    ///
    /// [`NumericError::SingularMatrix`] when a column has no usable
    /// pivot. The workspace is left unfactored in that case and
    /// [`solve_into`](SparseLu::solve_into) fails cleanly.
    pub fn factor(&mut self, a: &SparseMatrix) -> Result<(), NumericError> {
        let same_pattern = self
            .symbolic
            .as_ref()
            .is_some_and(|s| Arc::ptr_eq(s.pattern(), a.pattern()));
        if same_pattern && self.refactor(a).is_ok() {
            return Ok(());
        }
        self.full_factor(a)
    }

    /// Solves `A·x = b` with the stored factors, allocating nothing.
    ///
    /// Takes `&mut self` only for the position-space scratch buffer the
    /// column-permuted path scatters through; the factors themselves
    /// are not modified. Natural-order factorizations substitute
    /// directly into `x`, exactly as before orderings existed.
    ///
    /// # Errors
    ///
    /// [`NumericError::NotFactored`] if no factorization is stored;
    /// [`NumericError::DimensionMismatch`] for wrong-sized `b` or `x`.
    pub fn solve_into(&mut self, b: &[f64], x: &mut [f64]) -> Result<(), NumericError> {
        if !self.factored {
            return Err(NumericError::NotFactored);
        }
        let sym = self.symbolic.as_ref().expect("factored implies symbolic");
        let n = sym.dim();
        if b.len() != n {
            return Err(NumericError::DimensionMismatch { expected: n, actual: b.len() });
        }
        if x.len() != n {
            return Err(NumericError::DimensionMismatch { expected: n, actual: x.len() });
        }
        if sym.permuted {
            // Substitute in pivot/position space, then scatter position
            // k back to original unknown colperm[k].
            let y = &mut self.solve_buf;
            Self::substitute(sym, &self.lx, &self.ux, &self.ox, &self.udiag, b, y);
            for (k, &col) in sym.colperm.iter().enumerate() {
                x[col] = y[k];
            }
        } else {
            Self::substitute(sym, &self.lx, &self.ux, &self.ox, &self.udiag, b, x);
        }
        Ok(())
    }

    /// The permutation-gather + forward/backward substitution shared by
    /// both solve paths: `x = U⁻¹ L⁻¹ P b` in pivot-order coordinates,
    /// block by block.
    ///
    /// Diagonal blocks are processed in **reverse** order (the permuted
    /// matrix is block *upper* triangular): each block runs the usual
    /// forward/backward substitution against its own L/U, and as a
    /// component is finalized its raw off-diagonal coupling entries are
    /// subtracted from the earlier blocks' right-hand sides. With a
    /// single block (every non-BTF skeleton) the loops reduce exactly
    /// to the classic whole-matrix substitution.
    fn substitute(
        sym: &SparseSymbolic,
        lx: &[f64],
        ux: &[f64],
        ox: &[f64],
        udiag: &[f64],
        b: &[f64],
        x: &mut [f64],
    ) {
        // x = P·b.
        for (k, &orig) in sym.rowperm.iter().enumerate() {
            x[k] = b[orig];
        }
        for blk in (0..sym.block_count()).rev() {
            let (s, e) = (sym.block_ptr[blk], sym.block_ptr[blk + 1]);
            // Forward substitution with the block's unit-lower L
            // (column-oriented: entry rows are all > the column).
            for k in s..e {
                let xk = x[k];
                if xk != 0.0 {
                    for p in sym.lp[k]..sym.lp[k + 1] {
                        x[sym.li[p]] -= lx[p] * xk;
                    }
                }
            }
            // Backward substitution with the block's U; a finalized
            // component also retires its couplings into earlier blocks.
            for j in (s..e).rev() {
                let xj = x[j] / udiag[j];
                x[j] = xj;
                if xj != 0.0 {
                    for p in sym.up[j]..sym.up[j + 1] {
                        x[sym.ui[p]] -= ux[p] * xj;
                    }
                    for p in sym.op[j]..sym.op[j + 1] {
                        x[sym.oi[p]] -= ox[p] * xj;
                    }
                }
            }
        }
    }

    /// Full factorization of `a` — the analysis [`factor`](SparseLu::factor)
    /// runs when no usable skeleton is stored, under the same ordering
    /// rules — that stops between columns once the fill reaches
    /// `limit`.
    ///
    /// A factorization that completes is bit-identical to
    /// [`factor`](SparseLu::factor)'s, whatever the limit: the limit is
    /// checked only between columns and changes no arithmetic. A stopped
    /// one keeps its partial factors in the workspace (which stays
    /// unfactored); calling `factor_until_fill` again with the **same
    /// matrix** and a higher limit resumes where it stopped, so an
    /// elimination split over several calls performs exactly the work,
    /// and yields exactly the skeleton, of one uninterrupted run. Any
    /// other factorization, ordering change or seeding discards the
    /// paused state.
    ///
    /// This prices a column ordering without paying for it in full: a
    /// caller that only needs to know whether the fill under some
    /// ordering exceeds a threshold stops as soon as it does.
    ///
    /// # Errors
    ///
    /// [`NumericError::SingularMatrix`] when a column eliminated by this
    /// call has no usable pivot (the workspace is then left unfactored,
    /// with nothing paused). A matrix that only turns singular in a
    /// column beyond the stop point reports
    /// [`FillLimited::Stopped`].
    pub fn factor_until_fill(
        &mut self,
        a: &SparseMatrix,
        limit: usize,
    ) -> Result<FillLimited, NumericError> {
        let mut elim = match self.paused.take() {
            Some(e) if Arc::ptr_eq(&e.pattern, a.pattern()) => e,
            _ => self.begin_elimination(a),
        };
        self.eliminate(a, &mut elim, limit)?;
        if elim.next < a.dim() {
            let fill_at_least = elim.fill();
            self.paused = Some(elim);
            return Ok(FillLimited::Stopped { fill_at_least });
        }
        self.freeze(*elim);
        Ok(FillLimited::Complete)
    }

    /// Full left-looking Gilbert–Peierls factorization with threshold
    /// partial pivoting; records the symbolic skeleton (freshly
    /// allocated and `Arc`-frozen) for subsequent refactorizations.
    fn full_factor(&mut self, a: &SparseMatrix) -> Result<(), NumericError> {
        let mut elim = self.begin_elimination(a);
        self.eliminate(a, &mut elim, usize::MAX)?;
        self.freeze(*elim);
        Ok(())
    }

    /// Sets up a full factorization of `a`: resolves the ordering and
    /// block structure it runs under, drops any stored or paused
    /// factorization and resets the value and scratch buffers.
    fn begin_elimination(&mut self, a: &SparseMatrix) -> Box<Elimination> {
        let n = a.dim();
        let pat = a.pattern();
        // Block-triangular preordering: an explicitly set BTF order of
        // matching dimension wins; otherwise a stability fallback from
        // a seeded skeleton of the same pattern keeps that skeleton's
        // blocks (unless an explicit plain ordering overrides them).
        let btf: Option<Arc<BtfOrder>> = match &self.btf {
            Some(b) if b.dim() == n => Some(Arc::clone(b)),
            _ => match (&self.ordering, &self.symbolic) {
                (Some(perm), _) if perm.len() == n => None,
                (_, Some(sym)) if Arc::ptr_eq(sym.pattern(), pat) => sym.btf.clone(),
                _ => None,
            },
        };
        // Column pre-ordering: the BTF order's composed permutation;
        // else an explicitly set ordering of matching dimension;
        // otherwise a stability fallback from a seeded skeleton of the
        // same pattern keeps that skeleton's ordering (the ordering is
        // a property of the pattern, not the values); otherwise natural
        // order.
        let colperm: Vec<usize> = match (&btf, &self.ordering) {
            (Some(b), _) => b.colperm.clone(),
            (None, Some(perm)) if perm.len() == n => {
                let mut seen = vec![false; n];
                for &c in perm {
                    assert!(
                        c < n && !std::mem::replace(&mut seen[c], true),
                        "ordering is not a permutation of 0..{n}"
                    );
                }
                perm.clone()
            }
            _ => match &self.symbolic {
                Some(sym) if Arc::ptr_eq(sym.pattern(), pat) => sym.colperm.clone(),
                _ => (0..n).collect(),
            },
        };
        let block_ptr: Vec<usize> = match &btf {
            Some(b) => {
                // The order must block-triangularize *this* pattern:
                // every structural entry has to land at or above its
                // column's diagonal block, or the factorization below
                // would silently break triangularity.
                let mut blk_of_pos = vec![0usize; n];
                for blk in 0..b.block_count() {
                    blk_of_pos[b.block_ptr[blk]..b.block_ptr[blk + 1]].fill(blk);
                }
                let mut rpos = vec![0usize; n];
                let mut cpos = vec![0usize; n];
                for k in 0..n {
                    rpos[b.rowperm[k]] = k;
                    cpos[b.colperm[k]] = k;
                }
                for c in 0..n {
                    for &r in &pat.row_idx[pat.col_ptr[c]..pat.col_ptr[c + 1]] {
                        assert!(
                            blk_of_pos[rpos[r]] <= blk_of_pos[cpos[c]],
                            "BTF order does not match the matrix pattern: \
                             entry ({r},{c}) falls below the block diagonal"
                        );
                    }
                }
                b.block_ptr.clone()
            }
            None if n == 0 => vec![0],
            None => vec![0, n],
        };
        self.factored = false;
        self.symbolic = None;
        self.paused = None;

        // Structure vectors are built in the elimination state and
        // frozen into the shared skeleton at the end; only full
        // factorizations (rare on the steady-state path) pay these
        // allocations.
        let mut elim = Box::new(Elimination {
            pattern: Arc::clone(pat),
            btf,
            colperm,
            block_ptr,
            lp: Vec::with_capacity(n + 1),
            li: Vec::with_capacity(pat.nnz()),
            up: Vec::with_capacity(n + 1),
            ui: Vec::with_capacity(pat.nnz()),
            op: Vec::with_capacity(n + 1),
            oi: Vec::new(),
            pinv: vec![EMPTY; n],
            rowperm: vec![EMPTY; n],
            next: 0,
            block: 0,
        });
        elim.lp.push(0);
        elim.up.push(0);
        elim.op.push(0);
        self.lx.clear();
        self.ux.clear();
        self.ox.clear();
        self.udiag.clear();
        self.udiag.resize(n, 0.0);
        self.work.clear();
        self.work.resize(n, 0.0);
        self.flag.clear();
        self.flag.resize(n, 0);
        self.mark = 0;
        elim
    }

    /// Runs elimination steps of `e` until the matrix is done or, with
    /// columns left, the fill has reached `limit`.
    fn eliminate(
        &mut self,
        a: &SparseMatrix,
        e: &mut Elimination,
        limit: usize,
    ) -> Result<(), NumericError> {
        let n = a.dim();
        let pat = Arc::clone(&e.pattern);
        let btf = e.btf.clone();
        while e.next < n {
            // Elimination step j processes original column `col`,
            // inside diagonal block `[s, block end)`.
            let j = e.next;
            let col = e.colperm[j];
            while j >= e.block_ptr[e.block + 1] {
                e.block += 1;
            }
            let s = e.block_ptr[e.block];
            // --- Symbolic: rows reachable from A(:,col) through the
            // DAG of already-computed L columns of *this block*, in
            // topological order. Nodes are *original* rows; a row that
            // is pivotal for step k in [s, j) has children = the rows
            // of L(:,k). Rows pivotal in earlier blocks are leaves:
            // their entries stay raw off-diagonal couplings.
            self.mark += 1;
            self.reach.clear();
            for p in pat.col_ptr[col]..pat.col_ptr[col + 1] {
                let r = pat.row_idx[p];
                if self.flag[r] != self.mark {
                    Self::dfs_from(
                        r,
                        &e.lp,
                        &e.li,
                        &e.pinv,
                        s,
                        &mut self.dfs,
                        &mut self.flag,
                        self.mark,
                        &mut self.reach,
                    );
                }
            }
            // `reach` now holds original rows in reverse topological
            // order (DFS postorder); iterate it backwards for the
            // numeric update.

            // --- Numeric: scatter A(:,col), then eliminate in
            // topological order.
            for p in pat.col_ptr[col]..pat.col_ptr[col + 1] {
                self.work[pat.row_idx[p]] = a.values[p];
            }
            for &r in self.reach.iter().rev() {
                let k = e.pinv[r];
                if k == EMPTY || k < s {
                    continue;
                }
                let ukj = self.work[r];
                if ukj != 0.0 {
                    // x[rows of L(:,k)] -= L(:,k) · ukj. During the
                    // factorization L's row indices are still original
                    // rows (the pivot-order remap happens at the end).
                    let seg = e.lp[k]..e.lp[k + 1];
                    for (row, l) in e.li[seg.clone()].iter().zip(&self.lx[seg]) {
                        self.work[*row] -= l * ukj;
                    }
                }
            }

            // --- Pivot: largest candidate among non-pivotal rows, with
            // preference for the diagonal (original row `col`, which
            // keeps a fill-reducing column ordering effectively
            // symmetric) when it is within DIAG_PREFERENCE of the
            // maximum.
            let mut pivot_row = EMPTY;
            let mut pivot_mag = 0.0;
            for &r in self.reach.iter().rev() {
                if e.pinv[r] == EMPTY {
                    let m = self.work[r].abs();
                    if m > pivot_mag {
                        pivot_mag = m;
                        pivot_row = r;
                    }
                }
            }
            if !pivot_mag.is_finite() || pivot_mag < PIVOT_EPS {
                self.reset_work_and_fail();
                // Report the original column, not the permuted pivot
                // position — callers name the MNA unknown from it.
                return Err(NumericError::SingularMatrix { pivot: col });
            }
            // The preferred pivot row: the matrix diagonal (original
            // row `col`), or under BTF the transversal row the order
            // matched to this column (which is what makes the permuted
            // diagonal zero-free).
            let pref = match &btf {
                Some(b) => b.rowperm[j],
                None => col,
            };
            if pivot_row != pref
                && e.pinv[pref] == EMPTY
                && self.flag[pref] == self.mark
                && self.work[pref].abs() >= DIAG_PREFERENCE * pivot_mag
            {
                pivot_row = pref;
            }
            let ujj = self.work[pivot_row];
            e.pinv[pivot_row] = j;
            e.rowperm[j] = pivot_row;
            self.udiag[j] = ujj;

            // --- Store the column: pivotal rows into U (pivot-order
            // indices, all < j), non-pivotal rows into L (divided by
            // the pivot; indices assigned later rewritten to pivot
            // order as their pivots are chosen — so store original rows
            // here and remap at the end).
            for &r in self.reach.iter().rev() {
                let k = e.pinv[r];
                let v = self.work[r];
                self.work[r] = 0.0; // restore the accumulator
                if r == pivot_row {
                    continue;
                }
                if k != EMPTY && k < s {
                    // Coupling into an earlier diagonal block: stored
                    // raw (never factored), consumed by the block
                    // back-substitution. `k` is final — earlier blocks
                    // are fully pivoted.
                    e.oi.push(k);
                    self.ox.push(v);
                } else if k != EMPTY && k < j {
                    e.ui.push(k);
                    self.ux.push(v);
                } else {
                    // Not yet pivotal: belongs to L. Store the original
                    // row for now.
                    e.li.push(r);
                    self.lx.push(v / ujj);
                }
            }
            e.lp.push(e.li.len());
            e.up.push(e.ui.len());
            e.op.push(e.oi.len());
            e.next += 1;
            if e.fill() >= limit {
                break;
            }
        }
        Ok(())
    }

    /// Completes a finished elimination: remaps L's row indices to
    /// pivot positions, sorts U's columns, and freezes the structure
    /// into the shared skeleton.
    fn freeze(&mut self, e: Elimination) {
        let Elimination {
            pattern,
            btf,
            colperm,
            block_ptr,
            lp,
            mut li,
            up,
            mut ui,
            op,
            oi,
            pinv,
            rowperm,
            ..
        } = e;
        let n = colperm.len();
        // Remap L's row indices from original rows to pivot positions
        // (every row is pivotal by now), and sort each U column by row
        // for a deterministic ascending refactorization order.
        for r in li.iter_mut() {
            *r = pinv[*r];
        }
        for j in 0..n {
            let (lo, hi) = (up[j], up[j + 1]);
            // Insertion sort of the (short) column segment, values in
            // lockstep.
            for i in lo + 1..hi {
                let mut k = i;
                while k > lo && ui[k - 1] > ui[k] {
                    ui.swap(k - 1, k);
                    self.ux.swap(k - 1, k);
                    k -= 1;
                }
            }
        }

        let permuted = colperm.iter().enumerate().any(|(k, &c)| k != c);
        self.solve_buf.clear();
        self.solve_buf.resize(n, 0.0);
        self.symbolic = Some(Arc::new(SparseSymbolic {
            pattern,
            lp,
            li,
            up,
            ui,
            pinv,
            rowperm,
            colperm,
            permuted,
            block_ptr,
            op,
            oi,
            btf,
        }));
        self.factored = true;
    }

    /// Depth-first search from original row `root` through the column
    /// DAG of L, appending finished rows to `reach` (postorder ⇒
    /// `reach` reversed is topological order). Iterative with an
    /// explicit stack — MNA elimination trees can be deep.
    #[allow(clippy::too_many_arguments, clippy::needless_range_loop)]
    fn dfs_from(
        root: usize,
        lp: &[usize],
        li: &[usize],
        pinv: &[usize],
        block_start: usize,
        dfs: &mut Vec<(usize, usize)>,
        flag: &mut [usize],
        mark: usize,
        reach: &mut Vec<usize>,
    ) {
        dfs.clear();
        dfs.push((root, 0));
        flag[root] = mark;
        while let Some((r, child)) = dfs.pop() {
            let k = pinv[r];
            let (lo, hi) = if k == EMPTY || k < block_start {
                // Non-pivotal rows — and rows pivotal in an earlier
                // diagonal block, whose entries stay raw off-diagonal
                // couplings — have no children.
                (0, 0)
            } else {
                (lp[k], lp[k + 1])
            };
            let mut advanced = false;
            for q in lo + child..hi {
                // L's row indices are original rows until the
                // end-of-factor remap, so no permutation lookup here.
                let child_row = li[q];
                if flag[child_row] != mark {
                    // Defer the rest of `r`'s children, descend.
                    dfs.push((r, q + 1 - lo));
                    dfs.push((child_row, 0));
                    flag[child_row] = mark;
                    advanced = true;
                    break;
                }
            }
            if !advanced {
                reach.push(r);
            }
        }
    }

    /// Numeric refactorization: replays the stored (shared) fill
    /// pattern and pivot order against new values with the same
    /// pattern. No graph traversal, no pivot search — a straight sweep
    /// over the skeleton's L/U structure.
    ///
    /// # Errors
    ///
    /// [`NumericError::SingularMatrix`] when a recycled pivot is exactly
    /// unusable, [`NumericError::NotFactored`] when one has decayed
    /// below `REFACTOR_TOL` of its column; the caller
    /// ([`factor`](SparseLu::factor)) falls back to a full
    /// factorization on any error.
    fn refactor(&mut self, a: &SparseMatrix) -> Result<(), NumericError> {
        let n = a.dim();
        let sym = self.symbolic.clone().expect("refactor requires a symbolic skeleton");
        self.factored = false;
        if self.threads > 1 && sym.block_count() > 1 {
            self.refactor_parallel(&sym, a)?;
        } else {
            Self::refactor_range(
                &sym,
                a,
                0..n,
                &mut self.lx,
                &mut self.ux,
                &mut self.ox,
                &mut self.udiag,
                &mut self.work,
            )?;
        }
        self.factored = true;
        Ok(())
    }

    /// Refactors the contiguous column range `cols` (which must cover
    /// whole diagonal blocks) of the skeleton. The value slices are the
    /// range's segments of `lx`/`ux`/`ox`/`udiag` — indexed relative to
    /// `cols.start`'s offsets, so disjoint ranges can run on disjoint
    /// borrows. `work` is a full-dimension accumulator, zeroed on entry
    /// and on exit (including the error exits).
    ///
    /// Because a block's columns read only that block's L/U values and
    /// scatter/gather through `work`, refactoring block ranges on
    /// separate workers with separate accumulators produces exactly the
    /// bits the serial sweep does.
    #[allow(clippy::too_many_arguments)]
    fn refactor_range(
        sym: &SparseSymbolic,
        a: &SparseMatrix,
        cols: Range<usize>,
        lx: &mut [f64],
        ux: &mut [f64],
        ox: &mut [f64],
        udiag: &mut [f64],
        work: &mut [f64],
    ) -> Result<(), NumericError> {
        let pat = a.pattern();
        let (cbase, lbase, ubase, obase) = (
            cols.start,
            sym.lp[cols.start],
            sym.up[cols.start],
            sym.op[cols.start],
        );
        // `work` is indexed by pivot position here; every position
        // touched is restored to zero before the column ends.
        for j in cols {
            // Scatter A(:,colperm[j]) through the row permutation.
            let col = sym.colperm[j];
            for p in pat.col_ptr[col]..pat.col_ptr[col + 1] {
                work[sym.pinv[pat.row_idx[p]]] = a.values[p];
            }
            // Eliminate using the stored U rows (ascending pivot order).
            for p in sym.up[j]..sym.up[j + 1] {
                let k = sym.ui[p];
                let ukj = work[k];
                ux[p - ubase] = ukj;
                if ukj != 0.0 {
                    for q in sym.lp[k]..sym.lp[k + 1] {
                        work[sym.li[q]] -= lx[q - lbase] * ukj;
                    }
                }
            }
            let ujj = work[j];
            // Stability guard: the recycled pivot must still dominate
            // its column to within REFACTOR_TOL.
            let mut colmax = ujj.abs();
            for q in sym.lp[j]..sym.lp[j + 1] {
                colmax = colmax.max(work[sym.li[q]].abs());
            }
            if !colmax.is_finite() || ujj.abs() < PIVOT_EPS || ujj.abs() < REFACTOR_TOL * colmax {
                // Clear the scattered column (the pattern scatter also
                // covers the off-diagonal positions) so the fallback
                // full factorization starts from a clean accumulator.
                work[j] = 0.0;
                for p in pat.col_ptr[col]..pat.col_ptr[col + 1] {
                    work[sym.pinv[pat.row_idx[p]]] = 0.0;
                }
                for p in sym.up[j]..sym.up[j + 1] {
                    work[sym.ui[p]] = 0.0;
                }
                for q in sym.lp[j]..sym.lp[j + 1] {
                    work[sym.li[q]] = 0.0;
                }
                return Err(if !colmax.is_finite() || ujj.abs() < PIVOT_EPS {
                    // Original column space, like the full factorization.
                    NumericError::SingularMatrix { pivot: sym.colperm[j] }
                } else {
                    NumericError::NotFactored
                });
            }
            udiag[j - cbase] = ujj;
            work[j] = 0.0;
            for p in sym.up[j]..sym.up[j + 1] {
                work[sym.ui[p]] = 0.0;
            }
            // Gather the raw off-diagonal couplings of this column.
            for p in sym.op[j]..sym.op[j + 1] {
                ox[p - obase] = work[sym.oi[p]];
                work[sym.oi[p]] = 0.0;
            }
            for q in sym.lp[j]..sym.lp[j + 1] {
                let r = sym.li[q];
                lx[q - lbase] = work[r] / ujj;
                work[r] = 0.0;
            }
        }
        Ok(())
    }

    /// Fans the numeric refactorization of a multi-block skeleton
    /// across scoped worker threads: the diagonal blocks are grouped
    /// into contiguous fill-balanced chunks, the value arrays are
    /// partitioned at the chunk boundaries, and each worker sweeps its
    /// chunk with its own cached full-dimension accumulator. The chunk
    /// partition affects only which thread computes what — every
    /// column's arithmetic is self-contained within its block, so the
    /// results are bit-identical to the serial sweep (and to any other
    /// thread count).
    fn refactor_parallel(
        &mut self,
        sym: &Arc<SparseSymbolic>,
        a: &SparseMatrix,
    ) -> Result<(), NumericError> {
        let n = sym.dim();
        let nb = sym.block_count();
        let workers = self.threads.min(nb);
        let block_cost = |b: usize| {
            let (s, e) = (sym.block_ptr[b], sym.block_ptr[b + 1]);
            (sym.lp[e] - sym.lp[s]) + (sym.up[e] - sym.up[s]) + (sym.op[e] - sym.op[s]) + (e - s)
        };
        let total: usize = (0..nb).map(block_cost).sum();
        let target = total.div_ceil(workers);
        let mut chunks: Vec<Range<usize>> = Vec::new();
        let mut start_block = 0usize;
        let mut acc = 0usize;
        for b in 0..nb {
            acc += block_cost(b);
            if acc >= target && chunks.len() + 1 < workers {
                chunks.push(sym.block_ptr[start_block]..sym.block_ptr[b + 1]);
                start_block = b + 1;
                acc = 0;
            }
        }
        if start_block < nb {
            chunks.push(sym.block_ptr[start_block]..sym.block_ptr[nb]);
        }
        while self.thread_work.len() < chunks.len() {
            self.thread_work.push(Vec::new());
        }
        for w in self.thread_work.iter_mut().take(chunks.len()) {
            if w.len() != n {
                w.clear();
                w.resize(n, 0.0);
            }
        }
        // Partition the value arrays at the chunk boundaries: one
        // column range plus its L/U/off-diagonal/diagonal value slices
        // per worker.
        type FactorPart<'a> =
            (Range<usize>, &'a mut [f64], &'a mut [f64], &'a mut [f64], &'a mut [f64]);
        let mut parts: Vec<FactorPart<'_>> = Vec::with_capacity(chunks.len());
        let (mut lx, mut ux, mut ox, mut ud) =
            (&mut self.lx[..], &mut self.ux[..], &mut self.ox[..], &mut self.udiag[..]);
        for cols in &chunks {
            let (l, lr) = lx.split_at_mut(sym.lp[cols.end] - sym.lp[cols.start]);
            let (u, ur) = ux.split_at_mut(sym.up[cols.end] - sym.up[cols.start]);
            let (o, or) = ox.split_at_mut(sym.op[cols.end] - sym.op[cols.start]);
            let (d, dr) = ud.split_at_mut(cols.end - cols.start);
            parts.push((cols.clone(), l, u, o, d));
            (lx, ux, ox, ud) = (lr, ur, or, dr);
        }
        let results = std::thread::scope(|scope| {
            let sym: &SparseSymbolic = sym;
            let mut handles = Vec::with_capacity(parts.len());
            for ((cols, lx, ux, ox, ud), work) in
                parts.into_iter().zip(self.thread_work.iter_mut())
            {
                handles.push(scope.spawn(move || {
                    let r = Self::refactor_range(sym, a, cols, lx, ux, ox, ud, work);
                    if r.is_err() {
                        // refactor_range clears its own column; a full
                        // re-zero keeps the cached accumulator safe for
                        // reuse regardless.
                        work.fill(0.0);
                    }
                    r
                }));
            }
            handles
                .into_iter()
                .map(|h| h.join().expect("block refactorization worker panicked"))
                .collect::<Vec<_>>()
        });
        for r in results {
            r?;
        }
        Ok(())
    }

    /// Clears accumulator state after a singular full factorization so
    /// a later attempt starts from a clean workspace.
    fn reset_work_and_fail(&mut self) {
        self.work.fill(0.0);
        self.symbolic = None;
        self.factored = false;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Deterministic xorshift PRNG (no rand dependency in unit tests).
    fn rng(seed: u64) -> impl FnMut() -> f64 {
        let mut s = seed | 1;
        move || {
            s ^= s << 13;
            s ^= s >> 7;
            s ^= s << 17;
            (s as f64 / u64::MAX as f64) * 2.0 - 1.0
        }
    }

    fn dense_solve(m: &Matrix, b: &[f64]) -> Vec<f64> {
        crate::LuFactors::factor(m.clone()).unwrap().solve(b).unwrap()
    }

    /// Random banded well-conditioned matrix as a SparseMatrix.
    fn banded(n: usize, band: usize, seed: u64) -> SparseMatrix {
        let mut entries = Vec::new();
        for i in 0..n {
            for j in i.saturating_sub(band)..(i + band + 1).min(n) {
                entries.push((i, j));
            }
        }
        let mut m = SparseMatrix::from_entries(n, &entries);
        let mut next = rng(seed);
        for &(i, j) in &entries {
            m.add(i, j, next());
        }
        for i in 0..n {
            m.add(i, i, 2.0 * (band as f64 + 1.0)); // diagonally dominant
        }
        m
    }

    #[test]
    fn pattern_building_merges_duplicates() {
        let m = SparseMatrix::from_entries(3, &[(0, 0), (0, 0), (2, 1), (1, 2)]);
        assert_eq!(m.nnz(), 3);
        assert_eq!(m.dim(), 3);
        assert!(m.pattern().density() > 0.0);
    }

    #[test]
    fn add_accumulates_and_clear_zeroes() {
        let mut m = SparseMatrix::from_entries(2, &[(0, 0), (1, 1)]);
        m.add(0, 0, 1.5);
        m.add(0, 0, 2.5);
        assert_eq!(m.get(0, 0), 4.0);
        assert_eq!(m.get(0, 1), 0.0); // structural zero
        StampTarget::clear(&mut m);
        assert_eq!(m.get(0, 0), 0.0);
    }

    #[test]
    #[should_panic(expected = "not part of the sparsity pattern")]
    fn add_outside_pattern_panics() {
        let mut m = SparseMatrix::from_entries(2, &[(0, 0)]);
        m.add(1, 0, 1.0);
    }

    #[test]
    fn solves_small_system_with_pivoting() {
        // Leading zero forces an off-diagonal pivot.
        let mut m = SparseMatrix::from_entries(2, &[(0, 1), (1, 0), (1, 1)]);
        m.add(0, 1, 2.0);
        m.add(1, 0, 3.0);
        m.add(1, 1, 1.0);
        let mut lu = SparseLu::new();
        lu.factor(&m).unwrap();
        let mut x = vec![0.0; 2];
        lu.solve_into(&[4.0, 5.0], &mut x).unwrap();
        assert!((x[0] - 1.0).abs() < 1e-12, "{x:?}");
        assert!((x[1] - 2.0).abs() < 1e-12, "{x:?}");
    }

    #[test]
    fn matches_dense_on_banded_systems() {
        for (n, band, seed) in [(5, 1, 7), (40, 2, 11), (120, 3, 13)] {
            let a = banded(n, band, seed);
            let d = a.to_dense();
            let mut next = rng(seed ^ 0xabcdef);
            let b: Vec<f64> = (0..n).map(|_| next()).collect();
            let want = dense_solve(&d, &b);
            let mut lu = SparseLu::new();
            lu.factor(&a).unwrap();
            let mut x = vec![0.0; n];
            lu.solve_into(&b, &mut x).unwrap();
            for (g, w) in x.iter().zip(&want) {
                assert!(
                    (g - w).abs() <= 1e-9 * w.abs().max(1.0),
                    "n={n}: {g} vs {w}"
                );
            }
        }
    }

    #[test]
    fn refactor_reuses_symbolic_and_matches_full_factor() {
        let n = 60;
        let mut a = banded(n, 2, 42);
        let mut lu = SparseLu::new();
        lu.factor(&a).unwrap();

        // New values, same pattern → the refactor path runs (verified
        // by the analyzed-pattern pointer staying put) and must agree
        // with a from-scratch factorization.
        let mut next = rng(4242);
        StampTarget::clear(&mut a);
        let pat = Arc::clone(a.pattern());
        for c in 0..n {
            for p in pat.col_ptr[c]..pat.col_ptr[c + 1] {
                let r = pat.row_idx[p];
                a.add(r, c, next() + if r == c { 12.0 } else { 0.0 });
            }
        }
        lu.factor(&a).unwrap();

        let b: Vec<f64> = (0..n).map(|_| next()).collect();
        let mut x = vec![0.0; n];
        lu.solve_into(&b, &mut x).unwrap();
        let want = dense_solve(&a.to_dense(), &b);
        for (g, w) in x.iter().zip(&want) {
            assert!((g - w).abs() <= 1e-9 * w.abs().max(1.0), "{g} vs {w}");
        }
    }

    #[test]
    fn refactor_falls_back_when_pivot_decays() {
        // First system: strong diagonal. Second system with the same
        // pattern: the (1,1) diagonal collapses so the recycled pivot
        // order is numerically unacceptable — factor() must fall back
        // and still solve correctly.
        let entries = [(0, 0), (0, 1), (1, 0), (1, 1)];
        let mut a = SparseMatrix::from_entries(2, &entries);
        a.add(0, 0, 4.0);
        a.add(1, 1, 4.0);
        a.add(0, 1, 1.0);
        a.add(1, 0, 1.0);
        let mut lu = SparseLu::new();
        lu.factor(&a).unwrap();

        StampTarget::clear(&mut a);
        a.add(0, 0, 1e-14);
        a.add(0, 1, 2.0);
        a.add(1, 0, 3.0);
        a.add(1, 1, 1e-14);
        lu.factor(&a).unwrap();
        let mut x = vec![0.0; 2];
        lu.solve_into(&[4.0, 6.0], &mut x).unwrap();
        assert!((x[0] - 2.0).abs() < 1e-9, "{x:?}");
        assert!((x[1] - 2.0).abs() < 1e-9, "{x:?}");
    }

    #[test]
    fn singular_matrix_rejected_and_state_cleared() {
        let mut m = SparseMatrix::from_entries(2, &[(0, 0), (1, 0)]);
        m.add(0, 0, 1.0);
        m.add(1, 0, 2.0);
        // Column 1 is structurally empty → singular.
        let mut lu = SparseLu::new();
        assert!(matches!(lu.factor(&m), Err(NumericError::SingularMatrix { .. })));
        assert!(!lu.is_factored());
        let mut x = vec![0.0; 2];
        assert!(matches!(lu.solve_into(&[1.0, 2.0], &mut x), Err(NumericError::NotFactored)));

        // The workspace must recover on a good matrix afterwards.
        let mut good = SparseMatrix::from_entries(2, &[(0, 0), (1, 1)]);
        good.add(0, 0, 2.0);
        good.add(1, 1, 4.0);
        lu.factor(&good).unwrap();
        lu.solve_into(&[2.0, 8.0], &mut x).unwrap();
        assert!((x[0] - 1.0).abs() < 1e-12);
        assert!((x[1] - 2.0).abs() < 1e-12);
    }

    #[test]
    fn solve_checks_lengths() {
        let mut m = SparseMatrix::from_entries(2, &[(0, 0), (1, 1)]);
        m.add(0, 0, 1.0);
        m.add(1, 1, 1.0);
        let mut lu = SparseLu::new();
        lu.factor(&m).unwrap();
        let mut x2 = vec![0.0; 2];
        let mut x3 = vec![0.0; 3];
        assert!(lu.solve_into(&[1.0], &mut x2).is_err());
        assert!(lu.solve_into(&[1.0, 2.0], &mut x3).is_err());
    }

    #[test]
    fn dimension_changes_between_factors() {
        let mut lu = SparseLu::new();
        let mut small = SparseMatrix::from_entries(2, &[(0, 0), (1, 1)]);
        small.add(0, 0, 1.0);
        small.add(1, 1, 1.0);
        lu.factor(&small).unwrap();
        assert_eq!(lu.dim(), 2);

        let big = banded(30, 1, 99);
        lu.factor(&big).unwrap();
        assert_eq!(lu.dim(), 30);
        let b: Vec<f64> = (0..30).map(|i| i as f64).collect();
        let mut x = vec![0.0; 30];
        lu.solve_into(&b, &mut x).unwrap();
        let r = big.mul_vec(&x).unwrap();
        for (ri, bi) in r.iter().zip(&b) {
            assert!((ri - bi).abs() < 1e-9, "{ri} vs {bi}");
        }
    }

    /// A workspace seeded with another workspace's symbolic skeleton
    /// must refactor (sharing the `Arc`, computing no new skeleton) and
    /// produce the bit-identical solution the originating workspace
    /// produces.
    #[test]
    fn seeded_symbolic_is_shared_and_bit_identical() {
        let n = 80;
        let a = banded(n, 2, 1234);
        let mut original = SparseLu::new();
        original.factor(&a).unwrap();
        let sym = original.symbolic().expect("factored workspace has a skeleton");

        let mut seeded = SparseLu::new();
        seeded.seed_symbolic(Arc::clone(&sym));
        assert!(!seeded.is_factored(), "seeding must not claim a factorization");
        seeded.factor(&a).unwrap();
        // Still the same skeleton: the seeded factor was a pure
        // numeric refactorization.
        assert!(Arc::ptr_eq(&seeded.symbolic().unwrap(), &sym));

        let mut next = rng(99);
        let b: Vec<f64> = (0..n).map(|_| next()).collect();
        let (mut x0, mut x1) = (vec![0.0; n], vec![0.0; n]);
        original.solve_into(&b, &mut x0).unwrap();
        seeded.solve_into(&b, &mut x1).unwrap();
        for (u, v) in x0.iter().zip(&x1) {
            assert_eq!(u.to_bits(), v.to_bits());
        }

        // Cloning a factored workspace shares the skeleton too.
        let clone = original.clone();
        assert!(Arc::ptr_eq(&clone.symbolic().unwrap(), &sym));
    }

    /// A seeded skeleton whose pivot order is numerically unacceptable
    /// for the new values must fall back to a fresh pivoting
    /// factorization and still solve correctly.
    #[test]
    fn seeded_symbolic_falls_back_on_pivot_decay() {
        let entries = [(0, 0), (0, 1), (1, 0), (1, 1)];
        let mut a = SparseMatrix::from_entries(2, &entries);
        a.add(0, 0, 4.0);
        a.add(1, 1, 4.0);
        a.add(0, 1, 1.0);
        a.add(1, 0, 1.0);
        let mut donor = SparseLu::new();
        donor.factor(&a).unwrap();
        let sym = donor.symbolic().unwrap();

        StampTarget::clear(&mut a);
        a.add(0, 0, 1e-14);
        a.add(0, 1, 2.0);
        a.add(1, 0, 3.0);
        a.add(1, 1, 1e-14);
        let mut seeded = SparseLu::new();
        seeded.seed_symbolic(Arc::clone(&sym));
        seeded.factor(&a).unwrap();
        assert!(
            !Arc::ptr_eq(&seeded.symbolic().unwrap(), &sym),
            "decayed pivots must force a fresh skeleton"
        );
        let mut x = vec![0.0; 2];
        seeded.solve_into(&[4.0, 6.0], &mut x).unwrap();
        assert!((x[0] - 2.0).abs() < 1e-9, "{x:?}");
        assert!((x[1] - 2.0).abs() < 1e-9, "{x:?}");
    }

    /// `merged_with` must produce content-identical patterns to a
    /// from-scratch rebuild over the slot union, and return the same
    /// `Arc` when nothing new is added.
    #[test]
    fn merged_pattern_matches_rebuild() {
        let base_slots = [(0, 0), (1, 1), (2, 2), (1, 0), (0, 1), (2, 1)];
        let base = SparseMatrix::from_entries(3, &base_slots);
        // Nothing new (duplicates + existing): same Arc back.
        let same = base.pattern().merged_with(&[(0, 0), (2, 1)]);
        assert!(Arc::ptr_eq(&same, base.pattern()));

        let extra = [(2, 0), (0, 2), (2, 0)];
        let merged = base.pattern().merged_with(&extra);
        let mut all: Vec<(usize, usize)> = base_slots.to_vec();
        all.extend_from_slice(&extra);
        let rebuilt = SparseMatrix::from_entries(3, &all);
        assert_eq!(&*merged, &**rebuilt.pattern(), "merged pattern content diverged");
    }

    /// 5-point-Laplacian pattern of a `rows × cols` grid (the MNA
    /// shape of a resistive mesh), with diagonally dominant values.
    fn grid(rows: usize, cols: usize, seed: u64) -> SparseMatrix {
        let n = rows * cols;
        let at = |r: usize, c: usize| r * cols + c;
        let mut entries = Vec::new();
        for r in 0..rows {
            for c in 0..cols {
                entries.push((at(r, c), at(r, c)));
                if c + 1 < cols {
                    entries.push((at(r, c), at(r, c + 1)));
                    entries.push((at(r, c + 1), at(r, c)));
                }
                if r + 1 < rows {
                    entries.push((at(r, c), at(r + 1, c)));
                    entries.push((at(r + 1, c), at(r, c)));
                }
            }
        }
        let mut m = SparseMatrix::from_entries(n, &entries);
        let mut next = rng(seed);
        for &(i, j) in &entries {
            if i != j {
                m.add(i, j, -1.0 - 0.1 * next().abs());
            }
        }
        for i in 0..n {
            m.add(i, i, 5.0 + next().abs());
        }
        m
    }

    #[test]
    fn amd_ordering_is_a_permutation_on_degenerate_patterns() {
        let check = |m: &SparseMatrix| {
            let perm = m.pattern().amd_ordering();
            let n = m.dim();
            assert_eq!(perm.len(), n);
            let mut seen = vec![false; n];
            for &c in &perm {
                assert!(c < n && !seen[c], "{perm:?} is not a permutation");
                seen[c] = true;
            }
        };
        // Empty pattern (all columns structurally empty).
        check(&SparseMatrix::from_entries(3, &[]));
        // n = 1, diagonal only.
        check(&SparseMatrix::from_entries(1, &[(0, 0)]));
        // A dense row + a dense column over otherwise empty structure.
        let mut dense = Vec::new();
        for j in 0..6 {
            dense.push((2, j));
            dense.push((j, 4));
        }
        check(&SparseMatrix::from_entries(6, &dense));
        // Unsymmetric pattern.
        check(&SparseMatrix::from_entries(4, &[(0, 3), (1, 0), (2, 2), (3, 1)]));
        check(&grid(5, 7, 3));
    }

    #[test]
    fn amd_ordered_factor_matches_dense_on_grid_and_banded() {
        for (a, seed) in [(grid(6, 6, 21), 77u64), (banded(50, 2, 9), 78)] {
            let n = a.dim();
            let mut next = rng(seed);
            let b: Vec<f64> = (0..n).map(|_| next()).collect();
            let want = dense_solve(&a.to_dense(), &b);
            let mut lu = SparseLu::new();
            lu.set_ordering(a.pattern().amd_ordering());
            lu.factor(&a).unwrap();
            let sym = lu.symbolic().unwrap();
            assert_eq!(sym.ordering(), a.pattern().amd_ordering());
            let mut x = vec![0.0; n];
            lu.solve_into(&b, &mut x).unwrap();
            for (g, w) in x.iter().zip(&want) {
                assert!((g - w).abs() <= 1e-9 * w.abs().max(1.0), "{g} vs {w}");
            }
        }
    }

    #[test]
    fn amd_reduces_grid_fill() {
        // The reduction grows with the grid (natural row-major fill is
        // O(n·√n), minimum degree ≈ O(n·log n)): 1.9× at 16×16, 2.2×
        // at 20×20, 2.7× at 32×32. 24×24 pins a comfortable ≥2×.
        let a = grid(24, 24, 5);
        let mut natural = SparseLu::new();
        natural.factor(&a).unwrap();
        let mut amd = SparseLu::new();
        amd.set_ordering(a.pattern().amd_ordering());
        amd.factor(&a).unwrap();
        let (fn_, fa) = (
            natural.symbolic().unwrap().fill_nnz(),
            amd.symbolic().unwrap().fill_nnz(),
        );
        assert!(
            fa * 2 <= fn_,
            "amd fill {fa} must at least halve natural fill {fn_} on a 24×24 grid"
        );
        assert!(!natural.symbolic().unwrap().is_permuted());
        assert!(amd.symbolic().unwrap().is_permuted());
    }

    /// The fill-limited factorization: finishing under the limit gives
    /// exactly `factor`'s skeleton and fill; reaching the limit stops
    /// between columns with a lower bound of the final fill; resuming
    /// in stages ends bit-identical to one uninterrupted run.
    #[test]
    fn fill_limited_factorization_stops_and_resumes_bit_identically() {
        let a = grid(12, 12, 9);
        let n = a.dim();
        let b: Vec<f64> = (0..n).map(|i| 1.0 + i as f64).collect();
        let mut full = SparseLu::new();
        full.factor(&a).unwrap();
        let want = full.symbolic().unwrap();
        let fill = want.fill_nnz();
        let mut x_want = vec![0.0; n];
        full.solve_into(&b, &mut x_want).unwrap();
        let solve_bits = |lu: &mut SparseLu| {
            let mut x = vec![0.0; n];
            lu.solve_into(&b, &mut x).unwrap();
            x.iter().map(|v| v.to_bits()).collect::<Vec<_>>()
        };
        let same_skeleton = |s: &SparseSymbolic| {
            [&s.li, &s.ui, &s.lp, &s.up, &s.pinv, &s.rowperm]
                == [&want.li, &want.ui, &want.lp, &want.up, &want.pinv, &want.rowperm]
        };

        for limit in [fill + 1, usize::MAX] {
            let mut lu = SparseLu::new();
            assert_eq!(lu.factor_until_fill(&a, limit).unwrap(), FillLimited::Complete);
            assert_eq!(lu.symbolic().unwrap().fill_nnz(), fill);
            assert!(same_skeleton(&lu.symbolic().unwrap()));
            assert_eq!(solve_bits(&mut lu), solve_bits(&mut full));
        }

        let mut lu = SparseLu::new();
        let mut last = 0;
        for limit in [a.nnz(), fill / 2, fill / 2, 3 * fill / 4] {
            match lu.factor_until_fill(&a, limit).unwrap() {
                FillLimited::Stopped { fill_at_least } => {
                    assert!(fill_at_least >= limit && fill_at_least < fill, "{fill_at_least}");
                    assert!(fill_at_least > last, "a resumed call eliminates at least a column");
                    last = fill_at_least;
                }
                FillLimited::Complete => panic!("limit {limit} < fill {fill} must stop"),
            }
            assert!(!lu.is_factored());
            assert!(lu.solve_into(&b, &mut vec![0.0; n]).is_err());
        }
        assert_eq!(lu.factor_until_fill(&a, usize::MAX).unwrap(), FillLimited::Complete);
        assert!(same_skeleton(&lu.symbolic().unwrap()));
        assert_eq!(solve_bits(&mut lu), solve_bits(&mut full));

        // A plain factor (or any ordering request) discards a paused
        // elimination rather than finishing it under stale settings.
        let mut lu = SparseLu::new();
        assert!(matches!(lu.factor_until_fill(&a, fill / 2), Ok(FillLimited::Stopped { .. })));
        lu.set_ordering(a.pattern().amd_ordering());
        assert_eq!(lu.factor_until_fill(&a, usize::MAX).unwrap(), FillLimited::Complete);
        assert!(lu.symbolic().unwrap().is_permuted());
        let mut lu = SparseLu::new();
        assert!(matches!(lu.factor_until_fill(&a, fill / 2), Ok(FillLimited::Stopped { .. })));
        lu.factor(&a).unwrap();
        assert!(same_skeleton(&lu.symbolic().unwrap()));
    }

    /// An ordered factorization must refactor (same skeleton, same
    /// ordering) on new values with the same pattern, and a seeded
    /// workspace must solve bit-identically to the donor.
    #[test]
    fn ordered_refactor_and_seeding_keep_the_ordering() {
        let mut a = grid(8, 8, 31);
        let n = a.dim();
        let mut lu = SparseLu::new();
        lu.set_ordering(a.pattern().amd_ordering());
        lu.factor(&a).unwrap();
        let sym = lu.symbolic().unwrap();
        assert!(sym.is_permuted());

        // New values, same pattern → refactor path, same skeleton.
        let pat = Arc::clone(a.pattern());
        StampTarget::clear(&mut a);
        let mut next = rng(131);
        for c in 0..n {
            for p in pat.col_ptr[c]..pat.col_ptr[c + 1] {
                let r = pat.row_idx[p];
                a.add(r, c, next() + if r == c { 9.0 } else { 0.0 });
            }
        }
        lu.factor(&a).unwrap();
        assert!(Arc::ptr_eq(&lu.symbolic().unwrap(), &sym), "refactor must keep the skeleton");

        let b: Vec<f64> = (0..n).map(|_| next()).collect();
        let want = dense_solve(&a.to_dense(), &b);
        let mut x = vec![0.0; n];
        lu.solve_into(&b, &mut x).unwrap();
        for (g, w) in x.iter().zip(&want) {
            assert!((g - w).abs() <= 1e-9 * w.abs().max(1.0), "{g} vs {w}");
        }

        // A seeded workspace (no ordering set of its own) inherits the
        // permuted skeleton and solves bit-identically.
        let mut seeded = SparseLu::new();
        seeded.seed_symbolic(Arc::clone(&sym));
        seeded.factor(&a).unwrap();
        assert!(Arc::ptr_eq(&seeded.symbolic().unwrap(), &sym));
        let mut y = vec![0.0; n];
        seeded.solve_into(&b, &mut y).unwrap();
        for (u, v) in x.iter().zip(&y) {
            assert_eq!(u.to_bits(), v.to_bits());
        }
    }

    /// Requesting a different ordering on an already-factored workspace
    /// must not be silently ignored by the same-pattern refactor fast
    /// path: the next factor re-analyzes under the new permutation.
    #[test]
    fn set_ordering_overrides_a_stored_skeleton() {
        let a = grid(6, 6, 11);
        let mut lu = SparseLu::new();
        lu.factor(&a).unwrap();
        assert!(!lu.symbolic().unwrap().is_permuted());

        let perm = a.pattern().amd_ordering();
        lu.set_ordering(perm.clone());
        assert!(!lu.is_factored(), "a differing ordering drops the stored factorization");
        lu.factor(&a).unwrap();
        assert_eq!(lu.symbolic().unwrap().ordering(), perm);

        // Re-requesting the ordering already in use keeps the skeleton
        // (and the factorization).
        let sym = lu.symbolic().unwrap();
        lu.set_ordering(perm);
        assert!(lu.is_factored());
        assert!(Arc::ptr_eq(&lu.symbolic().unwrap(), &sym));

        let b: Vec<f64> = (0..a.dim()).map(|i| (i as f64).sin()).collect();
        let want = dense_solve(&a.to_dense(), &b);
        let mut x = vec![0.0; a.dim()];
        lu.solve_into(&b, &mut x).unwrap();
        for (g, w) in x.iter().zip(&want) {
            assert!((g - w).abs() <= 1e-9 * w.abs().max(1.0), "{g} vs {w}");
        }
    }

    #[test]
    #[should_panic(expected = "not a permutation")]
    fn invalid_ordering_is_rejected() {
        let mut m = SparseMatrix::from_entries(2, &[(0, 0), (1, 1)]);
        m.add(0, 0, 1.0);
        m.add(1, 1, 1.0);
        let mut lu = SparseLu::new();
        lu.set_ordering(vec![0, 0]);
        let _ = lu.factor(&m);
    }

    #[test]
    fn ladder_like_mna_pattern_has_low_fill() {
        // Tridiagonal + one dense-ish source branch row, mimicking the
        // ladder macro's MNA structure; the point: factor + solve work
        // and the residual is tiny at a size dense LU would feel.
        let n = 400;
        let mut entries = Vec::new();
        for i in 0..n - 1 {
            entries.push((i, i));
            if i > 0 {
                entries.push((i, i - 1));
                entries.push((i - 1, i));
            }
        }
        // Branch row couples node 0 and the branch unknown n-1.
        entries.push((n - 1, 0));
        entries.push((0, n - 1));
        entries.push((n - 1, n - 1));
        let mut m = SparseMatrix::from_entries(n, &entries);
        let mut next = rng(17);
        for i in 0..n - 1 {
            m.add(i, i, 4.0 + next().abs());
            if i > 0 {
                m.add(i, i - 1, -1.0);
                m.add(i - 1, i, -1.0);
            }
        }
        m.add(n - 1, 0, 1.0);
        m.add(0, n - 1, 1.0);
        m.add(n - 1, n - 1, 0.5);
        let b: Vec<f64> = (0..n).map(|_| next()).collect();
        let mut lu = SparseLu::new();
        lu.factor(&m).unwrap();
        let mut x = vec![0.0; n];
        lu.solve_into(&b, &mut x).unwrap();
        let r = m.mul_vec(&x).unwrap();
        let resid =
            r.iter().zip(&b).map(|(ri, bi)| (ri - bi).abs()).fold(0.0_f64, f64::max);
        assert!(resid < 1e-9, "residual {resid}");
    }

    /// A cascade of dense `bs`-sized diagonal blocks where each block
    /// feeds the previous one through a single coupling entry — the
    /// sparse analogue of a chain of amplifier stages. Block upper
    /// triangular in natural order, so BTF must find `count` blocks.
    fn block_cascade(count: usize, bs: usize, seed: u64) -> SparseMatrix {
        let n = count * bs;
        let mut entries = Vec::new();
        for blk in 0..count {
            let s = blk * bs;
            for r in 0..bs {
                for c in 0..bs {
                    entries.push((s + r, s + c));
                }
            }
            if blk > 0 {
                // Coupling from this block's first column up into the
                // previous block's last row.
                entries.push((s - 1, s));
            }
        }
        let mut m = SparseMatrix::from_entries(n, &entries);
        let mut next = rng(seed);
        for &(r, c) in &entries {
            m.add(r, c, next());
        }
        for i in 0..n {
            m.add(i, i, 3.0 * bs as f64);
        }
        m
    }

    #[test]
    fn btf_factor_matches_dense_on_block_cascade() {
        for (count, bs, seed) in [(6, 4, 3), (12, 7, 91), (30, 3, 55)] {
            let a = block_cascade(count, bs, seed);
            let n = a.dim();
            let order = a.pattern().btf_order().expect("structurally nonsingular");
            assert_eq!(order.block_count(), count, "cascade should condense per stage");
            let mut next = rng(seed ^ 0x5eed);
            let b: Vec<f64> = (0..n).map(|_| next()).collect();
            let want = dense_solve(&a.to_dense(), &b);
            let mut lu = SparseLu::new();
            lu.set_btf_order(Arc::new(order));
            lu.factor(&a).unwrap();
            let sym = lu.symbolic().unwrap();
            assert_eq!(sym.block_count(), count);
            assert!(sym.off_nnz() > 0, "cascade couplings must be stored off-diagonal");
            let mut x = vec![0.0; n];
            lu.solve_into(&b, &mut x).unwrap();
            for (g, w) in x.iter().zip(&want) {
                assert!(
                    (g - w).abs() <= 1e-9 * w.abs().max(1.0),
                    "count={count} bs={bs}: {g} vs {w}"
                );
            }
        }
    }

    #[test]
    fn btf_refactor_matches_full_factor_and_is_thread_invariant() {
        let (count, bs) = (10, 5);
        let mut a = block_cascade(count, bs, 77);
        let n = a.dim();
        let order = Arc::new(a.pattern().btf_order().unwrap());

        let mut lu = SparseLu::new();
        lu.set_btf_order(Arc::clone(&order));
        lu.factor(&a).unwrap();
        let sym = lu.symbolic().unwrap();

        // Restamp new values on the same pattern → refactor path.
        let mut next = rng(0xbeef);
        StampTarget::clear(&mut a);
        let pat = Arc::clone(a.pattern());
        for c in 0..n {
            for p in pat.col_ptr[c]..pat.col_ptr[c + 1] {
                let r = pat.row_idx[p];
                a.add(r, c, next() + if r == c { 20.0 } else { 0.0 });
            }
        }
        let b: Vec<f64> = (0..n).map(|_| next()).collect();

        // Serial refactor in the original workspace.
        lu.factor(&a).unwrap();
        assert!(
            Arc::ptr_eq(&lu.symbolic().unwrap(), &sym),
            "same pattern must replay the skeleton"
        );
        let mut x1 = vec![0.0; n];
        lu.solve_into(&b, &mut x1).unwrap();

        // From-scratch BTF factorization must agree to the last bit
        // with the refactor replay of the same values... not required
        // in general, but threads 1 vs N over the same skeleton is:
        for threads in [2usize, 4, 16] {
            let mut lut = SparseLu::new();
            lut.seed_symbolic(Arc::clone(&sym));
            lut.set_threads(threads);
            lut.factor(&a).unwrap();
            let mut xt = vec![0.0; n];
            lut.solve_into(&b, &mut xt).unwrap();
            for (i, (p, q)) in x1.iter().zip(&xt).enumerate() {
                assert_eq!(
                    p.to_bits(),
                    q.to_bits(),
                    "threads={threads} diverged at component {i}: {p} vs {q}"
                );
            }
        }

        // And the dense reference keeps everyone honest.
        let want = dense_solve(&a.to_dense(), &b);
        for (g, w) in x1.iter().zip(&want) {
            assert!((g - w).abs() <= 1e-9 * w.abs().max(1.0), "{g} vs {w}");
        }
    }

    #[test]
    fn btf_single_block_is_bit_identical_to_plain_ordering() {
        // A fully coupled (single-SCC) banded matrix: BTF degenerates
        // to one block whose local AMD is the same permutation the
        // plain AMD path uses — the factorization and solve must be
        // bit-for-bit the path that existed before BTF.
        let n = 80;
        let a = banded(n, 2, 23);
        let order = a.pattern().btf_order().unwrap();
        assert_eq!(order.block_count(), 1);
        let amd = a.pattern().amd_ordering();
        assert_eq!(order.colperm(), &amd[..], "single-block local AMD = global AMD");

        let mut next = rng(0x0dd);
        let b: Vec<f64> = (0..n).map(|_| next()).collect();

        let mut plain = SparseLu::new();
        plain.set_ordering(amd);
        plain.factor(&a).unwrap();
        let mut xp = vec![0.0; n];
        plain.solve_into(&b, &mut xp).unwrap();

        let mut btf = SparseLu::new();
        btf.set_btf_order(Arc::new(order));
        btf.set_threads(8); // single block: must stay on the serial path
        btf.factor(&a).unwrap();
        assert_eq!(btf.symbolic().unwrap().fill_nnz(), plain.symbolic().unwrap().fill_nnz());
        let mut xb = vec![0.0; n];
        btf.solve_into(&b, &mut xb).unwrap();

        for (p, q) in xp.iter().zip(&xb) {
            assert_eq!(p.to_bits(), q.to_bits(), "{p} vs {q}");
        }
    }

    #[test]
    fn btf_parallel_refactor_falls_back_on_decayed_pivot() {
        // Factor a healthy cascade, then restamp values that flip a
        // block's pivot dominance; the refactor (serial and parallel)
        // must reject the stale pivot and the fallback full
        // factorization must still produce a correct solve.
        let (count, bs) = (4, 3);
        let mut a = block_cascade(count, bs, 5);
        let n = a.dim();
        let order = Arc::new(a.pattern().btf_order().unwrap());
        let mut lu = SparseLu::new();
        lu.set_btf_order(Arc::clone(&order));
        lu.set_threads(4);
        lu.factor(&a).unwrap();

        let pat = Arc::clone(a.pattern());
        StampTarget::clear(&mut a);
        let mut next = rng(0xfade);
        for c in 0..n {
            for p in pat.col_ptr[c]..pat.col_ptr[c + 1] {
                let r = pat.row_idx[p];
                // Strong *off*-diagonal values, weak diagonal: the
                // recycled diagonal-preference pivots decay.
                m_add_scaled(&mut a, r, c, next(), r == c);
            }
        }
        let b: Vec<f64> = (0..n).map(|_| next()).collect();
        lu.factor(&a).unwrap();
        let mut x = vec![0.0; n];
        lu.solve_into(&b, &mut x).unwrap();
        let want = dense_solve(&a.to_dense(), &b);
        for (g, w) in x.iter().zip(&want) {
            assert!((g - w).abs() <= 1e-8 * w.abs().max(1.0), "{g} vs {w}");
        }
    }

    fn m_add_scaled(m: &mut SparseMatrix, r: usize, c: usize, v: f64, diag: bool) {
        if diag {
            m.add(r, c, v * 1e-10);
        } else {
            m.add(r, c, 10.0 + v);
        }
    }
}

