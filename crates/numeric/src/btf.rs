//! Block-triangular form (BTF) preordering for sparse LU.
//!
//! Circuit matrices are rarely irreducible: a cascade of amplifier
//! stages, a flattened `.subckt` hierarchy, or any macro whose signal
//! flow is mostly one-way produces an MNA matrix that a row/column
//! permutation can bring to *block upper triangular* form
//!
//! ```text
//!         ┌ B00 B01 B02 ┐
//! P·A·Q = │     B11 B12 │
//!         └         B22 ┘
//! ```
//!
//! where only the diagonal blocks `Bkk` need factoring — the
//! off-diagonal blocks enter the triangular solves unchanged. This is
//! the decomposition KLU applies to every circuit matrix; it bounds
//! fill by the sum of the per-block fills (never worse than a global
//! ordering restricted to the blocks) and makes the diagonal blocks an
//! embarrassingly parallel factorization workload.
//!
//! The pipeline, per Duff & Reid:
//!
//! 1. **Maximum transversal** ([`SparsePattern::max_transversal`]) — an
//!    MC21-style augmenting-path bipartite matching that pairs every
//!    column with a distinct row holding a structural entry, i.e. a row
//!    permutation putting a zero-free diagonal on the pattern. Fails
//!    (returns `None`) iff the pattern is structurally singular.
//! 2. **SCC condensation** — Tarjan's algorithm on the directed graph
//!    whose edge `c → c'` exists when column `c` has an entry in the
//!    row matched to `c'`. The strongly connected components, laid out
//!    in Tarjan's emission order (reverse topological), are exactly the
//!    diagonal blocks of the finest block-triangular form.
//! 3. **Per-block AMD** — each diagonal block of size ≥ 2 gets its own
//!    [`SparsePattern::amd_ordering`] run on the block's local
//!    subpattern; the local permutation is applied to the row and
//!    column segment *identically*, which preserves both the matched
//!    (zero-free) diagonal and the block-triangular envelope.
//!
//! The result is a [`BtfOrder`]: composed row/column permutations plus
//! block boundaries, consumed by `SparseLu::set_btf_order` to restrict
//! factorization to the diagonal blocks. Steps 1–2
//! ([`SparsePattern::btf_condensation`]) cost a few linear passes and
//! already fix every block boundary; step 3
//! ([`SparsePattern::btf_refine`]) costs about one AMD run over the
//! nontrivial blocks, so a caller deciding *whether* to use BTF decides
//! on the condensation and refines only the order it will factor.

use crate::sparse::SparsePattern;

/// Marker for "unmatched" in the transversal arrays.
const UNMATCHED: usize = usize::MAX;

impl SparsePattern {
    /// Computes a maximum transversal: a matching `colmatch[c] = r`
    /// pairing every column `c` with a distinct row `r` such that
    /// `(r, c)` is a structural entry — equivalently, a row permutation
    /// that puts a zero-free diagonal on the pattern.
    ///
    /// Returns `None` when no complete matching exists, i.e. the
    /// pattern is **structurally singular** (every numeric matrix with
    /// this pattern is singular).
    ///
    /// This is Duff's MC21 algorithm: a cheap greedy assignment pass,
    /// then one augmenting-path depth-first search per still-unmatched
    /// column. Deterministic — ties resolve in ascending row order.
    pub fn max_transversal(&self) -> Option<Vec<usize>> {
        let n = self.n;
        let mut colmatch = vec![UNMATCHED; n];
        let mut rowmatch = vec![UNMATCHED; n];

        // Cheap pass: take the first free row in each column.
        for (c, cm) in colmatch.iter_mut().enumerate() {
            for &r in &self.row_idx[self.col_ptr[c]..self.col_ptr[c + 1]] {
                if rowmatch[r] == UNMATCHED {
                    rowmatch[r] = c;
                    *cm = r;
                    break;
                }
            }
        }

        // Augmenting-path pass for the remaining free columns. The
        // `visited` stamp prevents revisiting a column within one
        // root's search; `col_stack`/`pos_stack`/`row_used` form an
        // explicit DFS stack (columns, scan positions, and the row by
        // which each stacked column was entered).
        let mut visited = vec![UNMATCHED; n];
        let mut col_stack = Vec::with_capacity(n);
        let mut pos_stack: Vec<usize> = Vec::with_capacity(n);
        let mut row_used = Vec::with_capacity(n);
        for root in 0..n {
            if colmatch[root] != UNMATCHED {
                continue;
            }
            col_stack.clear();
            pos_stack.clear();
            row_used.clear();
            col_stack.push(root);
            pos_stack.push(self.col_ptr[root]);
            row_used.push(UNMATCHED);
            visited[root] = root;
            let mut augmented = false;
            'dfs: while let Some(&c) = col_stack.last() {
                let end = self.col_ptr[c + 1];
                let pos = pos_stack.last_mut().expect("stacks move together");
                while *pos < end {
                    let r = self.row_idx[*pos];
                    *pos += 1;
                    let owner = rowmatch[r];
                    if owner == UNMATCHED {
                        // Free row found: augment along the stack.
                        *row_used.last_mut().expect("stacks move together") = r;
                        for k in (0..col_stack.len()).rev() {
                            let col = col_stack[k];
                            let row = row_used[k];
                            rowmatch[row] = col;
                            colmatch[col] = row;
                        }
                        augmented = true;
                        break 'dfs;
                    }
                    if visited[owner] != root {
                        visited[owner] = root;
                        *row_used.last_mut().expect("stacks move together") = r;
                        col_stack.push(owner);
                        pos_stack.push(self.col_ptr[owner]);
                        row_used.push(UNMATCHED);
                        continue 'dfs;
                    }
                }
                col_stack.pop();
                pos_stack.pop();
                row_used.pop();
            }
            if !augmented {
                // A column with no augmenting path certifies a
                // structurally singular pattern (König/Hall).
                return None;
            }
        }
        Some(colmatch)
    }

    /// Computes the full block-triangular preordering: maximum
    /// transversal, Tarjan SCC condensation, and a fill-reducing AMD
    /// ordering local to each diagonal block — that is,
    /// [`btf_condensation`](SparsePattern::btf_condensation) refined by
    /// [`btf_refine`](SparsePattern::btf_refine).
    ///
    /// Returns `None` when the pattern is structurally singular (no
    /// zero-free diagonal exists).
    pub fn btf_order(&self) -> Option<BtfOrder> {
        self.btf_condensation().map(|order| self.btf_refine(order))
    }

    /// The first, cheap stage of [`btf_order`](SparsePattern::btf_order):
    /// maximum transversal plus SCC condensation, without the per-block
    /// AMD refinement. The block structure (`block_ptr`, hence every
    /// block count) is already final; within each block, columns sit in
    /// ascending original order. Callers that only need to know whether
    /// the condensation found blocks worth exploiting decide here and
    /// pay for [`btf_refine`](SparsePattern::btf_refine) only when the
    /// order will actually be factored.
    ///
    /// Returns `None` when the pattern is structurally singular.
    pub fn btf_condensation(&self) -> Option<BtfOrder> {
        let n = self.n;
        let colmatch = self.max_transversal()?;
        if n == 0 {
            return Some(BtfOrder { rowperm: Vec::new(), colperm: Vec::new(), block_ptr: vec![0] });
        }

        // Tarjan's SCC algorithm (iterative) on column vertices; the
        // successor set of column c is { column matched to row r : r in
        // pattern column c }. Components are emitted successors-first
        // (reverse topological), so laying them out in emission order
        // yields a block *upper* triangular permuted matrix.
        let mut rowmatch = vec![UNMATCHED; n];
        for (c, &r) in colmatch.iter().enumerate() {
            rowmatch[r] = c;
        }
        const UNSET: usize = usize::MAX;
        let mut index = vec![UNSET; n];
        let mut lowlink = vec![0usize; n];
        let mut on_stack = vec![false; n];
        let mut tarjan_stack: Vec<usize> = Vec::with_capacity(n);
        let mut call_stack: Vec<(usize, usize)> = Vec::with_capacity(n);
        let mut next_index = 0usize;
        let mut order: Vec<usize> = Vec::with_capacity(n);
        let mut block_ptr: Vec<usize> = vec![0];

        for start in 0..n {
            if index[start] != UNSET {
                continue;
            }
            call_stack.push((start, self.col_ptr[start]));
            index[start] = next_index;
            lowlink[start] = next_index;
            next_index += 1;
            on_stack[start] = true;
            tarjan_stack.push(start);
            while let Some(&mut (v, ref mut pos)) = call_stack.last_mut() {
                let end = self.col_ptr[v + 1];
                let mut descended = false;
                while *pos < end {
                    let w = rowmatch[self.row_idx[*pos]];
                    *pos += 1;
                    if index[w] == UNSET {
                        call_stack.push((w, self.col_ptr[w]));
                        index[w] = next_index;
                        lowlink[w] = next_index;
                        next_index += 1;
                        on_stack[w] = true;
                        tarjan_stack.push(w);
                        descended = true;
                        break;
                    } else if on_stack[w] && index[w] < lowlink[v] {
                        lowlink[v] = index[w];
                    }
                }
                if descended {
                    continue;
                }
                call_stack.pop();
                if let Some(&(parent, _)) = call_stack.last() {
                    if lowlink[v] < lowlink[parent] {
                        lowlink[parent] = lowlink[v];
                    }
                }
                if lowlink[v] == index[v] {
                    // Pop one complete component; sort ascending for a
                    // deterministic within-block layout.
                    let first = tarjan_stack
                        .iter()
                        .rposition(|&w| w == v)
                        .expect("v is on its own component stack");
                    let mut scc: Vec<usize> = tarjan_stack.split_off(first);
                    for &w in &scc {
                        on_stack[w] = false;
                    }
                    scc.sort_unstable();
                    order.extend_from_slice(&scc);
                    block_ptr.push(order.len());
                }
            }
        }
        debug_assert_eq!(order.len(), n);

        // Compose the global permutations: column k of the permuted
        // matrix is original column order[k]; its matched row goes to
        // position k so the zero-free diagonal survives.
        let rowperm: Vec<usize> = order.iter().map(|&c| colmatch[c]).collect();
        Some(BtfOrder { rowperm, colperm: order, block_ptr })
    }

    /// The second stage of [`btf_order`](SparsePattern::btf_order):
    /// reorders each diagonal block of a condensation of this pattern
    /// for fill, applying one local AMD permutation to the block's row
    /// and column segments (keeps matched pairs together, so the
    /// diagonal stays zero-free and the envelope stays triangular).
    /// Block boundaries are unchanged.
    ///
    /// `order` must be this pattern's
    /// [`btf_condensation`](SparsePattern::btf_condensation).
    pub fn btf_refine(&self, order: BtfOrder) -> BtfOrder {
        let BtfOrder { mut rowperm, mut colperm, block_ptr } = order;
        // Position of each original row on the permuted diagonal: the
        // matched row of the column at position k sits at k.
        let mut rpos = vec![0usize; self.n];
        for (k, &r) in rowperm.iter().enumerate() {
            rpos[r] = k;
        }
        for b in 0..block_ptr.len() - 1 {
            let (s, e) = (block_ptr[b], block_ptr[b + 1]);
            let bs = e - s;
            if bs < 2 {
                continue;
            }
            let mut entries: Vec<(usize, usize)> = Vec::new();
            for (k, &c) in colperm.iter().enumerate().take(e).skip(s) {
                for &r in &self.row_idx[self.col_ptr[c]..self.col_ptr[c + 1]] {
                    let kk = rpos[r];
                    if kk >= s && kk < e {
                        entries.push((kk - s, k - s));
                    }
                }
            }
            let local = crate::sparse::SparseMatrix::from_entries(bs, &entries);
            let perm = local.pattern().amd_ordering();
            let old_cols: Vec<usize> = (s..e).map(|k| colperm[k]).collect();
            let old_rows: Vec<usize> = (s..e).map(|k| rowperm[k]).collect();
            for (i, &p) in perm.iter().enumerate() {
                colperm[s + i] = old_cols[p];
                rowperm[s + i] = old_rows[p];
            }
        }
        BtfOrder { rowperm, colperm, block_ptr }
    }
}

/// A block-triangular preordering of a square sparse pattern: composed
/// row/column permutations plus diagonal-block boundaries.
///
/// Position `k` of the permuted matrix holds original column
/// `colperm[k]`, with original row `rowperm[k]` brought to the
/// diagonal; `P·A·Q` is block upper triangular with diagonal blocks
/// `block_ptr[b]..block_ptr[b+1]`, each carrying a zero-free diagonal
/// and — once refined by [`SparsePattern::btf_refine`] — a local
/// fill-reducing ordering.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BtfOrder {
    pub(crate) rowperm: Vec<usize>,
    pub(crate) colperm: Vec<usize>,
    pub(crate) block_ptr: Vec<usize>,
}

impl BtfOrder {
    /// Matrix dimension.
    pub fn dim(&self) -> usize {
        self.colperm.len()
    }

    /// The composed row permutation: original row `rowperm[k]` sits on
    /// the diagonal at position `k` of the permuted matrix.
    pub fn rowperm(&self) -> &[usize] {
        &self.rowperm
    }

    /// The composed column permutation: position `k` holds original
    /// column `colperm[k]`.
    pub fn colperm(&self) -> &[usize] {
        &self.colperm
    }

    /// Diagonal-block boundaries: block `b` spans permuted positions
    /// `block_ptr()[b]..block_ptr()[b+1]`; always starts with 0 and
    /// ends with `dim()`.
    pub fn block_ptr(&self) -> &[usize] {
        &self.block_ptr
    }

    /// Number of diagonal blocks.
    pub fn block_count(&self) -> usize {
        self.block_ptr.len() - 1
    }

    /// Number of diagonal blocks of size ≥ 2 — the blocks that actually
    /// require factorization work (1×1 blocks are scalar divisions).
    pub fn nontrivial_blocks(&self) -> usize {
        (0..self.block_count())
            .filter(|&b| self.block_ptr[b + 1] - self.block_ptr[b] >= 2)
            .count()
    }

    /// Size of the largest diagonal block.
    pub fn largest_block(&self) -> usize {
        (0..self.block_count())
            .map(|b| self.block_ptr[b + 1] - self.block_ptr[b])
            .max()
            .unwrap_or(0)
    }
}

#[cfg(test)]
mod tests {
    use crate::sparse::SparseMatrix;

    fn pattern(n: usize, entries: &[(usize, usize)]) -> SparseMatrix {
        SparseMatrix::from_entries(n, entries)
    }

    #[test]
    fn transversal_on_diagonal_is_identity() {
        let m = pattern(4, &[(0, 0), (1, 1), (2, 2), (3, 3)]);
        assert_eq!(m.pattern().max_transversal(), Some(vec![0, 1, 2, 3]));
    }

    #[test]
    fn transversal_needs_augmenting_path() {
        // Column 0 can match rows {0,1}; column 1 only row 0; the cheap
        // pass gives row 0 to column 0, forcing an augmenting path.
        let m = pattern(2, &[(0, 0), (1, 0), (0, 1)]);
        let t = m.pattern().max_transversal().expect("structurally nonsingular");
        assert_eq!(t, vec![1, 0]);
    }

    #[test]
    fn transversal_detects_structural_singularity() {
        // Two columns share the single row 0: no complete matching.
        let m = pattern(2, &[(0, 0), (0, 1)]);
        assert_eq!(m.pattern().max_transversal(), None);
        // Empty column.
        let m = pattern(3, &[(0, 0), (1, 1), (0, 2), (1, 2)]);
        assert_eq!(m.pattern().max_transversal(), None);
    }

    #[test]
    fn btf_of_diagonal_is_n_blocks() {
        let m = pattern(5, &[(0, 0), (1, 1), (2, 2), (3, 3), (4, 4)]);
        let b = m.pattern().btf_order().unwrap();
        assert_eq!(b.block_count(), 5);
        assert_eq!(b.nontrivial_blocks(), 0);
        assert_eq!(b.largest_block(), 1);
    }

    #[test]
    fn btf_of_dense_is_one_block() {
        let mut entries = Vec::new();
        for r in 0..4 {
            for c in 0..4 {
                entries.push((r, c));
            }
        }
        let m = pattern(4, &entries);
        let b = m.pattern().btf_order().unwrap();
        assert_eq!(b.block_count(), 1);
        assert_eq!(b.largest_block(), 4);
    }

    #[test]
    fn btf_degenerate_sizes() {
        let b = pattern(0, &[]).pattern().btf_order().unwrap();
        assert_eq!(b.block_count(), 0);
        assert_eq!(b.dim(), 0);
        let b = pattern(1, &[(0, 0)]).pattern().btf_order().unwrap();
        assert_eq!(b.block_count(), 1);
        assert_eq!(b.block_ptr(), &[0, 1]);
    }

    #[test]
    fn condensation_fixes_the_block_counts_of_the_full_order() {
        // Two coupled 3×3 cycles plus a lone diagonal: the refinement
        // may reorder inside the cycles but never moves a boundary.
        let m = pattern(
            7,
            &[
                (0, 0),
                (1, 0),
                (1, 1),
                (2, 1),
                (2, 2),
                (0, 2),
                (3, 3),
                (4, 3),
                (4, 4),
                (5, 4),
                (5, 5),
                (3, 5),
                (2, 3),
                (6, 6),
                (6, 0),
            ],
        );
        let p = m.pattern();
        let condensation = p.btf_condensation().unwrap();
        let full = p.btf_order().unwrap();
        assert_eq!(condensation.block_ptr(), full.block_ptr());
        assert_eq!(condensation.block_count(), 3);
        assert_eq!(condensation.nontrivial_blocks(), full.nontrivial_blocks());
        assert_eq!(condensation.largest_block(), full.largest_block());
        assert_eq!(p.btf_refine(condensation), full);
        assert!(pattern(2, &[(0, 0), (0, 1)]).pattern().btf_condensation().is_none());
    }

    #[test]
    fn btf_layout_is_block_upper_triangular() {
        // Lower block triangular input: two coupled 2x2 blocks, block
        // {2,3} feeding block {0,1} through entry (2,1) — BTF must flip
        // the layout so couplings land above the diagonal blocks.
        let m = pattern(
            4,
            &[(0, 0), (0, 1), (1, 0), (1, 1), (2, 1), (2, 2), (2, 3), (3, 2), (3, 3)],
        );
        let b = m.pattern().btf_order().unwrap();
        assert_eq!(b.block_count(), 2);
        assert_eq!(b.nontrivial_blocks(), 2);
        // Every entry of the permuted matrix must sit at or above its
        // column's block: for entry (r, c), the block of the permuted
        // row position must be ≤ the block of the permuted column.
        let mut rpos = [0usize; 4];
        for (k, &r) in b.rowperm().iter().enumerate() {
            rpos[r] = k;
        }
        let mut cpos = [0usize; 4];
        for (k, &c) in b.colperm().iter().enumerate() {
            cpos[c] = k;
        }
        let block_of = |k: usize| {
            (0..b.block_count())
                .find(|&x| k >= b.block_ptr()[x] && k < b.block_ptr()[x + 1])
                .unwrap()
        };
        for &(r, c) in
            &[(0, 0), (0, 1), (1, 0), (1, 1), (2, 1), (2, 2), (2, 3), (3, 2), (3, 3)]
        {
            assert!(
                block_of(rpos[r]) <= block_of(cpos[c]),
                "entry ({r},{c}) fell below the block diagonal"
            );
        }
    }

    #[test]
    fn btf_permutations_are_bijections_with_zero_free_diagonal() {
        let m = pattern(
            6,
            &[
                (0, 0),
                (1, 1),
                (0, 1),
                (2, 2),
                (3, 3),
                (2, 3),
                (3, 2),
                (1, 4),
                (4, 4),
                (5, 5),
                (4, 5),
            ],
        );
        let p = m.pattern();
        let b = p.btf_order().unwrap();
        let mut seen_r = [false; 6];
        let mut seen_c = [false; 6];
        for k in 0..6 {
            assert!(!seen_r[b.rowperm()[k]]);
            assert!(!seen_c[b.colperm()[k]]);
            seen_r[b.rowperm()[k]] = true;
            seen_c[b.colperm()[k]] = true;
            // Diagonal position k must be a structural entry.
            let c = b.colperm()[k];
            let r = b.rowperm()[k];
            assert!(
                p.row_idx[p.col_ptr[c]..p.col_ptr[c + 1]].contains(&r),
                "permuted diagonal {k} = original ({r},{c}) is not structural"
            );
        }
    }
}
