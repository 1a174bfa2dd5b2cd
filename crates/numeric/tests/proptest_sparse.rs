//! Differential property tests: the sparse LU path against the dense
//! kernel on random well-conditioned systems.
//!
//! A second linear solver is exactly the kind of change that silently
//! diverges, so these properties pin the sparse path to the dense one:
//! every random system a proptest generates must solve to 1e-9
//! *relative* agreement through both kernels, on the first (full,
//! pivoting) factorization and on pattern-reusing refactorizations.
//!
//! The ordering properties extend the contract to column permutations:
//! factoring under *any* valid permutation — random or AMD-produced —
//! must still agree with dense LU (the permutation is un-done before
//! the caller sees a solution), and the AMD construction itself must
//! emit a valid bijection on arbitrary patterns, including degenerate
//! ones (empty columns, dense rows, `n = 1`).

use castg_numeric::{LuFactors, Matrix, SparseLu, SparseMatrix, StampTarget};
use proptest::prelude::*;
use proptest::TestCaseError;

/// Relative agreement the two solvers must reach.
const REL_TOL: f64 = 1e-9;

fn assert_rel_close(dense: &[f64], sparse: &[f64]) -> Result<(), TestCaseError> {
    for (i, (d, s)) in dense.iter().zip(sparse).enumerate() {
        let scale = d.abs().max(s.abs()).max(1.0);
        prop_assert!(
            (d - s).abs() <= REL_TOL * scale,
            "solutions diverge at {}: dense {} vs sparse {}",
            i,
            d,
            s
        );
    }
    Ok(())
}

/// Builds a random banded, diagonally dominant system in both dense and
/// sparse form from one entry stream (the forms are exactly equal by
/// construction).
fn banded_pair(n: usize, band: usize, entries: &[f64]) -> (Matrix, SparseMatrix) {
    let mut slots = Vec::new();
    for i in 0..n {
        for j in i.saturating_sub(band)..(i + band + 1).min(n) {
            slots.push((i, j));
        }
    }
    let mut dense = Matrix::zeros(n, n);
    let mut sparse = SparseMatrix::from_entries(n, &slots);
    for (&(i, j), &v) in slots.iter().zip(entries) {
        dense[(i, j)] = v;
        sparse.add(i, j, v);
    }
    for i in 0..n {
        let row_sum: f64 = (0..n).map(|j| dense[(i, j)].abs()).sum();
        dense[(i, i)] += row_sum + 1.0;
        sparse.add(i, i, row_sum + 1.0);
    }
    (dense, sparse)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// Full factorization path: random banded well-conditioned systems
    /// agree with dense LU to 1e-9 relative.
    #[test]
    fn sparse_factor_matches_dense(
        n in 4usize..80,
        band in 1usize..4,
        entries in prop::collection::vec(-1.0f64..1.0, 80 * 9),
        rhs in prop::collection::vec(-10.0f64..10.0, 80),
    ) {
        let (dense, sparse) = banded_pair(n, band, &entries);
        let b = &rhs[..n];

        let want = LuFactors::factor(dense).unwrap().solve(b).unwrap();
        let mut lu = SparseLu::new();
        lu.factor(&sparse).unwrap();
        let mut got = vec![0.0; n];
        lu.solve_into(b, &mut got).unwrap();
        assert_rel_close(&want, &got)?;
    }

    /// Refactorization path: after a first factorization, re-stamping
    /// new values into the *same pattern* and factoring again (which
    /// takes the symbolic-reuse fast path) still agrees with dense LU.
    #[test]
    fn sparse_refactor_matches_dense(
        n in 4usize..60,
        band in 1usize..3,
        entries_a in prop::collection::vec(-1.0f64..1.0, 60 * 7),
        entries_b in prop::collection::vec(-1.0f64..1.0, 60 * 7),
        rhs in prop::collection::vec(-10.0f64..10.0, 60),
    ) {
        let (_, mut sparse) = banded_pair(n, band, &entries_a);
        let b = &rhs[..n];
        let mut lu = SparseLu::new();
        lu.factor(&sparse).unwrap();

        // Same pattern, new values: this exercises the refactor path.
        StampTarget::clear(&mut sparse);
        let (dense_b, sparse_b) = banded_pair(n, band, &entries_b);
        for (r, c, v) in sparse_b.entries() {
            sparse.add(r, c, v);
        }
        lu.factor(&sparse).unwrap();

        let want = LuFactors::factor(dense_b).unwrap().solve(b).unwrap();
        let mut got = vec![0.0; n];
        lu.solve_into(b, &mut got).unwrap();
        assert_rel_close(&want, &got)?;
    }

    /// Ordering invariance: factoring under a random valid column
    /// permutation — or the AMD-produced one — must agree with dense
    /// LU to 1e-9 relative, exactly like natural order does.
    #[test]
    fn permuted_sparse_matches_dense(
        n in 4usize..60,
        band in 1usize..4,
        entries in prop::collection::vec(-1.0f64..1.0, 60 * 9),
        rhs in prop::collection::vec(-10.0f64..10.0, 60),
        perm_seed in prop::collection::vec(0usize..1_000_000, 60),
    ) {
        let (dense, sparse) = banded_pair(n, band, &entries);
        let b = &rhs[..n];
        let want = LuFactors::factor(dense).unwrap().solve(b).unwrap();

        // A random permutation derived deterministically from the seed
        // vector (Fisher–Yates with generated swap targets).
        let mut random_perm: Vec<usize> = (0..n).collect();
        for i in (1..n).rev() {
            random_perm.swap(i, perm_seed[i] % (i + 1));
        }

        for perm in [random_perm, sparse.pattern().amd_ordering()] {
            let mut lu = SparseLu::new();
            lu.set_ordering(perm.clone());
            lu.factor(&sparse).unwrap();
            let sym = lu.symbolic().unwrap();
            prop_assert_eq!(sym.ordering(), &perm[..]);
            let mut got = vec![0.0; n];
            lu.solve_into(b, &mut got).unwrap();
            assert_rel_close(&want, &got)?;
        }
    }

    /// The AMD construction must produce a valid bijection of `0..n`
    /// for arbitrary random patterns — including patterns with empty
    /// columns, duplicate slots and dense rows — and for the
    /// degenerate edge cases.
    #[test]
    fn amd_ordering_is_always_a_bijection(
        n in 1usize..40,
        slot_rows in prop::collection::vec(0usize..40, 160),
        slot_cols in prop::collection::vec(0usize..40, 160),
        slot_count in 0usize..160,
        dense_row in 0usize..40,
    ) {
        let mut entries: Vec<(usize, usize)> = slot_rows
            .iter()
            .zip(&slot_cols)
            .take(slot_count)
            .map(|(&r, &c)| (r % n, c % n))
            .collect();
        // Force a dense row and a dense column through one vertex.
        for j in 0..n {
            entries.push((dense_row % n, j));
            entries.push((j, dense_row % n));
        }
        let with_dense = SparseMatrix::from_entries(n, &entries);
        let empty = SparseMatrix::from_entries(n, &[]);
        for pattern in [with_dense.pattern(), empty.pattern()] {
            let perm = pattern.amd_ordering();
            prop_assert_eq!(perm.len(), n);
            let mut seen = vec![false; n];
            for &c in &perm {
                prop_assert!(c < n && !seen[c], "not a bijection: {:?}", perm);
                seen[c] = true;
            }
        }
    }

    /// The maximum transversal on a *structurally nonsingular* random
    /// pattern (random extras over a hidden permutation diagonal) must
    /// find a complete matching: a bijection `colmatch` with
    /// `(colmatch[c], c)` a structural entry for every column — a
    /// zero-free diagonal under the implied row permutation. Emptying
    /// any one column makes the pattern structurally singular, and the
    /// transversal must report that cleanly as `None`.
    #[test]
    fn max_transversal_finds_zero_free_diagonal_or_rejects(
        n in 2usize..40,
        perm_seed in prop::collection::vec(0usize..1_000_000, 40),
        slot_rows in prop::collection::vec(0usize..40, 120),
        slot_cols in prop::collection::vec(0usize..40, 120),
        slot_count in 0usize..120,
        emptied in 0usize..40,
    ) {
        // Hidden transversal: a random permutation's entries guarantee
        // structural nonsingularity without forcing the main diagonal.
        let mut hidden: Vec<usize> = (0..n).collect();
        for i in (1..n).rev() {
            hidden.swap(i, perm_seed[i] % (i + 1));
        }
        let mut entries: Vec<(usize, usize)> =
            hidden.iter().enumerate().map(|(c, &r)| (r, c)).collect();
        entries.extend(
            slot_rows
                .iter()
                .zip(&slot_cols)
                .take(slot_count)
                .map(|(&r, &c)| (r % n, c % n)),
        );
        let m = SparseMatrix::from_entries(n, &entries);
        let colmatch = m.pattern().max_transversal();
        prop_assert!(colmatch.is_some(), "nonsingular pattern rejected");
        let colmatch = colmatch.unwrap();
        prop_assert_eq!(colmatch.len(), n);
        let mut seen = vec![false; n];
        for (c, &r) in colmatch.iter().enumerate() {
            prop_assert!(r < n && !seen[r], "not a bijection: {:?}", colmatch);
            seen[r] = true;
            prop_assert!(
                m.pattern().slot(r, c).is_some(),
                "matched ({}, {}) is not a structural entry",
                r,
                c
            );
        }

        // Structural singularity: an empty column can match no row.
        let emptied = emptied % n;
        let gutted: Vec<(usize, usize)> =
            entries.iter().copied().filter(|&(_, c)| c != emptied).collect();
        let singular = SparseMatrix::from_entries(n, &gutted);
        prop_assert!(
            singular.pattern().max_transversal().is_none(),
            "pattern with empty column {} accepted",
            emptied
        );
        prop_assert!(singular.pattern().btf_order().is_none());
    }

    /// The full BTF preordering on random structurally nonsingular
    /// patterns: composed row and column permutations are bijections,
    /// the block boundaries are strictly increasing from 0 to n, the
    /// permuted diagonal is zero-free, and — the condensation contract —
    /// every structural entry lands on or *above* the block diagonal
    /// (Tarjan's emission order is a valid topological order of the
    /// SCC condensation, so `P·A·Q` is block upper triangular).
    #[test]
    fn btf_order_is_topological_block_upper_triangular(
        n in 1usize..40,
        perm_seed in prop::collection::vec(0usize..1_000_000, 40),
        slot_rows in prop::collection::vec(0usize..40, 160),
        slot_cols in prop::collection::vec(0usize..40, 160),
        slot_count in 0usize..160,
    ) {
        let mut hidden: Vec<usize> = (0..n).collect();
        for i in (1..n).rev() {
            hidden.swap(i, perm_seed[i] % (i + 1));
        }
        let mut entries: Vec<(usize, usize)> =
            hidden.iter().enumerate().map(|(c, &r)| (r, c)).collect();
        entries.extend(
            slot_rows
                .iter()
                .zip(&slot_cols)
                .take(slot_count)
                .map(|(&r, &c)| (r % n, c % n)),
        );
        let m = SparseMatrix::from_entries(n, &entries);
        let btf = m.pattern().btf_order();
        prop_assert!(btf.is_some(), "nonsingular pattern rejected");
        let btf = btf.unwrap();
        prop_assert_eq!(btf.dim(), n);

        // Composed permutations are bijections.
        for perm in [btf.rowperm(), btf.colperm()] {
            prop_assert_eq!(perm.len(), n);
            let mut seen = vec![false; n];
            for &p in perm {
                prop_assert!(p < n && !seen[p], "not a bijection: {:?}", perm);
                seen[p] = true;
            }
        }

        // Block boundaries partition 0..n.
        let bp = btf.block_ptr();
        prop_assert_eq!(bp[0], 0);
        prop_assert_eq!(*bp.last().unwrap(), n);
        prop_assert!(bp.windows(2).all(|w| w[0] < w[1]), "{:?}", bp);
        prop_assert_eq!(btf.block_count(), bp.len() - 1);

        // Zero-free permuted diagonal.
        for k in 0..n {
            prop_assert!(
                m.pattern().slot(btf.rowperm()[k], btf.colperm()[k]).is_some(),
                "permuted diagonal position {} is a structural zero",
                k
            );
        }

        // Block upper triangularity: map every original entry to its
        // permuted position; its row block must not exceed its column
        // block.
        let mut rpos = vec![0usize; n];
        let mut cpos = vec![0usize; n];
        for k in 0..n {
            rpos[btf.rowperm()[k]] = k;
            cpos[btf.colperm()[k]] = k;
        }
        let block_of = |k: usize| bp.partition_point(|&b| b <= k) - 1;
        for (r, c, _) in m.entries() {
            prop_assert!(
                block_of(rpos[r]) <= block_of(cpos[c]),
                "entry ({}, {}) lands below the block diagonal",
                r,
                c
            );
        }

        // The condensation-only stage already fixes the block structure
        // (the per-block refinement permutes within blocks), and its
        // refinement is the full order.
        let condensation = m.pattern().btf_condensation().expect("nonsingular");
        prop_assert_eq!(condensation.block_ptr(), bp);
        prop_assert_eq!(condensation.nontrivial_blocks(), btf.nontrivial_blocks());
        prop_assert_eq!(m.pattern().btf_refine(condensation), btf);
    }

    /// The residual of the sparse solve is tiny in its own right (not
    /// just relative to the dense solution).
    #[test]
    fn sparse_residual_is_small(
        n in 4usize..80,
        band in 1usize..4,
        entries in prop::collection::vec(-1.0f64..1.0, 80 * 9),
        rhs in prop::collection::vec(-10.0f64..10.0, 80),
    ) {
        let (_, sparse) = banded_pair(n, band, &entries);
        let b = &rhs[..n];
        let mut lu = SparseLu::new();
        lu.factor(&sparse).unwrap();
        let mut x = vec![0.0; n];
        lu.solve_into(b, &mut x).unwrap();
        let r = sparse.mul_vec(&x).unwrap();
        for (ri, bi) in r.iter().zip(b) {
            prop_assert!((ri - bi).abs() < 1e-9, "residual {}", (ri - bi).abs());
        }
    }
}

/// Degenerate BTF shapes where the answer is exactly known: `n <= 1`,
/// the fully dense pattern (one strongly connected component — a single
/// block), and the diagonal pattern (n independent scalar equations —
/// n blocks of size 1).
#[test]
fn btf_degenerate_cases() {
    // n = 1: one 1×1 block.
    let one = SparseMatrix::from_entries(1, &[(0, 0)]);
    let btf = one.pattern().btf_order().expect("1×1 with diagonal entry");
    assert_eq!(btf.block_ptr(), &[0, 1]);
    assert_eq!(btf.block_count(), 1);
    assert_eq!(btf.nontrivial_blocks(), 0);
    assert_eq!(btf.largest_block(), 1);

    // n = 1 without its entry: structurally singular.
    let empty = SparseMatrix::from_entries(1, &[]);
    assert!(empty.pattern().max_transversal().is_none());
    assert!(empty.pattern().btf_order().is_none());

    // Fully dense: everything reaches everything — one block of size n.
    let n = 9;
    let all: Vec<(usize, usize)> =
        (0..n).flat_map(|r| (0..n).map(move |c| (r, c))).collect();
    let dense = SparseMatrix::from_entries(n, &all);
    let btf = dense.pattern().btf_order().expect("dense is nonsingular");
    assert_eq!(btf.block_count(), 1);
    assert_eq!(btf.largest_block(), n);
    assert_eq!(btf.nontrivial_blocks(), 1);

    // Diagonal: n decoupled scalars — n blocks of size 1.
    let diag: Vec<(usize, usize)> = (0..n).map(|i| (i, i)).collect();
    let diag = SparseMatrix::from_entries(n, &diag);
    let btf = diag.pattern().btf_order().expect("diagonal is nonsingular");
    assert_eq!(btf.block_count(), n);
    assert_eq!(btf.largest_block(), 1);
    assert_eq!(btf.nontrivial_blocks(), 0);
    assert_eq!(btf.block_ptr(), &(0..=n).collect::<Vec<_>>()[..]);
}
