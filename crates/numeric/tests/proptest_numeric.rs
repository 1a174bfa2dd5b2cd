//! Property-based tests for the numeric substrate.

use castg_numeric::{
    brent_min, golden_section_min, powell_min, BrentOptions, Bounds, LuWorkspace, Matrix,
    ParamSpace, PowellOptions,
};
use proptest::prelude::*;

/// Builds a random diagonally dominant matrix (always well conditioned).
fn dominant_matrix(entries: &[f64], n: usize) -> Matrix {
    let mut a = Matrix::zeros(n, n);
    for i in 0..n {
        for j in 0..n {
            a[(i, j)] = entries[i * n + j];
        }
        let row_sum: f64 = (0..n).map(|j| a[(i, j)].abs()).sum();
        a[(i, i)] += row_sum + 1.0;
    }
    a
}

/// Solves `a·x = b` on a fresh workspace.
fn solve(mut a: Matrix, b: &[f64]) -> Vec<f64> {
    let mut lu = LuWorkspace::new(a.rows());
    lu.factor_in_place(&mut a).unwrap();
    let mut x = vec![0.0; b.len()];
    lu.solve_into(b, &mut x).unwrap();
    x
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// LU solve leaves a tiny residual on random well-conditioned
    /// systems of MNA-like sizes.
    #[test]
    fn lu_residual_is_small(
        n in 2usize..12,
        seed_entries in prop::collection::vec(-1.0f64..1.0, 144),
        rhs_entries in prop::collection::vec(-10.0f64..10.0, 12),
    ) {
        let a = dominant_matrix(&seed_entries[..n * n], n);
        let b = rhs_entries[..n].to_vec();
        let x = solve(a.clone(), &b);
        let r = a.mul_vec(&x).unwrap();
        for (ri, bi) in r.iter().zip(&b) {
            prop_assert!((ri - bi).abs() < 1e-9, "residual {}", (ri - bi).abs());
        }
    }

    /// A single workspace reused across randomly varying dimensions
    /// (regrowing and shrinking between factorizations) keeps producing
    /// exactly what a fresh workspace produces — stale state from a
    /// previous size must never leak into a solve.
    #[test]
    fn workspace_reuse_across_dimension_changes_is_exact(
        sizes in prop::collection::vec(2usize..10, 1..6),
        seed_entries in prop::collection::vec(-1.0f64..1.0, 100),
        rhs_entries in prop::collection::vec(-10.0f64..10.0, 10),
    ) {
        let mut ws = LuWorkspace::new(sizes[0]);
        let mut x = Vec::new();
        for (round, &n) in sizes.iter().enumerate() {
            let a = dominant_matrix(&seed_entries[..n * n], n);
            let b = &rhs_entries[..n];
            let reference = solve(a.clone(), b);

            let mut scratch = a;
            ws.factor_in_place(&mut scratch).unwrap();
            prop_assert_eq!(ws.dim(), n);
            prop_assert_eq!(scratch.rows(), n, "scratch must match the new dimension");
            prop_assert_eq!(scratch.cols(), n);
            x.clear();
            x.resize(n, 0.0);
            ws.solve_into(b, &mut x).unwrap();
            for (got, want) in x.iter().zip(&reference) {
                prop_assert_eq!(got.to_bits(), want.to_bits(), "round {}", round);
            }
        }
    }

    /// A 2×2 solve matches Cramer's rule, a closed form that shares no
    /// code with the elimination.
    #[test]
    fn solve_2x2_closed_form(a in -5.0f64..5.0, b in -5.0f64..5.0,
                             c in -5.0f64..5.0, d in -5.0f64..5.0,
                             e in -5.0f64..5.0, f in -5.0f64..5.0) {
        let det = a * d - b * c;
        prop_assume!(det.abs() > 1e-3);
        let x = solve(Matrix::from_rows(&[&[a, b], &[c, d]]), &[e, f]);
        let cramer = [(e * d - b * f) / det, (a * f - e * c) / det];
        let scale = cramer[0].abs().max(cramer[1].abs()).max(1.0);
        for (got, want) in x.iter().zip(&cramer) {
            prop_assert!((got - want).abs() <= 1e-8 * scale, "{} vs {}", got, want);
        }
    }

    /// Brent localizes the minimum of a shifted quadratic anywhere in
    /// the interval.
    #[test]
    fn brent_finds_quadratic_minimum(center in -10.0f64..10.0, scale in 0.1f64..100.0) {
        let m = brent_min(
            |x| scale * (x - center).powi(2),
            -12.0,
            12.0,
            &BrentOptions::default(),
        );
        prop_assert!((m.x - center).abs() < 1e-5, "found {} expected {center}", m.x);
    }

    /// Brent and golden-section agree on smooth unimodal objectives.
    #[test]
    fn brent_matches_golden(center in -3.0f64..3.0) {
        let f = |x: f64| (x - center).powi(2) + 0.1 * (x - center).abs();
        let opts = BrentOptions::default();
        let b = brent_min(f, -4.0, 4.0, &opts);
        let g = golden_section_min(f, -4.0, 4.0, &opts);
        prop_assert!((b.x - g.x).abs() < 1e-3);
    }

    /// Powell solves randomly shifted quadratic bowls inside the box and
    /// clamps to the boundary when the optimum is outside.
    #[test]
    fn powell_quadratic_bowls(cx in -3.0f64..3.0, cy in -3.0f64..3.0) {
        let space = ParamSpace::new(vec![
            Bounds::new(-2.0, 2.0).unwrap(),
            Bounds::new(-2.0, 2.0).unwrap(),
        ]);
        let r = powell_min(
            |x| (x[0] - cx).powi(2) + 2.0 * (x[1] - cy).powi(2),
            &[0.0, 0.0],
            &space,
            &PowellOptions::default(),
        );
        let expect = [cx.clamp(-2.0, 2.0), cy.clamp(-2.0, 2.0)];
        prop_assert!((r.x[0] - expect[0]).abs() < 1e-3, "{:?} vs {:?}", r.x, expect);
        prop_assert!((r.x[1] - expect[1]).abs() < 1e-3, "{:?} vs {:?}", r.x, expect);
        prop_assert!(space.contains(&r.x));
    }

    /// line_extent always returns a segment whose endpoints stay inside
    /// the box.
    #[test]
    fn line_extent_endpoints_feasible(
        x0 in 0.0f64..1.0,
        y0 in 0.0f64..1.0,
        dx in -1.0f64..1.0,
        dy in -1.0f64..1.0,
    ) {
        prop_assume!(dx.abs() > 1e-6 || dy.abs() > 1e-6);
        let space = ParamSpace::new(vec![
            Bounds::new(0.0, 1.0).unwrap(),
            Bounds::new(0.0, 1.0).unwrap(),
        ]);
        if let Some((t0, t1)) = space.line_extent(&[x0, y0], &[dx, dy]) {
            prop_assert!(t0 <= t1);
            for t in [t0, t1] {
                let p = [x0 + t * dx, y0 + t * dy];
                prop_assert!(p[0] >= -1e-9 && p[0] <= 1.0 + 1e-9, "{p:?}");
                prop_assert!(p[1] >= -1e-9 && p[1] <= 1.0 + 1e-9, "{p:?}");
            }
        }
    }
}
