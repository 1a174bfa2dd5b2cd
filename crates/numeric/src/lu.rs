use crate::{Matrix, NumericError};

/// Pivots with absolute value below this threshold are treated as zero.
const PIVOT_EPS: f64 = 1e-300;

/// The elimination kernel behind [`LuWorkspace::factor_in_place`]:
/// factors the square `a` in place (packed `L`/`U`, unit lower diagonal
/// implicit), filling `perm` with the row permutation. `pivot_buf` is
/// caller-provided scratch so repeated factorizations allocate nothing.
fn factor_core(
    a: &mut Matrix,
    perm: &mut Vec<usize>,
    pivot_buf: &mut Vec<f64>,
) -> Result<(), NumericError> {
    let n = a.rows();
    perm.clear();
    perm.extend(0..n);

    // The kernel strides the raw row-major storage: MNA systems are
    // small (tens of unknowns), so per-element bounds checks and index
    // arithmetic would otherwise be a measurable fraction of the work.
    let d = a.data_mut();
    for k in 0..n {
        // Partial pivoting: bring the largest entry of column k (at or
        // below the diagonal) onto the diagonal.
        let mut pivot_row = k;
        let mut pivot_val = d[k * n + k].abs();
        let mut off = (k + 1) * n + k;
        for i in k + 1..n {
            let v = d[off].abs();
            if v > pivot_val {
                pivot_val = v;
                pivot_row = i;
            }
            off += n;
        }
        if !pivot_val.is_finite() || pivot_val < PIVOT_EPS {
            return Err(NumericError::SingularMatrix { pivot: k });
        }
        if pivot_row != k {
            let (head, tail) = d.split_at_mut(pivot_row * n);
            head[k * n..k * n + n].swap_with_slice(&mut tail[..n]);
            perm.swap(k, pivot_row);
        }

        let pivot_off = k * n + k;
        let inv_pivot = 1.0 / d[pivot_off];
        // One copy of the pivot row per column keeps the row update
        // borrow-checker friendly without unsafe; the O(n) copy is
        // dominated by the O(n^2) elimination work below it.
        pivot_buf.clear();
        pivot_buf.extend_from_slice(&d[pivot_off + 1..k * n + n]);
        let (_, rest) = d.split_at_mut((k + 1) * n);
        for row in rest.chunks_exact_mut(n) {
            let lower = &mut row[k..];
            let factor = lower[0] * inv_pivot;
            lower[0] = factor;
            if factor != 0.0 {
                for (dst, src) in lower[1..].iter_mut().zip(pivot_buf.iter()) {
                    *dst -= factor * src;
                }
            }
        }
    }
    Ok(())
}

/// The substitution kernel behind [`LuWorkspace::solve_into`]: given
/// packed factors and the permutation, writes the solution of `A·x = b`
/// into `x`.
fn solve_core(lu: &Matrix, perm: &[usize], b: &[f64], x: &mut [f64]) {
    let n = lu.rows();
    if n == 0 {
        return;
    }
    let d = lu.data();
    // Apply permutation: x = P·b, then forward substitution (L has an
    // implicit unit diagonal).
    for (xi, &p) in x.iter_mut().zip(perm) {
        *xi = b[p];
    }
    for (i, row) in d.chunks_exact(n).enumerate().skip(1) {
        let dot: f64 = row[..i].iter().zip(&x[..i]).map(|(l, v)| l * v).sum();
        x[i] -= dot;
    }
    // Backward substitution with U.
    for i in (0..n).rev() {
        let row = &d[i * n..(i + 1) * n];
        let dot: f64 = row[i + 1..].iter().zip(&x[i + 1..]).map(|(u, v)| u * v).sum();
        x[i] = (x[i] - dot) / row[i];
    }
}

/// Dense LU factorization with partial (row) pivoting, `P·A = L·U`,
/// held in reusable buffers: the linear solver behind every
/// Newton–Raphson iteration of the circuit simulator's dense path.
///
/// A Newton iteration re-assembles and re-factors the same-sized system
/// hundreds of times per analysis. `LuWorkspace` keeps the factor
/// matrix (packed, unit lower triangle implicit), the row permutation,
/// the elimination scratch row and nothing else, so after the first
/// factorization the entire factor-then-solve cycle performs **zero
/// heap allocations**:
///
/// 1. [`factor_in_place`](LuWorkspace::factor_in_place) *swaps* the
///    caller's assembled matrix with the workspace buffer (O(1), no
///    copy) and eliminates in place. The caller gets back an equally
///    sized scratch matrix to re-assemble into next iteration.
/// 2. [`solve_into`](LuWorkspace::solve_into) substitutes into a
///    caller-provided solution buffer.
///
/// The workspace regrows transparently when the system dimension
/// changes between calls.
///
/// # Example
///
/// ```
/// use castg_numeric::{LuWorkspace, Matrix};
///
/// let mut ws = LuWorkspace::new(2);
/// let mut a = Matrix::from_rows(&[&[4.0, 3.0], &[6.0, 3.0]]);
/// let mut x = vec![0.0; 2];
/// ws.factor_in_place(&mut a)?;
/// ws.solve_into(&[10.0, 12.0], &mut x)?;
/// assert!((x[0] - 1.0).abs() < 1e-12);
/// assert!((x[1] - 2.0).abs() < 1e-12);
/// // `a` is now a 2×2 scratch buffer, ready to be re-assembled.
/// assert_eq!(a.rows(), 2);
/// # Ok::<(), castg_numeric::NumericError>(())
/// ```
#[derive(Debug, Clone)]
pub struct LuWorkspace {
    lu: Matrix,
    perm: Vec<usize>,
    pivot_buf: Vec<f64>,
    factored: bool,
}

impl LuWorkspace {
    /// Creates a workspace pre-sized for `n × n` systems.
    pub fn new(n: usize) -> Self {
        LuWorkspace {
            lu: Matrix::zeros(n, n),
            perm: Vec::with_capacity(n),
            pivot_buf: Vec::with_capacity(n),
            factored: false,
        }
    }

    /// Factors `a`, taking its storage by swap: afterwards the workspace
    /// holds the factors and `a` holds an `n × n` scratch buffer with
    /// unspecified contents (same allocation the workspace previously
    /// held, regrown if the dimension changed).
    ///
    /// # Errors
    ///
    /// [`NumericError::DimensionMismatch`] for a non-square input and
    /// [`NumericError::SingularMatrix`] when elimination finds no usable
    /// pivot; the workspace is left unfactored and the next
    /// [`solve_into`](LuWorkspace::solve_into) fails cleanly.
    pub fn factor_in_place(&mut self, a: &mut Matrix) -> Result<(), NumericError> {
        let n = a.rows();
        if a.cols() != n {
            return Err(NumericError::DimensionMismatch { expected: n, actual: a.cols() });
        }
        std::mem::swap(&mut self.lu, a);
        if a.rows() != n || a.cols() != n {
            // Dimension changed since the last use: regrow the buffer
            // handed back to the caller (one-time cost per change).
            *a = Matrix::zeros(n, n);
        }
        self.factored = false;
        factor_core(&mut self.lu, &mut self.perm, &mut self.pivot_buf)?;
        self.factored = true;
        Ok(())
    }

    /// Solves `A·x = b` with the factors of the last successful
    /// [`factor_in_place`](LuWorkspace::factor_in_place), allocating
    /// nothing.
    ///
    /// # Errors
    ///
    /// [`NumericError::NotFactored`] if no factorization is stored (never
    /// factored, or the last attempt failed);
    /// [`NumericError::DimensionMismatch`] for wrong-sized `b` or `x`.
    pub fn solve_into(&self, b: &[f64], x: &mut [f64]) -> Result<(), NumericError> {
        if !self.factored {
            return Err(NumericError::NotFactored);
        }
        let n = self.lu.rows();
        if b.len() != n {
            return Err(NumericError::DimensionMismatch { expected: n, actual: b.len() });
        }
        if x.len() != n {
            return Err(NumericError::DimensionMismatch { expected: n, actual: x.len() });
        }
        solve_core(&self.lu, &self.perm, b, x);
        Ok(())
    }

    /// Dimension the workspace is currently sized for.
    pub fn dim(&self) -> usize {
        self.lu.rows()
    }

    /// Whether a usable factorization is stored.
    pub fn is_factored(&self) -> bool {
        self.factored
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn factored(mut a: Matrix) -> Result<LuWorkspace, NumericError> {
        let mut ws = LuWorkspace::new(a.rows());
        ws.factor_in_place(&mut a)?;
        Ok(ws)
    }

    fn solve_once(rows: &[&[f64]], b: &[f64]) -> Vec<f64> {
        let mut x = vec![0.0; b.len()];
        factored(Matrix::from_rows(rows)).unwrap().solve_into(b, &mut x).unwrap();
        x
    }

    #[test]
    fn solves_identity() {
        let x = solve_once(&[&[1.0, 0.0], &[0.0, 1.0]], &[3.0, -4.0]);
        assert_eq!(x, vec![3.0, -4.0]);
    }

    #[test]
    fn solves_2x2_requiring_pivot() {
        // Leading zero forces a row swap.
        let x = solve_once(&[&[0.0, 2.0], &[3.0, 1.0]], &[4.0, 5.0]);
        assert!((x[0] - 1.0).abs() < 1e-12);
        assert!((x[1] - 2.0).abs() < 1e-12);
    }

    #[test]
    fn solves_3x3_known_system() {
        let x = solve_once(
            &[&[2.0, 1.0, -1.0], &[-3.0, -1.0, 2.0], &[-2.0, 1.0, 2.0]],
            &[8.0, -11.0, -3.0],
        );
        let expected = [2.0, 3.0, -1.0];
        for (xi, ei) in x.iter().zip(&expected) {
            assert!((xi - ei).abs() < 1e-12, "{x:?}");
        }
    }

    #[test]
    fn rejects_singular_matrix() {
        let a = Matrix::from_rows(&[&[1.0, 2.0], &[2.0, 4.0]]);
        let err = factored(a).unwrap_err();
        assert!(matches!(err, NumericError::SingularMatrix { .. }));
    }

    #[test]
    fn rejects_non_square() {
        let a = Matrix::zeros(3, 2);
        let err = factored(a).unwrap_err();
        assert!(matches!(err, NumericError::DimensionMismatch { .. }));
    }

    #[test]
    fn rejects_wrong_rhs_length() {
        let lu = factored(Matrix::identity(3)).unwrap();
        let mut x = vec![0.0; 3];
        assert!(matches!(
            lu.solve_into(&[1.0], &mut x),
            Err(NumericError::DimensionMismatch { .. })
        ));
    }

    #[test]
    fn solve_into_rejects_wrong_out_length() {
        let lu = factored(Matrix::identity(3)).unwrap();
        let mut x = vec![0.0; 2];
        assert!(matches!(
            lu.solve_into(&[1.0, 2.0, 3.0], &mut x),
            Err(NumericError::DimensionMismatch { .. })
        ));
    }

    #[test]
    fn large_random_system_has_small_residual() {
        // Deterministic pseudo-random fill; no rand dependency needed here.
        let n = 25;
        let mut seed = 0x9e3779b97f4a7c15_u64;
        let mut next = || {
            seed ^= seed << 13;
            seed ^= seed >> 7;
            seed ^= seed << 17;
            (seed as f64 / u64::MAX as f64) * 2.0 - 1.0
        };
        let mut a = Matrix::zeros(n, n);
        for i in 0..n {
            for j in 0..n {
                a[(i, j)] = next();
            }
            a[(i, i)] += n as f64; // diagonally dominant => well conditioned
        }
        let b: Vec<f64> = (0..n).map(|_| next()).collect();
        let a_copy = a.clone();
        let mut x = vec![0.0; n];
        factored(a).unwrap().solve_into(&b, &mut x).unwrap();
        let r = a_copy.mul_vec(&x).unwrap();
        let resid = r.iter().zip(&b).map(|(ri, bi)| (ri - bi).abs()).fold(0.0_f64, f64::max);
        assert!(resid < 1e-10, "residual too large: {resid}");
    }

    #[test]
    fn workspace_hands_back_usable_scratch() {
        let mut ws = LuWorkspace::new(2);
        let mut a = Matrix::from_rows(&[&[4.0, 3.0], &[6.0, 3.0]]);
        ws.factor_in_place(&mut a).unwrap();
        // The swapped-out buffer must be ready for re-assembly.
        assert_eq!(a.rows(), 2);
        assert_eq!(a.cols(), 2);
        a.clear();
        a[(0, 0)] = 1.0;
        a[(1, 1)] = 2.0;
        let mut x = vec![0.0; 2];
        ws.factor_in_place(&mut a).unwrap();
        ws.solve_into(&[3.0, 8.0], &mut x).unwrap();
        assert!((x[0] - 3.0).abs() < 1e-12);
        assert!((x[1] - 4.0).abs() < 1e-12);
    }

    #[test]
    fn workspace_regrows_across_dimension_changes() {
        let mut ws = LuWorkspace::new(2);
        let mut small = Matrix::identity(2);
        ws.factor_in_place(&mut small).unwrap();
        assert_eq!(ws.dim(), 2);

        // Larger system: the workspace must regrow and hand back a
        // matching scratch buffer.
        let mut big = Matrix::identity(5);
        ws.factor_in_place(&mut big).unwrap();
        assert_eq!(ws.dim(), 5);
        assert_eq!(big.rows(), 5);
        assert_eq!(big.cols(), 5);
        let mut x = vec![0.0; 5];
        ws.solve_into(&[1.0, 2.0, 3.0, 4.0, 5.0], &mut x).unwrap();
        assert_eq!(x, vec![1.0, 2.0, 3.0, 4.0, 5.0]);

        // And shrink back down again.
        let mut small_again = Matrix::identity(3);
        ws.factor_in_place(&mut small_again).unwrap();
        assert_eq!(ws.dim(), 3);
        assert_eq!(small_again.rows(), 3);
    }

    #[test]
    fn workspace_solve_requires_factorization() {
        let ws = LuWorkspace::new(2);
        let mut x = vec![0.0; 2];
        assert!(matches!(ws.solve_into(&[1.0, 2.0], &mut x), Err(NumericError::NotFactored)));
        assert!(!ws.is_factored());
    }

    #[test]
    fn workspace_failed_factorization_clears_state() {
        let mut ws = LuWorkspace::new(2);
        let mut good = Matrix::identity(2);
        ws.factor_in_place(&mut good).unwrap();
        assert!(ws.is_factored());

        let mut singular = Matrix::from_rows(&[&[1.0, 2.0], &[2.0, 4.0]]);
        assert!(ws.factor_in_place(&mut singular).is_err());
        assert!(!ws.is_factored());
        let mut x = vec![0.0; 2];
        assert!(matches!(ws.solve_into(&[1.0, 2.0], &mut x), Err(NumericError::NotFactored)));
    }

    #[test]
    fn workspace_rejects_non_square() {
        let mut ws = LuWorkspace::new(2);
        let mut rect = Matrix::zeros(2, 3);
        assert!(matches!(
            ws.factor_in_place(&mut rect),
            Err(NumericError::DimensionMismatch { .. })
        ));
        // The rectangular input must be left untouched by the failed call.
        assert_eq!(rect.rows(), 2);
        assert_eq!(rect.cols(), 3);
    }

    #[test]
    fn workspace_solve_rejects_wrong_lengths() {
        let mut ws = LuWorkspace::new(2);
        let mut a = Matrix::identity(2);
        ws.factor_in_place(&mut a).unwrap();
        let mut x2 = vec![0.0; 2];
        let mut x3 = vec![0.0; 3];
        assert!(ws.solve_into(&[1.0], &mut x2).is_err());
        assert!(ws.solve_into(&[1.0, 2.0], &mut x3).is_err());
    }
}
