//! Sweep grids used to compute tps-graphs (Figs. 2–4 of the paper).

/// Returns `n` evenly spaced values covering `[lo, hi]` inclusive.
///
/// `n == 0` yields an empty vector; `n == 1` yields `[lo]`.
///
/// # Example
///
/// ```
/// let xs = castg_numeric::grid::linspace(0.0, 1.0, 5);
/// assert_eq!(xs, vec![0.0, 0.25, 0.5, 0.75, 1.0]);
/// ```
pub fn linspace(lo: f64, hi: f64, n: usize) -> Vec<f64> {
    match n {
        0 => Vec::new(),
        1 => vec![lo],
        _ => {
            let step = (hi - lo) / (n - 1) as f64;
            (0..n).map(|i| lo + step * i as f64).collect()
        }
    }
}

/// A two-dimensional rectangular sweep grid with row-major cell storage.
///
/// The tps-graphs of the paper are exactly this: a grid over two test
/// parameters with a sensitivity value per cell.
#[derive(Debug, Clone, PartialEq)]
pub struct Grid2d {
    xs: Vec<f64>,
    ys: Vec<f64>,
    values: Vec<f64>,
}

impl Grid2d {
    /// Builds a grid by evaluating `f(x, y)` at every grid point.
    pub fn evaluate<F: FnMut(f64, f64) -> f64>(xs: Vec<f64>, ys: Vec<f64>, mut f: F) -> Self {
        let mut values = Vec::with_capacity(xs.len() * ys.len());
        for y in &ys {
            for x in &xs {
                values.push(f(*x, *y));
            }
        }
        Grid2d { xs, ys, values }
    }

    /// Builds a grid from precomputed row-major values.
    ///
    /// # Panics
    ///
    /// Panics if `values.len() != xs.len() * ys.len()`.
    pub fn from_values(xs: Vec<f64>, ys: Vec<f64>, values: Vec<f64>) -> Self {
        assert_eq!(values.len(), xs.len() * ys.len(), "value count must match grid size");
        Grid2d { xs, ys, values }
    }

    /// The x-axis sample positions.
    pub fn xs(&self) -> &[f64] {
        &self.xs
    }

    /// The y-axis sample positions.
    pub fn ys(&self) -> &[f64] {
        &self.ys
    }

    /// Value at grid index `(ix, iy)`.
    ///
    /// # Panics
    ///
    /// Panics if either index is out of range.
    pub fn value(&self, ix: usize, iy: usize) -> f64 {
        assert!(ix < self.xs.len() && iy < self.ys.len(), "grid index out of bounds");
        self.values[iy * self.xs.len() + ix]
    }

    /// Minimum value and its `(x, y)` location.
    ///
    /// Returns `None` for an empty grid or a grid of only NaNs.
    pub fn min(&self) -> Option<(f64, f64, f64)> {
        let mut best: Option<(f64, f64, f64)> = None;
        for (iy, y) in self.ys.iter().enumerate() {
            for (ix, x) in self.xs.iter().enumerate() {
                let v = self.values[iy * self.xs.len() + ix];
                if v.is_nan() {
                    continue;
                }
                if best.is_none_or(|(_, _, bv)| v < bv) {
                    best = Some((*x, *y, v));
                }
            }
        }
        best
    }

    /// Maximum value and its `(x, y)` location (NaNs skipped).
    pub fn max(&self) -> Option<(f64, f64, f64)> {
        let mut best: Option<(f64, f64, f64)> = None;
        for (iy, y) in self.ys.iter().enumerate() {
            for (ix, x) in self.xs.iter().enumerate() {
                let v = self.values[iy * self.xs.len() + ix];
                if v.is_nan() {
                    continue;
                }
                if best.is_none_or(|(_, _, bv)| v > bv) {
                    best = Some((*x, *y, v));
                }
            }
        }
        best
    }

    /// Iterates `(x, y, value)` in row-major order.
    pub fn iter(&self) -> impl Iterator<Item = (f64, f64, f64)> + '_ {
        self.ys.iter().enumerate().flat_map(move |(iy, y)| {
            self.xs
                .iter()
                .enumerate()
                .map(move |(ix, x)| (*x, *y, self.values[iy * self.xs.len() + ix]))
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn linspace_endpoints_and_count() {
        let v = linspace(-1.0, 1.0, 11);
        assert_eq!(v.len(), 11);
        assert_eq!(v[0], -1.0);
        assert_eq!(*v.last().unwrap(), 1.0);
    }

    #[test]
    fn linspace_edge_cases() {
        assert!(linspace(0.0, 1.0, 0).is_empty());
        assert_eq!(linspace(3.0, 9.0, 1), vec![3.0]);
    }

    #[test]
    fn grid_evaluate_and_lookup() {
        let g = Grid2d::evaluate(vec![0.0, 1.0], vec![0.0, 2.0], |x, y| x + 10.0 * y);
        assert_eq!(g.value(0, 0), 0.0);
        assert_eq!(g.value(1, 0), 1.0);
        assert_eq!(g.value(0, 1), 20.0);
        assert_eq!(g.value(1, 1), 21.0);
    }

    #[test]
    fn grid_min_max() {
        let g = Grid2d::evaluate(vec![0.0, 1.0, 2.0], vec![0.0, 1.0], |x, y| {
            (x - 1.0).powi(2) + (y - 1.0).powi(2)
        });
        let (x, y, v) = g.min().unwrap();
        assert_eq!((x, y, v), (1.0, 1.0, 0.0));
        let (x, y, v) = g.max().unwrap();
        assert_eq!((x, y), (0.0, 0.0));
        assert_eq!(v, 2.0);
    }

    #[test]
    fn grid_min_skips_nan() {
        let g = Grid2d::from_values(vec![0.0, 1.0], vec![0.0], vec![f64::NAN, 5.0]);
        assert_eq!(g.min().unwrap(), (1.0, 0.0, 5.0));
    }

    #[test]
    fn grid_iter_visits_every_cell() {
        let g = Grid2d::evaluate(vec![0.0, 1.0], vec![0.0, 1.0, 2.0], |x, y| x * y);
        assert_eq!(g.iter().count(), 6);
    }

    #[test]
    #[should_panic(expected = "value count")]
    fn from_values_validates_size() {
        Grid2d::from_values(vec![0.0], vec![0.0], vec![1.0, 2.0]);
    }
}
