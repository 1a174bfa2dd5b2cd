//! Box-functions: cheap estimators of the tolerance-box value at any
//! test-parameter vector (§3.4: "for each test configuration so-called
//! box-functions have been determined estimating the (single)
//! tolerance-box value given a test parameter value set within the
//! allowed range").
//!
//! Calibration runs fault-free Monte-Carlo process samples over a coarse
//! parameter grid, records the worst return-value deviation per grid
//! point, and interpolates multilinearly at query time. A safety margin
//! and the equipment-accuracy floor are folded in. [`BoxPolicy`] applies
//! it to any configuration: the calibrated grid replaces the
//! configuration's own box, keeping its `box_floor` and `box_rel_nom`
//! description variables.

use std::sync::{Arc, OnceLock};

use castg_core::{ConfigDescription, CoreError, Measurement, TestConfiguration};
use castg_numeric::grid::linspace;
use castg_numeric::ParamSpace;
use castg_spice::Circuit;

use crate::ProcessVariation;

/// How a macro's configurations obtain their tolerance boxes.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum BoxPolicy {
    /// Each configuration's own box formula (the `box_*` variables of
    /// its description) — no calibration, instant; used by the tests,
    /// the goldens and the experiments without `--calibrated`.
    Analytic,
    /// Monte-Carlo calibrated grid (the paper's box-functions).
    Calibrated {
        /// Grid points per parameter dimension.
        grid_points: usize,
        /// Monte-Carlo samples per grid point.
        mc_samples: usize,
        /// RNG seed for the process samples.
        seed: u64,
        /// Multiplier on the observed spread (safety margin).
        margin: f64,
    },
}

impl BoxPolicy {
    /// The default calibrated policy: the paper experiments'
    /// `--calibrated` boxes for the IV-converter.
    pub fn calibrated_default() -> Self {
        BoxPolicy::Calibrated { grid_points: 3, mc_samples: 6, seed: 0xCA57, margin: 1.2 }
    }

    /// Applies the policy to configurations of the macro whose fault-free
    /// circuit is `nominal`: `Analytic` returns them unchanged,
    /// `Calibrated` wraps each in its box-function, calibrated on first
    /// use.
    pub fn apply(
        self,
        nominal: &Circuit,
        configs: Vec<Arc<dyn TestConfiguration>>,
    ) -> Vec<Arc<dyn TestConfiguration>> {
        let BoxPolicy::Calibrated { grid_points, mc_samples, seed, margin } = self else {
            return configs;
        };
        configs
            .into_iter()
            .map(|inner| {
                let description = inner.description();
                Arc::new(Calibrated {
                    floor: description.variable("box_floor").unwrap_or(0.0),
                    rel_nom: description.variable("box_rel_nom").unwrap_or(0.0),
                    inner,
                    nominal: nominal.clone(),
                    grid_points,
                    mc_samples,
                    seed,
                    margin,
                    grid: OnceLock::new(),
                }) as Arc<dyn TestConfiguration>
            })
            .collect()
    }
}

/// A configuration whose tolerance box is the Monte-Carlo box-function
/// calibrated through it: `grid(params) + rel_nom·|r_nominal|`, with the
/// grid floor and `rel_nom` read from the inner description's
/// `box_floor` and `box_rel_nom`. Everything else is the inner
/// configuration's.
struct Calibrated {
    inner: Arc<dyn TestConfiguration>,
    nominal: Circuit,
    grid_points: usize,
    mc_samples: usize,
    seed: u64,
    margin: f64,
    floor: f64,
    rel_nom: f64,
    /// The calibrated grid, or `None` when calibration failed.
    grid: OnceLock<Option<BoxGrid>>,
}

impl TestConfiguration for Calibrated {
    fn id(&self) -> usize {
        self.inner.id()
    }

    fn name(&self) -> &str {
        self.inner.name()
    }

    fn param_names(&self) -> Vec<String> {
        self.inner.param_names()
    }

    fn space(&self) -> ParamSpace {
        self.inner.space()
    }

    fn seed(&self) -> Vec<f64> {
        self.inner.seed()
    }

    fn measure(&self, circuit: &Circuit, params: &[f64]) -> Result<Measurement, CoreError> {
        self.inner.measure(circuit, params)
    }

    fn return_values(&self, measured: &Measurement, nominal: &Measurement) -> Vec<f64> {
        self.inner.return_values(measured, nominal)
    }

    fn tolerance_box(&self, params: &[f64], nominal_returns: &[f64]) -> Vec<f64> {
        let grid = self.grid.get_or_init(|| {
            calibrate_box(
                self.inner.as_ref(),
                &self.nominal,
                &ProcessVariation::default(),
                self.grid_points,
                self.mc_samples,
                self.seed,
                self.margin,
                self.floor,
            )
            .ok()
        });
        match grid {
            Some(grid) => {
                let r_nom = nominal_returns.first().copied().unwrap_or(0.0);
                vec![grid.query(params) + self.rel_nom * r_nom.abs()]
            }
            // Calibration failure: the configuration's own box lets
            // generation proceed.
            None => self.inner.tolerance_box(params, nominal_returns),
        }
    }

    fn description(&self) -> ConfigDescription {
        self.inner.description()
    }
}

/// A multilinearly interpolated scalar field over a rectangular
/// parameter grid — the calibrated box-function.
#[derive(Debug, Clone, PartialEq)]
pub struct BoxGrid {
    axes: Vec<Vec<f64>>,
    /// Row-major over the axes (last axis fastest).
    values: Vec<f64>,
    /// Absolute floor added to every query.
    floor: f64,
}

impl BoxGrid {
    /// Builds a grid from axes and values (last axis fastest).
    ///
    /// # Panics
    ///
    /// Panics if the value count does not match the grid size or any
    /// axis is empty.
    pub fn new(axes: Vec<Vec<f64>>, values: Vec<f64>, floor: f64) -> Self {
        let expect: usize = axes.iter().map(Vec::len).product();
        assert!(axes.iter().all(|a| !a.is_empty()), "axes must be non-empty");
        assert_eq!(values.len(), expect, "value count must match grid size");
        BoxGrid { axes, values, floor }
    }

    /// Queries the box value at `params` (clamped into the grid).
    ///
    /// # Panics
    ///
    /// Panics if `params` has the wrong dimension.
    pub fn query(&self, params: &[f64]) -> f64 {
        assert_eq!(params.len(), self.axes.len(), "dimension mismatch");
        self.interp(0, 0, params) + self.floor
    }

    /// Recursive multilinear interpolation. `offset` indexes the value
    /// array for the axes already fixed.
    fn interp(&self, dim: usize, offset: usize, params: &[f64]) -> f64 {
        if dim == self.axes.len() {
            return self.values[offset];
        }
        let axis = &self.axes[dim];
        let stride: usize = self.axes[dim + 1..].iter().map(Vec::len).product();
        let x = params[dim].clamp(axis[0], axis[axis.len() - 1]);
        if axis.len() == 1 {
            return self.interp(dim + 1, offset, params);
        }
        let mut i = axis.partition_point(|a| *a <= x).saturating_sub(1);
        i = i.min(axis.len() - 2);
        let (x0, x1) = (axis[i], axis[i + 1]);
        let t = if x1 > x0 { (x - x0) / (x1 - x0) } else { 0.0 };
        let v0 = self.interp(dim + 1, offset + i * stride, params);
        let v1 = self.interp(dim + 1, offset + (i + 1) * stride, params);
        v0 + t * (v1 - v0)
    }
}

/// Calibrates a box-function for `config` on the given nominal circuit:
/// runs `mc_samples` fault-free process samples at each grid point and
/// records `margin · max |r_sample − r_nom|` (worst over return values),
/// plus `floor`.
///
/// # Errors
///
/// Propagates nominal-measurement failures; individual process-sample
/// failures are skipped (a sample that refuses to converge everywhere
/// would leave that grid point with just the floor).
#[allow(clippy::too_many_arguments)] // calibration knobs are genuinely independent
pub fn calibrate_box(
    config: &dyn TestConfiguration,
    nominal: &Circuit,
    process: &ProcessVariation,
    grid_points: usize,
    mc_samples: usize,
    seed: u64,
    margin: f64,
    floor: f64,
) -> Result<BoxGrid, CoreError> {
    let space = config.space();
    let axes: Vec<Vec<f64>> = (0..space.dim())
        .map(|d| linspace(space.bounds(d).lo(), space.bounds(d).hi(), grid_points.max(2)))
        .collect();
    let samples = process.samples(nominal, seed, mc_samples);

    let mut values = Vec::new();
    let mut point = vec![0.0; space.dim()];
    fill_grid(config, nominal, &samples, &axes, 0, &mut point, margin, &mut values)?;
    Ok(BoxGrid::new(axes, values, floor))
}

#[allow(clippy::too_many_arguments)]
fn fill_grid(
    config: &dyn TestConfiguration,
    nominal: &Circuit,
    samples: &[Circuit],
    axes: &[Vec<f64>],
    dim: usize,
    point: &mut Vec<f64>,
    margin: f64,
    out: &mut Vec<f64>,
) -> Result<(), CoreError> {
    if dim == axes.len() {
        out.push(margin * spread_at(config, nominal, samples, point)?);
        return Ok(());
    }
    for x in &axes[dim] {
        point[dim] = *x;
        fill_grid(config, nominal, samples, axes, dim + 1, point, margin, out)?;
    }
    Ok(())
}

/// Worst |r_sample − r_nom| over process samples and return values.
fn spread_at(
    config: &dyn TestConfiguration,
    nominal: &Circuit,
    samples: &[Circuit],
    params: &[f64],
) -> Result<f64, CoreError> {
    let m_nom = config.measure(nominal, params)?;
    let r_nom = config.return_values(&m_nom, &m_nom);
    let mut worst = 0.0_f64;
    for s in samples {
        let Ok(m_s) = config.measure(s, params) else {
            continue; // a non-converging process sample is skipped
        };
        let r_s = config.return_values(&m_s, &m_nom);
        for (rs, rn) in r_s.iter().zip(&r_nom) {
            let dev = (rs - rn).abs();
            if dev.is_finite() {
                worst = worst.max(dev);
            }
        }
    }
    Ok(worst)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn grid_1d_interpolates_linearly() {
        let g = BoxGrid::new(vec![vec![0.0, 1.0]], vec![0.0, 10.0], 0.5);
        assert_eq!(g.query(&[0.0]), 0.5);
        assert_eq!(g.query(&[0.5]), 5.5);
        assert_eq!(g.query(&[1.0]), 10.5);
        // Clamped outside.
        assert_eq!(g.query(&[-5.0]), 0.5);
        assert_eq!(g.query(&[5.0]), 10.5);
    }

    #[test]
    fn grid_2d_bilinear() {
        // Values laid out with the last axis fastest: rows over x, cols y.
        let g = BoxGrid::new(
            vec![vec![0.0, 1.0], vec![0.0, 1.0]],
            vec![0.0, 1.0, 2.0, 3.0], // f(x,y) = 2x + y
            0.0,
        );
        assert_eq!(g.query(&[0.0, 0.0]), 0.0);
        assert_eq!(g.query(&[0.0, 1.0]), 1.0);
        assert_eq!(g.query(&[1.0, 0.0]), 2.0);
        assert_eq!(g.query(&[1.0, 1.0]), 3.0);
        assert_eq!(g.query(&[0.5, 0.5]), 1.5);
    }

    #[test]
    fn single_point_axis_is_constant() {
        let g = BoxGrid::new(vec![vec![2.0]], vec![7.0], 1.0);
        assert_eq!(g.query(&[0.0]), 8.0);
        assert_eq!(g.query(&[100.0]), 8.0);
    }

    #[test]
    #[should_panic(expected = "value count")]
    fn grid_validates_sizes() {
        BoxGrid::new(vec![vec![0.0, 1.0]], vec![1.0], 0.0);
    }

    #[test]
    #[should_panic(expected = "dimension mismatch")]
    fn query_validates_dimension() {
        let g = BoxGrid::new(vec![vec![0.0, 1.0]], vec![0.0, 1.0], 0.0);
        g.query(&[0.0, 0.0]);
    }

    #[test]
    fn calibration_on_synthetic_macro_produces_positive_boxes() {
        use castg_core::synthetic::DividerMacro;
        use castg_core::AnalogMacro;
        let mac = DividerMacro::new();
        let circuit = mac.nominal_circuit();
        let configs = mac.configurations();
        let process = ProcessVariation::default();
        let grid = calibrate_box(
            configs[0].as_ref(),
            &circuit,
            &process,
            3,
            4,
            42,
            1.2,
            1e-3,
        )
        .unwrap();
        // Divider with ±8 % resistors: the output delta spread at 5 V is
        // on the order of tens of millivolts.
        let b = grid.query(&[5.0]);
        assert!(b > 1e-3, "box {b} must exceed the floor");
        assert!(b < 1.0, "box {b} implausibly large");
        // More drive → more spread (monotone within the grid).
        assert!(grid.query(&[8.0]) >= grid.query(&[1.0]));
    }
}
