//! Test-parameter-sensitivity graphs (the paper's Figs. 2–4).
//!
//! A tps-graph plots `S_f(T_tc)` over a configuration's parameter space
//! for one modeled fault: positive regions are undetectable, negative
//! regions detect. Shifting the fault model from high to low impact
//! morphs the graph from the erratic *hard-fault* shape (Fig. 2) to the
//! stable *soft-fault* shape (Figs. 3–4) whose minimum location stops
//! moving — the observation the efficient generation algorithm rests on.

use castg_faults::Fault;
use castg_numeric::grid::{linspace, Grid2d};

use crate::sensitivity::Evaluator;
use crate::CoreError;

/// A computed tps-graph over a two-parameter configuration.
#[derive(Debug, Clone)]
pub struct TpsGraph {
    /// Name of the fault the graph belongs to.
    pub fault_name: String,
    /// Effective model resistance the fault was evaluated at.
    pub fault_resistance: f64,
    /// Configuration id.
    pub config_id: usize,
    /// Parameter names for the two axes.
    pub axes: [String; 2],
    /// The sensitivity values on the sweep grid.
    pub grid: Grid2d,
}

/// Sweeps `S_f` of a 2-parameter configuration over an `nx × ny` grid.
///
/// # Errors
///
/// [`CoreError::Configuration`] if the configuration does not have
/// exactly two parameters; simulation errors propagate (faulty
/// non-convergence is folded into the sensitivity, not an error).
pub fn tps_graph(
    evaluator: &Evaluator<'_>,
    fault: &Fault,
    nx: usize,
    ny: usize,
) -> Result<TpsGraph, CoreError> {
    let config = evaluator.config();
    let space = config.space();
    if space.dim() != 2 {
        return Err(CoreError::Configuration {
            config: config.name().to_string(),
            reason: format!("tps_graph needs 2 parameters, config has {}", space.dim()),
        });
    }
    let xs = linspace(space.bounds(0).lo(), space.bounds(0).hi(), nx);
    let ys = linspace(space.bounds(1).lo(), space.bounds(1).hi(), ny);
    let faulty = evaluator.inject(fault)?;
    let mut values = Vec::with_capacity(nx * ny);
    for y in &ys {
        for x in &xs {
            let (s, _) = evaluator.sensitivity_outcome(&faulty, &[*x, *y])?;
            values.push(s);
        }
    }
    let names = config.param_names();
    Ok(TpsGraph {
        fault_name: fault.name(),
        fault_resistance: fault.effective_resistance(),
        config_id: config.id(),
        axes: [names[0].clone(), names[1].clone()],
        grid: Grid2d::from_values(xs, ys, values),
    })
}

/// Sweeps `S_f` of a 1-parameter configuration over `n` points,
/// returning `(parameter, sensitivity)` pairs.
///
/// # Errors
///
/// [`CoreError::Configuration`] if the configuration is not
/// 1-parameter.
pub fn tps_profile(
    evaluator: &Evaluator<'_>,
    fault: &Fault,
    n: usize,
) -> Result<Vec<(f64, f64)>, CoreError> {
    let config = evaluator.config();
    let space = config.space();
    if space.dim() != 1 {
        return Err(CoreError::Configuration {
            config: config.name().to_string(),
            reason: format!("tps_profile needs 1 parameter, config has {}", space.dim()),
        });
    }
    let xs = linspace(space.bounds(0).lo(), space.bounds(0).hi(), n);
    let faulty = evaluator.inject(fault)?;
    let mut out = Vec::with_capacity(n);
    for x in xs {
        out.push((x, evaluator.sensitivity_outcome(&faulty, &[x])?.0));
    }
    Ok(out)
}

impl TpsGraph {
    /// The grid minimum: `(x, y, S)` of the most sensitive parameter
    /// combination, or `None` for an empty grid.
    pub fn optimum(&self) -> Option<(f64, f64, f64)> {
        self.grid.min()
    }

    /// Fraction of grid cells that detect the fault (`S < 0`).
    pub fn detecting_fraction(&self) -> f64 {
        let total = self.grid.xs().len() * self.grid.ys().len();
        if total == 0 {
            return 0.0;
        }
        let detecting = self.grid.iter().filter(|(_, _, s)| *s < 0.0).count();
        detecting as f64 / total as f64
    }

    /// Renders the graph as an ASCII heat map in the spirit of the
    /// paper's gray-level legends. Rows are printed top-to-bottom in
    /// descending y. The legend maps characters to sensitivity bands.
    pub fn render_ascii(&self) -> String {
        const BANDS: &[(f64, char)] = &[
            (0.5, ' '),  // deeply insensitive
            (0.0, '.'),  // inside the box
            (-0.5, '+'), // detected, shallow
            (-1.0, 'o'), // detected
            (-2.0, 'x'), // strongly detected
        ];
        let classify = |s: f64| -> char {
            if s.is_nan() {
                return '?';
            }
            for (threshold, ch) in BANDS {
                if s >= *threshold {
                    return *ch;
                }
            }
            '#'
        };
        let mut out = String::new();
        out.push_str(&format!(
            "tps-graph: {} | config #{} | R = {:.3e} Ω\n",
            self.fault_name, self.config_id, self.fault_resistance
        ));
        out.push_str(&format!("y-axis: {} (top = max), x-axis: {}\n", self.axes[1], self.axes[0]));
        for iy in (0..self.grid.ys().len()).rev() {
            for ix in 0..self.grid.xs().len() {
                out.push(classify(self.grid.value(ix, iy)));
            }
            out.push('\n');
        }
        out.push_str("legend: ' '≥0.5  '.'≥0  '+'≥-0.5  'o'≥-1  'x'≥-2  '#'<-2  '?'=nan\n");
        out
    }

    /// Serializes the graph as CSV (`x,y,sensitivity` rows with header).
    pub fn to_csv(&self) -> String {
        let mut out = format!("{},{},sensitivity\n", self.axes[0], self.axes[1]);
        for (x, y, s) in self.grid.iter() {
            out.push_str(&format!("{x:.9e},{y:.9e},{s:.9e}\n"));
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cache::NominalCache;
    use crate::synthetic::DividerMacro;
    use crate::AnalogMacro;

    #[test]
    fn profile_of_divider_dc_config() {
        let mac = DividerMacro::new();
        let circuit = mac.nominal_circuit();
        let cache = NominalCache::new();
        let configs = mac.configurations();
        let ev = Evaluator::new(configs[0].as_ref(), &circuit, &cache);
        let fault = castg_faults::Fault::bridge("out", "0", 2e3);
        let profile = tps_profile(&ev, &fault, 9).unwrap();
        assert_eq!(profile.len(), 9);
        // Larger drive level → larger absolute deviation → lower S:
        // sensitivity should (weakly) improve with the level.
        assert!(profile.last().unwrap().1 <= profile.first().unwrap().1 + 1e-9);
    }

    #[test]
    fn graph_of_divider_step_config() {
        let mac = DividerMacro::new();
        let circuit = mac.nominal_circuit();
        let cache = NominalCache::new();
        let configs = mac.configurations();
        let ev = Evaluator::new(configs[1].as_ref(), &circuit, &cache);
        let fault = castg_faults::Fault::bridge("out", "0", 2e3);
        let g = tps_graph(&ev, &fault, 5, 5).unwrap();
        assert_eq!(g.grid.xs().len(), 5);
        assert_eq!(g.grid.ys().len(), 5);
        let (_, _, s_min) = g.optimum().unwrap();
        assert!(s_min < 1.0);
        let ascii = g.render_ascii();
        assert!(ascii.contains("tps-graph"));
        assert!(ascii.lines().count() >= 8);
        let csv = g.to_csv();
        assert_eq!(csv.lines().count(), 26); // header + 25 cells
    }

    #[test]
    fn dimension_mismatch_is_reported() {
        let mac = DividerMacro::new();
        let circuit = mac.nominal_circuit();
        let cache = NominalCache::new();
        let configs = mac.configurations();
        let ev0 = Evaluator::new(configs[0].as_ref(), &circuit, &cache);
        let ev1 = Evaluator::new(configs[1].as_ref(), &circuit, &cache);
        let fault = castg_faults::Fault::bridge("out", "0", 2e3);
        assert!(tps_graph(&ev0, &fault, 3, 3).is_err());
        assert!(tps_profile(&ev1, &fault, 3).is_err());
    }

    #[test]
    fn soft_fault_region_stability_on_divider() {
        // The paper's §3.2 observation at toy scale: weakening the fault
        // must not move the optimum's grid location once soft.
        let mac = DividerMacro::new();
        let circuit = mac.nominal_circuit();
        let cache = NominalCache::new();
        let configs = mac.configurations();
        let ev = Evaluator::new(configs[0].as_ref(), &circuit, &cache);
        let soft1 = castg_faults::Fault::bridge("out", "0", 10e3).weakened(4.0);
        let soft2 = castg_faults::Fault::bridge("out", "0", 10e3).weakened(8.0);
        let p1 = tps_profile(&ev, &soft1, 15).unwrap();
        let p2 = tps_profile(&ev, &soft2, 15).unwrap();
        let argmin = |p: &[(f64, f64)]| {
            p.iter()
                .enumerate()
                .min_by(|a, b| a.1 .1.partial_cmp(&b.1 .1).unwrap())
                .map(|(i, _)| i)
                .unwrap()
        };
        assert_eq!(argmin(&p1), argmin(&p2), "soft-fault optimum location must be stable");
    }
}
