//! Probes select which quantities a transient run records, and [`Trace`]
//! holds the recorded waveforms.

use crate::circuit::Circuit;
use crate::node::NodeId;
use crate::SpiceError;

/// A quantity to record during transient analysis.
#[derive(Debug, Clone, PartialEq)]
pub enum Probe {
    /// The voltage of a node.
    NodeVoltage(NodeId),
    /// The branch current of a named voltage-defined device (voltage
    /// source or VCVS), SPICE sign convention.
    SourceCurrent(String),
}

impl Probe {
    /// Human-readable label, resolving node names through the circuit.
    pub fn label(&self, circuit: &Circuit) -> String {
        match self {
            Probe::NodeVoltage(n) => format!("v({})", circuit.node_name(*n)),
            Probe::SourceCurrent(name) => format!("i({name})"),
        }
    }

    /// Extracts the probed value from an MNA state vector.
    ///
    /// # Errors
    ///
    /// [`SpiceError::UnknownDevice`] for a current probe naming a device
    /// without a branch current.
    pub(crate) fn extract(&self, circuit: &Circuit, state: &[f64]) -> Result<f64, SpiceError> {
        let n_nodes = circuit.node_count() - 1;
        match self {
            Probe::NodeVoltage(n) => {
                Ok(if n.is_ground() { 0.0 } else { state[n.index() - 1] })
            }
            Probe::SourceCurrent(name) => {
                let idx = circuit
                    .branch_index(name)
                    .ok_or_else(|| SpiceError::UnknownDevice { name: name.clone() })?;
                Ok(state[n_nodes + idx])
            }
        }
    }
}

/// Uniformly sampled multi-channel waveform data from a transient run.
#[derive(Debug, Clone, PartialEq)]
pub struct Trace {
    times: Vec<f64>,
    labels: Vec<String>,
    /// One column per probe, each `times.len()` long.
    columns: Vec<Vec<f64>>,
}

impl Trace {
    pub(crate) fn new(labels: Vec<String>) -> Self {
        let n = labels.len();
        Trace { times: Vec::new(), labels, columns: vec![Vec::new(); n] }
    }

    pub(crate) fn push_row(&mut self, t: f64, values: &[f64]) {
        debug_assert_eq!(values.len(), self.columns.len());
        self.times.push(t);
        for (col, v) in self.columns.iter_mut().zip(values) {
            col.push(*v);
        }
    }

    /// The sample instants.
    pub fn times(&self) -> &[f64] {
        &self.times
    }

    /// Number of samples per channel.
    pub fn len(&self) -> usize {
        self.times.len()
    }

    /// Whether the trace holds no samples.
    pub fn is_empty(&self) -> bool {
        self.times.is_empty()
    }

    /// Channel labels, in probe order.
    pub fn labels(&self) -> &[String] {
        &self.labels
    }

    /// Samples of channel `i`.
    ///
    /// # Panics
    ///
    /// Panics if `i` is out of range.
    pub fn column(&self, i: usize) -> &[f64] {
        &self.columns[i]
    }

    /// The (uniform) sample interval; `None` with fewer than two samples.
    pub fn dt(&self) -> Option<f64> {
        if self.times.len() < 2 {
            None
        } else {
            Some(self.times[1] - self.times[0])
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn labels_resolve_node_names() {
        let mut c = Circuit::new();
        let out = c.node("out");
        assert_eq!(Probe::NodeVoltage(out).label(&c), "v(out)");
        assert_eq!(Probe::SourceCurrent("VDD".into()).label(&c), "i(VDD)");
    }

    #[test]
    fn trace_accumulates_rows() {
        let mut t = Trace::new(vec!["a".into(), "b".into()]);
        t.push_row(0.0, &[1.0, 2.0]);
        t.push_row(1e-9, &[3.0, 4.0]);
        assert_eq!(t.len(), 2);
        assert!(!t.is_empty());
        assert_eq!(t.column(0), &[1.0, 3.0]);
        assert_eq!(t.dt(), Some(1e-9));
    }

    #[test]
    fn empty_trace_has_no_dt() {
        let t = Trace::new(vec!["x".into()]);
        assert!(t.is_empty());
        assert_eq!(t.dt(), None);
    }
}
