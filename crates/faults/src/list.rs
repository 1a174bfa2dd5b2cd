//! Exhaustive fault-list generation and the fault dictionary.
//!
//! The paper constructs its dictionary exhaustively: "an exhaustive list
//! of bridging and pin-hole faults in the circuit … resulting in a fault
//! list containing 55 faults" — all 45 node pairs at 10 kΩ plus all 10
//! transistors at 2 kΩ (§3.4).

use crate::{Fault, FaultKind};

/// All `C(n, 2)` bridging faults over the given fault-site node names,
/// each with dictionary resistance `base_ohms`.
///
/// Pairs are emitted in lexicographic index order, matching the paper's
/// exhaustive enumeration.
pub fn exhaustive_bridge_faults(nodes: &[&str], base_ohms: f64) -> Vec<Fault> {
    let mut out = Vec::with_capacity(nodes.len() * nodes.len().saturating_sub(1) / 2);
    for i in 0..nodes.len() {
        for j in i + 1..nodes.len() {
            out.push(Fault::bridge(nodes[i], nodes[j], base_ohms));
        }
    }
    out
}

/// One pinhole fault per named MOSFET, each with dictionary shunt
/// `base_ohms` at the paper's standard 25 %-from-drain position.
pub fn exhaustive_pinhole_faults(devices: &[String], base_ohms: f64) -> Vec<Fault> {
    devices.iter().map(|d| Fault::pinhole(d.clone(), base_ohms)).collect()
}

/// The modeled-fault dictionary driving test generation.
///
/// # Example
///
/// ```
/// use castg_faults::{exhaustive_bridge_faults, FaultDictionary, FaultKind};
///
/// let faults = exhaustive_bridge_faults(&["a", "b", "c"], 10e3);
/// let dict = FaultDictionary::new(faults);
/// assert_eq!(dict.len(), 3); // C(3,2)
/// assert_eq!(dict.count(FaultKind::Bridge), 3);
/// ```
#[derive(Debug, Clone, PartialEq, Default)]
pub struct FaultDictionary {
    faults: Vec<Fault>,
}

impl FaultDictionary {
    /// Wraps a list of faults.
    pub fn new(faults: Vec<Fault>) -> Self {
        FaultDictionary { faults }
    }

    /// Number of faults.
    pub fn len(&self) -> usize {
        self.faults.len()
    }

    /// Whether the dictionary is empty.
    pub fn is_empty(&self) -> bool {
        self.faults.is_empty()
    }

    /// The faults, in insertion order.
    pub fn faults(&self) -> &[Fault] {
        &self.faults
    }

    /// Iterates over the faults.
    pub fn iter(&self) -> impl Iterator<Item = &Fault> {
        self.faults.iter()
    }

    /// Fault at index `i`.
    pub fn get(&self, i: usize) -> Option<&Fault> {
        self.faults.get(i)
    }

    /// Number of faults of a given kind.
    pub fn count(&self, kind: FaultKind) -> usize {
        self.faults.iter().filter(|f| f.kind() == kind).count()
    }

    /// Appends more faults.
    pub fn extend(&mut self, faults: impl IntoIterator<Item = Fault>) {
        self.faults.extend(faults);
    }

    /// Looks a fault up by its [`Fault::name`].
    pub fn by_name(&self, name: &str) -> Option<&Fault> {
        self.faults.iter().find(|f| f.name() == name)
    }

    /// The dictionary without its first `skip` faults, truncated to
    /// `max` faults when given (the `--skip-faults` / `--max-faults`
    /// selection of the CLI and the daemon).
    pub fn window(&self, skip: usize, max: Option<usize>) -> FaultDictionary {
        self.faults.iter().skip(skip).take(max.unwrap_or(usize::MAX)).cloned().collect()
    }
}

impl FromIterator<Fault> for FaultDictionary {
    fn from_iter<T: IntoIterator<Item = Fault>>(iter: T) -> Self {
        FaultDictionary { faults: iter.into_iter().collect() }
    }
}

impl IntoIterator for FaultDictionary {
    type Item = Fault;
    type IntoIter = std::vec::IntoIter<Fault>;

    fn into_iter(self) -> Self::IntoIter {
        self.faults.into_iter()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ten_nodes_give_fortyfive_bridges() {
        let nodes: Vec<String> = (0..10).map(|i| format!("n{i}")).collect();
        let refs: Vec<&str> = nodes.iter().map(String::as_str).collect();
        let faults = exhaustive_bridge_faults(&refs, 10e3);
        assert_eq!(faults.len(), 45); // the paper's bridge count
        // All pairs distinct.
        let mut names: Vec<String> = faults.iter().map(Fault::name).collect();
        names.sort();
        names.dedup();
        assert_eq!(names.len(), 45);
    }

    #[test]
    fn pinholes_one_per_device() {
        let devices: Vec<String> = (1..=10).map(|i| format!("M{i}")).collect();
        let faults = exhaustive_pinhole_faults(&devices, 2e3);
        assert_eq!(faults.len(), 10); // the paper's pinhole count
        assert!(faults.iter().all(|f| f.kind() == FaultKind::Pinhole));
        assert!(faults.iter().all(|f| f.base_resistance() == 2e3));
    }

    #[test]
    fn dictionary_counts_and_lookup() {
        let mut dict: FaultDictionary =
            exhaustive_bridge_faults(&["a", "b", "c"], 10e3).into_iter().collect();
        dict.extend(exhaustive_pinhole_faults(&["M1".into()], 2e3));
        assert_eq!(dict.len(), 4);
        assert_eq!(dict.count(FaultKind::Bridge), 3);
        assert_eq!(dict.count(FaultKind::Pinhole), 1);
        assert!(dict.by_name("bridge(a,b)").is_some());
        assert!(dict.by_name("bridge(b,a)").is_none());
        assert!(dict.get(3).is_some());
        assert!(dict.get(4).is_none());
        assert!(!dict.is_empty());
        assert_eq!(dict.iter().count(), 4);
        let window: Vec<String> = dict.window(1, Some(2)).iter().map(Fault::name).collect();
        assert_eq!(window, ["bridge(a,c)", "bridge(b,c)"]);
        assert_eq!(dict.window(3, None).len(), 1);
        assert!(dict.window(9, Some(1)).is_empty());
    }

    #[test]
    fn empty_inputs_yield_empty_lists() {
        assert!(exhaustive_bridge_faults(&[], 1e3).is_empty());
        assert!(exhaustive_bridge_faults(&["only"], 1e3).is_empty());
        assert!(exhaustive_pinhole_faults(&[], 1e3).is_empty());
        assert!(FaultDictionary::default().is_empty());
    }
}
