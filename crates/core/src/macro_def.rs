//! The analog-macro abstraction: what the generation algorithm needs to
//! know about a device under test.

use std::sync::Arc;

use castg_faults::FaultDictionary;
use castg_spice::Circuit;

use crate::TestConfiguration;

/// An analog macro (circuit block) for which tests are generated.
///
/// The paper's methodology is macro-type oriented: configuration
/// descriptions are shared by all macros of a type (all IV-converters),
/// node names are standardized, and each individual macro supplies the
/// netlist, the fault universe and the configuration *implementations*
/// (bounds, seeds, box-functions).
pub trait AnalogMacro: Send + Sync {
    /// This macro instance's name (e.g. `"iv_converter"`).
    fn name(&self) -> &str;

    /// The macro *type* the configuration set is shared by
    /// (e.g. `"IV-converter"`).
    fn macro_type(&self) -> &str;

    /// The fault-free netlist.
    fn nominal_circuit(&self) -> Circuit;

    /// The modeled-fault dictionary for this macro (the paper's
    /// exhaustive 45-bridge + 10-pinhole list for the IV-converter).
    fn fault_dictionary(&self) -> FaultDictionary;

    /// The test-configuration implementations available for this macro.
    fn configurations(&self) -> Vec<Arc<dyn TestConfiguration>>;
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::synthetic::DividerMacro;

    #[test]
    fn synthetic_macro_satisfies_contract() {
        let m = DividerMacro::new();
        assert!(!m.name().is_empty());
        assert!(!m.macro_type().is_empty());
        let c = m.nominal_circuit();
        assert!(c.node_count() > 1);
        assert!(!castg_faults::fault_site_nets(&c).is_empty());
        assert!(!m.fault_dictionary().is_empty());
        assert!(!m.configurations().is_empty());
        // Every fault in the dictionary must inject cleanly.
        for f in m.fault_dictionary().iter() {
            f.inject(&c).unwrap();
        }
    }

    #[test]
    fn trait_is_object_safe() {
        fn takes_dyn(_m: &dyn AnalogMacro) {}
        takes_dyn(&DividerMacro::new());
    }
}
