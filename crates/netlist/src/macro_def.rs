//! [`NetlistMacro`]: a parsed deck paired with description-file test
//! configurations and a topology-derived fault dictionary — the bridge
//! that lets any SPICE netlist enter the generate → compact → evaluate
//! pipeline with zero Rust code.

use std::path::Path;
use std::sync::Arc;

use castg_core::{AnalogMacro, DescribedConfig, TestConfiguration};
use castg_spice::{OrderingKind, SolverKind};
use castg_faults::{derive_fault_dictionary, BridgeDerivation, FaultDictionary};
use castg_spice::Circuit;

use crate::parser::{parse_deck, parse_deck_with_params};
use crate::NetlistError;

/// Fault-derivation knobs for a parsed-deck macro.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct NetlistMacroOptions {
    /// Which node pairs the derived bridge list covers.
    pub derivation: BridgeDerivation,
    /// Dictionary resistance of derived bridge faults (the paper's
    /// 10 kΩ).
    pub bridge_ohms: f64,
    /// Dictionary shunt of derived pinhole faults (the paper's 2 kΩ).
    pub pinhole_ohms: f64,
}

impl Default for NetlistMacroOptions {
    fn default() -> Self {
        NetlistMacroOptions {
            derivation: BridgeDerivation::Exhaustive,
            bridge_ohms: 10e3,
            pinhole_ohms: 2e3,
        }
    }
}

/// An [`AnalogMacro`] backed by a parsed SPICE deck.
///
/// The netlist comes from deck text or a `.sp` file, the fault
/// dictionary is derived from circuit topology
/// ([`castg_faults::derive_fault_dictionary`]: bridges over the
/// non-ground nets, a pinhole at every MOS gate), and the test
/// configurations are textual [`ConfigDescription`] files interpreted
/// by [`DescribedConfig`]. The nominal circuit's compiled stamp plan is
/// shared by every clone [`nominal_circuit`](AnalogMacro::nominal_circuit)
/// hands out, so parsed macros ride the same structure-sharing campaign
/// fast path as the hand-coded ones.
///
/// [`ConfigDescription`]: castg_core::ConfigDescription
///
/// # Example
///
/// ```
/// use castg_netlist::NetlistMacro;
/// use castg_core::AnalogMacro;
///
/// let deck = "\
/// V1 vin 0 DC 5
/// R1 vin mid 1k
/// R2 mid out 1k
/// R3 out 0 2k
/// ";
/// let mac = NetlistMacro::from_deck_text("divider", deck)?;
/// assert_eq!(castg_faults::fault_site_nets(mac.circuit()), vec!["vin", "mid", "out"]);
/// assert_eq!(mac.fault_dictionary().len(), 3); // C(3,2) bridges
/// # Ok::<(), castg_netlist::NetlistError>(())
/// ```
pub struct NetlistMacro {
    name: String,
    macro_type: String,
    title: Option<String>,
    params: Vec<(String, f64)>,
    circuit: Circuit,
    dictionary: FaultDictionary,
    configs: Vec<Arc<dyn TestConfiguration>>,
}

impl NetlistMacro {
    /// Builds a macro from deck text with default fault derivation and
    /// no configurations (attach them with
    /// [`with_configurations`](NetlistMacro::with_configurations) or
    /// load everything at once with
    /// [`from_files`](NetlistMacro::from_files)).
    ///
    /// # Errors
    ///
    /// Deck parse/lowering errors; [`NetlistError::Netlist`] when the
    /// deck holds no devices.
    pub fn from_deck_text(name: impl Into<String>, deck: &str) -> Result<Self, NetlistError> {
        Self::from_deck_text_with(name, deck, NetlistMacroOptions::default())
    }

    /// [`from_deck_text`](NetlistMacro::from_deck_text) with explicit
    /// fault-derivation options.
    ///
    /// # Errors
    ///
    /// As for [`from_deck_text`](NetlistMacro::from_deck_text).
    pub fn from_deck_text_with(
        name: impl Into<String>,
        deck: &str,
        options: NetlistMacroOptions,
    ) -> Result<Self, NetlistError> {
        let deck = parse_deck(deck)?;
        let (title, params) = (deck.title.clone(), deck.params.clone());
        Self::from_parts(name, deck.into_circuit(), title, params, options)
    }

    /// Loads a macro from a deck file plus a directory of configuration
    /// description files (`*.cfg` / `*.txt`, ids assigned in file-name
    /// order). The macro name is the deck file's stem. `overrides` are
    /// the `castg --param NAME=VALUE` pairs: each shadows a deck
    /// `.param` of the same name or defines a new one before any card
    /// is lowered (`&[]` for none).
    ///
    /// # Errors
    ///
    /// [`NetlistError::Io`] for unreadable files, parse errors from the
    /// deck, [`NetlistError::Config`] for missing or uninterpretable
    /// descriptions.
    pub fn from_files(
        deck_path: &Path,
        configs_dir: &Path,
        options: NetlistMacroOptions,
        overrides: &[(String, f64)],
    ) -> Result<Self, NetlistError> {
        let text = std::fs::read_to_string(deck_path).map_err(|e| NetlistError::Io {
            path: deck_path.display().to_string(),
            reason: e.to_string(),
        })?;
        let name = deck_path
            .file_stem()
            .and_then(|s| s.to_str())
            .unwrap_or("netlist")
            .to_string();
        let deck = parse_deck_with_params(&text, overrides)?;
        let (title, params) = (deck.title.clone(), deck.params.clone());
        let mac = Self::from_parts(name, deck.into_circuit(), title, params, options)?;
        let configs = DescribedConfig::load_dir(configs_dir)
            .map_err(|e| NetlistError::Config { reason: e.to_string() })?;
        Ok(mac.with_configurations(configs))
    }

    /// Attaches test configurations. The macro type is taken from the
    /// first configuration's description (falling back to the deck
    /// title, then `"netlist"`).
    pub fn with_configurations(mut self, configs: Vec<Arc<dyn TestConfiguration>>) -> Self {
        if let Some(first) = configs.first() {
            let t = first.description().macro_type;
            if !t.is_empty() {
                self.macro_type = t;
            }
        }
        self.configs = configs;
        self
    }

    /// Forces the solver/ordering path every attached configuration's
    /// measurements dispatch through, by re-interpreting each
    /// configuration's description with the pair applied. `Auto`/`Auto`
    /// (the default) keeps the per-circuit heuristics; this is what the
    /// `castg --ordering` flag plumbs down to.
    ///
    /// # Errors
    ///
    /// [`NetlistError::Config`] when a configuration's description does
    /// not round-trip through the interpreter (impossible for
    /// configurations produced by [`from_files`](NetlistMacro::from_files)).
    pub fn with_solver(
        mut self,
        solver: SolverKind,
        ordering: OrderingKind,
    ) -> Result<Self, NetlistError> {
        let mut configs: Vec<Arc<dyn TestConfiguration>> = Vec::with_capacity(self.configs.len());
        for cfg in &self.configs {
            let rebuilt = DescribedConfig::new(cfg.id(), cfg.description())
                .map_err(|e| NetlistError::Config { reason: e.to_string() })?
                .with_solver(solver, ordering);
            configs.push(Arc::new(rebuilt));
        }
        self.configs = configs;
        Ok(self)
    }

    /// Builds a macro around an **already-lowered** circuit (plus the
    /// deck metadata that normally rides along from the parser). This
    /// is the plan-cache entry point for `castg-serve`: a daemon that
    /// has seen a deck's canonical bytes before hands the cached
    /// circuit back in here, and because [`Circuit`] clones share the
    /// compiled stamp plan and its symbolic analyses, the new macro
    /// skips compile + symbolic analysis entirely — only the fault
    /// dictionary is derived again.
    ///
    /// # Errors
    ///
    /// [`NetlistError::Netlist`] when the circuit holds no devices.
    pub fn from_parts(
        name: impl Into<String>,
        circuit: Circuit,
        title: Option<String>,
        params: Vec<(String, f64)>,
        options: NetlistMacroOptions,
    ) -> Result<Self, NetlistError> {
        if circuit.devices().is_empty() {
            return Err(NetlistError::netlist(1, "deck holds no devices"));
        }
        let dictionary = derive_fault_dictionary(
            &circuit,
            options.derivation,
            options.bridge_ohms,
            options.pinhole_ohms,
        );
        // Compile the assembly schedule up front, so every clone the
        // campaign engine takes shares it (delta-patched fault
        // injection, one symbolic analysis per variant). A no-op when
        // the circuit already carries a compiled plan (the plan
        // cache's whole point).
        circuit.compile_plan();
        Ok(NetlistMacro {
            name: name.into(),
            macro_type: title.clone().unwrap_or_else(|| "netlist".to_string()),
            title,
            params,
            circuit,
            dictionary,
            configs: Vec::new(),
        })
    }

    /// The canonical deck bytes of this macro: its circuit serialized
    /// back through the exact round-trip writer
    /// ([`crate::write_deck_with_title`]), which normalizes away
    /// whitespace, comments, `.param` indirection and number
    /// formatting while preserving node interning order, device order,
    /// bit-exact values and identifier spellings (net-name case is
    /// semantic — fault names in reports carry the deck's first
    /// spelling of each net). Two decks differing only in formatting
    /// produce identical canonical bytes; any semantic change (a
    /// value, a node, a device, an identifier spelling) changes them.
    ///
    /// This is the cache-key normalization `castg serve` uses: the
    /// content-addressed result cache and the process-wide plan cache
    /// both key on these bytes (hashed).
    ///
    /// # Errors
    ///
    /// [`NetlistError::Unrepresentable`] when the circuit cannot be
    /// written as a deck (e.g. flattened `.subckt` internals whose
    /// `<instance>.<name>` device names break the card-letter rule);
    /// callers fall back to keying on the raw deck text.
    pub fn canonical_bytes(&self) -> Result<Vec<u8>, NetlistError> {
        crate::writer::write_deck_with_title(&self.circuit, self.title.as_deref())
            .map(String::into_bytes)
    }

    /// The parsed circuit.
    pub fn circuit(&self) -> &Circuit {
        &self.circuit
    }

    /// The deck's `.title`, if it had one.
    pub fn title(&self) -> Option<&str> {
        self.title.as_deref()
    }

    /// The resolved global parameters, deck `.param` definitions first
    /// (in deck order, overrides applied), then override-only names.
    pub fn params(&self) -> &[(String, f64)] {
        &self.params
    }
}

impl AnalogMacro for NetlistMacro {
    fn name(&self) -> &str {
        &self.name
    }

    fn macro_type(&self) -> &str {
        &self.macro_type
    }

    fn nominal_circuit(&self) -> Circuit {
        // Clones share node/device name `Arc`s and the compiled plan.
        self.circuit.clone()
    }

    fn fault_dictionary(&self) -> FaultDictionary {
        self.dictionary.clone()
    }

    fn configurations(&self) -> Vec<Arc<dyn TestConfiguration>> {
        self.configs.clone()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use castg_core::{ConfigDescription, NominalCache};

    const DIVIDER_DECK: &str = "\
.title R-divider
V1 vin 0 DC 5
R1 vin mid 1k
R2 mid out 1k
R3 out 0 2k
C1 out 0 1n
";

    const DC_CFG: &str = "\
macro type: R-divider
test configuration: DC output
control vin: dc(lev)
observe out: dc()
return: dV(out)
parameter lev: 1 .. 8
variable box_rel: 0.05
variable box_gain: 0.5
variable box_floor: 1e-3
seed lev: 5
";

    fn described(id: usize, text: &str) -> Arc<dyn TestConfiguration> {
        Arc::new(DescribedConfig::new(id, ConfigDescription::parse(text).unwrap()).unwrap())
    }

    #[test]
    fn macro_contract_is_satisfied() {
        let mac = NetlistMacro::from_deck_text("divider", DIVIDER_DECK)
            .unwrap()
            .with_configurations(vec![described(1, DC_CFG)]);
        assert_eq!(mac.name(), "divider");
        assert_eq!(mac.macro_type(), "R-divider");
        assert_eq!(mac.title(), Some("R-divider"));
        let c = mac.nominal_circuit();
        assert_eq!(c.node_count(), 4);
        for f in mac.fault_dictionary().iter() {
            f.inject(&c).unwrap();
        }
        assert_eq!(mac.configurations().len(), 1);
    }

    #[test]
    fn parsed_macro_generates_a_detecting_test() {
        use castg_core::Generator;
        let mac = NetlistMacro::from_deck_text("divider", DIVIDER_DECK)
            .unwrap()
            .with_configurations(vec![described(1, DC_CFG)]);
        let cache = NominalCache::new();
        let generator = Generator::new(&mac, &cache);
        let fault = castg_faults::Fault::bridge("out", "0", 10e3);
        let best = generator.generate_for_fault(&fault).unwrap();
        assert!(best.detected_at_dictionary, "bridge(out,0) must be detectable");
    }

    #[test]
    fn empty_deck_is_rejected() {
        assert!(matches!(
            NetlistMacro::from_deck_text("empty", "* nothing here\n"),
            Err(NetlistError::Netlist { .. })
        ));
    }

    #[test]
    fn adjacent_derivation_shrinks_the_dictionary() {
        let opts = NetlistMacroOptions {
            derivation: BridgeDerivation::Adjacent,
            ..NetlistMacroOptions::default()
        };
        let adjacent =
            NetlistMacro::from_deck_text_with("divider", DIVIDER_DECK, opts).unwrap();
        let exhaustive = NetlistMacro::from_deck_text("divider", DIVIDER_DECK).unwrap();
        // Exhaustive: C(3,2) = 3 (no ground pairs). Adjacent: vin–gnd,
        // vin–mid, mid–out, out–gnd — 4, including ground pairs, but
        // never the non-adjacent vin–out.
        assert_eq!(exhaustive.fault_dictionary().len(), 3);
        assert_eq!(adjacent.fault_dictionary().len(), 4);
        assert!(adjacent.fault_dictionary().by_name("bridge(vin,out)").is_none());
    }

    #[test]
    fn param_overrides_reach_the_lowered_circuit() {
        let dir = std::env::temp_dir().join(format!("castg-netlist-params-{}", std::process::id()));
        let configs = dir.join("configs");
        std::fs::create_dir_all(&configs).unwrap();
        let deck = ".param rload=2k\nV1 vin 0 DC 5\nR1 vin out 1k\nR2 out 0 {rload}\n";
        std::fs::write(dir.join("div.sp"), deck).unwrap();
        std::fs::write(configs.join("1_dc.cfg"), DC_CFG).unwrap();
        let loaded = NetlistMacro::from_files(
            &dir.join("div.sp"),
            &configs,
            NetlistMacroOptions::default(),
            &[("rload".to_string(), 4e3)],
        );
        std::fs::remove_dir_all(&dir).unwrap();
        let overridden = loaded.unwrap();
        assert_eq!(overridden.name(), "div");
        assert_eq!(overridden.configurations().len(), 1);
        assert_eq!(overridden.params(), &[("rload".to_string(), 4e3)]);
        let c = overridden.nominal_circuit();
        let r2 = c.device("R2").unwrap();
        match r2.kind() {
            castg_spice::DeviceKind::Resistor { ohms, .. } => assert_eq!(*ohms, 4e3),
            other => panic!("R2 should be a resistor, got {other:?}"),
        }
    }

    #[test]
    fn trait_object_compatible() {
        let mac = NetlistMacro::from_deck_text("divider", DIVIDER_DECK).unwrap();
        fn takes_dyn(_m: &dyn AnalogMacro) {}
        takes_dyn(&mac);
    }
}
