use std::collections::HashMap;

use crate::bjt::{BjtParams, BjtPolarity};
use crate::device::{Device, DeviceKind};
use crate::diode::DiodeParams;
use crate::mos::{MosParams, MosPolarity};
use crate::node::NodeId;
use crate::stimulus::Waveform;
use crate::SpiceError;

/// A netlist: interned named nodes plus named devices.
///
/// Node `0` is always ground (named `"0"`). Device names are unique and
/// are the handle used for probing, stimulus substitution, and fault
/// injection.
///
/// # Example
///
/// ```
/// use castg_spice::{Circuit, Waveform};
///
/// let mut c = Circuit::new();
/// let vdd = c.node("vdd");
/// let out = c.node("out");
/// c.add_vsource("VDD", vdd, Circuit::GROUND, Waveform::dc(5.0))?;
/// c.add_resistor("RL", vdd, out, 10e3)?;
/// assert_eq!(c.node_count(), 3); // ground, vdd, out
/// assert!(c.device("RL").is_some());
/// # Ok::<(), castg_spice::SpiceError>(())
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct Circuit {
    node_names: Vec<std::sync::Arc<str>>,
    node_index: HashMap<std::sync::Arc<str>, NodeId>,
    devices: Vec<Device>,
    device_index: HashMap<std::sync::Arc<str>, usize>,
    /// Lazily compiled assembly schedule, shared by every analysis of
    /// this circuit; an added resistor patches it, and every other
    /// mutation drops it. Compiling resolves node ids to matrix slots
    /// and splits devices into constant / stimulus / nonlinear
    /// contributions once, so repeated solves (sensitivity sweeps
    /// hammer the same circuit thousands of times) skip straight to the
    /// flat replay.
    plan: PlanCache,
}

/// Interior cache for the compiled [`StampPlan`](crate::stamp::StampPlan). Equality-transparent:
/// two circuits are equal regardless of which has compiled its plan.
#[derive(Debug, Clone, Default)]
struct PlanCache(std::sync::OnceLock<std::sync::Arc<crate::stamp::StampPlan>>);

impl PartialEq for PlanCache {
    fn eq(&self, _: &Self) -> bool {
        true
    }
}

impl Circuit {
    /// The ground node, present in every circuit.
    pub const GROUND: NodeId = NodeId::GROUND;

    /// Creates an empty circuit containing only the ground node.
    pub fn new() -> Self {
        let ground: std::sync::Arc<str> = std::sync::Arc::from("0");
        let mut node_index = HashMap::new();
        node_index.insert(std::sync::Arc::clone(&ground), NodeId::GROUND);
        Circuit {
            node_names: vec![ground],
            node_index,
            devices: Vec::new(),
            device_index: HashMap::new(),
            plan: PlanCache::default(),
        }
    }

    /// The compiled assembly schedule for this circuit, building it on
    /// first use. Cheap to call afterwards (one `Arc` clone).
    pub(crate) fn plan(&self) -> std::sync::Arc<crate::stamp::StampPlan> {
        std::sync::Arc::clone(
            self.plan.0.get_or_init(|| std::sync::Arc::new(crate::stamp::StampPlan::build(self))),
        )
    }

    /// Drops any compiled assembly schedule, forcing the next analysis
    /// to recompile from the netlist.
    ///
    /// Analyses never need this — a patch keeps the plan consistent —
    /// but differential test harnesses use it to pin the patched plan
    /// against a from-scratch recompilation, and long-lived circuit
    /// stores can use it to shed cached state.
    pub fn drop_compiled_plan(&mut self) {
        self.invalidate_plan();
    }

    /// Compiles the assembly schedule (and whatever it caches lazily)
    /// now instead of at the first analysis.
    ///
    /// Useful before fanning a shared circuit out to worker threads, or
    /// before injecting faulted variants: a variant that adds a
    /// resistor to a compiled circuit patches the compiled plan
    /// (delta-stamps) instead of recompiling its own from the netlist.
    pub fn compile_plan(&self) {
        let _ = self.plan();
    }

    /// Drops the compiled plan; called by the `&mut self` entry points
    /// (node creation, device removal, arbitrary device mutation) so a
    /// mutated circuit recompiles on its next analysis. An added
    /// resistor patches the plan instead — see [`Circuit::add`].
    fn invalidate_plan(&mut self) {
        self.plan.0.take();
    }

    /// Returns the node with the given name, creating it if needed.
    /// `"0"` and `"gnd"` both resolve to ground.
    pub fn node(&mut self, name: &str) -> NodeId {
        let canonical = if name.eq_ignore_ascii_case("gnd") { "0" } else { name };
        if let Some(&id) = self.node_index.get(canonical) {
            return id;
        }
        self.invalidate_plan();
        let id = NodeId(self.node_names.len());
        let name: std::sync::Arc<str> = std::sync::Arc::from(canonical);
        self.node_names.push(std::sync::Arc::clone(&name));
        self.node_index.insert(name, id);
        id
    }

    /// Looks up an existing node by name without creating it.
    pub fn find_node(&self, name: &str) -> Option<NodeId> {
        let canonical = if name.eq_ignore_ascii_case("gnd") { "0" } else { name };
        self.node_index.get(canonical).copied()
    }

    /// Name of a node id.
    ///
    /// # Panics
    ///
    /// Panics if the id does not belong to this circuit.
    pub fn node_name(&self, id: NodeId) -> &str {
        &self.node_names[id.0]
    }

    /// Total number of nodes including ground.
    pub fn node_count(&self) -> usize {
        self.node_names.len()
    }

    /// All node ids except ground.
    pub fn non_ground_nodes(&self) -> impl Iterator<Item = NodeId> + '_ {
        (1..self.node_names.len()).map(NodeId)
    }

    /// The devices in insertion order.
    pub fn devices(&self) -> &[Device] {
        &self.devices
    }

    /// Looks up a device by name.
    pub fn device(&self, name: &str) -> Option<&Device> {
        self.device_index.get(name).map(|&i| &self.devices[i])
    }

    /// Mutable lookup of a device by name.
    pub fn device_mut(&mut self, name: &str) -> Option<&mut Device> {
        match self.device_index.get(name) {
            Some(&i) => {
                // The returned reference is the only mutation path, so
                // only a successful lookup needs to drop the plan.
                self.invalidate_plan();
                Some(&mut self.devices[i])
            }
            None => None,
        }
    }

    /// Adds a fully-formed device, validating its values, its nodes and
    /// name uniqueness.
    ///
    /// If the circuit's assembly schedule is already compiled, a
    /// resistor is *patched into it* (its ops appended, exactly as a
    /// recompile would emit them): the delta-stamp path that makes
    /// bridge and junction-pinhole injection a plan patch rather than a
    /// recompilation plus sparse-pattern re-analysis. Any other device
    /// drops the plan, as node interning, [`remove`](Circuit::remove)
    /// and [`device_mut`](Circuit::device_mut) do.
    ///
    /// # Errors
    ///
    /// [`SpiceError::InvalidValue`] on a value out of range (a
    /// non-positive or non-finite resistance, capacitance or inductance,
    /// non-positive MOS geometry, a diode or BJT parameter out of range,
    /// a non-finite controlled-source gain) or on a current-controlled
    /// source whose controller is missing or carries no branch current,
    /// [`SpiceError::DuplicateDevice`] if the name exists,
    /// [`SpiceError::UnknownNode`] if a terminal references a node that
    /// was never interned.
    pub fn add(&mut self, device: Device) -> Result<(), SpiceError> {
        if let Some(reason) = device.invalid_value() {
            return Err(SpiceError::InvalidValue { device: device.name().to_string(), reason });
        }
        if self.device_index.contains_key(device.name()) {
            return Err(SpiceError::DuplicateDevice { name: device.name().to_string() });
        }
        for n in device.nodes() {
            if n.0 >= self.node_names.len() {
                return Err(SpiceError::UnknownNode {
                    node: n.0,
                    device: device.name().to_string(),
                });
            }
        }
        // Current-controlled sources sense the branch current of an
        // earlier device, so the controller must already be present and
        // voltage-defined. Validating here (rather than at plan build,
        // which is infallible) also guarantees F/H never dangle.
        if let Some(ctrl) = device.controlling_device() {
            match self.device(ctrl) {
                Some(d) if d.has_branch_current() => {}
                Some(_) => {
                    return Err(SpiceError::InvalidValue {
                        device: device.name().to_string(),
                        reason: format!(
                            "controlling device {ctrl} carries no branch current \
                             (must be a V/E/H source or an inductor)"
                        ),
                    });
                }
                None => {
                    return Err(SpiceError::InvalidValue {
                        device: device.name().to_string(),
                        reason: format!(
                            "controlling device {ctrl} not found (it must be added first)"
                        ),
                    });
                }
            }
        }
        // Only a resistor patches a compiled plan (its nodes exist, just
        // validated); taking the plan out drops it for any other device.
        let plan = self.plan.0.take();
        if let (Some(plan), DeviceKind::Resistor { a, b, ohms }) = (plan, device.kind()) {
            let patched = plan.patched_with_resistor(*a, *b, *ohms);
            let _ = self.plan.0.set(std::sync::Arc::new(patched));
        }
        self.device_index.insert(device.name_arc(), self.devices.len());
        self.devices.push(device);
        Ok(())
    }

    /// Removes a device by name, returning it.
    ///
    /// # Errors
    ///
    /// [`SpiceError::UnknownDevice`] if no such device exists.
    pub fn remove(&mut self, name: &str) -> Result<Device, SpiceError> {
        if let Some(dependent) =
            self.devices.iter().find(|d| d.controlling_device() == Some(name))
        {
            return Err(SpiceError::InvalidValue {
                device: name.to_string(),
                reason: format!(
                    "cannot remove: {} senses this device's branch current",
                    dependent.name()
                ),
            });
        }
        let idx = self
            .device_index
            .remove(name)
            .ok_or_else(|| SpiceError::UnknownDevice { name: name.to_string() })?;
        self.invalidate_plan();
        let dev = self.devices.remove(idx);
        // Reindex devices after the removed one.
        for (i, d) in self.devices.iter().enumerate().skip(idx) {
            self.device_index.insert(d.name_arc(), i);
        }
        Ok(dev)
    }

    /// Adds a resistor (`ohms > 0` and finite).
    ///
    /// # Errors
    ///
    /// [`SpiceError::InvalidValue`] on a non-positive or non-finite value,
    /// plus the errors of [`Circuit::add`].
    pub fn add_resistor(
        &mut self,
        name: &str,
        a: NodeId,
        b: NodeId,
        ohms: f64,
    ) -> Result<(), SpiceError> {
        self.add(Device::new(name, DeviceKind::Resistor { a, b, ohms }))
    }

    /// Adds a capacitor (`farads > 0` and finite).
    ///
    /// # Errors
    ///
    /// [`SpiceError::InvalidValue`] on a non-positive or non-finite value,
    /// plus the errors of [`Circuit::add`].
    pub fn add_capacitor(
        &mut self,
        name: &str,
        a: NodeId,
        b: NodeId,
        farads: f64,
    ) -> Result<(), SpiceError> {
        self.add(Device::new(name, DeviceKind::Capacitor { a, b, farads }))
    }

    /// Adds an inductor (`henries > 0` and finite). In DC it behaves as
    /// a short (its branch equation forces `v(a) = v(b)`), and transient
    /// analysis integrates `v = L·di/dt` with the same companion-model
    /// machinery capacitors use.
    ///
    /// # Errors
    ///
    /// [`SpiceError::InvalidValue`] on a non-positive or non-finite value,
    /// plus the errors of [`Circuit::add`].
    pub fn add_inductor(
        &mut self,
        name: &str,
        a: NodeId,
        b: NodeId,
        henries: f64,
    ) -> Result<(), SpiceError> {
        self.add(Device::new(name, DeviceKind::Inductor { a, b, henries }))
    }

    /// Adds an independent voltage source (`pos` → `neg`).
    ///
    /// # Errors
    ///
    /// See [`Circuit::add`].
    pub fn add_vsource(
        &mut self,
        name: &str,
        pos: NodeId,
        neg: NodeId,
        wave: Waveform,
    ) -> Result<(), SpiceError> {
        self.add(Device::new(name, DeviceKind::Vsource { pos, neg, wave }))
    }

    /// Adds an independent current source pulling current out of `from`
    /// and pushing it into `to`.
    ///
    /// # Errors
    ///
    /// See [`Circuit::add`].
    pub fn add_isource(
        &mut self,
        name: &str,
        from: NodeId,
        to: NodeId,
        wave: Waveform,
    ) -> Result<(), SpiceError> {
        self.add(Device::new(name, DeviceKind::Isource { from, to, wave }))
    }

    /// Adds a Level-1 MOSFET. Width and length must be positive.
    ///
    /// # Errors
    ///
    /// [`SpiceError::InvalidValue`] on non-positive geometry, plus the
    /// errors of [`Circuit::add`].
    #[allow(clippy::too_many_arguments)]
    pub fn add_mosfet(
        &mut self,
        name: &str,
        d: NodeId,
        g: NodeId,
        s: NodeId,
        b: NodeId,
        polarity: MosPolarity,
        params: MosParams,
    ) -> Result<(), SpiceError> {
        self.add(Device::new(name, DeviceKind::Mosfet { d, g, s, b, polarity, params }))
    }

    /// Adds a voltage-controlled voltage source (`gain` finite).
    ///
    /// # Errors
    ///
    /// [`SpiceError::InvalidValue`] on a non-finite gain, plus the
    /// errors of [`Circuit::add`].
    #[allow(clippy::too_many_arguments)]
    pub fn add_vcvs(
        &mut self,
        name: &str,
        pos: NodeId,
        neg: NodeId,
        cp: NodeId,
        cn: NodeId,
        gain: f64,
    ) -> Result<(), SpiceError> {
        self.add(Device::new(name, DeviceKind::Vcvs { pos, neg, cp, cn, gain }))
    }

    /// Adds a junction diode from anode `a` to cathode `k`.
    ///
    /// # Errors
    ///
    /// [`SpiceError::InvalidValue`] on a non-positive `Is`/`n`, a
    /// negative `rs`/`cj0`, or any non-finite parameter, plus the
    /// errors of [`Circuit::add`].
    pub fn add_diode(
        &mut self,
        name: &str,
        a: NodeId,
        k: NodeId,
        params: DiodeParams,
    ) -> Result<(), SpiceError> {
        self.add(Device::new(name, DeviceKind::Diode { a, k, params }))
    }

    /// Adds a bipolar junction transistor (collector, base, emitter).
    ///
    /// # Errors
    ///
    /// [`SpiceError::InvalidValue`] on a non-positive `Is`/`βf`/`βr`, a
    /// negative junction capacitance, or any non-finite parameter, plus
    /// the errors of [`Circuit::add`].
    #[allow(clippy::too_many_arguments)]
    pub fn add_bjt(
        &mut self,
        name: &str,
        c: NodeId,
        b: NodeId,
        e: NodeId,
        polarity: BjtPolarity,
        params: BjtParams,
    ) -> Result<(), SpiceError> {
        self.add(Device::new(name, DeviceKind::Bjt { c, b, e, polarity, params }))
    }

    /// Adds a voltage-controlled current source (`gm` finite).
    ///
    /// # Errors
    ///
    /// [`SpiceError::InvalidValue`] on a non-finite transconductance,
    /// plus the errors of [`Circuit::add`].
    #[allow(clippy::too_many_arguments)]
    pub fn add_vccs(
        &mut self,
        name: &str,
        pos: NodeId,
        neg: NodeId,
        cp: NodeId,
        cn: NodeId,
        gm: f64,
    ) -> Result<(), SpiceError> {
        self.add(Device::new(name, DeviceKind::Vccs { pos, neg, cp, cn, gm }))
    }

    /// Adds a current-controlled current source sensing the branch
    /// current of the already-added device `ctrl`.
    ///
    /// # Errors
    ///
    /// [`SpiceError::InvalidValue`] on a non-finite gain or a missing /
    /// non-branch controlling device, plus the errors of
    /// [`Circuit::add`].
    pub fn add_cccs(
        &mut self,
        name: &str,
        pos: NodeId,
        neg: NodeId,
        ctrl: &str,
        gain: f64,
    ) -> Result<(), SpiceError> {
        self.add(Device::new(
            name,
            DeviceKind::Cccs { pos, neg, ctrl: std::sync::Arc::from(ctrl), gain },
        ))
    }

    /// Adds a current-controlled voltage source sensing the branch
    /// current of the already-added device `ctrl`.
    ///
    /// # Errors
    ///
    /// [`SpiceError::InvalidValue`] on a non-finite transresistance or a
    /// missing / non-branch controlling device, plus the errors of
    /// [`Circuit::add`].
    pub fn add_ccvs(
        &mut self,
        name: &str,
        pos: NodeId,
        neg: NodeId,
        ctrl: &str,
        ohms: f64,
    ) -> Result<(), SpiceError> {
        self.add(Device::new(
            name,
            DeviceKind::Ccvs { pos, neg, ctrl: std::sync::Arc::from(ctrl), ohms },
        ))
    }

    /// Stimulus-slot index of a named independent source: its position
    /// among the circuit's independent sources in device order, which
    /// is exactly the waveform-table index of the compiled plan.
    /// `None` when the device is missing or not an independent source —
    /// callers map that to their own error (the analyses' stimulus
    /// overrides reuse this).
    pub(crate) fn wave_slot(&self, name: &str) -> Option<usize> {
        let di = *self.device_index.get(name)?;
        if !matches!(
            self.devices[di].kind(),
            DeviceKind::Vsource { .. } | DeviceKind::Isource { .. }
        ) {
            return None;
        }
        Some(
            self.devices[..di]
                .iter()
                .filter(|d| {
                    matches!(d.kind(), DeviceKind::Vsource { .. } | DeviceKind::Isource { .. })
                })
                .count(),
        )
    }

    /// Names of all MOSFET devices (in insertion order); the pinhole fault
    /// universe of the paper is one fault per transistor.
    pub fn mosfet_names(&self) -> Vec<String> {
        self.devices
            .iter()
            .filter(|d| matches!(d.kind(), DeviceKind::Mosfet { .. }))
            .map(|d| d.name().to_string())
            .collect()
    }

    /// Names of all diode devices (in insertion order); each contributes
    /// one junction-pinhole fault site (anode–cathode short).
    pub fn diode_names(&self) -> Vec<String> {
        self.devices
            .iter()
            .filter(|d| matches!(d.kind(), DeviceKind::Diode { .. }))
            .map(|d| d.name().to_string())
            .collect()
    }

    /// Names of all BJT devices (in insertion order); each contributes
    /// two junction-pinhole fault sites (base–emitter and base–collector
    /// shorts).
    pub fn bjt_names(&self) -> Vec<String> {
        self.devices
            .iter()
            .filter(|d| matches!(d.kind(), DeviceKind::Bjt { .. }))
            .map(|d| d.name().to_string())
            .collect()
    }

    /// Number of MNA unknowns: non-ground nodes plus branch currents.
    pub fn unknown_count(&self) -> usize {
        self.node_count() - 1 + self.branch_count()
    }

    /// Number of branch-current unknowns (voltage-defined devices).
    pub fn branch_count(&self) -> usize {
        self.devices.iter().filter(|d| d.has_branch_current()).count()
    }

    /// Index of the branch-current unknown belonging to a voltage-defined
    /// device, if it has one. Indices are assigned in device insertion
    /// order.
    pub fn branch_index(&self, name: &str) -> Option<usize> {
        let mut idx = 0;
        for d in &self.devices {
            if d.has_branch_current() {
                if d.name() == name {
                    return Some(idx);
                }
                idx += 1;
            }
        }
        None
    }

    /// Human-readable name of MNA unknown `i`: `v(<node>)` for the
    /// node-voltage unknowns (`0..node_count()-1`, in node-interning
    /// order), `i(<device>)` for the branch-current unknowns that
    /// follow (in device insertion order). Diagnostics use this to turn
    /// a singular pivot column into the circuit element it belongs to.
    pub fn unknown_name(&self, i: usize) -> Option<String> {
        let n_nodes = self.node_count() - 1;
        if i < n_nodes {
            return self.non_ground_nodes().nth(i).map(|id| format!("v({})", self.node_name(id)));
        }
        let want = i - n_nodes;
        let mut idx = 0;
        for d in &self.devices {
            if d.has_branch_current() {
                if idx == want {
                    return Some(format!("i({})", d.name()));
                }
                idx += 1;
            }
        }
        None
    }

    /// Promote a numeric failure to a circuit-level diagnostic:
    /// [`NumericError::SingularMatrix`](castg_numeric::NumericError::SingularMatrix)
    /// becomes [`SpiceError::Singular`] naming the unknown via
    /// [`Circuit::unknown_name`]; anything else
    /// (or an unnameable pivot) passes through as
    /// [`SpiceError::Numeric`].
    pub fn singular_error(&self, e: castg_numeric::NumericError) -> SpiceError {
        if let castg_numeric::NumericError::SingularMatrix { pivot } = e {
            if let Some(unknown) = self.unknown_name(pivot) {
                return SpiceError::Singular { unknown };
            }
        }
        SpiceError::Numeric(e)
    }
}

impl Default for Circuit {
    fn default() -> Self {
        Circuit::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ground_exists_and_gnd_aliases() {
        let mut c = Circuit::new();
        assert_eq!(c.node_count(), 1);
        assert_eq!(c.node("gnd"), Circuit::GROUND);
        assert_eq!(c.node("GND"), Circuit::GROUND);
        assert_eq!(c.node("0"), Circuit::GROUND);
        assert_eq!(c.node_count(), 1);
    }

    #[test]
    fn node_interning_is_stable() {
        let mut c = Circuit::new();
        let a = c.node("a");
        let b = c.node("b");
        assert_ne!(a, b);
        assert_eq!(c.node("a"), a);
        assert_eq!(c.node_name(a), "a");
        assert_eq!(c.find_node("b"), Some(b));
        assert_eq!(c.find_node("missing"), None);
    }

    #[test]
    fn duplicate_device_rejected() {
        let mut c = Circuit::new();
        let a = c.node("a");
        c.add_resistor("R1", a, Circuit::GROUND, 1.0).unwrap();
        let err = c.add_resistor("R1", a, Circuit::GROUND, 2.0).unwrap_err();
        assert!(matches!(err, SpiceError::DuplicateDevice { .. }));
    }

    #[test]
    fn invalid_values_rejected() {
        let mut c = Circuit::new();
        let a = c.node("a");
        assert!(c.add_resistor("R1", a, Circuit::GROUND, 0.0).is_err());
        assert!(c.add_resistor("R2", a, Circuit::GROUND, -5.0).is_err());
        assert!(c.add_resistor("R3", a, Circuit::GROUND, f64::NAN).is_err());
        assert!(c.add_capacitor("C1", a, Circuit::GROUND, 0.0).is_err());
        let bad = MosParams { w: 0.0, ..MosParams::nmos_default(1e-6, 1e-6) };
        assert!(c
            .add_mosfet("M1", a, a, Circuit::GROUND, Circuit::GROUND, MosPolarity::Nmos, bad)
            .is_err());
    }

    /// `Circuit::add` checks the values of every device, so a device
    /// built with `Device::new` gets the typed constructors' checks, and
    /// a VCVS gain is checked too.
    #[test]
    fn add_validates_values_of_any_device() {
        let mut c = Circuit::new();
        let a = c.node("a");
        for ohms in [0.0, -5.0] {
            let r = Device::new("R1", DeviceKind::Resistor { a, b: Circuit::GROUND, ohms });
            match c.add(r) {
                Err(SpiceError::InvalidValue { reason, .. }) => assert_eq!(
                    reason,
                    format!("resistance must be positive and finite, got {ohms}")
                ),
                other => panic!("a {ohms} Ω resistor was not rejected: {other:?}"),
            }
        }
        let err = c.add_vcvs("E1", a, Circuit::GROUND, a, Circuit::GROUND, f64::NAN).unwrap_err();
        assert!(matches!(err, SpiceError::InvalidValue { .. }), "{err}");
        assert!(c.devices().is_empty());
    }

    #[test]
    fn remove_reindexes_lookup() {
        let mut c = Circuit::new();
        let a = c.node("a");
        c.add_resistor("R1", a, Circuit::GROUND, 1.0).unwrap();
        c.add_resistor("R2", a, Circuit::GROUND, 2.0).unwrap();
        c.add_resistor("R3", a, Circuit::GROUND, 3.0).unwrap();
        let removed = c.remove("R2").unwrap();
        assert_eq!(removed.name(), "R2");
        assert!(c.device("R2").is_none());
        // R3 must still resolve correctly after reindexing.
        match c.device("R3").unwrap().kind() {
            DeviceKind::Resistor { ohms, .. } => assert_eq!(*ohms, 3.0),
            other => panic!("unexpected kind {other:?}"),
        }
        assert!(matches!(c.remove("R2"), Err(SpiceError::UnknownDevice { .. })));
    }

    #[test]
    fn unknown_and_branch_counts() {
        let mut c = Circuit::new();
        let a = c.node("a");
        let b = c.node("b");
        c.add_vsource("V1", a, Circuit::GROUND, Waveform::dc(1.0)).unwrap();
        c.add_resistor("R1", a, b, 1.0).unwrap();
        c.add_vcvs("E1", b, Circuit::GROUND, a, Circuit::GROUND, 2.0).unwrap();
        assert_eq!(c.branch_count(), 2);
        assert_eq!(c.unknown_count(), 2 + 2);
        assert_eq!(c.branch_index("V1"), Some(0));
        assert_eq!(c.branch_index("E1"), Some(1));
        assert_eq!(c.branch_index("R1"), None);
        // The unknown layout mirrored by MNA assembly: node voltages in
        // interning order, then branch currents in device order.
        assert_eq!(c.unknown_name(0).as_deref(), Some("v(a)"));
        assert_eq!(c.unknown_name(1).as_deref(), Some("v(b)"));
        assert_eq!(c.unknown_name(2).as_deref(), Some("i(V1)"));
        assert_eq!(c.unknown_name(3).as_deref(), Some("i(E1)"));
        assert_eq!(c.unknown_name(4), None);
    }

    /// A device added to a compiled circuit rides the delta-stamp plan
    /// patch; the solve must reflect it exactly.
    #[test]
    fn device_add_patches_compiled_plan() {
        use crate::DcAnalysis;
        let mut c = Circuit::new();
        let a = c.node("a");
        let b = c.node("b");
        c.add_vsource("V1", a, Circuit::GROUND, Waveform::dc(2.0)).unwrap();
        c.add_resistor("R1", a, b, 1e3).unwrap();
        c.add_resistor("R2", b, Circuit::GROUND, 1e3).unwrap();
        c.compile_plan();
        // Bridge the lower leg: 1k ∥ 1k = 500 Ω → v(b) = 2·(1/3).
        c.add_resistor("F_bridge", b, Circuit::GROUND, 1e3).unwrap();
        let sol = DcAnalysis::new(&c).solve().unwrap();
        assert!((sol.voltage(b) - 2.0 / 3.0).abs() < 1e-6);
    }

    /// Only an added resistor patches a compiled plan: an added
    /// capacitor drops it, and a failed `remove` keeps it. The next
    /// solve is right either way.
    #[test]
    fn only_an_added_resistor_patches_the_plan() {
        use crate::DcAnalysis;
        let mut c = Circuit::new();
        let a = c.node("a");
        let b = c.node("b");
        c.add_vsource("V1", a, Circuit::GROUND, Waveform::dc(2.0)).unwrap();
        c.add_resistor("R1", a, b, 1e3).unwrap();
        c.add_resistor("R2", b, Circuit::GROUND, 1e3).unwrap();
        c.compile_plan();
        let compiled = |c: &Circuit| c.plan.0.get().is_some();

        assert!(matches!(c.remove("missing"), Err(SpiceError::UnknownDevice { .. })));
        assert!(compiled(&c), "a failed remove dropped the plan");

        // 1k ∥ 1k = 500 Ω in the lower leg → v(b) = 2·(1/3).
        c.add_resistor("F_bridge", b, Circuit::GROUND, 1e3).unwrap();
        assert!(compiled(&c), "an added resistor must patch the plan");
        assert!((DcAnalysis::new(&c).solve().unwrap().voltage(b) - 2.0 / 3.0).abs() < 1e-9);

        // A capacitor is open in DC: same v(b) from the recompiled plan.
        c.add_capacitor("C1", b, Circuit::GROUND, 1e-9).unwrap();
        assert!(!compiled(&c), "an added capacitor must drop the plan");
        assert!((DcAnalysis::new(&c).solve().unwrap().voltage(b) - 2.0 / 3.0).abs() < 1e-9);
        assert!(compiled(&c), "the solve recompiles the plan");
    }

    /// Regression: a patched plan must never survive a *structural*
    /// mutation of the circuit. Mutating a device through `device_mut`
    /// (or removing one / interning a new node) after a patch must drop
    /// the patched plan and recompile from the netlist.
    #[test]
    fn patched_plan_does_not_survive_structural_mutation() {
        use crate::DcAnalysis;
        let mut c = Circuit::new();
        let a = c.node("a");
        let b = c.node("b");
        c.add_vsource("V1", a, Circuit::GROUND, Waveform::dc(6.0)).unwrap();
        c.add_resistor("R1", a, b, 1e3).unwrap();
        c.add_resistor("R2", b, Circuit::GROUND, 1e3).unwrap();
        c.compile_plan();
        // Patch path: an added bridge.
        c.add_resistor("F_bridge", b, Circuit::GROUND, 1e3).unwrap();
        assert!((DcAnalysis::new(&c).solve().unwrap().voltage(b) - 2.0).abs() < 1e-6);

        // Structural mutation via device_mut: change R1's resistance.
        match c.device_mut("R1").unwrap().kind_mut() {
            DeviceKind::Resistor { ohms, .. } => *ohms = 500.0,
            _ => unreachable!(),
        }
        // 6 V over 500 Ω into 500 Ω → v(b) = 3 V: a stale patched plan
        // (still stamping 1 kΩ) would report 2 V.
        let sol = DcAnalysis::new(&c).solve().unwrap();
        assert!((sol.voltage(b) - 3.0).abs() < 1e-6, "stale plan survived device_mut");

        // Removal also invalidates: 6 V over 500 Ω into the bare 1 kΩ
        // leg is 4 V.
        c.remove("F_bridge").unwrap();
        let sol = DcAnalysis::new(&c).solve().unwrap();
        assert!((sol.voltage(b) - 4.0).abs() < 1e-6, "stale plan survived remove");

        // New node interning invalidates (plan dims change with it).
        c.compile_plan();
        let extra = c.node("extra");
        c.add_resistor("R3", b, extra, 1e3).unwrap();
        c.add_resistor("R4", extra, Circuit::GROUND, 1e3).unwrap();
        let sol = DcAnalysis::new(&c).solve().unwrap();
        assert!(sol.voltage(extra) > 0.0, "new node must participate in the solve");
    }

    #[test]
    fn wave_slot_counts_sources_in_device_order() {
        let mut c = Circuit::new();
        let a = c.node("a");
        let b = c.node("b");
        c.add_resistor("R0", a, Circuit::GROUND, 1.0).unwrap();
        c.add_isource("I1", Circuit::GROUND, a, Waveform::dc(1e-3)).unwrap();
        c.add_vcvs("E1", b, Circuit::GROUND, a, Circuit::GROUND, 2.0).unwrap();
        c.add_vsource("V1", b, Circuit::GROUND, Waveform::dc(1.0)).unwrap();
        assert_eq!(c.wave_slot("I1"), Some(0));
        assert_eq!(c.wave_slot("V1"), Some(1));
        assert_eq!(c.wave_slot("E1"), None, "VCVS has no stimulus waveform");
        assert_eq!(c.wave_slot("R0"), None);
        assert_eq!(c.wave_slot("missing"), None);
    }

    #[test]
    fn mosfet_names_lists_transistors_in_order() {
        let mut c = Circuit::new();
        let a = c.node("a");
        let p = MosParams::nmos_default(1e-6, 1e-6);
        c.add_mosfet("M2", a, a, Circuit::GROUND, Circuit::GROUND, MosPolarity::Nmos, p).unwrap();
        c.add_resistor("R1", a, Circuit::GROUND, 1.0).unwrap();
        c.add_mosfet("M1", a, a, Circuit::GROUND, Circuit::GROUND, MosPolarity::Nmos, p).unwrap();
        assert_eq!(c.mosfet_names(), vec!["M2".to_string(), "M1".to_string()]);
    }
}
