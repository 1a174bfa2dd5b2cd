//! Campaign convergence resilience: deliberately pathological fault
//! variants — singular matrices, genuinely non-converging solves,
//! degenerate injection sites — must degrade to typed per-fault
//! outcomes, never to a process panic or a hard `evaluate_campaign`
//! error, and the outcome tallies must be bit-identical at any worker
//! count.

use std::sync::Arc;

use castg::core::{
    check_params, evaluate_campaign, AnalogMacro, CampaignOptions, ConfigDescription,
    CoreError, FaultOutcome, Measurement, NominalCache, ParamSpec, PortAction,
    TestConfiguration, TestInstance,
};
use castg::core::synthetic::{LadderMacro, MeshMacro, OtaChainMacro};
use castg::faults::{Fault, FaultDictionary};
use castg::numeric::{Bounds, ParamSpace};
use castg::spice::{Circuit, DcAnalysis, MosParams, MosPolarity, Waveform};
use proptest::prelude::*;

/// A two-transistor macro built to host pathological fault variants.
///
/// `M1` is a depletion NMOS common-source stage (`gdrv` biases its gate
/// through `Rg1`, `Rload` pulls the drain `out` to `vdd`); `M2` hangs
/// node `x` off its drain with nothing else attached, so a fault that
/// cuts `M2` off leaves `x` held only by the assembler's gmin floor.
/// The negative rail `neg` exists purely as a bridge target that drags
/// gates below the depletion threshold.
struct PathologicalMacro;

fn depletion_nmos() -> MosParams {
    MosParams { vt0: -1.0, ..MosParams::nmos_default(10e-6, 1e-6) }
}

impl AnalogMacro for PathologicalMacro {
    fn name(&self) -> &str {
        "pathological"
    }

    fn macro_type(&self) -> &str {
        "pathological"
    }

    fn nominal_circuit(&self) -> Circuit {
        let mut c = Circuit::new();
        let vdd = c.node("vdd");
        let neg = c.node("neg");
        let gdrv = c.node("gdrv");
        let g1 = c.node("g1");
        let g2 = c.node("g2");
        let out = c.node("out");
        let x = c.node("x");
        c.add_vsource("V1", vdd, Circuit::GROUND, Waveform::dc(5.0)).unwrap();
        c.add_vsource("Vn", neg, Circuit::GROUND, Waveform::dc(-5.0)).unwrap();
        c.add_vsource("Vg", gdrv, Circuit::GROUND, Waveform::dc(3.0)).unwrap();
        c.add_resistor("Rg1", gdrv, g1, 1e3).unwrap();
        c.add_resistor("Rg2", gdrv, g2, 1e3).unwrap();
        c.add_resistor("Rload", vdd, out, 10e3).unwrap();
        let gnd = Circuit::GROUND;
        c.add_mosfet("M1", out, g1, gnd, gnd, MosPolarity::Nmos, depletion_nmos()).unwrap();
        c.add_mosfet("M2", x, g2, gnd, gnd, MosPolarity::Nmos, depletion_nmos()).unwrap();
        c
    }

    fn fault_site_nodes(&self) -> Vec<String> {
        vec!["out".into(), "g1".into(), "g2".into(), "x".into(), "neg".into()]
    }

    fn fault_dictionary(&self) -> FaultDictionary {
        FaultDictionary::new(pathological_faults())
    }

    fn configurations(&self) -> Vec<Arc<dyn TestConfiguration>> {
        vec![Arc::new(PathologicalDcConfig)]
    }
}

/// The dictionary the robustness tests run: one healthy detectable
/// fault, one deliberately singular variant, one deliberately
/// non-converging variant, and two degenerate injection sites.
fn pathological_faults() -> Vec<Fault> {
    vec![
        // Healthy: shorting the gate bias to the negative rail cuts M1
        // off and slams `out` to vdd — detected via plain/damped Newton.
        Fault::bridge("g1", "neg", 1.0),
        // Deliberately singular: a sub-normal bridge resistance is
        // positive and finite (so it injects), but its conductance
        // overflows to +inf; every rung's factorization sees a
        // non-finite pivot in v(out)'s column and reports the matrix
        // singular there.
        Fault::bridge("out", "0", 5e-324),
        // Deliberately non-converging: 1e250 S of finite coupling
        // destroys the conditioning of every linear solve without ever
        // producing a non-finite pivot; plain, damped, gmin stepping,
        // source stepping and pseudo-transient continuation all fail,
        // and the exhausted ladder reports no convergence.
        Fault::bridge("out", "g1", 1e-250),
        // Degenerate site: a self-bridge cannot be injected.
        Fault::bridge("g1", "g1", 10e3),
        // Degenerate site: the node does not exist in this macro.
        Fault::bridge("nowhere", "0", 10e3),
    ]
}

#[derive(Debug)]
struct PathologicalDcConfig;

impl TestConfiguration for PathologicalDcConfig {
    fn id(&self) -> usize {
        1
    }

    fn name(&self) -> &str {
        "dc_out"
    }

    fn param_names(&self) -> Vec<String> {
        vec!["lev".into()]
    }

    fn space(&self) -> ParamSpace {
        ParamSpace::new(vec![Bounds::new(4.0, 6.0).unwrap()])
    }

    fn seed(&self) -> Vec<f64> {
        vec![5.0]
    }

    fn measure(&self, circuit: &Circuit, params: &[f64]) -> Result<Measurement, CoreError> {
        check_params(self, params)?;
        let sol = DcAnalysis::new(circuit)
            .override_stimulus("V1", Waveform::dc(params[0]))
            .solve()?;
        let out = circuit.find_node("out").expect("macro has an `out` node");
        Ok(Measurement::scalar(sol.voltage(out)))
    }

    fn return_values(&self, measured: &Measurement, nominal: &Measurement) -> Vec<f64> {
        match (measured.as_scalars(), nominal.as_scalars()) {
            (Some(m), Some(n)) => vec![m[0] - n[0]],
            _ => vec![f64::NAN],
        }
    }

    fn tolerance_box(&self, _params: &[f64], _nominal: &[f64]) -> Vec<f64> {
        vec![0.05]
    }

    fn description(&self) -> ConfigDescription {
        ConfigDescription {
            macro_type: "pathological".into(),
            title: "DC output".into(),
            controls: vec![PortAction { node: "vdd".into(), action: "dc(lev)".into() }],
            observes: vec![PortAction { node: "out".into(), action: "dc()".into() }],
            return_value: "dV(out)".into(),
            parameters: vec![ParamSpec { name: "lev".into(), lo: 4.0, hi: 6.0 }],
            variables: vec![],
            seed: vec![("lev".into(), 5.0)],
        }
    }
}

fn pathological_tests() -> Vec<TestInstance> {
    let config: Arc<dyn TestConfiguration> = Arc::new(PathologicalDcConfig);
    vec![TestInstance { params: config.seed(), config }]
}

#[test]
fn deliberate_pathologies_become_typed_outcomes() {
    let mac = PathologicalMacro;
    let cache = NominalCache::new();
    let tests = pathological_tests();
    let dict = mac.fault_dictionary();
    let report = evaluate_campaign(
        &mac,
        &cache,
        &tests,
        &dict,
        &CampaignOptions { threads: 1, ..CampaignOptions::default() },
    )
    .expect("pathological variants must not abort the campaign");

    assert_eq!(report.per_fault.len(), dict.len());
    assert_eq!(report.per_fault[0].outcome, FaultOutcome::Detected);
    assert_eq!(
        report.per_fault[1].outcome,
        FaultOutcome::Singular { unknown: "v(out)".into() },
        "the dead-short variant must report the singular unknown"
    );
    assert_eq!(report.per_fault[2].outcome, FaultOutcome::Unconverged);
    for degenerate in &report.per_fault[3..] {
        assert!(
            matches!(degenerate.outcome, FaultOutcome::InjectionFailed { .. }),
            "degenerate site must fail injection, got {}",
            degenerate.outcome
        );
    }

    let tally = report.tally();
    assert_eq!(
        (tally.detected, tally.singular, tally.unconverged, tally.injection_failed),
        (1, 1, 1, 2)
    );
    assert_eq!(tally.suspect(), 1, "only the non-converging fault is solver fragility");
    // The non-converging variant walked the whole ladder.
    assert!(report.ladder.unconverged > 0, "ladder stats: {:?}", report.ladder);
    assert!(report.ladder.iterations > 0);
}

#[test]
fn pathological_tallies_are_bit_identical_across_thread_counts() {
    let mac = PathologicalMacro;
    let tests = pathological_tests();
    let dict = mac.fault_dictionary();
    let run = |threads: usize| {
        let cache = NominalCache::new();
        evaluate_campaign(
            &mac,
            &cache,
            &tests,
            &dict,
            &CampaignOptions { threads, ..CampaignOptions::default() },
        )
        .expect("campaign completes at any worker count")
    };
    let serial = run(1);
    for threads in [2, 4, 8] {
        let parallel = run(threads);
        assert_eq!(parallel.per_fault, serial.per_fault, "threads = {threads}");
        assert_eq!(parallel.tally(), serial.tally(), "threads = {threads}");
    }
}

#[test]
fn iteration_allowance_degrades_deterministically() {
    // Starving every (fault, test) item of iterations must turn solver
    // work into `Unconverged` — deterministically, with injection
    // failures untouched and no hard error.
    let mac = PathologicalMacro;
    let tests = pathological_tests();
    let dict = mac.fault_dictionary();
    let run = |threads: usize| {
        let cache = NominalCache::new();
        evaluate_campaign(
            &mac,
            &cache,
            &tests,
            &dict,
            &CampaignOptions {
                threads,
                max_newton_iters: Some(0),
                ..CampaignOptions::default()
            },
        )
        .expect("a starved campaign still completes")
    };
    let report = run(1);
    for f in &report.per_fault {
        assert!(
            matches!(
                f.outcome,
                FaultOutcome::Unconverged | FaultOutcome::InjectionFailed { .. }
            ),
            "{}: expected starvation or injection failure, got {}",
            f.fault,
            f.outcome
        );
    }
    assert_eq!(report.tally().unconverged, 3);
    assert_eq!(run(4).per_fault, report.per_fault);
}

/// The evaluation-only re-screens the synthetic families exist for:
/// each macro's full dictionary against DC tests on its own `dc_out`
/// configuration. Every faulted solve must land; the OTA chain's need
/// the gmin, source-stepping and pseudo-transient rungs.
#[test]
fn synthetic_dc_screens_have_no_suspect_outcomes() {
    let screens: [(&str, Box<dyn AnalogMacro>, &[f64]); 3] = [
        ("ladder_256", Box::new(LadderMacro::with_unknowns(256)), &[2.0, 3.5, 5.0, 6.0, 7.0, 8.0]),
        ("mesh_256", Box::new(MeshMacro::with_unknowns(256)), &[2.0, 3.5, 5.0, 6.5, 8.0]),
        ("ota_chain_512", Box::new(OtaChainMacro::with_unknowns(512)), &[1.6, 2.0, 2.4]),
    ];
    for (name, mac, levels) in screens {
        let config = mac
            .configurations()
            .into_iter()
            .find(|c| c.name() == "dc_out")
            .expect("synthetic macros have a dc_out configuration");
        let tests: Vec<TestInstance> = levels
            .iter()
            .map(|&lev| TestInstance { config: Arc::clone(&config), params: vec![lev] })
            .collect();
        let dict = mac.fault_dictionary();
        let cache = NominalCache::new();
        let report =
            evaluate_campaign(&*mac, &cache, &tests, &dict, &CampaignOptions::default())
                .expect("screen completes");
        assert_eq!(report.per_fault.len(), dict.len(), "{name}");
        let tally = report.tally();
        assert_eq!(
            (tally.unconverged, tally.panicked, tally.timed_out, tally.injection_failed),
            (0, 0, 0, 0),
            "{name}: robustness regression: {tally:?}"
        );
    }
}

/// Node universe for the random-dictionary campaigns: every fault site
/// of a 4-section ladder, the internal non-site nodes, ground, and a
/// name that exists in no circuit.
const LADDER_NODES: &[&str] = &["src", "in", "n1", "n2", "n3", "out", "0", "nowhere"];

/// Bridge resistances the random dictionaries draw from: routine
/// values, a dead short whose conductance overflows, a
/// conditioning-destroying near-short, and a near-open.
const BRIDGE_OHMS: &[f64] = &[10e3, 1.0, 5e-324, 1e-250, 1e12];

/// Decodes one drawn `usize` into a bridge over the node universe
/// (endpoint pair plus resistance index), covering self-bridges and
/// ground-to-ground bridges by construction.
fn decode_bridge(code: usize) -> Fault {
    let a = code % LADDER_NODES.len();
    let b = (code / LADDER_NODES.len()) % LADDER_NODES.len();
    let ohms = BRIDGE_OHMS[(code / (LADDER_NODES.len() * LADDER_NODES.len())) % BRIDGE_OHMS.len()];
    Fault::bridge(LADDER_NODES[a], LADDER_NODES[b], ohms)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Campaigns over arbitrary adjacent-bridge dictionaries — self
    /// bridges, ground-to-ground bridges, unknown nodes, dead shorts —
    /// never panic and never return a hard error: every fault gets a
    /// typed outcome, and the tally is bit-identical at 1 and 4 workers.
    #[test]
    fn random_bridge_dictionaries_always_get_typed_outcomes(
        codes in prop::collection::vec(0usize..320, 1..8)
    ) {
        let faults: Vec<Fault> = codes.into_iter().map(decode_bridge).collect();
        let mac = LadderMacro::new(4);
        let config = mac.configurations().into_iter().next().expect("ladder has configs");
        let tests = vec![TestInstance { params: config.seed(), config }];
        let dict = FaultDictionary::new(faults);
        let run = |threads: usize| {
            let cache = NominalCache::new();
            evaluate_campaign(
                &mac,
                &cache,
                &tests,
                &dict,
                &CampaignOptions { threads, ..CampaignOptions::default() },
            )
        };
        let serial = run(1).expect("random dictionaries must not hard-error the campaign");
        prop_assert_eq!(serial.per_fault.len(), dict.len());
        let tally = serial.tally();
        prop_assert_eq!(
            tally.detected + tally.undetected + tally.unconverged + tally.singular
                + tally.timed_out + tally.panicked + tally.injection_failed,
            dict.len()
        );
        let parallel = run(4).expect("parallel campaign completes");
        prop_assert_eq!(parallel.per_fault, serial.per_fault);
        prop_assert_eq!(parallel.tally(), serial.tally());
    }
}
