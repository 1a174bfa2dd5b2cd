//! Differential harness for the fault-campaign engine's delta path. A
//! faulted variant that patches the nominal circuit's compiled plan
//! (every bridge and junction pinhole adds one resistor) must measure
//! **bit for bit** like its twin after `Circuit::drop_compiled_plan`,
//! which recompiles from the netlist, for every fault × test of the
//! IV-converter, BJT op-amp, ladder, mesh and OTA-chain dictionaries,
//! on the dense and the sparse solver path; and each campaign report
//! must be identical at 1 and 4 workers.
//!
//! This is the contract that lets every evaluation inject through the
//! delta path: whatever the patched plans, merged sparse templates,
//! inherited orderings and Jacobian-reuse keys do, the numbers cannot
//! move by even one ulp.

use std::sync::Arc;

use castg::core::synthetic::{LadderMacro, MeshMacro, OtaChainMacro};
use castg::core::{
    evaluate_campaign, AnalogMacro, CampaignOptions, CoverageReport, Evaluator, Measurement,
    NominalCache, TestInstance,
};
use castg::faults::{BridgeDerivation, Fault, FaultDictionary, FaultKind, Junction};
use castg::netlist::{NetlistMacro, NetlistMacroOptions};
use castg::spice::{OrderingKind, SolverKind};

/// Builds a few test instances per configuration of `mac` by scaling
/// each configuration's seed vector — cheap, deterministic, and enough
/// to exercise every measurement kind (DC, THD transient, step
/// transient) against every fault.
fn seed_instances(mac: &dyn AnalogMacro, scales: &[f64]) -> Vec<TestInstance> {
    let mut tests = Vec::new();
    for config in mac.configurations() {
        let space = config.space();
        for &scale in scales {
            let params: Vec<f64> =
                config.seed().iter().map(|p| p * scale).collect();
            let params = space.clamp(&params);
            tests.push(TestInstance { config: Arc::clone(&config), params });
        }
    }
    tests
}

/// `family`'s circuit and configurations, every measurement dispatching
/// through `solver`/`ordering`. The adjacent derivation keeps the
/// wrapper's own (unused) dictionary cheap; callers evaluate the
/// family's dictionary.
fn forced(family: &dyn AnalogMacro, solver: SolverKind, ordering: OrderingKind) -> NetlistMacro {
    let adjacent = NetlistMacroOptions {
        derivation: BridgeDerivation::Adjacent,
        ..NetlistMacroOptions::default()
    };
    NetlistMacro::from_parts(family.name(), family.nominal_circuit(), None, vec![], adjacent)
        .expect("a family's circuit has devices")
        .with_configurations(family.configurations())
        .with_solver(solver, ordering)
        .expect("a family's descriptions round-trip")
}

/// The bits of every number a measurement holds.
fn measurement_bits(m: &Measurement) -> Vec<u64> {
    match m {
        Measurement::Scalars(v) => v.iter().map(|x| x.to_bits()).collect(),
        Measurement::Waveform(w) => [w.t0(), w.dt()]
            .iter()
            .chain(w.values())
            .map(|x| x.to_bits())
            .collect(),
    }
}

fn assert_reports_identical(a: &CoverageReport, b: &CoverageReport, what: &str) {
    assert_eq!(a.test_count, b.test_count, "{what}: test counts");
    assert_eq!(a.per_fault.len(), b.per_fault.len(), "{what}: fault counts");
    for (x, y) in a.per_fault.iter().zip(&b.per_fault) {
        assert_eq!(x.fault, y.fault, "{what}");
        assert_eq!(x.best_test, y.best_test, "{what}: {}", x.fault);
        assert_eq!(x.detected, y.detected, "{what}: {}", x.fault);
        assert_eq!(x.outcome, y.outcome, "{what}: {}", x.fault);
        assert_eq!(
            x.best_sensitivity.to_bits(),
            y.best_sensitivity.to_bits(),
            "{what}: {} sensitivity {} vs {}",
            x.fault,
            x.best_sensitivity,
            y.best_sensitivity,
        );
    }
}

/// Pins every fault × test of `dict` on its delta variant against the
/// variant's `drop_compiled_plan` twin, then the campaign report at 1
/// against 4 workers; returns the 1-worker report.
fn differential(
    mac: &dyn AnalogMacro,
    dict: &FaultDictionary,
    tests: &[TestInstance],
) -> CoverageReport {
    // As `evaluate_campaign` does: compile the nominal and measure every
    // test on it first, so the patches inherit built templates and
    // orderings.
    let nominal = mac.nominal_circuit();
    nominal.compile_plan();
    let cache = NominalCache::new();
    for test in tests {
        Evaluator::new(test.config.as_ref(), &nominal, &cache)
            .nominal(&test.params)
            .expect("nominal measurement");
    }
    for fault in dict.iter() {
        let delta = fault.inject(&nominal).expect("injection");
        let mut rebuilt = delta.clone();
        rebuilt.drop_compiled_plan();
        for (ti, test) in tests.iter().enumerate() {
            let what = format!("{} × test {ti} ({})", fault.name(), test.config.name());
            let measured = (
                test.config.measure(&delta, &test.params),
                test.config.measure(&rebuilt, &test.params),
            );
            match measured {
                (Ok(d), Ok(r)) => {
                    assert_eq!(measurement_bits(&d), measurement_bits(&r), "{what}");
                }
                (Err(d), Err(r)) => assert_eq!(d.to_string(), r.to_string(), "{what}"),
                (d, r) => panic!("{what}: delta {d:?} vs rebuilt {r:?}"),
            }
        }
    }

    let campaign = |threads: usize| {
        let options = CampaignOptions { threads, ..CampaignOptions::default() };
        evaluate_campaign(mac, &NominalCache::new(), tests, dict, &options).expect("campaign")
    };
    let serial = campaign(1);
    assert!(
        serial.detected() > 0,
        "a fully undetected dictionary would make the differential vacuous; escapes: {:?}",
        serial.escapes()
    );
    assert_reports_identical(&serial, &campaign(4), "threads 1 vs 4");
    serial
}

/// IV-converter (dense solver path, n = 11, nonlinear): every
/// dictionary fault — all 45 bridges and all 10 pinholes — against
/// tests from all five paper configurations.
///
/// The transient configurations make the full run a release-binary
/// workload; debug builds cover a dictionary prefix that still includes
/// both fault models.
#[test]
fn iv_converter_delta_campaign_is_bit_identical() {
    let mac = castg_bench::iv_macro(false);
    let full = mac.fault_dictionary();
    let take = if cfg!(debug_assertions) {
        // Two bridges plus the first pinhole keep `cargo test` quick.
        let mut faults: Vec<_> = full.iter().take(2).cloned().collect();
        if let Some(pinhole) = full.iter().find(|f| f.name().starts_with("pinhole")) {
            faults.push(pinhole.clone());
        }
        FaultDictionary::new(faults)
    } else {
        full
    };
    // One instance per configuration (the seed itself): five tests
    // covering DC, supply-current, THD and both step measurements.
    let tests = seed_instances(&mac, &[1.0]);
    differential(&mac, &take, &tests);
}

/// Ladder at n = 256 unknowns (sparse solver path, linear): the full
/// bridge dictionary against DC and step-response tests, exercising
/// each sparse solver's own first factorization and the factor-once
/// Jacobian reuse on patched and recompiled plans alike.
#[test]
fn ladder_256_delta_campaign_is_bit_identical() {
    let mac = LadderMacro::with_unknowns(256);
    assert!(mac.unknowns() >= 256);
    let dict = mac.fault_dictionary();
    let scales: &[f64] = if cfg!(debug_assertions) { &[1.0] } else { &[0.6, 1.0, 1.4] };
    let tests = seed_instances(&mac, scales);
    differential(&mac, &dict, &tests);
}

/// The mesh campaign — the workload whose natural-order fill justifies
/// the AMD ordering — run five-way: Dense, Sparse-Natural, Sparse-AMD,
/// Sparse-BTF and the default Auto-Auto dispatch each get the full
/// delta-vs-recompiled and threads-1-vs-4 treatment, so plan patching
/// over a *permuted* pattern is pinned exactly like the unpermuted
/// paths. (The mesh is irreducible, so its forced-BTF column resolves
/// to the AMD fallback — which is exactly the degenerate case the
/// bit-identity contract must cover.) The Auto row is the dispatch
/// `castg generate` runs; at 256 unknowns (release) it resolves to AMD,
/// so delta variants that keep the nominal's pattern reuse its AMD
/// permutation while recompiled ones compute their own. The
/// configurations must also agree with each other on which faults are
/// detected (their sensitivities differ only in the last ulps).
#[test]
fn mesh_five_way_delta_campaigns_are_bit_identical() {
    let configs: [(SolverKind, OrderingKind); 5] = [
        (SolverKind::Dense, OrderingKind::Natural),
        (SolverKind::Sparse, OrderingKind::Natural),
        (SolverKind::Sparse, OrderingKind::Amd),
        (SolverKind::Sparse, OrderingKind::Btf),
        (SolverKind::Auto, OrderingKind::Auto),
    ];
    let family = MeshMacro::with_unknowns(if cfg!(debug_assertions) { 64 } else { 256 });
    let dict = family.fault_dictionary();
    let mut detection: Vec<Vec<bool>> = Vec::new();
    for (solver, ordering) in configs {
        let mac = forced(&family, solver, ordering);
        let scales: &[f64] = if cfg!(debug_assertions) { &[1.0] } else { &[0.6, 1.0] };
        let tests = seed_instances(&mac, scales);
        let report = differential(&mac, &dict, &tests);
        detection.push(report.per_fault.iter().map(|f| f.detected).collect());
    }
    assert_eq!(detection[0], detection[1], "dense vs sparse-natural detection diverged");
    assert_eq!(detection[0], detection[2], "dense vs sparse-amd detection diverged");
    assert_eq!(detection[0], detection[3], "dense vs sparse-btf detection diverged");
    assert_eq!(detection[0], detection[4], "dense vs auto detection diverged");
}

/// The OTA-chain campaign under *forced BTF* — the one macro whose
/// static pattern genuinely condenses into per-stage blocks, so the
/// delta-vs-recompiled and threads-1-vs-4 contract here runs through
/// the block-wise factor/solve path, patched plans and all. The BTF
/// report's detection verdicts must also match a forced Sparse-AMD run
/// of the same campaign.
#[test]
fn ota_chain_btf_delta_campaign_is_bit_identical() {
    let family = OtaChainMacro::with_unknowns(if cfg!(debug_assertions) { 64 } else { 128 });
    let dict = family.fault_dictionary();
    let mut detection: Vec<Vec<bool>> = Vec::new();
    for ordering in [OrderingKind::Amd, OrderingKind::Btf] {
        let mac = forced(&family, SolverKind::Sparse, ordering);
        let tests = seed_instances(&mac, &[1.0]);
        let report = differential(&mac, &dict, &tests);
        detection.push(report.per_fault.iter().map(|f| f.detected).collect());
    }
    assert_eq!(detection[0], detection[1], "sparse-amd vs sparse-btf detection diverged");
}

/// The ladder campaign through the forced Sparse-AMD configuration:
/// tridiagonal-plus-branch-row structure under a non-identity
/// permutation, delta vs recompiled, threads 1 vs 4.
#[test]
fn ladder_amd_delta_campaign_is_bit_identical() {
    let family = LadderMacro::with_unknowns(if cfg!(debug_assertions) { 96 } else { 256 });
    let mac = forced(&family, SolverKind::Sparse, OrderingKind::Amd);
    let tests = seed_instances(&mac, &[1.0]);
    differential(&mac, &family.fault_dictionary(), &tests);
}

/// The campaign differential through the *dense* solver arm: the
/// n = 24 ladder sits below the Auto sparse threshold, so every
/// simulation of this campaign runs dense LU — the delta path's
/// bit-identity must not depend on the sparse machinery.
#[test]
fn ladder_auto_dense_delta_campaign_is_bit_identical() {
    let mac = LadderMacro::with_unknowns(24);
    let dict = mac.fault_dictionary();
    let config = mac
        .configurations()
        .into_iter()
        .find(|c| c.name() == "dc_out")
        .expect("ladder has a dc_out configuration");
    let tests: Vec<TestInstance> = [2.0, 5.0, 7.5]
        .iter()
        .map(|&lev| TestInstance { config: Arc::clone(&config), params: vec![lev] })
        .collect();
    differential(&mac, &dict, &tests);
}

/// The bipolar op-amp — the pure junction-device Newton path: every
/// dictionary fault (45 bridges + 10 diode/BJT junction pinholes in
/// release; a mix of both in debug) gets the full delta-vs-recompiled
/// and threads-1-vs-4 treatment, pinning resistor patches of plans
/// with `DiodeSite`/`BjtSite` stamps against recompilation.
#[test]
fn bjt_opamp_delta_campaign_is_bit_identical() {
    let mac = castg_bench::golden::bjt_macro(&castg_bench::fixtures_dir());
    let full = mac.fault_dictionary();
    let dict = if cfg!(debug_assertions) {
        // Three bridges plus the first three junction pinholes keep
        // `cargo test` quick while covering both fault models.
        let pinholes = full.iter().filter(|f| f.kind() == FaultKind::Pinhole);
        FaultDictionary::new(full.iter().take(3).chain(pinholes.take(3)).cloned().collect())
    } else {
        full
    };
    let tests = seed_instances(&mac, &[0.7, 1.0, 1.3]);
    differential(&mac, &dict, &tests);
}

/// Spice-level delta-vs-recompiled over a full-wave diode bridge
/// rectifier: bridge and anode–cathode pinhole patches on the compiled
/// plan must solve bit-identically to recompiled circuits under both
/// forced solver kinds — the diode counterpart of the forced-kind
/// ladder differential below.
#[test]
fn rectifier_junction_faults_solve_delta_and_rebuilt_identically() {
    use castg::spice::{
        AnalysisOptions, Circuit, DcAnalysis, DiodeParams, SolverKind, Waveform,
    };
    let mut c = Circuit::new();
    let vin = c.node("vin");
    let a = c.node("a");
    let p = c.node("p");
    let m = c.node("m");
    let gnd = Circuit::GROUND;
    let d = DiodeParams::signal_default();
    c.add_vsource("V1", vin, gnd, Waveform::dc(3.0)).unwrap();
    c.add_resistor("RS", vin, a, 50.0).unwrap();
    c.add_diode("D1", a, p, d).unwrap();
    c.add_diode("D2", gnd, p, d).unwrap();
    c.add_diode("D3", m, a, d).unwrap();
    c.add_diode("D4", m, gnd, d).unwrap();
    c.add_resistor("RL", p, m, 1e3).unwrap();
    c.add_capacitor("CF", p, m, 1e-6).unwrap();
    c.compile_plan();

    let mut faults = vec![
        Fault::bridge("a", "p", 10e3),
        Fault::bridge("p", "m", 10e3),
        Fault::bridge("vin", "m", 10e3),
    ];
    for name in ["D1", "D2", "D3", "D4"] {
        faults.push(Fault::junction_pinhole(name, Junction::AnodeCathode, 2e3));
    }
    for fault in &faults {
        let patched = fault.inject(&c).unwrap();
        let mut rebuilt = patched.clone();
        rebuilt.drop_compiled_plan();
        for solver in [SolverKind::Dense, SolverKind::Sparse] {
            let opts = AnalysisOptions { solver, ..AnalysisOptions::default() };
            let sp = DcAnalysis::with_options(&patched, opts).solve().unwrap();
            let sr = DcAnalysis::with_options(&rebuilt, opts).solve().unwrap();
            for (x, y) in sp.state().iter().zip(sr.state()) {
                assert_eq!(x.to_bits(), y.to_bits(), "{solver:?} {}", fault.name());
            }
        }
    }
}

/// Spice-level differential with the solver *forced* (both kinds, on a
/// size where Auto would pick the other): a delta-injected variant and
/// its recompiled twin must solve bit-identically under explicitly
/// forced Dense and forced Sparse dispatch alike.
#[test]
fn forced_solver_kinds_solve_delta_and_rebuilt_identically() {
    use castg::spice::{AnalysisOptions, DcAnalysis, SolverKind};
    for unknowns in [24usize, 96] {
        let mac = LadderMacro::with_unknowns(unknowns);
        let nominal = mac.nominal_circuit();
        nominal.compile_plan();
        for fault in mac.fault_dictionary().iter() {
            let patched = fault.inject(&nominal).unwrap();
            let mut rebuilt = patched.clone();
            rebuilt.drop_compiled_plan();
            for solver in [SolverKind::Dense, SolverKind::Sparse] {
                let opts = AnalysisOptions { solver, ..AnalysisOptions::default() };
                let sp = DcAnalysis::with_options(&patched, opts).solve().unwrap();
                let sr = DcAnalysis::with_options(&rebuilt, opts).solve().unwrap();
                for (a, b) in sp.state().iter().zip(sr.state()) {
                    assert_eq!(
                        a.to_bits(),
                        b.to_bits(),
                        "n={unknowns} {solver:?} {}",
                        fault.name()
                    );
                }
            }
        }
    }
}
