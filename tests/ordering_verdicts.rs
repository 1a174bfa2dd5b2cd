//! Pins the sparse ordering verdict of every committed circuit: for
//! each fixture deck and each synthetic macro at the sizes the tests
//! and benches build, the canonical factorization under `Auto`,
//! `Natural`, `Amd` and `Btf` must keep its resolved ordering, its
//! `nnz(L+U)` and its diagonal-block count. Any change to the Auto
//! gates, the orderings or the factorization that moves one of these
//! numbers shows up here as a table diff.

use std::path::PathBuf;

use castg::core::synthetic::{CrossbarMacro, LadderMacro, MeshMacro, OtaChainMacro};
use castg::core::AnalogMacro;
use castg::netlist::parse_deck;
use castg::spice::OrderingKind::{Amd, Btf, Natural};
use castg::spice::{sparse_fill_stats, Circuit, OrderingKind};

fn fixture(name: &str) -> Circuit {
    let path = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("tests/fixtures").join(name);
    let text = std::fs::read_to_string(&path).expect("fixture deck exists");
    parse_deck(&text).expect("fixture deck parses").into_circuit()
}

const ORDERINGS: [OrderingKind; 4] =
    [OrderingKind::Auto, OrderingKind::Natural, OrderingKind::Amd, OrderingKind::Btf];

/// `[(resolved, lu_nnz, blocks)]` under `Auto`, `Natural`, `Amd`, `Btf`.
type Verdicts = [(OrderingKind, usize, usize); 4];
type Row = (&'static str, Verdicts);

#[rustfmt::skip]
const EXPECTED: &[Row] = &[
    ("divider.sp", [(Natural, 10, 1), (Natural, 10, 1), (Amd, 9, 1), (Btf, 9, 3)]),
    ("iv_converter.sp", [(Natural, 52, 1), (Natural, 52, 1), (Amd, 43, 1), (Btf, 41, 6)]),
    ("bjt_opamp.sp", [(Natural, 79, 1), (Natural, 79, 1), (Amd, 50, 1), (Btf, 48, 5)]),
    ("ladder_param.sp", [(Natural, 1030, 1), (Natural, 1030, 1), (Amd, 774, 1), (Btf, 774, 3)]),
    ("ladder_256", [(Natural, 1018, 1), (Natural, 1018, 1), (Amd, 765, 1), (Btf, 765, 3)]),
    ("mesh_256", [(Amd, 4107, 1), (Natural, 8226, 1), (Amd, 4107, 1), (Btf, 4107, 3)]),
    ("mesh_578", [(Amd, 11659, 1), (Natural, 27698, 1), (Amd, 11659, 1), (Btf, 11659, 3)]),
    ("crossbar_4x4", [(Amd, 247, 1), (Natural, 689, 1), (Amd, 247, 1), (Btf, 289, 8)]),
    ("ota_chain_64", [(Natural, 156, 1), (Natural, 156, 1), (Amd, 156, 1), (Btf, 156, 35)]),
    ("ota_chain_512", [(Natural, 1276, 1), (Natural, 1276, 1), (Amd, 1276, 1), (Btf, 1276, 259)]),
];

fn circuits() -> Vec<(&'static str, Circuit)> {
    vec![
        ("divider.sp", fixture("divider.sp")),
        ("iv_converter.sp", fixture("iv_converter.sp")),
        ("bjt_opamp.sp", fixture("bjt_opamp.sp")),
        ("ladder_param.sp", fixture("ladder_param.sp")),
        ("ladder_256", LadderMacro::with_unknowns(256).nominal_circuit()),
        ("mesh_256", MeshMacro::with_unknowns(256).nominal_circuit()),
        ("mesh_578", MeshMacro::with_unknowns(578).nominal_circuit()),
        ("crossbar_4x4", CrossbarMacro::new(4, 4).nominal_circuit()),
        ("ota_chain_64", OtaChainMacro::with_unknowns(64).nominal_circuit()),
        ("ota_chain_512", OtaChainMacro::with_unknowns(512).nominal_circuit()),
    ]
}

#[test]
fn every_committed_circuit_keeps_its_ordering_verdict() {
    let actual: Vec<Row> = circuits()
        .into_iter()
        .map(|(name, circuit)| {
            let verdicts = ORDERINGS.map(|ordering| {
                let s = sparse_fill_stats(&circuit, ordering).expect("canonical matrix factors");
                (s.resolved, s.lu_nnz, s.blocks)
            });
            (name, verdicts)
        })
        .collect();
    let table: String = actual
        .iter()
        .map(|(name, verdicts)| format!("    ({name:?}, {verdicts:?}),\n"))
        .collect();
    assert_eq!(actual, EXPECTED, "ordering verdicts moved; actual table:\n{table}");
}
