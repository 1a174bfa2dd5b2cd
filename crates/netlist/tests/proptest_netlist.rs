//! Property-based tests of the deck frontend.
//!
//! * **Round-trip**: `parse(write(c)) == c` — exactly, including node
//!   interning order and bit-identical element values — over the
//!   synthetic macro families (ladder, OTA chain, mesh, crossbar,
//!   divider), the circuit parsed from the IV-converter deck, and
//!   randomly generated RC networks with random waveforms.
//! * **Robustness**: the parser returns `Err` (never panics, never
//!   loops) on arbitrary byte soup and on random mutations of valid
//!   decks, and every error carries a 1-based line/column.
//! * **Parameters**: `{…}` expression evaluation is deterministic (two
//!   parses of the same deck agree bit for bit, and match the same
//!   arithmetic done in Rust), `.title` text survives a write → parse
//!   round-trip even when it contains comment characters, and written
//!   decks are always *resolved* — no `.param` cards or `{` expressions
//!   ever appear in writer output, so a written deck round-trips
//!   without any parameter machinery.

use castg_core::synthetic::{CrossbarMacro, DividerMacro, LadderMacro, MeshMacro, OtaChainMacro};
use castg_core::AnalogMacro;
use castg_netlist::{parse_deck, write_deck, write_deck_with_title, NetlistError};
use castg_spice::{Circuit, Waveform};
use proptest::prelude::*;

fn assert_round_trip(c: &Circuit) {
    let deck = write_deck(c).expect("nominal circuits are deck-representable");
    let reparsed = parse_deck(&deck).expect("written decks parse");
    assert_eq!(reparsed.circuit(), c, "round-trip diverged:\n{deck}");
}

#[test]
fn synthetic_families_round_trip_exactly() {
    assert_round_trip(&DividerMacro::new().nominal_circuit());
    let iv = include_str!("../../../tests/fixtures/iv_converter.sp");
    assert_round_trip(parse_deck(iv).expect("the IV-converter deck parses").circuit());
    for sections in [2, 7, 40] {
        assert_round_trip(&LadderMacro::new(sections).nominal_circuit());
    }
    for stages in [2, 5] {
        assert_round_trip(&OtaChainMacro::new(stages).nominal_circuit());
    }
    assert_round_trip(&MeshMacro::new(4, 6).nominal_circuit());
    assert_round_trip(&CrossbarMacro::new(3, 3).nominal_circuit());
}

/// Error → its (line, col); panics if the variant has none.
fn location(e: &NetlistError) -> (usize, usize) {
    match e {
        NetlistError::Parse { line, col, .. } => (*line, *col),
        NetlistError::Netlist { line, .. } => (*line, 1),
        other => panic!("unexpected error variant: {other:?}"),
    }
}

const VALID_DECK: &str = "\
.title mutation fodder
.model nch nmos (vto=0.75 kp=110u)
.subckt cell a b
Rc a m 1k
Cc m b 1p
.ends cell
V1 in 0 DC 5
I1 0 g SIN(1u 0.5u 10k)
Rg g 0 200k
M1 d g 0 0 nch W=10u L=1u
Rd in d 50k
L1 d out 1m
X1 out 0 cell
.end
";

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// Arbitrary byte soup never panics or loops; failures carry a
    /// valid location.
    #[test]
    fn byte_soup_never_panics(bytes in prop::collection::vec(0usize..256, 0..400)) {
        let bytes: Vec<u8> = bytes.iter().map(|&b| b as u8).collect();
        let text = String::from_utf8_lossy(&bytes);
        if let Err(e) = parse_deck(&text) {
            let (line, col) = location(&e);
            prop_assert!(line >= 1 && col >= 1, "bad location in {e}");
        }
    }

    /// Random single-byte mutations of a valid deck parse or fail
    /// cleanly — never panic.
    #[test]
    fn mutated_decks_never_panic(
        positions in prop::collection::vec(0usize..VALID_DECK.len(), 1..6),
        replacements in prop::collection::vec(0usize..256, 1..6),
    ) {
        let mut bytes = VALID_DECK.as_bytes().to_vec();
        for (p, r) in positions.iter().zip(&replacements) {
            bytes[*p] = *r as u8;
        }
        let text = String::from_utf8_lossy(&bytes);
        if let Err(e) = parse_deck(&text) {
            let (line, col) = location(&e);
            prop_assert!(line >= 1 && col >= 1, "bad location in {e}");
        }
    }

    /// Random line deletions and duplications also parse or fail
    /// cleanly.
    #[test]
    fn line_shuffles_never_panic(
        drop_at in 0usize..14,
        dup_at in 0usize..14,
    ) {
        let lines: Vec<&str> = VALID_DECK.lines().collect();
        let mut mutated: Vec<&str> = Vec::new();
        for (i, l) in lines.iter().enumerate() {
            if i == drop_at {
                continue;
            }
            mutated.push(l);
            if i == dup_at {
                mutated.push(l);
            }
        }
        let text = mutated.join("\n");
        let _ = parse_deck(&text); // must simply not panic / not hang
    }

    /// Randomly generated RC ladders with random element values and a
    /// random source waveform round-trip exactly.
    #[test]
    fn random_rc_networks_round_trip(
        values in prop::collection::vec(1e-12f64..1e9, 2..24),
        wave_kind in 0usize..5,
        wave_vals in prop::collection::vec(-10.0f64..10.0, 7usize),
    ) {
        let mut c = Circuit::new();
        let top = c.node("n0");
        let w = |i: usize| wave_vals[i];
        let wave = match wave_kind {
            0 => Waveform::dc(w(0)),
            1 => Waveform::sine(w(0), w(1), w(2).abs() + 1.0),
            2 => Waveform::step(w(0), w(1), w(2).abs(), w(3).abs()),
            3 => Waveform::Pulse {
                low: w(0), high: w(1), delay: w(2).abs(), rise: w(3).abs(),
                fall: w(4).abs(), width: w(5).abs(), period: w(6).abs(),
            },
            _ => {
                let mut t = 0.0;
                Waveform::Pwl(wave_vals.iter().map(|v| {
                    t += v.abs();
                    (t, *v)
                }).collect())
            }
        };
        c.add_vsource("V1", top, Circuit::GROUND, wave).unwrap();
        let mut prev = top;
        for (i, v) in values.iter().enumerate() {
            let next = c.node(&format!("n{}", i + 1));
            if i % 3 == 2 {
                c.add_capacitor(&format!("C{i}"), prev, next, *v).unwrap();
            } else if i % 3 == 1 {
                c.add_inductor(&format!("L{i}"), prev, next, *v).unwrap();
            } else {
                c.add_resistor(&format!("R{i}"), prev, next, *v).unwrap();
            }
            prev = next;
        }
        let deck = write_deck(&c).unwrap();
        let reparsed = parse_deck(&deck).unwrap();
        prop_assert_eq!(reparsed.circuit(), &c);
    }

    /// `.title` text round-trips through the writer even when it holds
    /// the comment characters (`;`, ` $`, `*`) that would be stripped
    /// anywhere else in the deck.
    #[test]
    fn titles_round_trip_through_the_writer(
        codes in prop::collection::vec(32usize..127, 0..40),
    ) {
        let title: String = codes.iter().map(|&c| c as u8 as char).collect();
        let mut c = Circuit::new();
        let a = c.node("a");
        c.add_vsource("V1", a, Circuit::GROUND, Waveform::dc(1.0)).unwrap();
        c.add_resistor("R1", a, Circuit::GROUND, 1e3).unwrap();
        let trimmed = title.trim();
        match write_deck_with_title(&c, Some(&title)) {
            Ok(deck) => {
                // Writable titles are exactly the trim-stable ones.
                prop_assert_eq!(trimmed, title.as_str());
                let reparsed = parse_deck(&deck).unwrap();
                prop_assert_eq!(reparsed.title.as_deref(), Some(title.as_str()));
                prop_assert_eq!(reparsed.circuit(), &c);
            }
            Err(_) => prop_assert!(trimmed != title, "trim-stable title rejected: {:?}", title),
        }
    }

    /// Expression evaluation is deterministic and matches the same
    /// arithmetic done directly in Rust, bit for bit.
    #[test]
    fn expressions_evaluate_deterministically(
        a in -1e6f64..1e6,
        b in -1e3f64..1e3,
    ) {
        let deck = format!(
            ".param a={a:?} b={b:?}\n\
             V1 x 0 DC {{(a*b+a)/(b*b+1)-b}}\n\
             R1 x 0 1k\n"
        );
        let first = parse_deck(&deck).unwrap();
        let second = parse_deck(&deck).unwrap();
        prop_assert_eq!(first.circuit(), second.circuit());
        let expected = (a * b + a) / (b * b + 1.0) - b;
        let v1 = first.circuit().device("V1").unwrap();
        match v1.kind() {
            castg_spice::DeviceKind::Vsource { wave: Waveform::Dc(v), .. } => {
                prop_assert_eq!(v.to_bits(), expected.to_bits(), "{} vs {}", v, expected);
            }
            other => prop_assert!(false, "V1 should be a DC source, got {:?}", other),
        }
    }

    /// Writer output is always resolved: no `.param` card and no `{`
    /// expression survives, so the written deck round-trips with no
    /// parameter machinery in play.
    #[test]
    fn written_decks_are_fully_resolved(
        r in 1.0f64..1e6,
        ratio in 1.0f64..100.0,
    ) {
        let deck = format!(
            ".param rbase={r:?} ratio={ratio:?}\n\
             .param rtot={{rbase*ratio}}\n\
             V1 x 0 DC {{ratio}}\n\
             R1 x y {{rbase}}\n\
             R2 y 0 {{rtot}}\n"
        );
        let parsed = parse_deck(&deck).unwrap();
        let written = write_deck(parsed.circuit()).unwrap();
        prop_assert!(!written.contains(".param"), "unresolved writer output:\n{}", written);
        prop_assert!(!written.contains('{'), "unresolved writer output:\n{}", written);
        let reparsed = parse_deck(&written).unwrap();
        prop_assert!(reparsed.params.is_empty());
        prop_assert_eq!(reparsed.circuit(), parsed.circuit());
    }
}
