//! Deck writing: serializes a [`Circuit`] back into the deck dialect
//! the parser reads, such that `parse(write(c))` reproduces `c`
//! **exactly** — same node table (via the `.nodeorder` extension card),
//! same devices in the same order, bit-identical values (floats are
//! printed with Rust's shortest round-trip formatting).
//!
//! Its output is the canonical deck form behind
//! [`canonical_deck_bytes`], the key of the serve caches.

use std::fmt::Write as _;

use castg_spice::{
    BjtParams, BjtPolarity, Circuit, DeviceKind, DiodeParams, MosParams, MosPolarity, Waveform,
};

use crate::NetlistError;

/// Formats a float with Rust's shortest round-trip representation
/// (`{:?}`), which [`crate::parse_number`] reads back bit-exactly.
fn num(v: f64) -> String {
    format!("{v:?}")
}

/// A name is deck-representable when it survives tokenization intact.
fn check_name(kind: &str, name: &str) -> Result<(), NetlistError> {
    let bad = name.is_empty()
        || name.chars().any(|c| {
            c.is_whitespace() || matches!(c, ',' | '(' | ')' | '=' | ';' | '$' | '*' | '{' | '}')
        })
        || name.starts_with('+')
        || name.starts_with('.');
    if bad {
        return Err(NetlistError::Unrepresentable {
            reason: format!("{kind} name `{name}` cannot be written as a deck token"),
        });
    }
    Ok(())
}

/// Checks that a device name's leading letter matches its card type.
fn check_card_letter(name: &str, letter: char) -> Result<(), NetlistError> {
    match name.chars().next() {
        Some(c) if c.to_ascii_lowercase() == letter => Ok(()),
        _ => Err(NetlistError::Unrepresentable {
            reason: format!(
                "device `{name}` must start with `{}` to be written as that card",
                letter.to_ascii_uppercase()
            ),
        }),
    }
}

fn wave_str(wave: &Waveform) -> String {
    match wave {
        Waveform::Dc(v) => format!("DC {}", num(*v)),
        Waveform::Sine { offset, amplitude, freq, phase, delay } => format!(
            "SIN({} {} {} {} {})",
            num(*offset),
            num(*amplitude),
            num(*freq),
            num(*delay),
            num(*phase)
        ),
        Waveform::Pulse { low, high, delay, rise, fall, width, period } => format!(
            "PULSE({} {} {} {} {} {} {})",
            num(*low),
            num(*high),
            num(*delay),
            num(*rise),
            num(*fall),
            num(*width),
            num(*period)
        ),
        Waveform::Step { base, elev, t_step, t_rise } => {
            format!("STEP({} {} {} {})", num(*base), num(*elev), num(*t_step), num(*t_rise))
        }
        Waveform::Pwl(points) => {
            let mut s = String::from("PWL(");
            for (i, (t, v)) in points.iter().enumerate() {
                if i > 0 {
                    s.push(' ');
                }
                let _ = write!(s, "{} {}", num(*t), num(*v));
            }
            s.push(')');
            s
        }
    }
}

/// The diode model parameters a `.model … d` card carries, used as the
/// deduplication key (bit-exact).
fn diode_model_key(p: &DiodeParams) -> [u64; 4] {
    [p.is_sat.to_bits(), p.n.to_bits(), p.rs.to_bits(), p.cj0.to_bits()]
}

/// The BJT model parameters a `.model … npn/pnp` card carries, used as
/// the deduplication key (bit-exact).
fn bjt_model_key(polarity: BjtPolarity, p: &BjtParams) -> (bool, [u64; 5]) {
    (
        polarity == BjtPolarity::Pnp,
        [p.is_sat.to_bits(), p.bf.to_bits(), p.br.to_bits(), p.cje.to_bits(), p.cjc.to_bits()],
    )
}

/// The non-geometry model parameters a `.model` card carries, used as
/// the deduplication key (bit-exact).
fn model_key(polarity: MosPolarity, p: &MosParams) -> (bool, [u64; 7]) {
    (
        polarity == MosPolarity::Pmos,
        [
            p.vt0.to_bits(),
            p.kp.to_bits(),
            p.lambda.to_bits(),
            p.gamma.to_bits(),
            p.phi.to_bits(),
            p.cox.to_bits(),
            p.cgso.to_bits(),
        ],
    )
}

/// Serializes a circuit as a deck.
///
/// # Errors
///
/// [`NetlistError::Unrepresentable`] when a device or node name cannot
/// survive the card format — a name with whitespace/separator
/// characters, or a device whose name does not start with its card's
/// type letter (faulted circuits' injected `F_*` devices, flattened
/// `x…`-prefixed internals).
///
/// # Example
///
/// ```
/// use castg_netlist::{parse_deck, write_deck};
/// use castg_spice::{Circuit, Waveform};
///
/// let mut c = Circuit::new();
/// let a = c.node("a");
/// c.add_vsource("V1", a, Circuit::GROUND, Waveform::dc(5.0))?;
/// c.add_resistor("R1", a, Circuit::GROUND, 10e3)?;
/// let deck = write_deck(&c)?;
/// assert_eq!(parse_deck(&deck)?.circuit(), &c);
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
pub fn write_deck(circuit: &Circuit) -> Result<String, NetlistError> {
    write_deck_with_title(circuit, None)
}

/// The canonical bytes of a parsed [`Deck`](crate::Deck): its lowered
/// circuit and `.title` serialized back through the exact round-trip
/// writer. Whitespace, comments, case spellings, card continuations,
/// `.param` indirection and number formatting are all normalized away;
/// node interning order, device order and bit-exact values survive. Two
/// decks differing only in formatting therefore canonicalize to
/// identical bytes, and any semantic change produces different bytes —
/// which is what makes these bytes a sound content-address for
/// `castg serve`'s result and plan caches.
///
/// # Errors
///
/// [`NetlistError::Unrepresentable`] when the lowered circuit cannot be
/// written back as a deck (e.g. flattened `.subckt` internals whose
/// `<instance>.<name>` device names break the card-letter rule);
/// callers should fall back to keying on the raw deck text.
pub fn canonical_deck_bytes(deck: &crate::Deck) -> Result<Vec<u8>, NetlistError> {
    write_deck_with_title(deck.circuit(), deck.title.as_deref()).map(String::into_bytes)
}

/// [`write_deck`] with a `.title` card. The title survives the
/// round-trip verbatim — including `;` and `$`, which the parser
/// exempts from comment stripping on `.title` lines only.
///
/// # Errors
///
/// As for [`write_deck`], plus [`NetlistError::Unrepresentable`] for
/// titles a `.title` card cannot carry back: embedded line breaks, or
/// leading/trailing whitespace (the parser trims the title text).
pub fn write_deck_with_title(
    circuit: &Circuit,
    title: Option<&str>,
) -> Result<String, NetlistError> {
    let mut out = String::from("* castg netlist (regenerate with castg_netlist::write_deck)\n");
    if let Some(t) = title {
        if t.contains(['\n', '\r']) {
            return Err(NetlistError::Unrepresentable {
                reason: "title contains a line break".to_string(),
            });
        }
        if t.trim() != t {
            return Err(NetlistError::Unrepresentable {
                reason: format!(
                    "title `{t}` has leading/trailing whitespace, which a .title card loses"
                ),
            });
        }
        let _ = writeln!(out, ".title {t}");
    }

    // Node table, so the parser reproduces interning order exactly.
    let nodes: Vec<&str> =
        circuit.non_ground_nodes().map(|id| circuit.node_name(id)).collect();
    let mut lowercased = std::collections::HashSet::with_capacity(nodes.len());
    for n in &nodes {
        check_name("node", n)?;
        // The parser treats net names case-insensitively (SPICE rules),
        // so two nodes differing only by case would merge on re-parse.
        if !lowercased.insert(n.to_ascii_lowercase()) {
            return Err(NetlistError::Unrepresentable {
                reason: format!(
                    "node `{n}` collides case-insensitively with another node \
                     (deck net names are case-insensitive)"
                ),
            });
        }
    }
    if !nodes.is_empty() {
        let _ = writeln!(out, ".nodeorder {}", nodes.join(" "));
    }

    // Model cards for every distinct (polarity, non-geometry params).
    let mut models: Vec<((bool, [u64; 7]), MosPolarity, MosParams)> = Vec::new();
    for dev in circuit.devices() {
        if let DeviceKind::Mosfet { polarity, params, .. } = dev.kind() {
            let key = model_key(*polarity, params);
            if !models.iter().any(|(k, _, _)| *k == key) {
                models.push((key, *polarity, *params));
            }
        }
    }
    for (i, (_, polarity, p)) in models.iter().enumerate() {
        let kind = match polarity {
            MosPolarity::Nmos => "nmos",
            MosPolarity::Pmos => "pmos",
        };
        let _ = writeln!(
            out,
            ".model castg_m{i} {kind} (vto={} kp={} lambda={} gamma={} phi={} cox={} cgso={})",
            num(p.vt0),
            num(p.kp),
            num(p.lambda),
            num(p.gamma),
            num(p.phi),
            num(p.cox),
            num(p.cgso),
        );
    }

    // Diode and BJT model tables, deduplicated the same bit-exact way.
    let mut dmodels: Vec<([u64; 4], DiodeParams)> = Vec::new();
    let mut qmodels: Vec<((bool, [u64; 5]), BjtPolarity, BjtParams)> = Vec::new();
    for dev in circuit.devices() {
        match dev.kind() {
            DeviceKind::Diode { params, .. } => {
                let key = diode_model_key(params);
                if !dmodels.iter().any(|(k, _)| *k == key) {
                    dmodels.push((key, *params));
                }
            }
            DeviceKind::Bjt { polarity, params, .. } => {
                let key = bjt_model_key(*polarity, params);
                if !qmodels.iter().any(|(k, _, _)| *k == key) {
                    qmodels.push((key, *polarity, *params));
                }
            }
            _ => {}
        }
    }
    for (i, (_, p)) in dmodels.iter().enumerate() {
        let _ = writeln!(
            out,
            ".model castg_d{i} d (is={} n={} rs={} cjo={})",
            num(p.is_sat),
            num(p.n),
            num(p.rs),
            num(p.cj0),
        );
    }
    for (i, (_, polarity, p)) in qmodels.iter().enumerate() {
        let kind = match polarity {
            BjtPolarity::Npn => "npn",
            BjtPolarity::Pnp => "pnp",
        };
        let _ = writeln!(
            out,
            ".model castg_q{i} {kind} (is={} bf={} br={} cje={} cjc={})",
            num(p.is_sat),
            num(p.bf),
            num(p.br),
            num(p.cje),
            num(p.cjc),
        );
    }

    let node_name = |id: castg_spice::NodeId| -> &str {
        if id.is_ground() {
            "0"
        } else {
            circuit.node_name(id)
        }
    };

    for dev in circuit.devices() {
        let name = dev.name();
        check_name("device", name)?;
        match dev.kind() {
            DeviceKind::Resistor { a, b, ohms } => {
                check_card_letter(name, 'r')?;
                let _ =
                    writeln!(out, "{name} {} {} {}", node_name(*a), node_name(*b), num(*ohms));
            }
            DeviceKind::Capacitor { a, b, farads } => {
                check_card_letter(name, 'c')?;
                let _ =
                    writeln!(out, "{name} {} {} {}", node_name(*a), node_name(*b), num(*farads));
            }
            DeviceKind::Inductor { a, b, henries } => {
                check_card_letter(name, 'l')?;
                let _ =
                    writeln!(out, "{name} {} {} {}", node_name(*a), node_name(*b), num(*henries));
            }
            DeviceKind::Vsource { pos, neg, wave } => {
                check_card_letter(name, 'v')?;
                let _ = writeln!(
                    out,
                    "{name} {} {} {}",
                    node_name(*pos),
                    node_name(*neg),
                    wave_str(wave)
                );
            }
            DeviceKind::Isource { from, to, wave } => {
                check_card_letter(name, 'i')?;
                let _ = writeln!(
                    out,
                    "{name} {} {} {}",
                    node_name(*from),
                    node_name(*to),
                    wave_str(wave)
                );
            }
            DeviceKind::Mosfet { d, g, s, b, polarity, params } => {
                check_card_letter(name, 'm')?;
                let key = model_key(*polarity, params);
                let idx = models
                    .iter()
                    .position(|(k, _, _)| *k == key)
                    .expect("model table covers every MOSFET");
                let _ = writeln!(
                    out,
                    "{name} {} {} {} {} castg_m{idx} W={} L={}",
                    node_name(*d),
                    node_name(*g),
                    node_name(*s),
                    node_name(*b),
                    num(params.w),
                    num(params.l),
                );
            }
            DeviceKind::Vcvs { pos, neg, cp, cn, gain } => {
                check_card_letter(name, 'e')?;
                let _ = writeln!(
                    out,
                    "{name} {} {} {} {} {}",
                    node_name(*pos),
                    node_name(*neg),
                    node_name(*cp),
                    node_name(*cn),
                    num(*gain)
                );
            }
            DeviceKind::Diode { a, k, params } => {
                check_card_letter(name, 'd')?;
                let key = diode_model_key(params);
                let idx = dmodels
                    .iter()
                    .position(|(k2, _)| *k2 == key)
                    .expect("model table covers every diode");
                let _ = writeln!(
                    out,
                    "{name} {} {} castg_d{idx}",
                    node_name(*a),
                    node_name(*k)
                );
            }
            DeviceKind::Bjt { c, b, e, polarity, params } => {
                check_card_letter(name, 'q')?;
                let key = bjt_model_key(*polarity, params);
                let idx = qmodels
                    .iter()
                    .position(|(k2, _, _)| *k2 == key)
                    .expect("model table covers every BJT");
                let _ = writeln!(
                    out,
                    "{name} {} {} {} castg_q{idx}",
                    node_name(*c),
                    node_name(*b),
                    node_name(*e)
                );
            }
            DeviceKind::Vccs { pos, neg, cp, cn, gm } => {
                check_card_letter(name, 'g')?;
                let _ = writeln!(
                    out,
                    "{name} {} {} {} {} {}",
                    node_name(*pos),
                    node_name(*neg),
                    node_name(*cp),
                    node_name(*cn),
                    num(*gm)
                );
            }
            DeviceKind::Cccs { pos, neg, ctrl, gain } => {
                check_card_letter(name, 'f')?;
                // The controller is a device in this circuit, written by
                // its own card in an earlier loop iteration (Circuit::add
                // enforces definition order), so its name is checked there.
                let _ = writeln!(
                    out,
                    "{name} {} {} {ctrl} {}",
                    node_name(*pos),
                    node_name(*neg),
                    num(*gain)
                );
            }
            DeviceKind::Ccvs { pos, neg, ctrl, ohms } => {
                check_card_letter(name, 'h')?;
                let _ = writeln!(
                    out,
                    "{name} {} {} {ctrl} {}",
                    node_name(*pos),
                    node_name(*neg),
                    num(*ohms)
                );
            }
        }
    }
    out.push_str(".end\n");
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parse_deck;
    use castg_spice::Waveform;

    /// A circuit touching every device kind and every waveform form.
    fn kitchen_sink() -> Circuit {
        let mut c = Circuit::new();
        // Intern a node *before* any device references it, in an order
        // first-use interning would not reproduce — .nodeorder must.
        let z = c.node("zlast");
        let a = c.node("a");
        let b = c.node("b");
        let d = c.node("d");
        let g = c.node("g");
        c.add_vsource("V1", a, Circuit::GROUND, Waveform::dc(5.0)).unwrap();
        c.add_vsource(
            "V2",
            b,
            Circuit::GROUND,
            Waveform::Sine { offset: 1.0, amplitude: 0.5, freq: 997.0, phase: 0.25, delay: 1e-6 },
        )
        .unwrap();
        c.add_isource("I1", a, b, Waveform::step(0.0, 2e-5, 0.5e-6, 1e-8)).unwrap();
        c.add_isource(
            "I2",
            Circuit::GROUND,
            d,
            Waveform::Pulse {
                low: 0.0,
                high: 1e-3,
                delay: 1e-7,
                rise: 1e-8,
                fall: 2e-8,
                width: 5e-7,
                period: 2e-6,
            },
        )
        .unwrap();
        c.add_vsource("V3", g, Circuit::GROUND, Waveform::Pwl(vec![(0.0, 0.0), (1e-6, 2.0)]))
            .unwrap();
        c.add_resistor("R1", a, b, 1.0 / 3.0).unwrap();
        c.add_capacitor("C1", b, z, 1.5e-12).unwrap();
        c.add_inductor("L1", z, Circuit::GROUND, 2.2e-6).unwrap();
        c.add_mosfet(
            "M1",
            d,
            g,
            Circuit::GROUND,
            Circuit::GROUND,
            castg_spice::MosPolarity::Nmos,
            castg_spice::MosParams::nmos_default(10e-6, 1e-6),
        )
        .unwrap();
        c.add_mosfet(
            "M2",
            d,
            g,
            a,
            a,
            castg_spice::MosPolarity::Pmos,
            castg_spice::MosParams::pmos_default(40e-6, 2e-6),
        )
        .unwrap();
        c.add_vcvs("E1", d, Circuit::GROUND, a, b, -2.5).unwrap();
        c.add_diode("D1", a, b, castg_spice::DiodeParams::signal_default()).unwrap();
        c.add_diode(
            "D2",
            b,
            Circuit::GROUND,
            castg_spice::DiodeParams { rs: 0.0, ..castg_spice::DiodeParams::signal_default() },
        )
        .unwrap();
        c.add_bjt(
            "Q1",
            d,
            g,
            Circuit::GROUND,
            castg_spice::BjtPolarity::Npn,
            castg_spice::BjtParams::signal_default(),
        )
        .unwrap();
        c.add_bjt(
            "Q2",
            g,
            d,
            a,
            castg_spice::BjtPolarity::Pnp,
            castg_spice::BjtParams::signal_default(),
        )
        .unwrap();
        c.add_vccs("G1", a, Circuit::GROUND, d, g, 1.25e-3).unwrap();
        c.add_cccs("F1", b, Circuit::GROUND, "V1", 2.0).unwrap();
        c.add_ccvs("H1", z, d, "L1", 47.5).unwrap();
        c
    }

    #[test]
    fn round_trip_is_exact() {
        let c = kitchen_sink();
        let deck = write_deck(&c).unwrap();
        let reparsed = parse_deck(&deck).unwrap();
        assert_eq!(reparsed.circuit(), &c);
    }

    #[test]
    fn unrepresentable_names_are_rejected() {
        // A faulted circuit's injected bridge (`F_…`) is a resistor
        // whose name does not start with R.
        let mut c = Circuit::new();
        let a = c.node("a");
        c.add_resistor("F_bridge", a, Circuit::GROUND, 1e3).unwrap();
        assert!(matches!(write_deck(&c), Err(NetlistError::Unrepresentable { .. })));

        let mut c = Circuit::new();
        let a = c.node("has space");
        c.add_resistor("R1", a, Circuit::GROUND, 1e3).unwrap();
        assert!(matches!(write_deck(&c), Err(NetlistError::Unrepresentable { .. })));

        // Case-colliding net names would merge on re-parse (the parser
        // follows SPICE's case-insensitive identifier rules).
        let mut c = Circuit::new();
        let a = c.node("In");
        let b = c.node("in");
        c.add_resistor("R1", a, b, 1e3).unwrap();
        assert!(matches!(write_deck(&c), Err(NetlistError::Unrepresentable { .. })));
    }

    #[test]
    fn models_are_deduplicated() {
        let c = kitchen_sink();
        let deck = write_deck(&c).unwrap();
        let model_lines = deck.lines().filter(|l| l.starts_with(".model")).count();
        // One NMOS, one PMOS, two diode flavors (rs differs), one NPN,
        // one PNP — Q1/Q2 share params but not polarity.
        assert_eq!(model_lines, 6);
    }

    #[test]
    fn title_round_trips_with_comment_characters() {
        let c = kitchen_sink();
        for title in ["plain", "50% $duty; cycle", "; leading $ trailing ;", ""] {
            let deck = write_deck_with_title(&c, Some(title)).unwrap();
            let reparsed = parse_deck(&deck).unwrap();
            assert_eq!(reparsed.title.as_deref(), Some(title), "{title:?}");
            assert_eq!(reparsed.circuit(), &c, "{title:?}");
        }
        // No title → none on re-parse.
        let deck = write_deck(&c).unwrap();
        assert_eq!(parse_deck(&deck).unwrap().title, None);
    }

    #[test]
    fn unrepresentable_titles_are_rejected() {
        let c = Circuit::new();
        for bad in ["two\nlines", "cr\rhere", " padded", "padded "] {
            assert!(
                matches!(
                    write_deck_with_title(&c, Some(bad)),
                    Err(NetlistError::Unrepresentable { .. })
                ),
                "{bad:?}"
            );
        }
    }

    #[test]
    fn brace_names_are_rejected() {
        // `{…}` is an expression token on re-parse, so a node named
        // with braces cannot survive the round trip.
        let mut c = Circuit::new();
        let a = c.node("{x}");
        c.add_resistor("R1", a, Circuit::GROUND, 1e3).unwrap();
        assert!(matches!(write_deck(&c), Err(NetlistError::Unrepresentable { .. })));
    }

    #[test]
    fn empty_circuit_writes_and_reparses() {
        let c = Circuit::new();
        let deck = write_deck(&c).unwrap();
        assert_eq!(parse_deck(&deck).unwrap().circuit(), &c);
    }
}
