//! SPICE-deck parsing and lowering into [`castg_spice::Circuit`].
//!
//! The accepted dialect (documented in the crate docs) covers classic
//! device cards `R`/`C`/`L`/`V`/`I`/`M`/`E`, subcircuits
//! (`.subckt`/`.ends` with `X` instantiation, flattened with
//! `<instance>.<name>` prefixes), `.model` cards with Level-1
//! parameters, `.param` definitions with `{…}` arithmetic expressions
//! and parameterized `.subckt` instances, `.title`, `.end`, scale
//! suffixes, line continuations (`+`) and comments (`*` lines, `;` and
//! ` $` trailers; `.title` lines are exempt, like real SPICE). One
//! `castg` extension: `.nodeorder`, emitted by the deck writer,
//! pre-interns nodes so a written-and-reparsed circuit reproduces the
//! original node table exactly.
//!
//! Parsing is staged: tokenizing and structure (pass 1), `.param`
//! resolution ([`crate::param`]) and expression evaluation
//! ([`crate::expr`]), then lowering (pass 2) — this file stays a pure
//! tokenizer/lowerer and never evaluates expression text itself.

use std::collections::{HashMap, HashSet};

use castg_spice::{
    BjtParams, BjtPolarity, Circuit, DiodeParams, MosParams, MosPolarity, Waveform,
};

use crate::expr;
use crate::number::parse_number;
use crate::param::{ParamDef, ParamTable};
use crate::NetlistError;

/// How deep `X` instantiation may nest before the parser assumes a
/// recursive subcircuit definition and bails out.
const MAX_SUBCKT_DEPTH: usize = 32;

/// A parsed deck: the lowered circuit plus deck-level metadata.
#[derive(Debug, Clone)]
pub struct Deck {
    /// `.title` text, if present.
    pub title: Option<String>,
    /// The resolved global parameters: deck `.param` definitions in
    /// deck order (under their original spelling, with any external
    /// overrides applied), then override-only parameters.
    pub params: Vec<(String, f64)>,
    circuit: Circuit,
}

impl Deck {
    /// The lowered circuit.
    pub fn circuit(&self) -> &Circuit {
        &self.circuit
    }

    /// Consumes the deck, returning the circuit.
    pub fn into_circuit(self) -> Circuit {
        self.circuit
    }
}

/// One logical input line (continuations joined), tagged with the
/// source line number of its first physical line.
struct Line {
    no: usize,
    text: String,
}

/// One token with its 1-based **character** column in the logical line
/// (not a byte offset — diagnostics must point at the right column on
/// lines with multibyte UTF-8).
struct Tok<'a> {
    text: &'a str,
    col: usize,
}

/// Removes `;` and ` $` trailers.
fn strip_comment(raw: &str) -> &str {
    let upto = raw.find(';').unwrap_or(raw.len());
    let mut cut = upto;
    // `$` opens a comment at line start or after whitespace.
    for (i, c) in raw[..upto].char_indices() {
        if c == '$' && (i == 0 || raw[..i].ends_with(char::is_whitespace)) {
            cut = i;
            break;
        }
    }
    &raw[..cut]
}

/// Is this (trimmed) physical line a `.title` card? Title text runs to
/// end of line verbatim — real SPICE titles may contain `;` and `$`,
/// which are comment trailers everywhere else.
fn is_title_card(trimmed: &str) -> bool {
    let b = trimmed.as_bytes();
    b.len() >= 6
        && b[..6].eq_ignore_ascii_case(b".title")
        && (b.len() == 6 || b[6].is_ascii_whitespace())
}

/// Joins continuation lines and drops comments/blanks.
fn logical_lines(text: &str) -> Result<Vec<Line>, NetlistError> {
    let mut out: Vec<Line> = Vec::new();
    for (i, raw) in text.lines().enumerate() {
        let no = i + 1;
        let whole = raw.trim();
        if is_title_card(whole) {
            // Exempt from comment stripping; the title is the raw rest
            // of the line.
            out.push(Line { no, text: whole.to_string() });
            continue;
        }
        let stripped = strip_comment(raw);
        let trimmed = stripped.trim();
        if trimmed.is_empty() || trimmed.starts_with('*') {
            continue;
        }
        if let Some(rest) = trimmed.strip_prefix('+') {
            match out.last_mut() {
                Some(prev) => {
                    prev.text.push(' ');
                    prev.text.push_str(rest.trim());
                }
                None => {
                    return Err(NetlistError::parse(
                        no,
                        1,
                        "continuation line with nothing to continue",
                    ))
                }
            }
            continue;
        }
        out.push(Line { no, text: trimmed.to_string() });
    }
    Ok(out)
}

/// Splits a logical line into tokens. Whitespace and `,` separate;
/// `(`, `)` and `=` are standalone tokens; `{` opens an expression
/// token that runs to the matching `}`, whitespace and operators
/// included (an unterminated one runs to end of line and is rejected
/// where its value is needed). Columns are 1-based char positions.
fn tokenize(line: &str) -> Vec<Tok<'_>> {
    let chars: Vec<(usize, char)> = line.char_indices().collect();
    let byte_at = |i: usize| chars.get(i).map_or(line.len(), |&(b, _)| b);
    let is_sep = |c: char| c.is_whitespace() || matches!(c, ',' | '(' | ')' | '=' | '{');
    let mut toks = Vec::new();
    let mut i = 0usize;
    while i < chars.len() {
        let (b, c) = chars[i];
        if c.is_whitespace() || c == ',' {
            i += 1;
        } else if c == '(' || c == ')' || c == '=' {
            toks.push(Tok { text: &line[b..b + c.len_utf8()], col: i + 1 });
            i += 1;
        } else if c == '{' {
            let start = i;
            while i < chars.len() && chars[i].1 != '}' {
                i += 1;
            }
            if i < chars.len() {
                i += 1; // include the `}`
            }
            toks.push(Tok { text: &line[b..byte_at(i)], col: start + 1 });
        } else {
            let start = i;
            while i < chars.len() && !is_sep(chars[i].1) {
                i += 1;
            }
            toks.push(Tok { text: &line[b..byte_at(i)], col: start + 1 });
        }
    }
    toks
}

/// Evaluates a value token: `{expr}` tokens run the expression
/// evaluator against `scope`; anything else must be a SPICE number
/// literal.
fn eval_value_tok(
    t: &Tok<'_>,
    line_no: usize,
    scope: &HashMap<String, f64>,
) -> Result<f64, NetlistError> {
    if let Some(rest) = t.text.strip_prefix('{') {
        let inner = rest.strip_suffix('}').ok_or_else(|| {
            NetlistError::parse(line_no, t.col, format!("unterminated expression `{}`", t.text))
        })?;
        expr::eval(inner, &mut &*scope).map_err(|msg| NetlistError::parse(line_no, t.col, msg))
    } else {
        parse_number(t.text).ok_or_else(|| {
            NetlistError::parse(line_no, t.col, format!("bad number `{}`", t.text))
        })
    }
}

/// The raw expression text of a value token: braces stripped when
/// wrapped, the token itself otherwise (a bare literal or parameter
/// name).
fn raw_expr_text(t: &Tok<'_>, line_no: usize) -> Result<String, NetlistError> {
    match t.text.strip_prefix('{') {
        Some(rest) => rest.strip_suffix('}').map(str::to_string).ok_or_else(|| {
            NetlistError::parse(line_no, t.col, format!("unterminated expression `{}`", t.text))
        }),
        None => Ok(t.text.to_string()),
    }
}

/// Validates a `.param`/default/override name: the expression language
/// must be able to reference it.
fn check_param_name(name: &str, line_no: usize, col: usize) -> Result<(), NetlistError> {
    let mut chars = name.chars();
    let ok = chars.next().is_some_and(|c| c.is_ascii_alphabetic() || c == '_')
        && chars.all(|c| c.is_ascii_alphanumeric() || c == '_');
    if !ok {
        return Err(NetlistError::parse(
            line_no,
            col,
            format!(
                "invalid parameter name `{name}` (letters, digits and `_`, \
                 not starting with a digit)"
            ),
        ));
    }
    Ok(())
}

/// A Level-1 `.model` card: polarity plus whatever parameters the card
/// sets (unset ones fall back to the process defaults).
#[derive(Debug, Clone, Default)]
struct MosModel {
    pmos: bool,
    params: HashMap<String, f64>,
}

/// A resolved `.model` card of any supported kind. MOS geometry stays
/// deferred (instance `W=`/`L=` override the model); diode and BJT
/// cards resolve to full parameter sets immediately (unset keys fall
/// back to the signal defaults).
#[derive(Debug, Clone)]
enum ModelCard {
    Mos(MosModel),
    Diode(DiodeParams),
    Bjt { pnp: bool, params: BjtParams },
}

impl ModelCard {
    /// The type keyword family, for "wrong model kind" diagnostics.
    fn kind_name(&self) -> &'static str {
        match self {
            ModelCard::Mos(_) => "nmos/pmos",
            ModelCard::Diode(_) => "d",
            ModelCard::Bjt { .. } => "npn/pnp",
        }
    }
}

/// A `.subckt` definition: ports, parameter defaults (raw expression
/// text, evaluated per instantiation), body lines.
struct Subckt<'a> {
    ports: Vec<String>,
    /// (lowercased name, original spelling, raw expression text).
    defaults: Vec<(String, String, String)>,
    lines: Vec<&'a Line>,
}

struct LowerCtx<'a> {
    models: HashMap<String, (ModelCard, usize)>,
    subckts: HashMap<String, Subckt<'a>>,
    /// The resolved global `.param` scope.
    globals: HashMap<String, f64>,
}

/// Parses a deck into a lowered circuit.
///
/// # Errors
///
/// [`NetlistError::Parse`] (with line and column) for malformed text,
/// [`NetlistError::Netlist`] (with line) for cards that parse but do
/// not lower (duplicate names, missing models, invalid element values).
pub fn parse_deck(text: &str) -> Result<Deck, NetlistError> {
    parse_deck_with_params(text, &[])
}

/// [`parse_deck`] with external parameter overrides (the CLI's
/// `--param NAME=VALUE`): same-named deck `.param` definitions are
/// shadowed by the given values, and names the deck never defines are
/// added to the global scope.
///
/// # Errors
///
/// As for [`parse_deck`], plus `.param` resolution errors (undefined
/// references, reference cycles, malformed expressions).
pub fn parse_deck_with_params(
    text: &str,
    overrides: &[(String, f64)],
) -> Result<Deck, NetlistError> {
    let lines = logical_lines(text)?;

    // Pass 1: structure. `.param` definitions and `.model` cards are
    // deck-global (models are deferred until parameters resolve, so
    // their values may be expressions); subcircuit bodies are collected
    // for flattening; everything else is a top-level card.
    let mut params = ParamTable::default();
    let mut model_lines: Vec<&Line> = Vec::new();
    let mut model_names: HashSet<String> = HashSet::new();
    let mut subckts: HashMap<String, Subckt<'_>> = HashMap::new();
    let mut top: Vec<&Line> = Vec::new();
    let mut title: Option<String> = None;
    let mut open_sub: Option<(String, Subckt<'_>, usize)> = None;
    for line in &lines {
        let toks = tokenize(&line.text);
        let Some(first) = toks.first() else { continue };
        let head = first.text.to_ascii_lowercase();
        if !head.starts_with('.') {
            match &mut open_sub {
                Some((_, sub, _)) => sub.lines.push(line),
                None => top.push(line),
            }
            continue;
        }
        // Dot-cards are deck-global; inside a .subckt body only device
        // and X cards belong. Rejecting the rest loudly beats silently
        // hoisting a subckt-local .model (locally scoped in some SPICE
        // dialects) to global scope.
        if open_sub.is_some() && head != ".ends" {
            return Err(NetlistError::parse(
                line.no,
                first.col,
                format!("`{head}` is not supported inside a .subckt body"),
            ));
        }
        match head.as_str() {
            ".title" => {
                let rest = line.text[first.text.len()..].trim();
                title = Some(rest.to_string());
            }
            ".end" => break,
            ".param" => {
                for (spelling, rhs) in parse_param_card(&toks, line.no)? {
                    params.define(ParamDef {
                        name: spelling.to_ascii_lowercase(),
                        spelling,
                        rhs,
                        line: line.no,
                    })?;
                }
            }
            ".subckt" => {
                // Nested definitions are rejected by the in-body guard
                // above.
                let (name, sub) = parse_subckt_card(&toks, line.no)?;
                open_sub = Some((name, sub, line.no));
            }
            ".ends" => match open_sub.take() {
                Some((name, sub, _)) => {
                    if let Some(given) = toks.get(1) {
                        if !given.text.eq_ignore_ascii_case(&name) {
                            return Err(NetlistError::parse(
                                line.no,
                                given.col,
                                format!(".ends `{}` does not match .subckt `{name}`", given.text),
                            ));
                        }
                    }
                    if subckts.insert(name.clone(), sub).is_some() {
                        return Err(NetlistError::parse(
                            line.no,
                            first.col,
                            format!("duplicate .subckt `{name}`"),
                        ));
                    }
                }
                None => {
                    return Err(NetlistError::parse(line.no, first.col, ".ends without .subckt"))
                }
            },
            ".model" => {
                if let Some(nt) = toks.get(1) {
                    if !model_names.insert(nt.text.to_ascii_lowercase()) {
                        return Err(NetlistError::parse(
                            line.no,
                            first.col,
                            format!("duplicate .model `{}`", nt.text.to_ascii_lowercase()),
                        ));
                    }
                }
                model_lines.push(line);
            }
            ".nodeorder" => top.push(line),
            other => {
                return Err(NetlistError::parse(
                    line.no,
                    first.col,
                    format!("unknown directive `{other}`"),
                ))
            }
        }
    }
    if let Some((name, _, line_no)) = open_sub {
        return Err(NetlistError::parse(line_no, 1, format!(".subckt `{name}` never closed")));
    }

    // Resolution phase: evaluate every `.param` (lazily, so forward
    // references work; cycles and undefined names error here), then the
    // deferred `.model` cards against the resolved scope.
    let (globals, params_report) = params.resolve(overrides)?;
    let mut models = HashMap::new();
    for line in &model_lines {
        let toks = tokenize(&line.text);
        let (name, model) = parse_model_card(&toks, line.no, &globals)?;
        models.insert(name, (model, line.no));
    }
    let ctx = LowerCtx { models, subckts, globals };

    // Pass 2: lower top-level cards in order, flattening X instances.
    let mut lowerer = Lowerer { circuit: Circuit::new(), node_case: HashMap::new() };
    let no_ports = HashMap::new();
    for line in top {
        lower_card(&mut lowerer, line, "", &no_ports, 0, &ctx, &ctx.globals)?;
    }
    Ok(Deck { title, params: params_report, circuit: lowerer.circuit })
}

/// Parses `.param name=value …` into raw (spelling, expression-text)
/// pairs; values may be `{expr}` or bare literals.
fn parse_param_card(
    toks: &[Tok<'_>],
    line_no: usize,
) -> Result<Vec<(String, String)>, NetlistError> {
    if toks.len() == 1 {
        return Err(NetlistError::parse(line_no, toks[0].col, ".param needs `name=value`"));
    }
    let mut out = Vec::new();
    let mut i = 1usize;
    while i < toks.len() {
        let nt = &toks[i];
        check_param_name(nt.text, line_no, nt.col)?;
        if toks.get(i + 1).map(|t| t.text) != Some("=") {
            return Err(NetlistError::parse(
                line_no,
                nt.col,
                format!("expected `{} = value`", nt.text),
            ));
        }
        let vt = toks.get(i + 2).ok_or_else(|| {
            NetlistError::parse(line_no, nt.col, format!("`{}=` without a value", nt.text))
        })?;
        out.push((nt.text.to_string(), raw_expr_text(vt, line_no)?));
        i += 3;
    }
    Ok(out)
}

/// Parses a `.subckt name ports… [param=default …]` header. Ports run
/// until the first `name=value` default.
fn parse_subckt_card<'a>(
    toks: &[Tok<'_>],
    line_no: usize,
) -> Result<(String, Subckt<'a>), NetlistError> {
    if toks.len() < 2 {
        return Err(NetlistError::parse(line_no, toks[0].col, ".subckt needs a name"));
    }
    let name = toks[1].text.to_ascii_lowercase();
    let port_end = match toks.iter().position(|t| t.text == "=") {
        // The first default's name sits just before the first `=`; it
        // must come after the subckt name (index ≥ 2).
        Some(j) if j >= 3 => j - 1,
        Some(j) => {
            return Err(NetlistError::parse(
                line_no,
                toks[j].col,
                "misplaced `=` (defaults are `name=value` after the ports)",
            ))
        }
        None => toks.len(),
    };
    let mut ports = Vec::with_capacity(port_end.saturating_sub(2));
    for t in &toks[2..port_end] {
        if t.text.starts_with('{') || t.text == "(" || t.text == ")" {
            return Err(NetlistError::parse(
                line_no,
                t.col,
                format!("invalid port name `{}`", t.text),
            ));
        }
        ports.push(t.text.to_ascii_lowercase());
    }
    let mut defaults: Vec<(String, String, String)> = Vec::new();
    let mut i = port_end;
    while i < toks.len() {
        let nt = &toks[i];
        check_param_name(nt.text, line_no, nt.col)?;
        if toks.get(i + 1).map(|t| t.text) != Some("=") {
            return Err(NetlistError::parse(
                line_no,
                nt.col,
                format!("expected `{} = value`", nt.text),
            ));
        }
        let vt = toks.get(i + 2).ok_or_else(|| {
            NetlistError::parse(line_no, nt.col, format!("`{}=` without a value", nt.text))
        })?;
        let lower = nt.text.to_ascii_lowercase();
        if defaults.iter().any(|(l, _, _)| *l == lower) {
            return Err(NetlistError::parse(
                line_no,
                nt.col,
                format!("duplicate parameter default `{}`", nt.text),
            ));
        }
        defaults.push((lower, nt.text.to_string(), raw_expr_text(vt, line_no)?));
        i += 3;
    }
    Ok((name, Subckt { ports, defaults, lines: Vec::new() }))
}

/// Lowering state: the circuit under construction plus the
/// case-canonicalization table for net names (SPICE identifiers are
/// case-insensitive; the first spelling of a net wins and later
/// spellings alias to it, so `VDD` and `vdd` are one net).
struct Lowerer {
    circuit: Circuit,
    /// lowercase net name → the canonical (first-seen) spelling.
    node_case: HashMap<String, String>,
}

impl Lowerer {
    /// Canonicalizes a resolved (port-mapped, prefixed) net name.
    fn canonical(&mut self, name: String) -> String {
        match self.node_case.entry(name.to_ascii_lowercase()) {
            std::collections::hash_map::Entry::Occupied(e) => e.get().clone(),
            std::collections::hash_map::Entry::Vacant(e) => {
                e.insert(name.clone());
                name
            }
        }
    }

    /// Interns a net by its resolved name, case-insensitively.
    fn node(&mut self, name: String) -> castg_spice::NodeId {
        if name == "0" {
            return Circuit::GROUND;
        }
        let canonical = self.canonical(name);
        self.circuit.node(&canonical)
    }
}

/// Parses `.model name nmos|pmos|d|npn|pnp (k=v ...)` (parens
/// optional).
fn parse_model_card(
    toks: &[Tok<'_>],
    line_no: usize,
    scope: &HashMap<String, f64>,
) -> Result<(String, ModelCard), NetlistError> {
    if toks.len() < 3 {
        return Err(NetlistError::parse(
            line_no,
            toks.first().map_or(1, |t| t.col),
            ".model needs a name and a type",
        ));
    }
    let name = toks[1].text.to_ascii_lowercase();
    let assignments = parse_assignments(&toks[3..], line_no, scope)?;
    let card = match toks[2].text.to_ascii_lowercase().as_str() {
        kind @ ("nmos" | "pmos") => {
            let mut model = MosModel { pmos: kind == "pmos", params: HashMap::new() };
            for (key, value) in assignments {
                let k = key.to_ascii_lowercase();
                match k.as_str() {
                    "vto" | "vt0" | "kp" | "lambda" | "gamma" | "phi" | "cox" | "cgso" | "w"
                    | "l" => {
                        let canonical = if k == "vt0" { "vto".to_string() } else { k };
                        model.params.insert(canonical, value);
                    }
                    other => {
                        return Err(NetlistError::parse(
                            line_no,
                            1,
                            format!("unknown model parameter `{other}`"),
                        ))
                    }
                }
            }
            ModelCard::Mos(model)
        }
        "d" => {
            let mut params = DiodeParams::signal_default();
            for (key, value) in assignments {
                match key.to_ascii_lowercase().as_str() {
                    "is" => params.is_sat = value,
                    "n" => params.n = value,
                    "rs" => params.rs = value,
                    "cjo" | "cj0" => params.cj0 = value,
                    other => {
                        return Err(NetlistError::parse(
                            line_no,
                            1,
                            format!("unknown diode model parameter `{other}`"),
                        ))
                    }
                }
            }
            ModelCard::Diode(params)
        }
        kind @ ("npn" | "pnp") => {
            let mut params = BjtParams::signal_default();
            for (key, value) in assignments {
                match key.to_ascii_lowercase().as_str() {
                    "is" => params.is_sat = value,
                    "bf" => params.bf = value,
                    "br" => params.br = value,
                    "cje" => params.cje = value,
                    "cjc" => params.cjc = value,
                    other => {
                        return Err(NetlistError::parse(
                            line_no,
                            1,
                            format!("unknown BJT model parameter `{other}`"),
                        ))
                    }
                }
            }
            ModelCard::Bjt { pnp: kind == "pnp", params }
        }
        other => {
            return Err(NetlistError::parse(
                line_no,
                toks[2].col,
                format!("unsupported model type `{other}` (need nmos, pmos, d, npn or pnp)"),
            ))
        }
    };
    Ok((name, card))
}

/// Parses a `k=v k=v …` tail (optionally wrapped in parentheses);
/// values may be `{expr}` tokens.
fn parse_assignments(
    toks: &[Tok<'_>],
    line_no: usize,
    scope: &HashMap<String, f64>,
) -> Result<Vec<(String, f64)>, NetlistError> {
    let mut out = Vec::new();
    let mut i = 0usize;
    let mut depth = 0usize;
    while i < toks.len() {
        match toks[i].text {
            "(" => {
                depth += 1;
                i += 1;
            }
            ")" => {
                if depth == 0 {
                    return Err(NetlistError::parse(line_no, toks[i].col, "unbalanced `)`"));
                }
                depth -= 1;
                i += 1;
            }
            key => {
                if toks.get(i + 1).map(|t| t.text) != Some("=") {
                    return Err(NetlistError::parse(
                        line_no,
                        toks[i].col,
                        format!("expected `{key} = value`"),
                    ));
                }
                let vt = toks.get(i + 2).ok_or_else(|| {
                    NetlistError::parse(line_no, toks[i].col, format!("`{key}=` without a value"))
                })?;
                let value = eval_value_tok(vt, line_no, scope)?;
                out.push((key.to_string(), value));
                i += 3;
            }
        }
    }
    if depth != 0 {
        return Err(NetlistError::parse(line_no, 1, "unbalanced `(`"));
    }
    Ok(out)
}

/// Resolves a node token to its flattened node *name*: ground aliases
/// pass through, subcircuit ports map to the caller's nets, internal
/// nets gain the instance prefix.
fn resolve_node_name(tok: &str, prefix: &str, ports: &HashMap<String, String>) -> String {
    if tok == "0" || tok.eq_ignore_ascii_case("gnd") {
        return "0".to_string();
    }
    if let Some(outer) = ports.get(&tok.to_ascii_lowercase()) {
        return outer.clone();
    }
    if prefix.is_empty() {
        tok.to_string()
    } else {
        format!("{prefix}{tok}")
    }
}

/// Rejects `{expr}` tokens where a node name is required.
fn check_node_tok(t: &Tok<'_>, line_no: usize) -> Result<(), NetlistError> {
    if t.text.starts_with('{') {
        return Err(NetlistError::parse(
            line_no,
            t.col,
            format!("expected a node name, got expression `{}`", t.text),
        ));
    }
    Ok(())
}

/// The `.model` card that token `i` of the device card `toks` names,
/// as `pick` reads it. `pick` returns `None` for a card of another
/// kind; `want` names the kind it accepts in that diagnostic.
fn model_card<'c, T>(
    ctx: &'c LowerCtx<'_>,
    toks: &[Tok<'_>],
    i: usize,
    line_no: usize,
    want: &str,
    pick: impl FnOnce(&'c ModelCard) -> Option<T>,
) -> Result<T, NetlistError> {
    let name_tok = &toks[0];
    let model_tok = toks.get(i).ok_or_else(|| {
        NetlistError::parse(
            line_no,
            name_tok.col,
            format!("`{}` is missing its model name", name_tok.text),
        )
    })?;
    let (card, _) = ctx.models.get(&model_tok.text.to_ascii_lowercase()).ok_or_else(|| {
        NetlistError::netlist(
            line_no,
            format!("unknown model `{}` (no matching .model card)", model_tok.text),
        )
    })?;
    pick(card).ok_or_else(|| {
        NetlistError::netlist(
            line_no,
            format!(
                "model `{}` is a {} model, but `{}` needs {want}",
                model_tok.text,
                card.kind_name(),
                name_tok.text
            ),
        )
    })
}

/// Lowers one card (device or `.nodeorder` / `X` instantiation) into
/// the circuit, evaluating `{expr}` value tokens against `scope`.
fn lower_card(
    lowerer: &mut Lowerer,
    line: &Line,
    prefix: &str,
    ports: &HashMap<String, String>,
    depth: usize,
    ctx: &LowerCtx<'_>,
    scope: &HashMap<String, f64>,
) -> Result<(), NetlistError> {
    let toks = tokenize(&line.text);
    let Some(first) = toks.first() else { return Ok(()) };

    if first.text.eq_ignore_ascii_case(".nodeorder") {
        for t in &toks[1..] {
            check_node_tok(t, line.no)?;
            let name = resolve_node_name(t.text, prefix, ports);
            lowerer.node(name);
        }
        return Ok(());
    }

    let name_tok = first;
    let kind = name_tok
        .text
        .chars()
        .next()
        .map(|c| c.to_ascii_lowercase())
        .filter(char::is_ascii_alphabetic)
        .ok_or_else(|| {
            NetlistError::parse(
                line.no,
                name_tok.col,
                format!("expected a device card, got `{}`", name_tok.text),
            )
        })?;
    let dev_name = format!("{prefix}{}", name_tok.text);

    // Helpers over the token tail.
    let node_tok = |i: usize, what: &str| -> Result<&Tok<'_>, NetlistError> {
        let t = toks.get(i).ok_or_else(|| {
            NetlistError::parse(
                line.no,
                name_tok.col,
                format!("`{}` is missing its {what} node", name_tok.text),
            )
        })?;
        check_node_tok(t, line.no)?;
        Ok(t)
    };
    let num_tok = |i: usize, what: &str| -> Result<f64, NetlistError> {
        let t = toks.get(i).ok_or_else(|| {
            NetlistError::parse(
                line.no,
                name_tok.col,
                format!("`{}` is missing its {what}", name_tok.text),
            )
        })?;
        eval_value_tok(t, line.no, scope)
    };
    let no_extra = |i: usize| -> Result<(), NetlistError> {
        match toks.get(i) {
            Some(t) => Err(NetlistError::parse(
                line.no,
                t.col,
                format!("unexpected trailing token `{}`", t.text),
            )),
            None => Ok(()),
        }
    };
    let node = |lowerer: &mut Lowerer, t: &Tok<'_>| {
        let name = resolve_node_name(t.text, prefix, ports);
        lowerer.node(name)
    };
    let lowered = |e: castg_spice::SpiceError| NetlistError::netlist(line.no, e.to_string());

    match kind {
        'r' | 'c' | 'l' => {
            let (ta, tb) = (node_tok(1, "first")?, node_tok(2, "second")?);
            let value = num_tok(3, "value")?;
            no_extra(4)?;
            let a = node(lowerer, ta);
            let b = node(lowerer, tb);
            match kind {
                'r' => lowerer.circuit.add_resistor(&dev_name, a, b, value).map_err(lowered)?,
                'c' => lowerer.circuit.add_capacitor(&dev_name, a, b, value).map_err(lowered)?,
                _ => lowerer.circuit.add_inductor(&dev_name, a, b, value).map_err(lowered)?,
            }
        }
        'v' | 'i' => {
            let (tp, tn) = (node_tok(1, "positive")?, node_tok(2, "negative")?);
            let wave = parse_waveform(&toks[3..], line.no, &dev_name, scope)?;
            let p = node(lowerer, tp);
            let n = node(lowerer, tn);
            if kind == 'v' {
                lowerer.circuit.add_vsource(&dev_name, p, n, wave).map_err(lowered)?;
            } else {
                // SPICE convention: positive current flows from the
                // first node through the source into the second.
                lowerer.circuit.add_isource(&dev_name, p, n, wave).map_err(lowered)?;
            }
        }
        'm' => {
            let (td, tg, ts, tb) = (
                node_tok(1, "drain")?,
                node_tok(2, "gate")?,
                node_tok(3, "source")?,
                node_tok(4, "bulk")?,
            );
            let model = model_card(ctx, &toks, 5, line.no, "nmos/pmos", |card| match card {
                ModelCard::Mos(model) => Some(model),
                _ => None,
            })?;
            let mut overrides: HashMap<String, f64> = HashMap::new();
            for (k, v) in parse_assignments(&toks[6..], line.no, scope)? {
                let k = k.to_ascii_lowercase();
                if k != "w" && k != "l" {
                    return Err(NetlistError::parse(
                        line.no,
                        name_tok.col,
                        format!("unknown instance parameter `{k}` (only W and L)"),
                    ));
                }
                overrides.insert(k, v);
            }
            let geometry = |key: &str| -> Result<f64, NetlistError> {
                overrides
                    .get(key)
                    .or_else(|| model.params.get(key))
                    .copied()
                    .ok_or_else(|| {
                        NetlistError::netlist(
                            line.no,
                            format!(
                                "`{}` has no {} (set {}= on the instance or the model)",
                                name_tok.text,
                                key.to_ascii_uppercase(),
                                key.to_ascii_uppercase()
                            ),
                        )
                    })
            };
            let (w, l) = (geometry("w")?, geometry("l")?);
            let (polarity, mut params) = if model.pmos {
                (MosPolarity::Pmos, MosParams::pmos_default(w, l))
            } else {
                (MosPolarity::Nmos, MosParams::nmos_default(w, l))
            };
            for (k, v) in &model.params {
                match k.as_str() {
                    "vto" => params.vt0 = *v,
                    "kp" => params.kp = *v,
                    "lambda" => params.lambda = *v,
                    "gamma" => params.gamma = *v,
                    "phi" => params.phi = *v,
                    "cox" => params.cox = *v,
                    "cgso" => params.cgso = *v,
                    // Geometry already applied (instance overrides win).
                    "w" | "l" => {}
                    _ => unreachable!("model card parser admits only known keys"),
                }
            }
            let (d, g, s, b) =
                (node(lowerer, td), node(lowerer, tg), node(lowerer, ts), node(lowerer, tb));
            lowerer.circuit.add_mosfet(&dev_name, d, g, s, b, polarity, params).map_err(lowered)?;
        }
        'e' => {
            let (tp, tn, tcp, tcn) = (
                node_tok(1, "positive")?,
                node_tok(2, "negative")?,
                node_tok(3, "positive controlling")?,
                node_tok(4, "negative controlling")?,
            );
            let gain = num_tok(5, "gain")?;
            no_extra(6)?;
            let (p, n) = (node(lowerer, tp), node(lowerer, tn));
            let (cp, cn) = (node(lowerer, tcp), node(lowerer, tcn));
            lowerer.circuit.add_vcvs(&dev_name, p, n, cp, cn, gain).map_err(lowered)?;
        }
        'd' => {
            let (ta, tk) = (node_tok(1, "anode")?, node_tok(2, "cathode")?);
            no_extra(4)?;
            let params = model_card(ctx, &toks, 3, line.no, "d", |card| match card {
                ModelCard::Diode(params) => Some(*params),
                _ => None,
            })?;
            let (a, k) = (node(lowerer, ta), node(lowerer, tk));
            lowerer.circuit.add_diode(&dev_name, a, k, params).map_err(lowered)?;
        }
        'q' => {
            let (tc, tb, te) = (
                node_tok(1, "collector")?,
                node_tok(2, "base")?,
                node_tok(3, "emitter")?,
            );
            no_extra(5)?;
            let (pnp, params) = model_card(ctx, &toks, 4, line.no, "npn/pnp", |card| match card {
                ModelCard::Bjt { pnp, params } => Some((*pnp, *params)),
                _ => None,
            })?;
            let polarity = if pnp { BjtPolarity::Pnp } else { BjtPolarity::Npn };
            let (c, b, e) = (node(lowerer, tc), node(lowerer, tb), node(lowerer, te));
            lowerer.circuit.add_bjt(&dev_name, c, b, e, polarity, params).map_err(lowered)?;
        }
        'g' => {
            let (tp, tn, tcp, tcn) = (
                node_tok(1, "positive")?,
                node_tok(2, "negative")?,
                node_tok(3, "positive controlling")?,
                node_tok(4, "negative controlling")?,
            );
            let gm = num_tok(5, "transconductance")?;
            no_extra(6)?;
            let (p, n) = (node(lowerer, tp), node(lowerer, tn));
            let (cp, cn) = (node(lowerer, tcp), node(lowerer, tcn));
            lowerer.circuit.add_vccs(&dev_name, p, n, cp, cn, gm).map_err(lowered)?;
        }
        'f' | 'h' => {
            let (tp, tn) = (node_tok(1, "positive")?, node_tok(2, "negative")?);
            let tctrl = toks.get(3).ok_or_else(|| {
                NetlistError::parse(
                    line.no,
                    name_tok.col,
                    format!("`{}` is missing its controlling device name", name_tok.text),
                )
            })?;
            if tctrl.text.starts_with('{') {
                return Err(NetlistError::parse(
                    line.no,
                    tctrl.col,
                    format!("expected a device name, got expression `{}`", tctrl.text),
                ));
            }
            let value = num_tok(4, if kind == 'f' { "gain" } else { "transresistance" })?;
            no_extra(5)?;
            // The controller must already exist (the card dialect, like
            // Circuit::add, requires the controlling V/E/H/L card to
            // precede its F/H dependents). Device names are stored
            // case-sensitively; deck references are case-insensitive
            // like the rest of the dialect, so fall back to a unique
            // case-insensitive match before letting Circuit::add report
            // the miss.
            let ctrl_name = {
                let wanted = format!("{prefix}{}", tctrl.text);
                if lowerer.circuit.device(&wanted).is_some() {
                    wanted
                } else {
                    let mut hits = lowerer
                        .circuit
                        .devices()
                        .iter()
                        .filter(|d| d.name().eq_ignore_ascii_case(&wanted));
                    match (hits.next(), hits.next()) {
                        (Some(d), None) => d.name().to_string(),
                        _ => wanted,
                    }
                }
            };
            let (p, n) = (node(lowerer, tp), node(lowerer, tn));
            if kind == 'f' {
                lowerer.circuit.add_cccs(&dev_name, p, n, &ctrl_name, value).map_err(lowered)?;
            } else {
                lowerer.circuit.add_ccvs(&dev_name, p, n, &ctrl_name, value).map_err(lowered)?;
            }
        }
        'x' => {
            if depth >= MAX_SUBCKT_DEPTH {
                return Err(NetlistError::netlist(
                    line.no,
                    format!(
                        "subcircuit nesting exceeds {MAX_SUBCKT_DEPTH} levels \
                         (recursive definition?)"
                    ),
                ));
            }
            // Instance parameters are `name=value` pairs after the
            // subcircuit name; the name itself sits just before the
            // first assignment (or last on the line without one).
            let (sub_idx, assign_toks) = match toks.iter().position(|t| t.text == "=") {
                Some(j) if j >= 3 => (j - 2, &toks[j - 1..]),
                Some(j) => {
                    return Err(NetlistError::parse(
                        line.no,
                        toks[j].col,
                        "misplaced `=` (instance parameters are `name=value` \
                         after the subcircuit name)",
                    ))
                }
                None => (toks.len() - 1, &toks[toks.len()..]),
            };
            if sub_idx == 0 {
                return Err(NetlistError::parse(
                    line.no,
                    name_tok.col,
                    format!("`{}` needs nodes and a subcircuit name", name_tok.text),
                ));
            }
            let sub_tok = &toks[sub_idx];
            let sub = ctx.subckts.get(&sub_tok.text.to_ascii_lowercase()).ok_or_else(|| {
                NetlistError::netlist(
                    line.no,
                    format!("unknown subcircuit `{}` (no matching .subckt)", sub_tok.text),
                )
            })?;
            let args = &toks[1..sub_idx];
            if args.len() != sub.ports.len() {
                return Err(NetlistError::netlist(
                    line.no,
                    format!(
                        "`{}` connects {} nodes but `{}` declares {} ports",
                        name_tok.text,
                        args.len(),
                        sub_tok.text,
                        sub.ports.len()
                    ),
                ));
            }
            // The child scope: globals, shadowed by instance overrides
            // (evaluated in the caller's scope), then un-overridden
            // defaults in declaration order (evaluated in the child
            // scope built so far, so a default may reference globals,
            // overridden values and earlier defaults).
            let mut child_scope = ctx.globals.clone();
            let mut overridden: HashSet<String> = HashSet::new();
            let mut i = 0usize;
            while i < assign_toks.len() {
                let nt = &assign_toks[i];
                if assign_toks.get(i + 1).map(|t| t.text) != Some("=") {
                    return Err(NetlistError::parse(
                        line.no,
                        nt.col,
                        format!("expected `{} = value`", nt.text),
                    ));
                }
                let vt = assign_toks.get(i + 2).ok_or_else(|| {
                    NetlistError::parse(
                        line.no,
                        nt.col,
                        format!("`{}=` without a value", nt.text),
                    )
                })?;
                let lower = nt.text.to_ascii_lowercase();
                if !sub.defaults.iter().any(|(l, _, _)| *l == lower) {
                    return Err(NetlistError::netlist(
                        line.no,
                        format!(
                            "`{}` sets `{}` but `{}` declares no such parameter",
                            name_tok.text, nt.text, sub_tok.text
                        ),
                    ));
                }
                if !overridden.insert(lower.clone()) {
                    return Err(NetlistError::parse(
                        line.no,
                        nt.col,
                        format!("duplicate instance parameter `{}`", nt.text),
                    ));
                }
                let v = eval_value_tok(vt, line.no, scope)?;
                child_scope.insert(lower, v);
                i += 3;
            }
            for (lower, spelling, rhs) in &sub.defaults {
                if overridden.contains(lower) {
                    continue;
                }
                let v = expr::eval(rhs, &mut &child_scope).map_err(|msg| {
                    NetlistError::netlist(
                        line.no,
                        format!("`{}` default `{spelling}`: {msg}", sub_tok.text),
                    )
                })?;
                child_scope.insert(lower.clone(), v);
            }
            let mut inner_ports: HashMap<String, String> = HashMap::with_capacity(args.len());
            for (port, arg) in sub.ports.iter().zip(args) {
                check_node_tok(arg, line.no)?;
                inner_ports.insert(port.clone(), resolve_node_name(arg.text, prefix, ports));
            }
            let inner_prefix = format!("{dev_name}.");
            for inner in &sub.lines {
                lower_card(lowerer, inner, &inner_prefix, &inner_ports, depth + 1, ctx, &child_scope)?;
            }
        }
        other => {
            return Err(NetlistError::parse(
                line.no,
                name_tok.col,
                format!("unknown device card `{other}` (supported: R C L V I M D Q E F G H X)"),
            ))
        }
    }
    Ok(())
}

/// Parses an independent-source value: `DC v`, a bare number or
/// `{expr}`, or a functional form `SIN(..)`, `PULSE(..)`, `PWL(..)`,
/// `STEP(..)`.
fn parse_waveform(
    toks: &[Tok<'_>],
    line_no: usize,
    dev: &str,
    scope: &HashMap<String, f64>,
) -> Result<Waveform, NetlistError> {
    let Some(first) = toks.first() else {
        return Err(NetlistError::parse(line_no, 1, format!("`{dev}` is missing its value")));
    };
    let head = first.text.to_ascii_lowercase();

    // Bare number or `{expr}` → DC.
    if first.text.starts_with('{') || parse_number(first.text).is_some() {
        let v = eval_value_tok(first, line_no, scope)?;
        return match toks.get(1) {
            Some(t) => Err(NetlistError::parse(
                line_no,
                t.col,
                format!("unexpected trailing token `{}`", t.text),
            )),
            None => Ok(Waveform::dc(v)),
        };
    }

    if head == "dc" {
        let t = toks.get(1).ok_or_else(|| {
            NetlistError::parse(line_no, first.col, format!("`{dev}`: DC needs a value"))
        })?;
        let v = eval_value_tok(t, line_no, scope)?;
        return match toks.get(2) {
            Some(t) => Err(NetlistError::parse(
                line_no,
                t.col,
                format!("unexpected trailing token `{}`", t.text),
            )),
            None => Ok(Waveform::dc(v)),
        };
    }

    // Functional forms: head ( numbers ).
    let args = paren_numbers(&toks[1..], line_no, &head, scope)?;
    let arity = |lo: usize, hi: usize| -> Result<(), NetlistError> {
        if args.len() < lo || args.len() > hi {
            return Err(NetlistError::parse(
                line_no,
                first.col,
                format!("`{head}` takes {lo}..={hi} arguments, got {}", args.len()),
            ));
        }
        Ok(())
    };
    let get = |i: usize| args.get(i).copied().unwrap_or(0.0);
    match head.as_str() {
        "sin" | "sine" => {
            // SIN(VO VA FREQ [TD [PHASE]]) — phase in radians; the
            // classic THETA damping slot is not modeled.
            arity(3, 5)?;
            Ok(Waveform::Sine {
                offset: get(0),
                amplitude: get(1),
                freq: get(2),
                delay: get(3),
                phase: get(4),
            })
        }
        "pulse" => {
            // PULSE(V1 V2 [TD [TR [TF [PW [PER]]]]]).
            arity(2, 7)?;
            Ok(Waveform::Pulse {
                low: get(0),
                high: get(1),
                delay: get(2),
                rise: get(3),
                fall: get(4),
                width: get(5),
                period: get(6),
            })
        }
        "pwl" => {
            if args.len() < 2 || args.len() % 2 != 0 {
                return Err(NetlistError::parse(
                    line_no,
                    first.col,
                    format!("`pwl` needs an even number of values (t v …), got {}", args.len()),
                ));
            }
            let points: Vec<(f64, f64)> =
                args.chunks_exact(2).map(|p| (p[0], p[1])).collect();
            if points.windows(2).any(|w| w[1].0 < w[0].0) {
                return Err(NetlistError::parse(
                    line_no,
                    first.col,
                    "`pwl` time points must be non-decreasing",
                ));
            }
            Ok(Waveform::Pwl(points))
        }
        // castg extension mirroring the paper's ramped step template.
        "step" => {
            arity(2, 4)?;
            Ok(Waveform::Step { base: get(0), elev: get(1), t_step: get(2), t_rise: get(3) })
        }
        other => Err(NetlistError::parse(
            line_no,
            first.col,
            format!("unknown source value `{other}` (DC, SIN, PULSE, PWL, STEP)"),
        )),
    }
}

/// Consumes `( n n n )` and returns the numbers (each a literal or an
/// `{expr}` token); everything must be inside one balanced pair of
/// parentheses.
fn paren_numbers(
    toks: &[Tok<'_>],
    line_no: usize,
    head: &str,
    scope: &HashMap<String, f64>,
) -> Result<Vec<f64>, NetlistError> {
    let mut it = toks.iter();
    match it.next() {
        Some(t) if t.text == "(" => {}
        Some(t) => {
            return Err(NetlistError::parse(
                line_no,
                t.col,
                format!("expected `(` after `{head}`"),
            ))
        }
        None => {
            return Err(NetlistError::parse(line_no, 1, format!("expected `(` after `{head}`")))
        }
    }
    let mut out = Vec::new();
    for t in it {
        match t.text {
            ")" => {
                return Ok(out);
            }
            _ => out.push(eval_value_tok(t, line_no, scope)?),
        }
    }
    Err(NetlistError::parse(line_no, 1, format!("`{head}(` never closed")))
}

#[cfg(test)]
mod tests {
    use super::*;
    use castg_spice::{DcAnalysis, DeviceKind};

    #[test]
    fn divider_deck_lowers_and_solves() {
        let deck = parse_deck(
            "* a divider\n\
             .title tiny divider\n\
             V1 vin 0 DC 6\n\
             R1 vin mid 1k\n\
             R2 mid 0 1k ; lower leg\n",
        )
        .unwrap();
        assert_eq!(deck.title.as_deref(), Some("tiny divider"));
        let c = deck.circuit();
        assert_eq!(c.node_count(), 3);
        let sol = DcAnalysis::new(c).solve().unwrap();
        let mid = c.find_node("mid").unwrap();
        assert!((sol.voltage(mid) - 3.0).abs() < 1e-6);
    }

    #[test]
    fn continuations_and_suffixes() {
        let deck = parse_deck(
            "R1 a b\n\
             + 10k\n\
             C1 b 0 1.5pF\n\
             L1 a b 2u\n",
        )
        .unwrap();
        let c = deck.circuit();
        match c.device("R1").unwrap().kind() {
            DeviceKind::Resistor { ohms, .. } => assert_eq!(*ohms, 10e3),
            k => panic!("{k:?}"),
        }
        match c.device("C1").unwrap().kind() {
            DeviceKind::Capacitor { farads, .. } => assert_eq!(*farads, 1.5e-12),
            k => panic!("{k:?}"),
        }
        match c.device("L1").unwrap().kind() {
            DeviceKind::Inductor { henries, .. } => assert_eq!(*henries, 2e-6),
            k => panic!("{k:?}"),
        }
    }

    #[test]
    fn waveform_forms() {
        let deck = parse_deck(
            "V1 a 0 5\n\
             V2 b 0 DC -2.5\n\
             V3 c 0 SIN(1 0.5 1k)\n\
             V4 d 0 PULSE(0 1 1u 10n 10n 1u 2u)\n\
             V5 e 0 PWL(0 0 1u 1 2u 1)\n\
             I1 f 0 STEP(0 20u 0.5u 10n)\n",
        )
        .unwrap();
        let c = deck.circuit();
        let wave = |name: &str| match c.device(name).unwrap().kind() {
            DeviceKind::Vsource { wave, .. } | DeviceKind::Isource { wave, .. } => wave.clone(),
            k => panic!("{k:?}"),
        };
        assert_eq!(wave("V1"), Waveform::dc(5.0));
        assert_eq!(wave("V2"), Waveform::dc(-2.5));
        assert_eq!(wave("V3"), Waveform::sine(1.0, 0.5, 1e3));
        assert_eq!(
            wave("V4"),
            Waveform::Pulse {
                low: 0.0,
                high: 1.0,
                delay: 1e-6,
                rise: 10e-9,
                fall: 10e-9,
                width: 1e-6,
                period: 2e-6,
            }
        );
        assert_eq!(wave("V5"), Waveform::Pwl(vec![(0.0, 0.0), (1e-6, 1.0), (2e-6, 1.0)]));
        assert_eq!(wave("I1"), Waveform::step(0.0, 20e-6, 0.5e-6, 10e-9));
    }

    #[test]
    fn mosfet_with_model_card() {
        let deck = parse_deck(
            ".model nch nmos (vto=0.8 kp=100u lambda=0.03 gamma=0.4 phi=0.7)\n\
             VD d 0 3\n\
             VG g 0 2\n\
             M1 d g 0 0 nch W=10u L=1u\n",
        )
        .unwrap();
        let c = deck.circuit();
        match c.device("M1").unwrap().kind() {
            DeviceKind::Mosfet { polarity, params, .. } => {
                assert_eq!(*polarity, MosPolarity::Nmos);
                assert_eq!(params.vt0, 0.8);
                assert_eq!(params.kp, 100e-6);
                assert_eq!(params.lambda, 0.03);
                assert_eq!(params.w, 10e-6);
                assert_eq!(params.l, 1e-6);
                // Unset parameters fall back to process defaults.
                assert_eq!(params.cox, MosParams::nmos_default(1.0, 1.0).cox);
            }
            k => panic!("{k:?}"),
        }
        let sol = DcAnalysis::new(c).solve().unwrap();
        assert!(sol.source_current("VD").unwrap().abs() > 1e-6);
    }

    #[test]
    fn subckt_flattening_prefixes_internals() {
        let deck = parse_deck(
            ".subckt pair top bot\n\
             Rtop top m 1k\n\
             Rbot m bot 1k\n\
             .ends pair\n\
             V1 in 0 4\n\
             X1 in out pair\n\
             X2 out 0 pair\n",
        )
        .unwrap();
        let c = deck.circuit();
        assert!(c.device("X1.Rtop").is_some());
        assert!(c.device("X2.Rbot").is_some());
        assert!(c.find_node("X1.m").is_some());
        assert!(c.find_node("X2.m").is_some());
        let sol = DcAnalysis::new(c).solve().unwrap();
        let out = c.find_node("out").unwrap();
        assert!((sol.voltage(out) - 2.0).abs() < 1e-6, "v(out) = {}", sol.voltage(out));
    }

    #[test]
    fn nested_instantiation_flattens_recursively() {
        let deck = parse_deck(
            ".subckt leg a b\n\
             R1 a b 2k\n\
             .ends\n\
             .subckt pair top bot\n\
             Xup top mid leg\n\
             Xdn mid bot leg\n\
             .ends\n\
             V1 in 0 8\n\
             X1 in 0 pair\n",
        )
        .unwrap();
        let c = deck.circuit();
        assert!(c.device("X1.Xup.R1").is_some());
        assert!(c.find_node("X1.mid").is_some());
        let sol = DcAnalysis::new(c).solve().unwrap();
        let mid = c.find_node("X1.mid").unwrap();
        assert!((sol.voltage(mid) - 4.0).abs() < 1e-6);
    }

    /// Dot-cards inside a .subckt body are rejected loudly — a locally
    /// scoped `.model` must not silently hoist to deck scope.
    #[test]
    fn dot_cards_inside_subckt_bodies_are_rejected() {
        for card in [
            ".model m nmos (vto=0.7)",
            ".title sneaky",
            ".nodeorder a b",
            ".subckt q a",
            ".param x=1",
        ] {
            let text = format!(".subckt p a b\n{card}\nR1 a b 1k\n.ends\n");
            let e = parse_deck(&text).unwrap_err();
            assert!(
                e.to_string().contains("inside a .subckt body"),
                "{card}: {e}"
            );
        }
    }

    #[test]
    fn recursive_subckt_is_an_error_not_a_hang() {
        let e = parse_deck(
            ".subckt loop a b\n\
             Xinner a b loop\n\
             .ends\n\
             X1 in 0 loop\n",
        )
        .unwrap_err();
        assert!(e.to_string().contains("recursive"), "{e}");
    }

    #[test]
    fn nodeorder_pre_interns_nodes() {
        let deck = parse_deck(
            ".nodeorder zz aa mm\n\
             V1 aa 0 1\n\
             R1 aa mm 1k\n\
             R2 mm zz 1k\n\
             R3 zz 0 1k\n",
        )
        .unwrap();
        let c = deck.circuit();
        // Interning order follows .nodeorder, not first device use.
        assert_eq!(c.find_node("zz").unwrap().index(), 1);
        assert_eq!(c.find_node("aa").unwrap().index(), 2);
        assert_eq!(c.find_node("mm").unwrap().index(), 3);
    }

    /// SPICE identifiers are case-insensitive: differently-cased
    /// spellings of one net must resolve to a single node (first
    /// spelling wins), not silently split the net in two.
    #[test]
    fn mixed_case_net_names_are_one_net() {
        let deck = parse_deck(
            "V1 VDD 0 DC 5\n\
             R1 vdd out 1k\n\
             R2 OUT 0 1k\n",
        )
        .unwrap();
        let c = deck.circuit();
        assert_eq!(c.node_count(), 3, "VDD/vdd and out/OUT each merge into one net");
        assert!(c.find_node("VDD").is_some(), "first spelling is canonical");
        assert!(c.find_node("out").is_some());
        let sol = DcAnalysis::new(c).solve().unwrap();
        let out = c.find_node("out").unwrap();
        assert!((sol.voltage(out) - 2.5).abs() < 1e-6, "v(out) = {}", sol.voltage(out));
    }

    #[test]
    fn errors_carry_line_and_column() {
        let cases: [(&str, usize); 7] = [
            ("R1 a b notanumber\n", 1),
            ("V1 a 0 DC 5\nR1 a b\n", 2),
            ("+ orphan continuation\n", 1),
            ("Y1 a b c\n", 1),
            ("Q1 a b c\n", 1), // BJT card without its model name
            ("R1 a b 1k extra\n", 1),
            (".bogus x\n", 1),
        ];
        for (text, want_line) in cases {
            match parse_deck(text).unwrap_err() {
                NetlistError::Parse { line, col, .. } => {
                    assert_eq!(line, want_line, "{text:?}");
                    assert!(col >= 1);
                }
                other => panic!("{text:?} → {other:?}"),
            }
        }
    }

    /// Columns are char positions, not byte offsets: on a line with
    /// multibyte UTF-8 the diagnostic must still point at the offending
    /// token as the user sees it.
    #[test]
    fn error_columns_are_char_positions_not_bytes() {
        // "R1 αβ b 1k extra": `extra` starts at char column 12 (byte
        // offset 14 — α and β are 2 bytes each).
        match parse_deck("R1 αβ b 1k extra\n").unwrap_err() {
            NetlistError::Parse { line, col, reason } => {
                assert_eq!(line, 1);
                assert!(reason.contains("extra"), "{reason}");
                assert_eq!(col, 12, "char column, not byte offset");
            }
            other => panic!("{other:?}"),
        }
        // Same structure, ASCII: the column must agree.
        match parse_deck("R1 ab b 1k extra\n").unwrap_err() {
            NetlistError::Parse { col, .. } => assert_eq!(col, 12),
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn lowering_errors_carry_line() {
        let cases = [
            "R1 a b 1k\nR1 a b 2k\n",                   // duplicate name
            "M1 d g 0 0 nomodel W=1u L=1u\n",           // missing model
            "X1 a b nosub\n",                           // missing subckt
            ".subckt p a b\nR1 a b 1\n.ends\nX1 a p\n", // port arity
            "R1 a b -5\n",                              // invalid value
        ];
        for text in cases {
            match parse_deck(text).unwrap_err() {
                NetlistError::Netlist { line, .. } => assert!(line >= 1, "{text:?}"),
                other => panic!("{text:?} → {other:?}"),
            }
        }
    }

    #[test]
    fn dollar_and_semicolon_comments() {
        let deck = parse_deck("R1 a b 1k $ trailing\nR2 b 0 2k ; also\n").unwrap();
        assert_eq!(deck.circuit().devices().len(), 2);
    }

    /// `.title` is exempt from comment stripping — real SPICE titles
    /// may contain `;` and `$`.
    #[test]
    fn title_keeps_comment_characters() {
        let deck = parse_deck(".title 50% $duty; cycle $ clk\nR1 a 0 1k\n").unwrap();
        assert_eq!(deck.title.as_deref(), Some("50% $duty; cycle $ clk"));
        assert_eq!(deck.circuit().devices().len(), 1);
    }

    #[test]
    fn end_card_stops_parsing() {
        let deck = parse_deck("R1 a 0 1k\n.end\ngarbage beyond the end\n").unwrap();
        assert_eq!(deck.circuit().devices().len(), 1);
    }

    #[test]
    fn vcvs_card() {
        let deck = parse_deck("V1 a 0 1\nE1 out 0 a 0 -3\nRL out 0 1k\n").unwrap();
        let sol = DcAnalysis::new(deck.circuit()).solve().unwrap();
        let out = deck.circuit().find_node("out").unwrap();
        assert!((sol.voltage(out) + 3.0).abs() < 1e-6);
    }

    #[test]
    fn diode_card_with_model() {
        let deck = parse_deck(
            ".model dsig d (is=1e-14 n=1.2 rs=2.5 cjo=3p)\n\
             V1 in 0 5\n\
             D1 in out dsig\n\
             RL out 0 1k\n",
        )
        .unwrap();
        let c = deck.circuit();
        match c.device("D1").unwrap().kind() {
            DeviceKind::Diode { params, .. } => {
                assert_eq!(params.is_sat, 1e-14);
                assert_eq!(params.n, 1.2);
                assert_eq!(params.rs, 2.5);
                assert_eq!(params.cj0, 3e-12);
            }
            k => panic!("{k:?}"),
        }
        let sol = DcAnalysis::new(c).solve().unwrap();
        let out = c.find_node("out").unwrap();
        // Forward drop of roughly a junction; the rest lands on RL.
        assert!(sol.voltage(out) > 3.5 && sol.voltage(out) < 5.0, "{}", sol.voltage(out));
    }

    #[test]
    fn bjt_card_with_model() {
        let deck = parse_deck(
            ".model qn npn (is=1e-15 bf=150)\n\
             .model qp pnp (is=2e-15 bf=80 br=4 cje=1p cjc=2p)\n\
             VCC vcc 0 5\n\
             RB vcc b 100k\n\
             RC vcc c 1k\n\
             Q1 c b 0 qn\n\
             Q2 0 c vcc qp\n",
        )
        .unwrap();
        let c = deck.circuit();
        match c.device("Q1").unwrap().kind() {
            DeviceKind::Bjt { polarity, params, .. } => {
                assert_eq!(*polarity, castg_spice::BjtPolarity::Npn);
                assert_eq!(params.bf, 150.0);
                // Unset keys keep the signal defaults.
                assert_eq!(params.br, castg_spice::BjtParams::signal_default().br);
            }
            k => panic!("{k:?}"),
        }
        match c.device("Q2").unwrap().kind() {
            DeviceKind::Bjt { polarity, params, .. } => {
                assert_eq!(*polarity, castg_spice::BjtPolarity::Pnp);
                assert_eq!(params.cjc, 2e-12);
            }
            k => panic!("{k:?}"),
        }
        let sol = DcAnalysis::new(c).solve().unwrap();
        let b = c.find_node("b").unwrap();
        // Forward-biased base-emitter junction.
        assert!(sol.voltage(b) > 0.4 && sol.voltage(b) < 1.0, "{}", sol.voltage(b));
    }

    #[test]
    fn controlled_source_cards() {
        let deck = parse_deck(
            "V1 in 0 2\n\
             R1 in 0 1k\n\
             G1 out1 0 in 0 -1e-3\n\
             RG out1 0 1k\n\
             F1 out2 0 V1 2\n\
             RF out2 0 1k\n\
             H1 out3 0 v1 500\n\
             RH out3 0 1k\n",
        )
        .unwrap();
        let c = deck.circuit();
        let sol = DcAnalysis::new(c).solve().unwrap();
        // G1: i = -1mS * 2V out of out1 → v(out1) = +2V across 1k.
        let v = |n: &str| sol.voltage(c.find_node(n).unwrap());
        assert!((v("out1") - 2.0).abs() < 1e-6, "{}", v("out1"));
        // V1 carries -2mA (into its + terminal from the divider), so
        // F1 pushes gain·i out of out2.
        let i_v1 = sol.source_current("V1").unwrap();
        assert!((v("out2") - (-2.0 * i_v1 * 1e3)).abs() < 1e-6, "{}", v("out2"));
        // H1 references `v1` case-insensitively:
        // v(out3) = ohms · i(V1) = 500 · (−2 mA) = −1 V.
        assert!((v("out3") - 500.0 * i_v1).abs() < 1e-6, "{}", v("out3"));
    }

    #[test]
    fn wrong_model_kind_is_a_loud_error() {
        let e = parse_deck(".model nch nmos (vto=0.7)\nD1 a 0 nch\n").unwrap_err();
        assert!(e.to_string().contains("needs d"), "{e}");
        let e = parse_deck(".model dsig d (is=1e-14)\nM1 d g 0 0 dsig W=1u L=1u\n").unwrap_err();
        assert!(e.to_string().contains("needs nmos/pmos"), "{e}");
        let e = parse_deck(".model dsig d (is=1e-14)\nQ1 c b 0 dsig\n").unwrap_err();
        assert!(e.to_string().contains("needs npn/pnp"), "{e}");
    }

    #[test]
    fn cccs_before_its_controller_is_an_error() {
        let e = parse_deck("F1 out 0 V1 2\nV1 in 0 1\nRL out 0 1k\n").unwrap_err();
        assert!(e.to_string().contains("not found"), "{e}");
    }

    #[test]
    fn params_and_expressions_on_cards() {
        let deck = parse_deck(
            ".param rtot={2*rhalf}\n\
             .param rhalf=1k vdd=6\n\
             V1 vin 0 DC {vdd}\n\
             R1 vin mid {rtot/2}\n\
             R2 mid 0 {rhalf}\n\
             C1 mid 0 {10p}\n",
        )
        .unwrap();
        assert_eq!(
            deck.params,
            vec![
                ("rtot".to_string(), 2e3),
                ("rhalf".to_string(), 1e3),
                ("vdd".to_string(), 6.0)
            ],
            "forward reference resolves; deck order kept"
        );
        let c = deck.circuit();
        match c.device("R1").unwrap().kind() {
            DeviceKind::Resistor { ohms, .. } => assert_eq!(*ohms, 1e3),
            k => panic!("{k:?}"),
        }
        match c.device("C1").unwrap().kind() {
            DeviceKind::Capacitor { farads, .. } => {
                assert_eq!(farads.to_bits(), 10e-12f64.to_bits())
            }
            k => panic!("{k:?}"),
        }
        let sol = DcAnalysis::new(c).solve().unwrap();
        let mid = c.find_node("mid").unwrap();
        assert!((sol.voltage(mid) - 3.0).abs() < 1e-6);
    }

    #[test]
    fn params_reach_models_and_waveforms() {
        let deck = parse_deck(
            ".param vt=0.8 wbase=5u amp=2\n\
             .model nch nmos (vto={vt} kp=100u)\n\
             VD d 0 {amp+1}\n\
             VG g 0 SIN({amp/2} {amp} 1k)\n\
             M1 d g 0 0 nch W={2*wbase} L=1u\n",
        )
        .unwrap();
        let c = deck.circuit();
        match c.device("M1").unwrap().kind() {
            DeviceKind::Mosfet { params, .. } => {
                assert_eq!(params.vt0, 0.8);
                assert_eq!(params.w, 10e-6);
            }
            k => panic!("{k:?}"),
        }
        match c.device("VG").unwrap().kind() {
            DeviceKind::Vsource { wave, .. } => {
                assert_eq!(*wave, Waveform::sine(1.0, 2.0, 1e3));
            }
            k => panic!("{k:?}"),
        }
        match c.device("VD").unwrap().kind() {
            DeviceKind::Vsource { wave, .. } => assert_eq!(*wave, Waveform::dc(3.0)),
            k => panic!("{k:?}"),
        }
    }

    #[test]
    fn parameterized_subckt_defaults_and_overrides() {
        let deck = parse_deck(
            ".param scale=2\n\
             .subckt leg a b r=1k rr={2*r}\n\
             R1 a m {r}\n\
             R2 m b {rr*scale/scale}\n\
             .ends\n\
             V1 in 0 9\n\
             X1 in mid leg\n\
             X2 mid 0 leg r={500*scale} rr=1k\n",
        )
        .unwrap();
        let c = deck.circuit();
        let ohms = |name: &str| match c.device(name).unwrap().kind() {
            DeviceKind::Resistor { ohms, .. } => *ohms,
            k => panic!("{k:?}"),
        };
        // X1: defaults — r=1k, rr=2*r=2k.
        assert_eq!(ohms("X1.R1"), 1e3);
        assert_eq!(ohms("X1.R2"), 2e3);
        // X2: r overridden (in the caller's scope: 500*scale=1k), and
        // rr overridden directly — the rr default never evaluates.
        assert_eq!(ohms("X2.R1"), 1e3);
        assert_eq!(ohms("X2.R2"), 1e3);
    }

    #[test]
    fn instance_overrides_shadow_globals() {
        // `w` is both a global .param and a subckt parameter: the
        // subckt body must see the instance value, not the global.
        let deck = parse_deck(
            ".param w=1k\n\
             .subckt cell a b w={w}\n\
             R1 a b {w}\n\
             .ends\n\
             V1 in 0 1\n\
             X1 in 0 cell w=2k\n\
             X2 in 0 cell\n",
        )
        .unwrap();
        let c = deck.circuit();
        let ohms = |name: &str| match c.device(name).unwrap().kind() {
            DeviceKind::Resistor { ohms, .. } => *ohms,
            k => panic!("{k:?}"),
        };
        assert_eq!(ohms("X1.R1"), 2e3, "instance override shadows the global");
        assert_eq!(ohms("X2.R1"), 1e3, "default falls back to the global");
    }

    #[test]
    fn param_error_paths() {
        // Reference cycle.
        let e = parse_deck(".param a={b} b={a}\nR1 x 0 1k\n").unwrap_err();
        assert!(e.to_string().contains("cycle"), "{e}");
        // Undefined reference.
        let e = parse_deck("R1 x 0 {nope}\n").unwrap_err();
        assert!(e.to_string().contains("undefined parameter"), "{e}");
        // Duplicate definition.
        let e = parse_deck(".param a=1\n.param A=2\n").unwrap_err();
        assert!(e.to_string().contains("duplicate .param"), "{e}");
        // Unterminated expression.
        let e = parse_deck("R1 x 0 {1k\n").unwrap_err();
        assert!(e.to_string().contains("unterminated"), "{e}");
        // Unknown instance parameter.
        let e = parse_deck(".subckt s a\nR1 a 0 1k\n.ends\nX1 x s q=1\n").unwrap_err();
        assert!(e.to_string().contains("no such parameter"), "{e}");
        // Expression where a node is required.
        let e = parse_deck("R1 {1} 0 1k\n").unwrap_err();
        assert!(e.to_string().contains("expected a node name"), "{e}");
        // Malformed .param card.
        assert!(parse_deck(".param\n").is_err());
        assert!(parse_deck(".param x\n").is_err());
        assert!(parse_deck(".param 1x=2\n").is_err());
    }

    #[test]
    fn external_overrides_shadow_deck_params() {
        let text = ".param n=2 r={1k*n}\nV1 in 0 5\nR1 in 0 {r}\n";
        let deck = parse_deck_with_params(
            text,
            &[("N".to_string(), 4.0), ("extra".to_string(), 1.0)],
        )
        .unwrap();
        match deck.circuit().device("R1").unwrap().kind() {
            DeviceKind::Resistor { ohms, .. } => assert_eq!(*ohms, 4e3),
            k => panic!("{k:?}"),
        }
        assert_eq!(
            deck.params,
            vec![
                ("n".to_string(), 4.0),
                ("r".to_string(), 4e3),
                ("extra".to_string(), 1.0)
            ]
        );
    }
}
