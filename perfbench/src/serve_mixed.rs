//! `serve_mixed`: one closed-loop keep-alive client posts a seeded,
//! fixed-length stream of `POST /v1/campaign` requests to an in-process
//! daemon.
//!
//! The stream mixes four kinds of request over four light decks
//! (divider, ladder, mesh, a fault-capped BJT op-amp), in fixed numbers
//! so every seed implies the same cache counts:
//!
//! * first sightings — a deck the daemon has not seen (a seeded
//!   gigaohm leak card makes each one new): result and plan miss;
//! * option slices — a seen deck under a new `bridge_ohms`: result
//!   miss, plan hit;
//! * formatting variants — a seen request with a fresh comment line:
//!   result hit reached through a fresh parse and the canonical digest;
//! * repeats — the exact bytes of a seen request: result hit.
//!
//! One connection keeps the cache counts independent of timing: there
//! is no single-flight, so concurrent identical misses would both
//! compute.

use std::collections::HashMap;
use std::time::Instant;

use castg_core::report::json_escape;
use castg_core::{ConfigDescription, DescribedConfig};
use castg_netlist::{canonical_deck_bytes, parse_deck_with_params};
use castg_serve::client::Client;
use castg_serve::json::parse_json;
use castg_serve::{
    request_digest, sort_configs, spawn, CacheStatus, CampaignRequest, DigestOptions, Engine,
    ServerCeilings, ServerConfig,
};

use crate::rng::Rng;
use crate::stats::{median, median_sampled, peak_rss_mb, tail, SETUP};
use crate::RunResult;

/// First sightings per deck family.
const FIRSTS: usize = 4;
/// Option slices per deck family.
const SLICES: usize = 4;
/// Formatting-variant hits in the stream.
const FORMAT_VARIANTS: usize = 48;
/// Exact-repeat hits in the stream.
const REPEATS: usize = 220;
/// A latency tail is the highest order statistic with this many
/// samples beyond it.
const TAIL_BEYOND: usize = 10;

const RESULT_CAPACITY: usize = 256;
const PLAN_CAPACITY: usize = 64;

const LADDER_DECK: &str = "\
.title R-ladder
V1 src 0 DC 5
R1 src n1 1k
R2 n1 0 2k
R3 n1 n2 1k
R4 n2 0 2k
R5 n2 n3 1k
R6 n3 0 2k
R7 n3 out 1k
R8 out 0 2k
";

const LADDER_CFG: &str = "\
macro type: R-ladder
test configuration: DC output
control V1: dc(lev)
observe out: dc()
return: dV(out)
parameter lev: 1 .. 8
variable box_rel: 0.05
variable box_gain: 0.2
variable box_floor: 1e-3
seed lev: 5
";

const MESH_DECK: &str = "\
.title R-bridge-mesh
V1 src 0 DC 5
RS src in 100
R1 in a 1k
R2 in b 1k
R3 a b 500
R4 a c 1k
R5 b c 820
R6 a out 1k
R7 c out 1k
R8 out 0 2k
";

const MESH_CFG: &str = "\
macro type: R-bridge-mesh
test configuration: DC output
control V1: dc(lev)
observe out: dc()
return: dV(out)
parameter lev: 1 .. 8
variable box_rel: 0.05
variable box_gain: 0.3
variable box_floor: 1e-3
seed lev: 5
";

/// A deck family the stream draws requests from.
struct Family {
    name: &'static str,
    deck: String,
    configs: Vec<String>,
    max_faults: Option<usize>,
}

fn read(path: &str) -> Result<String, String> {
    std::fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))
}

fn families() -> Result<Vec<Family>, String> {
    Ok(vec![
        Family {
            name: "divider",
            deck: read("tests/fixtures/divider.sp")?,
            configs: vec![
                read("tests/fixtures/divider_configs/1_dc_out.cfg")?,
                read("tests/fixtures/divider_configs/2_step_dev.cfg")?,
            ],
            max_faults: None,
        },
        Family {
            name: "ladder",
            deck: LADDER_DECK.to_string(),
            configs: vec![LADDER_CFG.to_string()],
            max_faults: None,
        },
        Family {
            name: "mesh",
            deck: MESH_DECK.to_string(),
            configs: vec![MESH_CFG.to_string()],
            max_faults: None,
        },
        Family {
            name: "bjt-opamp",
            deck: read("tests/fixtures/bjt_opamp.sp")?,
            configs: vec![
                read("tests/fixtures/bjt_configs/1_dc_follow.cfg")?,
                read("tests/fixtures/bjt_configs/2_supply_current.cfg")?,
            ],
            max_faults: Some(6),
        },
    ])
}

/// Inserts `card` before the deck's `.end` line (or appends it).
fn with_card(deck: &str, card: &str) -> String {
    let mut out = String::with_capacity(deck.len() + card.len() + 1);
    let mut placed = false;
    for line in deck.lines() {
        if !placed && line.trim().eq_ignore_ascii_case(".end") {
            out.push_str(card);
            out.push('\n');
            placed = true;
        }
        out.push_str(line);
        out.push('\n');
    }
    if !placed {
        out.push_str(card);
        out.push('\n');
    }
    out
}

/// One distinct campaign (one result-cache key).
#[derive(Debug, Clone)]
struct Campaign {
    name: &'static str,
    deck: String,
    configs: Vec<String>,
    max_faults: Option<usize>,
    bridge_ohms: Option<f64>,
}

impl Campaign {
    fn body(&self, deck: &str) -> String {
        let configs: Vec<String> = self
            .configs
            .iter()
            .map(|c| format!("\"{}\"", json_escape(c)))
            .collect();
        let mut s = format!(
            "{{\"name\": \"{}\", \"deck\": \"{}\", \"configs\": [{}]",
            self.name,
            json_escape(deck),
            configs.join(", ")
        );
        if let Some(m) = self.max_faults {
            s.push_str(&format!(", \"max_faults\": {m}"));
        }
        if let Some(r) = self.bridge_ohms {
            s.push_str(&format!(", \"bridge_ohms\": {r:e}"));
        }
        s.push('}');
        s
    }
}

/// One request of the stream.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Item {
    /// The `POST /v1/campaign` body.
    pub body: String,
    /// Whether the result cache must answer it.
    pub hit: bool,
    /// Whether it is the first sighting of its deck (plan miss).
    pub first_sighting: bool,
    /// Index of the distinct campaign it asks for.
    pub campaign: usize,
}

/// Builds the request stream of `seed`.
///
/// # Errors
///
/// Unreadable deck fixtures.
pub fn stream(seed: u64) -> Result<Vec<Item>, String> {
    let families = families()?;
    let mut rng = Rng::new(seed, 10);
    let misses_per_family = FIRSTS + SLICES;
    let misses = families.len() * misses_per_family;
    let len = misses + FORMAT_VARIANTS + REPEATS;

    // Which family each miss belongs to, and per family whether its
    // n-th miss is a first sighting (the first one always is).
    let mut miss_family: Vec<usize> = (0..families.len())
        .flat_map(|f| std::iter::repeat_n(f, misses_per_family))
        .collect();
    rng.shuffle(&mut miss_family);
    let mut kinds: Vec<Vec<bool>> = (0..families.len())
        .map(|_| {
            let mut k: Vec<bool> = (0..misses_per_family).map(|i| i < FIRSTS).collect();
            rng.shuffle(&mut k);
            let first = k
                .iter()
                .position(|&b| b)
                .expect("a family has first sightings");
            k.swap(0, first);
            k.reverse();
            k
        })
        .collect();
    // Position 0 is a miss; the other misses are spread over the stream.
    let mut is_miss = vec![false; len];
    is_miss[0] = true;
    for p in rng.sample(len - 1, misses - 1) {
        is_miss[p + 1] = true;
    }
    let mut hit_is_variant: Vec<bool> = (0..FORMAT_VARIANTS + REPEATS)
        .map(|i| i < FORMAT_VARIANTS)
        .collect();
    rng.shuffle(&mut hit_is_variant);
    // Distinct leak values and bridge resistances, so every miss is new.
    let mut leaks = rng.sample(1000, families.len() * FIRSTS);
    rng.shuffle(&mut leaks);
    let mut ohms = rng.sample(1000, families.len() * SLICES);
    rng.shuffle(&mut ohms);

    let mut campaigns: Vec<Campaign> = Vec::new();
    let mut seen_decks: Vec<Vec<usize>> = vec![Vec::new(); families.len()];
    let (mut misses_iter, mut hits_iter) = (miss_family.into_iter(), hit_is_variant.into_iter());
    let mut items = Vec::with_capacity(len);
    for (pos, miss) in is_miss.into_iter().enumerate() {
        if miss {
            let f = misses_iter.next().expect("miss count");
            let fam = &families[f];
            let first_sighting = kinds[f].pop().expect("miss kinds");
            let campaign = if first_sighting {
                let leak = 1e9 + 1e6 * leaks.pop().expect("leak values") as f64;
                seen_decks[f].push(campaigns.len());
                Campaign {
                    name: fam.name,
                    deck: with_card(&fam.deck, &format!("RLEAK out 0 {leak:e}")),
                    configs: fam.configs.clone(),
                    max_faults: fam.max_faults,
                    bridge_ohms: None,
                }
            } else {
                let base = &campaigns[seen_decks[f][rng.below(seen_decks[f].len())]];
                // Within 1 % of the default 10 kΩ: a new cache key whose
                // coverage barely moves with the seed.
                let r = 10e3 * (1.0 + (1 + ohms.pop().expect("ohm values")) as f64 / 1e5);
                Campaign {
                    bridge_ohms: Some(r),
                    ..base.clone()
                }
            };
            items.push(Item {
                body: campaign.body(&campaign.deck),
                hit: false,
                first_sighting,
                campaign: campaigns.len(),
            });
            campaigns.push(campaign);
        } else {
            let k = rng.below(campaigns.len());
            let c = &campaigns[k];
            let body = if hits_iter.next().expect("hit count") {
                c.body(&with_card(&c.deck, &format!("* formatting variant {pos}")))
            } else {
                c.body(&c.deck)
            };
            items.push(Item {
                body,
                hit: true,
                first_sighting: false,
                campaign: k,
            });
        }
    }
    Ok(items)
}

/// A report body with its wall-time lines removed: what must agree
/// between two computations of the same request.
fn without_timings(body: &[u8]) -> String {
    String::from_utf8_lossy(body)
        .lines()
        .filter(|l| {
            ![
                "\"generate_s\"",
                "\"compact_s\"",
                "\"evaluate_s\"",
                "\"faults_per_s\"",
            ]
            .iter()
            .any(|k| l.trim_start().starts_with(k))
        })
        .collect::<Vec<_>>()
        .join("\n")
}

fn server_config() -> ServerConfig {
    ServerConfig {
        addr: "127.0.0.1:0".to_string(),
        workers: 0,
        threads_per_campaign: 1,
        result_capacity: RESULT_CAPACITY,
        plan_capacity: PLAN_CAPACITY,
        ceilings: ServerCeilings::default(),
    }
}

/// Set-up: spawn the daemon until `/v1/health` answers. Returns the
/// seconds that took; the daemon is shut down outside the timing.
fn spawn_until_healthy() -> Result<f64, String> {
    let t0 = Instant::now();
    let handle = spawn(server_config()).map_err(|e| format!("spawn: {e}"))?;
    let mut client = Client::new(handle.addr);
    let health = client
        .request("GET", "/v1/health", b"")
        .map_err(|e| format!("health: {e}"))?;
    let dt = t0.elapsed().as_secs_f64();
    drop(client);
    handle.shutdown();
    if health.status != 200 || !handle.join() {
        return Err("daemon did not start and stop cleanly".into());
    }
    Ok(dt)
}

/// What the socket pass saw.
struct SocketPass {
    wall_s: f64,
    hit_ms: Vec<f64>,
    miss_ms: Vec<f64>,
    bodies: Vec<Vec<u8>>,
    result: (u64, u64),
    plan: (u64, u64),
}

fn socket_pass(items: &[Item], out: &mut RunResult) -> Result<SocketPass, String> {
    let handle = spawn(server_config()).map_err(|e| format!("spawn: {e}"))?;
    let mut client = Client::new(handle.addr);
    let mut pass = SocketPass {
        wall_s: 0.0,
        hit_ms: Vec::new(),
        miss_ms: Vec::new(),
        bodies: Vec::with_capacity(items.len()),
        result: (0, 0),
        plan: (0, 0),
    };
    let mut first_body: HashMap<usize, usize> = HashMap::new();
    let start = Instant::now();
    for (i, item) in items.iter().enumerate() {
        let t0 = Instant::now();
        let response = client
            .request("POST", "/v1/campaign", item.body.as_bytes())
            .map_err(|e| format!("request {i}: {e}"))?;
        let ms = t0.elapsed().as_secs_f64() * 1e3;
        if item.hit {
            &mut pass.hit_ms
        } else {
            &mut pass.miss_ms
        }
        .push(ms);
        out.attempted += 1;
        if response.status != 200 {
            out.failed += 1;
            out.notes.push(format!(
                "request {i}: status {}: {}",
                response.status,
                String::from_utf8_lossy(&response.body)
            ));
        }
        out.check(parse_json(&response.body).is_ok(), || {
            format!("request {i}: body is not JSON")
        });
        let expected = if item.hit { "hit" } else { "miss" };
        out.check(response.header("x-castg-cache") == Some(expected), || {
            format!("request {i}: expected a cache {expected}")
        });
        match first_body.get(&item.campaign) {
            Some(&j) => out.check(pass.bodies[j] == response.body, || {
                format!("request {i}: hit bytes differ from request {j}'s miss")
            }),
            None => {
                first_body.insert(item.campaign, i);
            }
        }
        pass.bodies.push(response.body);
    }
    pass.wall_s = start.elapsed().as_secs_f64();
    let engine = &handle.state().engine;
    let (rh, rm, _) = engine.result_cache.stats();
    let (ph, pm, _) = engine.plan_cache.stats();
    pass.result = (rh, rm);
    pass.plan = (ph, pm);
    drop(client);
    handle.shutdown();
    out.check(handle.join(), || "daemon did not drain cleanly".to_string());
    Ok(pass)
}

/// Runs `serve_mixed`.
///
/// # Errors
///
/// See [`crate::run`].
pub fn run(seed: u64, seconds: f64, trace: bool) -> Result<RunResult, String> {
    let items = stream(seed)?;
    let mut out = RunResult::default();

    // Whole passes, each on a fresh daemon, until the next one would
    // overrun the budget (a traced run makes one: its second half is
    // the engine pass). Set-up is sampled before every pass and after
    // the last: its time follows the host's wake-up latency, which
    // drifts over a run, so one block at the start would see only one
    // stretch of it.
    let hits = items.iter().filter(|i| i.hit).count() as u64;
    let firsts = items.iter().filter(|i| i.first_sighting).count() as u64;
    let n = items.len() as u64;
    let start = Instant::now();
    let mut setups = Vec::new();
    let mut walls = Vec::new();
    let mut passes = Vec::new();
    loop {
        setups.push(median_sampled(SETUP, spawn_until_healthy)?);
        let pass = socket_pass(&items, &mut out)?;
        // The cache counts the stream implies.
        if pass.result != (hits, n - hits) || pass.plan != (n - firsts, firsts) {
            return Err(format!(
                "self-check: cache counts result {:?} plan {:?}, the stream implies result {:?} \
                 plan {:?}",
                pass.result,
                pass.plan,
                (hits, n - hits),
                (n - firsts, firsts)
            ));
        }
        walls.push(pass.wall_s);
        passes.push(pass);
        if trace || start.elapsed().as_secs_f64() + walls[walls.len() - 1] > seconds {
            break;
        }
    }
    setups.push(median_sampled(SETUP, spawn_until_healthy)?);
    let setup_s = median(&setups);
    let wall_s = median(&walls);
    let pass = &passes[0];

    let (mut detected, mut faults, mut tests) = (0.0, 0.0, 0.0);
    for (item, body) in items.iter().zip(&pass.bodies) {
        if !item.hit {
            let report = parse_json(body).map_err(|e| format!("report: {e}"))?;
            let field = |k: &str| report.get(k).and_then(|v| v.as_f64()).unwrap_or(0.0);
            detected += field("detected");
            faults += field("faults");
            tests += field("tests");
        }
    }
    out.notes.push(format!(
        "{} requests ({} hits, {} misses, {} first sightings), {} passes, drain median {:.3} s, \
         setup {:.6} s (blocks {:.6?})",
        n,
        hits,
        n - hits,
        firsts,
        walls.len(),
        wall_s,
        setup_s,
        setups
    ));

    let hit_p50 = median(&pass.hit_ms);
    if trace {
        let latency = |name: &str, v: &[f64], out: &mut RunResult| {
            out.set(&format!("serve.{name}_p50_ms"), median(v));
            if let Some((t, pct)) = tail(v, TAIL_BEYOND) {
                out.set(&format!("serve.{name}_tail_ms"), t);
                out.notes.push(format!(
                    "{name} tail: p{pct:.1} of {} = {t:.3} ms ({TAIL_BEYOND} beyond)",
                    v.len()
                ));
            }
        };
        latency("hit", &pass.hit_ms, &mut out);
        latency("miss", &pass.miss_ms, &mut out);
        engine_pass(&items, pass, hit_p50, &mut out)?;
        out.set("serve.result_hits", pass.result.0 as f64);
        out.set("serve.result_misses", pass.result.1 as f64);
        out.set("serve.plan_hits", pass.plan.0 as f64);
        out.set("serve.plan_misses", pass.plan.1 as f64);
        // The daemon's pipeline runs on its own threads, out of the
        // decorator's reach: the trace adds nothing to the timed pass.
        out.set("trace.overhead_frac", 0.0);
    } else {
        out.set("setup_s", setup_s);
        out.set("wall_s", wall_s);
        out.set("peak_rss_mb", peak_rss_mb().ok_or("no /proc/self/status")?);
        out.set("coverage_frac", detected / faults);
        out.set("compact_tests", tests);
        out.set("requests_per_s", n as f64 / wall_s);
    }
    Ok(out)
}

/// The traced half: the same stream through an in-process [`Engine`]
/// (no socket), plus the digest, canonicalization and JSON layers timed
/// over the stream.
fn engine_pass(
    items: &[Item],
    pass: &SocketPass,
    hit_p50: f64,
    out: &mut RunResult,
) -> Result<(), String> {
    let engine = Engine::new(RESULT_CAPACITY, PLAN_CAPACITY, ServerCeilings::default(), 1);
    let (mut json_s, mut parse_s, mut canonical_s, mut configs_s, mut digest_s) =
        (0.0, 0.0, 0.0, 0.0, 0.0);
    let (mut hit_ms, mut miss_ms) = (Vec::new(), Vec::new());
    for (i, (item, socket_body)) in items.iter().zip(&pass.bodies).enumerate() {
        let t0 = Instant::now();
        let json = parse_json(item.body.as_bytes()).map_err(|e| format!("request {i}: {e}"))?;
        json_s += t0.elapsed().as_secs_f64();
        let req = CampaignRequest::from_json(&json).map_err(|e| format!("request {i}: {e}"))?;

        let t0 = Instant::now();
        let response = engine.run_campaign(&req);
        let ms = t0.elapsed().as_secs_f64() * 1e3;
        match response.cache {
            CacheStatus::Hit => hit_ms.push(ms),
            _ => miss_ms.push(ms),
        }
        out.check(
            without_timings(&response.body) == without_timings(socket_body),
            || format!("request {i}: the socket response differs from the in-process engine's"),
        );

        // The layers under the digest, timed one by one.
        let t0 = Instant::now();
        let deck = parse_deck_with_params(&req.deck, &req.params).map_err(|e| e.to_string())?;
        parse_s += t0.elapsed().as_secs_f64();
        let t0 = Instant::now();
        let canonical = canonical_deck_bytes(&deck).map_err(|e| e.to_string())?;
        canonical_s += t0.elapsed().as_secs_f64();
        let mut configs = req.configs.clone();
        sort_configs(&mut configs);
        if !item.hit {
            let t0 = Instant::now();
            for (k, text) in configs.iter().enumerate() {
                let d = ConfigDescription::parse(text).map_err(|e| e.to_string())?;
                DescribedConfig::new(k + 1, d).map_err(|e| e.to_string())?;
            }
            configs_s += t0.elapsed().as_secs_f64();
        }
        let options = DigestOptions {
            derivation: req.derivation,
            bridge_ohms: req.bridge_ohms,
            pinhole_ohms: req.pinhole_ohms,
            skip_faults: req.skip_faults,
            max_faults: req.max_faults,
            dispatch: req.dispatch,
            max_newton_iters: req.max_newton_iters,
            budget_ms: req.budget_ms,
        };
        let t0 = Instant::now();
        std::hint::black_box(request_digest(
            &req.name,
            &canonical,
            &configs,
            &deck.params,
            &options,
        ));
        digest_s += t0.elapsed().as_secs_f64();
    }
    let engine_hit = median(&hit_ms);
    out.set("serve.engine_hit_ms", engine_hit);
    out.set("serve.engine_miss_ms", median(&miss_ms));
    out.set("serve.transport_ms", hit_p50 - engine_hit);
    out.set("serve.json_s", json_s);
    out.set("serve.digest_s", digest_s);
    out.set("netlist.parse_s", parse_s);
    out.set("netlist.canonical_s", canonical_s);
    out.set("netlist.configs_s", configs_s);
    out.notes.push(format!(
        "hit latency {hit_p50:.3} ms through the socket vs {engine_hit:.4} ms in the engine"
    ));
    Ok(())
}
