//! End-to-end integration tests of the campaign daemon over real
//! sockets: spawn the server in-process, drive it with the keep-alive
//! [`castg_serve::client::Client`], and pin the cache-correctness
//! contract — a cache hit's response body is byte-identical to the miss
//! that populated it, whatever the thread count, and formatting-variant
//! requests land on the same cache entry.

use std::path::Path;
use std::sync::mpsc;
use std::time::Duration;

use castg_serve::client::Client;
use castg_serve::json::{parse_json, Json};
use castg_serve::{spawn, CacheStatus, ServerConfig};

const DECK: &str = "\
.title R-divider
V1 vin 0 DC 5
R1 vin mid 1k
R2 mid out 1k
R3 out 0 2k
";

/// The same divider, spelled differently: comments, blank lines,
/// spacing and number formats — but identical identifier case, so it
/// canonicalizes to the same deck bytes and must share the cache entry.
const DECK_REFORMATTED: &str = "\
.title R-divider
* resistive divider, reformatted
V1  vin 0  DC 5.0

R1 vin mid 1000
R2 mid out 1K
R3 out 0 2e3
";

const CFG_A: &str = "\
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

const CFG_B: &str = "\
macro type: R-divider
test configuration: DC mid tap
control vin: dc(lev)
observe mid: dc()
return: dV(mid)
parameter lev: 1 .. 8
variable box_rel: 0.05
variable box_gain: 0.5
variable box_floor: 1e-3
seed lev: 4
";

fn escape(s: &str) -> String {
    s.replace('\\', "\\\\").replace('"', "\\\"").replace('\n', "\\n")
}

fn campaign_body(deck: &str, configs: &[&str]) -> Vec<u8> {
    let configs =
        configs.iter().map(|c| format!("\"{}\"", escape(c))).collect::<Vec<_>>().join(", ");
    format!("{{\"name\": \"divider\", \"deck\": \"{}\", \"configs\": [{configs}]}}", escape(deck))
        .into_bytes()
}

fn start(threads_per_campaign: usize) -> (castg_serve::ServerHandle, Client) {
    let handle = spawn(ServerConfig {
        workers: 2,
        threads_per_campaign,
        ..ServerConfig::default()
    })
    .expect("daemon starts on an ephemeral port");
    let client = Client::new(handle.addr);
    (handle, client)
}

#[test]
fn hit_is_byte_identical_to_miss_over_http() {
    let (handle, mut client) = start(1);

    let body = campaign_body(DECK, &[CFG_A, CFG_B]);
    let miss = client.request("POST", "/v1/campaign", &body).expect("campaign request");
    assert_eq!(miss.status, 200, "{}", String::from_utf8_lossy(&miss.body));
    assert_eq!(miss.header("x-castg-cache"), Some(CacheStatus::Miss.as_str()));
    let digest = miss.header("x-castg-digest").expect("digest header").to_string();
    assert_eq!(digest.len(), 64, "hex sha-256");

    // Replaying the identical request is a hit with identical bytes.
    let hit = client.request("POST", "/v1/campaign", &body).expect("replay");
    assert_eq!(hit.status, 200);
    assert_eq!(hit.header("x-castg-cache"), Some(CacheStatus::Hit.as_str()));
    assert_eq!(hit.header("x-castg-digest"), Some(digest.as_str()));
    assert_eq!(miss.body, hit.body, "hit must replay the miss's exact bytes");

    // A formatting variant of the deck with the configs reordered is
    // the same request: same digest, same cached bytes.
    let variant = campaign_body(DECK_REFORMATTED, &[CFG_B, CFG_A]);
    let v = client.request("POST", "/v1/campaign", &variant).expect("variant");
    assert_eq!(v.header("x-castg-cache"), Some(CacheStatus::Hit.as_str()));
    assert_eq!(v.header("x-castg-digest"), Some(digest.as_str()));
    assert_eq!(miss.body, v.body);

    // A semantic change (one resistor value) is a different entry.
    let other = campaign_body(&DECK.replace("2k", "3k"), &[CFG_A, CFG_B]);
    let o = client.request("POST", "/v1/campaign", &other).expect("semantic change");
    assert_eq!(o.status, 200, "{}", String::from_utf8_lossy(&o.body));
    assert_eq!(o.header("x-castg-cache"), Some(CacheStatus::Miss.as_str()));
    assert_ne!(o.header("x-castg-digest"), Some(digest.as_str()));
    assert_ne!(miss.body, o.body);

    // /v1/stats sees the hits and the misses.
    let stats = client.request("GET", "/v1/stats", b"").expect("stats");
    assert_eq!(stats.status, 200);
    let text = String::from_utf8_lossy(&stats.body).to_string();
    assert!(text.contains("\"result_cache\""), "{text}");

    handle.shutdown();
    assert!(handle.join(), "daemon drains cleanly");
}

/// Hit/miss byte identity holds at every campaign thread count, and
/// the campaign *results* (everything but the wall-clock timing fields
/// and the echoed thread count) agree across thread counts — the
/// fan-out is order-stable, which is why thread counts stay out of the
/// request digest.
#[test]
fn cache_identity_holds_at_any_thread_count() {
    let body = campaign_body(DECK, &[CFG_A]);
    let mut per_fault_sections = Vec::new();
    for threads in [1usize, 2, 4] {
        let (handle, mut client) = start(threads);
        let miss = client.request("POST", "/v1/campaign", &body).expect("campaign");
        assert_eq!(miss.status, 200, "{}", String::from_utf8_lossy(&miss.body));
        assert_eq!(miss.header("x-castg-cache"), Some(CacheStatus::Miss.as_str()));
        let hit = client.request("POST", "/v1/campaign", &body).expect("replay");
        assert_eq!(hit.header("x-castg-cache"), Some(CacheStatus::Hit.as_str()));
        assert_eq!(miss.body, hit.body, "hit != miss at {threads} threads");
        let text = String::from_utf8_lossy(&miss.body).to_string();
        let at = text.find("\"outcomes\"").expect("outcomes section");
        per_fault_sections.push(text[at..].to_string());
        handle.shutdown();
        assert!(handle.join());
    }
    assert_eq!(per_fault_sections[0], per_fault_sections[1], "results differ with threads");
    assert_eq!(per_fault_sections[0], per_fault_sections[2], "results differ with threads");
}

/// Batch answers per job, in request order, and rides the same result
/// cache as the single-campaign endpoint.
#[test]
fn batch_reuses_the_result_cache_in_order() {
    let (handle, mut client) = start(1);

    // Prime the cache with the first job.
    let single = campaign_body(DECK, &[CFG_A]);
    let miss = client.request("POST", "/v1/campaign", &single).expect("prime");
    assert_eq!(miss.status, 200, "{}", String::from_utf8_lossy(&miss.body));

    let jobs = [
        String::from_utf8(campaign_body(DECK, &[CFG_A])).unwrap(),
        String::from_utf8(campaign_body(&DECK.replace("2k", "4k"), &[CFG_A])).unwrap(),
    ];
    let batch = format!("{{\"jobs\": [{}, {}]}}", jobs[0], jobs[1]).into_bytes();
    let r = client.request("POST", "/v1/batch", &batch).expect("batch");
    assert_eq!(r.status, 200, "{}", String::from_utf8_lossy(&r.body));
    let text = String::from_utf8_lossy(&r.body).to_string();
    // Job 0 was primed → hit; job 1 is new → miss; order preserved.
    let hit_at = text.find("\"cache\": \"hit\"").expect("primed job reports a hit");
    let miss_at = text.find("\"cache\": \"miss\"").expect("new job reports a miss");
    assert!(hit_at < miss_at, "batch results out of request order: {text}");

    handle.shutdown();
    assert!(handle.join());
}

/// The two op-amp decks over HTTP, fault-capped: the IV converter with
/// its two DC configurations and the bipolar op-amp with both of its
/// configurations, then one replay. No fault outcome panics, the replay
/// hits the result cache, and `POST /v1/shutdown` drains the daemon.
#[test]
fn op_amp_decks_serve_cleanly_and_shut_down_over_http() {
    let fixture = |name: &str| {
        let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("../../tests/fixtures").join(name);
        escape(&std::fs::read_to_string(&path).expect("fixture exists"))
    };
    let job = |name: &str, deck: &str, configs: [&str; 2]| {
        let [a, b] = configs.map(fixture);
        format!(
            "{{\"name\": \"{name}\", \"deck\": \"{}\", \"configs\": [\"{a}\", \"{b}\"], \
             \"max_faults\": 3}}",
            fixture(deck)
        )
        .into_bytes()
    };
    let iv = job(
        "iv",
        "iv_converter.sp",
        ["iv_configs/1_dc_transfer.cfg", "iv_configs/2_supply_current.cfg"],
    );
    let bjt = job(
        "bjt-opamp",
        "bjt_opamp.sp",
        ["bjt_configs/1_dc_follow.cfg", "bjt_configs/2_supply_current.cfg"],
    );

    let (handle, mut client) = start(1);
    for body in [&iv, &bjt] {
        let r = client.request("POST", "/v1/campaign", body).expect("campaign");
        assert_eq!(r.status, 200, "{}", String::from_utf8_lossy(&r.body));
        assert_eq!(r.header("x-castg-cache"), Some(CacheStatus::Miss.as_str()));
    }
    let replay = client.request("POST", "/v1/campaign", &iv).expect("replay");
    assert_eq!(replay.header("x-castg-cache"), Some(CacheStatus::Hit.as_str()));

    let stats = client.request("GET", "/v1/stats", b"").expect("stats");
    let stats = parse_json(&stats.body).expect("stats body is JSON");
    let count = |section: &str, key: &str| {
        stats.get(section).and_then(|s| s.get(key)).and_then(Json::as_f64).expect("stats field")
    };
    assert_eq!(count("outcomes", "panicked"), 0.0);
    assert!(count("result_cache", "hits") >= 1.0);

    let r = client.request("POST", "/v1/shutdown", b"").expect("shutdown");
    assert_eq!(r.status, 200);
    assert!(handle.join(), "daemon drains after POST /v1/shutdown");
}

/// Wire-level error mapping: malformed JSON is a 400, unknown routes
/// are 404, wrong methods are 405 — and none of them poison the
/// connection or the daemon.
#[test]
fn error_statuses_do_not_poison_the_daemon() {
    let (handle, mut client) = start(1);

    let r = client.request("POST", "/v1/campaign", b"{not json").expect("bad json");
    assert_eq!(r.status, 400, "{}", String::from_utf8_lossy(&r.body));
    assert!(String::from_utf8_lossy(&r.body).contains("\"error\""));

    let r = client.request("GET", "/nope", b"").expect("unknown route");
    assert_eq!(r.status, 404);

    let r = client.request("GET", "/v1/campaign", b"").expect("wrong method");
    assert_eq!(r.status, 405);

    // The daemon still serves real work on the same connection.
    let ok = client
        .request("POST", "/v1/campaign", &campaign_body(DECK, &[CFG_A]))
        .expect("recovery");
    assert_eq!(ok.status, 200, "{}", String::from_utf8_lossy(&ok.body));

    let health = client.request("GET", "/v1/health", b"").expect("health");
    assert_eq!(health.status, 200);

    handle.shutdown();
    assert!(handle.join());
}

/// With one campaign permit, campaigns that fail inside the engine — a
/// 400 deck error, a 422 empty fault window — give the permit back: a
/// valid campaign and a two-job batch after them still answer. A leaked
/// permit would block the next campaign forever, so the exchange runs
/// on its own thread under a deadline.
#[test]
fn one_permit_is_returned_by_failing_campaigns() {
    let handle = spawn(ServerConfig { workers: 1, ..ServerConfig::default() })
        .expect("daemon starts on an ephemeral port");
    let addr = handle.addr;
    let (tx, rx) = mpsc::channel();
    std::thread::spawn(move || {
        let mut client = Client::new(addr);
        let mut post = |route: &str, body: Vec<u8>| {
            let r = client.request("POST", route, &body).expect("request answers");
            (r.status, String::from_utf8_lossy(&r.body).to_string())
        };
        let bad_deck = campaign_body("R1 a\n", &[CFG_A]);
        let mut empty_window = campaign_body(DECK, &[CFG_A]);
        empty_window.truncate(empty_window.len() - 1);
        empty_window.extend_from_slice(b", \"skip_faults\": 10000}");
        let batch = format!(
            "{{\"jobs\": [{}, {}]}}",
            String::from_utf8(campaign_body(DECK, &[CFG_A])).unwrap(),
            String::from_utf8(campaign_body(&DECK.replace("2k", "4k"), &[CFG_A])).unwrap(),
        );
        let answers = [
            post("/v1/campaign", bad_deck),
            post("/v1/campaign", empty_window),
            post("/v1/campaign", campaign_body(DECK, &[CFG_B])),
            post("/v1/batch", batch.into_bytes()),
        ];
        let _ = tx.send(answers);
    });
    let [bad_deck, empty_window, campaign, batch] = rx
        .recv_timeout(Duration::from_secs(60))
        .expect("every request answers within 60 s (a leaked permit blocks the daemon)");

    assert_eq!(bad_deck.0, 400, "{}", bad_deck.1);
    assert!(bad_deck.1.contains("deck_error"), "{}", bad_deck.1);
    assert_eq!(empty_window.0, 422, "{}", empty_window.1);
    assert!(empty_window.1.contains("empty_dictionary"), "{}", empty_window.1);
    assert_eq!(campaign.0, 200, "{}", campaign.1);
    assert_eq!(batch.0, 200, "{}", batch.1);
    assert_eq!(batch.1.matches("\"status\": 200").count(), 2, "{}", batch.1);

    handle.shutdown();
    assert!(handle.join());
}
