//! The daemon: a `std::net::TcpListener` accept loop, a thread per
//! connection, a campaign permit count, the HTTP routes, and graceful
//! shutdown.
//!
//! Design notes:
//!
//! * **Thread per connection, permit per campaign.** A connection
//!   thread parses, runs its campaign itself and serializes. Every
//!   campaign (single or batch member) first takes one of
//!   [`ServerConfig::workers`] permits, so total pipeline concurrency is
//!   bounded by the worker count no matter how many clients connect.
//!   `/v1/batch` fans its jobs out with [`castg_core::fan_out`], each
//!   job under its own permit.
//! * **Graceful shutdown.** The accept loop polls a shutdown flag
//!   (set by `POST /v1/shutdown`, SIGINT/SIGTERM, or
//!   [`ServerHandle::shutdown`]) every ~2 ms using a nonblocking
//!   listener — polling sidesteps `EINTR`/`SA_RESTART` unreliability
//!   around blocking `accept`. Once set, no new connections are
//!   accepted, and the accept loop joins every connection thread: each
//!   finishes the request it is serving and closes.
//! * **Failure isolation.** Campaigns run under `catch_unwind` inside
//!   the engine; a panicking request yields a 500 for that tenant and
//!   nothing else.

use std::io;
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex, PoisonError};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use castg_core::{default_threads, fan_out};

use crate::campaign::{error_body, CampaignResponse, Engine};
use crate::http::{read_request_abortable, write_response, Method, Request};
use crate::json::parse_json;
use crate::request::{CampaignRequest, ServerCeilings};

/// How the daemon is launched.
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// Bind address (`127.0.0.1:0` picks an ephemeral port).
    pub addr: String,
    /// Campaigns in flight at once, batch jobs included (0 = cores):
    /// each campaign runs under one of this many permits.
    pub workers: usize,
    /// Threads each campaign's fan-out uses (thread counts never change
    /// report bytes, only latency).
    pub threads_per_campaign: usize,
    /// Result-cache capacity (responses).
    pub result_capacity: usize,
    /// Plan-cache capacity (compiled decks).
    pub plan_capacity: usize,
    /// Per-request resource ceilings.
    pub ceilings: ServerCeilings,
}

impl Default for ServerConfig {
    fn default() -> Self {
        ServerConfig {
            addr: "127.0.0.1:0".to_string(),
            workers: 0,
            threads_per_campaign: 1,
            result_capacity: 256,
            plan_capacity: 64,
            ceilings: ServerCeilings::default(),
        }
    }
}

/// A counting semaphore: campaigns in flight at once. The count is
/// whole after every update, so a poisoned lock is taken over as is.
struct Permits {
    free: Mutex<usize>,
    freed: Condvar,
}

impl Permits {
    /// Blocks until a permit is free and takes it; dropping the
    /// returned guard gives it back.
    fn acquire(&self) -> Permit<'_> {
        let mut free = self.free.lock().unwrap_or_else(PoisonError::into_inner);
        while *free == 0 {
            free = self.freed.wait(free).unwrap_or_else(PoisonError::into_inner);
        }
        *free -= 1;
        Permit(self)
    }
}

/// One held permit, released on drop (unwinding included).
struct Permit<'a>(&'a Permits);

impl Drop for Permit<'_> {
    fn drop(&mut self) {
        *self.0.free.lock().unwrap_or_else(PoisonError::into_inner) += 1;
        self.0.freed.notify_one();
    }
}

/// Shared server state: the engine plus serving counters.
pub struct ServeState {
    /// The socket-free campaign engine (caches + ceilings + pipeline).
    pub engine: Engine,
    /// Requests served, any route or status.
    pub requests: AtomicU64,
    /// Set to stop accepting and drain.
    pub shutdown: AtomicBool,
    /// The resolved [`ServerConfig::workers`].
    workers: usize,
    permits: Permits,
    started: Instant,
}

impl ServeState {
    fn new(config: &ServerConfig) -> Self {
        let workers = if config.workers == 0 { default_threads() } else { config.workers };
        ServeState {
            engine: Engine::new(
                config.result_capacity,
                config.plan_capacity,
                config.ceilings,
                config.threads_per_campaign,
            ),
            requests: AtomicU64::new(0),
            shutdown: AtomicBool::new(false),
            workers,
            permits: Permits { free: Mutex::new(workers), freed: Condvar::new() },
            started: Instant::now(),
        }
    }

    /// Runs one campaign on the calling thread under a permit, waiting
    /// for one to come free.
    fn run_campaign(&self, request: &CampaignRequest) -> CampaignResponse {
        let _permit = self.permits.acquire();
        self.engine.run_campaign(request)
    }

    fn stats_json(&self) -> String {
        let (rhits, rmisses, rlen) = self.engine.result_cache.stats();
        let (phits, pmisses, plen) = self.engine.plan_cache.stats();
        let o = &self.engine.outcomes;
        let rate = |hits: u64, misses: u64| -> f64 {
            let total = hits + misses;
            if total == 0 { 0.0 } else { hits as f64 / total as f64 }
        };
        format!(
            concat!(
                "{{\n",
                "  \"uptime_s\": {:.3},\n",
                "  \"requests\": {},\n",
                "  \"campaigns\": {},\n",
                "  \"errors\": {},\n",
                "  \"result_cache\": {{\"hits\": {}, \"misses\": {}, \"entries\": {}, \"hit_rate\": {:.4}}},\n",
                "  \"plan_cache\": {{\"hits\": {}, \"misses\": {}, \"entries\": {}, \"hit_rate\": {:.4}}},\n",
                "  \"outcomes\": {{\"detected\": {}, \"undetected\": {}, \"unconverged\": {}, \
                 \"singular\": {}, \"timed_out\": {}, \"panicked\": {}, \"injection_failed\": {}}},\n",
                "  \"convergence_stats\": {{\"solves\": {}, \"iterations\": {}}}\n",
                "}}\n",
            ),
            self.started.elapsed().as_secs_f64(),
            self.requests.load(Ordering::Relaxed),
            self.engine.campaigns.load(Ordering::Relaxed),
            self.engine.errors.load(Ordering::Relaxed),
            rhits,
            rmisses,
            rlen,
            rate(rhits, rmisses),
            phits,
            pmisses,
            plen,
            rate(phits, pmisses),
            o.detected.load(Ordering::Relaxed),
            o.undetected.load(Ordering::Relaxed),
            o.unconverged.load(Ordering::Relaxed),
            o.singular.load(Ordering::Relaxed),
            o.timed_out.load(Ordering::Relaxed),
            o.panicked.load(Ordering::Relaxed),
            o.injection_failed.load(Ordering::Relaxed),
            o.solves.load(Ordering::Relaxed),
            o.iterations.load(Ordering::Relaxed),
        )
    }
}

/// A running daemon: address, shutdown control, and the accept-loop
/// join handle. In-process users (tests, the benchmark) spawn
/// one, talk HTTP to `addr`, then `shutdown()` + `join()`.
pub struct ServerHandle {
    /// The bound address (the ephemeral port, for `127.0.0.1:0`).
    pub addr: SocketAddr,
    state: Arc<ServeState>,
    accept_thread: JoinHandle<()>,
}

impl ServerHandle {
    /// Requests a graceful shutdown (idempotent).
    pub fn shutdown(&self) {
        self.state.shutdown.store(true, Ordering::SeqCst);
    }

    /// Shared server state (stats inspection in tests and the benchmark).
    pub fn state(&self) -> &Arc<ServeState> {
        &self.state
    }

    /// Waits for the daemon to stop: after [`ServerHandle::shutdown`]
    /// (or `POST /v1/shutdown`, or a signal) the accept loop stops
    /// accepting and joins every connection thread, each of which
    /// finishes the request it is serving. Returns `false` only when the
    /// accept loop itself panicked.
    pub fn join(self) -> bool {
        self.accept_thread.join().is_ok()
    }
}

/// Binds and spawns the daemon; returns once the listener is live.
///
/// # Errors
///
/// [`io::Error`] when the address cannot be bound.
pub fn spawn(config: ServerConfig) -> io::Result<ServerHandle> {
    let listener = TcpListener::bind(&config.addr)?;
    listener.set_nonblocking(true)?;
    let addr = listener.local_addr()?;
    let state = Arc::new(ServeState::new(&config));
    let accept_state = Arc::clone(&state);
    let accept_thread = std::thread::Builder::new()
        .name("castg-serve-accept".to_string())
        .spawn(move || accept_loop(listener, accept_state))?;
    Ok(ServerHandle { addr, state, accept_thread })
}

fn accept_loop(listener: TcpListener, state: Arc<ServeState>) {
    let mut connection_threads: Vec<JoinHandle<()>> = Vec::new();
    while !state.shutdown.load(Ordering::SeqCst) && !signal::requested() {
        match listener.accept() {
            Ok((stream, _peer)) => {
                let conn_state = Arc::clone(&state);
                let t = std::thread::Builder::new()
                    .name("castg-serve-conn".to_string())
                    .spawn(move || handle_connection(stream, &conn_state));
                if let Ok(t) = t {
                    connection_threads.push(t);
                }
                // Prune finished connection threads opportunistically.
                connection_threads.retain(|t| !t.is_finished());
            }
            Err(_) => std::thread::sleep(Duration::from_millis(2)),
        }
    }
    state.shutdown.store(true, Ordering::SeqCst);
    // Drain: every connection finishes the request it is serving (an
    // idle keep-alive one notices the flag within its read timeout).
    for t in connection_threads {
        let _ = t.join();
    }
}

fn handle_connection(mut stream: TcpStream, state: &ServeState) {
    // Short read timeout so the abort hook gets polled: an idle
    // keep-alive connection notices a drain within ~100 ms.
    let _ = stream.set_read_timeout(Some(Duration::from_millis(100)));
    loop {
        let mut should_abort = || state.shutdown.load(Ordering::SeqCst) || signal::requested();
        let request = match read_request_abortable(&mut stream, &mut should_abort) {
            Ok(Some(request)) => request,
            Ok(None) => return, // clean EOF between requests
            Err(e) => {
                let body = error_body("bad_request", &e.to_string());
                let _ = write_response(&mut stream, 400, &[], body.as_bytes(), false);
                return;
            }
        };
        state.requests.fetch_add(1, Ordering::Relaxed);
        // Finish this request but drop keep-alive once draining.
        let keep_alive = request.head.keep_alive && !state.shutdown.load(Ordering::SeqCst);
        let ok = route(&mut stream, state, &request, keep_alive);
        if !ok || !keep_alive {
            return;
        }
    }
}

/// Dispatches one request; returns `false` when the connection should
/// close because the response could not be written.
fn route(stream: &mut TcpStream, state: &ServeState, request: &Request, keep_alive: bool) -> bool {
    let head = &request.head;
    let write = |stream: &mut TcpStream,
                 status: u16,
                 extra: &[(&str, &str)],
                 body: &[u8]|
     -> bool { write_response(stream, status, extra, body, keep_alive).is_ok() };

    match (head.method, head.target.as_str()) {
        (Method::Get, "/v1/health") => {
            let body = format!(
                "{{\"status\": \"ok\", \"uptime_s\": {:.3}}}\n",
                state.started.elapsed().as_secs_f64()
            );
            write(stream, 200, &[], body.as_bytes())
        }
        (Method::Get, "/v1/stats") => {
            let body = state.stats_json();
            write(stream, 200, &[], body.as_bytes())
        }
        (Method::Post, "/v1/shutdown") => {
            state.shutdown.store(true, Ordering::SeqCst);
            write(stream, 200, &[], b"{\"ok\": true}\n")
        }
        (Method::Post, "/v1/campaign") => {
            let parsed = match parse_json(&request.body) {
                Ok(v) => v,
                Err(e) => {
                    let body = error_body("bad_json", &e.to_string());
                    return write(stream, 400, &[], body.as_bytes());
                }
            };
            let campaign_request = match CampaignRequest::from_json(&parsed) {
                Ok(r) => r,
                Err(e) => {
                    let body = error_body("bad_request", &e.to_string());
                    return write(stream, 400, &[], body.as_bytes());
                }
            };
            let response = state.run_campaign(&campaign_request);
            let mut extra: Vec<(&str, &str)> = vec![("X-Castg-Cache", response.cache.as_str())];
            if let Some(digest) = &response.digest_hex {
                extra.push(("X-Castg-Digest", digest.as_str()));
            }
            write(stream, response.status, &extra, &response.body)
        }
        (Method::Post, "/v1/batch") => {
            let parsed = match parse_json(&request.body) {
                Ok(v) => v,
                Err(e) => {
                    let body = error_body("bad_json", &e.to_string());
                    return write(stream, 400, &[], body.as_bytes());
                }
            };
            let jobs_v = match parsed.get("jobs").and_then(|j| j.as_array()) {
                Some(jobs) if !jobs.is_empty() => jobs,
                _ => {
                    let body =
                        error_body("bad_request", "body must be {\"jobs\": [<campaign>, ...]}");
                    return write(stream, 400, &[], body.as_bytes());
                }
            };
            if jobs_v.len() > state.engine.ceilings.max_batch_jobs {
                let body = error_body(
                    "too_many_jobs",
                    &format!(
                        "{} jobs exceeds the server ceiling of {}",
                        jobs_v.len(),
                        state.engine.ceilings.max_batch_jobs
                    ),
                );
                return write(stream, 400, &[], body.as_bytes());
            }
            let mut decoded = Vec::with_capacity(jobs_v.len());
            for (i, j) in jobs_v.iter().enumerate() {
                match CampaignRequest::from_json(j) {
                    Ok(r) => decoded.push(r),
                    Err(e) => {
                        let body = error_body("bad_request", &format!("jobs[{i}]: {e}"));
                        return write(stream, 400, &[], body.as_bytes());
                    }
                }
            }
            // Each job takes its own permit; results come back in order.
            let responses =
                fan_out(decoded.len(), state.workers, |i| state.run_campaign(&decoded[i]));
            let results: Vec<String> = responses
                .iter()
                .map(|r| {
                    format!(
                        "{{\"status\": {}, \"cache\": \"{}\", \"digest\": \"{}\", \"report\": {}}}",
                        r.status,
                        r.cache.as_str(),
                        r.digest_hex.as_deref().unwrap_or(""),
                        String::from_utf8_lossy(&r.body).trim_end(),
                    )
                })
                .collect();
            let body = format!("{{\"results\": [\n{}\n]}}\n", results.join(",\n"));
            write(stream, 200, &[], body.as_bytes())
        }
        (_, target) => {
            let known = [
                "/v1/health",
                "/v1/stats",
                "/v1/campaign",
                "/v1/batch",
                "/v1/shutdown",
            ];
            let (status, kind) = if known.contains(&target) {
                (405, "method_not_allowed")
            } else {
                (404, "not_found")
            };
            let body = error_body(kind, &format!("{} {}", head.method, target));
            write(stream, status, &[], body.as_bytes())
        }
    }
}

/// POSIX signal hookup for the foreground `castg serve` daemon.
///
/// The build has no `libc` crate, so this binds `signal(2)` directly —
/// the only unsafe code in the workspace, confined here and compiled
/// only on Unix. The handler just stores a flag; the accept loop polls
/// it (async-signal-safe by construction).
pub(crate) mod signal {
    use std::sync::atomic::{AtomicBool, Ordering};

    static SIGNALLED: AtomicBool = AtomicBool::new(false);

    /// Whether SIGINT/SIGTERM arrived since [`install`] ran.
    pub fn requested() -> bool {
        SIGNALLED.load(Ordering::SeqCst)
    }

    /// Installs SIGINT/SIGTERM handlers that set the flag (no-op off
    /// Unix; the daemon then stops via `POST /v1/shutdown` only).
    #[cfg(unix)]
    #[allow(unsafe_code)]
    pub fn install() {
        extern "C" fn on_signal(_signum: i32) {
            SIGNALLED.store(true, Ordering::SeqCst);
        }
        extern "C" {
            fn signal(signum: i32, handler: usize) -> usize;
        }
        const SIGINT: i32 = 2;
        const SIGTERM: i32 = 15;
        let handler = on_signal as *const () as usize;
        unsafe {
            signal(SIGINT, handler);
            signal(SIGTERM, handler);
        }
    }

    /// No signals to hook on non-Unix targets.
    #[cfg(not(unix))]
    pub fn install() {}
}

/// Runs the daemon in the foreground until a shutdown request or
/// signal, then drains. This is what `castg serve` calls.
///
/// # Errors
///
/// [`io::Error`] when the address cannot be bound.
pub fn serve_forever(config: ServerConfig) -> io::Result<()> {
    signal::install();
    let handle = spawn(config)?;
    eprintln!("castg-serve: listening on {}", handle.addr);
    handle.join();
    eprintln!("castg-serve: drained, bye");
    Ok(())
}
