//! `skyline-cluster` — sharded multi-node skyline serving.
//!
//! A coordinator process fronting N independent `skyline-serve` shard
//! nodes over the same zero-dependency HTTP stack. Rows are partitioned
//! by a deterministic hash of their coordinator-assigned global id
//! ([`shard_map::shard_of`]); the cluster-level registry (which global
//! id lives on which shard under which local handle) is persisted in
//! the coordinator's own WAL-style JSONL manifest ([`manifest`]).
//!
//! ## Query path: scatter-gather with the subset merge
//!
//! `GET /skyline` scatters to every shard with `include_masks=1&
//! include_rows=1`, so each shard answers with its local skyline *plus*
//! each point's maximum dominating subspace w.r.t. the shard's own
//! elite reference set, the elite positions, and the raw coordinates.
//! The coordinator translates shard handles back to global ids and
//! finishes with [`skyline_core::shard_merge::merge_shard_skylines`] —
//! the exact code path the in-process parallel engine uses — taking the
//! global reference set to be the union of the per-shard elites. The
//! shard-supplied premasks already cover same-shard elites, so the
//! coordinator only pays cross-shard dominance tests during subspace
//! assignment, and cluster answers match a single-node server fed the
//! same rows id-for-id.
//!
//! ## Degraded operation
//!
//! Shard calls go through the retrying client with a total-deadline
//! budget derived from the request's `deadline_ms`; a shard that stays
//! down after retries is *skipped*, and the response carries
//! `"partial": true` plus the missing shard list — the skyline of the
//! surviving shards' rows, not an error. Mutations are stricter: a
//! failed shard fails the request (502) after applying what succeeded,
//! because silently dropping writes would corrupt the registry.
//!
//! Telemetry: every shard call emits a `shard_rpc` trace event and
//! feeds per-shard latency/error counters in `/metrics`; every merge
//! emits `cluster_merge`. `skyline report` renders both.
//!
//! The HTTP front end (accept thread, keep-alive connections, running
//! handle, trace sinks) is the shard server's own
//! [`skyline_serve::service`], and requests are parsed by the shard
//! server's [`skyline_serve::api`], so both refuse a bad request alike.

pub mod manifest;
pub mod shard_map;

use std::collections::{HashMap, HashSet};
use std::io;
use std::net::SocketAddr;
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use skyline_core::cancel::{CancelToken, Cancelled};
use skyline_core::metrics::Metrics;
use skyline_core::shard_merge::{merge_shard_skylines, EliteRef, MergeEntry};
use skyline_core::subspace::Subspace;
use skyline_obs::json::{self, ObjectWriter, Value};
use skyline_obs::trace::{self, StageTimer, TraceContext};
use skyline_obs::{Event, NoopRecorder};
use skyline_serve::api::{self, NewDataset, SkylineHead, SkylineQuery};
use skyline_serve::client::{
    request_with_retry_timed, request_with_timeout, ClientResponse, RequestTiming, RetryPolicy,
};
use skyline_serve::http::{self, Request, Response};
use skyline_serve::metrics::Extra;
use skyline_serve::service::{self, FrontConfig, FrontEnd, Service};

use manifest::Manifest;
use shard_map::{shard_of, DatasetState};

/// Coordinator configuration. Built with [`ClusterConfig::new`] from
/// the shard address list; everything else has serving defaults.
#[derive(Debug, Clone)]
pub struct ClusterConfig {
    /// Bind address, `"host:port"`; port 0 picks an ephemeral port.
    pub bind: String,
    /// Shard node addresses, in shard-id order. The order *is* the
    /// sharding function's codomain: restarting the cluster with the
    /// shards permuted mis-routes every row.
    pub shards: Vec<SocketAddr>,
    /// Worker threads for request handling.
    pub threads: usize,
    /// Per-connection socket read/write timeout.
    pub request_timeout: Duration,
    /// Request body cap, bytes.
    pub max_body: usize,
    /// JSON-lines trace sink (`shard_rpc`, `cluster_merge`, `request`
    /// events).
    pub trace: Option<PathBuf>,
    /// WAL-style JSONL manifest path; `None` keeps the registry in
    /// memory only.
    pub manifest: Option<PathBuf>,
    /// Base retry policy for shard calls. Per-request deadline budgets
    /// override [`RetryPolicy::budget`].
    pub retry: RetryPolicy,
    /// Slow-query threshold, milliseconds: a `/skyline` request whose
    /// wall-clock reaches it gets its stitched stage breakdown written
    /// as a JSONL `stage_breakdown` record. `0` disables the slow log.
    pub slow_ms: u64,
    /// Dedicated slow-query log path. `None` routes slow records to the
    /// `trace` sink instead.
    pub slow_log: Option<PathBuf>,
    /// Read replicas per shard, in shard-id order (`skyline serve
    /// --follow` followers of that shard). When a shard has replicas,
    /// `/skyline` scatter legs go to them round-robin; writes always
    /// stay on the primaries. Empty = read from primaries only.
    pub replicas: Vec<Vec<SocketAddr>>,
    /// Bounded staleness for replica reads: the largest self-reported
    /// replica lag (versions behind the primary, from the
    /// `X-Skyline-Replica-Lag` header) a read leg accepts before
    /// falling back to the primary. 0 = only fully caught-up replicas.
    pub replica_staleness: u64,
    /// Run the failure detector: probe every shard primary's `/healthz`
    /// on a jittered cadence and, on [`ClusterConfig::suspect_misses`]
    /// consecutive misses, promote that shard's most-caught-up replica
    /// under a fresh fencing epoch. Off by default — failover without
    /// replicas to promote would only add probe traffic.
    pub failover: bool,
    /// Failure-detector probe cadence, milliseconds (also the probe's
    /// connect/read timeout).
    pub probe_ms: u64,
    /// Consecutive missed probes before a primary is declared dead and
    /// a promotion is attempted.
    pub suspect_misses: u32,
}

impl ClusterConfig {
    /// Defaults for a cluster over `shards`.
    pub fn new(shards: Vec<SocketAddr>) -> ClusterConfig {
        ClusterConfig {
            bind: "127.0.0.1:0".to_string(),
            shards,
            threads: 4,
            request_timeout: Duration::from_secs(30),
            max_body: http::DEFAULT_MAX_BODY,
            trace: None,
            manifest: None,
            // Shards shed with 503 + Retry-After under overload and a
            // restarting shard refuses connections briefly, so a couple
            // of quick retries ride out both.
            retry: RetryPolicy {
                attempts: 3,
                base_delay: Duration::from_millis(10),
                max_delay: Duration::from_millis(200),
                budget: None,
            },
            slow_ms: 0,
            slow_log: None,
            replicas: Vec::new(),
            replica_staleness: 0,
            failover: false,
            probe_ms: 500,
            suspect_misses: 3,
        }
    }
}

/// Per-shard RPC counters surfaced in `/metrics`.
#[derive(Debug, Default)]
struct ShardStats {
    /// Logical calls (one per scatter leg, however many attempts).
    requests: AtomicU64,
    /// Calls that ended in a transport error or a >= 400 status.
    errors: AtomicU64,
    /// Attempts across all calls (attempts > requests ⇒ retries fired).
    attempts: AtomicU64,
    /// Wall-clock across all calls, µs (includes backoff between
    /// retries).
    total_us: AtomicU64,
}

/// Mutable routing state: which node is each shard's primary right
/// now, which are its replicas, and the shard's fencing epoch. Guarded
/// by one `RwLock` — request paths take brief read snapshots, only the
/// failure detector writes (on promotion and stale-node reintegration).
#[derive(Debug, Clone)]
struct Topology {
    /// Primary address per shard — the write target.
    primaries: Vec<SocketAddr>,
    /// Read replicas per shard (empty inner vec = primary reads only).
    replicas: Vec<Vec<SocketAddr>>,
    /// Fencing epoch per shard. 0 until the first failover; every
    /// promotion raises it by one, and writes stamp it so a deposed
    /// primary that comes back refuses them with `409 Fenced`.
    epochs: Vec<u64>,
    /// Deposed primaries (and replicas that missed their demotion
    /// notice), waiting to be demoted into the replica pool when they
    /// resurface. Probed each detector round.
    stale: Vec<Vec<SocketAddr>>,
}

/// State shared by every coordinator worker.
struct Shared {
    front: FrontEnd,
    /// Number of shards — fixed for the cluster's lifetime even as the
    /// topology's addresses move around.
    shard_count: usize,
    topology: std::sync::RwLock<Topology>,
    shard_stats: Vec<ShardStats>,
    /// The registry. Its lock guards the name table only and is held
    /// just for a lookup; each dataset's state has its own lock, which a
    /// write holds across its shard fan-out, so versions and handle maps
    /// stay in order while requests for other datasets go on.
    datasets: Mutex<HashMap<String, Arc<Mutex<DatasetState>>>>,
    /// Names whose create is fanning out. A name is reserved here under
    /// the `datasets` lock, so the fan-out runs without that lock and a
    /// racing create of the same name still gets 409.
    creating: Mutex<HashSet<String>>,
    manifest: Option<Mutex<Manifest>>,
    replayed: u64,
    retry: RetryPolicy,
    /// Largest acceptable self-reported replica lag, versions.
    replica_staleness: u64,
    /// Round-robin cursor over each shard's replica list (one shared
    /// counter is fine: it only spreads load, it carries no meaning).
    replica_rr: AtomicUsize,
    /// Scatter read legs that were routed to a replica first.
    replica_requests: AtomicU64,
    /// Replica-first legs that fell back to the primary (unreachable,
    /// error status, or staleness beyond the bound).
    replica_fallbacks: AtomicU64,
    /// Run the failure detector / promotion loop.
    failover: bool,
    /// Detector probe cadence and per-probe timeout, milliseconds.
    probe_ms: u64,
    /// Consecutive missed probes before promotion fires.
    suspect_misses: u32,
    /// Successful automatic promotions since boot.
    promotions_total: AtomicU64,
}

impl Service for Shared {
    fn front(&self) -> &FrontEnd {
        &self.front
    }

    fn route(&self, req: &Request) -> (Response, &'static str) {
        route(self, req)
    }
}

impl Shared {
    /// Read-locked topology snapshot accessors. Each takes the lock
    /// briefly; callers hold copies, never the guard, so the failure
    /// detector's write lock is never starved.
    fn primary_of(&self, shard: usize) -> SocketAddr {
        self.topology
            .read()
            .unwrap_or_else(|e| e.into_inner())
            .primaries[shard]
    }

    fn epoch_of(&self, shard: usize) -> u64 {
        self.topology
            .read()
            .unwrap_or_else(|e| e.into_inner())
            .epochs[shard]
    }

    fn replicas_of(&self, shard: usize) -> Vec<SocketAddr> {
        self.topology
            .read()
            .unwrap_or_else(|e| e.into_inner())
            .replicas[shard]
            .clone()
    }
}

/// A running coordinator: the shared front end's handle. Dropping it
/// shuts the coordinator down.
pub type ClusterHandle = service::Running;

/// The coordinator: binds, spawns the accept loop, returns a handle.
pub struct Cluster;

impl Cluster {
    /// Bind `config.bind` and start coordinating `config.shards`.
    pub fn start(config: ClusterConfig) -> io::Result<ClusterHandle> {
        if config.shards.is_empty() {
            return Err(io::Error::other("cluster needs at least one shard"));
        }
        if !config.replicas.is_empty() && config.replicas.len() != config.shards.len() {
            return Err(io::Error::other(format!(
                "--replicas lists {} shards, the cluster has {}",
                config.replicas.len(),
                config.shards.len()
            )));
        }
        let (listener, front) = FrontEnd::bind(FrontConfig {
            bind: config.bind.clone(),
            name: "cluster",
            threads: config.threads,
            request_timeout: config.request_timeout,
            max_body: config.max_body,
            queue_limit: 0,
            trace: config.trace.clone(),
            slow_ms: config.slow_ms,
            slow_log: config.slow_log.clone(),
        })?;
        let shard_count = config.shards.len();
        let (manifest, datasets, replayed, promote_epochs, promote_primaries) =
            match &config.manifest {
                Some(path) => {
                    let (m, replay) = Manifest::open(path, shard_count)?;
                    (
                        Some(Mutex::new(m)),
                        replay.datasets,
                        replay.records,
                        replay.epochs,
                        replay.primaries,
                    )
                }
                None => (
                    None,
                    HashMap::new(),
                    0,
                    vec![0; shard_count],
                    vec![None; shard_count],
                ),
            };
        // Boot topology: the configured order, then replayed promote
        // records applied on top — a restarted coordinator routes to
        // the promoted primaries, not the addresses it was booted with.
        let mut primaries = config.shards;
        let mut replicas = if config.replicas.is_empty() {
            vec![Vec::new(); shard_count]
        } else {
            config.replicas
        };
        let mut stale: Vec<Vec<SocketAddr>> = vec![Vec::new(); shard_count];
        for shard in 0..shard_count {
            if let Some(promoted) = promote_primaries[shard] {
                if promoted != primaries[shard] {
                    let deposed = primaries[shard];
                    replicas[shard].retain(|a| *a != promoted);
                    stale[shard].push(deposed);
                    primaries[shard] = promoted;
                }
            }
        }
        let shared = Arc::new(Shared {
            front,
            shard_count,
            shard_stats: (0..shard_count).map(|_| ShardStats::default()).collect(),
            topology: std::sync::RwLock::new(Topology {
                primaries,
                replicas,
                epochs: promote_epochs,
                stale,
            }),
            datasets: Mutex::new(
                datasets
                    .into_iter()
                    .map(|(name, state)| (name, Arc::new(Mutex::new(state))))
                    .collect(),
            ),
            creating: Mutex::new(HashSet::new()),
            manifest,
            replayed,
            retry: config.retry,
            replica_staleness: config.replica_staleness,
            replica_rr: AtomicUsize::new(0),
            replica_requests: AtomicU64::new(0),
            replica_fallbacks: AtomicU64::new(0),
            failover: config.failover,
            probe_ms: config.probe_ms.max(10),
            suspect_misses: config.suspect_misses.max(1),
            promotions_total: AtomicU64::new(0),
        });
        let mut running = service::start(listener, shared.clone())?;
        if shared.failover {
            let probe_shared = Arc::clone(&shared);
            running.spawn("cluster-prober", move || run_prober(probe_shared))?;
        }
        Ok(running)
    }
}

/// Dispatch one request; returns the response plus the normalised
/// endpoint label for metrics and trace events.
fn route(shared: &Shared, req: &Request) -> (Response, &'static str) {
    if let Some(name) = req
        .path
        .strip_prefix("/datasets/")
        .and_then(|rest| rest.strip_suffix("/points"))
    {
        let endpoint = "/datasets/{name}/points";
        let response = match req.method.as_str() {
            "POST" => handle_insert(shared, name, req),
            "DELETE" => handle_remove(shared, name, req),
            _ => Err(Response::error(405, "points supports POST and DELETE")),
        };
        return (response.unwrap_or_else(|refusal| refusal), endpoint);
    }
    match (req.method.as_str(), req.path.as_str()) {
        ("GET", "/healthz") => (handle_healthz(shared), "/healthz"),
        ("GET", "/metrics") => (handle_metrics(shared, req), "/metrics"),
        ("GET", "/skyline") => (
            handle_skyline(shared, req).unwrap_or_else(|refusal| refusal),
            "/skyline",
        ),
        ("GET", "/datasets") => (handle_list(shared), "/datasets"),
        ("POST", "/datasets") => (
            handle_create(shared, req).unwrap_or_else(|refusal| refusal),
            "/datasets",
        ),
        ("POST", "/shutdown") => (shared.front.handle_shutdown(), "/shutdown"),
        (_, "/healthz" | "/metrics" | "/skyline" | "/datasets" | "/shutdown") => (
            Response::error(405, "method not allowed on this endpoint"),
            "(bad-method)",
        ),
        _ => (
            Response::error(404, &format!("no such endpoint {}", req.path)),
            "(unknown)",
        ),
    }
}

/// Percent-encode one URL component (dataset names, algorithm names).
fn encode_component(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for b in s.bytes() {
        match b {
            b'A'..=b'Z' | b'a'..=b'z' | b'0'..=b'9' | b'-' | b'_' | b'.' | b'~' => {
                out.push(b as char)
            }
            _ => {
                out.push('%');
                out.push_str(&format!("{b:02X}"));
            }
        }
    }
    out
}

/// One shard call through the retrying client, with per-shard counters
/// and a `shard_rpc` trace event. `budget` caps attempts + backoff
/// (derived from the request deadline); `endpoint` is the normalised
/// label for telemetry, `path` the actual request target. With a trace
/// context the call carries `X-Skyline-Trace` (the inherited trace id)
/// and `X-Skyline-Span` (a fresh per-leg span id), so the shard's own
/// events join the same trace. The returned [`RequestTiming`] splits
/// the successful attempt into connect/send/wait.
#[allow(clippy::too_many_arguments)]
fn shard_rpc(
    shared: &Shared,
    shard: usize,
    method: &str,
    endpoint: &str,
    path: &str,
    body: &[u8],
    budget: Option<Duration>,
    ctx: Option<&TraceContext>,
) -> io::Result<(ClientResponse, RequestTiming)> {
    shard_rpc_at(
        shared,
        shard,
        shared.primary_of(shard),
        method,
        endpoint,
        path,
        body,
        budget,
        ctx,
    )
}

/// [`shard_rpc`] against an explicit address — the same counters and
/// trace events (attributed to the shard index), but aimed at a read
/// replica instead of the primary.
#[allow(clippy::too_many_arguments)]
fn shard_rpc_at(
    shared: &Shared,
    shard: usize,
    addr: SocketAddr,
    method: &str,
    endpoint: &str,
    path: &str,
    body: &[u8],
    budget: Option<Duration>,
    ctx: Option<&TraceContext>,
) -> io::Result<(ClientResponse, RequestTiming)> {
    let start = Instant::now();
    let policy = RetryPolicy {
        budget,
        ..shared.retry
    };
    let mut headers: Vec<(String, String)> = match ctx {
        Some(ctx) => vec![
            (trace::TRACE_HEADER.to_string(), ctx.trace_id.clone()),
            (trace::SPAN_HEADER.to_string(), trace::mint_id()),
        ],
        None => Vec::new(),
    };
    // Writes carry the shard's fencing epoch plus the current primary,
    // so a deposed primary that resurfaces refuses them (409) and
    // demotes itself toward the successor. Epoch 0 means no failover
    // has ever happened — don't stamp, nodes then skip the fence check.
    if method != "GET" {
        let epoch = shared.epoch_of(shard);
        if epoch > 0 {
            headers.push((skyline_serve::EPOCH_HEADER.to_string(), epoch.to_string()));
            headers.push((
                skyline_serve::PRIMARY_HEADER.to_string(),
                shared.primary_of(shard).to_string(),
            ));
        }
    }
    let (result, attempts) = request_with_retry_timed(addr, method, path, body, &headers, &policy);
    let elapsed_us = start.elapsed().as_micros() as u64;
    let status = match &result {
        Ok((resp, _)) => resp.status as u64,
        Err(_) => 0, // transport failure: the shard never answered
    };
    let stats = &shared.shard_stats[shard];
    stats.requests.fetch_add(1, Ordering::Relaxed);
    stats.attempts.fetch_add(attempts as u64, Ordering::Relaxed);
    stats.total_us.fetch_add(elapsed_us, Ordering::Relaxed);
    if status == 0 || status >= 400 {
        stats.errors.fetch_add(1, Ordering::Relaxed);
    }
    shared.front.emit(Event::ShardRpc {
        shard: shard as u64,
        endpoint: endpoint.to_string(),
        status,
        attempts: attempts as u64,
        elapsed_us,
        trace: ctx.map(|c| c.trace_id.clone()).unwrap_or_default(),
    });
    result
}

/// Whether a replica's answer is usable under the staleness bound: it
/// must self-report its lag (the header is what distinguishes a
/// follower from a mis-addressed primary) and the lag must be within
/// `bound` versions.
fn replica_is_fresh(resp: &ClientResponse, bound: u64) -> bool {
    resp.header(skyline_serve::replica::LAG_HEADER)
        .and_then(|raw| raw.parse::<u64>().ok())
        .is_some_and(|lag| lag <= bound)
}

/// Route one `/skyline` read leg: prefer the shard's replicas
/// (round-robin) and accept a replica answer only when it is fresh
/// enough; anything else — unreachable replica, error status, missing
/// lag header, staleness beyond the bound — falls back to the primary.
/// Writes never come through here.
fn shard_read_rpc(
    shared: &Shared,
    shard: usize,
    path: &str,
    budget: Option<Duration>,
    ctx: Option<&TraceContext>,
) -> io::Result<(ClientResponse, RequestTiming)> {
    let followers = shared.replicas_of(shard);
    if !followers.is_empty() {
        let pick = shared.replica_rr.fetch_add(1, Ordering::Relaxed) % followers.len();
        shared.replica_requests.fetch_add(1, Ordering::Relaxed);
        match shard_rpc_at(
            shared,
            shard,
            followers[pick],
            "GET",
            "/skyline",
            path,
            &[],
            budget,
            ctx,
        ) {
            Ok((resp, timing))
                if resp.status == 200 && replica_is_fresh(&resp, shared.replica_staleness) =>
            {
                return Ok((resp, timing));
            }
            _ => {
                shared.replica_fallbacks.fetch_add(1, Ordering::Relaxed);
            }
        }
    }
    shard_rpc(shared, shard, "GET", "/skyline", path, &[], budget, ctx)
}

/// Run `f(shard)` for every shard concurrently and gather the results
/// in shard order.
fn scatter<T: Send>(shard_count: usize, f: impl Fn(usize) -> T + Sync) -> Vec<T> {
    std::thread::scope(|scope| {
        let f = &f;
        let tasks: Vec<_> = (0..shard_count)
            .map(|s| scope.spawn(move || f(s)))
            .collect();
        tasks
            .into_iter()
            .map(|t| t.join().expect("scatter leg panicked"))
            .collect()
    })
}

/// One `/healthz` probe. Returns the parsed body on a 200, `None` on
/// transport failure or any other status — for the detector those are
/// the same thing: a miss.
fn probe_healthz(addr: SocketAddr, timeout: Duration) -> Option<Value> {
    let resp = request_with_timeout(addr, "GET", "/healthz", b"", timeout).ok()?;
    if resp.status != 200 {
        return None;
    }
    let text = std::str::from_utf8(&resp.body).ok()?;
    Value::parse(text).ok()
}

/// The failure detector: probe every shard primary's `/healthz` on a
/// jittered cadence; `suspect_misses` consecutive misses confirm the
/// primary dead and trigger [`try_failover`]. Deposed primaries (and
/// replicas that missed their demotion notice) sit in the topology's
/// `stale` lists and are probed too — once they answer again they are
/// demoted under the current epoch and rejoin the replica pool.
fn run_prober(shared: Arc<Shared>) {
    let mut misses: Vec<u32> = vec![0; shared.shard_count];
    // Tiny deterministic LCG for probe jitter — keeps probes from N
    // coordinators (or N shards) from landing in lockstep. Quality is
    // irrelevant; it only de-synchronises timers.
    let mut jitter_state: u64 = 0x243f_6a88_85a3_08d3 ^ (shared.front.addr.port() as u64);
    while !shared.front.is_shutting_down() {
        jitter_state = jitter_state
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        let jitter = jitter_state % (shared.probe_ms / 4 + 1);
        shared
            .front
            .sleep_checking_shutdown(Duration::from_millis(shared.probe_ms + jitter));
        if shared.front.is_shutting_down() {
            return;
        }
        let timeout = Duration::from_millis(shared.probe_ms.max(50));
        for (shard, miss) in misses.iter_mut().enumerate() {
            let primary = shared.primary_of(shard);
            if probe_healthz(primary, timeout).is_some() {
                *miss = 0;
                continue;
            }
            *miss = miss.saturating_add(1);
            shared.front.emit(Event::FailoverSuspect {
                shard: shard as u64,
                addr: primary.to_string(),
                misses: *miss as u64,
            });
            if *miss >= shared.suspect_misses && try_failover(&shared, shard, timeout) {
                *miss = 0;
            }
        }
        reintegrate_stale(&shared, timeout);
    }
}

/// Promote `shard`'s most-caught-up replica under a fresh fencing
/// epoch. Returns `true` when the topology was updated (so the caller
/// resets its miss counter and starts probing the new primary).
fn try_failover(shared: &Shared, shard: usize, timeout: Duration) -> bool {
    let (candidates, epoch, old_primary) = {
        let topo = shared.topology.read().unwrap_or_else(|e| e.into_inner());
        (
            topo.replicas[shard].clone(),
            topo.epochs[shard],
            topo.primaries[shard],
        )
    };
    // Elect the most-caught-up live replica: losing a dead primary is
    // unavoidable, losing replicated writes by picking a laggard is not.
    let mut winner: Option<(u64, SocketAddr)> = None;
    for addr in &candidates {
        let Some(health) = probe_healthz(*addr, timeout) else {
            continue;
        };
        let applied = health
            .get("applied_version")
            .and_then(Value::as_f64)
            .unwrap_or(0.0) as u64;
        if winner.map_or(true, |(best, _)| applied > best) {
            winner = Some((applied, *addr));
        }
    }
    let Some((_, new_primary)) = winner else {
        // No live replica — nothing to promote, keep probing.
        return false;
    };
    let new_epoch = epoch + 1;
    let body = format!("{{\"epoch\":{new_epoch}}}");
    match request_with_timeout(new_primary, "POST", "/promote", body.as_bytes(), timeout) {
        Ok(resp) if resp.status == 200 => {}
        _ => return false,
    }
    // Promotion is durable on the node; make the routing change durable
    // here before serving on it, so a coordinator restart replays it.
    if let Some(m) = &shared.manifest {
        let mut m = m.lock().unwrap_or_else(|e| e.into_inner());
        let _ = m.append_promote(shard, new_epoch, &new_primary);
    }
    let siblings: Vec<SocketAddr> = {
        let mut topo = shared.topology.write().unwrap_or_else(|e| e.into_inner());
        topo.primaries[shard] = new_primary;
        topo.replicas[shard].retain(|a| *a != new_primary);
        topo.epochs[shard] = new_epoch;
        topo.stale[shard].push(old_primary);
        topo.replicas[shard].clone()
    };
    shared.promotions_total.fetch_add(1, Ordering::Relaxed);
    shared.front.emit(Event::Failover {
        shard: shard as u64,
        epoch: new_epoch,
        old_primary: old_primary.to_string(),
        new_primary: new_primary.to_string(),
    });
    // Point the surviving replicas at the new primary. One that cannot
    // be reached right now goes stale and is retargeted when it
    // resurfaces (it would also self-demote on the first fenced feed
    // poll that reaches the new primary).
    for sibling in siblings {
        if !demote_node(sibling, new_epoch, new_primary, timeout) {
            let mut topo = shared.topology.write().unwrap_or_else(|e| e.into_inner());
            topo.replicas[shard].retain(|a| *a != sibling);
            topo.stale[shard].push(sibling);
        }
    }
    true
}

/// `POST /demote` to `addr`, pointing it at `primary` under `epoch`.
fn demote_node(addr: SocketAddr, epoch: u64, primary: SocketAddr, timeout: Duration) -> bool {
    let body = format!("{{\"epoch\":{epoch},\"primary\":\"{primary}\"}}");
    matches!(
        request_with_timeout(addr, "POST", "/demote", body.as_bytes(), timeout),
        Ok(resp) if resp.status == 200
    )
}

/// Probe every stale node (deposed primaries, unreachable siblings);
/// any that answers is demoted into following the current primary and
/// moved back into the replica pool.
fn reintegrate_stale(shared: &Shared, timeout: Duration) {
    for shard in 0..shared.shard_count {
        let (stale, epoch, primary) = {
            let topo = shared.topology.read().unwrap_or_else(|e| e.into_inner());
            (
                topo.stale[shard].clone(),
                topo.epochs[shard],
                topo.primaries[shard],
            )
        };
        for addr in stale {
            if probe_healthz(addr, timeout).is_none() {
                continue;
            }
            if demote_node(addr, epoch, primary, timeout) {
                let mut topo = shared.topology.write().unwrap_or_else(|e| e.into_inner());
                topo.stale[shard].retain(|a| *a != addr);
                if !topo.replicas[shard].contains(&addr) {
                    topo.replicas[shard].push(addr);
                }
            }
        }
    }
}

fn handle_healthz(shared: &Shared) -> Response {
    let datasets = shared.datasets.lock().unwrap_or_else(|e| e.into_inner());
    let mut w = ObjectWriter::new();
    w.str_field("status", "ok")
        .u64_field("shards", shared.shard_count as u64)
        .u64_field("datasets", datasets.len() as u64)
        .u64_field(
            "uptime_us",
            shared.front.started.elapsed().as_micros() as u64,
        );
    Response::json(200, w.finish())
}

fn dataset_info_json(name: &str, state: &DatasetState, shard_count: usize) -> String {
    let mut w = ObjectWriter::new();
    w.str_field("name", name)
        .u64_field("dims", state.dims as u64)
        .u64_field("points", state.live as u64)
        .u64_field("version", state.version)
        .u64_field("shards", shard_count as u64);
    w.finish()
}

/// [`dataset_info_json`] of every dataset, sorted by name. The registry
/// lock is held only to copy the entries out; a dataset with a write in
/// flight is described once that write ends.
fn dataset_objs(shared: &Shared) -> Vec<String> {
    let mut entries: Vec<(String, Arc<Mutex<DatasetState>>)> = shared
        .datasets
        .lock()
        .unwrap_or_else(|e| e.into_inner())
        .iter()
        .map(|(name, state)| (name.clone(), Arc::clone(state)))
        .collect();
    entries.sort_by(|a, b| a.0.cmp(&b.0));
    entries
        .iter()
        .map(|(name, state)| {
            let state = state.lock().unwrap_or_else(|e| e.into_inner());
            dataset_info_json(name, &state, shared.shard_count)
        })
        .collect()
}

/// The named dataset's state, looked up under the registry lock, which
/// is released before the caller locks the state.
fn dataset(shared: &Shared, name: &str) -> Result<Arc<Mutex<DatasetState>>, Response> {
    shared
        .datasets
        .lock()
        .unwrap_or_else(|e| e.into_inner())
        .get(name)
        .cloned()
        .ok_or_else(|| no_dataset(name))
}

fn handle_list(shared: &Shared) -> Response {
    let mut w = ObjectWriter::new();
    w.raw_field("datasets", &format!("[{}]", dataset_objs(shared).join(",")));
    Response::json(200, w.finish())
}

fn handle_metrics(shared: &Shared, req: &Request) -> Response {
    shared
        .front
        .metrics_response(req, || metrics_json(shared), || prometheus_extras(shared))
}

/// The series `/metrics?format=prometheus` adds to the front end's own.
fn prometheus_extras(shared: &Shared) -> Vec<Extra> {
    let mut extras = Vec::new();
    for counter in ["requests", "errors", "attempts", "total_us"] {
        for (s, stats) in shared.shard_stats.iter().enumerate() {
            let value = match counter {
                "requests" => stats.requests.load(Ordering::Relaxed),
                "errors" => stats.errors.load(Ordering::Relaxed),
                "attempts" => stats.attempts.load(Ordering::Relaxed),
                _ => stats.total_us.load(Ordering::Relaxed),
            };
            extras.push(Extra::counter(
                format!("skyline_shard_rpc_{counter}{{shard=\"{s}\"}}"),
                value,
            ));
        }
    }
    extras.push(Extra::counter(
        "skyline_replica_read_requests_total",
        shared.replica_requests.load(Ordering::Relaxed),
    ));
    extras.push(Extra::counter(
        "skyline_replica_read_fallbacks_total",
        shared.replica_fallbacks.load(Ordering::Relaxed),
    ));
    extras.push(Extra::counter(
        "skyline_promotions_total",
        shared.promotions_total.load(Ordering::Relaxed),
    ));
    {
        let topo = shared.topology.read().unwrap_or_else(|e| e.into_inner());
        for (s, epoch) in topo.epochs.iter().enumerate() {
            extras.push(Extra::gauge(
                format!("skyline_shard_epoch{{shard=\"{s}\"}}"),
                *epoch as f64,
            ));
        }
    }
    let datasets = shared.datasets.lock().unwrap_or_else(|e| e.into_inner());
    extras.push(Extra::gauge("skyline_datasets", datasets.len() as f64));
    extras
}

/// The `/metrics` JSON document.
fn metrics_json(shared: &Shared) -> String {
    let topo = shared
        .topology
        .read()
        .unwrap_or_else(|e| e.into_inner())
        .clone();
    let shard_objs: Vec<String> = topo
        .primaries
        .iter()
        .zip(&shared.shard_stats)
        .enumerate()
        .map(|(s, (addr, stats))| {
            let mut w = ObjectWriter::new();
            w.str_field("addr", &addr.to_string())
                .u64_field("epoch", topo.epochs[s])
                .u64_field("replicas", topo.replicas[s].len() as u64)
                .u64_field("stale", topo.stale[s].len() as u64)
                .u64_field("requests", stats.requests.load(Ordering::Relaxed))
                .u64_field("errors", stats.errors.load(Ordering::Relaxed))
                .u64_field("attempts", stats.attempts.load(Ordering::Relaxed))
                .u64_field("total_us", stats.total_us.load(Ordering::Relaxed));
            w.finish()
        })
        .collect();
    let dataset_objs = dataset_objs(shared);
    let manifest_bytes = shared
        .manifest
        .as_ref()
        .map(|m| m.lock().unwrap_or_else(|e| e.into_inner()).bytes())
        .unwrap_or(0);
    let mut w = ObjectWriter::new();
    w.u64_field(
        "uptime_us",
        shared.front.started.elapsed().as_micros() as u64,
    )
    .u64_field("threads", shared.front.threads as u64)
    .u64_field("requests", shared.front.metrics.total_requests())
    .u64_field(
        "deadline_exceeded_total",
        shared.front.metrics.deadline_exceeded_total(),
    )
    .u64_field("panics_total", shared.front.metrics.panics_total())
    .u64_field("manifest_bytes", manifest_bytes)
    .u64_field("recovery_replayed_records", shared.replayed)
    .u64_field(
        "replica_read_requests",
        shared.replica_requests.load(Ordering::Relaxed),
    )
    .u64_field(
        "replica_read_fallbacks",
        shared.replica_fallbacks.load(Ordering::Relaxed),
    )
    .u64_field(
        "promotions_total",
        shared.promotions_total.load(Ordering::Relaxed),
    )
    .raw_field("endpoints", &shared.front.metrics.render_json())
    .raw_field("stages", &shared.front.metrics.render_stages_json())
    .raw_field("shards", &format!("[{}]", shard_objs.join(",")))
    .raw_field("datasets", &format!("[{}]", dataset_objs.join(",")));
    w.finish()
}

/// Partition `rows` (paired with their global ids, arrival order) by
/// the shard hash.
fn partition_rows(
    rows: &[Vec<f64>],
    first_global: u64,
    shard_count: usize,
) -> Vec<(Vec<u64>, Vec<&[f64]>)> {
    let mut groups: Vec<(Vec<u64>, Vec<&[f64]>)> = vec![(Vec::new(), Vec::new()); shard_count];
    for (i, row) in rows.iter().enumerate() {
        let global = first_global + i as u64;
        let shard = shard_of(global, shard_count);
        groups[shard].0.push(global);
        groups[shard].1.push(row.as_slice());
    }
    groups
}

/// Parse a shard's insert response into local handles.
fn parse_insert_handles(resp: &ClientResponse) -> Result<Vec<u32>, String> {
    let v = Value::parse(&resp.body_str()).map_err(|e| format!("bad insert response: {e}"))?;
    v.get("ids")
        .and_then(Value::as_arr)
        .ok_or("insert response lacks \"ids\"")?
        .iter()
        .map(|x| {
            x.as_u64()
                .map(|h| h as u32)
                .ok_or_else(|| "insert response id is not numeric".to_string())
        })
        .collect()
}

/// `{"rows": [...]}` bodies of at most `max_body` bytes that carry
/// `rows` in order, each with its row count. A row too long for any
/// body goes alone, for the shard to refuse.
fn row_bodies(rows: &[&[f64]], max_body: usize) -> Vec<(usize, String)> {
    let mut bodies: Vec<(usize, String)> = Vec::new();
    for row in rows {
        let row = json::row_json(row);
        match bodies.last_mut() {
            // A comma before the row, and `]}` to close the body.
            Some((count, body)) if body.len() + row.len() + 3 <= max_body => {
                body.push(',');
                body.push_str(&row);
                *count += 1;
            }
            _ => bodies.push((1, format!("{{\"rows\":[{row}"))),
        }
    }
    for (_, body) in &mut bodies {
        body.push_str("]}");
    }
    bodies
}

/// Fan out one logical insert: POST each shard its slice of rows, in
/// bodies within `max_body`, recording each body's rows into `state`
/// (and the manifest) as the shard acknowledges them. Returns an error
/// response naming the failed shards, if any — successes are *kept*:
/// the registry must reflect what the shards now hold.
fn fan_out_insert(
    shared: &Shared,
    name: &str,
    state: &mut DatasetState,
    groups: &[(Vec<u64>, Vec<&[f64]>)],
    version: u64,
) -> Result<(), Response> {
    let path = format!("/datasets/{}/points", encode_component(name));
    let state = Mutex::new(state);
    let failures: Vec<String> = scatter(groups.len(), |s| {
        let (globals, rows) = &groups[s];
        let mut landed = 0;
        for (count, body) in row_bodies(rows, shared.front.max_body) {
            let chunk = &globals[landed..landed + count];
            let outcome = shard_rpc(
                shared,
                s,
                "POST",
                "/datasets/{name}/points",
                &path,
                body.as_bytes(),
                None,
                None,
            );
            let handles = match outcome {
                Ok((resp, _)) if resp.status == 200 => match parse_insert_handles(&resp) {
                    Ok(h) if h.len() == count => h,
                    Ok(_) => return Some(format!("shard {s} acknowledged the wrong row count")),
                    Err(e) => return Some(format!("shard {s}: {e}")),
                },
                Ok((resp, _)) => return Some(format!("shard {s} answered {}", resp.status)),
                Err(e) => return Some(format!("shard {s} unreachable: {e}")),
            };
            landed += count;
            let mut state = state.lock().unwrap_or_else(|e| e.into_inner());
            state.record_insert(s, chunk, &handles);
            if let Some(m) = &shared.manifest {
                let mut m = m.lock().unwrap_or_else(|e| e.into_inner());
                if let Err(e) = m.append_insert(name, version, s, chunk, &handles) {
                    return Some(format!("manifest write failed: {e}"));
                }
            }
        }
        None
    })
    .into_iter()
    .flatten()
    .collect();
    if failures.is_empty() {
        Ok(())
    } else {
        Err(Response::error(
            502,
            &format!(
                "insert into {name:?} partially failed ({}); acknowledged rows were kept",
                failures.join("; ")
            ),
        ))
    }
}

/// `POST /datasets` — same body as a shard (`{"name", "rows"}` or
/// `{"name", "synthetic"}`); the coordinator assigns global ids,
/// partitions the rows by [`shard_of`], and fans the creation out.
fn handle_create(shared: &Shared, req: &Request) -> Result<Response, Response> {
    let new = NewDataset::parse(req, shared.front.max_body)?;
    new.check_shape()?;
    let NewDataset { name, dims, rows } = new;
    let name = name.as_str();

    // Reserve the name, then fan out without the registry lock: reads
    // and writes of other datasets go on meanwhile. Manifest replay is
    // keyed by name, so their records may interleave with this one's.
    let _reserved = Reservation::take(shared, name)?;
    let shard_count = shared.shard_count;

    // Every shard gets an (initially empty) dataset so later inserts
    // and queries always find it; rows follow as an insert, whose
    // response carries the shard-local handles the registry needs.
    let create_body = format!("{{\"name\":{},\"dims\":{dims},\"rows\":[]}}", quoted(name));
    let created = scatter(shard_count, |s| {
        shard_rpc(
            shared,
            s,
            "POST",
            "/datasets",
            "/datasets",
            create_body.as_bytes(),
            None,
            None,
        )
        .map(|(resp, _)| resp)
    });
    for (s, outcome) in created.iter().enumerate() {
        match outcome {
            Ok(resp) if resp.status == 201 => {}
            Ok(resp) => {
                return Err(Response::error(
                    502,
                    &format!(
                        "shard {s} refused creation with {}: {}",
                        resp.status,
                        resp.body_str()
                    ),
                ))
            }
            Err(e) => {
                return Err(Response::error(
                    502,
                    &format!("shard {s} unreachable during creation: {e}"),
                ))
            }
        }
    }

    let mut state = DatasetState::new(dims, shard_count);
    if let Some(m) = &shared.manifest {
        let mut m = m.lock().unwrap_or_else(|e| e.into_inner());
        if let Err(e) = m.append_create(name, dims, shard_count) {
            return Err(Response::error(500, &format!("manifest write failed: {e}")));
        }
    }
    let groups = partition_rows(&rows, 0, shard_count);
    let create_version = state.version;
    let outcome = fan_out_insert(shared, name, &mut state, &groups, create_version);
    let points = state.live;
    let version = state.version;
    let mut datasets = shared.datasets.lock().unwrap_or_else(|e| e.into_inner());
    datasets.insert(name.to_string(), Arc::new(Mutex::new(state)));
    drop(datasets);
    outcome?;
    let mut w = ObjectWriter::new();
    w.str_field("name", name)
        .u64_field("dims", dims as u64)
        .u64_field("points", points as u64)
        .u64_field("version", version)
        .u64_field("shards", shard_count as u64);
    Ok(Response::json(201, w.finish()))
}

/// A dataset name reserved for one create's fan-out, released when the
/// create returns. By then the dataset is registered, unless the shards
/// refused to create it.
struct Reservation<'a> {
    shared: &'a Shared,
    name: &'a str,
}

impl<'a> Reservation<'a> {
    /// Reserve `name`, or answer 409 if it exists or is being created.
    fn take(shared: &'a Shared, name: &'a str) -> Result<Reservation<'a>, Response> {
        let datasets = shared.datasets.lock().unwrap_or_else(|e| e.into_inner());
        let mut creating = shared.creating.lock().unwrap_or_else(|e| e.into_inner());
        if datasets.contains_key(name) || !creating.insert(name.to_string()) {
            return Err(Response::error(
                409,
                &format!("dataset {name:?} already exists"),
            ));
        }
        Ok(Reservation { shared, name })
    }
}

impl Drop for Reservation<'_> {
    fn drop(&mut self) {
        let mut creating = self
            .shared
            .creating
            .lock()
            .unwrap_or_else(|e| e.into_inner());
        creating.remove(self.name);
    }
}

/// JSON string literal for `s` (names come back out of `ObjectWriter`
/// fields elsewhere; bodies built by hand need the same escaping).
fn quoted(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    skyline_obs::json::escape_into(s, &mut out);
    out.push('"');
    out
}

/// `POST /datasets/{name}/points` — body `{"rows": [[...], ...]}`;
/// rows get fresh global ids and are routed to their owning shards.
/// Holds the dataset's own lock across the fan-out.
fn handle_insert(shared: &Shared, name: &str, req: &Request) -> Result<Response, Response> {
    let rows = api::insert_rows(req)?;
    let state = dataset(shared, name)?;
    let mut state = state.lock().unwrap_or_else(|e| e.into_inner());
    if rows.iter().any(|r| r.len() != state.dims) {
        return Err(Response::error(
            400,
            &format!("rows must have {} values each", state.dims),
        ));
    }
    let first_global = state.next_global;
    // Ids are burned even if a shard later fails: holes are fine,
    // reuse is not.
    state.next_global += rows.len() as u64;
    let version = state.version + 1;
    let groups = partition_rows(&rows, first_global, shared.shard_count);
    let outcome = fan_out_insert(shared, name, &mut state, &groups, version);
    state.version = version;
    outcome?;
    let globals: Vec<u64> = (first_global..first_global + rows.len() as u64).collect();
    let mut w = ObjectWriter::new();
    w.u64_field("inserted", rows.len() as u64)
        .u64_array_field("ids", &globals)
        .u64_field("version", version);
    Ok(Response::json(200, w.finish()))
}

/// The 404 for a dataset the coordinator's registry does not hold.
fn no_dataset(name: &str) -> Response {
    Response::error(404, &format!("no dataset {name:?}"))
}

/// `DELETE /datasets/{name}/points` — body `{"ids": [...]}` with
/// *global* ids; the registry maps them to shard-local handles. Holds
/// the dataset's own lock across the fan-out.
fn handle_remove(shared: &Shared, name: &str, req: &Request) -> Result<Response, Response> {
    let globals = api::remove_ids(req, u64::MAX)?;
    let state = dataset(shared, name)?;
    let mut state = state.lock().unwrap_or_else(|e| e.into_inner());
    // Resolve before mutating: only ids the owning shard acknowledges
    // deleting leave the registry.
    let shard_count = shared.shard_count;
    let mut per_shard: Vec<(Vec<u64>, Vec<u32>)> = vec![(Vec::new(), Vec::new()); shard_count];
    for g in &globals {
        if let Some(&(shard, handle)) = state.locations.get(g) {
            per_shard[shard as usize].0.push(*g);
            per_shard[shard as usize].1.push(handle);
        }
    }
    let path = format!("/datasets/{}/points", encode_component(name));
    let results = scatter(shard_count, |s| {
        let (_, handles) = &per_shard[s];
        if handles.is_empty() {
            return None;
        }
        let ids: Vec<u64> = handles.iter().map(|&h| h as u64).collect();
        let mut w = ObjectWriter::new();
        w.u64_array_field("ids", &ids);
        Some(
            shard_rpc(
                shared,
                s,
                "DELETE",
                "/datasets/{name}/points",
                &path,
                w.finish().as_bytes(),
                None,
                None,
            )
            .map(|(resp, _)| resp),
        )
    });
    let mut removed_globals: Vec<u64> = Vec::new();
    let mut failures: Vec<String> = Vec::new();
    for (s, outcome) in results.into_iter().enumerate() {
        match outcome {
            None => {}
            Some(Ok(resp)) if resp.status == 200 => {
                removed_globals.extend_from_slice(&per_shard[s].0);
            }
            Some(Ok(resp)) => failures.push(format!("shard {s} answered {}", resp.status)),
            Some(Err(e)) => failures.push(format!("shard {s} unreachable: {e}")),
        }
    }
    let removed = removed_globals.len();
    if removed > 0 {
        state.record_remove(&removed_globals);
        state.version += 1;
        if let Some(m) = &shared.manifest {
            let mut m = m.lock().unwrap_or_else(|e| e.into_inner());
            if let Err(e) = m.append_remove(name, state.version, &removed_globals) {
                failures.push(format!("manifest write failed: {e}"));
            }
        }
    }
    if !failures.is_empty() {
        return Err(Response::error(
            502,
            &format!(
                "remove from {name:?} partially failed ({}); {removed} ids were removed",
                failures.join("; ")
            ),
        ));
    }
    let mut w = ObjectWriter::new();
    w.u64_field("removed", removed as u64)
        .u64_field("version", state.version);
    Ok(Response::json(200, w.finish()))
}

/// One shard's parsed `/skyline` answer (with masks, elites, rows).
struct ShardSkyline {
    /// Shard-local handles of the local skyline points.
    handles: Vec<u32>,
    /// Premasks parallel to `handles`.
    masks: Vec<u64>,
    /// Elite positions into `handles`.
    elites: Vec<usize>,
    /// Coordinates parallel to `handles`, already in query space.
    rows: Vec<Vec<f64>>,
    /// Resolved algorithm name, echoed back to the client.
    algorithm: String,
}

fn parse_shard_skyline(body: &str, dims: usize) -> Result<ShardSkyline, String> {
    let v = Value::parse(body).map_err(|e| format!("bad shard response: {e}"))?;
    let ids_u64: Vec<u64> = v
        .get("ids")
        .and_then(Value::as_arr)
        .ok_or("shard response lacks \"ids\"")?
        .iter()
        .map(|x| x.as_u64().ok_or("non-numeric id"))
        .collect::<Result<_, _>>()?;
    let handles: Vec<u32> = ids_u64.iter().map(|&h| h as u32).collect();
    let masks: Vec<u64> = v
        .get("masks")
        .and_then(Value::as_arr)
        .ok_or("shard response lacks \"masks\" (shard too old for include_masks?)")?
        .iter()
        .map(|x| x.as_u64().ok_or("non-numeric mask"))
        .collect::<Result<_, _>>()?;
    let elites: Vec<usize> = v
        .get("elites")
        .and_then(Value::as_arr)
        .ok_or("shard response lacks \"elites\"")?
        .iter()
        .map(|x| x.as_u64().map(|e| e as usize).ok_or("non-numeric elite"))
        .collect::<Result<_, _>>()?;
    let rows_value = v
        .get("rows")
        .and_then(Value::as_arr)
        .ok_or("shard response lacks \"rows\"")?;
    let mut rows = Vec::with_capacity(rows_value.len());
    for row in rows_value {
        let row = row.as_arr().ok_or("shard row is not an array")?;
        let coords: Vec<f64> = row
            .iter()
            .map(|x| x.as_f64().ok_or("non-numeric coordinate"))
            .collect::<Result<_, _>>()?;
        if coords.len() != dims {
            return Err(format!(
                "shard row has {} coordinates, expected {dims}",
                coords.len()
            ));
        }
        rows.push(coords);
    }
    if masks.len() != handles.len() || rows.len() != handles.len() {
        return Err("shard arrays disagree on length".to_string());
    }
    if elites.iter().any(|&e| e >= handles.len()) {
        return Err("shard elite position out of range".to_string());
    }
    let algorithm = v
        .get("algorithm")
        .and_then(Value::as_str)
        .unwrap_or("SDI-Subset")
        .to_string();
    Ok(ShardSkyline {
        handles,
        masks,
        elites,
        rows,
        algorithm,
    })
}

/// `GET /skyline?dataset=&algo=&dims=&threads=&deadline_ms=` —
/// scatter-gather over the shards plus the elite-referenced cross-shard
/// merge. Responds `"partial": true` with a `missing_shards` list when
/// shards stayed unreachable after retries.
fn handle_skyline(shared: &Shared, req: &Request) -> Result<Response, Response> {
    let overall = Instant::now();
    let mut timer = StageTimer::start();
    // The coordinator roots the trace: inherit the caller's trace id
    // when one arrived, mint one otherwise, and give this request its
    // own span either way. Scatter legs get per-leg child spans.
    let ctx = match req
        .header(trace::TRACE_HEADER)
        .filter(|t| trace::is_valid_id(t))
    {
        Some(t) => TraceContext::child_of(t).expect("validated id"),
        None => TraceContext::mint(),
    };
    let name = api::dataset_param(req)?;
    let query = SkylineQuery::parse(req)?;
    if query.k != 1 {
        return Err(Response::error(
            400,
            "the cluster coordinator serves k=1 only: k-skyband membership cannot be \
             decided from per-shard skylines",
        ));
    }
    if query.include_masks || query.include_rows {
        return Err(Response::error(
            400,
            "include_masks and include_rows are shard-level options, not available on \
             the coordinator",
        ));
    }
    let budget = query.deadline_ms.map(Duration::from_millis);
    timer.mark("accept");

    // Snapshot the dataset: dims, version and the per-shard
    // handle→global maps (Arc clones — the query must not block behind
    // later mutations, nor see half of one).
    let (total_dims, version, handle_maps) = {
        let state = dataset(shared, name)?;
        let state = state.lock().unwrap_or_else(|e| e.into_inner());
        (state.dims, state.version, state.handle_to_global.clone())
    };

    let mask = query.mask(total_dims)?;
    let query_dims = if mask == Subspace::full(total_dims) {
        total_dims
    } else {
        mask.size()
    };

    let algo_label = query.algo.unwrap_or("SDI-Subset");
    let deadline_response = || {
        shared
            .front
            .deadline_exceeded(name, algo_label, query.deadline_ms.unwrap_or(0))
    };

    // Scatter. Every shard gets the remaining budget as its own
    // deadline *and* as the retry budget: a slow shard cannot spend
    // time the merge no longer has.
    let mut path = format!(
        "/skyline?dataset={}&include_masks=1&include_rows=1",
        encode_component(name)
    );
    if let Some(a) = query.algo {
        path.push_str(&format!("&algo={}", encode_component(a)));
    }
    if query.threads > 0 {
        path.push_str(&format!("&threads={}", query.threads));
    }
    if let Some(raw) = query.dims {
        path.push_str(&format!("&dims={}", encode_component(raw)));
    }
    let remaining = budget.map(|b| b.saturating_sub(overall.elapsed()));
    if let Some(rem) = remaining {
        if rem.is_zero() {
            return Err(deadline_response());
        }
        path.push_str(&format!("&deadline_ms={}", rem.as_millis().max(1)));
    }
    let shard_count = shared.shard_count;
    timer.mark("route");
    let legs = scatter(shard_count, |s| {
        let leg_start = Instant::now();
        let result = shard_read_rpc(shared, s, &path, remaining, Some(&ctx));
        (result, leg_start.elapsed().as_micros() as u64)
    });

    // Split the scatter wall-clock into connect / send / shard_wait
    // (the legs overlap, so each named part is the slowest leg's), note
    // the straggler, and stitch each shard's own stage times in as
    // `shard{i}.*` detail entries.
    let mut max_connect = 0u64;
    let mut max_send = 0u64;
    let mut straggler = String::new();
    let mut straggler_us = 0u64;
    for (s, (outcome, leg_us)) in legs.iter().enumerate() {
        if *leg_us >= straggler_us {
            straggler_us = *leg_us;
            straggler = format!("shard{s}");
        }
        timer.detail(&format!("shard{s}.rpc"), *leg_us);
        if let Ok((resp, timing)) = outcome {
            max_connect = max_connect.max(timing.connect_us);
            max_send = max_send.max(timing.send_us);
            if let Some(h) = resp.header(trace::STAGE_TIMES_HEADER) {
                for (stage, us) in trace::decode_stage_times(h) {
                    timer.detail(&format!("shard{s}.{stage}"), us);
                }
            }
        }
    }
    timer.mark_partitioned(
        &[("connect", max_connect), ("send", max_send)],
        "shard_wait",
    );

    let mut parsed: Vec<Option<ShardSkyline>> = Vec::with_capacity(shard_count);
    let mut missing: Vec<u64> = Vec::new();
    for (s, (outcome, _)) in legs.into_iter().enumerate() {
        match outcome {
            Ok((resp, _)) if resp.status == 200 => {
                match parse_shard_skyline(&resp.body_str(), query_dims) {
                    Ok(sky) => parsed.push(Some(sky)),
                    Err(_) => {
                        missing.push(s as u64);
                        parsed.push(None);
                    }
                }
            }
            Ok((resp, _)) if resp.status == 504 => return Err(deadline_response()),
            _ => {
                missing.push(s as u64);
                parsed.push(None);
            }
        }
    }
    if missing.len() == shard_count {
        return Err(Response::error(502, "no shard answered the skyline query"));
    }
    let partial = !missing.is_empty();

    // Translate shard handles to global ids and assemble the merge
    // inputs. Rows live in one arena so elite references and the
    // key→row lookup borrow from the same place.
    let mut rows_store: Vec<Vec<f64>> = Vec::new();
    let mut row_index: HashMap<u64, usize> = HashMap::new();
    let mut entries: Vec<MergeEntry> = Vec::new();
    let mut elite_slots: Vec<(u32, usize)> = Vec::new();
    for (s, sky) in parsed.iter().enumerate() {
        let Some(sky) = sky else { continue };
        let map = &handle_maps[s];
        let base = rows_store.len();
        for (i, &h) in sky.handles.iter().enumerate() {
            let Some(&global) = map.get(&h) else {
                return Err(Response::error(
                    500,
                    &format!("shard {s} returned handle {h} the registry does not know"),
                ));
            };
            row_index.insert(global, rows_store.len());
            entries.push(MergeEntry {
                key: global,
                shard: s as u32,
                premask: Subspace::from_bits(sky.masks[i]),
            });
            rows_store.push(sky.rows[i].clone());
        }
        for &e in &sky.elites {
            elite_slots.push((s as u32, base + e));
        }
    }
    let elites: Vec<EliteRef<'_>> = elite_slots
        .iter()
        .map(|&(s, i)| EliteRef {
            shard: s,
            row: rows_store[i].as_slice(),
        })
        .collect();
    timer.mark("gather");

    let remaining = budget.map(|b| b.saturating_sub(overall.elapsed()));
    if remaining.is_some_and(|r| r.is_zero()) {
        return Err(deadline_response());
    }
    let cancel = match remaining {
        Some(rem) => CancelToken::with_deadline(rem),
        None => CancelToken::none(),
    };
    let mut metrics = Metrics::new();
    let merge_start = Instant::now();
    let row_of = |key: u64| rows_store[row_index[&key]].as_slice();
    let merged: Result<Vec<u64>, Cancelled> = match &shared.front.recorder {
        Some(rec) => {
            let mut rec = rec.lock().unwrap_or_else(|e| e.into_inner());
            merge_shard_skylines(
                query_dims,
                shard_count,
                &entries,
                &elites,
                row_of,
                &mut metrics,
                &mut *rec,
                &cancel,
            )
        }
        None => merge_shard_skylines(
            query_dims,
            shard_count,
            &entries,
            &elites,
            row_of,
            &mut metrics,
            &mut NoopRecorder,
            &cancel,
        ),
    };
    let ids = merged.map_err(|Cancelled| deadline_response())?;
    shared.front.emit(Event::ClusterMerge {
        shards: shard_count as u64,
        missing: missing.len() as u64,
        candidates: entries.len() as u64,
        skyline_size: ids.len() as u64,
        dominance_tests: metrics.dominance_tests,
        elapsed_us: merge_start.elapsed().as_micros() as u64,
    });
    timer.mark("merge");

    let algorithm = parsed
        .iter()
        .flatten()
        .next()
        .map_or(algo_label, |sky| sky.algorithm.as_str());
    let head = SkylineHead {
        dataset: name,
        algorithm,
        version,
        mask_bits: mask.bits(),
        k: 1,
        cached: false,
        elapsed_us: overall.elapsed().as_micros() as u64,
        ids: &ids,
    };
    let cluster_fields = |w: &mut ObjectWriter| {
        w.u64_field("shards", shard_count as u64)
            .bool_field("partial", partial)
            .u64_array_field("missing_shards", &missing);
    };
    let body = head.answer(cluster_fields, query.timings.then(|| timer.stages()));
    Ok(shared
        .front
        .finish_skyline(timer, &ctx.trace_id, straggler, Response::json(200, body)))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn component_encoding_round_trips_through_the_server_decoder() {
        let raw = "hotels 2024/EU?x=1&y=2";
        let encoded = encode_component(raw);
        assert!(!encoded.contains(' ') && !encoded.contains('&') && !encoded.contains('?'));
        assert_eq!(http::percent_decode(&encoded), raw);
    }

    #[test]
    fn rows_json_is_exact_for_awkward_floats() {
        let rows: Vec<&[f64]> = vec![
            &[0.1, 2.0 / 3.0],
            &[f64::MIN_POSITIVE, 1e300],
            &[f64::INFINITY, f64::NEG_INFINITY],
        ];
        let json = json::rows_json(rows.iter().copied());
        let v = Value::parse(&json).unwrap();
        let arr = v.as_arr().unwrap();
        for (i, row) in rows.iter().enumerate() {
            let parsed: Vec<f64> = arr[i]
                .as_arr()
                .unwrap()
                .iter()
                .map(|x| x.as_f64().unwrap())
                .collect();
            assert_eq!(&parsed, row, "row {i} must survive the wire bit-exactly");
        }
    }

    #[test]
    fn quoted_escapes_for_json_bodies() {
        assert_eq!(quoted("plain"), "\"plain\"");
        assert_eq!(quoted("a\"b"), "\"a\\\"b\"");
    }

    #[test]
    fn shard_skyline_parser_rejects_inconsistent_payloads() {
        let good = r#"{"algorithm":"SDI-Subset","ids":[0,2],"masks":[1,3],"elites":[0],"rows":[[0.5,0.25],[0.125,1]]}"#;
        let sky = parse_shard_skyline(good, 2).unwrap();
        assert_eq!(sky.handles, vec![0, 2]);
        assert_eq!(sky.masks, vec![1, 3]);
        assert_eq!(sky.elites, vec![0]);
        assert_eq!(sky.rows[1], vec![0.125, 1.0]);

        let wrong_dims = parse_shard_skyline(good, 3);
        assert!(wrong_dims.is_err());
        let missing_masks = r#"{"ids":[0],"elites":[],"rows":[[1]]}"#;
        assert!(parse_shard_skyline(missing_masks, 1).is_err());
        let elite_oob = r#"{"ids":[0],"masks":[0],"elites":[1],"rows":[[1]]}"#;
        assert!(parse_shard_skyline(elite_oob, 1).is_err());
    }
}
