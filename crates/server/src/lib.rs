//! # skyline-serve
//!
//! A zero-dependency concurrent skyline query service: a hand-rolled
//! HTTP/1.1 server over `std::net` (no async runtime, no HTTP crate — the
//! workspace builds with zero network access) exposing the algorithm
//! suite over a **dataset registry** with a version-keyed **result
//! cache**.
//!
//! Architecture, bottom-up:
//!
//! - [`http`] — request/response framing with hard limits;
//! - [`pool`] — a fixed-size worker pool over `mpsc`; dropping the sender
//!   is the graceful-shutdown signal;
//! - [`service`] — the HTTP front end this server shares with the
//!   cluster coordinator: accept thread, keep-alive connection loop,
//!   running handle and trace sinks;
//! - [`api`] — the one parser for the request shapes both services
//!   accept, and the head of every `/skyline` answer;
//! - [`registry`] — named datasets, each a [`StreamingSkyline`] plus an
//!   immutable snapshot of its rows, behind an `RwLock`. A write only
//!   empties the snapshot slot; the first read that needs rows at a
//!   version builds it once, and later readers pay an `Arc` clone;
//! - [`cache`] — an LRU over results keyed by (dataset, **content
//!   version**, algorithm, subspace mask, k, threads); the version in the
//!   key makes staleness impossible, explicit invalidation on mutation
//!   keeps memory honest;
//! - [`wal`] — per-dataset write-ahead log plus compacted snapshots;
//!   with a `data_dir` the registry recovers every dataset to its exact
//!   pre-crash content version on boot;
//! - [`metrics`] — per-endpoint latency histograms plus robustness
//!   counters (shed, deadline, panic) for `/metrics`;
//! - [`faults`] — fault-injection probes for the chaos harness (no-ops
//!   unless built with the `chaos` feature);
//! - [`client`] — a minimal blocking client (with optional retry) for
//!   tests and benchmarks.
//!
//! Robustness: `/skyline` honours a cooperative `deadline_ms` (504 on
//! expiry), an admission gate sheds excess load with 503 +
//! `Retry-After` (global `max_inflight` and a connection-queue limit),
//! and handler panics are isolated into 500s while the worker pool
//! respawns panicked workers. Shutdown closes idle connections at once
//! and lets in-flight requests finish.
//!
//! Endpoints: `GET /healthz`, `GET /metrics`, `GET /datasets`,
//! `POST /datasets`, `POST|DELETE /datasets/{name}/points`,
//! `GET /skyline?dataset=&algo=&dims=&k=&threads=&deadline_ms=` (plus
//! opt-in `include_masks=1` / `include_rows=1` for the cluster
//! coordinator's scatter-gather merge),
//! `GET /datasets/{name}/changes?since=&subscribe=&ops=` (the
//! per-version change feed; see [`replica`] for the follower that
//! consumes it), `GET /datasets/{name}/snapshot`, `POST /promote` and
//! `POST /demote` (the epoch-fenced role flips driving automatic
//! failover; see [`replica`]), `POST /shutdown`.
//!
//! [`StreamingSkyline`]: skyline_core::streaming::StreamingSkyline

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod api;
pub mod cache;
pub mod client;
pub mod faults;
pub mod http;
pub mod metrics;
pub mod pool;
pub mod registry;
pub mod replica;
pub mod service;
pub mod wal;

use std::net::SocketAddr;
use std::path::PathBuf;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use skyline_algos::skyband::k_skyband_ids;
use skyline_algos::{algorithm_by_name, parallel_algorithm, SkylineAlgorithm};
use skyline_core::cancel::CancelToken;
use skyline_core::dataset::Dataset;
use skyline_core::metrics::Metrics;
use skyline_core::point::PointId;
use skyline_core::subspace::Subspace;
use skyline_obs::json::{self, ObjectWriter, Value};
use skyline_obs::trace::{self, StageTimer};
use skyline_obs::Event;

use api::{parse_body, NewDataset, SkylineHead, SkylineQuery};
use cache::{CacheKey, CachedResult, ResultCache};
use http::{Request, Response};
use metrics::Extra;
use registry::{Registry, RegistryError};
use replica::Role;
use service::{inherited_trace, FrontConfig, FrontEnd, Service};

/// Request header carrying the fencing epoch the sender believes is
/// current. A mismatch against the receiving node's own epoch is
/// refused with `409 Fenced`; see [`replica`] for the full protocol.
pub const EPOCH_HEADER: &str = "X-Skyline-Epoch";

/// Request header naming the primary the sender routes writes to.
/// Alongside a higher [`EPOCH_HEADER`] it tells a stale primary who
/// succeeded it, so the fenced node can demote itself in place.
pub const PRIMARY_HEADER: &str = "X-Skyline-Primary";

/// Request header carrying a read-your-writes session token's version:
/// the read must observe the dataset at this version or newer. A
/// replica that cannot catch up in time bounces the client to its
/// primary with 307; a primary that has never seen the version answers
/// 409.
pub const MIN_VERSION_HEADER: &str = "X-Skyline-Min-Version";

/// Server configuration.
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// Bind address; port `0` picks an ephemeral port.
    pub bind: String,
    /// Worker threads handling connections.
    pub threads: usize,
    /// Result cache capacity (entries).
    pub cache_capacity: usize,
    /// Per-request socket timeout (read and write).
    pub request_timeout: Duration,
    /// Request body cap, bytes.
    pub max_body: usize,
    /// JSONL trace sink for `request` / `cache_hit` events.
    pub trace: Option<PathBuf>,
    /// Durability directory (WAL + snapshots). `None` = memory-only.
    pub data_dir: Option<PathBuf>,
    /// WAL fsync policy; only meaningful with `data_dir`.
    pub fsync: wal::FsyncPolicy,
    /// Concurrently executing `/skyline` queries before the admission
    /// gate sheds with 503. `0` = unlimited.
    pub max_inflight: usize,
    /// Connection backlog (queued, not yet picked up by a worker) before
    /// the accept loop sheds with 503. `0` = unlimited.
    pub queue_limit: usize,
    /// Slow-query threshold, milliseconds: a `/skyline` request whose
    /// wall-clock reaches it gets its full stage breakdown written as a
    /// JSONL `stage_breakdown` record. `0` disables the slow-query log.
    pub slow_ms: u64,
    /// Dedicated slow-query log path. `None` routes slow records to the
    /// `trace` sink instead.
    pub slow_log: Option<PathBuf>,
    /// Change-feed retention per dataset, records. Cursors older than
    /// the retained window answer 410 Gone and must resync.
    pub feed_retain: usize,
    /// WAL size that triggers snapshot compaction, bytes; only
    /// meaningful with `data_dir`.
    pub compact_bytes: u64,
    /// Primary to follow. Turns this server into a read-only replica
    /// that tails the primary's change feeds; conflicts with
    /// `data_dir` (followers are memory-only; durability lives on the
    /// primary).
    pub follow: Option<SocketAddr>,
    /// Long-poll hold the follower asks the primary for, milliseconds.
    pub follow_wait_ms: u64,
}

impl Default for ServerConfig {
    fn default() -> ServerConfig {
        ServerConfig {
            bind: "127.0.0.1:0".to_string(),
            threads: 4,
            cache_capacity: 256,
            request_timeout: Duration::from_secs(30),
            max_body: http::DEFAULT_MAX_BODY,
            trace: None,
            data_dir: None,
            fsync: wal::FsyncPolicy::default(),
            max_inflight: 0,
            queue_limit: 1024,
            slow_ms: 0,
            slow_log: None,
            feed_retain: registry::DEFAULT_FEED_RETAIN,
            compact_bytes: 1 << 20,
            follow: None,
            follow_wait_ms: 1000,
        }
    }
}

/// State shared by every worker.
struct Shared {
    front: FrontEnd,
    registry: Registry,
    cache: ResultCache,
    /// `/skyline` queries currently executing (admission gate).
    inflight: AtomicUsize,
    max_inflight: usize,
    /// The node's failover state: role, fencing epoch, and replication
    /// progress. Present on every server — a primary can be demoted
    /// into a follower and a follower promoted, both in place.
    failover: replica::ReplicaState,
}

impl Service for Shared {
    fn front(&self) -> &FrontEnd {
        &self.front
    }

    fn route(&self, req: &Request) -> (Response, &'static str) {
        route(self, req)
    }
}

/// RAII permit from the global admission gate: decrements the inflight
/// count on drop, panic or not.
struct InflightPermit<'a> {
    shared: &'a Shared,
}

impl Drop for InflightPermit<'_> {
    fn drop(&mut self) {
        self.shared.inflight.fetch_sub(1, Ordering::AcqRel);
    }
}

/// `Ok(None)` = no cap configured, `Ok(Some)` = admitted, `Err(())` =
/// the gate is full and the request must be shed.
fn acquire_inflight(shared: &Shared) -> Result<Option<InflightPermit<'_>>, ()> {
    if shared.max_inflight == 0 {
        return Ok(None); // unlimited: no permit needed
    }
    let mut current = shared.inflight.load(Ordering::Acquire);
    loop {
        if current >= shared.max_inflight {
            return Err(());
        }
        match shared.inflight.compare_exchange_weak(
            current,
            current + 1,
            Ordering::AcqRel,
            Ordering::Acquire,
        ) {
            Ok(_) => return Ok(Some(InflightPermit { shared })),
            Err(now) => current = now,
        }
    }
}

/// A running server. Dropping the handle shuts the server down.
pub struct ServerHandle {
    shared: Arc<Shared>,
    running: service::Running,
}

impl ServerHandle {
    /// The address the server is listening on (with the resolved port).
    pub fn local_addr(&self) -> SocketAddr {
        self.running.local_addr()
    }

    /// Current cache counters (for tests and post-run reports).
    pub fn cache_stats(&self) -> cache::CacheStats {
        self.shared.cache.stats()
    }

    /// Block until the server stops (via `POST /shutdown` or
    /// [`ServerHandle::shutdown`] from another thread).
    pub fn wait(&mut self) {
        self.running.wait();
    }

    /// Stop accepting connections, close idle ones, let in-flight
    /// requests finish, and join every thread. Idempotent.
    pub fn shutdown(&mut self) {
        self.running.shutdown();
    }
}

/// The server: binds, spawns the accept loop, returns a handle.
pub struct Server;

impl Server {
    /// Bind `config.bind` and start serving on a background thread.
    pub fn start(config: ServerConfig) -> std::io::Result<ServerHandle> {
        if config.follow.is_some() && config.data_dir.is_some() {
            return Err(std::io::Error::new(
                std::io::ErrorKind::InvalidInput,
                "--follow conflicts with --data-dir: followers are memory-only \
                 (durability lives on the primary)",
            ));
        }
        let (listener, front) = FrontEnd::bind(FrontConfig {
            bind: config.bind.clone(),
            name: "skyline",
            threads: config.threads,
            request_timeout: config.request_timeout,
            max_body: config.max_body,
            queue_limit: config.queue_limit,
            trace: config.trace.clone(),
            slow_ms: config.slow_ms,
            slow_log: config.slow_log.clone(),
        })?;
        let registry = match &config.data_dir {
            Some(dir) => {
                let mut storage = wal::StorageConfig::new(dir.clone());
                storage.fsync = config.fsync;
                storage.compact_bytes = config.compact_bytes;
                Registry::open_with(storage, config.feed_retain)?
            }
            None => Registry::with_feed_retain(config.feed_retain),
        };
        // The fencing epoch survives restarts on a durable node; a
        // memory-only node (and every follower) boots at 0 and adopts
        // the cluster's epoch from its first fenced request.
        let boot_epoch = registry.recovered_epoch();
        let role = match config.follow {
            Some(primary) => Role::Follower { primary },
            None => Role::Primary,
        };
        let shared = Arc::new(Shared {
            front,
            registry,
            cache: ResultCache::new(config.cache_capacity),
            inflight: AtomicUsize::new(0),
            max_inflight: config.max_inflight,
            failover: replica::ReplicaState::new(role, config.follow_wait_ms, boot_epoch),
        });
        for (dataset, replayed, version) in shared.registry.recovery_log() {
            shared.front.emit(Event::Recovery {
                dataset: dataset.clone(),
                replayed: *replayed,
                version: *version,
            });
        }
        let mut running = service::start(listener, shared.clone())?;
        // The supervisor runs on every server, not just boot-time
        // followers: it idles while the node is a primary and starts
        // tailing the moment a demotion flips the role.
        let tail_shared = Arc::clone(&shared);
        running.spawn("skyline-follower", move || {
            replica::run_follower(tail_shared)
        })?;
        Ok(ServerHandle { shared, running })
    }
}

/// Dispatch one request. Returns the response plus the normalised
/// endpoint label used for metrics and trace events.
fn route(shared: &Shared, req: &Request) -> (Response, &'static str) {
    faults::check_panic("handler");
    if let Some(name) = req
        .path
        .strip_prefix("/datasets/")
        .and_then(|rest| rest.strip_suffix("/points"))
    {
        let endpoint = "/datasets/{name}/points";
        // Fencing beats redirection: a write stamped with the wrong
        // epoch is refused outright, a correctly-stamped write on a
        // follower bounces to the primary.
        if let Some(fenced) = fence_check(shared, req, endpoint) {
            return (fenced, endpoint);
        }
        if let Some(redirect) = replica_redirect(shared, &req.path) {
            return (redirect, endpoint);
        }
        let response = match req.method.as_str() {
            "POST" => handle_insert(shared, name, req),
            "DELETE" => handle_remove(shared, name, req),
            _ => Err(Response::error(405, "points supports POST and DELETE")),
        };
        return (response.unwrap_or_else(|refusal| refusal), endpoint);
    }
    if let Some(name) = req
        .path
        .strip_prefix("/datasets/")
        .and_then(|rest| rest.strip_suffix("/changes"))
    {
        let endpoint = "/datasets/{name}/changes";
        // Followers stamp feed reads with their epoch, which is how a
        // resurrected stale primary learns of its own succession.
        if let Some(fenced) = fence_check(shared, req, endpoint) {
            return (fenced, endpoint);
        }
        let response = match req.method.as_str() {
            "GET" => handle_changes(shared, name, req).unwrap_or_else(|refusal| refusal),
            _ => Response::error(405, "changes supports GET"),
        };
        return (response, endpoint);
    }
    if let Some(name) = req
        .path
        .strip_prefix("/datasets/")
        .and_then(|rest| rest.strip_suffix("/snapshot"))
    {
        let endpoint = "/datasets/{name}/snapshot";
        let response = match req.method.as_str() {
            "GET" => handle_snapshot(shared, name),
            _ => Response::error(405, "snapshot supports GET"),
        };
        return (response, endpoint);
    }
    match (req.method.as_str(), req.path.as_str()) {
        ("GET", "/healthz") => (handle_healthz(shared), "/healthz"),
        ("GET", "/metrics") => (handle_metrics(shared, req), "/metrics"),
        ("GET", "/skyline") => (
            handle_skyline(shared, req).unwrap_or_else(|refusal| refusal),
            "/skyline",
        ),
        ("GET", "/datasets") => (handle_list(shared), "/datasets"),
        ("POST", "/datasets") => match fence_check(shared, req, "/datasets") {
            Some(fenced) => (fenced, "/datasets"),
            None => match replica_redirect(shared, &req.path) {
                Some(redirect) => (redirect, "/datasets"),
                None => (handle_create(shared, req), "/datasets"),
            },
        },
        ("POST", "/promote") => (handle_promote(shared, req), "/promote"),
        ("POST", "/demote") => (handle_demote(shared, req), "/demote"),
        ("POST", "/shutdown") => (shared.front.handle_shutdown(), "/shutdown"),
        (
            _,
            "/healthz" | "/metrics" | "/skyline" | "/datasets" | "/shutdown" | "/promote"
            | "/demote",
        ) => (
            Response::error(405, "method not allowed on this endpoint"),
            "(bad-method)",
        ),
        _ => (
            Response::error(404, &format!("no such endpoint {}", req.path)),
            "(unknown)",
        ),
    }
}

fn registry_response(err: RegistryError) -> Response {
    let status = match err {
        RegistryError::Unknown(_) => 404,
        RegistryError::Exists(_) => 409,
        RegistryError::BadName(_) | RegistryError::BadData(_) => 400,
        RegistryError::Io(_) => 500,
    };
    Response::error(status, &err.to_string())
}

/// `GET /healthz` — one JSON shape on both roles: liveness plus the
/// node's `role`, fencing `epoch`, and latest applied versions. The
/// cluster's failure detector reads this to pick the most-caught-up
/// replica at promotion time, so `applied_version` (the per-dataset
/// versions summed) must reflect everything the node has applied.
fn handle_healthz(shared: &Shared) -> Response {
    let infos = shared.registry.list();
    let applied: u64 = infos.iter().map(|i| i.version).sum();
    let mut versions = ObjectWriter::new();
    for info in &infos {
        versions.u64_field(&info.name, info.version);
    }
    let mut w = ObjectWriter::new();
    w.str_field("status", "ok");
    match shared.failover.role() {
        Role::Primary => {
            w.str_field("role", "primary");
        }
        Role::Follower { primary } => {
            w.str_field("role", "replica")
                .str_field("primary", &primary.to_string());
        }
    }
    w.u64_field("epoch", shared.failover.epoch())
        .u64_field("datasets", infos.len() as u64)
        .u64_field("applied_version", applied)
        .raw_field("versions", &versions.finish())
        .u64_field(
            "uptime_us",
            shared.front.started.elapsed().as_micros() as u64,
        );
    Response::json(200, w.finish())
}

/// Enforce the fencing epoch on a request that stamped one
/// ([`EPOCH_HEADER`]). `None` = no epoch claimed or it matches ours
/// (handle normally); `Some` = the caller must return this refusal.
///
/// A *higher* request epoch means a succession happened that this node
/// missed — the canonical case is a resurrected old primary receiving
/// traffic stamped by the new regime. When the request also names the
/// new primary ([`PRIMARY_HEADER`]), the node demotes itself into a
/// follower of it on the spot; the refused request is retried by its
/// sender, and by then this node redirects like any other replica.
fn fence_check(shared: &Shared, req: &Request, endpoint: &str) -> Option<Response> {
    let raw = req.header(EPOCH_HEADER)?;
    let Ok(request_epoch) = raw.parse::<u64>() else {
        return Some(Response::error(
            400,
            &format!("bad {EPOCH_HEADER} value {raw:?}"),
        ));
    };
    let node_epoch = shared.failover.epoch();
    if request_epoch == node_epoch {
        return None;
    }
    shared.failover.fenced_total.fetch_add(1, Ordering::Relaxed);
    shared.front.emit(Event::FencedRequest {
        endpoint: endpoint.to_string(),
        request_epoch,
        node_epoch,
    });
    let mut successor: Option<SocketAddr> = None;
    if request_epoch > node_epoch {
        if let Some(primary) = req
            .header(PRIMARY_HEADER)
            .and_then(|p| p.parse::<SocketAddr>().ok())
            .filter(|p| *p != shared.front.addr)
        {
            if shared.failover.demote(request_epoch, primary).is_ok() {
                // Followers are memory-only so this is a no-op there; a
                // durable node that fails the write re-learns the epoch
                // from the next fenced request.
                let _ = shared.registry.persist_epoch(request_epoch);
                shared.front.emit(Event::Demotion {
                    epoch: request_epoch,
                    primary: primary.to_string(),
                });
                successor = Some(primary);
            }
        }
    }
    let mut w = ObjectWriter::new();
    w.str_field("error", "fenced: request epoch does not match this node")
        .u64_field("epoch", shared.failover.epoch())
        .u64_field("request_epoch", request_epoch);
    if let Some(primary) = successor {
        w.str_field("primary", &primary.to_string());
    }
    Some(Response::json(409, w.finish()))
}

/// `POST /promote` — body `{"epoch": E}`: flip this node to primary
/// under fencing epoch `E`. `E` must be strictly above the node's own
/// epoch (a retry of an accepted promotion is an idempotent 200);
/// anything else is refused with 409 and the node's epoch. On success
/// the epoch is made durable before the response acks, tailer threads
/// wind down via the generation bump, and the node starts accepting
/// writes at its inherited version.
fn handle_promote(shared: &Shared, req: &Request) -> Response {
    let body = match parse_body(req) {
        Ok(v) => v,
        Err(resp) => return resp,
    };
    let Some(epoch) = body.get("epoch").and_then(Value::as_u64) else {
        return Response::error(400, "body needs numeric \"epoch\"");
    };
    match shared.failover.promote(epoch) {
        Err(current) => {
            let mut w = ObjectWriter::new();
            w.str_field("error", "promotion fenced: epoch must rise")
                .u64_field("epoch", current)
                .u64_field("request_epoch", epoch);
            Response::json(409, w.finish())
        }
        Ok(()) => {
            if let Err(e) = shared.registry.persist_epoch(epoch) {
                return Response::error(500, &format!("promoted but epoch not durable: {e}"));
            }
            let infos = shared.registry.list();
            let applied: u64 = infos.iter().map(|i| i.version).sum();
            shared.front.emit(Event::Promotion {
                epoch,
                datasets: infos.len() as u64,
                version: applied,
            });
            let mut w = ObjectWriter::new();
            w.str_field("role", "primary")
                .u64_field("epoch", epoch)
                .u64_field("applied_version", applied);
            Response::json(200, w.finish())
        }
    }
}

/// `POST /demote` — body `{"epoch": E, "primary": "host:port"}`: step
/// down into a follower of `primary` under epoch `E` (at or above the
/// node's own; equal allows a retarget). The node's datasets resync
/// from the new primary on the follower path.
fn handle_demote(shared: &Shared, req: &Request) -> Response {
    let body = match parse_body(req) {
        Ok(v) => v,
        Err(resp) => return resp,
    };
    let Some(epoch) = body.get("epoch").and_then(Value::as_u64) else {
        return Response::error(400, "body needs numeric \"epoch\"");
    };
    let Some(primary) = body
        .get("primary")
        .and_then(Value::as_str)
        .and_then(|s| s.parse::<SocketAddr>().ok())
    else {
        return Response::error(400, "body needs \"primary\" as host:port");
    };
    if primary == shared.front.addr {
        return Response::error(400, "refusing to demote into following myself");
    }
    match shared.failover.demote(epoch, primary) {
        Err(current) => {
            let mut w = ObjectWriter::new();
            w.str_field("error", "demotion fenced: epoch must not regress")
                .u64_field("epoch", current)
                .u64_field("request_epoch", epoch);
            Response::json(409, w.finish())
        }
        Ok(()) => {
            let _ = shared.registry.persist_epoch(epoch);
            shared.front.emit(Event::Demotion {
                epoch,
                primary: primary.to_string(),
            });
            let mut w = ObjectWriter::new();
            w.str_field("role", "replica")
                .u64_field("epoch", epoch)
                .str_field("primary", &primary.to_string());
            Response::json(200, w.finish())
        }
    }
}

fn dataset_info_json(info: &registry::DatasetInfo) -> String {
    let mut w = ObjectWriter::new();
    w.str_field("name", &info.name)
        .u64_field("dims", info.dims as u64)
        .u64_field("points", info.points as u64)
        .u64_field("skyline", info.skyline_len as u64)
        .u64_field("version", info.version);
    w.finish()
}

fn handle_list(shared: &Shared) -> Response {
    let objs: Vec<String> = shared
        .registry
        .list()
        .iter()
        .map(dataset_info_json)
        .collect();
    let mut w = ObjectWriter::new();
    w.raw_field("datasets", &format!("[{}]", objs.join(",")));
    Response::json(200, w.finish())
}

/// On a follower, writes answer 307 with a `Location` pointing the
/// client at the primary; `None` on a primary (handle normally).
fn replica_redirect(shared: &Shared, path: &str) -> Option<Response> {
    let primary = shared.failover.follow_target()?;
    let mut w = ObjectWriter::new();
    w.str_field("error", "read-only replica: writes go to the primary")
        .str_field("primary", &primary.to_string());
    Some(
        Response::json(307, w.finish()).with_header("Location", &format!("http://{primary}{path}")),
    )
}

/// On a follower, stamp a read response with how many versions the
/// queried dataset trails the primary by (see [`replica::LAG_HEADER`]).
fn with_replica_lag(shared: &Shared, dataset: &str, resp: Response) -> Response {
    match shared.failover.role() {
        Role::Follower { .. } => resp.with_header(
            replica::LAG_HEADER,
            &shared.failover.lag_of(dataset).to_string(),
        ),
        Role::Primary => resp,
    }
}

/// Feed long-poll ceiling, ms — below the 30 s request timeout so a
/// subscriber's held request always answers before the socket dies.
const MAX_WAIT_MS: u64 = 25_000;

/// `GET /datasets/{name}/changes?since=&limit=&ops=&subscribe=&wait_ms=`
/// — the change feed. Returns records strictly after `since` plus a
/// `next` cursor; `subscribe=1` long-polls until a change lands or the
/// hold expires into an explicit heartbeat (empty batch, unchanged
/// cursor); a cursor behind the retention horizon answers 410 Gone
/// with `oldest_version` so the consumer knows to resync.
fn handle_changes(shared: &Shared, name: &str, req: &Request) -> Result<Response, Response> {
    let entry = shared.registry.get(name).map_err(registry_response)?;
    let since = api::query_u64(req, "since", 0)?.unwrap_or(0);
    let limit = api::query_u64(req, "limit", 1)?.unwrap_or(512) as usize;
    let with_ops = api::query_flag(req, "ops")?;
    let subscribe = api::query_flag(req, "subscribe")?;
    let default_wait_ms = if subscribe { 10_000 } else { 0 };
    let wait_ms = api::query_u64(req, "wait_ms", 0)?.unwrap_or(default_wait_ms);
    // Long-poll: park on the dataset's feed condvar until a version
    // beyond the cursor exists. Waits are sliced so shutdown never
    // blocks behind a subscriber's full hold.
    let deadline = Instant::now() + Duration::from_millis(wait_ms.min(MAX_WAIT_MS));
    loop {
        let now = Instant::now();
        if now >= deadline || shared.front.is_shutting_down() {
            break;
        }
        let slice = (deadline - now).min(Duration::from_millis(250));
        if entry.wait_for_version(since, slice) > since {
            break;
        }
    }
    Ok(match entry.changes_since(since, limit) {
        Err(gone) => {
            shared.front.emit(Event::FeedPoll {
                dataset: name.to_string(),
                since,
                returned: 0,
                next: since,
                latest: entry.info().version,
                heartbeat: false,
            });
            let mut w = ObjectWriter::new();
            w.str_field(
                "error",
                &format!(
                    "cursor {since} predates the retained change feed; \
                     resync from /datasets/{name}/snapshot"
                ),
            )
            .u64_field("oldest_version", gone.oldest);
            Response::json(410, w.finish())
        }
        Ok(batch) => {
            let heartbeat = batch.records.is_empty();
            shared.front.emit(Event::FeedPoll {
                dataset: name.to_string(),
                since,
                returned: batch.records.len() as u64,
                next: batch.next,
                latest: batch.latest,
                heartbeat,
            });
            let records: Vec<String> = batch
                .records
                .iter()
                .map(|r| replica::record_json(r, with_ops))
                .collect();
            let mut w = ObjectWriter::new();
            w.str_field("dataset", name)
                .u64_field("since", since)
                .u64_field("next", batch.next)
                .u64_field("latest", batch.latest)
                .u64_field("oldest", batch.oldest)
                .bool_field("heartbeat", heartbeat)
                .raw_field("records", &format!("[{}]", records.join(",")));
            Response::json(200, w.finish())
        }
    })
}

/// `GET /datasets/{name}/snapshot` — the dataset's full state in the
/// `.snap` wire format; what a follower resyncs from.
fn handle_snapshot(shared: &Shared, name: &str) -> Response {
    match shared.registry.get(name) {
        Ok(entry) => Response::json(200, entry.snapshot_doc()),
        Err(e) => registry_response(e),
    }
}

/// The `/metrics` cache hit-rate: hits over lookups, 0.0 before any.
fn cache_hit_rate(stats: &cache::CacheStats) -> f64 {
    let lookups = stats.hits + stats.misses;
    if lookups == 0 {
        0.0
    } else {
        stats.hits as f64 / lookups as f64
    }
}

fn handle_metrics(shared: &Shared, req: &Request) -> Response {
    let stats = shared.cache.stats();
    shared.front.metrics_response(
        req,
        || metrics_json(shared, &stats),
        || prometheus_extras(shared, &stats),
    )
}

/// The series `/metrics?format=prometheus` adds to the front end's own.
fn prometheus_extras(shared: &Shared, stats: &cache::CacheStats) -> Vec<Extra> {
    let state = &shared.failover;
    let mut extras = vec![
        Extra::counter("skyline_cache_hits_total", stats.hits),
        Extra::counter("skyline_cache_misses_total", stats.misses),
        Extra::counter("skyline_cache_evictions_total", stats.evictions),
        Extra::counter("skyline_cache_invalidations_total", stats.invalidations),
        Extra::counter("skyline_cache_patched_total", stats.patched),
        Extra::gauge("skyline_cache_entries", stats.entries as f64),
        Extra::gauge("skyline_cache_hit_rate", cache_hit_rate(stats)),
        Extra::gauge("skyline_datasets", shared.registry.len() as f64),
        Extra::gauge("skyline_epoch", state.epoch() as f64),
        Extra::counter(
            "skyline_promotions_total",
            state.promotions_total.load(Ordering::Relaxed),
        ),
        Extra::counter(
            "skyline_demotions_total",
            state.demotions_total.load(Ordering::Relaxed),
        ),
        Extra::counter(
            "skyline_fenced_requests_total",
            state.fenced_total.load(Ordering::Relaxed),
        ),
        Extra::counter(
            "skyline_replica_applied_total",
            state.applied_total.load(Ordering::Relaxed),
        ),
        Extra::counter(
            "skyline_replica_duplicates_total",
            state.duplicates_total.load(Ordering::Relaxed),
        ),
        Extra::counter(
            "skyline_replica_resyncs_total",
            state.resyncs_total.load(Ordering::Relaxed),
        ),
    ];
    // One family at a time: the renderer writes a TYPE line per
    // consecutive run of the same metric family.
    let progress = state.progress_snapshot();
    for (dataset, applied, latest) in &progress {
        extras.push(Extra::gauge(
            format!("skyline_replica_lag_versions{{dataset=\"{dataset}\"}}"),
            latest.saturating_sub(*applied) as f64,
        ));
    }
    for (dataset, applied, _) in &progress {
        extras.push(Extra::gauge(
            format!("skyline_replica_applied_version{{dataset=\"{dataset}\"}}"),
            *applied as f64,
        ));
    }
    extras
}

/// The `/metrics` JSON document.
fn metrics_json(shared: &Shared, stats: &cache::CacheStats) -> String {
    let metrics = &shared.front.metrics;
    let mut cache_obj = ObjectWriter::new();
    cache_obj
        .u64_field("hits", stats.hits)
        .u64_field("misses", stats.misses)
        .u64_field("evictions", stats.evictions)
        .u64_field("invalidations", stats.invalidations)
        .u64_field("patched", stats.patched)
        .u64_field("entries", stats.entries)
        .u64_field("capacity", shared.cache.capacity() as u64)
        .f64_field("hit_rate", cache_hit_rate(stats));
    let datasets: Vec<String> = shared
        .registry
        .list()
        .iter()
        .map(dataset_info_json)
        .collect();
    let mut w = ObjectWriter::new();
    w.u64_field(
        "uptime_us",
        shared.front.started.elapsed().as_micros() as u64,
    )
    .u64_field("threads", shared.front.threads as u64)
    .u64_field("requests", metrics.total_requests())
    .u64_field("shed_total", metrics.shed_total())
    .u64_field("deadline_exceeded_total", metrics.deadline_exceeded_total())
    .u64_field("panics_total", metrics.panics_total())
    .u64_field("wal_bytes", shared.registry.wal_bytes())
    .u64_field(
        "recovery_replayed_records",
        shared.registry.recovery_replayed(),
    )
    .raw_field("endpoints", &metrics.render_json())
    .raw_field("stages", &metrics.render_stages_json())
    .raw_field("cache", &cache_obj.finish())
    .raw_field("datasets", &format!("[{}]", datasets.join(",")));
    let state = &shared.failover;
    let lag = state.lag.snapshot();
    let progress: Vec<String> = state
        .progress_snapshot()
        .iter()
        .map(|(name, applied, latest)| {
            let mut p = ObjectWriter::new();
            p.str_field("name", name)
                .u64_field("applied", *applied)
                .u64_field("primary_latest", *latest)
                .u64_field("lag", latest.saturating_sub(*applied));
            p.finish()
        })
        .collect();
    let mut r = ObjectWriter::new();
    match state.role() {
        Role::Primary => {
            r.str_field("role", "primary");
        }
        Role::Follower { primary } => {
            r.str_field("role", "replica")
                .str_field("primary", &primary.to_string());
        }
    }
    r.u64_field("epoch", state.epoch())
        .u64_field(
            "promotions_total",
            state.promotions_total.load(Ordering::Relaxed),
        )
        .u64_field(
            "demotions_total",
            state.demotions_total.load(Ordering::Relaxed),
        )
        .u64_field("fenced_total", state.fenced_total.load(Ordering::Relaxed))
        .u64_field("applied_total", state.applied_total.load(Ordering::Relaxed))
        .u64_field(
            "duplicates_total",
            state.duplicates_total.load(Ordering::Relaxed),
        )
        .u64_field("resyncs_total", state.resyncs_total.load(Ordering::Relaxed))
        .u64_field("lag_p50", lag.p50())
        .u64_field("lag_p99", lag.p99())
        .raw_field("datasets", &format!("[{}]", progress.join(",")));
    w.raw_field("replication", &r.finish());
    w.finish()
}

/// `POST /datasets` — body: `{"name": ..., "rows": [[...], ...]}` or
/// `{"name": ..., "synthetic": {"distribution": "AC", "n": 1000,
/// "dims": 6, "seed": 42}}`; an empty dataset needs explicit `"dims"`.
fn handle_create(shared: &Shared, req: &Request) -> Response {
    let new = match NewDataset::parse(req, shared.front.max_body) {
        Ok(new) => new,
        Err(refusal) => return refusal,
    };
    match shared.registry.create(&new.name, new.dims, &new.rows) {
        Ok(entry) => Response::json(201, dataset_info_json(&entry.info())),
        Err(e) => registry_response(e),
    }
}

/// Carry the result cache across a mutation, trace the delta, and
/// account for the write.
///
/// Patches forward every full-space skyline entry sitting at the
/// mutation's base version, drops the rest, bumps the `cache_patched`
/// counter, and emits one `delta_applied` trace event — the observable
/// spine of the incremental-maintenance path. The registry's stages
/// plus this one, `patch`, go into the `/metrics` stage histograms and
/// come back encoded for the reply's stage-times header.
fn apply_mutation(
    shared: &Shared,
    name: &str,
    dims: usize,
    mutation: &registry::Mutation,
    trace_id: &str,
) -> (cache::PatchOutcome, String) {
    let started = Instant::now();
    // An unchanged version (empty batch / no live removals) leaves every
    // cached entry exact, with no delta to trace.
    let out = if mutation.version == mutation.base_version {
        cache::PatchOutcome::default()
    } else {
        let out = shared.cache.patch_dataset(
            name,
            Subspace::full(dims).bits(),
            mutation.base_version,
            &mutation.delta,
        );
        shared.front.emit(Event::DeltaApplied {
            dataset: name.to_string(),
            base_version: mutation.base_version,
            version: mutation.version,
            entered: mutation.delta.entered.len() as u64,
            left: mutation.delta.left.len() as u64,
            cache_patched: out.patched as u64,
            cache_invalidated: out.invalidated as u64,
            trace: trace_id.to_string(),
        });
        out
    };
    let mut stages = mutation.stages.clone();
    stages.push(("patch".to_string(), started.elapsed().as_micros() as u64));
    shared.front.metrics.record_stages(&stages);
    (out, trace::encode_stage_times(&stages))
}

/// Shared tail of the mutation responses: version movement, skyline
/// cardinality, the delta's membership changes, and what happened to
/// the cache — plus the fencing epoch the write was accepted under.
/// `(epoch, version)` is the read-your-writes session token: stamp a
/// later read with [`MIN_VERSION_HEADER`]` = version` and it will never
/// observe an older state, on any node.
fn mutation_json_fields(
    w: &mut ObjectWriter,
    mutation: &registry::Mutation,
    out: &cache::PatchOutcome,
    epoch: u64,
) {
    let entered: Vec<u64> = mutation.delta.entered.iter().map(|&i| i as u64).collect();
    let left: Vec<u64> = mutation.delta.left.iter().map(|&i| i as u64).collect();
    w.u64_field("version", mutation.version)
        .u64_field("epoch", epoch)
        .u64_field("skyline", mutation.skyline_len as u64)
        .u64_array_field("entered", &entered)
        .u64_array_field("left", &left)
        .u64_field("cache_patched", out.patched as u64)
        .u64_field("cache_invalidated", out.invalidated as u64);
}

/// `POST /datasets/{name}/points` — body `{"rows": [[...], ...]}`.
fn handle_insert(shared: &Shared, name: &str, req: &Request) -> Result<Response, Response> {
    let trace_id = inherited_trace(req);
    let entry = shared.registry.get(name).map_err(registry_response)?;
    let rows = api::insert_rows(req)?;
    let (ids, mutation) = entry.insert_rows(&rows).map_err(registry_response)?;
    let (out, stage_times) = apply_mutation(shared, name, entry.dims(), &mutation, &trace_id);
    let ids64: Vec<u64> = ids.iter().map(|&i| i as u64).collect();
    let mut w = ObjectWriter::new();
    w.u64_field("inserted", ids.len() as u64)
        .u64_array_field("ids", &ids64);
    mutation_json_fields(&mut w, &mutation, &out, shared.failover.epoch());
    Ok(Response::json(200, w.finish()).with_header(trace::STAGE_TIMES_HEADER, &stage_times))
}

/// `DELETE /datasets/{name}/points` — body `{"ids": [...]}`.
fn handle_remove(shared: &Shared, name: &str, req: &Request) -> Result<Response, Response> {
    let trace_id = inherited_trace(req);
    let entry = shared.registry.get(name).map_err(registry_response)?;
    let ids: Vec<PointId> = api::remove_ids(req, PointId::MAX as u64)?
        .into_iter()
        .map(|id| id as PointId)
        .collect();
    let (removed, mutation) = entry.remove_ids(&ids).map_err(registry_response)?;
    let (out, stage_times) = apply_mutation(shared, name, entry.dims(), &mutation, &trace_id);
    let mut w = ObjectWriter::new();
    w.u64_field("removed", removed as u64);
    mutation_json_fields(&mut w, &mutation, &out, shared.failover.epoch());
    Ok(Response::json(200, w.finish()).with_header(trace::STAGE_TIMES_HEADER, &stage_times))
}

/// Optional `/skyline` response payload behind `include_masks=1` /
/// `include_rows=1` — what the cluster coordinator consumes: each
/// point's maximum dominating subspace w.r.t. this shard's own elite
/// reference set, which elites those were (as positions into `ids`),
/// and the raw coordinates for cross-shard dominance tests.
struct SkylineExtras {
    /// Per-point subspace masks (bit `i` = dimension `i`), or `None`
    /// when only rows were requested.
    masks: Option<(Vec<u64>, Vec<u64>)>,
    /// `[[f64, ...], ...]` JSON, or `None` when only masks were
    /// requested. [`json::rows_json`] keeps every coordinate, ±∞
    /// included, exact across the wire.
    rows_json: Option<String>,
}

/// A node's `/skyline` answer: the shared head, then the opt-in extras.
fn skyline_json(
    key: &CacheKey,
    cached: bool,
    ids: &[PointId],
    elapsed_us: u64,
    extras: Option<&SkylineExtras>,
    timings: Option<&[(String, u64)]>,
) -> String {
    let ids: Vec<u64> = ids.iter().map(|&i| i as u64).collect();
    let head = SkylineHead {
        dataset: &key.dataset,
        algorithm: &key.algorithm,
        version: key.version,
        mask_bits: key.mask_bits,
        k: key.k,
        cached,
        elapsed_us,
        ids: &ids,
    };
    let extras_fields = |w: &mut ObjectWriter| {
        let Some(extras) = extras else { return };
        if let Some((masks, elites)) = &extras.masks {
            w.u64_array_field("masks", masks)
                .u64_array_field("elites", elites);
        }
        if let Some(rows) = &extras.rows_json {
            w.raw_field("rows", rows);
        }
    };
    head.answer(extras_fields, timings)
}

/// Compute the opt-in extras for skyline `row_ids` (row indices into
/// `target`, which is already projected when the query named `dims`).
fn compute_extras(
    target: Option<&Dataset>,
    row_ids: &[PointId],
    include_masks: bool,
    include_rows: bool,
) -> SkylineExtras {
    let masks = include_masks.then(|| match target {
        None => (Vec::new(), Vec::new()),
        Some(data) => {
            let elite_ids = skyline_core::shard_merge::select_reference_elites(data, row_ids);
            let masks = skyline_core::shard_merge::reference_masks(data, row_ids, &elite_ids)
                .into_iter()
                .map(|s| s.bits())
                .collect();
            // Elites as positions into the response arrays, so the
            // caller never has to reverse any id mapping.
            let positions = elite_ids
                .iter()
                .map(|e| {
                    row_ids
                        .iter()
                        .position(|x| x == e)
                        .expect("elite ∈ skyline") as u64
                })
                .collect();
            (masks, positions)
        }
    });
    let rows_json = include_rows.then(|| {
        json::rows_json(
            row_ids
                .iter()
                .map(|&id| target.map_or(&[][..], |data| data.point(id))),
        )
    });
    SkylineExtras { masks, rows_json }
}

/// How long a read stamped with a session token waits for replication
/// to catch up before bouncing to the primary.
const MIN_VERSION_WAIT: Duration = Duration::from_millis(500);

/// Honour a read-your-writes session token ([`MIN_VERSION_HEADER`]):
/// the read must observe `name` at the token's version or newer.
/// `None` = satisfied (proceed with the read). A follower that cannot
/// catch up within [`MIN_VERSION_WAIT`] bounces the client to its
/// primary with 307; a primary that has never reached the version
/// answers 409 — the token came from a history this node does not have,
/// which after a failover means the client must surface the lost write
/// rather than silently read around it.
fn min_version_gate(
    shared: &Shared,
    entry: &registry::DatasetEntry,
    name: &str,
    req: &Request,
) -> Option<Response> {
    let raw = req.header(MIN_VERSION_HEADER)?;
    let Ok(min_version) = raw.parse::<u64>() else {
        return Some(Response::error(
            400,
            &format!("bad {MIN_VERSION_HEADER} value {raw:?}"),
        ));
    };
    if min_version == 0 {
        return None;
    }
    let deadline = Instant::now() + MIN_VERSION_WAIT;
    loop {
        if entry.wait_for_version(min_version - 1, Duration::from_millis(50)) >= min_version {
            return None;
        }
        if Instant::now() >= deadline || shared.front.is_shutting_down() {
            break;
        }
    }
    match shared.failover.follow_target() {
        Some(primary) => {
            // Rebuild the request target so the client can replay the
            // exact read against the primary.
            let query: Vec<String> = req.query.iter().map(|(k, v)| format!("{k}={v}")).collect();
            let target = if query.is_empty() {
                req.path.clone()
            } else {
                format!("{}?{}", req.path, query.join("&"))
            };
            let mut w = ObjectWriter::new();
            w.str_field(
                "error",
                "replica is behind the session token; read from the primary",
            )
            .u64_field("min_version", min_version)
            .str_field("primary", &primary.to_string());
            Some(
                Response::json(307, w.finish())
                    .with_header("Location", &format!("http://{primary}{target}")),
            )
        }
        None => Some(Response::error(
            409,
            &format!(
                "session token demands version {min_version} of {name:?}, \
                 which this primary has never applied"
            ),
        )),
    }
}

/// `entry`'s snapshot of its current version, marking a `snapshot`
/// stage on `timer` when this read built it.
fn take_snapshot(
    entry: &registry::DatasetEntry,
    timer: &mut StageTimer,
) -> Arc<registry::Snapshot> {
    let (snapshot, filled) = entry.snapshot_filled();
    if filled {
        timer.mark("snapshot");
    }
    snapshot
}

/// `GET /skyline?dataset=&algo=&dims=&k=&threads=&deadline_ms=`.
fn handle_skyline(shared: &Shared, req: &Request) -> Result<Response, Response> {
    let mut timer = StageTimer::start();
    let trace_id = inherited_trace(req);
    let name = api::dataset_param(req)?;
    // Global admission gate: beyond `max_inflight` concurrent queries,
    // shed immediately rather than queueing work the server cannot keep
    // up with.
    let _inflight = acquire_inflight(shared).map_err(|()| {
        shared
            .front
            .shed("/skyline", "server overloaded: too many queries in flight")
    })?;
    let entry = shared.registry.get(name).map_err(registry_response)?;
    if let Some(resp) = min_version_gate(shared, &entry, name, req) {
        return Err(resp);
    }
    let query = SkylineQuery::parse(req)?;
    let SkylineQuery {
        k,
        threads,
        include_masks,
        include_rows,
        ..
    } = query;
    if include_masks && k > 1 {
        return Err(Response::error(
            400,
            "include_masks=1 requires k=1: dominating-subspace masks are only defined for the skyline",
        ));
    }
    let algo_name = query.algo.unwrap_or("SDI-Subset");
    let wants_parallel = threads > 0 || algo_name.starts_with("P-") || algo_name.starts_with("p-");
    let algo: Box<dyn SkylineAlgorithm> = if wants_parallel {
        parallel_algorithm(algo_name, None, threads as usize).ok_or_else(|| {
            Response::error(
                400,
                &format!("no parallel engine for algorithm {algo_name:?}"),
            )
        })?
    } else {
        algorithm_by_name(algo_name)
            .ok_or_else(|| Response::error(400, &format!("unknown algorithm {algo_name:?}")))?
    };
    let full = Subspace::full(entry.dims());
    let mask = query.mask(entry.dims())?;

    timer.mark("parse");
    // One cache probe, keyed by the version of the rows the answer
    // needs. A read with extras maps its answer onto rows, so it takes
    // the snapshot first and probes at the snapshot's version. Any other
    // read probes at the current version and takes the snapshot only on
    // a miss, answering at the version of the rows it computed on.
    let wants_extras = include_masks || include_rows;
    let snapshot = wants_extras.then(|| take_snapshot(&entry, &mut timer));
    let mut key = CacheKey {
        dataset: name.to_string(),
        version: snapshot
            .as_ref()
            .map_or_else(|| entry.version(), |s| s.version),
        algorithm: algo.name().to_string(),
        mask_bits: mask.bits(),
        k,
        threads,
    };
    let start = Instant::now();
    if let Some(hit) = shared.cache.get(&key) {
        shared.front.emit(Event::CacheHit {
            dataset: name.to_string(),
            algorithm: algo.name().to_string(),
            version: key.version,
            trace: trace_id.clone(),
        });
        // Extras are derived data, not cached: map the cached handles
        // back to row indices (the handle list is ascending) and
        // recompute. The key was probed at the snapshot's version, so
        // the snapshot describes exactly the cached result.
        let extras = snapshot.as_ref().map(|snapshot| {
            let projected: Option<Dataset> = match &snapshot.dataset {
                Some(data) if mask != full => Some(data.project_dims(mask)),
                _ => None,
            };
            let target: Option<&Dataset> = projected.as_ref().or(snapshot.dataset.as_ref());
            let row_ids: Vec<PointId> = hit
                .ids
                .iter()
                .map(|h| {
                    snapshot
                        .handles
                        .binary_search(h)
                        .expect("cached handle present at its own version")
                        as PointId
                })
                .collect();
            compute_extras(target, &row_ids, include_masks, include_rows)
        });
        timer.mark("cache");
        let elapsed_us = start.elapsed().as_micros() as u64;
        let body = skyline_json(
            &key,
            true,
            &hit.ids,
            elapsed_us,
            extras.as_ref(),
            query.timings.then(|| timer.stages()),
        );
        let resp = with_replica_lag(shared, name, Response::json(200, body));
        return Ok(shared
            .front
            .finish_skyline(timer, &trace_id, String::new(), resp));
    }
    timer.mark("cache");
    let snapshot = snapshot.unwrap_or_else(|| take_snapshot(&entry, &mut timer));
    key.version = snapshot.version;

    // The deadline starts at compute time: parsing and cache probing are
    // bounded, the algorithm run is not.
    let token = match query.deadline_ms {
        Some(ms) => CancelToken::with_deadline(Duration::from_millis(ms)),
        None => CancelToken::none(),
    };
    let deadline_response = || {
        shared
            .front
            .deadline_exceeded(name, algo.name(), query.deadline_ms.unwrap_or(0))
    };
    let mut extras: Option<SkylineExtras> = None;
    let ids: Vec<PointId> = match &snapshot.dataset {
        None => {
            if wants_extras {
                extras = Some(compute_extras(None, &[], include_masks, include_rows));
            }
            Vec::new()
        }
        Some(data) => {
            faults::check_delay("compute");
            let mut metrics = Metrics::new();
            let projected;
            let target: &Dataset = if mask == full {
                data
            } else {
                projected = data.project_dims(mask);
                &projected
            };
            let mut rows = if k > 1 {
                // The skyband path has no in-loop cancellation; honour
                // the deadline with an up-front check.
                if token.check().is_err() {
                    return Err(deadline_response());
                }
                let mut band = k_skyband_ids(target, k as usize, &mut metrics);
                band.sort_unstable();
                band
            } else {
                algo.compute_cancellable(target, &mut metrics, &token)
                    .map_err(|_| deadline_response())?
            };
            timer.mark("compute");
            if wants_extras {
                extras = Some(compute_extras(
                    Some(target),
                    &rows,
                    include_masks,
                    include_rows,
                ));
            }
            // Row indices → stable stream handles. The handle list is
            // ascending, so ascending row ids stay ascending.
            for id in rows.iter_mut() {
                *id = snapshot.handles[*id as usize];
            }
            rows
        }
    };
    timer.mark("extras");
    let elapsed_us = start.elapsed().as_micros() as u64;
    let body = skyline_json(
        &key,
        false,
        &ids,
        elapsed_us,
        extras.as_ref(),
        query.timings.then(|| timer.stages()),
    );
    shared.cache.insert(key, CachedResult { ids, elapsed_us });
    let resp = with_replica_lag(shared, name, Response::json(200, body));
    Ok(shared
        .front
        .finish_skyline(timer, &trace_id, String::new(), resp))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn start_test_server() -> ServerHandle {
        Server::start(ServerConfig {
            threads: 2,
            cache_capacity: 16,
            ..ServerConfig::default()
        })
        .expect("start server")
    }

    #[test]
    fn healthz_and_unknown_endpoint() {
        let server = start_test_server();
        let addr = server.local_addr();
        let ok = client::get(addr, "/healthz").unwrap();
        assert_eq!(ok.status, 200);
        let v = Value::parse(&ok.body_str()).unwrap();
        assert_eq!(v.get("status").unwrap().as_str(), Some("ok"));
        assert_eq!(client::get(addr, "/nope").unwrap().status, 404);
        assert_eq!(client::post(addr, "/healthz", "").unwrap().status, 405);
    }

    #[test]
    fn create_query_cache_and_patch() {
        let server = start_test_server();
        let addr = server.local_addr();
        let created = client::post(
            addr,
            "/datasets",
            r#"{"name": "t", "rows": [[1, 5], [5, 1], [6, 6]]}"#,
        )
        .unwrap();
        assert_eq!(created.status, 201, "{}", created.body_str());

        let first = client::get(addr, "/skyline?dataset=t&algo=SFS").unwrap();
        assert_eq!(first.status, 200, "{}", first.body_str());
        let v1 = Value::parse(&first.body_str()).unwrap();
        assert_eq!(v1.get("cached").unwrap(), &Value::Bool(false));
        assert_eq!(v1.get("count").unwrap().as_u64(), Some(2));

        let second = client::get(addr, "/skyline?dataset=t&algo=SFS").unwrap();
        let v2 = Value::parse(&second.body_str()).unwrap();
        assert_eq!(v2.get("cached").unwrap(), &Value::Bool(true));
        assert_eq!(v2.get("ids").unwrap(), v1.get("ids").unwrap());

        // A streaming insert bumps the version; the full-space entry is
        // patched forward by the mutation's delta, not dropped.
        let inserted =
            client::post(addr, "/datasets/t/points", r#"{"rows": [[0.5, 0.5]]}"#).unwrap();
        assert_eq!(inserted.status, 200, "{}", inserted.body_str());
        let vi = Value::parse(&inserted.body_str()).unwrap();
        assert_eq!(vi.get("cache_patched").unwrap().as_u64(), Some(1));
        assert_eq!(vi.get("cache_invalidated").unwrap().as_u64(), Some(0));
        let entered: Vec<u64> = vi
            .get("entered")
            .unwrap()
            .as_arr()
            .unwrap()
            .iter()
            .filter_map(Value::as_u64)
            .collect();
        assert_eq!(entered, vec![3], "the dominating insert entered");

        // The warm query at the new version answers from the patched
        // entry — no recompute — and matches a recompute exactly.
        let third = client::get(addr, "/skyline?dataset=t&algo=SFS").unwrap();
        let v3 = Value::parse(&third.body_str()).unwrap();
        assert_eq!(v3.get("cached").unwrap(), &Value::Bool(true));
        assert_eq!(
            v3.get("count").unwrap().as_u64(),
            Some(1),
            "new point dominates"
        );
        assert_eq!(v3.get("ids").unwrap().as_arr().unwrap().len(), 1);
    }

    #[test]
    fn subspace_skyband_and_bad_requests() {
        let server = start_test_server();
        let addr = server.local_addr();
        client::post(
            addr,
            "/datasets",
            r#"{"name": "s", "rows": [[1, 9, 9], [9, 1, 9], [9, 9, 1], [2, 2, 2]]}"#,
        )
        .unwrap();
        let sub = client::get(addr, "/skyline?dataset=s&algo=SaLSa&dims=0,1").unwrap();
        let v = Value::parse(&sub.body_str()).unwrap();
        assert_eq!(v.get("mask_bits").unwrap().as_u64(), Some(3));
        let band = client::get(addr, "/skyline?dataset=s&k=2").unwrap();
        let vb = Value::parse(&band.body_str()).unwrap();
        assert_eq!(vb.get("count").unwrap().as_u64(), Some(4));

        assert_eq!(client::get(addr, "/skyline").unwrap().status, 400);
        assert_eq!(
            client::get(addr, "/skyline?dataset=missing")
                .unwrap()
                .status,
            404
        );
        assert_eq!(
            client::get(addr, "/skyline?dataset=s&algo=bogus")
                .unwrap()
                .status,
            400
        );
        assert_eq!(
            client::get(addr, "/skyline?dataset=s&dims=7")
                .unwrap()
                .status,
            400
        );
        assert_eq!(
            client::get(addr, "/skyline?dataset=s&algo=BNL&threads=2")
                .unwrap()
                .status,
            400,
            "BNL has no parallel engine"
        );
    }

    #[test]
    fn shutdown_endpoint_stops_the_server() {
        let mut server = start_test_server();
        let addr = server.local_addr();
        let resp = client::post(addr, "/shutdown", "").unwrap();
        assert_eq!(resp.status, 200);
        server.wait(); // returns because the accept loop exited
        assert!(client::get(addr, "/healthz").is_err(), "listener is closed");
    }

    #[test]
    fn skyline_responses_carry_stage_times_and_echo_the_trace() {
        let server = start_test_server();
        let addr = server.local_addr();
        client::post(
            addr,
            "/datasets",
            r#"{"name": "tr", "rows": [[1, 5], [5, 1], [6, 6]]}"#,
        )
        .unwrap();

        let headers = vec![(trace::TRACE_HEADER.to_string(), "abc123".to_string())];
        let (resp, _timing) =
            client::request_timed(addr, "GET", "/skyline?dataset=tr&timings=1", &[], &headers)
                .unwrap();
        assert_eq!(resp.status, 200, "{}", resp.body_str());
        assert_eq!(resp.header(trace::TRACE_HEADER), Some("abc123"));
        let stage_times = resp.header(trace::STAGE_TIMES_HEADER).expect("stage times");
        let stages = trace::decode_stage_times(stage_times);
        let names: Vec<&str> = stages.iter().map(|(n, _)| n.as_str()).collect();
        // The first read after creation builds the version's snapshot.
        assert_eq!(
            names,
            ["parse", "cache", "snapshot", "compute", "extras", "respond"]
        );
        // A miss at a version whose snapshot is built has no such stage.
        let other = client::get(addr, "/skyline?dataset=tr&algo=SFS").unwrap();
        let stages = trace::decode_stage_times(other.header(trace::STAGE_TIMES_HEADER).unwrap());
        let names: Vec<&str> = stages.iter().map(|(n, _)| n.as_str()).collect();
        assert_eq!(names, ["parse", "cache", "compute", "extras", "respond"]);

        // `timings=1` also inlines the stages into the body (without the
        // `respond` stage, which only exists once the body is built).
        let v = Value::parse(&resp.body_str()).unwrap();
        let timings = v.get("timings").expect("timings field");
        assert!(timings.get("compute").unwrap().as_u64().is_some());
        assert!(timings.get("respond").is_none());

        // Without `timings=1` the body is unchanged but headers remain.
        let plain = client::get(addr, "/skyline?dataset=tr").unwrap();
        let vp = Value::parse(&plain.body_str()).unwrap();
        assert!(vp.get("timings").is_none());
        assert!(plain.header(trace::STAGE_TIMES_HEADER).is_some());
        assert!(
            plain.header(trace::TRACE_HEADER).is_none(),
            "no inherited trace"
        );

        // A malformed inherited trace id is ignored, not echoed.
        let bad = vec![(trace::TRACE_HEADER.to_string(), "not hex!".to_string())];
        let (resp, _) =
            client::request_timed(addr, "GET", "/skyline?dataset=tr", &[], &bad).unwrap();
        assert!(resp.header(trace::TRACE_HEADER).is_none());
    }

    #[test]
    fn change_feed_serves_dense_batches_with_ops_and_cursors() {
        let server = start_test_server();
        let addr = server.local_addr();
        client::post(
            addr,
            "/datasets",
            r#"{"name": "f", "rows": [[1.0, 5.0], [5.0, 1.0]]}"#,
        )
        .unwrap();
        client::post(addr, "/datasets/f/points", r#"{"rows": [[0.5, 0.5]]}"#).unwrap();

        let resp = client::get(addr, "/datasets/f/changes?since=0&ops=1").unwrap();
        assert_eq!(resp.status, 200, "{}", resp.body_str());
        let v = Value::parse(&resp.body_str()).unwrap();
        assert_eq!(v.get("since").unwrap().as_u64(), Some(0));
        assert_eq!(v.get("next").unwrap().as_u64(), Some(3));
        assert_eq!(v.get("latest").unwrap().as_u64(), Some(3));
        assert_eq!(v.get("heartbeat").unwrap(), &Value::Bool(false));
        let records = v.get("records").unwrap().as_arr().unwrap();
        assert_eq!(records.len(), 3, "create rows + one insert");
        for (i, r) in records.iter().enumerate() {
            assert_eq!(r.get("version").unwrap().as_u64(), Some(i as u64 + 1));
            assert!(r.get("row").is_some(), "ops=1 ships the raw insert");
        }

        // A mid-stream cursor returns only the suffix; without ops=1
        // the records are bare deltas.
        let resp = client::get(addr, "/datasets/f/changes?since=2").unwrap();
        let v = Value::parse(&resp.body_str()).unwrap();
        let records = v.get("records").unwrap().as_arr().unwrap();
        assert_eq!(records.len(), 1);
        assert!(records[0].get("row").is_none());

        // A future cursor is a heartbeat, not an error.
        let resp = client::get(addr, "/datasets/f/changes?since=99").unwrap();
        let v = Value::parse(&resp.body_str()).unwrap();
        assert_eq!(v.get("heartbeat").unwrap(), &Value::Bool(true));
        assert_eq!(v.get("next").unwrap().as_u64(), Some(99));

        assert_eq!(
            client::get(addr, "/datasets/nope/changes").unwrap().status,
            404
        );
        assert_eq!(
            client::get(addr, "/datasets/f/changes?since=junk")
                .unwrap()
                .status,
            400
        );
        assert_eq!(
            client::post(addr, "/datasets/f/changes", "")
                .unwrap()
                .status,
            405
        );
    }

    #[test]
    fn snapshot_endpoint_serves_the_wire_format() {
        let server = start_test_server();
        let addr = server.local_addr();
        client::post(
            addr,
            "/datasets",
            r#"{"name": "sn", "rows": [[1.0, 5.0], [5.0, 1.0]]}"#,
        )
        .unwrap();
        let resp = client::get(addr, "/datasets/sn/snapshot").unwrap();
        assert_eq!(resp.status, 200);
        let (dims, version, slots) = wal::parse_snapshot(&resp.body_str()).expect("parses");
        assert_eq!(dims, 2);
        assert_eq!(version, 2);
        assert_eq!(slots.len(), 2);
    }

    #[test]
    fn follower_mode_conflicts_with_a_data_dir() {
        let err = match Server::start(ServerConfig {
            follow: Some("127.0.0.1:1".parse().unwrap()),
            data_dir: Some(std::env::temp_dir().join("skyline-follow-conflict")),
            ..ServerConfig::default()
        }) {
            Err(e) => e,
            Ok(_) => panic!("follower mode must refuse a data dir"),
        };
        assert_eq!(err.kind(), std::io::ErrorKind::InvalidInput);
    }

    #[test]
    fn follower_converges_rejects_writes_and_reports_lag() {
        let primary = start_test_server();
        let paddr = primary.local_addr();
        client::post(
            addr_of(&primary),
            "/datasets",
            r#"{"name": "rep", "rows": [[1.0, 5.0], [5.0, 1.0], [6.0, 6.0]]}"#,
        )
        .unwrap();

        let follower = Server::start(ServerConfig {
            threads: 2,
            follow: Some(paddr),
            follow_wait_ms: 100,
            ..ServerConfig::default()
        })
        .expect("start follower");
        let faddr = follower.local_addr();

        // The follower discovers, resyncs and tails on its own threads.
        let deadline = Instant::now() + Duration::from_secs(10);
        let primary_ids = loop {
            let p = client::get(paddr, "/skyline?dataset=rep").unwrap();
            let f = client::get(faddr, "/skyline?dataset=rep");
            if let Ok(f) = &f {
                if f.status == 200 {
                    let pv = Value::parse(&p.body_str()).unwrap();
                    let fv = Value::parse(&f.body_str()).unwrap();
                    if pv.get("version") == fv.get("version") {
                        assert_eq!(pv.get("ids"), fv.get("ids"), "byte-identical skyline");
                        assert!(
                            f.header(replica::LAG_HEADER).is_some(),
                            "reads carry the lag header"
                        );
                        break pv.get("ids").unwrap().clone();
                    }
                }
            }
            assert!(Instant::now() < deadline, "follower never converged");
            std::thread::sleep(Duration::from_millis(25));
        };

        // A mutation on the primary flows through the feed.
        client::post(paddr, "/datasets/rep/points", r#"{"rows": [[0.5, 0.5]]}"#).unwrap();
        loop {
            let f = client::get(faddr, "/skyline?dataset=rep").unwrap();
            let fv = Value::parse(&f.body_str()).unwrap();
            if fv.get("version").unwrap().as_u64() == Some(4) {
                assert_eq!(fv.get("count").unwrap().as_u64(), Some(1));
                assert_ne!(fv.get("ids").unwrap(), &primary_ids);
                break;
            }
            assert!(Instant::now() < deadline, "mutation never replicated");
            std::thread::sleep(Duration::from_millis(25));
        }

        // Writes bounce with a redirect at the primary.
        let rejected =
            client::post(faddr, "/datasets/rep/points", r#"{"rows": [[0.1, 0.1]]}"#).unwrap();
        assert_eq!(rejected.status, 307);
        assert_eq!(
            rejected.header("location"),
            Some(format!("http://{paddr}/datasets/rep/points").as_str())
        );
        let create = client::post(faddr, "/datasets", r#"{"name": "x", "rows": [[1.0]]}"#).unwrap();
        assert_eq!(create.status, 307);

        // Role and replication telemetry are visible.
        let health = Value::parse(&client::get(faddr, "/healthz").unwrap().body_str()).unwrap();
        assert_eq!(health.get("role").unwrap().as_str(), Some("replica"));
        let metrics = Value::parse(&client::get(faddr, "/metrics").unwrap().body_str()).unwrap();
        let repl = metrics.get("replication").expect("replication section");
        assert!(repl.get("applied_total").unwrap().as_u64().unwrap() >= 1);
        let prom = client::get(faddr, "/metrics?format=prometheus").unwrap();
        let text = prom.body_str();
        assert!(text.contains("skyline_replica_applied_total"), "{text}");
        for family in [
            "skyline_replica_applied_total",
            "skyline_replica_duplicates_total",
            "skyline_replica_resyncs_total",
        ] {
            assert!(text.contains(&format!("# TYPE {family} counter")), "{text}");
        }
        assert!(
            text.contains("skyline_replica_lag_versions{dataset=\"rep\"}"),
            "{text}"
        );
    }

    fn addr_of(server: &ServerHandle) -> SocketAddr {
        server.local_addr()
    }

    #[test]
    fn metrics_expose_stage_histograms_cache_hit_rate_and_prometheus() {
        let server = start_test_server();
        let addr = server.local_addr();
        client::post(
            addr,
            "/datasets",
            r#"{"name": "m", "rows": [[1, 5], [5, 1]]}"#,
        )
        .unwrap();
        client::get(addr, "/skyline?dataset=m").unwrap();
        client::get(addr, "/skyline?dataset=m").unwrap(); // cache hit

        let metrics = client::get(addr, "/metrics").unwrap();
        let v = Value::parse(&metrics.body_str()).unwrap();
        let stages = v.get("stages").expect("stages object");
        for stage in ["parse", "cache", "compute", "respond"] {
            let s = stages.get(stage).unwrap_or_else(|| panic!("stage {stage}"));
            assert!(s.get("count").unwrap().as_u64().unwrap() >= 1);
            assert!(s.get("p99_us").unwrap().as_u64().is_some());
        }
        let cache = v.get("cache").unwrap();
        assert_eq!(cache.get("hits").unwrap().as_u64(), Some(1));
        assert_eq!(cache.get("misses").unwrap().as_u64(), Some(1));
        match cache.get("hit_rate").unwrap() {
            Value::Num(rate) => assert!((rate - 0.5).abs() < 1e-9),
            other => panic!("hit_rate not a number: {other:?}"),
        }

        let prom = client::get(addr, "/metrics?format=prometheus").unwrap();
        assert_eq!(prom.status, 200);
        assert!(prom
            .header("content-type")
            .unwrap()
            .starts_with("text/plain"));
        let text = prom.body_str();
        assert!(text.contains("# TYPE skyline_requests_total counter"));
        assert!(text.contains("# TYPE skyline_stage_us histogram"));
        assert!(text.contains("stage=\"compute\""));
        assert!(text.contains("le=\"+Inf\""));
        assert!(text.contains("skyline_cache_hit_rate 0.5"));
        for family in [
            "skyline_cache_hits_total",
            "skyline_cache_misses_total",
            "skyline_cache_evictions_total",
            "skyline_cache_invalidations_total",
            "skyline_cache_patched_total",
            "skyline_promotions_total",
            "skyline_demotions_total",
            "skyline_fenced_requests_total",
        ] {
            assert!(text.contains(&format!("# TYPE {family} counter")), "{text}");
        }
        assert!(text.contains("skyline_cache_hits_total 1"), "{text}");
        assert!(
            text.contains("# TYPE skyline_cache_hit_rate gauge"),
            "{text}"
        );

        let bad = client::get(addr, "/metrics?format=xml").unwrap();
        assert_eq!(bad.status, 400);
    }
}
