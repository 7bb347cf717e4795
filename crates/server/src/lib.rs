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
//! The routes, one private module each, dispatched from this file:
//!
//! - `query` — `GET /skyline`: the read-your-writes gate, the cache
//!   probe, the engine run on a miss and the opt-in extras;
//! - `mutation` — `POST /datasets` and `POST|DELETE
//!   /datasets/{name}/points`, each patching the cache forward;
//! - `feed` — the change feed and the snapshot a follower resyncs from;
//! - `failover` — the fencing check, `POST /promote`, `POST /demote`,
//!   and a follower's write redirect and lag header;
//! - `admin` — `GET /healthz`, `GET /datasets` and `GET /metrics`.
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

mod admin;
pub mod api;
pub mod cache;
pub mod client;
mod failover;
pub mod faults;
mod feed;
pub mod http;
pub mod metrics;
mod mutation;
pub mod pool;
mod query;
pub mod registry;
pub mod replica;
pub mod service;
pub mod wal;

use std::net::SocketAddr;
use std::path::PathBuf;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::Duration;

use skyline_obs::Event;

use admin::{handle_healthz, handle_list, handle_metrics};
use cache::ResultCache;
use failover::{fence_check, handle_demote, handle_promote, replica_redirect};
use feed::{handle_changes, handle_snapshot};
use http::{Request, Response};
use mutation::{handle_create, handle_insert, handle_remove};
use query::handle_skyline;
use registry::{Registry, RegistryError};
use replica::Role;
use service::{FrontConfig, FrontEnd, Service};

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

/// Connection backlog (queued, not yet picked up by a worker) before
/// the accept loop sheds with 503.
const QUEUE_LIMIT: usize = 1024;

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
            queue_limit: QUEUE_LIMIT,
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

#[cfg(test)]
mod tests {
    use super::*;
    use skyline_obs::json::Value;
    use skyline_obs::trace;
    use std::time::Instant;

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
