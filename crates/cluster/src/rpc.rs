//! Shard calls: the retrying RPC with per-shard counters and trace
//! events, replica-first read legs under the staleness bound, and the
//! concurrent `scatter` every fan-out runs on.

use std::io;
use std::net::SocketAddr;
use std::sync::atomic::Ordering;
use std::time::{Duration, Instant};

use skyline_obs::json::{Field, Value};
use skyline_obs::trace::{self, TraceContext};
use skyline_obs::Event;
use skyline_serve::client::{request_with_retry_timed, ClientResponse, RequestTiming, RetryPolicy};

use crate::Shared;

/// Percent-encode one URL component (dataset names, algorithm names).
pub(crate) fn encode_component(s: &str) -> String {
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
pub(crate) fn shard_rpc(
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
        None,
        budget,
        ctx,
    )
}

/// [`shard_rpc`] against an explicit address — the same counters and
/// trace events (attributed to the shard index), but aimed at a read
/// replica instead of the primary — optionally conditional on
/// `if_none_match`.
#[allow(clippy::too_many_arguments)]
fn shard_rpc_at(
    shared: &Shared,
    shard: usize,
    addr: SocketAddr,
    method: &str,
    endpoint: &str,
    path: &str,
    body: &[u8],
    if_none_match: Option<&str>,
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
    if let Some(etag) = if_none_match {
        headers.push(("If-None-Match".to_string(), etag.to_string()));
    }
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
    if status == 304 {
        stats.not_modified.fetch_add(1, Ordering::Relaxed);
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

/// Route one `/skyline` read leg, conditional on `etag` when an answer
/// is held for the shard: prefer the shard's replicas (round-robin) and
/// accept a replica's 200 or 304 only when it is fresh enough; anything
/// else — unreachable replica, error status, missing lag header,
/// staleness beyond the bound — falls back to the primary. Writes never
/// come through here.
pub(crate) fn shard_read_rpc(
    shared: &Shared,
    shard: usize,
    path: &str,
    etag: Option<&str>,
    budget: Option<Duration>,
    ctx: Option<&TraceContext>,
) -> io::Result<(ClientResponse, RequestTiming)> {
    let leg = |addr| {
        shard_rpc_at(
            shared,
            shard,
            addr,
            "GET",
            "/skyline",
            path,
            &[],
            etag,
            budget,
            ctx,
        )
    };
    let followers = shared.replicas_of(shard);
    if !followers.is_empty() {
        let pick = shared.replica_rr.fetch_add(1, Ordering::Relaxed) % followers.len();
        shared.replica_requests.fetch_add(1, Ordering::Relaxed);
        match leg(followers[pick]) {
            Ok((resp, timing))
                if matches!(resp.status, 200 | 304)
                    && replica_is_fresh(&resp, shared.replica_staleness) =>
            {
                return Ok((resp, timing));
            }
            _ => {
                shared.replica_fallbacks.fetch_add(1, Ordering::Relaxed);
            }
        }
    }
    leg(shared.primary_of(shard))
}

/// The `ids` of a shard's reply, as shard-local handles. A node lists
/// them strictly ascending, so an id beyond `u32`, a repeat or any other
/// order means the reply cannot be trusted.
pub(crate) fn reply_handles(reply: &Value) -> Result<Vec<u32>, String> {
    let handles: Vec<u32> = reply
        .get("ids")
        .and_then(Field::read)
        .ok_or("shard reply lacks \"ids\" as shard handles")?;
    if handles.windows(2).any(|pair| pair[0] >= pair[1]) {
        return Err("shard reply ids are not strictly ascending".to_string());
    }
    Ok(handles)
}

/// Run `f(shard)` for every shard concurrently and gather the results
/// in shard order.
pub(crate) fn scatter<T: Send>(shard_count: usize, f: impl Fn(usize) -> T + Sync) -> Vec<T> {
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
