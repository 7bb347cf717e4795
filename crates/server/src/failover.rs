//! Fencing and role flips on a node: the epoch check on stamped
//! requests, `POST /promote` and `POST /demote`, and a follower's write
//! redirect and lag header. The follower itself is [`crate::replica`].

use std::net::SocketAddr;
use std::sync::atomic::Ordering;

use skyline_obs::json::{ObjectWriter, Value};
use skyline_obs::Event;

use crate::api::parse_body;
use crate::http::{Request, Response};
use crate::replica::{self, Role};
use crate::{Shared, EPOCH_HEADER, PRIMARY_HEADER};

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
/// When the request names this node, and it is a primary, the succession
/// it missed made it the primary of that epoch: it adopts the epoch,
/// durably, and serves the request. A node demoted toward it under that
/// epoch would otherwise be refused on every feed poll.
pub(crate) fn fence_check(shared: &Shared, req: &Request, endpoint: &str) -> Option<Response> {
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
    let named = req
        .header(PRIMARY_HEADER)
        .and_then(|p| p.parse::<SocketAddr>().ok());
    if request_epoch > node_epoch
        && named == Some(shared.front.addr)
        && shared.failover.adopt_epoch(request_epoch)
    {
        // As on a demotion: a durable node that fails the write
        // re-learns the epoch from the next stamped request.
        let _ = shared.registry.persist_epoch(request_epoch);
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
        if let Some(primary) = named.filter(|p| *p != shared.front.addr) {
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
pub(crate) fn handle_promote(shared: &Shared, req: &Request) -> Response {
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
pub(crate) fn handle_demote(shared: &Shared, req: &Request) -> Response {
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

/// On a follower, writes answer 307 with a `Location` pointing the
/// client at the primary; `None` on a primary (handle normally).
pub(crate) fn replica_redirect(shared: &Shared, path: &str) -> Option<Response> {
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
pub(crate) fn with_replica_lag(shared: &Shared, dataset: &str, resp: Response) -> Response {
    match shared.failover.role() {
        Role::Follower { .. } => resp.with_header(
            replica::LAG_HEADER,
            &shared.failover.lag_of(dataset).to_string(),
        ),
        Role::Primary => resp,
    }
}
