//! The change feed a follower tails, `GET /datasets/{name}/changes`,
//! and the snapshot it resyncs from, `GET /datasets/{name}/snapshot`.

use std::time::{Duration, Instant};

use skyline_obs::json::ObjectWriter;
use skyline_obs::Event;

use crate::http::{Request, Response};
use crate::{api, registry_response, replica, Shared};

/// Feed long-poll ceiling, ms — below the 30 s request timeout so a
/// subscriber's held request always answers before the socket dies.
const MAX_WAIT_MS: u64 = 25_000;

/// `GET /datasets/{name}/changes?since=&limit=&ops=&subscribe=&wait_ms=`
/// — the change feed. Returns records strictly after `since` plus a
/// `next` cursor; `subscribe=1` long-polls until a change lands or the
/// hold expires into an explicit heartbeat (empty batch, unchanged
/// cursor); a cursor behind the retention horizon answers 410 Gone
/// with `oldest_version` so the consumer knows to resync.
pub(crate) fn handle_changes(
    shared: &Shared,
    name: &str,
    req: &Request,
) -> Result<Response, Response> {
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
pub(crate) fn handle_snapshot(shared: &Shared, name: &str) -> Response {
    match shared.registry.get(name) {
        Ok(entry) => Response::json(200, entry.snapshot_doc()),
        Err(e) => registry_response(e),
    }
}
