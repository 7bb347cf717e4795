//! Writes on the coordinator: `POST /datasets` and `POST`/`DELETE
//! /datasets/{name}/points`, fanned out to the owning shards and
//! recorded in the registry and the manifest as the shards acknowledge.

use std::sync::{Arc, Mutex};

use skyline_obs::json::{self, ObjectWriter, Value};
use skyline_serve::api::{self, NewDataset};
use skyline_serve::client::ClientResponse;
use skyline_serve::http::{Request, Response};

use crate::rpc::{encode_component, reply_handles, scatter, shard_rpc};
use crate::shard_map::{shard_of, DatasetState};
use crate::{dataset, Shared};

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
pub(crate) fn parse_insert_handles(resp: &ClientResponse) -> Result<Vec<u32>, String> {
    let v = Value::parse(&resp.body_str()).map_err(|e| format!("bad insert response: {e}"))?;
    reply_handles(&v)
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
pub(crate) fn handle_create(shared: &Shared, req: &Request) -> Result<Response, Response> {
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
pub(crate) fn quoted(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    skyline_obs::json::escape_into(s, &mut out);
    out.push('"');
    out
}

/// `POST /datasets/{name}/points` — body `{"rows": [[...], ...]}`;
/// rows get fresh global ids and are routed to their owning shards.
/// Holds the dataset's own lock across the fan-out.
pub(crate) fn handle_insert(
    shared: &Shared,
    name: &str,
    req: &Request,
) -> Result<Response, Response> {
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

/// `DELETE /datasets/{name}/points` — body `{"ids": [...]}` with
/// *global* ids; the registry maps them to shard-local handles. Holds
/// the dataset's own lock across the fan-out.
pub(crate) fn handle_remove(
    shared: &Shared,
    name: &str,
    req: &Request,
) -> Result<Response, Response> {
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
