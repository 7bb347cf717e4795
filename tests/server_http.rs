//! End-to-end tests of the HTTP query service: byte-identical results
//! between the HTTP path and a direct library call, cache-hit semantics
//! on repeated queries, delta-patched cache entries under streaming
//! maintenance, protocol robustness against malformed requests, query
//! deadlines, and durable crash recovery.

use std::io::{Read, Write};
use std::net::TcpStream;
use std::time::Duration;

use skyline_algos::{algorithm_by_name, parallel_algorithm};
use skyline_core::dataset::Dataset;
use skyline_core::subspace::Subspace;
use skyline_integration_tests::{
    http_client as client, oracle_skyline, parse_skyline_response, rows_json, start_server,
};
use skyline_obs::json::Value;
use skyline_serve::{Server, ServerConfig};

fn workload_rows() -> Vec<Vec<f64>> {
    let spec = skyline_data::SyntheticSpec {
        distribution: skyline_data::Distribution::AntiCorrelated,
        cardinality: 400,
        dims: 5,
        seed: 0xD1CE,
    };
    let data = spec.generate();
    data.iter().map(|(_, row)| row.to_vec()).collect()
}

/// HTTP responses carry exactly the ids a direct library call produces,
/// across sequential and parallel engines.
#[test]
fn http_skyline_matches_direct_library_call() {
    let rows = workload_rows();
    let data = Dataset::from_rows(&rows).unwrap();
    let server = start_server();
    let addr = server.local_addr();
    let created = client::post(
        addr,
        "/datasets",
        &format!("{{\"name\": \"w\", \"rows\": {}}}", rows_json(&rows)),
    )
    .unwrap();
    assert_eq!(created.status, 201, "{}", created.body_str());

    // Handles are 0..n for a freshly created dataset, so direct row ids
    // and HTTP ids are directly comparable.
    let oracle = oracle_skyline(&data);
    for algo_name in ["SFS", "SaLSa-Subset", "SDI-Subset", "BSkyTree-S"] {
        let resp = client::get(addr, &format!("/skyline?dataset=w&algo={algo_name}")).unwrap();
        assert_eq!(resp.status, 200, "{}", resp.body_str());
        let (version, cached, ids) = parse_skyline_response(&resp.body_str());
        assert_eq!(version, rows.len() as u64);
        assert!(!cached, "first request for {algo_name} computes");
        let direct = algorithm_by_name(algo_name).unwrap().compute(&data);
        assert_eq!(ids, direct, "{algo_name}: HTTP != direct");
        assert_eq!(ids, oracle, "{algo_name}: != oracle");
    }

    // Parallel engine, selected by P-* name and by ?threads=.
    for query in ["algo=P-SFS-Subset", "algo=SDI-Subset&threads=3"] {
        let resp = client::get(addr, &format!("/skyline?dataset=w&{query}")).unwrap();
        assert_eq!(resp.status, 200, "{}", resp.body_str());
        let (_, _, ids) = parse_skyline_response(&resp.body_str());
        let direct = parallel_algorithm("SFS-Subset", None, 3)
            .unwrap()
            .compute(&data);
        assert_eq!(ids, direct, "{query}: HTTP != direct parallel");
        assert_eq!(ids, oracle, "{query}: != oracle");
    }
}

/// Subspace queries over HTTP match `project_dims` + compute locally.
#[test]
fn http_subspace_matches_direct_projection() {
    let rows = workload_rows();
    let data = Dataset::from_rows(&rows).unwrap();
    let server = start_server();
    let addr = server.local_addr();
    client::post(
        addr,
        "/datasets",
        &format!("{{\"name\": \"sub\", \"rows\": {}}}", rows_json(&rows)),
    )
    .unwrap();
    for dims in [vec![0usize, 2], vec![1, 3, 4], vec![2]] {
        let spec: Vec<String> = dims.iter().map(usize::to_string).collect();
        let resp = client::get(
            addr,
            &format!("/skyline?dataset=sub&algo=SaLSa&dims={}", spec.join(",")),
        )
        .unwrap();
        assert_eq!(resp.status, 200, "{}", resp.body_str());
        let (_, _, ids) = parse_skyline_response(&resp.body_str());
        let projected = data.project_dims(Subspace::from_dims(dims.iter().copied()));
        let direct = algorithm_by_name("SaLSa").unwrap().compute(&projected);
        assert_eq!(ids, direct, "dims {dims:?}: HTTP != direct");
    }
}

/// The second identical request is served from the cache with the same
/// ids; a different algorithm or subspace is a separate cache entry.
#[test]
fn second_identical_request_is_a_cache_hit() {
    let rows = workload_rows();
    let server = start_server();
    let addr = server.local_addr();
    client::post(
        addr,
        "/datasets",
        &format!("{{\"name\": \"c\", \"rows\": {}}}", rows_json(&rows)),
    )
    .unwrap();

    let first = client::get(addr, "/skyline?dataset=c&algo=SDI-Subset").unwrap();
    let (v1, cached1, ids1) = parse_skyline_response(&first.body_str());
    assert!(!cached1);
    let second = client::get(addr, "/skyline?dataset=c&algo=SDI-Subset").unwrap();
    let (v2, cached2, ids2) = parse_skyline_response(&second.body_str());
    assert!(cached2, "identical request must hit the cache");
    assert_eq!((v1, &ids1), (v2, &ids2), "cache returns identical ids");

    // Same dataset, different algorithm: its own key, so a miss — but
    // the same answer.
    let other = client::get(addr, "/skyline?dataset=c&algo=SFS").unwrap();
    let (_, cached3, ids3) = parse_skyline_response(&other.body_str());
    assert!(!cached3);
    assert_eq!(ids1, ids3);

    let stats = server.cache_stats();
    assert_eq!(stats.hits, 1, "{stats:?}");
    assert_eq!(stats.misses, 2, "{stats:?}");
}

/// Streaming maintenance patches the cache: a full-space cached entry
/// is carried forward by each mutation's skyline delta, so the next
/// response still answers warm — at the new version, with the new ids.
#[test]
fn streaming_mutation_patches_cache_and_updates_results() {
    let rows = vec![
        vec![1.0, 5.0, 5.0],
        vec![5.0, 1.0, 5.0],
        vec![5.0, 5.0, 1.0],
        vec![6.0, 6.0, 6.0],
    ];
    let server = start_server();
    let addr = server.local_addr();
    client::post(
        addr,
        "/datasets",
        &format!("{{\"name\": \"m\", \"rows\": {}}}", rows_json(&rows)),
    )
    .unwrap();

    let warm = client::get(addr, "/skyline?dataset=m&algo=SFS").unwrap();
    let (v0, _, ids0) = parse_skyline_response(&warm.body_str());
    assert_eq!(ids0, vec![0, 1, 2]);
    assert!(
        parse_skyline_response(
            &client::get(addr, "/skyline?dataset=m&algo=SFS")
                .unwrap()
                .body_str()
        )
        .1
    );

    // Insert a point that dominates everything: entered [4], left
    // [0, 1, 2] — the mutation patches the cached entry forward.
    let inserted =
        client::post(addr, "/datasets/m/points", "{\"rows\": [[0.5, 0.5, 0.5]]}").unwrap();
    assert_eq!(inserted.status, 200, "{}", inserted.body_str());
    assert!(
        inserted.body_str().contains("\"cache_patched\":1"),
        "{}",
        inserted.body_str()
    );
    let after = client::get(addr, "/skyline?dataset=m&algo=SFS").unwrap();
    let (v1, cached, ids1) = parse_skyline_response(&after.body_str());
    assert!(cached, "the patched entry answers the post-mutation query");
    assert!(v1 > v0);
    assert_eq!(ids1, vec![4], "the new point is the whole skyline");

    // Remove it again: the old skyline resurfaces under a new version,
    // still without a recompute.
    let removed = client::request(addr, "DELETE", "/datasets/m/points", b"{\"ids\": [4]}").unwrap();
    assert_eq!(removed.status, 200, "{}", removed.body_str());
    assert!(
        removed.body_str().contains("\"cache_patched\":1"),
        "{}",
        removed.body_str()
    );
    let last = client::get(addr, "/skyline?dataset=m&algo=SFS").unwrap();
    let (v2, cached2, ids2) = parse_skyline_response(&last.body_str());
    assert!(cached2);
    assert!(v2 > v1);
    assert_eq!(ids2, vec![0, 1, 2]);
}

/// The patched entry is not a guess: after an insert, the warm answer
/// (cache hit on the delta-patched entry, `cache_patched` counted in
/// `/metrics`) byte-matches a cold recompute of the same query.
#[test]
fn patched_cache_entry_matches_cold_recompute() {
    let rows = workload_rows();
    let server = start_server();
    let addr = server.local_addr();
    client::post(
        addr,
        "/datasets",
        &format!("{{\"name\": \"patch\", \"rows\": {}}}", rows_json(&rows)),
    )
    .unwrap();

    // Prime the entry, then mutate: a point dominating everything makes
    // the delta non-trivial (it enters, the whole old skyline leaves).
    let primed = client::get(addr, "/skyline?dataset=patch&algo=SDI-Subset").unwrap();
    assert_eq!(primed.status, 200, "{}", primed.body_str());
    let inserted = client::post(
        addr,
        "/datasets/patch/points",
        "{\"rows\": [[0.0, 0.0, 0.0, 0.0, 0.0]]}",
    )
    .unwrap();
    assert_eq!(inserted.status, 200, "{}", inserted.body_str());
    assert!(
        inserted.body_str().contains("\"cache_patched\":1"),
        "{}",
        inserted.body_str()
    );

    let hits_before = server.cache_stats().hits;
    let warm = client::get(addr, "/skyline?dataset=patch&algo=SDI-Subset").unwrap();
    let (warm_version, warm_cached, warm_ids) = parse_skyline_response(&warm.body_str());
    assert!(warm_cached, "patched entry must serve the query");
    assert_eq!(
        server.cache_stats().hits,
        hits_before + 1,
        "a hit, not a recompute"
    );
    assert_eq!(warm_version, rows.len() as u64 + 1);

    // Cold recompute of the same query: SFS has no cache entry yet, so
    // this one computes from the live structure.
    let cold = client::get(addr, "/skyline?dataset=patch&algo=SFS").unwrap();
    let (cold_version, cold_cached, cold_ids) = parse_skyline_response(&cold.body_str());
    assert!(!cold_cached, "fresh key must recompute");
    assert_eq!(cold_version, warm_version);
    assert_eq!(warm_ids, cold_ids, "patched answer must match recompute");
    assert_eq!(warm_ids, vec![rows.len() as u32]);

    // The patch shows up in both stats surfaces.
    assert_eq!(server.cache_stats().patched, 1);
    let metrics = client::get(addr, "/metrics").unwrap();
    let v = Value::parse(&metrics.body_str()).unwrap();
    assert_eq!(
        v.get("cache")
            .and_then(|c| c.get("patched"))
            .and_then(Value::as_u64),
        Some(1),
        "{}",
        metrics.body_str()
    );
}

/// The synthetic-spec form of `POST /datasets` generates server-side and
/// agrees with the same spec generated locally.
#[test]
fn synthetic_datasets_are_reproducible() {
    let server = start_server();
    let addr = server.local_addr();
    let created = client::post(
        addr,
        "/datasets",
        "{\"name\": \"gen\", \"synthetic\": {\"distribution\": \"AC\", \"n\": 250, \"dims\": 4, \"seed\": 7}}",
    )
    .unwrap();
    assert_eq!(created.status, 201, "{}", created.body_str());
    let resp = client::get(addr, "/skyline?dataset=gen&algo=SFS").unwrap();
    let (_, _, ids) = parse_skyline_response(&resp.body_str());
    let local = skyline_data::SyntheticSpec {
        distribution: skyline_data::Distribution::AntiCorrelated,
        cardinality: 250,
        dims: 4,
        seed: 7,
    }
    .generate();
    assert_eq!(ids, oracle_skyline(&local));
}

/// Write raw bytes on a fresh connection and read whatever comes back.
fn raw_exchange(addr: std::net::SocketAddr, payload: &[u8]) -> String {
    let mut stream = TcpStream::connect(addr).unwrap();
    stream
        .set_read_timeout(Some(Duration::from_secs(5)))
        .unwrap();
    stream.write_all(payload).unwrap();
    let mut out = Vec::new();
    let _ = stream.read_to_end(&mut out);
    String::from_utf8_lossy(&out).into_owned()
}

/// A garbage request line gets a well-formed 400, not a hang or a drop.
#[test]
fn garbage_request_line_gets_400() {
    let server = start_server();
    let reply = raw_exchange(server.local_addr(), b"complete nonsense\r\n\r\n");
    assert!(reply.starts_with("HTTP/1.1 400"), "got: {reply:?}");
}

/// More request headers than the cap is rejected with 400.
#[test]
fn too_many_headers_gets_400() {
    let server = start_server();
    let mut req = String::from("GET /healthz HTTP/1.1\r\nHost: x\r\n");
    for i in 0..200 {
        req.push_str(&format!("X-Pad-{i}: {i}\r\n"));
    }
    req.push_str("\r\n");
    let reply = raw_exchange(server.local_addr(), req.as_bytes());
    assert!(reply.starts_with("HTTP/1.1 400"), "got: {reply:?}");
}

/// A body larger than the configured cap is rejected with 413 before the
/// server buffers it.
#[test]
fn oversized_body_gets_413() {
    let server = Server::start(ServerConfig {
        max_body: 1024,
        ..ServerConfig::default()
    })
    .unwrap();
    let body = "x".repeat(4096);
    let req = format!(
        "POST /datasets HTTP/1.1\r\nHost: x\r\nContent-Length: {}\r\n\r\n{body}",
        body.len()
    );
    let reply = raw_exchange(server.local_addr(), req.as_bytes());
    assert!(reply.starts_with("HTTP/1.1 413"), "got: {reply:?}");
}

/// A body shorter than its Content-Length stalls until the read times
/// out; the connection is dropped and the server stays healthy.
#[test]
fn truncated_body_drops_connection_and_server_stays_healthy() {
    let server = Server::start(ServerConfig {
        request_timeout: Duration::from_millis(200),
        ..ServerConfig::default()
    })
    .unwrap();
    let addr = server.local_addr();
    let mut stream = TcpStream::connect(addr).unwrap();
    stream
        .set_read_timeout(Some(Duration::from_secs(5)))
        .unwrap();
    stream
        .write_all(b"POST /datasets HTTP/1.1\r\nHost: x\r\nContent-Length: 100\r\n\r\n{\"na")
        .unwrap();
    // The server times the read out and closes without a response.
    let mut out = Vec::new();
    let _ = stream.read_to_end(&mut out);
    assert!(out.is_empty(), "no response for a truncated body: {out:?}");
    // The worker survived: the next request on a fresh connection works.
    let ok = client::get(addr, "/healthz").unwrap();
    assert_eq!(ok.status, 200);
}

/// A 1 ms deadline on a large anti-correlated dataset cancels the
/// compute with 504, and the counter lands in `/metrics`.
#[test]
fn expired_deadline_returns_504_and_is_counted() {
    let spec = skyline_data::SyntheticSpec {
        distribution: skyline_data::Distribution::AntiCorrelated,
        cardinality: 6000,
        dims: 8,
        seed: 0xFEED,
    };
    let data = spec.generate();
    let rows: Vec<Vec<f64>> = data.iter().map(|(_, row)| row.to_vec()).collect();
    let server = start_server();
    let addr = server.local_addr();
    let created = client::post(
        addr,
        "/datasets",
        &format!("{{\"name\": \"big\", \"rows\": {}}}", rows_json(&rows)),
    )
    .unwrap();
    assert_eq!(created.status, 201, "{}", created.body_str());

    let resp = client::get(addr, "/skyline?dataset=big&algo=SDI-Subset&deadline_ms=1").unwrap();
    assert_eq!(resp.status, 504, "{}", resp.body_str());

    let metrics = client::get(addr, "/metrics").unwrap();
    let v = Value::parse(&metrics.body_str()).unwrap();
    assert!(
        v.get("deadline_exceeded_total").unwrap().as_u64().unwrap() >= 1,
        "{}",
        metrics.body_str()
    );

    // Without a deadline the same query completes.
    let ok = client::get(addr, "/skyline?dataset=big&algo=SDI-Subset").unwrap();
    assert_eq!(ok.status, 200, "{}", ok.body_str());
}

/// Bad `deadline_ms` values are rejected up front.
#[test]
fn bad_deadline_values_get_400() {
    let server = start_server();
    let addr = server.local_addr();
    client::post(addr, "/datasets", "{\"name\": \"d\", \"rows\": [[1, 2]]}").unwrap();
    for bad in ["abc", "0", "-5"] {
        let resp = client::get(addr, &format!("/skyline?dataset=d&deadline_ms={bad}")).unwrap();
        assert_eq!(resp.status, 400, "deadline_ms={bad}: {}", resp.body_str());
    }
}

/// Durable round trip: a server with a data dir is stopped and a new one
/// opened on the same dir; the dataset comes back at the same content
/// version with the same skyline.
#[test]
fn restart_recovers_datasets_from_the_data_dir() {
    let dir = std::env::temp_dir().join(format!("skyline-http-recover-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let rows = workload_rows();

    let (want_version, want_ids) = {
        let server = Server::start(ServerConfig {
            data_dir: Some(dir.clone()),
            ..ServerConfig::default()
        })
        .unwrap();
        let addr = server.local_addr();
        let created = client::post(
            addr,
            "/datasets",
            &format!("{{\"name\": \"dur\", \"rows\": {}}}", rows_json(&rows)),
        )
        .unwrap();
        assert_eq!(created.status, 201, "{}", created.body_str());
        client::post(
            addr,
            "/datasets/dur/points",
            "{\"rows\": [[0.01, 0.01, 0.01, 0.01, 0.01]]}",
        )
        .unwrap();
        client::request(addr, "DELETE", "/datasets/dur/points", b"{\"ids\": [3]}").unwrap();
        let resp = client::get(addr, "/skyline?dataset=dur&algo=SFS").unwrap();
        let (version, _, ids) = parse_skyline_response(&resp.body_str());
        (version, ids)
        // Dropping the handle shuts the first server down.
    };

    let server = Server::start(ServerConfig {
        data_dir: Some(dir.clone()),
        ..ServerConfig::default()
    })
    .unwrap();
    let addr = server.local_addr();
    let resp = client::get(addr, "/skyline?dataset=dur&algo=SFS").unwrap();
    assert_eq!(resp.status, 200, "{}", resp.body_str());
    let (version, _, ids) = parse_skyline_response(&resp.body_str());
    assert_eq!(version, want_version, "recovered to the acked version");
    assert_eq!(ids, want_ids, "recovered skyline matches pre-restart");

    let metrics = client::get(addr, "/metrics").unwrap();
    let v = Value::parse(&metrics.body_str()).unwrap();
    assert!(
        v.get("recovery_replayed_records")
            .unwrap()
            .as_u64()
            .unwrap()
            >= 1,
        "{}",
        metrics.body_str()
    );
    assert!(v.get("wal_bytes").unwrap().as_u64().unwrap() > 0);

    let _ = std::fs::remove_dir_all(&dir);
}

/// Opt-in `include_masks`/`include_rows` extras: absent by default
/// (existing responses unchanged), and when requested they carry the
/// exact per-point dominating-subspace masks, elite positions, and raw
/// coordinates the cluster coordinator consumes.
#[test]
fn skyline_extras_are_opt_in_and_exact() {
    // ±∞ are valid coordinates: `rows` must stay JSON and exact.
    let mut with_infinities = workload_rows();
    with_infinities.push(vec![f64::NEG_INFINITY, 2.0, 2.0, 2.0, 2.0]);
    with_infinities.push(vec![f64::INFINITY, -1.0, 0.5, 0.5, 0.5]);
    for rows in [workload_rows(), with_infinities] {
        let data = Dataset::from_rows(&rows).unwrap();
        let server = start_server();
        let addr = server.local_addr();
        let created = client::post(
            addr,
            "/datasets",
            &format!("{{\"name\": \"x\", \"rows\": {}}}", rows_json(&rows)),
        )
        .unwrap();
        assert_eq!(created.status, 201, "{}", created.body_str());

        // Default and explicit-zero responses carry no extras.
        for query in ["", "&include_masks=0&include_rows=0"] {
            let resp = client::get(addr, &format!("/skyline?dataset=x{query}")).unwrap();
            assert_eq!(resp.status, 200);
            let v = Value::parse(&resp.body_str()).unwrap();
            assert!(v.get("masks").is_none(), "masks must be opt-in");
            assert!(v.get("elites").is_none());
            assert!(v.get("rows").is_none());
        }

        // Twice: the second request is a cache hit, and extras must be
        // recomputed identically for it.
        let mut bodies = Vec::new();
        for _ in 0..2 {
            let resp =
                client::get(addr, "/skyline?dataset=x&include_masks=1&include_rows=1").unwrap();
            assert_eq!(resp.status, 200, "{}", resp.body_str());
            bodies.push(resp.body_str());
        }
        let first = Value::parse(&bodies[0]).unwrap();
        let second = Value::parse(&bodies[1]).unwrap();
        assert_eq!(
            second.get("cached").map(|v| matches!(v, Value::Bool(true))),
            Some(true),
            "{}",
            bodies[1]
        );

        for v in [&first, &second] {
            let ids: Vec<u32> = v
                .get("ids")
                .and_then(Value::as_arr)
                .unwrap()
                .iter()
                .map(|x| x.as_u64().unwrap() as u32)
                .collect();
            let masks: Vec<u64> = v
                .get("masks")
                .and_then(Value::as_arr)
                .expect("masks requested")
                .iter()
                .map(|x| x.as_u64().unwrap())
                .collect();
            let elites: Vec<usize> = v
                .get("elites")
                .and_then(Value::as_arr)
                .expect("elites requested")
                .iter()
                .map(|x| x.as_u64().unwrap() as usize)
                .collect();
            assert_eq!(masks.len(), ids.len(), "masks parallel to ids");
            assert!(
                elites.iter().all(|&e| e < ids.len()),
                "elite positions in range"
            );
            for extreme in 400..rows.len() as u32 {
                assert!(
                    ids.contains(&extreme),
                    "±inf row {extreme} is a skyline point"
                );
            }

            // The server must agree with a local run of the same helpers
            // (handles are 0..n, so ids are row indices).
            let elite_ids = skyline_core::shard_merge::select_reference_elites(&data, &ids);
            let expected_masks: Vec<u64> =
                skyline_core::shard_merge::reference_masks(&data, &ids, &elite_ids)
                    .iter()
                    .map(|s| s.bits())
                    .collect();
            assert_eq!(masks, expected_masks, "masks match the library helpers");
            let expected_elites: Vec<usize> = elite_ids
                .iter()
                .map(|e| ids.iter().position(|x| x == e).unwrap())
                .collect();
            assert_eq!(elites, expected_elites);

            // Rows round-trip the exact coordinates.
            let resp_rows = v
                .get("rows")
                .and_then(Value::as_arr)
                .expect("rows requested");
            assert_eq!(resp_rows.len(), ids.len());
            for (arr, &id) in resp_rows.iter().zip(&ids) {
                let got: Vec<f64> = arr
                    .as_arr()
                    .unwrap()
                    .iter()
                    .map(|x| x.as_f64().unwrap())
                    .collect();
                assert_eq!(got.as_slice(), data.point(id), "row {id} must be exact");
            }
        }

        // Masks are skyline-only (k=1) and the flag is strictly 0/1.
        let resp = client::get(addr, "/skyline?dataset=x&include_masks=1&k=2").unwrap();
        assert_eq!(resp.status, 400, "{}", resp.body_str());
        let resp = client::get(addr, "/skyline?dataset=x&include_masks=yes").unwrap();
        assert_eq!(resp.status, 400);
    }
}

/// Writes never build the read snapshot, and a version builds it at
/// most once: a cached or patched read answers from the version alone,
/// and only a miss or a read with extras takes rows. Each write's
/// reply explains where its time went.
#[test]
fn writes_never_build_snapshots_and_a_version_builds_one_at_most_once() {
    let spec = skyline_data::SyntheticSpec {
        distribution: skyline_data::Distribution::AntiCorrelated,
        cardinality: 220,
        dims: 4,
        seed: 0x1A2E,
    };
    let rows: Vec<Vec<f64>> = spec
        .generate()
        .iter()
        .map(|(_, row)| row.to_vec())
        .collect();
    let server = start_server();
    let addr = server.local_addr();
    let created = client::post(
        addr,
        "/datasets",
        &format!(
            "{{\"name\": \"lazy\", \"rows\": {}}}",
            rows_json(&rows[..200])
        ),
    )
    .unwrap();
    assert_eq!(created.status, 201, "{}", created.body_str());

    // Inserts only, so handles are row indices and version v holds
    // exactly the first v rows.
    let mut reads = 0;
    let mut read = |query: &str, want_cached: bool| {
        reads += 1;
        let resp = client::get(addr, &format!("/skyline?dataset=lazy&{query}")).unwrap();
        assert_eq!(resp.status, 200, "{query}: {}", resp.body_str());
        let body = resp.body_str();
        let (version, cached, ids) = parse_skyline_response(&body);
        assert_eq!(cached, want_cached, "{query} at version {version}");
        let data = Dataset::from_rows(&rows[..version as usize]).unwrap();
        assert_eq!(ids, oracle_skyline(&data), "{query} at version {version}");
        (version, ids, body)
    };

    read("algo=SDI-Subset", false);
    for row in &rows[200..] {
        let body = format!("{{\"rows\": {}}}", rows_json(std::slice::from_ref(row)));
        let resp = client::post(addr, "/datasets/lazy/points", &body).unwrap();
        assert_eq!(resp.status, 200, "{}", resp.body_str());
        let stage_times = resp
            .header(skyline_obs::trace::STAGE_TIMES_HEADER)
            .expect("a write reply carries its stage times");
        let stages = skyline_obs::trace::decode_stage_times(stage_times);
        let names: Vec<&str> = stages.iter().map(|(n, _)| n.as_str()).collect();
        assert_eq!(
            names,
            ["lock", "wal", "apply", "compact", "notify", "patch"]
        );
        read("algo=SDI-Subset", true);
    }
    let (version, _, _) = read("algo=SFS", false);
    assert_eq!(version, rows.len() as u64);
    read("algo=SaLSa-Subset", false);
    let (_, ids, body) = read("algo=SDI-Subset&include_rows=1", true);
    let v = Value::parse(&body).unwrap();
    let got_rows = v.get("rows").and_then(Value::as_arr).expect("rows");
    assert_eq!(got_rows.len(), ids.len());
    for (row, &id) in got_rows.iter().zip(&ids) {
        let row: Vec<f64> = row
            .as_arr()
            .unwrap()
            .iter()
            .map(|x| x.as_f64().unwrap())
            .collect();
        assert_eq!(row, rows[id as usize], "row of point {id}");
    }

    let metrics = client::get(addr, "/metrics").unwrap();
    let v = Value::parse(&metrics.body_str()).unwrap();
    let count = |stage: &str| {
        v.get("stages")
            .and_then(|s| s.get(stage))
            .and_then(|s| s.get("count"))
            .and_then(Value::as_u64)
    };
    assert_eq!(
        count("snapshot"),
        Some(2),
        "one build for the first read, one for the first miss after the writes: {}",
        metrics.body_str()
    );
    assert_eq!(count("lock"), Some(20), "one write stage per write");
    assert_eq!(
        count("parse"),
        Some(reads),
        "writes leave the read stages alone"
    );
    let stats = server.cache_stats();
    assert_eq!((stats.hits, stats.misses), (21, 3), "{stats:?}");
}
