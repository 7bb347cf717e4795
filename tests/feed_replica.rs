//! Change-feed and replication integration tests, over real sockets:
//! dense cursors, long-poll heartbeats and wake-ups, retention (410
//! Gone + `oldest_version`), compaction racing a subscriber, and the
//! differential pin — a follower fed only by the change stream must
//! byte-match the primary at every version it acknowledges.

use std::net::SocketAddr;
use std::time::{Duration, Instant};

use skyline_core::metrics::Metrics;
use skyline_core::point::PointId;
use skyline_core::streaming::StreamingSkyline;
use skyline_integration_tests::{http_client as client, parse_skyline_response, rows_json};
use skyline_obs::json::Value;
use skyline_serve::replica::LAG_HEADER;
use skyline_serve::{Server, ServerConfig, ServerHandle};

fn memory_server(feed_retain: usize) -> ServerHandle {
    Server::start(ServerConfig {
        threads: 4,
        feed_retain,
        ..ServerConfig::default()
    })
    .expect("start server")
}

fn follower_of(primary: SocketAddr) -> ServerHandle {
    Server::start(ServerConfig {
        threads: 4,
        follow: Some(primary),
        follow_wait_ms: 200,
        ..ServerConfig::default()
    })
    .expect("start follower")
}

fn temp_data_dir(tag: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join(format!("skyline-feed-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn get_json(addr: SocketAddr, path: &str) -> (u16, Value) {
    let resp = client::get(addr, path).expect("request");
    let v = Value::parse(&resp.body_str())
        .unwrap_or_else(|e| panic!("bad JSON from {path}: {e}: {}", resp.body_str()));
    (resp.status, v)
}

fn u64_field(v: &Value, field: &str) -> u64 {
    v.get(field)
        .and_then(Value::as_u64)
        .unwrap_or_else(|| panic!("missing u64 field {field:?}"))
}

/// The versions carried by a `/changes` batch's records.
fn record_versions(v: &Value) -> Vec<u64> {
    v.get("records")
        .and_then(Value::as_arr)
        .expect("records")
        .iter()
        .map(|r| u64_field(r, "version"))
        .collect()
}

/// Cursors are dense and resumable: any `since` yields exactly the
/// suffix after it, `next` always re-fetches the rest, and re-reading
/// the same cursor returns byte-identical batches (duplicate-friendly).
#[test]
fn cursors_are_dense_resumable_and_rereadable() {
    let server = memory_server(4096);
    let addr = server.local_addr();
    let created = client::post(
        addr,
        "/datasets",
        "{\"name\": \"f\", \"rows\": [[1, 9], [9, 1]]}",
    )
    .unwrap();
    assert_eq!(created.status, 201, "{}", created.body_str());
    for i in 0..4 {
        let body = format!("{{\"rows\": [[{}, {}]]}}", 8 - i, 8 - i);
        let ok = client::post(addr, "/datasets/f/points", &body).unwrap();
        assert_eq!(ok.status, 200, "{}", ok.body_str());
    }

    // 2 creation rows + 4 inserts = versions 1..=6, served densely.
    let (status, full) = get_json(addr, "/datasets/f/changes?since=0");
    assert_eq!(status, 200);
    assert_eq!(record_versions(&full), vec![1, 2, 3, 4, 5, 6]);
    assert_eq!(u64_field(&full, "next"), 6);
    assert_eq!(u64_field(&full, "latest"), 6);
    assert_eq!(u64_field(&full, "oldest"), 1);

    // Any mid-stream cursor serves exactly the suffix after it.
    for since in 0..=6u64 {
        let (status, batch) = get_json(addr, &format!("/datasets/f/changes?since={since}"));
        assert_eq!(status, 200);
        let expected: Vec<u64> = (since + 1..=6).collect();
        assert_eq!(record_versions(&batch), expected, "since={since}");
        assert_eq!(u64_field(&batch, "next"), 6);
    }

    // limit walks the feed in steps; following `next` loses nothing.
    let mut cursor = 0u64;
    let mut seen = Vec::new();
    loop {
        let (status, page) = get_json(addr, &format!("/datasets/f/changes?since={cursor}&limit=2"));
        assert_eq!(status, 200);
        let versions = record_versions(&page);
        if versions.is_empty() {
            break;
        }
        seen.extend(versions);
        cursor = u64_field(&page, "next");
    }
    assert_eq!(seen, vec![1, 2, 3, 4, 5, 6]);

    // Re-reading a cursor is idempotent: byte-identical bodies, so an
    // at-least-once consumer can crash and re-fetch freely.
    let a = client::get(addr, "/datasets/f/changes?since=2&ops=1").unwrap();
    let b = client::get(addr, "/datasets/f/changes?since=2&ops=1").unwrap();
    assert_eq!(a.body_str(), b.body_str());
}

/// An idle subscriber never hangs: the long poll is held for roughly
/// `wait_ms`, then answered with a heartbeat whose cursor is unchanged.
#[test]
fn idle_subscriber_gets_heartbeat_with_unchanged_cursor() {
    let server = memory_server(4096);
    let addr = server.local_addr();
    client::post(
        addr,
        "/datasets",
        "{\"name\": \"idle\", \"rows\": [[1, 1]]}",
    )
    .unwrap();

    let start = Instant::now();
    let (status, v) = get_json(
        addr,
        "/datasets/idle/changes?since=1&subscribe=1&wait_ms=400",
    );
    let held = start.elapsed();
    assert_eq!(status, 200);
    assert!(
        held >= Duration::from_millis(300),
        "long poll returned too early: {held:?}"
    );
    assert!(
        held < Duration::from_secs(5),
        "long poll hung far past wait_ms: {held:?}"
    );
    assert_eq!(v.get("heartbeat"), Some(&Value::Bool(true)));
    assert_eq!(
        u64_field(&v, "next"),
        1,
        "heartbeat must not move the cursor"
    );
    assert!(record_versions(&v).is_empty());
}

/// A parked subscriber wakes as soon as a write lands — well before
/// its `wait_ms` budget — and receives the new record.
#[test]
fn subscriber_wakes_on_mutation_before_timeout() {
    let server = memory_server(4096);
    let addr = server.local_addr();
    client::post(
        addr,
        "/datasets",
        "{\"name\": \"wake\", \"rows\": [[5, 5]]}",
    )
    .unwrap();

    let sub = std::thread::spawn(move || {
        let start = Instant::now();
        let resp = client::get(
            addr,
            "/datasets/wake/changes?since=1&subscribe=1&wait_ms=10000&ops=1",
        )
        .unwrap();
        (resp.status, resp.body_str(), start.elapsed())
    });
    std::thread::sleep(Duration::from_millis(150));
    let ok = client::post(addr, "/datasets/wake/points", "{\"rows\": [[1, 1]]}").unwrap();
    assert_eq!(ok.status, 200, "{}", ok.body_str());

    let (status, body, held) = sub.join().expect("subscriber thread");
    assert_eq!(status, 200, "{body}");
    let v = Value::parse(&body).unwrap();
    assert_eq!(record_versions(&v), vec![2], "{body}");
    assert_eq!(v.get("heartbeat"), Some(&Value::Bool(false)));
    assert!(
        held < Duration::from_secs(8),
        "woke by timeout, not by the write: {held:?}"
    );
}

/// Once retention drops a cursor's suffix, the feed refuses it loudly:
/// 410 Gone plus the `oldest_version` the client must restart from.
#[test]
fn stale_cursor_gets_410_gone_with_oldest_version() {
    let server = memory_server(4);
    let addr = server.local_addr();
    client::post(addr, "/datasets", "{\"name\": \"ret\", \"rows\": [[9, 9]]}").unwrap();
    for i in 0..11 {
        let body = format!("{{\"rows\": [[{}, {}]]}}", 20 - i, 20 - i);
        let ok = client::post(addr, "/datasets/ret/points", &body).unwrap();
        assert_eq!(ok.status, 200, "{}", ok.body_str());
    }

    // 12 versions with 4 retained: versions 1..=8 are gone.
    let (status, gone) = get_json(addr, "/datasets/ret/changes?since=0");
    assert_eq!(status, 410, "{gone:?}");
    let oldest = u64_field(&gone, "oldest_version");
    assert_eq!(oldest, 9);
    assert!(gone.get("error").and_then(Value::as_str).is_some());

    // Restarting from the advertised horizon works and is dense.
    let (status, batch) = get_json(addr, &format!("/datasets/ret/changes?since={}", oldest - 1));
    assert_eq!(status, 200);
    assert_eq!(record_versions(&batch), vec![9, 10, 11, 12]);

    // A caught-up cursor past the horizon is fine even after trimming.
    let (status, tip) = get_json(addr, "/datasets/ret/changes?since=12");
    assert_eq!(status, 200);
    assert!(record_versions(&tip).is_empty());
    assert_eq!(u64_field(&tip, "next"), 12);
}

/// Satellite pin: WAL compaction racing a live subscriber. A slow
/// consumer whose cursor falls behind the retention window gets an
/// explicit 410 + `oldest_version` — never silently wrong data — and
/// the horizon survives a restart from the compacted WAL.
#[test]
fn compaction_races_subscriber_and_survives_restart() {
    let dir = temp_data_dir("compact-race");
    let addr;
    {
        let server = Server::start(ServerConfig {
            threads: 4,
            data_dir: Some(dir.clone()),
            compact_bytes: 256,
            feed_retain: 4,
            ..ServerConfig::default()
        })
        .unwrap();
        addr = server.local_addr();
        client::post(addr, "/datasets", "{\"name\": \"c\", \"rows\": [[50, 50]]}").unwrap();

        // Slow subscriber: one record per fetch, from the beginning.
        let sub = std::thread::spawn(move || {
            let mut cursor = 0u64;
            let mut saw_gone = false;
            let mut served = Vec::new();
            for _ in 0..200 {
                let resp =
                    client::get(addr, &format!("/datasets/c/changes?since={cursor}&limit=1"))
                        .unwrap();
                let v = Value::parse(&resp.body_str()).unwrap();
                match resp.status {
                    200 => {
                        let versions = record_versions(&v);
                        // Whatever is served must continue the cursor
                        // densely — a gap would be silent data loss.
                        for (i, &ver) in versions.iter().enumerate() {
                            assert_eq!(ver, cursor + 1 + i as u64);
                        }
                        served.extend(versions);
                        cursor = u64_field(&v, "next");
                    }
                    410 => {
                        saw_gone = true;
                        // Resume exactly at the advertised horizon.
                        cursor = u64_field(&v, "oldest_version") - 1;
                    }
                    other => panic!("unexpected status {other}: {}", resp.body_str()),
                }
                if cursor >= 40 {
                    break;
                }
                std::thread::sleep(Duration::from_millis(2));
            }
            (saw_gone, served, cursor)
        });

        // Meanwhile the primary mutates fast, far past `feed_retain`,
        // with `compact_bytes` small enough to compact repeatedly.
        for i in 0..39 {
            let body = format!("{{\"rows\": [[{}, {}]]}}", 100 - i, 100 - i);
            let ok = client::post(addr, "/datasets/c/points", &body).unwrap();
            assert_eq!(ok.status, 200, "{}", ok.body_str());
        }

        let (saw_gone, served, cursor) = sub.join().expect("subscriber");
        assert!(
            saw_gone,
            "retention 4 vs 40 versions: the slow subscriber must hit 410"
        );
        assert!(!served.is_empty());
        assert_eq!(cursor, 40, "subscriber caught up to the tip");
    }

    // Restart from the compacted WAL: the horizon is still honest. The
    // snapshot swallowed the early records, so `since=0` is stale.
    let server = Server::start(ServerConfig {
        threads: 4,
        data_dir: Some(dir.clone()),
        compact_bytes: 256,
        feed_retain: 4,
        ..ServerConfig::default()
    })
    .unwrap();
    let addr = server.local_addr();
    let (status, gone) = get_json(addr, "/datasets/c/changes?since=0");
    assert_eq!(
        status, 410,
        "compacted history must refuse since=0: {gone:?}"
    );
    let oldest = u64_field(&gone, "oldest_version");
    assert!(oldest > 1, "compaction moved the horizon: oldest={oldest}");
    let (status, batch) = get_json(addr, &format!("/datasets/c/changes?since={}", oldest - 1));
    assert_eq!(status, 200);
    let versions = record_versions(&batch);
    assert_eq!(versions.first(), Some(&oldest));
    assert_eq!(versions.last(), Some(&40));
    let _ = std::fs::remove_dir_all(&dir);
}

/// The differential acceptance pin: a follower consuming only the
/// change feed must byte-match the primary at EVERY version it
/// acknowledges — with retention small enough that it is also forced
/// through the 410 → snapshot-resync path, and a removal in the mix.
#[test]
fn follower_byte_matches_primary_at_every_acknowledged_version() {
    let primary = memory_server(8);
    let paddr = primary.local_addr();
    let follower = follower_of(paddr);
    let faddr = follower.local_addr();

    // Mirror the primary locally: same rows in the same order produce
    // the same ids, so `expected[version]` is the ground truth.
    let mut mirror = StreamingSkyline::new(2).expect("mirror");
    let mut metrics = Metrics::default();
    let mut expected: std::collections::HashMap<u64, Vec<PointId>> =
        std::collections::HashMap::new();

    let rows: Vec<Vec<f64>> = (0..30)
        .map(|i| {
            let x = f64::from((i * 37) % 50) + 1.0;
            vec![x, 60.0 - x]
        })
        .collect();
    client::post(
        paddr,
        "/datasets",
        &format!("{{\"name\":\"diff\",\"rows\":{}}}", rows_json(&rows[..2])),
    )
    .unwrap();
    for row in &rows[..2] {
        mirror.insert_delta(row, &mut metrics).unwrap();
        expected.insert(mirror.version(), mirror.skyline());
    }
    for row in &rows[2..] {
        let ok = client::post(
            paddr,
            "/datasets/diff/points",
            &format!("{{\"rows\": {}}}", rows_json(std::slice::from_ref(row))),
        )
        .unwrap();
        assert_eq!(ok.status, 200, "{}", ok.body_str());
        mirror.insert_delta(row, &mut metrics).unwrap();
        expected.insert(mirror.version(), mirror.skyline());
    }
    // One removal, so `left` events replicate too.
    let victim = mirror.skyline()[0];
    let del = client::request(
        paddr,
        "DELETE",
        "/datasets/diff/points",
        format!("{{\"ids\": [{victim}]}}").as_bytes(),
    )
    .unwrap();
    assert_eq!(del.status, 200, "{}", del.body_str());
    mirror.remove_delta(victim, &mut metrics).unwrap();
    expected.insert(mirror.version(), mirror.skyline());
    let tip = mirror.version();

    // Every answer the follower ever serves must match the mirror at
    // that exact version — not just the final state.
    let deadline = Instant::now() + Duration::from_secs(20);
    let mut converged = false;
    while Instant::now() < deadline {
        if let Ok(resp) = client::get(faddr, "/skyline?dataset=diff") {
            if resp.status == 200 {
                let (version, _, ids) = parse_skyline_response(&resp.body_str());
                let want = expected
                    .get(&version)
                    .unwrap_or_else(|| panic!("follower served unacknowledged version {version}"));
                assert_eq!(
                    &ids, want,
                    "follower diverged from the primary at version {version}"
                );
                assert!(
                    resp.header(LAG_HEADER).is_some(),
                    "follower reads must carry {LAG_HEADER}"
                );
                if version == tip {
                    converged = true;
                    break;
                }
            }
        }
        std::thread::sleep(Duration::from_millis(20));
    }
    assert!(converged, "follower never reached the primary tip {tip}");

    // Writes against the follower are refused with a redirect home.
    let refused = client::post(faddr, "/datasets/diff/points", "{\"rows\": [[1, 1]]}").unwrap();
    assert_eq!(refused.status, 307, "{}", refused.body_str());
    let location = refused.header("location").expect("Location header");
    assert_eq!(location, format!("http://{paddr}/datasets/diff/points"));
}

/// `body` without its `elapsed_us` field: the rest of a `/skyline`
/// answer is deterministic.
fn without_elapsed(body: &str) -> String {
    let start = body.find("\"elapsed_us\":").expect("elapsed_us field");
    let end = start + body[start..].find(',').expect("a field follows");
    format!("{}{}", &body[..start], &body[end + 1..])
}

/// A follower carries its cached answers across a replicated write by
/// the record's delta, as the primary does for the write itself: the
/// next follower read is a hit with the primary's answer.
#[test]
fn follower_patches_its_cache_with_each_replicated_delta() {
    let primary = memory_server(4096);
    let paddr = primary.local_addr();
    let rows: Vec<Vec<f64>> = (0..40)
        .map(|i| {
            let x = f64::from((i * 13) % 40) + 1.0;
            vec![x, 41.0 - x, f64::from((i * 7) % 11) + 1.0]
        })
        .collect();
    let created = client::post(
        paddr,
        "/datasets",
        &format!("{{\"name\":\"pc\",\"rows\":{}}}", rows_json(&rows)),
    )
    .unwrap();
    assert_eq!(created.status, 201, "{}", created.body_str());
    let follower = follower_of(paddr);
    let faddr = follower.local_addr();
    let query = "/skyline?dataset=pc&algo=SFS";

    // Both nodes cache the answer at the synced version.
    let deadline = Instant::now() + Duration::from_secs(20);
    loop {
        let resp = client::get(faddr, query).unwrap();
        if resp.status == 200 && parse_skyline_response(&resp.body_str()).0 == 40 {
            break;
        }
        assert!(Instant::now() < deadline, "follower never synced");
        std::thread::sleep(Duration::from_millis(20));
    }
    assert_eq!(client::get(paddr, query).unwrap().status, 200);

    let ok = client::post(paddr, "/datasets/pc/points", "{\"rows\": [[2, 2, 2]]}").unwrap();
    assert_eq!(ok.status, 200, "{}", ok.body_str());
    let ack = Value::parse(&ok.body_str()).unwrap();
    assert_eq!(u64_field(&ack, "cache_patched"), 1, "the primary patched");
    assert!(!ack.get("left").and_then(Value::as_arr).unwrap().is_empty());

    let patched = |addr| {
        let (_, v) = get_json(addr, "/metrics");
        u64_field(v.get("cache").expect("cache stats"), "patched")
    };
    let deadline = Instant::now() + Duration::from_secs(20);
    while patched(faddr) == 0 {
        assert!(
            Instant::now() < deadline,
            "the follower never patched its cached answer"
        );
        std::thread::sleep(Duration::from_millis(20));
    }
    let on_follower = client::get(faddr, query).unwrap().body_str();
    let on_primary = client::get(paddr, query).unwrap().body_str();
    let (version, cached, _) = parse_skyline_response(&on_follower);
    assert_eq!((version, cached), (41, true), "{on_follower}");
    assert_eq!(without_elapsed(&on_follower), without_elapsed(&on_primary));
    assert_eq!(patched(faddr), 1);
}
