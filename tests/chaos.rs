//! Chaos harness: drives the server through injected faults — WAL I/O
//! errors, slow writes, torn log tails, handler panics, and overload —
//! and asserts it degrades *correctly*: unacked writes are rejected
//! whole, recovery lands on the last acked version, panics turn into
//! 500s, and excess load is shed with 503 + `Retry-After`.
//!
//! Requires the `chaos` feature (`--features chaos --test chaos`),
//! which compiles the fault probes into `skyline-serve`.

use std::sync::Mutex;
use std::time::{Duration, Instant};

use skyline_core::dataset::Dataset;
use skyline_core::delta::SkylineDelta;
use skyline_core::metrics::Metrics;
use skyline_core::streaming::StreamingSkyline;
use skyline_integration_tests::{
    http_client as client, oracle_skyline, parse_skyline_response, rows_json,
};
use skyline_obs::json::Value;
use skyline_serve::faults::{self, Fault};
use skyline_serve::wal::{self, FsyncPolicy};
use skyline_serve::{Server, ServerConfig, ServerHandle};

/// The fault table is process-global, so chaos tests must not overlap.
static FAULT_LOCK: Mutex<()> = Mutex::new(());

/// Serialises a test and guarantees the fault table is clean on entry
/// and on exit, even when the test panics.
struct FaultScope<'a> {
    _guard: std::sync::MutexGuard<'a, ()>,
}

impl FaultScope<'_> {
    fn enter() -> FaultScope<'static> {
        let guard = FAULT_LOCK.lock().unwrap_or_else(|e| e.into_inner());
        faults::clear();
        FaultScope { _guard: guard }
    }
}

impl Drop for FaultScope<'_> {
    fn drop(&mut self) {
        faults::clear();
    }
}

fn sample_rows() -> Vec<Vec<f64>> {
    let spec = skyline_data::SyntheticSpec {
        distribution: skyline_data::Distribution::AntiCorrelated,
        cardinality: 120,
        dims: 4,
        seed: 0xC0DE,
    };
    let data = spec.generate();
    data.iter().map(|(_, row)| row.to_vec()).collect()
}

fn start_memory_server(max_inflight: usize) -> ServerHandle {
    Server::start(ServerConfig {
        threads: 4,
        max_inflight,
        ..ServerConfig::default()
    })
    .expect("start chaos server")
}

fn temp_data_dir(tag: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join(format!("skyline-chaos-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// A WAL write error rejects the whole batch — nothing is applied, the
/// client sees 500 — and once the fault clears, writes succeed again.
#[test]
fn wal_io_error_rejects_the_write_whole_then_recovers() {
    let _scope = FaultScope::enter();
    let dir = temp_data_dir("walerr");
    let server = Server::start(ServerConfig {
        data_dir: Some(dir.clone()),
        ..ServerConfig::default()
    })
    .unwrap();
    let addr = server.local_addr();
    let created = client::post(addr, "/datasets", "{\"name\": \"w\", \"rows\": [[1, 2]]}").unwrap();
    assert_eq!(created.status, 201, "{}", created.body_str());

    faults::inject("wal_append", Fault::IoError(1));
    let failed = client::post(addr, "/datasets/w/points", "{\"rows\": [[0.5, 0.5]]}").unwrap();
    assert_eq!(failed.status, 500, "{}", failed.body_str());
    assert!(
        failed.body_str().contains("durability failure"),
        "{}",
        failed.body_str()
    );

    // Nothing was applied: still one point at the creation version.
    let resp = client::get(addr, "/skyline?dataset=w").unwrap();
    let (version, _, ids) = parse_skyline_response(&resp.body_str());
    assert_eq!(version, 1, "unacked insert did not move the version");
    assert_eq!(ids, vec![0]);

    // Fault budget exhausted: the retried insert succeeds.
    let ok = client::post(addr, "/datasets/w/points", "{\"rows\": [[0.5, 0.5]]}").unwrap();
    assert_eq!(ok.status, 200, "{}", ok.body_str());
    let _ = std::fs::remove_dir_all(&dir);
}

/// A remove whose WAL append fails leaves no trace: not in memory, not
/// on the change feed, not in the versions later writes get, and not
/// after a restart.
#[test]
fn wal_io_error_on_a_remove_leaves_no_trace() {
    let _scope = FaultScope::enter();
    let dir = temp_data_dir("walremove");
    let start = || {
        Server::start(ServerConfig {
            data_dir: Some(dir.clone()),
            fsync: FsyncPolicy::Always,
            ..ServerConfig::default()
        })
        .unwrap()
    };
    let server = start();
    let addr = server.local_addr();
    let created = client::post(
        addr,
        "/datasets",
        r#"{"name": "r", "rows": [[1, 5], [5, 1], [6, 6]]}"#,
    )
    .unwrap();
    assert_eq!(created.status, 201, "{}", created.body_str());

    faults::inject("wal_append", Fault::IoError(1));
    let failed = client::request(addr, "DELETE", "/datasets/r/points", br#"{"ids": [0]}"#).unwrap();
    assert_eq!(failed.status, 500, "{}", failed.body_str());

    let listed = client::get(addr, "/datasets").unwrap().body_str();
    assert!(
        listed.contains(r#""points":3,"skyline":2,"version":3"#),
        "{listed}"
    );
    let changes = "/datasets/r/changes?since=3&ops=1";
    let feed = client::get(addr, changes).unwrap().body_str();
    assert!(feed.contains(r#""records":[]"#), "{feed}");

    let ok = client::post(addr, "/datasets/r/points", r#"{"rows": [[7, 7]]}"#).unwrap();
    assert_eq!(ok.status, 200, "{}", ok.body_str());
    let acked = Value::parse(&ok.body_str()).unwrap();
    assert_eq!(acked.get("version").and_then(Value::as_u64), Some(4));
    let skyline = |addr| {
        let resp = client::get(addr, "/skyline?dataset=r&algo=SFS").unwrap();
        assert_eq!(resp.status, 200, "{}", resp.body_str());
        let (version, _, ids) = parse_skyline_response(&resp.body_str());
        (version, ids)
    };
    let before = (
        skyline(addr),
        client::get(addr, changes).unwrap().body_str(),
    );
    assert_eq!(before.0, (4, vec![0, 1]), "point 0 is still live");

    drop(server);
    let server = start();
    let addr = server.local_addr();
    let after = (
        skyline(addr),
        client::get(addr, changes).unwrap().body_str(),
    );
    assert_eq!(after, before, "a restart answers as before it");
    let _ = std::fs::remove_dir_all(&dir);
}

/// Slow WAL writes slow the ack but do not fail it.
#[test]
fn slow_wal_writes_delay_the_ack_but_succeed() {
    let _scope = FaultScope::enter();
    let dir = temp_data_dir("walslow");
    let server = Server::start(ServerConfig {
        data_dir: Some(dir.clone()),
        ..ServerConfig::default()
    })
    .unwrap();
    let addr = server.local_addr();
    client::post(addr, "/datasets", "{\"name\": \"s\", \"rows\": [[1, 2]]}").unwrap();

    faults::inject("wal_append", Fault::Delay(Duration::from_millis(80)));
    let t = Instant::now();
    let ok = client::post(addr, "/datasets/s/points", "{\"rows\": [[3, 4]]}").unwrap();
    let elapsed = t.elapsed();
    assert_eq!(ok.status, 200, "{}", ok.body_str());
    assert!(
        elapsed >= Duration::from_millis(70),
        "ack waited for the WAL"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

/// A handler panic is isolated into a 500, counted in `/metrics`, and
/// the server keeps serving.
#[test]
fn handler_panic_becomes_500_and_server_stays_up() {
    let _scope = FaultScope::enter();
    let server = start_memory_server(0);
    let addr = server.local_addr();

    faults::inject("handler", Fault::Panic(1));
    let resp = client::get(addr, "/healthz").unwrap();
    assert_eq!(resp.status, 500, "{}", resp.body_str());
    assert!(resp.body_str().contains("panicked"), "{}", resp.body_str());

    let ok = client::get(addr, "/healthz").unwrap();
    assert_eq!(ok.status, 200, "server survived the panic");
    let metrics = client::get(addr, "/metrics").unwrap();
    let v = Value::parse(&metrics.body_str()).unwrap();
    assert!(
        v.get("panics_total").unwrap().as_u64().unwrap() >= 1,
        "{}",
        metrics.body_str()
    );
}

/// With `max_inflight = 1` and a slow compute pinning the only slot, a
/// concurrent query is shed immediately with 503 + `Retry-After`.
#[test]
fn overload_sheds_quickly_with_retry_after() {
    let _scope = FaultScope::enter();
    let server = start_memory_server(1);
    let addr = server.local_addr();
    let rows = sample_rows();
    let created = client::post(
        addr,
        "/datasets",
        &format!("{{\"name\": \"load\", \"rows\": {}}}", rows_json(&rows)),
    )
    .unwrap();
    assert_eq!(created.status, 201, "{}", created.body_str());

    faults::inject("compute", Fault::Delay(Duration::from_millis(400)));
    let slow = std::thread::spawn(move || client::get(addr, "/skyline?dataset=load").unwrap());
    // Let the slow query take the only admission slot.
    std::thread::sleep(Duration::from_millis(100));

    let t = Instant::now();
    let shed = client::get(addr, "/skyline?dataset=load&algo=SFS").unwrap();
    let elapsed = t.elapsed();
    assert_eq!(shed.status, 503, "{}", shed.body_str());
    assert_eq!(shed.header("retry-after"), Some("1"), "{:?}", shed.headers);
    assert!(
        elapsed < Duration::from_millis(50),
        "shedding must be immediate, took {elapsed:?}"
    );

    let slow_resp = slow.join().unwrap();
    assert_eq!(slow_resp.status, 200, "the admitted query completed");

    let metrics = client::get(addr, "/metrics").unwrap();
    let v = Value::parse(&metrics.body_str()).unwrap();
    assert!(
        v.get("shed_total").unwrap().as_u64().unwrap() >= 1,
        "{}",
        metrics.body_str()
    );
}

/// A torn WAL tail (crash mid-append) is truncated at recovery: the
/// server boots, drops the torn suffix, and serves exactly the acked
/// prefix — verified against the brute-force oracle.
#[test]
fn torn_wal_tail_recovers_to_the_last_acked_version() {
    let _scope = FaultScope::enter();
    let dir = temp_data_dir("torn");
    let rows = sample_rows();

    let acked_version = {
        // fsync=always so every acked record is on disk when we "crash".
        let server = Server::start(ServerConfig {
            data_dir: Some(dir.clone()),
            fsync: FsyncPolicy::Always,
            ..ServerConfig::default()
        })
        .unwrap();
        let addr = server.local_addr();
        let created = client::post(
            addr,
            "/datasets",
            &format!("{{\"name\": \"t\", \"rows\": {}}}", rows_json(&rows)),
        )
        .unwrap();
        assert_eq!(created.status, 201, "{}", created.body_str());
        let resp = client::get(addr, "/skyline?dataset=t&algo=SFS").unwrap();
        parse_skyline_response(&resp.body_str()).0
    };

    // Simulate a crash mid-append: a torn, unterminated record at the
    // tail of the log.
    let wal_path = dir.join("t.wal");
    let mut torn = std::fs::read(&wal_path).unwrap();
    torn.extend_from_slice(b"{\"op\":\"insert\",\"v\":999,\"row\":[0.0");
    std::fs::write(&wal_path, &torn).unwrap();

    let server = Server::start(ServerConfig {
        data_dir: Some(dir.clone()),
        ..ServerConfig::default()
    })
    .unwrap();
    let addr = server.local_addr();
    let resp = client::get(addr, "/skyline?dataset=t&algo=SFS").unwrap();
    assert_eq!(resp.status, 200, "{}", resp.body_str());
    let (version, _, ids) = parse_skyline_response(&resp.body_str());
    assert_eq!(
        version, acked_version,
        "torn suffix dropped, acked prefix kept"
    );
    let oracle = oracle_skyline(&Dataset::from_rows(&rows).unwrap());
    assert_eq!(
        ids, oracle,
        "recovered skyline equals the brute-force oracle"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

/// WAL replay reconstructs the *delta stream*, not just the final
/// state: after a simulated kill -9 (torn record at the log tail, no
/// graceful handover), recovery must re-produce exactly the versioned
/// enter/leave sets the uncrashed process emitted — with a
/// `wal_append`-fault-rejected mutation leaving no trace in the stream.
#[test]
fn wal_replay_reconstructs_the_live_delta_stream() {
    let _scope = FaultScope::enter();
    let dir = temp_data_dir("deltastream");
    let initial = vec![
        vec![1.0, 5.0, 5.0],
        vec![5.0, 1.0, 5.0],
        vec![5.0, 5.0, 1.0],
        vec![6.0, 6.0, 6.0],
    ];

    // The uncrashed run's delta stream, mirrored independently of the
    // server: same rows, same order, same handles.
    let mut mirror = StreamingSkyline::new(3).unwrap();
    let mut metrics = Metrics::new();
    let mut live_stream: Vec<SkylineDelta> = Vec::new();
    for row in &initial {
        let (_, d) = mirror.insert_delta(row, &mut metrics).unwrap();
        live_stream.push(d);
    }

    {
        let server = Server::start(ServerConfig {
            data_dir: Some(dir.clone()),
            fsync: FsyncPolicy::Always,
            ..ServerConfig::default()
        })
        .unwrap();
        let addr = server.local_addr();
        let created = client::post(
            addr,
            "/datasets",
            &format!("{{\"name\": \"d\", \"rows\": {}}}", rows_json(&initial)),
        )
        .unwrap();
        assert_eq!(created.status, 201, "{}", created.body_str());

        // A WAL-rejected mutation is not acked, so it must contribute
        // nothing to either stream (and burn no handle).
        faults::inject("wal_append", Fault::IoError(1));
        let failed =
            client::post(addr, "/datasets/d/points", "{\"rows\": [[0.5, 0.5, 0.5]]}").unwrap();
        assert_eq!(failed.status, 500, "{}", failed.body_str());
        faults::clear();

        // Acked mutations: a dominator enters (old skyline leaves), a
        // dominated row moves only the version, the dominator's removal
        // resurrects the old skyline, a final fresh point enters.
        let script: Vec<(&str, &str)> = vec![
            ("POST", "{\"rows\": [[0.5, 0.5, 0.5]]}"),
            ("POST", "{\"rows\": [[7.0, 7.0, 7.0]]}"),
            ("DELETE", "{\"ids\": [4]}"),
            ("POST", "{\"rows\": [[0.25, 6.0, 6.0]]}"),
        ];
        for (method, body) in script {
            let resp =
                client::request(addr, method, "/datasets/d/points", body.as_bytes()).unwrap();
            assert_eq!(resp.status, 200, "{method} {body}: {}", resp.body_str());
            let d = match method {
                "POST" => {
                    let row: Vec<f64> = Value::parse(body)
                        .unwrap()
                        .get("rows")
                        .and_then(Value::as_arr)
                        .unwrap()[0]
                        .as_arr()
                        .unwrap()
                        .iter()
                        .map(|x| x.as_f64().unwrap())
                        .collect();
                    mirror.insert_delta(&row, &mut metrics).unwrap().1
                }
                _ => mirror.remove_delta(4, &mut metrics).unwrap(),
            };
            // The server's live response must already carry the
            // mirror's delta — version, entered, and left.
            let v = Value::parse(&resp.body_str()).unwrap();
            let ids = |field: &str| -> Vec<u32> {
                v.get(field)
                    .and_then(Value::as_arr)
                    .unwrap_or_else(|| panic!("{field} missing: {}", resp.body_str()))
                    .iter()
                    .map(|x| x.as_u64().unwrap() as u32)
                    .collect()
            };
            assert_eq!(v.get("version").and_then(Value::as_u64), Some(d.version));
            assert_eq!(ids("entered"), d.entered, "{method} {body}");
            assert_eq!(ids("left"), d.left, "{method} {body}");
            live_stream.push(d);
        }
        // Dropping the handle stops the server; fsync=always means every
        // acked record is already on disk, like a kill -9 after the ack.
    }

    // Kill -9 mid-append: a torn, unterminated record at the tail.
    let wal_path = dir.join("d.wal");
    let mut torn = std::fs::read(&wal_path).unwrap();
    torn.extend_from_slice(b"{\"op\":\"insert\",\"v\":999,\"row\":[0.0");
    std::fs::write(&wal_path, &torn).unwrap();

    // Replay through the recovery path itself and compare streams.
    let recovered = wal::recover(&wal::StorageConfig::new(dir.clone()), "d")
        .unwrap()
        .expect("dataset recovers");
    let replayed: Vec<_> = recovered.records.iter().map(|r| r.delta.clone()).collect();
    assert_eq!(
        replayed, live_stream,
        "replayed delta stream must equal the uncrashed run's"
    );
    assert_eq!(recovered.stream.version(), mirror.version());
    assert_eq!(recovered.stream.skyline(), mirror.skyline());
    let _ = std::fs::remove_dir_all(&dir);
}

/// A snapshot failure during compaction is non-fatal: the write is
/// acked from the log alone and the dataset stays fully recoverable.
#[test]
fn snapshot_failure_is_tolerated_and_data_survives() {
    let _scope = FaultScope::enter();
    let dir = temp_data_dir("snapfail");
    let acked = {
        let server = Server::start(ServerConfig {
            data_dir: Some(dir.clone()),
            fsync: FsyncPolicy::Always,
            ..ServerConfig::default()
        })
        .unwrap();
        let addr = server.local_addr();
        client::post(addr, "/datasets", "{\"name\": \"p\", \"rows\": [[5, 5]]}").unwrap();
        faults::inject("snapshot", Fault::IoError(100));
        // Insert enough to cross any compaction threshold attempt.
        for i in 0..50 {
            let ok = client::post(
                addr,
                "/datasets/p/points",
                &format!("{{\"rows\": [[{}, {}]]}}", i + 6, i + 6),
            )
            .unwrap();
            assert_eq!(ok.status, 200, "{}", ok.body_str());
        }
        faults::clear();
        let resp = client::get(addr, "/skyline?dataset=p").unwrap();
        parse_skyline_response(&resp.body_str())
    };

    let server = Server::start(ServerConfig {
        data_dir: Some(dir.clone()),
        ..ServerConfig::default()
    })
    .unwrap();
    let addr = server.local_addr();
    let resp = client::get(addr, "/skyline?dataset=p").unwrap();
    let (version, _, ids) = parse_skyline_response(&resp.body_str());
    assert_eq!(version, acked.0);
    assert_eq!(ids, acked.2);
    let _ = std::fs::remove_dir_all(&dir);
}

/// At-least-once pin: the feed may deliver any record any number of
/// times, and version arithmetic makes that harmless — every duplicate
/// is a no-op, while a version *gap* is refused outright rather than
/// silently applied. No delivery schedule can skip a version.
#[test]
fn feed_delivery_is_at_least_once_and_never_skips() {
    let _scope = FaultScope::enter();
    let server = start_memory_server(64);
    let addr = server.local_addr();
    client::post(
        addr,
        "/datasets",
        "{\"name\": \"alo\", \"rows\": [[9, 1], [1, 9]]}",
    )
    .unwrap();
    for i in 0..6 {
        let body = format!("{{\"rows\": [[{}, {}]]}}", 8 - i, 8 - i);
        assert_eq!(
            client::post(addr, "/datasets/alo/points", &body)
                .unwrap()
                .status,
            200
        );
    }
    let resp = client::get(addr, "/datasets/alo/changes?since=0&ops=1").unwrap();
    assert_eq!(resp.status, 200, "{}", resp.body_str());
    let (records, _latest) =
        skyline_serve::replica::parse_batch(&Value::parse(&resp.body_str()).unwrap())
            .expect("parse feed batch");
    assert_eq!(records.len(), 8, "2 creation rows + 6 inserts");

    // A follower built from nothing, fed the batch once: all applied.
    let registry = skyline_serve::registry::Registry::with_feed_retain(64);
    let empty = StreamingSkyline::restore(2, &[], 0).unwrap();
    let entry = registry.install_replica("alo", empty).unwrap();
    for record in &records {
        assert!(matches!(
            entry.apply_replicated(record).unwrap(),
            skyline_serve::registry::ReplicaApply::Applied
        ));
    }
    let converged = entry.streaming_skyline();

    // The same batch redelivered whole — twice: pure no-ops.
    for _ in 0..2 {
        for record in &records {
            assert!(matches!(
                entry.apply_replicated(record).unwrap(),
                skyline_serve::registry::ReplicaApply::Duplicate
            ));
        }
    }
    assert_eq!(
        entry.streaming_skyline(),
        converged,
        "duplicate delivery must not change the replica"
    );

    // A gapped delivery — record 1, then record 3 — is refused, and the
    // refusal leaves the replica exactly where it was.
    let gapped = registry
        .install_replica("gap", StreamingSkyline::restore(2, &[], 0).unwrap())
        .unwrap();
    assert!(matches!(
        gapped.apply_replicated(&records[0]).unwrap(),
        skyline_serve::registry::ReplicaApply::Applied
    ));
    let before = gapped.streaming_skyline();
    assert!(matches!(
        gapped.apply_replicated(&records[2]).unwrap(),
        skyline_serve::registry::ReplicaApply::Diverged(_)
    ));
    assert_eq!(
        gapped.streaming_skyline(),
        before,
        "a refused gap must not touch the replica"
    );
}

/// Kill -9 the primary mid-stream: the follower keeps its cursor
/// through the outage and reconnect-replays from it once the primary
/// restarts on the same address — ending byte-identical, no resync.
#[test]
fn follower_replays_from_cursor_after_primary_kill_and_restart() {
    let _scope = FaultScope::enter();
    let dir = temp_data_dir("replay");
    let paddr;
    {
        let primary = Server::start(ServerConfig {
            data_dir: Some(dir.clone()),
            fsync: FsyncPolicy::Always,
            ..ServerConfig::default()
        })
        .unwrap();
        paddr = primary.local_addr();
        client::post(
            paddr,
            "/datasets",
            "{\"name\": \"r\", \"rows\": [[9, 1], [1, 9]]}",
        )
        .unwrap();
        for i in 0..4 {
            let body = format!("{{\"rows\": [[{}, {}]]}}", 8 - i, 8 - i);
            assert_eq!(
                client::post(paddr, "/datasets/r/points", &body)
                    .unwrap()
                    .status,
                200
            );
        }

        // Follower outlives the primary's first incarnation.
        let follower = Server::start(ServerConfig {
            follow: Some(paddr),
            follow_wait_ms: 100,
            ..ServerConfig::default()
        })
        .unwrap();
        let faddr = follower.local_addr();
        wait_for_follower(faddr, "r", 6);

        // fsync=always: dropping the handle is a kill -9 after the last
        // ack. The follower is left long-polling a dead socket.
        drop(primary);
        std::thread::sleep(Duration::from_millis(300));

        // Restart on the SAME address with the SAME WAL; a follower
        // must be able to resume its cursor against the reborn primary.
        let primary = restart_on(paddr, &dir);
        for i in 0..3 {
            let body = format!("{{\"rows\": [[{}, {}]]}}", 3 - i, 3 - i);
            assert_eq!(
                client::post(paddr, "/datasets/r/points", &body)
                    .unwrap()
                    .status,
                200,
                "restarted primary rejects writes"
            );
        }
        wait_for_follower(faddr, "r", 9);

        // Byte-identical at the tip, and the follower never resynced a
        // second time: the cursor replay alone carried it across.
        let p = client::get(paddr, "/skyline?dataset=r").unwrap();
        let f = client::get(faddr, "/skyline?dataset=r").unwrap();
        assert_eq!(
            parse_skyline_response(&p.body_str()).2,
            parse_skyline_response(&f.body_str()).2,
            "follower diverged across the primary restart"
        );
        let metrics = client::get(faddr, "/metrics").unwrap();
        let v = Value::parse(&metrics.body_str()).unwrap();
        let rep = v.get("replication").expect("replication metrics");
        assert_eq!(
            rep.get("resyncs_total").and_then(Value::as_u64),
            Some(1),
            "only the initial sync: the restart was bridged by replay: {}",
            metrics.body_str()
        );
        drop(primary);
    }
    let _ = std::fs::remove_dir_all(&dir);
}

/// Replica lag under write load: while the primary absorbs a stream of
/// inserts, every answer the follower serves must match the primary's
/// state at that exact version — laggy is fine, wrong is not — and the
/// lag histogram in `/metrics` must be populated.
#[test]
fn replica_serves_consistent_prefixes_under_load() {
    let _scope = FaultScope::enter();
    let primary = start_memory_server(64);
    let paddr = primary.local_addr();
    let follower = Server::start(ServerConfig {
        follow: Some(paddr),
        follow_wait_ms: 100,
        ..ServerConfig::default()
    })
    .unwrap();
    let faddr = follower.local_addr();

    // Ground truth per version, computed from the same rows in the
    // same order (ids are assigned densely, so the mirror agrees).
    let mut mirror = StreamingSkyline::new(2).unwrap();
    let mut metrics = Metrics::default();
    let rows: Vec<Vec<f64>> = (0..80)
        .map(|i| {
            let x = f64::from((i * 31) % 67) + 1.0;
            vec![x, 70.0 - x]
        })
        .collect();
    let mut expected = std::collections::HashMap::new();
    for row in &rows {
        mirror.insert_delta(row, &mut metrics).unwrap();
        expected.insert(mirror.version(), mirror.skyline());
    }
    let tip = mirror.version();

    client::post(
        paddr,
        "/datasets",
        &format!("{{\"name\":\"load\",\"rows\":{}}}", rows_json(&rows[..1])),
    )
    .unwrap();
    // Let the follower finish its initial sync at version 1 first, so
    // every later version must travel through the change feed.
    wait_for_follower(faddr, "load", 1);

    // Reader thread: hammer the follower while the writes land.
    let reader = std::thread::spawn(move || {
        let mut observed = Vec::new();
        let deadline = Instant::now() + Duration::from_secs(20);
        while Instant::now() < deadline {
            if let Ok(resp) = client::get(faddr, "/skyline?dataset=load") {
                if resp.status == 200 {
                    let (version, _, ids) = parse_skyline_response(&resp.body_str());
                    observed.push((version, ids));
                    if version == tip {
                        break;
                    }
                }
            }
            std::thread::sleep(Duration::from_millis(5));
        }
        observed
    });

    for row in &rows[1..] {
        let body = format!("{{\"rows\": {}}}", rows_json(std::slice::from_ref(row)));
        assert_eq!(
            client::post(paddr, "/datasets/load/points", &body)
                .unwrap()
                .status,
            200
        );
    }

    let observed = reader.join().expect("reader thread");
    assert!(!observed.is_empty(), "follower never answered under load");
    for (version, ids) in &observed {
        let want = expected
            .get(version)
            .unwrap_or_else(|| panic!("follower served unacknowledged version {version}"));
        assert_eq!(
            ids, want,
            "follower answer at version {version} does not match the primary's history"
        );
    }
    assert_eq!(
        observed.last().map(|(v, _)| *v),
        Some(tip),
        "follower never converged to the tip under load"
    );

    let resp = client::get(faddr, "/metrics").unwrap();
    let v = Value::parse(&resp.body_str()).unwrap();
    let rep = v.get("replication").expect("replication metrics");
    // The initial snapshot sync may absorb a prefix, so `applied_total`
    // can trail `tip`; the per-dataset progress must reach it exactly.
    assert!(
        rep.get("applied_total")
            .and_then(Value::as_u64)
            .unwrap_or(0)
            >= 1,
        "no applies recorded: {}",
        resp.body_str()
    );
    let progress = rep
        .get("datasets")
        .and_then(Value::as_arr)
        .and_then(|d| d.first())
        .expect("per-dataset replication progress");
    assert_eq!(
        progress.get("applied").and_then(Value::as_u64),
        Some(tip),
        "progress never reached the tip: {}",
        resp.body_str()
    );
    assert!(
        rep.get("lag_p99").and_then(Value::as_f64).is_some(),
        "lag percentiles absent: {}",
        resp.body_str()
    );
}

/// Failover chaos pin: the primary dies while a WAL compaction is in
/// flight and a subscriber is hammering the replica. The promoted
/// replica must hold every acked write and keep serving consistent
/// prefixes of the primary's history; the resurrected old primary is
/// fenced on its first stamped write and demotes itself into a
/// follower of its successor, converging byte-for-byte.
#[test]
fn primary_killed_mid_compaction_fails_over_without_losing_acked_writes() {
    let _scope = FaultScope::enter();
    let dir = temp_data_dir("failover");

    // Ground truth: the same rows in the same order, every version.
    let mut mirror = StreamingSkyline::new(2).unwrap();
    let mut metrics = Metrics::default();
    let rows: Vec<Vec<f64>> = (0..60)
        .map(|i| {
            let x = f64::from((i * 31) % 53) + 1.0;
            vec![x, 60.0 - x]
        })
        .collect();
    let mut expected = std::collections::HashMap::new();
    for row in &rows {
        mirror.insert_delta(row, &mut metrics).unwrap();
        expected.insert(mirror.version(), mirror.skyline());
    }
    let (phase1, phase2) = (30usize, 60usize);

    let primary = Server::start(ServerConfig {
        data_dir: Some(dir.clone()),
        fsync: FsyncPolicy::Always,
        // Tiny threshold: compaction fires again and again under the
        // write stream, so the kill lands around one.
        compact_bytes: 256,
        ..ServerConfig::default()
    })
    .unwrap();
    let paddr = primary.local_addr();
    client::post(
        paddr,
        "/datasets",
        &format!("{{\"name\":\"fo\",\"rows\":{}}}", rows_json(&rows[..1])),
    )
    .unwrap();

    let follower = Server::start(ServerConfig {
        follow: Some(paddr),
        follow_wait_ms: 100,
        feed_retain: 4096,
        ..ServerConfig::default()
    })
    .unwrap();
    let faddr = follower.local_addr();
    wait_for_follower(faddr, "fo", 1);

    // Subscriber load for the whole scenario: every answer the replica
    // serves — before, during, and after the failover — must be a
    // consistent prefix of the (single) write history.
    let tip2 = phase2 as u64;
    let subscriber = std::thread::spawn(move || {
        let mut observed = Vec::new();
        let deadline = Instant::now() + Duration::from_secs(30);
        while Instant::now() < deadline {
            if let Ok(resp) = client::get(faddr, "/skyline?dataset=fo") {
                if resp.status == 200 {
                    let (version, _, ids) = parse_skyline_response(&resp.body_str());
                    observed.push((version, ids));
                    if version >= tip2 {
                        break;
                    }
                }
            }
            std::thread::sleep(Duration::from_millis(5));
        }
        observed
    });

    // Phase 1 writes, with compactions slowed to fatten the window the
    // kill can land in. Everything acked here must survive.
    faults::inject("snapshot", Fault::Delay(Duration::from_millis(40)));
    let mut acked = 1u64;
    for row in &rows[1..phase1] {
        let body = format!("{{\"rows\": {}}}", rows_json(std::slice::from_ref(row)));
        let ok = client::post(paddr, "/datasets/fo/points", &body).unwrap();
        assert_eq!(ok.status, 200, "{}", ok.body_str());
        acked += 1;
    }
    let tip1 = acked;
    // Zero-acked-write-loss needs the replica caught up before the
    // primary dies; replication is async, so an ack the feed never
    // shipped dies with the primary. The detector elects the
    // most-caught-up replica for the same reason.
    wait_for_follower(faddr, "fo", tip1);

    // Kill the primary — compaction is mid-flight more often than not
    // with the injected delay; fsync=always means every acked write is
    // already on disk either way.
    drop(primary);
    faults::clear();

    // Promote the replica under epoch 1 (what the coordinator's
    // detector does after K missed probes).
    let deadline = Instant::now() + Duration::from_secs(5);
    loop {
        let resp = client::post(faddr, "/promote", "{\"epoch\":1}").unwrap();
        if resp.status == 200 {
            break;
        }
        assert!(
            Instant::now() < deadline,
            "promotion never succeeded: {}",
            resp.body_str()
        );
        std::thread::sleep(Duration::from_millis(50));
    }
    // Every acked write survived the failover.
    let resp = client::get(faddr, "/skyline?dataset=fo").unwrap();
    let (version, _, ids) = parse_skyline_response(&resp.body_str());
    assert!(version >= tip1, "promoted replica lost acked writes");
    assert_eq!(&ids, expected.get(&version).unwrap());

    // Phase 2: the promoted node takes writes and stamps epoch 1.
    for row in &rows[phase1..phase2] {
        let body = format!("{{\"rows\": {}}}", rows_json(std::slice::from_ref(row)));
        let ok = client::post(faddr, "/datasets/fo/points", &body).unwrap();
        assert_eq!(ok.status, 200, "{}", ok.body_str());
        let v = Value::parse(&ok.body_str()).unwrap();
        assert_eq!(
            v.get("epoch").and_then(Value::as_u64),
            Some(1),
            "session token must carry the promotion epoch"
        );
    }

    // The subscriber saw only consistent prefixes across the failover.
    let observed = subscriber.join().expect("subscriber thread");
    assert!(!observed.is_empty());
    for (version, ids) in &observed {
        let want = expected
            .get(version)
            .unwrap_or_else(|| panic!("replica served unacknowledged version {version}"));
        assert_eq!(ids, want, "inconsistent prefix at version {version}");
    }
    assert_eq!(observed.last().map(|(v, _)| *v), Some(tip2));

    // Resurrect the old primary from its WAL on the same address. It
    // boots as a primary at epoch 0 — exactly the split-brain risk the
    // fence exists for.
    let old = restart_on(paddr, &dir);
    let fenced = client::request_timed(
        paddr,
        "POST",
        "/datasets/fo/points",
        b"{\"rows\": [[30, 30]]}",
        &[
            (skyline_serve::EPOCH_HEADER.to_string(), "1".to_string()),
            (skyline_serve::PRIMARY_HEADER.to_string(), faddr.to_string()),
        ],
    )
    .unwrap()
    .0;
    assert_eq!(
        fenced.status,
        409,
        "stale primary accepted a fenced write: {}",
        fenced.body_str()
    );

    // ...and it demoted itself cleanly: a follower of its successor,
    // converging on the post-failover history.
    let resp = client::get(paddr, "/healthz").unwrap();
    let h = Value::parse(&resp.body_str()).unwrap();
    assert_eq!(h.get("role").and_then(Value::as_str), Some("replica"));
    assert_eq!(
        h.get("primary").and_then(Value::as_str),
        Some(faddr.to_string().as_str())
    );
    assert_eq!(h.get("epoch").and_then(Value::as_u64), Some(1));
    wait_for_follower(paddr, "fo", tip2);
    let p = client::get(paddr, "/skyline?dataset=fo").unwrap();
    let f = client::get(faddr, "/skyline?dataset=fo").unwrap();
    assert_eq!(
        parse_skyline_response(&p.body_str()).2,
        parse_skyline_response(&f.body_str()).2,
        "demoted ex-primary diverged from its successor"
    );

    // The promoted node's metrics tell the story.
    let resp = client::get(faddr, "/metrics").unwrap();
    let v = Value::parse(&resp.body_str()).unwrap();
    let rep = v.get("replication").expect("replication metrics");
    assert_eq!(rep.get("role").and_then(Value::as_str), Some("primary"));
    assert_eq!(rep.get("epoch").and_then(Value::as_u64), Some(1));
    assert_eq!(rep.get("promotions_total").and_then(Value::as_u64), Some(1));

    drop(old);
    let _ = std::fs::remove_dir_all(&dir);
}

/// Poll the follower until `dataset` reaches `version`.
fn wait_for_follower(faddr: std::net::SocketAddr, dataset: &str, version: u64) {
    let deadline = Instant::now() + Duration::from_secs(20);
    while Instant::now() < deadline {
        if let Ok(resp) = client::get(faddr, &format!("/skyline?dataset={dataset}")) {
            if resp.status == 200 && parse_skyline_response(&resp.body_str()).0 >= version {
                return;
            }
        }
        std::thread::sleep(Duration::from_millis(20));
    }
    panic!("follower never reached {dataset} version {version}");
}

/// Restart a durable server on a specific (just-vacated) address,
/// retrying while the kernel releases the port.
fn restart_on(addr: std::net::SocketAddr, dir: &std::path::Path) -> ServerHandle {
    let deadline = Instant::now() + Duration::from_secs(10);
    loop {
        match Server::start(ServerConfig {
            bind: addr.to_string(),
            data_dir: Some(dir.to_path_buf()),
            fsync: FsyncPolicy::Always,
            ..ServerConfig::default()
        }) {
            Ok(server) => return server,
            Err(e) if Instant::now() < deadline => {
                let _ = e;
                std::thread::sleep(Duration::from_millis(100));
            }
            Err(e) => panic!("could not rebind {addr}: {e}"),
        }
    }
}
