//! Cluster-vs-library agreement: a sharded cluster must answer exactly
//! what a direct in-process skyline computation answers over the same
//! rows — same ids, any shard count — and degrade to the *correct
//! subset* (not an error) when a shard dies.

use std::collections::BTreeMap;
use std::net::SocketAddr;
use std::time::{Duration, Instant};

use skyline_algos::algorithm_by_name;
use skyline_cluster::shard_map::shard_of;
use skyline_cluster::{Cluster, ClusterConfig, ClusterHandle};
use skyline_core::dataset::Dataset;
use skyline_core::subspace::Subspace;
use skyline_data::rng::Rng64;
use skyline_integration_tests::{http_client, oracle_skyline, rows_json};
use skyline_obs::json::Value;
use skyline_obs::trace::{decode_stage_times, STAGE_TIMES_HEADER};
use skyline_serve::ServerHandle;

/// Spawn `n` in-process shard servers plus a coordinator fronting them.
fn start_cluster(n: usize) -> (Vec<ServerHandle>, ClusterHandle) {
    let shards: Vec<ServerHandle> = (0..n)
        .map(|_| {
            skyline_serve::Server::start(skyline_serve::ServerConfig {
                threads: 2,
                ..Default::default()
            })
            .expect("start shard")
        })
        .collect();
    let addrs: Vec<SocketAddr> = shards.iter().map(|s| s.local_addr()).collect();
    let coordinator = Cluster::start(ClusterConfig {
        threads: 4,
        ..ClusterConfig::new(addrs)
    })
    .expect("start coordinator");
    (shards, coordinator)
}

fn create_dataset(coord: SocketAddr, name: &str, rows: &[Vec<f64>]) {
    let body = format!("{{\"name\":\"{name}\",\"rows\":{}}}", rows_json(rows));
    let resp = http_client::post(coord, "/datasets", &body).expect("create");
    assert_eq!(resp.status, 201, "create failed: {}", resp.body_str());
}

/// `(ids, partial, missing_shards)` from a coordinator `/skyline` body.
fn query_skyline(coord: SocketAddr, name: &str) -> (Vec<u64>, bool, Vec<u64>) {
    let resp = http_client::get(coord, &format!("/skyline?dataset={name}")).expect("query");
    assert_eq!(resp.status, 200, "query failed: {}", resp.body_str());
    let v = Value::parse(&resp.body_str()).expect("response JSON");
    let ids = v
        .get("ids")
        .and_then(Value::as_arr)
        .expect("ids")
        .iter()
        .map(|x| x.as_u64().expect("numeric id"))
        .collect();
    let partial = match v.get("partial") {
        Some(Value::Bool(b)) => *b,
        other => panic!("bad \"partial\" field {other:?}"),
    };
    let missing = v
        .get("missing_shards")
        .and_then(Value::as_arr)
        .expect("missing_shards")
        .iter()
        .map(|x| x.as_u64().expect("numeric shard id"))
        .collect();
    (ids, partial, missing)
}

fn grid() -> Vec<(String, Vec<Vec<f64>>)> {
    let mut out = Vec::new();
    for dist in [
        skyline_data::Distribution::Independent,
        skyline_data::Distribution::Correlated,
        skyline_data::Distribution::AntiCorrelated,
    ] {
        for d in 2..=6usize {
            let spec = skyline_data::SyntheticSpec {
                distribution: dist,
                cardinality: 400,
                dims: d,
                seed: 0xC10C + d as u64,
            };
            let data = spec.generate();
            let rows: Vec<Vec<f64>> = data.iter().map(|(_, row)| row.to_vec()).collect();
            out.push((format!("{}-d{d}", dist.tag().to_lowercase()), rows));
        }
    }
    out
}

/// Global ids are assigned densely in row order, so the cluster's id
/// list must equal the oracle skyline's row indices — for every
/// distribution, dimensionality, and shard count.
#[test]
fn cluster_agrees_with_direct_library_call() {
    for shard_count in [1usize, 2, 3] {
        let (_shards, coordinator) = start_cluster(shard_count);
        let coord = coordinator.local_addr();
        for (name, rows) in grid() {
            create_dataset(coord, &name, &rows);
            let (ids, partial, missing) = query_skyline(coord, &name);
            assert!(
                !partial,
                "{name} over {shard_count} shards: unexpected partial"
            );
            assert!(missing.is_empty());
            let flat: Vec<f64> = rows.iter().flatten().copied().collect();
            let data = Dataset::from_flat(flat, rows[0].len()).expect("dataset");
            let expected: Vec<u64> = oracle_skyline(&data).iter().map(|&i| i as u64).collect();
            assert_eq!(
                ids, expected,
                "{name} over {shard_count} shards disagrees with the oracle"
            );
        }
    }
}

/// Inserts and removals route to the owning shards; the cluster answer
/// tracks the live rows exactly.
#[test]
fn mutations_route_and_stay_consistent() {
    let (_shards, coordinator) = start_cluster(3);
    let coord = coordinator.local_addr();
    let spec = skyline_data::SyntheticSpec {
        distribution: skyline_data::Distribution::AntiCorrelated,
        cardinality: 300,
        dims: 4,
        seed: 99,
    };
    let data = spec.generate();
    let mut rows: Vec<Vec<f64>> = data.iter().map(|(_, row)| row.to_vec()).collect();
    let (initial, appended) = {
        let tail = rows.split_off(200);
        (rows, tail)
    };
    create_dataset(coord, "mut", &initial);

    let body = format!("{{\"rows\":{}}}", rows_json(&appended));
    let resp = http_client::post(coord, "/datasets/mut/points", &body).expect("insert");
    assert_eq!(resp.status, 200, "insert failed: {}", resp.body_str());
    let v = Value::parse(&resp.body_str()).unwrap();
    let new_ids: Vec<u64> = v
        .get("ids")
        .and_then(Value::as_arr)
        .expect("ids")
        .iter()
        .map(|x| x.as_u64().unwrap())
        .collect();
    assert_eq!(new_ids, (200..300).collect::<Vec<u64>>());

    // Remove every third row (a mix of both batches and all shards).
    let victims: Vec<u64> = (0..300u64).step_by(3).collect();
    let ids_json: Vec<String> = victims.iter().map(u64::to_string).collect();
    let body = format!("{{\"ids\":[{}]}}", ids_json.join(","));
    let resp = http_client::request(coord, "DELETE", "/datasets/mut/points", body.as_bytes())
        .expect("remove");
    assert_eq!(resp.status, 200, "remove failed: {}", resp.body_str());

    let (ids, partial, _) = query_skyline(coord, "mut");
    assert!(!partial);
    let all: Vec<Vec<f64>> = initial.iter().chain(&appended).cloned().collect();
    let survivors: Vec<u64> = (0..300u64).filter(|g| g % 3 != 0).collect();
    let flat: Vec<f64> = survivors
        .iter()
        .flat_map(|&g| all[g as usize].iter().copied())
        .collect();
    let data = Dataset::from_flat(flat, 4).unwrap();
    let expected: Vec<u64> = oracle_skyline(&data)
        .iter()
        .map(|&i| survivors[i as usize])
        .collect();
    assert_eq!(ids, expected, "post-mutation cluster skyline is wrong");

    // Infinite coordinates are valid data: the insert must reach the
    // shards and their rows come back exact through the merge.
    let extreme = vec![
        vec![f64::NEG_INFINITY, 2.0, 2.0, 2.0],
        vec![f64::INFINITY, -1.0, 0.5, 0.5],
    ];
    let body = format!("{{\"rows\":{}}}", rows_json(&extreme));
    let resp = http_client::post(coord, "/datasets/mut/points", &body).expect("insert");
    assert_eq!(resp.status, 200, "insert of ±inf rows: {}", resp.body_str());
    let (ids, partial, _) = query_skyline(coord, "mut");
    assert!(!partial);
    let survivors: Vec<u64> = survivors.into_iter().chain([300, 301]).collect();
    let all: Vec<Vec<f64>> = all.into_iter().chain(extreme).collect();
    let flat: Vec<f64> = survivors
        .iter()
        .flat_map(|&g| all[g as usize].iter().copied())
        .collect();
    let data = Dataset::from_flat(flat, 4).unwrap();
    let expected: Vec<u64> = oracle_skyline(&data)
        .iter()
        .map(|&i| survivors[i as usize])
        .collect();
    assert!(expected.contains(&300) && expected.contains(&301));
    assert_eq!(ids, expected, "cluster skyline with ±inf rows is wrong");
}

/// Killing a shard degrades the answer to the skyline of the surviving
/// shards' rows — flagged `partial` with the dead shard listed — rather
/// than failing the query.
#[test]
fn killed_shard_yields_partial_answer_over_survivors() {
    let (mut shards, coordinator) = start_cluster(3);
    let coord = coordinator.local_addr();
    let spec = skyline_data::SyntheticSpec {
        distribution: skyline_data::Distribution::Independent,
        cardinality: 500,
        dims: 4,
        seed: 1234,
    };
    let data = spec.generate();
    let rows: Vec<Vec<f64>> = data.iter().map(|(_, row)| row.to_vec()).collect();
    create_dataset(coord, "frag", &rows);

    let (ids, partial, missing) = query_skyline(coord, "frag");
    assert!(!partial && missing.is_empty());
    assert!(!ids.is_empty());

    const DEAD: usize = 1;
    shards[DEAD].shutdown();

    let (ids, partial, missing) = query_skyline(coord, "frag");
    assert!(partial, "query after shard death must be flagged partial");
    assert_eq!(missing, vec![DEAD as u64]);

    // Oracle: the skyline of exactly the rows the surviving shards own,
    // under the same placement function the coordinator uses.
    let survivors: Vec<u64> = (0..rows.len() as u64)
        .filter(|&g| shard_of(g, 3) != DEAD)
        .collect();
    let flat: Vec<f64> = survivors
        .iter()
        .flat_map(|&g| rows[g as usize].iter().copied())
        .collect();
    let surviving_data = Dataset::from_flat(flat, 4).unwrap();
    let expected: Vec<u64> = oracle_skyline(&surviving_data)
        .iter()
        .map(|&i| survivors[i as usize])
        .collect();
    assert_eq!(
        ids, expected,
        "partial answer must cover exactly the survivors"
    );
}

/// Projected (`dims=`) queries go through the same scatter-gather path:
/// shards compute in the projected space and the merge agrees with a
/// projected oracle.
#[test]
fn projected_cluster_queries_agree() {
    let (_shards, coordinator) = start_cluster(2);
    let coord = coordinator.local_addr();
    let spec = skyline_data::SyntheticSpec {
        distribution: skyline_data::Distribution::AntiCorrelated,
        cardinality: 400,
        dims: 5,
        seed: 77,
    };
    let data = spec.generate();
    let rows: Vec<Vec<f64>> = data.iter().map(|(_, row)| row.to_vec()).collect();
    create_dataset(coord, "proj", &rows);

    for dims in [vec![0usize, 2], vec![1, 3, 4]] {
        let spec_str: Vec<String> = dims.iter().map(usize::to_string).collect();
        let resp = http_client::get(
            coord,
            &format!("/skyline?dataset=proj&dims={}", spec_str.join(",")),
        )
        .expect("projected query");
        assert_eq!(resp.status, 200, "{}", resp.body_str());
        let v = Value::parse(&resp.body_str()).unwrap();
        let ids: Vec<u64> = v
            .get("ids")
            .and_then(Value::as_arr)
            .unwrap()
            .iter()
            .map(|x| x.as_u64().unwrap())
            .collect();
        let flat: Vec<f64> = rows
            .iter()
            .flat_map(|r| dims.iter().map(|&d| r[d]))
            .collect();
        let projected = Dataset::from_flat(flat, dims.len()).unwrap();
        let expected: Vec<u64> = oracle_skyline(&projected)
            .iter()
            .map(|&i| i as u64)
            .collect();
        assert_eq!(ids, expected, "projection {dims:?} disagrees");
    }
}

/// Cluster-level request validation: k-skyband and the shard-protocol
/// flags are rejected, unknown datasets 404.
#[test]
fn coordinator_validates_requests() {
    let (_shards, coordinator) = start_cluster(2);
    let coord = coordinator.local_addr();
    create_dataset(coord, "v", &[vec![1.0, 2.0], vec![2.0, 1.0]]);

    let resp = http_client::get(coord, "/skyline?dataset=v&k=2").unwrap();
    assert_eq!(resp.status, 400);
    let resp = http_client::get(coord, "/skyline?dataset=v&include_masks=1").unwrap();
    assert_eq!(resp.status, 400);
    let resp = http_client::get(coord, "/skyline?dataset=missing").unwrap();
    assert_eq!(resp.status, 404);
    let resp = http_client::get(coord, "/skyline?dataset=v").unwrap();
    assert_eq!(resp.status, 200);
}

/// A node and a coordinator share one request parser, so every bad
/// request gets the same 4xx from both, and none of them costs a panic
/// or the process.
#[test]
fn node_and_coordinator_refuse_the_same_requests() {
    let node = skyline_serve::Server::start(skyline_serve::ServerConfig {
        threads: 2,
        ..Default::default()
    })
    .expect("start node");
    let (_shards, coordinator) = start_cluster(2);
    let targets = [node.local_addr(), coordinator.local_addr()];
    for &addr in &targets {
        create_dataset(addr, "ok", &[vec![1.0, 2.0], vec![2.0, 1.0]]);
    }

    let synthetic = |spec: &str| format!(r#"{{"name":"fresh","synthetic":{spec}}}"#);
    let table: Vec<(&str, &str, String, u16)> = vec![
        ("bad JSON", "/datasets", "{\"name\":".into(), 400),
        (
            "missing name",
            "/datasets",
            r#"{"rows":[[1,2]]}"#.into(),
            400,
        ),
        (
            "bad name",
            "/datasets",
            r#"{"name":"no spaces!","rows":[[1,2]]}"#.into(),
            400,
        ),
        (
            "unknown distribution",
            "/datasets",
            synthetic(r#"{"distribution":"ZZ","n":10,"dims":2}"#),
            400,
        ),
        (
            "synthetic without n",
            "/datasets",
            synthetic(r#"{"dims":2}"#),
            400,
        ),
        (
            "synthetic without dims",
            "/datasets",
            synthetic(r#"{"n":10}"#),
            400,
        ),
        (
            "dims 0",
            "/datasets",
            synthetic(r#"{"n":10,"dims":0}"#),
            400,
        ),
        (
            "dims 65",
            "/datasets",
            synthetic(r#"{"n":10,"dims":65}"#),
            400,
        ),
        (
            "empty rows without dims",
            "/datasets",
            r#"{"name":"fresh","rows":[]}"#.into(),
            400,
        ),
        (
            "ragged rows",
            "/datasets",
            r#"{"name":"fresh","rows":[[1,2],[3]]}"#.into(),
            400,
        ),
        (
            "huge n",
            "/datasets",
            synthetic(r#"{"n":1000000000000,"dims":1}"#),
            413,
        ),
        (
            "fractional n",
            "/datasets",
            synthetic(r#"{"n":2.5,"dims":2}"#),
            400,
        ),
        (
            "fractional dims",
            "/datasets",
            synthetic(r#"{"n":10,"dims":2.7}"#),
            400,
        ),
        (
            "fractional seed",
            "/datasets",
            synthetic(r#"{"n":10,"dims":2,"seed":1.5}"#),
            400,
        ),
        (
            "non-numeric seed",
            "/datasets",
            synthetic(r#"{"n":10,"dims":2,"seed":"x"}"#),
            400,
        ),
    ];
    let queries = [
        ("bad deadline_ms", "/skyline?dataset=ok&deadline_ms=0"),
        ("bad threads", "/skyline?dataset=ok&threads=many"),
        ("bad dims", "/skyline?dataset=ok&dims=9"),
        ("include_rows=yes", "/skyline?dataset=ok&include_rows=yes"),
    ];
    let points = [
        ("POST", "non-array rows", r#"{"rows":5}"#),
        ("DELETE", "non-numeric ids", r#"{"ids":["a"]}"#),
        ("DELETE", "fractional ids", r#"{"ids":[0.9]}"#),
    ];

    for &addr in &targets {
        for (what, path, body, want) in &table {
            let resp = http_client::post(addr, path, body).expect(what);
            assert_eq!(resp.status, *want, "{what} at {addr}: {}", resp.body_str());
        }
        for (what, path) in queries {
            let resp = http_client::get(addr, path).expect(what);
            assert_eq!(resp.status, 400, "{what} at {addr}: {}", resp.body_str());
        }
        for (method, what, body) in points {
            let resp = http_client::request(addr, method, "/datasets/ok/points", body.as_bytes())
                .expect(what);
            assert_eq!(resp.status, 400, "{what} at {addr}: {}", resp.body_str());
        }
        assert_eq!(http_client::get(addr, "/healthz").unwrap().status, 200);
        assert_eq!(coord_metric(addr, "panics_total"), 0, "panics at {addr}");
    }
}

/// A synthetic spec within the coordinator's `max_body` reaches the
/// shards in bodies within theirs, however many bytes its rows take as
/// JSON, and answers what a single node answers for the same spec.
#[test]
fn large_synthetic_creates_reach_shards_in_bounded_bodies() {
    const MAX_BODY: usize = 64 << 10;
    let start = || {
        skyline_serve::Server::start(skyline_serve::ServerConfig {
            threads: 2,
            max_body: MAX_BODY,
            ..Default::default()
        })
        .expect("start node")
    };
    let node = start();
    let shards = [start(), start()];
    let coordinator = Cluster::start(ClusterConfig {
        threads: 4,
        max_body: MAX_BODY,
        ..ClusterConfig::new(shards.iter().map(|s| s.local_addr()).collect())
    })
    .expect("start coordinator");
    // 12,000 values: inside the 32,768-value limit, but about 240 KB of
    // rows as JSON, well over one 64 KiB body per shard.
    let body = r#"{"name":"big","synthetic":{"n":3000,"dims":4}}"#;
    let mut answers = Vec::new();
    for addr in [node.local_addr(), coordinator.local_addr()] {
        let resp = http_client::post(addr, "/datasets", body).expect("create");
        assert_eq!(resp.status, 201, "create at {addr}: {}", resp.body_str());
        let created = Value::parse(&resp.body_str()).expect("create JSON");
        assert_eq!(created.get("points").and_then(Value::as_u64), Some(3000));
        let resp = http_client::get(addr, "/skyline?dataset=big").expect("query");
        assert_eq!(resp.status, 200, "query at {addr}: {}", resp.body_str());
        let v = Value::parse(&resp.body_str()).expect("skyline JSON");
        answers.push(v.get("ids").cloned().expect("ids"));
    }
    assert_eq!(answers[0], answers[1], "node and coordinator disagree");
}

/// A large create holds no lock other requests need while it fans
/// out: a read of another dataset answers at once, and a second create
/// of the same name is refused with 409 while the first is in flight.
#[test]
fn creates_in_flight_block_neither_reads_nor_duplicate_checks() {
    let (shards, coordinator) = start_cluster(2);
    let coord = coordinator.local_addr();
    create_dataset(
        coord,
        "small",
        &[vec![1.0, 5.0], vec![5.0, 1.0], vec![6.0, 6.0]],
    );
    let big = r#"{"name":"big","synthetic":{"n":40000,"dims":8}}"#;
    let started = Instant::now();
    let create = std::thread::spawn(move || {
        let resp = http_client::post(coord, "/datasets", big).expect("create");
        (resp.status, started.elapsed())
    });
    // The fan-out has begun once a shard lists the new dataset.
    let shard = shards[0].local_addr();
    while !http_client::get(shard, "/datasets")
        .expect("shard listing")
        .body_str()
        .contains("\"big\"")
    {
        assert!(!create.is_finished(), "create ended before its fan-out");
        std::thread::sleep(Duration::from_millis(5));
    }
    let read_started = Instant::now();
    let (ids, partial, _) = query_skyline(coord, "small");
    let read = read_started.elapsed();
    assert_eq!((ids, partial), (vec![0, 1], false));
    let again = http_client::post(coord, "/datasets", big).expect("second create");
    assert_eq!(again.status, 409, "{}", again.body_str());
    assert!(
        !create.is_finished(),
        "the reads ran while the create was in flight"
    );
    let (status, took) = create.join().expect("create thread");
    assert_eq!(status, 201);
    assert!(
        read * 10 < took,
        "a read during a create took {read:?} of the create's {took:?}"
    );
    let listed = http_client::get(coord, "/datasets")
        .expect("listing")
        .body_str();
    assert!(
        listed.contains(r#""name":"big","dims":8,"points":40000"#),
        "{listed}"
    );
}

/// A large insert holds only its own dataset's lock while it fans out:
/// reads of another dataset keep answering at once for as long as the
/// insert is in flight.
#[test]
fn inserts_in_flight_block_no_reads_of_other_datasets() {
    let (_shards, coordinator) = start_cluster(2);
    let coord = coordinator.local_addr();
    create_dataset(
        coord,
        "small",
        &[vec![1.0, 5.0], vec![5.0, 1.0], vec![6.0, 6.0]],
    );
    let rows: Vec<Vec<f64>> = skyline_data::SyntheticSpec {
        distribution: skyline_data::Distribution::Independent,
        cardinality: 30_000,
        dims: 8,
        seed: 0xB16,
    }
    .generate()
    .iter()
    .map(|(_, row)| row.to_vec())
    .collect();
    create_dataset(coord, "big", &rows[..1]);
    let body = format!("{{\"rows\":{}}}", rows_json(&rows[1..]));
    let started = Instant::now();
    let insert = std::thread::spawn(move || {
        let resp = http_client::post(coord, "/datasets/big/points", &body).expect("insert");
        (resp.status, started.elapsed())
    });
    // Read back to back until the insert ends, noting how long each read
    // took and whether the insert was still in flight when it answered.
    let mut reads = Vec::new();
    while !insert.is_finished() {
        let read_started = Instant::now();
        let (ids, partial, _) = query_skyline(coord, "small");
        assert_eq!((ids, partial), (vec![0, 1], false));
        reads.push((read_started.elapsed(), !insert.is_finished()));
    }
    let (status, took) = insert.join().expect("insert thread");
    assert_eq!(status, 200);
    let in_flight = reads.iter().filter(|(_, in_flight)| *in_flight).count();
    assert!(
        in_flight >= 3,
        "{in_flight} reads answered during the insert"
    );
    let slowest = reads.iter().map(|(read, _)| *read).max().expect("reads");
    assert!(
        slowest * 10 < took,
        "a read during an insert took {slowest:?} of the insert's {took:?}"
    );
    let listed = http_client::get(coord, "/datasets")
        .expect("listing")
        .body_str();
    assert!(
        listed.contains(r#""name":"big","dims":8,"points":30000"#),
        "{listed}"
    );
}

/// Metric counter from the coordinator's `/metrics` JSON.
fn coord_metric(coord: SocketAddr, field: &str) -> u64 {
    let resp = http_client::get(coord, "/metrics").unwrap();
    let v = Value::parse(&resp.body_str()).expect("metrics JSON");
    v.get(field)
        .and_then(Value::as_u64)
        .unwrap_or_else(|| panic!("missing {field:?}: {}", resp.body_str()))
}

/// With a follower behind every shard, coordinator reads route to the
/// replicas once they catch up — and the answers are indistinguishable
/// from primary-only reads: exactly the oracle skyline.
#[test]
fn replica_reads_agree_with_the_oracle() {
    let shard_count = 2usize;
    let shards: Vec<ServerHandle> = (0..shard_count)
        .map(|_| {
            skyline_serve::Server::start(skyline_serve::ServerConfig {
                threads: 2,
                ..Default::default()
            })
            .expect("start shard")
        })
        .collect();
    let addrs: Vec<SocketAddr> = shards.iter().map(|s| s.local_addr()).collect();
    let followers: Vec<ServerHandle> = addrs
        .iter()
        .map(|&primary| {
            skyline_serve::Server::start(skyline_serve::ServerConfig {
                threads: 2,
                follow: Some(primary),
                follow_wait_ms: 100,
                ..Default::default()
            })
            .expect("start follower")
        })
        .collect();
    let coordinator = Cluster::start(ClusterConfig {
        threads: 4,
        replicas: followers.iter().map(|f| vec![f.local_addr()]).collect(),
        ..ClusterConfig::new(addrs)
    })
    .expect("start coordinator");
    let coord = coordinator.local_addr();

    let spec = skyline_data::SyntheticSpec {
        distribution: skyline_data::Distribution::AntiCorrelated,
        cardinality: 300,
        dims: 3,
        seed: 0x5EED,
    };
    let data = spec.generate();
    let rows: Vec<Vec<f64>> = data.iter().map(|(_, row)| row.to_vec()).collect();
    create_dataset(coord, "rep", &rows);
    let flat: Vec<f64> = rows.iter().flatten().copied().collect();
    let dataset = Dataset::from_flat(flat, rows[0].len()).expect("dataset");
    let expected: Vec<u64> = oracle_skyline(&dataset).iter().map(|&i| i as u64).collect();

    // Staleness bound 0: a lagging replica fails the freshness check
    // and the read falls back to the primary, so every answer — before,
    // during, and after replica catch-up — must equal the oracle.
    let deadline = std::time::Instant::now() + std::time::Duration::from_secs(20);
    let mut replica_served = false;
    while std::time::Instant::now() < deadline {
        let (ids, partial, missing) = query_skyline(coord, "rep");
        assert!(!partial);
        assert!(missing.is_empty());
        assert_eq!(
            ids, expected,
            "replica-routed read disagrees with the oracle"
        );
        let requests = coord_metric(coord, "replica_read_requests");
        let fallbacks = coord_metric(coord, "replica_read_fallbacks");
        assert!(requests > 0, "replicas configured but never attempted");
        if requests > fallbacks {
            replica_served = true;
            break;
        }
        std::thread::sleep(std::time::Duration::from_millis(50));
    }
    assert!(
        replica_served,
        "no read was ever answered by a caught-up replica"
    );

    // The Prometheus exposition types every monotone count as a counter.
    let prom = http_client::get(coord, "/metrics?format=prometheus")
        .unwrap()
        .body_str();
    for family in [
        "skyline_shard_rpc_requests",
        "skyline_shard_rpc_errors",
        "skyline_shard_rpc_attempts",
        "skyline_shard_rpc_total_us",
        "skyline_replica_read_requests_total",
        "skyline_replica_read_fallbacks_total",
        "skyline_promotions_total",
    ] {
        assert!(prom.contains(&format!("# TYPE {family} counter")), "{prom}");
    }
    assert!(prom.contains("# TYPE skyline_shard_epoch gauge"), "{prom}");
}

/// A dead replica never hurts correctness: each attempt is counted as
/// a fallback and the primary serves the read.
#[test]
fn unreachable_replica_falls_back_to_the_primary() {
    let shards: Vec<ServerHandle> = (0..2)
        .map(|_| {
            skyline_serve::Server::start(skyline_serve::ServerConfig {
                threads: 2,
                ..Default::default()
            })
            .expect("start shard")
        })
        .collect();
    let addrs: Vec<SocketAddr> = shards.iter().map(|s| s.local_addr()).collect();
    // Port 1 is never listening: every replica attempt must fail over.
    let dead: SocketAddr = "127.0.0.1:1".parse().unwrap();
    let coordinator = Cluster::start(ClusterConfig {
        threads: 4,
        replicas: vec![vec![dead]; 2],
        ..ClusterConfig::new(addrs)
    })
    .expect("start coordinator");
    let coord = coordinator.local_addr();

    create_dataset(
        coord,
        "dead",
        &[vec![1.0, 5.0], vec![5.0, 1.0], vec![6.0, 6.0]],
    );
    let (ids, partial, missing) = query_skyline(coord, "dead");
    assert!(!partial);
    assert!(missing.is_empty());
    assert_eq!(ids, vec![0, 1], "fallback read must still be exact");
    assert!(
        coord_metric(coord, "replica_read_fallbacks") > 0,
        "dead replica attempts must be visible in metrics"
    );
}

/// Replica lists must match the shard map: a count mismatch is a
/// config error at startup, not a silent partial routing table.
#[test]
fn mismatched_replica_config_is_refused() {
    let shard = skyline_serve::Server::start(skyline_serve::ServerConfig {
        threads: 2,
        ..Default::default()
    })
    .expect("start shard");
    let dead: SocketAddr = "127.0.0.1:1".parse().unwrap();
    let err = match Cluster::start(ClusterConfig {
        replicas: vec![vec![dead]; 3],
        ..ClusterConfig::new(vec![shard.local_addr()])
    }) {
        Err(e) => e.to_string(),
        Ok(_) => panic!("3 replica lists over 1 shard must be refused"),
    };
    assert!(err.contains("--replicas"), "unhelpful error: {err}");
}

/// One coordinator read: `(version, cached, partial, missing, ids)`.
fn read_held(coord: SocketAddr, path: &str) -> (u64, bool, bool, Vec<u64>, Vec<u64>) {
    let resp = http_client::get(coord, path).expect("query");
    assert_eq!(resp.status, 200, "{path}: {}", resp.body_str());
    let v = Value::parse(&resp.body_str()).expect("response JSON");
    let flag = |field: &str| match v.get(field) {
        Some(Value::Bool(b)) => *b,
        other => panic!("bad {field:?} field {other:?}"),
    };
    let list = |field: &str| -> Vec<u64> {
        v.get(field)
            .and_then(Value::as_arr)
            .unwrap_or_else(|| panic!("missing {field:?}"))
            .iter()
            .map(|x| x.as_u64().expect("numeric"))
            .collect()
    };
    let version = v.get("version").and_then(Value::as_u64).expect("version");
    let (ids, missing) = (list("ids"), list("missing_shards"));
    (version, flag("cached"), flag("partial"), missing, ids)
}

/// `algo` over `live` (global id → row, ascending) projected onto
/// `dims` (empty = every dimension), as global ids: the direct library
/// call a coordinator answer must equal.
fn direct_answer(live: &BTreeMap<u64, Vec<f64>>, dims: &[usize], algo: &str) -> Vec<u64> {
    let globals: Vec<u64> = live.keys().copied().collect();
    let rows: Vec<Vec<f64>> = live.values().cloned().collect();
    let data = Dataset::from_rows(&rows).expect("dataset");
    let target = if dims.is_empty() {
        data
    } else {
        data.project_dims(Subspace::from_dims(dims.iter().copied()))
    };
    algorithm_by_name(algo)
        .expect("engine")
        .compute(&target)
        .into_iter()
        .map(|i| globals[i as usize])
        .collect()
}

/// A seeded script of inserts, removes and repeated reads through 2 and
/// 3 shards. Every answer equals a direct library call over the live
/// rows at the version it reports, and a read repeated with no write in
/// between is answered from what the coordinator holds.
#[test]
fn held_answers_agree_with_the_oracle_through_a_seeded_script() {
    let queries: Vec<(Vec<usize>, &str)> = [vec![], vec![0, 2], vec![1, 2, 3]]
        .into_iter()
        .flat_map(|dims| {
            ["SFS-Subset", "SaLSa-Subset", "SDI-Subset"].map(move |algo| (dims.clone(), algo))
        })
        .collect();
    for shard_count in [2usize, 3] {
        let (_shards, coordinator) = start_cluster(shard_count);
        let coord = coordinator.local_addr();
        let pool: Vec<Vec<f64>> = skyline_data::SyntheticSpec {
            distribution: skyline_data::Distribution::AntiCorrelated,
            cardinality: 260,
            dims: 4,
            seed: 0x4E1D + shard_count as u64,
        }
        .generate()
        .iter()
        .map(|(_, row)| row.to_vec())
        .collect();
        create_dataset(coord, "held", &pool[..200]);
        let mut live: BTreeMap<u64, Vec<f64>> =
            (0..200u64).map(|g| (g, pool[g as usize].clone())).collect();
        let mut next = 200usize;
        let mut rng = Rng64::seed_from_u64(0xC0FFEE + shard_count as u64);
        let mut held_reads = 0u64;
        for step in 0..16u64 {
            // Creation is version 1, and each write adds one.
            let version = step + 1;
            // Read a seeded half of the queries twice each: the first
            // read after a write merges, the repeat is held.
            for (dims, algo) in queries.iter().filter(|_| rng.gen_bool(0.5)) {
                let spec: Vec<String> = dims.iter().map(usize::to_string).collect();
                let mut path = format!("/skyline?dataset=held&algo={algo}");
                if !dims.is_empty() {
                    path.push_str(&format!("&dims={}", spec.join(",")));
                }
                let want = direct_answer(&live, dims, algo);
                for repeat in [false, true] {
                    let (v, cached, partial, missing, ids) = read_held(coord, &path);
                    let what = format!("{shard_count} shards, step {step}, {path}");
                    assert!(!partial && missing.is_empty(), "{what}");
                    assert_eq!(v, version, "{what}");
                    assert_eq!(ids, want, "{what} at version {v}");
                    assert_eq!(cached, repeat, "{what}: only a repeated read is held");
                    held_reads += u64::from(repeat);
                }
            }
            // One write: insert a few pool rows, or remove live ids
            // (the skyline's first id among them).
            let reply = if next < pool.len() && rng.gen_bool(0.5) {
                let k = rng.gen_range_usize(1, 4).min(pool.len() - next);
                let rows = &pool[next..next + k];
                for (g, row) in (next..next + k).zip(rows) {
                    live.insert(g as u64, row.clone());
                }
                next += k;
                let body = format!("{{\"rows\":{}}}", rows_json(rows));
                http_client::post(coord, "/datasets/held/points", &body).expect("insert")
            } else {
                let keys: Vec<u64> = live.keys().copied().collect();
                let mut victims = vec![direct_answer(&live, &[], "SFS-Subset")[0]];
                victims.push(keys[rng.gen_below(keys.len() as u64) as usize]);
                victims.dedup();
                for g in &victims {
                    live.remove(g);
                }
                let ids: Vec<String> = victims.iter().map(u64::to_string).collect();
                let body = format!("{{\"ids\":[{}]}}", ids.join(","));
                http_client::request(coord, "DELETE", "/datasets/held/points", body.as_bytes())
                    .expect("remove")
            };
            assert_eq!(reply.status, 200, "{}", reply.body_str());
        }
        assert!(held_reads > 0);
        assert_eq!(coord_metric(coord, "held_reads"), held_reads);
        let metrics = http_client::get(coord, "/metrics").unwrap().body_str();
        assert!(metrics.contains("\"not_modified\":"), "{metrics}");
        let prom = http_client::get(coord, "/metrics?format=prometheus")
            .unwrap()
            .body_str();
        assert!(
            prom.contains(&format!("skyline_held_reads_total {held_reads}")),
            "{prom}"
        );
        assert!(prom.contains("# TYPE skyline_shard_rpc_not_modified counter"));
    }
}

/// A shard that dies after the coordinator held its answer is missing
/// from the next read like from any other: every read still asks every
/// shard.
#[test]
fn killed_shard_is_missing_even_with_its_answer_held() {
    let (mut shards, coordinator) = start_cluster(3);
    let coord = coordinator.local_addr();
    let rows: Vec<Vec<f64>> = skyline_data::SyntheticSpec {
        distribution: skyline_data::Distribution::AntiCorrelated,
        cardinality: 300,
        dims: 3,
        seed: 0xDEAD,
    }
    .generate()
    .iter()
    .map(|(_, row)| row.to_vec())
    .collect();
    create_dataset(coord, "gone", &rows);
    let path = "/skyline?dataset=gone";
    let (_, cached, partial, _, _) = read_held(coord, path);
    assert!(!cached && !partial);
    let (_, cached, partial, _, _) = read_held(coord, path);
    assert!(cached && !partial, "the repeat is held");
    // A held read keeps the stage taxonomy, and each shard's 304 its
    // own stage times.
    let resp = http_client::get(coord, path).unwrap();
    let stages = decode_stage_times(resp.header(STAGE_TIMES_HEADER).expect("stage times"));
    let names: Vec<&str> = stages.iter().map(|(n, _)| n.as_str()).collect();
    let contiguous: Vec<&str> = names.iter().copied().filter(|n| !n.contains('.')).collect();
    assert_eq!(
        contiguous,
        [
            "accept",
            "route",
            "connect",
            "send",
            "shard_wait",
            "gather",
            "merge",
            "respond"
        ]
    );
    for s in 0..3 {
        assert!(
            names.contains(&format!("shard{s}.parse").as_str()),
            "{names:?}"
        );
    }

    const DEAD: usize = 1;
    shards[DEAD].shutdown();
    let (_, cached, partial, missing, ids) = read_held(coord, path);
    assert!(partial && !cached, "a dead shard is missing, held or not");
    assert_eq!(missing, vec![DEAD as u64]);
    let survivors: BTreeMap<u64, Vec<f64>> = (0..rows.len() as u64)
        .filter(|&g| shard_of(g, 3) != DEAD)
        .map(|g| (g, rows[g as usize].clone()))
        .collect();
    assert_eq!(ids, direct_answer(&survivors, &[], "SDI-Subset"));
}

/// A memory-only shard restarted on its port with other rows, at the
/// very version the coordinator held its answer at: the restarted
/// dataset is a new entry with a new tag, so the coordinator merges its
/// full answer instead of what it held.
#[test]
fn restarted_shard_is_not_answered_from_held_answers() {
    let (mut shards, coordinator) = start_cluster(2);
    let coord = coordinator.local_addr();
    let rows: Vec<Vec<f64>> = skyline_data::SyntheticSpec {
        distribution: skyline_data::Distribution::AntiCorrelated,
        cardinality: 120,
        dims: 3,
        seed: 0x4E57,
    }
    .generate()
    .iter()
    .map(|(_, row)| row.to_vec())
    .collect();
    create_dataset(coord, "re", &rows);
    let path = "/skyline?dataset=re";
    let (_, _, _, _, before) = read_held(coord, path);
    let (_, cached, _, _, _) = read_held(coord, path);
    assert!(cached, "the repeat is held");

    // Shard 1 comes back with as many rows as it had, so the same
    // handles and version, each now better than every row of shard 0.
    const RESTARTED: usize = 1;
    let addr = shards[RESTARTED].local_addr();
    shards[RESTARTED].shutdown();
    let owned: Vec<u64> = (0..rows.len() as u64)
        .filter(|&g| shard_of(g, 2) == RESTARTED)
        .collect();
    let other: Vec<Vec<f64>> = owned
        .iter()
        .map(|&g| rows[g as usize].iter().map(|x| x - 10.0).collect())
        .collect();
    let deadline = Instant::now() + Duration::from_secs(10);
    shards[RESTARTED] = loop {
        match skyline_serve::Server::start(skyline_serve::ServerConfig {
            bind: addr.to_string(),
            threads: 2,
            ..Default::default()
        }) {
            Ok(server) => break server,
            Err(e) => {
                assert!(Instant::now() < deadline, "could not rebind {addr}: {e}");
                std::thread::sleep(Duration::from_millis(100));
            }
        }
    };
    let body = format!("{{\"name\":\"re\",\"rows\":{}}}", rows_json(&other));
    let created = http_client::post(addr, "/datasets", &body).unwrap();
    assert_eq!(created.status, 201, "{}", created.body_str());

    let (_, cached, partial, _, ids) = read_held(coord, path);
    assert!(!cached && !partial);
    let live: BTreeMap<u64, Vec<f64>> = (0..rows.len() as u64)
        .map(|g| match owned.iter().position(|&o| o == g) {
            Some(i) => (g, other[i].clone()),
            None => (g, rows[g as usize].clone()),
        })
        .collect();
    let want = direct_answer(&live, &[], "SDI-Subset");
    assert_ne!(want, before);
    assert_eq!(ids, want, "the restarted shard's rows, not the held ones");
}
