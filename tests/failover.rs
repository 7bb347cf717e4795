//! Failover differential tests, over real sockets: the full promote →
//! fence → demote → re-follow cycle must leave every node byte-identical
//! to a never-crashed single-node oracle fed the same rows, the deposed
//! primary must refuse fenced writes with 409 and demote itself toward
//! the successor, and read-your-writes session tokens must hold across
//! the promotion.

use std::net::SocketAddr;
use std::time::{Duration, Instant};

use skyline_integration_tests::{http_client as client, rows_json};
use skyline_obs::json::Value;
use skyline_serve::replica::LAG_HEADER;
use skyline_serve::{
    Server, ServerConfig, ServerHandle, EPOCH_HEADER, MIN_VERSION_HEADER, PRIMARY_HEADER,
};

fn memory_server() -> ServerHandle {
    Server::start(ServerConfig {
        threads: 4,
        feed_retain: 4096,
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

fn get_json(addr: SocketAddr, path: &str) -> (u16, Value) {
    let resp = client::get(addr, path).expect("request");
    let v = Value::parse(&resp.body_str())
        .unwrap_or_else(|e| panic!("bad JSON from {path}: {e}: {}", resp.body_str()));
    (resp.status, v)
}

fn u64_field(v: &Value, field: &str) -> u64 {
    v.get(field)
        .and_then(Value::as_u64)
        .unwrap_or_else(|| panic!("missing u64 field {field:?} in {v:?}"))
}

fn str_field<'a>(v: &'a Value, field: &str) -> &'a str {
    v.get(field)
        .and_then(Value::as_str)
        .unwrap_or_else(|| panic!("missing string field {field:?} in {v:?}"))
}

/// Block until `addr`'s `/healthz` reports `applied_version >= version`.
fn wait_for_applied(addr: SocketAddr, version: u64) {
    let deadline = Instant::now() + Duration::from_secs(20);
    loop {
        let (status, v) = get_json(addr, "/healthz");
        if status == 200 && u64_field(&v, "applied_version") >= version {
            return;
        }
        assert!(
            Instant::now() < deadline,
            "node {addr} never applied version {version}: {v:?}"
        );
        std::thread::sleep(Duration::from_millis(20));
    }
}

fn snapshot_body(addr: SocketAddr, name: &str) -> String {
    let resp = client::get(addr, &format!("/datasets/{name}/snapshot")).expect("snapshot");
    assert_eq!(resp.status, 200, "{}", resp.body_str());
    resp.body_str()
}

fn promote(addr: SocketAddr, epoch: u64) -> (u16, Value) {
    let resp = client::post(addr, "/promote", &format!("{{\"epoch\":{epoch}}}")).unwrap();
    let v = Value::parse(&resp.body_str()).expect("promote body");
    (resp.status, v)
}

fn demote(addr: SocketAddr, epoch: u64, primary: SocketAddr) -> (u16, Value) {
    let resp = client::post(
        addr,
        "/demote",
        &format!("{{\"epoch\":{epoch},\"primary\":\"{primary}\"}}"),
    )
    .unwrap();
    let v = Value::parse(&resp.body_str()).expect("demote body");
    (resp.status, v)
}

/// The differential pin: promote B, re-point C, fence A into following
/// B, write a second batch through B — afterwards A, B, C, and a
/// never-crashed oracle O fed the identical row sequence must agree
/// byte-for-byte on the dataset snapshot.
#[test]
fn promotion_cycle_matches_single_node_oracle_byte_for_byte() {
    let a = memory_server();
    let a_addr = a.local_addr();
    let b = follower_of(a_addr);
    let b_addr = b.local_addr();
    let c = follower_of(a_addr);
    let c_addr = c.local_addr();

    let batch1: Vec<Vec<f64>> = (0..12)
        .map(|i| {
            let x = f64::from((i * 29) % 40) + 1.0;
            vec![x, 50.0 - x]
        })
        .collect();
    let batch2: Vec<Vec<f64>> = (0..8)
        .map(|i| {
            let x = f64::from((i * 13) % 40) + 0.5;
            vec![x, 49.0 - x]
        })
        .collect();

    let created = client::post(
        a_addr,
        "/datasets",
        &format!("{{\"name\":\"fo\",\"rows\":{}}}", rows_json(&batch1[..2])),
    )
    .unwrap();
    assert_eq!(created.status, 201, "{}", created.body_str());
    for row in &batch1[2..] {
        let ok = client::post(
            a_addr,
            "/datasets/fo/points",
            &format!("{{\"rows\":{}}}", rows_json(std::slice::from_ref(row))),
        )
        .unwrap();
        assert_eq!(ok.status, 200, "{}", ok.body_str());
        // Session token: every mutation response carries (epoch, version).
        let v = Value::parse(&ok.body_str()).unwrap();
        assert_eq!(u64_field(&v, "epoch"), 0, "pre-failover epoch is 0");
    }
    let tip1 = batch1.len() as u64;
    wait_for_applied(b_addr, tip1);
    wait_for_applied(c_addr, tip1);

    // The unified health shape, both roles (satellite: one JSON shape).
    let (_, ha) = get_json(a_addr, "/healthz");
    assert_eq!(str_field(&ha, "role"), "primary");
    assert_eq!(u64_field(&ha, "epoch"), 0);
    let (_, hb) = get_json(b_addr, "/healthz");
    assert_eq!(str_field(&hb, "role"), "replica");
    assert_eq!(str_field(&hb, "primary"), a_addr.to_string());
    assert_eq!(u64_field(&hb, "applied_version"), tip1);

    // Promote B under epoch 1; an equal-epoch retry must be idempotent,
    // a replayed lower epoch refused.
    let (status, pv) = promote(b_addr, 1);
    assert_eq!(status, 200, "{pv:?}");
    assert_eq!(str_field(&pv, "role"), "primary");
    assert_eq!(u64_field(&pv, "epoch"), 1);
    let (status, _) = promote(b_addr, 1);
    assert_eq!(status, 200, "equal-epoch promote retry must be idempotent");
    let (status, _) = promote(b_addr, 0);
    assert_eq!(status, 409, "stale promote epoch must be fenced");

    // Re-point C at the new primary.
    let (status, dv) = demote(c_addr, 1, b_addr);
    assert_eq!(status, 200, "{dv:?}");
    assert_eq!(str_field(&dv, "role"), "replica");

    // A fenced write against the deposed primary: refused with 409 AND
    // A demotes itself toward the successor named in the header.
    let fenced = client::request_timed(
        a_addr,
        "POST",
        "/datasets/fo/points",
        format!("{{\"rows\":{}}}", rows_json(&batch2[..1])).as_bytes(),
        &[
            (EPOCH_HEADER.to_string(), "1".to_string()),
            (PRIMARY_HEADER.to_string(), b_addr.to_string()),
        ],
    )
    .unwrap()
    .0;
    assert_eq!(fenced.status, 409, "{}", fenced.body_str());
    let fv = Value::parse(&fenced.body_str()).unwrap();
    assert_eq!(str_field(&fv, "primary"), b_addr.to_string());
    let (_, ha) = get_json(a_addr, "/healthz");
    assert_eq!(
        str_field(&ha, "role"),
        "replica",
        "the fenced primary must demote itself: {ha:?}"
    );
    assert_eq!(str_field(&ha, "primary"), b_addr.to_string());
    assert_eq!(u64_field(&ha, "epoch"), 1);

    // Writes land on the promoted node and carry the new epoch in the
    // session token.
    let mut last_version = tip1;
    for row in &batch2 {
        let ok = client::post(
            b_addr,
            "/datasets/fo/points",
            &format!("{{\"rows\":{}}}", rows_json(std::slice::from_ref(row))),
        )
        .unwrap();
        assert_eq!(ok.status, 200, "{}", ok.body_str());
        let v = Value::parse(&ok.body_str()).unwrap();
        assert_eq!(u64_field(&v, "epoch"), 1, "post-failover session epoch");
        last_version = u64_field(&v, "version");
    }
    let tip2 = tip1 + batch2.len() as u64;
    assert_eq!(last_version, tip2);

    // Both the re-pointed follower and the demoted ex-primary converge
    // on the new primary's history.
    wait_for_applied(c_addr, tip2);
    wait_for_applied(a_addr, tip2);

    // Read-your-writes: a min-version read against a converged replica
    // answers at or past the session token's version, never older.
    let (resp, _) = client::request_timed(
        c_addr,
        "GET",
        "/skyline?dataset=fo",
        b"",
        &[(MIN_VERSION_HEADER.to_string(), tip2.to_string())],
    )
    .unwrap();
    assert_eq!(resp.status, 200, "{}", resp.body_str());
    let v = Value::parse(&resp.body_str()).unwrap();
    assert!(
        u64_field(&v, "version") >= tip2,
        "min-version read served stale state: {}",
        resp.body_str()
    );

    // The oracle: one never-crashed node fed the identical sequence.
    let oracle = memory_server();
    let o_addr = oracle.local_addr();
    let created = client::post(
        o_addr,
        "/datasets",
        &format!("{{\"name\":\"fo\",\"rows\":{}}}", rows_json(&batch1[..2])),
    )
    .unwrap();
    assert_eq!(created.status, 201);
    for row in batch1[2..].iter().chain(&batch2) {
        let ok = client::post(
            o_addr,
            "/datasets/fo/points",
            &format!("{{\"rows\":{}}}", rows_json(std::slice::from_ref(row))),
        )
        .unwrap();
        assert_eq!(ok.status, 200, "{}", ok.body_str());
    }

    let want = snapshot_body(o_addr, "fo");
    for (label, addr) in [
        ("old primary", a_addr),
        ("new primary", b_addr),
        ("replica", c_addr),
    ] {
        assert_eq!(
            snapshot_body(addr, "fo"),
            want,
            "{label} diverged from the single-node oracle"
        );
    }
}

/// Fencing is directional: a request stamped with an epoch *below* the
/// node's own is refused outright and must NOT demote the node, and a
/// demotion into following oneself is refused.
#[test]
fn stale_epochs_are_refused_without_side_effects() {
    let server = memory_server();
    let addr = server.local_addr();
    client::post(
        addr,
        "/datasets",
        "{\"name\":\"st\",\"rows\":[[1,2],[2,1]]}",
    )
    .unwrap();
    let (status, _) = promote(addr, 3);
    assert_eq!(status, 200);

    // Epoch 1 < 3: plain 409, still primary, write not applied.
    let stale = client::request_timed(
        addr,
        "POST",
        "/datasets/st/points",
        b"{\"rows\":[[9,9]]}",
        &[
            (EPOCH_HEADER.to_string(), "1".to_string()),
            (PRIMARY_HEADER.to_string(), "127.0.0.1:1".to_string()),
        ],
    )
    .unwrap()
    .0;
    assert_eq!(stale.status, 409, "{}", stale.body_str());
    let (_, h) = get_json(addr, "/healthz");
    assert_eq!(str_field(&h, "role"), "primary");
    assert_eq!(u64_field(&h, "applied_version"), 2, "fenced write applied!");

    // Current-epoch writes pass the fence.
    let ok = client::request_timed(
        addr,
        "POST",
        "/datasets/st/points",
        b"{\"rows\":[[0.5,9]]}",
        &[(EPOCH_HEADER.to_string(), "3".to_string())],
    )
    .unwrap()
    .0;
    assert_eq!(ok.status, 200, "{}", ok.body_str());

    // Garbage epoch header is a client error, not a fence event.
    let bad = client::request_timed(
        addr,
        "POST",
        "/datasets/st/points",
        b"{\"rows\":[[1,1]]}",
        &[(EPOCH_HEADER.to_string(), "not-a-number".to_string())],
    )
    .unwrap()
    .0;
    assert_eq!(bad.status, 400, "{}", bad.body_str());

    // A node never follows itself.
    let (status, v) = demote(addr, 4, addr);
    assert_eq!(status, 400, "{v:?}");
}

/// A deposed primary resyncs from its successor and must drop what it
/// cached for the replaced rows: the successor's snapshot can sit at the
/// very version number an old answer is keyed by.
#[test]
fn resync_drops_answers_cached_for_the_replaced_rows() {
    let p = memory_server();
    let q = memory_server();
    let (paddr, qaddr) = (p.local_addr(), q.local_addr());
    for (addr, rows) in [(paddr, "[[1,5],[5,1]]"), (qaddr, "[[1,1],[2,2]]")] {
        let body = format!("{{\"name\":\"d\",\"rows\":{rows}}}");
        let created = client::post(addr, "/datasets", &body).unwrap();
        assert_eq!(created.status, 201, "{}", created.body_str());
    }
    let ids = |v: &Value| -> Vec<u64> {
        let arr = v.get("ids").and_then(Value::as_arr).expect("ids");
        arr.iter().map(|x| x.as_u64().unwrap()).collect()
    };
    let (_, before) = get_json(paddr, "/skyline?dataset=d");
    assert_eq!(
        (u64_field(&before, "version"), ids(&before)),
        (2, vec![0, 1])
    );

    let (status, v) = demote(paddr, 1, qaddr);
    assert_eq!(status, 200, "{v:?}");
    let deadline = Instant::now() + Duration::from_secs(20);
    while snapshot_body(paddr, "d") != snapshot_body(qaddr, "d") {
        assert!(Instant::now() < deadline, "P never resynced from Q");
        std::thread::sleep(Duration::from_millis(20));
    }
    for query in ["/skyline?dataset=d", "/skyline?dataset=d&algo=SFS"] {
        let (status, after) = get_json(paddr, query);
        assert_eq!(status, 200, "{after:?}");
        assert_eq!(
            (u64_field(&after, "version"), ids(&after)),
            (2, vec![0]),
            "{query}: Q's rows at the same version"
        );
    }
}

/// P serves `[[1,5],[5,1]]` and Q `[[1,1],[2,2]]`, both primaries at
/// epoch 0 and version 2. P is read, then demoted toward Q under epoch 1,
/// above Q's own, and resyncs onto Q's rows at the same version 2.
/// Returns P, Q and the `ETag` of P's read before the demotion.
fn demote_p_toward_q() -> (ServerHandle, ServerHandle, Option<String>) {
    let p = memory_server();
    let q = memory_server();
    let (paddr, qaddr) = (p.local_addr(), q.local_addr());
    for (addr, rows) in [(paddr, "[[1,5],[5,1]]"), (qaddr, "[[1,1],[2,2]]")] {
        let body = format!("{{\"name\":\"d\",\"rows\":{rows}}}");
        let created = client::post(addr, "/datasets", &body).unwrap();
        assert_eq!(created.status, 201, "{}", created.body_str());
    }
    let before = client::get(paddr, "/skyline?dataset=d").unwrap();
    assert_eq!(before.status, 200, "{}", before.body_str());
    let etag = before.header("etag").map(str::to_string);
    let (status, v) = demote(paddr, 1, qaddr);
    assert_eq!(status, 200, "{v:?}");
    let deadline = Instant::now() + Duration::from_secs(20);
    while snapshot_body(paddr, "d") != snapshot_body(qaddr, "d") {
        assert!(Instant::now() < deadline, "P never resynced from Q");
        std::thread::sleep(Duration::from_millis(20));
    }
    (p, q, etag)
}

fn ids_of(v: &Value) -> Vec<u64> {
    let arr = v.get("ids").and_then(Value::as_arr).expect("ids");
    arr.iter().map(|x| x.as_u64().unwrap()).collect()
}

/// A resync installs a new entry, so an `ETag` the replaced entry gave
/// never validates, even at the same version number.
#[test]
fn resync_retires_the_etags_of_the_replaced_rows() {
    let (p, _q, etag) = demote_p_toward_q();
    let etag = etag.expect("a 200 names its ETag");
    let headers = vec![("If-None-Match".to_string(), etag.clone())];
    let (resp, _) =
        client::request_timed(p.local_addr(), "GET", "/skyline?dataset=d", &[], &headers).unwrap();
    assert_eq!(resp.status, 200, "the old tag {etag} must not validate");
    let v = Value::parse(&resp.body_str()).unwrap();
    assert_eq!((u64_field(&v, "version"), ids_of(&v)), (2, vec![0]));
    assert_ne!(resp.header("etag"), Some(etag.as_str()));
}

/// A follower demoted under an epoch above its new primary's stamps its
/// feed polls with that epoch and the primary's address; the primary
/// adopts the epoch instead of refusing every poll, so the follower
/// keeps applying its writes.
#[test]
fn follower_demoted_above_its_primarys_epoch_keeps_applying() {
    let (p, q, _) = demote_p_toward_q();
    let (paddr, qaddr) = (p.local_addr(), q.local_addr());
    let inserted = client::post(qaddr, "/datasets/d/points", "{\"rows\":[[0,0]]}").unwrap();
    assert_eq!(inserted.status, 200, "{}", inserted.body_str());
    let deadline = Instant::now() + Duration::from_secs(10);
    loop {
        let (status, v) = get_json(paddr, "/skyline?dataset=d");
        assert_eq!(status, 200, "{v:?}");
        if (u64_field(&v, "version"), ids_of(&v)) == (3, vec![2]) {
            break;
        }
        assert!(
            Instant::now() < deadline,
            "P never applied Q's insert: {v:?}"
        );
        std::thread::sleep(Duration::from_millis(20));
    }
    let (_, h) = get_json(qaddr, "/healthz");
    assert_eq!(str_field(&h, "role"), "primary");
    assert_eq!(u64_field(&h, "epoch"), 1, "Q adopted the epoch: {h:?}");
}

/// A follower's 304 carries its replica lag like its 200, so the
/// coordinator can hold a replica's answer under the staleness bound.
#[test]
fn follower_304_carries_the_replica_lag() {
    let primary = memory_server();
    let paddr = primary.local_addr();
    let created = client::post(
        paddr,
        "/datasets",
        "{\"name\":\"l\",\"rows\":[[1,2],[2,1]]}",
    )
    .unwrap();
    assert_eq!(created.status, 201, "{}", created.body_str());
    let follower = follower_of(paddr);
    let faddr = follower.local_addr();
    wait_for_applied(faddr, 2);
    let full = client::get(faddr, "/skyline?dataset=l").unwrap();
    assert_eq!(full.status, 200, "{}", full.body_str());
    assert!(full.header(LAG_HEADER).is_some());
    let etag = full.header("etag").expect("a 200 names its ETag");
    let headers = vec![("If-None-Match".to_string(), etag.to_string())];
    let (unchanged, _) =
        client::request_timed(faddr, "GET", "/skyline?dataset=l", &[], &headers).unwrap();
    assert_eq!(unchanged.status, 304, "{}", unchanged.body_str());
    assert!(unchanged.body.is_empty());
    assert_eq!(unchanged.header(LAG_HEADER), Some("0"));
}
