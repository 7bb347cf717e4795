//! Concurrent-reader stress tests: several reader threads query the
//! skyline over HTTP while one writer mutates the same dataset. Every
//! response must equal the brute-force oracle **at the content version
//! the response reports** — the registry's snapshot discipline means a
//! reader never sees a half-applied mutation, and a read with extras
//! never maps its answer onto rows of another version.

use std::collections::{BTreeMap, HashMap};
use std::sync::{mpsc, Mutex};

use skyline_core::dataset::Dataset;
use skyline_core::point::PointId;
use skyline_integration_tests::{
    http_client as client, oracle_skyline, parse_skyline_response, rows_json, start_server,
};
use skyline_obs::json::Value;

const INITIAL: usize = 60;
const STREAMED: usize = 90;
const READERS: usize = 4;
const QUERIES_PER_READER: usize = 25;

fn all_rows() -> Vec<Vec<f64>> {
    let spec = skyline_data::SyntheticSpec {
        distribution: skyline_data::Distribution::AntiCorrelated,
        cardinality: INITIAL + STREAMED,
        dims: 4,
        seed: 0x57AE55,
    };
    spec.generate()
        .iter()
        .map(|(_, row)| row.to_vec())
        .collect()
}

/// Oracle skyline of the first `version` rows (insert-only stream ⇒
/// content version v is exactly the prefix of length v, with identity
/// handle mapping).
fn oracle_at(
    rows: &[Vec<f64>],
    version: u64,
    memo: &Mutex<HashMap<u64, Vec<PointId>>>,
) -> Vec<PointId> {
    if let Some(hit) = memo.lock().unwrap().get(&version) {
        return hit.clone();
    }
    let prefix = Dataset::from_rows(&rows[..version as usize]).unwrap();
    let skyline = oracle_skyline(&prefix);
    memo.lock().unwrap().insert(version, skyline.clone());
    skyline
}

#[test]
fn concurrent_readers_always_see_a_consistent_version() {
    let rows = all_rows();
    let server = start_server();
    let addr = server.local_addr();
    let created = client::post(
        addr,
        "/datasets",
        &format!(
            "{{\"name\": \"stress\", \"rows\": {}}}",
            rows_json(&rows[..INITIAL])
        ),
    )
    .unwrap();
    assert_eq!(created.status, 201, "{}", created.body_str());

    let memo: Mutex<HashMap<u64, Vec<PointId>>> = Mutex::new(HashMap::new());
    let algos = ["SFS", "SDI-Subset", "SaLSa-Subset", "P-SFS"];

    std::thread::scope(|scope| {
        // One writer, streaming the remaining rows one insert at a time.
        let writer_rows = &rows;
        scope.spawn(move || {
            for row in &writer_rows[INITIAL..] {
                let body = format!("{{\"rows\": {}}}", rows_json(std::slice::from_ref(row)));
                let resp = client::post(addr, "/datasets/stress/points", &body).unwrap();
                assert_eq!(resp.status, 200, "writer: {}", resp.body_str());
            }
        });

        // N readers hammering /skyline with a rotation of engines.
        for reader in 0..READERS {
            let rows = &rows;
            let memo = &memo;
            scope.spawn(move || {
                let mut last_version = 0u64;
                for i in 0..QUERIES_PER_READER {
                    let algo = algos[(reader + i) % algos.len()];
                    let resp =
                        client::get(addr, &format!("/skyline?dataset=stress&algo={algo}")).unwrap();
                    assert_eq!(resp.status, 200, "reader {reader}: {}", resp.body_str());
                    let (version, _, ids) = parse_skyline_response(&resp.body_str());
                    assert!(
                        (INITIAL as u64..=(INITIAL + STREAMED) as u64).contains(&version),
                        "reader {reader} saw version {version}"
                    );
                    assert!(
                        version >= last_version,
                        "reader {reader}: version went backwards ({last_version} -> {version})"
                    );
                    last_version = version;
                    let expected = oracle_at(rows, version, memo);
                    assert_eq!(
                        ids, expected,
                        "reader {reader} iter {i}: {algo} at version {version} diverges from oracle"
                    );
                }
            });
        }
    });

    // After the writer finishes, the final version is fully visible.
    let final_resp = client::get(addr, "/skyline?dataset=stress&algo=SFS").unwrap();
    let (version, _, ids) = parse_skyline_response(&final_resp.body_str());
    assert_eq!(version, (INITIAL + STREAMED) as u64);
    assert_eq!(ids, oracle_at(&rows, version, &memo));
}

/// What a `/skyline` answer with extras must carry at one version.
struct Expected {
    ids: Vec<PointId>,
    rows: Vec<Vec<f64>>,
    masks: Vec<u64>,
    elites: Vec<u64>,
}

/// The oracle answer, extras included, over `live` (handle → row): the
/// rows in handle order are exactly what the server computes on.
fn expected(live: &BTreeMap<PointId, Vec<f64>>) -> Expected {
    let handles: Vec<PointId> = live.keys().copied().collect();
    let rows: Vec<Vec<f64>> = live.values().cloned().collect();
    let data = Dataset::from_rows(&rows).unwrap();
    let sky = oracle_skyline(&data);
    let elites = skyline_core::shard_merge::select_reference_elites(&data, &sky);
    Expected {
        ids: sky.iter().map(|&i| handles[i as usize]).collect(),
        rows: sky.iter().map(|&i| rows[i as usize].clone()).collect(),
        masks: skyline_core::shard_merge::reference_masks(&data, &sky, &elites)
            .iter()
            .map(|m| m.bits())
            .collect(),
        elites: elites
            .iter()
            .map(|e| sky.iter().position(|x| x == e).unwrap() as u64)
            .collect(),
    }
}

/// One write of the script: insert a row, or remove a point by handle.
enum Write {
    Insert(Vec<f64>),
    Remove(PointId),
}

fn u64s(v: &Value, field: &str) -> Vec<u64> {
    v.get(field)
        .and_then(Value::as_arr)
        .unwrap_or_else(|| panic!("{field} requested"))
        .iter()
        .map(|x| x.as_u64().unwrap())
        .collect()
}

#[test]
fn extras_stay_exact_under_concurrent_inserts_and_removes() {
    const INITIAL: usize = 80;
    const WRITES: usize = 60;
    const READERS: usize = 3;
    const QUERIES_PER_READER: usize = 40;
    let rows = all_rows();

    // Script the writer up front: inserts alternate with removes of a
    // current skyline point, so a cached answer's points keep leaving
    // the dataset. Each write moves the version by one, so
    // `answers[v - INITIAL]` is the answer at version v.
    let mut live: BTreeMap<PointId, Vec<f64>> = (0..INITIAL as PointId)
        .map(|h| (h, rows[h as usize].clone()))
        .collect();
    let mut answers = vec![expected(&live)];
    let mut writes = Vec::new();
    let mut next = INITIAL;
    for step in 0..WRITES {
        if step % 2 == 0 {
            live.insert(next as PointId, rows[next].clone());
            writes.push(Write::Insert(rows[next].clone()));
            next += 1;
        } else {
            let sky = &answers.last().unwrap().ids;
            let gone = sky[(step * 7) % sky.len()];
            live.remove(&gone);
            writes.push(Write::Remove(gone));
        }
        answers.push(expected(&live));
    }

    let server = start_server();
    let addr = server.local_addr();
    let created = client::post(
        addr,
        "/datasets",
        &format!(
            "{{\"name\": \"extras\", \"rows\": {}}}",
            rows_json(&rows[..INITIAL])
        ),
    )
    .unwrap();
    assert_eq!(created.status, 201, "{}", created.body_str());

    // Each finished read sends a token; the writer takes two per write,
    // so the writes land among the reads instead of before them.
    let (done, tokens) = mpsc::channel::<()>();
    std::thread::scope(|scope| {
        let writes = &writes;
        scope.spawn(move || {
            for (i, write) in writes.iter().enumerate() {
                let _ = (tokens.recv(), tokens.recv());
                let resp = match write {
                    Write::Insert(row) => {
                        let body =
                            format!("{{\"rows\": {}}}", rows_json(std::slice::from_ref(row)));
                        client::post(addr, "/datasets/extras/points", &body).unwrap()
                    }
                    Write::Remove(id) => client::request(
                        addr,
                        "DELETE",
                        "/datasets/extras/points",
                        format!("{{\"ids\": [{id}]}}").as_bytes(),
                    )
                    .unwrap(),
                };
                assert_eq!(resp.status, 200, "write {i}: {}", resp.body_str());
                let v = Value::parse(&resp.body_str()).unwrap();
                let version = v.get("version").and_then(Value::as_u64);
                assert_eq!(version, Some((INITIAL + i + 1) as u64), "write {i}");
            }
        });

        for reader in 0..READERS {
            let answers = &answers;
            let done = done.clone();
            scope.spawn(move || {
                let mut last_version = 0u64;
                for i in 0..QUERIES_PER_READER {
                    let algo = ["SDI-Subset", "SFS"][(reader + i / 2) % 2];
                    let extras = if i % 2 == 0 {
                        "&include_masks=1&include_rows=1"
                    } else {
                        ""
                    };
                    let query = format!("/skyline?dataset=extras&algo={algo}{extras}");
                    let resp = client::get(addr, &query).unwrap();
                    let body = resp.body_str();
                    assert_eq!(resp.status, 200, "reader {reader} {query}: {body}");
                    let (version, _, ids) = parse_skyline_response(&body);
                    assert!(
                        version >= last_version,
                        "reader {reader}: version went backwards ({last_version} -> {version})"
                    );
                    last_version = version;
                    let want = version
                        .checked_sub(INITIAL as u64)
                        .and_then(|at| answers.get(at as usize))
                        .unwrap_or_else(|| panic!("reader {reader} saw version {version}"));
                    assert_eq!(
                        ids, want.ids,
                        "reader {reader} {query} at version {version}"
                    );
                    if !extras.is_empty() {
                        let v = Value::parse(&body).unwrap();
                        let got_rows: Vec<Vec<f64>> = v
                            .get("rows")
                            .and_then(Value::as_arr)
                            .expect("rows requested")
                            .iter()
                            .map(|r| {
                                r.as_arr()
                                    .unwrap()
                                    .iter()
                                    .map(|x| x.as_f64().unwrap())
                                    .collect()
                            })
                            .collect();
                        assert_eq!(got_rows, want.rows, "rows at version {version}");
                        assert_eq!(u64s(&v, "masks"), want.masks, "masks at version {version}");
                        assert_eq!(u64s(&v, "elites"), want.elites, "elites at {version}");
                    }
                    let _ = done.send(());
                }
            });
        }
        drop(done);
    });

    let last = client::get(addr, "/skyline?dataset=extras&include_rows=1").unwrap();
    let (version, _, ids) = parse_skyline_response(&last.body_str());
    assert_eq!(version, (INITIAL + WRITES) as u64);
    assert_eq!(ids, answers[WRITES].ids);
}
