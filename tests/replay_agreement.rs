//! Live apply against replay: one seeded script of insert and remove
//! batches runs on a durable registry that is reopened from its
//! write-ahead log after every step, and on a memory-only registry that
//! never restarts. After every step the two must have answered alike,
//! hold the same state, and serve the same change records for every
//! version the reopened feed still holds. A small compaction threshold
//! puts snapshots between the steps, so replay starts from a snapshot
//! as often as from the log's first line.

use skyline_core::changelog::ChangeRecord;
use skyline_core::delta::SkylineDelta;
use skyline_core::point::PointId;
use skyline_data::rng::Rng64;
use skyline_serve::registry::{DatasetEntry, Registry};
use skyline_serve::wal::{FsyncPolicy, StorageConfig};

/// One step of a script.
#[derive(Debug)]
enum Step {
    Insert(Vec<Vec<f64>>),
    Remove(Vec<PointId>),
}

/// A coordinate: half the time from a 4-value grid, so ties and
/// duplicate rows are common.
fn value(rng: &mut Rng64) -> f64 {
    if rng.gen_bool(0.5) {
        rng.gen_below(4) as f64
    } else {
        rng.gen_f64()
    }
}

/// Between `lo` and `hi` rows (`hi` excluded).
fn rows(rng: &mut Rng64, dims: usize, lo: usize, hi: usize) -> Vec<Vec<f64>> {
    (0..rng.gen_range_usize(lo, hi))
        .map(|_| (0..dims).map(|_| value(rng)).collect())
        .collect()
}

/// The initial rows and `steps` batches. Every remove batch mixes live
/// handles with dead and never-issued ones, and repeats one of them.
fn script(seed: u64, dims: usize, steps: usize) -> (Vec<Vec<f64>>, Vec<Step>) {
    let mut rng = Rng64::seed_from_u64(seed);
    let initial = rows(&mut rng, dims, 0, 6);
    let mut issued = initial.len() as PointId;
    let mut live: Vec<PointId> = (0..issued).collect();
    let mut dead: Vec<PointId> = Vec::new();
    let mut script = Vec::new();
    for _ in 0..steps {
        if live.is_empty() || rng.gen_bool(0.55) {
            let batch = rows(&mut rng, dims, 1, 5);
            live.extend(issued..issued + batch.len() as PointId);
            issued += batch.len() as PointId;
            script.push(Step::Insert(batch));
            continue;
        }
        let mut ids = Vec::new();
        for _ in 0..rng.gen_range_usize(1, 3) {
            if !live.is_empty() {
                let at = rng.gen_below(live.len() as u64) as usize;
                let id = live.swap_remove(at);
                dead.push(id);
                ids.push(id);
            }
        }
        if !dead.is_empty() && rng.gen_bool(0.5) {
            ids.push(dead[rng.gen_below(dead.len() as u64) as usize]);
        }
        ids.push(issued + rng.gen_below(3) as PointId);
        ids.push(ids[rng.gen_below(ids.len() as u64) as usize]);
        for i in (1..ids.len()).rev() {
            ids.swap(i, rng.gen_below(i as u64 + 1) as usize);
        }
        script.push(Step::Remove(ids));
    }
    (initial, script)
}

/// What a step answered: the inserted handles or the removed count,
/// and the fields of the returned `Mutation`.
#[derive(Debug, PartialEq)]
struct Answer {
    ids: Vec<PointId>,
    removed: usize,
    base_version: u64,
    version: u64,
    skyline_len: usize,
    delta: SkylineDelta,
}

fn run(entry: &DatasetEntry, step: &Step) -> Answer {
    let (ids, removed, m) = match step {
        Step::Insert(rows) => {
            let (ids, m) = entry.insert_rows(rows).expect("insert");
            (ids, 0, m)
        }
        Step::Remove(ids) => {
            let (removed, m) = entry.remove_ids(ids).expect("remove");
            (Vec::new(), removed, m)
        }
    };
    Answer {
        ids,
        removed,
        base_version: m.base_version,
        version: m.version,
        skyline_len: m.skyline_len,
        delta: m.delta,
    }
}

/// Every record `entry`'s feed still holds, and the oldest version.
fn retained(entry: &DatasetEntry) -> (u64, Vec<ChangeRecord>) {
    let oldest = match entry.changes_since(0, usize::MAX) {
        Ok(batch) => batch.oldest,
        Err(gone) => gone.oldest,
    };
    let batch = entry
        .changes_since(oldest - 1, usize::MAX)
        .expect("horizon");
    (oldest, batch.records)
}

#[test]
fn a_reopened_durable_registry_answers_as_a_live_one() {
    for dims in 2..=6usize {
        for seed in 0..3u64 {
            let seed = 0x5EED_0000 + 16 * seed + dims as u64;
            let dir = std::env::temp_dir().join(format!(
                "skyline-replay-agreement-{}-{seed}",
                std::process::id()
            ));
            let _ = std::fs::remove_dir_all(&dir);
            let config = StorageConfig {
                fsync: FsyncPolicy::Never,
                compact_bytes: 300,
                ..StorageConfig::new(&dir)
            };
            let (initial, steps) = script(seed, dims, 40);
            let live = Registry::new();
            let live_entry = live.create("s", dims, &initial).expect("create");
            let mut durable = Registry::open(config.clone()).expect("open");
            durable.create("s", dims, &initial).expect("create");
            let (mut compacted, mut compared) = (false, 0);
            for (i, step) in steps.iter().enumerate() {
                let want = run(&live_entry, step);
                let got = run(&durable.get("s").expect("dataset"), step);
                let context = format!("d={dims} seed={seed:#x} step {i}: {step:?}");
                assert_eq!(got, want, "{context}");
                drop(durable);
                durable = Registry::open(config.clone()).expect("reopen");
                let entry = durable.get("s").expect("recovered dataset");
                assert_eq!(entry.snapshot_doc(), live_entry.snapshot_doc(), "{context}");
                let (oldest, records) = retained(&entry);
                let expected = live_entry
                    .changes_since(oldest - 1, records.len().max(1))
                    .expect("live feed keeps every record")
                    .records;
                assert_eq!(records, expected, "{context}");
                compacted |= oldest > 1;
                compared += records.len();
            }
            assert!(compacted, "d={dims} seed={seed:#x}: no compaction ran");
            assert!(compared > 0, "d={dims} seed={seed:#x}: no record compared");
            drop(durable);
            let _ = std::fs::remove_dir_all(&dir);
        }
    }
}
