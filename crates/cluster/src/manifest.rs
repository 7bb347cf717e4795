//! The coordinator's durable registry: a WAL-style JSONL manifest.
//!
//! Shards already write-ahead-log their own rows (`skyline-serve`'s
//! `--data-dir`); what would be lost on a coordinator crash is the
//! *cluster-level* bookkeeping — which datasets exist, which global id
//! lives on which shard under which local handle. Every acknowledged
//! mutation appends one JSON line here, flushed and fsynced before the
//! client sees the response, and `open` replays the file back into
//! [`DatasetState`]s on startup.
//!
//! Record shapes (one object per line):
//!
//! ```text
//! {"op":"create","name":"hotels","dims":4,"shards":2}
//! {"op":"insert","name":"hotels","version":2,"shard":1,"globals":[0,3],"handles":[0,1]}
//! {"op":"remove","name":"hotels","version":3,"globals":[3]}
//! {"op":"promote","shard":1,"epoch":2,"primary":"127.0.0.1:9103"}
//! ```
//!
//! `promote` records (written by the failure detector) carry no dataset
//! name: they change *routing*, not data. Replay keeps only the latest
//! promotion per shard — the highest epoch and its primary address —
//! so a restarted coordinator resumes routing writes to the promoted
//! node instead of the deposed boot-config primary.
//!
//! The `shards` count is pinned at creation: replaying a manifest into a
//! cluster of a different size would silently mis-route every row, so it
//! is a hard startup error (resharding is out of scope — see DESIGN.md).

use std::collections::HashMap;
use std::fs::{File, OpenOptions};
use std::io::{self, Read, Write};
use std::net::SocketAddr;
use std::path::Path;

use skyline_obs::json::Value;

use crate::shard_map::DatasetState;

skyline_obs::json_records! {
    /// One manifest line; the `Manifest::append_*` methods write each
    /// kind.
    enum Record: "op" {
        Create = "create" { name: String, dims: usize, shards: usize },
        Insert = "insert" {
            name: String,
            version: u64,
            shard: usize,
            globals: Vec<u64>,
            handles: Vec<u32>,
        },
        Remove = "remove" { name: String, version: u64, globals: Vec<u64> },
        Promote = "promote" { shard: usize, epoch: u64, primary: SocketAddr },
    }
}

/// Append handle over the manifest file.
#[derive(Debug)]
pub struct Manifest {
    file: File,
    bytes: u64,
}

/// What replaying an existing manifest recovered.
#[derive(Debug)]
pub struct Replay {
    /// Rebuilt per-dataset state.
    pub datasets: HashMap<String, DatasetState>,
    /// Number of records replayed.
    pub records: u64,
    /// Highest fencing epoch seen per shard (0 = never failed over).
    pub epochs: Vec<u64>,
    /// Latest promoted primary per shard, from the highest-epoch
    /// `promote` record; `None` = the boot-config primary still stands.
    pub primaries: Vec<Option<SocketAddr>>,
}

impl Manifest {
    /// Open (creating if absent) and replay the manifest at `path` for a
    /// cluster of `shard_count` shards.
    pub fn open(path: &Path, shard_count: usize) -> io::Result<(Manifest, Replay)> {
        let mut file = OpenOptions::new()
            .read(true)
            .append(true)
            .create(true)
            .open(path)?;
        let mut text = String::new();
        file.read_to_string(&mut text)?;
        let replay = replay(&text, shard_count).map_err(io::Error::other)?;
        let bytes = text.len() as u64;
        Ok((Manifest { file, bytes }, replay))
    }

    /// Total manifest size, bytes (for `/metrics`).
    pub fn bytes(&self) -> u64 {
        self.bytes
    }

    fn append(&mut self, record: Record) -> io::Result<()> {
        let mut buf = record.to_json_with(|_| {}).into_bytes();
        buf.push(b'\n');
        self.file.write_all(&buf)?;
        self.file.flush()?;
        self.file.sync_data()?;
        self.bytes += buf.len() as u64;
        Ok(())
    }

    /// Log a dataset creation.
    pub fn append_create(&mut self, name: &str, dims: usize, shards: usize) -> io::Result<()> {
        self.append(Record::Create {
            name: name.to_string(),
            dims,
            shards,
        })
    }

    /// Log one shard's slice of an acknowledged insert (`globals` and
    /// `handles` are parallel arrays).
    pub fn append_insert(
        &mut self,
        name: &str,
        version: u64,
        shard: usize,
        globals: &[u64],
        handles: &[u32],
    ) -> io::Result<()> {
        self.append(Record::Insert {
            name: name.to_string(),
            version,
            shard,
            globals: globals.to_vec(),
            handles: handles.to_vec(),
        })
    }

    /// Log an acknowledged removal of these global ids.
    pub fn append_remove(&mut self, name: &str, version: u64, globals: &[u64]) -> io::Result<()> {
        self.append(Record::Remove {
            name: name.to_string(),
            version,
            globals: globals.to_vec(),
        })
    }

    /// Log a promotion: `primary` now owns `shard` under fencing
    /// `epoch`. Appended *after* the node acknowledged `POST /promote`
    /// (the epoch is durable on the node first) and *before* the
    /// coordinator routes writes to it.
    pub fn append_promote(
        &mut self,
        shard: usize,
        epoch: u64,
        primary: &SocketAddr,
    ) -> io::Result<()> {
        self.append(Record::Promote {
            shard,
            epoch,
            primary: *primary,
        })
    }
}

/// Replay manifest `text` into per-dataset state.
fn replay(text: &str, shard_count: usize) -> Result<Replay, String> {
    let mut datasets: HashMap<String, DatasetState> = HashMap::new();
    let mut records = 0u64;
    let mut epochs = vec![0u64; shard_count];
    let mut primaries: Vec<Option<SocketAddr>> = vec![None; shard_count];
    for (i, line) in text.lines().enumerate() {
        let line_no = i + 1;
        if line.trim().is_empty() {
            continue;
        }
        let v = Value::parse(line).map_err(|e| format!("manifest line {line_no}: {e}"))?;
        let record = Record::read(&v)
            .ok_or_else(|| format!("manifest line {line_no}: not a manifest record"))?;
        let in_range = |shard: usize| {
            (shard < shard_count)
                .then_some(shard)
                .ok_or_else(|| format!("manifest line {line_no}: shard {shard} out of range"))
        };
        match record {
            Record::Promote {
                shard,
                epoch,
                primary,
            } => {
                let shard = in_range(shard)?;
                if epoch >= epochs[shard] {
                    epochs[shard] = epoch;
                    primaries[shard] = Some(primary);
                }
            }
            Record::Create { name, dims, shards } => {
                if shards != shard_count {
                    return Err(format!(
                        "manifest line {line_no}: dataset {name:?} was created over {shards} \
                         shards but this cluster has {shard_count}; resharding is not supported"
                    ));
                }
                if datasets.contains_key(&name) {
                    return Err(format!(
                        "manifest line {line_no}: duplicate create {name:?}"
                    ));
                }
                datasets.insert(name, DatasetState::new(dims, shard_count));
            }
            Record::Insert {
                name,
                version,
                shard,
                globals,
                handles,
            } => {
                let shard = in_range(shard)?;
                if globals.len() != handles.len() {
                    return Err(format!(
                        "manifest line {line_no}: globals/handles length mismatch"
                    ));
                }
                let state = datasets.get_mut(&name).ok_or_else(|| {
                    format!("manifest line {line_no}: insert into unknown {name:?}")
                })?;
                state.record_insert(shard, &globals, &handles);
                state.version = state.version.max(version);
            }
            Record::Remove {
                name,
                version,
                globals,
            } => {
                let state = datasets.get_mut(&name).ok_or_else(|| {
                    format!("manifest line {line_no}: remove from unknown {name:?}")
                })?;
                state.record_remove(&globals);
                state.version = state.version.max(version);
            }
        }
        records += 1;
    }
    Ok(Replay {
        datasets,
        records,
        epochs,
        primaries,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn temp_path(tag: &str) -> std::path::PathBuf {
        let mut p = std::env::temp_dir();
        p.push(format!(
            "skyline-cluster-manifest-{tag}-{}",
            std::process::id()
        ));
        p
    }

    #[test]
    fn append_then_reopen_rebuilds_the_maps() {
        let path = temp_path("roundtrip");
        let _ = std::fs::remove_file(&path);
        {
            let (mut m, replay) = Manifest::open(&path, 2).unwrap();
            assert_eq!(replay.records, 0);
            m.append_create("hotels", 4, 2).unwrap();
            m.append_insert("hotels", 2, 0, &[0, 3], &[0, 1]).unwrap();
            m.append_insert("hotels", 2, 1, &[1, 2], &[0, 1]).unwrap();
            m.append_remove("hotels", 3, &[3]).unwrap();
        }
        let (m, replay) = Manifest::open(&path, 2).unwrap();
        assert_eq!(replay.records, 4);
        assert!(m.bytes() > 0);
        let st = &replay.datasets["hotels"];
        assert_eq!((st.dims, st.version, st.live, st.next_global), (4, 3, 3, 4));
        assert_eq!(st.locations[&1], (1, 0));
        assert!(!st.locations.contains_key(&3));
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn shard_count_mismatch_is_a_startup_error() {
        let path = temp_path("mismatch");
        let _ = std::fs::remove_file(&path);
        {
            let (mut m, _) = Manifest::open(&path, 2).unwrap();
            m.append_create("d", 3, 2).unwrap();
        }
        let err = Manifest::open(&path, 3).unwrap_err();
        assert!(err.to_string().contains("resharding"), "{err}");
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn promote_records_survive_reopen_and_keep_the_highest_epoch() {
        let path = temp_path("promote");
        let _ = std::fs::remove_file(&path);
        let a: std::net::SocketAddr = "127.0.0.1:9101".parse().unwrap();
        let b: std::net::SocketAddr = "127.0.0.1:9102".parse().unwrap();
        {
            let (mut m, _) = Manifest::open(&path, 2).unwrap();
            m.append_create("hotels", 4, 2).unwrap();
            m.append_promote(1, 1, &a).unwrap();
            m.append_promote(1, 2, &b).unwrap();
        }
        let (_, replay) = Manifest::open(&path, 2).unwrap();
        assert_eq!(replay.records, 3);
        assert_eq!(replay.epochs, vec![0, 2]);
        assert_eq!(replay.primaries, vec![None, Some(b)]);
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn records_are_written_byte_for_byte_as_before() {
        let path = temp_path("golden");
        let _ = std::fs::remove_file(&path);
        let name = "ho\"tel\\s";
        {
            let (mut m, _) = Manifest::open(&path, 2).unwrap();
            m.append_create(name, 4, 2).unwrap();
            m.append_insert(name, 2, 1, &[0, 3], &[0, 1]).unwrap();
            m.append_remove(name, 3, &[3]).unwrap();
            m.append_promote(1, 2, &"127.0.0.1:9103".parse().unwrap())
                .unwrap();
        }
        let text = std::fs::read_to_string(&path).unwrap();
        assert_eq!(
            text.lines().collect::<Vec<_>>(),
            [
                r#"{"op":"create","name":"ho\"tel\\s","dims":4,"shards":2}"#,
                r#"{"op":"insert","name":"ho\"tel\\s","version":2,"shard":1,"globals":[0,3],"handles":[0,1]}"#,
                r#"{"op":"remove","name":"ho\"tel\\s","version":3,"globals":[3]}"#,
                r#"{"op":"promote","shard":1,"epoch":2,"primary":"127.0.0.1:9103"}"#,
            ]
        );
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn garbage_lines_are_rejected_loudly() {
        let path = temp_path("garbage");
        std::fs::write(&path, "{\"op\":\"explode\",\"name\":\"x\"}\n").unwrap();
        assert!(Manifest::open(&path, 1).is_err());
        let _ = std::fs::remove_file(&path);
    }
}
