//! Per-dataset durability: an append-only JSONL write-ahead log plus
//! periodically compacted snapshots.
//!
//! Layout under the data directory, one pair of files per dataset:
//!
//! - `<name>.wal` — one JSON record per line, in apply order:
//!   `{"op":"create","v":0,"dims":D}`, `{"op":"insert","v":V,"row":[…]}`,
//!   `{"op":"remove","v":V,"id":H}`. `v` is the dataset content version
//!   *after* the operation, so replay is idempotent: records at or below
//!   the restored version are skipped.
//! - `<name>.snap` — one JSON object holding the full slot table of the
//!   [`StreamingSkyline`] (tombstones as `null`, so handle positions are
//!   preserved) and the version it materialises. Written to a temp file
//!   and renamed, so a crash never leaves a torn snapshot.
//!
//! Recovery replays the snapshot (if any) and then the log. A torn tail
//! — a half-written final record after a crash — is detected as the
//! first unparseable line and truncated away: the dataset recovers to
//! the last complete (acked) record.
//!
//! The log is compacted once it grows past a byte threshold: the current
//! state is snapshotted and the log truncated to empty.

use std::fmt::Write as _;
use std::fs::{self, File, OpenOptions};
use std::io::{self, BufWriter, Write};
use std::path::{Path, PathBuf};
use std::str::FromStr;
use std::time::{Duration, Instant};

use skyline_core::changelog::{ChangeOp, ChangeRecord};
use skyline_core::metrics::Metrics;
use skyline_core::point::PointId;
use skyline_core::streaming::StreamingSkyline;
use skyline_obs::json::{row_json, Value};

use crate::faults;

/// When WAL appends reach the disk.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FsyncPolicy {
    /// `fsync` after every append: an acked write survives power loss.
    Always,
    /// `fsync` at most once per interval: bounded data loss, much
    /// cheaper under write bursts.
    Interval(Duration),
    /// Never `fsync` explicitly; the OS flushes on its own schedule.
    Never,
}

impl Default for FsyncPolicy {
    fn default() -> FsyncPolicy {
        FsyncPolicy::Interval(FsyncPolicy::DEFAULT_INTERVAL)
    }
}

impl FsyncPolicy {
    /// The default flush period of the `interval` policy.
    pub const DEFAULT_INTERVAL: Duration = Duration::from_millis(100);
}

impl FromStr for FsyncPolicy {
    type Err = String;

    /// Parse `always`, `never`, `interval`, or `interval=<ms>`.
    fn from_str(s: &str) -> Result<FsyncPolicy, String> {
        match s {
            "always" => Ok(FsyncPolicy::Always),
            "never" => Ok(FsyncPolicy::Never),
            "interval" => Ok(FsyncPolicy::Interval(Self::DEFAULT_INTERVAL)),
            other => match other.strip_prefix("interval=") {
                Some(ms) => ms
                    .parse::<u64>()
                    .map(|ms| FsyncPolicy::Interval(Duration::from_millis(ms)))
                    .map_err(|_| format!("bad fsync interval {ms:?} (milliseconds)")),
                None => Err(format!(
                    "bad fsync policy {s:?} (always, interval, interval=<ms>, never)"
                )),
            },
        }
    }
}

/// Durability settings for a [`Registry`](crate::registry::Registry).
#[derive(Debug, Clone)]
pub struct StorageConfig {
    /// Directory holding the per-dataset WAL and snapshot files.
    pub dir: PathBuf,
    /// When appends are fsynced.
    pub fsync: FsyncPolicy,
    /// Compact (snapshot + truncate) once the WAL grows past this size.
    pub compact_bytes: u64,
}

impl StorageConfig {
    /// Storage in `dir` with the default policy (`interval`) and a 1 MiB
    /// compaction threshold.
    pub fn new(dir: impl Into<PathBuf>) -> StorageConfig {
        StorageConfig {
            dir: dir.into(),
            fsync: FsyncPolicy::Interval(FsyncPolicy::DEFAULT_INTERVAL),
            compact_bytes: 1 << 20,
        }
    }
}

/// What recovery found for one dataset.
pub struct Recovered {
    /// The reconstructed stream (snapshot + replayed log records).
    pub stream: StreamingSkyline,
    /// The reopened log, positioned for appends.
    pub wal: DatasetWal,
    /// Log records applied on top of the snapshot: `records.len()`.
    pub replayed: u64,
    /// Every replayed record as a [`ChangeRecord`] — the operation plus
    /// the skyline delta it produced, in replay order: the same
    /// versioned enter/leave stream the live process emitted when it
    /// first applied these mutations. Records absorbed by the snapshot
    /// contribute nothing (their effect is already in the snapshot's
    /// state, not a delta) — which is exactly the change log's
    /// retention horizon after a restart. The chaos harness compares
    /// this stream against the uncrashed run's to pin replay fidelity.
    pub records: Vec<ChangeRecord>,
    /// Highest fencing epoch recorded in the log. Compaction truncates
    /// epoch records along with everything else, so the node-level
    /// epoch file (see [`read_node_epoch`]) stays authoritative; this
    /// only widens the recovered maximum.
    pub epoch: u64,
}

/// The append side of one dataset's log.
pub struct DatasetWal {
    wal_path: PathBuf,
    snap_path: PathBuf,
    writer: BufWriter<File>,
    wal_bytes: u64,
    policy: FsyncPolicy,
    last_sync: Instant,
    compact_bytes: u64,
}

fn wal_file(dir: &Path, name: &str) -> PathBuf {
    dir.join(format!("{name}.wal"))
}

fn snap_file(dir: &Path, name: &str) -> PathBuf {
    dir.join(format!("{name}.snap"))
}

skyline_obs::json_records! {
    /// One log record; the functions below write each kind.
    enum WalRecord: "op" {
        Create = "create" { v: u64, dims: usize },
        Insert = "insert" { v: u64, row: Vec<f64> },
        Remove = "remove" { v: u64, id: PointId },
        Epoch = "epoch" { epoch: u64 },
    }
}

/// The `create` record opening every fresh log. `v` is 0: the record
/// describes the empty dataset.
pub fn create_record(dims: usize) -> String {
    WalRecord::Create { v: 0, dims }.to_json_with(|_| {})
}

/// An `insert` record; `v` is the content version after the insert.
pub fn insert_record(row: &[f64], v: u64) -> String {
    let row = row.to_vec();
    WalRecord::Insert { v, row }.to_json_with(|_| {})
}

/// A `remove` record; `v` is the content version after the removal.
pub fn remove_record(id: PointId, v: u64) -> String {
    WalRecord::Remove { v, id }.to_json_with(|_| {})
}

/// The `insert` or `remove` record of `op`, which moves the dataset to
/// version `v`.
pub(crate) fn op_record(op: &ChangeOp, v: u64) -> String {
    match op {
        ChangeOp::Insert { row } => insert_record(row, v),
        ChangeOp::Remove { id } => remove_record(*id, v),
    }
}

/// An `epoch` record marking that the node began serving this dataset
/// under a new fencing epoch. Does not advance the content version.
pub fn epoch_record(epoch: u64) -> String {
    WalRecord::Epoch { epoch }.to_json_with(|_| {})
}

fn node_epoch_file(dir: &Path) -> PathBuf {
    dir.join("node.epoch")
}

/// The fencing epoch persisted for this data directory; 0 when the node
/// has never been promoted or demoted.
pub fn read_node_epoch(dir: &Path) -> u64 {
    fs::read_to_string(node_epoch_file(dir))
        .ok()
        .and_then(|s| s.trim().parse().ok())
        .unwrap_or(0)
}

/// Persist the node's fencing epoch (temp file + atomic rename, synced)
/// so a restart resumes under the same epoch.
pub fn write_node_epoch(dir: &Path, epoch: u64) -> io::Result<()> {
    let path = node_epoch_file(dir);
    let tmp = path.with_extension("epoch.tmp");
    {
        let mut f = File::create(&tmp)?;
        f.write_all(format!("{epoch}\n").as_bytes())?;
        f.sync_all()?;
    }
    fs::rename(&tmp, &path)
}

impl DatasetWal {
    /// Start a fresh log for a new dataset, truncating any stale files
    /// left by a dropped dataset of the same name.
    pub fn create(config: &StorageConfig, name: &str) -> io::Result<DatasetWal> {
        let wal_path = wal_file(&config.dir, name);
        let snap_path = snap_file(&config.dir, name);
        if snap_path.exists() {
            fs::remove_file(&snap_path)?;
        }
        let file = OpenOptions::new()
            .create(true)
            .write(true)
            .truncate(true)
            .open(&wal_path)?;
        Ok(DatasetWal {
            wal_path,
            snap_path,
            writer: BufWriter::new(file),
            wal_bytes: 0,
            policy: config.fsync,
            last_sync: Instant::now(),
            compact_bytes: config.compact_bytes,
        })
    }

    /// Current size of the log file, bytes.
    pub fn wal_bytes(&self) -> u64 {
        self.wal_bytes
    }

    /// Append a batch of records as one write, then apply the fsync
    /// policy. All-or-nothing from the caller's perspective: on error
    /// nothing should be treated as acked (a torn tail is truncated at
    /// recovery).
    pub fn append_batch(&mut self, records: &[String]) -> io::Result<()> {
        faults::check_io("wal_append")?;
        let mut buf = String::with_capacity(records.iter().map(|r| r.len() + 1).sum());
        for r in records {
            buf.push_str(r);
            buf.push('\n');
        }
        self.writer.write_all(buf.as_bytes())?;
        self.wal_bytes += buf.len() as u64;
        self.sync()
    }

    /// Flush, and fsync as the policy demands.
    fn sync(&mut self) -> io::Result<()> {
        self.writer.flush()?;
        match self.policy {
            FsyncPolicy::Always => self.writer.get_ref().sync_data()?,
            FsyncPolicy::Interval(period) => {
                if self.last_sync.elapsed() >= period {
                    self.writer.get_ref().sync_data()?;
                    self.last_sync = Instant::now();
                }
            }
            FsyncPolicy::Never => {}
        }
        Ok(())
    }

    /// Compact if the log has outgrown the threshold: snapshot `stream`
    /// and truncate the log. Returns whether a compaction ran.
    pub fn maybe_compact(&mut self, stream: &StreamingSkyline) -> io::Result<bool> {
        if self.wal_bytes < self.compact_bytes {
            return Ok(false);
        }
        self.write_snapshot(stream)?;
        Ok(true)
    }

    /// Write a snapshot of `stream` (temp file + atomic rename) and
    /// truncate the log: everything at or below the snapshot version now
    /// lives in the snapshot.
    pub fn write_snapshot(&mut self, stream: &StreamingSkyline) -> io::Result<()> {
        faults::check_io("snapshot")?;
        let doc = snapshot_doc(stream);
        let tmp = self.snap_path.with_extension("snap.tmp");
        {
            let mut f = File::create(&tmp)?;
            f.write_all(doc.as_bytes())?;
            f.sync_all()?;
        }
        fs::rename(&tmp, &self.snap_path)?;
        // The log is now redundant up to the snapshot version.
        self.writer.flush()?;
        let file = OpenOptions::new()
            .write(true)
            .truncate(true)
            .open(&self.wal_path)?;
        self.writer = BufWriter::new(file);
        self.wal_bytes = 0;
        self.last_sync = Instant::now();
        Ok(())
    }
}

/// The snapshot document for `stream`: the full slot table (tombstones
/// as `null`, preserving handle positions) plus the version it
/// materialises. The same wire format serves the on-disk `.snap` file
/// and the `GET /datasets/{name}/snapshot` replica-resync endpoint.
pub fn snapshot_doc(stream: &StreamingSkyline) -> String {
    let mut doc = String::new();
    let _ = write!(
        doc,
        "{{\"dims\":{},\"version\":{},\"slots\":[",
        stream.dims(),
        stream.version()
    );
    for (i, slot) in stream.slot_rows().iter().enumerate() {
        if i > 0 {
            doc.push(',');
        }
        match slot {
            Some(row) => doc.push_str(&row_json(row)),
            None => doc.push_str("null"),
        }
    }
    doc.push_str("]}\n");
    doc
}

/// Dataset names that have a WAL or snapshot under `dir`, sorted.
pub fn list_datasets(dir: &Path) -> io::Result<Vec<String>> {
    let mut names = Vec::new();
    for entry in fs::read_dir(dir)? {
        let path = entry?.path();
        let (Some(stem), Some(ext)) = (
            path.file_stem().and_then(|s| s.to_str()),
            path.extension().and_then(|s| s.to_str()),
        ) else {
            continue;
        };
        if matches!(ext, "wal" | "snap") {
            names.push(stem.to_string());
        }
    }
    names.sort_unstable();
    names.dedup();
    Ok(names)
}

///// Parsed snapshot parts: `(dims, version, slots)` — slot `i` is
/// `None` when stream handle `i` has been removed.
pub type SnapshotParts = (usize, u64, Vec<Option<Vec<f64>>>);

/// Parse a snapshot document (the `.snap` file format, also served by
/// `GET /datasets/{name}/snapshot`). `None` on any structural problem.
pub fn parse_snapshot(text: &str) -> Option<SnapshotParts> {
    let v = Value::parse(text.trim()).ok()?;
    let dims = v.get("dims")?.as_u64()? as usize;
    let version = v.get("version")?.as_u64()?;
    let mut slots = Vec::new();
    for slot in v.get("slots")?.as_arr()? {
        match slot {
            Value::Null => slots.push(None),
            Value::Arr(vals) => {
                let row: Option<Vec<f64>> = vals.iter().map(Value::as_f64).collect();
                slots.push(Some(row?));
            }
            _ => return None,
        }
    }
    Some((dims, version, slots))
}

fn parse_record(line: &str) -> Option<WalRecord> {
    WalRecord::read(&Value::parse(line).ok()?)
}

/// Recover one dataset from its snapshot and log. Returns `None` when
/// neither file yields a dataset (e.g. an empty or fully corrupt log
/// with no snapshot). A torn or corrupt log tail is truncated on disk so
/// subsequent appends extend a clean log.
pub fn recover(config: &StorageConfig, name: &str) -> io::Result<Option<Recovered>> {
    let wal_path = wal_file(&config.dir, name);
    let snap_path = snap_file(&config.dir, name);

    let mut stream: Option<StreamingSkyline> = None;
    if snap_path.exists() {
        if let Some((dims, version, slots)) = parse_snapshot(&fs::read_to_string(&snap_path)?) {
            stream = StreamingSkyline::restore(dims, &slots, version).ok();
        }
    }

    let bytes = if wal_path.exists() {
        fs::read(&wal_path)?
    } else {
        Vec::new()
    };
    let mut records = Vec::new();
    let mut epoch = 0u64;
    let mut offset = 0usize; // start of the current line
    let mut good_end = 0usize; // one past the last fully applied line
    let mut metrics = Metrics::new();
    while offset < bytes.len() {
        let line_end = match bytes[offset..].iter().position(|&b| b == b'\n') {
            Some(i) => offset + i,
            None => break, // torn final record: no terminator
        };
        let parsed = std::str::from_utf8(&bytes[offset..line_end])
            .ok()
            .and_then(parse_record);
        let Some(record) = parsed else { break };
        let op = match record {
            WalRecord::Create { dims, .. } => {
                // A snapshot supersedes the create record.
                if stream.is_none() {
                    let Ok(s) = StreamingSkyline::new(dims) else {
                        break;
                    };
                    stream = Some(s);
                }
                None
            }
            WalRecord::Insert { v, row } => Some((v, ChangeOp::Insert { row })),
            WalRecord::Remove { v, id } => Some((v, ChangeOp::Remove { id })),
            WalRecord::Epoch { epoch: e } => {
                epoch = epoch.max(e);
                None
            }
        };
        if let Some((v, op)) = op {
            let Some(s) = stream.as_mut() else { break };
            // Records at or below the snapshot's version are already in
            // it. An op that does not take effect (a no-op remove, say)
            // means the log disagrees with the state: the rest is
            // treated as corrupt.
            if v > s.version() {
                let Some((_, delta)) = op.apply(s, &mut metrics) else {
                    break;
                };
                records.push(ChangeRecord { op, delta });
            }
        }
        offset = line_end + 1;
        good_end = offset;
    }

    let Some(stream) = stream else {
        return Ok(None);
    };

    // Truncate a torn or corrupt tail so the reopened log is clean.
    if good_end < bytes.len() {
        OpenOptions::new()
            .write(true)
            .open(&wal_path)?
            .set_len(good_end as u64)?;
    }

    let file = OpenOptions::new()
        .create(true)
        .append(true)
        .open(&wal_path)?;
    let wal = DatasetWal {
        wal_path,
        snap_path,
        writer: BufWriter::new(file),
        wal_bytes: good_end as u64,
        policy: config.fsync,
        last_sync: Instant::now(),
        compact_bytes: config.compact_bytes,
    };
    Ok(Some(Recovered {
        stream,
        wal,
        replayed: records.len() as u64,
        records,
        epoch,
    }))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn temp_dir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!(
            "skyline-wal-{tag}-{}-{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        let _ = fs::remove_dir_all(&dir);
        fs::create_dir_all(&dir).unwrap();
        dir
    }

    fn build(config: &StorageConfig, name: &str) -> StreamingSkyline {
        let mut stream = StreamingSkyline::new(2).unwrap();
        let mut wal = DatasetWal::create(config, name).unwrap();
        wal.append_batch(&[create_record(2)]).unwrap();
        let mut metrics = Metrics::new();
        let mut records = Vec::new();
        for row in [[1.0, 5.0], [5.0, 1.0], [6.0, 6.0], [0.25, 9.5]] {
            records.push(insert_record(&row, stream.version() + 1));
            stream.insert(&row, &mut metrics).unwrap();
        }
        wal.append_batch(&records).unwrap();
        assert!(stream.remove(2, &mut metrics));
        wal.append_batch(&[remove_record(2, stream.version())])
            .unwrap();
        stream
    }

    fn assert_streams_match(a: &StreamingSkyline, b: &StreamingSkyline) {
        assert_eq!(a.version(), b.version());
        assert_eq!(a.len(), b.len());
        assert_eq!(a.skyline(), b.skyline());
        assert_eq!(a.snapshot_rows(), b.snapshot_rows());
    }

    #[test]
    fn log_replay_round_trips() {
        let config = StorageConfig {
            fsync: FsyncPolicy::Always,
            ..StorageConfig::new(temp_dir("replay"))
        };
        let original = build(&config, "d");
        let recovered = recover(&config, "d").unwrap().expect("dataset exists");
        assert_streams_match(&original, &recovered.stream);
        assert_eq!(recovered.replayed, 5, "4 inserts + 1 remove");
        fs::remove_dir_all(&config.dir).unwrap();
    }

    #[test]
    fn torn_tail_recovers_to_last_complete_record() {
        let config = StorageConfig::new(temp_dir("torn"));
        let original = build(&config, "d");
        let path = wal_file(&config.dir, "d");
        // Simulate a crash mid-append: a record without its terminator.
        let clean_len = fs::metadata(&path).unwrap().len();
        let mut f = OpenOptions::new().append(true).open(&path).unwrap();
        f.write_all(b"{\"op\":\"insert\",\"v\":99,\"row\":[1.0,")
            .unwrap();
        drop(f);

        let recovered = recover(&config, "d").unwrap().expect("dataset exists");
        assert_streams_match(&original, &recovered.stream);
        assert_eq!(
            fs::metadata(&path).unwrap().len(),
            clean_len,
            "torn tail truncated away"
        );
        // And again with garbage mid-file followed by a valid record:
        // everything from the first bad line on is dropped.
        let mut f = OpenOptions::new().append(true).open(&path).unwrap();
        f.write_all(b"not json\n").unwrap();
        f.write_all(insert_record(&[0.0, 0.0], original.version() + 1).as_bytes())
            .unwrap();
        f.write_all(b"\n").unwrap();
        drop(f);
        let recovered = recover(&config, "d").unwrap().expect("dataset exists");
        assert_streams_match(&original, &recovered.stream);
        fs::remove_dir_all(&config.dir).unwrap();
    }

    #[test]
    fn compaction_snapshots_and_truncates() {
        let mut config = StorageConfig::new(temp_dir("compact"));
        config.compact_bytes = 64; // force compaction quickly
        let mut stream = StreamingSkyline::new(2).unwrap();
        let mut wal = DatasetWal::create(&config, "c").unwrap();
        wal.append_batch(&[create_record(2)]).unwrap();
        let mut metrics = Metrics::new();
        let mut compactions = 0;
        for i in 0..20 {
            let row = [i as f64, 20.0 - i as f64];
            let rec = insert_record(&row, stream.version() + 1);
            stream.insert(&row, &mut metrics).unwrap();
            wal.append_batch(&[rec]).unwrap();
            if wal.maybe_compact(&stream).unwrap() {
                compactions += 1;
            }
        }
        assert!(compactions >= 1, "threshold forced at least one snapshot");
        assert!(snap_file(&config.dir, "c").exists());
        assert!(wal.wal_bytes() < 64);

        let recovered = recover(&config, "c").unwrap().expect("dataset exists");
        assert_streams_match(&stream, &recovered.stream);
        // Handles keep lining up after recovery: the next insert gets the
        // same id in both streams.
        let id_a = stream.insert(&[9.0, 9.0], &mut metrics).unwrap();
        let mut rec_stream = recovered.stream;
        let id_b = rec_stream.insert(&[9.0, 9.0], &mut metrics).unwrap();
        assert_eq!(id_a, id_b);
        fs::remove_dir_all(&config.dir).unwrap();
    }

    #[test]
    fn fsync_policy_parses() {
        assert_eq!("always".parse(), Ok(FsyncPolicy::Always));
        assert_eq!("never".parse(), Ok(FsyncPolicy::Never));
        assert_eq!(
            "interval".parse(),
            Ok(FsyncPolicy::Interval(FsyncPolicy::DEFAULT_INTERVAL))
        );
        assert_eq!(
            "interval=250".parse(),
            Ok(FsyncPolicy::Interval(Duration::from_millis(250)))
        );
        assert!("interval=abc".parse::<FsyncPolicy>().is_err());
        assert!("sometimes".parse::<FsyncPolicy>().is_err());
    }

    #[test]
    fn list_datasets_finds_wal_and_snap_stems() {
        let dir = temp_dir("list");
        fs::write(dir.join("a.wal"), b"").unwrap();
        fs::write(dir.join("b.snap"), b"").unwrap();
        fs::write(dir.join("a.snap"), b"").unwrap();
        fs::write(dir.join("noise.txt"), b"").unwrap();
        assert_eq!(list_datasets(&dir).unwrap(), vec!["a", "b"]);
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn epoch_records_replay_without_bumping_the_version() {
        let config = StorageConfig {
            fsync: FsyncPolicy::Always,
            ..StorageConfig::new(temp_dir("epoch"))
        };
        let original = build(&config, "d");
        let mut f = OpenOptions::new()
            .append(true)
            .open(wal_file(&config.dir, "d"))
            .unwrap();
        f.write_all(format!("{}\n{}\n", epoch_record(2), epoch_record(5)).as_bytes())
            .unwrap();
        drop(f);
        let recovered = recover(&config, "d").unwrap().expect("dataset exists");
        assert_streams_match(&original, &recovered.stream);
        assert_eq!(recovered.epoch, 5, "max epoch in the log wins");

        assert_eq!(read_node_epoch(&config.dir), 0, "no file yet");
        write_node_epoch(&config.dir, 7).unwrap();
        assert_eq!(read_node_epoch(&config.dir), 7);
        write_node_epoch(&config.dir, 9).unwrap();
        assert_eq!(read_node_epoch(&config.dir), 9);
        fs::remove_dir_all(&config.dir).unwrap();
    }

    #[test]
    fn records_are_written_byte_for_byte_as_before() {
        assert_eq!(create_record(3), r#"{"op":"create","v":0,"dims":3}"#);
        assert_eq!(
            insert_record(&[f64::INFINITY, -1.5, f64::NEG_INFINITY, 0.1], 7),
            r#"{"op":"insert","v":7,"row":[1e999,-1.5,-1e999,0.1]}"#
        );
        assert_eq!(remove_record(4, 8), r#"{"op":"remove","v":8,"id":4}"#);
        assert_eq!(epoch_record(2), r#"{"op":"epoch","epoch":2}"#);
    }

    #[test]
    fn rows_with_infinities_round_trip() {
        let rec = insert_record(&[f64::INFINITY, -1.5, f64::NEG_INFINITY], 1);
        let Some(WalRecord::Insert { v, row }) = parse_record(&rec) else {
            panic!("parse {rec}");
        };
        assert_eq!(v, 1);
        assert_eq!(row, vec![f64::INFINITY, -1.5, f64::NEG_INFINITY]);
    }
}
