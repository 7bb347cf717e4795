//! The dataset registry: named, resident, mutable datasets.
//!
//! Each dataset is a [`StreamingSkyline`] (so inserts and deletes update
//! the skyline incrementally) plus a lazily built immutable *snapshot* —
//! the live rows materialised as a batch [`Dataset`] with a row-index →
//! stream-handle map. A mutation only empties the snapshot slot, so a
//! write never copies the rows. The first reader that needs rows at a
//! version fills the slot under the read lock, once per version (one
//! O(live rows) copy); every later reader at that version clones an
//! `Arc` and computes against a consistent version with no locks held.
//! A read answered from the result cache needs only
//! [`DatasetEntry::version`] and never fills the slot.
//!
//! Every mutation takes one path. A live write (creation, insert,
//! remove) becomes a batch of [`ChangeOp`]s that each take effect, and
//! `DatasetEntry::commit` logs the whole batch, then applies each op
//! with [`ChangeOp::apply`]. WAL replay and replica apply use
//! [`ChangeOp::apply`] too, so all three agree on what an op does.
//!
//! With a [`StorageConfig`] the registry is durable: every mutation is
//! logged to a per-dataset write-ahead log *before* it is applied, and
//! so before it is acknowledged (see [`crate::wal`]). A failed append
//! leaves memory untouched. [`Registry::open`] replays snapshot + log
//! on boot, recovering every dataset to its exact pre-crash content
//! version.

use std::collections::{HashMap, HashSet};
use std::fmt;
use std::sync::{Arc, Condvar, Mutex, OnceLock, RwLock, RwLockWriteGuard};
use std::time::{Duration, Instant};

use skyline_core::changelog::{ChangeLog, ChangeOp, ChangeRecord, FeedBatch, FeedGone};
use skyline_core::dataset::Dataset;
use skyline_core::delta::SkylineDelta;
use skyline_core::metrics::Metrics;
use skyline_core::point::PointId;
use skyline_core::streaming::StreamingSkyline;
use skyline_obs::trace::StageTimer;

use crate::wal::{self, DatasetWal, StorageConfig};

/// Default number of change records retained per dataset for the feed.
pub const DEFAULT_FEED_RETAIN: usize = 4096;

/// Errors raised by registry operations.
#[derive(Debug)]
pub enum RegistryError {
    /// A dataset with this name already exists.
    Exists(String),
    /// No dataset with this name.
    Unknown(String),
    /// The dataset name is empty, too long, or has unsafe characters.
    BadName(String),
    /// Rows failed validation (shape, NaN) or core rejected them.
    BadData(String),
    /// Durability failure: the write-ahead log could not be written, so
    /// the operation is not acknowledged.
    Io(String),
}

impl fmt::Display for RegistryError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RegistryError::Exists(n) => write!(f, "dataset {n:?} already exists"),
            RegistryError::Unknown(n) => write!(f, "no such dataset {n:?}"),
            RegistryError::BadName(n) => {
                write!(f, "bad dataset name {n:?} (1-64 chars from [A-Za-z0-9._-])")
            }
            RegistryError::BadData(m) => write!(f, "bad data: {m}"),
            RegistryError::Io(m) => write!(f, "durability failure: {m}"),
        }
    }
}

/// An immutable view of one dataset version.
///
/// `dataset.point(i)` is the row of stream handle `handles[i]`; any batch
/// skyline over `dataset` maps back to stable public ids through
/// `handles`. `dataset` is `None` when the version is empty.
#[derive(Debug)]
pub struct Snapshot {
    /// Content version this snapshot materialises.
    pub version: u64,
    /// Row index → stream handle, ascending.
    pub handles: Vec<PointId>,
    /// The live rows as a batch dataset (`None` when empty).
    pub dataset: Option<Dataset>,
}

/// The outcome of one mutation batch: where the version moved and the
/// coalesced skyline delta covering the whole batch. The delta is what
/// the serving layer uses to patch cached results forward (see
/// [`crate::cache::ResultCache::patch_dataset`]) instead of discarding
/// them.
#[derive(Debug, Clone)]
pub struct Mutation {
    /// Content version before the batch.
    pub base_version: u64,
    /// Content version after the batch.
    pub version: u64,
    /// Skyline cardinality after the batch.
    pub skyline_len: usize,
    /// Net skyline-membership change, `base_version` → `version`.
    pub delta: SkylineDelta,
    /// Where the batch's time went under the registry, in microseconds
    /// and in the order the stages ran: `lock` (waiting for the write
    /// lock), `wal`, `apply`, and, when the batch changed something,
    /// `compact` and `notify`.
    pub stages: Vec<(String, u64)>,
}

/// Summary row for listings and `/metrics`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DatasetInfo {
    /// Dataset name.
    pub name: String,
    /// Dimensionality.
    pub dims: usize,
    /// Live points.
    pub points: usize,
    /// Current incremental skyline cardinality.
    pub skyline_len: usize,
    /// Content version.
    pub version: u64,
}

/// The outcome of feeding one change record into a follower dataset.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ReplicaApply {
    /// The record advanced the dataset to its version.
    Applied,
    /// The record's version was already applied; at-least-once delivery
    /// makes duplicates normal, and version arithmetic makes them safe.
    Duplicate,
    /// The record cannot be applied safely (version gap, wrong-base
    /// delta refusal, or a delta mismatch after applying the op). The
    /// follower must discard this dataset and resync from a snapshot —
    /// fail closed, never serve a wrong answer.
    Diverged(String),
}

struct Inner {
    stream: StreamingSkyline,
    /// The read snapshot of the current version, filled on first demand
    /// by [`DatasetEntry::snapshot`]; every mutation empties it.
    snapshot: OnceLock<Arc<Snapshot>>,
    /// Durability log; `None` for a memory-only registry.
    wal: Option<DatasetWal>,
    /// The bounded per-version change feed (see [`ChangeLog`]).
    changes: ChangeLog,
}

/// One named dataset: a streaming skyline plus its read snapshot.
pub struct DatasetEntry {
    name: String,
    dims: usize,
    inner: RwLock<Inner>,
    /// Long-poll support: the latest content version mirrored outside
    /// the dataset lock, with a condvar notified on every mutation so
    /// feed subscribers on an idle dataset block instead of spinning.
    feed_signal: (Mutex<u64>, Condvar),
}

/// Lock helpers that survive a poisoned lock: a panicking handler must
/// not take the registry down with it (the data is a skyline index, not
/// a partially applied invariant).
fn read_lock(lock: &RwLock<Inner>) -> std::sync::RwLockReadGuard<'_, Inner> {
    lock.read().unwrap_or_else(|e| e.into_inner())
}

fn write_lock(lock: &RwLock<Inner>) -> RwLockWriteGuard<'_, Inner> {
    lock.write().unwrap_or_else(|e| e.into_inner())
}

/// Materialise the live rows of `stream`, walking its slots once into
/// the handle list and one flat buffer.
fn build_snapshot(stream: &StreamingSkyline) -> Snapshot {
    let dims = stream.dims();
    let mut handles = Vec::with_capacity(stream.len());
    let mut values = Vec::with_capacity(stream.len() * dims);
    for (id, row) in stream.slot_rows().into_iter().enumerate() {
        if let Some(row) = row {
            handles.push(id as PointId);
            values.extend_from_slice(row);
        }
    }
    let dataset = (!handles.is_empty()).then(|| {
        Dataset::from_flat(values, dims).expect("stream rows were validated on the way in")
    });
    Snapshot {
        version: stream.version(),
        handles,
        dataset,
    }
}

impl DatasetEntry {
    /// The one constructor: an entry serving `stream`, with `wal` when
    /// durable. A fresh dataset starts from an empty stream and a fresh
    /// log, a recovered one from its snapshot plus replayed log, and a
    /// follower's from a primary snapshot with no log (replicas resync
    /// from the primary, they do not keep their own WAL). The change
    /// feed resumes with `records`, the ones the WAL could still replay:
    /// history absorbed into a snapshot is below the retention horizon,
    /// and stale cursors get an explicit [`FeedGone`] instead of a
    /// silent gap.
    fn new(
        name: &str,
        stream: StreamingSkyline,
        wal: Option<DatasetWal>,
        records: Vec<ChangeRecord>,
        feed_retain: usize,
    ) -> DatasetEntry {
        let version = stream.version();
        DatasetEntry {
            name: name.to_string(),
            dims: stream.dims(),
            inner: RwLock::new(Inner {
                changes: ChangeLog::resume(version, records, feed_retain),
                stream,
                snapshot: OnceLock::new(),
                wal,
            }),
            feed_signal: (Mutex::new(version), Condvar::new()),
        }
    }

    /// Dataset name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Dimensionality.
    pub fn dims(&self) -> usize {
        self.dims
    }

    /// The snapshot of the current version, built by the first call
    /// at that version (see [`DatasetEntry::snapshot_filled`]).
    pub fn snapshot(&self) -> Arc<Snapshot> {
        self.snapshot_filled().0
    }

    /// The snapshot of the current version, and whether this call built
    /// it. The build copies every live row once, under the read lock;
    /// concurrent callers at the same version wait for that one build
    /// instead of each copying the rows.
    pub fn snapshot_filled(&self) -> (Arc<Snapshot>, bool) {
        let inner = read_lock(&self.inner);
        let mut filled = false;
        let snapshot = inner.snapshot.get_or_init(|| {
            filled = true;
            Arc::new(build_snapshot(&inner.stream))
        });
        (Arc::clone(snapshot), filled)
    }

    /// Current content version: what a cached answer is keyed by.
    pub fn version(&self) -> u64 {
        read_lock(&self.inner).stream.version()
    }

    /// Summary counters.
    pub fn info(&self) -> DatasetInfo {
        let inner = read_lock(&self.inner);
        DatasetInfo {
            name: self.name.clone(),
            dims: self.dims,
            points: inner.stream.len(),
            skyline_len: inner.stream.skyline_len(),
            version: inner.stream.version(),
        }
    }

    /// The incrementally maintained full-space skyline with its version.
    pub fn streaming_skyline(&self) -> (u64, Vec<PointId>) {
        let inner = read_lock(&self.inner);
        (inner.stream.version(), inner.stream.skyline())
    }

    /// Current size of this dataset's write-ahead log, bytes (0 for a
    /// memory-only registry).
    pub fn wal_bytes(&self) -> u64 {
        read_lock(&self.inner)
            .wal
            .as_ref()
            .map_or(0, DatasetWal::wal_bytes)
    }

    /// Insert rows (all-or-nothing), returning their handles and the
    /// [`Mutation`] summary (post-apply version, skyline size, and the
    /// coalesced [`SkylineDelta`] covering the whole batch).
    ///
    /// Durable registries log the whole batch *before* touching memory:
    /// a WAL failure rejects the batch with nothing applied, so the
    /// in-memory state never runs ahead of the log (replay reconstructs
    /// handles from insert order, which must match).
    pub fn insert_rows(
        &self,
        rows: &[Vec<f64>],
    ) -> Result<(Vec<PointId>, Mutation), RegistryError> {
        validate_rows(rows, self.dims)?;
        let (mut inner, timer) = self.lock_for_write();
        self.commit(&mut inner, timer, None, inserts(rows))
    }

    /// Remove points by handle, returning how many were live and the
    /// [`Mutation`] summary. Unknown or already-deleted handles are
    /// counted out, not errors, and so is every repeat of a handle
    /// after its first.
    ///
    /// Which handles are live is decided under the write lock, before
    /// anything is logged, so removes are logged first like inserts: the
    /// log records only removals that happen, and a WAL failure rejects
    /// the batch with nothing applied. A batch with no live handle logs
    /// nothing and leaves the version where it was.
    pub fn remove_ids(&self, ids: &[PointId]) -> Result<(usize, Mutation), RegistryError> {
        let (mut inner, timer) = self.lock_for_write();
        let mut seen = HashSet::new();
        let ops: Vec<ChangeOp> = ids
            .iter()
            .filter(|&&id| inner.stream.get(id).is_some() && seen.insert(id))
            .map(|&id| ChangeOp::Remove { id })
            .collect();
        let (removed, mutation) = self.commit(&mut inner, timer, None, ops.into_iter())?;
        Ok((removed.len(), mutation))
    }

    /// Take the write lock, timing the wait as the `lock` stage of the
    /// timer returned with the guard.
    fn lock_for_write(&self) -> (RwLockWriteGuard<'_, Inner>, StageTimer) {
        let mut timer = StageTimer::start();
        let inner = write_lock(&self.inner);
        timer.mark("lock");
        (inner, timer)
    }

    /// The one write path, under the write lock. Each of `ops` must take
    /// effect when applied in order (rows validated, removes of distinct
    /// live handles). A durable entry appends `head` and the batch's
    /// lines to its log in one write, and only then applies the ops,
    /// appends their change records and runs [`Self::after_mutation`]
    /// once. A failed append leaves memory untouched. An empty batch
    /// changes nothing, so it skips the upkeep. Returns the handle each
    /// op inserted or removed, and the [`Mutation`] with `timer`'s
    /// stages.
    ///
    /// `ops` is an iterator, walked once for the log lines and once to
    /// apply, so an insert batch never holds a second copy of its rows.
    fn commit(
        &self,
        inner: &mut Inner,
        mut timer: StageTimer,
        head: Option<String>,
        ops: impl ExactSizeIterator<Item = ChangeOp> + Clone,
    ) -> Result<(Vec<PointId>, Mutation), RegistryError> {
        let base_version = inner.stream.version();
        if let Some(wal) = inner.wal.as_mut() {
            let numbered = ops.clone().zip(base_version + 1..);
            let mut lines: Vec<String> = head.into_iter().collect();
            lines.extend(numbered.map(|(op, v)| wal::op_record(&op, v)));
            if !lines.is_empty() {
                wal.append_batch(&lines).map_err(io_failure)?;
            }
        }
        timer.mark("wal");
        let mut metrics = Metrics::new();
        let mut ids = Vec::with_capacity(ops.len());
        let mut deltas = Vec::with_capacity(ops.len());
        for op in ops {
            let (id, delta) = op
                .apply(&mut inner.stream, &mut metrics)
                .expect("a committed op takes effect");
            ids.push(id);
            deltas.push(delta.clone());
            inner.changes.append(ChangeRecord { op, delta });
        }
        let delta =
            SkylineDelta::coalesce(&deltas).unwrap_or_else(|| SkylineDelta::empty(base_version));
        timer.mark("apply");
        if !ids.is_empty() {
            self.after_mutation(inner, &mut timer);
        }
        let mutation = Mutation {
            base_version,
            version: inner.stream.version(),
            skyline_len: inner.stream.skyline_len(),
            delta,
            stages: timer.stages().to_vec(),
        };
        Ok((ids, mutation))
    }

    /// Post-mutation upkeep under the write lock, in O(1) apart from a
    /// compaction: empty the read snapshot slot (the next reader that
    /// needs rows refills it), compact the log if it outgrew its
    /// threshold, and wake every long-poll feed subscriber. Marks the
    /// `compact` and `notify` stages on `timer`.
    fn after_mutation(&self, inner: &mut Inner, timer: &mut StageTimer) {
        inner.snapshot = OnceLock::new();
        if let Some(wal) = inner.wal.as_mut() {
            // A failed compaction is not a durability failure: the log
            // still holds the full history, so just carry on.
            let _ = wal.maybe_compact(&inner.stream);
        }
        timer.mark("compact");
        let (lock, cvar) = &self.feed_signal;
        *lock.lock().unwrap_or_else(|e| e.into_inner()) = inner.stream.version();
        cvar.notify_all();
        timer.mark("notify");
    }

    /// Serve a change-feed cursor read: up to `limit` records strictly
    /// after `since`, or [`FeedGone`] when the cursor predates the
    /// retention horizon and the consumer must resync.
    pub fn changes_since(&self, since: u64, limit: usize) -> Result<FeedBatch, FeedGone> {
        read_lock(&self.inner).changes.since(since, limit)
    }

    /// Block until the content version exceeds `since` or `timeout`
    /// elapses, returning the last version observed. Long-poll
    /// subscribers park here so an idle dataset costs nothing.
    pub fn wait_for_version(&self, since: u64, timeout: Duration) -> u64 {
        let (lock, cvar) = &self.feed_signal;
        let deadline = Instant::now() + timeout;
        let mut version = lock.lock().unwrap_or_else(|e| e.into_inner());
        while *version <= since {
            let now = Instant::now();
            if now >= deadline {
                break;
            }
            version = cvar
                .wait_timeout(version, deadline - now)
                .unwrap_or_else(|e| e.into_inner())
                .0;
        }
        *version
    }

    /// The dataset's full state as a snapshot document (the same wire
    /// format `.snap` files use) — what a follower resyncs from.
    pub fn snapshot_doc(&self) -> String {
        wal::snapshot_doc(&read_lock(&self.inner).stream)
    }

    /// Apply one replicated change record on a follower.
    ///
    /// Duplicates (version at or below ours) are skipped by arithmetic;
    /// the next dense version is applied with [`ChangeOp::apply`] *and*
    /// checked against the shipped [`SkylineDelta`] — first by asking
    /// the wrong-base-refusing [`SkylineDelta::apply`] whether it even
    /// fits our current skyline, then by comparing the locally produced
    /// delta to the shipped one. Any disagreement reports
    /// [`ReplicaApply::Diverged`] and the caller resyncs.
    pub fn apply_replicated(&self, record: &ChangeRecord) -> Result<ReplicaApply, RegistryError> {
        let mut inner = write_lock(&self.inner);
        let current = inner.stream.version();
        let v = record.version();
        if v <= current {
            return Ok(ReplicaApply::Duplicate);
        }
        if v != current + 1 {
            return Ok(ReplicaApply::Diverged(format!(
                "version gap: follower at {current}, record is {v}"
            )));
        }
        let mut sky = inner.stream.skyline();
        if !record.delta.apply(&mut sky) {
            return Ok(ReplicaApply::Diverged(format!(
                "delta for version {v} refused our base skyline"
            )));
        }
        match record.op.apply(&mut inner.stream, &mut Metrics::new()) {
            Some((_, delta)) if delta == record.delta => {}
            Some((_, delta)) => {
                return Ok(ReplicaApply::Diverged(format!(
                    "delta mismatch at version {v}: local {delta:?} vs shipped {:?}",
                    record.delta
                )));
            }
            None => {
                return Ok(ReplicaApply::Diverged(format!(
                    "the op at version {v} did not take effect here"
                )));
            }
        }
        inner.changes.append(record.clone());
        self.after_mutation(&mut inner, &mut StageTimer::start());
        Ok(ReplicaApply::Applied)
    }

    /// Stamp an `epoch` record into this dataset's log (no-op for a
    /// memory-only entry).
    fn log_epoch(&self, epoch: u64) -> Result<(), RegistryError> {
        let mut inner = write_lock(&self.inner);
        if let Some(wal) = inner.wal.as_mut() {
            wal.append_batch(&[wal::epoch_record(epoch)])
                .map_err(io_failure)?;
        }
        Ok(())
    }
}

/// One insert op per row.
fn inserts(rows: &[Vec<f64>]) -> impl ExactSizeIterator<Item = ChangeOp> + Clone + '_ {
    rows.iter().map(|row| ChangeOp::Insert { row: row.clone() })
}

fn io_failure(e: std::io::Error) -> RegistryError {
    RegistryError::Io(e.to_string())
}

fn validate_rows(rows: &[Vec<f64>], dims: usize) -> Result<(), RegistryError> {
    for (i, row) in rows.iter().enumerate() {
        if row.len() != dims {
            return Err(RegistryError::BadData(format!(
                "row {i} has {} values, expected {dims}",
                row.len()
            )));
        }
        if let Some(at) = row.iter().position(|v| v.is_nan()) {
            return Err(RegistryError::BadData(format!(
                "row {i}, dimension {at} is NaN"
            )));
        }
    }
    Ok(())
}

/// The naming rule every dataset name must pass: 1-64 characters from
/// `[A-Za-z0-9._-]`.
pub(crate) fn validate_name(name: &str) -> Result<(), RegistryError> {
    let ok = !name.is_empty()
        && name.len() <= 64
        && name
            .bytes()
            .all(|b| b.is_ascii_alphanumeric() || matches!(b, b'.' | b'_' | b'-'));
    if ok {
        Ok(())
    } else {
        Err(RegistryError::BadName(name.to_string()))
    }
}

/// All resident datasets, by name. The outer `RwLock` guards the name
/// table only; per-dataset state has its own lock, so queries against one
/// dataset never block loads of another.
pub struct Registry {
    datasets: RwLock<HashMap<String, Arc<DatasetEntry>>>,
    /// Serialises creations: two racing creates of the same name must
    /// not both touch that name's WAL files.
    create_lock: std::sync::Mutex<()>,
    /// Durability settings; `None` for a memory-only registry.
    storage: Option<StorageConfig>,
    /// WAL records replayed at boot, summed over every dataset.
    recovery_replayed: u64,
    /// Per-dataset recovery results: `(name, replayed, version)`.
    recovery_log: Vec<(String, u64, u64)>,
    /// Change records retained per dataset for the feed.
    feed_retain: usize,
    /// Highest fencing epoch found at boot (node epoch file plus any
    /// epoch records still in the logs); 0 for a fresh node.
    recovered_epoch: u64,
}

impl Default for Registry {
    fn default() -> Registry {
        Registry {
            datasets: RwLock::new(HashMap::new()),
            create_lock: std::sync::Mutex::new(()),
            storage: None,
            recovery_replayed: 0,
            recovery_log: Vec::new(),
            feed_retain: DEFAULT_FEED_RETAIN,
            recovered_epoch: 0,
        }
    }
}

impl Registry {
    /// An empty, memory-only registry.
    pub fn new() -> Registry {
        Registry::default()
    }

    /// An empty, memory-only registry with an explicit change-feed
    /// retention cap (records per dataset).
    pub fn with_feed_retain(feed_retain: usize) -> Registry {
        Registry {
            feed_retain: feed_retain.max(1),
            ..Registry::default()
        }
    }

    /// A durable registry: creates the data directory if needed and
    /// recovers every dataset found there from snapshot + log.
    pub fn open(storage: StorageConfig) -> std::io::Result<Registry> {
        Registry::open_with(storage, DEFAULT_FEED_RETAIN)
    }

    /// [`Registry::open`] with an explicit change-feed retention cap.
    pub fn open_with(storage: StorageConfig, feed_retain: usize) -> std::io::Result<Registry> {
        let feed_retain = feed_retain.max(1);
        std::fs::create_dir_all(&storage.dir)?;
        let mut map = HashMap::new();
        let mut recovery_replayed = 0;
        let mut recovery_log = Vec::new();
        let mut recovered_epoch = wal::read_node_epoch(&storage.dir);
        for name in wal::list_datasets(&storage.dir)? {
            let Some(recovered) = wal::recover(&storage, &name)? else {
                continue;
            };
            recovered_epoch = recovered_epoch.max(recovered.epoch);
            recovery_replayed += recovered.replayed;
            recovery_log.push((name.clone(), recovered.replayed, recovered.stream.version()));
            let entry = DatasetEntry::new(
                &name,
                recovered.stream,
                Some(recovered.wal),
                recovered.records,
                feed_retain,
            );
            map.insert(name, Arc::new(entry));
        }
        Ok(Registry {
            datasets: RwLock::new(map),
            create_lock: std::sync::Mutex::new(()),
            storage: Some(storage),
            recovery_replayed,
            recovery_log,
            feed_retain,
            recovered_epoch,
        })
    }

    /// Highest fencing epoch persisted for this node at boot: the node
    /// epoch file, widened by any epoch records compaction had not yet
    /// absorbed. 0 for memory-only or never-promoted nodes.
    pub fn recovered_epoch(&self) -> u64 {
        self.recovered_epoch
    }

    /// Persist a fencing epoch: write the node epoch file and stamp an
    /// `epoch` record into every dataset's log so a restart resumes
    /// under this epoch. A no-op for memory-only registries (the epoch
    /// then lives only in memory, which is all a replica has anyway).
    pub fn persist_epoch(&self, epoch: u64) -> Result<(), RegistryError> {
        let Some(storage) = &self.storage else {
            return Ok(());
        };
        wal::write_node_epoch(&storage.dir, epoch).map_err(io_failure)?;
        let entries: Vec<Arc<DatasetEntry>> = self
            .datasets
            .read()
            .unwrap_or_else(|e| e.into_inner())
            .values()
            .cloned()
            .collect();
        for entry in entries {
            entry.log_epoch(epoch)?;
        }
        Ok(())
    }

    /// WAL records replayed on boot, summed over every dataset.
    pub fn recovery_replayed(&self) -> u64 {
        self.recovery_replayed
    }

    /// Per-dataset recovery results from boot: `(name, replayed, version)`.
    pub fn recovery_log(&self) -> &[(String, u64, u64)] {
        &self.recovery_log
    }

    /// Total bytes across every dataset's write-ahead log.
    pub fn wal_bytes(&self) -> u64 {
        self.datasets
            .read()
            .unwrap_or_else(|e| e.into_inner())
            .values()
            .map(|e| e.wal_bytes())
            .sum()
    }

    /// Create a dataset from rows. `dims` must be given when `rows` is
    /// empty; otherwise it must match the rows. A durable registry logs
    /// the `create` line and every row's line in one append before it
    /// applies a row.
    pub fn create(
        &self,
        name: &str,
        dims: usize,
        rows: &[Vec<f64>],
    ) -> Result<Arc<DatasetEntry>, RegistryError> {
        validate_name(name)?;
        // Serialise creations: a racing duplicate must not truncate the
        // winner's WAL files while it is still being registered.
        let _creating = self.create_lock.lock().unwrap_or_else(|e| e.into_inner());
        {
            let map = self.datasets.read().unwrap_or_else(|e| e.into_inner());
            if map.contains_key(name) {
                return Err(RegistryError::Exists(name.to_string()));
            }
        }
        let stream =
            StreamingSkyline::new(dims).map_err(|e| RegistryError::BadData(e.to_string()))?;
        validate_rows(rows, dims)?;
        let wal = self
            .storage
            .as_ref()
            .map(|config| DatasetWal::create(config, name));
        let wal = wal.transpose().map_err(io_failure)?;
        let entry = DatasetEntry::new(name, stream, wal, Vec::new(), self.feed_retain);
        let head = Some(wal::create_record(dims));
        let (mut inner, timer) = entry.lock_for_write();
        entry.commit(&mut inner, timer, head, inserts(rows))?;
        drop(inner);
        let entry = Arc::new(entry);
        let mut map = self.datasets.write().unwrap_or_else(|e| e.into_inner());
        map.insert(name.to_string(), Arc::clone(&entry));
        Ok(entry)
    }

    /// Install (or replace) a follower-side dataset rebuilt from a
    /// primary snapshot. Replacing is the resync path: the stale entry
    /// and its feed are dropped wholesale.
    pub fn install_replica(
        &self,
        name: &str,
        stream: StreamingSkyline,
    ) -> Result<Arc<DatasetEntry>, RegistryError> {
        validate_name(name)?;
        let _creating = self.create_lock.lock().unwrap_or_else(|e| e.into_inner());
        let entry = Arc::new(DatasetEntry::new(
            name,
            stream,
            None,
            Vec::new(),
            self.feed_retain,
        ));
        let mut map = self.datasets.write().unwrap_or_else(|e| e.into_inner());
        map.insert(name.to_string(), Arc::clone(&entry));
        Ok(entry)
    }

    /// Look a dataset up by name.
    pub fn get(&self, name: &str) -> Result<Arc<DatasetEntry>, RegistryError> {
        self.datasets
            .read()
            .unwrap_or_else(|e| e.into_inner())
            .get(name)
            .cloned()
            .ok_or_else(|| RegistryError::Unknown(name.to_string()))
    }

    /// Summaries of every dataset, sorted by name.
    pub fn list(&self) -> Vec<DatasetInfo> {
        let mut infos: Vec<DatasetInfo> = self
            .datasets
            .read()
            .unwrap_or_else(|e| e.into_inner())
            .values()
            .map(|e| e.info())
            .collect();
        infos.sort_by(|a, b| a.name.cmp(&b.name));
        infos
    }

    /// Number of resident datasets.
    pub fn len(&self) -> usize {
        self.datasets
            .read()
            .unwrap_or_else(|e| e.into_inner())
            .len()
    }

    /// Whether no datasets are resident.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rows(v: &[[f64; 2]]) -> Vec<Vec<f64>> {
        v.iter().map(|r| r.to_vec()).collect()
    }

    #[test]
    fn create_query_and_mutate() {
        let reg = Registry::new();
        let entry = reg
            .create("demo", 2, &rows(&[[1.0, 5.0], [5.0, 1.0], [6.0, 6.0]]))
            .unwrap();
        let info = entry.info();
        assert_eq!((info.points, info.skyline_len), (3, 2));
        let snap = entry.snapshot();
        assert_eq!(snap.handles, vec![0, 1, 2]);
        assert_eq!(snap.version, 3, "one version bump per initial row");

        let (ids, m) = entry.insert_rows(&rows(&[[0.5, 0.5]])).unwrap();
        assert_eq!(ids, vec![3]);
        assert_eq!((m.base_version, m.version), (3, 4));
        assert_eq!(m.skyline_len, 1, "new point dominates everything");
        assert_eq!(m.delta.entered, vec![3]);
        assert_eq!(m.delta.left, vec![0, 1], "old skyline evicted");
        let (version, skyline) = entry.streaming_skyline();
        assert_eq!(version, 4);
        assert_eq!(skyline, vec![3]);

        let (removed, m2) = entry.remove_ids(&[3, 99]).unwrap();
        assert_eq!(removed, 1);
        assert_eq!((m2.base_version, m2.version), (4, 5));
        assert_eq!(m2.skyline_len, 2, "old skyline resurfaces");
        assert_eq!(m2.delta.entered, vec![0, 1]);
        assert_eq!(m2.delta.left, vec![3]);
        let snap2 = entry.snapshot();
        assert_eq!(snap2.handles, vec![0, 1, 2]);
        assert_eq!(snap2.version, 5);
    }

    #[test]
    fn snapshot_is_immutable_across_mutations() {
        let reg = Registry::new();
        let entry = reg.create("pin", 2, &rows(&[[1.0, 2.0]])).unwrap();
        let before = entry.snapshot();
        entry.insert_rows(&rows(&[[0.0, 0.0]])).unwrap();
        assert_eq!(before.handles, vec![0], "old snapshot unchanged");
        assert_eq!(entry.snapshot().handles, vec![0, 1]);
    }

    #[test]
    fn snapshot_fill_equals_the_rows_copied_twice() {
        let mut stream = StreamingSkyline::new(3).unwrap();
        let mut metrics = Metrics::new();
        let rows = [
            [1.0, 2.0, 3.0],
            [-0.0, f64::INFINITY, 1.0],
            [1.0, 2.0, 3.0],
            [f64::NEG_INFINITY, 0.0, -0.0],
            [4.0, -1.5, 2.0],
            [1.0, 2.0, 3.0],
            [0.5, -0.0, f64::INFINITY],
        ];
        for row in &rows {
            stream.insert(row, &mut metrics).unwrap();
        }
        for id in [0, 4] {
            assert!(stream.remove(id, &mut metrics), "tombstone {id}");
        }

        let fill = build_snapshot(&stream);
        let (handles, live) = stream.snapshot_rows();
        let want = Dataset::from_rows(&live).unwrap();
        assert_eq!(fill.handles, handles);
        assert_eq!(fill.handles, vec![1, 2, 3, 5, 6]);
        assert_eq!(fill.version, stream.version());
        let got = fill.dataset.as_ref().expect("live rows");
        assert_eq!(got.dims(), want.dims());
        let bits = |d: &Dataset| d.as_flat().iter().map(|v| v.to_bits()).collect::<Vec<_>>();
        assert_eq!(bits(got), bits(&want), "same values, -0.0 normalised alike");
    }

    #[test]
    fn writes_empty_the_snapshot_slot_and_reads_fill_it_once() {
        let reg = Registry::new();
        let entry = reg
            .create("lazy", 2, &rows(&[[1.0, 5.0], [5.0, 1.0]]))
            .unwrap();
        let (first, filled) = entry.snapshot_filled();
        assert!(filled, "creation leaves the slot empty");
        let (again, filled) = entry.snapshot_filled();
        assert!(!filled, "one fill per version");
        assert!(Arc::ptr_eq(&first, &again));

        let (_, m) = entry.insert_rows(&rows(&[[0.5, 0.5]])).unwrap();
        let names: Vec<&str> = m.stages.iter().map(|(n, _)| n.as_str()).collect();
        assert_eq!(names, ["lock", "wal", "apply", "compact", "notify"]);
        assert_eq!(entry.version(), 3, "the version moves without a fill");
        let (after, filled) = entry.snapshot_filled();
        assert!(filled, "the write emptied the slot");
        assert_eq!(
            (after.version, after.handles.as_slice()),
            (3, &[0, 1, 2][..])
        );

        let (_, m) = entry.remove_ids(&[99]).unwrap();
        let names: Vec<&str> = m.stages.iter().map(|(n, _)| n.as_str()).collect();
        assert_eq!(
            names,
            ["lock", "wal", "apply"],
            "a no-op remove skips the upkeep"
        );
        assert!(!entry.snapshot_filled().1, "a no-op remove keeps the slot");
    }

    #[test]
    fn names_and_duplicates_are_validated() {
        let reg = Registry::new();
        assert!(matches!(
            reg.create("", 2, &[]),
            Err(RegistryError::BadName(_))
        ));
        assert!(matches!(
            reg.create("no spaces", 2, &[]),
            Err(RegistryError::BadName(_))
        ));
        reg.create("ok-name_1.2", 2, &[]).unwrap();
        assert!(matches!(
            reg.create("ok-name_1.2", 2, &[]),
            Err(RegistryError::Exists(_))
        ));
        assert!(matches!(reg.get("missing"), Err(RegistryError::Unknown(_))));
        assert_eq!(reg.len(), 1);
    }

    #[test]
    fn rows_are_validated_atomically() {
        let reg = Registry::new();
        let entry = reg.create("atomic", 2, &rows(&[[1.0, 1.0]])).unwrap();
        let bad = vec![vec![2.0, 2.0], vec![3.0]];
        assert!(entry.insert_rows(&bad).is_err());
        assert_eq!(entry.info().points, 1, "nothing inserted on failure");
        let nan = vec![vec![f64::NAN, 1.0]];
        assert!(entry.insert_rows(&nan).is_err());
    }

    #[test]
    fn empty_dataset_has_no_batch_snapshot() {
        let reg = Registry::new();
        let entry = reg.create("empty", 3, &[]).unwrap();
        let snap = entry.snapshot();
        assert_eq!(snap.version, 0);
        assert!(snap.dataset.is_none());
        assert!(snap.handles.is_empty());
    }

    #[test]
    fn change_feed_records_every_mutation_in_version_order() {
        let reg = Registry::new();
        let entry = reg
            .create("feed", 2, &rows(&[[1.0, 5.0], [5.0, 1.0]]))
            .unwrap();
        entry.insert_rows(&rows(&[[0.5, 0.5]])).unwrap();
        entry.remove_ids(&[2]).unwrap();
        let batch = entry.changes_since(0, 100).unwrap();
        assert_eq!(
            batch
                .records
                .iter()
                .map(ChangeRecord::version)
                .collect::<Vec<_>>(),
            vec![1, 2, 3, 4]
        );
        assert_eq!(batch.next, 4);
        assert!(matches!(batch.records[3].op, ChangeOp::Remove { id: 2 }));
        // Caught-up cursor waits out its timeout and keeps its cursor.
        let version = entry.wait_for_version(4, Duration::from_millis(20));
        assert_eq!(version, 4);
        assert!(entry.changes_since(4, 100).unwrap().records.is_empty());
    }

    #[test]
    fn feed_retention_cap_turns_stale_cursors_into_gone() {
        let reg = Registry::with_feed_retain(2);
        let entry = reg.create("small", 2, &[]).unwrap();
        for i in 0..5 {
            entry
                .insert_rows(&rows(&[[i as f64, 5.0 - i as f64]]))
                .unwrap();
        }
        let gone = entry.changes_since(0, 100).unwrap_err();
        assert_eq!(gone.oldest, 4, "only versions 4..=5 retained");
        let batch = entry.changes_since(3, 100).unwrap();
        assert_eq!(batch.records.len(), 2);
    }

    #[test]
    fn replicated_records_rebuild_the_primary_exactly() {
        let primary = Registry::new();
        let p = primary
            .create("rep", 2, &rows(&[[1.0, 5.0], [5.0, 1.0], [6.0, 6.0]]))
            .unwrap();
        p.insert_rows(&rows(&[[0.5, 4.0]])).unwrap();
        p.remove_ids(&[1]).unwrap();

        let follower = Registry::new();
        let f = follower.create("rep", 2, &[]).unwrap();
        let batch = p.changes_since(0, 100).unwrap();
        for record in &batch.records {
            assert_eq!(f.apply_replicated(record).unwrap(), ReplicaApply::Applied);
        }
        assert_eq!(f.streaming_skyline(), p.streaming_skyline());
        assert_eq!(f.snapshot_doc(), p.snapshot_doc(), "full state matches");

        // At-least-once: replaying any prefix is a harmless duplicate.
        for record in &batch.records {
            assert_eq!(f.apply_replicated(record).unwrap(), ReplicaApply::Duplicate);
        }
        assert_eq!(f.streaming_skyline(), p.streaming_skyline());
    }

    #[test]
    fn replica_apply_fails_closed_on_gaps_and_bad_deltas() {
        let primary = Registry::new();
        let p = primary.create("div", 2, &[]).unwrap();
        for i in 0..4 {
            p.insert_rows(&rows(&[[i as f64, 4.0 - i as f64]])).unwrap();
        }
        let records = p.changes_since(0, 100).unwrap().records;

        // Version gap: skipping a record is detected by arithmetic.
        let follower = Registry::new();
        let f = follower.create("div", 2, &[]).unwrap();
        f.apply_replicated(&records[0]).unwrap();
        assert!(matches!(
            f.apply_replicated(&records[2]).unwrap(),
            ReplicaApply::Diverged(_)
        ));

        // A delta whose base does not match is refused before any
        // mutation happens.
        let mut forged = records[1].clone();
        forged.delta = SkylineDelta::from_events(vec![9], vec![7], forged.delta.version);
        let before = f.streaming_skyline();
        assert!(matches!(
            f.apply_replicated(&forged).unwrap(),
            ReplicaApply::Diverged(_)
        ));
        assert_eq!(f.streaming_skyline(), before, "refusal did not mutate");
    }

    #[test]
    fn install_replica_replaces_stale_state() {
        let primary = Registry::new();
        let p = primary
            .create("sync", 2, &rows(&[[1.0, 2.0], [2.0, 1.0]]))
            .unwrap();
        let doc = p.snapshot_doc();
        let (dims, version, slots) = wal::parse_snapshot(&doc).expect("snapshot doc parses");
        let stream = StreamingSkyline::restore(dims, &slots, version).unwrap();

        let follower = Registry::new();
        follower.create("sync", 2, &rows(&[[9.0, 9.0]])).unwrap();
        let f = follower.install_replica("sync", stream).unwrap();
        assert_eq!(f.streaming_skyline(), p.streaming_skyline());
        assert_eq!(follower.get("sync").unwrap().snapshot_doc(), doc);
        // The replaced entry's feed starts at the snapshot version:
        // pre-snapshot cursors must resync, the current cursor is fine.
        assert!(f.changes_since(0, 10).is_err());
        assert!(f.changes_since(2, 10).unwrap().records.is_empty());
    }

    #[test]
    fn durable_registry_recovers_datasets_across_reopen() {
        let dir = std::env::temp_dir().join(format!(
            "skyline-reg-{}-{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        let _ = std::fs::remove_dir_all(&dir);

        let (want_snap, want_version) = {
            let reg = Registry::open(StorageConfig::new(dir.clone())).unwrap();
            let entry = reg
                .create("durable", 2, &rows(&[[1.0, 5.0], [5.0, 1.0]]))
                .unwrap();
            entry.insert_rows(&rows(&[[6.0, 6.0], [0.5, 4.0]])).unwrap();
            entry.remove_ids(&[2]).unwrap();
            let (version, skyline) = entry.streaming_skyline();
            (skyline, version)
        };

        let reg = Registry::open(StorageConfig::new(dir.clone())).unwrap();
        let entry = reg.get("durable").unwrap();
        let (version, skyline) = entry.streaming_skyline();
        assert_eq!(version, want_version, "recovery lands on the acked version");
        assert_eq!(skyline, want_snap, "recovered skyline matches pre-crash");
        assert!(reg.recovery_replayed() > 0, "WAL records were replayed");

        // Further mutations keep handle assignment dense and consistent.
        let (ids, _) = entry.insert_rows(&rows(&[[0.1, 0.1]])).unwrap();
        assert_eq!(ids, vec![4], "next handle continues from recovered state");

        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn persisted_epoch_survives_reopen() {
        let dir = std::env::temp_dir().join(format!(
            "skyline-reg-epoch-{}-{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        let _ = std::fs::remove_dir_all(&dir);

        {
            let reg = Registry::open(StorageConfig::new(dir.clone())).unwrap();
            assert_eq!(reg.recovered_epoch(), 0, "fresh node starts at epoch 0");
            reg.create("fenced", 2, &rows(&[[1.0, 2.0]])).unwrap();
            reg.persist_epoch(3).unwrap();
        }
        let reg = Registry::open(StorageConfig::new(dir.clone())).unwrap();
        assert_eq!(reg.recovered_epoch(), 3);
        // Memory-only registries accept but do not persist epochs.
        let mem = Registry::new();
        mem.persist_epoch(9).unwrap();
        assert_eq!(mem.recovered_epoch(), 0);

        let _ = std::fs::remove_dir_all(&dir);
    }
}
