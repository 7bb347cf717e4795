//! The per-dataset change log: a dense, versioned record stream feeding
//! change feeds and read replicas.
//!
//! Every effective mutation of a maintained skyline moves its content
//! version by exactly +1 and yields a [`SkylineDelta`]
//! (enter/leave sets). The change log keeps a bounded suffix of those
//! per-version records — each paired with the *operation* that produced
//! it, so a follower can rebuild the full point set, not just skyline
//! membership — and serves cursor reads over it:
//!
//! - A **cursor** is simply the last version the consumer has applied.
//!   [`ChangeLog::since`] returns the records strictly after it, in
//!   version order, plus the advanced cursor. Versions are dense, so a
//!   consumer can detect gaps (`record.version != applied + 1`) and
//!   duplicates (`record.version <= applied`) by arithmetic alone —
//!   at-least-once delivery is safe because re-applying an old record
//!   is detectable and skippable.
//! - Retention is bounded (`max_records`) and restart-bounded: after a
//!   snapshot+truncate WAL compaction only the records the WAL still
//!   holds can be rebuilt, so the log's **oldest retained version**
//!   advances. A cursor older than that cannot be served without a
//!   silent gap; [`ChangeLog::since`] answers [`FeedGone`] instead, and
//!   the consumer resyncs from a full snapshot. Fail closed, never
//!   wrong.
//!
//! The log is deliberately a plain in-memory structure with no locking
//! of its own: the serving layer already guards each dataset with a
//! lock, and recovery rebuilds the log from the write-ahead log's
//! replayed records.

use std::collections::VecDeque;

use crate::delta::SkylineDelta;
use crate::metrics::Metrics;
use crate::point::PointId;
use crate::streaming::StreamingSkyline;

/// The mutation behind one change-log record — enough for a replica to
/// reproduce the primary's exact state transition (insert order is
/// handle assignment, so shipping rows keeps handle spaces identical).
#[derive(Debug, Clone, PartialEq)]
pub enum ChangeOp {
    /// A row was inserted (and was assigned the next dense handle).
    Insert {
        /// The row's coordinates.
        row: Vec<f64>,
    },
    /// A live point was removed.
    Remove {
        /// The removed point's handle.
        id: PointId,
    },
}

impl ChangeOp {
    /// Apply the op to `stream`: the handle it inserted or removed and
    /// the delta it caused, or `None` when it does not take effect (an
    /// insert the stream refuses, a remove of a handle that is not
    /// live). Every mutation of a served dataset goes through here —
    /// live writes, WAL replay and replica apply alike — so the three
    /// agree on what an op does.
    pub fn apply(
        &self,
        stream: &mut StreamingSkyline,
        metrics: &mut Metrics,
    ) -> Option<(PointId, SkylineDelta)> {
        match self {
            ChangeOp::Insert { row } => stream.insert_delta(row, metrics).ok(),
            ChangeOp::Remove { id } => Some((*id, stream.remove_delta(*id, metrics)?)),
        }
    }
}

/// One change-log entry: the operation at a version together with the
/// skyline-membership delta it caused. `delta.version` is the record's
/// key; records in a log are consecutive.
#[derive(Debug, Clone, PartialEq)]
pub struct ChangeRecord {
    /// The mutation that moved the version.
    pub op: ChangeOp,
    /// The skyline enter/leave sets, carrying the post-apply version.
    pub delta: SkylineDelta,
}

impl ChangeRecord {
    /// The version this record moved the dataset to.
    pub fn version(&self) -> u64 {
        self.delta.version
    }
}

/// A `since` cursor points below the log's retention horizon: records
/// needed to serve it have been compacted away. The consumer must
/// resync from a snapshot at or after `oldest - 1`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FeedGone {
    /// Oldest version the log can still serve a record *for* (i.e. the
    /// smallest retained `record.version`). Valid cursors are
    /// `>= oldest - 1`.
    pub oldest: u64,
}

/// One answered cursor read: the records after `since` (capped by the
/// caller's limit), the advanced cursor, and the log bounds the
/// consumer needs for lag accounting and resync decisions.
#[derive(Debug, Clone, PartialEq)]
pub struct FeedBatch {
    /// Records with `since < version <= next`, in version order.
    pub records: Vec<ChangeRecord>,
    /// The cursor after consuming this batch (`== since` when empty).
    pub next: u64,
    /// The log's latest version at read time.
    pub latest: u64,
    /// The log's oldest retained record version at read time.
    pub oldest: u64,
}

/// A bounded, dense, in-memory log of [`ChangeRecord`]s.
///
/// Invariant: `records[i].version() == oldest_retained() + i`, and the
/// last record's version is [`ChangeLog::latest`]. Appends must be the
/// next dense version; the front is evicted past `max_records`.
#[derive(Debug)]
pub struct ChangeLog {
    records: VecDeque<ChangeRecord>,
    /// Version of the most recent record ever appended (or the resume
    /// point); the next append must carry `latest + 1`.
    latest: u64,
    /// Retention cap: evicting the front advances the oldest retained
    /// version, exactly like a WAL compaction does across a restart.
    max_records: usize,
}

impl ChangeLog {
    /// An empty log for a fresh dataset at version 0.
    pub fn new(max_records: usize) -> ChangeLog {
        ChangeLog::resume(0, Vec::new(), max_records)
    }

    /// Rebuild a log from recovery: the dataset is at `version`, and
    /// `records` are the (dense, consecutive) records the write-ahead
    /// log still held — ending exactly at `version` when non-empty.
    /// History absorbed into the snapshot by compaction is gone, which
    /// is precisely what the retention horizon reports.
    pub fn resume(version: u64, records: Vec<ChangeRecord>, max_records: usize) -> ChangeLog {
        let max_records = max_records.max(1);
        if let Some(last) = records.last() {
            assert_eq!(
                last.version(),
                version,
                "resume records must end at the resume version"
            );
            debug_assert!(records
                .windows(2)
                .all(|w| w[1].version() == w[0].version() + 1));
        }
        let mut log = ChangeLog {
            records: records.into(),
            latest: version,
            max_records,
        };
        log.evict();
        log
    }

    fn evict(&mut self) {
        while self.records.len() > self.max_records {
            self.records.pop_front();
        }
    }

    /// Latest version the log has seen (the dataset's content version).
    pub fn latest(&self) -> u64 {
        self.latest
    }

    /// Smallest `record.version` still retained. When the log is empty
    /// this is `latest + 1`: no record can be served, and the only
    /// valid cursor is `latest` itself.
    pub fn oldest_retained(&self) -> u64 {
        match self.records.front() {
            Some(first) => first.version(),
            None => self.latest + 1,
        }
    }

    /// Append the record for the next version. Versions are dense by
    /// construction upstream (`StreamingSkyline` bumps +1 per effective
    /// mutation); a non-consecutive append is a logic error.
    pub fn append(&mut self, record: ChangeRecord) {
        assert_eq!(
            record.version(),
            self.latest + 1,
            "change log appends must be dense"
        );
        self.latest = record.version();
        self.records.push_back(record);
        self.evict();
    }

    /// Serve a cursor read: up to `limit` records strictly after
    /// `since`. Fails with [`FeedGone`] when `since` predates the
    /// retention horizon — the consumer's next record is compacted away
    /// and silently skipping it would hand out a wrong skyline.
    pub fn since(&self, since: u64, limit: usize) -> Result<FeedBatch, FeedGone> {
        let oldest = self.oldest_retained();
        if since + 1 < oldest && since < self.latest {
            return Err(FeedGone { oldest });
        }
        let mut records = Vec::new();
        if since < self.latest {
            let start = (since + 1 - oldest) as usize;
            let take = limit.max(1).min(self.records.len().saturating_sub(start));
            records.extend(self.records.iter().skip(start).take(take).cloned());
        }
        let next = records.last().map_or(since, ChangeRecord::version);
        Ok(FeedBatch {
            records,
            next,
            latest: self.latest,
            oldest,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rec(version: u64, entered: &[PointId]) -> ChangeRecord {
        ChangeRecord {
            op: ChangeOp::Insert {
                row: vec![version as f64],
            },
            delta: SkylineDelta::from_events(entered.to_vec(), Vec::new(), version),
        }
    }

    #[test]
    fn dense_appends_and_cursor_reads() {
        let mut log = ChangeLog::new(16);
        assert_eq!(log.latest(), 0);
        assert_eq!(log.oldest_retained(), 1, "empty log serves nothing");
        for v in 1..=5 {
            log.append(rec(v, &[v as PointId]));
        }
        let batch = log.since(0, 100).unwrap();
        assert_eq!(batch.records.len(), 5);
        assert_eq!(batch.next, 5);
        assert_eq!((batch.latest, batch.oldest), (5, 1));
        // Limited read advances the cursor only as far as it returned.
        let batch = log.since(1, 2).unwrap();
        assert_eq!(
            batch
                .records
                .iter()
                .map(ChangeRecord::version)
                .collect::<Vec<_>>(),
            vec![2, 3]
        );
        assert_eq!(batch.next, 3);
        // Caught-up cursor: empty batch, cursor unchanged.
        let batch = log.since(5, 2).unwrap();
        assert!(batch.records.is_empty());
        assert_eq!(batch.next, 5);
        // A future cursor is tolerated (the consumer knows more than
        // us — e.g. it talked to a newer primary incarnation).
        assert!(log.since(9, 2).unwrap().records.is_empty());
    }

    #[test]
    fn retention_cap_advances_the_horizon_and_gones_stale_cursors() {
        let mut log = ChangeLog::new(3);
        for v in 1..=10 {
            log.append(rec(v, &[]));
        }
        assert_eq!(log.latest(), 10);
        assert_eq!(log.oldest_retained(), 8, "only 3 records retained");
        let gone = log.since(0, 100).unwrap_err();
        assert_eq!(gone.oldest, 8);
        assert!(log.since(6, 100).is_err(), "cursor 6 needs version 7: gone");
        // Cursor == oldest-1 is the earliest still servable.
        let batch = log.since(7, 100).unwrap();
        assert_eq!(batch.records.len(), 3);
        assert_eq!(batch.next, 10);
    }

    #[test]
    fn resume_reports_compacted_history_as_gone() {
        // Snapshot at version 7, WAL replayed records 8..=9.
        let log = ChangeLog::resume(9, vec![rec(8, &[]), rec(9, &[])], 100);
        assert_eq!(log.latest(), 9);
        assert_eq!(log.oldest_retained(), 8);
        assert!(log.since(3, 10).is_err(), "pre-snapshot cursor resyncs");
        assert_eq!(log.since(8, 10).unwrap().records.len(), 1);
        // Fully compacted: nothing replayed.
        let log = ChangeLog::resume(7, Vec::new(), 100);
        assert_eq!(log.oldest_retained(), 8);
        assert!(log.since(6, 10).is_err());
        assert!(log.since(7, 10).unwrap().records.is_empty());
    }

    #[test]
    fn ops_apply_only_when_they_take_effect() {
        let mut stream = StreamingSkyline::new(2).unwrap();
        let mut metrics = Metrics::new();
        let insert = ChangeOp::Insert {
            row: vec![1.0, 2.0],
        };
        let (id, delta) = insert.apply(&mut stream, &mut metrics).unwrap();
        assert_eq!((id, delta.entered, delta.version), (0, vec![0], 1));
        let short = ChangeOp::Insert { row: vec![1.0] };
        assert!(short.apply(&mut stream, &mut metrics).is_none());
        let remove = ChangeOp::Remove { id: 0 };
        let (id, delta) = remove.apply(&mut stream, &mut metrics).unwrap();
        assert_eq!((id, delta.left, delta.version), (0, vec![0], 2));
        assert!(remove.apply(&mut stream, &mut metrics).is_none(), "dead");
        assert!(ChangeOp::Remove { id: 7 }
            .apply(&mut stream, &mut metrics)
            .is_none());
        assert_eq!(stream.version(), 2, "refused ops move nothing");
    }

    #[test]
    #[should_panic(expected = "dense")]
    fn non_dense_appends_are_rejected() {
        let mut log = ChangeLog::new(4);
        log.append(rec(2, &[]));
    }
}
