//! Incremental skyline maintenance over updating data — the paper's
//! future-work item (3) in Section 7 ("adapting the proposed method to
//! updating data such as data streams"), built on the same subset-query
//! machinery as the batch algorithms.
//!
//! ## How subspaces work without pivots
//!
//! The batch pipeline derives maximum dominating subspaces from *pivot*
//! skyline points because its Merge phase doubles as pruning. For a
//! mutable set no point is guaranteed to stay, so [`StreamingSkyline`]
//! anchors subspaces to a small fixed set of *reference rows* instead
//! (coordinate snapshots, not live points): `D_q = ⋃_r D_{q≺r}`. The
//! filtering lemma only needs monotonicity, which holds for **any**
//! reference set: if `p ⪯ q` then for every reference `r` and dimension
//! `i` with `q[i] < r[i]` also `p[i] ≤ q[i] < r[i]` — hence
//! `D_p ⊇ D_q`. Reference rows are captured from the first few inserts
//! (rebuilding the indexes while they accumulate) and can be re-anchored
//! at any time with [`StreamingSkyline::rebuild_reference`] when the
//! distribution drifts.
//!
//! ## Two subset indexes
//!
//! - the **dominator index** stores skyline points under `D_s` and is
//!   queried with `D_q` for superset subspaces: the only points that can
//!   dominate `q`;
//! - the **eviction index** stores the complemented subspace `D_s^¬`, so
//!   the same superset query run on `D_q^¬` returns exactly the skyline
//!   points with `D_s ⊆ D_q` — the only points a newly inserted `q` can
//!   dominate.
//!
//! ## Deletions
//!
//! Every non-skyline point remembers one live *killer* that dominates it
//! (the classic exclusive-dominance bookkeeping). Deleting a skyline
//! point only re-examines the points it killed: each either finds a new
//! killer through the dominator index or is promoted, with promotion
//! running the same eviction pass as a fresh insert.

use std::collections::HashMap;

use crate::delta::{DeltaEvents, SkylineDelta};
use crate::dominance::{dominates, dominating_subspace};
use crate::error::{Error, Result};
use crate::metrics::Metrics;
use crate::point::{coordinate_sum, PointId};
use crate::subset_index::SubsetIndex;
use crate::subspace::{Subspace, MAX_DIMS};

/// Number of reference rows used to anchor subspaces.
pub const DEFAULT_REFERENCE_SIZE: usize = 16;

#[derive(Debug, Clone, PartialEq)]
enum EntryState {
    /// In the skyline, stored in both indexes under this subspace.
    Skyline(Subspace),
    /// Dominated; `killer` is a live point that dominates it.
    Shadowed { killer: PointId },
    /// Removed.
    Deleted,
}

/// A dynamically maintained skyline with insert and remove.
///
/// Handles ([`PointId`]) are assigned densely at insertion and never
/// reused; deleted slots stay tombstoned. All query results refer to live
/// points only.
#[derive(Debug, Clone)]
pub struct StreamingSkyline {
    dims: usize,
    reference_size: usize,
    reference: Vec<Vec<f64>>,
    rows: Vec<Vec<f64>>,
    state: Vec<EntryState>,
    dominator_index: SubsetIndex,
    evict_index: SubsetIndex,
    /// killer -> points it currently shadows.
    shadowed_by: HashMap<PointId, Vec<PointId>>,
    live: usize,
    skyline_len: usize,
    version: u64,
}

impl StreamingSkyline {
    /// An empty maintained skyline over a `dims`-dimensional space.
    pub fn new(dims: usize) -> Result<Self> {
        Self::with_reference_size(dims, DEFAULT_REFERENCE_SIZE)
    }

    /// As [`StreamingSkyline::new`] with an explicit reference-set size
    /// (larger = finer subspace filtering, more per-insert reference
    /// tests).
    pub fn with_reference_size(dims: usize, reference_size: usize) -> Result<Self> {
        if dims == 0 {
            return Err(Error::ZeroDimensions);
        }
        if dims > MAX_DIMS {
            return Err(Error::TooManyDimensions {
                requested: dims,
                max: MAX_DIMS,
            });
        }
        Ok(StreamingSkyline {
            dims,
            reference_size: reference_size.max(1),
            reference: Vec::new(),
            rows: Vec::new(),
            state: Vec::new(),
            dominator_index: SubsetIndex::new(dims),
            evict_index: SubsetIndex::new(dims),
            shadowed_by: HashMap::new(),
            live: 0,
            skyline_len: 0,
            version: 0,
        })
    }

    /// Dimensionality of the maintained space.
    pub fn dims(&self) -> usize {
        self.dims
    }

    /// Number of live points (skyline and shadowed).
    pub fn len(&self) -> usize {
        self.live
    }

    /// Whether no live points remain.
    pub fn is_empty(&self) -> bool {
        self.live == 0
    }

    /// Current skyline cardinality.
    pub fn skyline_len(&self) -> usize {
        self.skyline_len
    }

    /// Content version: starts at 0 and increments on every successful
    /// [`StreamingSkyline::insert`] or [`StreamingSkyline::remove`].
    /// Re-anchoring does not change the live multiset and does not bump
    /// it. Snapshot consumers (e.g. a serving layer keying caches by
    /// dataset state) can use equality of versions as equality of
    /// contents.
    pub fn version(&self) -> u64 {
        self.version
    }

    /// Ids of every live point (skyline and shadowed), ascending.
    pub fn live_ids(&self) -> Vec<PointId> {
        self.live_rows().map(|(id, _)| id).collect()
    }

    /// Materialise the live multiset as `(handles, rows)`: `rows[i]` is
    /// the coordinate vector of live point `handles[i]`, handles
    /// ascending. Row indices of any batch computation over the rows map
    /// back to stable stream handles through `handles`.
    pub fn snapshot_rows(&self) -> (Vec<PointId>, Vec<Vec<f64>>) {
        self.live_rows().map(|(id, row)| (id, row.to_vec())).unzip()
    }

    /// Tombstone-aware export of every slot, in handle order: `None` for
    /// deleted handles, `Some(row)` for live ones. Together with
    /// [`StreamingSkyline::version`] this is everything a durability
    /// snapshot needs to rebuild the structure with identical handle
    /// assignment (handles are dense and never reused, so the *position*
    /// of each slot — including tombstones — must survive).
    pub fn slot_rows(&self) -> Vec<Option<&[f64]>> {
        self.state
            .iter()
            .enumerate()
            .map(|(id, st)| match st {
                EntryState::Deleted => None,
                _ => Some(self.rows[id].as_slice()),
            })
            .collect()
    }

    /// Rebuild a structure from a [`StreamingSkyline::slot_rows`] export
    /// and its content version, as recorded by a durability snapshot.
    ///
    /// Live rows are re-inserted through the normal classification path;
    /// tombstoned slots are re-created in place so that handle positions
    /// (and therefore the handles of any future inserts) match the
    /// original structure exactly. The version counter is restored to
    /// `version` rather than counting the replayed inserts, so replaying
    /// a write-ahead log on top of the restored structure reproduces the
    /// original version sequence.
    pub fn restore(dims: usize, slots: &[Option<Vec<f64>>], version: u64) -> Result<Self> {
        let mut s = StreamingSkyline::new(dims)?;
        let mut metrics = Metrics::new();
        for slot in slots {
            match slot {
                Some(row) => {
                    s.insert(row, &mut metrics)?;
                }
                None => {
                    s.rows.push(Vec::new());
                    s.state.push(EntryState::Deleted);
                }
            }
        }
        s.version = version;
        Ok(s)
    }

    /// Ids of the current skyline, ascending.
    pub fn skyline(&self) -> Vec<PointId> {
        (0..self.state.len() as PointId)
            .filter(|&id| matches!(self.state[id as usize], EntryState::Skyline(_)))
            .collect()
    }

    /// Whether `id` is live and currently a skyline point.
    pub fn is_skyline(&self, id: PointId) -> bool {
        matches!(self.state.get(id as usize), Some(EntryState::Skyline(_)))
    }

    /// Coordinates of a live point.
    pub fn get(&self, id: PointId) -> Option<&[f64]> {
        match self.state.get(id as usize) {
            Some(EntryState::Skyline(_)) | Some(EntryState::Shadowed { .. }) => {
                Some(&self.rows[id as usize])
            }
            _ => None,
        }
    }

    fn subspace_of(&self, row: &[f64]) -> Subspace {
        self.reference.iter().fold(Subspace::EMPTY, |acc, r| {
            acc.union(dominating_subspace(row, r))
        })
    }

    /// The *dominator witness* of a live point: the one live dominator
    /// recorded for it when it was last classified (`None` for skyline
    /// points, unknown handles, and tombstones).
    ///
    /// Witness invariant: a shadowed point's witness is live and
    /// dominates it, so a point's skyline membership can only change
    /// when its witness is removed — deletion re-examines exactly the
    /// points whose witness was the deleted id, which is what makes
    /// [`StreamingSkyline::remove_delta`] proportional to the change.
    pub fn witness(&self, id: PointId) -> Option<PointId> {
        match self.state.get(id as usize) {
            Some(EntryState::Shadowed { killer }) => Some(*killer),
            _ => None,
        }
    }

    /// Every live point with its row, in handle order.
    pub fn live_rows(&self) -> impl Iterator<Item = (PointId, &[f64])> + '_ {
        self.state
            .iter()
            .zip(&self.rows)
            .enumerate()
            .filter(|(_, (state, _))| !matches!(state, EntryState::Deleted))
            .map(|(id, (_, row))| (id as PointId, row.as_slice()))
    }

    /// The live rows that some subspace skyline can contain, in handle
    /// order: every skyline point, and every shadowed point whose
    /// [witness](StreamingSkyline::witness) is not strictly better than
    /// it in every dimension.
    ///
    /// A point left out is beaten strictly everywhere by its live
    /// witness, so it is in no subspace skyline. Following witnesses
    /// from it reaches a kept point that still beats it strictly
    /// everywhere, so whatever it dominates in a subspace, that point
    /// dominates there too. A skyline (k = 1) over any subspace is thus
    /// the same over these rows as over all live rows. A k-skyband
    /// (k > 1) is not: a point beaten strictly everywhere still counts
    /// toward it.
    pub fn subspace_candidates(&self) -> impl Iterator<Item = (PointId, &[f64])> + '_ {
        let full = Subspace::full(self.dims);
        self.live_rows()
            .filter(move |&(id, row)| match self.state[id as usize] {
                EntryState::Shadowed { killer } => {
                    dominating_subspace(&self.rows[killer as usize], row) != full
                }
                _ => true,
            })
    }

    /// Insert a point; returns its handle.
    ///
    /// Cost: one subset-index query plus dominance tests against the
    /// returned candidates (and, for new skyline points, the eviction
    /// candidates).
    pub fn insert(&mut self, row: &[f64], metrics: &mut Metrics) -> Result<PointId> {
        self.insert_delta(row, metrics).map(|(id, _)| id)
    }

    /// As [`StreamingSkyline::insert`], additionally returning the
    /// [`SkylineDelta`] of the mutation: which ids entered the skyline
    /// (at most the new point itself), which skyline ids it evicted,
    /// and the post-insert content version.
    pub fn insert_delta(
        &mut self,
        row: &[f64],
        metrics: &mut Metrics,
    ) -> Result<(PointId, SkylineDelta)> {
        if row.len() != self.dims {
            return Err(Error::RowLength {
                row: self.rows.len(),
                got: row.len(),
                expected: self.dims,
            });
        }
        if let Some(at) = row.iter().position(|v| v.is_nan()) {
            return Err(Error::NotANumber {
                row: self.rows.len(),
                dim: at,
            });
        }
        let id = self.rows.len() as PointId;
        // Canonicalise -0.0 -> +0.0, as Dataset construction does: the
        // two compare equal under the preference order but differ under
        // the total_cmp-based orderings used elsewhere.
        self.rows.push(
            row.iter()
                .map(|&v| if v == 0.0 { 0.0 } else { v })
                .collect(),
        );
        self.state.push(EntryState::Deleted); // placeholder, set below
        self.live += 1;

        // Warm-up: grow the reference set and re-anchor everything
        // *before* classifying — stored and query subspaces must come
        // from the same reference set for the superset filter to be
        // complete. The set is tiny, so the rebuild is cheap and happens
        // only `reference_size` times over the structure's lifetime.
        if self.reference.len() < self.reference_size {
            self.reference.push(row.to_vec());
            self.reanchor(metrics);
        }
        let mut events = DeltaEvents::default();
        self.classify(id, metrics, &mut events);
        self.version += 1;
        Ok((id, events.into_delta(self.version)))
    }

    /// Classify a (new or resurfacing) point against the current skyline
    /// and wire it into the structure, recording skyline-membership
    /// transitions into `events`.
    fn classify(&mut self, id: PointId, metrics: &mut Metrics, events: &mut DeltaEvents) {
        let sub = self.subspace_of(&self.rows[id as usize]);
        // Dominator check: only skyline points with D ⊇ sub can dominate.
        let mut candidates = Vec::new();
        self.dominator_index
            .query_into(sub, &mut candidates, metrics);
        for &s in &candidates {
            metrics.count_dt();
            if dominates(&self.rows[s as usize], &self.rows[id as usize]) {
                self.state[id as usize] = EntryState::Shadowed { killer: s };
                self.shadowed_by.entry(s).or_default().push(id);
                return;
            }
        }

        // New skyline point: evict the skyline points it dominates —
        // only those with D ⊆ sub can be dominated (stored complemented,
        // hence the complemented query).
        let mut victims = Vec::new();
        self.evict_index
            .query_into(sub.complement(self.dims), &mut victims, metrics);
        for &s in &victims {
            metrics.count_dt();
            if dominates(&self.rows[id as usize], &self.rows[s as usize]) {
                self.demote(s, id, events);
            }
        }
        self.state[id as usize] = EntryState::Skyline(sub);
        self.dominator_index.put(id, sub);
        self.evict_index.put(id, sub.complement(self.dims));
        self.skyline_len += 1;
        events.entered.push(id);
    }

    /// Move a skyline point into the shadow of `killer`.
    fn demote(&mut self, s: PointId, killer: PointId, events: &mut DeltaEvents) {
        let EntryState::Skyline(sub) = self.state[s as usize] else {
            unreachable!("eviction candidates are skyline points");
        };
        self.dominator_index.remove(s, sub);
        self.evict_index.remove(s, sub.complement(self.dims));
        self.skyline_len -= 1;
        self.state[s as usize] = EntryState::Shadowed { killer };
        self.shadowed_by.entry(killer).or_default().push(s);
        events.left.push(s);
    }

    /// Remove a live point. Returns `false` if the handle is unknown or
    /// already deleted.
    ///
    /// Deleting a shadowed point is O(1); deleting a skyline point
    /// re-resolves exactly the points it was shadowing.
    pub fn remove(&mut self, id: PointId, metrics: &mut Metrics) -> bool {
        self.remove_delta(id, metrics).is_some()
    }

    /// As [`StreamingSkyline::remove`], additionally returning the
    /// [`SkylineDelta`] of the mutation — `None` when the handle is
    /// unknown or already deleted (no version bump, no delta). Removing
    /// a shadowed point yields an empty delta at the bumped version;
    /// removing a skyline point yields it in `left` plus any orphans it
    /// was witnessing that re-promoted into `entered`.
    pub fn remove_delta(&mut self, id: PointId, metrics: &mut Metrics) -> Option<SkylineDelta> {
        let mut events = DeltaEvents::default();
        let removed = self.remove_inner(id, metrics, &mut events);
        if removed {
            self.version += 1;
            Some(events.into_delta(self.version))
        } else {
            None
        }
    }

    fn remove_inner(
        &mut self,
        id: PointId,
        metrics: &mut Metrics,
        events: &mut DeltaEvents,
    ) -> bool {
        match self.state.get(id as usize).cloned() {
            None | Some(EntryState::Deleted) => false,
            Some(EntryState::Shadowed { killer }) => {
                if let Some(list) = self.shadowed_by.get_mut(&killer) {
                    list.retain(|&q| q != id);
                }
                self.state[id as usize] = EntryState::Deleted;
                self.live -= 1;
                // A shadowed point can still be the registered killer of
                // others (it killed them while it was a skyline point,
                // before being demoted itself). Its own killer dominates
                // them transitively, so re-parenting is enough — no
                // dominance tests needed.
                if let Some(orphans) = self.shadowed_by.remove(&id) {
                    for &q in &orphans {
                        self.state[q as usize] = EntryState::Shadowed { killer };
                    }
                    self.shadowed_by.entry(killer).or_default().extend(orphans);
                }
                true
            }
            Some(EntryState::Skyline(sub)) => {
                self.dominator_index.remove(id, sub);
                self.evict_index.remove(id, sub.complement(self.dims));
                self.skyline_len -= 1;
                self.state[id as usize] = EntryState::Deleted;
                self.live -= 1;
                events.left.push(id);
                self.reresolve_orphans_of(id, metrics, events);
                true
            }
        }
    }

    /// Re-classify every point whose registered killer was `id`, in a
    /// monotone order so dominators resurface before the points they
    /// dominate (not required for correctness — promotion evicts — but
    /// it minimises churn).
    fn reresolve_orphans_of(
        &mut self,
        id: PointId,
        metrics: &mut Metrics,
        events: &mut DeltaEvents,
    ) {
        let mut orphans = self.shadowed_by.remove(&id).unwrap_or_default();
        orphans.sort_by(|&a, &b| {
            coordinate_sum(&self.rows[a as usize])
                .total_cmp(&coordinate_sum(&self.rows[b as usize]))
                .then(a.cmp(&b))
        });
        for q in orphans {
            debug_assert!(matches!(
                self.state[q as usize],
                EntryState::Shadowed { .. }
            ));
            self.classify(q, metrics, events);
        }
    }

    /// Re-anchor the reference set and rebuild both indexes.
    ///
    /// Called automatically during warm-up; call it manually after heavy
    /// distribution drift to restore filtering quality (the current
    /// skyline rows make the best anchors).
    pub fn rebuild_reference(&mut self, metrics: &mut Metrics) {
        let skyline = self.skyline();
        self.reference = skyline
            .iter()
            .take(self.reference_size)
            .map(|&id| self.rows[id as usize].clone())
            .collect();
        self.reanchor(metrics);
    }

    /// Recompute every skyline point's subspace and rebuild the indexes.
    fn reanchor(&mut self, _metrics: &mut Metrics) {
        self.dominator_index = SubsetIndex::new(self.dims);
        self.evict_index = SubsetIndex::new(self.dims);
        for id in 0..self.state.len() {
            if let EntryState::Skyline(_) = self.state[id] {
                let sub = self.subspace_of(&self.rows[id]);
                self.state[id] = EntryState::Skyline(sub);
                self.dominator_index.put(id as PointId, sub);
                self.evict_index
                    .put(id as PointId, sub.complement(self.dims));
            }
        }
    }

    /// Internal consistency check, used by tests: every live point is
    /// either a skyline point not dominated by any live point, or is
    /// shadowed with a live killer that dominates it.
    #[doc(hidden)]
    pub fn check_invariants(&self) {
        let mut skyline_count = 0usize;
        let mut live = 0usize;
        for (id, st) in self.state.iter().enumerate() {
            match st {
                EntryState::Deleted => {}
                EntryState::Skyline(sub) => {
                    skyline_count += 1;
                    live += 1;
                    assert_eq!(
                        *sub,
                        self.subspace_of(&self.rows[id]),
                        "stale subspace for {id}"
                    );
                    for (other, st2) in self.state.iter().enumerate() {
                        if id != other && !matches!(st2, EntryState::Deleted) {
                            assert!(
                                !dominates(&self.rows[other], &self.rows[id]),
                                "skyline point {id} is dominated by {other}"
                            );
                        }
                    }
                }
                EntryState::Shadowed { killer } => {
                    live += 1;
                    assert!(
                        !matches!(self.state[*killer as usize], EntryState::Deleted),
                        "point {id} has a dead killer {killer}"
                    );
                    assert!(
                        dominates(&self.rows[*killer as usize], &self.rows[id]),
                        "killer {killer} does not dominate {id}"
                    );
                }
            }
        }
        assert_eq!(skyline_count, self.skyline_len);
        assert_eq!(live, self.live);
        assert_eq!(self.dominator_index.len(), self.skyline_len);
        assert_eq!(self.evict_index.len(), self.skyline_len);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn m() -> Metrics {
        Metrics::new()
    }

    #[test]
    fn construction_validates_dims() {
        assert!(StreamingSkyline::new(0).is_err());
        assert!(StreamingSkyline::new(65).is_err());
        assert!(StreamingSkyline::new(64).is_ok());
    }

    #[test]
    fn insert_rejects_bad_rows() {
        let mut s = StreamingSkyline::new(2).unwrap();
        assert!(s.insert(&[1.0], &mut m()).is_err());
        assert!(s.insert(&[1.0, f64::NAN], &mut m()).is_err());
        assert!(s.insert(&[1.0, 2.0], &mut m()).is_ok());
    }

    #[test]
    fn basic_insert_classification() {
        let mut s = StreamingSkyline::new(2).unwrap();
        let mut metrics = m();
        let a = s.insert(&[1.0, 5.0], &mut metrics).unwrap();
        let b = s.insert(&[5.0, 1.0], &mut metrics).unwrap();
        let c = s.insert(&[6.0, 2.0], &mut metrics).unwrap(); // dominated by b
        assert_eq!(s.skyline(), vec![a, b]);
        assert!(s.is_skyline(a));
        assert!(!s.is_skyline(c));
        assert_eq!(s.len(), 3);
        assert_eq!(s.skyline_len(), 2);
        s.check_invariants();
    }

    #[test]
    fn insert_evicts_dominated_skyline_points() {
        let mut s = StreamingSkyline::new(2).unwrap();
        let mut metrics = m();
        let a = s.insert(&[3.0, 3.0], &mut metrics).unwrap();
        let b = s.insert(&[4.0, 2.0], &mut metrics).unwrap();
        assert_eq!(s.skyline(), vec![a, b]);
        let c = s.insert(&[1.0, 1.0], &mut metrics).unwrap(); // dominates both
        assert_eq!(s.skyline(), vec![c]);
        assert_eq!(s.len(), 3);
        s.check_invariants();
    }

    #[test]
    fn duplicates_share_the_skyline() {
        let mut s = StreamingSkyline::new(2).unwrap();
        let mut metrics = m();
        let a = s.insert(&[2.0, 2.0], &mut metrics).unwrap();
        let b = s.insert(&[2.0, 2.0], &mut metrics).unwrap();
        assert_eq!(s.skyline(), vec![a, b]);
        s.check_invariants();
    }

    #[test]
    fn remove_shadowed_point_is_trivial() {
        let mut s = StreamingSkyline::new(2).unwrap();
        let mut metrics = m();
        let a = s.insert(&[1.0, 1.0], &mut metrics).unwrap();
        let b = s.insert(&[2.0, 2.0], &mut metrics).unwrap();
        assert!(s.remove(b, &mut metrics));
        assert_eq!(s.skyline(), vec![a]);
        assert_eq!(s.len(), 1);
        assert!(!s.remove(b, &mut metrics), "double delete");
        assert!(s.get(b).is_none());
        s.check_invariants();
    }

    #[test]
    fn removing_a_skyline_point_resurfaces_its_shadow() {
        let mut s = StreamingSkyline::new(2).unwrap();
        let mut metrics = m();
        let a = s.insert(&[1.0, 1.0], &mut metrics).unwrap();
        let b = s.insert(&[2.0, 2.0], &mut metrics).unwrap(); // shadowed by a
        let c = s.insert(&[3.0, 3.0], &mut metrics).unwrap(); // shadowed by a
        assert_eq!(s.skyline(), vec![a]);
        assert!(s.remove(a, &mut metrics));
        // b resurfaces to the skyline; c is now shadowed by b.
        assert_eq!(s.skyline(), vec![b]);
        assert!(!s.is_skyline(c));
        s.check_invariants();
        assert!(s.remove(b, &mut metrics));
        assert_eq!(s.skyline(), vec![c]);
        s.check_invariants();
    }

    #[test]
    fn resurfacing_points_may_dominate_each_other() {
        let mut s = StreamingSkyline::new(2).unwrap();
        let mut metrics = m();
        let a = s.insert(&[0.0, 0.0], &mut metrics).unwrap();
        // Both shadowed by a, and x dominates y.
        let x = s.insert(&[1.0, 1.0], &mut metrics).unwrap();
        let y = s.insert(&[2.0, 2.0], &mut metrics).unwrap();
        assert!(s.remove(a, &mut metrics));
        assert_eq!(s.skyline(), vec![x]);
        assert!(!s.is_skyline(y));
        s.check_invariants();
    }

    #[test]
    fn chain_of_deletions() {
        let mut s = StreamingSkyline::new(2).unwrap();
        let mut metrics = m();
        let ids: Vec<PointId> = (0..10)
            .map(|i| s.insert(&[i as f64, i as f64], &mut metrics).unwrap())
            .collect();
        for (k, &id) in ids.iter().enumerate() {
            assert_eq!(s.skyline(), vec![id]);
            assert!(s.remove(id, &mut metrics));
            s.check_invariants();
            assert_eq!(s.len(), 10 - k - 1);
        }
        assert!(s.is_empty());
        assert_eq!(s.skyline_len(), 0);
    }

    #[test]
    fn warmup_reanchoring_keeps_filtering_correct() {
        // More inserts than the reference size: the index must stay
        // consistent across the automatic re-anchors.
        let mut s = StreamingSkyline::with_reference_size(3, 4).unwrap();
        let mut metrics = m();
        let rows: Vec<[f64; 3]> = (0..50)
            .map(|i| {
                [
                    ((i * 7) % 13) as f64,
                    ((i * 11) % 13) as f64,
                    ((i * 5) % 13) as f64,
                ]
            })
            .collect();
        for r in &rows {
            s.insert(r, &mut metrics).unwrap();
            s.check_invariants();
        }
    }

    #[test]
    fn matches_batch_recomputation_under_churn() {
        use crate::dataset::Dataset;
        let mut s = StreamingSkyline::new(3).unwrap();
        let mut metrics = m();
        let mut alive: Vec<(PointId, Vec<f64>)> = Vec::new();
        let mut next = 0u64;
        let mut lcg = || {
            // Deterministic LCG; the streaming structure itself is what
            // is under test.
            next = next
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            ((next >> 33) % 9) as f64
        };
        for step in 0..300 {
            if step % 5 == 4 && !alive.is_empty() {
                // Delete the oldest live point.
                let (id, _) = alive.remove((step * 7) % alive.len());
                assert!(s.remove(id, &mut metrics));
            } else {
                let row = vec![lcg(), lcg(), lcg()];
                let id = s.insert(&row, &mut metrics).unwrap();
                alive.push((id, row));
            }
            if step % 25 == 0 {
                s.check_invariants();
            }
            // Oracle: recompute the skyline of the alive multiset.
            let rows: Vec<Vec<f64>> = alive.iter().map(|(_, r)| r.clone()).collect();
            if rows.is_empty() {
                assert!(s.skyline().is_empty());
                continue;
            }
            let ds = Dataset::from_rows(&rows).unwrap();
            let mut expected: Vec<PointId> = Vec::new();
            for (i, (id, _)) in alive.iter().enumerate() {
                let mut dominated = false;
                for (j, _) in alive.iter().enumerate() {
                    if i != j && dominates(ds.point(j as PointId), ds.point(i as PointId)) {
                        dominated = true;
                        break;
                    }
                }
                if !dominated {
                    expected.push(*id);
                }
            }
            expected.sort_unstable();
            assert_eq!(s.skyline(), expected, "step {step}");
        }
    }

    #[test]
    fn version_tracks_successful_mutations_only() {
        let mut s = StreamingSkyline::new(2).unwrap();
        let mut metrics = m();
        assert_eq!(s.version(), 0);
        let a = s.insert(&[1.0, 2.0], &mut metrics).unwrap();
        let b = s.insert(&[2.0, 1.0], &mut metrics).unwrap();
        assert_eq!(s.version(), 2);
        assert!(s.insert(&[1.0], &mut metrics).is_err(), "bad row");
        assert_eq!(s.version(), 2, "failed insert must not bump");
        s.rebuild_reference(&mut metrics);
        assert_eq!(s.version(), 2, "re-anchoring must not bump");
        assert!(s.remove(a, &mut metrics));
        assert_eq!(s.version(), 3);
        assert!(!s.remove(a, &mut metrics), "double delete");
        assert_eq!(s.version(), 3, "no-op remove must not bump");
        assert_eq!(s.live_ids(), vec![b]);
    }

    #[test]
    fn snapshot_rows_maps_row_indices_to_handles() {
        let mut s = StreamingSkyline::new(2).unwrap();
        let mut metrics = m();
        let a = s.insert(&[1.0, 5.0], &mut metrics).unwrap();
        let b = s.insert(&[5.0, 1.0], &mut metrics).unwrap();
        let c = s.insert(&[3.0, 3.0], &mut metrics).unwrap();
        assert!(s.remove(b, &mut metrics));
        let (handles, rows) = s.snapshot_rows();
        assert_eq!(handles, vec![a, c]);
        assert_eq!(rows, vec![vec![1.0, 5.0], vec![3.0, 3.0]]);
    }

    #[test]
    fn subspace_candidates_keep_every_point_a_tie_can_surface() {
        let mut s = StreamingSkyline::new(2).unwrap();
        let mut metrics = m();
        let a = s.insert(&[1.0, 1.0], &mut metrics).unwrap();
        let b = s.insert(&[1.0, 2.0], &mut metrics).unwrap(); // ties a on dim 0
        let c = s.insert(&[2.0, 3.0], &mut metrics).unwrap(); // beaten everywhere
        let d = s.insert(&[5.0, 0.5], &mut metrics).unwrap();
        assert_eq!(s.witness(b), Some(a));
        assert_eq!(s.witness(c), Some(a));
        let kept: Vec<PointId> = s.subspace_candidates().map(|(id, _)| id).collect();
        assert_eq!(kept, vec![a, b, d], "b is in the dim-0 skyline, c in none");
        let live: Vec<PointId> = s.live_rows().map(|(id, _)| id).collect();
        assert_eq!(live, s.live_ids());
        // Removing a promotes b and c; c is now witnessed by b, which ties
        // it nowhere, so c drops out again.
        assert!(s.remove(a, &mut metrics));
        assert_eq!(s.skyline(), vec![b, d]);
        let kept: Vec<(PointId, Vec<f64>)> = s
            .subspace_candidates()
            .map(|(id, row)| (id, row.to_vec()))
            .collect();
        assert_eq!(kept, vec![(b, vec![1.0, 2.0]), (d, vec![5.0, 0.5])]);
    }

    #[test]
    fn rebuild_reference_re_anchors_to_the_skyline() {
        let mut s = StreamingSkyline::with_reference_size(2, 4).unwrap();
        let mut metrics = m();
        // Early points far from the final skyline region.
        for i in 0..20 {
            let v = 50.0 + i as f64;
            s.insert(&[v, 100.0 - v], &mut metrics).unwrap();
        }
        // Distribution drifts: much better points arrive.
        for i in 0..20 {
            let v = i as f64;
            s.insert(&[v, 19.0 - v], &mut metrics).unwrap();
        }
        let before = s.skyline();
        s.rebuild_reference(&mut metrics);
        assert_eq!(
            s.skyline(),
            before,
            "re-anchoring must not change the skyline"
        );
        s.check_invariants();
        // And the structure keeps working afterwards.
        s.insert(&[-1.0, -1.0], &mut metrics).unwrap();
        assert_eq!(s.skyline_len(), 1);
        s.check_invariants();
    }

    #[test]
    fn restore_round_trips_slots_version_and_future_handles() {
        let mut s = StreamingSkyline::new(3).unwrap();
        let mut metrics = m();
        for i in 0..40u64 {
            let row = [
                ((i * 37) % 23) as f64,
                ((i * 73) % 19) as f64,
                ((i * 11) % 29) as f64,
            ];
            s.insert(&row, &mut metrics).unwrap();
        }
        for id in [3, 7, 11, 20] {
            assert!(s.remove(id, &mut metrics));
        }
        let slots: Vec<Option<Vec<f64>>> = s
            .slot_rows()
            .into_iter()
            .map(|r| r.map(<[f64]>::to_vec))
            .collect();
        let mut restored = StreamingSkyline::restore(3, &slots, s.version()).unwrap();
        restored.check_invariants();
        assert_eq!(restored.version(), s.version());
        assert_eq!(restored.skyline(), s.skyline());
        assert_eq!(restored.live_ids(), s.live_ids());
        assert_eq!(restored.snapshot_rows(), s.snapshot_rows());
        // Future inserts pick up the same dense handle sequence.
        let a = s.insert(&[1.0, 1.0, 1.0], &mut metrics).unwrap();
        let b = restored.insert(&[1.0, 1.0, 1.0], &mut metrics).unwrap();
        assert_eq!(a, b);
        assert_eq!(restored.version(), s.version());
    }

    #[test]
    fn insert_delta_reports_entries_and_evictions() {
        let mut s = StreamingSkyline::new(2).unwrap();
        let mut metrics = m();
        let (a, d) = s.insert_delta(&[3.0, 3.0], &mut metrics).unwrap();
        assert_eq!(
            (d.entered.as_slice(), d.left.as_slice()),
            ([a].as_slice(), [].as_slice())
        );
        assert_eq!(d.version, 1);
        let (b, d) = s.insert_delta(&[4.0, 2.0], &mut metrics).unwrap();
        assert_eq!(d.entered, vec![b]);
        // Dominates both: they leave, it enters.
        let (c, d) = s.insert_delta(&[1.0, 1.0], &mut metrics).unwrap();
        assert_eq!(d.entered, vec![c]);
        assert_eq!(d.left, vec![a, b]);
        assert_eq!(d.version, 3);
        // A dominated insert nets to an empty delta at a bumped version.
        let (_, d) = s.insert_delta(&[9.0, 9.0], &mut metrics).unwrap();
        assert!(d.is_empty());
        assert_eq!(d.version, 4);
    }

    #[test]
    fn remove_delta_reports_promotions() {
        let mut s = StreamingSkyline::new(2).unwrap();
        let mut metrics = m();
        let a = s.insert(&[1.0, 1.0], &mut metrics).unwrap();
        let b = s.insert(&[2.0, 2.0], &mut metrics).unwrap(); // witnessed by a
        let c = s.insert(&[3.0, 3.0], &mut metrics).unwrap(); // witnessed by a
        assert_eq!(s.witness(b), Some(a));
        assert_eq!(s.witness(a), None, "skyline points carry no witness");
        // Removing a shadowed point: empty delta, version still moves.
        let d = s.remove_delta(c, &mut metrics).unwrap();
        assert!(d.is_empty());
        assert_eq!(d.version, 4);
        // Removing the witness promotes exactly its orphan.
        let d = s.remove_delta(a, &mut metrics).unwrap();
        assert_eq!(d.entered, vec![b]);
        assert_eq!(d.left, vec![a]);
        assert_eq!(d.version, 5);
        // Unknown/dead handles: no delta, no version bump.
        assert!(s.remove_delta(a, &mut metrics).is_none());
        assert!(s.remove_delta(999, &mut metrics).is_none());
        assert_eq!(s.version(), 5);
    }

    #[test]
    fn delta_stream_patches_a_materialised_skyline() {
        // Apply every delta to an external copy and never read
        // s.skyline() between mutations: the patched copy must track.
        let mut s = StreamingSkyline::new(3).unwrap();
        let mut metrics = m();
        let mut patched: Vec<PointId> = Vec::new();
        let mut live: Vec<PointId> = Vec::new();
        let mut next = 1u64;
        for step in 0..200 {
            next = next
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            let r = next >> 33;
            if step % 4 == 3 && !live.is_empty() {
                let victim = live.remove(r as usize % live.len());
                let d = s.remove_delta(victim, &mut metrics).unwrap();
                assert!(d.apply(&mut patched), "step {step}: remove patch fits");
            } else {
                let row = vec![(r % 7) as f64, ((r / 7) % 7) as f64, ((r / 49) % 7) as f64];
                let (id, d) = s.insert_delta(&row, &mut metrics).unwrap();
                live.push(id);
                assert!(d.apply(&mut patched), "step {step}: insert patch fits");
            }
            assert_eq!(patched, s.skyline(), "step {step}");
        }
    }

    #[test]
    fn subspace_filter_reduces_candidate_volume() {
        // With a frozen reference set, candidate volume through the
        // subset index should be well below skyline size for most tests.
        let mut s = StreamingSkyline::with_reference_size(4, 4).unwrap();
        let mut metrics = m();
        let mut inserted = 0u64;
        for i in 0..400u64 {
            let row = [
                ((i * 37) % 101) as f64,
                ((i * 73) % 97) as f64,
                ((i * 11) % 89) as f64,
                ((i * 53) % 83) as f64,
            ];
            s.insert(&row, &mut metrics).unwrap();
            inserted += 1;
        }
        s.check_invariants();
        let mean_candidates = metrics.candidates_returned as f64 / inserted as f64;
        assert!(
            (mean_candidates as usize) < s.skyline_len(),
            "filtering should beat the full-skyline scan: {mean_candidates:.1} vs {}",
            s.skyline_len()
        );
    }
}
