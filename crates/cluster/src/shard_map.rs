//! Deterministic row placement and the coordinator's per-dataset id
//! bookkeeping.
//!
//! Every row gets a coordinator-assigned **global id** (dense, in
//! arrival order, so a cluster answer lines up id-for-id with a
//! single-node server fed the same rows). The owning shard is a pure
//! function of that id — [`shard_of`] — so placement needs no lookup
//! table and any replica of the computation agrees. What *does* need
//! state is the reverse direction: shards speak their own local handle
//! space, so the coordinator keeps, per dataset, the handle→global map
//! for each shard (to translate scatter-gather results) and the
//! global→(shard, handle) map (to route removals).

use std::collections::HashMap;
use std::sync::Arc;

/// The shard that owns global row id `global_id` in a cluster of
/// `shard_count` shards. SplitMix64 finalizer over the id: sequential
/// ids spread uniformly, and the map is stable across restarts and
/// replicas.
pub fn shard_of(global_id: u64, shard_count: usize) -> usize {
    assert!(shard_count > 0, "cluster needs at least one shard");
    (splitmix64(global_id) % shard_count as u64) as usize
}

/// SplitMix64 output function: a full-period bijective mixer, the
/// standard cheap way to turn a counter into something hash-like.
fn splitmix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
    x = (x ^ (x >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    x ^ (x >> 31)
}

/// Coordinator-side state for one logical dataset.
///
/// The per-shard handle maps sit behind `Arc` so a `/skyline` query can
/// snapshot them without cloning point-count-sized tables while holding
/// the dataset's lock; mutations copy-on-write via [`Arc::make_mut`].
#[derive(Debug, Clone)]
pub struct DatasetState {
    /// Dimensionality, fixed at creation.
    pub dims: usize,
    /// Bumped once per successful mutation (create = 1).
    pub version: u64,
    /// Next global id to hand out. Never reused, so removals leave
    /// holes rather than re-keying surviving rows.
    pub next_global: u64,
    /// Live (not removed) rows across all shards.
    pub live: usize,
    /// Global id → (owning shard, shard-local handle).
    pub locations: HashMap<u64, (u32, u32)>,
    /// Per shard: shard-local handle → global id.
    pub handle_to_global: Vec<Arc<HashMap<u32, u64>>>,
}

impl DatasetState {
    /// Fresh, empty dataset over `shard_count` shards.
    pub fn new(dims: usize, shard_count: usize) -> DatasetState {
        DatasetState {
            dims,
            version: 1,
            next_global: 0,
            live: 0,
            locations: HashMap::new(),
            handle_to_global: (0..shard_count).map(|_| Arc::new(HashMap::new())).collect(),
        }
    }

    /// Record that `shard` accepted rows with these global ids and
    /// answered with these local handles (parallel arrays).
    pub fn record_insert(&mut self, shard: usize, globals: &[u64], handles: &[u32]) {
        debug_assert_eq!(globals.len(), handles.len());
        if globals.is_empty() {
            return;
        }
        let map = Arc::make_mut(&mut self.handle_to_global[shard]);
        for (&g, &h) in globals.iter().zip(handles) {
            self.locations.insert(g, (shard as u32, h));
            map.insert(h, g);
            self.next_global = self.next_global.max(g + 1);
        }
        self.live += globals.len();
    }

    /// Drop these global ids from the maps, returning, per shard, the
    /// local handles to delete there. Unknown ids are ignored (idempotent
    /// replay). `self.live` is adjusted here; `version` is the caller's
    /// to bump once per acknowledged mutation.
    pub fn record_remove(&mut self, globals: &[u64]) -> Vec<Vec<u32>> {
        let mut per_shard: Vec<Vec<u32>> = vec![Vec::new(); self.handle_to_global.len()];
        for g in globals {
            if let Some((shard, handle)) = self.locations.remove(g) {
                Arc::make_mut(&mut self.handle_to_global[shard as usize]).remove(&handle);
                per_shard[shard as usize].push(handle);
                self.live -= 1;
            }
        }
        per_shard
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn placement_is_deterministic_and_roughly_balanced() {
        for shards in 1..=5usize {
            let mut counts = vec![0usize; shards];
            for id in 0..10_000u64 {
                let s = shard_of(id, shards);
                assert_eq!(s, shard_of(id, shards), "stable per id");
                counts[s] += 1;
            }
            let expected = 10_000 / shards;
            for (s, &c) in counts.iter().enumerate() {
                assert!(
                    c > expected / 2 && c < expected * 2,
                    "shard {s} of {shards} got {c} of 10000 rows"
                );
            }
        }
    }

    #[test]
    fn insert_then_remove_round_trips_the_maps() {
        let mut st = DatasetState::new(3, 2);
        st.record_insert(0, &[0, 3], &[0, 1]);
        st.record_insert(1, &[1, 2], &[0, 1]);
        st.version += 1;
        assert_eq!(st.live, 4);
        assert_eq!(st.next_global, 4);
        assert_eq!(st.locations[&3], (0, 1));
        assert_eq!(st.handle_to_global[1][&0], 1);

        let per_shard = st.record_remove(&[3, 2, 99]);
        assert_eq!(per_shard, vec![vec![1], vec![1]]);
        assert_eq!(st.live, 2);
        assert!(!st.locations.contains_key(&3));
        assert!(!st.handle_to_global[0].contains_key(&1));
        // Ids are never reused even after removal.
        assert_eq!(st.next_global, 4);
    }

    #[test]
    fn snapshot_is_isolated_from_later_mutations() {
        let mut st = DatasetState::new(2, 1);
        st.record_insert(0, &[0], &[0]);
        let snap = Arc::clone(&st.handle_to_global[0]);
        st.record_insert(0, &[1], &[1]);
        assert_eq!(snap.len(), 1, "query snapshot must not see the new row");
        assert_eq!(st.handle_to_global[0].len(), 2);
    }
}
