//! The skyline result cache.
//!
//! Results are keyed by everything that determines the answer bytes:
//! dataset name **and content version**, canonical algorithm name,
//! subspace mask, k-skyband depth, and worker count. Within one dataset
//! entry the version names the contents, so a mutation can make an entry
//! unreachable but never wrong.
//!
//! On every mutation the serving layer calls
//! [`ResultCache::patch_dataset`] with the mutation's
//! [`SkylineDelta`]: a primary after each write, a follower after each
//! change record it applies. Full-space plain-skyline entries sitting
//! exactly at the mutation's base version are **patched forward** —
//! their id list is updated by the delta's sorted merge and the entry is
//! re-keyed to the new version — so the next warm query hits without a
//! recompute. Entries the delta cannot describe (projected subspaces,
//! k-skybands, other versions) are dropped.
//!
//! A follower's resync replaces a dataset entry wholesale, and the new
//! entry can hold other rows at a version the old one was cached at. It
//! drops the dataset's entries with [`ResultCache::invalidate_dataset`],
//! and reads insert through [`ResultCache::insert_if`] so that an answer
//! computed on the replaced entry cannot land after that drop.
//!
//! Eviction is least-recently-used over a bounded map. The capacity is
//! small (hundreds), so the eviction scan is a cheap linear pass rather
//! than an intrusive list.

use std::collections::HashMap;
use std::sync::{Arc, Mutex};

use skyline_core::delta::SkylineDelta;
use skyline_core::point::PointId;

/// Everything that determines a cached skyline result.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct CacheKey {
    /// Dataset name.
    pub dataset: String,
    /// Dataset content version the result was computed at.
    pub version: u64,
    /// Canonical algorithm display name (registry spelling).
    pub algorithm: String,
    /// Subspace mask bits; the full space is stored as its full mask.
    pub mask_bits: u64,
    /// k-skyband depth; `1` is the plain skyline.
    pub k: u64,
    /// Worker count for parallel engines; `0` for sequential.
    pub threads: u64,
}

/// A cached skyline (public stream handles, ascending).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CachedResult {
    /// Skyline point handles.
    pub ids: Vec<PointId>,
    /// Wall-clock of the original computation, microseconds.
    pub elapsed_us: u64,
}

/// Counters exposed through `/metrics`.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct CacheStats {
    /// Lookups that found a live entry.
    pub hits: u64,
    /// Lookups that missed.
    pub misses: u64,
    /// Entries evicted by the LRU policy.
    pub evictions: u64,
    /// Entries dropped by dataset invalidation.
    pub invalidations: u64,
    /// Entries patched forward by a mutation delta instead of dropped.
    pub patched: u64,
    /// Entries currently resident.
    pub entries: u64,
}

/// What [`ResultCache::patch_dataset`] did to a dataset's entries.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct PatchOutcome {
    /// Entries patched forward to the new version.
    pub patched: usize,
    /// Entries dropped because the delta could not describe them.
    pub invalidated: usize,
}

#[derive(Debug, Default)]
struct Inner {
    map: HashMap<CacheKey, (u64, Arc<CachedResult>)>,
    tick: u64,
    hits: u64,
    misses: u64,
    evictions: u64,
    invalidations: u64,
    patched: u64,
}

/// Bounded, thread-safe LRU cache of skyline results.
#[derive(Debug)]
pub struct ResultCache {
    capacity: usize,
    inner: Mutex<Inner>,
}

impl ResultCache {
    /// A cache holding at most `capacity` results. Capacity `0` disables
    /// caching entirely: every lookup misses and inserts are dropped —
    /// the benchmark harness uses this to measure the pure recompute
    /// path now that mutations patch entries forward instead of
    /// invalidating them.
    pub fn new(capacity: usize) -> ResultCache {
        ResultCache {
            capacity,
            inner: Mutex::new(Inner::default()),
        }
    }

    /// Maximum number of resident entries.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Look `key` up, bumping its recency and the hit/miss counters.
    pub fn get(&self, key: &CacheKey) -> Option<Arc<CachedResult>> {
        let mut inner = self.inner.lock().expect("cache lock");
        inner.tick += 1;
        let tick = inner.tick;
        match inner.map.get_mut(key) {
            Some((last_used, result)) => {
                *last_used = tick;
                let result = Arc::clone(result);
                inner.hits += 1;
                Some(result)
            }
            None => {
                inner.misses += 1;
                None
            }
        }
    }

    /// Insert a result, evicting the least-recently-used entry when full.
    pub fn insert(&self, key: CacheKey, result: CachedResult) {
        self.insert_if(key, result, || true);
    }

    /// As [`ResultCache::insert`], but only if `current()` holds when
    /// checked under the cache lock. A read passes "the dataset entry I
    /// computed on is not retired": a resync retires the entry it
    /// replaces before it calls [`ResultCache::invalidate_dataset`], so
    /// the answer either lands before that drop and goes with it, or not
    /// at all.
    pub fn insert_if(&self, key: CacheKey, result: CachedResult, current: impl FnOnce() -> bool) {
        if self.capacity == 0 {
            return;
        }
        let mut inner = self.inner.lock().expect("cache lock");
        if !current() {
            return;
        }
        inner.tick += 1;
        let tick = inner.tick;
        if !inner.map.contains_key(&key) && inner.map.len() >= self.capacity {
            if let Some(oldest) = inner
                .map
                .iter()
                .min_by_key(|(_, (used, _))| *used)
                .map(|(k, _)| k.clone())
            {
                inner.map.remove(&oldest);
                inner.evictions += 1;
            }
        }
        inner.map.insert(key, (tick, Arc::new(result)));
    }

    /// Drop every entry belonging to `dataset` (any version). Returns the
    /// number of entries removed.
    pub fn invalidate_dataset(&self, dataset: &str) -> usize {
        let mut inner = self.inner.lock().expect("cache lock");
        let before = inner.map.len();
        inner.map.retain(|k, _| k.dataset != dataset);
        let removed = before - inner.map.len();
        inner.invalidations += removed as u64;
        removed
    }

    /// Carry `dataset`'s entries across a mutation described by `delta`
    /// (base version → `delta.version`).
    ///
    /// Entries the delta fully describes — plain skyline (`k == 1`) over
    /// the full space (`mask_bits == full_mask`) computed exactly at the
    /// base version — are patched in place: the delta's sorted merge
    /// updates the id list and the entry is re-keyed to `delta.version`,
    /// preserving recency. Everything else of this dataset (projected
    /// subspaces, skybands, stale versions) is dropped. A patch that does
    /// not fit its entry (ids contradict the delta's base) drops the
    /// entry too — served bytes are never guessed.
    pub fn patch_dataset(
        &self,
        dataset: &str,
        full_mask: u64,
        base_version: u64,
        delta: &SkylineDelta,
    ) -> PatchOutcome {
        let mut inner = self.inner.lock().expect("cache lock");
        let keys: Vec<CacheKey> = inner
            .map
            .keys()
            .filter(|k| k.dataset == dataset)
            .cloned()
            .collect();
        let mut outcome = PatchOutcome::default();
        for key in keys {
            let patchable = key.version == base_version && key.k == 1 && key.mask_bits == full_mask;
            let (used, result) = inner.map.remove(&key).expect("key just listed");
            if patchable {
                let mut patched = (*result).clone();
                if delta.apply(&mut patched.ids) {
                    let new_key = CacheKey {
                        version: delta.version,
                        ..key
                    };
                    inner.map.insert(new_key, (used, Arc::new(patched)));
                    outcome.patched += 1;
                    continue;
                }
            }
            outcome.invalidated += 1;
        }
        inner.patched += outcome.patched as u64;
        inner.invalidations += outcome.invalidated as u64;
        outcome
    }

    /// Counter snapshot.
    pub fn stats(&self) -> CacheStats {
        let inner = self.inner.lock().expect("cache lock");
        CacheStats {
            hits: inner.hits,
            misses: inner.misses,
            evictions: inner.evictions,
            invalidations: inner.invalidations,
            patched: inner.patched,
            entries: inner.map.len() as u64,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn key(dataset: &str, version: u64, mask: u64) -> CacheKey {
        CacheKey {
            dataset: dataset.to_string(),
            version,
            algorithm: "SDI-Subset".to_string(),
            mask_bits: mask,
            k: 1,
            threads: 0,
        }
    }

    fn result(ids: &[PointId]) -> CachedResult {
        CachedResult {
            ids: ids.to_vec(),
            elapsed_us: 5,
        }
    }

    #[test]
    fn hit_miss_and_stats() {
        let cache = ResultCache::new(8);
        assert!(cache.get(&key("a", 1, 3)).is_none());
        cache.insert(key("a", 1, 3), result(&[1, 2]));
        let got = cache.get(&key("a", 1, 3)).expect("hit");
        assert_eq!(got.ids, vec![1, 2]);
        // A different version is a different key.
        assert!(cache.get(&key("a", 2, 3)).is_none());
        let s = cache.stats();
        assert_eq!((s.hits, s.misses, s.entries), (1, 2, 1));
    }

    #[test]
    fn lru_evicts_the_coldest_entry() {
        let cache = ResultCache::new(2);
        cache.insert(key("a", 1, 1), result(&[1]));
        cache.insert(key("a", 1, 2), result(&[2]));
        // Touch mask 1 so mask 2 is now the coldest.
        assert!(cache.get(&key("a", 1, 1)).is_some());
        cache.insert(key("a", 1, 4), result(&[3]));
        assert!(
            cache.get(&key("a", 1, 1)).is_some(),
            "recently used survives"
        );
        assert!(cache.get(&key("a", 1, 2)).is_none(), "coldest evicted");
        assert!(cache.get(&key("a", 1, 4)).is_some());
        assert_eq!(cache.stats().evictions, 1);
    }

    #[test]
    fn reinserting_an_existing_key_does_not_evict() {
        let cache = ResultCache::new(2);
        cache.insert(key("a", 1, 1), result(&[1]));
        cache.insert(key("a", 1, 2), result(&[2]));
        cache.insert(key("a", 1, 1), result(&[9]));
        assert_eq!(cache.stats().evictions, 0);
        assert_eq!(cache.get(&key("a", 1, 1)).unwrap().ids, vec![9]);
        assert!(cache.get(&key("a", 1, 2)).is_some());
    }

    #[test]
    fn patch_carries_full_space_entries_and_drops_the_rest() {
        let cache = ResultCache::new(8);
        // Full space is mask 3 in this fixture.
        cache.insert(key("a", 5, 3), result(&[1, 2, 4]));
        cache.insert(key("a", 5, 1), result(&[1])); // projected: drop
        cache.insert(key("a", 4, 3), result(&[1, 2])); // stale: drop
        cache.insert(key("b", 5, 3), result(&[7])); // other dataset: keep
        let delta = SkylineDelta::from_events(vec![3], vec![2], 6);
        let out = cache.patch_dataset("a", 3, 5, &delta);
        assert_eq!((out.patched, out.invalidated), (1, 2));
        assert_eq!(cache.get(&key("a", 6, 3)).unwrap().ids, vec![1, 3, 4]);
        assert!(cache.get(&key("a", 5, 1)).is_none());
        assert!(cache.get(&key("a", 4, 3)).is_none());
        assert!(cache.get(&key("b", 5, 3)).is_some());
        let s = cache.stats();
        assert_eq!((s.patched, s.invalidations), (1, 2));
    }

    #[test]
    fn patch_that_does_not_fit_drops_the_entry() {
        let cache = ResultCache::new(8);
        cache.insert(key("a", 5, 3), result(&[1, 2]));
        // Delta says 9 left the skyline, but the entry never had 9.
        let delta = SkylineDelta::from_events(vec![], vec![9], 6);
        let out = cache.patch_dataset("a", 3, 5, &delta);
        assert_eq!((out.patched, out.invalidated), (0, 1));
        assert!(cache.get(&key("a", 6, 3)).is_none());
    }

    #[test]
    fn capacity_zero_disables_caching() {
        let cache = ResultCache::new(0);
        cache.insert(key("a", 1, 3), result(&[1]));
        assert!(cache.get(&key("a", 1, 3)).is_none());
        let s = cache.stats();
        assert_eq!((s.entries, s.misses), (0, 1));
    }

    #[test]
    fn invalidation_is_per_dataset() {
        let cache = ResultCache::new(8);
        cache.insert(key("a", 1, 1), result(&[1]));
        cache.insert(key("a", 2, 1), result(&[1]));
        cache.insert(key("b", 1, 1), result(&[2]));
        assert_eq!(cache.invalidate_dataset("a"), 2);
        assert!(cache.get(&key("b", 1, 1)).is_some());
        let s = cache.stats();
        assert_eq!(s.invalidations, 2);
        assert_eq!(s.entries, 1);
    }
}
