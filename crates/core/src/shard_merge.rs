//! Cross-shard skyline merge over per-shard local skylines — the shared
//! final pass of both the in-process parallel engine
//! (`skyline-algos::parallel`) and the cluster coordinator
//! (`skyline-cluster`), lifted here so both produce byte-identical
//! answers from the same code.
//!
//! ## The algorithm
//!
//! Inputs are the local skylines of `shard_count` partitions of one
//! logical dataset. Within a shard the points are mutually non-dominated
//! by construction, so the global skyline is the union filtered by
//! *cross-shard* dominance tests only. The filter is the paper's subset
//! approach applied once more at merge scope:
//!
//! 1. **Subspace assignment** against a shared elite reference set
//!    `E`: every candidate `q` gets `D_{q≺E} = ∪ₑ D_{q≺e}` (one
//!    dominance test per elite; a candidate an elite strictly dominates
//!    is dropped on the spot). This is sound for Lemma 5.1 under *any*
//!    reference set — `p ≺ q` implies `D_{p≺e} ⊇ D_{q≺e}` per reference
//!    point, hence over the union — and because every candidate is
//!    referenced against the *same* `E`, the resulting subspaces are
//!    mutually comparable trie keys.
//! 2. **Presort** by SaLSa's `minC` (then coordinate sum, then
//!    lexicographic tie-breaks) so dominators precede their victims and
//!    the stop-point rule applies.
//! 3. **Scan** with one [`SubsetContainer`] per shard: a candidate
//!    queries every container except its own shard's (same-shard points
//!    cannot dominate each other), and `minC(q) > best_max` terminates
//!    the scan early, crediting the rest to `stop_pruned`.
//!
//! ## Distributed masks
//!
//! A remote shard can pre-compute part of step 1 locally: if shard `B`
//! reports each local skyline point's mask w.r.t. its own reference set
//! `E_B` (see [`reference_masks`]) and the coordinator takes the global
//! reference set to be `E = ∪_B E_B`, then for a candidate `q` from
//! shard `B` the shard-supplied *premask* already equals
//! `∪_{e ∈ E_B} D_{q≺e}`, and the coordinator only has to test `q`
//! against elites from *other* shards. [`EliteRef::shard`] carries the
//! elite's home shard for exactly this skip; the in-process engine tags
//! its elites [`NO_SHARD`] (they reference the whole dataset, not one
//! shard) so every candidate is tested against every elite, which
//! reproduces the pre-extraction behaviour of the parallel engine
//! dominance-test-for-dominance-test.

use crate::cancel::{CancelToken, Cancelled, CHECK_STRIDE};
use crate::container::{SkylineContainer, SubsetContainer};
use crate::dataset::Dataset;
use crate::dominance::{dominates, dominating_subspace, lex_cmp, points_equal};
use crate::metrics::Metrics;
use crate::point::{coordinate_sum, max_coordinate, min_coordinate, PointId};
use crate::subspace::Subspace;
use skyline_obs::Recorder;

/// Sentinel shard id for elites that reference the whole dataset rather
/// than one shard's skyline: such elites are never skipped during
/// subspace assignment.
pub const NO_SHARD: u32 = u32::MAX;

/// How many reference elites a skyline is summarised by (see
/// [`select_reference_elites`]). Mirrors the parallel engine's ghost
/// seed count so both layers agree on what "a few strong points" means.
pub const ELITE_SEEDS: usize = 16;

/// One merge candidate: a local skyline point of some shard.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MergeEntry {
    /// Caller-defined identity (global point id), returned in the output.
    pub key: u64,
    /// The shard whose local skyline the point belongs to.
    pub shard: u32,
    /// Mask already accumulated against this shard's own reference set
    /// (`Subspace::from_bits(0)` when the caller did no pre-work).
    pub premask: Subspace,
}

/// One reference elite for subspace assignment.
#[derive(Debug, Clone, Copy)]
pub struct EliteRef<'a> {
    /// Home shard of the elite, or [`NO_SHARD`] for dataset-global
    /// elites. Candidates from the same shard skip this elite: their
    /// premask already accounts for it, and same-shard points are
    /// mutually non-dominated.
    pub shard: u32,
    /// The elite's coordinates.
    pub row: &'a [f64],
}

/// Merge per-shard local skylines into the global skyline.
///
/// `row_of` resolves a [`MergeEntry::key`] to its coordinates; `elites`
/// is the shared reference set (see the module docs for the soundness
/// and skip rules). Returns the surviving keys in ascending order.
///
/// Counts one dominance test per (candidate × applicable elite) plus the
/// container-driven scan tests in `metrics`, and nests `"sort"` /
/// `"scan"` spans under whatever span the caller has open.
#[allow(clippy::too_many_arguments)]
pub fn merge_shard_skylines<'a, F>(
    dims: usize,
    shard_count: usize,
    entries_in: &[MergeEntry],
    elites: &[EliteRef<'a>],
    row_of: F,
    metrics: &mut Metrics,
    rec: &mut dyn Recorder,
    cancel: &CancelToken,
) -> Result<Vec<u64>, Cancelled>
where
    F: Fn(u64) -> &'a [f64],
{
    // Subspace assignment against the shared elite set, dropping points
    // an elite strictly dominates. Exact elite duplicates stay (an empty
    // subspace is a valid, maximally-conservative trie key).
    rec.span_start("sort");
    let mut entries: Vec<(u64, u32, Subspace)> = Vec::with_capacity(entries_in.len());
    for (scanned, entry) in entries_in.iter().enumerate() {
        if scanned % CHECK_STRIDE == 0 && cancel.check().is_err() {
            rec.span_end("sort");
            return Err(Cancelled);
        }
        let q_row = row_of(entry.key);
        let mut sub = entry.premask;
        let mut dominated = false;
        for e in elites {
            if e.shard == entry.shard {
                continue;
            }
            metrics.count_dt();
            let d = dominating_subspace(q_row, e.row);
            if d.is_empty() && !points_equal(q_row, e.row) {
                dominated = true; // an elite strictly dominates q
                break;
            }
            sub = sub.union(d);
        }
        if !dominated {
            entries.push((entry.key, entry.shard, sub));
        }
    }

    // Presort by SaLSa's minC function (sum, then lexicographic
    // tie-breaks so a dominator always precedes its victims even when
    // scores round equal).
    entries.sort_unstable_by(|&(a, _, _), &(b, _, _)| {
        let (pa, pb) = (row_of(a), row_of(b));
        min_coordinate(pa)
            .total_cmp(&min_coordinate(pb))
            .then_with(|| coordinate_sum(pa).total_cmp(&coordinate_sum(pb)))
            .then_with(|| lex_cmp(pa, pb))
    });
    rec.span_end("sort");

    rec.span_start("scan");
    let mut skyline: Vec<u64> = Vec::new();
    let mut best_max = f64::INFINITY;
    let mut containers: Vec<SubsetContainer> = (0..shard_count)
        .map(|_| SubsetContainer::new(dims))
        .collect();
    // Containers store the candidate's *index* in the sorted entry list
    // (keys may exceed the container's 32-bit id space).
    let mut candidates: Vec<PointId> = Vec::new();
    for (scanned, &(q, q_shard, q_sub)) in entries.iter().enumerate() {
        if scanned % CHECK_STRIDE == 0 && cancel.check().is_err() {
            rec.span_end("scan");
            return Err(Cancelled);
        }
        let q_row = row_of(q);
        if min_coordinate(q_row) > best_max {
            // The stop point strictly dominates q, and under minC
            // ordering every remaining candidate as well.
            metrics.stop_pruned += (entries.len() - scanned) as u64;
            break;
        }
        let mut dominated = false;
        'shards: for (s, container) in containers.iter().enumerate() {
            if s == q_shard as usize || container.is_empty() {
                continue;
            }
            candidates.clear();
            container.candidates_into(q_sub, &mut candidates, metrics);
            for &c in &candidates {
                metrics.count_dt();
                if dominates(row_of(entries[c as usize].0), q_row) {
                    dominated = true;
                    break 'shards;
                }
            }
        }
        best_max = best_max.min(max_coordinate(q_row));
        if !dominated {
            containers[q_shard as usize].put(scanned as PointId, q_sub, metrics);
            skyline.push(q);
        }
    }
    rec.span_end("scan");

    skyline.sort_unstable();
    Ok(skyline)
}

/// Deterministically pick reference elites among `ids` (row indices into
/// `data`): the `min(`[`ELITE_SEEDS`]`, ids.len() / 8)` points with the
/// smallest maximum coordinate — the best universal dominators and stop
/// points — with lexicographic-then-id tie-breaks so every replica of
/// this computation picks the same set. Returned in `ids` order.
pub fn select_reference_elites(data: &Dataset, ids: &[PointId]) -> Vec<PointId> {
    let count = ELITE_SEEDS.min(ids.len() / 8);
    if count == 0 {
        return Vec::new();
    }
    let mut keyed: Vec<(f64, PointId)> = ids
        .iter()
        .map(|&id| (max_coordinate(data.point(id)), id))
        .collect();
    keyed.sort_unstable_by(|a, b| {
        a.0.total_cmp(&b.0)
            .then_with(|| lex_cmp(data.point(a.1), data.point(b.1)))
            .then(a.1.cmp(&b.1))
    });
    keyed.truncate(count);
    let mut elites: Vec<PointId> = keyed.into_iter().map(|(_, id)| id).collect();
    elites.sort_unstable_by_key(|&id| ids.iter().position(|&x| x == id));
    elites
}

/// For every candidate in `ids`, its maximum dominating subspace w.r.t.
/// the reference rows `elite_ids` — `D_{q≺E} = ∪ₑ D_{q≺e}`. This is the
/// shard-local half of the distributed subspace assignment (module
/// docs): shards call it over their own skyline with their own elites,
/// the coordinator unions the remaining cross-shard contributions.
///
/// The candidates are assumed mutually non-dominated with the elites
/// (both drawn from one skyline), so no pruning happens here.
pub fn reference_masks(data: &Dataset, ids: &[PointId], elite_ids: &[PointId]) -> Vec<Subspace> {
    ids.iter()
        .map(|&q| {
            let q_row = data.point(q);
            let mut sub = Subspace::from_bits(0);
            for &e in elite_ids {
                sub = sub.union(dominating_subspace(q_row, data.point(e)));
            }
            sub
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use skyline_obs::{MemoryRecorder, NoopRecorder};

    fn pseudo_random_rows(n: usize, d: usize, salt: usize) -> Vec<Vec<f64>> {
        (0..n)
            .map(|i| {
                (0..d)
                    .map(|k| {
                        (((i * 23 + k * 41 + salt * 97) * 2654435761usize) % 887) as f64 / 887.0
                    })
                    .collect()
            })
            .collect()
    }

    fn brute_skyline(rows: &[Vec<f64>]) -> Vec<u64> {
        let data = Dataset::from_rows(rows).unwrap();
        (0..rows.len() as u32)
            .filter(|&q| {
                (0..rows.len() as u32).all(|p| p == q || !dominates(data.point(p), data.point(q)))
            })
            .map(|q| q as u64)
            .collect()
    }

    fn local_skyline(data: &Dataset, ids: &[PointId]) -> Vec<PointId> {
        ids.iter()
            .copied()
            .filter(|&q| {
                ids.iter()
                    .all(|&p| p == q || !dominates(data.point(p), data.point(q)))
            })
            .collect()
    }

    /// Partition rows round-robin, compute local skylines, merge, and
    /// compare against the brute-force global skyline.
    fn merge_matches_brute(n: usize, d: usize, shard_count: usize, salt: usize) {
        let rows = pseudo_random_rows(n, d, salt);
        let data = Dataset::from_rows(&rows).unwrap();
        let mut entries = Vec::new();
        let mut all_local: Vec<PointId> = Vec::new();
        for s in 0..shard_count {
            let ids: Vec<PointId> = (0..n as u32)
                .filter(|id| (*id as usize) % shard_count == s)
                .collect();
            for q in local_skyline(&data, &ids) {
                entries.push(MergeEntry {
                    key: q as u64,
                    shard: s as u32,
                    premask: Subspace::from_bits(0),
                });
                all_local.push(q);
            }
        }
        let elite_ids = select_reference_elites(&data, &all_local);
        let elites: Vec<EliteRef> = elite_ids
            .iter()
            .map(|&e| EliteRef {
                shard: NO_SHARD,
                row: data.point(e),
            })
            .collect();
        let mut metrics = Metrics::new();
        let merged = merge_shard_skylines(
            d,
            shard_count,
            &entries,
            &elites,
            |k| data.point(k as u32),
            &mut metrics,
            &mut NoopRecorder,
            &CancelToken::none(),
        )
        .unwrap();
        assert_eq!(
            merged,
            brute_skyline(&rows),
            "n={n} d={d} shards={shard_count}"
        );
    }

    #[test]
    fn merge_matches_brute_force_across_shapes() {
        for (n, d) in [(300, 2), (400, 4), (250, 6)] {
            for shard_count in [2usize, 3, 5] {
                merge_matches_brute(n, d, shard_count, n + d);
            }
        }
    }

    #[test]
    fn empty_inputs_merge_to_empty() {
        let mut metrics = Metrics::new();
        let merged = merge_shard_skylines(
            3,
            2,
            &[],
            &[],
            |_| &[][..],
            &mut metrics,
            &mut NoopRecorder,
            &CancelToken::none(),
        )
        .unwrap();
        assert!(merged.is_empty());
    }

    #[test]
    fn duplicates_across_shards_all_survive() {
        let rows = vec![vec![0.5, 0.5], vec![0.5, 0.5], vec![0.1, 0.9]];
        let data = Dataset::from_rows(&rows).unwrap();
        let entries = vec![
            MergeEntry {
                key: 0,
                shard: 0,
                premask: Subspace::from_bits(0),
            },
            MergeEntry {
                key: 1,
                shard: 1,
                premask: Subspace::from_bits(0),
            },
            MergeEntry {
                key: 2,
                shard: 1,
                premask: Subspace::from_bits(0),
            },
        ];
        // An elite that duplicates candidate 0/1 must not evict them.
        let elites = vec![EliteRef {
            shard: NO_SHARD,
            row: data.point(0),
        }];
        let mut metrics = Metrics::new();
        let merged = merge_shard_skylines(
            2,
            2,
            &entries,
            &elites,
            |k| data.point(k as u32),
            &mut metrics,
            &mut NoopRecorder,
            &CancelToken::none(),
        )
        .unwrap();
        assert_eq!(merged, vec![0, 1, 2]);
    }

    #[test]
    fn elites_prune_dominated_candidates_during_assignment() {
        let rows = vec![vec![0.1, 0.1], vec![0.5, 0.5], vec![0.9, 0.05]];
        let data = Dataset::from_rows(&rows).unwrap();
        let entries = vec![
            MergeEntry {
                key: 1,
                shard: 0,
                premask: Subspace::from_bits(0),
            },
            MergeEntry {
                key: 2,
                shard: 1,
                premask: Subspace::from_bits(0),
            },
        ];
        let elites = vec![EliteRef {
            shard: NO_SHARD,
            row: data.point(0), // dominates candidate 1, not candidate 2
        }];
        let mut metrics = Metrics::new();
        let merged = merge_shard_skylines(
            2,
            2,
            &entries,
            &elites,
            |k| data.point(k as u32),
            &mut metrics,
            &mut NoopRecorder,
            &CancelToken::none(),
        )
        .unwrap();
        assert_eq!(merged, vec![2]);
        assert!(metrics.dominance_tests >= 2);
    }

    /// The distributed split of subspace assignment (shard-local
    /// premasks + cross-shard elites, with same-shard elites skipped)
    /// yields the same skyline as referencing every candidate against
    /// the full elite union centrally.
    #[test]
    fn premask_split_matches_central_assignment() {
        let rows = pseudo_random_rows(400, 4, 7);
        let data = Dataset::from_rows(&rows).unwrap();
        let shard_count = 3usize;
        let mut shard_ids: Vec<Vec<PointId>> = vec![Vec::new(); shard_count];
        for id in 0..rows.len() as u32 {
            shard_ids[id as usize % shard_count].push(id);
        }

        let mut central_entries = Vec::new();
        let mut split_entries = Vec::new();
        let mut elite_union: Vec<EliteRef> = Vec::new();
        let mut central_elites: Vec<PointId> = Vec::new();
        for (s, ids) in shard_ids.iter().enumerate() {
            let local = local_skyline(&data, ids);
            let elite_ids = select_reference_elites(&data, &local);
            let masks = reference_masks(&data, &local, &elite_ids);
            for (&q, &mask) in local.iter().zip(masks.iter()) {
                central_entries.push(MergeEntry {
                    key: q as u64,
                    shard: s as u32,
                    premask: Subspace::from_bits(0),
                });
                split_entries.push(MergeEntry {
                    key: q as u64,
                    shard: s as u32,
                    premask: mask,
                });
            }
            for &e in &elite_ids {
                elite_union.push(EliteRef {
                    shard: s as u32,
                    row: data.point(e),
                });
                central_elites.push(e);
            }
        }
        let central_refs: Vec<EliteRef> = central_elites
            .iter()
            .map(|&e| EliteRef {
                shard: NO_SHARD,
                row: data.point(e),
            })
            .collect();

        let mut m1 = Metrics::new();
        let central = merge_shard_skylines(
            4,
            shard_count,
            &central_entries,
            &central_refs,
            |k| data.point(k as u32),
            &mut m1,
            &mut NoopRecorder,
            &CancelToken::none(),
        )
        .unwrap();
        let mut m2 = Metrics::new();
        let split = merge_shard_skylines(
            4,
            shard_count,
            &split_entries,
            &elite_union,
            |k| data.point(k as u32),
            &mut m2,
            &mut NoopRecorder,
            &CancelToken::none(),
        )
        .unwrap();
        assert_eq!(central, split);
        assert_eq!(central, brute_skyline(&rows));
        // The split does strictly less assignment work: same-shard
        // elites are skipped.
        assert!(m2.dominance_tests <= m1.dominance_tests);
    }

    #[test]
    fn spans_balance_and_cancellation_is_honoured() {
        let rows = pseudo_random_rows(600, 3, 11);
        let data = Dataset::from_rows(&rows).unwrap();
        let entries: Vec<MergeEntry> = (0..rows.len() as u32)
            .map(|id| MergeEntry {
                key: id as u64,
                shard: id % 2,
                premask: Subspace::from_bits(0),
            })
            .collect();
        let mut rec = MemoryRecorder::new();
        let mut metrics = Metrics::new();
        merge_shard_skylines(
            3,
            2,
            &entries,
            &[],
            |k| data.point(k as u32),
            &mut metrics,
            &mut rec,
            &CancelToken::none(),
        )
        .unwrap();
        assert!(rec.open_spans().is_empty(), "unbalanced spans");

        let token = CancelToken::manual();
        token.cancel();
        let mut m2 = Metrics::new();
        assert!(merge_shard_skylines(
            3,
            2,
            &entries,
            &[],
            |k| data.point(k as u32),
            &mut m2,
            &mut NoopRecorder,
            &token,
        )
        .is_err());
    }

    #[test]
    fn reference_elites_are_deterministic_and_bounded() {
        let rows = pseudo_random_rows(200, 3, 5);
        let data = Dataset::from_rows(&rows).unwrap();
        let ids: Vec<PointId> = (0..200).collect();
        let a = select_reference_elites(&data, &ids);
        let b = select_reference_elites(&data, &ids);
        assert_eq!(a, b);
        assert_eq!(a.len(), ELITE_SEEDS.min(ids.len() / 8));
        // Tiny candidate lists yield no elites rather than panicking.
        assert!(select_reference_elites(&data, &ids[..7]).is_empty());
    }
}
