//! Multi-core skyline computation (partition → local skyline → merge),
//! in the spirit of the shared-memory parallelisation that Chester et
//! al. (ICDE 2015) applied to skyline computation — the same work the
//! paper's real datasets come from.
//!
//! Two engines live here:
//!
//! - [`ParallelSfs`]: the classic partition-merge skyline with a plain
//!   sum-presorted filter per chunk and one more presorted filter over
//!   the union of local skylines.
//! - [`ParallelBoosted`]: the subset-boosted generalisation. The dataset
//!   is split into contiguous shards; each worker runs the *full* boost
//!   pipeline (pivot merge → presort → subset-index filter) of the
//!   wrapped algorithm on its shard, and the local skylines are merged
//!   with a final shared subset-index pass — so the paper's `O((d/2)²)`
//!   expected query advantage survives both phases.
//!
//! ## Exactness
//!
//! Dominance is shard-oblivious: if `p ≺ q` and both land in the same
//! shard, `q` dies in that shard's local computation; if they land in
//! different shards, `p` survives its own shard (or some dominator of
//! `p` from `p`'s shard does, and dominance is transitive) and kills `q`
//! in the merge. Hence every global skyline point is a local skyline
//! point of its shard, and filtering the union of local skylines yields
//! exactly the global skyline — duplicates included, since duplicates
//! never dominate each other.
//!
//! The merge pass exploits one more shard fact: two local skyline points
//! of the *same* shard are mutually non-dominated by construction, so a
//! merge candidate only ever needs dominance tests against points from
//! *other* shards. [`ParallelBoosted`] therefore keeps one subset
//! container per shard and queries all containers except the testing
//! point's own — same candidates semantics (Lemma 5.1), strictly fewer
//! dominance tests than a single shared container.

use std::thread;
use std::time::Instant;

use skyline_core::cancel::{CancelToken, Cancelled};
use skyline_core::dataset::Dataset;
use skyline_core::dominance::lex_cmp;
use skyline_core::metrics::Metrics;
use skyline_core::point::{coordinate_sum, max_coordinate, PointId};
use skyline_core::shard_merge::{merge_shard_skylines, EliteRef, MergeEntry, NO_SHARD};
use skyline_core::subspace::Subspace;
use skyline_obs::{Event, NoopRecorder, Recorder};

use crate::common::presorted_filter_cancel;
use crate::SkylineAlgorithm;

/// Resolve a requested worker count against the dataset size.
///
/// `requested == 0` means "auto": one worker per available CPU, clamped
/// so tiny inputs do not spawn workers for sub-1024-point chunks. An
/// explicit `requested > 0` is honoured as given (the caller asked for
/// that sharding), clamped only to `[1, n]` so every worker owns at
/// least one point.
fn resolve_workers(requested: usize, n: usize) -> usize {
    if requested == 0 {
        let hw = thread::available_parallelism()
            .map(|p| p.get())
            .unwrap_or(1);
        hw.clamp(1, n.div_ceil(1024).max(1))
    } else {
        requested.clamp(1, n.max(1))
    }
}

/// Parallel sort-filter skyline.
#[derive(Debug, Clone, Copy, Default)]
pub struct ParallelSfs {
    /// Worker count; 0 (the default) = one per available CPU.
    pub threads: usize,
}

impl ParallelSfs {
    fn worker_count(&self, n: usize) -> usize {
        resolve_workers(self.threads, n)
    }

    /// The partition-merge pipeline with cooperative cancellation: every
    /// worker's presorted filter checks the shared token, as does the
    /// final merge filter.
    fn compute_cancel_inner(
        &self,
        data: &Dataset,
        metrics: &mut Metrics,
        cancel: &CancelToken,
    ) -> Result<Vec<PointId>, Cancelled> {
        let n = data.len();
        if n == 0 {
            return Ok(Vec::new());
        }
        let workers = self.worker_count(n);
        let chunk = n.div_ceil(workers);

        // Phase 1: local skylines, one worker per chunk.
        let mut locals: Vec<(Vec<PointId>, Metrics)> = Vec::with_capacity(workers);
        let mut cancelled = false;
        thread::scope(|scope| {
            let mut handles = Vec::with_capacity(workers);
            for w in 0..workers {
                let lo = w * chunk;
                let hi = ((w + 1) * chunk).min(n);
                if lo >= hi {
                    continue;
                }
                handles.push(scope.spawn(move || {
                    let mut local_metrics = Metrics::new();
                    let mut ids: Vec<PointId> = (lo as u32..hi as u32).collect();
                    ids.sort_unstable_by(|&a, &b| {
                        coordinate_sum(data.point(a))
                            .total_cmp(&coordinate_sum(data.point(b)))
                            .then_with(|| lex_cmp(data.point(a), data.point(b)))
                            .then(a.cmp(&b))
                    });
                    presorted_filter_cancel(data, &ids, &mut local_metrics, cancel)
                        .map(|local| (local, local_metrics))
                }));
            }
            // Join every worker even when one reports cancellation: all of
            // them share the token, so the stragglers abort promptly.
            for h in handles {
                match h.join().expect("skyline worker panicked") {
                    Ok(pair) => locals.push(pair),
                    Err(Cancelled) => cancelled = true,
                }
            }
        });
        if cancelled {
            return Err(Cancelled);
        }

        // Phase 2: merge the local skylines with one more presorted
        // filter over their union.
        let mut merged: Vec<PointId> = Vec::new();
        for (local, local_metrics) in &locals {
            merged.extend_from_slice(local);
            metrics.absorb(local_metrics);
        }
        merged.sort_unstable_by(|&a, &b| {
            coordinate_sum(data.point(a))
                .total_cmp(&coordinate_sum(data.point(b)))
                .then_with(|| lex_cmp(data.point(a), data.point(b)))
                .then(a.cmp(&b))
        });
        let mut skyline = presorted_filter_cancel(data, &merged, metrics, cancel)?;
        skyline.sort_unstable();
        Ok(skyline)
    }
}

impl SkylineAlgorithm for ParallelSfs {
    fn name(&self) -> &str {
        "P-SFS"
    }

    fn compute_with_metrics(&self, data: &Dataset, metrics: &mut Metrics) -> Vec<PointId> {
        self.compute_cancel_inner(data, metrics, &CancelToken::none())
            .expect("the none token never cancels")
    }

    fn compute_cancellable(
        &self,
        data: &Dataset,
        metrics: &mut Metrics,
        cancel: &CancelToken,
    ) -> Result<Vec<PointId>, Cancelled> {
        self.compute_cancel_inner(data, metrics, cancel)
    }
}

/// One worker's slice of a [`ParallelBoosted`] run.
#[derive(Debug, Clone)]
pub struct ShardRun {
    /// First point id of the shard (inclusive).
    pub lo: usize,
    /// One past the last point id of the shard.
    pub hi: usize,
    /// The shard's local skyline, in *global* ids, ascending.
    pub skyline: Vec<PointId>,
    /// Counters the worker collected, isolated per shard.
    pub metrics: Metrics,
    /// The worker's own wall-clock, microseconds.
    pub elapsed_us: u64,
}

/// Detailed result of a [`ParallelBoosted`] run, exposing the per-shard
/// breakdown the differential tests assert over.
#[derive(Debug, Clone)]
pub struct ParallelOutcome {
    /// Worker count the run actually used.
    pub workers: usize,
    /// Per-shard local results, in shard order.
    pub shards: Vec<ShardRun>,
    /// Counters of the cross-shard merge pass alone.
    pub merge_metrics: Metrics,
    /// The global skyline, ascending. Equals the union of shard skylines
    /// filtered down by the merge pass.
    pub skyline: Vec<PointId>,
}

impl ParallelOutcome {
    /// All shard counters plus the merge counters folded into one
    /// [`Metrics`] — exactly what [`SkylineAlgorithm::compute_with_metrics`]
    /// reports for the same run.
    pub fn total_metrics(&self) -> Metrics {
        let mut total = Metrics::new();
        for s in &self.shards {
            total.absorb(&s.metrics);
        }
        total.absorb(&self.merge_metrics);
        total
    }
}

/// Subset-boosted partition-merge adapter: runs `A` per shard on scoped
/// threads, then merges the local skylines with a shared subset-index
/// pass (see the module docs for the exactness argument).
///
/// `A` is typically one of the paper's boosted trio ([`crate::boosted`])
/// — the prebuilt `P-SFS-Subset` / `P-SaLSa-Subset` / `P-SDI-Subset`
/// registry entries — but any exact [`SkylineAlgorithm`] works.
#[derive(Debug, Clone)]
pub struct ParallelBoosted<A> {
    inner: A,
    name: String,
    /// Worker count; 0 (the default) = one per available CPU.
    pub threads: usize,
}

impl<A: SkylineAlgorithm + Sync> ParallelBoosted<A> {
    /// Wrap `inner`, prefixing its display name with `P-`.
    pub fn new(inner: A, threads: usize) -> Self {
        let name = format!("P-{}", inner.name());
        ParallelBoosted {
            inner,
            name,
            threads,
        }
    }

    /// The wrapped sequential algorithm.
    pub fn inner(&self) -> &A {
        &self.inner
    }

    /// Run the engine and return the per-shard breakdown.
    ///
    /// Tracing layout: phase 1 under a `"parallel_scan"` span with one
    /// [`Event::ShardScan`] per shard (worker-measured durations), phase 2
    /// under a `"parallel_merge"` span (nesting `"sort"`/`"scan"` child
    /// spans) closed by one [`Event::ParallelMerge`] carrying the shard
    /// skyline sizes.
    pub fn compute_detailed(&self, data: &Dataset, rec: &mut dyn Recorder) -> ParallelOutcome {
        self.compute_detailed_cancel(data, rec, &CancelToken::none())
            .expect("the none token never cancels")
    }

    /// [`ParallelBoosted::compute_detailed`] with cooperative
    /// cancellation: every shard worker runs the wrapped algorithm's
    /// cancellable entry point against the shared token, and the
    /// cross-shard merge checks it every
    /// [`CHECK_STRIDE`](skyline_core::cancel::CHECK_STRIDE) candidates.
    pub fn compute_detailed_cancel(
        &self,
        data: &Dataset,
        rec: &mut dyn Recorder,
        cancel: &CancelToken,
    ) -> Result<ParallelOutcome, Cancelled> {
        let n = data.len();
        if n == 0 {
            return Ok(ParallelOutcome {
                workers: 0,
                shards: Vec::new(),
                merge_metrics: Metrics::new(),
                skyline: Vec::new(),
            });
        }
        let workers = resolve_workers(self.threads, n);
        let chunk = n.div_ceil(workers);

        // Elite seeding: every worker's shard is prefixed with the same
        // few globally strongest points (smallest maximum coordinate —
        // the best universal dominators and stop points). They ride along
        // as ghosts: cross-shard dominated points die inside the shard
        // scan instead of surviving into the merge, and stop-point rules
        // fire against the *global* bound immediately. Ghosts are cut
        // from the local skyline afterwards, so exactness is untouched —
        // a global skyline point is never dominated by anything.
        let elites: Vec<PointId> = if workers > 1 {
            elite_points(data)
        } else {
            Vec::new()
        };
        let ghosts = elites.len();

        // Phase 1: the full boost pipeline per shard, one scoped worker
        // per chunk. Workers run untraced (a recorder is not shareable
        // across threads) but time themselves, so the emitted events are
        // exact.
        rec.span_start("parallel_scan");
        let mut shards: Vec<ShardRun> = Vec::with_capacity(workers);
        let mut cancelled = false;
        thread::scope(|scope| {
            let mut handles = Vec::with_capacity(workers);
            for w in 0..workers {
                let lo = w * chunk;
                let hi = ((w + 1) * chunk).min(n);
                if lo >= hi {
                    continue;
                }
                let inner = &self.inner;
                let elites = &elites;
                handles.push(scope.spawn(move || {
                    let start = Instant::now();
                    let mut ids: Vec<PointId> = Vec::with_capacity(ghosts + (hi - lo));
                    ids.extend_from_slice(elites);
                    ids.extend(lo as u32..hi as u32);
                    let shard_data = data.project(&ids);
                    let mut metrics = Metrics::new();
                    let local = inner.compute_cancellable(&shard_data, &mut metrics, cancel)?;
                    // Drop the ghost prefix and shift shard-local offsets
                    // back to global ids.
                    let skyline: Vec<PointId> = local
                        .into_iter()
                        .filter(|&id| id as usize >= ghosts)
                        .map(|id| id - ghosts as u32 + lo as u32)
                        .collect();
                    Ok(ShardRun {
                        lo,
                        hi,
                        skyline,
                        metrics,
                        elapsed_us: start.elapsed().as_micros() as u64,
                    })
                }));
            }
            // Join every worker even on cancellation: the token is shared,
            // so the rest abort promptly rather than being abandoned.
            for h in handles {
                match h.join().expect("skyline worker panicked") {
                    Ok(shard) => shards.push(shard),
                    Err(Cancelled) => cancelled = true,
                }
            }
        });
        if cancelled {
            rec.span_end("parallel_scan");
            return Err(Cancelled);
        }
        if rec.enabled() {
            for (i, s) in shards.iter().enumerate() {
                rec.event(Event::ShardScan {
                    shard: i as u64,
                    lo: s.lo as u64,
                    hi: s.hi as u64,
                    skyline_size: s.skyline.len() as u64,
                    dominance_tests: s.metrics.dominance_tests,
                    elapsed_us: s.elapsed_us,
                });
            }
        }
        rec.span_end("parallel_scan");

        let mut merge_metrics = Metrics::new();
        let skyline = if shards.len() == 1 {
            shards[0].skyline.clone()
        } else {
            rec.span_start("parallel_merge");
            let merged = merge_shards(data, &shards, &elites, &mut merge_metrics, rec, cancel);
            rec.span_end("parallel_merge");
            merged?
        };
        if rec.enabled() {
            rec.event(Event::ParallelMerge {
                shard_skylines: shards.iter().map(|s| s.skyline.len() as u64).collect(),
                candidates: shards.iter().map(|s| s.skyline.len() as u64).sum(),
                skyline_size: skyline.len() as u64,
                dominance_tests: merge_metrics.dominance_tests,
            });
        }
        Ok(ParallelOutcome {
            workers: shards.len(),
            shards,
            merge_metrics,
            skyline,
        })
    }
}

/// How many elite points each shard is seeded with (ghost prefix).
const ELITE_SEEDS: usize = 16;

/// The globally strongest points by maximum coordinate: the best
/// universal dominators (`maxC(p) ≤ minC(q)` proves `p ⪯ q`) and the
/// strongest stop-point candidates. `O(n)` selection, no full sort.
fn elite_points(data: &Dataset) -> Vec<PointId> {
    let count = ELITE_SEEDS.min(data.len() / 8);
    if count == 0 {
        return Vec::new();
    }
    let mut keyed: Vec<(f64, PointId)> = (0..data.len() as u32)
        .map(|id| (max_coordinate(data.point(id)), id))
        .collect();
    keyed.select_nth_unstable_by(count - 1, |a, b| a.0.total_cmp(&b.0));
    keyed.truncate(count);
    keyed.into_iter().map(|(_, id)| id).collect()
}

/// The shared subset-index merge pass over the union of local skylines —
/// a thin adapter over [`skyline_core::shard_merge::merge_shard_skylines`],
/// which the cluster coordinator reuses verbatim.
///
/// The elite set doubles as the subspace reference (tagged [`NO_SHARD`]
/// so every candidate is referenced against every elite): every union
/// point gets `D_{q≺E} = ∪ₑ D_{q≺e}`, sound for Lemma 5.1 under *any*
/// shared reference set. See the core module docs for the presort, the
/// per-shard containers, and the stop-point rule.
fn merge_shards(
    data: &Dataset,
    shards: &[ShardRun],
    elites: &[PointId],
    metrics: &mut Metrics,
    rec: &mut dyn Recorder,
    cancel: &CancelToken,
) -> Result<Vec<PointId>, Cancelled> {
    let mut entries: Vec<MergeEntry> =
        Vec::with_capacity(shards.iter().map(|s| s.skyline.len()).sum());
    for (i, shard) in shards.iter().enumerate() {
        for &q in &shard.skyline {
            entries.push(MergeEntry {
                key: q as u64,
                shard: i as u32,
                premask: Subspace::from_bits(0),
            });
        }
    }
    let elite_refs: Vec<EliteRef> = elites
        .iter()
        .map(|&e| EliteRef {
            shard: NO_SHARD,
            row: data.point(e),
        })
        .collect();
    let merged = merge_shard_skylines(
        data.dims(),
        shards.len(),
        &entries,
        &elite_refs,
        |k| data.point(k as u32),
        metrics,
        rec,
        cancel,
    )?;
    Ok(merged.into_iter().map(|k| k as PointId).collect())
}

impl<A: SkylineAlgorithm + Sync> SkylineAlgorithm for ParallelBoosted<A> {
    fn name(&self) -> &str {
        &self.name
    }

    fn compute_with_metrics(&self, data: &Dataset, metrics: &mut Metrics) -> Vec<PointId> {
        self.compute_traced(data, metrics, &mut NoopRecorder)
    }

    fn compute_cancellable(
        &self,
        data: &Dataset,
        metrics: &mut Metrics,
        cancel: &CancelToken,
    ) -> Result<Vec<PointId>, Cancelled> {
        let outcome = self.compute_detailed_cancel(data, &mut NoopRecorder, cancel)?;
        metrics.absorb(&outcome.total_metrics());
        Ok(outcome.skyline)
    }

    fn compute_traced(
        &self,
        data: &Dataset,
        metrics: &mut Metrics,
        rec: &mut dyn Recorder,
    ) -> Vec<PointId> {
        let outcome = self.compute_detailed(data, rec);
        metrics.absorb(&outcome.total_metrics());
        outcome.skyline
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bnl::Bnl;
    use crate::boosted::{SalsaSubset, SdiSubset, SfsSubset};
    use skyline_obs::MemoryRecorder;

    fn pseudo_random_dataset(n: usize, d: usize) -> Dataset {
        let rows: Vec<Vec<f64>> = (0..n)
            .map(|i| {
                (0..d)
                    .map(|k| (((i * 23 + k * 41) * 2654435761usize) % 887) as f64 / 887.0)
                    .collect()
            })
            .collect();
        Dataset::from_rows(&rows).unwrap()
    }

    #[test]
    fn matches_oracle_across_thread_counts() {
        let data = pseudo_random_dataset(5000, 5);
        let expected = Bnl.compute(&data);
        for threads in [1usize, 2, 3, 8] {
            let algo = ParallelSfs { threads };
            assert_eq!(algo.compute(&data), expected, "threads={threads}");
        }
    }

    #[test]
    fn default_uses_available_parallelism() {
        let data = pseudo_random_dataset(4000, 4);
        assert_eq!(ParallelSfs::default().compute(&data), Bnl.compute(&data));
    }

    #[test]
    fn auto_mode_does_not_over_spawn_on_tiny_inputs() {
        let data = pseudo_random_dataset(10, 3);
        let algo = ParallelSfs::default();
        assert_eq!(algo.worker_count(data.len()), 1);
        assert_eq!(algo.compute(&data), Bnl.compute(&data));
    }

    #[test]
    fn explicit_thread_count_is_honoured_below_the_auto_clamp() {
        // Regression: the auto clamp `n.div_ceil(1024)` used to silently
        // override an explicit thread count on small inputs.
        let algo = ParallelSfs { threads: 4 };
        assert_eq!(algo.worker_count(100), 4, "n < 1024 must still shard x4");
        assert_eq!(algo.worker_count(2000), 4);
        // Still never more workers than points.
        assert_eq!(algo.worker_count(3), 3);
        let data = pseudo_random_dataset(100, 4);
        assert_eq!(algo.compute(&data), Bnl.compute(&data));
    }

    #[test]
    fn empty_and_duplicates() {
        let empty = Dataset::from_flat(vec![], 3).unwrap();
        assert!(ParallelSfs::default().compute(&empty).is_empty());
        let dup = Dataset::from_rows(&vec![[1.0, 2.0]; 100]).unwrap();
        let sky = ParallelSfs { threads: 4 }.compute(&dup);
        assert_eq!(sky.len(), 100);
    }

    #[test]
    fn metrics_accumulate_across_workers() {
        let data = pseudo_random_dataset(3000, 4);
        let mut m = Metrics::new();
        let _ = ParallelSfs { threads: 4 }.compute_with_metrics(&data, &mut m);
        assert!(m.dominance_tests > 0);
    }

    #[test]
    fn boosted_engines_match_oracle_across_thread_counts() {
        let data = pseudo_random_dataset(2000, 5);
        let expected = Bnl.compute(&data);
        for threads in [1usize, 2, 3, 7] {
            assert_eq!(
                ParallelBoosted::new(SfsSubset::default(), threads).compute(&data),
                expected,
                "P-SFS-Subset threads={threads}"
            );
            assert_eq!(
                ParallelBoosted::new(SalsaSubset::default(), threads).compute(&data),
                expected,
                "P-SaLSa-Subset threads={threads}"
            );
            assert_eq!(
                ParallelBoosted::new(SdiSubset::default(), threads).compute(&data),
                expected,
                "P-SDI-Subset threads={threads}"
            );
        }
    }

    #[test]
    fn cancellable_runs_match_plain_and_honour_the_token() {
        let data = pseudo_random_dataset(2000, 4);
        let expected = Bnl.compute(&data);
        let engines: Vec<Box<dyn SkylineAlgorithm>> = vec![
            Box::new(ParallelSfs { threads: 3 }),
            Box::new(ParallelBoosted::new(SfsSubset::default(), 3)),
            Box::new(ParallelBoosted::new(SdiSubset::default(), 3)),
        ];
        for algo in engines {
            let mut m = Metrics::new();
            let sky = algo
                .compute_cancellable(&data, &mut m, &CancelToken::none())
                .expect("none token never cancels");
            assert_eq!(sky, expected, "{}", algo.name());
            let token = CancelToken::manual();
            token.cancel();
            let mut m2 = Metrics::new();
            assert!(
                algo.compute_cancellable(&data, &mut m2, &token).is_err(),
                "{} must honour a cancelled token",
                algo.name()
            );
        }
    }

    #[test]
    fn names_carry_the_parallel_prefix() {
        assert_eq!(
            ParallelBoosted::new(SfsSubset::default(), 2).name(),
            "P-SFS-Subset"
        );
        assert_eq!(
            ParallelBoosted::new(SdiSubset::default(), 0).name(),
            "P-SDI-Subset"
        );
    }

    #[test]
    fn detailed_outcome_is_internally_consistent() {
        let data = pseudo_random_dataset(1500, 4);
        let engine = ParallelBoosted::new(SfsSubset::default(), 3);
        let outcome = engine.compute_detailed(&data, &mut NoopRecorder);
        assert_eq!(outcome.workers, 3);
        assert_eq!(outcome.shards.len(), 3);
        // Shards tile [0, n) without gaps or overlap.
        let mut expected_lo = 0usize;
        for s in &outcome.shards {
            assert_eq!(s.lo, expected_lo);
            assert!(s.hi > s.lo);
            expected_lo = s.hi;
            // Every local id lies inside the shard.
            assert!(s
                .skyline
                .iter()
                .all(|&id| (id as usize) >= s.lo && (id as usize) < s.hi));
        }
        assert_eq!(expected_lo, data.len());
        // The summed per-shard metrics plus the merge metrics are exactly
        // what the plain entry point reports.
        let mut via_plain = Metrics::new();
        let sky_plain = engine.compute_with_metrics(&data, &mut via_plain);
        assert_eq!(sky_plain, outcome.skyline);
        assert_eq!(via_plain, outcome.total_metrics());
    }

    /// Verbatim copy of `merge_shards` as it stood before the merge was
    /// lifted into `skyline_core::shard_merge` — the oracle pinning the
    /// extraction: identical skylines *and* identical counter values.
    fn legacy_merge_shards(
        data: &Dataset,
        shards: &[ShardRun],
        elites: &[PointId],
        metrics: &mut Metrics,
    ) -> Vec<PointId> {
        use skyline_core::container::{SkylineContainer, SubsetContainer};
        use skyline_core::dominance::{dominates, dominating_subspace, points_equal};
        use skyline_core::point::min_coordinate;

        let dims = data.dims();
        let mut entries: Vec<(PointId, u32, Subspace)> = Vec::new();
        for (i, shard) in shards.iter().enumerate() {
            'points: for &q in &shard.skyline {
                let q_row = data.point(q);
                let mut sub = Subspace::from_bits(0);
                for &e in elites {
                    metrics.count_dt();
                    let d = dominating_subspace(q_row, data.point(e));
                    if d.is_empty() && !points_equal(q_row, data.point(e)) {
                        continue 'points;
                    }
                    sub = sub.union(d);
                }
                entries.push((q, i as u32, sub));
            }
        }
        entries.sort_unstable_by(|&(a, _, _), &(b, _, _)| {
            let (pa, pb) = (data.point(a), data.point(b));
            min_coordinate(pa)
                .total_cmp(&min_coordinate(pb))
                .then_with(|| coordinate_sum(pa).total_cmp(&coordinate_sum(pb)))
                .then_with(|| lex_cmp(pa, pb))
        });
        let mut skyline: Vec<PointId> = Vec::new();
        let mut best_max = f64::INFINITY;
        let mut containers: Vec<SubsetContainer> = (0..shards.len())
            .map(|_| SubsetContainer::new(dims))
            .collect();
        let mut candidates: Vec<PointId> = Vec::new();
        for (scanned, &(q, q_shard, q_sub)) in entries.iter().enumerate() {
            let q_row = data.point(q);
            if min_coordinate(q_row) > best_max {
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
                    if dominates(data.point(c), q_row) {
                        dominated = true;
                        break 'shards;
                    }
                }
            }
            best_max = best_max.min(max_coordinate(q_row));
            if !dominated {
                containers[q_shard as usize].put(q, q_sub, metrics);
                skyline.push(q);
            }
        }
        skyline.sort_unstable();
        skyline
    }

    #[test]
    fn extracted_merge_matches_the_pre_refactor_path_exactly() {
        for (n, d, threads) in [(1500, 4, 3), (2000, 5, 4), (900, 6, 2), (1200, 3, 5)] {
            let data = pseudo_random_dataset(n, d);
            let engine = ParallelBoosted::new(SfsSubset::default(), threads);
            let outcome = engine.compute_detailed(&data, &mut NoopRecorder);
            let elites = elite_points(&data);
            let mut legacy_metrics = Metrics::new();
            let legacy = legacy_merge_shards(&data, &outcome.shards, &elites, &mut legacy_metrics);
            assert_eq!(outcome.skyline, legacy, "n={n} d={d} threads={threads}");
            assert_eq!(
                outcome.merge_metrics, legacy_metrics,
                "merge counters drifted for n={n} d={d} threads={threads}"
            );
        }
    }

    #[test]
    fn shard_duplicates_survive_the_merge() {
        // The same point in every shard: all copies are skyline points.
        let mut rows = vec![[0.1, 0.9], [0.9, 0.1]];
        for _ in 0..40 {
            rows.push([0.5, 0.5]);
        }
        let data = Dataset::from_rows(&rows).unwrap();
        let expected = Bnl.compute(&data);
        for threads in [2usize, 3, 5] {
            let engine = ParallelBoosted::new(SdiSubset::default(), threads);
            assert_eq!(engine.compute(&data), expected, "threads={threads}");
        }
    }

    #[test]
    fn empty_dataset_yields_empty_outcome() {
        let empty = Dataset::from_flat(vec![], 3).unwrap();
        let engine = ParallelBoosted::new(SfsSubset::default(), 4);
        let outcome = engine.compute_detailed(&empty, &mut NoopRecorder);
        assert_eq!(outcome.workers, 0);
        assert!(outcome.skyline.is_empty());
        assert!(outcome.shards.is_empty());
    }

    #[test]
    fn traced_run_emits_shard_and_merge_events() {
        let data = pseudo_random_dataset(1200, 4);
        let engine = ParallelBoosted::new(SfsSubset::default(), 3);
        let mut rec = MemoryRecorder::new();
        let mut m = Metrics::new();
        let sky = engine.compute_traced(&data, &mut m, &mut rec);
        assert_eq!(sky, Bnl.compute(&data));
        assert!(rec.open_spans().is_empty(), "unbalanced spans");
        let shard_events: Vec<&Event> = rec
            .events()
            .filter(|e| matches!(e, Event::ShardScan { .. }))
            .collect();
        assert_eq!(shard_events.len(), 3);
        let merge_event = rec
            .events()
            .find(|e| matches!(e, Event::ParallelMerge { .. }))
            .expect("parallel_merge event");
        if let Event::ParallelMerge {
            shard_skylines,
            skyline_size,
            ..
        } = merge_event
        {
            assert_eq!(shard_skylines.len(), 3);
            assert_eq!(*skyline_size, sky.len() as u64);
        }
    }
}
