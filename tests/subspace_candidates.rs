//! Differential gate for the rows the serving layer's read snapshot
//! keeps ([`StreamingSkyline::subspace_candidates`]): every skyline
//! point, and every shadowed point whose witness ties it in some
//! dimension.
//!
//! Seeded insert/remove scripts run over UI, CO and AC rows at
//! d = 2..8, once as drawn and once with tie-heavy rows mixed in: small
//! integer domains, duplicate inserts, ±∞ and -0.0. After every step,
//! every checked subspace answer of SFS-, SaLSa- and SDI-Subset over the
//! kept rows, mapped through handles, must equal the answer over all
//! live rows, and so must the `include_masks` extras (the reference
//! elites and masks over the answer). Whenever no two live rows share a
//! coordinate, the kept rows must be exactly the skyline. Subspaces are
//! all checked up to d = 5 and sampled from d = 6.

use skyline_algos::{algorithm_by_name, SkylineAlgorithm};
use skyline_core::dataset::Dataset;
use skyline_core::metrics::Metrics;
use skyline_core::point::PointId;
use skyline_core::shard_merge::{reference_masks, select_reference_elites};
use skyline_core::streaming::StreamingSkyline;
use skyline_core::subspace::Subspace;
use skyline_data::rng::Rng64;
use skyline_data::{Distribution, SyntheticSpec};

const ENGINES: [&str; 3] = ["SFS-Subset", "SaLSa-Subset", "SDI-Subset"];

/// One subspace answer, in stream handles: the skyline, the reference
/// elites and each skyline point's reference mask.
#[derive(Debug, PartialEq)]
struct Answer {
    ids: Vec<PointId>,
    elites: Vec<PointId>,
    masks: Vec<u64>,
}

/// Rows as a batch dataset plus the handle of each row.
struct Rows {
    handles: Vec<PointId>,
    data: Dataset,
}

impl Rows {
    fn new<'a>(rows: impl Iterator<Item = (PointId, &'a [f64])>) -> Rows {
        let (handles, rows): (Vec<PointId>, Vec<Vec<f64>>) =
            rows.map(|(id, row)| (id, row.to_vec())).unzip();
        Rows {
            handles,
            data: Dataset::from_rows(&rows).expect("live rows are valid"),
        }
    }

    /// `engine`'s answer over `mask`, with the extras a node computes
    /// for `include_masks`, mapped to handles.
    fn answer(&self, engine: &dyn SkylineAlgorithm, mask: Subspace) -> Answer {
        let target = if mask == Subspace::full(self.data.dims()) {
            self.data.clone()
        } else {
            self.data.project_dims(mask)
        };
        let rows = engine.compute_with_metrics(&target, &mut Metrics::new());
        let elites = select_reference_elites(&target, &rows);
        let masks = reference_masks(&target, &rows, &elites);
        let handle = |&i: &PointId| self.handles[i as usize];
        Answer {
            ids: rows.iter().map(handle).collect(),
            elites: elites.iter().map(handle).collect(),
            masks: masks.iter().map(|m| m.bits()).collect(),
        }
    }
}

/// The subspaces checked at one step: all of them up to d = 5; from
/// d = 6 the full space, every single dimension and eight drawn at
/// random.
fn subspaces(dims: usize, rng: &mut Rng64) -> Vec<Subspace> {
    let all = (1u64 << dims) - 1;
    if dims <= 5 {
        return (1..=all).map(Subspace::from_bits).collect();
    }
    let mut out = vec![Subspace::full(dims)];
    out.extend((0..dims).map(Subspace::singleton));
    out.extend((0..8).map(|_| Subspace::from_bits(1 + rng.gen_below(all))));
    out
}

/// Whether no two rows share a value in any dimension: then every
/// dominance is strict everywhere and only skyline points are kept.
fn tie_free(data: &Dataset) -> bool {
    (0..data.dims()).all(|d| {
        let mut column: Vec<f64> = data.iter().map(|(_, row)| row[d]).collect();
        column.sort_by(f64::total_cmp);
        column.windows(2).all(|w| w[0] != w[1])
    })
}

/// A row from a tiny domain: values 0..3, with ±∞ and -0.0 mixed in.
fn tie_row(dims: usize, rng: &mut Rng64) -> Vec<f64> {
    (0..dims)
        .map(|_| match rng.gen_below(20) {
            0 => f64::INFINITY,
            1 => f64::NEG_INFINITY,
            2 | 3 => -0.0,
            _ => rng.gen_below(3) as f64,
        })
        .collect()
}

/// How often a script's steps hit each case worth checking.
#[derive(Default)]
struct Seen {
    /// No two live rows shared a coordinate.
    tie_free: usize,
    /// A shadowed row was kept: its witness ties it somewhere.
    kept_shadowed: usize,
    /// A live row was left out.
    dropped: usize,
}

/// Run one seeded script, checking every step, into `seen`.
fn run(dist: Distribution, dims: usize, ties: bool, steps: usize, seed: u64, seen: &mut Seen) {
    let pool = SyntheticSpec {
        distribution: dist,
        cardinality: steps,
        dims,
        seed,
    }
    .generate();
    let mut pool = pool.iter().map(|(_, row)| row.to_vec());
    let mut rng = Rng64::seed_from_u64(seed ^ 0x7135);
    let engines: Vec<Box<dyn SkylineAlgorithm>> = ENGINES
        .iter()
        .map(|name| algorithm_by_name(name).expect("registered engine"))
        .collect();
    let mut sky = StreamingSkyline::new(dims).unwrap();
    let mut metrics = Metrics::new();
    for step in 0..steps {
        let live = sky.live_ids();
        let roll = rng.gen_below(100);
        let op = match roll {
            0..=59 => "insert",
            60..=74 if ties => "tie row",
            75..=84 if ties && !live.is_empty() => "duplicate",
            _ if live.is_empty() => "insert",
            _ => "remove",
        };
        match op {
            "insert" => {
                let row = pool.next().expect("pool sized to steps");
                sky.insert(&row, &mut metrics).unwrap();
            }
            "tie row" => {
                sky.insert(&tie_row(dims, &mut rng), &mut metrics).unwrap();
            }
            "duplicate" => {
                let of = live[rng.gen_below(live.len() as u64) as usize];
                let row = sky.get(of).unwrap().to_vec();
                sky.insert(&row, &mut metrics).unwrap();
            }
            _ => {
                let victim = live[rng.gen_below(live.len() as u64) as usize];
                assert!(sky.remove(victim, &mut metrics));
            }
        }
        sky.check_invariants();
        if sky.is_empty() {
            assert_eq!(sky.subspace_candidates().count(), 0);
            continue;
        }
        let all = Rows::new(sky.live_rows());
        let kept = Rows::new(sky.subspace_candidates());
        let at = format!("{dist:?} d={dims} ties={ties} step {step} ({op})");
        if tie_free(&all.data) {
            seen.tie_free += 1;
            assert_eq!(
                kept.handles,
                sky.skyline(),
                "{at}: tie-free keeps the skyline"
            );
        }
        seen.kept_shadowed += usize::from(kept.handles.len() > sky.skyline_len());
        seen.dropped += usize::from(kept.handles.len() < all.handles.len());
        for mask in subspaces(dims, &mut rng) {
            for engine in &engines {
                assert_eq!(
                    kept.answer(engine.as_ref(), mask),
                    all.answer(engine.as_ref(), mask),
                    "{at}: {} over dims {:?}",
                    engine.name(),
                    mask.dims().collect::<Vec<_>>()
                );
            }
        }
    }
}

fn gate(dist: Distribution) {
    let mut seen = Seen::default();
    for dims in 2..=8usize {
        let seed = 0xCA4D_0000 + dims as u64;
        run(dist, dims, false, 64, seed, &mut seen);
        run(dist, dims, true, 64, seed + 100, &mut seen);
    }
    assert!(seen.tie_free > 0, "no step was tie-free");
    assert!(seen.kept_shadowed > 0, "no step kept a shadowed row");
    assert!(seen.dropped > 0, "no step left a row out");
}

#[test]
fn independent_scripts_keep_every_subspace_answer() {
    gate(Distribution::Independent);
}

#[test]
fn correlated_scripts_keep_every_subspace_answer() {
    gate(Distribution::Correlated);
}

#[test]
fn anticorrelated_scripts_keep_every_subspace_answer() {
    gate(Distribution::AntiCorrelated);
}
