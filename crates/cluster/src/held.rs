//! Held answers: per dataset and shard query, the last full answer each
//! shard gave with its `ETag`, and the ids merged from exactly those
//! answers with the coordinator version they were merged at. A read
//! sends every shard the `ETag` held for it; a shard that has not
//! changed answers 304 and its held answer stands in for the reply.

use std::collections::{BTreeMap, HashMap};
use std::sync::Arc;

use crate::query::ShardSkyline;

/// The most coordinates held at once, over every held answer (an answer
/// with no rows counts as one). Past it, the answers of the query read
/// least recently go first.
pub(crate) const HELD_COORDINATES: usize = 1 << 20;

/// One shard's last full answer to one query, with its `ETag`.
pub(crate) struct HeldBody {
    pub(crate) etag: String,
    pub(crate) sky: ShardSkyline,
}

/// What the coordinator holds for one dataset and shard query.
pub(crate) struct Held {
    /// Per shard, its last full answer, if it ever gave one.
    pub(crate) shards: Vec<Option<Arc<HeldBody>>>,
    /// The ids merged from exactly `shards` and the coordinator version
    /// they were merged at; `None` when that answer was partial.
    pub(crate) merged: Option<(u64, Vec<u64>)>,
}

impl Held {
    fn coordinates(&self) -> usize {
        let shards = self.shards.iter().flatten();
        shards
            .map(|b| b.sky.rows.iter().map(Vec::len).sum::<usize>().max(1))
            .sum()
    }
}

/// Held answers by query, bounded by [`HELD_COORDINATES`] with
/// least-recently-read eviction.
#[derive(Default)]
pub(crate) struct HeldAnswers {
    /// Query → (last read tick, coordinates, what is held).
    entries: HashMap<String, (u64, usize, Arc<Held>)>,
    /// Tick → query, oldest first.
    order: BTreeMap<u64, String>,
    tick: u64,
    coordinates: usize,
}

impl HeldAnswers {
    /// What is held for `query`, marking it read.
    pub(crate) fn get(&mut self, query: &str) -> Option<Arc<Held>> {
        let (tick, _, held) = self.entries.get_mut(query)?;
        self.order.remove(tick);
        self.tick += 1;
        *tick = self.tick;
        self.order.insert(self.tick, query.to_string());
        Some(Arc::clone(held))
    }

    /// Hold `held` for `query` in place of what was, evicting the least
    /// recently read queries while over the bound.
    pub(crate) fn put(&mut self, query: String, held: Held) {
        if let Some((tick, coordinates, _)) = self.entries.remove(&query) {
            self.order.remove(&tick);
            self.coordinates -= coordinates;
        }
        let coordinates = held.coordinates();
        if coordinates > HELD_COORDINATES {
            return;
        }
        self.tick += 1;
        self.order.insert(self.tick, query.clone());
        self.entries
            .insert(query, (self.tick, coordinates, Arc::new(held)));
        self.coordinates += coordinates;
        while self.coordinates > HELD_COORDINATES {
            let (_, oldest) = self
                .order
                .pop_first()
                .expect("over the bound, so not empty");
            let (_, freed, _) = self.entries.remove(&oldest).expect("ordered ⇒ held");
            self.coordinates -= freed;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A held answer of one shard with `rows` rows of 8 coordinates.
    fn held(rows: usize) -> Held {
        let sky = ShardSkyline {
            handles: (0..rows as u32).collect(),
            masks: vec![0; rows],
            elites: Vec::new(),
            rows: vec![vec![0.5; 8]; rows],
            algorithm: "SDI-Subset".to_string(),
        };
        let body = HeldBody {
            etag: "\"t-1\"".to_string(),
            sky,
        };
        Held {
            shards: vec![Some(Arc::new(body)), None],
            merged: Some((1, (0..rows as u64).collect())),
        }
    }

    #[test]
    fn held_coordinates_stay_within_the_bound() {
        // 16 queries fill the bound; read twice as many distinct ones.
        let per_query = HELD_COORDINATES / 16;
        let mut answers = HeldAnswers::default();
        for q in 0..32 {
            answers.put(format!("q{q}"), held(per_query / 8));
            assert!(
                answers.coordinates <= HELD_COORDINATES,
                "{} coordinates held after query {q}",
                answers.coordinates
            );
            // Reading the first query keeps it the most recently read.
            assert!(answers.get("q0").is_some(), "q0 evicted at query {q}");
        }
        assert_eq!(answers.coordinates, HELD_COORDINATES);
        assert!(answers.get("q1").is_none(), "the oldest read goes first");
        assert!(answers.get("q31").is_some());
        // A held answer is replaced, not counted twice.
        answers.put("q31".to_string(), held(1));
        assert_eq!(answers.coordinates, HELD_COORDINATES - per_query + 8);
        // An answer past the bound on its own is not held at all.
        answers.put("huge".to_string(), held(HELD_COORDINATES / 8 + 1));
        assert!(answers.get("huge").is_none());
        assert!(answers.coordinates <= HELD_COORDINATES);
    }
}
