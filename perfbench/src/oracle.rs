//! The answer oracle: a plain (non-boosted) SFS run in the benchmark
//! process over its own copy of the live rows.

use std::collections::BTreeMap;

use skyline_algos::sfs::Sfs;
use skyline_algos::SkylineAlgorithm;
use skyline_core::dataset::Dataset;

/// The rows the benchmark generated, row-major.
pub struct Rows {
    pub dims: usize,
    pub values: Vec<f64>,
}

impl Rows {
    pub fn row(&self, i: u32) -> &[f64] {
        let at = i as usize * self.dims;
        &self.values[at..at + self.dims]
    }

    pub fn len(&self) -> usize {
        self.values.len() / self.dims
    }
}

/// One acknowledged write, in the order the server applied it.
#[derive(Debug, Clone, Copy)]
pub enum Write {
    /// Row `row` went live under the server's id `key`.
    Insert {
        key: u64,
        row: u32,
    },
    Remove {
        key: u64,
    },
}

/// One answer to check: the server's ids for the skyline over `dims`,
/// read after the first `after_writes` writes.
pub struct Answer {
    pub op: usize,
    pub after_writes: usize,
    pub dims: Vec<usize>,
    pub ids: Vec<u64>,
}

/// The sorted skyline ids of the `live` rows (id → row) over `dims`.
pub fn skyline(rows: &Rows, live: &BTreeMap<u64, u32>, dims: &[usize]) -> Vec<u64> {
    let keys: Vec<u64> = live.keys().copied().collect();
    let projected: Vec<Vec<f64>> = live
        .values()
        .map(|&r| {
            let row = rows.row(r);
            dims.iter().map(|&d| row[d]).collect()
        })
        .collect();
    if projected.is_empty() {
        return Vec::new();
    }
    let data = Dataset::from_rows(&projected).expect("generated rows are finite");
    let mut ids: Vec<u64> = Sfs
        .compute(&data)
        .into_iter()
        .map(|i| keys[i as usize])
        .collect();
    ids.sort_unstable();
    ids
}

/// Replay `writes` over `initial` and check every answer at the state it
/// was read in. Answers must be ordered by `after_writes`. Returns one
/// line per wrong answer.
pub fn check(
    rows: &Rows,
    initial: &BTreeMap<u64, u32>,
    writes: &[Write],
    answers: &[&Answer],
) -> Vec<String> {
    let mut live = initial.clone();
    let mut applied = 0;
    let mut wrong = Vec::new();
    // Answers at one state over one subspace share an oracle run.
    let mut memo: Option<(usize, Vec<usize>, Vec<u64>)> = None;
    for answer in answers {
        while applied < answer.after_writes {
            match writes[applied] {
                Write::Insert { key, row } => {
                    live.insert(key, row);
                }
                Write::Remove { key } => {
                    live.remove(&key);
                }
            }
            applied += 1;
        }
        let fresh = !matches!(&memo, Some((at, dims, _)) if *at == applied && *dims == answer.dims);
        if fresh {
            memo = Some((
                applied,
                answer.dims.clone(),
                skyline(rows, &live, &answer.dims),
            ));
        }
        let expected = &memo.as_ref().expect("just set").2;
        let mut got = answer.ids.clone();
        got.sort_unstable();
        if &got != expected {
            let missing = expected
                .iter()
                .filter(|k| got.binary_search(k).is_err())
                .count();
            let extra = got
                .iter()
                .filter(|k| expected.binary_search(k).is_err())
                .count();
            wrong.push(format!(
                "op {} (dims {:?}, after {} writes): {} ids, oracle {} ({missing} missing, {extra} extra)",
                answer.op,
                answer.dims,
                answer.after_writes,
                got.len(),
                expected.len()
            ));
        }
    }
    wrong
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rows() -> Rows {
        Rows {
            dims: 2,
            values: vec![0.1, 0.9, 0.5, 0.5, 0.9, 0.1, 0.6, 0.6, 0.05, 0.95],
        }
    }

    fn live(n: u32) -> BTreeMap<u64, u32> {
        (0..n).map(|r| (u64::from(r) + 100, r)).collect()
    }

    #[test]
    fn oracle_agrees_with_a_correct_answer() {
        let answers = [Answer {
            op: 0,
            after_writes: 0,
            dims: vec![0, 1],
            ids: vec![102, 100, 101],
        }];
        assert!(check(&rows(), &live(4), &[], &[&answers[0]]).is_empty());
    }

    #[test]
    fn oracle_catches_a_planted_wrong_id() {
        let writes = [Write::Insert { key: 7, row: 4 }, Write::Remove { key: 101 }];
        let good = Answer {
            op: 3,
            after_writes: 2,
            dims: vec![0, 1],
            ids: vec![7, 100, 102, 103],
        };
        assert!(check(&rows(), &live(4), &writes, &[&good]).is_empty());
        // Id 103 is the shadowed row (0.6, 0.6) only while 101 is live.
        let planted = Answer {
            op: 3,
            after_writes: 2,
            dims: vec![0, 1],
            ids: vec![7, 100, 101, 102],
        };
        let wrong = check(&rows(), &live(4), &writes, &[&planted]);
        assert_eq!(wrong.len(), 1, "{wrong:?}");
        assert!(wrong[0].contains("1 missing, 1 extra"), "{wrong:?}");
    }

    #[test]
    fn subspace_answers_use_the_projected_rows() {
        let answers = [Answer {
            op: 1,
            after_writes: 0,
            dims: vec![0],
            ids: vec![104],
        }];
        assert!(check(&rows(), &live(5), &[], &[&answers[0]]).is_empty());
    }
}
