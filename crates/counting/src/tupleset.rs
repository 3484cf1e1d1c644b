//! Packed tuple sets for constraint membership tests.
//!
//! [`TupleSet`] replaces the `HashSet<Vec<u32>>` that used to back
//! [`crate::csp::CspConstraint::allowed`] — the set probed by the DP's
//! introduce filter for every (entry × candidate) pair, the hottest
//! membership test in the counting stack. The packed layout:
//!
//! * **arity ≤ 2** — each tuple packs into one `u64` (32 bits per
//!   column), stored sorted; `contains` is a binary search over one
//!   contiguous machine-word array;
//! * **arity ≤ 4** — the same with `u128` words;
//! * **wider** — a sorted row-major `u32` arena (like
//!   [`crate::table::FlatTable`]'s key column), binary-searched by
//!   slice comparison.
//!
//! Compared to the hash set this removes the per-tuple heap `Vec`, the
//! SipHash pass over it on every probe, and the bucket pointer chase;
//! a probe is a handful of comparisons over adjacent cache lines.
//! Membership is the only operation the DP needs, so no iteration
//! order is ever observable — determinism is unaffected.

use epq_structures::structure::search_rows;

/// An immutable set of fixed-arity `u32` tuples, packed for fast
/// membership tests. See the [module docs](self).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct TupleSet {
    arity: usize,
    repr: Repr,
}

#[derive(Clone, Debug, PartialEq, Eq)]
enum Repr {
    /// Arity 1–2: one sorted `u64` per tuple.
    W64(Vec<u64>),
    /// Arity 3–4: one sorted `u128` per tuple.
    W128(Vec<u128>),
    /// Arity 0 or ≥ 5: sorted row-major arena (`len × arity` values).
    Wide { len: usize, rows: Vec<u32> },
}

fn pack64(tuple: &[u32]) -> u64 {
    tuple
        .iter()
        .fold(0u64, |acc, &v| (acc << 32) | u64::from(v))
}

fn pack128(tuple: &[u32]) -> u128 {
    tuple
        .iter()
        .fold(0u128, |acc, &v| (acc << 32) | u128::from(v))
}

impl TupleSet {
    /// Builds a set from tuples of width `arity`, sorting and
    /// deduplicating.
    ///
    /// # Panics
    /// Panics if a tuple's width differs from `arity`.
    pub fn from_tuples<I>(arity: usize, tuples: I) -> Self
    where
        I: IntoIterator,
        I::Item: AsRef<[u32]>,
    {
        let tuples = tuples
            .into_iter()
            .inspect(|t| assert_eq!(t.as_ref().len(), arity, "tuple width mismatch"));
        let repr = match arity {
            1 | 2 => {
                let mut words: Vec<u64> = tuples.map(|t| pack64(t.as_ref())).collect();
                words.sort_unstable();
                words.dedup();
                Repr::W64(words)
            }
            3 | 4 => {
                let mut words: Vec<u128> = tuples.map(|t| pack128(t.as_ref())).collect();
                words.sort_unstable();
                words.dedup();
                Repr::W128(words)
            }
            _ => {
                let mut rows: Vec<Vec<u32>> = tuples.map(|t| t.as_ref().to_vec()).collect();
                rows.sort_unstable();
                rows.dedup();
                let len = rows.len();
                // Arity 0: "the empty tuple is present" collapses to
                // len ∈ {0, 1} with no arena data.
                let rows: Vec<u32> = rows.into_iter().flatten().collect();
                Repr::Wide { len, rows }
            }
        };
        TupleSet { arity, repr }
    }

    /// The tuple width.
    pub fn arity(&self) -> usize {
        self.arity
    }

    /// Number of tuples.
    pub fn len(&self) -> usize {
        match &self.repr {
            Repr::W64(words) => words.len(),
            Repr::W128(words) => words.len(),
            Repr::Wide { len, .. } => *len,
        }
    }

    /// Whether the set is empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Whether `tuple` is in the set.
    ///
    /// # Panics
    /// Panics (in debug builds) if the width differs from the set's
    /// arity.
    pub fn contains(&self, tuple: &[u32]) -> bool {
        debug_assert_eq!(tuple.len(), self.arity, "tuple width mismatch");
        match &self.repr {
            Repr::W64(words) => words.binary_search(&pack64(tuple)).is_ok(),
            Repr::W128(words) => words.binary_search(&pack128(tuple)).is_ok(),
            Repr::Wide { len, rows } => search_rows(rows, *len, tuple).is_ok(),
        }
    }

    /// Iterates the tuples in sorted order (unpacking into fresh
    /// `Vec`s — for tests and diagnostics, not hot paths).
    pub fn iter(&self) -> impl Iterator<Item = Vec<u32>> + '_ {
        let arity = self.arity;
        (0..self.len()).map(move |i| match &self.repr {
            Repr::W64(words) => (0..arity)
                .rev()
                .map(|shift| (words[i] >> (32 * shift)) as u32)
                .collect(),
            Repr::W128(words) => (0..arity)
                .rev()
                .map(|shift| (words[i] >> (32 * shift)) as u32)
                .collect(),
            Repr::Wide { rows, .. } => rows[i * arity..(i + 1) * arity].to_vec(),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;

    fn set(tuples: &[&[u32]]) -> TupleSet {
        TupleSet::from_tuples(
            tuples.first().map_or(0, |t| t.len()),
            tuples.iter().map(|t| t.to_vec()),
        )
    }

    #[test]
    fn membership_across_arities() {
        for arity in 1usize..=6 {
            let tuples: Vec<Vec<u32>> = (0..40u32)
                .map(|i| (0..arity as u32).map(|c| (i * 7 + c * 3) % 11).collect())
                .collect();
            let reference: HashSet<Vec<u32>> = tuples.iter().cloned().collect();
            let packed = TupleSet::from_tuples(arity, tuples);
            assert_eq!(packed.len(), reference.len(), "arity {arity}");
            // Probe the full cross-space of small values.
            let mut probe = vec![0u32; arity];
            loop {
                assert_eq!(
                    packed.contains(&probe),
                    reference.contains(&probe),
                    "arity {arity}, probe {probe:?}"
                );
                let mut i = 0;
                while i < arity {
                    probe[i] += 1;
                    if probe[i] < 12 {
                        break;
                    }
                    probe[i] = 0;
                    i += 1;
                }
                if i == arity {
                    break;
                }
            }
        }
    }

    #[test]
    fn full_32_bit_columns_pack_without_collision() {
        let big = u32::MAX;
        let s = set(&[&[big, 0], &[0, big], &[big, big]]);
        assert!(s.contains(&[big, 0]));
        assert!(s.contains(&[0, big]));
        assert!(s.contains(&[big, big]));
        assert!(!s.contains(&[big - 1, big]));
        let s4 = set(&[&[big, 0, big, 1]]);
        assert!(s4.contains(&[big, 0, big, 1]));
        assert!(!s4.contains(&[big, 0, big, 2]));
    }

    #[test]
    fn duplicates_collapse_and_iter_is_sorted() {
        let s = set(&[&[3, 1], &[0, 2], &[3, 1]]);
        assert_eq!(s.len(), 2);
        let tuples: Vec<Vec<u32>> = s.iter().collect();
        assert_eq!(tuples, vec![vec![0, 2], vec![3, 1]]);
        // Wide arity round-trips through iter too.
        let w = set(&[&[5, 4, 3, 2, 1], &[1, 2, 3, 4, 5]]);
        let rows: Vec<Vec<u32>> = w.iter().collect();
        assert_eq!(rows, vec![vec![1, 2, 3, 4, 5], vec![5, 4, 3, 2, 1]]);
    }

    #[test]
    fn nullary_sets() {
        let empty = TupleSet::from_tuples(0, Vec::<Vec<u32>>::new());
        assert!(empty.is_empty());
        assert!(!empty.contains(&[]));
        let unit = TupleSet::from_tuples(0, vec![Vec::new()]);
        assert_eq!(unit.len(), 1);
        assert!(unit.contains(&[]));
    }

    #[test]
    fn from_hash_set() {
        let mut h: HashSet<Vec<u32>> = HashSet::new();
        h.insert(vec![1, 2]);
        h.insert(vec![2, 1]);
        let s = TupleSet::from_tuples(2, h);
        assert_eq!(s.arity(), 2);
        assert!(s.contains(&[1, 2]) && s.contains(&[2, 1]));
        assert!(!s.contains(&[1, 1]));
    }
}
