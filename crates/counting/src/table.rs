//! Flat, packed-key dynamic-programming tables for the counting DPs.
//!
//! A [`FlatTable`] replaces the `BTreeMap<Vec<u32>, Natural>` node
//! tables of the tree-decomposition DP ([`crate::csp::TdCounter`]) with
//! two parallel columns:
//!
//! * a **key arena** — one row-major `Vec<u32>` holding every bag
//!   assignment back-to-back (`keys[i * arity .. (i + 1) * arity]` is
//!   key `i`), sorted lexicographically and unique;
//! * a **count column** — `Vec<Natural>`, aligned entry for entry.
//!
//! Compared to the tree map this eliminates the per-entry node
//! allocation, the per-key `Vec` allocation, and the pointer-chasing
//! traversal: a DP pass is a linear scan over one contiguous buffer.
//! The sorted order is the same canonical order the `BTreeMap` gave, so
//! the determinism guarantee of the threaded [`crate::csp::TdCounter::count`] —
//! shard boundaries are contiguous chunks of the sorted entries,
//! partial merges are order-insensitive exact sums — carries over
//! unchanged, and every count is bit-identical to the map-based DP.
//!
//! The three node passes of the nice-decomposition DP are methods here
//! ([`FlatTable::introduce`], [`FlatTable::forget`],
//! [`FlatTable::join`]), each taking a `threads` knob that shards the
//! source entries into contiguous sorted-order chunks across the
//! workspace pool (below [`PAR_NODE_THRESHOLD`] everything runs
//! inline).

use epq_bigint::Natural;
use epq_structures::structure::search_rows;

/// Nodes whose per-table work (source entries × introduce fan-out) is
/// below this run inline even under a `threads > 1` pass; a scoped
/// spawn costs more than rebuilding a small table.
pub const PAR_NODE_THRESHOLD: usize = 2048;

/// A sorted flat DP table: a packed key arena plus an aligned `Natural`
/// column. Keys are strictly increasing in lexicographic order.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct FlatTable {
    arity: usize,
    keys: Vec<u32>,
    counts: Vec<Natural>,
}

impl FlatTable {
    /// The empty table of the given key width.
    pub fn new(arity: usize) -> Self {
        FlatTable {
            arity,
            keys: Vec::new(),
            counts: Vec::new(),
        }
    }

    /// The leaf table: one empty key with count 1.
    pub fn unit() -> Self {
        FlatTable {
            arity: 0,
            keys: Vec::new(),
            counts: vec![Natural::one()],
        }
    }

    /// Builds a table from arbitrary entries, sorting by key and
    /// summing the counts of duplicate keys.
    ///
    /// # Panics
    /// Panics if an entry's key width differs from `arity`.
    pub fn from_entries(arity: usize, entries: Vec<(Vec<u32>, Natural)>) -> Self {
        let mut builder = Builder::new(arity, entries.len());
        for (key, count) in entries {
            assert_eq!(key.len(), arity, "key width mismatch");
            builder.push(&key, count);
        }
        builder.finish(true)
    }

    /// Key width.
    pub fn arity(&self) -> usize {
        self.arity
    }

    /// Number of entries.
    pub fn len(&self) -> usize {
        self.counts.len()
    }

    /// Whether the table has no entries.
    pub fn is_empty(&self) -> bool {
        self.counts.is_empty()
    }

    /// Key `i` as a slice into the arena.
    pub fn key(&self, i: usize) -> &[u32] {
        &self.keys[i * self.arity..(i + 1) * self.arity]
    }

    /// Count `i`.
    pub fn count(&self, i: usize) -> &Natural {
        &self.counts[i]
    }

    /// Looks up a key by binary search.
    pub fn get(&self, key: &[u32]) -> Option<&Natural> {
        debug_assert_eq!(key.len(), self.arity);
        self.position(key).map(|i| &self.counts[i])
    }

    fn position(&self, key: &[u32]) -> Option<usize> {
        search_rows(&self.keys, self.len(), key).ok()
    }

    /// Iterates `(key, count)` entries in sorted key order.
    pub fn iter(&self) -> impl Iterator<Item = (&[u32], &Natural)> {
        (0..self.len()).map(|i| (self.key(i), self.count(i)))
    }

    /// Consumes an arity-0 table into its single count (the DP root
    /// extraction), or zero if empty.
    pub fn root_count(mut self) -> Natural {
        debug_assert_eq!(self.arity, 0);
        self.counts.pop().unwrap_or_else(Natural::zero)
    }

    /// The **introduce** pass: every key grows a new component at
    /// position `slot`, ranging over `candidates`; extended keys
    /// failing `keep` are dropped, surviving ones inherit the source
    /// count. `(key, candidate) ↦ extended key` is injective, so no
    /// counts merge. Sharded across up to `threads` workers by
    /// contiguous chunks of the sorted source entries; chunk partials
    /// are disjoint and merge by a sorted union, so the result is
    /// identical at every thread count.
    pub fn introduce<F>(
        &self,
        slot: usize,
        candidates: &[u32],
        keep: F,
        threads: usize,
    ) -> FlatTable
    where
        F: Fn(&[u32]) -> bool + Sync,
    {
        assert!(slot <= self.arity, "introduce slot out of range");
        debug_assert!(
            {
                let mut sorted = candidates.to_vec();
                sorted.sort_unstable();
                sorted.dedup();
                sorted.len() == candidates.len()
            },
            "introduce candidates must be distinct"
        );
        let out_arity = self.arity + 1;
        let build = |range: std::ops::Range<usize>| -> FlatTable {
            // Reserve for the pre-filter cross product only up to a cap:
            // `keep` may prune almost everything, and a huge domain ×
            // large child table must not commit memory for entries that
            // will never survive. Past the cap the push path grows
            // amortized, like any Vec.
            const RESERVE_CAP: usize = 1 << 20;
            let hint = range
                .len()
                .saturating_mul(candidates.len())
                .min(RESERVE_CAP);
            let mut builder = Builder::new(out_arity, hint);
            let mut scratch = vec![0u32; out_arity];
            for i in range {
                let key = self.key(i);
                scratch[..slot].copy_from_slice(&key[..slot]);
                scratch[slot + 1..].copy_from_slice(&key[slot..]);
                for &x in candidates {
                    scratch[slot] = x;
                    if keep(&scratch) {
                        builder.push(&scratch, self.counts[i].clone());
                    }
                }
            }
            // Appending the new component *last*, with ascending
            // candidates, keeps the generated order sorted; any earlier
            // slot needs the permutation sort.
            builder.set_sorted(slot == self.arity && strictly_ascending(candidates));
            builder.finish(false)
        };
        self.sharded(candidates.len().max(1), threads, &build, merge_disjoint)
    }

    /// The **forget** pass: position `slot` is summed out — keys that
    /// collapse to the same residual key merge by exact `Natural`
    /// addition. Sharded like [`FlatTable::introduce`]; distinct chunks
    /// may produce the same residual key, so partials merge by a
    /// summing union (order-insensitive — addition is exact).
    pub fn forget(&self, slot: usize, threads: usize) -> FlatTable {
        assert!(slot < self.arity, "forget slot out of range");
        let out_arity = self.arity - 1;
        let build = |range: std::ops::Range<usize>| -> FlatTable {
            let mut builder = Builder::new(out_arity, range.len());
            let mut scratch = vec![0u32; out_arity];
            for i in range {
                let key = self.key(i);
                scratch[..slot].copy_from_slice(&key[..slot]);
                scratch[slot..].copy_from_slice(&key[slot + 1..]);
                builder.push(&scratch, self.counts[i].clone());
            }
            // Dropping the *last* component keeps the generated order
            // sorted (with duplicates adjacent); any earlier slot needs
            // the permutation sort before merging.
            builder.set_sorted(slot == out_arity);
            builder.finish(true)
        };
        self.sharded(1, threads, &build, merge_summing)
    }

    /// The **join** pass: intersects two tables of the same arity,
    /// multiplying the counts of matching keys. Both sides are sorted,
    /// so this is a merge join — the smaller side streams, the larger
    /// side advances a cursor. Sharding splits the smaller side into
    /// contiguous sorted chunks; each chunk's output keys are a subset
    /// of the chunk's keys, so partials are disjoint, ordered, and
    /// concatenate via the same sorted union.
    pub fn join(&self, other: &FlatTable, threads: usize) -> FlatTable {
        assert_eq!(self.arity, other.arity, "join arity mismatch");
        let (small, large) = if self.len() <= other.len() {
            (self, other)
        } else {
            (other, self)
        };
        let build = |range: std::ops::Range<usize>| -> FlatTable {
            let mut builder = Builder::new(small.arity, range.len());
            // The cursor into `large` only moves forward: both key
            // sequences are strictly increasing.
            let mut j = match range.start {
                0 => 0,
                _ => large.lower_bound(small.key(range.start)),
            };
            for i in range {
                let key = small.key(i);
                while j < large.len() && large.key(j) < key {
                    j += 1;
                }
                if j >= large.len() {
                    break;
                }
                if large.key(j) == key {
                    builder.push(key, &small.counts[i] * &large.counts[j]);
                }
            }
            builder.set_sorted(true);
            builder.finish(false)
        };
        small.sharded(1, threads, &build, merge_disjoint)
    }

    /// First index whose key is `>= key` (keys are unique, so a hit is
    /// that index).
    fn lower_bound(&self, key: &[u32]) -> usize {
        search_rows(&self.keys, self.len(), key).unwrap_or_else(|i| i)
    }

    /// Runs `build` over the whole entry range inline, or — when
    /// `threads > 1` and `len × weight` crosses [`PAR_NODE_THRESHOLD`]
    /// — over contiguous sorted-order chunks on the pool, folding the
    /// partial tables with `merge` in chunk order.
    fn sharded<B>(
        &self,
        weight: usize,
        threads: usize,
        build: &B,
        merge: fn(FlatTable, FlatTable) -> FlatTable,
    ) -> FlatTable
    where
        B: Fn(std::ops::Range<usize>) -> FlatTable + Sync,
    {
        if threads <= 1 || self.len().saturating_mul(weight) < PAR_NODE_THRESHOLD {
            return build(0..self.len());
        }
        let jobs: Vec<_> = epq_pool::split_ranges(self.len() as u128, threads.saturating_mul(2))
            .into_iter()
            .map(|(start, end)| move || build(start as usize..end as usize))
            .collect();
        let mut partials = epq_pool::run_jobs(threads, jobs).into_iter();
        // A nonempty source (len ≥ threshold here) always yields at
        // least one shard.
        let first = partials.next().expect("sharded pass over empty table");
        partials.fold(first, merge)
    }
}

/// Accumulates `(key, count)` pushes into a flat table, then sorts (by
/// key permutation) unless the producer recorded the pushes as already
/// sorted, and optionally merges equal adjacent keys by summing.
struct Builder {
    arity: usize,
    keys: Vec<u32>,
    counts: Vec<Natural>,
    sorted: bool,
}

impl Builder {
    fn new(arity: usize, capacity_hint: usize) -> Self {
        Builder {
            arity,
            keys: Vec::with_capacity(capacity_hint.saturating_mul(arity)),
            counts: Vec::with_capacity(capacity_hint),
            sorted: false,
        }
    }

    fn push(&mut self, key: &[u32], count: Natural) {
        debug_assert_eq!(key.len(), self.arity);
        self.keys.extend_from_slice(key);
        self.counts.push(count);
    }

    /// Marks whether pushes arrived in (non-strictly) sorted key order,
    /// skipping the permutation sort in [`Builder::finish`].
    fn set_sorted(&mut self, sorted: bool) {
        self.sorted = sorted;
    }

    /// Finalizes into a [`FlatTable`]. With `merge_equal`, runs of
    /// equal keys collapse into one entry by exact summation; without
    /// it the keys are asserted unique (debug builds).
    fn finish(self, merge_equal: bool) -> FlatTable {
        let Builder {
            arity,
            keys,
            counts,
            sorted,
        } = self;
        let n = counts.len();
        if arity == 0 {
            // All keys are the empty tuple.
            let mut total = Natural::zero();
            let mut counts = counts;
            if !merge_equal {
                debug_assert!(n <= 1, "duplicate keys in a non-merging pass");
            }
            match n {
                0 => FlatTable::new(0),
                1 => FlatTable {
                    arity: 0,
                    keys,
                    counts,
                },
                _ => {
                    for c in counts.drain(..) {
                        total += &c;
                    }
                    FlatTable {
                        arity: 0,
                        keys,
                        counts: vec![total],
                    }
                }
            }
        } else if sorted && !merge_equal {
            debug_assert!(
                keys.chunks_exact(arity)
                    .zip(keys.chunks_exact(arity).skip(1))
                    .all(|(a, b)| a < b),
                "pushes marked sorted must be strictly increasing"
            );
            FlatTable {
                arity,
                keys,
                counts,
            }
        } else {
            let key = |i: usize| &keys[i * arity..(i + 1) * arity];
            let order: Vec<u32> = if sorted {
                (0..n as u32).collect()
            } else {
                let mut perm: Vec<u32> = (0..n as u32).collect();
                perm.sort_unstable_by(|&a, &b| key(a as usize).cmp(key(b as usize)));
                perm
            };
            let mut out_keys = Vec::with_capacity(keys.len());
            let mut out_counts: Vec<Natural> = Vec::with_capacity(n);
            let mut moved: Vec<Option<Natural>> = counts.into_iter().map(Some).collect();
            for &i in &order {
                let k = key(i as usize);
                let count = moved[i as usize].take().expect("count moved twice");
                let prev_start = out_keys.len().wrapping_sub(arity);
                if merge_equal && !out_counts.is_empty() && out_keys[prev_start..] == *k {
                    *out_counts.last_mut().expect("nonempty") += &count;
                } else {
                    debug_assert!(
                        out_counts.is_empty() || out_keys[prev_start..] != *k,
                        "duplicate keys in a non-merging pass"
                    );
                    out_keys.extend_from_slice(k);
                    out_counts.push(count);
                }
            }
            FlatTable {
                arity,
                keys: out_keys,
                counts: out_counts,
            }
        }
    }
}

/// Sorted union of two tables with disjoint key sets (introduce/join
/// partials). Equal keys would indicate a sharding bug; debug builds
/// assert against them.
fn merge_disjoint(a: FlatTable, b: FlatTable) -> FlatTable {
    merge(a, b, false)
}

/// Sorted union of two tables, summing the counts of keys present in
/// both (forget partials).
fn merge_summing(a: FlatTable, b: FlatTable) -> FlatTable {
    merge(a, b, true)
}

fn merge(a: FlatTable, b: FlatTable, sum_equal: bool) -> FlatTable {
    debug_assert_eq!(a.arity, b.arity);
    if a.is_empty() {
        return b;
    }
    if b.is_empty() {
        return a;
    }
    let arity = a.arity;
    if arity == 0 {
        debug_assert!(sum_equal, "nullary disjoint merge with two nonempty sides");
        let mut total = Natural::zero();
        for c in a.counts.iter().chain(b.counts.iter()) {
            total += c;
        }
        return FlatTable {
            arity: 0,
            keys: Vec::new(),
            counts: vec![total],
        };
    }
    // Fast path: the partials come from contiguous sorted chunks, so
    // they usually concatenate without interleaving.
    if a.key(a.len() - 1) < b.key(0) {
        let mut keys = a.keys;
        keys.extend_from_slice(&b.keys);
        let mut counts = a.counts;
        counts.extend(b.counts);
        return FlatTable {
            arity,
            keys,
            counts,
        };
    }
    let (a_len, b_len) = (a.len(), b.len());
    let FlatTable {
        keys: a_keys,
        counts: a_counts,
        ..
    } = a;
    let FlatTable {
        keys: b_keys,
        counts: b_counts,
        ..
    } = b;
    let key_a = |i: usize| &a_keys[i * arity..(i + 1) * arity];
    let key_b = |j: usize| &b_keys[j * arity..(j + 1) * arity];
    let mut out = Builder::new(arity, a_len + b_len);
    out.set_sorted(true);
    let mut a_counts: Vec<Option<Natural>> = a_counts.into_iter().map(Some).collect();
    let mut b_counts: Vec<Option<Natural>> = b_counts.into_iter().map(Some).collect();
    let (mut i, mut j) = (0usize, 0usize);
    while i < a_len && j < b_len {
        let (ka, kb) = (key_a(i), key_b(j));
        match ka.cmp(kb) {
            std::cmp::Ordering::Less => {
                out.push(ka, a_counts[i].take().expect("moved"));
                i += 1;
            }
            std::cmp::Ordering::Greater => {
                out.push(kb, b_counts[j].take().expect("moved"));
                j += 1;
            }
            std::cmp::Ordering::Equal => {
                debug_assert!(sum_equal, "equal keys across disjoint partials");
                let mut c = a_counts[i].take().expect("moved");
                c += &b_counts[j].take().expect("moved");
                out.push(ka, c);
                i += 1;
                j += 1;
            }
        }
    }
    while i < a_len {
        out.push(key_a(i), a_counts[i].take().expect("moved"));
        i += 1;
    }
    while j < b_len {
        out.push(key_b(j), b_counts[j].take().expect("moved"));
        j += 1;
    }
    out.finish(false)
}

/// Whether `values` is strictly ascending (the introduce fast path's
/// sortedness precondition).
fn strictly_ascending(values: &[u32]) -> bool {
    values.windows(2).all(|w| w[0] < w[1])
}

#[cfg(test)]
mod tests {
    use super::*;

    fn nat(x: u64) -> Natural {
        Natural::from(x)
    }

    fn table(arity: usize, entries: &[(&[u32], u64)]) -> FlatTable {
        FlatTable::from_entries(
            arity,
            entries.iter().map(|(k, c)| (k.to_vec(), nat(*c))).collect(),
        )
    }

    fn entries(t: &FlatTable) -> Vec<(Vec<u32>, u64)> {
        t.iter()
            .map(|(k, c)| (k.to_vec(), c.to_u64().unwrap()))
            .collect()
    }

    #[test]
    fn from_entries_sorts_and_sums() {
        let t = table(2, &[(&[1, 2], 3), (&[0, 9], 1), (&[1, 2], 4)]);
        assert_eq!(entries(&t), vec![(vec![0, 9], 1), (vec![1, 2], 7)]);
        assert_eq!(t.get(&[1, 2]).unwrap().to_u64(), Some(7));
        assert!(t.get(&[2, 2]).is_none());
    }

    #[test]
    fn unit_and_root() {
        assert_eq!(FlatTable::unit().root_count().to_u64(), Some(1));
        assert_eq!(FlatTable::new(0).root_count().to_u64(), Some(0));
    }

    #[test]
    fn introduce_at_each_slot() {
        let t = table(2, &[(&[0, 5], 2), (&[3, 1], 1)]);
        for slot in 0..=2usize {
            let got = t.introduce(slot, &[7, 8], |_| true, 1);
            let mut expected: Vec<(Vec<u32>, u64)> = Vec::new();
            for (k, c) in entries(&t) {
                for x in [7u32, 8] {
                    let mut key = k.clone();
                    key.insert(slot, x);
                    expected.push((key, c));
                }
            }
            expected.sort();
            assert_eq!(entries(&got), expected, "slot {slot}");
        }
    }

    #[test]
    fn introduce_filters() {
        let t = table(1, &[(&[0], 1), (&[1], 1)]);
        let got = t.introduce(1, &[0, 1, 2], |key| key[0] != key[1], 1);
        assert_eq!(
            entries(&got),
            vec![
                (vec![0, 1], 1),
                (vec![0, 2], 1),
                (vec![1, 0], 1),
                (vec![1, 2], 1)
            ]
        );
    }

    #[test]
    fn forget_sums_collapsing_keys() {
        let t = table(2, &[(&[0, 5], 2), (&[1, 5], 3), (&[1, 6], 4)]);
        assert_eq!(entries(&t.forget(0, 1)), vec![(vec![5], 5), (vec![6], 4)]);
        assert_eq!(entries(&t.forget(1, 1)), vec![(vec![0], 2), (vec![1], 7)]);
    }

    #[test]
    fn forget_to_nullary() {
        let t = table(1, &[(&[0], 2), (&[4], 5)]);
        assert_eq!(t.forget(0, 1).root_count().to_u64(), Some(7));
    }

    #[test]
    fn join_multiplies_matches() {
        let a = table(1, &[(&[0], 2), (&[1], 3), (&[5], 1)]);
        let b = table(1, &[(&[1], 10), (&[5], 7), (&[9], 2)]);
        let j = a.join(&b, 1);
        assert_eq!(entries(&j), vec![(vec![1], 30), (vec![5], 7)]);
        assert_eq!(j, b.join(&a, 1));
    }

    #[test]
    fn passes_are_thread_count_invariant() {
        // Big enough to cross PAR_NODE_THRESHOLD.
        let t = FlatTable::from_entries(
            2,
            (0..4000u32)
                .map(|i| (vec![i % 71, i / 7], nat(u64::from(i % 13) + 1)))
                .collect(),
        );
        for threads in [2usize, 3, 8] {
            assert_eq!(
                t.introduce(1, &[0, 1, 2], |k| (k[0] + k[1] + k[2]) % 3 != 0, threads),
                t.introduce(1, &[0, 1, 2], |k| (k[0] + k[1] + k[2]) % 3 != 0, 1),
                "introduce at {threads}"
            );
            assert_eq!(t.forget(0, threads), t.forget(0, 1), "forget at {threads}");
            let other = FlatTable::from_entries(
                2,
                (0..3000u32)
                    .map(|i| (vec![i % 53, i / 5], nat(2)))
                    .collect(),
            );
            assert_eq!(
                t.join(&other, threads),
                t.join(&other, 1),
                "join at {threads}"
            );
        }
    }
}
