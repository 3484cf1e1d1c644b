//! In-memory relations with variable schemas and set semantics, stored
//! in a flat row-major arena.
//!
//! # Data layout
//!
//! A [`Relation`] is one contiguous `Vec<u32>` holding every row
//! back-to-back (`data[i * arity .. (i + 1) * arity]` is row `i`), plus
//! an explicit row count so nullary relations can still distinguish
//! "one empty row" (the join identity) from "no rows". Compared to the
//! obvious `Vec<Vec<u32>>`, this layout:
//!
//! * costs **one allocation per relation** instead of one per row;
//! * iterates rows as `&[u32]` slices with perfect cache locality;
//! * lets the hash join key on **packed integers** (`u64` for up to two
//!   shared columns, `u128` for up to four) instead of allocating a key
//!   `Vec` per build/probe row.
//!
//! The canonical form — rows sorted lexicographically and deduplicated —
//! is unchanged from the nested-`Vec` layout, so every operation here is
//! bit-identical in output to its predecessor, and the parallel join's
//! determinism argument (shard boundaries depend only on row indices;
//! all partials funnel through the same sort+dedup normalization) is
//! untouched.
//!
//! # Multiplicities
//!
//! A relation is a *set* unless it carries a multiplicity column; then it
//! is a *bag* ([`Relation::counted`]). A join multiplies multiplicities
//! (a set's rows count once) and a projection sums them, so variable
//! elimination over bags counts solutions where over sets it decides
//! them. The column holds `u128` counts while they fit; a step whose
//! checked sum or product overflows is redone exactly in [`Natural`].
//! Sets store no column, and their operations never look at one.

use epq_bigint::Natural;
use std::collections::{HashMap, HashSet};
use std::fmt;

/// Minimum probe-side rows per shard of a parallel join:
/// [`Relation::join`] caps its shard count so every shard keeps at
/// least this many rows, and runs the sequential path when fewer than
/// two such shards fit.
const PAR_JOIN_MIN_PROBE_ROWS: usize = 256;

/// A materialized relation: a schema of column identifiers (pp-formula
/// element indices) and a deduplicated, sorted set of rows in a flat
/// row-major arena, with a multiplicity per row when it is a bag.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct Relation {
    schema: Vec<u32>,
    /// Number of rows (explicit: nullary relations have no data).
    len: usize,
    /// Row-major arena, `len * schema.len()` values.
    data: Vec<u32>,
    counts: Counts,
}

/// A relation's multiplicity column, aligned with its rows.
#[derive(Clone, PartialEq, Eq, Debug)]
enum Counts {
    /// A set: every row counts once, and no column is stored.
    Ones,
    /// A bag whose counts all fit in a `u128`.
    Small(Vec<u128>),
    /// A bag after some step overflowed `u128`.
    Big(Vec<Natural>),
}

impl Counts {
    /// Row `i`'s count, unless the column is past `u128`.
    fn small(&self, i: usize) -> Option<u128> {
        match self {
            Counts::Ones => Some(1),
            Counts::Small(c) => Some(c[i]),
            Counts::Big(_) => None,
        }
    }

    /// Row `i`'s count.
    fn big(&self, i: usize) -> Natural {
        match self {
            Counts::Ones => Natural::one(),
            Counts::Small(c) => Natural::from(c[i]),
            Counts::Big(c) => c[i].clone(),
        }
    }

    /// The count of each `(i, j)` pair: row `i`'s count here times row
    /// `j`'s count in `other`.
    fn products(&self, other: &Counts, pairs: &[(u32, u32)]) -> Counts {
        let small = pairs
            .iter()
            .map(|&(i, j)| {
                self.small(i as usize)?
                    .checked_mul(other.small(j as usize)?)
            })
            .collect();
        match small {
            Some(column) => Counts::Small(column),
            None => Counts::Big(
                pairs
                    .iter()
                    .map(|&(i, j)| &self.big(i as usize) * &other.big(j as usize))
                    .collect(),
            ),
        }
    }

    /// The sum of the counts of each run `order[runs[k]..runs[k + 1]]`
    /// (the last run ends at `order.len()`).
    fn run_sums(&self, order: &[u32], runs: &[usize]) -> Counts {
        let ends = runs.iter().skip(1).copied().chain([order.len()]);
        let spans = || runs.iter().zip(ends.clone()).map(|(&a, b)| &order[a..b]);
        let small = spans()
            .map(|run| {
                run.iter()
                    .try_fold(0u128, |acc, &i| acc.checked_add(self.small(i as usize)?))
            })
            .collect();
        match small {
            Some(column) => Counts::Small(column),
            None => Counts::Big(
                spans()
                    .map(|run| {
                        run.iter()
                            .fold(Natural::zero(), |acc, &i| acc + self.big(i as usize))
                    })
                    .collect(),
            ),
        }
    }
}

impl Relation {
    /// Builds a relation from materialized rows, deduplicating and
    /// sorting. Prefer [`Relation::from_flat`] on hot paths — it takes
    /// the rows as one flat buffer and never allocates per row.
    ///
    /// # Panics
    /// Panics if the schema has duplicate columns or a row has the wrong
    /// width.
    pub fn new(schema: Vec<u32>, rows: Vec<Vec<u32>>) -> Self {
        for row in &rows {
            assert_eq!(row.len(), schema.len(), "row width mismatch");
        }
        if schema.is_empty() {
            assert_distinct(&schema);
            return Relation {
                schema,
                len: usize::from(!rows.is_empty()),
                data: Vec::new(),
                counts: Counts::Ones,
            };
        }
        let mut data = Vec::with_capacity(rows.len() * schema.len());
        for row in &rows {
            data.extend_from_slice(row);
        }
        Relation::from_flat(schema, data)
    }

    /// Builds a relation from a flat row-major buffer, sorting and
    /// deduplicating rows in place. The preferred constructor on hot
    /// paths: one buffer in, one relation out, no per-row allocation.
    ///
    /// # Panics
    /// Panics if the schema is empty (use [`Relation::unit`] /
    /// [`Relation::empty`] for nullary relations), has duplicate
    /// columns, or `data.len()` is not a multiple of the arity.
    pub fn from_flat(schema: Vec<u32>, data: Vec<u32>) -> Self {
        assert!(
            !schema.is_empty(),
            "nullary relations have no flat buffer; use unit()/empty()"
        );
        assert_distinct(&schema);
        let arity = schema.len();
        assert_eq!(data.len() % arity, 0, "flat buffer width mismatch");
        let (len, data) = sort_dedup_flat(arity, data);
        Relation {
            schema,
            len,
            data,
            counts: Counts::Ones,
        }
    }

    /// Builds a bag from a flat row-major buffer and one count per row,
    /// sorting the rows and summing the counts of equal ones.
    fn from_counted_flat(schema: Vec<u32>, data: Vec<u32>, counts: Counts) -> Self {
        assert_distinct(&schema);
        let n = match &counts {
            Counts::Ones => unreachable!("a bag has a count column"),
            Counts::Small(c) => c.len(),
            Counts::Big(c) => c.len(),
        };
        let arity = schema.len();
        let row = |i: u32| &data[i as usize * arity..(i as usize + 1) * arity];
        let (order, runs) = sorted_runs(arity, &data, n);
        let mut sorted = Vec::with_capacity(runs.len() * arity);
        for &k in &runs {
            sorted.extend_from_slice(row(order[k]));
        }
        Relation {
            schema,
            len: runs.len(),
            data: sorted,
            counts: counts.run_sums(&order, &runs),
        }
    }

    /// Builds a relation from a flat buffer whose rows are already
    /// sorted and deduplicated — operations that preserve the canonical
    /// order (selection, sorted extension, merges) use this to skip the
    /// re-sort. Checked in debug builds.
    fn from_sorted_flat(schema: Vec<u32>, len: usize, data: Vec<u32>) -> Self {
        debug_assert_eq!(data.len(), len * schema.len());
        debug_assert!(
            schema.is_empty()
                || data
                    .chunks_exact(schema.len())
                    .zip(data.chunks_exact(schema.len()).skip(1))
                    .all(|(a, b)| a < b),
            "rows must arrive sorted and deduplicated"
        );
        debug_assert!(!schema.is_empty() || len <= 1);
        Relation {
            schema,
            len,
            data,
            counts: Counts::Ones,
        }
    }

    /// The nullary relation with a single empty row (the join identity).
    pub fn unit() -> Self {
        Relation {
            schema: Vec::new(),
            len: 1,
            data: Vec::new(),
            counts: Counts::Ones,
        }
    }

    /// The nullary empty relation (the join annihilator).
    pub fn empty() -> Self {
        Relation {
            schema: Vec::new(),
            len: 0,
            data: Vec::new(),
            counts: Counts::Ones,
        }
    }

    /// The same rows as a bag in which each row counts once. Joins with
    /// a bag multiply multiplicities and projections of one sum them
    /// (see the module docs). A bag is returned as it is.
    pub fn counted(self) -> Relation {
        let counts = match self.counts {
            Counts::Ones => Counts::Small(vec![1; self.len]),
            counts => counts,
        };
        Relation { counts, ..self }
    }

    /// Whether this is a bag (see [`Relation::counted`]).
    pub(crate) fn is_bag(&self) -> bool {
        self.counts != Counts::Ones
    }

    /// The multiplicity of row `i`: 1 in a set.
    ///
    /// # Panics
    /// Panics if `i >= len()`.
    pub fn multiplicity(&self, i: usize) -> Natural {
        assert!(i < self.len, "row index out of range");
        self.counts.big(i)
    }

    /// The sum of the multiplicities: the row count of a set.
    pub fn total(&self) -> Natural {
        match &self.counts {
            Counts::Ones => Natural::from(self.len),
            counts => (0..self.len).fold(Natural::zero(), |acc, i| acc + counts.big(i)),
        }
    }

    /// Column identifiers.
    pub fn schema(&self) -> &[u32] {
        &self.schema
    }

    /// Number of columns.
    pub fn arity(&self) -> usize {
        self.schema.len()
    }

    /// Number of rows.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether there are no rows.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Row `i` as a slice into the arena.
    ///
    /// # Panics
    /// Panics if `i >= len()`.
    pub fn row(&self, i: usize) -> &[u32] {
        assert!(i < self.len, "row index out of range");
        let arity = self.schema.len();
        &self.data[i * arity..(i + 1) * arity]
    }

    /// Iterates the rows (sorted, deduplicated) as `&[u32]` slices.
    pub fn rows(&self) -> Rows<'_> {
        Rows {
            relation: self,
            next: 0,
        }
    }

    /// The same rows under a renamed schema (identical arity and column
    /// order — only the identifiers change). Consumes the relation and
    /// reuses its sorted arena: no copy, no re-sort.
    ///
    /// # Panics
    /// Panics if the new schema's width differs or has duplicates.
    pub fn renamed(self, schema: Vec<u32>) -> Relation {
        assert_eq!(schema.len(), self.schema.len(), "renamed width mismatch");
        assert_distinct(&schema);
        Relation { schema, ..self }
    }

    /// Natural join on shared columns (hash join; the smaller side
    /// builds), with the probe (outer) side partitioned into contiguous
    /// row-range shards across up to `threads` pool workers (`1` runs
    /// inline). When either side is a bag, so is the result, and each
    /// row's multiplicity is the product of its two sources'.
    ///
    /// Shard boundaries depend only on row indices, and every partial
    /// result set funnels through the same sort+dedup normalization, so
    /// the output is **bit-identical** at every thread count.
    pub fn join(&self, other: &Relation, threads: usize) -> Relation {
        self.join_dropping(other, None, threads).0
    }

    /// [`Relation::join`] with column `drop` (when given) projected away
    /// in the same pass: the full-width join is never materialized, and
    /// one sort+dedup (for bags, sort+sum) normalizes the result. Also
    /// returns the row count of the full join.
    pub(crate) fn join_dropping(
        &self,
        other: &Relation,
        drop: Option<u32>,
        threads: usize,
    ) -> (Relation, usize) {
        let (build, probe) = if self.len() <= other.len() {
            (self, other)
        } else {
            (other, self)
        };
        // Position maps, computed once: probe column -> probe position,
        // then one pass over the build schema finds the shared columns
        // and one pass over the probe schema finds the extras (the seed
        // layout re-scanned both schemas per column).
        let probe_pos: HashMap<u32, usize> = probe
            .schema
            .iter()
            .enumerate()
            .map(|(i, &c)| (c, i))
            .collect();
        let mut build_key: Vec<usize> = Vec::new();
        let mut probe_key: Vec<usize> = Vec::new();
        for (i, &c) in build.schema.iter().enumerate() {
            if let Some(&j) = probe_pos.get(&c) {
                build_key.push(i);
                probe_key.push(j);
            }
        }
        let shared: HashSet<u32> = build_key.iter().map(|&i| build.schema[i]).collect();
        let kept = |schema: &[u32], i: &usize| Some(schema[*i]) != drop;
        let build_out: Vec<usize> = (0..build.schema.len())
            .filter(|i| kept(&build.schema, i))
            .collect();
        let probe_extra: Vec<usize> = (0..probe.schema.len())
            .filter(|&i| !shared.contains(&probe.schema[i]) && kept(&probe.schema, &i))
            .collect();
        // Output schema: build's kept columns then probe's non-shared ones.
        let mut schema: Vec<u32> = build_out.iter().map(|&i| build.schema[i]).collect();
        schema.extend(probe_extra.iter().map(|&i| probe.schema[i]));
        let b = (build, &build_key[..], &build_out[..]);
        let p = (probe, &probe_key[..], &probe_extra[..]);

        if self.is_bag() || other.is_bag() {
            // Each output row remembers its (build, probe) sources, so
            // the pair count is the full join's row count even at width 0.
            let (data, pairs) = join_rows::<true>(b, p, threads);
            let counts = build.counts.products(&probe.counts, &pairs);
            return (
                Relation::from_counted_flat(schema, data, counts),
                pairs.len(),
            );
        }
        if schema.is_empty() {
            // A flat buffer cannot count rows of width 0: join in full
            // (nullary ⋈ nullary is unit only when both sides are).
            let rows = match drop {
                Some(_) => self.join(other, threads).len(),
                None => build.len.min(probe.len),
            };
            let joined = if rows > 0 {
                Relation::unit()
            } else {
                Relation::empty()
            };
            return (joined, rows);
        }

        let (data, _) = join_rows::<false>(b, p, threads);
        let rows = data.len() / schema.len();
        (Relation::from_flat(schema, data), rows)
    }

    /// Projection onto `columns` (with deduplication; a bag sums the
    /// multiplicities of the rows that collapse).
    ///
    /// # Panics
    /// Panics if a requested column is absent.
    pub fn project(&self, columns: &[u32]) -> Relation {
        if columns == self.schema {
            return self.clone();
        }
        let positions: Vec<usize> = columns
            .iter()
            .map(|c| {
                self.schema
                    .iter()
                    .position(|x| x == c)
                    .unwrap_or_else(|| panic!("column {c} not in schema"))
            })
            .collect();
        if columns.is_empty() && !self.is_bag() {
            return if self.len > 0 {
                Relation::unit()
            } else {
                Relation::empty()
            };
        }
        let mut data = Vec::with_capacity(self.len * columns.len());
        for row in self.rows() {
            data.extend(positions.iter().map(|&i| row[i]));
        }
        if self.is_bag() {
            Relation::from_counted_flat(columns.to_vec(), data, self.counts.clone())
        } else {
            Relation::from_flat(columns.to_vec(), data)
        }
    }

    /// Set union. Schemas must contain the same columns; `other` is
    /// reordered to match. Both sides are already sorted and
    /// deduplicated, so this is a single merge pass — no re-sort.
    ///
    /// # Panics
    /// Panics if a column of `self` is absent from `other`, or if either
    /// side is a bag.
    pub fn union(&self, other: &Relation) -> Relation {
        assert!(!self.is_bag() && !other.is_bag(), "union of a bag");
        let reordered;
        let other = if other.schema == self.schema {
            other
        } else {
            reordered = other.project(&self.schema);
            &reordered
        };
        if self.schema.is_empty() {
            return if self.len > 0 || other.len > 0 {
                Relation::unit()
            } else {
                Relation::empty()
            };
        }
        let arity = self.schema.len();
        let mut data = Vec::with_capacity(self.data.len() + other.data.len());
        let mut len = 0usize;
        let (mut i, mut j) = (0usize, 0usize);
        while i < self.len && j < other.len {
            let a = self.row(i);
            let b = other.row(j);
            match a.cmp(b) {
                std::cmp::Ordering::Less => {
                    data.extend_from_slice(a);
                    i += 1;
                }
                std::cmp::Ordering::Greater => {
                    data.extend_from_slice(b);
                    j += 1;
                }
                std::cmp::Ordering::Equal => {
                    data.extend_from_slice(a);
                    i += 1;
                    j += 1;
                }
            }
            len += 1;
        }
        if i < self.len {
            data.extend_from_slice(&self.data[i * arity..]);
            len += self.len - i;
        }
        if j < other.len {
            data.extend_from_slice(&other.data[j * arity..]);
            len += other.len - j;
        }
        Relation::from_sorted_flat(self.schema.clone(), len, data)
    }

    /// Cross product with a fresh column ranging over `0..domain`.
    /// Appending a trailing column with ascending values preserves the
    /// sorted order, so no re-sort happens.
    ///
    /// # Panics
    /// Panics if `column` is already in the schema, or on a bag.
    pub fn extend_with_domain(&self, column: u32, domain: usize) -> Relation {
        assert!(!self.is_bag(), "domain extension of a bag");
        assert!(
            !self.schema.contains(&column),
            "column {column} already present"
        );
        let mut schema = self.schema.clone();
        schema.push(column);
        let mut data = Vec::with_capacity(self.len * domain * schema.len());
        for row in self.rows() {
            for x in 0..domain as u32 {
                data.extend_from_slice(row);
                data.push(x);
            }
        }
        Relation::from_sorted_flat(schema, self.len * domain, data)
    }

    /// Selection: keep rows where the given columns are equal. Filtering
    /// preserves the canonical order, so no re-sort happens.
    ///
    /// # Panics
    /// Panics if a column is absent, or on a bag.
    pub fn select_eq(&self, a: u32, b: u32) -> Relation {
        assert!(!self.is_bag(), "selection on a bag");
        let pa = self.schema.iter().position(|&x| x == a).expect("column a");
        let pb = self.schema.iter().position(|&x| x == b).expect("column b");
        let mut data = Vec::new();
        let mut len = 0usize;
        for row in self.rows() {
            if row[pa] == row[pb] {
                data.extend_from_slice(row);
                len += 1;
            }
        }
        Relation::from_sorted_flat(self.schema.clone(), len, data)
    }
}

/// Iterator over a relation's rows as `&[u32]` slices.
#[derive(Clone)]
pub struct Rows<'a> {
    relation: &'a Relation,
    next: usize,
}

impl<'a> Iterator for Rows<'a> {
    type Item = &'a [u32];

    fn next(&mut self) -> Option<&'a [u32]> {
        if self.next >= self.relation.len {
            return None;
        }
        let row = self.relation.row(self.next);
        self.next += 1;
        Some(row)
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        let left = self.relation.len - self.next;
        (left, Some(left))
    }
}

impl ExactSizeIterator for Rows<'_> {}

impl<'a> IntoIterator for &'a Relation {
    type Item = &'a [u32];
    type IntoIter = Rows<'a>;

    fn into_iter(self) -> Rows<'a> {
        self.rows()
    }
}

/// Panics if `schema` repeats a column.
fn assert_distinct(schema: &[u32]) {
    let mut sorted = schema.to_vec();
    sorted.sort_unstable();
    sorted.dedup();
    assert_eq!(sorted.len(), schema.len(), "duplicate column in schema");
}

/// Sorts a flat row-major buffer lexicographically by row and drops
/// duplicate rows. Returns the surviving row count and buffer.
///
/// Rows of up to four columns pack into a single `u64`/`u128` whose
/// integer order *is* the lexicographic row order, so the common
/// arities sort machine words instead of comparing slices through an
/// index permutation.
fn sort_dedup_flat(arity: usize, mut data: Vec<u32>) -> (usize, Vec<u32>) {
    debug_assert!(arity > 0);
    match arity {
        1 => {
            data.sort_unstable();
            data.dedup();
            let len = data.len();
            (len, data)
        }
        2 => {
            let mut packed: Vec<u64> = data
                .chunks_exact(2)
                .map(|r| (u64::from(r[0]) << 32) | u64::from(r[1]))
                .collect();
            packed.sort_unstable();
            packed.dedup();
            data.clear();
            for p in &packed {
                data.push((p >> 32) as u32);
                data.push(*p as u32);
            }
            (packed.len(), data)
        }
        3 | 4 => {
            let mut packed: Vec<u128> = data
                .chunks_exact(arity)
                .map(|r| r.iter().fold(0u128, |acc, &v| (acc << 32) | u128::from(v)))
                .collect();
            packed.sort_unstable();
            packed.dedup();
            data.clear();
            for p in &packed {
                for c in (0..arity).rev() {
                    data.push((p >> (32 * c)) as u32);
                }
            }
            (packed.len(), data)
        }
        _ => {
            let n = data.len() / arity;
            let row = |i: usize| &data[i * arity..(i + 1) * arity];
            let mut perm: Vec<u32> = (0..n as u32).collect();
            perm.sort_unstable_by(|&a, &b| row(a as usize).cmp(row(b as usize)));
            let mut out = Vec::with_capacity(data.len());
            let mut len = 0usize;
            for &i in &perm {
                let r = row(i as usize);
                if len == 0 || out[(len - 1) * arity..] != *r {
                    out.extend_from_slice(r);
                    len += 1;
                }
            }
            (len, out)
        }
    }
}

/// The row indices of a flat buffer of `n` rows in sorted row order,
/// and the positions in that order where each run of equal rows starts.
/// Rows of up to four columns sort and compare as packed words, as in
/// [`sort_dedup_flat`].
fn sorted_runs(arity: usize, data: &[u32], n: usize) -> (Vec<u32>, Vec<usize>) {
    fn by_key<K: Ord>(n: usize, key: impl Fn(usize) -> K) -> (Vec<u32>, Vec<usize>) {
        let mut keyed: Vec<(K, u32)> = (0..n).map(|i| (key(i), i as u32)).collect();
        keyed.sort_unstable();
        let runs = (0..n)
            .filter(|&k| k == 0 || keyed[k - 1].0 != keyed[k].0)
            .collect();
        (keyed.into_iter().map(|(_, i)| i).collect(), runs)
    }
    let columns: Vec<usize> = (0..arity).collect();
    let row = |i: usize| &data[i * arity..(i + 1) * arity];
    match arity {
        0 => by_key(n, |_| ()),
        1 | 2 => by_key(n, |i| pack::<u64>(row(i), &columns)),
        3 | 4 => by_key(n, |i| pack::<u128>(row(i), &columns)),
        _ => by_key(n, row),
    }
}

/// A multiply-mix hasher for the join table's packed integer keys.
/// SipHash (the `HashMap` default) is measurable overhead when the key
/// is a single machine word hashed twice per probe row; join keys are
/// data values, not attacker-controlled input, so the DoS resistance
/// buys nothing here.
#[derive(Clone, Copy, Default)]
struct MixHasher(u64);

impl std::hash::Hasher for MixHasher {
    fn finish(&self) -> u64 {
        // Final avalanche (splitmix64's tail).
        let mut h = self.0;
        h ^= h >> 30;
        h = h.wrapping_mul(0xbf58476d1ce4e5b9);
        h ^= h >> 27;
        h
    }

    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 = (self.0 ^ u64::from(b)).wrapping_mul(0x100000001b3);
        }
    }

    fn write_u64(&mut self, x: u64) {
        self.0 = (self.0 ^ x).wrapping_mul(0x9e3779b97f4a7c15);
    }

    fn write_u128(&mut self, x: u128) {
        self.write_u64(x as u64);
        self.write_u64((x >> 64) as u64);
    }

    fn write_u32(&mut self, x: u32) {
        self.write_u64(u64::from(x));
    }

    fn write_usize(&mut self, x: usize) {
        self.write_u64(x as u64);
    }
}

type MixBuild = std::hash::BuildHasherDefault<MixHasher>;

/// Packs the values of `row` at `cols` into one integer whose order is
/// their lexicographic order (a join key of up to two or four columns).
fn pack<K>(row: &[u32], cols: &[usize]) -> K
where
    K: From<u32> + std::ops::Shl<u32, Output = K> + std::ops::BitOr<Output = K>,
{
    cols.iter()
        .fold(K::from(0), |acc, &c| (acc << 32) | K::from(row[c]))
}

/// One side of a hash join: the relation, its key positions and its
/// output positions.
type JoinSide<'a> = (&'a Relation, &'a [usize], &'a [usize]);

/// The rows of a hash join as one flat buffer, and with `PAIRS` the
/// `(build row, probe row)` source of each output row.
///
/// The key columns pack into a fixed-width integer for up to four
/// shared columns (the overwhelmingly common case — shared sets are
/// intersections of atom schemas); wider keys fall back to a boxed
/// slice. Either way, no allocation per probe row on the packed paths.
fn join_rows<const PAIRS: bool>(
    build: JoinSide<'_>,
    probe: JoinSide<'_>,
    threads: usize,
) -> (Vec<u32>, Vec<(u32, u32)>) {
    match build.1.len() {
        0..=2 => hash_join::<_, PAIRS>(build, probe, threads, pack::<u64>),
        3..=4 => hash_join::<_, PAIRS>(build, probe, threads, pack::<u128>),
        _ => hash_join::<_, PAIRS>(build, probe, threads, |row, cols| -> Box<[u32]> {
            cols.iter().map(|&c| row[c]).collect()
        }),
    }
}

/// The shared hash-join core, monomorphized over the packed key type.
/// Builds a key → build-row-indices table from the smaller side, then
/// streams the probe side (optionally sharded across the pool) and
/// appends each match's output positions, build side first, to one flat
/// buffer, and with `PAIRS` its source rows to a second one.
fn hash_join<K, const PAIRS: bool>(
    (build, build_key, build_out): JoinSide<'_>,
    (probe, probe_key, probe_extra): JoinSide<'_>,
    threads: usize,
    key_of: impl Fn(&[u32], &[usize]) -> K + Sync,
) -> (Vec<u32>, Vec<(u32, u32)>)
where
    K: std::hash::Hash + Eq + Send + Sync,
{
    let out_arity = build_out.len() + probe_extra.len();
    let mut table: HashMap<K, Vec<u32>, MixBuild> =
        HashMap::with_capacity_and_hasher(build.len(), MixBuild::default());
    for (i, row) in build.rows().enumerate() {
        table
            .entry(key_of(row, build_key))
            .or_default()
            .push(i as u32);
    }
    let table = &table;
    let key_of = &key_of;
    let probe_shard = |range: std::ops::Range<usize>| {
        let mut out: Vec<u32> = Vec::new();
        let mut pairs: Vec<(u32, u32)> = Vec::new();
        for pi in range {
            let row = probe.row(pi);
            if let Some(matches) = table.get(&key_of(row, probe_key)) {
                out.reserve(matches.len() * out_arity);
                for &bi in matches {
                    let brow = build.row(bi as usize);
                    out.extend(build_out.iter().map(|&i| brow[i]));
                    out.extend(probe_extra.iter().map(|&i| row[i]));
                    if PAIRS {
                        pairs.push((bi, pi as u32));
                    }
                }
            }
        }
        (out, pairs)
    };
    // Small probe sides are not worth the pool hop, and shards below
    // the minimum row count pay more in dispatch than they win in
    // overlap — cap the shard count so every shard keeps at least
    // PAR_JOIN_MIN_PROBE_ROWS rows.
    let max_shards = probe.len() / PAR_JOIN_MIN_PROBE_ROWS;
    if threads <= 1 || max_shards < 2 {
        return probe_shard(0..probe.len());
    }
    let shards = threads.saturating_mul(4).min(max_shards);
    let jobs: Vec<_> = epq_pool::split_ranges(probe.len() as u128, shards)
        .into_iter()
        .map(|(lo, hi)| {
            let probe_shard = &probe_shard;
            move || probe_shard(lo as usize..hi as usize)
        })
        .collect();
    let mut out = (Vec::new(), Vec::new());
    for (rows, pairs) in epq_pool::run_jobs(threads, jobs) {
        out.0.extend(rows);
        out.1.extend(pairs);
    }
    out
}

impl fmt::Display for Relation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "{:?}", self.schema)?;
        for (i, row) in self.rows().enumerate() {
            if self.is_bag() {
                writeln!(f, "{row:?} x{}", self.counts.big(i))?;
            } else {
                writeln!(f, "{row:?}")?;
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rel(schema: &[u32], rows: &[&[u32]]) -> Relation {
        Relation::new(schema.to_vec(), rows.iter().map(|r| r.to_vec()).collect())
    }

    fn row_vecs(r: &Relation) -> Vec<Vec<u32>> {
        r.rows().map(|row| row.to_vec()).collect()
    }

    #[test]
    fn rows_are_set_semantics() {
        let r = rel(&[0, 1], &[&[1, 2], &[0, 1], &[1, 2]]);
        assert_eq!(r.len(), 2);
        assert_eq!(r.row(0), &[0, 1]);
        assert_eq!(r.rows().len(), 2);
    }

    #[test]
    fn join_on_shared_column() {
        // R(x,y) ⋈ S(y,z)
        let r = rel(&[0, 1], &[&[1, 2], &[3, 4]]);
        let s = rel(&[1, 2], &[&[2, 5], &[2, 6], &[9, 9]]);
        let j = r.join(&s, 1);
        assert_eq!(j.schema(), &[0, 1, 2]);
        assert_eq!(row_vecs(&j), vec![vec![1, 2, 5], vec![1, 2, 6]]);
    }

    #[test]
    fn join_without_shared_columns_is_cross_product() {
        let r = rel(&[0], &[&[1], &[2]]);
        let s = rel(&[1], &[&[7], &[8]]);
        let j = r.join(&s, 1);
        assert_eq!(j.len(), 4);
    }

    #[test]
    fn join_with_many_shared_columns_uses_wide_keys() {
        // Five shared columns exercise the boxed-key fallback; three
        // exercise the u128 path.
        for arity in [3usize, 5] {
            let schema: Vec<u32> = (0..arity as u32).collect();
            let rows: Vec<Vec<u32>> = (0..40u32)
                .map(|i| (0..arity as u32).map(|c| (i + c) % 7).collect())
                .collect();
            let r = Relation::new(schema.clone(), rows.clone());
            let s = Relation::new(schema.clone(), rows[..20].to_vec());
            let j = r.join(&s, 1);
            assert_eq!(j.schema(), &schema[..]);
            assert_eq!(j, s.join(&r, 1));
            // Self-join on the full schema is idempotent.
            assert_eq!(r.join(&r, 1), r);
        }
    }

    #[test]
    fn parallel_join_is_bit_identical() {
        // Big enough to cross the sequential-fallback threshold.
        let r = Relation::new(
            vec![0, 1],
            (0..2048u32).map(|i| vec![i % 97, i % 61]).collect(),
        );
        let s = Relation::new(
            vec![1, 2],
            (0..2048u32).map(|i| vec![i % 61, i % 7]).collect(),
        );
        let sequential = r.join(&s, 1);
        let swapped = s.join(&r, 1);
        for threads in [2usize, 3, 8] {
            assert_eq!(r.join(&s, threads), sequential, "threads = {threads}");
            assert_eq!(s.join(&r, threads), swapped, "swapped, {threads}");
        }
    }

    #[test]
    fn join_with_unit_and_empty() {
        let r = rel(&[0], &[&[1], &[2]]);
        assert_eq!(r.join(&Relation::unit(), 1), r);
        assert!(r.join(&Relation::empty(), 1).is_empty());
        assert_eq!(
            Relation::unit().join(&Relation::unit(), 1),
            Relation::unit()
        );
        assert!(Relation::unit().join(&Relation::empty(), 1).is_empty());
    }

    #[test]
    fn projection_dedupes() {
        let r = rel(&[0, 1], &[&[1, 5], &[1, 6], &[2, 5]]);
        let p = r.project(&[0]);
        assert_eq!(row_vecs(&p), vec![vec![1], vec![2]]);
        // Projection onto the empty column list: unit iff nonempty.
        assert_eq!(r.project(&[]), Relation::unit());
        assert_eq!(
            Relation::new(vec![0], Vec::new()).project(&[]),
            Relation::empty()
        );
    }

    #[test]
    fn union_reorders_columns() {
        let r = rel(&[0, 1], &[&[1, 2]]);
        let s = rel(&[1, 0], &[&[2, 1], &[9, 8]]);
        let u = r.union(&s);
        assert_eq!(u.len(), 2); // (1,2) merges with reordered (2,1)
        assert!(u.rows().any(|row| row == [8, 9]));
    }

    #[test]
    fn union_merges_sorted_sides() {
        let r = rel(&[0], &[&[1], &[3], &[5]]);
        let s = rel(&[0], &[&[0], &[3], &[9]]);
        let u = r.union(&s);
        assert_eq!(
            row_vecs(&u),
            vec![vec![0], vec![1], vec![3], vec![5], vec![9]]
        );
        assert_eq!(u, s.union(&r));
        // Nullary unions.
        assert_eq!(Relation::unit().union(&Relation::empty()), Relation::unit());
        assert_eq!(
            Relation::empty().union(&Relation::empty()),
            Relation::empty()
        );
    }

    #[test]
    fn domain_extension() {
        let r = rel(&[0], &[&[5]]);
        let e = r.extend_with_domain(3, 4);
        assert_eq!(e.len(), 4);
        assert_eq!(e.schema(), &[0, 3]);
    }

    #[test]
    fn select_eq_filters() {
        let r = rel(&[0, 1], &[&[1, 1], &[1, 2], &[3, 3]]);
        let s = r.select_eq(0, 1);
        assert_eq!(row_vecs(&s), vec![vec![1, 1], vec![3, 3]]);
    }

    #[test]
    fn renamed_keeps_rows() {
        let r = rel(&[0, 1], &[&[1, 2], &[3, 4]]);
        let rows = row_vecs(&r);
        let n = r.renamed(vec![7, 9]);
        assert_eq!(n.schema(), &[7, 9]);
        assert_eq!(row_vecs(&n), rows);
    }

    #[test]
    fn wide_rows_sort_and_dedup() {
        // Arity 3 takes the permutation-sort path.
        let r = rel(
            &[0, 1, 2],
            &[&[2, 0, 0], &[1, 9, 9], &[1, 9, 9], &[1, 0, 3]],
        );
        assert_eq!(
            row_vecs(&r),
            vec![vec![1, 0, 3], vec![1, 9, 9], vec![2, 0, 0]]
        );
    }

    /// A bag from `(row, count)` entries; equal rows sum.
    fn bag(schema: &[u32], entries: &[(&[u32], u128)]) -> Relation {
        let data = entries.iter().flat_map(|(r, _)| r.to_vec()).collect();
        let counts = Counts::Small(entries.iter().map(|&(_, c)| c).collect());
        Relation::from_counted_flat(schema.to_vec(), data, counts)
    }

    fn bag_entries(r: &Relation) -> Vec<(Vec<u32>, u64)> {
        r.rows()
            .enumerate()
            .map(|(i, row)| (row.to_vec(), r.multiplicity(i).to_u64().unwrap()))
            .collect()
    }

    #[test]
    fn bag_rows_sort_and_sum() {
        let b = bag(&[0, 1], &[(&[1, 2], 3), (&[0, 9], 1), (&[1, 2], 4)]);
        assert_eq!(bag_entries(&b), vec![(vec![0, 9], 1), (vec![1, 2], 7)]);
        assert_eq!(b.total().to_u64(), Some(8));
        // Counting a set gives every row multiplicity 1.
        let set = rel(&[0], &[&[4], &[2]]);
        assert!(!set.is_bag());
        let counted = set.counted();
        assert!(counted.is_bag());
        assert_eq!(bag_entries(&counted), vec![(vec![2], 1), (vec![4], 1)]);
    }

    #[test]
    fn counted_unit_and_total() {
        assert_eq!(Relation::unit().counted().total().to_u64(), Some(1));
        assert_eq!(Relation::empty().counted().total().to_u64(), Some(0));
        assert_eq!(rel(&[0], &[&[1], &[2]]).total().to_u64(), Some(2));
    }

    #[test]
    fn bag_projection_sums_collapsing_rows() {
        let b = bag(&[0, 1], &[(&[0, 5], 2), (&[1, 5], 3), (&[1, 6], 4)]);
        assert_eq!(
            bag_entries(&b.project(&[1])),
            vec![(vec![5], 5), (vec![6], 4)]
        );
        assert_eq!(
            bag_entries(&b.project(&[0])),
            vec![(vec![0], 2), (vec![1], 7)]
        );
    }

    #[test]
    fn bag_projection_to_nullary_sums_everything() {
        let b = bag(&[0], &[(&[0], 2), (&[4], 5)]);
        let nullary = b.project(&[]);
        assert_eq!((nullary.len(), nullary.total().to_u64()), (1, Some(7)));
        // Dropping the last column inside a join with the unit bag
        // gives the same sum.
        let (dropped, rows) = Relation::unit().join_dropping(&b, Some(0), 1);
        assert_eq!((rows, dropped), (2, nullary));
    }

    #[test]
    fn bag_join_multiplies_matches() {
        let a = bag(&[0], &[(&[0], 2), (&[1], 3), (&[5], 1)]);
        let b = bag(&[0], &[(&[1], 10), (&[5], 7), (&[9], 2)]);
        let j = a.join(&b, 1);
        assert_eq!(bag_entries(&j), vec![(vec![1], 30), (vec![5], 7)]);
        assert_eq!(j, b.join(&a, 1));
        // A set's rows count once.
        let set = rel(&[0, 1], &[&[1, 0], &[1, 4], &[2, 0]]);
        assert_eq!(
            bag_entries(&a.join(&set, 1)),
            vec![(vec![1, 0], 3), (vec![1, 4], 3)]
        );
        // Two sets still join to a set.
        assert!(!set.join(&set, 1).is_bag());
    }

    #[test]
    fn bag_passes_are_thread_count_invariant() {
        // Probe sides big enough to shard.
        let entries = |n: u32, a: u32, b: u32| -> Vec<(Vec<u32>, u128)> {
            (0..n)
                .map(|i| (vec![i % a, i / b], u128::from(i % 13) + 1))
                .collect()
        };
        let of = |e: &[(Vec<u32>, u128)], schema: &[u32]| {
            let rows: Vec<(&[u32], u128)> = e.iter().map(|(r, c)| (&r[..], *c)).collect();
            bag(schema, &rows)
        };
        let t = of(&entries(4000, 71, 7), &[0, 1]);
        let other = of(&entries(3000, 53, 5), &[1, 2]);
        for threads in [2usize, 3, 8] {
            assert_eq!(t.join(&other, threads), t.join(&other, 1), "{threads}");
            assert_eq!(
                t.join_dropping(&other, Some(1), threads),
                t.join_dropping(&other, Some(1), 1),
                "dropping at {threads}"
            );
        }
    }

    #[test]
    fn bag_counts_promote_past_u128() {
        // Products: 2^100 · 2^100 = 2^200.
        let big = bag(&[0], &[(&[3], 1 << 100)]);
        let squared = big.join(&big.clone().renamed(vec![0]), 1);
        assert_eq!(squared.multiplicity(0), Natural::from(2u64).pow(200));
        // Sums: two rows of u128::MAX collapse into 2^129 − 2.
        let wide = bag(&[0, 1], &[(&[0, 0], u128::MAX), (&[0, 1], u128::MAX)]);
        let sum = wide.project(&[0]);
        let expected = Natural::from(u128::MAX) + Natural::from(u128::MAX);
        assert_eq!(sum.multiplicity(0), expected);
        // A promoted bag keeps joining exactly.
        let again = sum.join(&big, 1);
        assert_eq!(again.len(), 0);
        let cube = squared.join(&big, 1);
        assert_eq!(cube.total(), Natural::from(2u64).pow(300));
    }

    #[test]
    fn full_32_bit_columns_sort_without_collision() {
        // Values past 2^31 must not bleed into the neighbouring column of
        // a packed sort key, in sets and in bags.
        let max = u32::MAX;
        for arity in 1..=5usize {
            let low: Vec<u32> = vec![0; arity];
            let mut high = low.clone();
            high[0] = max;
            let mut last = low.clone();
            last[arity - 1] = max;
            let schema: Vec<u32> = (0..arity as u32).collect();
            let rows = vec![high.clone(), last.clone(), low.clone(), last.clone()];
            let mut expected = rows.clone();
            expected.sort();
            expected.dedup();
            let entries: Vec<(&[u32], u128)> = rows.iter().map(|r| (&r[..], 1)).collect();
            let counted = bag(&schema, &entries);
            assert_eq!(row_vecs(&counted), expected, "bag, arity {arity}");
            assert_eq!(counted.total().to_u64(), Some(4));
            let set = Relation::new(schema, rows);
            assert_eq!(row_vecs(&set), expected, "set, arity {arity}");
        }
    }

    #[test]
    #[should_panic(expected = "duplicate column")]
    fn duplicate_schema_panics() {
        let _ = rel(&[0, 0], &[]);
    }
}
