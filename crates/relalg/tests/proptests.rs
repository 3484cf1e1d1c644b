//! Property tests for the relational-algebra engine: the join planner
//! (at 1, 2 and 4 worker threads) must agree with assignment-level
//! brute force on random pp-formulas, random UCQs, and random
//! structures.
//!
//! The brute-force reference is local to this suite (assignment
//! enumeration through `PpFormula::satisfied_by`) so the test needs no
//! dependency on `epq-counting` — which depends on this crate and
//! would otherwise close a dev-dependency cycle.

use epq_bigint::Natural;
use epq_logic::query::infer_signature;
use epq_logic::{dnf, Formula, PpFormula, Query, Var};
use epq_relalg::engine::eliminate;
use epq_relalg::{answers_pp, count_pp, count_ucq, Relation};
use epq_structures::{Signature, Structure};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::{BTreeMap, BTreeSet};

/// Enumerates all liberal assignments, counting those that extend to a
/// homomorphism — the ground truth `|φ(B)|`.
fn brute_count_pp(pp: &PpFormula, b: &Structure) -> u64 {
    brute_count(pp.liberal_count(), b, |values| pp.satisfied_by(b, values))
}

fn brute_count(slots: usize, b: &Structure, satisfied: impl Fn(&[u32]) -> bool) -> u64 {
    let n = b.universe_size() as u32;
    if slots == 0 {
        return u64::from(satisfied(&[]));
    }
    if n == 0 {
        return 0;
    }
    let mut values = vec![0u32; slots];
    let mut count = 0u64;
    loop {
        if satisfied(&values) {
            count += 1;
        }
        let mut i = 0;
        loop {
            if i == slots {
                return count;
            }
            values[i] += 1;
            if values[i] < n {
                break;
            }
            values[i] = 0;
            i += 1;
        }
    }
}

/// Builds a random conjunction of `E`-atoms over `vars` variables, with
/// the variables selected by `qmask` existentially quantified.
fn random_cq_formula(vars: usize, atoms: &[(u8, u8)], qmask: u8) -> Query {
    let names: Vec<String> = (0..vars).map(|i| format!("v{i}")).collect();
    let parts: Vec<Formula> = atoms
        .iter()
        .map(|&(a, b)| {
            Formula::atom(
                "E",
                &[
                    names[a as usize % vars].as_str(),
                    names[b as usize % vars].as_str(),
                ],
            )
        })
        .collect();
    let matrix = Formula::conjunction(parts);
    let quantified: Vec<&str> = (0..vars)
        .filter(|i| qmask & (1 << i) != 0)
        .map(|i| names[i].as_str())
        .collect();
    let liberal: Vec<Var> = (0..vars)
        .filter(|i| qmask & (1 << i) == 0)
        .map(|i| Var::new(&names[i]))
        .collect();
    let formula = if quantified.is_empty() {
        matrix
    } else {
        Formula::exists(&quantified, matrix)
    };
    Query::new(formula, liberal).expect("valid random query")
}

fn digraph(seed: u64, n: usize, p: f64) -> Structure {
    let mut rng = StdRng::seed_from_u64(seed);
    let sig = Signature::from_symbols([("E", 2)]);
    let mut s = Structure::new(sig, n);
    for u in 0..n as u32 {
        for v in 0..n as u32 {
            if rng.gen_bool(p) {
                s.add_tuple_named("E", &[u, v]);
            }
        }
    }
    s
}

/// A straightforward reference model of a relation: the schema plus a
/// `BTreeSet` of rows. Every operation is the obvious nested-loop /
/// set-theoretic definition, so any agreement failure points at the
/// flat arena layout of [`Relation`], not at a second clever
/// implementation.
#[derive(Clone, Debug, PartialEq, Eq)]
struct Model {
    schema: Vec<u32>,
    rows: BTreeSet<Vec<u32>>,
}

impl Model {
    fn of(r: &Relation) -> Model {
        Model {
            schema: r.schema().to_vec(),
            rows: r.rows().map(|row| row.to_vec()).collect(),
        }
    }

    /// Natural join, mirroring the engine's schema rule: the smaller
    /// side's columns first (ties keep `self`), then the probe extras.
    fn join(&self, other: &Model) -> Model {
        let (build, probe) = if self.rows.len() <= other.rows.len() {
            (self, other)
        } else {
            (other, self)
        };
        let mut schema = build.schema.clone();
        let probe_extra: Vec<usize> = (0..probe.schema.len())
            .filter(|&i| !build.schema.contains(&probe.schema[i]))
            .collect();
        schema.extend(probe_extra.iter().map(|&i| probe.schema[i]));
        let mut rows = BTreeSet::new();
        for b_row in &build.rows {
            'probe: for p_row in &probe.rows {
                for (bi, &c) in build.schema.iter().enumerate() {
                    if let Some(pi) = probe.schema.iter().position(|&x| x == c) {
                        if b_row[bi] != p_row[pi] {
                            continue 'probe;
                        }
                    }
                }
                let mut out = b_row.clone();
                out.extend(probe_extra.iter().map(|&i| p_row[i]));
                rows.insert(out);
            }
        }
        Model { schema, rows }
    }

    fn project(&self, columns: &[u32]) -> Model {
        let positions: Vec<usize> = columns
            .iter()
            .map(|c| self.schema.iter().position(|x| x == c).unwrap())
            .collect();
        Model {
            schema: columns.to_vec(),
            rows: self
                .rows
                .iter()
                .map(|row| positions.iter().map(|&i| row[i]).collect())
                .collect(),
        }
    }

    fn union(&self, other: &Model) -> Model {
        let reordered = other.project(&self.schema);
        Model {
            schema: self.schema.clone(),
            rows: self.rows.union(&reordered.rows).cloned().collect(),
        }
    }

    fn select_eq(&self, a: u32, b: u32) -> Model {
        let pa = self.schema.iter().position(|&x| x == a).unwrap();
        let pb = self.schema.iter().position(|&x| x == b).unwrap();
        Model {
            schema: self.schema.clone(),
            rows: self
                .rows
                .iter()
                .filter(|row| row[pa] == row[pb])
                .cloned()
                .collect(),
        }
    }

    fn extend_with_domain(&self, column: u32, domain: usize) -> Model {
        let mut schema = self.schema.clone();
        schema.push(column);
        let mut rows = BTreeSet::new();
        for row in &self.rows {
            for x in 0..domain as u32 {
                let mut out = row.clone();
                out.push(x);
                rows.insert(out);
            }
        }
        Model { schema, rows }
    }
}

/// The flat relation and the model must agree exactly: same schema,
/// same rows, and — because `BTreeSet` iterates in lexicographic order,
/// the canonical order of the arena — the same row sequence.
fn assert_agrees(r: &Relation, m: &Model) -> Result<(), TestCaseError> {
    prop_assert_eq!(r.schema(), &m.schema[..]);
    prop_assert_eq!(r.len(), m.rows.len());
    for (row, expected) in r.rows().zip(m.rows.iter()) {
        prop_assert_eq!(row, &expected[..]);
    }
    Ok(())
}

/// A random relation over `arity` columns drawn from a disjoint id
/// range, with values in `0..vals`, plus its model.
fn random_relation(seed: u64, columns: &[u32], rows: usize, vals: u32) -> (Relation, Model) {
    let mut rng = StdRng::seed_from_u64(seed);
    let rows: Vec<Vec<u32>> = (0..rows)
        .map(|_| columns.iter().map(|_| rng.gen_range(0..vals)).collect())
        .collect();
    let r = Relation::new(columns.to_vec(), rows);
    let m = Model::of(&r);
    (r, m)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn flat_join_agrees_with_model(
        seed1 in 0u64..10_000,
        seed2 in 0u64..10_000,
        arity1 in 1usize..=3,
        arity2 in 1usize..=3,
        overlap in 0usize..=2,
        n1 in 0usize..40,
        n2 in 0usize..40,
        vals in 1u32..=4,
    ) {
        // Schemas share `overlap` columns (ids 0..overlap), the rest are
        // disjoint — covering cross products, partial joins, and
        // full-schema intersections.
        let overlap = overlap.min(arity1).min(arity2);
        let cols1: Vec<u32> = (0..overlap as u32)
            .chain((10..).take(arity1 - overlap))
            .collect();
        let cols2: Vec<u32> = (0..overlap as u32)
            .chain((20..).take(arity2 - overlap))
            .collect();
        let (r1, m1) = random_relation(seed1, &cols1, n1, vals);
        let (r2, m2) = random_relation(seed2, &cols2, n2, vals);
        for threads in [1usize, 2, 4] {
            assert_agrees(&r1.join(&r2, threads), &m1.join(&m2))?;
        }
    }

    #[test]
    fn flat_ops_round_trip_against_model(
        seed in 0u64..10_000,
        arity in 1usize..=4,
        n in 0usize..60,
        vals in 1u32..=4,
        pick in 0usize..100,
        domain in 0usize..=3,
    ) {
        let cols: Vec<u32> = (0..arity as u32).collect();
        let (r, m) = random_relation(seed, &cols, n, vals);

        // Projection onto a nonempty column subset (reversed to also
        // exercise reordering), chosen by the `pick` bitmask.
        let subset: Vec<u32> = cols
            .iter()
            .rev()
            .filter(|&&c| pick & (1 << c) != 0)
            .copied()
            .collect();
        if !subset.is_empty() {
            assert_agrees(&r.project(&subset), &m.project(&subset))?;
            // Projecting twice is the same as projecting once.
            prop_assert_eq!(
                &r.project(&subset).project(&subset),
                &r.project(&subset)
            );
        }

        // Selection on a random column pair.
        let a = cols[pick % arity];
        let b = cols[(pick / 7) % arity];
        assert_agrees(&r.select_eq(a, b), &m.select_eq(a, b))?;

        // Extension by a fresh column.
        assert_agrees(
            &r.extend_with_domain(99, domain),
            &m.extend_with_domain(99, domain),
        )?;

        // Union with a reshuffled relation over the same columns, via
        // the model and via algebra: A ∪ A = A, A ∪ B = B ∪ A.
        let mut shuffled = cols.clone();
        shuffled.reverse();
        let (s, sm) = random_relation(seed ^ 0x5eed, &shuffled, n / 2, vals);
        assert_agrees(&r.union(&s), &m.union(&sm))?;
        prop_assert_eq!(&r.union(&r), &r);
        prop_assert_eq!(r.union(&s), s.project(&cols).union(&r));
    }
}

/// The reference of a bag: its schema and a `BTreeMap` from row to
/// multiplicity, with joins and projections by their definitions.
#[derive(Clone, Debug)]
struct BagModel {
    schema: Vec<u32>,
    rows: BTreeMap<Vec<u32>, Natural>,
}

impl BagModel {
    /// Join: rows agreeing on the shared columns, multiplicities
    /// multiplied; the schema is `self`'s then `other`'s new columns.
    fn join(&self, other: &BagModel) -> BagModel {
        let shared: Vec<(usize, usize)> = self
            .schema
            .iter()
            .enumerate()
            .filter_map(|(i, c)| Some((i, other.schema.iter().position(|x| x == c)?)))
            .collect();
        let extra: Vec<usize> = (0..other.schema.len())
            .filter(|&j| !self.schema.contains(&other.schema[j]))
            .collect();
        let mut by_key: BTreeMap<Vec<u32>, Vec<(&Vec<u32>, &Natural)>> = BTreeMap::new();
        for (row, count) in &other.rows {
            let key = shared.iter().map(|&(_, j)| row[j]).collect();
            by_key.entry(key).or_default().push((row, count));
        }
        let mut rows = BTreeMap::new();
        for (row, count) in &self.rows {
            let key: Vec<u32> = shared.iter().map(|&(i, _)| row[i]).collect();
            for (other_row, other_count) in by_key.get(&key).into_iter().flatten() {
                let mut out = row.clone();
                out.extend(extra.iter().map(|&j| other_row[j]));
                rows.insert(out, count * *other_count);
            }
        }
        let mut schema = self.schema.clone();
        schema.extend(extra.iter().map(|&j| other.schema[j]));
        BagModel { schema, rows }
    }

    /// Projection: multiplicities of collapsing rows summed.
    fn project(&self, columns: &[u32]) -> BagModel {
        let positions: Vec<usize> = columns
            .iter()
            .map(|c| self.schema.iter().position(|x| x == c).unwrap())
            .collect();
        let mut rows: BTreeMap<Vec<u32>, Natural> = BTreeMap::new();
        for (row, count) in &self.rows {
            let key = positions.iter().map(|&i| row[i]).collect();
            *rows.entry(key).or_default() += count;
        }
        BagModel {
            schema: columns.to_vec(),
            rows,
        }
    }
}

/// The bag and the model hold the same rows with the same
/// multiplicities, compared in the model's column order.
fn assert_bag_is(r: &Relation, m: &BagModel, what: &str) -> Result<(), TestCaseError> {
    let r = r.project(&m.schema);
    prop_assert_eq!(r.len(), m.rows.len(), "{} size", what);
    for (i, (row, (key, count))) in r.rows().zip(&m.rows).enumerate() {
        prop_assert_eq!(row, &key[..], "{} row", what);
        prop_assert_eq!(&r.multiplicity(i), count, "{} multiplicity", what);
    }
    Ok(())
}

/// A random bag over `columns`: random rows with a hidden column 999
/// (values `0..3`) projected away, so each row counts up to three times.
fn random_bag(seed: u64, columns: &[u32], rows: usize, vals: u32) -> (Relation, BagModel) {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut wide: Vec<u32> = columns.to_vec();
    wide.push(999);
    let rows: BTreeSet<Vec<u32>> = (0..rows)
        .map(|_| {
            let mut row: Vec<u32> = columns.iter().map(|_| rng.gen_range(0..vals)).collect();
            row.push(rng.gen_range(0..3));
            row
        })
        .collect();
    let model = BagModel {
        schema: wide.clone(),
        rows: rows.iter().map(|r| (r.clone(), Natural::one())).collect(),
    };
    let bag = Relation::new(wide, rows.into_iter().collect()).counted();
    (bag.project(columns), model.project(columns))
}

/// Joins, projections and a summing elimination of two random bags
/// against the model, at 1, 2 and 4 threads. `cols1` and `cols2` may
/// share columns; `keep` must be columns of theirs.
fn check_bag_passes(
    (r1, m1): &(Relation, BagModel),
    (r2, m2): &(Relation, BagModel),
    keep: &[u32],
) -> Result<(), TestCaseError> {
    let joined = m1.join(m2);
    let kept = joined.project(keep);
    for threads in [1usize, 2, 4] {
        assert_bag_is(&r1.join(r2, threads), &joined, "join")?;
        let both = vec![r1.clone(), r2.clone()];
        let eliminated = eliminate(both, keep, threads, &mut |_, _, _| {});
        assert_bag_is(&eliminated, &kept, "eliminate")?;
    }
    // Drop each column in turn.
    for &c in &m1.schema {
        let rest: Vec<u32> = m1.schema.iter().copied().filter(|&x| x != c).collect();
        assert_bag_is(&r1.project(&rest), &m1.project(&rest), "project")?;
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(40))]

    #[test]
    fn flat_table_passes_match_btreemap_reference(
        seed in 0u64..10_000,
        arity1 in 1usize..=3,
        arity2 in 1usize..=3,
        overlap in 0usize..=2,
        entries in 0usize..40,
        vals in 1u32..=4,
        pick in 0usize..64,
    ) {
        // Bags whose schemas share `overlap` columns: a join multiplies
        // multiplicities, a projection sums them, and elimination onto a
        // random kept subset does both.
        let overlap = overlap.min(arity1).min(arity2);
        let cols1: Vec<u32> = (0..overlap as u32).chain((10..).take(arity1 - overlap)).collect();
        let cols2: Vec<u32> = (0..overlap as u32).chain((20..).take(arity2 - overlap)).collect();
        let b1 = random_bag(seed, &cols1, entries, vals);
        let b2 = random_bag(seed ^ 0xbead, &cols2, entries / 2 + 1, vals);
        let mut all: Vec<u32> = cols1.iter().chain(&cols2).copied().collect();
        all.sort_unstable();
        all.dedup();
        let keep: Vec<u32> = all
            .iter()
            .enumerate()
            .filter(|&(i, _)| pick & (1 << i) != 0)
            .map(|(_, &c)| c)
            .collect();
        check_bag_passes(&b1, &b2, &keep)?;
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    #[test]
    fn sharded_flat_table_passes_cross_the_pool_threshold(
        seed in 0u64..10_000,
        keep_first in any::<bool>(),
    ) {
        // Bags big enough that the 2- and 4-thread joins really shard:
        // every probe side has at least two shards of 256 rows.
        let b1 = random_bag(seed, &[0, 1], 1500, 64);
        let b2 = random_bag(seed ^ 0xbead, &[1, 2], 1500, 64);
        prop_assert!(b1.0.len() >= 512 && b2.0.len() >= 512);
        let keep: &[u32] = if keep_first { &[0] } else { &[] };
        check_bag_passes(&b1, &b2, keep)?;
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn plan_agrees_with_brute_on_random_pp(
        vars in 1usize..=4,
        atoms in collection::vec((0u8..8, 0u8..8), 0..5),
        qmask in 0u8..16,
        n in 1usize..=4,
        sseed in 0u64..10_000,
    ) {
        let query = random_cq_formula(vars, &atoms, qmask);
        let sig = Signature::from_symbols([("E", 2)]);
        let pp = PpFormula::from_query(&query, &sig).unwrap();
        let b = digraph(sseed, n, 0.4);
        let expected = brute_count_pp(&pp, &b);
        // The plan is bit-identical at every thread count, and
        // materialization agrees with counting.
        let answers = answers_pp(&pp, &b, 1);
        prop_assert_eq!(answers.len() as u64, expected);
        for threads in [1usize, 2, 4] {
            prop_assert_eq!(
                count_pp(&pp, &b, threads).to_u64(),
                Some(expected),
                "threads = {}", threads
            );
            prop_assert_eq!(&answers_pp(&pp, &b, threads), &answers);
        }
    }

    #[test]
    fn ucq_union_agrees_with_brute(
        vars in 2usize..=3,
        atoms1 in collection::vec((0u8..8, 0u8..8), 1..4),
        atoms2 in collection::vec((0u8..8, 0u8..8), 1..4),
        qmask in 0u8..4,
        n in 1usize..=3,
        sseed in 0u64..10_000,
    ) {
        // A two-disjunct UCQ over a shared liberal set.
        let q1 = random_cq_formula(vars, &atoms1, qmask);
        let q2 = random_cq_formula(vars, &atoms2, qmask);
        let formula = Formula::Or(
            Box::new(q1.formula().clone()),
            Box::new(q2.formula().clone()),
        );
        let query = Query::new(formula, q1.liberal().to_vec()).unwrap();
        let sig = infer_signature([query.formula()]).unwrap();
        let ds = dnf::disjuncts(&query, &sig).unwrap();
        let b = digraph(sseed, n, 0.45);
        let expected = brute_count(query.liberal_count(), &b, |values| {
            ds.iter().any(|d| d.satisfied_by(&b, values))
        });
        for threads in [1usize, 2, 4] {
            prop_assert_eq!(
                count_ucq(&ds, &b, threads).to_u64(),
                Some(expected),
                "threads = {}", threads
            );
        }
    }
}
