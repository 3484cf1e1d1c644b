//! Randomized cross-checking of every counting engine at 1, 2 and 4
//! worker threads.
//!
//! The fixed-family agreement tests live in the workspace-level
//! `tests/engine_agreement.rs`; this suite drives the engines over
//! *random* small queries × random structures — the shard boundaries of
//! the threaded #Hom DP and the brute sweep move with the thread
//! count, so agreement here checks that no assignment is dropped or
//! double-counted at any boundary.

use epq_bigint::Natural;
use epq_counting::brute::{
    count_pp_brute, count_pp_brute_par, for_each_assignment, for_each_assignment_in_range,
};
use epq_counting::csp::{count_csp_brute, CspConstraint, TdCounter};
use epq_counting::engines::all_engines;
use epq_counting::fpt::count_pp_fpt;
use epq_counting::table::FlatTable;
use epq_logic::PpFormula;
use epq_workloads::{data, queries};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::{BTreeMap, HashSet};

fn random_pp(seed: u64, vars: usize, atoms: usize, quantify: f64) -> PpFormula {
    let q = queries::random_cq(&mut StdRng::seed_from_u64(seed), vars, atoms, quantify);
    PpFormula::from_query(&q, &data::digraph_signature()).unwrap()
}

/// A random DP table plus the `BTreeMap` the seed implementation kept:
/// duplicate random keys merge by summation in both.
fn random_table(
    seed: u64,
    arity: usize,
    entries: usize,
    domain: u32,
) -> (FlatTable, BTreeMap<Vec<u32>, Natural>) {
    let mut rng = StdRng::seed_from_u64(seed);
    let raw: Vec<(Vec<u32>, Natural)> = (0..entries)
        .map(|_| {
            let key: Vec<u32> = (0..arity).map(|_| rng.gen_range(0..domain)).collect();
            (key, Natural::from(rng.gen_range(1..6u64)))
        })
        .collect();
    let mut model: BTreeMap<Vec<u32>, Natural> = BTreeMap::new();
    for (key, count) in &raw {
        *model.entry(key.clone()).or_insert_with(Natural::zero) += count;
    }
    (FlatTable::from_entries(arity, raw), model)
}

/// The packed table and the map reference must agree entry for entry,
/// in the same (sorted) order.
fn assert_table_is(
    got: &FlatTable,
    expected: &BTreeMap<Vec<u32>, Natural>,
    pass: &str,
    threads: usize,
) -> Result<(), TestCaseError> {
    prop_assert_eq!(
        got.len(),
        expected.len(),
        "{} size at {} threads",
        pass,
        threads
    );
    for ((key, count), (ekey, ecount)) in got.iter().zip(expected.iter()) {
        prop_assert_eq!(key, &ekey[..], "{} key at {} threads", pass, threads);
        prop_assert_eq!(count, ecount, "{} count at {} threads", pass, threads);
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(40))]

    #[test]
    fn every_engine_agrees_on_random_queries(
        qseed in 0u64..10_000,
        sseed in 0u64..10_000,
        vars in 2usize..5,
        atoms in 1usize..5,
        n in 1usize..5,
    ) {
        let pp = random_pp(qseed, vars, atoms, 0.4);
        let b = data::random_digraph(&mut StdRng::seed_from_u64(sseed), n, 0.35);
        let reference = count_pp_brute(&pp, &b);
        for engine in all_engines() {
            for threads in [1usize, 2, 4] {
                prop_assert_eq!(
                    engine.count_threaded(&pp, &b, threads),
                    reference.clone(),
                    "engine {} at {} threads on {}",
                    engine.name(),
                    threads,
                    pp
                );
            }
        }
    }

    #[test]
    fn parallel_fpt_is_thread_count_invariant(
        qseed in 0u64..10_000,
        sseed in 0u64..10_000,
        n in 1usize..6,
    ) {
        // Quantifier-heavy queries push work into the boundary
        // enumeration — the FPT engine's sharded hot loop.
        let pp = random_pp(qseed, 4, 4, 0.7);
        let b = data::random_digraph(&mut StdRng::seed_from_u64(sseed), n, 0.3);
        let expected = count_pp_fpt(&pp, &b, 1);
        for threads in [2usize, 3, 4, 8] {
            prop_assert_eq!(
                count_pp_fpt(&pp, &b, threads),
                expected.clone(),
                "{} threads on {}",
                threads,
                pp
            );
        }
    }

    #[test]
    fn parallel_brute_is_thread_count_invariant(
        qseed in 0u64..10_000,
        sseed in 0u64..10_000,
        n in 1usize..5,
    ) {
        let pp = random_pp(qseed, 3, 3, 0.3);
        let b = data::random_digraph(&mut StdRng::seed_from_u64(sseed), n, 0.4);
        let expected = count_pp_brute(&pp, &b);
        for threads in [2usize, 3, 4, 8] {
            prop_assert_eq!(
                count_pp_brute_par(&pp, &b, threads),
                expected.clone(),
                "{} threads",
                threads
            );
        }
    }

    #[test]
    fn parallel_csp_counter_matches_brute(
        seed in 0u64..10_000,
        variables in 1usize..5,
        domain in 1usize..4,
        constraints in 0usize..4,
    ) {
        // Random binary CSPs: the prepared TdCounter must agree with
        // plain enumeration sequentially and at every thread count.
        let mut rng = StdRng::seed_from_u64(seed);
        let mut cs = Vec::new();
        for _ in 0..constraints {
            let a = rng.gen_range(0..variables as u32);
            let b = rng.gen_range(0..variables as u32);
            if a == b {
                continue;
            }
            let mut allowed = HashSet::new();
            for x in 0..domain as u32 {
                for y in 0..domain as u32 {
                    if rng.gen_bool(0.6) {
                        allowed.insert(vec![x, y]);
                    }
                }
            }
            cs.push(CspConstraint::new(vec![a, b], allowed));
        }
        let expected = count_csp_brute(variables, domain, &cs, &[]);
        let counter = TdCounter::new(variables, domain, cs);
        for threads in [1usize, 2, 4] {
            prop_assert_eq!(counter.count(&[], threads), expected.clone());
        }
    }

    #[test]
    fn flat_table_passes_match_btreemap_reference(
        seed in 0u64..10_000,
        arity in 0usize..=3,
        entries in 0usize..40,
        domain in 1u32..=4,
        slot_pick in 0usize..16,
        modulus in 1u32..=4,
    ) {
        // A random nice-decomposition node: a child table of `arity`-wide
        // bag assignments, put through each of the three DP passes, on
        // the packed-key arena and on the `BTreeMap` the seed DP used —
        // at 1, 2, and 4 threads.
        let (table, model) = random_table(seed, arity, entries, domain);

        // Introduce at a random slot over the full candidate range, with
        // a nontrivial filter.
        let slot = slot_pick % (arity + 1);
        let candidates: Vec<u32> = (0..domain).collect();
        let keep = |key: &[u32]| key.iter().sum::<u32>() % modulus != 0;
        let mut expected: BTreeMap<Vec<u32>, Natural> = BTreeMap::new();
        for (key, count) in &model {
            for &x in &candidates {
                let mut grown = key.clone();
                grown.insert(slot, x);
                if keep(&grown) {
                    *expected.entry(grown).or_insert_with(Natural::zero) += count;
                }
            }
        }
        for threads in [1usize, 2, 4] {
            let got = table.introduce(slot, &candidates, keep, threads);
            assert_table_is(&got, &expected, "introduce", threads)?;
        }

        // Forget each slot in turn (arity permitting).
        for slot in 0..arity {
            let mut expected: BTreeMap<Vec<u32>, Natural> = BTreeMap::new();
            for (key, count) in &model {
                let mut shrunk = key.clone();
                shrunk.remove(slot);
                *expected.entry(shrunk).or_insert_with(Natural::zero) += count;
            }
            for threads in [1usize, 2, 4] {
                let got = table.forget(slot, threads);
                assert_table_is(&got, &expected, "forget", threads)?;
            }
        }

        // Join against a second random table of the same arity.
        let (other, other_model) = random_table(seed ^ 0xbead, arity, entries / 2 + 1, domain);
        let mut expected: BTreeMap<Vec<u32>, Natural> = BTreeMap::new();
        for (key, count) in &model {
            if let Some(factor) = other_model.get(key) {
                expected.insert(key.clone(), count * factor);
            }
        }
        for threads in [1usize, 2, 4] {
            let got = table.join(&other, threads);
            assert_table_is(&got, &expected, "join", threads)?;
        }
    }

    #[test]
    fn range_sharding_partitions_the_assignment_space(
        domain in 1usize..5,
        arity in 0usize..5,
        cut_seed in 0u64..1_000,
    ) {
        // Concatenating random contiguous ranges replays the exact
        // sequential enumeration — the invariant the parallel brute
        // engine's correctness rests on.
        let total = (domain as u128).pow(arity as u32);
        let mut rng = StdRng::seed_from_u64(cut_seed);
        let mut cuts = vec![0u128];
        while *cuts.last().unwrap() < total {
            let last = *cuts.last().unwrap();
            let step = 1 + rng.gen_range(0..(total.max(4) / 4) as u64) as u128;
            cuts.push((last + step).min(total));
        }
        let mut replayed = Vec::new();
        for w in cuts.windows(2) {
            for_each_assignment_in_range(domain, arity, w[0], w[1], &mut |v| {
                replayed.push(v.to_vec());
            });
        }
        let mut full = Vec::new();
        for_each_assignment(domain, arity, &mut |v| full.push(v.to_vec()));
        prop_assert_eq!(replayed, full);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    #[test]
    fn sharded_flat_table_passes_cross_the_pool_threshold(
        seed in 0u64..10_000,
        slot_pick in 0usize..16,
        modulus in 2u32..=4,
    ) {
        // Tables above PAR_NODE_THRESHOLD: the 2/4-thread runs really
        // shard across the pool and the chunk merges really execute.
        let arity = 2usize;
        let domain = 64u32;
        let (table, model) = random_table(seed, arity, 4096, domain);
        prop_assert!(table.len() >= epq_counting::csp::PAR_NODE_THRESHOLD);

        let slot = slot_pick % (arity + 1);
        let candidates: Vec<u32> = (0..4).collect();
        let keep = |key: &[u32]| key.iter().sum::<u32>() % modulus != 0;
        let mut expected: BTreeMap<Vec<u32>, Natural> = BTreeMap::new();
        for (key, count) in &model {
            for &x in &candidates {
                let mut grown = key.clone();
                grown.insert(slot, x);
                if keep(&grown) {
                    *expected.entry(grown).or_insert_with(Natural::zero) += count;
                }
            }
        }
        for threads in [1usize, 2, 4] {
            assert_table_is(
                &table.introduce(slot, &candidates, keep, threads),
                &expected,
                "introduce",
                threads,
            )?;
        }

        let slot = slot_pick % arity;
        let mut expected: BTreeMap<Vec<u32>, Natural> = BTreeMap::new();
        for (key, count) in &model {
            let mut shrunk = key.clone();
            shrunk.remove(slot);
            *expected.entry(shrunk).or_insert_with(Natural::zero) += count;
        }
        for threads in [1usize, 2, 4] {
            assert_table_is(&table.forget(slot, threads), &expected, "forget", threads)?;
        }

        let (other, other_model) = random_table(seed ^ 0xbead, arity, 4096, domain);
        let mut expected: BTreeMap<Vec<u32>, Natural> = BTreeMap::new();
        for (key, count) in &model {
            if let Some(factor) = other_model.get(key) {
                expected.insert(key.clone(), count * factor);
            }
        }
        for threads in [1usize, 2, 4] {
            assert_table_is(&table.join(&other, threads), &expected, "join", threads)?;
        }
    }
}

#[test]
fn engine_roster_is_stable() {
    let names: Vec<&str> = all_engines().iter().map(|e| e.name()).collect();
    assert_eq!(names, ["brute-force", "relalg", "hom-dp", "fpt"]);
}
