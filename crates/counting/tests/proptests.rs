//! Randomized cross-checking of every counting engine at 1, 2 and 4
//! worker threads.
//!
//! The fixed-family agreement tests live in the workspace-level
//! `tests/engine_agreement.rs`; this suite drives the engines over
//! *random* small queries × random structures — the shard boundaries of
//! the threaded joins and the brute sweep move with the thread count,
//! so agreement here checks that no assignment is dropped or
//! double-counted at any boundary.

use epq_bigint::Natural;
use epq_counting::brute::{
    count_pp_brute, count_pp_brute_par, for_each_assignment, for_each_assignment_in_range,
};
use epq_counting::csp::{count_csp, count_csp_brute};
use epq_counting::engines::all_engines;
use epq_counting::fpt::count_pp_fpt;
use epq_logic::parser::parse_query;
use epq_logic::PpFormula;
use epq_relalg::Relation;
use epq_structures::Structure;
use epq_workloads::{data, queries};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

fn random_pp(seed: u64, vars: usize, atoms: usize, quantify: f64) -> PpFormula {
    let q = queries::random_cq(&mut StdRng::seed_from_u64(seed), vars, atoms, quantify);
    PpFormula::from_query(&q, &data::digraph_signature()).unwrap()
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
        // Random networks of unary to ternary constraints, some of them
        // empty, over variables some of which no constraint mentions:
        // the counting elimination must agree with plain enumeration at
        // every thread count.
        let mut rng = StdRng::seed_from_u64(seed);
        let mut cs = Vec::new();
        for _ in 0..constraints {
            let mut scope: Vec<u32> = (0..variables as u32).collect();
            for i in (1..scope.len()).rev() {
                scope.swap(i, rng.gen_range(0..=i));
            }
            scope.truncate(rng.gen_range(1..=variables.min(3)));
            let density = if rng.gen_bool(0.15) { 0.0 } else { 0.6 };
            let mut rows = Vec::new();
            for_each_assignment(domain, scope.len(), &mut |t| {
                if rng.gen_bool(density) {
                    rows.push(t.to_vec());
                }
            });
            cs.push(Relation::new(scope, rows));
        }
        let expected = count_csp_brute(variables, domain, &cs);
        for threads in [1usize, 2, 4] {
            prop_assert_eq!(count_csp(variables, domain, cs.clone(), threads), expected.clone());
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

#[test]
fn engine_roster_is_stable() {
    let names: Vec<&str> = all_engines().iter().map(|e| e.name()).collect();
    assert_eq!(names, ["brute-force", "relalg", "fpt"]);
}

/// `(x1, …, x40)` on a 16-element structure: counts past `u128`, whose
/// intermediate multiplicities overflow too on the path, must equal their
/// closed forms at every thread count.
#[test]
fn fpt_counts_past_u128_match_closed_forms() {
    let vars: Vec<String> = (1..=40).map(|i| format!("x{i}")).collect();
    let head = format!("({}) := ", vars.join(","));
    let path: Vec<String> = vars
        .windows(2)
        .map(|w| format!("E({},{})", w[0], w[1]))
        .collect();
    let digraph = |edge: &dyn Fn(u32, u32) -> bool| {
        let mut b = Structure::new(data::digraph_signature(), 16);
        for u in 0..16 {
            for v in (0..16).filter(|&v| edge(u, v)) {
                b.add_tuple_named("E", &[u, v]);
            }
        }
        b
    };
    let complete = digraph(&|_, _| true);
    let sparse = digraph(&|u, v| v == (3 * u + 1) % 16 || (u == v && u % 4 == 0));
    let sixteen = Natural::from(16u64);
    let cases = [
        (head.clone() + &path.join(" & "), complete, sixteen.pow(40)),
        (
            head + "E(x1,x2)",
            sparse,
            Natural::from(20u64) * sixteen.pow(38),
        ),
    ];
    for (text, b, expected) in cases {
        assert!(expected > Natural::from(u128::MAX));
        let q = parse_query(&text).unwrap();
        let pp = PpFormula::from_query(&q, &data::digraph_signature()).unwrap();
        for threads in [1usize, 2, 4] {
            assert_eq!(
                count_pp_fpt(&pp, &b, threads),
                expected,
                "{threads} threads"
            );
        }
    }
}
