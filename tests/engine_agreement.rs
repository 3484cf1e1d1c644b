//! Property-based cross-checking: every counting path through the
//! workspace must agree on random queries and random structures.
//!
//! The paths compared:
//! * brute-force ep evaluation (syntax-directed, the ground truth);
//! * the φ*/φ⁺ pipeline (`epq-core`) with every pp engine, each at 1,
//!   2 and 4 worker threads;
//! * relational-algebra UCQ materialization (`epq-relalg`) at 1, 2 and
//!   4 worker threads;
//! * disjunct-level brute union counting.
//!
//! (Engine-level randomized agreement, including thread-count
//! invariance, lives in `crates/counting/tests/proptests.rs`; the
//! fixed-seed engine × thread-count check on inputs large enough to
//! shard is `every_engine_agrees_at_every_thread_count_on_seeded_digraphs`.)

use epq::prelude::*;
use epq_counting::brute;
use epq_counting::engines::all_engines;
use epq_logic::dnf;
use epq_workloads::{data, queries};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

fn check_all_paths(query: &Query, b: &Structure) {
    let sig = b.signature().clone();
    let expected = brute::count_ep_brute(query, b);

    for threads in [1usize, 2, 4] {
        let prepared = PreparedQuery::prepare(query, &sig)
            .unwrap()
            .with_threads(threads);
        for engine in all_engines() {
            assert_eq!(
                prepared.count_with(b, engine.as_ref()),
                expected,
                "φ* pipeline + {} engine at {threads} threads\nquery: {query}\nB: {b}",
                engine.name()
            );
        }
    }

    let ds = dnf::disjuncts(query, &sig).unwrap();
    for threads in [1usize, 2, 4] {
        assert_eq!(
            epq::relalg::count_ucq(&ds, b, threads),
            expected,
            "relalg union at {threads} threads\nquery: {query}\nB: {b}"
        );
    }

    let via_disjuncts = brute::count_disjuncts_brute(&ds, b);
    assert_eq!(via_disjuncts, expected, "disjunct union\nquery: {query}");

    // The prepared-query paths: single count and the pool batch.
    let prepared = PreparedQuery::prepare(query, &sig).unwrap();
    assert_eq!(
        prepared.count(b),
        expected,
        "prepared query\nquery: {query}\nB: {b}"
    );
    let batch = [b.clone(), b.clone(), b.clone()];
    for threads in [1usize, 3] {
        let counts = prepared.count_batch(&batch, threads);
        assert!(
            counts.iter().all(|c| c == &expected),
            "prepared batch at {threads} threads\nquery: {query}\nB: {b}"
        );
    }
}

/// Every engine at 1, 2 and 4 worker threads must reproduce the first
/// engine's 1-thread count, on fixed seeded inputs large enough to
/// reach each sharding site: the sharded probe side of the joins fpt and
/// relalg run (`qpath3` at n = 48; and at n = 48 a 2-walk one way with
/// a 3-walk back, whose two boundary relations fpt's counting stage
/// joins with the 1356-row 3-walk one as the probe side, past two
/// shards of 256 rows), and brute force's sharded assignment sweep (the
/// quantifier-free `path2` at n = 16 and 24).
#[test]
fn every_engine_agrees_at_every_thread_count_on_seeded_digraphs() {
    let walks_there_and_back = parse_query(
        "(x,y) := (exists u . E(x,u) & E(u,y)) & (exists v, w . E(y,v) & E(v,w) & E(w,x))",
    )
    .unwrap();
    let inputs = [
        (queries::quantified_path_query(3), 48, 0.08, 48),
        (walks_there_and_back, 48, 0.08, 48),
        (queries::path_query(2), 16, 0.1, 23),
        (queries::path_query(2), 24, 0.1, 31),
    ];
    for (query, n, density, seed) in inputs {
        let sig = infer_signature([query.formula()]).unwrap();
        let pp = PpFormula::from_query(&query, &sig).unwrap();
        let b = data::random_digraph(&mut StdRng::seed_from_u64(seed), n, density);
        let mut reference = None;
        for engine in all_engines() {
            for threads in [1usize, 2, 4] {
                let count = engine.count_threaded(&pp, &b, threads);
                let expected = reference.get_or_insert_with(|| count.clone());
                assert_eq!(
                    &count,
                    expected,
                    "{} at {threads} threads on {query} (n = {n})",
                    engine.name()
                );
            }
        }
    }
}

/// A seeded digraph on `n` vertices with exactly `edges` distinct edges
/// (loops allowed).
fn digraph_with_edges(seed: u64, n: usize, edges: usize) -> Structure {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut b = Structure::new(data::digraph_signature(), n);
    while b.tuple_count() < edges {
        let (u, v) = (rng.gen_range(0..n as u32), rng.gen_range(0..n as u32));
        b.add_tuple_named("E", &[u, v]);
    }
    b
}

/// The pairs `(x, y)` joined by a walk of exactly `k` edges, counted from
/// the `k`-th Boolean power of the adjacency matrix (one `u128` bit row
/// per vertex). Shares no code with any engine.
fn walk_pairs(b: &Structure, k: usize) -> u64 {
    let n = b.universe_size();
    assert!(n <= 128, "one u128 row per vertex");
    let e = b.signature().lookup("E").unwrap();
    let mut adjacency = vec![0u128; n];
    for t in b.relation(e).tuples() {
        adjacency[t[0] as usize] |= 1 << t[1];
    }
    let mut power = adjacency.clone();
    for _ in 1..k {
        power = power
            .iter()
            .map(|&row| {
                (0..n)
                    .filter(|&j| row >> j & 1 == 1)
                    .fold(0, |acc, j| acc | adjacency[j])
            })
            .collect();
    }
    power.iter().map(|row| u64::from(row.count_ones())).sum()
}

/// ∃-paths `Q_k(x, y)` for k = 3, 5 and 7 against adjacency-matrix
/// powers: on n = 128 with 1536 edges, `fpt` and `relalg` at 1, 2 and 4
/// threads; on n = 8 with 16 edges, brute force too. The large rows
/// finish only when each quantified variable is projected away as soon
/// as its relations are joined.
#[test]
fn exists_paths_match_adjacency_matrix_powers() {
    for k in [3usize, 5, 7] {
        let query = queries::quantified_path_query(k);
        let sig = infer_signature([query.formula()]).unwrap();
        let pp = PpFormula::from_query(&query, &sig).unwrap();
        for (n, edges, seed) in [(8, 16, 5), (128, 1536, 7)] {
            let b = digraph_with_edges(seed, n, edges);
            let expected = Natural::from(walk_pairs(&b, k));
            if n <= 8 {
                assert_eq!(brute::count_pp_brute(&pp, &b), expected, "brute, k = {k}");
            }
            for threads in [1usize, 2, 4] {
                let at = format!("k = {k}, n = {n}, {threads} threads");
                let fpt = epq_counting::fpt::count_pp_fpt(&pp, &b, threads);
                assert_eq!(fpt, expected, "fpt, {at}");
                let relalg = epq::relalg::count_pp(&pp, &b, threads);
                assert_eq!(relalg, expected, "relalg, {at}");
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn all_paths_agree_on_random_cqs(
        qseed in 0u64..5000,
        sseed in 0u64..5000,
        vars in 2usize..5,
        atoms in 1usize..5,
        n in 1usize..5,
    ) {
        let query = queries::random_cq(&mut StdRng::seed_from_u64(qseed), vars, atoms, 0.4);
        let b = data::random_digraph(&mut StdRng::seed_from_u64(sseed), n, 0.35);
        check_all_paths(&query, &b);
    }

    #[test]
    fn all_paths_agree_on_random_ucqs(
        qseed in 0u64..5000,
        sseed in 0u64..5000,
        disjuncts in 2usize..4,
        vars in 2usize..4,
        atoms in 1usize..4,
        n in 1usize..4,
    ) {
        let query = queries::random_ucq(
            &mut StdRng::seed_from_u64(qseed), disjuncts, vars, atoms, 0.35);
        let b = data::random_digraph(&mut StdRng::seed_from_u64(sseed), n, 0.4);
        check_all_paths(&query, &b);
    }

    #[test]
    fn product_law_holds_for_random_pp(
        qseed in 0u64..5000,
        s1 in 0u64..5000,
        s2 in 0u64..5000,
    ) {
        // |ψ(D1 × D2)| = |ψ(D1)|·|ψ(D2)| (the key fact behind Example 4.3).
        let query = queries::random_cq(&mut StdRng::seed_from_u64(qseed), 3, 3, 0.4);
        let sig = infer_signature([query.formula()]).unwrap();
        let pp = PpFormula::from_query(&query, &sig).unwrap();
        let d1 = data::random_digraph(&mut StdRng::seed_from_u64(s1), 3, 0.4);
        let d2 = data::random_digraph(&mut StdRng::seed_from_u64(s2), 2, 0.5);
        let product = epq::structures::ops::direct_product(&d1, &d2);
        let lhs = brute::count_pp_brute(&pp, &product);
        let rhs = brute::count_pp_brute(&pp, &d1) * brute::count_pp_brute(&pp, &d2);
        prop_assert_eq!(lhs, rhs);
    }

    #[test]
    fn component_law_holds_for_random_pp(
        qseed in 0u64..5000,
        sseed in 0u64..5000,
    ) {
        // |φ(B)| = Π over components (Section 2.1).
        let query = queries::random_cq(&mut StdRng::seed_from_u64(qseed), 4, 3, 0.3);
        let sig = infer_signature([query.formula()]).unwrap();
        let pp = PpFormula::from_query(&query, &sig).unwrap();
        let b = data::random_digraph(&mut StdRng::seed_from_u64(sseed), 3, 0.4);
        let whole = brute::count_pp_brute(&pp, &b);
        let product = pp
            .components()
            .iter()
            .map(|c| brute::count_pp_brute(c, &b))
            .fold(Natural::one(), |acc, x| acc * x);
        prop_assert_eq!(whole, product);
    }

    #[test]
    fn counting_equivalence_decision_is_sound(
        qa in 0u64..3000,
        qb in 0u64..3000,
        battery_seed in 0u64..1000,
    ) {
        // Theorem 5.4 soundness: if the decision procedure says
        // "equivalent", counts agree on random structures; if it says
        // "not equivalent", we at least never find the procedure claiming
        // equality where a battery structure separates the counts.
        let a = queries::random_cq(&mut StdRng::seed_from_u64(qa), 3, 2, 0.3);
        let b = queries::random_cq(&mut StdRng::seed_from_u64(qb), 3, 2, 0.3);
        let sig = data::digraph_signature();
        let pa = PpFormula::from_query(&a, &sig).unwrap();
        let pb = PpFormula::from_query(&b, &sig).unwrap();
        let decided = counting_equivalent(&pa, &pb);
        let mut rng = StdRng::seed_from_u64(battery_seed);
        for i in 0..4 {
            let s = data::random_digraph(&mut rng, 1 + (i % 3), 0.4);
            let ca = brute::count_pp_brute(&pa, &s);
            let cb = brute::count_pp_brute(&pb, &s);
            if decided {
                prop_assert_eq!(ca, cb, "procedure claimed equivalence");
            }
        }
    }

    #[test]
    fn star_identity_on_random_ucqs(
        qseed in 0u64..3000,
        sseed in 0u64..3000,
    ) {
        // Proposition 5.16: |φ(B)| = Σ cᵢ|φᵢ*(B)| for all-free UCQs.
        let query = queries::random_ucq(
            &mut StdRng::seed_from_u64(qseed), 2, 3, 2, 0.0);
        let sig = data::digraph_signature();
        let ds = dnf::disjuncts(&query, &sig).unwrap();
        prop_assume!(ds.iter().all(|d| d.is_free()));
        let star_terms = star(&ds);
        let b = data::random_digraph(&mut StdRng::seed_from_u64(sseed), 3, 0.4);
        let via_star = epq_core::iex::evaluate_signed_sum(&star_terms, &b, &FptEngine);
        let direct = brute::count_disjuncts_brute(&ds, &b);
        prop_assert_eq!(via_star, direct);
    }
}
