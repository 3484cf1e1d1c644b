//! Integration tests for the equivalence-theorem reductions: recovering
//! pp counts from an ep oracle on randomized inputs (Theorem 5.20 /
//! Appendix A, end to end).

use epq::prelude::*;
use epq_core::oracle;
use epq_counting::brute;
use epq_logic::dnf;
use epq_workloads::{data, queries};
use rand::rngs::StdRng;
use rand::SeedableRng;

/// Round-trips the all-free recovery for a UCQ given as text.
fn roundtrip_all_free(text: &str, b: &Structure) {
    let query = parse_query(text).unwrap();
    let sig = b.signature().clone();
    let ds = dnf::disjuncts(&query, &sig).unwrap();
    assert!(
        ds.iter().all(|d| d.is_free()),
        "test requires an all-free query"
    );
    let star_terms = star(&ds);
    let mut oracle_fn =
        |d: &Structure| epq::core::count::count_ep(&query, &sig, d, &FptEngine).unwrap();
    let recovered = oracle::recover_all_free_counts(&star_terms, b, &mut oracle_fn);
    assert_eq!(recovered.counts.len(), star_terms.len());
    for (i, count) in &recovered.counts {
        let direct = brute::count_pp_brute(&star_terms[*i].formula, b);
        assert_eq!(*count, direct, "term {i} of {text}");
    }
}

#[test]
fn all_free_roundtrips_on_curated_queries() {
    let b = data::example_4_3_structure();
    for text in [
        "(w,x,y,z) := E(x,y) & (E(w,x) | (E(y,z) & E(z,z)))",
        "(w,x,y,z) := (E(x,y) & E(y,z)) | (E(z,w) & E(w,x)) | (E(w,x) & E(x,y))",
        "(x, y) := E(x,y) | (E(x,y) & E(y,y))",
        "(x, y) := E(x,y) | E(y,x)",
    ] {
        roundtrip_all_free(text, &b);
    }
}

#[test]
fn all_free_roundtrips_on_random_ucqs() {
    // Keep sizes small: the recovery queries products B × C^ℓ whose
    // brute-force verification is exponential in the liberal set.
    for seed in 0..6u64 {
        let query = queries::random_ucq(&mut StdRng::seed_from_u64(seed), 2, 3, 2, 0.0);
        let sig = data::digraph_signature();
        let ds = dnf::disjuncts(&query, &sig).unwrap();
        if !ds.iter().all(|d| d.is_free()) {
            continue;
        }
        let b = data::random_digraph(&mut StdRng::seed_from_u64(seed + 100), 2, 0.5);
        roundtrip_all_free(&query.to_string(), &b);
    }
}

#[test]
fn general_roundtrip_with_sentences_on_random_structures() {
    let text = "(x, y) := E(x,y) | F(x,y) | (exists a, b . E(a,b) & F(a,b))";
    let query = parse_query(text).unwrap();
    let sig = Signature::from_symbols([("E", 2), ("F", 2)]);
    let dec = plus_decomposition(&query, &sig).unwrap();
    assert_eq!(dec.sentences.len(), 1);
    assert_eq!(dec.minus_af().len(), 2);

    for seed in 0..5u64 {
        let mut rng = StdRng::seed_from_u64(seed);
        let b = epq_workloads::data::random_structure(&mut rng, &sig, 3, 0.3, 100);
        let mut oracle_fn = |d: &Structure| {
            epq::core::count::count_ep_with(&dec, query.liberal_count(), d, &FptEngine, 1)
        };
        let recovered =
            oracle::recover_plus_counts(&dec, query.liberal_count(), &b, &mut oracle_fn);
        assert_eq!(recovered.len(), dec.plus.len());
        for (formula, count) in &recovered {
            let direct = brute::count_pp_brute(formula, &b);
            assert_eq!(*count, direct, "formula {formula} on seed {seed}");
        }
    }
}

#[test]
fn oracle_query_budget_is_reported() {
    let b = data::example_4_3_structure();
    let query = parse_query("(w,x,y,z) := E(x,y) & (E(w,x) | (E(y,z) & E(z,z)))").unwrap();
    let sig = b.signature().clone();
    let ds = dnf::disjuncts(&query, &sig).unwrap();
    let star_terms = star(&ds);
    let mut calls = 0usize;
    let mut oracle_fn = |d: &Structure| {
        calls += 1;
        epq::core::count::count_ep(&query, &sig, d, &FptEngine).unwrap()
    };
    let recovered = oracle::recover_all_free_counts(&star_terms, &b, &mut oracle_fn);
    assert_eq!(recovered.oracle_queries, calls);
    // s classes → s queries for the Vandermonde stage, plus splitting.
    assert!(calls >= star_terms.len());
}

#[test]
fn distinguishing_structure_search_properties() {
    // The found structure satisfies the Lemma 5.12 properties by
    // construction; verify on a fresh instance.
    let sig = data::digraph_signature();
    let p1 = PpFormula::from_query(&parse_query("E(x,y)").unwrap(), &sig).unwrap();
    let p2 = PpFormula::from_query(&parse_query("E(x,y) & E(y,y)").unwrap(), &sig).unwrap();
    let p3 = PpFormula::from_query(&parse_query("E(x,y) & E(y,x)").unwrap(), &sig).unwrap();
    let c = oracle::find_distinguishing_structure(&[&p1, &p2, &p3]);
    assert!(oracle::is_distinguishing(&c, &[&p1, &p2, &p3]));
    // Positivity must hold for unrelated formulas too (diagonal element).
    let other =
        PpFormula::from_query(&parse_query("E(a,b) & E(b,c) & E(c,a)").unwrap(), &sig).unwrap();
    assert!(!brute::count_pp_brute(&other, &c).is_zero());
}
