//! The complete ep answer-counting algorithm (the forward direction of
//! the equivalence theorem; the algorithm behind Theorem 3.2(1)).
//!
//! Given `φ(V)` and **B**:
//!
//! 1. if some **sentence disjunct** of (normalized) `φ` holds on **B**,
//!    every assignment satisfies `φ`: return `|B|^|V|`;
//! 2. otherwise `φ` and its all-free part agree pointwise on **B**, so
//!    return the signed `φ*_af` sum — where a term that entails a
//!    sentence disjunct contributes 0 (its answer set is empty when no
//!    sentence disjunct holds), exactly the appendix's answer policy for
//!    queries outside `φ⁻_af`.
//!
//! Each surviving pp count is delegated to a pluggable engine (the FPT
//! algorithm by default), which is what makes the whole pipeline FPT when
//! `φ⁺` satisfies the tractability condition.

use crate::iex::signed_sum;
use crate::plus::PlusDecomposition;
use crate::prepared::PreparedQuery;
use epq_bigint::Natural;
use epq_counting::brute::universe_power;
use epq_counting::engines::PpCountingEngine;
use epq_logic::query::LogicError;
use epq_logic::Query;
use epq_structures::{hom, Signature, Structure};

/// Whether a sentence pp-formula holds on **B** (a plain homomorphism
/// check on the atom part; isolated liberal elements need a nonempty
/// universe).
pub fn sentence_holds(theta: &epq_logic::PpFormula, b: &Structure) -> bool {
    debug_assert!(theta.is_sentence());
    if theta.structure().universe_size() > 0 && b.universe_size() == 0 {
        return false;
    }
    hom::homomorphism_exists(theta.structure(), b)
}

/// Counts `|φ(B)|` using a precomputed [`PlusDecomposition`], running
/// each kept `φ*` term through `engine` on up to `threads` workers.
pub fn count_ep_with(
    decomposition: &PlusDecomposition,
    liberal_count: usize,
    b: &Structure,
    engine: &dyn PpCountingEngine,
    threads: usize,
) -> Natural {
    for theta in &decomposition.sentences {
        if sentence_holds(theta, b) {
            return universe_power(b, liberal_count);
        }
    }
    // No sentence disjunct holds: terms outside φ⁻_af count 0. The
    // membership mask is precomputed at decomposition time, so this
    // per-structure hot path allocates nothing per call.
    signed_sum(decomposition.kept_terms(), |_, formula| {
        engine.count_threaded(formula, b, threads)
    })
}

/// Counts `|φ(B)|` for an arbitrary ep-query: the paper's counting
/// algorithm end to end (normalize → sentence check → signed `φ*` sum).
///
/// A thin wrapper over [`PreparedQuery`]: the per-query phase goes
/// through the process-wide prepared-query cache, so repeated calls
/// with canonically-equal queries pay it once. Hold a [`PreparedQuery`]
/// directly (or use [`crate::prepared::count_ep_batch`]) to amortize
/// explicitly over many structures.
pub fn count_ep(
    query: &Query,
    signature: &Signature,
    b: &Structure,
    engine: &dyn PpCountingEngine,
) -> Result<Natural, LogicError> {
    Ok(PreparedQuery::prepare(query, signature)?.count_with(b, engine))
}

/// Convenience: parse, infer the signature, and count with the FPT
/// engine. Panics on malformed input — intended for examples and tests.
pub fn count_ep_text(query_text: &str, b: &Structure) -> Natural {
    let query = epq_logic::parser::parse_query(query_text).expect("query parses");
    epq_logic::query::check_against_signature(query.formula(), b.signature())
        .expect("query matches the structure's signature");
    let prepared =
        PreparedQuery::prepare(&query, b.signature()).expect("prepared query construction");
    prepared.count(b)
}

#[cfg(test)]
mod tests {
    use super::*;
    use epq_counting::brute::count_ep_brute;
    use epq_counting::engines::{BruteForceEngine, FptEngine};
    use epq_logic::parser::parse_query;
    use epq_structures::Signature;

    fn example_c() -> Structure {
        let sig = Signature::from_symbols([("E", 2)]);
        let mut s = Structure::new(sig, 4);
        for (u, v) in [(0, 1), (1, 2), (2, 3), (3, 3)] {
            s.add_tuple_named("E", &[u, v]);
        }
        s
    }

    fn check_against_brute(text: &str, b: &Structure) {
        let q = parse_query(text).unwrap();
        let sig = b.signature().clone();
        let expected = count_ep_brute(&q, b);
        for engine in [&FptEngine as &dyn PpCountingEngine, &BruteForceEngine] {
            let got = count_ep(&q, &sig, b, engine).unwrap();
            assert_eq!(got, expected, "query {text} with engine {}", engine.name());
        }
    }

    #[test]
    fn matches_brute_force_on_paper_examples() {
        let b = example_c();
        for text in [
            // Example 4.1.
            "(w,x,y,z) := E(x,y) & (E(w,x) | (E(y,z) & E(z,z)))",
            // Example 4.2.
            "(w,x,y,z) := (E(x,y) & E(y,z)) | (E(z,w) & E(w,x)) | (E(w,x) & E(x,y))",
            // Example 5.21 (with the sentence disjunct).
            "(w,x,y,z) := (E(x,y) & E(y,z)) | (E(z,w) & E(w,x)) | (E(w,x) & E(x,y)) \
             | (exists a, b, c, d . E(a,b) & E(b,c) & E(c,d))",
        ] {
            check_against_brute(text, &b);
        }
    }

    #[test]
    fn sentence_disjunct_saturates_the_count() {
        let b = example_c();
        // C contains a directed 3-path, so the sentence disjunct holds and
        // the count is |B|^4 = 256.
        let text = "(w,x,y,z) := E(x,y) | (exists a, b, c, d . E(a,b) & E(b,c) & E(c,d))";
        assert_eq!(count_ep_text(text, &b).to_u64(), Some(256));
    }

    #[test]
    fn sentence_disjunct_false_reduces_to_free_part() {
        // Structure with edges but no directed 2-path: 0→1, 2→3.
        let sig = Signature::from_symbols([("E", 2)]);
        let mut b = Structure::new(sig, 4);
        b.add_tuple_named("E", &[0, 1]);
        b.add_tuple_named("E", &[2, 3]);
        let text = "(x, y) := E(x,y) | (exists a, b, c . E(a,b) & E(b,c))";
        // No 2-path → count = |E| = 2.
        assert_eq!(count_ep_text(text, &b).to_u64(), Some(2));
        check_against_brute(text, &b);
    }

    #[test]
    fn mixed_queries_against_brute_force() {
        let b = example_c();
        for text in [
            "(x, y) := E(x,y) | E(y,x)",
            "(x, y, z) := E(x,y) | E(y,z)",
            "(x) := E(x,x) | (exists u . E(x,u) & E(u,u))",
            "(x) := (exists u . E(x,u)) & (E(x,x) | (exists v . E(v,x)))",
            "(x, y) := (E(x,y) & E(y,x)) | (exists a . E(a,a))",
        ] {
            check_against_brute(text, &b);
        }
    }

    #[test]
    fn pure_sentence_queries_count_zero_or_one() {
        let b = example_c();
        assert_eq!(count_ep_text("exists a . E(a,a)", &b).to_u64(), Some(1));
        let sig = Signature::from_symbols([("E", 2)]);
        let mut no_loop = Structure::new(sig, 3);
        no_loop.add_tuple_named("E", &[0, 1]);
        assert_eq!(
            count_ep_text("exists a . E(a,a)", &no_loop).to_u64(),
            Some(0)
        );
        assert_eq!(
            count_ep_text("(exists a . E(a,a)) | (exists b, c . E(b,c))", &no_loop).to_u64(),
            Some(1)
        );
    }

    #[test]
    fn empty_structure() {
        let sig = Signature::from_symbols([("E", 2)]);
        let empty = Structure::new(sig, 0);
        assert_eq!(count_ep_text("E(x,y) | E(y,x)", &empty).to_u64(), Some(0));
    }

    #[test]
    fn filtered_star_terms_do_not_contribute() {
        // φ = E(x,y) ∨ F(x,y) ∨ ∃a,b(E(a,b)∧F(a,b)): the E∧F star term is
        // outside φ⁻_af. On a structure where the sentence fails, the term
        // must count 0 — consistency check against brute force.
        let sig = Signature::from_symbols([("E", 2), ("F", 2)]);
        let mut b = Structure::new(sig.clone(), 3);
        b.add_tuple_named("E", &[0, 1]);
        b.add_tuple_named("F", &[1, 2]);
        let text = "(x, y) := E(x,y) | F(x,y) | (exists a, b . E(a,b) & F(a,b))";
        let q = parse_query(text).unwrap();
        let expected = count_ep_brute(&q, &b);
        let got = count_ep(&q, &sig, &b, &FptEngine).unwrap();
        assert_eq!(got, expected);
        assert_eq!(got.to_u64(), Some(2));
    }
}
