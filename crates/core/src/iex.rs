//! Inclusion–exclusion expansion and the `φ*` cancellation
//! (Section 5.3, Proposition 5.16; Examples 4.2 and 5.15).
//!
//! For a disjunctive ep-formula `φ = φ₁ ∨ … ∨ φ_s` (disjuncts sharing the
//! liberal set), inclusion–exclusion gives
//!
//! ```text
//! |φ(B)| = Σ_{∅≠J⊆[s]} (−1)^{|J|+1} |φ_J(B)|,    φ_J = ⋀_{j∈J} φ_j.
//! ```
//!
//! Terms whose formulas are **counting equivalent** (Theorem 5.4) are
//! merged by adding coefficients; zero coefficients vanish. The surviving
//! signed formulas are `φ*` — in Example 4.2/5.15 the seven raw terms
//! collapse to `3·|φ₁(B)| − 2·|(φ₁∧φ₃)(B)|`, eliminating the only
//! treewidth-2 terms.
//!
//! One deliberate refinement over the paper's text: each conjunction is
//! replaced by its **core** before merging. Cores are logically
//! equivalent (answer-preserving, so all counts are unchanged), make
//! counting-equivalence checks cheaper, and are the objects whose
//! treewidth the tractability condition measures anyway.
//!
//! Cores also make the merge cheap. Two counting-equivalent cores are
//! isomorphic by a map that keeps the liberal set (see
//! [`crate::equivalence`]), so [`merge_terms`] buckets terms by a
//! [`RenamingFingerprint`] of their cores and runs the bijection search
//! only within a bucket. Almost every pair of terms is told apart by its
//! fingerprint. The fingerprint only prunes: a pair with equal
//! fingerprints is still decided by [`counting_equivalent`], so the
//! merged terms, their coefficients and their order are exactly those
//! of a search over all pairs.

use crate::equivalence::{counting_equivalent, renaming_fingerprint, RenamingFingerprint};
use epq_bigint::{Integer, Natural};
use epq_counting::PpCountingEngine;
use epq_logic::query::LogicError;
use epq_logic::PpFormula;
use epq_structures::Structure;
use std::collections::HashMap;

/// The most disjuncts an inclusion–exclusion expansion may take: it has
/// `2^s − 1` terms, so beyond this the `φ*` phase is infeasible.
pub const MAX_IEX_DISJUNCTS: usize = 24;

/// Rejects an expansion over more than [`MAX_IEX_DISJUNCTS`] disjuncts
/// before any of it is built.
pub fn check_disjunct_limit(disjuncts: usize) -> Result<(), LogicError> {
    if disjuncts > MAX_IEX_DISJUNCTS {
        return Err(LogicError {
            message: format!(
                "inclusion-exclusion over {disjuncts} disjuncts exceeds the limit of \
                 {MAX_IEX_DISJUNCTS}"
            ),
        });
    }
    Ok(())
}

/// A pp-formula with an integer coefficient in a signed sum.
#[derive(Clone, Debug)]
pub struct SignedPp {
    /// The formula.
    pub formula: PpFormula,
    /// Its (nonzero, after cancellation) coefficient.
    pub coefficient: Integer,
}

/// The raw inclusion–exclusion expansion: all `2^s − 1` signed
/// conjunctions, subsets ordered by size then lexicographically, each
/// replaced by its core.
///
/// # Panics
/// Panics on an empty disjunct list, or if `s` exceeds
/// [`MAX_IEX_DISJUNCTS`]. Callers with a `Result` path check
/// [`check_disjunct_limit`] first.
pub fn inclusion_exclusion_terms(disjuncts: &[PpFormula]) -> Vec<SignedPp> {
    let s = disjuncts.len();
    assert!(s >= 1, "inclusion-exclusion needs at least one disjunct");
    assert!(
        s <= MAX_IEX_DISJUNCTS,
        "inclusion-exclusion over {s} disjuncts is infeasible"
    );
    let mut subsets: Vec<u32> = (1..(1u32 << s)).collect();
    subsets.sort_by_key(|j| (j.count_ones(), *j));
    subsets
        .into_iter()
        .map(|j| {
            let members: Vec<&PpFormula> = (0..s)
                .filter(|i| j & (1 << i) != 0)
                .map(|i| &disjuncts[i])
                .collect();
            let conjunction = PpFormula::conjoin(&members);
            let sign = if j.count_ones() % 2 == 1 { 1 } else { -1 };
            SignedPp {
                formula: conjunction.core(),
                coefficient: Integer::from(sign),
            }
        })
        .collect()
}

/// Merges counting-equivalent terms and drops zero coefficients,
/// producing `φ*` with its coefficients (Proposition 5.16). Terms keep
/// first-appearance order. A term is tested only against earlier terms
/// whose cores share its [`RenamingFingerprint`]; the `core()` call is a
/// clone for the cored terms [`inclusion_exclusion_terms`] emits.
pub fn merge_terms(terms: Vec<SignedPp>) -> Vec<SignedPp> {
    let mut merged: Vec<SignedPp> = Vec::new();
    let mut buckets: HashMap<RenamingFingerprint, Vec<usize>> = HashMap::new();
    for term in terms {
        let bucket = buckets
            .entry(renaming_fingerprint(&term.formula.core()))
            .or_default();
        match bucket
            .iter()
            .find(|&&i| counting_equivalent(&merged[i].formula, &term.formula))
        {
            Some(&i) => merged[i].coefficient += &term.coefficient,
            None => {
                bucket.push(merged.len());
                merged.push(term);
            }
        }
    }
    merged.retain(|m| !m.coefficient.is_zero());
    merged
}

/// The `φ*` of a disjunct list: inclusion–exclusion then cancellation.
/// For every structure **B**: `|⋁ disjuncts (B)| = Σ cᵢ·|φᵢ*(B)|`.
pub fn star(disjuncts: &[PpFormula]) -> Vec<SignedPp> {
    merge_terms(inclusion_exclusion_terms(disjuncts))
}

/// Evaluates the signed sum `Σ cᵢ·|φᵢ(B)|`, with `count(i, φᵢ)`
/// supplying each `|φᵢ(B)|` (`i` is the index `terms` yields with the
/// term). Every `φ*` evaluation in the workspace — one-shot counting,
/// incremental maintenance, and [`evaluate_signed_sum`] — goes through
/// here. The result is a count, hence non-negative; this is asserted.
pub fn signed_sum<'a>(
    terms: impl IntoIterator<Item = (usize, &'a SignedPp)>,
    mut count: impl FnMut(usize, &'a PpFormula) -> Natural,
) -> Natural {
    let mut acc = Integer::zero();
    for (i, term) in terms {
        let n = Integer::from(count(i, &term.formula));
        acc += &(&term.coefficient * &n);
    }
    assert!(
        !acc.is_negative(),
        "signed φ* sum must be a count (got {acc})"
    );
    acc.into_magnitude()
}

/// Evaluates the signed sum `Σ cᵢ·|φᵢ(B)|` with the given engine (see
/// [`signed_sum`]).
pub fn evaluate_signed_sum(
    terms: &[SignedPp],
    b: &Structure,
    engine: &dyn PpCountingEngine,
) -> Natural {
    signed_sum(terms.iter().enumerate(), |_, formula| {
        engine.count(formula, b)
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use epq_counting::engines::FptEngine;
    use epq_logic::parser::parse_query;
    use epq_logic::{dnf, Query};
    use epq_structures::Signature;

    fn disjuncts_of(text: &str) -> (Query, Vec<PpFormula>) {
        let q = parse_query(text).unwrap();
        let sig = epq_logic::query::infer_signature([q.formula()]).unwrap();
        let ds = dnf::disjuncts(&q, &sig).unwrap();
        (q, ds)
    }

    fn example_c() -> Structure {
        let sig = Signature::from_symbols([("E", 2)]);
        let mut s = Structure::new(sig, 4);
        for (u, v) in [(0, 1), (1, 2), (2, 3), (3, 3)] {
            s.add_tuple_named("E", &[u, v]);
        }
        s
    }

    /// Example 4.2 / 5.15: φ = φ1 ∨ φ2 ∨ φ3 over V = {w,x,y,z} with
    /// φ1 = E(x,y)∧E(y,z), φ2 = E(z,w)∧E(w,x), φ3 = E(w,x)∧E(x,y).
    fn example_4_2() -> (Query, Vec<PpFormula>) {
        disjuncts_of("(w,x,y,z) := (E(x,y) & E(y,z)) | (E(z,w) & E(w,x)) | (E(w,x) & E(x,y))")
    }

    #[test]
    fn example_5_15_star_has_two_terms_with_coefficients_3_and_minus_2() {
        let (_, ds) = example_4_2();
        assert_eq!(ds.len(), 3);
        let raw = inclusion_exclusion_terms(&ds);
        assert_eq!(raw.len(), 7);
        let star_terms = star(&ds);
        assert_eq!(star_terms.len(), 2, "φ* = {{φ1, φ1∧φ3}}");
        let mut coefficients: Vec<i64> = star_terms
            .iter()
            .map(|t| t.coefficient.to_i64().unwrap())
            .collect();
        coefficients.sort_unstable();
        assert_eq!(coefficients, vec![-2, 3]);
        // The 3-coefficient term is a single path of length 2 (3 atoms
        // would be the pair-conjunction): check atom counts.
        let three = star_terms
            .iter()
            .find(|t| t.coefficient.to_i64() == Some(3))
            .unwrap();
        assert_eq!(three.formula.structure().tuple_count(), 2);
        let minus_two = star_terms
            .iter()
            .find(|t| t.coefficient.to_i64() == Some(-2))
            .unwrap();
        assert_eq!(minus_two.formula.structure().tuple_count(), 3);
    }

    #[test]
    fn example_4_2_cancelled_terms_had_higher_treewidth() {
        // The cancelled terms (the 4-cycle conjunctions) have treewidth 2;
        // the surviving φ* terms have treewidth 1 — the paper's point
        // about the savings.
        let (_, ds) = example_4_2();
        let raw = inclusion_exclusion_terms(&ds);
        let star_terms = star(&ds);
        let tw = |pp: &PpFormula| {
            epq_graph::treewidth_exact(&pp.core().structure().gaifman_graph()).unwrap()
        };
        let max_raw = raw.iter().map(|t| tw(&t.formula)).max().unwrap();
        let max_star = star_terms.iter().map(|t| tw(&t.formula)).max().unwrap();
        assert_eq!(max_raw, 2);
        assert_eq!(max_star, 1);
    }

    #[test]
    fn star_identity_on_example_4_1() {
        let (q, ds) = disjuncts_of("(w,x,y,z) := E(x,y) & (E(w,x) | (E(y,z) & E(z,z)))");
        let b = example_c();
        let star_terms = star(&ds);
        let via_star = evaluate_signed_sum(&star_terms, &b, &FptEngine);
        let brute = epq_counting::brute::count_ep_brute(&q, &b);
        assert_eq!(via_star, brute);
    }

    #[test]
    fn star_identity_on_example_4_2() {
        let (q, ds) = example_4_2();
        let b = example_c();
        let star_terms = star(&ds);
        let via_star = evaluate_signed_sum(&star_terms, &b, &FptEngine);
        let brute = epq_counting::brute::count_ep_brute(&q, &b);
        assert_eq!(via_star, brute);
    }

    #[test]
    fn star_of_single_disjunct_is_itself() {
        let (_, ds) = disjuncts_of("E(x,y) & E(y,z)");
        let star_terms = star(&ds);
        assert_eq!(star_terms.len(), 1);
        assert_eq!(star_terms[0].coefficient.to_i64(), Some(1));
    }

    #[test]
    fn duplicate_disjuncts_collapse() {
        // φ ∨ φ: |φ∨φ| = 2|φ| − |φ∧φ| = |φ| → φ* = {φ} with coefficient 1.
        let (_, ds) = disjuncts_of("E(x,y) | E(x,y)");
        let star_terms = star(&ds);
        assert_eq!(star_terms.len(), 1);
        assert_eq!(star_terms[0].coefficient.to_i64(), Some(1));
    }

    #[test]
    fn raw_terms_are_ordered_subsets() {
        let (_, ds) = disjuncts_of("A(x) | B(x) | C(x)");
        let raw = inclusion_exclusion_terms(&ds);
        assert_eq!(raw.len(), 7);
        // Sizes: three singletons (+1), three pairs (−1), one triple (+1).
        let signs: Vec<i64> = raw
            .iter()
            .map(|t| t.coefficient.to_i64().unwrap())
            .collect();
        assert_eq!(signs, vec![1, 1, 1, -1, -1, -1, 1]);
    }

    #[test]
    fn signed_sum_rejects_negative_totals() {
        // Constructing a deliberately bogus signed sum must panic.
        let (_, ds) = disjuncts_of("E(x,y)");
        let mut terms = star(&ds);
        terms[0].coefficient = Integer::from(-1);
        let b = example_c();
        let result = std::panic::catch_unwind(|| evaluate_signed_sum(&terms, &b, &FptEngine));
        assert!(result.is_err());
    }
}
