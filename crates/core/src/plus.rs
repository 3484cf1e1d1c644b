//! The `φ⁺` construction (Section 5.4 of the paper; Example 5.21).
//!
//! Given an ep-query `φ`:
//!
//! 1. rewrite into disjunctive form and **normalize** (no sentence
//!    disjunct maps into any other disjunct);
//! 2. split into the **all-free part** `φ_af` (the free disjuncts) and
//!    the **sentence disjuncts**;
//! 3. build `φ*_af` by inclusion–exclusion with cancellation
//!    (Proposition 5.16);
//! 4. `φ⁻_af` keeps the `φ*_af` formulas that do **not** logically entail
//!    any sentence disjunct;
//! 5. `φ⁺ = φ⁻_af ∪ {sentence disjuncts}`.
//!
//! Theorem 3.1 (the equivalence theorem) states that counting for `{φ}`
//! and counting for `φ⁺` are interreducible; Theorem 3.2 reads the
//! trichotomy off the treewidth profile of `φ⁺`.

use crate::iex::{check_disjunct_limit, star, SignedPp};
use epq_logic::query::LogicError;
use epq_logic::{dnf, PpFormula, Query};
use epq_structures::Signature;

/// The full decomposition produced on the way to `φ⁺` (all intermediate
/// stages are exposed — the oracle reductions and the classifier need
/// them).
#[derive(Clone, Debug)]
pub struct PlusDecomposition {
    /// The normalized disjuncts of `φ`.
    pub disjuncts: Vec<PpFormula>,
    /// The free disjuncts (the all-free part `φ_af`).
    pub all_free: Vec<PpFormula>,
    /// The sentence disjuncts of `φ`.
    pub sentences: Vec<PpFormula>,
    /// `φ*_af`: signed, cancelled inclusion–exclusion terms of `φ_af`.
    pub star_af: Vec<SignedPp>,
    /// `kept[i]` ⇔ star term `i` belongs to `φ⁻_af` (it entails no
    /// sentence disjunct) — precomputed here so the counting hot path
    /// ([`crate::count`]) never rebuilds a lookup set per structure.
    /// [`PlusDecomposition::minus_af`] derives the index list from
    /// this single source of truth.
    pub kept: Vec<bool>,
    /// `φ⁺ = φ⁻_af ∪ sentences`.
    pub plus: Vec<PpFormula>,
}

impl PlusDecomposition {
    /// The `φ*_af` terms in `φ⁻_af` (those that do not entail any
    /// sentence disjunct) with their indices into `star_af`, derived
    /// from [`PlusDecomposition::kept`] without allocating.
    pub fn kept_terms(&self) -> impl Iterator<Item = (usize, &SignedPp)> + '_ {
        self.star_af
            .iter()
            .enumerate()
            .filter(|(i, _)| self.kept[*i])
    }

    /// Indices into `star_af` of the formulas in `φ⁻_af`.
    pub fn minus_af(&self) -> Vec<usize> {
        self.kept_terms().map(|(i, _)| i).collect()
    }

    /// The formulas of `φ⁻_af`.
    pub fn minus_af_formulas(&self) -> Vec<&PpFormula> {
        self.minus_af()
            .into_iter()
            .map(|i| &self.star_af[i].formula)
            .collect()
    }
}

/// Computes the `φ⁺` decomposition of a query (Theorem 3.1's algorithm).
/// Fails if the query does not match `signature`, or if its normalized
/// free disjuncts are too many to expand ([`check_disjunct_limit`]).
pub fn plus_decomposition(
    query: &Query,
    signature: &Signature,
) -> Result<PlusDecomposition, LogicError> {
    let disjuncts = dnf::normalize(dnf::disjuncts(query, signature)?);
    check_free_disjunct_limit(&disjuncts)?;
    Ok(plus_decomposition_of_normalized(disjuncts))
}

/// [`check_disjunct_limit`] on the free disjuncts, the ones `φ*_af`
/// expands.
pub(crate) fn check_free_disjunct_limit(disjuncts: &[PpFormula]) -> Result<(), LogicError> {
    check_disjunct_limit(disjuncts.iter().filter(|d| d.is_free()).count())
}

/// The `φ⁺` construction starting from already **normalized** disjuncts
/// (the output of [`dnf::normalize`]). [`crate::prepared`] uses this to
/// avoid re-expanding the DNF after computing a query's canonical cache
/// key from the same disjunct list.
///
/// # Panics
/// Panics if there are more free disjuncts than
/// [`crate::iex::MAX_IEX_DISJUNCTS`]; [`plus_decomposition`] and
/// [`crate::prepared::PreparedQuery::prepare`] check this first.
pub fn plus_decomposition_of_normalized(disjuncts: Vec<PpFormula>) -> PlusDecomposition {
    let (all_free, sentences): (Vec<PpFormula>, Vec<PpFormula>) =
        disjuncts.iter().cloned().partition(|d| d.is_free());
    let star_af = if all_free.is_empty() {
        Vec::new()
    } else {
        star(&all_free)
    };
    let kept: Vec<bool> = star_af
        .iter()
        .map(|term| !sentences.iter().any(|theta| term.formula.entails(theta)))
        .collect();
    let mut plus: Vec<PpFormula> = star_af
        .iter()
        .zip(&kept)
        .filter(|(_, &k)| k)
        .map(|(term, _)| term.formula.clone())
        .collect();
    plus.extend(sentences.iter().cloned());
    PlusDecomposition {
        disjuncts,
        all_free,
        sentences,
        star_af,
        kept,
        plus,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use epq_logic::parser::parse_query;

    fn decompose(text: &str) -> PlusDecomposition {
        let q = parse_query(text).unwrap();
        let sig = epq_logic::query::infer_signature([q.formula()]).unwrap();
        plus_decomposition(&q, &sig).unwrap()
    }

    /// Example 5.21: θ(V) = φ1 ∨ φ2 ∨ φ3 ∨ θ1 with V = {w,x,y,z},
    /// φ1 = E(x,y)∧E(y,z), φ2 = E(z,w)∧E(w,x), φ3 = E(w,x)∧E(x,y),
    /// θ1 = ∃a,b,c,d . E(a,b)∧E(b,c)∧E(c,d).
    fn example_5_21() -> PlusDecomposition {
        decompose(
            "(w,x,y,z) := (E(x,y) & E(y,z)) | (E(z,w) & E(w,x)) | (E(w,x) & E(x,y)) \
             | (exists a, b, c, d . E(a,b) & E(b,c) & E(c,d))",
        )
    }

    #[test]
    fn example_5_21_theta_plus() {
        let dec = example_5_21();
        // All four disjuncts survive normalization (θ1 maps into no free
        // disjunct *with pins*: the free disjuncts' structures contain a
        // directed 3-path? φ1 = x→y→z is a 2-path; θ1 needs a 3-path —
        // no hom. φ-pairs are not present as disjuncts.)
        assert_eq!(dec.disjuncts.len(), 4);
        assert_eq!(dec.all_free.len(), 3);
        assert_eq!(dec.sentences.len(), 1);
        // θ*_af = {φ1, φ1∧φ3} (Example 5.15).
        assert_eq!(dec.star_af.len(), 2);
        // φ1∧φ3 (the 3-path w→x→y→z) entails θ1; φ1 does not.
        assert_eq!(dec.minus_af().len(), 1, "θ⁻_af = {{φ1}}");
        let kept = &dec.star_af[dec.minus_af()[0]];
        assert_eq!(kept.formula.structure().tuple_count(), 2);
        // θ⁺ = {φ1, θ1}.
        assert_eq!(dec.plus.len(), 2);
        assert!(dec.plus[1].is_sentence());
    }

    #[test]
    fn pure_pp_query_has_singleton_plus() {
        let dec = decompose("E(x,y) & E(y,z)");
        assert_eq!(dec.disjuncts.len(), 1);
        assert_eq!(dec.sentences.len(), 0);
        assert_eq!(dec.plus.len(), 1);
    }

    #[test]
    fn pure_sentence_query() {
        let dec = decompose("exists a, b . E(a,b)");
        assert_eq!(dec.all_free.len(), 0);
        assert_eq!(dec.sentences.len(), 1);
        assert_eq!(dec.star_af.len(), 0);
        assert_eq!(dec.plus.len(), 1);
    }

    #[test]
    fn normalization_happens_before_split() {
        // A free disjunct subsumed by a sentence disjunct disappears:
        // (E(x,y) ∧ E(y,x)) ∨ ∃a,b (E(a,b) ∧ E(b,a)).
        let dec = decompose("(x, y) := (E(x,y) & E(y,x)) | (exists a, b . E(a,b) & E(b,a))");
        assert_eq!(dec.disjuncts.len(), 1);
        assert!(dec.all_free.is_empty());
        assert_eq!(dec.plus.len(), 1);
        assert!(dec.plus[0].is_sentence());
    }

    #[test]
    fn mixed_query_with_unrelated_sentence() {
        // E(x,y) ∨ ∃a F(a,a): the free part survives (no entailment
        // across different relations).
        let dec = decompose("(x, y) := E(x,y) | (exists a . F(a,a))");
        assert_eq!(dec.all_free.len(), 1);
        assert_eq!(dec.sentences.len(), 1);
        assert_eq!(dec.minus_af().len(), 1);
        assert_eq!(dec.plus.len(), 2);
    }

    #[test]
    fn kept_mask_drives_minus_af() {
        for text in [
            "(w,x,y,z) := (E(x,y) & E(y,z)) | (E(z,w) & E(w,x)) | (E(w,x) & E(x,y)) \
             | (exists a, b, c, d . E(a,b) & E(b,c) & E(c,d))",
            "(x, y) := E(x,y) | F(x,y) | (exists a, b . E(a,b) & F(a,b))",
            "E(x,y) & E(y,z)",
            "exists a, b . E(a,b)",
        ] {
            let dec = decompose(text);
            assert_eq!(dec.kept.len(), dec.star_af.len(), "{text}");
            for &i in &dec.minus_af() {
                assert!(dec.kept[i], "{text}");
            }
            assert_eq!(
                dec.minus_af().len(),
                dec.kept.iter().filter(|&&k| k).count(),
                "{text}"
            );
            assert_eq!(
                dec.minus_af_formulas().len(),
                dec.minus_af().len(),
                "{text}"
            );
        }
    }

    #[test]
    fn too_many_free_disjuncts_is_an_error_before_expanding() {
        // Five two-way clauses over distinct relations: 32 free
        // disjuncts, none normalized away.
        let text = (0..5)
            .map(|i| format!("(E{i}(x,y) | F{i}(x,y))"))
            .collect::<Vec<_>>()
            .join(" & ");
        let q = parse_query(&text).unwrap();
        let sig = epq_logic::query::infer_signature([q.formula()]).unwrap();
        let err = plus_decomposition(&q, &sig).unwrap_err();
        assert!(err.message.contains("32 disjuncts"), "{err}");
        assert!(err.message.contains("limit of 24"), "{err}");
        use crate::prepared::PreparedQuery;
        assert_eq!(PreparedQuery::prepare(&q, &sig).err(), Some(err.clone()));
        assert_eq!(PreparedQuery::prepare_uncached(&q, &sig).err(), Some(err));
    }

    #[test]
    fn entailing_star_terms_are_filtered() {
        // φ = E(x,y) ∨ F(x,y) ∨ ∃a,b (E(a,b) ∧ F(a,b)).
        // φ*_af = {E, F, E∧F}; E∧F (glued on x,y) entails the sentence
        // ∃a,b(E(a,b)∧F(a,b)) → φ⁻_af = {E, F}.
        let dec = decompose("(x, y) := E(x,y) | F(x,y) | (exists a, b . E(a,b) & F(a,b))");
        assert_eq!(dec.star_af.len(), 3);
        assert_eq!(dec.minus_af().len(), 2);
        assert_eq!(dec.plus.len(), 3);
    }
}
