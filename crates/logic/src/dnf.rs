//! Disjunctive form and normalization of ep-formulas.
//!
//! Every ep-formula is equivalent to a *disjunctive* ep-formula — a
//! disjunction of prenex pp-formulas sharing the outer liberal set
//! (Section 2.1). [`disjuncts`] performs that rewriting; [`normalize`]
//! implements the paper's normalization (no sentence disjunct has a
//! homomorphism into any other disjunct), and [`minimize_ucq`] is the
//! classical stronger UCQ minimization (no disjunct entails another),
//! which the paper's constructions remain correct under.

use crate::formula::Formula;
use crate::pp::PpFormula;
use crate::query::{LogicError, Query};
use epq_structures::Signature;

/// Rewrites a query into its list of prenex pp disjuncts, each carrying
/// the query's full liberal variable set.
///
/// The number of disjuncts can be exponential in the nesting of ∧ over ∨;
/// this is inherent to the disjunctive form (the formula is the
/// *parameter* in the parameterized problems studied).
pub fn disjuncts(query: &Query, signature: &Signature) -> Result<Vec<PpFormula>, LogicError> {
    let pieces = dnf_pieces(query.formula());
    pieces
        .into_iter()
        .map(|piece| {
            let sub = Query::new(piece, query.liberal().to_vec())?;
            PpFormula::from_query(&sub, signature)
        })
        .collect()
}

/// Recursively lifts disjunction to the top: returns pp formula trees
/// whose disjunction is equivalent to `f`.
fn dnf_pieces(f: &Formula) -> Vec<Formula> {
    match f {
        Formula::Top | Formula::Atom(_) => vec![f.clone()],
        Formula::Or(l, r) => {
            let mut out = dnf_pieces(l);
            out.extend(dnf_pieces(r));
            out
        }
        Formula::And(l, r) => {
            let ls = dnf_pieces(l);
            let rs = dnf_pieces(r);
            let mut out = Vec::with_capacity(ls.len() * rs.len());
            for a in &ls {
                for b in &rs {
                    out.push(a.clone().and(b.clone()));
                }
            }
            out
        }
        // ∃x (α ∨ β) ≡ ∃x α ∨ ∃x β.
        Formula::Exists(v, body) => dnf_pieces(body)
            .into_iter()
            .map(|piece| Formula::Exists(v.clone(), Box::new(piece)))
            .collect(),
    }
}

/// The paper's normalization (Section 2.1): repeatedly drop any disjunct
/// that a *sentence* disjunct maps into (i.e. any disjunct entailing a
/// sentence disjunct), keeping the earliest among equivalent sentence
/// disjuncts. The result is logically equivalent to the input disjunction.
pub fn normalize(disjuncts: Vec<PpFormula>) -> Vec<PpFormula> {
    // Each kept disjunct with whether it is a sentence, so the scans
    // below test that once per disjunct rather than once per pair.
    let mut kept: Vec<(PpFormula, bool)> = Vec::new();
    'candidate: for candidate in disjuncts {
        // Skip the candidate if an existing sentence disjunct subsumes it.
        for (existing, sentence) in &kept {
            if *sentence && candidate.entails(existing) {
                continue 'candidate;
            }
        }
        // If the candidate is a sentence, drop all existing disjuncts it
        // subsumes.
        let sentence = candidate.is_sentence();
        if sentence {
            kept.retain(|(existing, _)| !existing.entails(&candidate));
        }
        kept.push((candidate, sentence));
    }
    kept.into_iter().map(|(disjunct, _)| disjunct).collect()
}

/// Full UCQ minimization: drops every disjunct that entails another
/// (answers of an entailing disjunct are contained in the entailed one's),
/// keeping the earliest among logically equivalent disjuncts. Strictly
/// stronger than [`normalize`]; the disjunction's answer set is unchanged.
pub fn minimize_ucq(disjuncts: Vec<PpFormula>) -> Vec<PpFormula> {
    let n = disjuncts.len();
    let mut drop = vec![false; n];
    for i in 0..n {
        if drop[i] {
            continue;
        }
        for j in 0..n {
            if i == j || drop[j] {
                continue;
            }
            if disjuncts[i].entails(&disjuncts[j]) {
                // answers(i) ⊆ answers(j): i is redundant — unless they are
                // equivalent and i comes first (then drop j instead, later).
                if disjuncts[j].entails(&disjuncts[i]) && i < j {
                    continue;
                }
                drop[i] = true;
                break;
            }
        }
    }
    disjuncts
        .into_iter()
        .zip(drop)
        .filter_map(|(d, dropped)| (!dropped).then_some(d))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::formula::Var;
    use crate::query::infer_signature;

    fn query(liberal: &[&str], f: Formula) -> (Query, Signature) {
        let sig = infer_signature([&f]).unwrap();
        let q = Query::new(f, liberal.iter().map(|&v| Var::new(v))).unwrap();
        (q, sig)
    }

    /// Example 4.1: φ(w,x,y,z) = E(x,y) ∧ (E(w,x) ∨ (E(y,z) ∧ E(z,z))).
    fn example_4_1() -> (Query, Signature) {
        let f = Formula::atom("E", &["x", "y"]).and(
            Formula::atom("E", &["w", "x"])
                .or(Formula::atom("E", &["y", "z"]).and(Formula::atom("E", &["z", "z"]))),
        );
        query(&["w", "x", "y", "z"], f)
    }

    #[test]
    fn example_4_1_lifts_to_two_disjuncts() {
        let (q, sig) = example_4_1();
        let ds = disjuncts(&q, &sig).unwrap();
        assert_eq!(ds.len(), 2);
        // φ1 = E(x,y) ∧ E(w,x); φ2 = E(x,y) ∧ E(y,z) ∧ E(z,z).
        assert_eq!(ds[0].structure().tuple_count(), 2);
        assert_eq!(ds[1].structure().tuple_count(), 3);
        for d in &ds {
            assert_eq!(d.liberal_count(), 4);
        }
    }

    #[test]
    fn exists_distributes_over_or() {
        // ∃u (E(x,u) ∨ E(u,x)) → two disjuncts each with the quantifier.
        let f = Formula::exists(
            &["u"],
            Formula::atom("E", &["x", "u"]).or(Formula::atom("E", &["u", "x"])),
        );
        let (q, sig) = query(&["x"], f);
        let ds = disjuncts(&q, &sig).unwrap();
        assert_eq!(ds.len(), 2);
        for d in &ds {
            assert_eq!(d.quantified_names().len(), 1);
            assert_eq!(d.structure().tuple_count(), 1);
        }
    }

    #[test]
    fn and_over_or_multiplies() {
        // (a ∨ b) ∧ (c ∨ d) → 4 disjuncts.
        let f = (Formula::atom("A", &["x"]).or(Formula::atom("B", &["x"])))
            .and(Formula::atom("C", &["x"]).or(Formula::atom("D", &["x"])));
        let (q, sig) = query(&["x"], f);
        assert_eq!(disjuncts(&q, &sig).unwrap().len(), 4);
    }

    #[test]
    fn normalization_drops_disjuncts_subsumed_by_sentences() {
        // θ1 = ∃a,b,c,d . E(a,b) ∧ E(b,c) ∧ E(c,d) (a sentence disjunct);
        // ψ = E(x,y) ∧ E(y,z) ∧ E(z,w) entails θ1 → ψ dropped.
        let sentence = Formula::exists(
            &["a", "b", "c", "d"],
            Formula::conjunction([
                Formula::atom("E", &["a", "b"]),
                Formula::atom("E", &["b", "c"]),
                Formula::atom("E", &["c", "d"]),
            ]),
        );
        let psi = Formula::conjunction([
            Formula::atom("E", &["x", "y"]),
            Formula::atom("E", &["y", "z"]),
            Formula::atom("E", &["z", "w"]),
        ]);
        let f = sentence.or(psi);
        let (q, sig) = query(&["w", "x", "y", "z"], f);
        let ds = disjuncts(&q, &sig).unwrap();
        assert_eq!(ds.len(), 2);
        let normalized = normalize(ds);
        assert_eq!(normalized.len(), 1);
        assert!(normalized[0].is_sentence());
    }

    #[test]
    fn normalization_keeps_incomparable_disjuncts() {
        // E(x,y) ∨ F(x,y): nothing to drop.
        let f = Formula::atom("E", &["x", "y"]).or(Formula::atom("F", &["x", "y"]));
        let (q, sig) = query(&["x", "y"], f);
        let ds = disjuncts(&q, &sig).unwrap();
        assert_eq!(normalize(ds).len(), 2);
    }

    #[test]
    fn normalization_dedupes_equivalent_sentences() {
        // Two logically equivalent sentence disjuncts → one survives.
        let s1 = Formula::exists(&["a", "b"], Formula::atom("E", &["a", "b"]));
        let s2 = Formula::exists(&["c", "d"], Formula::atom("E", &["c", "d"]));
        let f = s1.or(s2);
        let (q, sig) = query(&["x"], f);
        let ds = disjuncts(&q, &sig).unwrap();
        assert_eq!(ds.len(), 2);
        assert_eq!(normalize(ds).len(), 1);
    }

    #[test]
    fn minimize_ucq_drops_entailing_disjuncts() {
        // (E(x,y) ∧ E(y,x)) ∨ E(x,y): the first entails the second.
        let strong = Formula::atom("E", &["x", "y"]).and(Formula::atom("E", &["y", "x"]));
        let weak = Formula::atom("E", &["x", "y"]);
        let f = strong.or(weak);
        let (q, sig) = query(&["x", "y"], f);
        let ds = disjuncts(&q, &sig).unwrap();
        // normalize keeps both (no sentences); minimize drops the strong one.
        assert_eq!(normalize(ds.clone()).len(), 2);
        let minimized = minimize_ucq(ds);
        assert_eq!(minimized.len(), 1);
        assert_eq!(minimized[0].structure().tuple_count(), 1);
    }

    #[test]
    fn minimize_ucq_keeps_one_of_equivalent_pair() {
        // E(x,y) ∨ E(x,y) (syntactic duplicate).
        let f = Formula::atom("E", &["x", "y"]).or(Formula::atom("E", &["x", "y"]));
        let (q, sig) = query(&["x", "y"], f);
        let ds = disjuncts(&q, &sig).unwrap();
        assert_eq!(minimize_ucq(ds).len(), 1);
    }
}
