//! Counting equivalence and semi-counting equivalence.
//!
//! **Theorem 5.4**: two pp-formulas are *counting equivalent* (same number
//! of answers on every finite structure) iff they are *renaming
//! equivalent*: there are surjections `h : S₁ → S₂` and `h′ : S₂ → S₁`
//! each extending to a homomorphism of the underlying structures. Since
//! counting equivalence forces `|S₁| = |S₂|` (Observation 5.5), the
//! surjections are bijections, and the check is a backtracking search
//! over liberal bijections with incremental homomorphism-extension
//! pruning.
//!
//! **Theorem 5.9**: two *free* pp-formulas are *semi-counting equivalent*
//! (equal counts whenever both counts are positive) iff their liberal
//! parts `φ̂` are counting equivalent.
//!
//! **Fingerprints.** When `φ₁` and `φ₂` are cores (of their augmented
//! structures, as [`PpFormula::core`] returns them), renaming equivalence
//! is an isomorphism that sends liberal elements onto liberal elements.
//! Let `h : A₁ → A₂` and `g : A₂ → A₁` be the homomorphisms extending the
//! two liberal bijections. `g∘h` permutes `S₁`, so a power of it fixes
//! `S₁` pointwise and is an endomorphism of the core `aug(A₁, S₁)`, hence
//! an automorphism. So `h` is injective, and by the same argument on
//! `h∘g` so is `g`. Injective homomorphisms both ways force equal
//! universes and equal tuple counts per relation, so `h` is a bijection
//! onto `A₂` that maps every relation onto its counterpart. Every
//! invariant of such isomorphisms, such as [`RenamingFingerprint`], is
//! therefore equal on counting-equivalent cores. Unequal fingerprints
//! rule a pair out without a search, but equal fingerprints prove
//! nothing: the bijection search still decides every pair that shares
//! one.
//!
//! The proof of Theorem 5.4 constructs blow-up structures `D_{j,T}` to
//! extract surjective-map counts by a Vandermonde argument; that
//! construction is implemented and validated here too ([`blow_up`],
//! [`count_extendable_maps`], [`count_surjective_extendable_maps`]).

use epq_bigint::{Integer, Natural};
use epq_logic::PpFormula;
use epq_structures::{hom, Structure};

/// An invariant of liberal-set-preserving isomorphism (see the module
/// docs). Equal on any two counting-equivalent **cores**, so it buckets
/// candidates for [`counting_equivalent`] without deciding anything.
/// The universe size, the liberal count and the per-relation tuple
/// counts are implied by the two multisets.
#[derive(Clone, PartialEq, Eq, Hash, Debug)]
pub struct RenamingFingerprint {
    /// Per tuple `(relation, shape)`, sorted. Position `p` of the shape
    /// holds the first position with the same element as `p`, and
    /// whether that element is liberal.
    tuples: Vec<(u32, Vec<(u32, bool)>)>,
    /// Per element `(is liberal, occurrences per relation position)`,
    /// sorted. Positions are numbered through the signature in order.
    elements: Vec<(bool, Vec<u32>)>,
}

/// The [`RenamingFingerprint`] of `core`. Only meaningful as a filter
/// when `core` is the output of [`PpFormula::core`].
pub fn renaming_fingerprint(core: &PpFormula) -> RenamingFingerprint {
    let structure = core.structure();
    let signature = structure.signature();
    let liberal = |e: u32| (e as usize) < core.liberal_count();
    let positions: usize = signature.iter().map(|(_, _, arity)| arity).sum();
    let mut elements: Vec<(bool, Vec<u32>)> = (0..structure.universe_size() as u32)
        .map(|e| (liberal(e), vec![0; positions]))
        .collect();
    let mut tuples = Vec::with_capacity(structure.tuple_count());
    let mut offset = 0;
    for (rel, _, arity) in signature.iter() {
        for t in structure.relation(rel).tuples() {
            let shape = (0..arity)
                .map(|p| {
                    let first = t[..p].iter().position(|&e| e == t[p]).unwrap_or(p);
                    (first as u32, liberal(t[p]))
                })
                .collect();
            tuples.push((rel.0, shape));
            for (p, &e) in t.iter().enumerate() {
                elements[e as usize].1[offset + p] += 1;
            }
        }
        offset += arity;
    }
    tuples.sort_unstable();
    elements.sort_unstable();
    RenamingFingerprint { tuples, elements }
}

/// Whether two pp-formulas are renaming equivalent (Definition 5.3):
/// bijections between the liberal sets extending to homomorphisms in both
/// directions.
pub fn renaming_equivalent(a: &PpFormula, b: &PpFormula) -> bool {
    if a.signature() != b.signature() {
        return false;
    }
    if a.liberal_count() != b.liberal_count() {
        return false;
    }
    liberal_bijection_extends(a, b) && liberal_bijection_extends(b, a)
}

/// Whether some bijection `S_a → S_b` extends to a homomorphism
/// `A → B` (liberal elements are `0..s` on both sides).
fn liberal_bijection_extends(a: &PpFormula, b: &PpFormula) -> bool {
    let s = a.liberal_count();
    // Fast path: no liberal variables — plain homomorphism existence.
    if s == 0 {
        return hom::homomorphism_exists(a.structure(), b.structure());
    }
    let mut assignment: Vec<u32> = Vec::with_capacity(s);
    let mut used = vec![false; s];
    search_bijection(a, b, &mut assignment, &mut used)
}

fn search_bijection(
    a: &PpFormula,
    b: &PpFormula,
    assignment: &mut Vec<u32>,
    used: &mut Vec<bool>,
) -> bool {
    let s = a.liberal_count();
    if assignment.len() == s {
        return true; // pruning already established extendability
    }
    let i = assignment.len() as u32;
    for j in 0..s as u32 {
        if used[j as usize] {
            continue;
        }
        assignment.push(j);
        used[j as usize] = true;
        // Incremental pruning: the partial bijection must itself extend.
        let pins: Vec<(u32, u32)> = assignment
            .iter()
            .enumerate()
            .map(|(x, &y)| (x as u32, y))
            .collect();
        let feasible = hom::homomorphism_exists_pinned(a.structure(), b.structure(), &pins);
        if feasible && search_bijection(a, b, assignment, used) {
            return true;
        }
        assignment.pop();
        used[j as usize] = false;
        let _ = i;
    }
    false
}

/// Whether two pp-formulas are counting equivalent — decided via
/// Theorem 5.4 (counting equivalence = renaming equivalence).
pub fn counting_equivalent(a: &PpFormula, b: &PpFormula) -> bool {
    renaming_equivalent(a, b)
}

/// Whether two free pp-formulas are semi-counting equivalent — decided
/// via Theorem 5.9 (`φ̂` counting equivalence).
pub fn semi_counting_equivalent(a: &PpFormula, b: &PpFormula) -> bool {
    counting_equivalent(&a.hat(), &b.hat())
}

/// Empirically tests counting equivalence on a battery of structures
/// (used to validate Theorem 5.4's procedure in tests; *not* a decision
/// procedure).
pub fn empirically_counting_equivalent(
    a: &PpFormula,
    b: &PpFormula,
    battery: &[Structure],
) -> bool {
    battery.iter().all(|s| {
        epq_counting::brute::count_pp_brute(a, s) == epq_counting::brute::count_pp_brute(b, s)
    })
}

/// The blow-up structure `D_{j,T}` from the proof of Theorem 5.4: every
/// element of `t_set` is replaced by `j` interchangeable copies, and
/// relations are lifted through the copy map.
///
/// Homomorphism counts into `D_{j,T}` stratify by how many of a map's
/// distinguished images land in `T`:
/// `|hom(A, D_{j,T})| = Σ_i j^i · |hom_{i,T}(A, B)|` — the Vandermonde
/// identity validated in this module's tests.
pub fn blow_up(b: &Structure, t_set: &[u32], j: usize) -> Structure {
    assert!(j >= 1, "blow-up factor must be at least 1");
    let in_t = |e: u32| t_set.contains(&e);
    // New universe: for each element of T, j copies; others, one.
    let mut first_copy = Vec::with_capacity(b.universe_size());
    let mut total = 0u32;
    for e in 0..b.universe_size() as u32 {
        first_copy.push(total);
        total += if in_t(e) { j as u32 } else { 1 };
    }
    let copies = |e: u32| -> Vec<u32> {
        let base = first_copy[e as usize];
        if in_t(e) {
            (base..base + j as u32).collect()
        } else {
            vec![base]
        }
    };
    let mut out = Structure::new(b.signature().clone(), total as usize);
    let mut stack_tuple = Vec::new();
    for (rel, _, arity) in b.signature().iter() {
        for t in b.relation(rel).tuples() {
            // Cartesian product of per-position copy sets.
            let choices: Vec<Vec<u32>> = t.iter().map(|&e| copies(e)).collect();
            let mut indices = vec![0usize; arity];
            loop {
                stack_tuple.clear();
                stack_tuple.extend((0..arity).map(|p| choices[p][indices[p]]));
                out.add_tuple(rel, &stack_tuple);
                // Odometer.
                let mut p = 0;
                loop {
                    if p == arity {
                        break;
                    }
                    indices[p] += 1;
                    if indices[p] < choices[p].len() {
                        break;
                    }
                    indices[p] = 0;
                    p += 1;
                }
                if p == arity {
                    break;
                }
            }
        }
    }
    out
}

/// Counts maps `f : S_a → B` extending to homomorphisms `A → B`
/// (i.e. `|φ_a(B)|` — answer counting restated; brute force).
pub fn count_extendable_maps(a: &PpFormula, b: &Structure) -> Natural {
    epq_counting::brute::count_pp_brute(a, b)
}

/// Counts maps `f : S_a → S_target ⊆ B` that are **surjective onto**
/// `targets` and extend to homomorphisms — the quantity
/// `|surj(A, B, S)|` at the heart of Theorem 5.4's proof. Brute force.
pub fn count_surjective_extendable_maps(a: &PpFormula, b: &Structure, targets: &[u32]) -> Natural {
    let s = a.liberal_count();
    let mut count = Natural::zero();
    let one = Natural::one();
    epq_counting::brute::for_each_assignment(b.universe_size(), s, &mut |values| {
        let onto = targets.iter().all(|t| values.iter().any(|v| v == t));
        let within = values.iter().all(|v| targets.contains(v));
        if onto && within && a.satisfied_by(b, values) {
            count += &one;
        }
    });
    count
}

/// The stratified counts `hom_{i,T}(A, B, S)` for i = 0, …, |S| —
/// extendable maps `f : S → B` sending *exactly* `i` liberal variables
/// into `t_set` — recovered **only** from the answer counts
/// `|φ(D_{j,T})|` on blow-up structures, exactly as in the proof of
/// Theorem 5.4: `|φ(D_{j,T})| = Σ_i jⁱ · hom_{i,T}`, a Vandermonde
/// system over j = 1, …, |S|+1.
pub fn stratified_counts_via_blow_ups(
    phi: &PpFormula,
    b: &Structure,
    t_set: &[u32],
    count_on: &mut dyn FnMut(&Structure) -> Natural,
) -> Vec<Natural> {
    use epq_bigint::Rational;
    let s = phi.liberal_count();
    // |φ(D_{j,T})| = Σ_i hom_{i,T} · jⁱ is a polynomial in j of degree
    // ≤ |S| whose coefficients are the strata — interpolate through
    // j = 1, …, |S|+1 with exact rational arithmetic.
    let points: Vec<(Rational, Rational)> = (1..=s + 1)
        .map(|j| {
            let d = blow_up(b, t_set, j);
            (
                Rational::from(j as i64),
                Rational::from(Integer::from(count_on(&d))),
            )
        })
        .collect();
    let coefficients =
        epq_bigint::linalg::interpolate_polynomial(&points).expect("distinct j values interpolate");
    coefficients
        .into_iter()
        .map(|c| {
            let int = c.to_integer().expect("stratified counts are integers");
            assert!(!int.is_negative(), "stratified counts are non-negative");
            int.into_magnitude()
        })
        .collect()
}

/// Surjective-map counting through the blow-up oracle (the full
/// Theorem 5.4 pipeline): inclusion–exclusion over `T ⊆ targets` of the
/// all-inside-`T` strata,
/// `|surj| = Σ_{T⊆targets} (−1)^{|targets∖T|} · hom_{|S|,T}`.
pub fn count_surjective_via_blow_ups(phi: &PpFormula, b: &Structure, targets: &[u32]) -> Natural {
    let s = phi.liberal_count();
    let mut total = Integer::zero();
    let k = targets.len();
    for mask in 0u32..(1 << k) {
        let t_subset: Vec<u32> = (0..k)
            .filter(|&i| mask & (1 << i) != 0)
            .map(|i| targets[i])
            .collect();
        // hom_{|S|,T}: all liberal variables inside T. The blow-up oracle
        // here is direct counting; swap in any |φ(·)| oracle.
        let mut oracle = |d: &Structure| epq_counting::brute::count_pp_brute(phi, d);
        let strata = stratified_counts_via_blow_ups(phi, b, &t_subset, &mut oracle);
        let all_inside = strata.get(s).cloned().unwrap_or_else(Natural::zero);
        let sign = if (k - t_subset.len()) % 2 == 0 { 1 } else { -1 };
        total += &(&Integer::from(sign) * &Integer::from(all_inside));
    }
    assert!(
        !total.is_negative(),
        "surjection count must be non-negative"
    );
    total.into_magnitude()
}

#[cfg(test)]
mod tests {
    use super::*;
    use epq_logic::parser::parse_query;
    use epq_logic::query::infer_signature;
    use epq_logic::Formula;
    use epq_structures::Signature;

    fn pp_of(text: &str) -> PpFormula {
        let q = parse_query(text).unwrap();
        let sig = infer_signature([q.formula()]).unwrap();
        PpFormula::from_query(&q, &sig).unwrap()
    }

    fn pp_with(text: &str, sig: &Signature) -> PpFormula {
        let q = parse_query(text).unwrap();
        PpFormula::from_query(&q, sig).unwrap()
    }

    fn battery() -> Vec<Structure> {
        let sig = Signature::from_symbols([("E", 2)]);
        let mut out = Vec::new();
        let edge_sets: [&[(u32, u32)]; 5] = [
            &[(0, 1), (1, 2), (2, 3), (3, 3)],
            &[(0, 0)],
            &[(0, 1), (1, 0)],
            &[(0, 1), (1, 2), (2, 0)],
            &[(0, 1), (0, 2), (1, 2)],
        ];
        for (i, edges) in edge_sets.iter().enumerate() {
            let n = 2
                + (i + 2) % 3
                + edges.iter().flat_map(|&(a, b)| [a, b]).max().unwrap_or(0) as usize;
            let mut s = Structure::new(sig.clone(), n);
            for &(u, v) in *edges {
                s.add_tuple_named("E", &[u, v]);
            }
            out.push(s);
        }
        out
    }

    #[test]
    fn example_5_2_renamed_formulas_are_counting_equivalent() {
        // φ1(x,y) = E(x,y) and φ2(w,z) = E(w,z).
        let phi1 = pp_of("E(x,y)");
        let phi2 = pp_of("E(w,z)");
        assert!(counting_equivalent(&phi1, &phi2));
        assert!(empirically_counting_equivalent(&phi1, &phi2, &battery()));
    }

    #[test]
    fn different_liberal_counts_are_never_equivalent() {
        let phi1 = pp_of("E(x,y)");
        let phi2 = pp_of("(x,y,z) := E(x,y)");
        assert!(!counting_equivalent(&phi1, &phi2));
    }

    #[test]
    fn direction_asymmetry_is_detected() {
        // E(x,y) vs E(y,x): counting equivalent (rename swaps).
        let a = pp_of("E(x,y)");
        let b = pp_of("E(y,x)");
        assert!(counting_equivalent(&a, &b));
        // E(x,y) vs E(x,y) & E(y,x): not equivalent.
        let c = pp_of("E(x,y) & E(y,x)");
        assert!(!counting_equivalent(&a, &c));
        assert!(!empirically_counting_equivalent(&a, &c, &battery()));
    }

    #[test]
    fn example_4_2_paths_are_counting_equivalent() {
        // φ1 = E(x,y) ∧ E(y,z), φ2 = E(z,w) ∧ E(w,x), φ3 = E(w,x) ∧ E(x,y),
        // all with V = {w,x,y,z}: pairwise counting equivalent.
        let phi1 = pp_of("(w,x,y,z) := E(x,y) & E(y,z)");
        let phi2 = pp_of("(w,x,y,z) := E(z,w) & E(w,x)");
        let phi3 = pp_of("(w,x,y,z) := E(w,x) & E(x,y)");
        assert!(counting_equivalent(&phi1, &phi2));
        assert!(counting_equivalent(&phi2, &phi3));
        assert!(counting_equivalent(&phi1, &phi3));
        // And the pair conjunctions from the example:
        let c13 = PpFormula::conjoin(&[&phi1, &phi3]);
        let c23 = PpFormula::conjoin(&[&phi2, &phi3]);
        assert!(counting_equivalent(&c13, &c23));
        let c12 = PpFormula::conjoin(&[&phi1, &phi2]);
        assert!(!counting_equivalent(&c12, &c13));
    }

    #[test]
    fn theorem_5_4_agrees_with_empirical_on_curated_pairs() {
        let pairs = [
            ("E(x,y)", "E(a,b)", true),
            ("E(x,y) & E(y,z)", "E(a,b) & E(b,c)", true),
            ("E(x,y) & E(y,z)", "E(a,b) & E(a,c)", false),
            ("(x) := exists u . E(x,u)", "(y) := exists v . E(y,v)", true),
            (
                "(x) := exists u . E(x,u)",
                "(y) := exists v . E(v,y)",
                false,
            ),
            ("E(x,x)", "E(y,y)", true),
        ];
        for (ta, tb, expected) in pairs {
            let a = pp_of(ta);
            let b = pp_of(tb);
            assert_eq!(counting_equivalent(&a, &b), expected, "{ta} vs {tb}");
            if !expected {
                assert!(
                    !empirically_counting_equivalent(&a, &b, &battery()),
                    "battery should separate {ta} and {tb}"
                );
            } else {
                assert!(empirically_counting_equivalent(&a, &b, &battery()));
            }
        }
    }

    #[test]
    fn example_5_7_semi_counting_equivalence() {
        // φ1(x,y) = E(x,y), φ2(x,y) = ∃z (E(x,y) ∧ F(z)): semi-counting
        // equivalent but not counting equivalent.
        let sig = Signature::from_symbols([("E", 2), ("F", 1)]);
        let phi1 = pp_with("E(x,y)", &sig);
        let phi2 = pp_with("(x,y) := exists z . E(x,y) & F(z)", &sig);
        assert!(semi_counting_equivalent(&phi1, &phi2));
        assert!(!counting_equivalent(&phi1, &phi2));
        // Empirically: on a structure with empty F they differ.
        let mut b = Structure::new(sig.clone(), 2);
        b.add_tuple_named("E", &[0, 1]);
        assert!(!empirically_counting_equivalent(&phi1, &phi2, &[b.clone()]));
        // With F nonempty they agree.
        let mut b2 = b.clone();
        b2.add_tuple_named("F", &[0]);
        assert!(empirically_counting_equivalent(&phi1, &phi2, &[b2]));
    }

    #[test]
    fn semi_counting_equivalence_is_weaker() {
        // Any counting-equivalent pair is semi-counting equivalent.
        let a = pp_of("E(x,y) & E(y,z)");
        let b = pp_of("E(a,b) & E(b,c)");
        assert!(counting_equivalent(&a, &b));
        assert!(semi_counting_equivalent(&a, &b));
    }

    #[test]
    fn blow_up_structure_shape() {
        let sig = Signature::from_symbols([("E", 2)]);
        let mut b = Structure::new(sig, 3);
        b.add_tuple_named("E", &[0, 1]);
        b.add_tuple_named("E", &[1, 2]);
        // Blow element 1 into 3 copies.
        let d = blow_up(&b, &[1], 3);
        assert_eq!(d.universe_size(), 5);
        // (0,1) lifts to 3 tuples; (1,2) lifts to 3 tuples.
        assert_eq!(d.tuple_count(), 6);
    }

    #[test]
    fn blow_up_vandermonde_identity() {
        // |hom(A, D_{j,T})| = Σ_i j^i |hom_{i,T}(A, B)| where hom_{i,T}
        // counts homs sending exactly i elements of A into T.
        use epq_structures::hom::count_homomorphisms;
        let sig = Signature::from_symbols([("E", 2)]);
        let mut b = Structure::new(sig.clone(), 3);
        for (u, v) in [(0, 1), (1, 2), (2, 0), (1, 1)] {
            b.add_tuple_named("E", &[u, v]);
        }
        let mut a = Structure::new(sig, 2);
        a.add_tuple_named("E", &[0, 1]);
        let t_set = [1u32, 2u32];
        for j in 1..=3usize {
            let d = blow_up(&b, &t_set, j);
            let lhs = count_homomorphisms(&a, &d);
            // Brute-force stratified counts on B.
            let mut rhs = Natural::zero();
            epq_counting::brute::for_each_assignment(3, 2, &mut |values| {
                if b.has_tuple(b.signature().lookup("E").unwrap(), values) {
                    let i = values.iter().filter(|v| t_set.contains(v)).count();
                    rhs += &Natural::from(j as u64).pow(i as u32);
                }
            });
            assert_eq!(lhs, rhs, "j = {j}");
        }
    }

    #[test]
    fn stratified_counts_recovered_from_blow_ups_match_brute_force() {
        // Theorem 5.4's proof pipeline: hom_{i,T} from |φ(D_{j,T})| only.
        let sig = Signature::from_symbols([("E", 2)]);
        let phi = pp_with("E(x,y)", &sig);
        let mut b = Structure::new(sig, 3);
        for (u, v) in [(0, 1), (1, 2), (2, 0), (1, 1)] {
            b.add_tuple_named("E", &[u, v]);
        }
        let t_set = [1u32, 2u32];
        let mut oracle = |d: &Structure| epq_counting::brute::count_pp_brute(&phi, d);
        let strata = stratified_counts_via_blow_ups(&phi, &b, &t_set, &mut oracle);
        assert_eq!(strata.len(), 3); // i = 0, 1, 2
                                     // Brute-force stratified counts.
        let mut expected = vec![Natural::zero(); 3];
        epq_counting::brute::for_each_assignment(3, 2, &mut |values| {
            if phi.satisfied_by(&b, values) {
                let i = values.iter().filter(|v| t_set.contains(v)).count();
                expected[i] += &Natural::one();
            }
        });
        assert_eq!(strata, expected);
        // Sanity: total over strata = |φ(B)|.
        let total = strata
            .iter()
            .fold(Natural::zero(), |acc, x| acc + x.clone());
        assert_eq!(total, epq_counting::brute::count_pp_brute(&phi, &b));
    }

    #[test]
    fn surjective_counts_via_blow_ups_match_direct() {
        let sig = Signature::from_symbols([("E", 2)]);
        let mut b = Structure::new(sig.clone(), 3);
        for (u, v) in [(0, 1), (1, 2), (2, 0), (1, 1)] {
            b.add_tuple_named("E", &[u, v]);
        }
        for text in ["E(x,y)", "E(x,y) & E(y,z)", "(x, y) := E(x,y) & E(y,y)"] {
            let phi = pp_with(text, &sig);
            for targets in [vec![0u32, 1], vec![1, 2], vec![0, 1, 2], vec![1]] {
                let via_oracle = count_surjective_via_blow_ups(&phi, &b, &targets);
                let direct = count_surjective_extendable_maps(&phi, &b, &targets);
                assert_eq!(via_oracle, direct, "{text} onto {targets:?}");
            }
        }
    }

    #[test]
    fn surjective_count_nonzero_for_identity() {
        let a = pp_of("E(x,y)");
        // On a structure where E = {(0,1)}, the map x→0,y→1 is onto {0,1}.
        let sig = Signature::from_symbols([("E", 2)]);
        let mut b = Structure::new(sig, 2);
        b.add_tuple_named("E", &[0, 1]);
        assert_eq!(
            count_surjective_extendable_maps(&a, &b, &[0, 1]).to_u64(),
            Some(1)
        );
        assert_eq!(
            count_surjective_extendable_maps(&a, &b, &[0]).to_u64(),
            Some(0)
        );
    }

    #[test]
    fn equivalence_with_quantified_parts() {
        // ∃u E(x,u) ∧ E(u,y) vs renamed copy.
        let a = pp_of("(x,y) := exists u . E(x,u) & E(u,y)");
        let b = pp_of("(p,q) := exists m . E(p,m) & E(m,q)");
        assert!(counting_equivalent(&a, &b));
        // vs the reversed middle: not equivalent.
        let c = pp_of("(x,y) := exists u . E(u,x) & E(u,y)");
        assert!(!counting_equivalent(&a, &c));
    }

    use epq_logic::Var;
    #[test]
    fn sentences_equivalence() {
        // Sentences with the same liberal set: equivalence = mutual homs.
        let s1 = Formula::exists(&["a", "b"], Formula::atom("E", &["a", "b"]));
        let s2 = Formula::exists(&["c", "d", "e"], {
            Formula::atom("E", &["c", "d"]).and(Formula::atom("E", &["d", "e"]))
        });
        let sig = Signature::from_symbols([("E", 2)]);
        let q1 = epq_logic::Query::new(s1, [Var::new("x")]).unwrap();
        let q2 = epq_logic::Query::new(s2, [Var::new("x")]).unwrap();
        let p1 = PpFormula::from_query(&q1, &sig).unwrap();
        let p2 = PpFormula::from_query(&q2, &sig).unwrap();
        // ∃ edge vs ∃ path of length 2: not counting equivalent (a
        // structure with an edge but no 2-path separates them).
        assert!(!counting_equivalent(&p1, &p2));
    }
}
