//! The FPT counting algorithm for pp-formulas (\[CM15\], the positive side
//! of the trichotomy).
//!
//! For a pp-formula `φ = (A, S)` the paper's Theorem 2.11 (quoting
//! [CM14a/CM15]) gives fixed-parameter tractability whenever the formula
//! set satisfies the *tractability condition*: cores and contract graphs
//! of bounded treewidth. The algorithm implemented here:
//!
//! 1. replaces `φ` by its **core** (logically equivalent, hence
//!    answer-preserving);
//! 2. turns each **∃-component** into a *derived constraint* over its
//!    boundary `∂ ⊆ S`: the set of boundary assignments that extend to a
//!    homomorphism of the component into **B**, computed by enumerating
//!    `|B|^|∂|` boundary tuples (∂ is a clique of contract(A, S), so its
//!    size is at most `tw(contract) + 1`) and checking each with a
//!    bounded-treewidth homomorphism DP ([`crate::csp::TdCounter`]);
//! 3. gates on the liberal-free components (plain satisfiability checks);
//! 4. counts assignments of `S` satisfying the liberal atoms plus the
//!    derived constraints by the counting DP over a tree decomposition of
//!    **contract(A, S)** — whose primal graph is exactly the contract
//!    graph, so bounded contract treewidth keeps the tables polynomial.
//!
//! With both treewidths bounded by the condition, the running time is
//! `f(φ) · poly(|B|)` — the FPT regime of Theorem 3.2(1).

use crate::brute::{assignment_space, for_each_assignment, for_each_assignment_in_range};
use crate::csp::{hom_constraints, CspConstraint, TdCounter};
use epq_bigint::Natural;
use epq_logic::contract::existential_components;
use epq_logic::PpFormula;
use epq_structures::Structure;
use std::collections::HashSet;

/// Counts `|φ(B)|` with the FPT algorithm. Exact for *every* pp-formula;
/// fixed-parameter tractable when the tractability condition holds.
///
/// Up to `threads` workers share its two hot loops (`1` runs inline):
///
/// * the per-∃-component **boundary enumeration** (`|B|^|∂|`
///   satisfiability probes against the component's homomorphism DP)
///   splits by contiguous ranges of the flat assignment order;
/// * the final **counting DP** over the contract graph shards each
///   node's table construction by sorted-order chunks of the child
///   table ([`TdCounter::count`]).
///
/// Both merges (set union of extendable boundary tuples; disjoint
/// unions / summed `Natural` partials) are order-insensitive, so the
/// result is identical at every thread count.
pub fn count_pp_fpt(pp: &PpFormula, b: &Structure, threads: usize) -> Natural {
    let core = pp.core();
    let s = core.liberal_count();
    let structure = core.structure();
    let universe = structure.universe_size();

    // Derived constraints per ∃-component, plus satisfiability gates for
    // the liberal-free ones.
    let mut constraints: Vec<CspConstraint> = Vec::new();
    for comp in existential_components(&core) {
        // The component substructure: interior ∪ boundary, with the atoms
        // touching the interior.
        let mut members: Vec<u32> = comp.boundary.clone();
        members.extend(comp.interior.iter().copied());
        let in_interior: HashSet<u32> = comp.interior.iter().copied().collect();
        let index_of = |e: u32| members.iter().position(|&m| m == e).unwrap() as u32;
        let mut sub = Structure::new(structure.signature().clone(), members.len());
        let mut scratch = Vec::new();
        for (rel, _, _) in structure.signature().iter() {
            for t in structure.relation(rel).tuples() {
                if t.iter().any(|e| in_interior.contains(e)) {
                    scratch.clear();
                    scratch.extend(t.iter().map(|&e| index_of(e)));
                    sub.add_tuple(rel, &scratch);
                }
            }
        }
        let domain = b.universe_size();
        let checker = TdCounter::new(sub.universe_size(), domain, hom_constraints(&sub, b));
        if comp.boundary.is_empty() {
            // A sentence component: satisfiable or the whole count is 0.
            if !checker.satisfiable(&[]) {
                return Natural::zero();
            }
            continue;
        }
        // Sweep the boundary assignments in contiguous ranges of the flat
        // assignment order, a few per worker (inline at one thread), and
        // keep the extendable ones. The constraint sorts and deduplicates
        // them, so the result does not depend on the split. A space past
        // `u128` (which no sweep finishes) is one unsplit range.
        let arity = comp.boundary.len();
        let ranges: Vec<Option<(u128, u128)>> = match assignment_space(domain, arity) {
            Some(total) => epq_pool::split_ranges(total, threads.saturating_mul(4))
                .into_iter()
                .map(Some)
                .collect(),
            None => vec![None],
        };
        let checker = &checker;
        let jobs: Vec<_> = ranges
            .into_iter()
            .map(|range| {
                move || {
                    let mut found = Vec::new();
                    let mut pins = Vec::with_capacity(arity);
                    let mut probe = |values: &[u32]| {
                        pins.clear();
                        pins.extend((0..arity as u32).zip(values.iter().copied()));
                        if checker.satisfiable(&pins) {
                            found.push(values.to_vec());
                        }
                    };
                    match range {
                        Some((start, end)) => {
                            for_each_assignment_in_range(domain, arity, start, end, &mut probe)
                        }
                        None => for_each_assignment(domain, arity, &mut probe),
                    }
                    found
                }
            })
            .collect();
        let allowed = epq_pool::run_jobs(threads, jobs).into_iter().flatten();
        constraints.push(CspConstraint::new(comp.boundary.clone(), allowed));
    }

    // Liberal atoms (entirely within S) become direct constraints.
    let mut liberal_structure = Structure::new(structure.signature().clone(), s.max(1));
    if s > 0 {
        for (rel, _, _) in structure.signature().iter() {
            for t in structure.relation(rel).tuples() {
                if t.iter().all(|&e| (e as usize) < s) {
                    liberal_structure.add_tuple(rel, t);
                }
            }
        }
        constraints.extend(hom_constraints(&liberal_structure, b));
    }

    // Dangling quantified variables (no atoms at all) need a nonempty
    // universe.
    if b.universe_size() == 0 && (s as u32..universe as u32).any(|v| !in_any_tuple(structure, v)) {
        return Natural::zero();
    }

    // Count over S by DP on (a tree decomposition of) the contract graph.
    TdCounter::new(s, b.universe_size(), constraints).count(&[], threads)
}

fn in_any_tuple(s: &Structure, v: u32) -> bool {
    for (rel, _, _) in s.signature().iter() {
        for t in s.relation(rel).tuples() {
            if t.contains(&v) {
                return true;
            }
        }
    }
    false
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::brute::count_pp_brute;
    use epq_logic::parser::parse_query;
    use epq_logic::query::infer_signature;
    use epq_structures::Signature;

    fn pp_of(text: &str) -> PpFormula {
        let q = parse_query(text).unwrap();
        let sig = infer_signature([q.formula()]).unwrap();
        PpFormula::from_query(&q, &sig).unwrap()
    }

    fn pp_of_with(text: &str, sig: &Signature) -> PpFormula {
        let q = parse_query(text).unwrap();
        PpFormula::from_query(&q, sig).unwrap()
    }

    fn example_c() -> Structure {
        let sig = Signature::from_symbols([("E", 2)]);
        let mut s = Structure::new(sig, 4);
        for (u, v) in [(0, 1), (1, 2), (2, 3), (3, 3)] {
            s.add_tuple_named("E", &[u, v]);
        }
        s
    }

    #[test]
    fn agrees_with_brute_force_on_basic_queries() {
        let b = example_c();
        for text in [
            "E(x,y)",
            "(x,y,z) := E(x,y)",
            "(x) := exists u . E(x,u)",
            "(x) := exists u . E(x,u) & E(u,u)",
            "E(x,y) & E(y,z)",
            "E(x,x)",
            "(x) := E(x,x) & (exists a, b . E(a,b))",
        ] {
            let pp = pp_of(text);
            assert_eq!(
                count_pp_fpt(&pp, &b, 1),
                count_pp_brute(&pp, &b),
                "query {text}"
            );
        }
    }

    #[test]
    fn quantified_star_queries() {
        // (x1,x2) := exists u . E(x1,u) & E(x2,u): pairs with a common
        // out-neighbor.
        let b = example_c();
        let pp = pp_of("(x1,x2) := exists u . E(x1,u) & E(x2,u)");
        assert_eq!(count_pp_fpt(&pp, &b, 1), count_pp_brute(&pp, &b));
        // Three liberal arms — boundary is a 3-clique in the contract.
        let pp3 = pp_of("(x1,x2,x3) := exists u . E(x1,u) & E(x2,u) & E(x3,u)");
        assert_eq!(count_pp_fpt(&pp3, &b, 1), count_pp_brute(&pp3, &b));
    }

    #[test]
    fn quantified_chain_bridging() {
        // (x,y) := exists u, v . E(x,u) & E(u,v) & E(v,y).
        let b = example_c();
        let pp = pp_of("(x,y) := exists u, v . E(x,u) & E(u,v) & E(v,y)");
        assert_eq!(count_pp_fpt(&pp, &b, 1), count_pp_brute(&pp, &b));
    }

    #[test]
    fn unsatisfiable_sentence_component_zeroes() {
        let sig = Signature::from_symbols([("E", 2), ("F", 2)]);
        let mut b = Structure::new(sig.clone(), 3);
        b.add_tuple_named("E", &[0, 1]);
        // F is empty: the sentence part kills the count.
        let pp = pp_of_with("(x) := E(x,x) & (exists a, b . F(a,b))", &sig);
        assert_eq!(count_pp_fpt(&pp, &b, 1).to_u64(), Some(0));
    }

    #[test]
    fn empty_universe_cases() {
        let sig = Signature::from_symbols([("E", 2)]);
        let empty = Structure::new(sig, 0);
        let pp = pp_of("E(x,y)");
        assert_eq!(count_pp_fpt(&pp, &empty, 1).to_u64(), Some(0));
        // Sentence query with liberal-free quantifier over empty universe.
        let pp2 = pp_of("exists a . E(a,a)");
        assert_eq!(count_pp_fpt(&pp2, &empty, 1).to_u64(), Some(0));
    }

    #[test]
    fn liberal_only_variables_contribute_powers() {
        let b = example_c();
        let pp = pp_of("(x,y,z,w) := E(x,y)");
        // 4 edges × 4² for z, w.
        assert_eq!(count_pp_fpt(&pp, &b, 1).to_u64(), Some(64));
    }

    #[test]
    fn coring_does_not_change_counts() {
        // φ(x) = ∃u,v . E(x,u) ∧ E(x,v): core is E(x,u). Count = vertices
        // with out-degree ≥ 1 = 4 on example_c.
        let b = example_c();
        let pp = pp_of("(x) := exists u, v . E(x,u) & E(x,v)");
        assert_eq!(count_pp_fpt(&pp, &b, 1).to_u64(), Some(4));
    }

    #[test]
    fn parallel_fpt_matches_sequential() {
        let b = example_c();
        for text in [
            "E(x,y)",
            "(x,y,z) := E(x,y)",
            "(x) := exists u . E(x,u) & E(u,u)",
            "(x1,x2) := exists u . E(x1,u) & E(x2,u)",
            "(x,y) := exists u, v . E(x,u) & E(u,v) & E(v,y)",
            "(x) := E(x,x) & (exists a, b . E(a,b))",
            "exists a . E(a,a)",
        ] {
            let pp = pp_of(text);
            let expected = count_pp_fpt(&pp, &b, 1);
            for threads in [2usize, 3, 8] {
                assert_eq!(
                    count_pp_fpt(&pp, &b, threads),
                    expected,
                    "query {text} at {threads} threads"
                );
            }
        }
    }

    #[test]
    fn parallel_fpt_on_empty_universe() {
        let sig = Signature::from_symbols([("E", 2)]);
        let empty = Structure::new(sig, 0);
        let pp = pp_of("(x) := exists u . E(x,u)");
        assert_eq!(count_pp_fpt(&pp, &empty, 4).to_u64(), Some(0));
    }

    #[test]
    fn larger_structure_cross_check() {
        // Random-ish handcrafted digraph, several query shapes.
        let sig = Signature::from_symbols([("E", 2)]);
        let mut b = Structure::new(sig, 6);
        for (u, v) in [
            (0, 1),
            (1, 2),
            (2, 0),
            (2, 3),
            (3, 4),
            (4, 5),
            (5, 3),
            (1, 4),
        ] {
            b.add_tuple_named("E", &[u, v]);
        }
        for text in [
            "(x,y) := exists u . E(x,u) & E(u,y)",
            "(x) := exists u, v . E(x,u) & E(x,v) & E(u,v)",
            "E(x,y) & E(y,z) & E(z,x)",
            "(x,y) := E(x,y) & (exists w . E(y,w))",
        ] {
            let pp = pp_of(text);
            assert_eq!(
                count_pp_fpt(&pp, &b, 1),
                count_pp_brute(&pp, &b),
                "query {text}"
            );
        }
    }
}
