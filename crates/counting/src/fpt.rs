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
//!    boundary `∂ ⊆ S`: the projection onto `∂` of the join of the
//!    component's atom scans, computed by variable elimination
//!    ([`epq_relalg::engine::eliminate`] with `keep = ∂`);
//! 3. gates on the liberal-free components: the same elimination with
//!    `keep = ∅`, where an empty result makes the whole count 0;
//! 4. counts assignments of `S` satisfying the liberal atoms plus the
//!    derived constraints by **sum-product variable elimination**
//!    ([`count_csp`]): the same [`eliminate`] run over bags, with every
//!    liberal variable eliminated, where a join multiplies multiplicities
//!    and dropping a variable sums them. A liberal variable in no
//!    constraint is a factor `|B|`.
//!
//! # Why step 2 stays FPT
//!
//! The elimination order comes from a tree decomposition of the
//! component's Gaifman graph with `∂` made a clique, and every
//! intermediate relation fits in one bag, so it has at most `|B|^(w+1)`
//! rows for the decomposition's width `w`. The component's Gaifman graph
//! is a subgraph of the core's, and adding `∂` to every bag of the core's
//! decomposition makes `∂` a clique, so `w ≤ tw(core) + |∂|`. The
//! boundary is a clique of contract(A, S), so `|∂| ≤ tw(contract) + 1`.
//! Each join and projection takes time polynomial in the rows of its
//! inputs and output, so step 2 costs `|B|^O(tw(core) + tw(contract))`
//! per component, and with both treewidths bounded by the condition the
//! running time is `f(φ) · poly(|B|)` — the FPT regime of Theorem
//! 3.2(1). (Past `epq_graph::treewidth::EXACT_VERTEX_LIMIT` vertices the
//! decomposition is heuristic; its width still depends on `φ` alone.)
//!
//! # Why step 4 stays FPT
//!
//! The constraints of step 4 are the liberal atoms and the boundaries
//! `∂`, each a clique of contract(A, S), and that is every edge: the
//! network's primal graph is the contract graph on the variables it
//! constrains. Its elimination order comes from a tree decomposition of
//! that graph, so the counting stage holds at most
//! `|B|^(tw(contract)+1)` rows at once (with an exact decomposition; a
//! heuristic one past the vertex limit gives its own width), and runs in
//! `|B|^O(tw(contract))` time. Its multiplicities are exact: `u128`
//! while they fit, [`Natural`] once a step overflows.

use crate::csp::count_csp;
use epq_bigint::Natural;
use epq_logic::contract::existential_components;
use epq_logic::PpFormula;
use epq_relalg::engine::{eliminate, scan_atom};
use epq_relalg::Relation;
use epq_structures::Structure;

/// Counts `|φ(B)|` with the FPT algorithm. Exact for *every* pp-formula;
/// fixed-parameter tractable when the tractability condition holds.
///
/// Up to `threads` workers share the joins of each ∃-component's
/// [`eliminate`] run and of the counting stage: each join's probe side is
/// split by row ranges, and the shards' rows are concatenated in range
/// order before one sort, so the result is identical at every thread
/// count.
pub fn count_pp_fpt(pp: &PpFormula, b: &Structure, threads: usize) -> Natural {
    let core = pp.core();
    let s = core.liberal_count();
    let structure = core.structure();
    let components = existential_components(&core);
    let component_of = |e: &u32| components.iter().position(|c| c.interior.contains(e));
    // Scan each atom once: a liberal atom is a constraint as it stands,
    // any other one joins its ∃-component's scans.
    let mut constraints: Vec<Relation> = Vec::new();
    let mut scans: Vec<Vec<Relation>> = vec![Vec::new(); components.len()];
    for (rel, _, _) in structure.signature().iter() {
        for atom in structure.relation(rel).tuples() {
            let scan = scan_atom(b, rel, atom);
            match atom.iter().find_map(component_of) {
                Some(i) => scans[i].push(scan),
                None => constraints.push(scan),
            }
        }
    }
    for (comp, scans) in components.iter().zip(scans) {
        // A quantified element in no atom is `∃u.⊤`, false on the empty
        // universe.
        if scans.is_empty() && b.universe_size() == 0 {
            return Natural::zero();
        }
        // The boundary assignments that extend into the interior; for a
        // sentence component, whether one (the empty one) does.
        let allowed = eliminate(scans, &comp.boundary, threads, &mut |_, _, _| {});
        if allowed.is_empty() {
            return Natural::zero();
        }
        if !comp.boundary.is_empty() {
            constraints.push(allowed);
        }
    }
    // Count over S by elimination along the contract graph.
    count_csp(s, b.universe_size(), constraints, threads)
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
