//! Counting the solutions of a constraint network by sum-product
//! variable elimination.
//!
//! A network has variables `0..variables` over the domain `0..domain`
//! and one constraint per [`Relation`]: its schema is the constraint's
//! scope and its rows are the allowed tuples. This one count serves both
//! counting algorithms the paper builds on:
//!
//! * constraints taken from the atoms of a quantifier-free pp-formula give
//!   the Dalmau–Jonsson `#Hom` algorithm (the \[DJ04\] dichotomy's positive
//!   side);
//! * constraints combining liberal atoms with the derived ∃-component
//!   boundary relations give the counting stage of the \[CM15\] FPT
//!   algorithm (see [`crate::fpt`]).
//!
//! [`count_csp`] turns every constraint into a bag
//! ([`Relation::counted`]) and runs relalg's variable elimination
//! ([`eliminate`]) with nothing kept: each step joins the bag of
//! constraints on one variable, multiplying multiplicities, and sums the
//! variable away. The order comes from a tree decomposition of the
//! network's primal graph, so no intermediate holds more than
//! `domain^(w+1)` rows for its width `w`. A variable in no constraint is
//! a factor `domain`. Counts are exact: `u128` multiplicities are
//! promoted to [`Natural`] when a step overflows them.

use epq_bigint::Natural;
use epq_relalg::engine::eliminate;
use epq_relalg::Relation;
use std::collections::HashSet;

/// The number of assignments of `0..variables` over `0..domain` that
/// satisfy every constraint. Joins run on up to `threads` pool workers;
/// the count is identical at every thread count.
///
/// # Panics
/// Panics if a constraint's scope names a variable `≥ variables`.
pub fn count_csp(
    variables: usize,
    domain: usize,
    constraints: Vec<Relation>,
    threads: usize,
) -> Natural {
    let mut constrained = vec![false; variables];
    for c in &constraints {
        for &v in c.schema() {
            constrained[v as usize] = true;
        }
    }
    let free = constrained.iter().filter(|&&c| !c).count();
    let bags = constraints.into_iter().map(Relation::counted).collect();
    let solutions = eliminate(bags, &[], threads, &mut |_, _, _| {}).total();
    solutions * Natural::from(domain).pow(free as u32)
}

/// Brute-force constraint counting over all `domain^variables`
/// assignments (the test oracle of [`count_csp`]).
pub fn count_csp_brute(variables: usize, domain: usize, constraints: &[Relation]) -> Natural {
    let allowed: Vec<HashSet<&[u32]>> = constraints.iter().map(|c| c.rows().collect()).collect();
    let mut count = Natural::zero();
    let one = Natural::one();
    crate::brute::for_each_assignment(domain, variables, &mut |values| {
        let ok = constraints.iter().zip(&allowed).all(|(c, allowed)| {
            let tuple: Vec<u32> = c.schema().iter().map(|&v| values[v as usize]).collect();
            allowed.contains(tuple.as_slice())
        });
        if ok {
            count += &one;
        }
    });
    count
}

#[cfg(test)]
mod tests {
    use super::*;
    use epq_relalg::engine::scan_atom;
    use epq_structures::hom::count_homomorphisms;
    use epq_structures::{Signature, Structure};

    /// The atom constraints of a structure-to-structure homomorphism
    /// problem: one constraint per tuple of `a`, the scan of that atom
    /// against `b`.
    fn hom_constraints(a: &Structure, b: &Structure) -> Vec<Relation> {
        let mut out = Vec::new();
        for (rel, _, _) in a.signature().iter() {
            for atom in a.relation(rel).tuples() {
                out.push(scan_atom(b, rel, atom));
            }
        }
        out
    }

    /// Counts homomorphisms `a → b` as constraint solutions (the
    /// Dalmau–Jonsson algorithm), for checking against backtracking.
    fn count_homs_td(a: &Structure, b: &Structure, threads: usize) -> Natural {
        count_csp(
            a.universe_size(),
            b.universe_size(),
            hom_constraints(a, b),
            threads,
        )
    }

    fn digraph(n: usize, edges: &[(u32, u32)]) -> Structure {
        let sig = Signature::from_symbols([("E", 2)]);
        let mut s = Structure::new(sig, n);
        for &(u, v) in edges {
            s.add_tuple_named("E", &[u, v]);
        }
        s
    }

    fn constraint(scope: &[u32], allowed: &[&[u32]]) -> Relation {
        Relation::new(scope.to_vec(), allowed.iter().map(|t| t.to_vec()).collect())
    }

    /// A unary constraint fixing `variable` to `value`.
    fn pin(variable: u32, value: u32) -> Relation {
        constraint(&[variable], &[&[value]])
    }

    /// The chain `0 → 1 → … → 4` of "successor mod 4" constraints.
    fn chain() -> Vec<Relation> {
        let succ: Vec<Vec<u32>> = (0..4u32).map(|x| vec![x, (x + 1) % 4]).collect();
        (0..4)
            .map(|i| Relation::new(vec![i, i + 1], succ.clone()))
            .collect()
    }

    /// The triangle of "different" constraints over domain 3.
    fn triangle() -> Vec<Relation> {
        let diff: Vec<Vec<u32>> = (0..3u32)
            .flat_map(|a| (0..3u32).filter(move |&b| a != b).map(move |b| vec![a, b]))
            .collect();
        [[0, 1], [1, 2], [0, 2]]
            .into_iter()
            .map(|scope| Relation::new(scope.to_vec(), diff.clone()))
            .collect()
    }

    #[test]
    fn unconstrained_counting_is_domain_power() {
        assert_eq!(count_csp(3, 4, Vec::new(), 1).to_u64(), Some(64));
        assert_eq!(count_csp(3, 4, vec![pin(0, 1)], 1).to_u64(), Some(16));
        let pins = vec![pin(0, 1), pin(1, 2), pin(2, 3)];
        assert_eq!(count_csp(3, 4, pins, 1).to_u64(), Some(1));
    }

    #[test]
    fn contradictory_pins_give_zero() {
        let pins = vec![pin(0, 1), pin(0, 2)];
        assert_eq!(count_csp(2, 3, pins, 1).to_u64(), Some(0));
    }

    #[test]
    fn single_constraint_counts_allowed_tuples() {
        let c = constraint(&[0, 1], &[&[0, 1], &[1, 2], &[2, 0]]);
        assert_eq!(count_csp(2, 3, vec![c.clone()], 1).to_u64(), Some(3));
        assert_eq!(count_csp(2, 3, vec![c, pin(0, 1)], 1).to_u64(), Some(1));
    }

    #[test]
    fn chain_csp_matches_brute_force() {
        let constraints = chain();
        let count = count_csp(5, 4, constraints.clone(), 1);
        assert_eq!(count, count_csp_brute(5, 4, &constraints));
        assert_eq!(count.to_u64(), Some(4));
        let mut pinned = constraints;
        pinned.push(pin(2, 3));
        assert_eq!(
            count_csp(5, 4, pinned.clone(), 1),
            count_csp_brute(5, 4, &pinned)
        );
    }

    #[test]
    fn cyclic_csp_needs_join_nodes() {
        // Proper 3-colorings of K3 = 6: eliminating the first vertex
        // joins two of the three constraints.
        let constraints = triangle();
        assert_eq!(count_csp(3, 3, constraints.clone(), 1).to_u64(), Some(6));
        assert_eq!(
            count_csp(3, 3, constraints.clone(), 1),
            count_csp_brute(3, 3, &constraints)
        );
    }

    #[test]
    fn hom_dp_matches_backtracking_counts() {
        let c4 = digraph(4, &[(0, 1), (1, 2), (2, 3), (3, 0)]);
        let k3 = digraph(3, &[(0, 1), (1, 0), (1, 2), (2, 1), (0, 2), (2, 0)]);
        let p4 = digraph(4, &[(0, 1), (1, 2), (2, 3)]);
        for (a, b) in [(&p4, &k3), (&c4, &k3), (&p4, &c4), (&c4, &c4)] {
            assert_eq!(count_homs_td(a, b, 1), count_homomorphisms(a, b));
        }
    }

    #[test]
    fn hom_dp_handles_repeated_elements() {
        // Loop atom E(x,x): homs into C with one loop = 1.
        let loop_a = digraph(1, &[(0, 0)]);
        let c = digraph(4, &[(0, 1), (1, 2), (2, 3), (3, 3)]);
        assert_eq!(count_homs_td(&loop_a, &c, 1).to_u64(), Some(1));
    }

    #[test]
    fn hom_dp_with_isolated_vertices() {
        // Edge + 2 isolated vertices into a 2-cycle: 2 · 2² = 8.
        let a = digraph(4, &[(0, 1)]);
        let b = digraph(2, &[(0, 1), (1, 0)]);
        assert_eq!(count_homs_td(&a, &b, 1).to_u64(), Some(8));
    }

    #[test]
    fn grid_hom_counts_match_backtracking() {
        // 2×3 grid pattern (treewidth 2) into K3.
        let grid = [(0, 1), (1, 2), (3, 4), (4, 5), (0, 3), (1, 4), (2, 5)];
        let a = digraph(6, &grid);
        let k3 = digraph(3, &[(0, 1), (1, 0), (1, 2), (2, 1), (0, 2), (2, 0)]);
        assert_eq!(count_homs_td(&a, &k3, 1), count_homomorphisms(&a, &k3));
    }

    #[test]
    fn empty_domain() {
        assert_eq!(count_csp(2, 0, Vec::new(), 1).to_u64(), Some(0));
        assert_eq!(count_csp(0, 0, Vec::new(), 1).to_u64(), Some(1));
        // An empty constraint relation has no solutions at any domain.
        let empty = Relation::new(vec![0, 1], Vec::new());
        assert_eq!(count_csp(3, 2, vec![empty], 1).to_u64(), Some(0));
    }

    #[test]
    fn parallel_count_matches_sequential() {
        // Chain, triangle and unconstrained networks, with pins in play,
        // at several thread counts.
        let cases = [(5, 4, chain()), (3, 3, triangle()), (4, 3, Vec::new())];
        for (variables, domain, constraints) in cases {
            for pins in [&[][..], &[(0, 1)][..], &[(1, 2), (2, 0)][..]] {
                let mut network = constraints.clone();
                network.extend(pins.iter().map(|&(v, x)| pin(v, x)));
                let expected = count_csp(variables, domain, network.clone(), 1);
                assert_eq!(expected, count_csp_brute(variables, domain, &network));
                for threads in [2usize, 3, 8] {
                    assert_eq!(
                        count_csp(variables, domain, network.clone(), threads),
                        expected,
                        "pins {pins:?} at {threads} threads"
                    );
                }
            }
        }
    }

    #[test]
    fn parallel_count_degenerate_domains() {
        assert_eq!(count_csp(2, 0, Vec::new(), 4).to_u64(), Some(0));
        assert_eq!(count_csp(3, 1, Vec::new(), 4).to_u64(), Some(1));
        let pins = vec![pin(0, 1), pin(1, 2)];
        assert_eq!(count_csp(2, 3, pins, 4).to_u64(), Some(1));
        assert_eq!(count_csp(0, 5, Vec::new(), 4).to_u64(), Some(1));
    }

    #[test]
    fn parallel_hom_counts_match() {
        let c4 = digraph(4, &[(0, 1), (1, 2), (2, 3), (3, 0)]);
        let k3 = digraph(3, &[(0, 1), (1, 0), (1, 2), (2, 1), (0, 2), (2, 0)]);
        let p4 = digraph(4, &[(0, 1), (1, 2), (2, 3)]);
        for (a, b) in [(&p4, &k3), (&c4, &k3), (&p4, &c4), (&c4, &c4)] {
            let expected = count_homs_td(a, b, 1);
            for threads in [2usize, 4] {
                assert_eq!(count_homs_td(a, b, threads), expected);
            }
        }
    }

    #[test]
    fn nullary_constraints_gate_the_count() {
        // A nullary atom scan is unit (present) or empty (absent).
        let count = |gate: Relation| count_csp(2, 3, vec![gate, pin(0, 1)], 1).to_u64();
        assert_eq!(count(Relation::unit()), Some(3));
        assert_eq!(count(Relation::empty()), Some(0));
    }
}
