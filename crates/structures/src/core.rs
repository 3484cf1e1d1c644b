//! Cores and homomorphic equivalence.
//!
//! A structure is a *core* if it is not homomorphically equivalent to a
//! proper substructure of itself; every finite structure has a core, unique
//! up to isomorphism (Section 2.1 of the paper). Cores of *augmented*
//! structures define the cores of pp-formulas, whose treewidth drives the
//! tractability condition of the trichotomy.

use crate::hom::homomorphism_exists;
use crate::structure::Structure;

/// Whether `a` and `b` are homomorphically equivalent (homomorphisms exist
/// in both directions).
pub fn homomorphically_equivalent(a: &Structure, b: &Structure) -> bool {
    homomorphism_exists(a, b) && homomorphism_exists(b, a)
}

/// Computes a core of `a`, returned together with the map from the core's
/// universe indices to the original elements of `a`.
///
/// Strategy: repeatedly look for an element `v` such that **A** maps
/// homomorphically into **A** restricted to `universe ∖ {v}` (such a map
/// witnesses hom-equivalence with the smaller induced substructure); when
/// no element can be dropped, every endomorphism is surjective and the
/// structure is a core. An element of the only tuple of some relation is
/// never probed: without it that relation would be empty, so its search
/// would fail, and skipping it leaves the result unchanged. This spares
/// `aug(A, S)` one failed search per pinned element.
pub fn core_of(a: &Structure) -> (Structure, Vec<u32>) {
    let mut current = a.clone();
    // element_of[i] = original element of `a` behind current index i.
    let mut element_of: Vec<u32> = (0..a.universe_size() as u32).collect();
    'outer: loop {
        let n = current.universe_size();
        let fixed = undroppable(&current);
        for drop in (0..n as u32).filter(|&v| !fixed[v as usize]) {
            let rest: Vec<u32> = (0..n as u32).filter(|&v| v != drop).collect();
            let (candidate, map) = current.induced_substructure(&rest);
            if homomorphism_exists(&current, &candidate) {
                element_of = map.iter().map(|&m| element_of[m as usize]).collect();
                current = candidate;
                continue 'outer;
            }
        }
        return (current, element_of);
    }
}

/// `fixed[v]` ⇔ `v` lies in the only tuple of some relation of `a`, so
/// the induced substructure on `universe ∖ {v}` has that relation empty
/// and `a` cannot map into it. The `@pin{i}` relations of an augmented
/// structure make every pinned element one of these.
fn undroppable(a: &Structure) -> Vec<bool> {
    let mut fixed = vec![false; a.universe_size()];
    for (rel, _, _) in a.signature().iter() {
        let relation = a.relation(rel);
        if relation.len() == 1 {
            for t in relation.tuples() {
                for &v in t {
                    fixed[v as usize] = true;
                }
            }
        }
    }
    fixed
}

/// Whether `a` is a core (no proper retract).
pub fn is_core(a: &Structure) -> bool {
    let n = a.universe_size();
    for drop in 0..n as u32 {
        let rest: Vec<u32> = (0..n as u32).filter(|&v| v != drop).collect();
        let (candidate, _) = a.induced_substructure(&rest);
        if homomorphism_exists(a, &candidate) {
            return false;
        }
    }
    true
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::iso::isomorphic;
    use crate::structure::Signature;

    fn digraph(n: usize, edges: &[(u32, u32)]) -> Structure {
        let sig = Signature::from_symbols([("E", 2)]);
        let mut s = Structure::new(sig, n);
        for &(u, v) in edges {
            s.add_tuple_named("E", &[u, v]);
        }
        s
    }

    fn dicycle(n: usize) -> Structure {
        let mut edges: Vec<(u32, u32)> = (1..n).map(|i| (i as u32 - 1, i as u32)).collect();
        edges.push((n as u32 - 1, 0));
        digraph(n, &edges)
    }

    #[test]
    fn directed_cycles_are_cores() {
        for n in [2, 3, 4, 5] {
            assert!(is_core(&dicycle(n)), "C_{n}");
        }
    }

    #[test]
    fn directed_path_cores_to_single_edge_structure() {
        // The core of a directed path is ... itself! Directed paths are
        // cores (no shorter path receives a hom). Verify.
        let p = digraph(3, &[(0, 1), (1, 2)]);
        assert!(is_core(&p));
    }

    #[test]
    fn core_of_two_disjoint_edges_is_one_edge() {
        let two = digraph(4, &[(0, 1), (2, 3)]);
        let (core, map) = core_of(&two);
        assert_eq!(core.universe_size(), 2);
        assert_eq!(core.tuple_count(), 1);
        assert!(is_core(&core));
        // The surviving elements are an original edge.
        let e = two.signature().lookup("E").unwrap();
        assert!(two.has_tuple(e, &[map[0], map[1]]) || two.has_tuple(e, &[map[1], map[0]]));
    }

    #[test]
    fn core_of_c6_with_loopless_vertex_absorbed() {
        // C6 + a pendant vertex hanging off: pendant retracts into the cycle;
        // C6 (directed) is a core, so the core has 6 elements.
        let mut edges: Vec<(u32, u32)> = (1..6).map(|i| (i - 1, i)).collect();
        edges.push((5, 0));
        edges.push((0, 6)); // pendant 6; can retract: 6 ↦ 1
        let g = digraph(7, &edges);
        let (core, _) = core_of(&g);
        assert_eq!(core.universe_size(), 6);
        assert!(isomorphic(&core, &dicycle(6)));
    }

    #[test]
    fn core_with_self_loop_collapses_everything() {
        // A structure with a self-loop absorbs any structure that maps into
        // it; core of (edge + loop vertex reachable) is the loop alone.
        let g = digraph(3, &[(0, 1), (1, 2), (2, 2)]);
        let (core, map) = core_of(&g);
        assert_eq!(core.universe_size(), 1);
        assert_eq!(map, vec![2]);
        let e = core.signature().lookup("E").unwrap();
        assert!(core.has_tuple(e, &[0, 0]));
    }

    #[test]
    fn hom_equivalence_examples() {
        let c3 = dicycle(3);
        let c6 = dicycle(6);
        // C6 → C3 but not back.
        assert!(!homomorphically_equivalent(&c3, &c6));
        // Two disjoint copies of C3 are hom-equivalent to C3.
        let double = {
            let mut edges = vec![(0, 1), (1, 2), (2, 0), (3, 4), (4, 5), (5, 3)];
            edges.sort_unstable();
            digraph(6, &edges)
        };
        assert!(homomorphically_equivalent(&c3, &double));
        let (core, _) = core_of(&double);
        assert!(isomorphic(&core, &c3));
    }

    #[test]
    fn cores_are_isomorphic_across_equivalent_structures() {
        // Core uniqueness: core(A + core(A)) ≅ core(A).
        let g = digraph(4, &[(0, 1), (1, 2), (2, 3), (3, 3)]);
        let (c1, _) = core_of(&g);
        let doubled = crate::ops::disjoint_union(&g, &c1);
        let (c2, _) = core_of(&doubled);
        assert!(isomorphic(&c1, &c2));
    }

    #[test]
    fn empty_structure_is_core() {
        let e = digraph(0, &[]);
        assert!(is_core(&e));
        let (core, map) = core_of(&e);
        assert_eq!(core.universe_size(), 0);
        assert!(map.is_empty());
    }

    #[test]
    fn augmented_core_keeps_pinned_elements() {
        // Aug pins survive coring: pinned elements can only map to
        // themselves, so they are never dropped.
        let g = digraph(4, &[(0, 1), (2, 3)]); // two disjoint edges
        let aug = crate::ops::augment(&g, &[0, 1]);
        let (core, map) = core_of(&aug);
        // Edge (2,3) retracts onto (0,1); pinned 0 and 1 remain.
        assert_eq!(core.universe_size(), 2);
        let mut sorted = map.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, vec![0, 1]);
    }
}
