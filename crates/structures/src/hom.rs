//! Homomorphism search between finite structures.
//!
//! A homomorphism h : **A** → **B** maps every tuple of every relation of
//! **A** to a tuple of the corresponding relation of **B**. Searches may
//! *pin* part of the map, which is exactly the satisfaction condition of
//! pp-formulas: `B, f ⊨ φ(S)` iff `f : S → B` extends to a homomorphism
//! from φ's structure to **B** (Chandra–Merlin, Section 2.1 of the paper).
//!
//! The search is backtracking over a connectivity-driven static variable
//! order (maximum-cardinality search), checking each constraint as soon as
//! its last variable is assigned (a binary search in **B**'s sorted
//! relation, [`Structure::has_tuple`]) and pruning with per-vertex
//! candidate filtering against unary projections of **B**'s relations.

use crate::structure::{RelId, Structure};
use epq_bigint::Natural;
use std::ops::ControlFlow;

/// A prepared homomorphism search from `a` to `b` (reusable across calls).
pub struct HomSearch<'a> {
    a: &'a Structure,
    /// The target; each constraint probes its sorted relations directly.
    b: &'a Structure,
    /// Static assignment order of `a`'s elements.
    order: Vec<u32>,
    /// position_of[element] = its index in `order`.
    position_of: Vec<usize>,
    /// Constraints checked when the order position is assigned: for each
    /// position, the list of (relation, tuple) whose latest variable (in
    /// the order) sits at that position.
    checks: Vec<Vec<(RelId, Vec<u32>)>>,
    /// candidates[element] = allowed images (after unary pruning).
    candidates: Vec<Vec<u32>>,
}

impl<'a> HomSearch<'a> {
    /// Prepares a search with some elements pre-assigned (`pins` is a list
    /// of `(element_of_a, element_of_b)`).
    ///
    /// # Panics
    /// Panics if signatures differ or pins are out of range / contradictory.
    pub fn new(a: &'a Structure, b: &'a Structure, pins: &[(u32, u32)]) -> Self {
        assert_eq!(
            a.signature(),
            b.signature(),
            "homomorphism search requires equal signatures"
        );
        let n = a.universe_size();
        let mut pinned_value = vec![u32::MAX; n];
        for &(x, y) in pins {
            assert!((x as usize) < n, "pinned element {x} out of range");
            assert!(
                (y as usize) < b.universe_size(),
                "pin target {y} out of range"
            );
            assert!(
                pinned_value[x as usize] == u32::MAX || pinned_value[x as usize] == y,
                "contradictory pins for element {x}"
            );
            pinned_value[x as usize] = y;
        }

        // Order: pinned elements first, then maximum-cardinality search on
        // the Gaifman graph (pick the element with most already-ordered
        // neighbors; ties by index).
        let gaifman = a.gaifman_graph();
        let mut order: Vec<u32> = (0..n as u32)
            .filter(|&v| pinned_value[v as usize] != u32::MAX)
            .collect();
        let mut placed = vec![false; n];
        for &v in &order {
            placed[v as usize] = true;
        }
        let mut weight = vec![0usize; n];
        for &v in &order {
            for &w in gaifman.neighbors(v) {
                weight[w as usize] += 1;
            }
        }
        while order.len() < n {
            let v = (0..n as u32)
                .filter(|&v| !placed[v as usize])
                .max_by_key(|&v| weight[v as usize])
                .expect("unplaced element remains");
            placed[v as usize] = true;
            order.push(v);
            for &w in gaifman.neighbors(v) {
                weight[w as usize] += 1;
            }
        }
        let mut position_of = vec![0usize; n];
        for (i, &v) in order.iter().enumerate() {
            position_of[v as usize] = i;
        }

        // Attach each constraint to the latest position among its variables.
        let mut checks: Vec<Vec<(RelId, Vec<u32>)>> = vec![Vec::new(); n.max(1)];
        for (rel, _, _) in a.signature().iter() {
            for tuple in a.relation(rel).tuples() {
                let last = tuple
                    .iter()
                    .map(|&e| position_of[e as usize])
                    .max()
                    .expect("arity >= 1");
                checks[last].push((rel, tuple.to_vec()));
            }
        }

        // Unary pruning: an element occurring at coordinate i of an R-atom
        // can only map to values occurring at coordinate i of R^B.
        let mut allowed: Vec<Option<Vec<bool>>> = vec![None; n];
        for (rel, _, _) in a.signature().iter() {
            let arity = a.signature().arity(rel);
            // Column projections of R^B.
            let mut columns: Vec<Vec<bool>> = vec![vec![false; b.universe_size()]; arity];
            for t in b.relation(rel).tuples() {
                for (i, &e) in t.iter().enumerate() {
                    columns[i][e as usize] = true;
                }
            }
            for t in a.relation(rel).tuples() {
                for (i, &e) in t.iter().enumerate() {
                    let entry =
                        allowed[e as usize].get_or_insert_with(|| vec![true; b.universe_size()]);
                    for (x, ok) in entry.iter_mut().enumerate() {
                        *ok = *ok && columns[i][x];
                    }
                }
            }
        }
        let candidates: Vec<Vec<u32>> = (0..n)
            .map(|v| {
                let base: Vec<u32> = match &allowed[v] {
                    None => (0..b.universe_size() as u32).collect(),
                    Some(mask) => (0..b.universe_size() as u32)
                        .filter(|&x| mask[x as usize])
                        .collect(),
                };
                if pinned_value[v] != u32::MAX {
                    if base.contains(&pinned_value[v]) {
                        vec![pinned_value[v]]
                    } else {
                        Vec::new()
                    }
                } else {
                    base
                }
            })
            .collect();

        HomSearch {
            a,
            b,
            order,
            position_of,
            checks,
            candidates,
        }
    }

    /// Runs the search, invoking `visit` on every homomorphism found
    /// (as a full assignment indexed by `a`'s elements). `visit` may stop
    /// the enumeration early by returning `ControlFlow::Break(())`.
    pub fn for_each(&self, mut visit: impl FnMut(&[u32]) -> ControlFlow<()>) {
        let n = self.a.universe_size();
        if n == 0 {
            // The empty map is the unique homomorphism.
            let _ = visit(&[]);
            return;
        }
        let mut assignment = vec![u32::MAX; n];
        let _ = self.descend(0, &mut assignment, &mut visit);
    }

    fn descend(
        &self,
        pos: usize,
        assignment: &mut Vec<u32>,
        visit: &mut impl FnMut(&[u32]) -> ControlFlow<()>,
    ) -> ControlFlow<()> {
        if pos == self.order.len() {
            return visit(assignment);
        }
        let v = self.order[pos] as usize;
        let mut image = Vec::new();
        for &candidate in &self.candidates[v] {
            assignment[v] = candidate;
            let mut ok = true;
            for (rel, tuple) in &self.checks[pos] {
                image.clear();
                image.extend(tuple.iter().map(|&e| assignment[e as usize]));
                if !self.b.has_tuple(*rel, &image) {
                    ok = false;
                    break;
                }
            }
            if ok {
                self.descend(pos + 1, assignment, visit)?;
            }
        }
        assignment[v] = u32::MAX;
        ControlFlow::Continue(())
    }

    /// The static search order (pinned elements first).
    pub fn order(&self) -> &[u32] {
        &self.order
    }

    /// Position of an element in the search order.
    pub fn position_of(&self, element: u32) -> usize {
        self.position_of[element as usize]
    }
}

/// Whether a homomorphism from `a` to `b` exists.
pub fn homomorphism_exists(a: &Structure, b: &Structure) -> bool {
    homomorphism_exists_pinned(a, b, &[])
}

/// Whether a homomorphism from `a` to `b` extending `pins` exists.
pub fn homomorphism_exists_pinned(a: &Structure, b: &Structure, pins: &[(u32, u32)]) -> bool {
    find_homomorphism_pinned(a, b, pins).is_some()
}

/// Finds some homomorphism from `a` to `b`, if any.
pub fn find_homomorphism(a: &Structure, b: &Structure) -> Option<Vec<u32>> {
    find_homomorphism_pinned(a, b, &[])
}

/// Finds some homomorphism from `a` to `b` extending `pins`, if any.
pub fn find_homomorphism_pinned(
    a: &Structure,
    b: &Structure,
    pins: &[(u32, u32)],
) -> Option<Vec<u32>> {
    let search = HomSearch::new(a, b, pins);
    let mut found = None;
    search.for_each(|h| {
        found = Some(h.to_vec());
        ControlFlow::Break(())
    });
    found
}

/// Counts all homomorphisms from `a` to `b` (exponential in |A| in the
/// worst case; used as ground truth and on parameter-sized structures).
pub fn count_homomorphisms(a: &Structure, b: &Structure) -> Natural {
    count_homomorphisms_pinned(a, b, &[])
}

/// Counts homomorphisms from `a` to `b` extending `pins`.
pub fn count_homomorphisms_pinned(a: &Structure, b: &Structure, pins: &[(u32, u32)]) -> Natural {
    let search = HomSearch::new(a, b, pins);
    let mut count = Natural::zero();
    let one = Natural::one();
    search.for_each(|_| {
        count += &one;
        ControlFlow::Continue(())
    });
    count
}

/// Checks whether `h` (indexed by `a`'s universe) is a homomorphism.
pub fn is_homomorphism(a: &Structure, b: &Structure, h: &[u32]) -> bool {
    if h.len() != a.universe_size() {
        return false;
    }
    if h.iter().any(|&y| y as usize >= b.universe_size()) {
        return false;
    }
    let mut image = Vec::new();
    a.signature().iter().all(|(rel, _, _)| {
        a.relation(rel).tuples().all(|tuple| {
            image.clear();
            image.extend(tuple.iter().map(|&e| h[e as usize]));
            b.has_tuple(rel, &image)
        })
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::structure::Signature;

    fn digraph(n: usize, edges: &[(u32, u32)]) -> Structure {
        let sig = Signature::from_symbols([("E", 2)]);
        let mut s = Structure::new(sig, n);
        for &(u, v) in edges {
            s.add_tuple_named("E", &[u, v]);
        }
        s
    }

    /// Directed path 0 → 1 → … → n−1.
    fn dipath(n: usize) -> Structure {
        digraph(
            n,
            &(1..n).map(|i| (i as u32 - 1, i as u32)).collect::<Vec<_>>(),
        )
    }

    /// Directed cycle 0 → 1 → … → n−1 → 0.
    fn dicycle(n: usize) -> Structure {
        let mut edges: Vec<(u32, u32)> = (1..n).map(|i| (i as u32 - 1, i as u32)).collect();
        edges.push((n as u32 - 1, 0));
        digraph(n, &edges)
    }

    #[test]
    fn path_maps_into_cycle_but_not_conversely() {
        let p3 = dipath(3);
        let c3 = dicycle(3);
        assert!(homomorphism_exists(&p3, &c3));
        // C3 → P3 would need to wrap around: impossible.
        assert!(!homomorphism_exists(&c3, &p3));
    }

    #[test]
    fn cycle_lengths_and_hom_existence() {
        // C6 → C3 (wind twice); C3 → C6 impossible; C4 → C4 identity.
        assert!(homomorphism_exists(&dicycle(6), &dicycle(3)));
        assert!(!homomorphism_exists(&dicycle(3), &dicycle(6)));
        assert!(homomorphism_exists(&dicycle(4), &dicycle(4)));
    }

    #[test]
    fn hom_found_is_valid() {
        let a = dipath(4);
        let b = dicycle(5);
        let h = find_homomorphism(&a, &b).unwrap();
        assert!(is_homomorphism(&a, &b, &h));
    }

    #[test]
    fn counting_homs_path_into_loopless_edge() {
        // Hom(P2 as single edge, single edge 0→1): exactly one.
        let edge = digraph(2, &[(0, 1)]);
        assert_eq!(count_homomorphisms(&edge, &edge).to_u64(), Some(1));
        // Hom(single edge, complete loopless digraph on 3): 6 ordered pairs.
        let k3 = digraph(3, &[(0, 1), (1, 0), (0, 2), (2, 0), (1, 2), (2, 1)]);
        assert_eq!(count_homomorphisms(&edge, &k3).to_u64(), Some(6));
    }

    #[test]
    fn counting_matches_walk_counting() {
        // Homs from directed path with k edges into a digraph = number of
        // directed walks of length k. For the 2-cycle 0⇄1: 2 walks of any
        // length.
        let two_cycle = digraph(2, &[(0, 1), (1, 0)]);
        for k in 1..5 {
            let p = dipath(k + 1);
            assert_eq!(
                count_homomorphisms(&p, &two_cycle).to_u64(),
                Some(2),
                "walks of length {k}"
            );
        }
    }

    #[test]
    fn pinned_search_respects_pins() {
        let p2 = dipath(2);
        let c4 = dicycle(4);
        // Pinning 0 ↦ 2 forces 1 ↦ 3.
        let h = find_homomorphism_pinned(&p2, &c4, &[(0, 2)]).unwrap();
        assert_eq!(h, vec![2, 3]);
        // Contradiction with edge direction: 0 ↦ 2 and 1 ↦ 1 impossible.
        assert!(!homomorphism_exists_pinned(&p2, &c4, &[(0, 2), (1, 1)]));
    }

    #[test]
    fn empty_source_has_exactly_one_hom() {
        let empty = digraph(0, &[]);
        let b = dicycle(3);
        assert_eq!(count_homomorphisms(&empty, &b).to_u64(), Some(1));
        assert!(homomorphism_exists(&empty, &b));
    }

    #[test]
    fn empty_target_kills_nonempty_source() {
        let a = dipath(2);
        let empty = digraph(0, &[]);
        assert!(!homomorphism_exists(&a, &empty));
        assert_eq!(count_homomorphisms(&a, &empty).to_u64(), Some(0));
    }

    #[test]
    fn isolated_vertices_multiply_counts() {
        // A = single edge + isolated vertex; B = 2-cycle.
        let mut a = digraph(3, &[(0, 1)]);
        a.add_tuple_named("E", &[0, 1]); // idempotent
        let b = digraph(2, &[(0, 1), (1, 0)]);
        // Edge has 2 images, isolated vertex has 2 → total 4.
        assert_eq!(count_homomorphisms(&a, &b).to_u64(), Some(4));
    }

    #[test]
    fn unary_pruning_does_not_lose_solutions() {
        // Structure with a unary relation restricting images.
        let sig = Signature::from_symbols([("E", 2), ("P", 1)]);
        let mut a = Structure::new(sig.clone(), 2);
        a.add_tuple_named("E", &[0, 1]);
        a.add_tuple_named("P", &[1]);
        let mut b = Structure::new(sig, 3);
        b.add_tuple_named("E", &[0, 1]);
        b.add_tuple_named("E", &[0, 2]);
        b.add_tuple_named("P", &[2]);
        // Only 0↦0, 1↦2 works.
        assert_eq!(count_homomorphisms(&a, &b).to_u64(), Some(1));
        let h = find_homomorphism(&a, &b).unwrap();
        assert_eq!(h, vec![0, 2]);
    }

    #[test]
    #[should_panic(expected = "equal signatures")]
    fn signature_mismatch_panics() {
        let a = digraph(1, &[]);
        let sig = Signature::from_symbols([("F", 2)]);
        let b = Structure::new(sig, 1);
        let _ = homomorphism_exists(&a, &b);
    }
}
