//! Counting CSP solutions by dynamic programming over nice tree
//! decompositions, with pinning.
//!
//! This one dynamic program serves both counting algorithms the paper
//! builds on:
//!
//! * constraints taken from the atoms of a quantifier-free pp-formula give
//!   the Dalmau–Jonsson `#Hom` algorithm (the \[DJ04\] dichotomy's positive
//!   side);
//! * constraints combining liberal atoms with the derived ∃-component
//!   boundary relations give the counting stage of the \[CM15\] FPT
//!   algorithm (see [`crate::fpt`]).
//!
//! The table at a node maps assignments of the node's bag to the number of
//! extensions over the forgotten variables; introduce nodes filter against
//! every constraint that fits in the bag and mentions the new variable,
//! forget nodes sum out, join nodes multiply matching entries.
//!
//! # Data layout
//!
//! The DP tables are [`FlatTable`]s — a packed row-major key arena plus
//! an aligned `Natural` column (see [`crate::table`]) — instead of
//! `BTreeMap<Vec<u32>, Natural>`: no per-entry node allocation, no
//! per-key `Vec`, and each pass is a linear scan over contiguous
//! memory.
//!
//! # Determinism
//!
//! The flat tables keep their entries sorted by bag assignment, so
//! every traversal order in this module is a sorted order — nothing
//! iterates a `HashMap`/`HashSet` whose order could differ between runs.
//! (The `allowed` sets of [`CspConstraint`] are packed, sorted
//! [`TupleSet`]s used purely for membership tests.) This matters
//! for the threaded DP of [`TdCounter::count`]: its shard
//! boundaries are contiguous chunks of the sorted tables, so they are
//! identical run to run and the parallel counts are reproducible across
//! runs and thread counts.

use crate::table::FlatTable;
pub use crate::table::PAR_NODE_THRESHOLD;
use crate::tupleset::TupleSet;
use epq_bigint::Natural;
use epq_graph::{treewidth, Graph, NiceNode, NiceTreeDecomposition};

/// One constraint: an ordered scope of distinct variables and the set of
/// allowed value tuples.
#[derive(Clone, Debug)]
pub struct CspConstraint {
    /// Distinct variable indices.
    pub scope: Vec<u32>,
    /// Allowed assignments to the scope (in scope order), packed for
    /// the introduce filter's membership probes (see [`TupleSet`]).
    pub allowed: TupleSet,
}

impl CspConstraint {
    /// Builds a constraint from any tuple collection (duplicates
    /// collapse in the packed set); asserts distinct scope.
    ///
    /// # Panics
    /// Panics on a repeated scope variable or a tuple whose width
    /// differs from the scope's.
    pub fn new<I>(scope: Vec<u32>, allowed: I) -> Self
    where
        I: IntoIterator,
        I::Item: AsRef<[u32]>,
    {
        let mut sorted = scope.clone();
        sorted.sort_unstable();
        sorted.dedup();
        assert_eq!(
            sorted.len(),
            scope.len(),
            "constraint scope must be distinct"
        );
        let allowed = TupleSet::from_tuples(scope.len(), allowed);
        CspConstraint { scope, allowed }
    }
}

/// A prepared counting solver over a nice tree decomposition of the
/// constraint network's primal graph, reusable across different pin
/// sets.
pub struct TdCounter {
    variables: usize,
    domain: usize,
    constraints: Vec<CspConstraint>,
    nice: NiceTreeDecomposition,
    /// checks[node] = constraints verified at that introduce node.
    checks: Vec<Vec<usize>>,
}

impl TdCounter {
    /// Prepares the solver: builds the primal graph, a (small-exact /
    /// heuristic) tree decomposition, its nice form, and the constraint
    /// placement.
    pub fn new(variables: usize, domain: usize, constraints: Vec<CspConstraint>) -> Self {
        let mut primal = Graph::new(variables);
        for c in &constraints {
            for (i, &a) in c.scope.iter().enumerate() {
                for &b in &c.scope[i + 1..] {
                    primal.add_edge(a, b);
                }
            }
        }
        let td = treewidth::best_decomposition(&primal);
        let nice = NiceTreeDecomposition::from_tree_decomposition(&td);
        let mut checks = vec![Vec::new(); nice.len()];
        for (node_index, node) in nice.nodes().iter().enumerate() {
            if let NiceNode::Introduce { vertex, .. } = node {
                let bag = nice.bag(node_index);
                for (ci, c) in constraints.iter().enumerate() {
                    if c.scope.contains(vertex) && c.scope.iter().all(|v| bag.contains(v)) {
                        checks[node_index].push(ci);
                    }
                }
            }
        }
        TdCounter {
            variables,
            domain,
            constraints,
            nice,
            checks,
        }
    }

    /// The width of the decomposition in use.
    pub fn width(&self) -> usize {
        self.nice.width()
    }

    /// Counts satisfying assignments with the given variables pinned,
    /// sharding the DP across up to `threads` threads (`1` runs inline).
    ///
    /// Parallelism is *within* each node of the tree-decomposition DP:
    /// a node's table is built by splitting its source table into
    /// contiguous sorted-order chunks, one partial table per worker,
    /// merged afterwards (disjoint sorted unions at introduce/join
    /// nodes — the key maps are injective — and summed `Natural`
    /// entries at forget nodes; see [`crate::table`]). Total work is
    /// therefore exactly the sequential DP's, chunk boundaries are
    /// deterministic, and the merged sums are order-insensitive, so the
    /// result is bit-identical at every thread count. Nodes whose
    /// tables are below [`PAR_NODE_THRESHOLD`] run inline — small
    /// tables are not worth a scope spawn.
    pub fn count(&self, pins: &[(u32, u32)], threads: usize) -> Natural {
        let threads = threads.max(1);
        let mut pinned: Vec<Option<u32>> = vec![None; self.variables];
        for &(v, x) in pins {
            assert!((v as usize) < self.variables, "pin variable out of range");
            assert!((x as usize) < self.domain, "pin value out of range");
            if let Some(prev) = pinned[v as usize] {
                if prev != x {
                    return Natural::zero();
                }
            }
            pinned[v as usize] = Some(x);
        }
        // tables[node]: bag assignment (sorted-bag order) → extension
        // count, as a packed-key flat table.
        let mut tables: Vec<FlatTable> = Vec::with_capacity(self.nice.len());
        for (node_index, node) in self.nice.nodes().iter().enumerate() {
            let table = match node {
                NiceNode::Leaf => FlatTable::unit(),
                NiceNode::Introduce { vertex, child } => {
                    self.introduce_table(node_index, *vertex, &tables[*child], &pinned, threads)
                }
                NiceNode::Forget { vertex, child } => {
                    let slot = self
                        .nice
                        .bag(*child)
                        .iter()
                        .position(|v| v == vertex)
                        .unwrap();
                    tables[*child].forget(slot, threads)
                }
                NiceNode::Join { left, right } => tables[*left].join(&tables[*right], threads),
            };
            tables.push(table);
        }
        let root = self.nice.root();
        std::mem::replace(&mut tables[root], FlatTable::new(0)).root_count()
    }

    fn introduce_table(
        &self,
        node_index: usize,
        vertex: u32,
        child_table: &FlatTable,
        pinned: &[Option<u32>],
        threads: usize,
    ) -> FlatTable {
        let bag: Vec<u32> = self.nice.bag(node_index).iter().copied().collect();
        let slot = bag.iter().position(|&v| v == vertex).unwrap();
        let candidates: Vec<u32> = match pinned[vertex as usize] {
            Some(x) => vec![x],
            None => (0..self.domain as u32).collect(),
        };
        // Per placed constraint, the bag positions of its scope — the
        // key-to-tuple gather is precomputed once per node, not once
        // per (entry × candidate × scope variable).
        let gathers: Vec<(&CspConstraint, Vec<usize>)> = self.checks[node_index]
            .iter()
            .map(|&ci| {
                let c = &self.constraints[ci];
                let positions = c
                    .scope
                    .iter()
                    .map(|v| bag.iter().position(|b| b == v).unwrap())
                    .collect();
                (c, positions)
            })
            .collect();
        let keep = |key: &[u32]| {
            gathers.iter().all(|(c, positions)| {
                // Scopes fit a stack buffer (they are bag-sized); the
                // heap fallback is for pathological arities only.
                let mut buf = [0u32; 16];
                if positions.len() <= buf.len() {
                    for (dst, &p) in buf[..positions.len()].iter_mut().zip(positions) {
                        *dst = key[p];
                    }
                    c.allowed.contains(&buf[..positions.len()])
                } else {
                    let tuple: Vec<u32> = positions.iter().map(|&p| key[p]).collect();
                    c.allowed.contains(tuple.as_slice())
                }
            })
        };
        child_table.introduce(slot, &candidates, keep, threads)
    }
}

/// Brute-force CSP counting (test oracle).
pub fn count_csp_brute(
    variables: usize,
    domain: usize,
    constraints: &[CspConstraint],
    pins: &[(u32, u32)],
) -> Natural {
    let mut count = Natural::zero();
    let one = Natural::one();
    crate::brute::for_each_assignment(domain, variables, &mut |values| {
        let pins_ok = pins.iter().all(|&(v, x)| values[v as usize] == x);
        if !pins_ok {
            return;
        }
        let ok = constraints.iter().all(|c| {
            let tuple: Vec<u32> = c.scope.iter().map(|&v| values[v as usize]).collect();
            c.allowed.contains(&tuple)
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
    use std::collections::HashSet;

    /// The atom constraints of a structure-to-structure homomorphism
    /// problem: one constraint per tuple of `a`, whose allowed set is the
    /// scan of that atom against `b`.
    fn hom_constraints(a: &Structure, b: &Structure) -> Vec<CspConstraint> {
        let mut out = Vec::new();
        for (rel, _, _) in a.signature().iter() {
            for atom in a.relation(rel).tuples() {
                let scan = scan_atom(b, rel, atom);
                out.push(CspConstraint::new(scan.schema().to_vec(), scan.rows()));
            }
        }
        out
    }

    /// Counts homomorphisms `a → b` by the tree-decomposition DP (the
    /// Dalmau–Jonsson algorithm), for checking [`hom_constraints`] and
    /// [`TdCounter`] against backtracking.
    fn count_homs_td(a: &Structure, b: &Structure, threads: usize) -> Natural {
        TdCounter::new(a.universe_size(), b.universe_size(), hom_constraints(a, b))
            .count(&[], threads)
    }

    fn digraph(n: usize, edges: &[(u32, u32)]) -> Structure {
        let sig = Signature::from_symbols([("E", 2)]);
        let mut s = Structure::new(sig, n);
        for &(u, v) in edges {
            s.add_tuple_named("E", &[u, v]);
        }
        s
    }

    fn constraint(scope: &[u32], allowed: &[&[u32]]) -> CspConstraint {
        CspConstraint::new(
            scope.to_vec(),
            allowed.iter().map(|t| t.to_vec()).collect::<Vec<_>>(),
        )
    }

    #[test]
    fn unconstrained_counting_is_domain_power() {
        let counter = TdCounter::new(3, 4, Vec::new());
        assert_eq!(counter.count(&[], 1).to_u64(), Some(64));
        assert_eq!(counter.count(&[(0, 1)], 1).to_u64(), Some(16));
        assert_eq!(
            counter.count(&[(0, 1), (1, 2), (2, 3)], 1).to_u64(),
            Some(1)
        );
    }

    #[test]
    fn contradictory_pins_give_zero() {
        let counter = TdCounter::new(2, 3, Vec::new());
        assert_eq!(counter.count(&[(0, 1), (0, 2)], 1).to_u64(), Some(0));
    }

    #[test]
    fn single_constraint_counts_allowed_tuples() {
        let c = constraint(&[0, 1], &[&[0, 1], &[1, 2], &[2, 0]]);
        let counter = TdCounter::new(2, 3, vec![c]);
        assert_eq!(counter.count(&[], 1).to_u64(), Some(3));
        assert_eq!(counter.count(&[(0, 1)], 1).to_u64(), Some(1));
    }

    #[test]
    fn chain_csp_matches_brute_force() {
        // A 5-variable chain of "successor mod 4" constraints.
        let succ: Vec<Vec<u32>> = (0..4u32).map(|x| vec![x, (x + 1) % 4]).collect();
        let allowed: HashSet<Vec<u32>> = succ.into_iter().collect();
        let constraints: Vec<CspConstraint> = (0..4)
            .map(|i| CspConstraint::new(vec![i, i + 1], allowed.clone()))
            .collect();
        let counter = TdCounter::new(5, 4, constraints.clone());
        assert_eq!(
            counter.count(&[], 1),
            count_csp_brute(5, 4, &constraints, &[])
        );
        assert_eq!(counter.count(&[], 1).to_u64(), Some(4));
        assert_eq!(
            counter.count(&[(2, 3)], 1),
            count_csp_brute(5, 4, &constraints, &[(2, 3)])
        );
    }

    #[test]
    fn cyclic_csp_needs_join_nodes() {
        // Triangle of difference constraints with domain 3: proper
        // 3-colorings of K3 = 6.
        let diff: HashSet<Vec<u32>> = (0..3u32)
            .flat_map(|a| (0..3u32).filter(move |&b| a != b).map(move |b| vec![a, b]))
            .collect();
        let constraints = vec![
            CspConstraint::new(vec![0, 1], diff.clone()),
            CspConstraint::new(vec![1, 2], diff.clone()),
            CspConstraint::new(vec![0, 2], diff.clone()),
        ];
        let counter = TdCounter::new(3, 3, constraints.clone());
        assert_eq!(counter.count(&[], 1).to_u64(), Some(6));
        assert_eq!(
            counter.count(&[], 1),
            count_csp_brute(3, 3, &constraints, &[])
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
        // 2×3 grid pattern (treewidth 2) into K3 — exercises join nodes.
        let mut a = digraph(6, &[]);
        let grid_edges = [(0, 1), (1, 2), (3, 4), (4, 5), (0, 3), (1, 4), (2, 5)];
        for (u, v) in grid_edges {
            a.add_tuple_named("E", &[u, v]);
        }
        let k3 = digraph(3, &[(0, 1), (1, 0), (1, 2), (2, 1), (0, 2), (2, 0)]);
        assert_eq!(count_homs_td(&a, &k3, 1), count_homomorphisms(&a, &k3));
    }

    #[test]
    fn empty_domain() {
        let counter = TdCounter::new(2, 0, Vec::new());
        assert_eq!(counter.count(&[], 1).to_u64(), Some(0));
        let trivial = TdCounter::new(0, 0, Vec::new());
        assert_eq!(trivial.count(&[], 1).to_u64(), Some(1));
    }

    #[test]
    fn parallel_count_matches_sequential() {
        // Chain CSP, triangle CSP, and an unconstrained space, at
        // several thread counts and with user pins in play.
        let succ: Vec<Vec<u32>> = (0..4u32).map(|x| vec![x, (x + 1) % 4]).collect();
        let allowed: HashSet<Vec<u32>> = succ.into_iter().collect();
        let chain: Vec<CspConstraint> = (0..4)
            .map(|i| CspConstraint::new(vec![i, i + 1], allowed.clone()))
            .collect();
        let diff: HashSet<Vec<u32>> = (0..3u32)
            .flat_map(|a| (0..3u32).filter(move |&b| a != b).map(move |b| vec![a, b]))
            .collect();
        let triangle = vec![
            CspConstraint::new(vec![0, 1], diff.clone()),
            CspConstraint::new(vec![1, 2], diff.clone()),
            CspConstraint::new(vec![0, 2], diff),
        ];
        let cases = [
            TdCounter::new(5, 4, chain),
            TdCounter::new(3, 3, triangle),
            TdCounter::new(4, 3, Vec::new()),
        ];
        for counter in &cases {
            for pins in [&[][..], &[(0, 1)][..], &[(1, 2), (2, 0)][..]] {
                let expected = counter.count(pins, 1);
                for threads in [2usize, 3, 8] {
                    assert_eq!(
                        counter.count(pins, threads),
                        expected,
                        "pins {pins:?} at {threads} threads"
                    );
                }
            }
        }
    }

    #[test]
    fn parallel_count_degenerate_domains() {
        // Domain 0 and 1, and a fully pinned instance, fall back to the
        // sequential path.
        let counter = TdCounter::new(2, 0, Vec::new());
        assert_eq!(counter.count(&[], 4).to_u64(), Some(0));
        let unary = TdCounter::new(3, 1, Vec::new());
        assert_eq!(unary.count(&[], 4).to_u64(), Some(1));
        let pinned = TdCounter::new(2, 3, Vec::new());
        assert_eq!(pinned.count(&[(0, 1), (1, 2)], 4).to_u64(), Some(1));
        let trivial = TdCounter::new(0, 5, Vec::new());
        assert_eq!(trivial.count(&[], 4).to_u64(), Some(1));
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
    fn width_is_reported() {
        let diff: HashSet<Vec<u32>> = HashSet::new();
        let constraints = vec![
            CspConstraint::new(vec![0, 1], diff.clone()),
            CspConstraint::new(vec![1, 2], diff),
        ];
        let counter = TdCounter::new(3, 2, constraints);
        assert_eq!(counter.width(), 1);
    }
}
