//! Tree decompositions and nice tree decompositions.
//!
//! Tree decompositions underpin both counting algorithms used by the
//! reproduction: the quantifier-free #hom count (Dalmau–Jonsson style)
//! and the full FPT counting algorithm of \[CM15\] that the paper's
//! trichotomy invokes as a black box. Both eliminate variables in an
//! order read off a decomposition's bags. The *nice* form (leaf /
//! introduce / forget / join nodes) is the textbook normal form for
//! dynamic programs that walk a decomposition node by node; the
//! workspace's counts do not use it.

use crate::graph::Graph;
use std::collections::BTreeSet;

/// A tree decomposition: bags plus tree edges over bag indices.
#[derive(Clone, Debug)]
pub struct TreeDecomposition {
    bags: Vec<BTreeSet<u32>>,
    /// Undirected tree edges between bag indices.
    edges: Vec<(usize, usize)>,
}

impl TreeDecomposition {
    /// Builds a decomposition from bags and tree edges.
    pub fn new(bags: Vec<BTreeSet<u32>>, edges: Vec<(usize, usize)>) -> Self {
        TreeDecomposition { bags, edges }
    }

    /// The bags.
    pub fn bags(&self) -> &[BTreeSet<u32>] {
        &self.bags
    }

    /// The tree edges (bag index pairs).
    pub fn edges(&self) -> &[(usize, usize)] {
        &self.edges
    }

    /// Width = (largest bag size) − 1, clamped to 0 for all-empty bags.
    pub fn width(&self) -> usize {
        self.bags
            .iter()
            .map(|b| b.len())
            .max()
            .unwrap_or(0)
            .saturating_sub(1)
    }

    /// Validates the three tree-decomposition conditions for `g`:
    /// every vertex occurs in a bag, every edge is inside some bag, and each
    /// vertex's bags form a connected subtree. Also checks the edge set
    /// actually forms a tree (or forest with one component when nonempty).
    pub fn is_valid_for(&self, g: &Graph) -> bool {
        let k = self.bags.len();
        if k == 0 {
            return g.vertex_count() == 0;
        }
        // Tree shape: connected and acyclic over bag indices.
        if self.edges.len() + 1 != k {
            return false;
        }
        let mut adj = vec![Vec::new(); k];
        for &(a, b) in &self.edges {
            if a >= k || b >= k || a == b {
                return false;
            }
            adj[a].push(b);
            adj[b].push(a);
        }
        let mut seen = vec![false; k];
        let mut stack = vec![0usize];
        seen[0] = true;
        let mut visited = 0;
        while let Some(x) = stack.pop() {
            visited += 1;
            for &y in &adj[x] {
                if !seen[y] {
                    seen[y] = true;
                    stack.push(y);
                }
            }
        }
        if visited != k {
            return false;
        }
        // Vertex coverage.
        for v in 0..g.vertex_count() as u32 {
            if !self.bags.iter().any(|b| b.contains(&v)) {
                return false;
            }
        }
        // Edge coverage.
        for (u, v) in g.edges() {
            if !self.bags.iter().any(|b| b.contains(&u) && b.contains(&v)) {
                return false;
            }
        }
        // Connectivity of each vertex's occurrence set.
        for v in 0..g.vertex_count() as u32 {
            let holders: Vec<usize> = (0..k).filter(|&i| self.bags[i].contains(&v)).collect();
            if holders.is_empty() {
                return false;
            }
            let holder_set: BTreeSet<usize> = holders.iter().copied().collect();
            let mut seen: BTreeSet<usize> = BTreeSet::new();
            let mut stack = vec![holders[0]];
            seen.insert(holders[0]);
            while let Some(x) = stack.pop() {
                for &y in &adj[x] {
                    if holder_set.contains(&y) && seen.insert(y) {
                        stack.push(y);
                    }
                }
            }
            if seen.len() != holders.len() {
                return false;
            }
        }
        true
    }
}

/// The kind of a node in a nice tree decomposition.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum NiceNode {
    /// A leaf with an empty bag.
    Leaf,
    /// Introduces `vertex` on top of `child` (bag = child's bag ∪ {vertex}).
    Introduce {
        /// The introduced vertex.
        vertex: u32,
        /// Child node index.
        child: usize,
    },
    /// Forgets `vertex` (bag = child's bag ∖ {vertex}).
    Forget {
        /// The forgotten vertex.
        vertex: u32,
        /// Child node index.
        child: usize,
    },
    /// Joins two children with identical bags (equal to this node's bag).
    Join {
        /// Left child node index.
        left: usize,
        /// Right child node index.
        right: usize,
    },
}

/// A nice tree decomposition: rooted, empty bag at root and leaves, and
/// every internal node is an introduce, forget, or join node.
#[derive(Clone, Debug)]
pub struct NiceTreeDecomposition {
    nodes: Vec<NiceNode>,
    bags: Vec<BTreeSet<u32>>,
    root: usize,
}

impl NiceTreeDecomposition {
    /// The node list (children precede parents).
    pub fn nodes(&self) -> &[NiceNode] {
        &self.nodes
    }

    /// The bag of node `i`.
    pub fn bag(&self, i: usize) -> &BTreeSet<u32> {
        &self.bags[i]
    }

    /// The root node index (its bag is empty).
    pub fn root(&self) -> usize {
        self.root
    }

    /// Width = (largest bag size) − 1, clamped to 0.
    pub fn width(&self) -> usize {
        self.bags
            .iter()
            .map(|b| b.len())
            .max()
            .unwrap_or(0)
            .saturating_sub(1)
    }

    /// Number of nodes.
    pub fn len(&self) -> usize {
        self.nodes.len()
    }

    /// Whether there are no nodes (never true for well-formed instances).
    pub fn is_empty(&self) -> bool {
        self.nodes.is_empty()
    }

    /// Converts an arbitrary tree decomposition into nice form.
    ///
    /// The result covers the same bags (hence stays valid for the same
    /// graph) and has the same width. The root bag is empty, leaves have
    /// empty bags, and join children duplicate their parent's bag.
    pub fn from_tree_decomposition(td: &TreeDecomposition) -> Self {
        let k = td.bags().len();
        assert!(k > 0, "cannot build a nice decomposition from zero bags");
        let mut adj = vec![Vec::new(); k];
        for &(a, b) in td.edges() {
            adj[a].push(b);
            adj[b].push(a);
        }
        let mut builder = NiceBuilder {
            nodes: Vec::new(),
            bags: Vec::new(),
        };
        let top = builder.build_subtree(td, &adj, 0, usize::MAX);
        // Forget everything remaining in the root bag.
        let mut current = top;
        let root_bag: Vec<u32> = builder.bags[top].iter().copied().collect();
        for v in root_bag {
            current = builder.push_forget(v, current);
        }
        NiceTreeDecomposition {
            nodes: builder.nodes,
            bags: builder.bags,
            root: current,
        }
    }

    /// Validates structural well-formedness: bag algebra of each node kind,
    /// children preceding parents, empty root bag, and that each vertex's
    /// occurrence set is connected in the rooted tree.
    pub fn is_well_formed(&self) -> bool {
        if !self.bags[self.root].is_empty() {
            return false;
        }
        for (i, node) in self.nodes.iter().enumerate() {
            match node {
                NiceNode::Leaf => {
                    if !self.bags[i].is_empty() {
                        return false;
                    }
                }
                NiceNode::Introduce { vertex, child } => {
                    if *child >= i || self.bags[*child].contains(vertex) {
                        return false;
                    }
                    let mut expect = self.bags[*child].clone();
                    expect.insert(*vertex);
                    if self.bags[i] != expect {
                        return false;
                    }
                }
                NiceNode::Forget { vertex, child } => {
                    if *child >= i || !self.bags[*child].contains(vertex) {
                        return false;
                    }
                    let mut expect = self.bags[*child].clone();
                    expect.remove(vertex);
                    if self.bags[i] != expect {
                        return false;
                    }
                }
                NiceNode::Join { left, right } => {
                    if *left >= i || *right >= i {
                        return false;
                    }
                    if self.bags[*left] != self.bags[i] || self.bags[*right] != self.bags[i] {
                        return false;
                    }
                }
            }
        }
        true
    }
}

struct NiceBuilder {
    nodes: Vec<NiceNode>,
    bags: Vec<BTreeSet<u32>>,
}

impl NiceBuilder {
    fn push(&mut self, node: NiceNode, bag: BTreeSet<u32>) -> usize {
        self.nodes.push(node);
        self.bags.push(bag);
        self.nodes.len() - 1
    }

    fn push_forget(&mut self, v: u32, child: usize) -> usize {
        let mut bag = self.bags[child].clone();
        bag.remove(&v);
        self.push(NiceNode::Forget { vertex: v, child }, bag)
    }

    fn push_introduce(&mut self, v: u32, child: usize) -> usize {
        let mut bag = self.bags[child].clone();
        bag.insert(v);
        self.push(NiceNode::Introduce { vertex: v, child }, bag)
    }

    /// Builds the nice subtree for decomposition node `node` and returns
    /// the index of a nice node whose bag equals `td.bags()[node]`.
    fn build_subtree(
        &mut self,
        td: &TreeDecomposition,
        adj: &[Vec<usize>],
        node: usize,
        parent: usize,
    ) -> usize {
        let target = &td.bags()[node];
        let children: Vec<usize> = adj[node].iter().copied().filter(|&c| c != parent).collect();
        if children.is_empty() {
            // Leaf: introduce the bag vertex by vertex from an empty leaf.
            let mut current = self.push(NiceNode::Leaf, BTreeSet::new());
            for &v in target {
                current = self.push_introduce(v, current);
            }
            return current;
        }
        // Adapt each child's top (bag = child bag) to this node's bag:
        // forget child∖target, then introduce target∖child.
        let mut tops = Vec::with_capacity(children.len());
        for c in children {
            let mut current = self.build_subtree(td, adj, c, node);
            let to_forget: Vec<u32> = self.bags[current].difference(target).copied().collect();
            for v in to_forget {
                current = self.push_forget(v, current);
            }
            let to_introduce: Vec<u32> = target.difference(&self.bags[current]).copied().collect();
            for v in to_introduce {
                current = self.push_introduce(v, current);
            }
            debug_assert_eq!(&self.bags[current], target);
            tops.push(current);
        }
        // Fold with binary joins.
        let mut current = tops[0];
        for &t in &tops[1..] {
            current = self.push(
                NiceNode::Join {
                    left: current,
                    right: t,
                },
                target.clone(),
            );
        }
        current
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generators;
    use crate::treewidth;

    fn bag(vs: &[u32]) -> BTreeSet<u32> {
        vs.iter().copied().collect()
    }

    #[test]
    fn valid_decomposition_of_path() {
        let g = generators::path_graph(4); // 0-1-2-3
        let td = TreeDecomposition::new(
            vec![bag(&[0, 1]), bag(&[1, 2]), bag(&[2, 3])],
            vec![(0, 1), (1, 2)],
        );
        assert!(td.is_valid_for(&g));
        assert_eq!(td.width(), 1);
    }

    #[test]
    fn missing_edge_coverage_is_invalid() {
        let g = generators::cycle_graph(3);
        let td = TreeDecomposition::new(
            vec![bag(&[0, 1]), bag(&[1, 2]), bag(&[2, 0])],
            vec![(0, 1), (1, 2)],
        );
        // Every edge IS covered, but vertex 0 appears in bags {0, 2} which
        // are not adjacent: connectivity fails.
        assert!(!td.is_valid_for(&g));
    }

    #[test]
    fn cyclic_bag_graph_is_invalid() {
        let g = generators::path_graph(3);
        let td = TreeDecomposition::new(
            vec![bag(&[0, 1]), bag(&[1, 2]), bag(&[1])],
            vec![(0, 1), (1, 2), (2, 0)],
        );
        assert!(!td.is_valid_for(&g));
    }

    #[test]
    fn nice_conversion_preserves_width_and_is_well_formed() {
        for g in [
            generators::path_graph(6),
            generators::cycle_graph(5),
            generators::grid_graph(3, 3),
            generators::complete_graph(4),
        ] {
            let td = treewidth::best_decomposition(&g);
            let nice = NiceTreeDecomposition::from_tree_decomposition(&td);
            assert!(nice.is_well_formed());
            assert_eq!(nice.width(), td.width());
            assert!(nice.bag(nice.root()).is_empty());
        }
    }

    #[test]
    fn nice_conversion_covers_all_vertices_via_introduces() {
        let g = generators::grid_graph(2, 3);
        let td = treewidth::best_decomposition(&g);
        let nice = NiceTreeDecomposition::from_tree_decomposition(&td);
        let mut introduced: BTreeSet<u32> = BTreeSet::new();
        for node in nice.nodes() {
            if let NiceNode::Introduce { vertex, .. } = node {
                introduced.insert(*vertex);
            }
        }
        assert_eq!(introduced.len(), g.vertex_count());
    }

    #[test]
    fn singleton_graph_nice_decomposition() {
        let g = Graph::new(1);
        let td = treewidth::best_decomposition(&g);
        assert!(td.is_valid_for(&g));
        assert_eq!(td.width(), 0);
        let nice = NiceTreeDecomposition::from_tree_decomposition(&td);
        assert!(nice.is_well_formed());
    }

    use crate::graph::Graph;
}
