//! Clique ⇄ query encodings (the hardness anchors of Theorem 3.2).
//!
//! The k-clique query `φ_k(x₁,…,x_k) = ⋀_{i<j} E(x_i, x_j)` over the
//! signature of (symmetrically encoded) graphs has answers that are
//! exactly the ordered k-tuples of pairwise-adjacent, pairwise-distinct
//! vertices — so `|φ_k(G)| = k! · (#k-cliques of G)`. The family
//! `{φ_k : k ∈ N}` fails both the contraction and tractability conditions
//! (its cores are the k-cliques themselves, of treewidth k−1), which is
//! why counting answers for it is `#Clique`-hard: case (3) of the
//! trichotomy. The decision-flavoured variant with all variables
//! quantified (`θ_k = ∃x₁…x_k φ_k`) anchors case (2).

use epq_bigint::Natural;
use epq_graph::Graph;
use epq_logic::{Formula, PpFormula, Query};
use epq_structures::{Signature, Structure};

/// The graph signature `{E/2}`.
pub fn graph_signature() -> Signature {
    Signature::from_symbols([("E", 2)])
}

/// Encodes an undirected graph as a structure with a symmetric edge
/// relation (both orientations of every edge; no loops).
pub fn graph_to_structure(g: &Graph) -> Structure {
    let mut s = Structure::new(graph_signature(), g.vertex_count());
    for (u, v) in g.edges() {
        s.add_tuple_named("E", &[u, v]);
        s.add_tuple_named("E", &[v, u]);
    }
    s
}

/// The k-clique query `φ_k(x₁,…,x_k) = ⋀_{1≤i<j≤k} E(x_i, x_j)`.
///
/// # Panics
/// Panics for `k < 2` (the paper's reductions use k ≥ 2; for k ∈ {0, 1}
/// count vertices directly).
pub fn clique_query(k: usize) -> Query {
    assert!(k >= 2, "clique queries need k >= 2");
    let var = |i: usize| format!("x{i}");
    let mut atoms = Vec::new();
    for i in 1..=k {
        for j in i + 1..=k {
            atoms.push(Formula::atom("E", &[var(i).as_str(), var(j).as_str()]));
        }
    }
    Query::from_formula(Formula::conjunction(atoms)).expect("valid clique query")
}

/// The k-clique query as a pp-formula over the graph signature.
pub fn clique_pp(k: usize) -> PpFormula {
    PpFormula::from_query(&clique_query(k), &graph_signature()).expect("clique query converts")
}

/// The *decision*-flavoured clique query `θ_k = ∃x₁…x_k . φ_k` (all
/// variables quantified; `|θ_k(G)| ∈ {0, 1}` decides k-clique existence).
pub fn clique_sentence_pp(k: usize) -> PpFormula {
    let q = clique_query(k);
    let names: Vec<String> = (1..=k).map(|i| format!("x{i}")).collect();
    let name_refs: Vec<&str> = names.iter().map(|s| s.as_str()).collect();
    let sentence = Formula::exists(&name_refs, q.formula().clone());
    let query = Query::from_formula(sentence).expect("valid clique sentence");
    PpFormula::from_query(&query, &graph_signature()).expect("converts")
}

/// Counts k-cliques through the answer-counting lens:
/// `#k-cliques = |φ_k(G)| / k!`.
pub fn count_cliques_via_answers(
    g: &Graph,
    k: usize,
    engine: &dyn crate::engines::PpCountingEngine,
) -> Natural {
    if k == 0 {
        return Natural::one();
    }
    if k == 1 {
        return Natural::from(g.vertex_count());
    }
    let pp = clique_pp(k);
    let b = graph_to_structure(g);
    let answers = engine.count(&pp, &b);
    let (q, r) = answers.div_rem(&factorial(k));
    debug_assert!(r.is_zero(), "answer count must be divisible by k!");
    q
}

/// `k!` as a [`Natural`].
pub fn factorial(k: usize) -> Natural {
    let mut acc = Natural::one();
    for i in 2..=k as u64 {
        acc = acc * Natural::from(i);
    }
    acc
}

/// The case-2 phenomenon made concrete: counting the answers of the
/// pendant-clique query `W_k(x) = ∃u₁…u_k . E(x,u₁) ∧ clique(u₁…u_k)`
/// using only a **clique-decision oracle** — each answer is a vertex `x`
/// whose neighborhood (unioned with vertices reachable by the pendant
/// edge pattern) contains a k-clique with a member adjacent to `x`.
///
/// `oracle(g, k)` must decide whether `g` has a k-clique. The number of
/// oracle calls is `|V(G)|` — a counting problem solved with decision
/// power, which is exactly why case-2 counting is *equivalent* to (not
/// harder than) the clique problem.
pub fn count_pendant_cliques_via_decision_oracle(
    g: &Graph,
    k: usize,
    oracle: &mut dyn FnMut(&Graph, usize) -> bool,
) -> Natural {
    let mut count = Natural::zero();
    let one = Natural::one();
    for x in 0..g.vertex_count() as u32 {
        // W_k(x) holds iff some neighbor u₁ of x lies in a k-clique.
        // Equivalently: the subgraph induced by N(x) ∪ N²-closure that a
        // clique through N(x) could use. A k-clique containing a neighbor
        // of x may include vertices not adjacent to x, so we test: does
        // the graph restricted to vertices-with-a-path-to-N(x) contain a
        // k-clique touching N(x)? Simplest sound encoding: for each
        // neighbor u of x, ask for a k-clique in the subgraph induced by
        // N(u) ∪ {u} — a k-clique containing u exists iff N(u) ∪ {u}
        // induces one containing u, and any k-clique in N(u) ∪ {u}
        // extends to one containing u (u is adjacent to all of N(u)).
        let witnessed = g.neighbors(x).iter().any(|&u| {
            let mut pool: Vec<u32> = g.neighbors(u).iter().copied().collect();
            pool.push(u);
            pool.sort_unstable();
            let (sub, _) = g.induced_subgraph(&pool);
            oracle(&sub, k)
        });
        if witnessed {
            count += &one;
        }
    }
    count
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engines::{BruteForceEngine, FptEngine};
    use epq_graph::cliques::count_k_cliques;
    use epq_graph::generators;

    #[test]
    fn clique_query_shape() {
        let q = clique_query(4);
        assert_eq!(q.formula().atoms().len(), 6);
        assert_eq!(q.liberal_count(), 4);
        let pp = clique_pp(3);
        assert_eq!(pp.structure().universe_size(), 3);
        assert_eq!(pp.structure().tuple_count(), 3);
    }

    #[test]
    fn factorials() {
        assert_eq!(factorial(0).to_u64(), Some(1));
        assert_eq!(factorial(1).to_u64(), Some(1));
        assert_eq!(factorial(5).to_u64(), Some(120));
    }

    #[test]
    fn triangle_counting_matches_graph_algorithm() {
        let g = Graph::from_edges(5, &[(0, 1), (0, 2), (1, 2), (2, 3), (3, 4), (2, 4)]);
        for k in 2..=4 {
            let via_graph = Natural::from(count_k_cliques(&g, k) as u64);
            let via_answers = count_cliques_via_answers(&g, k, &BruteForceEngine);
            assert_eq!(via_answers, via_graph, "k = {k}");
        }
    }

    #[test]
    fn complete_graph_counts() {
        let g = generators::complete_graph(6);
        let via_answers = count_cliques_via_answers(&g, 3, &FptEngine);
        assert_eq!(via_answers.to_u64(), Some(20)); // C(6,3)
    }

    #[test]
    fn clique_sentence_decides() {
        let yes = generators::complete_graph(4);
        let no = generators::cycle_graph(5);
        let theta = clique_sentence_pp(3);
        let b_yes = graph_to_structure(&yes);
        let b_no = graph_to_structure(&no);
        assert_eq!(
            crate::brute::count_pp_brute(&theta, &b_yes).to_u64(),
            Some(1)
        );
        assert_eq!(
            crate::brute::count_pp_brute(&theta, &b_no).to_u64(),
            Some(0)
        );
        // And through the FPT engine (which just runs the generic
        // algorithm — tractability is not required for correctness).
        assert_eq!(
            crate::fpt::count_pp_fpt(&theta, &b_yes, 1).to_u64(),
            Some(1)
        );
        assert_eq!(crate::fpt::count_pp_fpt(&theta, &b_no, 1).to_u64(), Some(0));
    }

    #[test]
    fn symmetric_encoding() {
        let g = Graph::from_edges(3, &[(0, 2)]);
        let s = graph_to_structure(&g);
        let e = s.signature().lookup("E").unwrap();
        assert!(s.has_tuple(e, &[0, 2]) && s.has_tuple(e, &[2, 0]));
        assert_eq!(s.tuple_count(), 2);
    }

    #[test]
    fn pendant_counting_via_decision_oracle_matches_fpt() {
        use crate::engines::PpCountingEngine;
        let graphs = [
            generators::complete_graph(6),
            generators::cycle_graph(7),
            Graph::from_edges(7, &[(0, 1), (1, 2), (2, 3), (1, 3), (2, 4), (3, 4), (5, 6)]),
        ];
        for g in graphs {
            for k in 2..=3usize {
                // The query-side count (the paper's problem).
                let vars: Vec<String> = (1..=k).map(|i| format!("u{i}")).collect();
                let mut atoms = vec![Formula::atom("E", &["x", vars[0].as_str()])];
                for i in 0..k {
                    for j in i + 1..k {
                        atoms.push(Formula::atom("E", &[vars[i].as_str(), vars[j].as_str()]));
                    }
                }
                let refs: Vec<&str> = vars.iter().map(|s| s.as_str()).collect();
                let q = Query::from_formula(Formula::exists(&refs, Formula::conjunction(atoms)))
                    .unwrap();
                let pp = PpFormula::from_query(&q, &graph_signature()).unwrap();
                let b = graph_to_structure(&g);
                let via_query = crate::engines::FptEngine.count(&pp, &b);
                // The decision-oracle count (case-2 reduction).
                let mut oracle_calls = 0usize;
                let mut oracle = |h: &Graph, k: usize| {
                    oracle_calls += 1;
                    epq_graph::cliques::has_k_clique(h, k)
                };
                let via_oracle = count_pendant_cliques_via_decision_oracle(&g, k, &mut oracle);
                assert_eq!(via_query, via_oracle, "k = {k}");
                assert!(oracle_calls <= g.vertex_count() * g.vertex_count());
            }
        }
    }

    #[test]
    fn zero_and_one_cliques() {
        let g = generators::path_graph(4);
        assert_eq!(
            count_cliques_via_answers(&g, 0, &BruteForceEngine).to_u64(),
            Some(1)
        );
        assert_eq!(
            count_cliques_via_answers(&g, 1, &BruteForceEngine).to_u64(),
            Some(4)
        );
    }
}
