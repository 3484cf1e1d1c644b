//! Signatures and finite relational structures.

use epq_graph::Graph;
use std::cmp::Ordering;
use std::fmt;

/// Identifier of a relation symbol within a [`Signature`] (its index).
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub struct RelId(pub u32);

/// A relational signature: a list of relation symbols with arities.
///
/// The paper's vocabularies contain only relation symbols (no constants or
/// function symbols); every arity is at least 1.
#[derive(Clone, PartialEq, Eq, Hash, Debug, Default)]
pub struct Signature {
    symbols: Vec<(String, usize)>,
}

impl Signature {
    /// An empty signature.
    pub fn new() -> Self {
        Signature::default()
    }

    /// Builds a signature from `(name, arity)` pairs.
    ///
    /// # Panics
    /// Panics on duplicate names or zero arities.
    pub fn from_symbols<I, S>(symbols: I) -> Self
    where
        I: IntoIterator<Item = (S, usize)>,
        S: Into<String>,
    {
        let mut sig = Signature::new();
        for (name, arity) in symbols {
            sig.add_symbol(name.into(), arity);
        }
        sig
    }

    /// Adds a relation symbol, returning its [`RelId`].
    ///
    /// # Panics
    /// Panics on duplicate names or zero arity.
    pub fn add_symbol(&mut self, name: impl Into<String>, arity: usize) -> RelId {
        let name = name.into();
        assert!(arity >= 1, "relation symbols must have arity >= 1");
        assert!(
            self.lookup(&name).is_none(),
            "duplicate relation symbol {name:?}"
        );
        self.symbols.push((name, arity));
        RelId(self.symbols.len() as u32 - 1)
    }

    /// Number of relation symbols.
    pub fn len(&self) -> usize {
        self.symbols.len()
    }

    /// Whether there are no symbols.
    pub fn is_empty(&self) -> bool {
        self.symbols.is_empty()
    }

    /// Finds a symbol by name.
    pub fn lookup(&self, name: &str) -> Option<RelId> {
        self.symbols
            .iter()
            .position(|(n, _)| n == name)
            .map(|i| RelId(i as u32))
    }

    /// Name of a symbol.
    pub fn name(&self, rel: RelId) -> &str {
        &self.symbols[rel.0 as usize].0
    }

    /// Arity of a symbol.
    pub fn arity(&self, rel: RelId) -> usize {
        self.symbols[rel.0 as usize].1
    }

    /// The largest arity (0 for the empty signature).
    pub fn max_arity(&self) -> usize {
        self.symbols.iter().map(|&(_, a)| a).max().unwrap_or(0)
    }

    /// Iterator over `(RelId, name, arity)`.
    pub fn iter(&self) -> impl Iterator<Item = (RelId, &str, usize)> {
        self.symbols
            .iter()
            .enumerate()
            .map(|(i, (n, a))| (RelId(i as u32), n.as_str(), *a))
    }
}

/// Binary search over `len` sorted rows of width `key.len()` stored back
/// to back in `rows`: `Ok(i)` if row `i` equals `key`, `Err(i)` if `key`
/// belongs before row `i`. [`Relation`] probes its arena through it.
#[inline]
fn search_rows(rows: &[u32], len: usize, key: &[u32]) -> Result<usize, usize> {
    let arity = key.len();
    let (mut lo, mut hi) = (0, len);
    while lo < hi {
        let mid = lo + (hi - lo) / 2;
        match rows[mid * arity..(mid + 1) * arity].cmp(key) {
            Ordering::Less => lo = mid + 1,
            Ordering::Greater => hi = mid,
            Ordering::Equal => return Ok(mid),
        }
    }
    Err(lo)
}

/// One relation instance: an `arity`-strided, sorted, deduplicated tuple
/// store.
#[derive(Clone, PartialEq, Eq, Hash, Debug)]
pub struct Relation {
    arity: usize,
    /// Flattened tuples (length = arity × tuple count), sorted as tuples.
    data: Vec<u32>,
}

impl Relation {
    fn new(arity: usize) -> Self {
        Relation {
            arity,
            data: Vec::new(),
        }
    }

    /// The arity.
    pub fn arity(&self) -> usize {
        self.arity
    }

    /// Number of tuples.
    pub fn len(&self) -> usize {
        self.data.len().checked_div(self.arity).unwrap_or(0)
    }

    /// Whether the relation is empty.
    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }

    /// Iterator over tuples (as slices).
    pub fn tuples(&self) -> impl Iterator<Item = &[u32]> + '_ {
        self.data.chunks_exact(self.arity)
    }

    /// [`search_rows`] over the arena.
    fn search(&self, tuple: &[u32]) -> Result<usize, usize> {
        assert_eq!(tuple.len(), self.arity, "tuple arity mismatch");
        search_rows(&self.data, self.len(), tuple)
    }

    /// Whether `tuple` is in the relation (no allocation).
    pub fn contains(&self, tuple: &[u32]) -> bool {
        self.search(tuple).is_ok()
    }

    /// Inserts `tuple` at its sorted position, growing the arena by
    /// exactly one tuple; returns whether it was new.
    fn insert(&mut self, tuple: &[u32]) -> bool {
        let Err(i) = self.search(tuple) else {
            return false;
        };
        let at = i * self.arity;
        self.data.reserve_exact(self.arity);
        self.data.splice(at..at, tuple.iter().copied());
        true
    }
}

/// A finite relational structure: a universe `{0, …, n−1}` plus one
/// [`Relation`] per signature symbol.
#[derive(Clone, PartialEq, Eq, Hash)]
pub struct Structure {
    signature: Signature,
    universe_size: usize,
    relations: Vec<Relation>,
}

impl Structure {
    /// An empty structure over `signature` with the given universe size.
    pub fn new(signature: Signature, universe_size: usize) -> Self {
        let relations = signature
            .iter()
            .map(|(_, _, arity)| Relation::new(arity))
            .collect();
        Structure {
            signature,
            universe_size,
            relations,
        }
    }

    /// The signature.
    pub fn signature(&self) -> &Signature {
        &self.signature
    }

    /// Universe size.
    pub fn universe_size(&self) -> usize {
        self.universe_size
    }

    /// Iterator over the universe elements `0..n`.
    pub fn universe(&self) -> impl Iterator<Item = u32> {
        0..self.universe_size as u32
    }

    /// The relation of `rel`.
    pub fn relation(&self, rel: RelId) -> &Relation {
        &self.relations[rel.0 as usize]
    }

    /// Adds a tuple to `rel`'s relation (idempotent), returning whether
    /// it was new.
    ///
    /// # Panics
    /// Panics if elements are out of range or the arity mismatches.
    pub fn add_tuple(&mut self, rel: RelId, tuple: &[u32]) -> bool {
        for &e in tuple {
            assert!(
                (e as usize) < self.universe_size,
                "element {e} outside universe of size {}",
                self.universe_size
            );
        }
        self.relations[rel.0 as usize].insert(tuple)
    }

    /// Adds a tuple by relation name.
    pub fn add_tuple_named(&mut self, name: &str, tuple: &[u32]) {
        let rel = self
            .signature
            .lookup(name)
            .unwrap_or_else(|| panic!("unknown relation {name:?}"));
        self.add_tuple(rel, tuple);
    }

    /// Whether `tuple` belongs to `rel`'s relation.
    pub fn has_tuple(&self, rel: RelId, tuple: &[u32]) -> bool {
        self.relations[rel.0 as usize].contains(tuple)
    }

    /// Total number of tuples across all relations.
    pub fn tuple_count(&self) -> usize {
        self.relations.iter().map(|r| r.len()).sum()
    }

    /// The Gaifman graph: vertices are universe elements, with an edge
    /// between two distinct elements that co-occur in some tuple.
    ///
    /// This is the "graph of a pp-formula" from the paper (Section 2.1)
    /// when the structure is a query structure.
    pub fn gaifman_graph(&self) -> Graph {
        let mut g = Graph::new(self.universe_size);
        for rel in &self.relations {
            for tuple in rel.tuples() {
                for (i, &a) in tuple.iter().enumerate() {
                    for &b in &tuple[i + 1..] {
                        if a != b {
                            g.add_edge(a, b);
                        }
                    }
                }
            }
        }
        g
    }

    /// The substructure induced by `elements` (which may be unsorted but
    /// must be duplicate-free); also returns the map from new index to old
    /// element.
    pub fn induced_substructure(&self, elements: &[u32]) -> (Structure, Vec<u32>) {
        let mut index_of = vec![u32::MAX; self.universe_size];
        for (new, &old) in elements.iter().enumerate() {
            assert!(
                index_of[old as usize] == u32::MAX,
                "duplicate element {old} in induced_substructure"
            );
            index_of[old as usize] = new as u32;
        }
        let mut sub = Structure::new(self.signature.clone(), elements.len());
        let mut scratch = Vec::new();
        for (rel, _, _) in self.signature.iter() {
            for tuple in self.relation(rel).tuples() {
                scratch.clear();
                if tuple.iter().all(|&e| index_of[e as usize] != u32::MAX) {
                    scratch.extend(tuple.iter().map(|&e| index_of[e as usize]));
                    sub.add_tuple(rel, &scratch);
                }
            }
        }
        (sub, elements.to_vec())
    }
}

impl fmt::Debug for Structure {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self)
    }
}

impl fmt::Display for Structure {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "structure {{")?;
        writeln!(f, "  universe {}", self.universe_size)?;
        for (rel, name, _) in self.signature.iter() {
            write!(f, "  {} = {{", name)?;
            let mut first = true;
            for tuple in self.relation(rel).tuples() {
                if !first {
                    write!(f, ",")?;
                }
                first = false;
                write!(f, " (")?;
                for (i, e) in tuple.iter().enumerate() {
                    if i > 0 {
                        write!(f, ",")?;
                    }
                    write!(f, "{e}")?;
                }
                write!(f, ")")?;
            }
            writeln!(f, " }}")?;
        }
        write!(f, "}}")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn digraph_sig() -> Signature {
        Signature::from_symbols([("E", 2)])
    }

    #[test]
    fn signature_lookup_and_arity() {
        let sig = Signature::from_symbols([("E", 2), ("F", 3)]);
        assert_eq!(sig.lookup("E"), Some(RelId(0)));
        assert_eq!(sig.lookup("F"), Some(RelId(1)));
        assert_eq!(sig.lookup("G"), None);
        assert_eq!(sig.arity(RelId(1)), 3);
        assert_eq!(sig.max_arity(), 3);
        assert_eq!(sig.name(RelId(0)), "E");
    }

    #[test]
    #[should_panic(expected = "duplicate relation symbol")]
    fn duplicate_symbol_panics() {
        Signature::from_symbols([("E", 2), ("E", 2)]);
    }

    #[test]
    #[should_panic(expected = "arity >= 1")]
    fn zero_arity_panics() {
        Signature::from_symbols([("E", 0)]);
    }

    #[test]
    fn tuples_are_sorted_and_deduped() {
        let mut s = Structure::new(digraph_sig(), 3);
        let e = RelId(0);
        s.add_tuple(e, &[2, 1]);
        s.add_tuple(e, &[0, 1]);
        s.add_tuple(e, &[2, 1]);
        let tuples: Vec<Vec<u32>> = s.relation(e).tuples().map(|t| t.to_vec()).collect();
        assert_eq!(tuples, vec![vec![0, 1], vec![2, 1]]);
        assert!(s.has_tuple(e, &[2, 1]));
        assert!(!s.has_tuple(e, &[1, 2]));
        assert_eq!(s.tuple_count(), 2);
    }

    #[test]
    #[should_panic(expected = "outside universe")]
    fn out_of_range_tuple_panics() {
        let mut s = Structure::new(digraph_sig(), 2);
        s.add_tuple(RelId(0), &[0, 5]);
    }

    #[test]
    fn gaifman_graph_of_ternary_tuple() {
        let sig = Signature::from_symbols([("T", 3)]);
        let mut s = Structure::new(sig, 4);
        s.add_tuple(RelId(0), &[0, 1, 2]);
        let g = s.gaifman_graph();
        assert!(g.has_edge(0, 1) && g.has_edge(1, 2) && g.has_edge(0, 2));
        assert!(!g.has_edge(0, 3));
        assert_eq!(g.edge_count(), 3);
    }

    #[test]
    fn gaifman_ignores_repeated_elements() {
        let mut s = Structure::new(digraph_sig(), 2);
        s.add_tuple(RelId(0), &[1, 1]);
        assert_eq!(s.gaifman_graph().edge_count(), 0);
    }

    #[test]
    fn induced_substructure_filters_tuples() {
        let mut s = Structure::new(digraph_sig(), 4);
        let e = RelId(0);
        s.add_tuple(e, &[0, 1]);
        s.add_tuple(e, &[1, 2]);
        s.add_tuple(e, &[2, 3]);
        let (sub, map) = s.induced_substructure(&[1, 2]);
        assert_eq!(map, vec![1, 2]);
        assert_eq!(sub.universe_size(), 2);
        // Only (1,2) survives, renamed to (0,1).
        assert!(sub.has_tuple(e, &[0, 1]));
        assert_eq!(sub.tuple_count(), 1);
    }

    #[test]
    fn display_format() {
        let mut s = Structure::new(digraph_sig(), 2);
        s.add_tuple(RelId(0), &[0, 1]);
        let shown = s.to_string();
        assert!(shown.contains("universe 2"));
        assert!(shown.contains("E = { (0,1) }"));
    }
}
