//! Evaluating pp-formulas and UCQs with relational algebra.

use crate::relation::Relation;
use epq_bigint::Natural;
use epq_graph::{treewidth, Graph};
use epq_logic::{PpFormula, Var};
use epq_structures::{RelId, Structure};
use std::collections::HashMap;

/// Scans one atom `(rel, element-tuple)` against `b`, producing a
/// relation whose schema is the atom's distinct element indices in order
/// of first occurrence (repeated elements become equality selections).
/// This is the one atom scan of the workspace: the relational-algebra
/// joins and the CSP constraints of `epq-counting` both build on it.
pub fn scan_atom(b: &Structure, rel: RelId, atom: &[u32]) -> Relation {
    // Each position's first occurrence of its element; the distinct
    // columns are the positions that are their own first occurrence.
    let first: Vec<usize> = atom
        .iter()
        .map(|e| atom.iter().position(|x| x == e).unwrap())
        .collect();
    let positions: Vec<usize> = (0..atom.len()).filter(|&i| first[i] == i).collect();
    let tuples = b.relation(rel);
    if positions.is_empty() {
        // A nullary atom is a presence test.
        return if tuples.is_empty() {
            Relation::empty()
        } else {
            Relation::unit()
        };
    }
    // Matching tuples stream straight into the relation's flat arena —
    // no per-row Vec.
    let mut data: Vec<u32> = Vec::new();
    for t in tuples.tuples() {
        if first.iter().enumerate().all(|(i, &f)| t[i] == t[f]) {
            data.extend(positions.iter().map(|&i| t[i]));
        }
    }
    Relation::from_flat(positions.iter().map(|&i| atom[i]).collect(), data)
}

/// A cache of atom-scan intermediates over **one** structure, the
/// relational-algebra hook behind incremental re-counting
/// (`epq_core::incremental::LiveCount`).
///
/// The scan of an atom depends only on the target relation's tuples and
/// the atom's **repeat pattern** (which positions carry equal element
/// indices) — not on the concrete indices, the enclosing formula, or
/// the ∃-component numbering. Entries are therefore keyed on
/// `(relation, pattern)` and stored with a pattern-canonical schema; a
/// hit is one arena clone plus a schema rename (no rescan, no re-sort),
/// and one entry serves every disjunct that scans the same shape.
///
/// **Coherence is the caller's contract:** a cache belongs to one
/// structure, and every relation that gains tuples must be
/// [`ScanCache::invalidate`]d before the next evaluation against it.
#[derive(Debug, Default)]
pub struct ScanCache {
    /// `(relation id, repeat-pattern-normalized atom) → scan` with the
    /// pattern-canonical schema `0..k`.
    map: HashMap<(u32, Vec<u32>), Relation>,
    hits: usize,
    misses: usize,
}

impl ScanCache {
    /// An empty cache.
    pub fn new() -> Self {
        ScanCache::default()
    }

    /// Number of cached scans.
    pub fn len(&self) -> usize {
        self.map.len()
    }

    /// Whether the cache is empty.
    pub fn is_empty(&self) -> bool {
        self.map.is_empty()
    }

    /// Scan lookups answered from the cache.
    pub fn hits(&self) -> usize {
        self.hits
    }

    /// Scan lookups that ran the real scan.
    pub fn misses(&self) -> usize {
        self.misses
    }

    /// Drops every cached scan of `rel` — call after `rel` gains
    /// tuples.
    pub fn invalidate(&mut self, rel: RelId) {
        self.map.retain(|&(r, _), _| r != rel.0);
    }

    /// Drops everything (the counters keep accumulating).
    pub fn clear(&mut self) {
        self.map.clear();
    }

    /// The scan of `atom` against `b.relation(rel)`, from the cache
    /// when the `(rel, pattern)` shape was scanned before.
    pub fn scan(&mut self, b: &Structure, rel: RelId, atom: &[u32]) -> Relation {
        // Normalize to the repeat pattern (first occurrence ↦ 0, 1, …)
        // and remember the atom's real distinct-element schema.
        let mut schema: Vec<u32> = Vec::new();
        let pattern: Vec<u32> = atom
            .iter()
            .map(|&e| match schema.iter().position(|&s| s == e) {
                Some(i) => i as u32,
                None => {
                    schema.push(e);
                    schema.len() as u32 - 1
                }
            })
            .collect();
        if let Some(cached) = self.map.get(&(rel.0, pattern.clone())) {
            self.hits += 1;
            return cached.clone().renamed(schema);
        }
        self.misses += 1;
        // Scanning the pattern itself yields the canonical schema
        // `0..k`, which is what the map stores.
        let canonical = scan_atom(b, rel, &pattern);
        let out = canonical.clone().renamed(schema);
        self.map.insert((rel.0, pattern), canonical);
        out
    }
}

/// Projects the natural join of `relations` onto `keep` by variable
/// elimination. This is the one ∃-projection of the workspace: relalg's
/// counts and answer sets, and the fpt engine's boundary constraints and
/// sentence checks, all come from it. Over bags
/// ([`Relation::counted`]) the same steps sum where sets deduplicate, so
/// each kept row's multiplicity counts its extensions to every column:
/// the fpt engine counts the contract graph's solutions that way, with
/// `keep` empty.
///
/// Each column outside `keep` is removed in turn: the relations that
/// mention it (its *bucket*) are joined, the column is projected away
/// inside the last join (the full-width join is never stored), and the
/// projection replaces the bucket, whose inputs are dropped at once. A
/// bucket that is one bag is projected instead onto its columns that
/// `keep` or another relation still needs, which sums all its other
/// columns away in one pass; a set keeps one step per column, the steps
/// `epq explain` prints. `on_step(column, joined rows, projected rows)`
/// sees each step.
/// What is left is joined and projected onto `keep`, in `keep`'s order.
///
/// The order comes from a tree decomposition of the relations' primal
/// graph with `keep` made a clique, never from relation sizes: bags are
/// visited deepest first from a root bag that holds `keep`, and a column
/// is removed at the highest bag that holds it. Each bucket's columns
/// then lie in that bag, so with a decomposition of width `w` no
/// intermediate has more than `|B|^(w+1)` rows. Only the join order
/// inside one bucket, and of what is left, looks at sizes (smallest
/// first); it cannot break that bound.
///
/// An empty intermediate ends the run with the empty relation over
/// `keep`. With `keep` empty the result is [`Relation::unit`] or
/// [`Relation::empty`]: a satisfiability verdict (over bags, a nullary
/// bag whose [`Relation::total`] is the count). Joins run on up to
/// `threads` pool workers, and the result is identical at every thread
/// count.
///
/// # Panics
/// Panics if a column of `keep` is in no relation.
pub fn eliminate(
    relations: Vec<Relation>,
    keep: &[u32],
    threads: usize,
    on_step: &mut dyn FnMut(u32, usize, usize),
) -> Relation {
    let order = elimination_order(&relations, keep);
    let mut pool = relations;
    for column in order {
        let (bucket, rest): (Vec<Relation>, _) = pool
            .into_iter()
            .partition(|r: &Relation| r.schema().contains(&column));
        pool = rest;
        let (projected, joined) = match &bucket[..] {
            // A column summed away with an earlier lone bag.
            [] => continue,
            [lone] if lone.is_bag() => {
                let needed: Vec<u32> = (lone.schema().iter().copied())
                    .filter(|c| keep.contains(c) || pool.iter().any(|r| r.schema().contains(c)))
                    .collect();
                (lone.project(&needed), lone.len())
            }
            _ => join_connected(bucket, Some(column), threads),
        };
        on_step(column, joined, projected.len());
        if projected.is_empty() {
            return Relation::new(keep.to_vec(), Vec::new());
        }
        pool.push(projected);
    }
    let (joined, _) = join_connected(pool, None, threads);
    if joined.is_empty() {
        Relation::new(keep.to_vec(), Vec::new())
    } else if joined.schema() == keep {
        joined
    } else {
        joined.project(keep)
    }
}

/// Joins `relations` smallest first, taking next the smallest one that
/// shares a column with the join so far (or else the smallest left), and
/// stops at an empty join. The last join projects `drop` away in the
/// same pass ([`Relation::join_dropping`]) and also returns the row
/// count of the join before that projection.
fn join_connected(
    mut relations: Vec<Relation>,
    drop: Option<u32>,
    threads: usize,
) -> (Relation, usize) {
    relations.sort_by_key(Relation::len);
    // A lone relation with a column to drop is joined to the unit
    // relation, which projects it; any other first relation moves.
    let mut acc = match (relations.len(), drop) {
        (0, _) | (1, Some(_)) => (Relation::unit(), 1),
        _ => {
            let first = relations.remove(0);
            let rows = first.len();
            (first, rows)
        }
    };
    while !relations.is_empty() && !acc.0.is_empty() {
        let next = relations
            .iter()
            .position(|r| r.schema().iter().any(|c| acc.0.schema().contains(c)))
            .unwrap_or(0);
        let other = relations.remove(next);
        let last = relations.is_empty();
        acc = acc.0.join_dropping(&other, drop.filter(|_| last), threads);
    }
    acc
}

/// The columns outside `keep`, in the order [`eliminate`] removes them.
fn elimination_order(relations: &[Relation], keep: &[u32]) -> Vec<u32> {
    let mut columns: Vec<u32> = relations.iter().flat_map(|r| r.schema().to_vec()).collect();
    columns.sort_unstable();
    columns.dedup();
    let local = |c: &u32| match columns.binary_search(c) {
        Ok(v) => v as u32,
        Err(_) => panic!("kept column {c} is in no relation"),
    };
    let keep: Vec<u32> = keep.iter().map(local).collect();
    if keep.len() == columns.len() {
        return Vec::new();
    }
    let mut primal = Graph::new(columns.len());
    let scopes = relations
        .iter()
        .map(|r| r.schema().iter().map(local).collect());
    for scope in scopes.chain([keep.clone()]) {
        let scope: Vec<u32> = scope;
        for (i, &a) in scope.iter().enumerate() {
            for &b in &scope[i + 1..] {
                primal.add_edge(a, b);
            }
        }
    }
    // Breadth first from a bag that holds `keep`: a column's first bag is
    // the highest that holds it, and deeper bags come later.
    let td = treewidth::best_decomposition(&primal);
    let bags = td.bags();
    let root = bags
        .iter()
        .position(|bag| keep.iter().all(|v| bag.contains(v)));
    let mut visit = vec![root.expect("a clique lies in one bag")];
    let mut next = 0;
    while let Some(&bag) = visit.get(next) {
        for &(a, b) in td.edges() {
            for (from, to) in [(a, b), (b, a)] {
                if from == bag && !visit.contains(&to) {
                    visit.push(to);
                }
            }
        }
        next += 1;
    }
    let top = |v: &u32| visit.iter().position(|&bag| bags[bag].contains(v));
    let mut order: Vec<u32> = (0..columns.len() as u32)
        .filter(|v| !keep.contains(v))
        .collect();
    order.sort_by_key(|v| std::cmp::Reverse(top(v)));
    order.into_iter().map(|v| columns[v as usize]).collect()
}

/// Counts `|φ(B)|` for a pp-formula by relational algebra, component by
/// component: `|φ(B)| = Π_i |φᵢ(B)|` (Section 2.1 of the paper), where an
/// isolated liberal variable contributes |B|, an isolated quantified one
/// 1 or 0, and every other component the rows of its [`eliminate`]
/// projection onto its liberal slots (1 or 0 for a sentence).
///
/// Every join's outer relation is work-sharded across up to `threads`
/// pool workers (see [`Relation::join`]); counts are bit-identical at
/// every thread count.
pub fn count_pp(pp: &PpFormula, b: &Structure, threads: usize) -> Natural {
    count_pp_via(pp, b, threads, &mut scan_atom, None)
}

/// [`count_pp`] with atom scans served from (and inserted into)
/// `cache` — the incremental-maintenance entry point: after a few
/// relations change, re-evaluating a formula rescans only atoms over
/// the relations the caller [`ScanCache::invalidate`]d, and reuses
/// every other scan. Counts are bit-identical to [`count_pp`] —
/// identical scans feed the identical elimination —
/// provided the cache is coherent with `b` (see [`ScanCache`]).
pub fn count_pp_cached(
    pp: &PpFormula,
    b: &Structure,
    cache: &mut ScanCache,
    threads: usize,
) -> Natural {
    count_pp_via(
        pp,
        b,
        threads,
        &mut |b, rel, atom| cache.scan(b, rel, atom),
        None,
    )
}

fn count_pp_via(
    pp: &PpFormula,
    b: &Structure,
    threads: usize,
    scan: &mut dyn FnMut(&Structure, RelId, &[u32]) -> Relation,
    mut plan: Option<&mut Vec<String>>,
) -> Natural {
    let mut total = Natural::one();
    for component in pp.components() {
        let factor = match component.structure().tuple_count() {
            // A Gaifman-isolated variable: |B| values, or for ∃u.⊤
            // whether the universe is nonempty.
            0 if component.liberal_count() == 1 => b.universe_size(),
            0 => b.universe_size().min(1),
            _ => component_answers(&component, b, threads, scan, plan.as_deref_mut()).len(),
        };
        if factor == 0 {
            return Natural::zero();
        }
        total = total * Natural::from(factor);
    }
    total
}

/// The answers of one component that has atoms, over its liberal slots
/// `0..liberal_count`: one scan per atom, pulled from `scan` (a direct
/// [`scan_atom`] or a [`ScanCache`]), then [`eliminate`] of every
/// quantified element. Records the scans and steps in `plan` when one
/// is given.
fn component_answers(
    component: &PpFormula,
    b: &Structure,
    threads: usize,
    scan: &mut dyn FnMut(&Structure, RelId, &[u32]) -> Relation,
    mut plan: Option<&mut Vec<String>>,
) -> Relation {
    let names = |elements: &[u32]| {
        let names: Vec<String> = elements
            .iter()
            .map(|&e| component.name(e).to_string())
            .collect();
        names.join(", ")
    };
    let mut scans = Vec::new();
    for (rel, name, _) in component.signature().iter() {
        for atom in component.structure().relation(rel).tuples() {
            let r = scan(b, rel, atom);
            if let Some(plan) = plan.as_deref_mut() {
                let rows = r.len();
                plan.push(format!("scan {name}({}) -> {rows} rows", names(atom)));
            }
            scans.push(r);
        }
    }
    let keep: Vec<u32> = component.liberal_indices().collect();
    let answers = eliminate(scans, &keep, threads, &mut |column, joined, projected| {
        if let Some(plan) = plan.as_deref_mut() {
            let name = component.name(column);
            plan.push(format!(
                "eliminate {name}: join -> {joined} rows, project -> {projected} rows"
            ));
        }
    });
    if let Some(plan) = plan {
        let rows = answers.len();
        plan.push(format!("join ({}) -> {rows} rows", names(&keep)));
    }
    answers
}

/// Materializes the full answer set `φ(B)` of a pp-formula as a relation
/// over the liberal slots `0..liberal_count` (isolated liberal variables
/// are extended over the whole universe — this is where materialization
/// pays the |B|^k price that pure counting avoids). Joins run on up to
/// `threads` pool workers (bit-identical results; see [`count_pp`]).
pub fn answers_pp(pp: &PpFormula, b: &Structure, threads: usize) -> Relation {
    let slot_of = |name: &Var| pp.liberal_names().iter().position(|v| v == name).unwrap() as u32;
    let none = || Relation::new(pp.liberal_indices().collect(), Vec::new());
    let mut acc = Relation::unit();
    for component in pp.components() {
        if component.structure().tuple_count() == 0 {
            if component.liberal_count() == 1 {
                acc = acc.extend_with_domain(slot_of(component.name(0)), b.universe_size());
            } else if b.universe_size() == 0 {
                return none();
            }
            continue;
        }
        let answers = component_answers(&component, b, threads, &mut scan_atom, None);
        if answers.is_empty() {
            return none();
        }
        if component.liberal_count() == 0 {
            continue;
        }
        // Rename this component's liberal slots to the parent's by name.
        let parent_slots = component.liberal_names().iter().map(slot_of).collect();
        acc = acc.join(&answers.renamed(parent_slots), threads);
    }
    acc.project(&pp.liberal_indices().collect::<Vec<_>>())
}

/// Counts `|φ(B)|` for a UCQ given as disjuncts over a shared liberal
/// variable set, by materializing and unioning the disjunct answer sets
/// (set semantics). Joins inside each disjunct's materialization run on
/// up to `threads` pool workers (bit-identical results; see
/// [`count_pp`]).
pub fn count_ucq(disjuncts: &[PpFormula], b: &Structure, threads: usize) -> Natural {
    let mut acc: Option<Relation> = None;
    for d in disjuncts {
        let answers = answers_pp(d, b, threads);
        acc = Some(match acc {
            None => answers,
            Some(u) => u.union(&answers),
        });
    }
    match acc {
        None => Natural::zero(),
        Some(u) => Natural::from(u.len()),
    }
}

/// The steps `epq explain` shows for a pp-formula, one line each: per
/// component, the atom scans (`scan E(x, u) -> 3 rows`), each
/// elimination step (`eliminate u: join -> 12 rows, project -> 4 rows`)
/// and the answer rows (`join (x) -> 4 rows`), exactly as [`count_pp`]
/// runs them, then the count (`count -> 4`).
pub fn explain_pp(pp: &PpFormula, b: &Structure) -> Vec<String> {
    let mut steps = Vec::new();
    let count = count_pp_via(pp, b, 1, &mut scan_atom, Some(&mut steps));
    steps.push(format!("count -> {count}"));
    steps
}

#[cfg(test)]
mod tests {
    use super::*;
    use epq_logic::parser::parse_query;
    use epq_logic::query::infer_signature;
    use epq_logic::{dnf, Query};
    use epq_structures::Signature;

    fn pp_of(text: &str) -> PpFormula {
        let q = parse_query(text).unwrap();
        let sig = infer_signature([q.formula()]).unwrap();
        PpFormula::from_query(&q, &sig).unwrap()
    }

    fn ucq_of(text: &str) -> (Query, Vec<PpFormula>) {
        let q = parse_query(text).unwrap();
        let sig = infer_signature([q.formula()]).unwrap();
        let ds = dnf::disjuncts(&q, &sig).unwrap();
        (q, ds)
    }

    /// The path structure 0 → 1 → 2 → 3 with a loop at 3 (Example 4.3's C,
    /// 0-based).
    fn example_c() -> Structure {
        let sig = Signature::from_symbols([("E", 2)]);
        let mut s = Structure::new(sig, 4);
        for (u, v) in [(0, 1), (1, 2), (2, 3), (3, 3)] {
            s.add_tuple_named("E", &[u, v]);
        }
        s
    }

    #[test]
    fn count_single_edge_query() {
        let pp = pp_of("E(x,y)");
        assert_eq!(count_pp(&pp, &example_c(), 1).to_u64(), Some(4));
    }

    #[test]
    fn count_with_liberal_only_variable() {
        // (x,y,z) := E(x,y): z ranges over the universe → 4·4 = 16.
        let pp = pp_of("(x,y,z) := E(x,y)");
        assert_eq!(count_pp(&pp, &example_c(), 1).to_u64(), Some(16));
    }

    #[test]
    fn count_quantified_query() {
        // (x) := exists u . E(x,u): vertices with out-edges = {0,1,2,3}.
        let pp = pp_of("(x) := exists u . E(x,u)");
        assert_eq!(count_pp(&pp, &example_c(), 1).to_u64(), Some(4));
        // (x) := exists u . E(u,x): vertices with in-edges = {1,2,3}.
        let pp = pp_of("(x) := exists u . E(u,x)");
        assert_eq!(count_pp(&pp, &example_c(), 1).to_u64(), Some(3));
    }

    #[test]
    fn count_path_of_length_two() {
        // E(x,y) & E(y,z): walks of length 2 in C:
        // 0→1→2, 1→2→3, 2→3→3, 3→3→3 = 4.
        let pp = pp_of("E(x,y) & E(y,z)");
        assert_eq!(count_pp(&pp, &example_c(), 1).to_u64(), Some(4));
    }

    #[test]
    fn repeated_variable_atom() {
        // E(x,x): only the loop at 3.
        let pp = pp_of("E(x,x)");
        assert_eq!(count_pp(&pp, &example_c(), 1).to_u64(), Some(1));
    }

    #[test]
    fn sentence_component_gates_count() {
        // (x) := E(x,x) & (exists a,b,c: path of length 2 among quantified).
        let pp = pp_of("(x) := E(x,x) & (exists a, b, c . E(a,b) & E(b,c))");
        assert_eq!(count_pp(&pp, &example_c(), 1).to_u64(), Some(1));
        // With an unsatisfiable sentence part (loop-free structure needed):
        let sig = Signature::from_symbols([("E", 2)]);
        let mut b = Structure::new(sig, 2);
        b.add_tuple_named("E", &[0, 0]);
        let pp2 = pp_of("(x) := E(x,x) & (exists a, b . F(a,b))");
        // F is empty in b — need F in signature.
        let sig2 = Signature::from_symbols([("E", 2), ("F", 2)]);
        let mut b2 = Structure::new(sig2.clone(), 2);
        b2.add_tuple_named("E", &[0, 0]);
        let q = parse_query("(x) := E(x,x) & (exists a, b . F(a,b))").unwrap();
        let pp2b = PpFormula::from_query(&q, &sig2).unwrap();
        assert_eq!(count_pp(&pp2b, &b2, 1).to_u64(), Some(0));
        let _ = pp2;
    }

    #[test]
    fn answers_match_counts() {
        for text in [
            "E(x,y)",
            "(x,y,z) := E(x,y)",
            "(x) := exists u . E(x,u) & E(u,u)",
            "E(x,y) & E(y,z)",
        ] {
            let pp = pp_of(text);
            let b = example_c();
            assert_eq!(
                Natural::from(answers_pp(&pp, &b, 1).len()),
                count_pp(&pp, &b, 1),
                "query {text}"
            );
        }
    }

    #[test]
    fn ucq_union_semantics() {
        // Example 2.1: φ(x,y,z) = E(x,y) ∨ S(y,z) — answers are the union
        // over the full liberal set.
        let sig = Signature::from_symbols([("E", 2), ("S", 2)]);
        let q = parse_query("(x,y,z) := E(x,y) | S(y,z)").unwrap();
        let ds = dnf::disjuncts(&q, &sig).unwrap();
        let mut b = Structure::new(sig, 3);
        b.add_tuple_named("E", &[0, 1]);
        b.add_tuple_named("S", &[1, 2]);
        // E(x,y)=(0,1): z free → 3 rows; S(y,z)=(1,2): x free → 3 rows;
        // overlap: (x,y,z)=(0,1,2) counted once → 5.
        assert_eq!(count_ucq(&ds, &b, 1).to_u64(), Some(5));
    }

    #[test]
    fn ucq_of_example_4_1_matches_inclusion_exclusion_identity() {
        let (_, ds) = ucq_of("(w,x,y,z) := E(x,y) & (E(w,x) | (E(y,z) & E(z,z)))");
        let b = example_c();
        let whole = count_ucq(&ds, &b, 1);
        // |φ| = |φ1| + |φ2| − |φ1 ∧ φ2|.
        let phi1 = &ds[0];
        let phi2 = &ds[1];
        let conj = PpFormula::conjoin(&[phi1, phi2]);
        let rhs = count_pp(phi1, &b, 1) + count_pp(phi2, &b, 1);
        let sub = count_pp(&conj, &b, 1);
        assert_eq!(rhs.checked_sub(&sub).unwrap(), whole);
    }

    #[test]
    fn empty_structure_counts() {
        let sig = Signature::from_symbols([("E", 2)]);
        let empty = Structure::new(sig, 0);
        assert_eq!(count_pp(&pp_of("E(x,y)"), &empty, 1).to_u64(), Some(0));
        // Sentence with quantifier on the empty structure: 0.
        let pp = pp_of("exists a . E(a,a)");
        assert_eq!(count_pp(&pp, &empty, 1).to_u64(), Some(0));
    }

    #[test]
    fn cached_counts_match_uncached_across_invalidation() {
        let texts = [
            "E(x,y)",
            "(x,y,z) := E(x,y)",
            "(x) := exists u . E(x,u) & E(u,u)",
            "E(x,y) & E(y,z)",
            "E(x,x)",
        ];
        let mut b = example_c();
        let mut cache = ScanCache::new();
        for text in texts {
            let pp = pp_of(text);
            assert_eq!(
                count_pp_cached(&pp, &b, &mut cache, 1),
                count_pp(&pp, &b, 1),
                "cold cache, query {text}"
            );
        }
        assert!(cache.misses() > 0);
        // Warm pass: every scan shape is resident.
        let miss_watermark = cache.misses();
        for text in texts {
            let pp = pp_of(text);
            assert_eq!(
                count_pp_cached(&pp, &b, &mut cache, 1),
                count_pp(&pp, &b, 1),
                "warm cache, query {text}"
            );
        }
        assert_eq!(cache.misses(), miss_watermark, "warm pass must not rescan");
        assert!(cache.hits() > 0);
        // Mutate E, invalidate, and re-verify against fresh scans.
        let e = b.signature().lookup("E").unwrap();
        b.add_tuple(e, &[1, 0]);
        cache.invalidate(e);
        for text in texts {
            let pp = pp_of(text);
            assert_eq!(
                count_pp_cached(&pp, &b, &mut cache, 1),
                count_pp(&pp, &b, 1),
                "after invalidation, query {text}"
            );
        }
    }

    #[test]
    fn cache_shares_scans_across_formulas_by_pattern() {
        // E(x,y) and E(y,z) have the same repeat pattern — one cache
        // entry serves both; E(x,x) is a different pattern.
        let b = example_c();
        let mut cache = ScanCache::new();
        let _ = count_pp_cached(&pp_of("E(x,y)"), &b, &mut cache, 1);
        assert_eq!((cache.len(), cache.misses()), (1, 1));
        let _ = count_pp_cached(&pp_of("(a,b) := E(a,b)"), &b, &mut cache, 1);
        assert_eq!((cache.len(), cache.misses()), (1, 1));
        let _ = count_pp_cached(&pp_of("E(x,x)"), &b, &mut cache, 1);
        assert_eq!((cache.len(), cache.misses()), (2, 2));
        cache.invalidate(b.signature().lookup("E").unwrap());
        assert!(cache.is_empty());
    }

    #[test]
    fn cached_counts_are_thread_invariant() {
        let pp = pp_of("E(x,y) & E(y,z)");
        let b = example_c();
        let expected = count_pp(&pp, &b, 1);
        for threads in [1usize, 2, 4] {
            let mut cache = ScanCache::new();
            assert_eq!(count_pp_cached(&pp, &b, &mut cache, threads), expected);
            assert_eq!(count_pp_cached(&pp, &b, &mut cache, threads), expected);
        }
    }

    #[test]
    fn explain_lists_each_elimination_step() {
        // (x) := ∃u . E(x,u) & E(u,u) on C: only 3 has a loop, so u's
        // bucket keeps the edges into 3, (2, 3) and (3, 3).
        let pp = pp_of("(x) := exists u . E(x,u) & E(u,u)");
        let plan = explain_pp(&pp, &example_c());
        assert_eq!(
            plan,
            [
                "scan E(x, u) -> 4 rows",
                "scan E(u, u) -> 1 rows",
                "eliminate u: join -> 2 rows, project -> 2 rows",
                "join (x) -> 2 rows",
                "count -> 2",
            ]
        );
    }

    #[test]
    fn explain_produces_steps() {
        let pp = pp_of("E(x,y) & E(y,z)");
        let plan = explain_pp(&pp, &example_c());
        assert!(plan.iter().any(|s| s.starts_with("scan")));
        assert!(plan.iter().any(|s| s.starts_with("join")));
    }
}
