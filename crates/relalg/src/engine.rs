//! Evaluating pp-formulas and UCQs with relational algebra.

use crate::relation::Relation;
use epq_bigint::Natural;
use epq_logic::PpFormula;
use epq_structures::{RelId, Structure};
use std::collections::HashMap;

/// A record of the join order chosen for a formula, built only by
/// [`explain_pp`] (`epq explain`); counting formats no plan.
#[derive(Clone, Debug, Default)]
pub struct JoinPlan {
    /// One line per step, e.g. `scan E[1, 2] -> 3 rows`,
    /// `join E[2, 3] -> 12 rows`.
    pub steps: Vec<String>,
}

/// Scans one atom `(rel, element-tuple)` against `b`, producing a
/// relation whose schema is the atom's distinct element indices in order
/// of first occurrence (repeated elements become equality selections).
/// This is the one atom scan of the workspace: the relational-algebra
/// joins and the CSP constraints of `epq-counting` both build on it.
pub fn scan_atom(b: &Structure, rel: RelId, atom: &[u32]) -> Relation {
    // Distinct columns in order of first occurrence.
    let mut schema: Vec<u32> = Vec::new();
    for &e in atom {
        if !schema.contains(&e) {
            schema.push(e);
        }
    }
    let positions: Vec<usize> = schema
        .iter()
        .map(|c| atom.iter().position(|e| e == c).unwrap())
        .collect();
    // Matching tuples stream straight into the relation's flat arena —
    // no per-row Vec.
    let mut data: Vec<u32> = Vec::new();
    let mut matched = false;
    'tuple: for t in b.relation(rel).tuples() {
        // Check the repeated-element pattern.
        for (i, &e) in atom.iter().enumerate() {
            let first = atom.iter().position(|x| *x == e).unwrap();
            if t[i] != t[first] {
                continue 'tuple;
            }
        }
        data.extend(positions.iter().map(|&i| t[i]));
        matched = true;
    }
    if schema.is_empty() {
        // A nullary atom is a presence test.
        return if matched {
            Relation::unit()
        } else {
            Relation::empty()
        };
    }
    Relation::from_flat(schema, data)
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

/// Joins all atoms of `pp` against `b` greedily (smallest relation first,
/// preferring scans that share a column with what has been joined so far),
/// pulling each atom's scan from `scan` (a direct [`scan_atom`] or a
/// [`ScanCache`]). Records the steps taken in `plan` when one is given;
/// counting passes `None` and formats nothing.
///
/// Each join's outer (probe) relation is partitioned across up to
/// `threads` pool workers; the greedy join *order* is chosen before any
/// join runs, so the plan — and, via the sort+dedup normalization in
/// [`Relation::new`], the result — is identical at every thread count.
fn join_all_via(
    pp: &PpFormula,
    b: &Structure,
    threads: usize,
    scan: &mut dyn FnMut(&Structure, RelId, &[u32]) -> Relation,
    mut plan: Option<&mut JoinPlan>,
) -> Relation {
    let mut scans: Vec<(&str, &[u32], Relation)> = Vec::new();
    for (rel, name, _) in pp.signature().iter() {
        for t in pp.structure().relation(rel).tuples() {
            let r = scan(b, rel, t);
            if let Some(plan) = plan.as_deref_mut() {
                plan.steps
                    .push(format!("scan {name}{t:?} -> {} rows", r.len()));
            }
            scans.push((name, t, r));
        }
    }
    if scans.is_empty() {
        return Relation::unit();
    }
    scans.sort_by_key(|(_, _, r)| r.len());
    let mut acc = scans.remove(0).2;
    while !scans.is_empty() {
        // Prefer a scan sharing a column with the accumulator.
        let idx = scans
            .iter()
            .position(|(_, _, r)| r.schema().iter().any(|c| acc.schema().contains(c)))
            .unwrap_or(0);
        let (name, t, r) = scans.remove(idx);
        acc = acc.join(&r, threads);
        if let Some(plan) = plan.as_deref_mut() {
            plan.steps
                .push(format!("join {name}{t:?} -> {} rows", acc.len()));
        }
        if acc.is_empty() {
            break;
        }
    }
    acc
}

/// Counts `|φ(B)|` for a pp-formula by relational algebra, component by
/// component: `|φ(B)| = Π_i |φᵢ(B)|` (Section 2.1 of the paper), where a
/// liberal-free component contributes 1/0 by satisfiability, an isolated
/// liberal variable contributes |B|, and every other component contributes
/// its number of distinct projected join rows.
///
/// Every join's outer relation is work-sharded across up to `threads`
/// pool workers (see [`Relation::join`]); counts are bit-identical at
/// every thread count.
pub fn count_pp(pp: &PpFormula, b: &Structure, threads: usize) -> Natural {
    count_pp_via(pp, b, threads, &mut scan_atom)
}

/// [`count_pp`] with atom scans served from (and inserted into)
/// `cache` — the incremental-maintenance entry point: after a few
/// relations change, re-evaluating a formula rescans only atoms over
/// the relations the caller [`ScanCache::invalidate`]d, and reuses
/// every other scan. Counts are bit-identical to [`count_pp`] —
/// identical scans feed the identical greedy plan —
/// provided the cache is coherent with `b` (see [`ScanCache`]).
pub fn count_pp_cached(
    pp: &PpFormula,
    b: &Structure,
    cache: &mut ScanCache,
    threads: usize,
) -> Natural {
    count_pp_via(pp, b, threads, &mut |b, rel, atom| cache.scan(b, rel, atom))
}

fn count_pp_via(
    pp: &PpFormula,
    b: &Structure,
    threads: usize,
    scan: &mut dyn FnMut(&Structure, RelId, &[u32]) -> Relation,
) -> Natural {
    let mut total = Natural::one();
    for component in pp.components() {
        let n = component.structure().universe_size();
        let has_atoms = component.structure().tuple_count() > 0;
        let liberal = component.liberal_count();
        let factor = if !has_atoms {
            // Singleton component (Gaifman-isolated vertex).
            debug_assert_eq!(n, 1);
            if liberal == 1 {
                Natural::from(b.universe_size())
            } else {
                // ∃u.⊤ — needs a nonempty universe.
                if b.universe_size() > 0 {
                    Natural::one()
                } else {
                    Natural::zero()
                }
            }
        } else {
            let joined = join_all_via(&component, b, threads, scan, None);
            if joined.is_empty() {
                // An early-terminated empty join may have a partial
                // schema; the count is zero either way.
                Natural::zero()
            } else if liberal == 0 {
                Natural::one()
            } else {
                let slots: Vec<u32> = (0..liberal as u32).collect();
                Natural::from(joined.project(&slots).len())
            }
        };
        if factor.is_zero() {
            return Natural::zero();
        }
        total = total * factor;
    }
    total
}

/// Materializes the full answer set `φ(B)` of a pp-formula as a relation
/// over the liberal slots `0..liberal_count` (isolated liberal variables
/// are extended over the whole universe — this is where materialization
/// pays the |B|^k price that pure counting avoids). Joins run on up to
/// `threads` pool workers (bit-identical results; see [`count_pp`]).
pub fn answers_pp(pp: &PpFormula, b: &Structure, threads: usize) -> Relation {
    let mut acc = Relation::unit();
    for component in pp.components() {
        let has_atoms = component.structure().tuple_count() > 0;
        let liberal = component.liberal_count();
        if !has_atoms {
            if liberal == 1 {
                // Which liberal slot of the parent is this? Map by name.
                let name = component.name(0);
                let slot = pp
                    .liberal_names()
                    .iter()
                    .position(|v| v == name)
                    .expect("component liberal var is a parent liberal var")
                    as u32;
                acc = acc.extend_with_domain(slot, b.universe_size());
            } else if b.universe_size() == 0 {
                return Relation::new((0..pp.liberal_count() as u32).collect(), Vec::new());
            }
            continue;
        }
        let joined = join_all_via(&component, b, threads, &mut scan_atom, None);
        if joined.is_empty() {
            // Empty join (possibly early-terminated with a partial
            // schema): the whole answer set is empty.
            return Relation::new((0..pp.liberal_count() as u32).collect(), Vec::new());
        }
        if liberal == 0 {
            continue;
        }
        // Project onto this component's liberal slots, remapped to the
        // parent's slot numbering by variable name.
        let local_slots: Vec<u32> = (0..liberal as u32).collect();
        let projected = joined.project(&local_slots);
        let parent_slots: Vec<u32> = local_slots
            .iter()
            .map(|&i| {
                let name = component.name(i);
                pp.liberal_names().iter().position(|v| v == name).unwrap() as u32
            })
            .collect();
        let renamed = projected.renamed(parent_slots);
        acc = acc.join(&renamed, threads);
    }
    // Ensure the full liberal schema (in order).
    let full: Vec<u32> = (0..pp.liberal_count() as u32).collect();
    acc.project(&full)
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

/// Produces the join plan for a pp-formula (for reports).
pub fn explain_pp(pp: &PpFormula, b: &Structure) -> JoinPlan {
    let mut plan = JoinPlan::default();
    join_all_via(pp, b, 1, &mut scan_atom, Some(&mut plan));
    plan
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
    fn explain_produces_steps() {
        let pp = pp_of("E(x,y) & E(y,z)");
        let plan = explain_pp(&pp, &example_c());
        assert!(plan.steps.iter().any(|s| s.starts_with("scan")));
        assert!(plan.steps.iter().any(|s| s.starts_with("join")));
    }
}
