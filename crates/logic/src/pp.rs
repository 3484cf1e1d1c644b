//! Prenex primitive positive formulas in their Chandra–Merlin structure
//! view `(A, S)`.
//!
//! A [`PpFormula`] stores the structure **A** whose universe is
//! `lib(φ) ∪ vars(φ)` and whose tuples are the atoms, plus the liberal set
//! `S` (Section 2.1, Example 2.2 of the paper). The canonical layout puts
//! the liberal elements first (indices `0..s`, sorted by variable name)
//! followed by the quantified variables in prefix order — so two
//! pp-formulas over the same liberal *names* have positionally aligned
//! liberal elements, which is what logical entailment (Theorem 2.3) and
//! conjunction glueing rely on.

use crate::formula::{Atom, Formula, Var};
use crate::query::{check_against_signature, LogicError, Query};
use epq_structures::{core, hom, ops, Signature, Structure};
use std::collections::{BTreeMap, BTreeSet, HashMap};
use std::fmt;

/// A prenex pp-formula as a pair `(A, S)`.
#[derive(Clone, Debug)]
pub struct PpFormula {
    /// The structure **A** over the query's signature.
    structure: Structure,
    /// names[i] = variable behind universe element i.
    names: Vec<Var>,
    /// Number of liberal elements (they occupy indices `0..liberal_count`,
    /// sorted by name).
    liberal_count: usize,
    /// Set only on the output of [`PpFormula::core`], so that coring it
    /// again is a clone. Not part of equality.
    is_core: bool,
}

impl PartialEq for PpFormula {
    fn eq(&self, other: &Self) -> bool {
        self.structure == other.structure
            && self.names == other.names
            && self.liberal_count == other.liberal_count
    }
}

impl Eq for PpFormula {}

impl PpFormula {
    /// Converts a primitive positive [`Query`] into its structure view.
    ///
    /// The formula is prenexed on the way (quantified variables are renamed
    /// apart where needed). Fails if the query uses disjunction or does not
    /// match `signature`.
    pub fn from_query(query: &Query, signature: &Signature) -> Result<Self, LogicError> {
        if !query.is_pp() {
            return Err(LogicError::new(
                "PpFormula::from_query requires a primitive positive query",
            ));
        }
        check_against_signature(query.formula(), signature)?;
        let mut fresh = FreshNames::new(query.liberal().iter().cloned());
        let mut prefix = Vec::new();
        let mut atoms = Vec::new();
        flatten_pp(
            query.formula(),
            &HashMap::new(),
            &mut fresh,
            &mut prefix,
            &mut atoms,
        );
        Self::from_parts(signature, query.liberal().to_vec(), prefix, &atoms)
    }

    /// Builds a pp-formula from prenex parts: liberal names, quantified
    /// variable names (in prefix order), and atoms.
    pub fn from_parts(
        signature: &Signature,
        liberal: Vec<Var>,
        quantified: Vec<Var>,
        atoms: &[Atom],
    ) -> Result<Self, LogicError> {
        let liberal: BTreeSet<Var> = liberal.into_iter().collect();
        for q in &quantified {
            if liberal.contains(q) {
                return Err(LogicError::new(format!(
                    "variable {q} is both liberal and quantified"
                )));
            }
        }
        let mut names: Vec<Var> = liberal.iter().cloned().collect();
        let liberal_count = names.len();
        let mut index: BTreeMap<Var, u32> = names
            .iter()
            .enumerate()
            .map(|(i, v)| (v.clone(), i as u32))
            .collect();
        for q in quantified {
            if index.contains_key(&q) {
                return Err(LogicError::new(format!(
                    "duplicate quantified variable {q}"
                )));
            }
            index.insert(q.clone(), names.len() as u32);
            names.push(q);
        }
        let mut structure = Structure::new(signature.clone(), names.len());
        let mut tuple = Vec::new();
        for atom in atoms {
            let rel = signature.lookup(&atom.relation).ok_or_else(|| {
                LogicError::new(format!("relation {} not in signature", atom.relation))
            })?;
            if signature.arity(rel) != atom.args.len() {
                return Err(LogicError::new(format!(
                    "arity mismatch for relation {}",
                    atom.relation
                )));
            }
            tuple.clear();
            for arg in &atom.args {
                let &i = index.get(arg).ok_or_else(|| {
                    LogicError::new(format!(
                        "atom variable {arg} is neither liberal nor quantified"
                    ))
                })?;
                tuple.push(i);
            }
            structure.add_tuple(rel, &tuple);
        }
        Ok(PpFormula {
            structure,
            names,
            liberal_count,
            is_core: false,
        })
    }

    /// The underlying structure **A**.
    pub fn structure(&self) -> &Structure {
        &self.structure
    }

    /// The signature.
    pub fn signature(&self) -> &Signature {
        self.structure.signature()
    }

    /// Variable name behind universe element `i`.
    pub fn name(&self, i: u32) -> &Var {
        &self.names[i as usize]
    }

    /// All element names (universe order).
    pub fn names(&self) -> &[Var] {
        &self.names
    }

    /// Number of liberal variables.
    pub fn liberal_count(&self) -> usize {
        self.liberal_count
    }

    /// The liberal element indices: always `0..liberal_count`.
    pub fn liberal_indices(&self) -> impl Iterator<Item = u32> {
        0..self.liberal_count as u32
    }

    /// The liberal variable names, sorted.
    pub fn liberal_names(&self) -> &[Var] {
        &self.names[..self.liberal_count]
    }

    /// The quantified variable names (prefix order).
    pub fn quantified_names(&self) -> &[Var] {
        &self.names[self.liberal_count..]
    }

    /// The *free* element indices: liberal elements occurring in an atom.
    pub fn free_indices(&self) -> Vec<u32> {
        let mut occurs = vec![false; self.structure.universe_size()];
        for (rel, _, _) in self.signature().iter() {
            for t in self.structure.relation(rel).tuples() {
                for &e in t {
                    occurs[e as usize] = true;
                }
            }
        }
        (0..self.liberal_count as u32)
            .filter(|&i| occurs[i as usize])
            .collect()
    }

    /// Whether the formula is a sentence (`free(φ) = ∅`).
    pub fn is_sentence(&self) -> bool {
        self.free_indices().is_empty()
    }

    /// Whether the formula is *free* (`free(φ) ≠ ∅`).
    pub fn is_free(&self) -> bool {
        !self.is_sentence()
    }

    /// Whether the formula is *liberal* (`lib(φ) ≠ ∅`).
    pub fn is_liberal(&self) -> bool {
        self.liberal_count > 0
    }

    /// The augmented structure aug(A, S): pins liberal element `i` with the
    /// fresh unary relation `@pin{i}` (Section 2.1). Positions align across
    /// formulas with equal liberal name sets.
    pub fn augmented(&self) -> Structure {
        let pins: Vec<u32> = self.liberal_indices().collect();
        ops::augment(&self.structure, &pins)
    }

    /// The core of the pp-formula: the core of aug(A, S) with the pin
    /// relations stripped, re-canonicalized. Liberal elements always
    /// survive coring (their pins force fixpoints).
    ///
    /// The result is marked as a core, and `core()` on a marked formula
    /// returns a clone: the `φ*` terms are cores already, so the
    /// classifier and the fpt engine, which core every formula they are
    /// given, pay nothing for them. Every other constructor leaves the
    /// mark unset, and the mark plays no part in `==`.
    pub fn core(&self) -> PpFormula {
        if self.is_core {
            return self.clone();
        }
        let aug = self.augmented();
        let (core_aug, map) = core::core_of(&aug);
        // Where did each liberal element land? Pins guarantee they are all
        // present exactly once.
        let mut liberal_new = vec![u32::MAX; self.liberal_count];
        for (new, &old) in map.iter().enumerate() {
            if (old as usize) < self.liberal_count {
                liberal_new[old as usize] = new as u32;
            }
        }
        debug_assert!(liberal_new.iter().all(|&x| x != u32::MAX));
        // Canonical order: liberal (by old order = name order), then rest.
        let mut order: Vec<u32> = liberal_new.clone();
        for new in 0..core_aug.universe_size() as u32 {
            if !liberal_new.contains(&new) {
                order.push(new);
            }
        }
        let (permuted_aug, perm_map) = core_aug.induced_substructure(&order);
        // Strip pin relations: rebuild over the original signature.
        let mut structure = Structure::new(self.signature().clone(), permuted_aug.universe_size());
        for (rel, name, _) in permuted_aug.signature().iter() {
            if name.starts_with(ops::PIN_PREFIX) {
                continue;
            }
            let target = self.signature().lookup(name).expect("same base signature");
            for t in permuted_aug.relation(rel).tuples() {
                structure.add_tuple(target, t);
            }
        }
        let names: Vec<Var> = perm_map
            .iter()
            .map(|&new| self.names[map[new as usize] as usize].clone())
            .collect();
        PpFormula {
            structure,
            names,
            liberal_count: self.liberal_count,
            is_core: true,
        }
    }

    /// The components of the formula (Section 2.1 "Graphs"): one
    /// pp-formula per connected component of the Gaifman graph of **A**
    /// (isolated liberal variables yield `⊤`-components). For any finite
    /// structure **B**, `|φ(B)| = Π |φᵢ(B)|`.
    pub fn components(&self) -> Vec<PpFormula> {
        let gaifman = self.structure.gaifman_graph();
        gaifman
            .connected_components()
            .into_iter()
            .map(|comp| self.restrict_to(&comp))
            .collect()
    }

    /// The liberal part `φ̂` (Section 5.2): drops every atom lying in a
    /// component without liberal variables, keeping the universe (dangling
    /// quantified variables remain, exactly as in Example 5.8).
    pub fn hat(&self) -> PpFormula {
        let gaifman = self.structure.gaifman_graph();
        let mut keep = vec![false; self.structure.universe_size()];
        for comp in gaifman.connected_components() {
            if comp.iter().any(|&v| (v as usize) < self.liberal_count) {
                for &v in &comp {
                    keep[v as usize] = true;
                }
            }
        }
        let mut structure =
            Structure::new(self.signature().clone(), self.structure.universe_size());
        for (rel, _, _) in self.signature().iter() {
            for t in self.structure.relation(rel).tuples() {
                if t.iter().all(|&e| keep[e as usize]) {
                    structure.add_tuple(rel, t);
                }
            }
        }
        PpFormula {
            structure,
            names: self.names.clone(),
            liberal_count: self.liberal_count,
            is_core: false,
        }
    }

    /// Restricts to a component `comp` (sorted element indices): liberal
    /// set becomes `S ∩ comp`.
    fn restrict_to(&self, comp: &[u32]) -> PpFormula {
        let (structure, map) = self.structure.induced_substructure(comp);
        let names = map
            .iter()
            .map(|&old| self.names[old as usize].clone())
            .collect();
        let liberal_count = map
            .iter()
            .filter(|&&old| (old as usize) < self.liberal_count)
            .count();
        // `comp` is sorted, and liberal elements have the smallest indices,
        // so the canonical layout is preserved.
        PpFormula {
            structure,
            names,
            liberal_count,
            is_core: false,
        }
    }

    /// Conjunction of pp-formulas sharing the same liberal name set:
    /// liberal variables are glued by name; quantified variables are
    /// renamed apart. This is the `φ_J = ⋀_{j∈J} φ_j` of the
    /// inclusion–exclusion argument (Section 5.3).
    ///
    /// # Panics
    /// Panics on an empty slice or mismatched liberal sets/signatures.
    pub fn conjoin(parts: &[&PpFormula]) -> PpFormula {
        assert!(!parts.is_empty(), "conjunction of no pp-formulas");
        let first = parts[0];
        for p in &parts[1..] {
            assert_eq!(
                p.liberal_names(),
                first.liberal_names(),
                "conjoin requires equal liberal variable sets"
            );
            assert_eq!(
                p.signature(),
                first.signature(),
                "conjoin requires equal signatures"
            );
        }
        let liberal_count = first.liberal_count;
        let mut names: Vec<Var> = first.liberal_names().to_vec();
        let mut fresh = FreshNames::new(names.iter().cloned());
        // Per part, the universe remap: liberal i ↦ i; quantified ↦ fresh slot.
        let mut total_tuples: Vec<(String, Vec<u32>)> = Vec::new();
        for part in parts {
            let mut remap: Vec<u32> = (0..part.structure.universe_size() as u32).collect();
            for q in part.liberal_count as u32..part.structure.universe_size() as u32 {
                let fresh_name = fresh.fresh(part.name(q));
                remap[q as usize] = names.len() as u32;
                names.push(fresh_name);
            }
            for (rel, rel_name, _) in part.signature().iter() {
                for t in part.structure.relation(rel).tuples() {
                    total_tuples.push((
                        rel_name.to_string(),
                        t.iter().map(|&e| remap[e as usize]).collect(),
                    ));
                }
            }
        }
        let mut structure = Structure::new(first.signature().clone(), names.len());
        for (rel_name, tuple) in &total_tuples {
            structure.add_tuple_named(rel_name, tuple);
        }
        PpFormula {
            structure,
            names,
            liberal_count,
            is_core: false,
        }
    }

    /// Logical entailment `self ⊨ other` for formulas over the same
    /// liberal variable set: holds iff there is a homomorphism
    /// aug(other) → aug(self) (Theorem 2.3).
    ///
    /// # Panics
    /// Panics if the liberal name sets differ.
    pub fn entails(&self, other: &PpFormula) -> bool {
        assert_eq!(
            self.liberal_names(),
            other.liberal_names(),
            "entailment requires equal liberal variable sets"
        );
        hom::homomorphism_exists(&other.augmented(), &self.augmented())
    }

    /// Logical equivalence over the same liberal variable set
    /// (Theorem 2.3: homomorphic equivalence of augmented structures).
    pub fn logically_equivalent(&self, other: &PpFormula) -> bool {
        self.entails(other) && other.entails(self)
    }

    /// Reconstructs the prenex query: `∃ quantified . ⋀ atoms` with the
    /// stored liberal variables.
    pub fn to_query(&self) -> Query {
        let mut atoms = Vec::new();
        for (rel, name, _) in self.signature().iter() {
            for t in self.structure.relation(rel).tuples() {
                atoms.push(Formula::Atom(Atom::new(
                    name,
                    t.iter().map(|&e| self.names[e as usize].clone()).collect(),
                )));
            }
        }
        let matrix = Formula::conjunction(atoms);
        let formula = self
            .quantified_names()
            .iter()
            .rev()
            .fold(matrix, |acc, v| Formula::Exists(v.clone(), Box::new(acc)));
        Query::new(formula, self.liberal_names().to_vec())
            .expect("pp-formula invariants guarantee a valid query")
    }

    /// Whether an assignment of the liberal variables satisfies the
    /// formula on `b` — i.e. whether it extends to a homomorphism
    /// **A** → **B** (the Chandra–Merlin satisfaction criterion).
    ///
    /// `assignment[i]` is the image of liberal element `i`.
    pub fn satisfied_by(&self, b: &Structure, assignment: &[u32]) -> bool {
        assert_eq!(
            assignment.len(),
            self.liberal_count,
            "assignment arity mismatch"
        );
        let pins: Vec<(u32, u32)> = assignment
            .iter()
            .enumerate()
            .map(|(i, &x)| (i as u32, x))
            .collect();
        hom::homomorphism_exists_pinned(&self.structure, b, &pins)
    }
}

impl fmt::Display for PpFormula {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.to_query())
    }
}

/// Fresh-name generator avoiding a set of reserved names.
struct FreshNames {
    used: BTreeSet<Var>,
    counter: usize,
}

impl FreshNames {
    fn new(reserved: impl IntoIterator<Item = Var>) -> Self {
        FreshNames {
            used: reserved.into_iter().collect(),
            counter: 0,
        }
    }

    /// A fresh variable based on `base`'s name.
    fn fresh(&mut self, base: &Var) -> Var {
        if self.used.insert(base.clone()) {
            return base.clone();
        }
        loop {
            self.counter += 1;
            let candidate = Var::new(format!("{}~{}", base.name(), self.counter));
            if self.used.insert(candidate.clone()) {
                return candidate;
            }
        }
    }
}

/// Flattens a pp formula tree into (quantifier prefix, atom list) with
/// capture-avoiding renaming via `subst`.
fn flatten_pp(
    f: &Formula,
    subst: &HashMap<Var, Var>,
    fresh: &mut FreshNames,
    prefix: &mut Vec<Var>,
    atoms: &mut Vec<Atom>,
) {
    match f {
        Formula::Top => {}
        Formula::Atom(a) => {
            atoms.push(Atom::new(
                a.relation.clone(),
                a.args
                    .iter()
                    .map(|v| subst.get(v).cloned().unwrap_or_else(|| v.clone()))
                    .collect(),
            ));
        }
        Formula::And(l, r) => {
            flatten_pp(l, subst, fresh, prefix, atoms);
            flatten_pp(r, subst, fresh, prefix, atoms);
        }
        Formula::Or(_, _) => unreachable!("flatten_pp called on non-pp formula"),
        Formula::Exists(v, body) => {
            let name = fresh.fresh(v);
            prefix.push(name.clone());
            let mut subst = subst.clone();
            subst.insert(v.clone(), name);
            flatten_pp(body, &subst, fresh, prefix, atoms);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::query::infer_signature;

    fn pp(text_liberal: &[&str], formula: Formula) -> PpFormula {
        let sig = infer_signature([&formula]).unwrap();
        let q = Query::new(formula, text_liberal.iter().map(|&v| Var::new(v))).unwrap();
        PpFormula::from_query(&q, &sig).unwrap()
    }

    /// The running example of the paper (Examples 2.2 / 2.4):
    /// φ(x,x',y,z) = ∃y'∃u∃v∃w (E(x,x') ∧ E(y,y') ∧ F(u,v) ∧ G(u,w)).
    fn example_2_2() -> PpFormula {
        let f = Formula::exists(
            &["y'", "u", "v", "w"],
            Formula::conjunction([
                Formula::atom("E", &["x", "x'"]),
                Formula::atom("E", &["y", "y'"]),
                Formula::atom("F", &["u", "v"]),
                Formula::atom("G", &["u", "w"]),
            ]),
        );
        pp(&["x", "x'", "y", "z"], f)
    }

    #[test]
    fn example_2_2_structure_view() {
        let phi = example_2_2();
        // Universe: 4 liberal + 4 quantified = 8 (as in the paper).
        assert_eq!(phi.structure().universe_size(), 8);
        assert_eq!(phi.liberal_count(), 4);
        assert_eq!(
            phi.liberal_names(),
            &[Var::new("x"), Var::new("x'"), Var::new("y"), Var::new("z")]
        );
        // free(φ) = {x, x', y}: z is liberal but occurs in no atom.
        let free: Vec<&Var> = phi.free_indices().iter().map(|&i| phi.name(i)).collect();
        assert_eq!(free, vec![&Var::new("x"), &Var::new("x'"), &Var::new("y")]);
        assert!(!phi.is_sentence());
    }

    #[test]
    fn example_2_4_components() {
        let phi = example_2_2();
        let comps = phi.components();
        // Four components: {x,x'}, {y,y'}, {z}, {u,v,w} (Example 2.4).
        assert_eq!(comps.len(), 4);
        let mut liberal_sizes: Vec<(usize, usize)> = comps
            .iter()
            .map(|c| (c.liberal_count(), c.structure().universe_size()))
            .collect();
        liberal_sizes.sort_unstable();
        assert_eq!(liberal_sizes, vec![(0, 3), (1, 1), (1, 2), (2, 2)]);
        // The {z} component is ⊤ with one liberal variable.
        let z_comp = comps
            .iter()
            .find(|c| c.liberal_count() == 1 && c.structure().universe_size() == 1)
            .unwrap();
        assert_eq!(z_comp.structure().tuple_count(), 0);
        // The {u,v,w} component is a sentence but not liberal.
        let sentence = comps.iter().find(|c| c.liberal_count() == 0).unwrap();
        assert!(sentence.is_sentence());
        assert!(!sentence.is_liberal());
        assert_eq!(sentence.structure().tuple_count(), 2);
    }

    #[test]
    fn example_5_8_hat() {
        let phi = example_2_2();
        let hat = phi.hat();
        // φ̂ keeps E(x,x') and E(y,y'), drops F(u,v) and G(u,w); the
        // universe (with dangling u,v,w) stays.
        assert_eq!(hat.structure().universe_size(), 8);
        assert_eq!(hat.structure().tuple_count(), 2);
        let e = hat.signature().lookup("F").unwrap();
        assert!(hat.structure().relation(e).is_empty());
    }

    #[test]
    fn prenexing_renames_clashing_binders() {
        // (∃u E(x,u)) ∧ (∃u E(u,x)): the two u's must become distinct.
        let f = Formula::exists(&["u"], Formula::atom("E", &["x", "u"]))
            .and(Formula::exists(&["u"], Formula::atom("E", &["u", "x"])));
        let phi = pp(&["x"], f);
        assert_eq!(phi.structure().universe_size(), 3);
        assert_eq!(phi.quantified_names().len(), 2);
        assert_ne!(phi.quantified_names()[0], phi.quantified_names()[1]);
    }

    #[test]
    fn core_collapses_redundant_parts() {
        // φ(x) = ∃u,v . E(x,u) ∧ E(x,v): core is E(x,u).
        let f = Formula::exists(
            &["u", "v"],
            Formula::atom("E", &["x", "u"]).and(Formula::atom("E", &["x", "v"])),
        );
        let phi = pp(&["x"], f);
        let core = phi.core();
        assert_eq!(core.structure().universe_size(), 2);
        assert_eq!(core.structure().tuple_count(), 1);
        assert_eq!(core.liberal_count(), 1);
        assert_eq!(core.name(0), &Var::new("x"));
        // Core is logically equivalent to the original.
        assert!(core.logically_equivalent(&phi));
    }

    #[test]
    fn core_keeps_liberal_only_variables() {
        // φ(x, z) = E(x,x): z is liberal, occurs nowhere; must survive.
        let phi = pp(&["x", "z"], Formula::atom("E", &["x", "x"]));
        let core = phi.core();
        assert_eq!(core.liberal_count(), 2);
        assert!(core.names().contains(&Var::new("z")));
    }

    #[test]
    fn core_of_a_core_is_the_same_marked_core() {
        let phi = example_2_2();
        let core = phi.core();
        assert!(core.is_core);
        let again = core.core();
        assert!(again.is_core);
        assert_eq!(again, core);
        assert_eq!(again.names(), core.names());
        assert_eq!(again.liberal_count(), core.liberal_count());
    }

    #[test]
    fn only_core_marks_its_output() {
        let phi = example_2_2();
        assert!(!phi.is_core);
        let core = phi.core();
        // `from_query` builds through `from_parts`.
        let rebuilt = PpFormula::from_query(&core.to_query(), core.signature()).unwrap();
        assert!(!rebuilt.is_core);
        assert!(!PpFormula::conjoin(&[&core]).is_core);
        assert!(!PpFormula::conjoin(&[&core, &core]).is_core);
        assert!(!core.hat().is_core);
        assert!(core.components().iter().all(|c| !c.is_core));
    }

    #[test]
    fn the_core_mark_plays_no_part_in_equality() {
        // x is liberal and E(x,u) is already a core: coring rebuilds an
        // equal formula that differs only in the mark.
        let phi = pp(
            &["x"],
            Formula::exists(&["u"], Formula::atom("E", &["x", "u"])),
        );
        let core = phi.core();
        assert!(core.is_core && !phi.is_core);
        assert_eq!(core, phi);
        assert_eq!(phi, core);
    }

    #[test]
    fn entailment_example() {
        // ψ(x,y) = E(x,y) ∧ E(y,x) entails φ(x,y) = E(x,y).
        let psi = pp(
            &["x", "y"],
            Formula::atom("E", &["x", "y"]).and(Formula::atom("E", &["y", "x"])),
        );
        let phi = pp(&["x", "y"], Formula::atom("E", &["x", "y"]));
        assert!(psi.entails(&phi));
        assert!(!phi.entails(&psi));
        assert!(!psi.logically_equivalent(&phi));
        assert!(phi.logically_equivalent(&phi));
    }

    #[test]
    fn entailment_distinguishes_liberal_only_variables() {
        // θ(x,y) = E(x,y) vs ψ(x,y,z) = E(x,y): different liberal sets.
        // (Example 2.1's pitfall — they are *not* comparable.)
        let theta = pp(&["x", "y"], Formula::atom("E", &["x", "y"]));
        let psi = pp(&["x", "y", "z"], Formula::atom("E", &["x", "y"]));
        assert_ne!(theta.liberal_names(), psi.liberal_names());
    }

    #[test]
    fn conjoin_glues_liberal_and_renames_quantified() {
        // φ1(x) = ∃u E(x,u), φ2(x) = ∃u E(u,x).
        let p1 = pp(
            &["x"],
            Formula::exists(&["u"], Formula::atom("E", &["x", "u"])),
        );
        let p2 = pp(
            &["x"],
            Formula::exists(&["u"], Formula::atom("E", &["u", "x"])),
        );
        let c = PpFormula::conjoin(&[&p1, &p2]);
        assert_eq!(c.liberal_count(), 1);
        assert_eq!(c.structure().universe_size(), 3); // x + two distinct u's
        assert_eq!(c.structure().tuple_count(), 2);
    }

    #[test]
    fn satisfaction_via_hom_extension() {
        // φ(x) = ∃u . E(x,u) on the path 0→1→2.
        let phi = pp(
            &["x"],
            Formula::exists(&["u"], Formula::atom("E", &["x", "u"])),
        );
        let mut b = Structure::new(phi.signature().clone(), 3);
        b.add_tuple_named("E", &[0, 1]);
        b.add_tuple_named("E", &[1, 2]);
        assert!(phi.satisfied_by(&b, &[0]));
        assert!(phi.satisfied_by(&b, &[1]));
        assert!(!phi.satisfied_by(&b, &[2]));
    }

    #[test]
    fn to_query_roundtrip() {
        let phi = example_2_2();
        let q = phi.to_query();
        let sig = phi.signature().clone();
        let back = PpFormula::from_query(&q, &sig).unwrap();
        // Structures coincide (atoms sorted; layout canonical).
        assert!(back.logically_equivalent(&phi));
        assert_eq!(back.liberal_names(), phi.liberal_names());
        assert_eq!(
            back.structure().tuple_count(),
            phi.structure().tuple_count()
        );
    }

    #[test]
    fn sentence_detection() {
        let theta = pp(
            &["x"],
            Formula::exists(&["a", "b"], Formula::atom("E", &["a", "b"])),
        );
        // x is liberal but free(θ) = ∅: a sentence with liberal variables.
        assert!(theta.is_sentence());
        assert!(theta.is_liberal());
    }
}
