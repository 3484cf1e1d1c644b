//! Existential positive formulas.

use std::collections::{BTreeSet, HashMap};
use std::fmt;

use epq_structures::{RelId, Signature, Structure};

/// A variable name. `~` is reserved for internally generated fresh
/// variables (the parser rejects it in user input).
#[derive(Clone, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub struct Var(pub String);

impl Var {
    /// Builds a variable from anything string-like.
    pub fn new(name: impl Into<String>) -> Self {
        Var(name.into())
    }

    /// The variable's name.
    pub fn name(&self) -> &str {
        &self.0
    }
}

impl fmt::Display for Var {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.0)
    }
}

impl From<&str> for Var {
    fn from(s: &str) -> Self {
        Var::new(s)
    }
}

/// An atom `R(v₁, …, vₖ)`.
#[derive(Clone, PartialEq, Eq, Hash, Debug)]
pub struct Atom {
    /// Relation symbol name.
    pub relation: String,
    /// Argument variables (repetitions allowed).
    pub args: Vec<Var>,
}

impl Atom {
    /// Builds an atom.
    pub fn new(relation: impl Into<String>, args: Vec<Var>) -> Self {
        Atom {
            relation: relation.into(),
            args,
        }
    }
}

impl fmt::Display for Atom {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}(", self.relation)?;
        for (i, a) in self.args.iter().enumerate() {
            if i > 0 {
                write!(f, ",")?;
            }
            write!(f, "{a}")?;
        }
        write!(f, ")")
    }
}

/// An existential positive formula: atoms, ∧, ∨, ∃, and the empty
/// conjunction ⊤ (Section 2.1 of the paper).
#[derive(Clone, PartialEq, Eq, Hash, Debug)]
pub enum Formula {
    /// The empty conjunction (true).
    Top,
    /// A predicate application.
    Atom(Atom),
    /// Conjunction.
    And(Box<Formula>, Box<Formula>),
    /// Disjunction.
    Or(Box<Formula>, Box<Formula>),
    /// Existential quantification of a single variable.
    Exists(Var, Box<Formula>),
}

impl Formula {
    /// Convenience: an atom formula.
    pub fn atom(relation: impl Into<String>, args: &[&str]) -> Formula {
        Formula::Atom(Atom::new(
            relation,
            args.iter().map(|&a| Var::new(a)).collect(),
        ))
    }

    /// Convenience: conjunction of two formulas.
    pub fn and(self, other: Formula) -> Formula {
        Formula::And(Box::new(self), Box::new(other))
    }

    /// Convenience: disjunction of two formulas.
    pub fn or(self, other: Formula) -> Formula {
        Formula::Or(Box::new(self), Box::new(other))
    }

    /// Convenience: existential quantification over several variables.
    pub fn exists(vars: &[&str], body: Formula) -> Formula {
        vars.iter()
            .rev()
            .fold(body, |acc, &v| Formula::Exists(Var::new(v), Box::new(acc)))
    }

    /// Conjunction of a list of formulas (`⊤` for the empty list).
    pub fn conjunction(parts: impl IntoIterator<Item = Formula>) -> Formula {
        let mut iter = parts.into_iter();
        match iter.next() {
            None => Formula::Top,
            Some(first) => iter.fold(first, |acc, f| acc.and(f)),
        }
    }

    /// Disjunction of a non-empty list of formulas.
    ///
    /// # Panics
    /// Panics on an empty list (ep-formulas have no ⊥).
    pub fn disjunction(parts: impl IntoIterator<Item = Formula>) -> Formula {
        let mut iter = parts.into_iter();
        let first = iter.next().expect("disjunction of no formulas");
        iter.fold(first, |acc, f| acc.or(f))
    }

    /// The free variables.
    pub fn free_vars(&self) -> BTreeSet<Var> {
        match self {
            Formula::Top => BTreeSet::new(),
            Formula::Atom(a) => a.args.iter().cloned().collect(),
            Formula::And(l, r) | Formula::Or(l, r) => {
                let mut s = l.free_vars();
                s.extend(r.free_vars());
                s
            }
            Formula::Exists(v, f) => {
                let mut s = f.free_vars();
                s.remove(v);
                s
            }
        }
    }

    /// All variables bound by some quantifier (anywhere in the tree).
    pub fn quantified_vars(&self) -> BTreeSet<Var> {
        match self {
            Formula::Top | Formula::Atom(_) => BTreeSet::new(),
            Formula::And(l, r) | Formula::Or(l, r) => {
                let mut s = l.quantified_vars();
                s.extend(r.quantified_vars());
                s
            }
            Formula::Exists(v, f) => {
                let mut s = f.quantified_vars();
                s.insert(v.clone());
                s
            }
        }
    }

    /// All variables appearing in atoms.
    pub fn atom_vars(&self) -> BTreeSet<Var> {
        match self {
            Formula::Top => BTreeSet::new(),
            Formula::Atom(a) => a.args.iter().cloned().collect(),
            Formula::And(l, r) | Formula::Or(l, r) => {
                let mut s = l.atom_vars();
                s.extend(r.atom_vars());
                s
            }
            Formula::Exists(_, f) => f.atom_vars(),
        }
    }

    /// All atoms (in syntactic order).
    pub fn atoms(&self) -> Vec<&Atom> {
        let mut out = Vec::new();
        self.collect_atoms(&mut out);
        out
    }

    fn collect_atoms<'a>(&'a self, out: &mut Vec<&'a Atom>) {
        match self {
            Formula::Top => {}
            Formula::Atom(a) => out.push(a),
            Formula::And(l, r) | Formula::Or(l, r) => {
                l.collect_atoms(out);
                r.collect_atoms(out);
            }
            Formula::Exists(_, f) => f.collect_atoms(out),
        }
    }

    /// Whether the formula is primitive positive (no disjunction).
    pub fn is_pp(&self) -> bool {
        match self {
            Formula::Top | Formula::Atom(_) => true,
            Formula::And(l, r) => l.is_pp() && r.is_pp(),
            Formula::Or(_, _) => false,
            Formula::Exists(_, f) => f.is_pp(),
        }
    }

    /// Whether the formula is a sentence (no free variables).
    pub fn is_sentence(&self) -> bool {
        self.free_vars().is_empty()
    }

    /// Evaluates satisfaction `B, env ⊨ φ` directly on the syntax tree;
    /// a wrapper over [`Formula::bind`] and [`BoundFormula::holds`].
    ///
    /// `env` must bind (at least) every free variable. Existential
    /// quantifiers range over the universe of `b`.
    ///
    /// # Panics
    /// Panics if a free variable is unbound or a relation is missing from
    /// `b`'s signature (callers validate against a signature first).
    pub fn satisfied_by(&self, b: &Structure, env: &HashMap<Var, u32>) -> bool {
        let free: Vec<Var> = env.keys().cloned().collect();
        let bound = self.bind(b.signature(), &free);
        let mut slots = vec![0; bound.slots];
        for (slot, v) in slots.iter_mut().zip(&free) {
            *slot = env[v];
        }
        bound.holds(b, &mut slots)
    }

    /// Resolves the formula's names once: `free[i]` reads environment
    /// slot `i`, each `∃` writes a slot of its own after those, and each
    /// relation name becomes its [`RelId`] in `signature`.
    ///
    /// # Panics
    /// Panics if an atom mentions a variable that is neither in `free`
    /// nor quantified above it, or a relation missing from `signature`.
    pub fn bind(&self, signature: &Signature, free: &[Var]) -> BoundFormula {
        let mut scope: Vec<(&Var, usize)> = free.iter().zip(0..).collect();
        let mut slots = free.len();
        let root = self.bind_node(signature, &mut scope, &mut slots);
        BoundFormula { root, slots }
    }

    fn bind_node<'a>(
        &'a self,
        signature: &Signature,
        scope: &mut Vec<(&'a Var, usize)>,
        slots: &mut usize,
    ) -> Bound {
        match self {
            Formula::Top => Bound::Top,
            Formula::Atom(a) => {
                let rel = signature
                    .lookup(&a.relation)
                    .unwrap_or_else(|| panic!("unknown relation {:?}", a.relation));
                let args = a
                    .args
                    .iter()
                    .map(|v| match scope.iter().rev().find(|(w, _)| *w == v) {
                        Some(&(_, slot)) => slot,
                        None => panic!("unbound variable {v}"),
                    })
                    .collect();
                Bound::Atom(rel, args)
            }
            Formula::And(l, r) => Bound::And(
                Box::new(l.bind_node(signature, scope, slots)),
                Box::new(r.bind_node(signature, scope, slots)),
            ),
            Formula::Or(l, r) => Bound::Or(
                Box::new(l.bind_node(signature, scope, slots)),
                Box::new(r.bind_node(signature, scope, slots)),
            ),
            Formula::Exists(v, f) => {
                let slot = *slots;
                *slots += 1;
                scope.push((v, slot));
                let body = f.bind_node(signature, scope, slots);
                scope.pop();
                Bound::Exists(slot, Box::new(body))
            }
        }
    }

    /// Capture-avoiding renaming of free occurrences of `from` to `to`.
    pub fn rename_free(&self, from: &Var, to: &Var) -> Formula {
        match self {
            Formula::Top => Formula::Top,
            Formula::Atom(a) => Formula::Atom(Atom {
                relation: a.relation.clone(),
                args: a
                    .args
                    .iter()
                    .map(|v| if v == from { to.clone() } else { v.clone() })
                    .collect(),
            }),
            Formula::And(l, r) => Formula::And(
                Box::new(l.rename_free(from, to)),
                Box::new(r.rename_free(from, to)),
            ),
            Formula::Or(l, r) => Formula::Or(
                Box::new(l.rename_free(from, to)),
                Box::new(r.rename_free(from, to)),
            ),
            Formula::Exists(v, f) => {
                if v == from {
                    // `from` is shadowed below.
                    Formula::Exists(v.clone(), f.clone())
                } else {
                    Formula::Exists(v.clone(), Box::new(f.rename_free(from, to)))
                }
            }
        }
    }
}

/// A [`Formula`] with its names resolved by [`Formula::bind`]: variables
/// are environment slots and relations are [`RelId`]s.
#[derive(Clone, Debug)]
pub struct BoundFormula {
    root: Bound,
    slots: usize,
}

#[derive(Clone, Debug)]
enum Bound {
    Top,
    Atom(RelId, Vec<usize>),
    And(Box<Bound>, Box<Bound>),
    Or(Box<Bound>, Box<Bound>),
    Exists(usize, Box<Bound>),
}

impl BoundFormula {
    /// The environment length [`BoundFormula::holds`] needs: the free
    /// variables' slots, then one per `∃`.
    pub fn slots(&self) -> usize {
        self.slots
    }

    /// Whether `B, env ⊨ φ`, by direct recursion over ∧, ∨ and ∃: the
    /// free variables' values are in the leading slots of `env`, and each
    /// `∃` tries every element of the universe in its own slot.
    ///
    /// # Panics
    /// Panics if `env` is shorter than [`BoundFormula::slots`].
    pub fn holds(&self, b: &Structure, env: &mut [u32]) -> bool {
        self.root.holds(b, env)
    }
}

impl Bound {
    fn holds(&self, b: &Structure, env: &mut [u32]) -> bool {
        match self {
            Bound::Top => true,
            Bound::Atom(rel, args) => {
                let mut buf = [0u32; 8];
                if args.len() <= buf.len() {
                    for (dst, &slot) in buf.iter_mut().zip(args) {
                        *dst = env[slot];
                    }
                    b.has_tuple(*rel, &buf[..args.len()])
                } else {
                    let tuple: Vec<u32> = args.iter().map(|&slot| env[slot]).collect();
                    b.has_tuple(*rel, &tuple)
                }
            }
            Bound::And(l, r) => l.holds(b, env) && r.holds(b, env),
            Bound::Or(l, r) => l.holds(b, env) || r.holds(b, env),
            Bound::Exists(slot, f) => (0..b.universe_size() as u32).any(|e| {
                env[*slot] = e;
                f.holds(b, env)
            }),
        }
    }
}

impl fmt::Display for Formula {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Formula::Top => write!(f, "true"),
            Formula::Atom(a) => write!(f, "{a}"),
            Formula::And(l, r) => {
                fmt_operand(f, l, Level::And)?;
                write!(f, " & ")?;
                fmt_operand(f, r, Level::And)
            }
            Formula::Or(l, r) => {
                fmt_operand(f, l, Level::Or)?;
                write!(f, " | ")?;
                fmt_operand(f, r, Level::Or)
            }
            Formula::Exists(v, body) => {
                // Merge nested quantifiers for readability.
                let mut vars = vec![v];
                let mut inner: &Formula = body;
                while let Formula::Exists(w, b) = inner {
                    vars.push(w);
                    inner = b;
                }
                write!(f, "exists ")?;
                for (i, v) in vars.iter().enumerate() {
                    if i > 0 {
                        write!(f, ", ")?;
                    }
                    write!(f, "{v}")?;
                }
                write!(f, " . ")?;
                fmt_operand(f, inner, Level::Exists)
            }
        }
    }
}

#[derive(PartialEq)]
enum Level {
    Or,
    And,
    Exists,
}

fn fmt_operand(f: &mut fmt::Formatter<'_>, inner: &Formula, ctx: Level) -> fmt::Result {
    let needs_parens = match (&ctx, inner) {
        (Level::And, Formula::Or(_, _)) => true,
        (Level::And, Formula::Exists(_, _)) => true,
        (Level::Or, Formula::Exists(_, _)) => true,
        (Level::Exists, _) => false,
        _ => false,
    };
    if needs_parens {
        write!(f, "({inner})")
    } else {
        write!(f, "{inner}")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use epq_structures::Signature;

    fn v(s: &str) -> Var {
        Var::new(s)
    }

    #[test]
    fn free_vars_respect_quantifiers() {
        // exists y . E(x,y) & E(y,z)
        let f = Formula::exists(
            &["y"],
            Formula::atom("E", &["x", "y"]).and(Formula::atom("E", &["y", "z"])),
        );
        let free: Vec<Var> = f.free_vars().into_iter().collect();
        assert_eq!(free, vec![v("x"), v("z")]);
        assert_eq!(
            f.quantified_vars().into_iter().collect::<Vec<_>>(),
            vec![v("y")]
        );
    }

    #[test]
    fn shadowing_in_rename() {
        // exists x . E(x, y); renaming free x does nothing inside the binder.
        let f = Formula::exists(&["x"], Formula::atom("E", &["x", "y"]));
        let renamed = f.rename_free(&v("x"), &v("w"));
        assert_eq!(renamed, f);
        let renamed_y = f.rename_free(&v("y"), &v("w"));
        assert_eq!(
            renamed_y,
            Formula::exists(&["x"], Formula::atom("E", &["x", "w"]))
        );
    }

    #[test]
    fn pp_recognition() {
        let pp = Formula::exists(&["u"], Formula::atom("E", &["u", "u"]));
        assert!(pp.is_pp());
        let ep = pp.clone().or(Formula::atom("E", &["x", "x"]));
        assert!(!ep.is_pp());
        assert!(Formula::Top.is_pp());
    }

    #[test]
    fn satisfaction_on_small_structure() {
        let sig = Signature::from_symbols([("E", 2)]);
        let mut b = Structure::new(sig, 3);
        b.add_tuple_named("E", &[0, 1]);
        b.add_tuple_named("E", &[1, 2]);

        // E(x,y) with x=0,y=1 holds; x=1,y=0 does not.
        let f = Formula::atom("E", &["x", "y"]);
        let mut env = HashMap::new();
        env.insert(v("x"), 0);
        env.insert(v("y"), 1);
        assert!(f.satisfied_by(&b, &env));
        env.insert(v("x"), 1);
        env.insert(v("y"), 0);
        assert!(!f.satisfied_by(&b, &env));

        // exists z . E(x, z) holds for x = 0, 1; fails for x = 2.
        let g = Formula::exists(&["z"], Formula::atom("E", &["x", "z"]));
        for (x, expect) in [(0, true), (1, true), (2, false)] {
            let mut env = HashMap::new();
            env.insert(v("x"), x);
            assert_eq!(g.satisfied_by(&b, &env), expect, "x = {x}");
        }
    }

    #[test]
    fn satisfaction_of_disjunction_and_top() {
        let sig = Signature::from_symbols([("E", 2)]);
        let b = Structure::new(sig, 2); // no edges
        let env: HashMap<Var, u32> = [(v("x"), 0), (v("y"), 1)].into_iter().collect();
        let f = Formula::atom("E", &["x", "y"]).or(Formula::Top);
        assert!(f.satisfied_by(&b, &env));
        let g = Formula::atom("E", &["x", "y"]).or(Formula::atom("E", &["y", "x"]));
        assert!(!g.satisfied_by(&b, &env));
    }

    #[test]
    fn exists_needs_nonempty_universe() {
        let sig = Signature::from_symbols([("E", 2)]);
        let empty = Structure::new(sig, 0);
        let f = Formula::exists(&["u"], Formula::Top);
        assert!(!f.satisfied_by(&empty, &HashMap::new()));
        assert!(Formula::Top.satisfied_by(&empty, &HashMap::new()));
    }

    #[test]
    fn display_roundtrip_shapes() {
        let f = Formula::atom("E", &["x", "y"]).and(
            Formula::atom("E", &["w", "x"])
                .or(Formula::atom("E", &["y", "z"]).and(Formula::atom("E", &["z", "z"]))),
        );
        assert_eq!(f.to_string(), "E(x,y) & (E(w,x) | E(y,z) & E(z,z))");
        let g = Formula::exists(&["a", "b"], Formula::atom("E", &["a", "b"]));
        assert_eq!(g.to_string(), "exists a, b . E(a,b)");
    }

    #[test]
    fn conjunction_and_disjunction_builders() {
        assert_eq!(Formula::conjunction([]), Formula::Top);
        let f = Formula::conjunction([
            Formula::atom("E", &["x", "y"]),
            Formula::atom("E", &["y", "z"]),
        ]);
        assert_eq!(f.atoms().len(), 2);
    }
}
