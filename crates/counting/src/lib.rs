//! # epq-counting — answer-counting engines
//!
//! Substrate crate S6 of the `epq` workspace (see `DESIGN.md`).
//!
//! The trichotomy theorem is about the complexity of computing `|φ(B)|`.
//! This crate implements the algorithms on both sides of the tractability
//! frontier:
//!
//! * [`brute`] — exhaustive assignment enumeration (the ground truth every
//!   other engine is tested against);
//! * [`csp`] — a counting dynamic program over *nice tree decompositions*
//!   of constraint networks, with pinning support. Instantiated on a
//!   quantifier-free pp-formula it is the Dalmau–Jonsson `#Hom` algorithm;
//!   instantiated on the contract-graph CSP it is the counting stage of
//!   the FPT algorithm;
//! * [`fpt`] — the full fixed-parameter tractable counting algorithm for
//!   pp-formulas satisfying the tractability condition \[CM15\], used as a
//!   black box by the paper's Theorem 3.2(1): core the formula, turn each
//!   ∃-component into a derived constraint over its (clique-sized)
//!   boundary via bounded-treewidth homomorphism checks, then count
//!   assignments by dynamic programming over a tree decomposition of
//!   contract(A, S);
//! * [`engines`] — a common trait over the three engines (brute force,
//!   relational algebra, FPT) for the CLI, the cross-checking tests and
//!   the experiments. Thread count is a call parameter
//!   ([`PpCountingEngine::count_threaded`]): each algorithm has one code
//!   path that shards its hot loops across the `epq-pool` workers, with
//!   counts bit-identical at every thread count;
//! * [`table`] — the packed-key flat DP tables (row-major key arena +
//!   `Natural` column) the tree-decomposition DP runs on;
//! * [`tupleset`] — packed, sorted tuple sets backing every
//!   constraint's `allowed` relation (the introduce filter's membership
//!   probes run on machine words, not hashed `Vec` keys);
//! * [`clique`] — the clique ⇄ query encodings anchoring the hardness side
//!   (cases (2) and (3) of the trichotomy);
//! * [`decision`] — answer existence / model checking (the 1-or-0
//!   counting instances the paper generalizes).

pub mod brute;
pub mod clique;
pub mod csp;
pub mod decision;
pub mod engines;
pub mod fpt;
pub mod table;
pub mod tupleset;

pub use csp::{CspConstraint, TdCounter};
pub use engines::{BruteForceEngine, FptEngine, PpCountingEngine, RelalgEngine};
pub use table::FlatTable;
pub use tupleset::TupleSet;
