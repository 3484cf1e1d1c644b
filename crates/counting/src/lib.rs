//! # epq-counting — answer-counting engines
//!
//! A substrate crate of the `epq` workspace (see `docs/ARCHITECTURE.md`).
//!
//! The trichotomy theorem is about the complexity of computing `|φ(B)|`.
//! This crate implements the algorithms on both sides of the tractability
//! frontier:
//!
//! * [`brute`] — exhaustive assignment enumeration (the ground truth every
//!   other engine is tested against);
//! * [`csp`] — counting the solutions of a constraint network by
//!   sum-product variable elimination (relalg's `eliminate` over bags).
//!   Instantiated on a quantifier-free pp-formula it is the
//!   Dalmau–Jonsson `#Hom` algorithm; instantiated on the contract-graph
//!   network it is the counting stage of the FPT algorithm;
//! * [`fpt`] — the full fixed-parameter tractable counting algorithm for
//!   pp-formulas satisfying the tractability condition \[CM15\], used as a
//!   black box by the paper's Theorem 3.2(1): core the formula, turn each
//!   ∃-component into a derived constraint over its (clique-sized)
//!   boundary by variable elimination (`epq_relalg::engine::eliminate`),
//!   then count assignments of the liberal variables by the same
//!   elimination over bags, in an order from a tree decomposition of
//!   contract(A, S);
//! * [`engines`] — a common trait over the three engines (brute force,
//!   relational algebra, FPT) for the CLI, the cross-checking tests and
//!   the experiments. Thread count is a call parameter
//!   ([`PpCountingEngine::count_threaded`]): each algorithm has one code
//!   path that shards its hot loops across the `epq-pool` workers, with
//!   counts bit-identical at every thread count;
//! * [`clique`] — the clique ⇄ query encodings anchoring the hardness side
//!   (cases (2) and (3) of the trichotomy).

pub mod brute;
pub mod clique;
pub mod csp;
pub mod engines;
pub mod fpt;

pub use engines::{BruteForceEngine, FptEngine, PpCountingEngine, RelalgEngine};
