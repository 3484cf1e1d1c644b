//! # epq-relalg — a select–project–join–union baseline engine
//!
//! Substrate crate S5 of the `epq` workspace (see `DESIGN.md`).
//!
//! Unions of conjunctive queries are exactly the select–project–join–union
//! queries of relational algebra (the paper's introduction cites them as
//! "the most common database queries"). This crate evaluates pp-formulas
//! and UCQs the way a small database engine would: scan atoms into
//! variable-schema relations, hash-join them (greedy smallest-first join
//! order), project onto the liberal variables, and union disjunct answer
//! sets with set semantics.
//!
//! It serves two roles in the reproduction:
//!
//! * an **independent counting oracle** — tests cross-check it against the
//!   brute-force and tree-decomposition counters of `epq-counting`;
//! * the **baseline engine** of experiment F1, the thing the paper's
//!   FPT algorithms are an asymptotic improvement over (materialization
//!   is output-sensitive and can be exponential).
//!
//! Columns are identified by *liberal slots* and pp-element indices (see
//! [`epq_logic::PpFormula`]'s canonical layout), so disjuncts over the
//! same liberal variable set align positionally.
//!
//! Every evaluation entry point takes a `threads` cap and partitions
//! each join's outer relation across up to that many `epq-pool` workers
//! ([`Relation::join`]); results are **bit-identical** at every thread
//! count, because shard boundaries depend only on row indices and all
//! partials funnel through the same sort+dedup normalization.
//!
//! [`Relation`] stores its rows in a **flat row-major arena** (one
//! `Vec<u32>` plus an arity stride) rather than a `Vec<Vec<u32>>`: one
//! allocation per relation instead of one per row, rows iterated as
//! `&[u32]` slices, and hash-join keys packed into `u64`/`u128`
//! integers instead of per-row key `Vec`s — see the [`relation`] module
//! docs for the layout.

pub mod engine;
pub mod relation;

pub use engine::{answers_pp, count_pp, count_pp_cached, count_ucq, JoinPlan, ScanCache};
pub use relation::{Relation, Rows};
