//! # epq-structures — finite relational structures and homomorphisms
//!
//! Substrate crate S3 of the `epq` workspace (see `DESIGN.md`).
//!
//! Chen & Mengel's development lives entirely in the world of finite
//! relational structures: queries are structures via the Chandra–Merlin
//! correspondence, satisfaction is homomorphism extension, logical
//! entailment is a homomorphism between *augmented* structures, counting
//! equivalence is decided through homomorphisms, and the oracle reductions
//! manipulate structures with direct products, powers, disjoint unions, and
//! one-point paddings. This crate provides:
//!
//! * [`Signature`] / [`Structure`] — finite τ-structures, relations stored
//!   as (sorted, deduplicated) lists of tuples, exactly the representation
//!   the paper assumes ("relations … represented as lists of tuples");
//! * [`hom`] — homomorphism existence / search / counting / enumeration with
//!   pinned partial assignments (backtracking with forward pruning);
//! * [`ops`] — direct products **A** × **B**, powers, disjoint unions,
//!   the one-point structure I_τ, the `B + k·I` padding of Theorem 5.9,
//!   and structure augmentation (the `R_a` pinning relations of aug(A, S));
//! * [`core`] — cores, homomorphic equivalence, retract computation;
//! * [`iso`] — isomorphism testing (used to compare cores);
//! * [`parse`] — a small text format for structures, round-tripping with
//!   `Display`;
//! * [`live`] — append-only tuple ingestion ([`LiveStructure`]: dirty
//!   tracking per relation, free snapshots) and the tuple-log format
//!   ([`StreamLog`]) behind the streaming counting layer.

pub mod core;
pub mod hom;
pub mod iso;
pub mod live;
pub mod ops;
pub mod parse;
pub mod structure;

pub use live::{LiveStructure, StreamLog, StreamOp, UnknownRelation};
pub use structure::{RelId, Signature, Structure};
