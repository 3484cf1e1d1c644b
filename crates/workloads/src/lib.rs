//! # epq-workloads — query families and data generators
//!
//! A substrate crate of the `epq` workspace (see `docs/ARCHITECTURE.md`).
//!
//! The benchmark experiments and examples need reproducible workloads:
//!
//! * [`queries`] — the query families of the trichotomy table
//!   (experiment T1): paths, cycles, stars, grids, cliques, their
//!   quantified variants, and seeded random CQs/UCQs;
//! * [`data`] — structure generators (random digraphs, random
//!   τ-structures, deterministic paths/cycles);
//! * [`social`] — a synthetic social-network scenario (people, `follows`,
//!   `likes`) with a catalog of realistic UCQ analytics queries, used by
//!   the `social_network` example.
//!
//! Everything is deterministic given a seed.

pub mod data;
pub mod queries;
pub mod social;
