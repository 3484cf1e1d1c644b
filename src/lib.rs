//! # epq — Counting Answers to Existential Positive Queries
//!
//! A full reproduction of **Chen & Mengel, "Counting Answers to
//! Existential Positive Queries: A Complexity Classification" (PODS
//! 2016, arXiv:1601.03240)** as a production-quality Rust workspace.
//!
//! This facade crate re-exports the workspace members:
//!
//! | Crate | Contents |
//! |-------|----------|
//! | [`bigint`] | exact naturals/integers/rationals + Vandermonde solver |
//! | [`graph`] | graphs, treewidth (exact + heuristic), nice tree decompositions, cliques |
//! | [`pool`] | std-only scoped work pool shared by every parallel layer |
//! | [`structures`] | finite relational structures, homomorphisms, products, cores |
//! | [`logic`] | ep/pp formulas, Chandra–Merlin view, DNF, contract graphs, parser |
//! | [`relalg`] | select–project–join–union baseline engine |
//! | [`counting`] | brute-force / relational-algebra / FPT counting engines, clique encodings |
//! | [`core`] | counting equivalence, φ*/φ⁺, the trichotomy classifier, oracle reductions |
//! | [`workloads`] | query families, data generators, the social-network scenario |
//!
//! ## Quickstart
//!
//! ```
//! use epq::prelude::*;
//!
//! // Parse a UCQ (Example 4.1 of the paper) and a structure, count.
//! let b = epq::structures::parse::parse_structure(
//!     "structure { universe 4  E = { (0,1), (1,2), (2,3), (3,3) } }",
//! )?;
//! let query = parse_query("(w,x,y,z) := E(x,y) & (E(w,x) | (E(y,z) & E(z,z)))")?;
//! let n = PreparedQuery::prepare(&query, b.signature())?.count(&b);
//! assert_eq!(n.to_u64(), Some(24));
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

pub mod cli;

pub use epq_bigint as bigint;
pub use epq_core as core;
pub use epq_counting as counting;
pub use epq_graph as graph;
pub use epq_logic as logic;
pub use epq_pool as pool;
pub use epq_relalg as relalg;
pub use epq_structures as structures;
pub use epq_workloads as workloads;

/// The most commonly used items in one import.
pub mod prelude {
    pub use epq_bigint::{Integer, Natural, Rational};
    pub use epq_core::classify::{classify_query, classify_widths, Regime};
    pub use epq_core::count::count_ep;
    pub use epq_core::equivalence::{counting_equivalent, semi_counting_equivalent};
    pub use epq_core::iex::star;
    pub use epq_core::incremental::{LiveCount, LiveCountStats};
    pub use epq_core::plus::plus_decomposition;
    pub use epq_core::prepared::{classify_query_cached, PreparedQuery};
    pub use epq_counting::engines::{BruteForceEngine, FptEngine, PpCountingEngine, RelalgEngine};
    pub use epq_logic::parser::parse_query;
    pub use epq_logic::query::infer_signature;
    pub use epq_logic::{Formula, PpFormula, Query, Var};
    pub use epq_structures::{LiveStructure, Signature, StreamLog, StreamOp, Structure};
}
