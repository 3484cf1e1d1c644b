//! # epq-core — Chen & Mengel's classification, executable
//!
//! The primary crate of the `epq` workspace (see `docs/ARCHITECTURE.md`): the
//! original contributions of *"Counting Answers to Existential Positive
//! Queries: A Complexity Classification"* (PODS 2016), implemented as
//! running code on top of the substrate crates.
//!
//! * [`equivalence`] — **counting equivalence** decided via *renaming
//!   equivalence* (Theorem 5.4) and **semi-counting equivalence** decided
//!   via the liberal part `φ̂` (Theorem 5.9);
//! * [`iex`] — the **inclusion–exclusion expansion** of a disjunctive
//!   ep-formula and the cancellation step that produces `φ*`
//!   (Proposition 5.16, Examples 4.2 / 5.15);
//! * [`plus`] — the **`φ⁺` construction** of Section 5.4 (all-free part,
//!   entailment filtering against sentence disjuncts, Example 5.21);
//! * [`count`] — the complete **ep answer-counting algorithm**: sentence
//!   disjunct check, then the signed `φ*` sum (the forward direction of
//!   the equivalence theorem / Theorem 3.2(1)'s algorithm);
//! * [`classify`] — the **trichotomy classifier** (Theorem 3.2): compute
//!   `φ⁺`, core and contract treewidths, and the regime;
//! * [`distinguish`] — the **deterministic** Lemma 5.12/5.13
//!   constructions (padding scans and exact product amplification),
//!   complementing the randomized search in [`oracle`];
//! * [`oracle`] — the **reverse reductions** of the equivalence theorem as
//!   executable oracle algorithms: distinguishing-structure search
//!   (Lemma 5.12), Vandermonde recovery over products `B × C^ℓ`
//!   (Example 4.3 / Theorem 5.20), class splitting (Lemma 5.18), and the
//!   treated-structure tricks for the general case (Appendix A);
//! * [`prepared`] — the **prepared-query architecture**: the per-query
//!   phase (normalize → `φ⁺` → width analysis) computed once and
//!   memoized process-wide by canonical form, with batched,
//!   pool-parallel per-structure counting
//!   ([`PreparedQuery::count_batch`]);
//! * [`incremental`] — **streaming maintenance**: [`LiveCount`] keeps a
//!   prepared query's answer count current while the structure grows
//!   tuple by tuple, recomputing only the disjuncts that read a dirty
//!   relation (cached relational-algebra intermediates; full per-term
//!   recount when a dirty relation feeds a non-scan-based engine).

pub mod classify;
pub mod count;
pub mod distinguish;
pub mod equivalence;
pub mod iex;
pub mod incremental;
pub mod oracle;
pub mod plus;
pub mod prepared;

pub use classify::{classify_query, QueryAnalysis, Regime};
pub use count::count_ep;
pub use equivalence::{counting_equivalent, renaming_equivalent, semi_counting_equivalent};
pub use iex::{inclusion_exclusion_terms, star, SignedPp};
pub use incremental::{LiveCount, LiveCountStats};
pub use plus::{plus_decomposition, PlusDecomposition};
pub use prepared::{
    classifier_cache_clear, classifier_cache_stats, classify_query_cached, CacheStats,
    PreparedQuery,
};
