//! Incremental counting: maintain `|φ(B)|` while **B** grows tuple by
//! tuple.
//!
//! The per-structure phase of the counting algorithm (see
//! [`crate::count`]) is a sentence check plus a signed sum of pp counts
//! — and each of those pieces reads only the relations its formula
//! mentions. [`LiveCount`] exploits that read-set structure to keep the
//! answer count of a [`PreparedQuery`] current over a
//! [`LiveStructure`] without recounting from scratch:
//!
//! * **per-disjunct read sets** — every sentence disjunct and every
//!   kept `φ*` term is keyed on the relations its atoms read; an
//!   insert into relation `R` dirties only the pieces reading `R`, and
//!   every other piece keeps its cached result;
//! * **monotone sentence latches** — inserts only add tuples (the
//!   universe is fixed), so homomorphism existence is monotone: a
//!   sentence disjunct that holds keeps holding, and once one holds
//!   the count is pinned at `|B|^s` forever — reconciliation becomes
//!   O(1);
//! * **cached relational-algebra intermediates** — when the prepared
//!   engine is scan-based
//!   ([`epq_counting::engines::PpCountingEngine::scan_based`], the
//!   `relalg` family), affected terms re-evaluate through an
//!   [`epq_relalg::ScanCache`]: only atoms over dirty relations
//!   rescan, the joins replay on mostly-cached inputs;
//! * **the engine-recount fallback** — for every other engine (`fpt`,
//!   `brute-force`) a dirty relation feeds the engine's own eliminations or enumeration
//!   state that cannot be patched, so each *affected* term is fully
//!   recounted through the engine (clean terms still come from the
//!   cache).
//!
//! Both paths run on up to the prepared query's
//! [`PreparedQuery::threads`] workers; `LiveCount` has no thread
//! setting of its own.
//!
//! Reconciliation is **lazy**: inserts only flip dirty bits, and the
//! affected pieces recompute once per [`LiveCount::current`] call, not
//! once per insert — a burst of inserts between two checkpoints costs
//! one reconciliation. The maintained count is always exactly the
//! number a from-scratch [`PreparedQuery::count`] on the current
//! snapshot returns (asserted by the `tests` here, the workspace
//! proptests, and the `P4` experiment gate).

use crate::count::sentence_holds;
use crate::iex::signed_sum;
use crate::prepared::PreparedQuery;
use epq_bigint::Natural;
use epq_counting::brute::universe_power;
use epq_logic::PpFormula;
use epq_relalg::{count_pp_cached, ScanCache};
use epq_structures::{LiveStructure, RelId, StreamOp, Structure, UnknownRelation};
use std::fmt;

/// Error from [`LiveCount::new`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LiveCountError {
    /// Human-readable description.
    pub message: String,
}

impl fmt::Display for LiveCountError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "live count error: {}", self.message)
    }
}

impl std::error::Error for LiveCountError {}

/// Counters describing how much work incremental maintenance actually
/// did (for tests, the `P4` experiment, and capacity planning).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct LiveCountStats {
    /// Inserts that added a tuple.
    pub inserts: u64,
    /// [`LiveCount::current`] calls that had dirty state to reconcile.
    pub reconciles: u64,
    /// `φ*` terms re-counted (they read a dirty relation).
    pub term_recounts: u64,
    /// `φ*` terms served from the per-term cache.
    pub term_reuses: u64,
    /// Of the recounts, how many went through the prepared (non
    /// scan-based) engine — the engine-recount fallback path.
    pub engine_fallbacks: u64,
    /// Sentence disjuncts re-checked.
    pub sentence_rechecks: u64,
}

/// A [`PreparedQuery`] paired with a [`LiveStructure`], maintaining
/// `|φ(B)|` under tuple insertion. See the [module docs](self).
pub struct LiveCount {
    prepared: PreparedQuery,
    live: LiveStructure,
    /// Affected terms re-evaluate through [`ScanCache`]d relational
    /// algebra iff the prepared engine is scan-based; otherwise each
    /// one is fully recounted by that engine.
    cached_relalg: bool,
    /// Lazily checked sentence truth; `Some(true)` is a permanent
    /// latch (insertion is monotone for homomorphism existence).
    sentence_true: Vec<Option<bool>>,
    /// Relations each sentence disjunct reads.
    sentence_reads: Vec<Vec<RelId>>,
    /// Cached per-term counts, aligned with `decomposition().star_af`
    /// (only kept terms are ever computed).
    term_counts: Vec<Option<Natural>>,
    /// Relations each star term reads.
    term_reads: Vec<Vec<RelId>>,
    scans: ScanCache,
    /// The reconciled total, invalidated by any effective insert.
    total: Option<Natural>,
    stats: LiveCountStats,
}

/// The relations a pp-formula reads: every signature symbol with at
/// least one atom in the formula's structure view.
fn read_set(pp: &PpFormula) -> Vec<RelId> {
    pp.signature()
        .iter()
        .filter(|(rel, _, _)| !pp.structure().relation(*rel).is_empty())
        .map(|(rel, _, _)| rel)
        .collect()
}

fn reads_any(reads: &[RelId], dirty: &[RelId]) -> bool {
    reads.iter().any(|r| dirty.contains(r))
}

impl LiveCount {
    /// Pairs a prepared query with a live structure. The structure's
    /// signature must be the one the query was prepared against.
    ///
    /// Any dirty flags already set on `live` (e.g. from
    /// [`LiveStructure::from_structure`]) are absorbed by the first
    /// [`LiveCount::current`] call, which computes every piece anyway.
    pub fn new(prepared: PreparedQuery, live: LiveStructure) -> Result<Self, LiveCountError> {
        if prepared.signature() != live.signature() {
            return Err(LiveCountError {
                message: "live structure's signature differs from the prepared query's".into(),
            });
        }
        let dec = prepared.decomposition();
        let sentence_reads = dec.sentences.iter().map(read_set).collect();
        let term_reads = dec.star_af.iter().map(|t| read_set(&t.formula)).collect();
        let sentences = dec.sentences.len();
        let terms = dec.star_af.len();
        let cached_relalg = prepared.engine().scan_based();
        Ok(LiveCount {
            prepared,
            live,
            cached_relalg,
            sentence_true: vec![None; sentences],
            sentence_reads,
            term_counts: vec![None; terms],
            term_reads,
            scans: ScanCache::new(),
            total: None,
            stats: LiveCountStats::default(),
        })
    }

    /// The prepared query.
    pub fn prepared(&self) -> &PreparedQuery {
        &self.prepared
    }

    /// The live structure (read-only; insert through
    /// [`LiveCount::insert_tuple`] so the maintainer sees every write).
    pub fn live(&self) -> &LiveStructure {
        &self.live
    }

    /// The current structure snapshot.
    pub fn snapshot(&self) -> &Structure {
        self.live.snapshot()
    }

    /// Whether affected terms re-evaluate through cached
    /// relational-algebra scans (`true`) or the prepared engine's full
    /// per-term recount (`false`, the engine-recount fallback).
    pub fn uses_cached_relalg(&self) -> bool {
        self.cached_relalg
    }

    /// The maintenance-work counters.
    pub fn stats(&self) -> LiveCountStats {
        self.stats
    }

    /// Inserts a tuple, returning whether it was new. Cheap: flips
    /// dirty bits only — reconciliation happens at the next
    /// [`LiveCount::current`].
    pub fn insert_tuple(&mut self, rel: RelId, tuple: &[u32]) -> bool {
        let added = self.live.insert_tuple(rel, tuple);
        if added {
            self.stats.inserts += 1;
            self.total = None;
        }
        added
    }

    /// [`LiveCount::insert_tuple`] by relation name; an unknown name is
    /// an error and inserts nothing.
    pub fn insert_tuple_named(
        &mut self,
        name: &str,
        tuple: &[u32],
    ) -> Result<bool, UnknownRelation> {
        let rel = self
            .live
            .signature()
            .lookup(name)
            .ok_or_else(|| UnknownRelation {
                name: name.to_string(),
            })?;
        Ok(self.insert_tuple(rel, tuple))
    }

    /// Applies one stream operation: inserts return `None`,
    /// checkpoints return the reconciled count.
    pub fn apply(&mut self, op: &StreamOp) -> Option<Natural> {
        match op {
            StreamOp::Insert { rel, tuple } => {
                self.insert_tuple(*rel, tuple);
                None
            }
            StreamOp::Checkpoint => Some(self.current()),
        }
    }

    /// The current `|φ(B)|`, reconciling whatever the inserts since
    /// the last call dirtied. Always equals a from-scratch
    /// [`PreparedQuery::count`] on [`LiveCount::snapshot`].
    pub fn current(&mut self) -> Natural {
        if let (Some(total), false) = (&self.total, self.live.any_dirty()) {
            return total.clone();
        }
        self.stats.reconciles += 1;
        let dirty = self.live.dirty_relations();
        for &rel in &dirty {
            self.scans.invalidate(rel);
        }
        // Split borrows: the decomposition lives inside `prepared`,
        // the caches and the structure are sibling fields.
        let Self {
            ref prepared,
            ref live,
            cached_relalg,
            ref mut sentence_true,
            ref sentence_reads,
            ref mut term_counts,
            ref term_reads,
            ref mut scans,
            ref mut stats,
            ..
        } = *self;
        let dec = prepared.decomposition();
        let threads = prepared.threads();
        let b = live.snapshot();

        // Sentence disjuncts: latch truth, recheck the false ones only
        // when a relation they read changed.
        let mut saturated = false;
        for (i, theta) in dec.sentences.iter().enumerate() {
            let verdict = match sentence_true[i] {
                Some(true) => true,
                Some(false) if !reads_any(&sentence_reads[i], &dirty) => false,
                _ => {
                    stats.sentence_rechecks += 1;
                    let holds = sentence_holds(theta, b);
                    sentence_true[i] = Some(holds);
                    holds
                }
            };
            if verdict {
                saturated = true;
                break;
            }
        }
        let total = if saturated {
            // A sentence disjunct holds (and, by monotonicity, always
            // will): every assignment satisfies φ. The stale term
            // caches are unreachable from now on.
            universe_power(b, prepared.liberal_count())
        } else {
            // The signed φ*_af sum over the kept terms, recounting
            // exactly the terms that read a dirty relation.
            signed_sum(dec.kept_terms(), |i, formula| {
                let stale = term_counts[i].is_none() || reads_any(&term_reads[i], &dirty);
                if stale {
                    stats.term_recounts += 1;
                    let count = if cached_relalg {
                        count_pp_cached(formula, b, scans, threads)
                    } else {
                        stats.engine_fallbacks += 1;
                        prepared.engine().count_threaded(formula, b, threads)
                    };
                    term_counts[i] = Some(count);
                } else {
                    stats.term_reuses += 1;
                }
                term_counts[i].clone().expect("just reconciled")
            })
        };
        self.live.clear_dirty();
        self.total = Some(total.clone());
        total
    }

    /// The reference computation: the prepared query's full
    /// per-structure phase on the current snapshot, ignoring every
    /// cache. [`LiveCount::current`] must always equal this.
    pub fn recount_from_scratch(&self) -> Natural {
        self.prepared.count(self.snapshot())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use epq_counting::engines::{BruteForceEngine, FptEngine, PpCountingEngine, RelalgEngine};
    use epq_logic::parser::parse_query;
    use epq_logic::query::infer_signature;
    use epq_structures::Signature;

    fn prepare(text: &str) -> PreparedQuery {
        let q = parse_query(text).unwrap();
        let sig = infer_signature([q.formula()]).unwrap();
        PreparedQuery::prepare_uncached(&q, &sig).unwrap()
    }

    fn live_for(prepared: &PreparedQuery, n: usize) -> LiveStructure {
        LiveStructure::new(prepared.signature().clone(), n)
    }

    /// Inserts a scripted sequence one tuple at a time, asserting
    /// incremental == from-scratch after every single insert.
    fn check_sequence(query: &str, n: usize, inserts: &[(&str, &[u32])]) {
        for scan_based in [true, false] {
            let mut prepared = prepare(query);
            if scan_based {
                prepared = prepared.with_engine(Box::new(RelalgEngine));
            }
            let live = live_for(&prepared, n);
            let mut lc = LiveCount::new(prepared, live).unwrap();
            assert_eq!(lc.uses_cached_relalg(), scan_based);
            assert_eq!(lc.current(), lc.recount_from_scratch(), "empty structure");
            for (name, tuple) in inserts {
                lc.insert_tuple_named(name, tuple).unwrap();
                assert_eq!(
                    lc.current(),
                    lc.recount_from_scratch(),
                    "query {query}, after insert {name}{tuple:?}, scan_based {scan_based}"
                );
            }
        }
    }

    #[test]
    fn agrees_with_recount_on_single_relation_queries() {
        check_sequence(
            "(w,x,y,z) := E(x,y) & (E(w,x) | (E(y,z) & E(z,z)))",
            4,
            &[
                ("E", &[0, 1]),
                ("E", &[1, 2]),
                ("E", &[2, 3]),
                ("E", &[3, 3]),
            ],
        );
    }

    #[test]
    fn agrees_with_recount_on_multi_relation_queries() {
        check_sequence(
            "(x, y) := E(x,y) | F(x,y) | (exists a, b . E(a,b) & F(a,b))",
            3,
            &[
                ("E", &[0, 1]),
                ("F", &[1, 2]),
                ("F", &[0, 1]),
                ("E", &[1, 2]),
                ("F", &[2, 2]),
            ],
        );
    }

    #[test]
    fn sentence_saturation_latches() {
        let prepared =
            prepare("(x, y) := E(x,y) | (exists a . F(a,a))").with_engine(Box::new(RelalgEngine));
        let live = live_for(&prepared, 3);
        let mut lc = LiveCount::new(prepared, live).unwrap();
        lc.insert_tuple_named("E", &[0, 1]).unwrap();
        assert_eq!(lc.current().to_u64(), Some(1));
        // The F loop fires the sentence: count pins at |B|² = 9.
        lc.insert_tuple_named("F", &[2, 2]).unwrap();
        assert_eq!(lc.current().to_u64(), Some(9));
        assert_eq!(lc.recount_from_scratch().to_u64(), Some(9));
        let rechecks = lc.stats().sentence_rechecks;
        // Saturated maintenance is O(1): further inserts recheck
        // nothing and recount nothing.
        let recounts = lc.stats().term_recounts;
        lc.insert_tuple_named("E", &[1, 2]).unwrap();
        assert_eq!(lc.current().to_u64(), Some(9));
        assert_eq!(lc.stats().sentence_rechecks, rechecks);
        assert_eq!(lc.stats().term_recounts, recounts);
        assert_eq!(lc.current(), lc.recount_from_scratch());
    }

    #[test]
    fn unaffected_terms_are_reused() {
        // φ*: E-term, F-term, E∧F-term. Inserting only into F must
        // never recount the E-only term.
        let prepared = prepare("(x, y) := E(x,y) | F(x,y)").with_engine(Box::new(RelalgEngine));
        let live = live_for(&prepared, 4);
        let mut lc = LiveCount::new(prepared, live).unwrap();
        lc.insert_tuple_named("E", &[0, 1]).unwrap();
        let _ = lc.current();
        let baseline = lc.stats();
        for i in 0..3u32 {
            lc.insert_tuple_named("F", &[i, i + 1]).unwrap();
            assert_eq!(lc.current(), lc.recount_from_scratch());
        }
        let after = lc.stats();
        assert!(
            after.term_reuses > baseline.term_reuses,
            "the E-only term must be served from cache: {after:?}"
        );
        // Three reconciles touching only F: the E term is reused each
        // time, so recounts grow by at most 2 per reconcile (F, E∧F).
        assert!(after.term_recounts - baseline.term_recounts <= 6);
    }

    #[test]
    fn lazy_reconciliation_batches_inserts() {
        let prepared = prepare("(x, y) := E(x,y) | F(x,y)").with_engine(Box::new(RelalgEngine));
        let live = live_for(&prepared, 5);
        let mut lc = LiveCount::new(prepared, live).unwrap();
        for i in 0..4u32 {
            lc.insert_tuple_named("E", &[i, i + 1]).unwrap();
        }
        let _ = lc.current();
        let stats = lc.stats();
        assert_eq!(stats.reconciles, 1, "one checkpoint, one reconcile");
        // Repeated current() without inserts is a cache hit.
        let _ = lc.current();
        assert_eq!(lc.stats().reconciles, 1);
    }

    #[test]
    fn engine_fallback_recounts_through_the_prepared_engine() {
        let prepared = prepare("(x) := E(x,x) | F(x,x)").with_engine(Box::new(BruteForceEngine));
        let live = live_for(&prepared, 3);
        let mut lc = LiveCount::new(prepared, live).unwrap();
        assert!(!lc.uses_cached_relalg());
        lc.insert_tuple_named("E", &[1, 1]).unwrap();
        assert_eq!(lc.current(), lc.recount_from_scratch());
        assert!(lc.stats().engine_fallbacks > 0);
        lc.insert_tuple_named("F", &[2, 2]).unwrap();
        assert_eq!(lc.current(), lc.recount_from_scratch());
    }

    #[test]
    fn threads_do_not_change_counts() {
        let inserts: &[(&str, &[u32])] = &[
            ("E", &[0, 1]),
            ("E", &[1, 2]),
            ("F", &[2, 0]),
            ("E", &[2, 2]),
            ("F", &[0, 0]),
        ];
        let replay = |engine: Box<dyn PpCountingEngine>, threads: usize| -> Vec<Natural> {
            let prepared = prepare("(x, y) := (E(x,y) & E(y,x)) | F(x,y)")
                .with_engine(engine)
                .with_threads(threads);
            let live = live_for(&prepared, 3);
            let mut lc = LiveCount::new(prepared, live).unwrap();
            inserts
                .iter()
                .map(|(name, t)| {
                    lc.insert_tuple_named(name, t).unwrap();
                    lc.current()
                })
                .collect()
        };
        let reference = replay(Box::new(RelalgEngine), 1);
        for threads in [1usize, 2, 4] {
            // Cached relalg joins and the engine fallback both read the
            // prepared cap.
            assert_eq!(replay(Box::new(RelalgEngine), threads), reference);
            assert_eq!(replay(Box::new(FptEngine), threads), reference);
        }
    }

    #[test]
    fn duplicate_inserts_do_not_invalidate() {
        let prepared = prepare("E(x,y)").with_engine(Box::new(RelalgEngine));
        let live = live_for(&prepared, 3);
        let mut lc = LiveCount::new(prepared, live).unwrap();
        assert!(lc.insert_tuple_named("E", &[0, 1]).unwrap());
        assert_eq!(lc.current().to_u64(), Some(1));
        let reconciles = lc.stats().reconciles;
        assert!(!lc.insert_tuple_named("E", &[0, 1]).unwrap());
        assert_eq!(lc.insert_tuple_named("G", &[0, 1]).unwrap_err().name, "G");
        assert_eq!(lc.current().to_u64(), Some(1));
        assert_eq!(lc.stats().reconciles, reconciles, "duplicate is a no-op");
    }

    #[test]
    fn pre_loaded_structures_start_dirty_and_reconcile() {
        let prepared = prepare("E(x,y) & E(y,z)").with_engine(Box::new(RelalgEngine));
        let mut s = Structure::new(prepared.signature().clone(), 4);
        for (u, v) in [(0, 1), (1, 2), (2, 3)] {
            s.add_tuple_named("E", &[u, v]);
        }
        let mut lc = LiveCount::new(prepared, LiveStructure::from_structure(s)).unwrap();
        assert_eq!(lc.current(), lc.recount_from_scratch());
        lc.insert_tuple_named("E", &[3, 3]).unwrap();
        assert_eq!(lc.current(), lc.recount_from_scratch());
    }

    #[test]
    fn signature_mismatch_is_reported() {
        let prepared = prepare("E(x,y)");
        let other = LiveStructure::new(Signature::from_symbols([("F", 2)]), 2);
        let err = LiveCount::new(prepared, other).err().expect("must fail");
        assert!(err.message.contains("signature"));
    }

    #[test]
    fn stream_ops_apply() {
        use epq_structures::StreamLog;
        let log = StreamLog::parse(
            "universe 3\nrel E/2\ninsert E 0 1\ncheckpoint\ninsert E 1 2\ninsert E 2 0\ncheckpoint\n",
        )
        .unwrap();
        let q = parse_query("(x) := exists u . E(x,u)").unwrap();
        let prepared = PreparedQuery::prepare_uncached(&q, &log.signature)
            .unwrap()
            .with_engine(Box::new(RelalgEngine));
        let mut lc = LiveCount::new(prepared, log.open()).unwrap();
        let counts: Vec<u64> = log
            .ops
            .iter()
            .filter_map(|op| lc.apply(op))
            .map(|n| n.to_u64().unwrap())
            .collect();
        assert_eq!(counts, vec![1, 3]);
    }
}
