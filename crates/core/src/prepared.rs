//! Prepared queries: pay the per-query pipeline once, count many times.
//!
//! The paper's counting algorithm (Theorem 3.2(1)) splits into a
//! **per-query** phase — normalize into disjuncts, build the `φ⁺`
//! decomposition (Section 5.4), measure core/contract treewidths — and
//! a **per-structure** phase — the sentence check plus the signed
//! `φ*_af` sum. The decomposition depends only on `φ`, which is exactly
//! what the data-complexity reading of the trichotomy assumes is
//! amortized. [`PreparedQuery`] makes that split explicit:
//!
//! * [`PreparedQuery::prepare`] runs the per-query phase once and
//!   memoizes it in a **process-wide cache keyed by the query's
//!   canonical form**, so repeated preparation of α-equivalent or
//!   reordered queries is a hash lookup;
//! * [`PreparedQuery::count`] / [`PreparedQuery::count_with`] run only
//!   the per-structure phase, with the engine capped at the prepared
//!   thread count ([`PreparedQuery::with_threads`], default 1);
//! * [`PreparedQuery::count_batch`] fans the per-structure phase
//!   across the shared `epq-pool` workers, one job per structure,
//!   results in input order and **bit-identical** to a
//!   sequential loop (each job is the single-threaded per-structure
//!   algorithm; the pool only schedules which worker runs it);
//! * [`PreparedQuery::analysis`] computes the trichotomy width measures
//!   **lazily** and shares them through the same cache entry — counting
//!   never pays for treewidth, and classification is computed at most
//!   once per canonical query per process.
//!
//! The canonical cache key renders each normalized disjunct's
//! Chandra–Merlin structure with liberal elements fixed at their
//! canonical positions and quantified elements relabeled to the
//! lexicographically minimal layout, then sorts the disjunct encodings.
//! Equal keys therefore guarantee semantically identical queries (same
//! counts on every structure, same width profile); renamed bound
//! variables, reordered atoms, and reordered disjuncts all collide onto
//! one entry.

use crate::classify::{analyze_decomposition, classify_widths, QueryAnalysis, Regime};
use crate::count::count_ep_with;
use crate::plus::{check_free_disjunct_limit, plus_decomposition_of_normalized, PlusDecomposition};
use epq_bigint::Natural;
use epq_counting::engines::{FptEngine, PpCountingEngine};
use epq_logic::query::LogicError;
use epq_logic::{dnf, PpFormula, Query};
use epq_structures::{Signature, Structure};
use std::collections::HashMap;
use std::fmt::Write as _;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, OnceLock};

/// Above this many quantified variables per disjunct, the key falls
/// back to the identity labeling (still sound — only cache *hits* are
/// lost) instead of minimizing over `q!` relabelings.
const MAX_CANON_QUANTIFIED: usize = 8;

/// Entry bound for the process-wide cache: before any insert would
/// push the map past this size, arbitrary entries are evicted one at a
/// time (no per-entry bookkeeping; a mixed workload never flips to a
/// fully cold cache), bounding memory under adversarial query streams.
const CACHE_CAPACITY: usize = 4096;

/// The shared, immutable product of the per-query phase: the `φ⁺`
/// decomposition eagerly, the width analysis lazily.
struct PreparedEntry {
    decomposition: PlusDecomposition,
    analysis: OnceLock<QueryAnalysis>,
}

impl PreparedEntry {
    fn analysis(&self) -> &QueryAnalysis {
        self.analysis
            .get_or_init(|| analyze_decomposition(&self.decomposition))
    }
}

type Cache = Mutex<HashMap<String, Arc<PreparedEntry>>>;

fn cache() -> &'static Cache {
    static CACHE: OnceLock<Cache> = OnceLock::new();
    CACHE.get_or_init(|| Mutex::new(HashMap::new()))
}

/// Inserts a key while holding the map at or under [`CACHE_CAPACITY`]
/// entries: arbitrary entries are evicted one at a time first. Every
/// insert path — canonical keys, fast keys, and alias inserts on the
/// canonical-hit path — goes through here, so the bound holds under
/// any query stream.
fn insert_bounded(
    map: &mut HashMap<String, Arc<PreparedEntry>>,
    key: String,
    entry: Arc<PreparedEntry>,
) {
    while map.len() >= CACHE_CAPACITY && !map.contains_key(&key) {
        match map.keys().next().cloned() {
            Some(k) => {
                map.remove(&k);
            }
            None => break,
        }
    }
    map.insert(key, entry);
}

static CACHE_HITS: AtomicUsize = AtomicUsize::new(0);
static CACHE_MISSES: AtomicUsize = AtomicUsize::new(0);

/// A snapshot of the classifier-cache counters.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct CacheStats {
    /// Prepares answered from the cache.
    pub hits: usize,
    /// Prepares that ran the per-query phase.
    pub misses: usize,
    /// Entries currently resident.
    pub entries: usize,
}

/// Returns the process-wide classifier-cache counters.
pub fn classifier_cache_stats() -> CacheStats {
    CacheStats {
        hits: CACHE_HITS.load(Ordering::Relaxed),
        misses: CACHE_MISSES.load(Ordering::Relaxed),
        entries: cache().lock().expect("cache poisoned").len(),
    }
}

/// Empties the process-wide classifier cache (the counters keep
/// accumulating). Intended for tests and benchmarks that need a cold
/// cache; concurrent [`PreparedQuery::prepare`] calls simply miss.
pub fn classifier_cache_clear() {
    cache().lock().expect("cache poisoned").clear();
}

/// An ep-query with its whole per-query phase precomputed: parsed
/// query, `φ⁺` decomposition, (lazily) the trichotomy analysis, a
/// chosen counting engine, and the worker cap that engine runs under.
/// See the [module docs](self).
pub struct PreparedQuery {
    query: Query,
    signature: Signature,
    entry: Arc<PreparedEntry>,
    engine: Box<dyn PpCountingEngine>,
    threads: usize,
    cache_hit: bool,
}

impl PreparedQuery {
    /// Runs (or looks up) the per-query phase. The default engine is
    /// [`FptEngine`]; swap it with [`PreparedQuery::with_engine`].
    pub fn prepare(query: &Query, signature: &Signature) -> Result<Self, LogicError> {
        Self::build(query, signature, true)
    }

    /// [`PreparedQuery::prepare`] bypassing the process-wide cache
    /// (always recomputes; never inserts). For benchmarks measuring the
    /// un-amortized pipeline and for tests that need isolation.
    pub fn prepare_uncached(query: &Query, signature: &Signature) -> Result<Self, LogicError> {
        Self::build(query, signature, false)
    }

    fn build(query: &Query, signature: &Signature, use_cache: bool) -> Result<Self, LogicError> {
        // The DNF + normalization pass is shared between the key and
        // the decomposition, so a cache hit pays it exactly once.
        let raw = dnf::disjuncts(query, signature)?;
        let disjuncts = dnf::normalize(raw);
        check_free_disjunct_limit(&disjuncts)?;
        if !use_cache {
            let entry = Arc::new(PreparedEntry {
                decomposition: plus_decomposition_of_normalized(disjuncts),
                analysis: OnceLock::new(),
            });
            return Ok(Self::from_entry(query, signature, entry, false));
        }
        // Two probes share one key namespace (equal strings imply
        // equivalent queries regardless of which labeling produced
        // them): first the cheap identity-labeled key — repeated
        // preparation of the same spelling is a hash lookup — then the
        // canonical (minimized) key that folds α-variants together.
        // The O(q!) minimization runs only when the cheap probe
        // misses, and its result is aliased so it runs once per
        // spelling.
        let fast_key = encoded_key(signature, query.liberal_count(), &disjuncts, false);
        {
            let map = cache().lock().expect("cache poisoned");
            if let Some(entry) = map.get(&fast_key).cloned() {
                drop(map);
                CACHE_HITS.fetch_add(1, Ordering::Relaxed);
                return Ok(Self::from_entry(query, signature, entry, true));
            }
        }
        let canonical_key = encoded_key(signature, query.liberal_count(), &disjuncts, true);
        {
            let mut map = cache().lock().expect("cache poisoned");
            if let Some(entry) = map.get(&canonical_key).cloned() {
                insert_bounded(&mut map, fast_key, Arc::clone(&entry));
                drop(map);
                CACHE_HITS.fetch_add(1, Ordering::Relaxed);
                return Ok(Self::from_entry(query, signature, entry, true));
            }
        }
        CACHE_MISSES.fetch_add(1, Ordering::Relaxed);
        let entry = Arc::new(PreparedEntry {
            decomposition: plus_decomposition_of_normalized(disjuncts),
            analysis: OnceLock::new(),
        });
        let mut map = cache().lock().expect("cache poisoned");
        // A racing prepare may have inserted the same key; keep the
        // resident entry so lazy analyses are shared.
        let entry = match map.get(&canonical_key).cloned() {
            Some(resident) => resident,
            None => {
                insert_bounded(&mut map, canonical_key, Arc::clone(&entry));
                entry
            }
        };
        insert_bounded(&mut map, fast_key, Arc::clone(&entry));
        drop(map);
        Ok(Self::from_entry(query, signature, entry, false))
    }

    fn from_entry(
        query: &Query,
        signature: &Signature,
        entry: Arc<PreparedEntry>,
        cache_hit: bool,
    ) -> Self {
        PreparedQuery {
            query: query.clone(),
            signature: signature.clone(),
            entry,
            engine: Box::new(FptEngine),
            threads: 1,
            cache_hit,
        }
    }

    /// Replaces the counting engine used by [`PreparedQuery::count`]
    /// and [`PreparedQuery::count_batch`].
    pub fn with_engine(mut self, engine: Box<dyn PpCountingEngine>) -> Self {
        self.engine = engine;
        self
    }

    /// Caps the worker threads of every single-structure count
    /// ([`PreparedQuery::count`], [`PreparedQuery::count_with`], and
    /// `LiveCount` maintenance) at `threads` (default 1; 0 means 1).
    /// Counts are identical at every cap.
    pub fn with_threads(mut self, threads: usize) -> Self {
        self.threads = threads.max(1);
        self
    }

    /// The worker cap set by [`PreparedQuery::with_threads`].
    pub fn threads(&self) -> usize {
        self.threads
    }

    /// The parsed query.
    pub fn query(&self) -> &Query {
        &self.query
    }

    /// The signature the query was prepared against.
    pub fn signature(&self) -> &Signature {
        &self.signature
    }

    /// The `φ⁺` decomposition (shared with every canonically-equal
    /// prepared query in the process).
    pub fn decomposition(&self) -> &PlusDecomposition {
        &self.entry.decomposition
    }

    /// Number of liberal variables of the query.
    pub fn liberal_count(&self) -> usize {
        self.query.liberal_count()
    }

    /// The chosen counting engine.
    pub fn engine(&self) -> &dyn PpCountingEngine {
        self.engine.as_ref()
    }

    /// Whether this preparation was answered from the process-wide
    /// cache.
    pub fn was_cache_hit(&self) -> bool {
        self.cache_hit
    }

    /// The trichotomy width analysis of `φ⁺`, computed on first access
    /// and memoized in the shared cache entry.
    pub fn analysis(&self) -> &QueryAnalysis {
        self.entry.analysis()
    }

    /// The Theorem 3.2 regime at width bound `w` (see
    /// [`classify_widths`]).
    pub fn regime(&self, width_bound: usize) -> Regime {
        let analysis = self.analysis();
        classify_widths(
            analysis.max_core_treewidth,
            analysis.max_contract_treewidth,
            width_bound,
        )
    }

    /// Counts `|φ(B)|` with the prepared engine (per-structure phase
    /// only) on up to [`PreparedQuery::threads`] workers.
    pub fn count(&self, b: &Structure) -> Natural {
        self.count_with(b, self.engine.as_ref())
    }

    /// Counts `|φ(B)|` with an explicit engine on up to
    /// [`PreparedQuery::threads`] workers.
    pub fn count_with(&self, b: &Structure, engine: &dyn PpCountingEngine) -> Natural {
        count_ep_with(
            &self.entry.decomposition,
            self.query.liberal_count(),
            b,
            engine,
            self.threads,
        )
    }

    /// Counts `|φ(Bᵢ)|` for every structure, fanning one job per
    /// structure across up to `threads` pool workers. Each job runs the
    /// engine on one thread, whatever [`PreparedQuery::threads`] says,
    /// so the batch never nests engine workers inside the fan-out.
    /// Results come back in input order and are bit-identical to a
    /// [`PreparedQuery::count`] loop at every thread count.
    pub fn count_batch(&self, structures: &[Structure], threads: usize) -> Vec<Natural> {
        let decomposition = &self.entry.decomposition;
        let liberal_count = self.query.liberal_count();
        let engine = self.engine.as_ref();
        let jobs: Vec<_> = structures
            .iter()
            .map(|b| move || count_ep_with(decomposition, liberal_count, b, engine, 1))
            .collect();
        epq_pool::run_jobs(threads.max(1), jobs)
    }
}

/// [`crate::classify::classify_query`] through the process-wide
/// prepared-query cache: the expensive `φ⁺`/treewidth work runs at most
/// once per canonical query per process.
pub fn classify_query_cached(
    query: &Query,
    signature: &Signature,
) -> Result<QueryAnalysis, LogicError> {
    Ok(PreparedQuery::prepare(query, signature)?.analysis().clone())
}

/// The cache key: signature layout, liberal count, and the sorted
/// encodings of the normalized disjuncts. With `canonical` set, each
/// disjunct's quantified elements are relabeled to the
/// lexicographically minimal layout (α-variants collide); without it,
/// the identity labeling is used (cheap; exact spellings collide).
/// Both flavors share one namespace soundly: equal key strings mean
/// equal encoded structure views — under *some* labeling — so the
/// queries are equivalent however the keys were produced.
fn encoded_key(
    signature: &Signature,
    liberal_count: usize,
    disjuncts: &[PpFormula],
    canonical: bool,
) -> String {
    let mut key = String::from("sig=");
    for (_, name, arity) in signature.iter() {
        let _ = write!(key, "{name}/{arity},");
    }
    let _ = write!(key, ";s={liberal_count};d=");
    let mut parts: Vec<String> = disjuncts.iter().map(|d| encode_pp(d, canonical)).collect();
    parts.sort_unstable();
    key.push_str(&parts.join("|"));
    key
}

/// An encoding of one disjunct's structure view `(A, S)`: liberal
/// elements keep their canonical positions `0..s` (sorted by name —
/// renaming free variables order-preservingly cannot change them),
/// quantified elements are either kept as-is (`canonical = false`) or
/// relabeled to minimize the encoding lexicographically, and tuples
/// are listed sorted per relation. Two disjuncts encode equally iff
/// their structure views coincide up to a relabeling of quantified
/// elements — which makes the formulas logically equivalent, hence
/// count- and width-equivalent.
fn encode_pp(pp: &PpFormula, canonical: bool) -> String {
    let s = pp.liberal_count();
    let n = pp.structure().universe_size();
    let q = n - s;
    let encode = |perm: &[u32]| -> String {
        let map = |e: u32| -> u32 {
            if (e as usize) < s {
                e
            } else {
                s as u32 + perm[e as usize - s]
            }
        };
        let mut out = String::new();
        let _ = write!(out, "n{n}s{s}");
        for (rel, name, _) in pp.signature().iter() {
            let mut tuples: Vec<Vec<u32>> = pp
                .structure()
                .relation(rel)
                .tuples()
                .map(|t| t.iter().map(|&e| map(e)).collect())
                .collect();
            tuples.sort_unstable();
            let _ = write!(out, "{name}:");
            for t in tuples {
                let _ = write!(out, "{t:?}");
            }
            out.push(';');
        }
        out
    };
    let identity: Vec<u32> = (0..q as u32).collect();
    if !canonical || q > MAX_CANON_QUANTIFIED {
        // Identity labeling: either the cheap first-probe key, or the
        // sound fallback for very wide quantifier prefixes (identical
        // spellings still collide; α-variants may miss the cache).
        return encode(&identity);
    }
    let mut best: Option<String> = None;
    let mut perm = identity;
    for_each_permutation(&mut perm, 0, &mut |p| {
        let enc = encode(p);
        if best.as_ref().map_or(true, |b| enc < *b) {
            best = Some(enc);
        }
    });
    best.expect("at least the identity permutation is visited")
}

/// Visits every permutation of `items` (in-place, restoring order).
fn for_each_permutation(items: &mut Vec<u32>, k: usize, f: &mut impl FnMut(&[u32])) {
    if k == items.len() {
        f(items);
        return;
    }
    for i in k..items.len() {
        items.swap(k, i);
        for_each_permutation(items, k + 1, f);
        items.swap(k, i);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use epq_counting::brute::count_ep_brute;
    use epq_counting::engines::BruteForceEngine;
    use epq_logic::parser::parse_query;
    use epq_logic::query::infer_signature;

    /// Serializes every test in this module that touches the
    /// process-wide cache (all `prepare` calls mutate the hit/miss
    /// counters), so `classifier_cache_clear` and the counter
    /// assertions cannot race a sibling test.
    fn test_lock() -> std::sync::MutexGuard<'static, ()> {
        static LOCK: Mutex<()> = Mutex::new(());
        match LOCK.lock() {
            Ok(g) => g,
            Err(poisoned) => poisoned.into_inner(),
        }
    }

    fn prepare_text(text: &str) -> PreparedQuery {
        let q = parse_query(text).unwrap();
        let sig = infer_signature([q.formula()]).unwrap();
        PreparedQuery::prepare(&q, &sig).unwrap()
    }

    fn example_c() -> Structure {
        let sig = Signature::from_symbols([("E", 2)]);
        let mut s = Structure::new(sig, 4);
        for (u, v) in [(0, 1), (1, 2), (2, 3), (3, 3)] {
            s.add_tuple_named("E", &[u, v]);
        }
        s
    }

    #[test]
    fn cache_hits_on_alpha_equivalent_and_reordered_queries() {
        let _guard = test_lock();
        // A relation name unique to this test keeps the key disjoint
        // from every other test in the binary.
        let first = prepare_text("(x) := (exists u, v . R9(x,u) & R9(u,v)) | R9(x,x)");
        assert!(!first.was_cache_hit(), "first preparation must miss");
        // Same query with renamed bound variables, reordered atoms,
        // reordered disjuncts, and a renamed (order-preserved) free
        // variable.
        let second = prepare_text("(w) := R9(w,w) | (exists p, q . R9(q,p) & R9(w,q))");
        assert!(
            second.was_cache_hit(),
            "canonically-equal query must hit the classifier cache"
        );
        // The shared entry carries one analysis for both spellings.
        assert_eq!(
            first.analysis().max_core_treewidth,
            second.analysis().max_core_treewidth
        );
        // And the cached decomposition still counts correctly.
        let b = {
            let sig = Signature::from_symbols([("R9", 2)]);
            let mut s = Structure::new(sig, 3);
            s.add_tuple_named("R9", &[0, 1]);
            s.add_tuple_named("R9", &[1, 2]);
            s.add_tuple_named("R9", &[2, 2]);
            s
        };
        assert_eq!(first.count(&b), second.count(&b));
        assert_eq!(
            first.count(&b),
            count_ep_brute(second.query(), &b),
            "cached decomposition agrees with brute force"
        );
    }

    #[test]
    fn clear_empties_the_cache() {
        let _guard = test_lock();
        let text = "(x, y) := R8(x,y) | (exists a . R8(a,a))";
        assert!(!prepare_text(text).was_cache_hit());
        assert!(prepare_text(text).was_cache_hit());
        classifier_cache_clear();
        assert!(
            !prepare_text(text).was_cache_hit(),
            "a cleared cache must miss again"
        );
        let stats = classifier_cache_stats();
        assert!(stats.entries >= 1);
        assert!(stats.hits >= 1 && stats.misses >= 2);
    }

    #[test]
    fn prepare_uncached_never_touches_the_cache() {
        let _guard = test_lock();
        let q = parse_query("(x) := R7(x,x)").unwrap();
        let sig = infer_signature([q.formula()]).unwrap();
        let before = classifier_cache_stats();
        let p = PreparedQuery::prepare_uncached(&q, &sig).unwrap();
        assert!(!p.was_cache_hit());
        let after = classifier_cache_stats();
        assert_eq!(before.hits, after.hits);
        assert_eq!(before.misses, after.misses);
    }

    #[test]
    fn count_matches_count_ep_on_paper_example() {
        let _guard = test_lock();
        let p = prepare_text("(w,x,y,z) := E(x,y) & (E(w,x) | (E(y,z) & E(z,z)))");
        assert_eq!(p.count(&example_c()).to_u64(), Some(24));
        assert_eq!(
            p.count_with(&example_c(), &BruteForceEngine).to_u64(),
            Some(24)
        );
    }

    #[test]
    fn batch_counts_are_bit_identical_to_a_sequential_loop() {
        let _guard = test_lock();
        let p = prepare_text("(x, y) := E(x,y) | (exists a . E(a,a) & E(x,a))");
        let structures: Vec<Structure> = (0..9usize)
            .map(|i| {
                let sig = Signature::from_symbols([("E", 2)]);
                let mut s = Structure::new(sig, 2 + i % 3);
                s.add_tuple_named("E", &[0, (i % 2) as u32]);
                if i % 3 == 2 {
                    s.add_tuple_named("E", &[1, 1]);
                }
                s
            })
            .collect();
        let sequential: Vec<Natural> = structures.iter().map(|b| p.count(b)).collect();
        for threads in [1usize, 2, 4] {
            assert_eq!(
                p.count_batch(&structures, threads),
                sequential,
                "threads = {threads}"
            );
        }
    }

    /// Records the `threads` argument of every engine call.
    struct RecordingEngine(Arc<Mutex<Vec<usize>>>);

    impl PpCountingEngine for RecordingEngine {
        fn name(&self) -> &'static str {
            "recording"
        }

        fn count_threaded(&self, pp: &PpFormula, b: &Structure, threads: usize) -> Natural {
            self.0.lock().unwrap().push(threads);
            BruteForceEngine.count(pp, b)
        }
    }

    #[test]
    fn engines_see_the_prepared_cap_and_one_thread_per_batch_job() {
        let _guard = test_lock();
        let seen = Arc::new(Mutex::new(Vec::new()));
        let p = prepare_text("(x, y) := E(x,y) | E(y,x)")
            .with_engine(Box::new(RecordingEngine(Arc::clone(&seen))))
            .with_threads(3);
        assert_eq!(p.threads(), 3);
        let expected = p.count_with(&example_c(), &BruteForceEngine);
        assert_eq!(p.count(&example_c()), expected);
        let single = std::mem::take(&mut *seen.lock().unwrap());
        assert!(
            !single.is_empty() && single.iter().all(|&t| t == 3),
            "{single:?}"
        );
        let batch = vec![example_c(); 5];
        assert_eq!(p.count_batch(&batch, 4), vec![expected; 5]);
        let batched = std::mem::take(&mut *seen.lock().unwrap());
        assert!(
            !batched.is_empty() && batched.iter().all(|&t| t == 1),
            "{batched:?}"
        );
    }

    #[test]
    fn regime_reads_off_the_lazy_analysis() {
        let _guard = test_lock();
        let p = prepare_text("E(x,y) & E(y,z) & E(x,z)");
        assert_eq!(p.analysis().max_core_treewidth, 2);
        assert_eq!(p.regime(2), Regime::Fpt);
        assert_eq!(p.regime(1), Regime::SharpCliqueHard);
    }

    #[test]
    fn distinct_queries_get_distinct_keys() {
        let sig = Signature::from_symbols([("E", 2)]);
        let key_of = |text: &str| {
            let q = parse_query(text).unwrap();
            let raw = dnf::disjuncts(&q, &sig).unwrap();
            let normalized = dnf::normalize(raw);
            encoded_key(&sig, q.liberal_count(), &normalized, true)
        };
        // Liberal order matters (E(x,y) vs E(y,x) count differently on
        // asymmetric structures only via the liberal positions, but
        // their decompositions differ).
        assert_ne!(key_of("E(x,y)"), key_of("E(y,x)"));
        assert_ne!(key_of("E(x,y)"), key_of("(x,y,z) := E(x,y)"));
        assert_ne!(key_of("E(x,y)"), key_of("E(x,y) & E(y,x)"));
        // α-variants collide.
        assert_eq!(
            key_of("(x) := exists u, v . E(x,u) & E(u,v)"),
            key_of("(x) := exists a, b . E(b,a) & E(x,b)")
        );
    }
}
