//! The four workloads. Each is a closed loop with one client: the next
//! operation starts when the previous one returned. Inputs come from the
//! seed alone; every count is checked against an independent reference
//! outside the timed region.

use crate::trace::Tracer;
use epq_bigint::{Integer, Natural};
use epq_core::count::sentence_holds;
use epq_core::incremental::LiveCount;
use epq_core::plus::{plus_decomposition_of_normalized, PlusDecomposition};
use epq_core::prepared::{classifier_cache_clear, classifier_cache_stats, PreparedQuery};
use epq_counting::brute::count_ep_brute;
use epq_counting::engines::{PpCountingEngine, RelalgEngine};
use epq_logic::contract::existential_components;
use epq_logic::parser::parse_query;
use epq_logic::{dnf, Query};
use epq_structures::{LiveStructure, RelId, Signature, StreamOp, Structure};
use epq_workloads::data::{digraph_signature, random_insert_log, random_structure};
use epq_workloads::queries::{quantified_path_query, random_ucq_over};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::{HashMap, HashSet};
use std::hint::black_box;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::time::Instant;

/// The workload names, in the order `--workload all` runs them.
pub const NAMES: [&str; 4] = ["fpt-static", "ucq-churn", "live-feed", "batch-fanout"];

/// The width bound `w` whose Theorem 3.2 regime `ucq-churn` reads.
const WIDTH_BOUND: usize = 2;

/// Input sizes of one benchmark scale.
pub struct Sizes {
    /// `fpt-static`: digraph sizes, cycled over the structure pool.
    pub fpt_sizes: &'static [usize],
    pub fpt_p: f64,
    pub fpt_pool: usize,
    /// `ucq-churn`: structure sizes (inclusive range) and edge density.
    pub ucq_n: (usize, usize),
    pub ucq_p: f64,
    pub ucq_structures: usize,
    /// Variables, atoms per disjunct, disjuncts (inclusive range) and
    /// quantification probability of the random UCQs.
    pub ucq_vars: usize,
    pub ucq_atoms: usize,
    pub ucq_disjuncts: (usize, usize),
    pub ucq_quantify: f64,
    /// Ops between two cache clears; every `ucq_repeat_every`-th op of
    /// a round re-issues an earlier query of the round, renamed.
    pub ucq_round: usize,
    pub ucq_rounds: usize,
    pub ucq_repeat_every: usize,
    /// `live-feed`: universe, bulk `E` inserts, hot `F` inserts and
    /// inserts per checkpoint of one epoch, and the epoch count.
    pub live_n: usize,
    pub live_bulk: usize,
    pub live_stream: usize,
    pub live_every: usize,
    pub live_epochs: usize,
    /// `batch-fanout`: structure sizes (spread evenly over one batch),
    /// batch length, edge density and batch count.
    pub batch_n: (usize, usize),
    pub batch_len: usize,
    pub batch_p: f64,
    pub batch_pool: usize,
}

/// The sizes the benchmark measures.
pub const FULL: Sizes = Sizes {
    fpt_sizes: &[48, 60, 72, 84, 96],
    fpt_p: 0.08,
    // A multiple of the size count, so sizes keep cycling after a wrap.
    fpt_pool: 260,
    ucq_n: (10, 12),
    ucq_p: 0.15,
    ucq_structures: 64,
    ucq_vars: 4,
    ucq_atoms: 2,
    ucq_disjuncts: (3, 5),
    ucq_quantify: 0.35,
    ucq_round: 256,
    ucq_rounds: 16,
    ucq_repeat_every: 4,
    live_n: 48,
    live_bulk: 1600,
    live_stream: 300,
    live_every: 30,
    live_epochs: 128,
    batch_n: (24, 40),
    batch_len: 16,
    batch_p: 0.08,
    batch_pool: 64,
};

/// Small sizes for the self-test.
pub const TINY: Sizes = Sizes {
    fpt_sizes: &[8, 12],
    fpt_p: 0.2,
    fpt_pool: 4,
    ucq_n: (4, 5),
    ucq_p: 0.3,
    ucq_structures: 4,
    ucq_vars: 3,
    ucq_atoms: 2,
    ucq_disjuncts: (3, 4),
    ucq_quantify: 0.35,
    ucq_round: 16,
    ucq_rounds: 2,
    ucq_repeat_every: 4,
    live_n: 8,
    live_bulk: 30,
    live_stream: 20,
    live_every: 5,
    live_epochs: 2,
    batch_n: (6, 10),
    batch_len: 4,
    batch_p: 0.2,
    batch_pool: 2,
};

/// What a run observed, outside the traces.
#[derive(Default)]
pub struct Tally {
    pub attempted: u64,
    pub failed: u64,
    /// Latency in seconds and answer counts of each untraced operation.
    pub ops: Vec<(f64, u64)>,
    /// Untraced inserts and the time spent in their segments.
    pub inserts: u64,
    pub insert_s: f64,
    /// Descriptions of the first failures and of failed run checks.
    pub problems: Vec<String>,
    pub failed_checks: u64,
}

impl Tally {
    fn record_op(&mut self, secs: f64, counts: u64) {
        self.ops.push((secs, counts));
    }

    fn finish_op(&mut self, ok: bool, describe: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            if self.problems.len() < 5 {
                self.problems.push(describe());
            }
        }
    }

    fn fail_check(&mut self, message: String) {
        self.failed_checks += 1;
        self.problems.push(message);
    }
}

/// One workload, set up and ready to run operations.
pub trait Workload {
    /// The input sizes, as `key=value` pairs.
    fn provenance(&self) -> String;
    /// Runs one operation and checks its count. With a tracer, the
    /// operation runs under spans and side calls feed the counters.
    fn step(&mut self, tally: &mut Tally, tracer: Option<&mut Tracer>);
    /// Run-level checks after the last operation.
    fn finish(&mut self, _tally: &mut Tally) {}
    /// Span names whose time the workload was chosen to stress.
    fn focus(&self) -> &'static [&'static str];
    /// Operations per throughput window: one full cycle of the
    /// workload's input mix.
    fn window(&self) -> usize;
}

/// Generates the inputs of workload `name` from `seed` and prepares its
/// queries. `None` for an unknown name.
pub fn setup(name: &str, seed: u64, sizes: &'static Sizes) -> Option<Box<dyn Workload>> {
    let mut rng = StdRng::seed_from_u64(seed);
    Some(match name {
        "fpt-static" => Box::new(FptStatic::new(&mut rng, sizes)),
        "ucq-churn" => Box::new(UcqChurn::new(&mut rng, sizes)),
        "live-feed" => Box::new(LiveFeed::new(&mut rng, sizes)),
        "batch-fanout" => Box::new(BatchFanout::new(&mut rng, sizes)),
        _ => return None,
    })
}

/// Runs `f` as one untimed-by-span operation, returning its result
/// (`None` if it panicked) and its latency in seconds.
fn timed<T>(f: impl FnOnce() -> T) -> (Option<T>, f64) {
    let start = Instant::now();
    let out = catch_unwind(AssertUnwindSafe(f)).ok();
    (out, start.elapsed().as_secs_f64())
}

/// Runs `f` as one traced operation under an `op` span.
fn traced<T>(tr: &mut Tracer, f: impl FnOnce(&mut Tracer) -> T) -> Option<T> {
    tr.next_request();
    let id = tr.enter("op");
    let out = catch_unwind(AssertUnwindSafe(|| f(&mut *tr))).ok();
    tr.exit(id);
    tr.ops += 1;
    out
}

/// Replays `count_ep_with` from outside, call by call, under a `count`
/// span: one `count.sentence` span per sentence check, one `fpt.term`
/// span per kept `φ*_af` term (every prepared query replayed here uses
/// the default `fpt` engine), and the signed sum as the span's self
/// time. Returns the count and whether the kept terms were counted.
fn replay(q: &PreparedQuery, b: &Structure, tr: &mut Tracer) -> (Natural, bool) {
    let span = tr.enter("count");
    let dec = q.decomposition();
    let engine = q.engine();
    for theta in &dec.sentences {
        tr.add("count.sentence_checks", 1.0);
        if tr.time("count.sentence", || sentence_holds(theta, b)) {
            tr.exit(span);
            let all = Natural::from(b.universe_size()).pow(q.liberal_count() as u32);
            return (all, false);
        }
    }
    let mut acc = Integer::zero();
    for (term, &kept) in dec.star_af.iter().zip(&dec.kept) {
        if kept {
            let count = tr.time("fpt.term", || engine.count(&term.formula, b));
            acc += &(&term.coefficient * &Integer::from(count));
        }
    }
    assert!(!acc.is_negative(), "ep count must be non-negative");
    tr.exit(span);
    (acc.into_magnitude(), true)
}

/// Side calls after a traced count, outside the op span: `RelalgEngine`
/// on the terms `fpt` just counted (for `fpt.vs_relalg`), and the
/// largest ∃-component boundary of the kept terms' cores.
fn fpt_side_calls(q: &PreparedQuery, b: &Structure, tr: &mut Tracer, terms_counted: bool) {
    let dec = q.decomposition();
    if terms_counted {
        for (term, &kept) in dec.star_af.iter().zip(&dec.kept) {
            if kept {
                black_box(tr.time("relalg.term", || RelalgEngine.count(&term.formula, b)));
            }
        }
    }
    tr.max("fpt.max_boundary", max_boundary(dec) as f64);
}

/// A random digraph on `n` vertices with exactly `round(p·n²)` edges,
/// loops allowed: the density of `random_digraph` with the edge count
/// fixed, so the cost of a count varies less from seed to seed.
fn fixed_density_digraph(rng: &mut StdRng, n: usize, p: f64) -> Structure {
    let mut pairs: Vec<u32> = (0..(n * n) as u32).collect();
    let edges = (p * pairs.len() as f64).round() as usize;
    let mut s = Structure::new(digraph_signature(), n);
    for i in 0..edges {
        let j = rng.gen_range(i..pairs.len());
        pairs.swap(i, j);
        let e = pairs[i] as usize;
        s.add_tuple_named("E", &[(e / n) as u32, (e % n) as u32]);
    }
    s
}

fn max_boundary(dec: &PlusDecomposition) -> usize {
    dec.star_af
        .iter()
        .zip(&dec.kept)
        .filter(|(_, &kept)| kept)
        .flat_map(|(term, _)| existential_components(&term.formula.core()))
        .map(|component| component.boundary.len())
        .max()
        .unwrap_or(0)
}

// ---------------------------------------------------------------------
// fpt-static

/// The default `fpt` engine on three queries with ∃-components, one
/// sequential `PreparedQuery::count` per op on a random digraph.
struct FptStatic {
    queries: Vec<PreparedQuery>,
    structures: Vec<Structure>,
    /// `RelalgEngine` counts per (query, structure).
    reference: HashMap<(usize, usize), Natural>,
    sizes: usize,
    next: usize,
    provenance: String,
}

impl FptStatic {
    fn new(rng: &mut StdRng, s: &Sizes) -> Self {
        let sig = digraph_signature();
        let shared_target =
            parse_query("(x1,x2) := exists u . E(x1,u) & E(x2,u)").expect("static query parses");
        let queries = [
            quantified_path_query(2),
            quantified_path_query(3),
            shared_target,
        ]
        .iter()
        .map(|q| PreparedQuery::prepare(q, &sig).expect("static query prepares"))
        .collect();
        let structures: Vec<Structure> = (0..s.fpt_pool)
            .map(|i| fixed_density_digraph(rng, s.fpt_sizes[i % s.fpt_sizes.len()], s.fpt_p))
            .collect();
        let tuples: usize = structures.iter().map(Structure::tuple_count).sum();
        FptStatic {
            queries,
            structures,
            reference: HashMap::new(),
            sizes: s.fpt_sizes.len(),
            next: 0,
            provenance: format!(
                "queries=3 n={:?} p={} structures={} mean_tuples={:.1}",
                s.fpt_sizes,
                s.fpt_p,
                s.fpt_pool,
                tuples as f64 / s.fpt_pool as f64
            ),
        }
    }
}

impl Workload for FptStatic {
    fn provenance(&self) -> String {
        self.provenance.clone()
    }

    fn step(&mut self, tally: &mut Tally, tracer: Option<&mut Tracer>) {
        let i = self.next;
        self.next += 1;
        let (qi, si) = (
            i % self.queries.len(),
            (i / self.queries.len()) % self.structures.len(),
        );
        let (q, b) = (&self.queries[qi], &self.structures[si]);
        let got = match tracer {
            None => {
                let (out, secs) = timed(|| q.count(b));
                tally.record_op(secs, 1);
                out
            }
            Some(tr) => {
                let out = traced(tr, |tr| replay(q, b, tr));
                tr.counts += 1;
                out.and_then(|(count, terms_counted)| {
                    fpt_side_calls(q, b, tr, terms_counted);
                    (count == q.count(b)).then_some(count)
                })
            }
        };
        let expected = self
            .reference
            .entry((qi, si))
            .or_insert_with(|| q.count_with(b, &RelalgEngine));
        tally.finish_op(got.as_ref() == Some(expected), || {
            format!("fpt-static op {i}: got {got:?}, relalg says {expected}")
        });
    }

    fn focus(&self) -> &'static [&'static str] {
        &["fpt.term"]
    }

    fn window(&self) -> usize {
        // Op i counts query i % 3 on structure i / 3, whose size cycles
        // through the sizes.
        self.queries.len() * self.sizes
    }
}

// ---------------------------------------------------------------------
// ucq-churn

struct UcqSlot {
    query: Query,
    /// A renamed re-issue of an earlier query of the same round.
    repeat: bool,
    structure: usize,
}

/// Many distinct UCQs on small structures: render, parse, prepare
/// through the process-wide cache, read the regime, count.
struct UcqChurn {
    sig: Signature,
    slots: Vec<UcqSlot>,
    structures: Vec<Structure>,
    /// Brute-force counts per slot.
    reference: Vec<Option<Natural>>,
    round: usize,
    next: usize,
    repeats_issued: u64,
    hits_seen: u64,
    hits_at_start: usize,
    provenance: String,
}

impl UcqChurn {
    fn new(rng: &mut StdRng, s: &Sizes) -> Self {
        let sig = Signature::from_symbols([("E", 2), ("F", 2)]);
        // Equal cache keys imply equal counts on every structure, so two
        // fresh queries whose counts differ on some probe structure can
        // never share a key: a cache hit on a fresh query is a bug.
        let probes: Vec<Structure> = (0..3)
            .map(|_| random_structure(rng, &sig, 3, 0.4, 9))
            .collect();
        let mut slots: Vec<UcqSlot> = Vec::with_capacity(s.ucq_round * s.ucq_rounds);
        for _ in 0..s.ucq_rounds {
            let mut fresh: Vec<usize> = Vec::new();
            let mut fingerprints: HashSet<Vec<Natural>> = HashSet::new();
            for j in 0..s.ucq_round {
                let structure = rng.gen_range(0..s.ucq_structures);
                if j % s.ucq_repeat_every == s.ucq_repeat_every - 1 && !fresh.is_empty() {
                    let earlier = fresh[rng.gen_range(0..fresh.len())];
                    let query = renamed(&slots[earlier].query);
                    slots.push(UcqSlot {
                        query,
                        repeat: true,
                        structure,
                    });
                    continue;
                }
                let query = loop {
                    let disjuncts = rng.gen_range(s.ucq_disjuncts.0..=s.ucq_disjuncts.1);
                    let q = random_ucq_over(
                        rng,
                        &sig,
                        disjuncts,
                        s.ucq_vars,
                        s.ucq_atoms,
                        s.ucq_quantify,
                    );
                    if q.is_sentence() {
                        continue;
                    }
                    let fingerprint = probes.iter().map(|b| count_ep_brute(&q, b)).collect();
                    if fingerprints.insert(fingerprint) {
                        break q;
                    }
                };
                fresh.push(slots.len());
                slots.push(UcqSlot {
                    query,
                    repeat: false,
                    structure,
                });
            }
        }
        let structures: Vec<Structure> = (0..s.ucq_structures)
            .map(|i| {
                let n = s.ucq_n.0 + i % (s.ucq_n.1 - s.ucq_n.0 + 1);
                random_structure(rng, &sig, n, s.ucq_p, n * n)
            })
            .collect();
        let repeats = slots.iter().filter(|slot| slot.repeat).count();
        let provenance = format!(
            "slots={} rounds={} round_ops={} repeats={} disjuncts={:?} vars={} atoms={} \
             quantify={} structures={} n={:?} p={} width_bound={WIDTH_BOUND}",
            slots.len(),
            s.ucq_rounds,
            s.ucq_round,
            repeats,
            s.ucq_disjuncts,
            s.ucq_vars,
            s.ucq_atoms,
            s.ucq_quantify,
            s.ucq_structures,
            s.ucq_n,
            s.ucq_p
        );
        let reference = (0..slots.len()).map(|_| None).collect();
        UcqChurn {
            sig,
            slots,
            structures,
            reference,
            round: s.ucq_round,
            next: 0,
            repeats_issued: 0,
            hits_seen: 0,
            hits_at_start: classifier_cache_stats().hits,
            provenance,
        }
    }
}

/// `q` with its liberal variables renamed in order and its quantified
/// variables permuted: another spelling of the same query, so preparing
/// it must hit the classifier cache through the canonical key.
fn renamed(q: &Query) -> Query {
    let mut map: HashMap<String, String> = HashMap::new();
    for (i, v) in q.liberal().iter().enumerate() {
        // Same order as the originals: liberal positions are sorted by name.
        map.insert(v.name().to_string(), format!("y{i}"));
    }
    let quantified = q.formula().quantified_vars();
    for (i, v) in quantified.iter().rev().enumerate() {
        map.insert(v.name().to_string(), format!("u{i}"));
    }
    let text = q.to_string();
    let mut out = String::with_capacity(text.len());
    let mut ident = String::new();
    for c in text.chars().chain(std::iter::once(' ')) {
        if c.is_ascii_alphanumeric() || c == '_' {
            ident.push(c);
            continue;
        }
        if !ident.is_empty() {
            out.push_str(map.get(&ident).unwrap_or(&ident));
            ident.clear();
        }
        out.push(c);
    }
    parse_query(out.trim_end()).expect("a renamed query parses")
}

impl Workload for UcqChurn {
    fn provenance(&self) -> String {
        self.provenance.clone()
    }

    fn step(&mut self, tally: &mut Tally, tracer: Option<&mut Tracer>) {
        let i = self.next;
        self.next += 1;
        if i % self.round == 0 {
            classifier_cache_clear();
        }
        let slot_index = i % self.slots.len();
        let slot = &self.slots[slot_index];
        let b = &self.structures[slot.structure];
        let sig = &self.sig;
        let outcome: Option<(bool, Natural)> = match tracer {
            None => {
                let (out, secs) = timed(|| {
                    let text = slot.query.to_string();
                    let parsed = parse_query(&text).ok()?;
                    let prepared = PreparedQuery::prepare(&parsed, sig).ok()?;
                    black_box(prepared.regime(WIDTH_BOUND));
                    Some((prepared.was_cache_hit(), prepared.count(b)))
                });
                tally.record_op(secs, 1);
                out.flatten()
            }
            Some(tr) => {
                let out = traced(tr, |tr| {
                    let text = slot.query.to_string();
                    let parsed = tr.time("logic.parse", || parse_query(&text)).ok()?;
                    let prepared = tr
                        .time("prepared.prepare", || PreparedQuery::prepare(&parsed, sig))
                        .ok()?;
                    tr.time("classify.analysis", || {
                        black_box(prepared.regime(WIDTH_BOUND));
                    });
                    let (count, terms_counted) = replay(&prepared, b, tr);
                    Some((parsed, prepared, count, terms_counted))
                });
                tr.counts += 1;
                out.flatten()
                    .and_then(|(parsed, prepared, count, terms_counted)| {
                        ucq_side_calls(&parsed, sig, tr);
                        fpt_side_calls(&prepared, b, tr, terms_counted);
                        let hit = prepared.was_cache_hit();
                        tr.add("prepared.prepares", 1.0);
                        tr.add("prepared.hits", if hit { 1.0 } else { 0.0 });
                        (count == prepared.count(b)).then_some((hit, count))
                    })
            }
        };
        if slot.repeat {
            self.repeats_issued += 1;
        }
        if matches!(outcome, Some((true, _))) {
            self.hits_seen += 1;
        }
        let expected =
            self.reference[slot_index].get_or_insert_with(|| count_ep_brute(&slot.query, b));
        let got = outcome.map(|(_, count)| count);
        tally.finish_op(got.as_ref() == Some(expected), || {
            format!(
                "ucq-churn op {i} ({}): got {got:?}, brute force says {expected}",
                slot.query
            )
        });
    }

    fn finish(&mut self, tally: &mut Tally) {
        let counted = classifier_cache_stats().hits - self.hits_at_start;
        if self.hits_seen != self.repeats_issued || counted as u64 != self.repeats_issued {
            tally.fail_check(format!(
                "ucq-churn: {} renamed repeats issued, but {} prepares reported a cache hit \
                 and the cache counted {counted} hits",
                self.repeats_issued, self.hits_seen
            ));
        }
    }

    fn focus(&self) -> &'static [&'static str] {
        &["logic.parse", "prepared.prepare", "classify.analysis"]
    }

    fn window(&self) -> usize {
        self.round
    }
}

/// The per-query layers timed in side calls, outside the op span: DNF
/// plus normalization, then the `φ⁺` decomposition.
fn ucq_side_calls(parsed: &Query, sig: &Signature, tr: &mut Tracer) {
    let Ok(disjuncts) = tr.time("logic.dnf", || {
        dnf::disjuncts(parsed, sig).map(dnf::normalize)
    }) else {
        return;
    };
    tr.add("logic.disjuncts", disjuncts.len() as f64);
    let dec = tr.time("plus.decompose", || {
        plus_decomposition_of_normalized(disjuncts)
    });
    tr.add("plus.terms_raw", dec.star_af.len() as f64);
    tr.add(
        "plus.terms_kept",
        dec.kept.iter().filter(|&&k| k).count() as f64,
    );
}

// ---------------------------------------------------------------------
// live-feed

type Insert = (RelId, Vec<u32>);

/// One stream: a bulk `E` load, then hot `F` inserts cut into segments
/// that each end in a checkpoint.
struct Epoch {
    bulk: Vec<Insert>,
    segments: Vec<Vec<Insert>>,
}

/// A skewed insert stream through `LiveCount` with `RelalgEngine`; an op
/// is one checkpoint.
struct LiveFeed {
    query: Query,
    sig: Signature,
    n: usize,
    epochs: Vec<Epoch>,
    epoch: usize,
    segment: usize,
    live: LiveCount,
    /// The counts this epoch's checkpoints returned so far (`None` if
    /// the op panicked), checked when the epoch ends, so the reference
    /// recount never runs between two checkpoints of a stream.
    pending: Vec<Option<Natural>>,
    /// Prepared once, uncached; recounts every checkpoint's snapshot.
    reference: PreparedQuery,
    provenance: String,
}

impl LiveFeed {
    fn new(rng: &mut StdRng, s: &Sizes) -> Self {
        let sig = Signature::from_symbols([("E", 2), ("F", 2)]);
        let query = parse_query("(x,y,z) := (E(x,y) & E(y,z)) | (F(x,y) & F(y,z))")
            .expect("static query parses");
        let inserts = |ops: Vec<StreamOp>| -> Vec<Insert> {
            ops.into_iter()
                .filter_map(|op| match op {
                    StreamOp::Insert { rel, tuple } => Some((rel, tuple)),
                    StreamOp::Checkpoint => None,
                })
                .collect()
        };
        let epochs: Vec<Epoch> = (0..s.live_epochs)
            .map(|_| {
                let bulk =
                    random_insert_log(rng, &sig, s.live_n, s.live_bulk, s.live_bulk, &[1, 0]);
                let stream =
                    random_insert_log(rng, &sig, s.live_n, s.live_stream, s.live_every, &[0, 1]);
                let segments = stream
                    .ops
                    .split(|op| matches!(op, StreamOp::Checkpoint))
                    .filter(|segment| !segment.is_empty())
                    .map(|segment| inserts(segment.to_vec()))
                    .collect();
                Epoch {
                    bulk: inserts(bulk.ops),
                    segments,
                }
            })
            .collect();
        let reference = PreparedQuery::prepare_uncached(&query, &sig)
            .expect("static query prepares")
            .with_engine(Box::new(RelalgEngine));
        let live = open_epoch(&query, &sig, s.live_n, &epochs[0]);
        LiveFeed {
            provenance: format!(
                "n={} bulk_inserts={} stream_inserts={} checkpoint_every={} \
                 checkpoints_per_epoch={} epochs={}",
                s.live_n,
                s.live_bulk,
                s.live_stream,
                s.live_every,
                epochs[0].segments.len(),
                s.live_epochs
            ),
            query,
            sig,
            n: s.live_n,
            epochs,
            epoch: 0,
            segment: 0,
            live,
            pending: Vec::new(),
            reference,
        }
    }

    /// Replays the current epoch's inserts into a plain structure and
    /// checks each pending checkpoint count against a recount.
    fn check_epoch(&mut self, tally: &mut Tally) {
        let epoch = &self.epochs[self.epoch];
        let mut replay = LiveStructure::new(self.sig.clone(), self.n);
        for (rel, tuple) in &epoch.bulk {
            replay.insert_tuple(*rel, tuple);
        }
        for (k, (segment, got)) in epoch
            .segments
            .iter()
            .zip(self.pending.drain(..))
            .enumerate()
        {
            for (rel, tuple) in segment {
                replay.insert_tuple(*rel, tuple);
            }
            let expected = self.reference.count(replay.snapshot());
            tally.finish_op(got.as_ref() == Some(&expected), || {
                format!(
                    "live-feed epoch {} checkpoint {k}: got {got:?}, recount says {expected}",
                    self.epoch
                )
            });
        }
    }
}

/// A fresh maintainer with the epoch's bulk load applied and reconciled.
fn open_epoch(query: &Query, sig: &Signature, n: usize, epoch: &Epoch) -> LiveCount {
    let prepared = PreparedQuery::prepare(query, sig)
        .expect("static query prepares")
        .with_engine(Box::new(RelalgEngine));
    let mut live =
        LiveCount::new(prepared, LiveStructure::new(sig.clone(), n)).expect("signatures match");
    for (rel, tuple) in &epoch.bulk {
        live.insert_tuple(*rel, tuple);
    }
    live.current();
    live
}

impl Workload for LiveFeed {
    fn provenance(&self) -> String {
        self.provenance.clone()
    }

    fn step(&mut self, tally: &mut Tally, tracer: Option<&mut Tracer>) {
        if self.segment == self.epochs[self.epoch].segments.len() {
            self.check_epoch(tally);
            self.epoch = (self.epoch + 1) % self.epochs.len();
            self.segment = 0;
            self.live = open_epoch(&self.query, &self.sig, self.n, &self.epochs[self.epoch]);
        }
        let segment = &self.epochs[self.epoch].segments[self.segment];
        self.segment += 1;
        let live = &mut self.live;
        let insert_all = |live: &mut LiveCount| {
            segment
                .iter()
                .filter(|(rel, tuple)| live.insert_tuple(*rel, tuple))
                .count()
        };
        let got = match tracer {
            None => {
                let start = Instant::now();
                insert_all(live);
                tally.insert_s += start.elapsed().as_secs_f64();
                tally.inserts += segment.len() as u64;
                let (out, secs) = timed(|| live.current());
                tally.record_op(secs, 1);
                out
            }
            Some(tr) => {
                tr.next_request();
                let added = tr.time("live.insert", || insert_all(live));
                tr.add("live.inserts", segment.len() as f64);
                tr.add("live.inserts_new", added as f64);
                let before = live.stats();
                let out = traced(tr, |tr| tr.time("live.reconcile", || live.current()));
                let after = live.stats();
                tr.counts += 1;
                tr.add(
                    "live.term_recounts",
                    (after.term_recounts - before.term_recounts) as f64,
                );
                tr.add(
                    "live.term_reuses",
                    (after.term_reuses - before.term_reuses) as f64,
                );
                tr.add(
                    "live.sentence_rechecks",
                    (after.sentence_rechecks - before.sentence_rechecks) as f64,
                );
                out
            }
        };
        self.pending.push(got);
    }

    fn finish(&mut self, tally: &mut Tally) {
        self.check_epoch(tally);
    }

    fn focus(&self) -> &'static [&'static str] {
        &["live.reconcile"]
    }

    fn window(&self) -> usize {
        self.epochs[0].segments.len()
    }
}

// ---------------------------------------------------------------------
// batch-fanout

/// One prepared query over batches of mixed-size digraphs; an op is one
/// `count_batch` on every available thread.
struct BatchFanout {
    prepared: PreparedQuery,
    batches: Vec<Vec<Structure>>,
    /// `RelalgEngine` counts per batch.
    reference: Vec<Option<Vec<Natural>>>,
    threads: usize,
    next: usize,
    provenance: String,
}

impl BatchFanout {
    fn new(rng: &mut StdRng, s: &Sizes) -> Self {
        let prepared = PreparedQuery::prepare(&quantified_path_query(2), &digraph_signature())
            .expect("static query prepares");
        let (lo, hi) = s.batch_n;
        let span = (s.batch_len - 1).max(1);
        let batches: Vec<Vec<Structure>> = (0..s.batch_pool)
            .map(|_| {
                let mut sizes: Vec<usize> = (0..s.batch_len)
                    .map(|j| lo + j * (hi - lo) / span)
                    .collect();
                for j in (1..sizes.len()).rev() {
                    sizes.swap(j, rng.gen_range(0..=j));
                }
                sizes
                    .into_iter()
                    .map(|n| fixed_density_digraph(rng, n, s.batch_p))
                    .collect()
            })
            .collect();
        let threads = epq_pool::available_threads();
        BatchFanout {
            prepared,
            reference: vec![None; batches.len()],
            provenance: format!(
                "query=Q2 batch={} n={lo}..={hi} p={} batches={} threads={threads}",
                s.batch_len, s.batch_p, s.batch_pool
            ),
            batches,
            threads,
            next: 0,
        }
    }
}

impl Workload for BatchFanout {
    fn provenance(&self) -> String {
        self.provenance.clone()
    }

    fn step(&mut self, tally: &mut Tally, tracer: Option<&mut Tracer>) {
        let bi = self.next % self.batches.len();
        self.next += 1;
        let (q, batch, threads) = (&self.prepared, &self.batches[bi], self.threads);
        let got = match tracer {
            None => {
                let (out, secs) = timed(|| q.count_batch(batch, threads));
                tally.record_op(secs, batch.len() as u64);
                out
            }
            Some(tr) => {
                let out = traced(tr, |tr| {
                    tr.time("pool.batch", || q.count_batch(batch, threads))
                });
                tr.counts += batch.len() as u64;
                // The sequential per-structure time behind pool.efficiency,
                // replayed outside the op span.
                out.filter(|counts| {
                    batch.iter().zip(counts).all(|(b, count)| {
                        let (replayed, terms_counted) = replay(q, b, tr);
                        fpt_side_calls(q, b, tr, terms_counted);
                        &replayed == count
                    })
                })
            }
        };
        let expected = self.reference[bi].get_or_insert_with(|| {
            batch
                .iter()
                .map(|b| q.count_with(b, &RelalgEngine))
                .collect()
        });
        tally.finish_op(got.as_ref() == Some(expected), || {
            format!("batch-fanout batch {bi}: got {got:?}, relalg says {expected:?}")
        });
    }

    fn focus(&self) -> &'static [&'static str] {
        &["pool.batch"]
    }

    fn window(&self) -> usize {
        4
    }
}
