//! Regenerates every table and series recorded in `EXPERIMENTS.md`
//! (ids `T1`, `E1`–`E6`, `F1`–`F4`, `A1`–`A3`), plus the CI
//! bench-smoke gates: `P1` (every engine at 1, 2 and 4 worker threads
//! against itself at 1), `P2` (prepared-query amortization and batched
//! counting), and `P4` (incremental streaming maintenance vs
//! prepare-once/recount-each-checkpoint). The gates and `F1` exit
//! nonzero on any count disagreement; `P4` also exits nonzero when
//! incremental maintenance is slower than recounting. Nothing is
//! written to disk: every row goes to stdout.
//!
//! ```sh
//! cargo run -p epq-bench --release --bin experiments                # all
//! cargo run -p epq-bench --release --bin experiments -- T1 F2      # some
//! cargo run -p epq-bench --release --bin experiments -- P1 P2 P4   # CI gates
//! ```

use epq_bench::{
    p4_stream_log, pp_of, row, rule, stream_incremental, stream_recount, time_engine, time_us,
};
use epq_core::classify::FamilyReport;
use epq_core::count::{count_ep, count_ep_with};
use epq_core::equivalence::{counting_equivalent, empirically_counting_equivalent};
use epq_core::iex::{evaluate_signed_sum, inclusion_exclusion_terms, star};
use epq_core::oracle;
use epq_core::plus::plus_decomposition;
use epq_counting::brute;
use epq_counting::engines::{all_engines, BruteForceEngine, FptEngine, PpCountingEngine};
use epq_graph::cliques;
use epq_logic::parser::parse_query;
use epq_logic::query::infer_signature;
use epq_logic::{dnf, PpFormula, Query};
use epq_structures::{Signature, Structure};
use epq_workloads::{data, queries};
use rand::rngs::StdRng;
use rand::SeedableRng;

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let want = |id: &str| args.is_empty() || args.iter().any(|a| a.eq_ignore_ascii_case(id));

    println!("epq experiments — Chen & Mengel (PODS 2016) reproduction\n");
    if want("T1") {
        t1_trichotomy_table();
    }
    if want("E1") {
        e1_example_4_1();
    }
    if want("E2") {
        e2_cancellation();
    }
    if want("E3") {
        e3_oracle_recovery();
    }
    if want("E4") {
        e4_theta_plus();
    }
    if want("E5") {
        e5_counting_equivalence();
    }
    if want("E6") {
        e6_general_recovery();
    }
    if want("F1") {
        f1_engine_scaling();
    }
    if want("F2") {
        f2_sharp_clique_hardness();
    }
    if want("F3") {
        f3_case_two_scaling();
    }
    if want("F4") {
        f4_random_ucq_cancellation();
    }
    if want("P1") {
        p1_engine_threads();
    }
    if want("P2") {
        p2_prepared_queries();
    }
    if want("P4") {
        p4_streaming();
    }
    if want("A1") {
        a1_distinguisher_ablation();
    }
    if want("A2") {
        a2_merging_ablation();
    }
    if want("A3") {
        a3_case_two_reduction();
    }
}

/// One measured configuration of the P1 thread-scaling comparison.
struct P1Row {
    family: &'static str,
    engine: &'static str,
    n: usize,
    threads: usize,
    median_us: f64,
    count: String,
    agrees: bool,
}

/// P1 — every engine at 1, 2 and 4 worker threads against itself at
/// 1 thread: per-thread-count medians, the speedup at the widest
/// setting, and a hard agreement gate (every count must equal the
/// first engine's 1-thread count for the same input).
///
/// **Exits nonzero if any count disagrees** — this is the cheap
/// perf+correctness gate that runs on every PR.
fn p1_engine_threads() {
    println!("== P1: engines at 1/2/4 threads — speedup and agreement vs 1 thread ==");
    let host = epq_pool::available_threads();
    println!("  host threads: {host}");
    let thread_counts = [1usize, 2, 4];
    let mut rows: Vec<P1Row> = Vec::new();

    let widths = [12, 12, 6, 8, 12, 12, 10];
    println!(
        "{}",
        row(
            &[
                "family".into(),
                "engine".into(),
                "n".into(),
                "threads".into(),
                "median us".into(),
                "count".into(),
                "agree".into()
            ],
            &widths
        )
    );
    println!("{}", rule(&widths));

    // qpath3 is the largest `engines` bench family (fpt's boundary
    // sweep dominates); path2 is quantifier-free, where brute force's
    // sharded assignment sweep carries the work.
    let families = [
        (
            "qpath3",
            queries::quantified_path_query(3),
            [48, 96],
            0.08,
            0,
        ),
        ("path2", queries::path_query(2), [16, 24], 0.1, 7),
    ];
    for (family, query, sizes, density, seed_offset) in families {
        let pp = pp_of(&query);
        for n in sizes {
            let b = data::random_digraph(
                &mut StdRng::seed_from_u64(seed_offset + n as u64),
                n,
                density,
            );
            let mut reference: Option<String> = None;
            for engine in all_engines() {
                let mut one_thread_us = 0.0;
                for &threads in &thread_counts {
                    let (count, us) = time_engine(engine.as_ref(), &pp, &b, threads, 3);
                    if threads == 1 {
                        one_thread_us = us;
                    }
                    let expected = reference.get_or_insert_with(|| count.clone());
                    let r = P1Row {
                        family,
                        engine: engine.name(),
                        n,
                        threads,
                        median_us: us,
                        agrees: count == *expected,
                        count,
                    };
                    println!(
                        "{}",
                        row(
                            &[
                                r.family.into(),
                                r.engine.into(),
                                r.n.to_string(),
                                r.threads.to_string(),
                                format!("{:.0}", r.median_us),
                                r.count.clone(),
                                r.agrees.to_string()
                            ],
                            &widths
                        )
                    );
                    rows.push(r);
                }
                println!(
                    "  -> {} speedup at {} threads: {:.2}x{}",
                    engine.name(),
                    thread_counts.last().unwrap(),
                    one_thread_us / rows.last().unwrap().median_us,
                    if host < 2 {
                        " (single-core host: expect ~1x)"
                    } else {
                        ""
                    }
                );
            }
        }
    }

    let disagreements = rows.iter().filter(|r| !r.agrees).count();
    if disagreements > 0 {
        eprintln!("P1 FAILED: {disagreements} count(s) disagree across engines or threads");
        std::process::exit(1);
    }
    println!("  all engines agree at every thread count ✔\n");
}

/// One measured configuration of the P2 prepared-query comparison.
struct P2Row {
    series: &'static str,
    variant: String,
    batch: usize,
    threads: usize,
    median_us: f64,
    agrees: bool,
}

/// P2 — the prepared-query architecture: prepare-once vs
/// prepare-per-call on a 32-structure batch, batch-vs-loop fan-out at
/// 1/2/4 threads, cold prepare+count on random UCQs checked against
/// brute force, and the classifier cache. **Exits nonzero if any
/// amortized or batched count disagrees** with the
/// prepare-per-call sequential reference — CI's second bench-smoke
/// gate.
fn p2_prepared_queries() {
    use epq_core::prepared::{classifier_cache_clear, classifier_cache_stats, PreparedQuery};

    println!("== P2: prepared queries — amortized classification and batched counting ==");
    let host = epq_pool::available_threads();
    println!("  host threads: {host}");
    let query =
        parse_query("(w,x,y,z) := (E(x,y) & E(y,z)) | (E(z,w) & E(w,x)) | (E(w,x) & E(x,y))")
            .unwrap();
    let sig = infer_signature([query.formula()]).unwrap();
    let batch = data::random_digraph_batch(&mut StdRng::seed_from_u64(2024), 32, 10, 0.18);
    let mut rows: Vec<P2Row> = Vec::new();

    let widths = [16, 18, 8, 8, 12, 8];
    println!(
        "{}",
        row(
            &[
                "series".into(),
                "variant".into(),
                "batch".into(),
                "threads".into(),
                "median us".into(),
                "agree".into()
            ],
            &widths
        )
    );
    println!("{}", rule(&widths));
    let print_row = |r: &P2Row| {
        println!(
            "{}",
            row(
                &[
                    r.series.into(),
                    r.variant.clone(),
                    r.batch.to_string(),
                    r.threads.to_string(),
                    format!("{:.0}", r.median_us),
                    r.agrees.to_string()
                ],
                &widths
            )
        );
    };

    // The reference: the whole per-query phase redone per structure.
    let reference: Vec<String> = batch
        .iter()
        .map(|b| {
            PreparedQuery::prepare_uncached(&query, &sig)
                .unwrap()
                .count(b)
                .to_string()
        })
        .collect();
    let per_call_us = time_us(3, || {
        for b in &batch {
            let _ = PreparedQuery::prepare_uncached(&query, &sig)
                .unwrap()
                .count(b);
        }
    });
    rows.push(P2Row {
        series: "prepare",
        variant: "per-call".into(),
        batch: batch.len(),
        threads: 1,
        median_us: per_call_us,
        agrees: true,
    });
    print_row(rows.last().unwrap());

    // Prepare once, count in a sequential loop.
    let prepared = PreparedQuery::prepare_uncached(&query, &sig).unwrap();
    let once: Vec<String> = batch
        .iter()
        .map(|b| prepared.count(b).to_string())
        .collect();
    let once_us = time_us(3, || {
        let p = PreparedQuery::prepare_uncached(&query, &sig).unwrap();
        for b in &batch {
            let _ = p.count(b);
        }
    });
    rows.push(P2Row {
        series: "prepare",
        variant: "once+loop".into(),
        batch: batch.len(),
        threads: 1,
        median_us: once_us,
        agrees: once == reference,
    });
    print_row(rows.last().unwrap());
    println!(
        "  -> prepare-once speedup over prepare-per-call: {:.2}x (query-phase amortization; \
thread-count independent)",
        per_call_us / once_us
    );

    // Batched fan-out at 1/2/4 threads against the sequential loop.
    let loop_us = time_us(3, || {
        for b in &batch {
            let _ = prepared.count(b);
        }
    });
    rows.push(P2Row {
        series: "batch",
        variant: "loop".into(),
        batch: batch.len(),
        threads: 1,
        median_us: loop_us,
        agrees: true,
    });
    print_row(rows.last().unwrap());
    let mut widest_us = loop_us;
    for threads in [1usize, 2, 4] {
        let counts: Vec<String> = prepared
            .count_batch(&batch, threads)
            .iter()
            .map(|n| n.to_string())
            .collect();
        let us = time_us(3, || {
            let _ = prepared.count_batch(&batch, threads);
        });
        widest_us = us;
        rows.push(P2Row {
            series: "batch",
            variant: format!("pool/{threads}t"),
            batch: batch.len(),
            threads,
            median_us: us,
            agrees: counts == reference,
        });
        print_row(rows.last().unwrap());
    }
    println!(
        "  -> batch speedup at 4 threads: {:.2}x{}",
        loop_us / widest_us,
        if host < 2 {
            " (single-core host: expect ~1x)"
        } else {
            ""
        }
    );

    // Cold prepare end to end on random UCQs: the whole per-query phase
    // (DNF, φ* merge, φ⁺ filter) runs for every query, and every count
    // is checked against brute force, so a wrong merge fails the gate.
    let (cold_ucq_us, cold_ucq_mismatches) = p2_cold_ucq();
    rows.push(P2Row {
        series: "prepare",
        variant: "cold-ucq".into(),
        batch: P2_COLD_UCQS,
        threads: 1,
        median_us: cold_ucq_us,
        agrees: cold_ucq_mismatches == 0,
    });
    print_row(rows.last().unwrap());
    println!(
        "  -> cold prepare+count per random UCQ (median over {P2_COLD_UCQS}); \
{cold_ucq_mismatches} disagree with brute force"
    );

    // Classifier cache: second classification of the same canonical
    // query must be a hit.
    classifier_cache_clear();
    let before = classifier_cache_stats();
    let cold_us = time_us(1, || {
        let _ = PreparedQuery::prepare(&query, &sig)
            .unwrap()
            .analysis()
            .max_core_treewidth;
    });
    let warm_us = time_us(3, || {
        let _ = PreparedQuery::prepare(&query, &sig)
            .unwrap()
            .analysis()
            .max_core_treewidth;
    });
    let after = classifier_cache_stats();
    let cache_ok = after.hits > before.hits;
    rows.push(P2Row {
        series: "classify",
        variant: "cold".into(),
        batch: 1,
        threads: 1,
        median_us: cold_us,
        agrees: true,
    });
    print_row(rows.last().unwrap());
    rows.push(P2Row {
        series: "classify",
        variant: "cached".into(),
        batch: 1,
        threads: 1,
        median_us: warm_us,
        agrees: cache_ok,
    });
    print_row(rows.last().unwrap());
    println!(
        "  -> cached classification speedup: {:.2}x (cache hits {} -> {})",
        cold_us / warm_us,
        before.hits,
        after.hits
    );

    let disagreements = rows.iter().filter(|r| !r.agrees).count();
    if disagreements > 0 {
        eprintln!(
            "P2 FAILED: {disagreements} prepared/batched count(s) disagree with the reference"
        );
        std::process::exit(1);
    }
    println!("  all prepared and batched counts agree with the per-call reference \u{2714}\n");
}

/// Number of random UCQs in P2's `prepare/cold-ucq` series.
const P2_COLD_UCQS: usize = 64;

/// P2's `prepare/cold-ucq` series: seeded random UCQs shaped like the
/// epqbench ucq-churn workload (3–5 disjuncts of 2 atoms over `{E, F}`,
/// 4 variables, quantify 0.35), each on its own random 10–12-element
/// structure. Each query is prepared without the cache and counted.
/// Returns the median µs per query and how many counts disagree with
/// [`brute::count_ep_brute`].
fn p2_cold_ucq() -> (f64, usize) {
    use epq_core::prepared::PreparedQuery;
    use rand::Rng;
    let sig = Signature::from_symbols([("E", 2), ("F", 2)]);
    let mut rng = StdRng::seed_from_u64(2026);
    let mut samples = Vec::with_capacity(P2_COLD_UCQS);
    let mut mismatches = 0;
    while samples.len() < P2_COLD_UCQS {
        let disjuncts = rng.gen_range(3..=5usize);
        let query = queries::random_ucq_over(&mut rng, &sig, disjuncts, 4, 2, 0.35);
        if query.is_sentence() {
            continue;
        }
        let n = rng.gen_range(10..=12usize);
        let b = data::random_structure(&mut rng, &sig, n, 0.15, n * n);
        let mut count = None;
        samples.push(time_us(3, || {
            count = Some(
                PreparedQuery::prepare_uncached(&query, &sig)
                    .unwrap()
                    .count(&b),
            );
        }));
        if count != Some(brute::count_ep_brute(&query, &b)) {
            mismatches += 1;
        }
    }
    samples.sort_by(|a, b| a.partial_cmp(b).unwrap());
    (samples[samples.len() / 2], mismatches)
}

/// One measured configuration of the P4 streaming comparison.
struct P4Row {
    family: &'static str,
    variant: &'static str,
    inserts: usize,
    checkpoints: usize,
    median_us: f64,
    agrees: bool,
}

/// P4 — streaming maintenance: `LiveCount` (per-disjunct read sets +
/// cached relational-algebra scans) against prepare-once/
/// recount-each-checkpoint on the same insert log. A second, smaller
/// family runs the DP-table fallback (`fpt` engine) for agreement.
///
/// **Exits nonzero if any checkpoint count disagrees** between
/// incremental maintenance and the from-scratch recount, **or if
/// `incremental_speedup` is below [`P4_MIN_INCREMENTAL_SPEEDUP`]** —
/// both variants are measured in this very run, so incremental
/// maintenance slower than recounting means the caching layer lost its
/// reason to exist.
fn p4_streaming() {
    use epq_counting::engines::RelalgEngine;

    println!("== P4: streaming — incremental maintenance vs recount-per-checkpoint ==");
    let mut rows: Vec<P4Row> = Vec::new();
    let widths = [14, 14, 9, 12, 12, 8];
    println!(
        "{}",
        row(
            &[
                "family".into(),
                "variant".into(),
                "inserts".into(),
                "checkpoints".into(),
                "median us".into(),
                "agree".into()
            ],
            &widths
        )
    );
    println!("{}", rule(&widths));
    let print_row = |r: &P4Row| {
        println!(
            "{}",
            row(
                &[
                    r.family.into(),
                    r.variant.into(),
                    r.inserts.to_string(),
                    r.checkpoints.to_string(),
                    format!("{:.0}", r.median_us),
                    r.agrees.to_string()
                ],
                &widths
            )
        );
    };

    // The gate family: a large, quiet E next to a hot F stream. The
    // E-path term dominates a full recount; incremental maintenance
    // recounts only the F-reading terms at each checkpoint.
    let query = parse_query("(x,y,z) := (E(x,y) & E(y,z)) | (F(x,y) & F(y,z))").unwrap();
    let log = p4_stream_log(48, 1600, 300, 30, 41);
    let checkpoints = log.checkpoint_count();
    let inserts = log.insert_count();
    let relalg: fn() -> Box<dyn PpCountingEngine> = || Box::new(RelalgEngine);
    let reference = stream_recount(&query, &log, relalg);
    let incremental = stream_incremental(&query, &log, relalg, 1);
    let agrees = incremental == reference;
    let recount_us = time_us(3, || {
        let _ = stream_recount(&query, &log, relalg);
    });
    let incremental_us = time_us(3, || {
        let _ = stream_incremental(&query, &log, relalg, 1);
    });
    rows.push(P4Row {
        family: "skewed-feed",
        variant: "recount",
        inserts,
        checkpoints,
        median_us: recount_us,
        agrees: true,
    });
    print_row(rows.last().unwrap());
    rows.push(P4Row {
        family: "skewed-feed",
        variant: "incremental",
        inserts,
        checkpoints,
        median_us: incremental_us,
        agrees,
    });
    print_row(rows.last().unwrap());
    let incremental_speedup = recount_us / incremental_us;
    println!(
        "  -> incremental speedup over recount-per-checkpoint: {incremental_speedup:.2}x \
         (term reuse + scan caching; thread-count independent)"
    );

    // Pool-parallel maintenance: same counts, joins sharded across
    // the prepared query's 4 workers.
    let par_counts = stream_incremental(&query, &log, relalg, 4);
    let par_us = time_us(3, || {
        let _ = stream_incremental(&query, &log, relalg, 4);
    });
    rows.push(P4Row {
        family: "skewed-feed",
        variant: "incr-par/4t",
        inserts,
        checkpoints,
        median_us: par_us,
        agrees: par_counts == reference,
    });
    print_row(rows.last().unwrap());

    // The DP-table fallback family (smaller: every affected term is
    // fully recounted through the fpt engine — this checks agreement,
    // not speed).
    let fallback_query = parse_query("(x,y) := (E(x,y) & E(y,x)) | F(x,y)").unwrap();
    let small = p4_stream_log(12, 60, 60, 12, 43);
    let fpt: fn() -> Box<dyn PpCountingEngine> = || Box::new(FptEngine);
    let fb_reference = stream_recount(&fallback_query, &small, fpt);
    let fb_incremental = stream_incremental(&fallback_query, &small, fpt, 1);
    let fb_us = time_us(3, || {
        let _ = stream_incremental(&fallback_query, &small, fpt, 1);
    });
    rows.push(P4Row {
        family: "fallback-fpt",
        variant: "incremental",
        inserts: small.insert_count(),
        checkpoints: small.checkpoint_count(),
        median_us: fb_us,
        agrees: fb_incremental == fb_reference,
    });
    print_row(rows.last().unwrap());

    let disagreements = rows.iter().filter(|r| !r.agrees).count();
    if disagreements > 0 {
        eprintln!(
            "P4 FAILED: {disagreements} incremental checkpoint series disagree with recounts"
        );
        std::process::exit(1);
    }
    if incremental_speedup < P4_MIN_INCREMENTAL_SPEEDUP {
        eprintln!(
            "P4 FAILED: incremental maintenance is slower than recounting: \
             {incremental_speedup:.2}x < {P4_MIN_INCREMENTAL_SPEEDUP}x"
        );
        std::process::exit(1);
    }
    println!("  all incremental checkpoint counts agree with from-scratch recounts \u{2714}\n");
}

/// The P4 gate's floor on `incremental_speedup`.
const P4_MIN_INCREMENTAL_SPEEDUP: f64 = 1.0;

/// A1 — ablation: Lemma 5.12's distinguishing structure, randomized
/// search vs the paper's deterministic amplification.
fn a1_distinguisher_ablation() {
    println!("== A1 (ablation): distinguishing structures — search vs amplification ==");
    let sig = data::digraph_signature();
    let make = |text: &str| PpFormula::from_query(&parse_query(text).unwrap(), &sig).unwrap();
    let f1 = make("E(x,y)");
    let f2 = make("(x, y) := E(x,y) & E(y,y)");
    let f3 = make("(x, y) := E(x,y) & E(y,x)");
    let reps = [&f1, &f2, &f3];

    let t_search = time_us(3, || {
        let _ = oracle::find_distinguishing_structure(&reps);
    });
    let c_search = oracle::find_distinguishing_structure(&reps);
    let t_amplified = time_us(1, || {
        let _ = epq_core::distinguish::amplified_distinguishing_structure(&reps);
    });
    let c_amplified = epq_core::distinguish::amplified_distinguishing_structure(&reps);
    println!(
        "  randomized search : {:>8.0} us, |C| = {:>4} elements, valid: {}",
        t_search,
        c_search.universe_size(),
        oracle::is_distinguishing(&c_search, &reps)
    );
    println!(
        "  amplification     : {:>8.0} us, |C| = {:>4} elements, valid: {}",
        t_amplified,
        c_amplified.universe_size(),
        oracle::is_distinguishing(&c_amplified, &reps)
    );
    println!("  (the proof's construction is explicit but yields larger structures)\n");
}

/// A2 — ablation: φ* merging by counting equivalence (Theorem 5.4) vs
/// merging by logical equivalence only.
fn a2_merging_ablation() {
    println!("== A2 (ablation): phi* merging — counting equivalence vs logical equivalence ==");
    let sig = data::digraph_signature();
    let mut totals = (0usize, 0usize, 0usize);
    let samples = 30;
    for seed in 0..samples as u64 {
        let q = queries::random_ucq(&mut StdRng::seed_from_u64(seed), 3, 4, 2, 0.2);
        let ds = dnf::disjuncts(&q, &sig).unwrap();
        let raw = inclusion_exclusion_terms(&ds);
        // Merge by logical equivalence only.
        let mut logical: Vec<(PpFormula, epq_bigint::Integer)> = Vec::new();
        for t in &raw {
            match logical
                .iter_mut()
                .find(|(f, _)| f.logically_equivalent(&t.formula))
            {
                Some((_, c)) => *c += &t.coefficient,
                None => logical.push((t.formula.clone(), t.coefficient.clone())),
            }
        }
        logical.retain(|(_, c)| !c.is_zero());
        let counting = star(&ds);
        totals.0 += raw.len();
        totals.1 += logical.len();
        totals.2 += counting.len();
    }
    println!(
        "  over {samples} random 3-disjunct UCQs: raw terms {}, after logical-equivalence \
         merge {}, after counting-equivalence merge {}",
        totals.0, totals.1, totals.2
    );
    println!("  (counting equivalence merges strictly more — Theorem 5.4's payoff)\n");
}

/// A3 — the case-2 reduction made concrete: counting pendant-clique
/// answers with a clique-decision oracle.
fn a3_case_two_reduction() {
    println!("== A3: case-2 counting with a clique-DECISION oracle ==");
    let widths = [6, 8, 12, 12, 12];
    println!(
        "{}",
        row(
            &[
                "k".into(),
                "n".into(),
                "count".into(),
                "oracle calls".into(),
                "agree".into()
            ],
            &widths
        )
    );
    println!("{}", rule(&widths));
    for k in 2..=3usize {
        for n in [12usize, 24] {
            let g = epq_graph::generators::random_gnp(
                n,
                0.35,
                &mut StdRng::seed_from_u64(50 + n as u64),
            );
            let mut calls = 0usize;
            let mut decision_oracle = |h: &epq_graph::Graph, k: usize| {
                calls += 1;
                epq_graph::cliques::has_k_clique(h, k)
            };
            let via_oracle = epq_counting::clique::count_pendant_cliques_via_decision_oracle(
                &g,
                k,
                &mut decision_oracle,
            );
            let query = queries::pendant_clique_query(k);
            let pp = pp_of(&query);
            let b = epq_counting::clique::graph_to_structure(&g);
            let via_query = FptEngine.count(&pp, &b);
            println!(
                "{}",
                row(
                    &[
                        k.to_string(),
                        n.to_string(),
                        via_oracle.to_string(),
                        calls.to_string(),
                        (via_oracle == via_query).to_string()
                    ],
                    &widths
                )
            );
        }
    }
    println!("  (a counting problem answered with |V| decision queries — Thm 3.2 case 2)\n");
}

fn family<I>(name: &str, members: I) -> FamilyReport
where
    I: IntoIterator<Item = (usize, Query)>,
{
    FamilyReport::build(
        name,
        members.into_iter().map(|(k, q)| {
            let sig = infer_signature([q.formula()]).unwrap();
            (k, q, sig)
        }),
    )
    .expect("family classifies")
}

/// T1 — the trichotomy table (Theorem 3.2).
fn t1_trichotomy_table() {
    println!("== T1: trichotomy table (Theorem 3.2) ==");
    let widths = [24, 22, 22, 26];
    println!(
        "{}",
        row(
            &[
                "family".into(),
                "core tw by k".into(),
                "contract tw by k".into(),
                "regime".into()
            ],
            &widths
        )
    );
    println!("{}", rule(&widths));
    let families = vec![
        (
            "paths P_k",
            family("paths", (1..=6).map(|k| (k, queries::path_query(k)))),
        ),
        (
            "stars S_k",
            family("stars", (1..=6).map(|k| (k, queries::star_query(k)))),
        ),
        (
            "cycles C_k",
            family("cycles", (3..=6).map(|k| (k, queries::cycle_query(k)))),
        ),
        (
            "exists-paths Q_k",
            family(
                "qpaths",
                (2..=6).map(|k| (k, queries::quantified_path_query(k))),
            ),
        ),
        (
            "pendant cliques W_k",
            family(
                "pendant",
                (2..=5).map(|k| (k, queries::pendant_clique_query(k))),
            ),
        ),
        (
            "free cliques K_k",
            family("cliques", (2..=5).map(|k| (k, queries::clique_query(k)))),
        ),
        (
            "free grids G_kxk",
            family("grids", (1..=3).map(|k| (k, queries::grid_query(k, k)))),
        ),
    ];
    for (label, fam) in families {
        let cores: Vec<String> = fam.measures.iter().map(|m| m.1.to_string()).collect();
        let contracts: Vec<String> = fam.measures.iter().map(|m| m.2.to_string()).collect();
        println!(
            "{}",
            row(
                &[
                    label.into(),
                    cores.join(","),
                    contracts.join(","),
                    fam.inferred_regime().to_string()
                ],
                &widths
            )
        );
    }
    println!();
}

/// E1 — Example 4.1: the inclusion–exclusion identity.
fn e1_example_4_1() {
    println!("== E1: Example 4.1 (inclusion-exclusion identity) ==");
    let b = data::example_4_3_structure();
    let text = "(w,x,y,z) := E(x,y) & (E(w,x) | (E(y,z) & E(z,z)))";
    let query = parse_query(text).unwrap();
    let ds = dnf::disjuncts(&query, b.signature()).unwrap();
    let c1 = brute::count_pp_brute(&ds[0], &b);
    let c2 = brute::count_pp_brute(&ds[1], &b);
    let c12 = brute::count_pp_brute(&PpFormula::conjoin(&[&ds[0], &ds[1]]), &b);
    let whole = brute::count_ep_brute(&query, &b);
    println!("  phi = {text}");
    println!("  |phi(B)| = {whole}; |phi1| = {c1}, |phi2| = {c2}, |phi1^phi2| = {c12}");
    println!(
        "  identity |phi| = |phi1|+|phi2|-|phi1^phi2|: {} ✔\n",
        (c1 + c2).checked_sub(&c12).unwrap() == whole
    );
}

/// E2 — Examples 4.2/5.15: cancellation and its measured payoff.
fn e2_cancellation() {
    println!("== E2: Examples 4.2/5.15 (phi* cancellation) ==");
    let text = "(w,x,y,z) := (E(x,y) & E(y,z)) | (E(z,w) & E(w,x)) | (E(w,x) & E(x,y))";
    let query = parse_query(text).unwrap();
    let sig = data::digraph_signature();
    let ds = dnf::disjuncts(&query, &sig).unwrap();
    let raw = inclusion_exclusion_terms(&ds);
    let star_terms = star(&ds);
    let tw = |pp: &PpFormula| epq_graph::treewidth_exact(&pp.structure().gaifman_graph()).unwrap();
    println!(
        "  raw terms: {} (max tw {})",
        raw.len(),
        raw.iter().map(|t| tw(&t.formula)).max().unwrap()
    );
    println!(
        "  phi* terms: {} (max tw {}), coefficients {:?}",
        star_terms.len(),
        star_terms.iter().map(|t| tw(&t.formula)).max().unwrap(),
        star_terms
            .iter()
            .map(|t| t.coefficient.to_i64().unwrap())
            .collect::<Vec<_>>()
    );
    // Measured payoff: evaluate both signed sums on a random structure.
    let b = data::random_digraph(&mut StdRng::seed_from_u64(42), 48, 0.12);
    let raw_us = time_us(3, || {
        let _ = evaluate_signed_sum(&raw, &b, &FptEngine);
    });
    let star_us = time_us(3, || {
        let _ = evaluate_signed_sum(&star_terms, &b, &FptEngine);
    });
    let check_raw = evaluate_signed_sum(&raw, &b, &FptEngine);
    let check_star = evaluate_signed_sum(&star_terms, &b, &FptEngine);
    println!(
        "  on G(48, 0.12): raw-sum {:.0} us vs phi*-sum {:.0} us (speedup {:.1}x), counts agree: {}\n",
        raw_us,
        star_us,
        raw_us / star_us,
        check_raw == check_star
    );
}

/// E3 — Example 4.3: oracle recovery, all-free case.
fn e3_oracle_recovery() {
    println!("== E3: Example 4.3 (Vandermonde oracle recovery) ==");
    let text = "(w,x,y,z) := E(x,y) & (E(w,x) | (E(y,z) & E(z,z)))";
    let query = parse_query(text).unwrap();
    let sig = data::digraph_signature();
    let b = data::example_4_3_structure();
    let ds = dnf::disjuncts(&query, &sig).unwrap();
    let star_terms = star(&ds);
    let mut oracle_fn = |d: &Structure| count_ep(&query, &sig, d, &FptEngine).unwrap();
    let recovered = oracle::recover_all_free_counts(&star_terms, &b, &mut oracle_fn);
    for (i, n) in &recovered.counts {
        let direct = brute::count_pp_brute(&star_terms[*i].formula, &b);
        println!(
            "  |{}(B)| recovered = {n}, direct = {direct} {}",
            star_terms[*i].formula,
            if *n == direct { "✔" } else { "✘" }
        );
    }
    println!("  oracle queries: {}\n", recovered.oracle_queries);
}

/// E4 — Example 5.21: the theta-plus construction.
fn e4_theta_plus() {
    println!("== E4: Example 5.21 (theta-plus) ==");
    let text = "(w,x,y,z) := (E(x,y) & E(y,z)) | (E(z,w) & E(w,x)) | (E(w,x) & E(x,y)) \
                | (exists a, b, c, d . E(a,b) & E(b,c) & E(c,d))";
    let query = parse_query(text).unwrap();
    let sig = data::digraph_signature();
    let dec = plus_decomposition(&query, &sig).unwrap();
    println!(
        "  normalized disjuncts {}, all-free {}, sentences {}",
        dec.disjuncts.len(),
        dec.all_free.len(),
        dec.sentences.len()
    );
    println!(
        "  theta*_af: {} terms; theta-_af: {}",
        dec.star_af.len(),
        dec.minus_af().len()
    );
    println!("  theta+ =");
    for f in &dec.plus {
        println!("    {f}");
    }
    println!("  (paper: theta+ = {{phi1, theta1}}) ✔\n");
}

/// E5 — Theorem 5.4: counting-equivalence decision.
fn e5_counting_equivalence() {
    println!("== E5: Theorem 5.4 (counting equivalence decision) ==");
    let sig = data::digraph_signature();
    let pairs = [
        ("E(x,y)", "E(w,z)", true),
        ("E(x,y) & E(y,z)", "E(a,b) & E(b,c)", true),
        ("E(x,y) & E(y,z)", "E(a,b) & E(a,c)", false),
        ("(x) := exists u . E(x,u)", "(y) := exists v . E(y,v)", true),
        (
            "(x) := exists u . E(x,u)",
            "(y) := exists v . E(v,y)",
            false,
        ),
    ];
    let widths = [30, 30, 10, 12];
    println!(
        "{}",
        row(
            &[
                "phi1".into(),
                "phi2".into(),
                "decided".into(),
                "median us".into()
            ],
            &widths
        )
    );
    println!("{}", rule(&widths));
    for (ta, tb, expected) in pairs {
        let a = PpFormula::from_query(&parse_query(ta).unwrap(), &sig).unwrap();
        let b = PpFormula::from_query(&parse_query(tb).unwrap(), &sig).unwrap();
        let decided = counting_equivalent(&a, &b);
        assert_eq!(decided, expected);
        let us = time_us(5, || {
            let _ = counting_equivalent(&a, &b);
        });
        println!(
            "{}",
            row(
                &[
                    ta.into(),
                    tb.into(),
                    decided.to_string(),
                    format!("{us:.0}")
                ],
                &widths
            )
        );
    }
    // Random agreement sweep vs an empirical battery.
    let mut agree = 0usize;
    let total = 60;
    let battery: Vec<Structure> = (0..4)
        .map(|i| data::random_digraph(&mut StdRng::seed_from_u64(900 + i), 3, 0.4))
        .collect();
    for seed in 0..total as u64 {
        let qa = queries::random_cq(&mut StdRng::seed_from_u64(seed), 3, 2, 0.3);
        let qb = queries::random_cq(&mut StdRng::seed_from_u64(seed + 7000), 3, 2, 0.3);
        let a = PpFormula::from_query(&qa, &sig).unwrap();
        let b = PpFormula::from_query(&qb, &sig).unwrap();
        let decided = counting_equivalent(&a, &b);
        let empirical = empirically_counting_equivalent(&a, &b, &battery);
        // decision ⇒ empirical; ¬empirical ⇒ ¬decision.
        if !decided || empirical {
            agree += 1;
        }
    }
    println!("  random sweep: {agree}/{total} decisions consistent with empirical battery\n");
}

/// E6 — Appendix A: general-case recovery with sentence disjuncts.
fn e6_general_recovery() {
    println!("== E6: general-case oracle recovery (Appendix A) ==");
    let text = "(x, y) := E(x,y) | F(x,y) | (exists a, b . E(a,b) & F(a,b))";
    let query = parse_query(text).unwrap();
    let sig = Signature::from_symbols([("E", 2), ("F", 2)]);
    let dec = plus_decomposition(&query, &sig).unwrap();
    let mut b = Structure::new(sig.clone(), 3);
    b.add_tuple_named("E", &[0, 1]);
    b.add_tuple_named("F", &[1, 2]);
    b.add_tuple_named("F", &[0, 1]);
    let mut calls = 0usize;
    let mut oracle_fn = |d: &Structure| {
        calls += 1;
        count_ep_with(&dec, query.liberal_count(), d, &FptEngine, 1)
    };
    let recovered = oracle::recover_plus_counts(&dec, query.liberal_count(), &b, &mut oracle_fn);
    for (formula, n) in &recovered {
        let direct = brute::count_pp_brute(formula, &b);
        println!(
            "  |{formula}(B)| recovered = {n}, direct = {direct} {}",
            if *n == direct { "✔" } else { "✘" }
        );
    }
    println!("  oracle queries: {calls}\n");
}

/// F1 — engine scaling on an FPT-family query (Theorem 3.2 case 1).
///
/// **Exits nonzero if any engine's count disagrees** with the first
/// engine's on the same input, in F1 or F1b.
fn f1_engine_scaling() {
    println!("== F1: engine scaling, query Q_3(x,y) = ∃u,v path (FPT family) ==");
    let query = queries::quantified_path_query(3);
    let pp = pp_of(&query);
    let engines = all_engines();
    let mut widths = vec![8, 12];
    let mut header = vec!["n".to_string(), "count".to_string()];
    for engine in &engines {
        widths.push(14);
        header.push(format!("{} us", engine.name()));
    }
    println!("{}", row(&header, &widths));
    println!("{}", rule(&widths));
    let mut disagreements = 0;
    for n in [8usize, 16, 32, 64, 128] {
        let b = data::random_digraph(&mut StdRng::seed_from_u64(n as u64), n, 0.08);
        let mut cells = vec![n.to_string()];
        let mut reference: Option<String> = None;
        for engine in &engines {
            let runs = if engine.name() == "brute-force" && n > 64 {
                1
            } else {
                3
            };
            let (count, us) = time_engine(engine.as_ref(), &pp, &b, 1, runs);
            if count != *reference.get_or_insert_with(|| count.clone()) {
                eprintln!("  n={n}: {} counts {count}", engine.name());
                disagreements += 1;
            }
            cells.push(format!("{us:.0}"));
        }
        cells.insert(1, reference.unwrap_or_default());
        println!("{}", row(&cells, &widths));
    }
    println!("  (FPT and relalg scale polynomially)\n");

    // F1b: the real FPT payoff is in *query-size* scaling — a free path
    // P_k has k+1 liberal variables, so brute force pays |B|^(k+1) while
    // the DP engine stays polynomial.
    println!("== F1b: query-size scaling, free paths P_k on G(8, 0.25) ==");
    let b = data::random_digraph(&mut StdRng::seed_from_u64(99), 8, 0.25);
    let widths = [6, 12, 14, 14];
    println!(
        "{}",
        row(
            &[
                "k".into(),
                "count".into(),
                "brute us".into(),
                "fpt us".into()
            ],
            &widths
        )
    );
    println!("{}", rule(&widths));
    for k in [2usize, 3, 4, 5, 6] {
        let pp = pp_of(&queries::path_query(k));
        let (count, brute_us) = time_engine(&BruteForceEngine, &pp, &b, 1, 1);
        let (fpt_count, fpt_us) = time_engine(&FptEngine, &pp, &b, 1, 3);
        if fpt_count != count {
            eprintln!("  k={k}: fpt counts {fpt_count}, brute-force {count}");
            disagreements += 1;
        }
        println!(
            "{}",
            row(
                &[
                    k.to_string(),
                    count,
                    format!("{brute_us:.0}"),
                    format!("{fpt_us:.0}")
                ],
                &widths
            )
        );
    }
    println!("  (brute force pays |B|^(k+1); the DP engine stays flat — the FPT crossover)");
    if disagreements > 0 {
        eprintln!("F1 FAILED: {disagreements} engine count(s) disagree with the first engine");
        std::process::exit(1);
    }
    println!("  all engines agree on counts \u{2714}\n");
}

/// F2 — #Clique-hardness (Theorem 3.2 case 3): counting k-cliques by
/// query counting vs the direct graph algorithm.
fn f2_sharp_clique_hardness() {
    println!("== F2: k-clique counting via answer counting (case 3) ==");
    let g = epq_graph::generators::random_gnp(30, 0.4, &mut StdRng::seed_from_u64(7));
    let widths = [6, 12, 16, 16];
    println!(
        "{}",
        row(
            &[
                "k".into(),
                "#k-cliques".into(),
                "query-count us".into(),
                "graph-alg us".into()
            ],
            &widths
        )
    );
    println!("{}", rule(&widths));
    for k in 2..=5usize {
        let direct = cliques::count_k_cliques(&g, k);
        let via_query = epq_counting::clique::count_cliques_via_answers(&g, k, &FptEngine);
        assert_eq!(via_query.to_u64().unwrap() as u128, direct);
        let query_us = time_us(1, || {
            let _ = epq_counting::clique::count_cliques_via_answers(&g, k, &FptEngine);
        });
        let graph_us = time_us(3, || {
            let _ = cliques::count_k_cliques(&g, k);
        });
        println!(
            "{}",
            row(
                &[
                    k.to_string(),
                    direct.to_string(),
                    format!("{query_us:.0}"),
                    format!("{graph_us:.0}")
                ],
                &widths
            )
        );
    }
    println!("  (time grows superpolynomially in k on both sides — the #W[1] wall)\n");
}

/// F3 — the Clique-equivalent regime (case 2): pendant-clique queries.
fn f3_case_two_scaling() {
    println!("== F3: pendant clique W_k(x) (case 2) — FPT in n, hard in k ==");
    let widths = [6, 8, 12, 14];
    println!(
        "{}",
        row(
            &["k".into(), "n".into(), "count".into(), "fpt us".into()],
            &widths
        )
    );
    println!("{}", rule(&widths));
    for k in 2..=4usize {
        let query = queries::pendant_clique_query(k);
        let pp = pp_of(&query);
        for n in [10usize, 20, 40] {
            let g = epq_graph::generators::random_gnp(
                n,
                0.4,
                &mut StdRng::seed_from_u64(100 + n as u64),
            );
            let b = epq_counting::clique::graph_to_structure(&g);
            let (count, us) = time_engine(&FptEngine, &pp, &b, 1, 1);
            println!(
                "{}",
                row(
                    &[k.to_string(), n.to_string(), count, format!("{us:.0}")],
                    &widths
                )
            );
        }
    }
    println!("  (per fixed k, time polynomial in n; the k-dependence is exponential)\n");
}

/// F4 — random UCQ cancellation statistics.
fn f4_random_ucq_cancellation() {
    println!("== F4: phi* cancellation on random UCQs (s = 3 disjuncts) ==");
    let sig = data::digraph_signature();
    let mut survivors = Vec::new();
    let mut tw_drops = 0usize;
    let samples = 40;
    for seed in 0..samples as u64 {
        let q = queries::random_ucq(&mut StdRng::seed_from_u64(seed), 3, 3, 2, 0.2);
        let ds = dnf::disjuncts(&q, &sig).unwrap();
        let raw = inclusion_exclusion_terms(&ds);
        let star_terms = star(&ds);
        survivors.push(star_terms.len());
        let tw = |pp: &PpFormula| {
            epq_graph::treewidth_exact(&pp.structure().gaifman_graph()).unwrap_or(99)
        };
        let raw_max = raw.iter().map(|t| tw(&t.formula)).max().unwrap_or(0);
        let star_max = star_terms.iter().map(|t| tw(&t.formula)).max().unwrap_or(0);
        if star_max < raw_max {
            tw_drops += 1;
        }
    }
    let avg: f64 = survivors.iter().sum::<usize>() as f64 / samples as f64;
    let min = survivors.iter().min().unwrap();
    let max = survivors.iter().max().unwrap();
    println!("  raw terms per query: 7; surviving phi* terms: avg {avg:.2}, min {min}, max {max}");
    println!("  queries where cancellation strictly lowered max treewidth: {tw_drops}/{samples}\n");
}
