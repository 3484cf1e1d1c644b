//! # epq-bench — experiment runner
//!
//! Crate S9 of the `epq` workspace (see `DESIGN.md`).
//!
//! The **`experiments` binary** (`cargo run -p epq-bench --release --bin
//! experiments -- [ids…]`) prints every paper table and series (T1,
//! E1–E6, F1–F4, A1–A3) and runs the CI agreement gates P1, P2 and P4,
//! each of which exits nonzero when a count disagrees. End-to-end
//! latency and throughput are measured by the separate `epqbench`
//! workspace, not here.
//!
//! This library holds the workload builders and timing helpers the
//! binary shares.

use epq_counting::engines::PpCountingEngine;
use epq_logic::query::infer_signature;
use epq_logic::{PpFormula, Query};
use epq_structures::Structure;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::time::Instant;

/// Builds the pp view of a query against its inferred signature.
pub fn pp_of(query: &Query) -> PpFormula {
    let sig = infer_signature([query.formula()]).expect("signature infers");
    PpFormula::from_query(query, &sig).expect("query converts")
}

/// Median wall-clock microseconds over `runs` executions of `f`.
pub fn time_us(runs: usize, mut f: impl FnMut()) -> f64 {
    assert!(runs >= 1);
    let mut samples = Vec::with_capacity(runs);
    for _ in 0..runs {
        let t = Instant::now();
        f();
        samples.push(t.elapsed().as_secs_f64() * 1e6);
    }
    samples.sort_by(|a, b| a.partial_cmp(b).unwrap());
    samples[samples.len() / 2]
}

/// Times one engine on one (query, structure) pair at up to `threads`
/// workers, returning (count, median µs).
pub fn time_engine(
    engine: &dyn PpCountingEngine,
    pp: &PpFormula,
    b: &Structure,
    threads: usize,
    runs: usize,
) -> (String, f64) {
    let count = engine.count_threaded(pp, b, threads);
    let us = time_us(runs, || {
        let _ = engine.count_threaded(pp, b, threads);
    });
    (count.to_string(), us)
}

/// The `P4` streaming workload: a bulk seed phase into `E` (one
/// checkpoint at its end), then a hot stream into `F` with a
/// checkpoint every `checkpoint_every` inserts — the traffic shape
/// where most writes land on one relation while the query also reads
/// a large, quiet one.
pub fn p4_stream_log(
    n: usize,
    seed_inserts: usize,
    stream_inserts: usize,
    checkpoint_every: usize,
    seed: u64,
) -> epq_structures::live::StreamLog {
    let sig = epq_structures::Signature::from_symbols([("E", 2), ("F", 2)]);
    let mut rng = StdRng::seed_from_u64(seed);
    let mut log = epq_workloads::data::random_insert_log(
        &mut rng,
        &sig,
        n,
        seed_inserts,
        seed_inserts.max(1),
        &[1, 0],
    );
    let stream = epq_workloads::data::random_insert_log(
        &mut rng,
        &sig,
        n,
        stream_inserts,
        checkpoint_every,
        &[0, 1],
    );
    log.ops.extend(stream.ops);
    log
}

/// Replays `log` through incremental maintenance
/// (`epq_core::incremental::LiveCount`, on a query prepared with
/// `PreparedQuery::with_threads(threads)`), returning the checkpoint
/// counts.
pub fn stream_incremental(
    query: &epq_logic::Query,
    log: &epq_structures::live::StreamLog,
    engine: fn() -> Box<dyn PpCountingEngine>,
    threads: usize,
) -> Vec<epq_bigint::Natural> {
    let prepared = epq_core::prepared::PreparedQuery::prepare_uncached(query, &log.signature)
        .expect("query prepares")
        .with_engine(engine())
        .with_threads(threads);
    let mut live =
        epq_core::incremental::LiveCount::new(prepared, log.open()).expect("signatures match");
    log.ops.iter().filter_map(|op| live.apply(op)).collect()
}

/// Replays `log` with prepare-once/recount-each-checkpoint — the best
/// non-incremental pipeline available before the streaming layer —
/// returning the checkpoint counts.
pub fn stream_recount(
    query: &epq_logic::Query,
    log: &epq_structures::live::StreamLog,
    engine: fn() -> Box<dyn PpCountingEngine>,
) -> Vec<epq_bigint::Natural> {
    let prepared = epq_core::prepared::PreparedQuery::prepare_uncached(query, &log.signature)
        .expect("query prepares")
        .with_engine(engine());
    let mut live = log.open();
    let mut counts = Vec::new();
    for op in &log.ops {
        match op {
            epq_structures::live::StreamOp::Insert { rel, tuple } => {
                live.insert_tuple(*rel, tuple);
            }
            epq_structures::live::StreamOp::Checkpoint => {
                counts.push(prepared.count(live.snapshot()));
            }
        }
    }
    counts
}

/// Formats a row of fixed-width columns.
pub fn row(cells: &[String], widths: &[usize]) -> String {
    cells
        .iter()
        .zip(widths)
        .map(|(c, w)| format!("{c:<width$}", width = w))
        .collect::<Vec<_>>()
        .join(" ")
}

/// Prints a rule line matching `widths`.
pub fn rule(widths: &[usize]) -> String {
    "-".repeat(widths.iter().sum::<usize>() + widths.len().saturating_sub(1))
}

#[cfg(test)]
mod tests {
    use super::*;
    use epq_workloads::{data, queries};

    #[test]
    fn timing_helpers_run() {
        let us = time_us(3, || {
            std::hint::black_box(1 + 1);
        });
        assert!(us >= 0.0);
    }

    #[test]
    fn engine_timer_returns_consistent_count() {
        let q = queries::path_query(2);
        let pp = pp_of(&q);
        let b = data::path_structure(5);
        let (count, _) = time_engine(&epq_counting::engines::FptEngine, &pp, &b, 2, 2);
        assert_eq!(count, "3");
    }

    #[test]
    fn table_formatting() {
        let r = row(&["a".into(), "bb".into()], &[3, 4]);
        assert_eq!(r, "a   bb  ");
        assert_eq!(rule(&[3, 4]).len(), 8);
    }
}
