//! Streaming feed: ingest a tuple log one insert at a time and keep the
//! answer count current with incremental maintenance.
//!
//! ```sh
//! cargo run --example streaming_feed
//! ```
//!
//! The example generates a skewed two-relation insert stream (most
//! traffic lands on `F`, the way real feeds concentrate on one
//! relation), maintains a prepared UCQ over it with
//! [`LiveCount`], and verifies every checkpoint against a from-scratch
//! recount.

use epq::prelude::*;
use epq_workloads::data;
use rand::rngs::StdRng;
use rand::SeedableRng;

fn main() {
    // The query: pairs connected in E both ways, or related in F.
    let text = "(x, y) := (E(x,y) & E(y,x)) | F(x,y)";
    let query = parse_query(text).expect("query parses");
    let sig = Signature::from_symbols([("E", 2), ("F", 2)]);
    println!("Query φ: {query}");

    // A reproducible insert log: 120 tuple insertions over a
    // 12-element universe, 90% of them into F, a checkpoint every 20.
    let log = data::random_insert_log(&mut StdRng::seed_from_u64(2026), &sig, 12, 120, 20, &[1, 9]);
    println!(
        "Insert log: {} inserts, {} checkpoints, universe {}\n",
        log.insert_count(),
        log.checkpoint_count(),
        log.universe
    );

    // Prepare once; maintain incrementally with the scan-based engine
    // (a non-scan-based engine would recount each affected disjunct in full).
    let prepared = PreparedQuery::prepare(&query, &sig)
        .expect("query prepares")
        .with_engine(Box::new(RelalgEngine));
    let mut live = LiveCount::new(prepared, log.open()).expect("signatures match");
    println!("checkpoint  tuples  |φ(B)|   recount-check");
    let mut checkpoint = 0usize;
    let mut all_agree = true;
    for op in &log.ops {
        if let Some(count) = live.apply(op) {
            checkpoint += 1;
            let agrees = count == live.recount_from_scratch();
            all_agree &= agrees;
            println!(
                "{checkpoint:>10}  {:>6}  {count:>6}   {}",
                live.snapshot().tuple_count(),
                if agrees { "ok" } else { "MISMATCH" }
            );
        }
    }

    let stats = live.stats();
    println!(
        "\nMaintenance work: {} inserts, {} reconciles, {} term recounts, \
         {} term reuses, {} sentence rechecks",
        stats.inserts,
        stats.reconciles,
        stats.term_recounts,
        stats.term_reuses,
        stats.sentence_rechecks
    );
    // Report every checkpoint before failing, so a disagreement shows
    // the full table (and a MISMATCH row) instead of a bare panic.
    assert!(all_agree, "a checkpoint disagreed with its recount");
    println!("All checkpoints agree with from-scratch recounts.");
}
