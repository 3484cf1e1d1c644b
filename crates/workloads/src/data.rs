//! Structure (data) generators.

use epq_structures::live::{StreamLog, StreamOp};
use epq_structures::{RelId, Signature, Structure};
use rand::Rng;

/// The digraph signature `{E/2}`.
pub fn digraph_signature() -> Signature {
    Signature::from_symbols([("E", 2)])
}

/// A random digraph structure: each ordered pair (including loops) is an
/// edge with probability `p`.
pub fn random_digraph<R: Rng>(rng: &mut R, n: usize, p: f64) -> Structure {
    let mut s = Structure::new(digraph_signature(), n);
    for u in 0..n as u32 {
        for v in 0..n as u32 {
            if rng.gen_bool(p) {
                s.add_tuple_named("E", &[u, v]);
            }
        }
    }
    s
}

/// A random structure over an arbitrary signature: every possible tuple
/// is present with probability `p` (capped at `max_tuples` draws per
/// relation for large universes).
pub fn random_structure<R: Rng>(
    rng: &mut R,
    signature: &Signature,
    n: usize,
    p: f64,
    max_tuples: usize,
) -> Structure {
    let mut s = Structure::new(signature.clone(), n);
    for (rel, _, arity) in signature.iter() {
        let full = (n as u64).checked_pow(arity as u32).unwrap_or(u64::MAX);
        if full as usize <= max_tuples {
            // Exhaustive sweep.
            let mut tuple = vec![0u32; arity];
            loop {
                if rng.gen_bool(p) {
                    s.add_tuple(rel, &tuple);
                }
                let mut i = 0;
                loop {
                    if i == arity {
                        break;
                    }
                    tuple[i] += 1;
                    if (tuple[i] as usize) < n {
                        break;
                    }
                    tuple[i] = 0;
                    i += 1;
                }
                if i == arity {
                    break;
                }
            }
        } else {
            let draws = (full as f64 * p).min(max_tuples as f64) as usize;
            let mut tuple = vec![0u32; arity];
            for _ in 0..draws {
                for t in tuple.iter_mut() {
                    *t = rng.gen_range(0..n as u32);
                }
                s.add_tuple(rel, &tuple);
            }
        }
    }
    s
}

/// A batch of independent random digraphs on a shared RNG stream —
/// the batch-shaped workload for `epq_core::prepared::PreparedQuery::count_batch`
/// (one query prepared once, counted across the whole vector).
pub fn random_digraph_batch<R: Rng>(rng: &mut R, count: usize, n: usize, p: f64) -> Vec<Structure> {
    (0..count).map(|_| random_digraph(rng, n, p)).collect()
}

/// A batch of random structures over an arbitrary signature (see
/// [`random_structure`] for the per-structure sampling).
pub fn random_structure_batch<R: Rng>(
    rng: &mut R,
    count: usize,
    signature: &Signature,
    n: usize,
    p: f64,
    max_tuples: usize,
) -> Vec<Structure> {
    (0..count)
        .map(|_| random_structure(rng, signature, n, p, max_tuples))
        .collect()
}

/// A size-sweep batch: one random digraph per size in `sizes` (all from
/// the same RNG stream), for batches whose members grow.
pub fn random_digraph_size_sweep<R: Rng>(rng: &mut R, sizes: &[usize], p: f64) -> Vec<Structure> {
    sizes.iter().map(|&n| random_digraph(rng, n, p)).collect()
}

/// A random streaming insert log over an arbitrary signature — the
/// workload shape of `epq_core::incremental::LiveCount` and the `P4`
/// experiment.
///
/// Produces `inserts` random tuple insertions (elements uniform over
/// `0..n`; duplicates are allowed — ingestion is idempotent), the
/// target relation of each drawn with probability proportional to
/// `weights` (one integer weight per signature symbol — real streams
/// are skewed, with most traffic landing on one relation, which is
/// exactly what makes incremental maintenance pay). A checkpoint is
/// emitted after every `checkpoint_every` inserts and once more at the
/// end if inserts remain unreported.
///
/// # Panics
/// Panics if `weights` does not match the signature, all weights are
/// zero, a weighted relation exists with `n == 0`, or
/// `checkpoint_every == 0`.
pub fn random_insert_log<R: Rng>(
    rng: &mut R,
    signature: &Signature,
    n: usize,
    inserts: usize,
    checkpoint_every: usize,
    weights: &[u32],
) -> StreamLog {
    assert_eq!(
        weights.len(),
        signature.len(),
        "one weight per relation symbol"
    );
    let total: u64 = weights.iter().map(|&w| u64::from(w)).sum();
    assert!(total > 0, "at least one relation needs a nonzero weight");
    assert!(checkpoint_every >= 1, "checkpoint_every must be positive");
    let mut ops = Vec::with_capacity(inserts + inserts / checkpoint_every + 1);
    let mut since_checkpoint = 0usize;
    for _ in 0..inserts {
        // Cumulative-weight draw (integer arithmetic: the rand shim's
        // float surface is minimal, and determinism per seed matters).
        let mut pick = rng.gen_range(0..total);
        let rel = weights
            .iter()
            .position(|&w| {
                let w = u64::from(w);
                if pick < w {
                    true
                } else {
                    pick -= w;
                    false
                }
            })
            .expect("total weight covers every draw");
        let rel = RelId(rel as u32);
        assert!(n > 0, "cannot draw tuples over an empty universe");
        let tuple: Vec<u32> = (0..signature.arity(rel))
            .map(|_| rng.gen_range(0..n as u32))
            .collect();
        ops.push(StreamOp::Insert { rel, tuple });
        since_checkpoint += 1;
        if since_checkpoint == checkpoint_every {
            ops.push(StreamOp::Checkpoint);
            since_checkpoint = 0;
        }
    }
    if since_checkpoint > 0 {
        ops.push(StreamOp::Checkpoint);
    }
    StreamLog {
        signature: signature.clone(),
        universe: n,
        ops,
    }
}

/// [`random_insert_log`] over the digraph signature `{E/2}`.
pub fn random_digraph_insert_log<R: Rng>(
    rng: &mut R,
    n: usize,
    inserts: usize,
    checkpoint_every: usize,
) -> StreamLog {
    random_insert_log(
        rng,
        &digraph_signature(),
        n,
        inserts,
        checkpoint_every,
        &[1],
    )
}

/// The directed path structure `0 → 1 → … → n−1`.
pub fn path_structure(n: usize) -> Structure {
    let mut s = Structure::new(digraph_signature(), n);
    for i in 1..n as u32 {
        s.add_tuple_named("E", &[i - 1, i]);
    }
    s
}

/// The directed cycle structure on `n` elements.
pub fn cycle_structure(n: usize) -> Structure {
    assert!(n >= 1);
    let mut s = path_structure(n);
    s.add_tuple_named("E", &[n as u32 - 1, 0]);
    s
}

/// The paper's Example 4.3 structure: a 4-path with a self-loop at the
/// end (`E = {(0,1), (1,2), (2,3), (3,3)}` — 0-based).
pub fn example_4_3_structure() -> Structure {
    let mut s = Structure::new(digraph_signature(), 4);
    for (u, v) in [(0, 1), (1, 2), (2, 3), (3, 3)] {
        s.add_tuple_named("E", &[u, v]);
    }
    s
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn digraph_density_extremes() {
        let mut rng = StdRng::seed_from_u64(1);
        assert_eq!(random_digraph(&mut rng, 5, 0.0).tuple_count(), 0);
        assert_eq!(random_digraph(&mut rng, 5, 1.0).tuple_count(), 25);
    }

    #[test]
    fn deterministic_per_seed() {
        let a = random_digraph(&mut StdRng::seed_from_u64(9), 8, 0.3);
        let b = random_digraph(&mut StdRng::seed_from_u64(9), 8, 0.3);
        assert_eq!(a, b);
    }

    #[test]
    fn random_structure_respects_signature() {
        let sig = Signature::from_symbols([("R", 3), ("P", 1)]);
        let s = random_structure(&mut StdRng::seed_from_u64(4), &sig, 4, 0.5, 1000);
        assert_eq!(s.signature(), &sig);
        assert!(s
            .relation(sig.lookup("R").unwrap())
            .tuples()
            .all(|t| t.len() == 3));
    }

    #[test]
    fn batches_are_deterministic_and_sized() {
        let a = random_digraph_batch(&mut StdRng::seed_from_u64(3), 5, 4, 0.3);
        let b = random_digraph_batch(&mut StdRng::seed_from_u64(3), 5, 4, 0.3);
        assert_eq!(a, b);
        assert_eq!(a.len(), 5);
        // Members are independent draws, not copies of one sample.
        assert!(a.iter().any(|s| s != &a[0]));

        let sig = Signature::from_symbols([("R", 2)]);
        let batch = random_structure_batch(&mut StdRng::seed_from_u64(4), 3, &sig, 3, 0.5, 100);
        assert_eq!(batch.len(), 3);
        assert!(batch.iter().all(|s| s.signature() == &sig));

        let sweep = random_digraph_size_sweep(&mut StdRng::seed_from_u64(5), &[2, 4, 6], 0.5);
        assert_eq!(
            sweep.iter().map(|s| s.universe_size()).collect::<Vec<_>>(),
            vec![2, 4, 6]
        );
    }

    #[test]
    fn insert_logs_are_deterministic_and_checkpointed() {
        let sig = Signature::from_symbols([("E", 2), ("F", 2)]);
        let a = random_insert_log(&mut StdRng::seed_from_u64(7), &sig, 6, 25, 10, &[1, 9]);
        let b = random_insert_log(&mut StdRng::seed_from_u64(7), &sig, 6, 25, 10, &[1, 9]);
        assert_eq!(a, b);
        assert_eq!(a.insert_count(), 25);
        // Every 10 inserts plus the trailing remainder checkpoint.
        assert_eq!(a.checkpoint_count(), 3);
        assert_eq!(a.universe, 6);
        // The log round-trips through its text format.
        let reparsed = epq_structures::live::StreamLog::parse(&a.to_string()).unwrap();
        assert_eq!(a, reparsed);
        // Replay respects arities and universe bounds (would panic
        // otherwise) and the skew favors F.
        let replayed = a.replay();
        let f_tuples = replayed.relation(sig.lookup("F").unwrap()).len();
        let e_tuples = replayed.relation(sig.lookup("E").unwrap()).len();
        assert!(f_tuples > e_tuples, "weights should skew toward F");
    }

    #[test]
    fn digraph_insert_log_shape() {
        let log = random_digraph_insert_log(&mut StdRng::seed_from_u64(3), 5, 20, 5);
        assert_eq!(log.signature.len(), 1);
        assert_eq!(log.insert_count(), 20);
        assert_eq!(log.checkpoint_count(), 4);
        // A zero-weight relation is never drawn.
        let sig = Signature::from_symbols([("E", 2), ("F", 2)]);
        let skewed = random_insert_log(&mut StdRng::seed_from_u64(4), &sig, 4, 12, 4, &[0, 1]);
        let replayed = skewed.replay();
        assert!(replayed.relation(sig.lookup("E").unwrap()).is_empty());
        assert!(!replayed.relation(sig.lookup("F").unwrap()).is_empty());
    }

    #[test]
    fn deterministic_structures() {
        assert_eq!(path_structure(4).tuple_count(), 3);
        assert_eq!(cycle_structure(4).tuple_count(), 4);
        assert_eq!(example_4_3_structure().tuple_count(), 4);
    }
}
