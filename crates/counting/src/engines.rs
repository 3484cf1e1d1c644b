//! A common interface over the pp-counting engines, for the CLI's
//! `--engine` flag, cross-checking tests and experiment F1.

use epq_bigint::Natural;
use epq_logic::PpFormula;
use epq_structures::Structure;

/// An engine that computes `|φ(B)|` for prenex pp-formulas.
///
/// Thread count is a call parameter, not part of the engine: every
/// engine is a unit struct with one code path, and
/// [`PpCountingEngine::count_threaded`] caps the workers it may use.
/// Counts are bit-identical at every thread count.
///
/// Engines are `Send + Sync` so that one engine instance can serve
/// counts for many structures concurrently (the batched counting API
/// in `epq_core::prepared` fans a shared `&dyn PpCountingEngine`
/// across the pool workers). All engines here are stateless, so the
/// bound is free.
pub trait PpCountingEngine: Send + Sync {
    /// A short display name for reports.
    fn name(&self) -> &'static str;

    /// Computes `|φ(B)|` on up to `threads` worker threads (`1` runs
    /// inline on the calling thread).
    fn count_threaded(&self, pp: &PpFormula, b: &Structure, threads: usize) -> Natural;

    /// Computes `|φ(B)|` on the calling thread.
    fn count(&self, pp: &PpFormula, b: &Structure) -> Natural {
        self.count_threaded(pp, b, 1)
    }

    /// Whether this engine evaluates by relational-algebra atom scans,
    /// so that an incremental maintainer
    /// (`epq_core::incremental::LiveCount`) can re-evaluate affected
    /// formulas through cached scan intermediates
    /// (`epq_relalg::ScanCache`). The DP-table and enumeration engines
    /// return `false`: a dirty relation invalidates their state
    /// wholesale, so incremental maintenance falls back to a full
    /// per-formula recount through the engine.
    fn scan_based(&self) -> bool {
        false
    }
}

/// Exhaustive assignment enumeration (`O(|B|^|lib|)` hom checks). On
/// more than one thread the flat assignment index space is split into
/// contiguous shards ([`crate::brute::count_pp_brute_par`]).
pub struct BruteForceEngine;

impl PpCountingEngine for BruteForceEngine {
    fn name(&self) -> &'static str {
        "brute-force"
    }

    fn count_threaded(&self, pp: &PpFormula, b: &Structure, threads: usize) -> Natural {
        if threads > 1 {
            crate::brute::count_pp_brute_par(pp, b, threads)
        } else {
            crate::brute::count_pp_brute(pp, b)
        }
    }
}

/// The relational-algebra engine (scan/join/project, per component;
/// each join's probe side is sharded across the workers).
pub struct RelalgEngine;

impl PpCountingEngine for RelalgEngine {
    fn name(&self) -> &'static str {
        "relalg"
    }

    fn count_threaded(&self, pp: &PpFormula, b: &Structure, threads: usize) -> Natural {
        epq_relalg::count_pp(pp, b, threads)
    }

    fn scan_based(&self) -> bool {
        true
    }
}

/// The full FPT algorithm (\[CM15\]; see [`crate::fpt`]).
pub struct FptEngine;

impl PpCountingEngine for FptEngine {
    fn name(&self) -> &'static str {
        "fpt"
    }

    fn count_threaded(&self, pp: &PpFormula, b: &Structure, threads: usize) -> Natural {
        crate::fpt::count_pp_fpt(pp, b, threads)
    }
}

/// Every engine, for cross-checking loops and name lookup (the CLI's
/// `--engine` resolves against [`PpCountingEngine::name`]).
pub fn all_engines() -> Vec<Box<dyn PpCountingEngine>> {
    vec![
        Box::new(BruteForceEngine),
        Box::new(RelalgEngine),
        Box::new(FptEngine),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;
    use epq_logic::parser::parse_query;
    use epq_logic::query::infer_signature;
    use epq_structures::Signature;

    fn pp_of(text: &str) -> PpFormula {
        let q = parse_query(text).unwrap();
        let sig = infer_signature([q.formula()]).unwrap();
        PpFormula::from_query(&q, &sig).unwrap()
    }

    fn structures() -> Vec<Structure> {
        let sig = Signature::from_symbols([("E", 2)]);
        let mut c = Structure::new(sig.clone(), 4);
        for (u, v) in [(0, 1), (1, 2), (2, 3), (3, 3)] {
            c.add_tuple_named("E", &[u, v]);
        }
        let mut dense = Structure::new(sig.clone(), 5);
        for u in 0..5u32 {
            for v in 0..5u32 {
                if (u + 2 * v) % 3 == 0 {
                    dense.add_tuple_named("E", &[u, v]);
                }
            }
        }
        let empty = Structure::new(sig, 3);
        vec![c, dense, empty]
    }

    #[test]
    fn all_engines_agree_across_queries_and_structures() {
        let queries = [
            "E(x,y)",
            "(x,y,z) := E(x,y)",
            "E(x,y) & E(y,z)",
            "E(x,x)",
            "(x) := exists u . E(x,u)",
            "(x,y) := exists u . E(x,u) & E(y,u)",
            "(x) := exists u, v . E(x,u) & E(u,v)",
        ];
        let engines = all_engines();
        for b in structures() {
            for q in queries {
                let pp = pp_of(q);
                let reference = engines[0].count(&pp, &b);
                for e in &engines {
                    for threads in [1usize, 2, 4] {
                        assert_eq!(
                            e.count_threaded(&pp, &b, threads),
                            reference,
                            "engine {} at {threads} threads disagrees on {q}",
                            e.name()
                        );
                    }
                }
            }
        }
    }
}
