//! F1 — counting-engine scaling on FPT-family queries, and P1 — every
//! engine at 1, 2 and 4 worker threads.
//!
//! Regenerates the engine-comparison series of EXPERIMENTS.md: counting
//! time versus structure size for a fixed bounded-treewidth query, per
//! engine (brute force / relational algebra / #Hom-DP / FPT), plus each
//! engine's thread-scaling series, where the 1-thread bar is the
//! baseline the 2- and 4-thread bars compare against.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use epq_bench::pp_of;
use epq_counting::engines::{
    all_engines, BruteForceEngine, FptEngine, HomDpEngine, PpCountingEngine, RelalgEngine,
};
use epq_workloads::{data, queries};
use rand::rngs::StdRng;
use rand::SeedableRng;

fn engines_on_quantified_path(c: &mut Criterion) {
    let query = queries::quantified_path_query(3);
    let pp = pp_of(&query);
    let mut group = c.benchmark_group("F1/qpath3");
    group.sample_size(10);
    for n in [8usize, 16, 32, 64] {
        let b = data::random_digraph(&mut StdRng::seed_from_u64(n as u64), n, 0.08);
        let engines: Vec<Box<dyn PpCountingEngine>> = vec![
            Box::new(BruteForceEngine),
            Box::new(RelalgEngine),
            Box::new(HomDpEngine),
            Box::new(FptEngine),
        ];
        for engine in engines {
            if engine.name() == "brute-force" && n > 32 {
                continue; // quadratic × hom-check blowup; series recorded up to 32
            }
            group.bench_with_input(BenchmarkId::new(engine.name(), n), &n, |bencher, _| {
                bencher.iter(|| engine.count(&pp, &b));
            });
        }
    }
    group.finish();
}

fn engines_on_free_path(c: &mut Criterion) {
    // Quantifier-free path P_2 (3 liberal variables): #Hom-DP territory.
    let query = queries::path_query(2);
    let pp = pp_of(&query);
    let mut group = c.benchmark_group("F1/path2");
    group.sample_size(10);
    for n in [8usize, 16, 32] {
        let b = data::random_digraph(&mut StdRng::seed_from_u64(7 + n as u64), n, 0.1);
        for engine in [
            &HomDpEngine as &dyn PpCountingEngine,
            &FptEngine,
            &RelalgEngine,
        ] {
            group.bench_with_input(BenchmarkId::new(engine.name(), n), &n, |bencher, _| {
                bencher.iter(|| engine.count(&pp, &b));
            });
        }
    }
    group.finish();
}

fn engines_across_threads(c: &mut Criterion) {
    // P1 on the largest F1 sizes: qpath3 (fpt's boundary sweep
    // dominates) and the quantifier-free path2 (brute force's sharded
    // assignment sweep). Expect ~linear scaling in threads on
    // multi-core runners; counts are asserted identical up front.
    let families = [
        (
            "qpath3",
            queries::quantified_path_query(3),
            [64usize, 96],
            0.08,
            0,
        ),
        ("path2", queries::path_query(2), [16, 24], 0.1, 7),
    ];
    for (family, query, sizes, density, seed_offset) in families {
        let pp = pp_of(&query);
        let mut group = c.benchmark_group(format!("P1/{family}"));
        group.sample_size(10);
        for n in sizes {
            let b = data::random_digraph(
                &mut StdRng::seed_from_u64(seed_offset + n as u64),
                n,
                density,
            );
            for engine in all_engines() {
                if family == "qpath3" && engine.name() == "brute-force" {
                    continue; // recorded up to n = 32 in F1
                }
                let expected = engine.count(&pp, &b);
                for threads in [1usize, 2, 4] {
                    assert_eq!(
                        engine.count_threaded(&pp, &b, threads),
                        expected,
                        "{}/{threads}t on {n}",
                        engine.name()
                    );
                    let id = BenchmarkId::new(format!("{}/{threads}t", engine.name()), n);
                    group.bench_with_input(id, &n, |bencher, _| {
                        bencher.iter(|| engine.count_threaded(&pp, &b, threads));
                    });
                }
            }
        }
        group.finish();
    }
}

criterion_group!(
    benches,
    engines_on_quantified_path,
    engines_on_free_path,
    engines_across_threads
);
criterion_main!(benches);
