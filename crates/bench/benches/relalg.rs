//! Relational-algebra micro-benchmarks: the flat arena-backed
//! [`epq_relalg::Relation`] per primitive (join / project / union) and
//! cardinality, on seeded random rows.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use epq_relalg::Relation;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// `n` seeded random rows over `schema`, column `c` drawn uniformly
/// from `0..vals[c]`.
fn relation(seed: u64, schema: &[u32], n: usize, vals: &[u32]) -> Relation {
    let mut rng = StdRng::seed_from_u64(seed);
    let rows = (0..n)
        .map(|_| vals.iter().map(|&v| rng.gen_range(0..v.max(1))).collect())
        .collect();
    Relation::new(schema.to_vec(), rows)
}

fn join(c: &mut Criterion) {
    // R(0,1) ⋈ S(1,2) over a shared-column domain of 211 values: about
    // n²/211 output rows, so the join inner loop dominates the scan.
    let mut group = c.benchmark_group("relalg/join");
    group.sample_size(10);
    for n in [512usize, 2048, 8192] {
        let wide = (n as u32 / 4).max(1);
        let r = relation(1000 + n as u64, &[0, 1], n, &[wide, 211]);
        let s = relation(2000 + n as u64, &[1, 2], n, &[211, 61]);
        group.bench_with_input(BenchmarkId::new("flat", n), &n, |b, _| {
            b.iter(|| r.join(&s, 1));
        });
    }
    group.finish();
}

fn project(c: &mut Criterion) {
    let mut group = c.benchmark_group("relalg/project");
    group.sample_size(10);
    for n in [2048usize, 8192, 32768] {
        let r = relation(31 + n as u64, &[0, 1, 2, 3], n, &[97, 89, 7, 5]);
        group.bench_with_input(BenchmarkId::new("flat", n), &n, |b, _| {
            b.iter(|| r.project(&[3, 1]));
        });
    }
    group.finish();
}

fn union(c: &mut Criterion) {
    let mut group = c.benchmark_group("relalg/union");
    group.sample_size(10);
    for n in [2048usize, 8192, 32768] {
        let l = relation(77 + n as u64, &[0, 1], n, &[251, 127]);
        let r = relation(78 + n as u64, &[0, 1], n, &[251, 127]);
        group.bench_with_input(BenchmarkId::new("flat", n), &n, |b, _| {
            b.iter(|| l.union(&r));
        });
    }
    group.finish();
}

criterion_group!(benches, join, project, union);
criterion_main!(benches);
