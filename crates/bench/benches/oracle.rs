//! E3/E6 — the oracle interreductions: Vandermonde recovery of pp counts
//! from an ep oracle (Example 4.3 / Theorem 5.20 / Appendix A).

use criterion::{criterion_group, criterion_main, Criterion};
use epq_core::count::{count_ep, count_ep_with};
use epq_core::iex::star;
use epq_core::oracle::{
    find_distinguishing_structure, recover_all_free_counts, recover_plus_counts,
};
use epq_core::plus::plus_decomposition;
use epq_counting::engines::FptEngine;
use epq_logic::dnf;
use epq_logic::parser::parse_query;
use epq_structures::Structure;
use epq_workloads::data;

fn example_4_3_recovery(c: &mut Criterion) {
    let text = "(w,x,y,z) := E(x,y) & (E(w,x) | (E(y,z) & E(z,z)))";
    let query = parse_query(text).unwrap();
    let sig = data::digraph_signature();
    let ds = dnf::disjuncts(&query, &sig).unwrap();
    let star_terms = star(&ds);
    let b = data::example_4_3_structure();
    let mut group = c.benchmark_group("E3/example-4-3");
    group.sample_size(10);
    group.bench_function("recover-all-free", |bench| {
        bench.iter(|| {
            let mut oracle = |d: &Structure| count_ep(&query, &sig, d, &FptEngine).unwrap();
            recover_all_free_counts(&star_terms, &b, &mut oracle)
        });
    });
    group.finish();
}

fn distinguishing_structure_search(c: &mut Criterion) {
    let text = "(w,x,y,z) := E(x,y) & (E(w,x) | (E(y,z) & E(z,z)))";
    let query = parse_query(text).unwrap();
    let sig = data::digraph_signature();
    let ds = dnf::disjuncts(&query, &sig).unwrap();
    let star_terms = star(&ds);
    let reps: Vec<&epq_logic::PpFormula> = star_terms.iter().map(|t| &t.formula).collect();
    let mut group = c.benchmark_group("E3/lemma-5-12-search");
    group.sample_size(10);
    group.bench_function("find-distinguishing", |bench| {
        bench.iter(|| find_distinguishing_structure(&reps));
    });
    group.finish();
}

fn general_case_recovery(c: &mut Criterion) {
    let text = "(x, y) := E(x,y) | F(x,y) | (exists a, b . E(a,b) & F(a,b))";
    let query = parse_query(text).unwrap();
    let sig = epq_structures::Signature::from_symbols([("E", 2), ("F", 2)]);
    let dec = plus_decomposition(&query, &sig).unwrap();
    let mut b = Structure::new(sig.clone(), 3);
    b.add_tuple_named("E", &[0, 1]);
    b.add_tuple_named("F", &[1, 2]);
    let mut group = c.benchmark_group("E6/general-case");
    group.sample_size(10);
    group.bench_function("recover-plus", |bench| {
        bench.iter(|| {
            let mut oracle =
                |d: &Structure| count_ep_with(&dec, query.liberal_count(), d, &FptEngine, 1);
            recover_plus_counts(&dec, query.liberal_count(), &b, &mut oracle)
        });
    });
    group.finish();
}

criterion_group!(
    benches,
    example_4_3_recovery,
    distinguishing_structure_search,
    general_case_recovery
);
criterion_main!(benches);
