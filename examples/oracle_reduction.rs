//! The equivalence theorem's reverse reduction, live: recover the counts
//! of every pp-formula in φ⁺ using *only* an oracle for |φ(·)|
//! (Example 4.3 / Theorem 5.20 / Appendix A).
//!
//! ```sh
//! cargo run --release --example oracle_reduction
//! ```

use epq::prelude::*;
use epq_core::oracle;
use epq_counting::brute;
use epq_logic::dnf;

fn main() {
    // ---------------------------------------------------------------
    // Part 1 — Example 4.3 verbatim: the all-free case.
    // ---------------------------------------------------------------
    let text = "(w,x,y,z) := E(x,y) & (E(w,x) | (E(y,z) & E(z,z)))";
    let query = parse_query(text).unwrap();
    let sig = Signature::from_symbols([("E", 2)]);
    println!("φ = {query}\n");

    // The target structure B we want pp counts on.
    let mut b = Structure::new(sig.clone(), 3);
    for (u, v) in [(0, 1), (1, 2), (2, 0), (1, 1)] {
        b.add_tuple_named("E", &[u, v]);
    }
    println!("Target B:\n{b}\n");

    let ds = dnf::disjuncts(&query, &sig).unwrap();
    let star_terms = star(&ds);
    println!("φ* has {} terms:", star_terms.len());
    for t in &star_terms {
        println!("  {:>3} × |{}(B)|", t.coefficient.to_string(), t.formula);
    }

    // The oracle: all it can do is answer |φ(D)| for structures D of our
    // choosing. Every query is logged.
    let mut transcript: Vec<(usize, usize)> = Vec::new();
    let mut oracle_fn = |d: &Structure| {
        let n = epq::core::count::count_ep(&query, &sig, d, &FptEngine).unwrap();
        transcript.push((d.universe_size(), d.tuple_count()));
        n
    };

    let recovered = oracle::recover_all_free_counts(&star_terms, &b, &mut oracle_fn);
    println!(
        "\nRecovered from {} oracle calls:",
        recovered.oracle_queries
    );
    for (i, n) in &recovered.counts {
        let direct = brute::count_pp_brute(&star_terms[*i].formula, &b);
        println!(
            "  |{}(B)| = {n}   (direct check: {direct}) {}",
            star_terms[*i].formula,
            if *n == direct { "✔" } else { "✘" }
        );
        assert_eq!(*n, direct);
    }
    println!("\nOracle query transcript (|universe|, #tuples) — products B × Cˡ:");
    for (n, t) in &transcript {
        println!("  queried structure with {n} elements, {t} tuples");
    }

    // ---------------------------------------------------------------
    // Part 2 — the general case with a sentence disjunct (Appendix A).
    // ---------------------------------------------------------------
    println!("\n===============================================================");
    let text2 = "(x, y) := E(x,y) | F(x,y) | (exists a, b . E(a,b) & F(a,b))";
    let query2 = parse_query(text2).unwrap();
    let sig2 = Signature::from_symbols([("E", 2), ("F", 2)]);
    println!("φ = {query2}\n");
    let dec = plus_decomposition(&query2, &sig2).unwrap();
    println!(
        "φ⁺ = {} free formulas + {} sentence disjunct(s)",
        dec.minus_af().len(),
        dec.sentences.len()
    );

    let mut b2 = Structure::new(sig2.clone(), 3);
    b2.add_tuple_named("E", &[0, 1]);
    b2.add_tuple_named("F", &[1, 2]);
    b2.add_tuple_named("F", &[0, 1]);
    println!("\nTarget B:\n{b2}");

    let mut calls2 = 0usize;
    let mut oracle2 = |d: &Structure| {
        calls2 += 1;
        epq::core::count::count_ep_with(&dec, query2.liberal_count(), d, &FptEngine, 1)
    };
    let recovered2 = oracle::recover_plus_counts(&dec, query2.liberal_count(), &b2, &mut oracle2);
    println!("\nRecovered (with {calls2} oracle calls):");
    for (formula, n) in &recovered2 {
        let direct = brute::count_pp_brute(formula, &b2);
        println!(
            "  |{formula}(B)| = {n}   (direct: {direct}) {}",
            if *n == direct { "✔" } else { "✘" }
        );
        assert_eq!(*n, direct);
    }
    println!("\nBoth directions of the equivalence theorem exercised. ✔");
}
