//! Quickstart: parse a query and a structure, count answers, inspect the
//! machinery.
//!
//! ```sh
//! cargo run --example quickstart
//! ```

use epq::prelude::*;
use epq_logic::dnf;

fn main() {
    // A database: a directed graph (the paper's Example 4.3 structure).
    let b = epq::structures::parse::parse_structure(
        "structure {
           universe 4
           E = { (0,1), (1,2), (2,3), (3,3) }
         }",
    )
    .expect("structure parses");
    println!("Database B:\n{b}\n");

    // A union of conjunctive queries (Example 4.1 of the paper):
    // the head lists the liberal variables answers range over.
    let text = "(w,x,y,z) := E(x,y) & (E(w,x) | (E(y,z) & E(z,z)))";
    let query = parse_query(text).expect("query parses");
    println!("Query φ: {query}");

    // Count the answers: prepare the query once against the database's
    // signature, then count.
    let count = PreparedQuery::prepare(&query, b.signature())
        .expect("query matches the signature")
        .count(&b);
    println!("|φ(B)| = {count}\n");

    // Look inside: the disjunctive form and the φ* decomposition.
    let sig = b.signature().clone();
    let disjuncts = dnf::disjuncts(&query, &sig).unwrap();
    println!("Disjunctive form ({} disjuncts):", disjuncts.len());
    for d in &disjuncts {
        println!("  ∨ {d}");
    }
    let star_terms = star(&disjuncts);
    println!(
        "\nφ* after inclusion–exclusion + cancellation ({} terms):",
        star_terms.len()
    );
    for t in &star_terms {
        println!("  {:>3} × |{}(B)|", t.coefficient.to_string(), t.formula);
    }

    // Classify: where does this query sit in the trichotomy?
    let analysis = classify_query(&query, &sig).unwrap();
    println!(
        "\nWidth profile of φ⁺: core treewidth ≤ {}, contract treewidth ≤ {}",
        analysis.max_core_treewidth, analysis.max_contract_treewidth
    );
    println!(
        "As a member of a width-{w} family this is: {}",
        classify_widths(
            analysis.max_core_treewidth,
            analysis.max_contract_treewidth,
            analysis
                .max_core_treewidth
                .max(analysis.max_contract_treewidth)
        ),
        w = analysis
            .max_core_treewidth
            .max(analysis.max_contract_treewidth),
    );

    // Engines agree (and scale differently — see experiment F1).
    println!("\nEngine cross-check on the first disjunct:");
    let pp = &disjuncts[0];
    for engine in epq::counting::engines::all_engines() {
        println!("  {:<12} {}", engine.name(), engine.count(pp, &b));
    }
}
