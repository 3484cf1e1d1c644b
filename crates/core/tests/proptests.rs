//! Property tests for `epq-core`: the oracle reductions round-trip on
//! random queries/structures, the batched prepared-query API is
//! bit-identical to sequential counting at every thread count, and
//! incremental streaming maintenance agrees with from-scratch recounts
//! after every random insert sequence, and the fingerprint-bucketed `φ*`
//! merge is exactly the merge that searches every pair.

use epq_core::count::{count_ep, count_ep_with};
use epq_core::equivalence::{counting_equivalent, renaming_fingerprint};
use epq_core::iex::{inclusion_exclusion_terms, star, SignedPp};
use epq_core::incremental::LiveCount;
use epq_core::oracle;
use epq_core::plus::plus_decomposition;
use epq_core::prepared::PreparedQuery;
use epq_counting::brute;
use epq_counting::engines::{FptEngine, RelalgEngine};
use epq_logic::{dnf, Atom, PpFormula, Var};
use epq_structures::Signature;
use epq_workloads::{data, queries};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;

proptest! {
    // The oracle pipeline multiplies structure sizes (products B × C^ℓ
    // verified by brute force), so keep the case budget and the inputs
    // deliberately small.
    #![proptest_config(ProptestConfig::with_cases(12))]

    #[test]
    fn all_free_recovery_roundtrips_on_random_ucqs(
        qseed in 0u64..5000,
        sseed in 0u64..5000,
    ) {
        // Quantifier-free disjuncts keep every star term free; two
        // variables and two disjuncts keep the Vandermonde products
        // (whose recovered counts the test verifies by brute force)
        // small enough for the debug profile.
        let (disjuncts, n) = (2usize, 2usize);
        let query = queries::random_ucq(
            &mut StdRng::seed_from_u64(qseed), disjuncts, 2, 2, 0.0);
        let sig = data::digraph_signature();
        let ds = dnf::disjuncts(&query, &sig).unwrap();
        prop_assume!(ds.iter().all(|d| d.is_free()));
        let star_terms = star(&ds);
        let b = data::random_digraph(&mut StdRng::seed_from_u64(sseed), n, 0.45);
        let mut oracle_fn =
            |d: &epq_structures::Structure| count_ep(&query, &sig, d, &FptEngine).unwrap();
        let recovered = oracle::recover_all_free_counts(&star_terms, &b, &mut oracle_fn);
        prop_assert_eq!(recovered.counts.len(), star_terms.len());
        prop_assert!(recovered.oracle_queries >= 1);
        for (i, count) in &recovered.counts {
            let direct = brute::count_pp_brute(&star_terms[*i].formula, &b);
            prop_assert_eq!(count, &direct, "star term {}", i);
        }
    }

    #[test]
    fn general_recovery_roundtrips_with_sentence_disjuncts(
        qseed in 0u64..5000,
        sseed in 0u64..5000,
    ) {
        // A free part plus a random fully-quantified sentence disjunct
        // (built over fresh variable names so the sentence's binders
        // cannot capture the free part's liberal variables).
        let free = queries::random_ucq(&mut StdRng::seed_from_u64(qseed), 2, 2, 1, 0.0);
        let sentence = {
            use rand::Rng;
            let mut rng = StdRng::seed_from_u64(qseed + 1);
            let names = ["s0", "s1"];
            let atoms: Vec<epq_logic::Formula> = (0..2)
                .map(|_| {
                    epq_logic::Formula::atom(
                        "E",
                        &[
                            names[rng.gen_range(0..2usize)],
                            names[rng.gen_range(0..2usize)],
                        ],
                    )
                })
                .collect();
            epq_logic::Formula::exists(&names, epq_logic::Formula::conjunction(atoms))
        };
        let formula = epq_logic::Formula::Or(
            Box::new(free.formula().clone()),
            Box::new(sentence),
        );
        let query = epq_logic::Query::new(formula, free.liberal().to_vec()).unwrap();
        let sig = data::digraph_signature();
        let dec = plus_decomposition(&query, &sig).unwrap();
        let b = data::random_digraph(&mut StdRng::seed_from_u64(sseed), 2, 0.5);
        let mut oracle_fn = |d: &epq_structures::Structure| {
            count_ep_with(&dec, query.liberal_count(), d, &FptEngine, 1)
        };
        let recovered =
            oracle::recover_plus_counts(&dec, query.liberal_count(), &b, &mut oracle_fn);
        prop_assert_eq!(recovered.len(), dec.plus.len());
        for (formula, count) in &recovered {
            let direct = brute::count_pp_brute(formula, &b);
            prop_assert_eq!(count, &direct, "formula {}", formula);
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn batch_counts_match_sequential_loop_at_every_thread_count(
        qseed in 0u64..10_000,
        sseed in 0u64..10_000,
        batch in 1usize..=12,
        n in 1usize..=4,
    ) {
        let query = queries::random_ucq(&mut StdRng::seed_from_u64(qseed), 2, 3, 2, 0.3);
        let sig = data::digraph_signature();
        let structures =
            data::random_digraph_batch(&mut StdRng::seed_from_u64(sseed), batch, n, 0.4);
        let prepared = PreparedQuery::prepare(&query, &sig).unwrap();
        // The reference: one-at-a-time counting through the plain API
        // (itself cross-checked against brute force elsewhere).
        let sequential: Vec<_> = structures
            .iter()
            .map(|b| count_ep(&query, &sig, b, &FptEngine).unwrap())
            .collect();
        for threads in [1usize, 2, 4] {
            prop_assert_eq!(
                prepared.count_batch(&structures, threads),
                sequential.clone(),
                "threads = {}", threads
            );
        }
        prop_assert_eq!(
            prepared.count_batch(&structures, epq_pool::available_threads()),
            sequential
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// The streaming tentpole invariant: after **every** checkpoint of
    /// a random insert sequence, `LiveCount::current` equals a
    /// from-scratch `PreparedQuery::count` on the same snapshot — for
    /// the cached-relalg maintenance path and for the DP-table (fpt)
    /// fallback path, each at 1/2/4 prepared worker threads, with a
    /// brute-force cross-check on the final structure.
    #[test]
    fn live_count_agrees_with_recount_after_random_inserts(
        qseed in 0u64..10_000,
        lseed in 0u64..10_000,
        n in 1usize..=4,
        inserts in 1usize..=24,
        checkpoint_every in 1usize..=5,
        e_weight in 0u32..=3,
    ) {
        // A random two-relation UCQ (some draws include sentence
        // disjuncts via fully-quantified random CQs) over a random
        // skew between the two relations.
        let sig = epq_structures::Signature::from_symbols([("E", 2), ("F", 2)]);
        let query = queries::random_ucq_over(
            &mut StdRng::seed_from_u64(qseed), &sig, 2, 3, 2, 0.3);
        let log = data::random_insert_log(
            &mut StdRng::seed_from_u64(lseed),
            &sig,
            n,
            inserts,
            checkpoint_every,
            &[e_weight, 1],
        );

        // Maintenance configurations: cached relational algebra, then
        // the DP-table (fpt) fallback, each at three thread caps.
        let mut maintainers: Vec<LiveCount> = Vec::new();
        for relalg in [true, false] {
            for threads in [1usize, 2, 4] {
                let mut prepared = PreparedQuery::prepare_uncached(&query, &sig)
                    .unwrap()
                    .with_threads(threads);
                if relalg {
                    prepared = prepared.with_engine(Box::new(RelalgEngine));
                }
                let m = LiveCount::new(prepared, log.open()).unwrap();
                prop_assert_eq!(m.uses_cached_relalg(), relalg);
                maintainers.push(m);
            }
        }

        for op in &log.ops {
            let counts: Vec<_> = maintainers
                .iter_mut()
                .map(|m| m.apply(op))
                .collect();
            if let Some(Some(first)) = counts.first() {
                let reference = maintainers[0].recount_from_scratch();
                prop_assert_eq!(first, &reference, "cached relalg (1 thread) vs recount");
                for (i, count) in counts.iter().enumerate() {
                    prop_assert_eq!(
                        count.as_ref().unwrap(),
                        &reference,
                        "maintainer {} vs recount", i
                    );
                }
            }
        }
        // Final cross-check against ground truth on the full replay.
        let final_structure = log.replay();
        let expected = brute::count_ep_brute(&query, &final_structure);
        for (i, m) in maintainers.iter_mut().enumerate() {
            prop_assert_eq!(&m.current(), &expected, "maintainer {} vs brute force", i);
        }
    }
}

/// The `φ*` merge as it was before fingerprint bucketing: each term is
/// tested against every earlier merged term. The oracle for
/// `bucketed_merge_is_the_all_pairs_merge`.
fn merge_all_pairs(terms: Vec<SignedPp>) -> Vec<SignedPp> {
    let mut merged: Vec<SignedPp> = Vec::new();
    for term in terms {
        match merged
            .iter_mut()
            .find(|m| counting_equivalent(&m.formula, &term.formula))
        {
            Some(m) => m.coefficient += &term.coefficient,
            None => merged.push(term),
        }
    }
    merged.retain(|m| !m.coefficient.is_zero());
    merged
}

/// The free normalized disjuncts of a random UCQ in ucq-churn's shape:
/// `{E/2, F/2}`, 4 variables, 2 atoms per disjunct, quantify 0.35.
fn churn_free_disjuncts(qseed: u64, disjuncts: usize) -> Vec<PpFormula> {
    let sig = Signature::from_symbols([("E", 2), ("F", 2)]);
    let query = queries::random_ucq_over(
        &mut StdRng::seed_from_u64(qseed),
        &sig,
        disjuncts,
        4,
        2,
        0.35,
    );
    dnf::normalize(dnf::disjuncts(&query, &sig).unwrap())
        .into_iter()
        .filter(|d| d.is_free())
        .collect()
}

/// `f` rebuilt through `PpFormula::from_parts` with its liberal elements
/// permuted among themselves and its quantified elements permuted among
/// themselves.
fn relabeled(f: &PpFormula, rng: &mut StdRng) -> PpFormula {
    use rand::Rng;
    let s = f.liberal_count();
    let n = f.structure().universe_size();
    let mut shuffled = |range: std::ops::Range<usize>| {
        let mut v: Vec<usize> = range.collect();
        for i in (1..v.len()).rev() {
            v.swap(i, rng.gen_range(0..=i));
        }
        v
    };
    // Liberal element i is renamed so that sorting puts it at lib[i];
    // quantified element s + i becomes q{i}, listed in shuffled order.
    let lib = shuffled(0..s);
    let order = shuffled(0..n - s);
    let name = |e: u32| {
        let e = e as usize;
        if e < s {
            Var::new(format!("l{:02}", lib[e]))
        } else {
            Var::new(format!("q{}", e - s))
        }
    };
    let mut atoms = Vec::new();
    for (rel, rel_name, _) in f.signature().iter() {
        for t in f.structure().relation(rel).tuples() {
            atoms.push(Atom::new(rel_name, t.iter().map(|&e| name(e)).collect()));
        }
    }
    PpFormula::from_parts(
        f.signature(),
        (0..s as u32).map(name).collect(),
        order.iter().map(|&i| name((s + i) as u32)).collect(),
        &atoms,
    )
    .unwrap()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// `star` buckets terms by the fingerprints of their cores; the
    /// result must be bit-identical to the all-pairs merge: same terms,
    /// same coefficients, same order. Every pair the search merges must
    /// share a fingerprint, or bucketing could split it.
    #[test]
    fn bucketed_merge_is_the_all_pairs_merge(
        qseed in 0u64..100_000,
        disjuncts in 2usize..=5,
    ) {
        let free = churn_free_disjuncts(qseed, disjuncts);
        prop_assume!(!free.is_empty());
        let raw = inclusion_exclusion_terms(&free);
        let prints: Vec<_> = raw.iter().map(|t| renaming_fingerprint(&t.formula)).collect();
        for i in 0..raw.len() {
            for j in i + 1..raw.len() {
                if counting_equivalent(&raw[i].formula, &raw[j].formula) {
                    prop_assert_eq!(&prints[i], &prints[j], "terms {} and {}", i, j);
                }
            }
        }
        let expected = merge_all_pairs(raw);
        let actual = star(&free);
        prop_assert_eq!(actual.len(), expected.len());
        for (a, e) in actual.iter().zip(&expected) {
            prop_assert_eq!(&a.coefficient, &e.coefficient);
            // Equal formulas, not merely counting-equivalent ones.
            prop_assert_eq!(&a.formula, &e.formula);
        }
    }

    /// The fingerprint of a core does not change when its liberal
    /// elements are permuted among themselves and its quantified
    /// elements among themselves.
    #[test]
    fn fingerprints_survive_liberal_preserving_relabelings(
        qseed in 0u64..100_000,
        pseed in 0u64..100_000,
        disjuncts in 2usize..=5,
    ) {
        let free = churn_free_disjuncts(qseed, disjuncts);
        prop_assume!(!free.is_empty());
        let mut rng = StdRng::seed_from_u64(pseed);
        for term in star(&free) {
            let moved = relabeled(&term.formula, &mut rng);
            prop_assert!(counting_equivalent(&moved, &term.formula));
            prop_assert_eq!(
                renaming_fingerprint(&moved),
                renaming_fingerprint(&term.formula),
                "{} vs {}", moved, term.formula
            );
        }
    }
}
