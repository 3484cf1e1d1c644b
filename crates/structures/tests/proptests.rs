//! Property tests for the structures substrate: homomorphism counting
//! laws under products and unions, core idempotence, parse/display
//! round-trips, augmentation pinning, `core_of`'s skipped probes, and
//! the sorted tuple store against a `BTreeSet` model.

use epq_bigint::Natural;
use epq_structures::{core, hom, iso, ops, parse, LiveStructure, RelId, Signature, Structure};
use proptest::prelude::*;
use std::collections::BTreeSet;

/// Strategy: a random digraph structure on up to 4 elements (an edge
/// mask over ordered pairs, loops included).
fn small_digraph() -> impl Strategy<Value = Structure> {
    (1usize..=4, any::<u32>()).prop_map(|(n, mask)| {
        let sig = Signature::from_symbols([("E", 2)]);
        let mut s = Structure::new(sig, n);
        let mut bit = 0;
        for u in 0..n as u32 {
            for v in 0..n as u32 {
                if mask & (1 << (bit % 32)) != 0 {
                    s.add_tuple_named("E", &[u, v]);
                }
                bit += 1;
            }
        }
        s
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn hom_counts_multiply_over_products(
        a in small_digraph(), b in small_digraph(), c in small_digraph(),
    ) {
        // |Hom(A, B×C)| = |Hom(A,B)| · |Hom(A,C)| (universal property).
        let product = ops::direct_product(&b, &c);
        let lhs = hom::count_homomorphisms(&a, &product);
        let rhs = hom::count_homomorphisms(&a, &b) * hom::count_homomorphisms(&a, &c);
        prop_assert_eq!(lhs, rhs);
    }

    #[test]
    fn hom_counts_add_over_unions_for_connected_sources(
        b in small_digraph(), c in small_digraph(),
    ) {
        // For a connected source with at least one atom: |Hom(A, B+C)| =
        // |Hom(A,B)| + |Hom(A,C)|. Use a fixed connected A (a 2-path).
        let sig = Signature::from_symbols([("E", 2)]);
        let mut a = Structure::new(sig, 3);
        a.add_tuple_named("E", &[0, 1]);
        a.add_tuple_named("E", &[1, 2]);
        let union = ops::disjoint_union(&b, &c);
        let lhs = hom::count_homomorphisms(&a, &union);
        let rhs = hom::count_homomorphisms(&a, &b) + hom::count_homomorphisms(&a, &c);
        prop_assert_eq!(lhs, rhs);
    }

    #[test]
    fn every_found_hom_is_a_hom(a in small_digraph(), b in small_digraph()) {
        if let Some(h) = hom::find_homomorphism(&a, &b) {
            prop_assert!(hom::is_homomorphism(&a, &b, &h));
        } else {
            // No hom found: counting must agree.
            prop_assert_eq!(hom::count_homomorphisms(&a, &b), Natural::zero());
        }
    }

    #[test]
    fn core_is_idempotent_and_equivalent(a in small_digraph()) {
        let (core1, _) = core::core_of(&a);
        prop_assert!(core::is_core(&core1));
        prop_assert!(core::homomorphically_equivalent(&a, &core1));
        let (core2, _) = core::core_of(&core1);
        prop_assert!(iso::isomorphic(&core1, &core2));
    }

    #[test]
    fn cores_of_hom_equivalent_structures_are_isomorphic(a in small_digraph()) {
        // A and A ⊎ A are hom-equivalent; their cores must be isomorphic.
        let doubled = ops::disjoint_union(&a, &a);
        let (c1, _) = core::core_of(&a);
        let (c2, _) = core::core_of(&doubled);
        prop_assert!(iso::isomorphic(&c1, &c2));
    }

    #[test]
    fn display_parse_roundtrip(a in small_digraph()) {
        let text = a.to_string();
        let reparsed = parse::parse_structure(&text);
        // Empty relations need declared arities, which Display omits only
        // when the relation is empty — handle both outcomes.
        match reparsed {
            Ok(b) => prop_assert_eq!(a, b),
            Err(_) => {
                let e = a.signature().lookup("E").unwrap();
                prop_assert!(a.relation(e).is_empty());
            }
        }
    }

    #[test]
    fn one_point_is_terminal(a in small_digraph()) {
        let unit = ops::one_point(a.signature().clone());
        prop_assert_eq!(
            hom::count_homomorphisms(&a, &unit),
            Natural::one()
        );
    }

    #[test]
    fn padding_makes_everything_satisfiable(a in small_digraph(), b in small_digraph()) {
        let padded = ops::add_units(&b, 1);
        prop_assert!(hom::homomorphism_exists(&a, &padded));
    }

    #[test]
    fn augmentation_restricts_homs(a in small_digraph()) {
        prop_assume!(a.universe_size() >= 1);
        // Pinning all elements: the only candidate endo of aug is the identity.
        let pins: Vec<u32> = (0..a.universe_size() as u32).collect();
        let aug = ops::augment(&a, &pins);
        let count = hom::count_homomorphisms(&aug, &aug);
        prop_assert_eq!(count, Natural::one());
    }

    #[test]
    fn isomorphism_is_reflexive_and_respects_relabeling(a in small_digraph()) {
        prop_assert!(iso::isomorphic(&a, &a));
        // Relabel by reversing element order.
        let n = a.universe_size();
        let relabeled: Vec<u32> = (0..n as u32).rev().collect();
        let (b, _) = a.induced_substructure(&relabeled);
        prop_assert!(iso::isomorphic(&a, &b));
    }

    #[test]
    fn power_counts_are_powers(a in small_digraph(), b in small_digraph()) {
        let squared = ops::power(&b, 2);
        let single = hom::count_homomorphisms(&a, &b);
        let lhs = hom::count_homomorphisms(&a, &squared);
        prop_assert_eq!(lhs, &single * &single);
    }
}

/// Strategy: a random structure on up to 5 elements over `E/2`, `U/1`
/// and `V/1`. `U` always holds exactly one element; `V` holds a random
/// subset, so it is sometimes a singleton too.
fn structure_with_unary_singletons() -> impl Strategy<Value = Structure> {
    (1usize..=5, any::<u32>(), 0u32..5, any::<u32>()).prop_map(|(n, e_mask, u, v_mask)| {
        let sig = Signature::from_symbols([("E", 2), ("U", 1), ("V", 1)]);
        let mut s = Structure::new(sig, n);
        for (bit, (x, y)) in (0..n as u32)
            .flat_map(|x| (0..n as u32).map(move |y| (x, y)))
            .enumerate()
        {
            if e_mask & (1 << (bit % 32)) != 0 {
                s.add_tuple_named("E", &[x, y]);
            }
        }
        s.add_tuple_named("U", &[u % n as u32]);
        for x in 0..n as u32 {
            if v_mask & (1 << x) != 0 {
                s.add_tuple_named("V", &[x]);
            }
        }
        s
    })
}

/// `core_of` as it was before it skipped elements that cannot be
/// dropped: every element is probed.
fn core_probing_every_element(a: &Structure) -> (Structure, Vec<u32>) {
    let mut current = a.clone();
    let mut element_of: Vec<u32> = (0..a.universe_size() as u32).collect();
    'outer: loop {
        let n = current.universe_size();
        for drop in 0..n as u32 {
            let rest: Vec<u32> = (0..n as u32).filter(|&v| v != drop).collect();
            let (candidate, map) = current.induced_substructure(&rest);
            if hom::homomorphism_exists(&current, &candidate) {
                element_of = map.iter().map(|&m| element_of[m as usize]).collect();
                current = candidate;
                continue 'outer;
            }
        }
        return (current, element_of);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    #[test]
    fn skipping_undroppable_elements_keeps_the_core(a in structure_with_unary_singletons()) {
        let (core, map) = core::core_of(&a);
        prop_assert!(core::is_core(&core));
        prop_assert!(core::homomorphically_equivalent(&a, &core));
        let (reference, reference_map) = core_probing_every_element(&a);
        // The skipped probes would all have failed, so the same
        // elements are dropped in the same order.
        prop_assert_eq!(map, reference_map);
        prop_assert_eq!(core, reference);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    #[test]
    fn sorted_store_matches_a_btreeset_model(
        inserts in collection::vec((0usize..3, 0u32..3, 0u32..3, 0u32..3), 0..48),
    ) {
        // Relation r has arity r + 1; a 3-element universe makes
        // duplicate inserts common.
        let sig = Signature::from_symbols([("A", 1), ("B", 2), ("C", 3)]);
        let mut live = LiveStructure::new(sig, 3);
        let mut model: Vec<BTreeSet<Vec<u32>>> = vec![BTreeSet::new(); 3];
        for (r, x, y, z) in inserts {
            let tuple = &[x, y, z][..=r];
            let rel = RelId(r as u32);
            prop_assert_eq!(live.insert_tuple(rel, tuple), model[r].insert(tuple.to_vec()));
            let b = live.snapshot();
            for (r, expected) in model.iter().enumerate() {
                let rel = RelId(r as u32);
                let stored: Vec<Vec<u32>> = b.relation(rel).tuples().map(<[u32]>::to_vec).collect();
                prop_assert_eq!(&stored, &expected.iter().cloned().collect::<Vec<_>>());
                prop_assert_eq!(b.relation(rel).len(), expected.len());
                for code in 0..3u32.pow(r as u32 + 1) {
                    let probe: Vec<u32> = (0..=r as u32).map(|i| code / 3u32.pow(i) % 3).collect();
                    prop_assert_eq!(b.has_tuple(rel, &probe), expected.contains(&probe));
                }
            }
        }
        prop_assert_eq!(live.tuple_count(), model.iter().map(BTreeSet::len).sum::<usize>());
    }
}
