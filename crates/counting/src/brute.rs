//! Brute-force counting by assignment enumeration (ground truth).

use epq_bigint::Natural;
use epq_logic::{PpFormula, Query};
use epq_structures::Structure;

/// Counts `|φ(B)|` for an arbitrary ep-query by enumerating all
/// `|B|^|lib(φ)|` assignments and evaluating the formula directly
/// (existential quantifiers scan the universe recursively).
///
/// Exponential — the reference implementation everything else is checked
/// against.
pub fn count_ep_brute(query: &Query, b: &Structure) -> Natural {
    let liberal = query.liberal();
    let formula = query.formula().bind(b.signature(), liberal);
    let mut env = vec![0; formula.slots()];
    let mut count = Natural::zero();
    let one = Natural::one();
    for_each_assignment(b.universe_size(), liberal.len(), &mut |values| {
        env[..values.len()].copy_from_slice(values);
        if formula.holds(b, &mut env) {
            count += &one;
        }
    });
    count
}

/// Counts `|φ(B)|` for a pp-formula by enumerating liberal assignments and
/// testing homomorphism extension (the Chandra–Merlin criterion).
pub fn count_pp_brute(pp: &PpFormula, b: &Structure) -> Natural {
    let mut count = Natural::zero();
    let one = Natural::one();
    for_each_assignment(b.universe_size(), pp.liberal_count(), &mut |values| {
        if pp.satisfied_by(b, values) {
            count += &one;
        }
    });
    count
}

/// Counts the union of disjunct answer sets by enumeration: an assignment
/// is counted once if *some* disjunct accepts it. All disjuncts must share
/// the same liberal variable set (the disjunctive-form invariant).
pub fn count_disjuncts_brute(disjuncts: &[PpFormula], b: &Structure) -> Natural {
    if disjuncts.is_empty() {
        return Natural::zero();
    }
    let s = disjuncts[0].liberal_count();
    for d in disjuncts {
        assert_eq!(
            d.liberal_names(),
            disjuncts[0].liberal_names(),
            "disjuncts must share the liberal variable set"
        );
    }
    let mut count = Natural::zero();
    let one = Natural::one();
    for_each_assignment(b.universe_size(), s, &mut |values| {
        if disjuncts.iter().any(|d| d.satisfied_by(b, values)) {
            count += &one;
        }
    });
    count
}

/// Calls `visit` on every tuple in `{0..domain}^arity` (a single empty
/// tuple for arity 0).
pub fn for_each_assignment(domain: usize, arity: usize, visit: &mut impl FnMut(&[u32])) {
    let mut values = vec![0u32; arity];
    if arity == 0 {
        visit(&values);
        return;
    }
    if domain == 0 {
        return;
    }
    loop {
        visit(&values);
        // Odometer increment.
        let mut i = 0;
        loop {
            values[i] += 1;
            if (values[i] as usize) < domain {
                break;
            }
            values[i] = 0;
            i += 1;
            if i == arity {
                return;
            }
        }
    }
}

/// The size of the assignment space `{0..domain}^arity`, or `None` on
/// `u128` overflow (such spaces are far beyond brute-force reach).
pub fn assignment_space(domain: usize, arity: usize) -> Option<u128> {
    (domain as u128).checked_pow(u32::try_from(arity).ok()?)
}

/// Calls `visit` on the assignments with flat index in `start..end`,
/// where index `i` denotes the tuple whose `j`-th coordinate is the
/// `j`-th least-significant base-`domain` digit of `i` — exactly the
/// order [`for_each_assignment`] visits, so concatenating the ranges of
/// a partition of `0..domain^arity` replays the full enumeration.
///
/// This is the sharding primitive of the parallel brute-force engine:
/// each worker sweeps one contiguous index range.
pub fn for_each_assignment_in_range(
    domain: usize,
    arity: usize,
    start: u128,
    end: u128,
    visit: &mut impl FnMut(&[u32]),
) {
    if start >= end {
        return;
    }
    if arity == 0 {
        // The single empty tuple has index 0.
        if start == 0 {
            visit(&[]);
        }
        return;
    }
    if domain == 0 {
        return;
    }
    // Decode `start` into odometer digits (variable 0 least significant).
    let mut values = vec![0u32; arity];
    let mut rest = start;
    for v in values.iter_mut() {
        *v = (rest % domain as u128) as u32;
        rest /= domain as u128;
    }
    debug_assert_eq!(rest, 0, "start index out of the assignment space");
    let mut remaining = end - start;
    loop {
        visit(&values);
        remaining -= 1;
        if remaining == 0 {
            return;
        }
        let mut i = 0;
        loop {
            values[i] += 1;
            if (values[i] as usize) < domain {
                break;
            }
            values[i] = 0;
            i += 1;
            if i == arity {
                return;
            }
        }
    }
}

/// Counts `|φ(B)|` like [`count_pp_brute`], but sweeps the assignment
/// space in parallel: the flat index range `0..|B|^|lib|` is split into
/// contiguous shards (a few per worker, so the atomic job cursor
/// balances uneven satisfiability checks) and the per-shard partial
/// counts are summed in shard order — the result is bit-identical to
/// the sequential count at every thread count. At one thread (or on a
/// space too small to split) it is [`count_pp_brute`], inline.
pub fn count_pp_brute_par(pp: &PpFormula, b: &Structure, threads: usize) -> Natural {
    let arity = pp.liberal_count();
    let domain = b.universe_size();
    let total = match assignment_space(domain, arity) {
        Some(t) => t,
        None => return count_pp_brute(pp, b),
    };
    if threads <= 1 || total < 2 {
        return count_pp_brute(pp, b);
    }
    let shards = epq_pool::split_ranges(total, threads.saturating_mul(4));
    let jobs: Vec<_> = shards
        .into_iter()
        .map(|(start, end)| {
            move || {
                let mut count = Natural::zero();
                let one = Natural::one();
                for_each_assignment_in_range(domain, arity, start, end, &mut |values| {
                    if pp.satisfied_by(b, values) {
                        count += &one;
                    }
                });
                count
            }
        })
        .collect();
    let mut acc = Natural::zero();
    for partial in epq_pool::run_jobs(threads, jobs) {
        acc += &partial;
    }
    acc
}

/// `|B|^k` as a [`Natural`] — the maximum possible count over `k` liberal
/// variables, used by the sentence-disjunct logic of Theorem 3.1's proof.
pub fn universe_power(b: &Structure, k: usize) -> Natural {
    Natural::from(b.universe_size()).pow(k as u32)
}

#[cfg(test)]
mod tests {
    use super::*;
    use epq_logic::parser::parse_query;
    use epq_logic::query::infer_signature;
    use epq_structures::Signature;

    fn example_c() -> Structure {
        let sig = Signature::from_symbols([("E", 2)]);
        let mut s = Structure::new(sig, 4);
        for (u, v) in [(0, 1), (1, 2), (2, 3), (3, 3)] {
            s.add_tuple_named("E", &[u, v]);
        }
        s
    }

    fn pp_of(text: &str) -> PpFormula {
        let q = parse_query(text).unwrap();
        let sig = infer_signature([q.formula()]).unwrap();
        PpFormula::from_query(&q, &sig).unwrap()
    }

    /// Parses `text` and counts it on `b` by brute force.
    fn count_text(text: &str, b: &Structure) -> Natural {
        count_ep_brute(&parse_query(text).unwrap(), b)
    }

    #[test]
    fn assignment_enumeration_covers_cube() {
        let mut seen = Vec::new();
        for_each_assignment(3, 2, &mut |v| seen.push(v.to_vec()));
        assert_eq!(seen.len(), 9);
        assert!(seen.contains(&vec![2, 2]));
        // Arity 0: one empty assignment.
        let mut count = 0;
        for_each_assignment(5, 0, &mut |_| count += 1);
        assert_eq!(count, 1);
        // Empty domain, positive arity: nothing.
        let mut count = 0;
        for_each_assignment(0, 2, &mut |_| count += 1);
        assert_eq!(count, 0);
    }

    #[test]
    fn range_enumeration_replays_the_full_sweep() {
        let mut full = Vec::new();
        for_each_assignment(3, 3, &mut |v| full.push(v.to_vec()));
        // Any partition of 0..27 replays the full order when concatenated.
        for cuts in [vec![0u128, 27], vec![0, 5, 27], vec![0, 1, 2, 26, 27]] {
            let mut replay = Vec::new();
            for w in cuts.windows(2) {
                for_each_assignment_in_range(3, 3, w[0], w[1], &mut |v| replay.push(v.to_vec()));
            }
            assert_eq!(replay, full, "cuts {cuts:?}");
        }
        // Degenerate ranges.
        let mut seen = 0usize;
        for_each_assignment_in_range(3, 2, 4, 4, &mut |_| seen += 1);
        assert_eq!(seen, 0);
        for_each_assignment_in_range(5, 0, 0, 1, &mut |_| seen += 1);
        assert_eq!(seen, 1);
        for_each_assignment_in_range(0, 2, 0, 1, &mut |_| seen += 1);
        assert_eq!(seen, 1);
    }

    #[test]
    fn assignment_space_sizes() {
        assert_eq!(assignment_space(3, 4), Some(81));
        assert_eq!(assignment_space(0, 2), Some(0));
        assert_eq!(assignment_space(7, 0), Some(1));
        assert_eq!(assignment_space(2, 200), None);
    }

    #[test]
    fn parallel_brute_matches_sequential() {
        let b = example_c();
        for text in [
            "E(x,y)",
            "(x,y,z) := E(x,y)",
            "(x) := exists u . E(x,u) & E(u,u)",
            "E(x,y) & E(y,z)",
            "E(x,x)",
            "exists a . E(a,a)",
        ] {
            let pp = pp_of(text);
            let expected = count_pp_brute(&pp, &b);
            for threads in [1usize, 2, 3, 8] {
                assert_eq!(
                    count_pp_brute_par(&pp, &b, threads),
                    expected,
                    "query {text} at {threads} threads"
                );
            }
        }
        // Empty universe.
        let sig = Signature::from_symbols([("E", 2)]);
        let empty = Structure::new(sig, 0);
        let pp = pp_of("E(x,y)");
        assert_eq!(count_pp_brute_par(&pp, &empty, 4).to_u64(), Some(0));
    }

    #[test]
    fn ep_and_pp_brute_agree_on_pp_queries() {
        let b = example_c();
        for text in [
            "E(x,y)",
            "(x,y,z) := E(x,y)",
            "(x) := exists u . E(x,u) & E(u,u)",
            "E(x,y) & E(y,z)",
            "E(x,x)",
        ] {
            let q = parse_query(text).unwrap();
            let pp = pp_of(text);
            assert_eq!(
                count_ep_brute(&q, &b),
                count_pp_brute(&pp, &b),
                "query {text}"
            );
        }
    }

    #[test]
    fn example_2_1_union_counts() {
        // φ(x,y,z) = E(x,y) ∨ S(y,z) vs the liberal-variable pitfall.
        let sig = Signature::from_symbols([("E", 2), ("S", 2)]);
        let mut b = Structure::new(sig, 2);
        b.add_tuple_named("E", &[0, 1]);
        b.add_tuple_named("S", &[1, 0]);
        // |φ(B)|: assignments (x,y,z) with E(x,y) (2 of them: z free) or
        // S(y,z) (2: x free); overlap when E(x,y) ∧ S(y,z) = (0,1,0): 1.
        assert_eq!(
            count_text("(x,y,z) := E(x,y) | S(y,z)", &b).to_u64(),
            Some(3)
        );
    }

    #[test]
    fn counting_disjuncts_matches_formula_union() {
        let text = "(w,x,y,z) := E(x,y) & (E(w,x) | (E(y,z) & E(z,z)))";
        let q = parse_query(text).unwrap();
        let sig = infer_signature([q.formula()]).unwrap();
        let ds = epq_logic::dnf::disjuncts(&q, &sig).unwrap();
        let b = example_c();
        assert_eq!(count_disjuncts_brute(&ds, &b), count_ep_brute(&q, &b));
    }

    #[test]
    fn sentence_counts_are_zero_or_one() {
        let b = example_c();
        assert_eq!(count_text("exists a . E(a,a)", &b).to_u64(), Some(1));
        let sig = Signature::from_symbols([("E", 2)]);
        let edgeless = Structure::new(sig, 3);
        assert_eq!(count_text("exists a . E(a,a)", &edgeless).to_u64(), Some(0));
    }

    #[test]
    fn universe_power_matches() {
        let b = example_c();
        assert_eq!(universe_power(&b, 3).to_u64(), Some(64));
        assert_eq!(universe_power(&b, 0).to_u64(), Some(1));
    }
}
