//! Property-based equivalence of the [`FunctionArena`] batched kernels
//! against the per-hypothesis packed kernels.
//!
//! The arena packs whole sets of dependency functions into one contiguous
//! word buffer with a cached weight column, and answers set-level
//! queries (`leq`, `dominated_in_prefix`, `join_all`, `total_weight`) as
//! batched sweeps over adjacent words. Each batched
//! kernel must agree exactly with the per-function packed operations on
//! individually held [`DependencyFunction`]s — over random sets sized to
//! straddle word boundaries (n = 3 → 9 cells, n = 5 → 25, n = 9 → 81)
//! and random set cardinalities.

use bbmg_lattice::{DependencyFunction, DependencyValue, FunctionArena, TaskId, ALL_VALUES};
use proptest::prelude::*;

fn value_strategy() -> impl Strategy<Value = DependencyValue> {
    prop::sample::select(ALL_VALUES.to_vec())
}

/// A random dependency function over `n` tasks.
fn function_strategy(n: usize) -> impl Strategy<Value = DependencyFunction> {
    prop::collection::vec(value_strategy(), n * n).prop_map(move |values| {
        let mut d = DependencyFunction::bottom(n);
        for i in 0..n {
            for j in 0..n {
                if i != j {
                    d.set(
                        TaskId::from_index(i),
                        TaskId::from_index(j),
                        values[i * n + j],
                    );
                }
            }
        }
        d
    })
}

/// A random same-universe set of 1–8 functions, universe sized to
/// straddle word boundaries.
fn function_sets() -> impl Strategy<Value = Vec<DependencyFunction>> {
    prop::sample::select(vec![3usize, 5, 9])
        .prop_flat_map(|n| prop::collection::vec(function_strategy(n), 1..=8))
}

proptest! {
    #[test]
    fn arena_round_trips_functions_and_weights(
        set in function_sets()
    ) {
        let arena = FunctionArena::from_functions(set[0].task_count(), set.iter());
        prop_assert_eq!(arena.len(), set.len());
        prop_assert_eq!(arena.total_words(), set.len() * set[0].packed_words().len());
        for (i, d) in set.iter().enumerate() {
            prop_assert_eq!(&arena.get(i), d, "row {} round trip", i);
            prop_assert_eq!(arena.row(i), d.packed_words(), "row {} words", i);
            prop_assert_eq!(arena.weight(i), d.weight(), "row {} cached weight", i);
        }
        prop_assert_eq!(
            arena.total_weight(),
            set.iter().map(DependencyFunction::weight).sum::<u64>()
        );
    }

    #[test]
    fn batched_leq_matches_per_function_leq(
        set in function_sets()
    ) {
        let arena = FunctionArena::from_functions(set[0].task_count(), set.iter());
        for i in 0..set.len() {
            for j in 0..set.len() {
                prop_assert_eq!(
                    arena.leq(i, j),
                    set[i].leq(&set[j]),
                    "leq({}, {})", i, j
                );
            }
        }
    }

    #[test]
    fn batched_domination_matches_scalar_prefix_scan(
        set in function_sets()
    ) {
        // The learner's usage pattern: weight-sorted set, each entry
        // probed against its strictly-lighter prefix.
        let mut sorted = set;
        sorted.sort_by_key(DependencyFunction::weight);
        let arena = FunctionArena::from_functions(sorted[0].task_count(), sorted.iter());
        let weights: Vec<u64> = sorted.iter().map(DependencyFunction::weight).collect();
        for i in 0..sorted.len() {
            let prefix = weights.partition_point(|&w| w < weights[i]);
            let scalar = sorted[..prefix].iter().any(|other| other.leq(&sorted[i]));
            prop_assert_eq!(
                arena.dominated_in_prefix(i, prefix),
                scalar,
                "dominated_in_prefix({}, {})", i, prefix
            );
        }
    }

    #[test]
    fn batched_join_all_matches_fold_of_joins(
        set in function_sets()
    ) {
        let arena = FunctionArena::from_functions(set[0].task_count(), set.iter());
        let mut iter = set.iter();
        let first = iter.next().expect("sets are nonempty").clone();
        let scalar = iter.fold(first, |acc, d| acc.join(d));
        prop_assert_eq!(arena.join_all(), Some(scalar));
    }
}
