//! A structure-of-arrays arena of packed dependency functions, for the
//! learner's batched hot-path kernels.
//!
//! A [`FunctionArena`] holds every candidate function of a working set in
//! **one contiguous `u64` buffer** — function `i` occupies the word range
//! `[i·stride, (i+1)·stride)` — plus a parallel column caching each
//! function's weight. Whole-set operations (`⊑` sweeps, domination
//! scans, LUB folds) then stream over adjacent words instead of chasing one heap allocation per
//! `DependencyFunction`, so a pass over *n* functions is `n·stride`
//! sequential word reads — the memory layout the packed word kernels
//! were built for.
//!
//! The arena is append-only and read-shared: the learner builds it once
//! per sweep, wraps it in an `Arc`, and lets pool workers scan disjoint
//! index ranges. Nothing in here mutates after construction, so sharing
//! needs no locks and results cannot depend on thread interleaving.

use crate::function::DependencyFunction;
use crate::packed::{word_join, word_leq, word_weight};

/// A packed structure-of-arrays store of same-universe
/// [`DependencyFunction`]s: one contiguous word buffer (stride =
/// words-per-matrix) plus a parallel cached-weight column.
///
/// # Example
///
/// ```
/// use bbmg_lattice::{DependencyFunction, FunctionArena, TaskId};
///
/// let mut a = DependencyFunction::bottom(4);
/// a.record_message(TaskId::from_index(0), TaskId::from_index(1));
/// let b = DependencyFunction::top(4);
///
/// let mut arena = FunctionArena::new(4);
/// let ia = arena.push(&a);
/// let ib = arena.push(&b);
/// assert!(arena.leq(ia, ib));
/// assert_eq!(arena.weight(ia), a.weight());
/// assert_eq!(arena.get(ia), a);
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FunctionArena {
    tasks: usize,
    stride: usize,
    words: Vec<u64>,
    weights: Vec<u64>,
}

impl FunctionArena {
    /// An empty arena over a `tasks`-task universe.
    #[must_use]
    pub fn new(tasks: usize) -> Self {
        FunctionArena {
            tasks,
            stride: DependencyFunction::words_per_function(tasks),
            words: Vec::new(),
            weights: Vec::new(),
        }
    }

    /// An empty arena with room for `functions` entries pre-reserved.
    #[must_use]
    pub fn with_capacity(tasks: usize, functions: usize) -> Self {
        let mut arena = Self::new(tasks);
        arena.words.reserve(functions * arena.stride);
        arena.weights.reserve(functions);
        arena
    }

    /// Builds an arena holding every function of `set`, in order.
    ///
    /// # Panics
    ///
    /// Panics if a function is over a different task universe.
    #[must_use]
    pub fn from_functions<'a, I>(tasks: usize, set: I) -> Self
    where
        I: IntoIterator<Item = &'a DependencyFunction>,
    {
        let iter = set.into_iter();
        let mut arena = Self::with_capacity(tasks, iter.size_hint().0);
        for d in iter {
            arena.push(d);
        }
        arena
    }

    /// Number of tasks of the shared universe.
    #[must_use]
    pub fn task_count(&self) -> usize {
        self.tasks
    }

    /// Packed words per function (the buffer stride).
    #[must_use]
    pub fn stride(&self) -> usize {
        self.stride
    }

    /// Number of functions stored.
    #[must_use]
    pub fn len(&self) -> usize {
        self.weights.len()
    }

    /// Whether the arena holds no functions.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.weights.is_empty()
    }

    /// Total packed words stored — the work-unit size parallel gates
    /// measure sweeps in.
    #[must_use]
    pub fn total_words(&self) -> usize {
        self.words.len()
    }

    /// The word row of function `i`.
    #[inline]
    #[must_use]
    pub fn row(&self, i: usize) -> &[u64] {
        &self.words[i * self.stride..(i + 1) * self.stride]
    }

    /// The cached weight of function `i` (computed once at insertion).
    #[inline]
    #[must_use]
    pub fn weight(&self, i: usize) -> u64 {
        self.weights[i]
    }

    /// The whole cached-weight column, index-aligned with the rows (for
    /// `partition_point` prefix computations over weight-sorted arenas).
    #[must_use]
    pub fn weights(&self) -> &[u64] {
        &self.weights
    }

    /// Appends `d`, returning its index, and caches its weight.
    ///
    /// # Panics
    ///
    /// Panics if `d` is over a different task universe.
    pub fn push(&mut self, d: &DependencyFunction) -> usize {
        assert_eq!(d.task_count(), self.tasks, "mismatched task universes");
        self.push_words(d.packed_words())
    }

    /// Appends one packed store given as raw words (a valid store for
    /// this universe, e.g. the function half of a learner working-set
    /// row), returning its index.
    ///
    /// # Panics
    ///
    /// Panics if `row` is not exactly one stride long.
    pub fn push_words(&mut self, row: &[u64]) -> usize {
        assert_eq!(row.len(), self.stride, "mismatched task universes");
        self.words.extend_from_slice(row);
        self.weights.push(row.iter().map(|&w| word_weight(w)).sum());
        self.weights.len() - 1
    }

    /// Reconstructs function `i` as an owned [`DependencyFunction`].
    ///
    /// # Panics
    ///
    /// Panics if `i` is out of range.
    #[must_use]
    pub fn get(&self, i: usize) -> DependencyFunction {
        DependencyFunction::from_words(self.tasks, self.row(i).to_vec())
            .expect("arena rows are valid packed stores by construction")
    }

    /// Pointwise order between two stored functions: `i ⊑ j`.
    #[inline]
    #[must_use]
    pub fn leq(&self, i: usize, j: usize) -> bool {
        self.row(i)
            .iter()
            .zip(self.row(j))
            .all(|(&a, &b)| word_leq(a, b))
    }

    /// Whether stored function `i` is *strictly dominated* by any of the
    /// first `prefix` entries: some `j < prefix` with `row(j) ⊑ row(i)`
    /// and a strictly lower cached weight (strict domination strictly
    /// lowers weight, so the weight test doubles as the `≠` test). This
    /// is the batched redundancy kernel: one forward stream over
    /// `prefix · stride` contiguous words, early-exiting per row.
    #[must_use]
    pub fn dominated_in_prefix(&self, i: usize, prefix: usize) -> bool {
        let target = self.row(i);
        let weight = self.weights[i];
        self.weights[..prefix].iter().enumerate().any(|(j, &wj)| {
            wj < weight
                && self
                    .row(j)
                    .iter()
                    .zip(target)
                    .all(|(&a, &b)| word_leq(a, b))
        })
    }

    /// The least upper bound of every stored function, as one
    /// accumulator pass over the contiguous buffer (`⊔` is word-wise OR,
    /// so the fold never allocates an intermediate). `None` when empty.
    #[must_use]
    pub fn join_all(&self) -> Option<DependencyFunction> {
        if self.is_empty() {
            return None;
        }
        let mut acc = self.words[..self.stride].to_vec();
        for row in self.words.chunks_exact(self.stride).skip(1) {
            for (a, &b) in acc.iter_mut().zip(row) {
                *a = word_join(*a, b);
            }
        }
        Some(
            DependencyFunction::from_words(self.tasks, acc)
                .expect("a join of valid packed stores is a valid packed store"),
        )
    }

    /// Sum of the cached weight column (the batched form of per-function
    /// `weight()` calls over a whole set).
    #[must_use]
    pub fn total_weight(&self) -> u64 {
        self.weights.iter().sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::task::TaskId;
    use crate::value::DependencyValue as V;

    fn t(i: usize) -> TaskId {
        TaskId::from_index(i)
    }

    /// Deterministic scrambled matrix for arena tests.
    fn scrambled(tasks: usize, seed: u64) -> DependencyFunction {
        const VALUES: [V; 7] = [
            V::Parallel,
            V::Determines,
            V::DependsOn,
            V::Mutual,
            V::MayDetermine,
            V::MayDependOn,
            V::MayMutual,
        ];
        let mut d = DependencyFunction::bottom(tasks);
        for i in 0..tasks {
            for j in 0..tasks {
                if i == j {
                    continue;
                }
                let mut x =
                    seed.wrapping_add(((i * tasks + j) as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15));
                x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
                x ^= x >> 31;
                d.set(t(i), t(j), VALUES[(x % 7) as usize]);
            }
        }
        d
    }

    #[test]
    fn push_and_get_round_trip() {
        let mut arena = FunctionArena::new(5);
        let functions: Vec<DependencyFunction> = (0..4).map(|s| scrambled(5, s)).collect();
        for d in &functions {
            arena.push(d);
        }
        assert_eq!(arena.len(), 4);
        assert_eq!(arena.total_words(), 4 * arena.stride());
        for (i, d) in functions.iter().enumerate() {
            assert_eq!(&arena.get(i), d);
            assert_eq!(arena.weight(i), d.weight());
        }
    }

    #[test]
    fn push_words_matches_push() {
        let d = scrambled(6, 3);
        let mut arena = FunctionArena::new(6);
        arena.push_words(d.packed_words());
        assert_eq!(arena, FunctionArena::from_functions(6, [&d]));
    }

    #[test]
    fn leq_matches_function_kernel() {
        let a = scrambled(6, 1);
        let b = a.join(&scrambled(6, 2));
        let arena = FunctionArena::from_functions(6, [&a, &b]);
        assert_eq!(arena.leq(0, 1), a.leq(&b));
        assert_eq!(arena.leq(1, 0), b.leq(&a));
        assert!(arena.leq(0, 0) && arena.leq(1, 1));
    }

    #[test]
    fn dominated_in_prefix_finds_strict_dominators_only() {
        let mut below = DependencyFunction::bottom(4);
        below.record_message(t(0), t(1));
        let mut above = below.clone();
        above.join_value(t(2), t(3), V::MayDetermine);
        // Weight-sorted order: below, above, then an equal copy of above.
        let arena = FunctionArena::from_functions(4, [&below, &above, &above]);
        assert!(!arena.dominated_in_prefix(0, 0), "no prefix, no dominator");
        assert!(arena.dominated_in_prefix(1, 1), "below ⊑ above strictly");
        // An equal entry is not a *strict* dominator, but the earlier
        // strict one still is.
        assert!(arena.dominated_in_prefix(2, 2));
        let arena_eq = FunctionArena::from_functions(4, [&above, &above]);
        assert!(
            !arena_eq.dominated_in_prefix(1, 1),
            "equal weight cannot strictly dominate"
        );
    }

    #[test]
    fn join_all_is_the_fold_of_joins() {
        let functions: Vec<DependencyFunction> = (0..5).map(|s| scrambled(7, s)).collect();
        let arena = FunctionArena::from_functions(7, &functions);
        let expected = functions[1..]
            .iter()
            .fold(functions[0].clone(), |acc, d| acc.join(d));
        assert_eq!(arena.join_all(), Some(expected));
        assert_eq!(FunctionArena::new(7).join_all(), None);
    }

    #[test]
    fn total_weight_sums_the_cached_column() {
        let functions: Vec<DependencyFunction> = (0..3).map(|s| scrambled(5, s)).collect();
        let arena = FunctionArena::from_functions(5, &functions);
        assert_eq!(
            arena.total_weight(),
            functions
                .iter()
                .map(DependencyFunction::weight)
                .sum::<u64>()
        );
    }

    #[test]
    #[should_panic(expected = "mismatched task universes")]
    fn push_refuses_wrong_universe() {
        let mut arena = FunctionArena::new(4);
        arena.push(&DependencyFunction::bottom(5));
    }
}
