//! Shared invariant checks over packed stores and hypothesis sets.
//!
//! These are the pass kernels behind both the offline `bbmg-audit`
//! analyzer and the in-process `debug-invariants` hooks in `bbmg-core` /
//! `bbmg-serve`: a single implementation, so the static analyzer and the
//! runtime assertions can never drift apart.
//!
//! [`check_packed_store`] validates a raw word vector against the shape
//! and encoding invariants of [`DependencyFunction`] — exactly the checks
//! [`DependencyFunction::from_words`] performs (it delegates here) — using
//! branch-free plane arithmetic: a cell is the invalid lone-`Q` code `100`
//! iff its `Q` bit is set while both directional bits are clear, so one
//! word-sized expression `q & !f & !b` finds every invalid cell in 21
//! lanes at once, and a per-word valid-lane mask finds dirty padding
//! without re-packing.
//!
//! [`antichain_violation`] checks the learner's core structural invariant:
//! the hypothesis set is an antichain under `⊑_D` (pairwise
//! non-domination), with no duplicates.

use crate::function::{DependencyFunction, FunctionDecodeError};
use crate::packed::{BITS_PER_CELL, CELLS_PER_WORD, FORWARD_PLANE};

/// Mask covering the low `lanes` 3-bit cells of a word (everything else,
/// including bit 63, is padding).
fn lane_mask(lanes: usize) -> u64 {
    if lanes >= CELLS_PER_WORD {
        (1 << (BITS_PER_CELL * CELLS_PER_WORD)) - 1
    } else {
        (1 << (BITS_PER_CELL * lanes)) - 1
    }
}

/// Validates a serialized packed store against every
/// [`DependencyFunction`] invariant: word count matches the task count,
/// every used cell decodes to one of the seven valid codes, the diagonal
/// is `‖`, and every padding bit (trailing lanes past `n²`, bit 63 of
/// each word) is zero so fingerprints and word equality are canonical.
///
/// Reports the *first* violation in the same order
/// [`DependencyFunction::from_words`] historically did: ascending cell
/// index with `InvalidCell` taking precedence over `DiagonalNotParallel`
/// at the same cell, and `DirtyPadding` only after all cells check out.
///
/// # Errors
///
/// Returns a [`FunctionDecodeError`] naming the first violated invariant.
pub fn check_packed_store(tasks: usize, words: &[u64]) -> Result<(), FunctionDecodeError> {
    let expected = DependencyFunction::words_per_function(tasks);
    if words.len() != expected {
        return Err(FunctionDecodeError::WordCount {
            tasks,
            expected,
            actual: words.len(),
        });
    }
    let cells = tasks * tasks;

    // Lowest cell holding the invalid lone-Q code 100: Q set, F and B
    // clear, restricted to the lanes actually used by this word.
    let first_invalid = words.iter().enumerate().find_map(|(wi, &w)| {
        let used = cells
            .saturating_sub(wi * CELLS_PER_WORD)
            .min(CELLS_PER_WORD);
        let f = w & FORWARD_PLANE;
        let b = (w >> 1) & FORWARD_PLANE;
        let q = (w >> 2) & FORWARD_PLANE;
        let bad = q & !f & !b & (lane_mask(used) & FORWARD_PLANE);
        (bad != 0).then(|| wi * CELLS_PER_WORD + bad.trailing_zeros() as usize / BITS_PER_CELL)
    });

    // Lowest non-‖ diagonal cell; the diagonal is sparse, so direct
    // indexing beats a plane sweep.
    let first_diagonal = (0..tasks).find(|&t| {
        let idx = t * tasks + t;
        let lane = idx % CELLS_PER_WORD;
        (words[idx / CELLS_PER_WORD] >> (BITS_PER_CELL * lane)) & 0b111 != 0
    });

    match (first_invalid, first_diagonal) {
        (Some(i), Some(t)) if t * tasks + t < i => {
            return Err(FunctionDecodeError::DiagonalNotParallel { task: t });
        }
        (Some(i), _) => return Err(FunctionDecodeError::InvalidCell { index: i }),
        (None, Some(t)) => return Err(FunctionDecodeError::DiagonalNotParallel { task: t }),
        (None, None) => {}
    }

    if let Some(word) = words.iter().enumerate().find_map(|(wi, &w)| {
        let used = cells
            .saturating_sub(wi * CELLS_PER_WORD)
            .min(CELLS_PER_WORD);
        (w & !lane_mask(used) != 0).then_some(wi)
    }) {
        return Err(FunctionDecodeError::DirtyPadding { word });
    }
    Ok(())
}

/// Convenience wrapper: validates an already-constructed function's
/// packed store. A well-behaved [`DependencyFunction`] always passes;
/// this exists for defense-in-depth audits of deserialized state.
///
/// # Errors
///
/// Returns a [`FunctionDecodeError`] naming the first violated invariant.
pub fn check_function(d: &DependencyFunction) -> Result<(), FunctionDecodeError> {
    check_packed_store(d.task_count(), d.packed_words())
}

/// The first misplaced bit of a per-period assumption bitset over a
/// `tasks`-task universe (bit `s·tasks + r` records an assumed message
/// `s → r`): a bit on the diagonal (no task messages itself) or at or
/// past `tasks²`. `None` if every set bit names an ordered pair of
/// distinct tasks.
#[must_use]
pub fn stray_assumption_bit(tasks: usize, words: &[u64]) -> Option<usize> {
    let set = |bit: usize| words[bit / 64] >> (bit % 64) & 1 != 0;
    let stray = |bit: usize| bit >= tasks * tasks || bit.is_multiple_of(tasks + 1);
    (0..words.len() * 64).find(|&bit| set(bit) && stray(bit))
}

/// How a hypothesis set fails to be an antichain, reported by
/// [`antichain_violation`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum AntichainViolation {
    /// Two hypotheses are equal (`⊑` in both directions).
    Duplicate {
        /// Index of the first copy.
        left: usize,
        /// Index of the second copy.
        right: usize,
    },
    /// One hypothesis is strictly below another, so it carries no
    /// information the set does not already have.
    Dominated {
        /// Index of the dominated (strictly lower) hypothesis.
        lower: usize,
        /// Index of the dominating hypothesis.
        upper: usize,
    },
}

impl std::fmt::Display for AntichainViolation {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            AntichainViolation::Duplicate { left, right } => {
                write!(f, "hypotheses {left} and {right} are identical")
            }
            AntichainViolation::Dominated { lower, upper } => {
                write!(
                    f,
                    "hypotheses {lower} and {upper} are comparable ({lower} \u{2291} {upper})"
                )
            }
        }
    }
}

/// Checks that `hypotheses` forms an antichain under the pointwise order
/// `⊑_D`: no duplicates, no domination. Returns the first violation in
/// ascending pair order, or `None` if the set is a valid antichain.
///
/// Runs the packed `leq` word kernels pairwise — `O(k² · n²/21)` — which
/// is fine at audit time and behind the `debug-invariants` feature.
///
/// # Panics
///
/// Panics if the hypotheses are over different task universes.
#[must_use]
pub fn antichain_violation<F: std::borrow::Borrow<DependencyFunction>>(
    hypotheses: &[F],
) -> Option<AntichainViolation> {
    for i in 0..hypotheses.len() {
        for j in i + 1..hypotheses.len() {
            let forward = hypotheses[i].borrow().leq(hypotheses[j].borrow());
            let backward = hypotheses[j].borrow().leq(hypotheses[i].borrow());
            match (forward, backward) {
                (true, true) => return Some(AntichainViolation::Duplicate { left: i, right: j }),
                (true, false) => return Some(AntichainViolation::Dominated { lower: i, upper: j }),
                (false, true) => return Some(AntichainViolation::Dominated { lower: j, upper: i }),
                (false, false) => {}
            }
        }
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::task::TaskId;
    use crate::value::DependencyValue as V;

    fn t(i: usize) -> TaskId {
        TaskId::from_index(i)
    }

    #[test]
    fn assumption_bits_must_name_distinct_pairs() {
        // 3 tasks: cells 1, 2, 3, 5, 6, 7 are off-diagonal.
        assert_eq!(stray_assumption_bit(3, &[0b1110_1110]), None);
        assert_eq!(stray_assumption_bit(3, &[0b1_0000]), Some(4), "diagonal");
        assert_eq!(stray_assumption_bit(3, &[1 << 9]), Some(9), "past t²");
        assert_eq!(stray_assumption_bit(9, &[0, 1 << 1]), None);
        assert_eq!(
            stray_assumption_bit(9, &[0, 1 << 6]),
            Some(70),
            "second word"
        );
    }

    #[test]
    fn clean_stores_pass() {
        for n in 0..8 {
            let top = DependencyFunction::top(n);
            assert_eq!(
                check_packed_store(n, top.packed_words()),
                Ok(()),
                "top({n})"
            );
            assert_eq!(check_function(&DependencyFunction::bottom(n)), Ok(()));
        }
    }

    #[test]
    fn matches_from_words_on_seeded_corruption() {
        let mut d = DependencyFunction::bottom(3);
        d.record_message(t(0), t(1));
        let clean = d.packed_words().to_vec();

        let mut words = clean.clone();
        words[0] |= 0b100 << (BITS_PER_CELL * 2);
        assert_eq!(
            check_packed_store(3, &words),
            Err(FunctionDecodeError::InvalidCell { index: 2 })
        );

        let mut words = clean.clone();
        words[0] |= 0b011 << (BITS_PER_CELL * 4);
        assert_eq!(
            check_packed_store(3, &words),
            Err(FunctionDecodeError::DiagonalNotParallel { task: 1 })
        );

        let mut words = clean.clone();
        words[0] |= 1 << (BITS_PER_CELL * 10);
        assert_eq!(
            check_packed_store(3, &words),
            Err(FunctionDecodeError::DirtyPadding { word: 0 })
        );

        let mut words = clean;
        words[0] |= 1 << 63;
        assert_eq!(
            check_packed_store(3, &words),
            Err(FunctionDecodeError::DirtyPadding { word: 0 })
        );
    }

    #[test]
    fn word_count_mismatch_is_first() {
        // Wrong length wins over any content problem.
        assert_eq!(
            check_packed_store(5, &[u64::MAX]),
            Err(FunctionDecodeError::WordCount {
                tasks: 5,
                expected: 2,
                actual: 1
            })
        );
    }

    #[test]
    fn lowest_cell_wins_and_invalid_beats_diagonal_at_same_cell() {
        // Diagonal cell 0 holding the invalid code 100 reports InvalidCell,
        // matching the historical from_words scan order.
        let words = vec![0b100u64];
        assert_eq!(
            check_packed_store(2, &words),
            Err(FunctionDecodeError::InvalidCell { index: 0 })
        );
        // A diagonal violation at cell 0 precedes an invalid cell at 2.
        let words = vec![0b001 | (0b100 << (BITS_PER_CELL * 2))];
        assert_eq!(
            check_packed_store(2, &words),
            Err(FunctionDecodeError::DiagonalNotParallel { task: 0 })
        );
        // An invalid cell at 1 precedes a diagonal violation at 3.
        let words = vec![(0b100 << BITS_PER_CELL) | (0b001 << (BITS_PER_CELL * 3))];
        assert_eq!(
            check_packed_store(2, &words),
            Err(FunctionDecodeError::InvalidCell { index: 1 })
        );
    }

    #[test]
    fn padding_reported_last_and_in_later_words() {
        // 5 tasks → 25 cells → word 1 uses 4 lanes; lane 5 of word 1 is
        // padding.
        let mut words = vec![0u64; 2];
        words[1] |= 0b001 << (BITS_PER_CELL * 5);
        assert_eq!(
            check_packed_store(5, &words),
            Err(FunctionDecodeError::DirtyPadding { word: 1 })
        );
        // A cell violation anywhere still wins over padding.
        words[0] |= 0b100 << BITS_PER_CELL;
        assert_eq!(
            check_packed_store(5, &words),
            Err(FunctionDecodeError::InvalidCell { index: 1 })
        );
    }

    #[test]
    fn antichain_detects_duplicates_and_domination() {
        let mut a = DependencyFunction::bottom(3);
        a.record_message(t(0), t(1));
        let mut b = DependencyFunction::bottom(3);
        b.record_message(t(1), t(2));

        assert_eq!(antichain_violation(&[a.clone(), b.clone()]), None);
        assert_eq!(antichain_violation::<DependencyFunction>(&[]), None);
        assert_eq!(antichain_violation(std::slice::from_ref(&a)), None);

        assert_eq!(
            antichain_violation(&[a.clone(), b.clone(), a.clone()]),
            Some(AntichainViolation::Duplicate { left: 0, right: 2 })
        );

        let mut above = a.clone();
        above.join_value(t(0), t(1), V::MayMutual);
        assert_eq!(
            antichain_violation(&[a.clone(), above.clone()]),
            Some(AntichainViolation::Dominated { lower: 0, upper: 1 })
        );
        assert_eq!(
            antichain_violation(&[above, a.clone()]),
            Some(AntichainViolation::Dominated { lower: 1, upper: 0 })
        );

        let bot = DependencyFunction::bottom(3);
        assert_eq!(
            antichain_violation(&[a, b, bot]),
            Some(AntichainViolation::Dominated { lower: 2, upper: 0 })
        );
    }

    #[test]
    fn violations_display() {
        assert!(AntichainViolation::Duplicate { left: 1, right: 4 }
            .to_string()
            .contains("identical"));
        assert!(AntichainViolation::Dominated { lower: 0, upper: 2 }
            .to_string()
            .contains("comparable"));
    }
}
