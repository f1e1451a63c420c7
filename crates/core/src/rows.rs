//! The learner's per-period working set: flat packed rows.
//!
//! Within a period every hypothesis is one *row* of a single `Vec<u64>`:
//! the function's packed words ([`bbmg_lattice::packed`]) followed by a
//! `⌈t²/64⌉`-word assumption bitset whose bit `s·t + r` records that the
//! row already explained a message `s → r` this period (a pair carries at
//! most one message per period). Branching, the assumed-pair test,
//! merging, weighting and fingerprinting are word operations on rows; no
//! child allocates. Rows exist only inside
//! [`Learner::observe`](crate::Learner::observe).

use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hasher};
use std::ops::Range;

use bbmg_lattice::packed::{cell_slot, encode, word_weaken, word_weight, BITS_PER_CELL, CELL_MASK};
use bbmg_lattice::{DependencyFunction, DependencyValue, TaskId, TaskSet};

/// The word layout of one row over a `tasks`-task universe.
#[derive(Clone, Copy)]
pub(crate) struct RowShape {
    tasks: usize,
    /// Packed function words at the head of a row.
    function: usize,
    /// Function words plus assumption words.
    stride: usize,
}

/// One branching step of a message, precomputed once per candidate pair:
/// the value to join into the forward cell `d(s, r)` and the backward
/// cell `d(r, s)`, and the `(word, bits)` to OR into the assumption
/// bitset.
#[derive(Clone, Copy)]
pub(crate) struct Branch {
    forward: Cell,
    backward: Cell,
    assumption: (usize, u64),
}

/// A cube code to OR into one cell of a row: word index, bit shift.
#[derive(Clone, Copy)]
struct Cell {
    word: usize,
    shift: usize,
    code: u64,
}

/// The weight (`s²`, `s` = bits set) of each 3-bit cube code.
const CELL_WEIGHT: [u64; 8] = [0, 1, 1, 4, 1, 4, 4, 9];

impl Cell {
    /// ORs the code into `word`, returning the new word and the weight it
    /// adds: only this cell changes, so the delta is a table lookup of
    /// its old and new codes instead of two whole-word weights.
    #[inline]
    fn join(self, word: u64) -> (u64, u64) {
        let old = (word >> self.shift) & CELL_MASK;
        let new = old | self.code;
        (
            word | self.code << self.shift,
            CELL_WEIGHT[new as usize] - CELL_WEIGHT[old as usize],
        )
    }
}

impl RowShape {
    pub(crate) fn new(tasks: usize) -> Self {
        let function = DependencyFunction::words_per_function(tasks);
        RowShape {
            tasks,
            function,
            stride: function + (tasks * tasks).div_ceil(64),
        }
    }

    /// The weight of a row's function (paper Definition 8).
    pub(crate) fn weight(&self, row: &[u64]) -> u64 {
        row[..self.function].iter().map(|&w| word_weight(w)).sum()
    }

    /// A fingerprint of the whole row, function and assumptions: equal
    /// rows have equal fingerprints, so dedup compares words only on a
    /// fingerprint hit. It finalizes a plain sum of per-word terms, so a
    /// child's fingerprint follows from its parent's sum by swapping the
    /// terms of the few words the branch changed (see
    /// [`Rows::children`]). Never persisted.
    pub(crate) fn fingerprint(&self, row: &[u64]) -> u64 {
        finalize(self.fingerprint_sum(row))
    }

    fn fingerprint_sum(&self, row: &[u64]) -> u64 {
        let terms = row.iter().enumerate().map(|(i, &w)| term(i, w));
        terms.fold(self.tasks as u64, u64::wrapping_add)
    }

    /// The branch assuming a message `sender → receiver` (the `d1jk`
    /// construction of §3.1): join `forward` into `d(sender, receiver)`
    /// and `backward` into `d(receiver, sender)` — joins are ORs in the
    /// cube encoding — and record the pair.
    pub(crate) fn branch(
        &self,
        sender: TaskId,
        receiver: TaskId,
        forward: DependencyValue,
        backward: DependencyValue,
    ) -> Branch {
        let cell = |from: TaskId, to: TaskId, value| {
            let (word, shift) = cell_slot(from.index() * self.tasks + to.index());
            Cell {
                word,
                shift,
                code: encode(value),
            }
        };
        let pair = sender.index() * self.tasks + receiver.index();
        Branch {
            forward: cell(sender, receiver, forward),
            backward: cell(receiver, sender, backward),
            assumption: (self.function + pair / 64, 1 << (pair % 64)),
        }
    }

    /// The `mask_q` of [`word_weaken`] for a period in which
    /// exactly `executed` ran: the `Q` bit of every cell `(t1, t2)` with
    /// `t1` executed and `t2` not, one word per function word.
    pub(crate) fn weakening_mask(&self, executed: &TaskSet) -> Vec<u64> {
        let mut mask = vec![0; self.function];
        for sender in executed.iter() {
            for other in 0..self.tasks {
                if !executed.contains(TaskId::from_index(other)) {
                    let (word, shift) = cell_slot(sender.index() * self.tasks + other);
                    mask[word] |= 1 << (shift + BITS_PER_CELL - 1);
                }
            }
        }
        mask
    }

    /// Checks an incrementally computed weight (and fingerprint, if
    /// given) against a full recompute of `row`, panicking naming
    /// `context` on a mismatch. Runs in debug builds and under the
    /// `debug-invariants` cargo feature; a no-op otherwise.
    #[inline]
    fn check_row(&self, context: &str, row: &[u64], fingerprint: Option<u64>, weight: u64) {
        if cfg!(any(debug_assertions, feature = "debug-invariants")) {
            assert_eq!(
                weight,
                self.weight(row),
                "debug-invariants[{context}]: incremental weight"
            );
            if let Some(fingerprint) = fingerprint {
                assert_eq!(
                    fingerprint,
                    self.fingerprint(row),
                    "debug-invariants[{context}]: incremental fingerprint"
                );
            }
        }
    }
}

/// Word `index` holding `word`, as a term of a row fingerprint's sum.
#[inline]
fn term(index: usize, word: u64) -> u64 {
    (word ^ (index as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15)).wrapping_mul(0xBF58_476D_1CE4_E5B9)
}

/// The splitmix finalizer spreading a fingerprint sum over all 64 bits.
#[inline]
fn finalize(sum: u64) -> u64 {
    let h = (sum ^ (sum >> 31)).wrapping_mul(0x94D0_49BB_1331_11EB);
    h ^ (h >> 29)
}

/// A working set: rows of one [`RowShape`], back to back in one buffer.
pub(crate) struct Rows {
    shape: RowShape,
    len: usize,
    words: Vec<u64>,
}

impl Rows {
    pub(crate) fn new(shape: RowShape) -> Self {
        Rows {
            shape,
            len: 0,
            words: Vec::new(),
        }
    }

    /// Rows for `functions`, in order, with empty assumption sets.
    pub(crate) fn from_functions(shape: RowShape, functions: &[DependencyFunction]) -> Self {
        let mut rows = Rows::new(shape);
        rows.words.reserve(functions.len() * shape.stride);
        for d in functions {
            rows.push(d.packed_words());
            rows.words.resize(rows.len * shape.stride, 0);
        }
        rows
    }

    pub(crate) fn shape(&self) -> RowShape {
        self.shape
    }

    pub(crate) fn len(&self) -> usize {
        self.len
    }

    /// Row `i`: function words, then assumption words.
    pub(crate) fn row(&self, i: usize) -> &[u64] {
        &self.words[i * self.shape.stride..(i + 1) * self.shape.stride]
    }

    /// The function words of row `i`.
    pub(crate) fn function(&self, i: usize) -> &[u64] {
        &self.row(i)[..self.shape.function]
    }

    /// Appends a row, returning its index.
    pub(crate) fn push(&mut self, row: &[u64]) -> usize {
        self.words.extend_from_slice(row);
        self.len += 1;
        self.len - 1
    }

    /// Execution-consistency weakening of every row against `mask` (see
    /// [`RowShape::weakening_mask`]).
    pub(crate) fn weaken(&mut self, mask: &[u64]) {
        for row in self.words.chunks_exact_mut(self.shape.stride) {
            for (w, &m) in row.iter_mut().zip(mask) {
                *w = word_weaken(*w, m);
            }
        }
    }

    /// Post-processing's "remove the assumptions": zeroes every row's
    /// assumption bitset.
    pub(crate) fn strip_assumptions(&mut self) {
        for row in self.words.chunks_exact_mut(self.shape.stride) {
            row[self.shape.function..].fill(0);
        }
    }

    /// Feeds `visit` every child of the rows in `parents` over `plan`, in
    /// (parent-major, branch-minor) order, with its fingerprint and
    /// weight, skipping branches whose pair the parent already assumed.
    /// Children are built in one scratch row, so `visit` copies what it
    /// keeps. A branch changes one cell in each of at most two function
    /// words plus one assumption word, so the fingerprint sum is the
    /// parent's with those words' terms swapped and the weight is the
    /// parent's plus the two cells' deltas ([`Cell::join`]).
    pub(crate) fn children<E>(
        &self,
        parents: Range<usize>,
        plan: &[Branch],
        mut visit: impl FnMut(&[u64], u64, u64) -> Result<(), E>,
    ) -> Result<(), E> {
        let shape = self.shape;
        let mut child = vec![0; shape.stride];
        for p in parents {
            let parent = self.row(p);
            let (parent_sum, parent_weight) = (shape.fingerprint_sum(parent), shape.weight(parent));
            for b in plan {
                let (word, bits) = b.assumption;
                if parent[word] & bits != 0 {
                    continue;
                }
                child.copy_from_slice(parent);
                child[word] |= bits;
                let mut sum = parent_sum
                    .wrapping_sub(term(word, parent[word]))
                    .wrapping_add(term(word, child[word]));
                let mut weight = parent_weight;
                for cell in [b.forward, b.backward] {
                    let old = child[cell.word];
                    let (new, gained) = cell.join(old);
                    child[cell.word] = new;
                    sum = sum
                        .wrapping_sub(term(cell.word, old))
                        .wrapping_add(term(cell.word, new));
                    weight += gained;
                }
                let fingerprint = finalize(sum);
                shape.check_row("child", &child, Some(fingerprint), weight);
                visit(&child, fingerprint, weight)?;
            }
        }
        Ok(())
    }

    /// Appends the §3.2 merge of rows `a` (of weight `weight_a`) and `b`:
    /// the functions' least upper bound (word OR), with the assumption
    /// sets united (`union`) or intersected. Returns the new row's index
    /// and weight. The weight is `weight_a` corrected only for the words
    /// where `b` sets a bit `a` lacks, so a merge of near-equal rows (the
    /// common case: the two lowest-weight rows of a working list) re-weighs
    /// few words.
    pub(crate) fn push_merge(
        &mut self,
        a: usize,
        weight_a: u64,
        b: usize,
        union: bool,
    ) -> (usize, u64) {
        let (stride, function) = (self.shape.stride, self.shape.function);
        let at = self.words.len();
        self.words.extend_from_within(a * stride..(a + 1) * stride);
        let (rows, merged) = self.words.split_at_mut(at);
        let other = &rows[b * stride..(b + 1) * stride];
        let (merged_function, merged_assumptions) = merged.split_at_mut(function);
        let (other_function, other_assumptions) = other.split_at(function);
        let mut weight = weight_a;
        for (&m, &o) in merged_function.iter().zip(other_function) {
            if o & !m != 0 {
                weight += word_weight(m | o) - word_weight(m);
            }
        }
        for (m, &o) in merged_function.iter_mut().zip(other_function) {
            *m |= o;
        }
        if union {
            for (m, &o) in merged_assumptions.iter_mut().zip(other_assumptions) {
                *m |= o;
            }
        } else {
            for (m, &o) in merged_assumptions.iter_mut().zip(other_assumptions) {
                *m &= o;
            }
        }
        self.shape.check_row("merge", merged, None, weight);
        self.len += 1;
        (self.len - 1, weight)
    }

    /// The rows at `order`, copied in that order into a fresh set.
    pub(crate) fn gather(&self, order: impl ExactSizeIterator<Item = usize>) -> Rows {
        let mut out = Rows::new(self.shape);
        out.words.reserve(order.len() * self.shape.stride);
        for i in order {
            out.push(self.row(i));
        }
        out
    }

    /// The index of the first occurrence of each distinct row (function
    /// and assumptions), in order.
    pub(crate) fn first_occurrences(&self) -> Vec<usize> {
        let mut dedup = Dedup::with_capacity(self.len);
        (0..self.len)
            .filter(|&i| {
                let row = self.row(i);
                dedup.insert(self.shape.fingerprint(row), i, |j| self.row(j) == row)
            })
            .collect()
    }

    /// Checks every row with the shared [`bbmg_lattice::invariant`]
    /// kernels: the function words are a canonical packed store, the
    /// assumption bits name ordered pairs of distinct tasks, and — once
    /// `stripped` — are all zero. A no-op unless the `debug-invariants`
    /// cargo feature is enabled; with it on, a violation panics naming
    /// `context`.
    #[inline]
    pub(crate) fn debug_validate(&self, context: &str, stripped: bool) {
        #[cfg(not(feature = "debug-invariants"))]
        let _ = (context, stripped);
        #[cfg(feature = "debug-invariants")]
        for i in 0..self.len {
            use bbmg_lattice::invariant;
            let (function, assumptions) = self.row(i).split_at(self.shape.function);
            if let Err(err) = invariant::check_packed_store(self.shape.tasks, function) {
                panic!("debug-invariants[{context}]: row {i} packed store: {err}");
            }
            if let Some(bit) = invariant::stray_assumption_bit(self.shape.tasks, assumptions) {
                panic!("debug-invariants[{context}]: row {i} assumes invalid pair bit {bit}");
            }
            assert!(
                !stripped || assumptions.iter().all(|&w| w == 0),
                "debug-invariants[{context}]: row {i} keeps assumptions after post-processing"
            );
        }
    }
}

/// Identity hasher for keys that are already well-mixed fingerprints.
/// The keys are fingerprints of rows the learner itself generated, not
/// bytes read from input, and a collision only lengthens a chain walk.
#[derive(Default)]
struct Prehashed(u64);

impl Hasher for Prehashed {
    fn finish(&self) -> u64 {
        self.0
    }

    fn write(&mut self, bytes: &[u8]) {
        self.0 = bytes
            .iter()
            .fold(self.0, |h, &b| h.rotate_left(8) ^ u64::from(b));
    }

    fn write_u64(&mut self, n: u64) {
        self.0 = n;
    }
}

/// End of a [`Dedup`] chain.
const NONE: usize = usize::MAX;

/// First-seen-order deduplication keyed by 64-bit fingerprints: a map
/// from fingerprint to the latest recorded index with it, plus a column
/// linking each recorded index to the previous one with the same
/// fingerprint. Full row equality runs only along a chain, i.e. only on
/// a fingerprint hit.
#[derive(Default)]
pub(crate) struct Dedup {
    heads: HashMap<u64, usize, BuildHasherDefault<Prehashed>>,
    next: Vec<usize>,
}

impl Dedup {
    /// A dedup with room for `rows` recorded rows before it reallocates.
    pub(crate) fn with_capacity(rows: usize) -> Self {
        Dedup {
            heads: HashMap::with_capacity_and_hasher(rows, BuildHasherDefault::default()),
            next: Vec::with_capacity(rows),
        }
    }

    /// Whether a row with `fingerprint` differs from every row recorded
    /// so far, `same(j)` deciding equality with recorded index `j`; if
    /// so, records it as `index` (greater than every earlier index;
    /// indices never recorded, such as merged rows, are skipped).
    pub(crate) fn insert(
        &mut self,
        fingerprint: u64,
        index: usize,
        same: impl Fn(usize) -> bool,
    ) -> bool {
        let head = self.heads.get(&fingerprint).copied().unwrap_or(NONE);
        let mut j = head;
        while j != NONE {
            if same(j) {
                return false;
            }
            j = self.next[j];
        }
        self.heads.insert(fingerprint, index);
        self.next.resize(index, NONE);
        self.next.push(head);
        true
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bbmg_lattice::packed::CELLS_PER_WORD;
    use bbmg_lattice::ALL_VALUES;
    use rand::rngs::SmallRng;
    use rand::{Rng, SeedableRng};
    use DependencyValue as V;

    fn t(i: usize) -> TaskId {
        TaskId::from_index(i)
    }

    /// The only child of `row` over one branch, if the pair is free.
    fn child(shape: RowShape, row: &[u64], branch: Branch) -> Option<Vec<u64>> {
        let mut parent = Rows::new(shape);
        parent.push(row);
        let mut out = None;
        parent
            .children::<()>(0..1, &[branch], |c, fingerprint, weight| {
                assert_eq!(fingerprint, shape.fingerprint(c));
                assert_eq!(weight, shape.weight(c));
                out = Some(c.to_vec());
                Ok(())
            })
            .unwrap();
        out
    }

    fn assume(shape: RowShape, row: &[u64], s: usize, r: usize) -> Vec<u64> {
        child(
            shape,
            row,
            shape.branch(t(s), t(r), V::Determines, V::DependsOn),
        )
        .unwrap()
    }

    fn bottom(tasks: usize) -> (RowShape, Vec<u64>) {
        let shape = RowShape::new(tasks);
        (shape, vec![0; shape.stride])
    }

    fn function(shape: RowShape, row: &[u64]) -> DependencyFunction {
        DependencyFunction::from_words(shape.tasks, row[..shape.function].to_vec()).unwrap()
    }

    fn assumes(shape: RowShape, row: &[u64], s: usize, r: usize) -> bool {
        let pair = s * shape.tasks + r;
        row[shape.function + pair / 64] & (1 << (pair % 64)) != 0
    }

    fn weakened(shape: RowShape, row: &[u64], executed: &[usize]) -> DependencyFunction {
        let mut rows = Rows::new(shape);
        rows.push(row);
        let executed = TaskSet::from_ids(shape.tasks, executed.iter().map(|&i| t(i)));
        rows.weaken(&shape.weakening_mask(&executed));
        function(shape, rows.row(0))
    }

    #[test]
    fn assuming_a_message_generalizes_and_records_d11_then_chains() {
        let (shape, row) = bottom(3);
        let d11 = assume(shape, &row, 0, 1);
        let f = function(shape, &d11);
        assert_eq!(f.value(t(0), t(1)), V::Determines);
        assert_eq!(f.value(t(1), t(0)), V::DependsOn);
        assert!(assumes(shape, &d11, 0, 1) && !assumes(shape, &d11, 1, 0));
        // Chaining keeps the parent's assumptions (paper's d1jk rule)...
        let d12 = assume(shape, &d11, 1, 2);
        assert!(assumes(shape, &d12, 0, 1) && assumes(shape, &d12, 1, 2));
        assert_eq!(shape.weight(&d12), 4);
        // ...and a pair already spoken for this period has no child.
        let again = shape.branch(t(0), t(1), V::Determines, V::DependsOn);
        assert_eq!(child(shape, &d12, again), None);
    }

    #[test]
    fn weakening_matches_paper_d21_to_period_2() {
        // d21 after period 1: t1->t2, t1->t4 (plus converse <- entries).
        let (shape, row) = bottom(4);
        let d21 = assume(shape, &assume(shape, &row, 0, 1), 0, 3);
        // Period 2 executes {t1, t3, t4}; t2 is absent.
        let f = weakened(shape, &d21, &[0, 2, 3]);
        // t1 executed, t2 didn't: -> weakens to ->?.
        assert_eq!(f.value(t(0), t(1)), V::MayDetermine);
        // t2 didn't execute, so its own <- claim about t1 is untouched
        // (this is the paper's d81 asymmetry).
        assert_eq!(f.value(t(1), t(0)), V::DependsOn);
        // t1 -> t4 untouched: both executed.
        assert_eq!(f.value(t(0), t(3)), V::Determines);
    }

    #[test]
    fn weakening_handles_depends_and_mutual() {
        let shape = RowShape::new(2);
        for (value, expect) in [(V::DependsOn, V::MayDependOn), (V::Mutual, V::MayMutual)] {
            let mut d = DependencyFunction::bottom(2);
            d.set(t(0), t(1), value);
            let rows = Rows::from_functions(shape, &[d]);
            assert_eq!(weakened(shape, rows.row(0), &[0]).value(t(0), t(1)), expect);
        }
    }

    #[test]
    fn weakening_ignores_non_executing_rows() {
        let (shape, row) = bottom(2);
        let d = assume(shape, &row, 0, 1);
        // Neither task executed: nothing changes.
        assert_eq!(weakened(shape, &d, &[]), function(shape, &d));
    }

    #[test]
    fn merge_unites_or_intersects_assumptions_and_joins_functions() {
        let (shape, row) = bottom(3);
        let mut rows = Rows::new(shape);
        rows.push(&assume(shape, &row, 0, 1));
        rows.push(&assume(shape, &row, 1, 2));
        let weight = shape.weight(rows.row(0));
        let (u, _) = rows.push_merge(0, weight, 1, true);
        let (i, _) = rows.push_merge(0, weight, 1, false);
        assert!(assumes(shape, rows.row(u), 0, 1) && assumes(shape, rows.row(u), 1, 2));
        assert!(rows.row(i)[shape.function..].iter().all(|&w| w == 0));
        let f = function(shape, rows.row(u));
        assert_eq!(f.value(t(0), t(1)), V::Determines);
        assert_eq!(f.value(t(1), t(2)), V::Determines);
        // Functions always join.
        assert_eq!(rows.function(i), rows.function(u));
        rows.strip_assumptions();
        assert_eq!(rows.row(u), rows.row(i));
    }

    #[test]
    fn dedup_compares_only_along_a_fingerprint_chain() {
        let mut dedup = Dedup::default();
        assert!(dedup.insert(7, 0, |_| unreachable!("empty chain")));
        // Same fingerprint, different row: recorded, chained behind 0.
        assert!(dedup.insert(7, 2, |j| j == 99));
        // Equal to index 0 (two links down the chain): a duplicate.
        assert!(!dedup.insert(7, 3, |j| j == 0));
        assert!(dedup.insert(8, 3, |_| unreachable!("other fingerprint")));
    }

    #[test]
    fn cell_delta_weight_matches_a_full_recompute() {
        // Five tasks: 25 cells, so every slot of word 0 is a real cell.
        let (shape, mut row) = bottom(5);
        let mut rng = SmallRng::seed_from_u64(2007);
        for shift in (0..CELLS_PER_WORD).map(|slot| slot * BITS_PER_CELL) {
            for old in ALL_VALUES {
                for value in ALL_VALUES {
                    // Random neighbours: the delta must ignore them.
                    for w in &mut row[..shape.function] {
                        *w = (0..CELLS_PER_WORD).fold(0, |acc, slot| {
                            let v = ALL_VALUES[rng.gen_range(0..ALL_VALUES.len())];
                            acc | encode(v) << (slot * BITS_PER_CELL)
                        });
                    }
                    row[0] = row[0] & !(CELL_MASK << shift) | encode(old) << shift;
                    let before = shape.weight(&row);
                    let cell = Cell {
                        word: 0,
                        shift,
                        code: encode(value),
                    };
                    let (new, gained) = cell.join(row[0]);
                    row[0] = new;
                    assert_eq!(
                        before + gained,
                        shape.weight(&row),
                        "{old} ⊔ {value} at {shift}"
                    );
                    assert_eq!(new >> shift & CELL_MASK, encode(old.join(value)));
                }
            }
        }
    }

    /// A row of random cube codes with random valid assumption bits.
    fn random_row(shape: RowShape, rng: &mut SmallRng) -> Vec<u64> {
        let mut row = vec![0; shape.stride];
        for cell in 0..shape.tasks * shape.tasks {
            let (from, to) = (cell / shape.tasks, cell % shape.tasks);
            if from == to {
                continue;
            }
            let (word, shift) = cell_slot(cell);
            row[word] |= encode(ALL_VALUES[rng.gen_range(0..ALL_VALUES.len())]) << shift;
            if rng.gen_bool(0.3) {
                row[shape.function + cell / 64] |= 1 << (cell % 64);
            }
        }
        row
    }

    #[test]
    fn incremental_merge_weight_matches_a_full_recompute() {
        // Nine tasks: 81 cells over four function words and two
        // assumption words, so word boundaries are crossed.
        let shape = RowShape::new(9);
        let mut rng = SmallRng::seed_from_u64(15);
        for case in 0..250 {
            let mut a = random_row(shape, &mut rng);
            let b = match case % 5 {
                // Nested both ways, overlapping, identical, and `a` = ⊥
                // (every function word of `a` is zero).
                0 => a
                    .iter()
                    .zip(random_row(shape, &mut rng))
                    .map(|(x, y)| x | y)
                    .collect(),
                1 => a
                    .iter()
                    .zip(random_row(shape, &mut rng))
                    .map(|(x, y)| x & y)
                    .collect(),
                2 => random_row(shape, &mut rng),
                3 => a.clone(),
                _ => {
                    a.fill(0);
                    random_row(shape, &mut rng)
                }
            };
            for union in [true, false] {
                let mut rows = Rows::new(shape);
                rows.push(&a);
                rows.push(&b);
                let (merged, weight) = rows.push_merge(0, shape.weight(&a), 1, union);
                let row = rows.row(merged);
                assert_eq!(weight, shape.weight(row), "case {case}, union {union}");
                for (k, (&x, &y)) in a.iter().zip(&b).enumerate() {
                    let joined = x | y;
                    let assumed = if union { x | y } else { x & y };
                    assert_eq!(row[k], if k < shape.function { joined } else { assumed });
                }
            }
        }
    }

    #[test]
    fn first_occurrences_keep_the_first_copy_of_each_row_in_order() {
        let (shape, row) = bottom(3);
        let x = assume(shape, &row, 0, 1);
        let y = assume(shape, &row, 1, 2);
        // `x` with the same function but one more assumed pair.
        let mut x_more = x.clone();
        x_more[shape.function] |= 1 << 5;
        let mut rows = Rows::new(shape);
        for r in [&x, &y, &x, &row, &y, &x_more, &x] {
            rows.push(r);
        }
        assert_eq!(rows.first_occurrences(), [0, 1, 3, 5]);
    }
}
