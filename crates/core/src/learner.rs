//! The incremental generalization engine (paper §3.1–§3.2).

use std::collections::VecDeque;
use std::convert::Infallible;
use std::sync::Arc;

use bbmg_lattice::{DependencyFunction, DependencyValue, FunctionArena, TaskId};
use bbmg_obs::{NoopObserver, Observer};
use bbmg_trace::{Period, Trace};

use crate::error::LearnError;
use crate::history::ExecutionHistory;
use crate::options::{LearnOptions, MergeAssumptions};
use crate::pool::{self, WorkerPool};
use crate::rows::{Branch, Dedup, RowShape, Rows};
use crate::stats::LearnStats;

/// How many generated hypotheses pass between mid-period budget checks.
///
/// The hot loop used to consult the wall clock only at period boundaries;
/// sampling every 1024 steps bounds how far a combinatorial blow-up can
/// overshoot [`crate::Budget::max_wall_clock`] while keeping
/// `Instant::now` (tens of nanoseconds, comparable to one branching step)
/// off the per-hypothesis path.
pub const BUDGET_SAMPLE_INTERVAL: usize = 1024;

/// Minimum `hypotheses × candidates × packed words per matrix` product
/// before exact-mode branching fans out to worker threads; below this the
/// spawn cost dwarfs the work. Sized in packed *words* rather than raw
/// pair counts so a small task universe (few words per matrix) must offer
/// proportionally more pairs before threads pay off — `BENCH_learner.json`
/// measured the old pair-count gate going 0.70× at 2 threads on the
/// 16-task blow-up workload. Count-based (never timing-based), so the
/// gate itself is deterministic.
pub const PARALLEL_BRANCH_WORDS: usize = 128 * 1024;

/// Minimum `unique hypotheses × packed words per matrix` product before
/// the redundancy scan fans out, sized in words for the same reason as
/// [`PARALLEL_BRANCH_WORDS`]. Higher than the branch gate's per-item
/// cost profile suggests because the batched arena scan (contiguous
/// `leq` sweeps over cached-weight prefixes) is so much cheaper per
/// word than child generation that small sets finish before a dispatch
/// round-trip completes — the old 8 Ki gate measured 0.88× at 2
/// threads on the blow-up workload's scans.
pub const PARALLEL_SCAN_WORDS: usize = 32 * 1024;

/// Minimum `hypotheses × candidates × packed words per matrix` product
/// before bounded-mode child *generation* fans out. Lower than
/// [`PARALLEL_BRANCH_WORDS`] because a bounded message starts from at
/// most `bound` hypotheses: a bound-64 set must branch over more than
/// 1000 candidate pairs per packed word before even this gate opens.
pub const BOUNDED_BRANCH_WORDS: usize = 64 * 1024;

/// The size of one generation *wave*, in the gates' unit (`parents ×
/// candidates × packed words per matrix`). A parallel message generates
/// its children one wave of contiguous parents at a time, reduces the
/// wave and frees its buffers before the next, so its raw children in
/// memory are bounded by one wave (at most `BRANCH_WAVE_WORDS / words`
/// children) instead of one message. Twice [`PARALLEL_BRANCH_WORDS`],
/// so every wave but a message's last would cross either fan-out gate
/// on its own. Wave boundaries cannot change results: the reduce sees
/// the same child sequence.
pub const BRANCH_WAVE_WORDS: usize = 2 * PARALLEL_BRANCH_WORDS;

/// Minimum hypothesis count before negative-example matching fans out
/// (each `matches_period` call does backtracking, so items are coarse).
const PARALLEL_MATCH_THRESHOLD: usize = 8;

/// Per-message reduce state (§3.1–§3.2): the admitted children — and,
/// in bounded mode, the merged rows after them — as flat rows, the dedup
/// over *generated* children only (merged rows are never dedup keys, and
/// a child a merge consumed still is one), and the bounded tail.
struct Branching {
    rows: Rows,
    dedup: Dedup,
    bounded: Option<Bounded>,
}

/// Bounded mode's working list: `(weight, row)` handles ascending by
/// weight, FIFO among equals; overflow merges the two at the front.
struct Bounded {
    bound: usize,
    union: bool,
    working: VecDeque<(u64, usize)>,
}

impl Bounded {
    fn insert(&mut self, weight: u64, row: usize) {
        let pos = self.working.partition_point(|&(w, _)| w <= weight);
        self.working.insert(pos, (weight, row));
    }
}

impl Branching {
    /// The message's surviving set: every admitted child in admission
    /// order (exact), or the working list in weight order (bounded).
    fn finish(self) -> Rows {
        match self.bounded {
            None => self.rows,
            Some(bounded) => self.rows.gather(bounded.working.iter().map(|&(_, i)| i)),
        }
    }
}

/// The incremental learner: feed it periods with [`observe`], read the
/// current most-specific hypothesis set at any time.
///
/// Starts from `D0 = {d⊥}` and, per period:
///
/// 1. *weakens* every hypothesis to stay consistent with the period's
///    execution set (`→` claims about absent tasks become `→?`, …);
/// 2. for each message in timestamp order, *branches* every hypothesis over
///    the message's timing-feasible sender/receiver pairs not yet assumed
///    this period, generalizing minimally (`d1jk` construction, §3.1) — in
///    bounded mode, overflow beyond the bound merges the two lowest-weight
///    hypotheses into their least upper bound (§3.2);
/// 3. *post-processes*: strips assumptions, unifies equal hypotheses and
///    deletes redundant (dominated) ones.
///
/// [`observe`]: Learner::observe
#[derive(Debug, Clone)]
pub struct Learner {
    options: LearnOptions,
    tasks: usize,
    hypotheses: Vec<DependencyFunction>,
    history: ExecutionHistory,
    stats: LearnStats,
    /// Creation time, the reference point for the wall-clock budget.
    started: std::time::Instant,
}

impl Learner {
    /// Creates a learner over a universe of `tasks` tasks.
    ///
    /// If `options.parallelism > 1` this also warms the process-wide
    /// [`WorkerPool`], so the first period that crosses a fan-out gate
    /// dispatches to already-parked workers instead of paying thread
    /// spawns on the hot path.
    #[must_use]
    pub fn new(tasks: usize, options: LearnOptions) -> Self {
        Self::from_state(
            tasks,
            options,
            vec![DependencyFunction::bottom(tasks)],
            ExecutionHistory::new(tasks),
            LearnStats::default(),
            std::time::Duration::ZERO,
        )
    }

    /// The options the learner was built with.
    #[must_use]
    pub fn options(&self) -> &LearnOptions {
        &self.options
    }

    /// The current hypothesis set (assumption-free between periods),
    /// ordered by ascending weight.
    #[must_use]
    pub fn hypotheses(&self) -> Vec<&DependencyFunction> {
        self.hypotheses.iter().collect()
    }

    /// Number of hypotheses currently maintained.
    #[must_use]
    pub fn len(&self) -> usize {
        self.hypotheses.len()
    }

    /// Whether the hypothesis set is empty (only after an error).
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.hypotheses.is_empty()
    }

    /// Whether the learner has converged to a unique most-specific
    /// solution (paper §3.1: "If only one hypothesis is left …").
    #[must_use]
    pub fn converged(&self) -> bool {
        self.hypotheses.len() == 1
    }

    /// Statistics accumulated so far.
    #[must_use]
    pub fn stats(&self) -> &LearnStats {
        &self.stats
    }

    /// Mutable statistics access for the incremental engine (recording skips
    /// and fallbacks without re-deriving counters).
    pub(crate) fn stats_mut(&mut self) -> &mut LearnStats {
        &mut self.stats
    }

    /// The execution history accumulated so far (for checkpointing).
    pub(crate) fn history(&self) -> &ExecutionHistory {
        &self.history
    }

    /// Wall-clock time consumed so far against the budget (for
    /// checkpointing — `Instant` itself cannot be serialized).
    pub(crate) fn budget_elapsed(&self) -> std::time::Duration {
        self.started.elapsed()
    }

    /// Rebuilds a learner from checkpointed state (a period boundary).
    /// The budget clock resumes from `elapsed`: a restored learner has
    /// already spent that much of its wall-clock budget.
    pub(crate) fn from_state(
        tasks: usize,
        options: LearnOptions,
        functions: Vec<DependencyFunction>,
        history: ExecutionHistory,
        stats: LearnStats,
        elapsed: std::time::Duration,
    ) -> Self {
        pool::warm_up(options.parallelism.get());
        let now = std::time::Instant::now();
        Learner {
            options,
            tasks,
            hypotheses: functions,
            history,
            stats,
            started: now.checked_sub(elapsed).unwrap_or(now),
        }
    }

    /// Whether the step/wall-clock budget is already spent, so the next
    /// period would stop at its boundary check.
    pub(crate) fn budget_spent(&self) -> bool {
        self.check_budget(0, &mut NoopObserver).is_err()
    }

    /// Checks the step/wall-clock budget; `Err` leaves all state intact.
    /// Runs at every period boundary (with [`NoopObserver`]) and once per
    /// [`BUDGET_SAMPLE_INTERVAL`] generated hypotheses mid-period, where
    /// it also emits a `budget_tick` heartbeat when `observer` listens —
    /// so the wall clock is read at most once per sample window, not per
    /// generated hypothesis.
    fn check_budget<O: Observer + ?Sized>(
        &self,
        period: usize,
        observer: &mut O,
    ) -> Result<(), LearnError> {
        let budget = &self.options.budget;
        let steps = self.stats.hypotheses_generated;
        // `Instant::now` is the expensive part; skip it entirely unless a
        // wall-clock limit is set or a sink wants the heartbeat.
        if budget.max_wall_clock.is_none() && !observer.is_enabled() {
            if budget.max_steps.is_some_and(|limit| steps >= limit.get()) {
                return Err(LearnError::BudgetExhausted { period, steps });
            }
            return Ok(());
        }
        let elapsed = self.started.elapsed();
        observer.budget_tick(
            steps,
            u64::try_from(elapsed.as_micros()).unwrap_or(u64::MAX),
        );
        let tripped = budget.max_steps.is_some_and(|limit| steps >= limit.get())
            || budget.max_wall_clock.is_some_and(|limit| elapsed >= limit);
        if tripped {
            return Err(LearnError::BudgetExhausted { period, steps });
        }
        Ok(())
    }

    /// Processes one period.
    ///
    /// # Errors
    ///
    /// [`LearnError::UniverseMismatch`] if the period was built over a
    /// different task count; [`LearnError::Inconsistent`] if the hypothesis
    /// set becomes empty (trace errors or inexpressible behaviour, §3.1);
    /// [`LearnError::BudgetExhausted`] if the configured
    /// [`crate::Budget`] ran out — the step/wall-clock guard runs before
    /// the period is touched and then once every
    /// [`BUDGET_SAMPLE_INTERVAL`] generated hypotheses, so a blow-up
    /// inside one period is cut short; [`LearnError::SetLimitExceeded`]
    /// if an exact-mode message grows the set past
    /// [`LearnOptions::set_limit`].
    ///
    /// An error is not a rollback. The period's working set lives only
    /// inside this call, but the execution history and the counters in
    /// [`stats`](Learner::stats) already include the part of the period
    /// that ran. After `Inconsistent` or `SetLimitExceeded` the learner
    /// is empty and further observations keep failing; after a
    /// mid-period `BudgetExhausted` it still holds the hypothesis set of
    /// the previous period boundary, unweakened. Callers that need
    /// transactional behaviour snapshot first, as
    /// [`IncrementalLearner`](crate::IncrementalLearner) does.
    pub fn observe(&mut self, period: &Period) -> Result<(), LearnError> {
        self.observe_with(period, &mut NoopObserver)
    }

    /// [`observe`](Learner::observe) with instrumentation: every branching
    /// step, set-size change, merge, and budget heartbeat is reported to
    /// `observer`. `observe` itself delegates here with
    /// [`NoopObserver`], whose empty hooks inline away — the uninstrumented
    /// path pays nothing (see the `observer_overhead` bench).
    ///
    /// # Errors
    ///
    /// As [`observe`](Learner::observe).
    pub fn observe_with<O: Observer + ?Sized>(
        &mut self,
        period: &Period,
        observer: &mut O,
    ) -> Result<(), LearnError> {
        if period.universe() != self.tasks {
            return Err(LearnError::UniverseMismatch {
                expected: self.tasks,
                actual: period.universe(),
            });
        }
        self.check_budget(period.index(), &mut NoopObserver)?;
        if self.hypotheses.is_empty() {
            return Err(LearnError::Inconsistent {
                period: period.index(),
                message: None,
            });
        }
        observer.period_start(period.index());

        // Step 1: execution-consistency weakening of claims introduced in
        // earlier periods, and history bookkeeping for claims introduced
        // later (the version-space invariant: hypotheses must keep matching
        // *all* instances, so a message join below may have to start at
        // `→?` when an earlier period already contradicts `→`).
        let executed = period.executed_tasks();
        self.history.observe(executed);
        let shape = RowShape::new(self.tasks);
        let mut set = Rows::from_functions(shape, &self.hypotheses);
        set.weaken(&shape.weakening_mask(executed));

        // Step 2: message-guided generalization.
        for message in period.messages() {
            let candidates = if self.options.timing_filter {
                period.candidate_pairs(message)
            } else {
                all_executed_pairs(period)
            };
            self.stats.candidate_pairs_total += candidates.len();
            self.stats.messages += 1;

            // The minimal generalization per candidate pair is
            // hypothesis-independent: compute each branch's words once
            // per message, not once per (hypothesis, candidate).
            let plan: Vec<Branch> = candidates
                .iter()
                .map(|&(s, r)| {
                    let (forward, backward) = if self.options.history_aware {
                        (
                            self.history.forward_value(s, r),
                            self.history.backward_value(s, r),
                        )
                    } else {
                        // Ablation: the naive join that only respects the
                        // current instance (violates the version-space
                        // invariant; see LearnOptions::history_aware).
                        (DependencyValue::Determines, DependencyValue::DependsOn)
                    };
                    shape.branch(s, r, forward, backward)
                })
                .collect();

            let generated_before = self.stats.hypotheses_generated;
            let next = self.branch(period.index(), observer, set, plan)?;
            observer.message_branch(
                period.index(),
                message.id.index(),
                candidates.len(),
                self.stats.hypotheses_generated - generated_before,
            );
            observer.hypothesis_set(period.index(), next.len());
            self.stats.observe_set_size(next.len());
            if next.len() == 0 {
                self.hypotheses.clear();
                return Err(LearnError::Inconsistent {
                    period: period.index(),
                    message: Some(message.id),
                });
            }
            next.debug_validate("message", false);
            set = next;
        }

        // Step 3: post-processing — strip assumptions, unify, delete
        // redundant hypotheses.
        self.remove_redundant(set);
        self.stats.periods += 1;
        self.stats.set_sizes_per_period.push(self.hypotheses.len());
        observer.period_end(period.index(), self.hypotheses.len());
        Ok(())
    }

    /// How many workers to fan a branching step out over: 1 unless the
    /// workload crosses `gate_words` and the options ask for parallelism,
    /// in which case the persistent pool is provisioned (lazily growing
    /// it up to the hardware limit) and the request is clamped to the
    /// workers actually available. The clamp only changes *partitioning*,
    /// never results: ordered chunk concatenation reproduces the
    /// sequential sequence at every chunk count.
    fn branch_threads(&self, items: usize, candidates: usize, gate_words: usize) -> usize {
        if self.options.parallelism.get() <= 1 || items < 2 {
            return 1;
        }
        let words = DependencyFunction::words_per_function(self.tasks);
        let volume = items.saturating_mul(candidates).saturating_mul(words);
        if volume < gate_words {
            return 1;
        }
        WorkerPool::global().provision(self.options.parallelism.get())
    }

    /// Branches every row of `parents` over `plan` for one message: one
    /// child per (row, branch) whose pair the row has not assumed yet,
    /// deduplicated fingerprint-first, then — in bounded mode — inserted
    /// into the weight-ordered working list, merging the two lowest-weight
    /// rows on overflow (§3.2).
    ///
    /// The *reduce* ([`admit`](Self::admit): dedup, statistics, budget
    /// sampling, set-limit checks, merges and observer events) always runs
    /// on this thread in (row-major, branch-minor) generation order. Each
    /// bounded overflow merges the two *currently* lowest-weight rows, so
    /// results depend on exactly this order (Theorem 4's convergence
    /// argument is about it). Child *generation* only reads `parents` —
    /// merged rows never spawn children within a message — so with
    /// `parallelism > 1` and enough work it fans out to the persistent
    /// pool in waves of contiguous parents ([`BRANCH_WAVE_WORDS`]): each
    /// worker fills its own row buffer and `(fingerprint, weight)` column
    /// for a contiguous chunk of the wave, the reduce consumes the chunks
    /// in order and drops them before the next wave is generated. The
    /// admitted sequence, and with it every merge, stat and event, is
    /// byte-identical to the sequential loop's at any thread count, and a
    /// budget or set-limit trip stops generation at the next wave.
    ///
    /// Structure: children, and in bounded mode the merged rows after
    /// them, are appended to one flat row buffer and never move, so a
    /// child costs a row copy and no allocation. Dedup follows a
    /// fingerprint's chain of earlier rows (a head index per fingerprint
    /// plus a next-index column) and compares words only along it. The
    /// bounded working list is a weight-ordered `VecDeque` of
    /// `(weight, row)` handles: insertion binary-searches the weights and
    /// an overflow pops the two lowest in O(1). Fingerprints and weights
    /// come incrementally from the parent's, since a branch changes at
    /// most three words.
    fn branch<O: Observer + ?Sized>(
        &mut self,
        period: usize,
        observer: &mut O,
        mut parents: Rows,
        plan: Vec<Branch>,
    ) -> Result<Rows, LearnError> {
        let shape = parents.shape();
        let (dedup, gate) = if self.options.bound.is_some() {
            // Merged rows are never deduplicated, so a bounded working
            // list can hold equal rows; every child of a later copy is a
            // duplicate of one of the first copy's, which dedup would
            // reject without a side effect. Branch each row once.
            let unique = parents.first_occurrences();
            if unique.len() < parents.len() {
                parents = parents.gather(unique.into_iter());
            }
            // At most one child per (parent, branch) is admitted.
            let children = parents.len() * plan.len();
            (Dedup::with_capacity(children), BOUNDED_BRANCH_WORDS)
        } else {
            (Dedup::default(), PARALLEL_BRANCH_WORDS)
        };
        let mut state = Branching {
            rows: Rows::new(shape),
            dedup,
            bounded: self.options.bound.map(|bound| Bounded {
                bound: bound.get(),
                union: self.options.merge_assumptions == MergeAssumptions::Union,
                working: VecDeque::new(),
            }),
        };
        let threads = self.branch_threads(parents.len(), plan.len(), gate);
        if threads > 1 {
            let per_parent = plan.len() * DependencyFunction::words_per_function(self.tasks);
            let wave = (BRANCH_WAVE_WORDS / per_parent).max(threads);
            let len = parents.len();
            let shared = Arc::new((parents, plan));
            for start in (0..len).step_by(wave) {
                let items = start..len.min(start + wave);
                let chunks = pool::scatter_chunks(threads, items, &shared, |shared, range| {
                    let (parents, plan) = shared;
                    let mut children = Rows::new(parents.shape());
                    let mut keys = Vec::new();
                    let Ok(()) = parents.children::<Infallible>(range, plan, |child, fp, w| {
                        keys.push((fp, w));
                        children.push(child);
                        Ok(())
                    });
                    children.debug_validate("wave", false);
                    (children, keys)
                });
                for (children, keys) in chunks {
                    for (i, (fingerprint, weight)) in keys.into_iter().enumerate() {
                        let child = children.row(i);
                        self.admit(period, observer, &mut state, child, fingerprint, weight)?;
                    }
                }
            }
        } else {
            parents.children(0..parents.len(), &plan, |child, fingerprint, weight| {
                self.admit(period, observer, &mut state, child, fingerprint, weight)
            })?;
        }
        Ok(state.finish())
    }

    /// The per-child reduce step shared by the sequential loop and the
    /// parallel ordered reduce: dedup → count → sampled budget check →
    /// admit → set-limit guard (exact) or weight-ordered insert and
    /// overflow merge (bounded).
    fn admit<O: Observer + ?Sized>(
        &mut self,
        period: usize,
        observer: &mut O,
        state: &mut Branching,
        child: &[u64],
        fingerprint: u64,
        weight: u64,
    ) -> Result<(), LearnError> {
        let rows = &state.rows;
        if !state
            .dedup
            .insert(fingerprint, rows.len(), |j| rows.row(j) == child)
        {
            return Ok(());
        }
        self.stats.hypotheses_generated += 1;
        if self
            .stats
            .hypotheses_generated
            .is_multiple_of(BUDGET_SAMPLE_INTERVAL)
        {
            self.check_budget(period, observer)?;
        }
        let index = state.rows.push(child);
        let Some(bounded) = &mut state.bounded else {
            // The exact algorithm needs no weight order; sorted insertion
            // would cost O(n^2) across a blow-up.
            if let Some(limit) = self.options.set_limit {
                if state.rows.len() > limit.get() {
                    self.hypotheses.clear();
                    return Err(LearnError::SetLimitExceeded {
                        period,
                        limit: limit.get(),
                    });
                }
            }
            return Ok(());
        };
        bounded.insert(weight, index);
        if bounded.working.len() > bounded.bound {
            // Replace the two lowest-weight hypotheses by their least
            // upper bound (§3.2).
            let (wa, a) = bounded
                .working
                .pop_front()
                .expect("overflow implies nonempty");
            let (wb, b) = bounded.working.pop_front().expect("bound >= 1");
            let (merged, weight) = state.rows.push_merge(a, wa, b, bounded.union);
            observer.merge(period, (wa, wb), weight);
            bounded.insert(weight, merged);
            self.stats.merges += 1;
        }
        Ok(())
    }

    /// Processes a *negative* instance: a period known to be infeasible
    /// (e.g. observed during a fault injection, or ruled out by a
    /// specification). Every current hypothesis that *matches* the
    /// negative period is eliminated — the candidate-elimination step the
    /// paper's conclusion sketches ("It could also be extended by version
    /// space techniques provided negative examples in the execution
    /// traces").
    ///
    /// Only the most-specific (S) boundary is maintained, which is also
    /// all the paper's model-generation output consists of; tracking the
    /// most-general (G) boundary is not needed to answer "what is the most
    /// specific model consistent with the observations".
    ///
    /// Returns the number of eliminated hypotheses.
    ///
    /// # Errors
    ///
    /// [`LearnError::UniverseMismatch`] on task-count mismatch;
    /// [`LearnError::Inconsistent`] if every hypothesis matched the
    /// negative period (the positive and negative observations cannot be
    /// reconciled within the hypothesis language).
    pub fn observe_negative(&mut self, period: &Period) -> Result<usize, LearnError> {
        if period.universe() != self.tasks {
            return Err(LearnError::UniverseMismatch {
                expected: self.tasks,
                actual: period.universe(),
            });
        }
        let before = self.hypotheses.len();
        let threads = if self.options.parallelism.get() > 1 && before >= PARALLEL_MATCH_THRESHOLD {
            WorkerPool::global().provision(self.options.parallelism.get())
        } else {
            1
        };
        if threads > 1 {
            // Each matches_period call runs an independent backtracking
            // search; fan the reads out, keep the retain order here. The
            // set moves into the shared `Arc` and back out afterwards (a
            // move, not a copy: `scatter_chunks` drops every job's clone).
            let shared = Arc::new((std::mem::take(&mut self.hypotheses), period.clone()));
            let keep = pool::scatter_chunks(threads, 0..before, &shared, |shared, range| {
                let (hypotheses, period) = shared;
                range
                    .map(|i| !crate::matching::matches_period(&hypotheses[i], period))
                    .collect::<Vec<bool>>()
            })
            .concat();
            self.hypotheses = Arc::try_unwrap(shared).map_or_else(|s| s.0.clone(), |(h, _)| h);
            let mut flags = keep.into_iter();
            self.hypotheses
                .retain(|_| flags.next().expect("one flag per hypothesis"));
        } else {
            self.hypotheses
                .retain(|h| !crate::matching::matches_period(h, period));
        }
        if self.hypotheses.is_empty() {
            return Err(LearnError::Inconsistent {
                period: period.index(),
                message: None,
            });
        }
        Ok(before - self.hypotheses.len())
    }

    /// Post-processing: strips the assumptions of the period's final
    /// rows, unifies equal ones and removes dominated ones (`d` is
    /// redundant iff some other `d'` satisfies `d' ⊑ d`, `d' ≠ d`), and
    /// makes the survivors the hypothesis set.
    ///
    /// Dedup is fingerprint-first over the stripped rows (full equality
    /// only on a hit), in first-seen order; the unique rows are stably
    /// sorted by weight straight into a [`FunctionArena`]: one contiguous
    /// word buffer plus a cached weight column, so each domination probe
    /// is a `partition_point` over adjacent weights followed by a batched
    /// `leq` sweep of adjacent rows. Weight sorting makes the prefix
    /// sufficient: a strict dominator is strictly more specific and weight
    /// is strictly monotone on the order, so only the strictly-lower-weight
    /// prefix can dominate an entry. The scan fans out over the persistent
    /// pool when the arena is large (the `Arc`'d arena is the only shared
    /// state, so chunking cannot change the flags). Survivors stay
    /// weight-sorted, ties in first-seen order.
    fn remove_redundant(&mut self, mut set: Rows) {
        set.strip_assumptions();
        set.debug_validate("post-processing", true);
        let shape = set.shape();
        let mut unique: Vec<(u64, usize)> = set
            .first_occurrences()
            .into_iter()
            .map(|i| (shape.weight(set.row(i)), i))
            .collect();
        unique.sort_by_key(|&(weight, _)| weight);
        let mut arena = FunctionArena::with_capacity(self.tasks, unique.len());
        for &(_, i) in &unique {
            arena.push_words(set.function(i));
        }
        drop(set);
        let arena = Arc::new(arena);
        fn keeps(arena: &FunctionArena, i: usize) -> bool {
            let prefix = arena.weights().partition_point(|&w| w < arena.weight(i));
            !arena.dominated_in_prefix(i, prefix)
        }
        let threads =
            if self.options.parallelism.get() > 1 && arena.total_words() >= PARALLEL_SCAN_WORDS {
                WorkerPool::global().provision(self.options.parallelism.get())
            } else {
                1
            };
        let keep: Vec<bool> = if threads > 1 {
            pool::scatter_chunks(threads, 0..arena.len(), &arena, |arena, range| {
                range.map(|i| keeps(arena, i)).collect::<Vec<bool>>()
            })
            .concat()
        } else {
            (0..arena.len()).map(|i| keeps(&arena, i)).collect()
        };
        self.hypotheses = (0..arena.len())
            .filter(|&i| keep[i])
            .map(|i| arena.get(i))
            .collect();
    }

    /// Finishes the run, producing a [`LearnResult`].
    #[must_use]
    pub fn into_result(self) -> LearnResult {
        LearnResult {
            hypotheses: self.hypotheses,
            stats: self.stats,
        }
    }
}

/// All ordered pairs of distinct tasks that executed in `period` (the
/// unfiltered candidate set used by the timing-filter ablation).
fn all_executed_pairs(period: &Period) -> Vec<(TaskId, TaskId)> {
    let executed: Vec<TaskId> = period.executed_tasks().iter().collect();
    let pairs = executed
        .iter()
        .flat_map(|&s| executed.iter().map(move |&r| (s, r)));
    pairs.filter(|(s, r)| s != r).collect()
}

/// The outcome of a completed learner run.
#[derive(Debug, Clone)]
pub struct LearnResult {
    hypotheses: Vec<DependencyFunction>,
    stats: LearnStats,
}

impl LearnResult {
    /// The most-specific hypothesis set, ordered by ascending weight.
    #[must_use]
    pub fn hypotheses(&self) -> &[DependencyFunction] {
        &self.hypotheses
    }

    /// Whether the run converged to a unique hypothesis.
    #[must_use]
    pub fn converged(&self) -> bool {
        self.hypotheses.len() == 1
    }

    /// The least upper bound of all remaining hypotheses — the paper's
    /// `d_LUB` summary (§3.3), and by Theorem 4 the exact value the bound-1
    /// heuristic converges to. `None` if the set is empty.
    #[must_use]
    pub fn lub(&self) -> Option<DependencyFunction> {
        lub_of(&self.hypotheses)
    }

    /// Run statistics.
    #[must_use]
    pub fn stats(&self) -> &LearnStats {
        &self.stats
    }
}

/// The least upper bound of `functions`, or `None` if there are none.
pub(crate) fn lub_of<'a>(
    functions: impl IntoIterator<Item = &'a DependencyFunction>,
) -> Option<DependencyFunction> {
    let mut iter = functions.into_iter();
    let mut acc = iter.next()?.clone();
    for d in iter {
        // In-place word joins: one accumulator allocation for the whole
        // fold instead of one fresh matrix per hypothesis.
        acc.join_in_place(d);
    }
    Some(acc)
}

/// Runs the learner over every period of `trace`.
///
/// # Errors
///
/// Propagates the first [`LearnError`] (see [`Learner::observe`]).
///
/// # Example
///
/// See the [crate-level example](crate).
pub fn learn(trace: &Trace, options: LearnOptions) -> Result<LearnResult, LearnError> {
    learn_with(trace, options, &mut NoopObserver)
}

/// [`learn`] with instrumentation: every period, branching step, merge,
/// and budget heartbeat is reported to `observer` (see
/// [`Learner::observe_with`]).
///
/// # Errors
///
/// Propagates the first [`LearnError`] (see [`Learner::observe`]).
pub fn learn_with<O: Observer + ?Sized>(
    trace: &Trace,
    options: LearnOptions,
    observer: &mut O,
) -> Result<LearnResult, LearnError> {
    let mut learner = Learner::new(trace.task_count(), options);
    for period in trace.periods() {
        learner.observe_with(period, observer)?;
    }
    Ok(learner.into_result())
}

#[cfg(test)]
mod tests {
    use bbmg_lattice::{DependencyValue as V, TaskUniverse};
    use bbmg_trace::{Timestamp, Trace, TraceBuilder};

    use super::*;
    use crate::matching::matches_trace;

    fn t(i: usize) -> TaskId {
        TaskId::from_index(i)
    }

    /// Period 1 of the paper's Figure 2: t1 [m1] t2 [m2] t4 over a 4-task
    /// universe.
    fn figure_2_period_1() -> Trace {
        let u = TaskUniverse::from_names(["t1", "t2", "t3", "t4"]);
        let mut b = TraceBuilder::new(u);
        b.begin_period();
        b.task(t(0), Timestamp::new(0), Timestamp::new(10)).unwrap();
        b.message(Timestamp::new(12), Timestamp::new(14)).unwrap();
        b.task(t(1), Timestamp::new(20), Timestamp::new(30))
            .unwrap();
        b.message(Timestamp::new(32), Timestamp::new(34)).unwrap();
        b.task(t(3), Timestamp::new(40), Timestamp::new(50))
            .unwrap();
        b.end_period().unwrap();
        b.finish()
    }

    #[test]
    fn first_message_yields_d11_and_d12() {
        // Process only m1 by truncating the trace to a period with m1 only.
        let u = TaskUniverse::from_names(["t1", "t2", "t3", "t4"]);
        let mut b = TraceBuilder::new(u);
        b.begin_period();
        b.task(t(0), Timestamp::new(0), Timestamp::new(10)).unwrap();
        b.message(Timestamp::new(12), Timestamp::new(14)).unwrap();
        b.task(t(1), Timestamp::new(20), Timestamp::new(30))
            .unwrap();
        b.task(t(3), Timestamp::new(40), Timestamp::new(50))
            .unwrap();
        b.end_period().unwrap();
        let trace = b.finish();

        let result = learn(&trace, LearnOptions::exact()).unwrap();
        let d11 = DependencyFunction::from_rows(&[
            &["||", "->", "||", "||"],
            &["<-", "||", "||", "||"],
            &["||", "||", "||", "||"],
            &["||", "||", "||", "||"],
        ])
        .unwrap();
        let d12 = DependencyFunction::from_rows(&[
            &["||", "||", "||", "->"],
            &["||", "||", "||", "||"],
            &["||", "||", "||", "||"],
            &["<-", "||", "||", "||"],
        ])
        .unwrap();
        assert_eq!(result.hypotheses().len(), 2);
        assert!(result.hypotheses().contains(&d11));
        assert!(result.hypotheses().contains(&d12));
    }

    #[test]
    fn period_1_yields_d21_d22_d23() {
        let trace = figure_2_period_1();
        let result = learn(&trace, LearnOptions::exact()).unwrap();
        let d21 = DependencyFunction::from_rows(&[
            &["||", "->", "||", "->"],
            &["<-", "||", "||", "||"],
            &["||", "||", "||", "||"],
            &["<-", "||", "||", "||"],
        ])
        .unwrap();
        let d22 = DependencyFunction::from_rows(&[
            &["||", "->", "||", "||"],
            &["<-", "||", "||", "->"],
            &["||", "||", "||", "||"],
            &["||", "<-", "||", "||"],
        ])
        .unwrap();
        let d23 = DependencyFunction::from_rows(&[
            &["||", "||", "||", "->"],
            &["||", "||", "||", "->"],
            &["||", "||", "||", "||"],
            &["<-", "<-", "||", "||"],
        ])
        .unwrap();
        assert_eq!(result.hypotheses().len(), 3);
        for d in [&d21, &d22, &d23] {
            assert!(result.hypotheses().contains(d), "missing\n{d:?}");
        }
    }

    #[test]
    fn every_returned_hypothesis_matches_the_trace() {
        // Theorem 2 instance check.
        let trace = figure_2_period_1();
        for options in [LearnOptions::exact(), LearnOptions::bounded(2)] {
            let result = learn(&trace, options).unwrap();
            for d in result.hypotheses() {
                assert!(matches_trace(d, &trace));
            }
        }
    }

    #[test]
    fn bounded_run_respects_bound_and_merges() {
        let trace = figure_2_period_1();
        let result = learn(&trace, LearnOptions::bounded(1)).unwrap();
        assert!(result.converged());
        assert!(result.stats().merges > 0);
        // Theorem 4 / lemma shape: bound-1 result equals LUB of exact set.
        let exact = learn(&trace, LearnOptions::exact()).unwrap();
        assert_eq!(result.hypotheses()[0], exact.lub().unwrap());
    }

    #[test]
    fn inconsistent_trace_reports_error() {
        // One message but only one executed task: no candidate pairs.
        let u = TaskUniverse::from_names(["a", "b"]);
        let mut b = TraceBuilder::new(u);
        b.begin_period();
        b.task(t(0), Timestamp::new(0), Timestamp::new(10)).unwrap();
        b.message(Timestamp::new(12), Timestamp::new(14)).unwrap();
        b.end_period().unwrap();
        let trace = b.finish();
        let err = learn(&trace, LearnOptions::exact()).unwrap_err();
        assert!(matches!(err, LearnError::Inconsistent { period: 0, .. }));
    }

    #[test]
    fn universe_mismatch_reports_error() {
        let trace = figure_2_period_1();
        let mut learner = Learner::new(3, LearnOptions::exact());
        let err = learner.observe(&trace.periods()[0]).unwrap_err();
        assert!(matches!(
            err,
            LearnError::UniverseMismatch {
                expected: 3,
                actual: 4
            }
        ));
    }

    #[test]
    fn empty_trace_converges_to_bottom() {
        let learner = Learner::new(4, LearnOptions::exact());
        assert!(learner.converged());
        let result = learner.into_result();
        assert!(result.hypotheses()[0].is_bottom());
        assert_eq!(result.lub().unwrap(), DependencyFunction::bottom(4));
    }

    #[test]
    fn timing_filter_off_is_more_general() {
        let trace = figure_2_period_1();
        let with = learn(&trace, LearnOptions::exact()).unwrap();
        let without = learn(&trace, LearnOptions::exact().with_timing_filter(false)).unwrap();
        // Every timing-filtered hypothesis is dominated by (or equal to)
        // some unfiltered hypothesis: the unfiltered set explores a
        // superset of assignments.
        for d in with.hypotheses() {
            assert!(
                without.hypotheses().iter().any(|u| u.leq(d)),
                "filtered hypothesis not covered"
            );
        }
        assert!(without.hypotheses().len() >= with.hypotheses().len());
    }

    #[test]
    fn negative_example_eliminates_matching_hypotheses() {
        // After period 1 of the worked example the set is {d21, d22, d23}.
        // A negative period shaped exactly like period 1 whose messages
        // could only be (t1,t2) and (t1,t4) eliminates d21 (which matches
        // it) but keeps d22/d23 (which need a (t2,t4) message).
        let trace = figure_2_period_1();
        let mut learner = Learner::new(4, LearnOptions::exact());
        learner.observe(&trace.periods()[0]).unwrap();
        assert_eq!(learner.len(), 3);

        // Negative instance declared infeasible by the spec: t1, t2, t4
        // execute and *two* messages transmit before t2 starts, so both
        // must come from t1 (to t2 and to t4). Only d21 holds both the
        // t1 -> t2 and t1 -> t4 dependencies, so only d21 matches and is
        // eliminated; d22 and d23 each admit just one of the pairs and
        // survive.
        let u = TaskUniverse::from_names(["t1", "t2", "t3", "t4"]);
        let mut b = TraceBuilder::new(u);
        b.begin_period();
        b.task(t(0), Timestamp::new(0), Timestamp::new(10)).unwrap();
        b.message(Timestamp::new(12), Timestamp::new(14)).unwrap();
        b.message(Timestamp::new(15), Timestamp::new(17)).unwrap();
        b.task(t(1), Timestamp::new(20), Timestamp::new(30))
            .unwrap();
        b.task(t(3), Timestamp::new(40), Timestamp::new(50))
            .unwrap();
        b.end_period().unwrap();
        let negative = b.finish();

        let eliminated = learner.observe_negative(&negative.periods()[0]).unwrap();
        assert_eq!(eliminated, 1);
        assert_eq!(learner.len(), 2);
        // No survivor holds both t1->t2 and t1->t4.
        for d in learner.hypotheses() {
            let both = d.value(t(0), t(1)) == V::Determines && d.value(t(0), t(3)) == V::Determines;
            assert!(!both, "d21 should have been eliminated");
        }
    }

    #[test]
    fn negative_example_matching_everything_errors() {
        let trace = figure_2_period_1();
        let mut learner = Learner::new(4, LearnOptions::exact());
        learner.observe(&trace.periods()[0]).unwrap();
        // A negative period with no events matches every hypothesis
        // (vacuously), so the version space collapses.
        let u = TaskUniverse::from_names(["t1", "t2", "t3", "t4"]);
        let mut b = TraceBuilder::new(u);
        b.begin_period();
        b.end_period().unwrap();
        let empty = b.finish();
        let err = learner.observe_negative(&empty.periods()[0]).unwrap_err();
        assert!(matches!(err, LearnError::Inconsistent { .. }));
    }

    #[test]
    fn negative_example_universe_mismatch_errors() {
        let trace = figure_2_period_1();
        let mut learner = Learner::new(3, LearnOptions::exact());
        let err = learner.observe_negative(&trace.periods()[0]).unwrap_err();
        assert!(matches!(err, LearnError::UniverseMismatch { .. }));
    }

    #[test]
    fn history_ablation_breaks_cross_period_correctness() {
        // Period 1: only t1 runs. Period 2: t1 [m] t3 run. History-aware
        // joins give d(t1,t3) = ->? (period 1 already refutes ->); the
        // naive ablation emits -> and the result fails to match period 1.
        let u = TaskUniverse::from_names(["t1", "t2", "t3", "t4"]);
        let mut b = TraceBuilder::new(u);
        b.begin_period();
        b.task(t(0), Timestamp::new(0), Timestamp::new(10)).unwrap();
        b.end_period().unwrap();
        b.begin_period();
        b.task(t(0), Timestamp::new(100), Timestamp::new(110))
            .unwrap();
        b.message(Timestamp::new(112), Timestamp::new(114)).unwrap();
        b.task(t(2), Timestamp::new(120), Timestamp::new(130))
            .unwrap();
        b.end_period().unwrap();
        let trace = b.finish();

        let aware = learn(&trace, LearnOptions::exact()).unwrap();
        for d in aware.hypotheses() {
            assert!(crate::matching::matches_trace(d, &trace));
            assert_eq!(d.value(t(0), t(2)), V::MayDetermine);
        }

        let naive = learn(&trace, LearnOptions::exact().with_history_aware(false)).unwrap();
        assert!(
            naive
                .hypotheses()
                .iter()
                .any(|d| !crate::matching::matches_trace(d, &trace)),
            "the ablation should exhibit the cross-period violation"
        );
    }

    #[test]
    fn stats_are_populated() {
        let trace = figure_2_period_1();
        let result = learn(&trace, LearnOptions::exact()).unwrap();
        let stats = result.stats();
        assert_eq!(stats.periods, 1);
        assert_eq!(stats.messages, 2);
        assert_eq!(stats.set_sizes_per_period, vec![3]);
        assert!(stats.hypotheses_generated >= 5);
        assert!(stats.candidate_pairs_total >= 4);
    }

    /// One period whose second message branches past
    /// [`BUDGET_SAMPLE_INTERVAL`] generated hypotheses: 8 feasible
    /// senders x 8 feasible receivers give 64 candidates per message, so
    /// the exact algorithm generates well over 1024 hypotheses while
    /// explaining the second message.
    fn blowup_trace() -> Trace {
        let names: Vec<String> = (0..8)
            .map(|i| format!("s{i}"))
            .chain((0..8).map(|i| format!("r{i}")))
            .collect();
        let u = TaskUniverse::from_names(names);
        let senders: Vec<TaskId> = (0..8)
            .map(|i| u.lookup(&format!("s{i}")).unwrap())
            .collect();
        let receivers: Vec<TaskId> = (0..8)
            .map(|i| u.lookup(&format!("r{i}")).unwrap())
            .collect();
        let mut b = TraceBuilder::new(u);
        b.begin_period();
        for (i, s) in senders.iter().enumerate() {
            b.event(
                Timestamp::new(i as u64),
                bbmg_trace::EventKind::TaskStart(*s),
            )
            .unwrap();
        }
        for (i, s) in senders.iter().enumerate() {
            b.event(
                Timestamp::new(10 + i as u64),
                bbmg_trace::EventKind::TaskEnd(*s),
            )
            .unwrap();
        }
        b.message(Timestamp::new(20), Timestamp::new(21)).unwrap();
        b.message(Timestamp::new(22), Timestamp::new(23)).unwrap();
        for (i, r) in receivers.iter().enumerate() {
            b.event(
                Timestamp::new(60 + i as u64),
                bbmg_trace::EventKind::TaskStart(*r),
            )
            .unwrap();
        }
        for (i, r) in receivers.iter().enumerate() {
            b.event(
                Timestamp::new(70 + i as u64),
                bbmg_trace::EventKind::TaskEnd(*r),
            )
            .unwrap();
        }
        b.end_period().unwrap();
        b.finish()
    }

    #[test]
    fn budget_heartbeat_fires_once_per_sample_window() {
        use bbmg_obs::{Event, Recorder};

        let trace = blowup_trace();
        let mut recorder = Recorder::new();
        let result = learn_with(&trace, LearnOptions::exact(), &mut recorder).unwrap();
        assert!(
            result.stats().hypotheses_generated >= BUDGET_SAMPLE_INTERVAL,
            "the workload must cross at least one sample window, generated {}",
            result.stats().hypotheses_generated
        );
        let ticks: Vec<usize> = recorder
            .events()
            .iter()
            .filter_map(|e| match e.event {
                Event::BudgetTick { steps, .. } => Some(steps),
                _ => None,
            })
            .collect();
        assert!(!ticks.is_empty(), "an enabled observer gets heartbeats");
        assert!(
            ticks.iter().all(|s| s % BUDGET_SAMPLE_INTERVAL == 0),
            "heartbeats land exactly on sample windows: {ticks:?}"
        );
        assert_eq!(
            ticks.len(),
            result.stats().hypotheses_generated / BUDGET_SAMPLE_INTERVAL,
            "one heartbeat per window"
        );
    }

    #[test]
    fn mid_period_budget_trip_cuts_the_blowup_short() {
        // The boundary check passes (nothing generated yet), so only the
        // sampled mid-period check can trip — at the first multiple of
        // BUDGET_SAMPLE_INTERVAL past the limit.
        let trace = blowup_trace();
        let options = LearnOptions::exact()
            .with_budget(crate::Budget::unlimited().with_max_steps(BUDGET_SAMPLE_INTERVAL));
        let mut learner = Learner::new(trace.task_count(), options);
        let err = learner.observe(&trace.periods()[0]).unwrap_err();
        match err {
            LearnError::BudgetExhausted { period, steps } => {
                assert_eq!(period, 0);
                assert_eq!(steps, BUDGET_SAMPLE_INTERVAL, "tripped at the first window");
            }
            other => panic!("expected a mid-period budget trip, got {other:?}"),
        }
        // The documented error state: the hypothesis set of the last
        // period boundary, while the counters include the partial period.
        assert_eq!(
            learner.hypotheses(),
            vec![&DependencyFunction::bottom(trace.task_count())]
        );
        assert_eq!(learner.stats().hypotheses_generated, BUDGET_SAMPLE_INTERVAL);
        assert_eq!(learner.stats().periods, 0);
    }
}
