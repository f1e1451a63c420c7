//! The declarative matching function `M : H × I → bool` (paper
//! Definition 3).
//!
//! The incremental learner never calls these directly — its per-message
//! branching *constructs* matching hypotheses — but the declarative form is
//! what the paper's correctness theorem quantifies over, so the test suite
//! uses it to validate Theorems 2 and 3 on randomized inputs.

use bbmg_lattice::{DependencyFunction, DependencyValue, TaskId};
use bbmg_obs::{Event, Observer};
use bbmg_trace::{Period, Trace};

/// Whether `d` is consistent with the execution set of `period`: no task
/// that executed makes an unconditional claim (`→`, `←`, `↔`) about a task
/// that did not execute.
#[must_use]
pub fn execution_consistent(d: &DependencyFunction, period: &Period) -> bool {
    let executed = period.executed_tasks();
    let n = d.task_count();
    for i in 0..n {
        let t1 = TaskId::from_index(i);
        if !executed.contains(t1) {
            continue;
        }
        for j in 0..n {
            let t2 = TaskId::from_index(j);
            if i == j || executed.contains(t2) {
                continue;
            }
            if matches!(
                d.value(t1, t2),
                DependencyValue::Determines | DependencyValue::DependsOn | DependencyValue::Mutual
            ) {
                return false;
            }
        }
    }
    true
}

/// Whether every message of `period` can be *explained* by `d`: there is an
/// assignment of a timing-feasible sender/receiver pair to each message
/// such that `d` admits the implied dependency in both directions
/// (`→ ⊑ d(s, r)` and `← ⊑ d(r, s)`) and no pair is used twice (at most one
/// message per pair per period).
#[must_use]
fn messages_explainable(d: &DependencyFunction, period: &Period) -> bool {
    let candidate_sets: Vec<Vec<(TaskId, TaskId)>> = period
        .messages()
        .iter()
        .map(|m| {
            period
                .candidate_pairs(m)
                .into_iter()
                .filter(|&(s, r)| {
                    d.value(s, r).admits_forward() && DependencyValue::DependsOn.leq(d.value(r, s))
                })
                .collect()
        })
        .collect();
    // Backtracking assignment with the "distinct pairs" constraint.
    fn assign(
        sets: &[Vec<(TaskId, TaskId)>],
        used: &mut Vec<(TaskId, TaskId)>,
        index: usize,
    ) -> bool {
        if index == sets.len() {
            return true;
        }
        for &pair in &sets[index] {
            if !used.contains(&pair) {
                used.push(pair);
                if assign(sets, used, index + 1) {
                    return true;
                }
                used.pop();
            }
        }
        false
    }
    assign(&candidate_sets, &mut Vec::new(), 0)
}

/// The matching function `M(d, i)`: `d` matches `period` iff it is
/// execution-consistent and every message is explainable (see the module
/// docs).
#[must_use]
pub fn matches_period(d: &DependencyFunction, period: &Period) -> bool {
    execution_consistent(d, period) && messages_explainable(d, period)
}

/// The relaxed matching function: execution consistency plus *per-message*
/// explainability, without the injectivity ("at most one message per
/// sender/receiver pair per period") constraint across messages.
///
/// The paper's prose defines matching per message; the one-message-per-pair
/// rule enters the algorithm as assumption-based pruning. The exact
/// algorithm's output satisfies the strict injective [`matches_period`];
/// the bounded heuristic's merges intentionally summarize several
/// assignment families into one function and can lose the injective
/// witness, so its guarantee is this relaxed form (DESIGN.md §4).
#[must_use]
pub fn matches_period_relaxed(d: &DependencyFunction, period: &Period) -> bool {
    execution_consistent(d, period)
        && period.messages().iter().all(|m| {
            period.candidate_pairs(m).into_iter().any(|(s, r)| {
                d.value(s, r).admits_forward() && DependencyValue::DependsOn.leq(d.value(r, s))
            })
        })
}

/// [`matches_period`] with instrumentation: emits one `match_check` event
/// carrying the two sub-verdicts (execution consistency, message
/// explainability), so validation sweeps leave an audit trail in the same
/// stream as the learn run they check.
#[must_use]
pub fn matches_period_with<O: Observer + ?Sized>(
    d: &DependencyFunction,
    period: &Period,
    observer: &mut O,
) -> bool {
    let consistent = execution_consistent(d, period);
    let explained = consistent && messages_explainable(d, period);
    observer.record(Event::MatchCheck {
        period: period.index(),
        consistent,
        explained,
    });
    consistent && explained
}

/// `M(d, I)` for a whole trace: matches every period (paper's lifting of
/// `M` to `P(I)`).
#[must_use]
pub fn matches_trace(d: &DependencyFunction, trace: &Trace) -> bool {
    trace.periods().iter().all(|p| matches_period(d, p))
}

/// [`matches_trace`] with instrumentation: checks *every* period (no
/// short-circuit, so the event stream covers the whole trace) and emits a
/// `match_check` event per period.
#[must_use]
pub fn matches_trace_with<O: Observer + ?Sized>(
    d: &DependencyFunction,
    trace: &Trace,
    observer: &mut O,
) -> bool {
    // Not `.all(...)`: that would short-circuit on the first mismatch and
    // truncate the event stream.
    #[allow(clippy::unnecessary_fold)]
    trace
        .periods()
        .iter()
        .fold(true, |acc, p| matches_period_with(d, p, observer) && acc)
}

/// [`matches_trace`] with the per-period checks fanned out over the
/// persistent [`WorkerPool`](crate::pool::WorkerPool) in contiguous
/// period chunks. Each period's verdict is independent, so the result is
/// identical to [`matches_trace`] at every thread count — parallelism
/// only trades the sequential short-circuit for concurrency, which pays
/// off on long traces whose periods each need a backtracking
/// explainability search. `threads` is a request: it is clamped to the
/// workers the pool can actually provision on this hardware.
#[must_use]
pub fn matches_trace_parallel(d: &DependencyFunction, trace: &Trace, threads: usize) -> bool {
    let periods = trace.periods();
    if threads <= 1 || periods.len() < 2 {
        return matches_trace(d, trace);
    }
    let threads = crate::pool::WorkerPool::global().provision(threads);
    if threads <= 1 {
        return matches_trace(d, trace);
    }
    // Jobs on the persistent pool are `'static`: share the function and
    // a copy of the periods through an `Arc`.
    let shared = std::sync::Arc::new((d.clone(), periods.to_vec()));
    crate::pool::scatter_chunks(threads, 0..periods.len(), &shared, |(d, periods), range| {
        periods[range].iter().all(|p| matches_period(d, p))
    })
    .into_iter()
    .all(|ok| ok)
}

/// Relaxed [`matches_trace`]; see [`matches_period_relaxed`].
#[must_use]
pub fn matches_trace_relaxed(d: &DependencyFunction, trace: &Trace) -> bool {
    trace.periods().iter().all(|p| matches_period_relaxed(d, p))
}

#[cfg(test)]
mod tests {
    use bbmg_lattice::{DependencyValue as V, TaskUniverse};
    use bbmg_trace::{Timestamp, TraceBuilder};

    use super::*;

    /// Trace with one period: a [m] b, plus c never executing.
    fn simple_trace() -> Trace {
        let mut u = TaskUniverse::new();
        let a = u.intern("a");
        let b = u.intern("b");
        let _c = u.intern("c");
        let mut builder = TraceBuilder::new(u);
        builder.begin_period();
        builder
            .task(a, Timestamp::new(0), Timestamp::new(10))
            .unwrap();
        builder
            .message(Timestamp::new(12), Timestamp::new(14))
            .unwrap();
        builder
            .task(b, Timestamp::new(20), Timestamp::new(30))
            .unwrap();
        builder.end_period().unwrap();
        builder.finish()
    }

    fn t(i: usize) -> TaskId {
        TaskId::from_index(i)
    }

    #[test]
    fn bottom_does_not_match_a_period_with_messages() {
        let trace = simple_trace();
        let d = DependencyFunction::bottom(3);
        // Execution-consistent (no claims at all)…
        assert!(execution_consistent(&d, &trace.periods()[0]));
        // …but cannot explain the message.
        assert!(!matches_period(&d, &trace.periods()[0]));
    }

    #[test]
    fn correct_hypothesis_matches() {
        let trace = simple_trace();
        let mut d = DependencyFunction::bottom(3);
        d.record_message(t(0), t(1));
        assert!(matches_period(&d, &trace.periods()[0]));
        assert!(matches_trace(&d, &trace));
    }

    #[test]
    fn top_matches_everything() {
        let trace = simple_trace();
        assert!(matches_trace(&DependencyFunction::top(3), &trace));
    }

    #[test]
    fn unconditional_claim_about_absent_task_fails() {
        let trace = simple_trace();
        let mut d = DependencyFunction::bottom(3);
        d.record_message(t(0), t(1));
        // Claim: whenever a runs, c runs. c did not run.
        d.set(t(0), t(2), V::Determines);
        assert!(!execution_consistent(&d, &trace.periods()[0]));
        assert!(!matches_period(&d, &trace.periods()[0]));
        // The may-variant is fine.
        d.set(t(0), t(2), V::MayDetermine);
        assert!(matches_period(&d, &trace.periods()[0]));
    }

    #[test]
    fn claims_by_absent_tasks_are_unconstrained() {
        let trace = simple_trace();
        let mut d = DependencyFunction::bottom(3);
        d.record_message(t(0), t(1));
        // c (absent) claims it always depends on a: not contradicted.
        d.set(t(2), t(0), V::DependsOn);
        assert!(matches_period(&d, &trace.periods()[0]));
    }

    #[test]
    fn distinct_pair_constraint_blocks_reuse() {
        // Two messages both only explainable as a -> b: d matching requires
        // two distinct pairs, so it must fail.
        let mut u = TaskUniverse::new();
        let a = u.intern("a");
        let b = u.intern("b");
        let mut builder = TraceBuilder::new(u);
        builder.begin_period();
        builder
            .task(a, Timestamp::new(0), Timestamp::new(10))
            .unwrap();
        builder
            .message(Timestamp::new(12), Timestamp::new(14))
            .unwrap();
        builder
            .message(Timestamp::new(15), Timestamp::new(17))
            .unwrap();
        builder
            .task(b, Timestamp::new(20), Timestamp::new(30))
            .unwrap();
        builder.end_period().unwrap();
        let trace = builder.finish();
        let d = DependencyFunction::top(2);
        assert!(!matches_period(&d, &trace.periods()[0]));
    }

    #[test]
    fn relaxed_matching_ignores_injectivity() {
        // Two messages, both only explainable as a -> b: strict M fails,
        // relaxed M succeeds.
        let mut u = TaskUniverse::new();
        let a = u.intern("a");
        let b = u.intern("b");
        let mut builder = TraceBuilder::new(u);
        builder.begin_period();
        builder
            .task(a, Timestamp::new(0), Timestamp::new(10))
            .unwrap();
        builder
            .message(Timestamp::new(12), Timestamp::new(14))
            .unwrap();
        builder
            .message(Timestamp::new(15), Timestamp::new(17))
            .unwrap();
        builder
            .task(b, Timestamp::new(20), Timestamp::new(30))
            .unwrap();
        builder.end_period().unwrap();
        let trace = builder.finish();
        let mut d = DependencyFunction::bottom(2);
        d.record_message(t(0), t(1));
        assert!(!matches_trace(&d, &trace));
        assert!(matches_trace_relaxed(&d, &trace));
    }

    #[test]
    fn strict_matching_implies_relaxed() {
        let trace = simple_trace();
        let mut d = DependencyFunction::bottom(3);
        d.record_message(t(0), t(1));
        assert!(matches_period(&d, &trace.periods()[0]));
        assert!(matches_period_relaxed(&d, &trace.periods()[0]));
    }

    #[test]
    fn backward_direction_must_admit_too() {
        let trace = simple_trace();
        let mut d = DependencyFunction::bottom(3);
        // Forward admits but backward stays parallel: unexplained.
        d.set(t(0), t(1), V::Determines);
        assert!(!matches_period(&d, &trace.periods()[0]));
        d.set(t(1), t(0), V::DependsOn);
        assert!(matches_period(&d, &trace.periods()[0]));
    }
}
