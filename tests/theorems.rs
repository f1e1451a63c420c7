//! Experiment E8: randomized validation of the paper's §4 theorems.
//!
//! * **Theorem 2 (correctness)** — every hypothesis returned by the
//!   algorithm, with or without heuristics, matches every instance.
//! * **Theorem 3 (optimality/completeness)** — the exact algorithm's
//!   result is an antichain of most-specific matching hypotheses; in
//!   particular no returned hypothesis can be weakened at any single pair
//!   and still match.
//! * **Lemma / Theorem 4 (convergence)** — directional form: the bound-1
//!   result generalizes the least upper bound of the exact set (see the
//!   test docs for why strict equality is not universally reproducible).
//! * **§3.2 (bounded heuristic)** — no working set exceeds the bound, a
//!   bounded result is an antichain, and a run that never merges is the
//!   exact run.
//!
//! Models are kept small (≤ 6 tasks) so the exact algorithm stays
//! tractable; each case still exercises disjunction branching, weakening
//! and post-processing.

use bbmg::core::{learn, matches_trace, matches_trace_relaxed, LearnOptions};
use bbmg::lattice::{DependencyValue, ALL_VALUES};
use bbmg::sim::{SimConfig, Simulator};
use bbmg::trace::Trace;
use bbmg::workloads::random::{random_model, RandomModelConfig};
use proptest::prelude::*;
use std::collections::HashSet;

/// A small random simulated trace, parameterized by seeds.
fn small_trace(tasks: usize, model_seed: u64, sim_seed: u64, periods: usize) -> Trace {
    let model = random_model(&RandomModelConfig {
        tasks,
        edge_probability: 0.35,
        max_in_degree: 2,
        disjunction_probability: 0.6,
        seed: model_seed,
    });
    Simulator::new(
        &model,
        SimConfig {
            periods,
            seed: sim_seed,
            ..SimConfig::default()
        },
    )
    .run()
    .expect("simulation succeeds")
    .trace
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Theorem 2 for the exact algorithm.
    #[test]
    fn exact_results_match_all_instances(
        tasks in 3usize..6,
        model_seed in 0u64..1000,
        sim_seed in 0u64..1000,
    ) {
        let trace = small_trace(tasks, model_seed, sim_seed, 6);
        // The exact algorithm is exponential (Theorem 1); skip the rare
        // pathological draw instead of hanging the suite.
        let Ok(result) = learn(&trace, LearnOptions::exact().with_set_limit(200_000)) else {
            return Ok(());
        };
        for d in result.hypotheses() {
            prop_assert!(matches_trace(d, &trace));
        }
    }

    /// Theorem 2 for the bounded heuristic, across bounds.
    #[test]
    fn bounded_results_match_all_instances(
        tasks in 3usize..7,
        model_seed in 0u64..1000,
        sim_seed in 0u64..1000,
        bound in 1usize..20,
    ) {
        let trace = small_trace(tasks, model_seed, sim_seed, 8);
        let result = learn(&trace, LearnOptions::bounded(bound)).unwrap();
        prop_assert!(result.hypotheses().len() <= bound);
        for d in result.hypotheses() {
            // Merged hypotheses guarantee the relaxed matching form; see
            // bbmg_core::matches_period_relaxed.
            prop_assert!(matches_trace_relaxed(d, &trace));
        }
    }

    /// Theorem 3: the exact result is an antichain, and no hypothesis can
    /// be made strictly more specific at any single pair while still
    /// matching (local minimality — a checkable consequence of
    /// most-specificity).
    #[test]
    fn exact_results_are_minimal(
        tasks in 3usize..5,
        model_seed in 0u64..500,
        sim_seed in 0u64..500,
    ) {
        let trace = small_trace(tasks, model_seed, sim_seed, 5);
        let result = learn(&trace, LearnOptions::exact()).unwrap();
        let set = result.hypotheses();
        // Antichain.
        for (i, a) in set.iter().enumerate() {
            for (j, b) in set.iter().enumerate() {
                if i != j {
                    prop_assert!(!a.leq(b), "returned set is not an antichain");
                }
            }
        }
        // Local minimality: lowering any single entry breaks matching.
        for d in set {
            for (t1, t2, v) in d.ordered_pairs() {
                if t1 == t2 || v == DependencyValue::Parallel {
                    continue;
                }
                for lower in ALL_VALUES {
                    if lower.leq(v) && lower != v {
                        let mut weaker = d.clone();
                        weaker.set(t1, t2, lower);
                        prop_assert!(
                            !matches_trace(&weaker, &trace),
                            "hypothesis not most-specific at ({t1},{t2})"
                        );
                    }
                }
            }
        }
    }

    /// Lemma + Theorem 4 (directional form): bound-1 always converges to a
    /// single hypothesis that generalizes the exact algorithm's LUB.
    ///
    /// The paper states LUB *equality* for every bound. Under our
    /// reconstruction equality holds on the worked example at every bound
    /// (see `tests/worked_example.rs`) but not universally: end-of-period
    /// removal of dominated hypotheses — which the paper's post-processing
    /// also performs — can discard the very hypothesis that carried a
    /// merge's extra generality, shifting a bounded run's LUB sideways of
    /// the exact one (EXPERIMENTS.md E5 quantifies this). What is
    /// guaranteed, and what soundness rests on, is conservativeness: the
    /// bound-1 fold is an upper bound of the exact LUB, and every bounded
    /// hypothesis generalizes some exact most-specific hypothesis (the
    /// `bounded_generalizes_exact` test below).
    #[test]
    fn bound_one_generalizes_exact_lub(
        tasks in 3usize..5,
        model_seed in 0u64..500,
        sim_seed in 0u64..500,
    ) {
        let trace = small_trace(tasks, model_seed, sim_seed, 5);
        let exact = learn(&trace, LearnOptions::exact()).unwrap();
        let exact_lub = exact.lub().unwrap();
        let b1 = learn(&trace, LearnOptions::bounded(1)).unwrap();
        prop_assert!(b1.converged());
        prop_assert!(exact_lub.leq(&b1.lub().unwrap()));
    }

    /// Heuristic conservativeness: every bounded hypothesis generalizes
    /// some exact most-specific hypothesis (it is "no longer guaranteed to
    /// be the most specific" but never wrong, §3.2).
    #[test]
    fn bounded_generalizes_exact(
        tasks in 3usize..5,
        model_seed in 0u64..500,
        sim_seed in 0u64..500,
        bound in 1usize..12,
    ) {
        let trace = small_trace(tasks, model_seed, sim_seed, 5);
        let exact = learn(&trace, LearnOptions::exact()).unwrap();
        let bounded = learn(&trace, LearnOptions::bounded(bound)).unwrap();
        for h in bounded.hypotheses() {
            prop_assert!(
                exact.hypotheses().iter().any(|e| e.leq(h)),
                "bounded hypothesis not above any exact one"
            );
        }
    }

    /// Until its first merge the bounded heuristic is the exact algorithm:
    /// with a bound no working set reaches, it returns the exact set and
    /// generates the same children. Bounded branching skips repeated
    /// parents (copies that weakening or a merge produced); this pins that
    /// the skip drops no child dedup would have kept.
    #[test]
    fn unmerged_bounded_learn_equals_exact(
        tasks in 3usize..6,
        model_seed in 0u64..1000,
        sim_seed in 0u64..1000,
    ) {
        let trace = small_trace(tasks, model_seed, sim_seed, 6);
        let limit = 200_000;
        let Ok(exact) = learn(&trace, LearnOptions::exact().with_set_limit(limit)) else {
            return Ok(());
        };
        let bounded = learn(&trace, LearnOptions::bounded(limit)).unwrap();
        let (e, b) = (exact.stats(), bounded.stats());
        prop_assert_eq!(b.merges, 0);
        prop_assert_eq!(b.hypotheses_generated, e.hypotheses_generated);
        prop_assert_eq!(b.peak_set_size, e.peak_set_size);
        prop_assert_eq!(&b.set_sizes_per_period, &e.set_sizes_per_period);
        let exact_set: HashSet<_> = exact.hypotheses().iter().collect();
        let bounded_set: HashSet<_> = bounded.hypotheses().iter().collect();
        prop_assert_eq!(bounded_set, exact_set);
    }

    /// Post-processing applies to merged sets too: a bounded result holds
    /// no duplicate and no hypothesis below another, however many equal
    /// rows the merges left in the working list.
    #[test]
    fn bounded_results_are_antichains(
        tasks in 3usize..7,
        model_seed in 0u64..1000,
        sim_seed in 0u64..1000,
        bound in 1usize..20,
    ) {
        let trace = small_trace(tasks, model_seed, sim_seed, 8);
        let result = learn(&trace, LearnOptions::bounded(bound)).unwrap();
        let set = result.hypotheses();
        for (i, a) in set.iter().enumerate() {
            for (j, b) in set.iter().enumerate() {
                if i != j {
                    prop_assert!(!a.leq(b), "bounded set is not an antichain");
                }
            }
        }
    }

    /// §3.2's bound holds after every message, not just at the end: no
    /// working set exceeds it, and a trace whose exact sets outgrow the
    /// bound forces at least one merge.
    #[test]
    fn bounded_working_sets_never_exceed_the_bound(
        tasks in 3usize..5,
        model_seed in 0u64..500,
        sim_seed in 0u64..500,
        bound in 1usize..12,
    ) {
        let trace = small_trace(tasks, model_seed, sim_seed, 5);
        let exact = learn(&trace, LearnOptions::exact()).unwrap();
        let bounded = learn(&trace, LearnOptions::bounded(bound)).unwrap();
        let stats = bounded.stats();
        prop_assert!(stats.peak_set_size <= bound);
        prop_assert!(stats.set_sizes_per_period.iter().all(|&n| n <= bound));
        if exact.stats().peak_set_size > bound {
            prop_assert!(stats.merges > 0, "exact set outgrew the bound without a merge");
        }
    }
}
