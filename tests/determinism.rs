//! Thread-count determinism suite (enforced in CI by the `perf-smoke`
//! job): learning with `parallelism` 1, 2, or 8 must produce
//! **byte-identical** results — the same hypotheses in the same order,
//! the same statistics, the same `bbmg-metrics/2` snapshot, and the same
//! event stream (up to wall-clock readings, which are zeroed before
//! comparison: `BudgetTick::elapsed_micros`, event arrival stamps, and
//! the metrics snapshot's `period_micros`/`total_micros`).
//!
//! The workloads are chosen so the parallel code paths actually run: the
//! wide blow-up trace crosses the learner's word-volume fan-out gates
//! ([`bbmg::core::PARALLEL_BRANCH_WORDS`] and friends) and the budget
//! sample window, while the small worked example stays below them — both
//! must agree with the sequential baseline.
//!
//! Dispatch goes through the process-wide persistent
//! [`WorkerPool`](bbmg::core::pool::WorkerPool), whose `provision` clamp
//! would keep everything sequential on a single-core host — so tests
//! that need the parallel paths to *actually execute* force real parked
//! workers with `ensure_workers` first (results must be identical either
//! way; forcing merely makes the assertion non-vacuous).

use bbmg::core::{
    learn, learn_with, matches_trace, matches_trace_parallel, Budget, LearnError, LearnOptions,
    MergeAssumptions, BRANCH_WAVE_WORDS,
};
use bbmg::lattice::TaskId;
use bbmg::obs::{Event, Metrics, MetricsSnapshot, Recorder, Summary, Tee};
use bbmg::sim::{SimConfig, Simulator};
use bbmg::trace::{EventKind, Timestamp, Trace, TraceBuilder};
use bbmg::workloads::random::{random_model, RandomModelConfig};
use bbmg::workloads::{gm, simple};

/// One period in which each of `messages` messages can come from any of
/// `width` senders and go to any of `width` receivers: the exact
/// algorithm branches every hypothesis over `width²` candidate pairs per
/// message, over a `2·width`-task universe.
fn blowup(width: usize, messages: usize) -> Trace {
    let names: Vec<String> = (0..width)
        .map(|i| format!("s{i}"))
        .chain((0..width).map(|i| format!("r{i}")))
        .collect();
    let u = bbmg::lattice::TaskUniverse::from_names(names);
    let senders: Vec<TaskId> = (0..width)
        .map(|i| u.lookup(&format!("s{i}")).unwrap())
        .collect();
    let receivers: Vec<TaskId> = (0..width)
        .map(|i| u.lookup(&format!("r{i}")).unwrap())
        .collect();
    let mut b = TraceBuilder::new(u);
    b.begin_period();
    for (i, s) in senders.iter().enumerate() {
        b.event(Timestamp::new(i as u64), EventKind::TaskStart(*s))
            .unwrap();
    }
    for (i, s) in senders.iter().enumerate() {
        b.event(Timestamp::new(10 + i as u64), EventKind::TaskEnd(*s))
            .unwrap();
    }
    for m in 0..messages as u64 {
        b.message(Timestamp::new(30 + 2 * m), Timestamp::new(31 + 2 * m))
            .unwrap();
    }
    for (i, r) in receivers.iter().enumerate() {
        b.event(Timestamp::new(60 + i as u64), EventKind::TaskStart(*r))
            .unwrap();
    }
    for (i, r) in receivers.iter().enumerate() {
        b.event(Timestamp::new(70 + i as u64), EventKind::TaskEnd(*r))
            .unwrap();
    }
    b.end_period().unwrap();
    b.finish()
}

/// 8 senders × 8 receivers, two messages: the exact algorithm branches
/// far past the parallel fan-out threshold and the budget sample window.
fn blowup_trace() -> Trace {
    blowup(8, 2)
}

/// A wider variant — 10 possible senders × 10 possible receivers over a
/// 20-task universe (20 packed words per matrix) — sized so the second
/// message's branch volume (100 hypotheses × 100 candidates × 20 words =
/// 200 Ki words) crosses `PARALLEL_BRANCH_WORDS`, the post-period scan
/// crosses `PARALLEL_SCAN_WORDS`, and a bound-64 run crosses
/// `BOUNDED_BRANCH_WORDS`: every parallel learner path runs for real.
fn wide_blowup_trace() -> Trace {
    blowup(10, 2)
}

/// The capture `bbmg simulate --workload random:tasks=7 --periods 8
/// --seed 4` writes (the benchmark's `exact_random7`, before its
/// relabelling). Its exact learn peaks at 539,184 hypotheses, so its
/// widest messages span dozens of [`BRANCH_WAVE_WORDS`] waves.
fn random7_trace() -> Trace {
    let model = random_model(&RandomModelConfig {
        tasks: 7,
        edge_probability: 0.3,
        seed: 4,
        ..RandomModelConfig::default()
    });
    let config = SimConfig {
        periods: 8,
        period_length: 100_000,
        seed: 4,
        ..SimConfig::default()
    };
    Simulator::new(&model, config)
        .run()
        .expect("simulation succeeds")
        .trace
}

/// The largest branch volume (`parents × candidates × packed words`, the
/// unit of the fan-out gates and of [`BRANCH_WAVE_WORDS`]) of any message
/// in a recorded event stream.
fn widest_message_words(trace: &Trace, events: &[Event]) -> usize {
    let words = bbmg::lattice::DependencyFunction::words_per_function(trace.task_count());
    let (mut parents, mut widest) = (1, 0);
    for event in events {
        match *event {
            Event::MessageBranch { candidates, .. } => {
                widest = widest.max(parents * candidates * words);
            }
            Event::HypothesisSet { size, .. } => parents = size,
            Event::PeriodEnd { hypotheses, .. } => parents = hypotheses,
            _ => {}
        }
    }
    widest
}

/// Grows the process-wide pool past the single-core `provision` clamp so
/// the fan-out paths genuinely dispatch to parked worker threads.
fn force_real_workers() {
    bbmg::core::pool::WorkerPool::global().ensure_workers(3);
}

/// Strips wall-clock content from an event so streams are comparable
/// across runs: only `BudgetTick` carries a clock reading.
fn normalize(event: &Event) -> Event {
    match event {
        Event::BudgetTick { steps, .. } => Event::BudgetTick {
            steps: *steps,
            elapsed_micros: 0,
        },
        other => other.clone(),
    }
}

/// Zeroes the wall-clock fields of a metrics snapshot.
fn normalize_metrics(mut snapshot: MetricsSnapshot) -> MetricsSnapshot {
    snapshot.period_micros = Summary::default();
    snapshot.total_micros = 0;
    snapshot.uptime_us = 0;
    snapshot
}

/// Everything a determinism comparison needs from one learn: the
/// outcome, the statistics, the normalized events and metrics.
type Run = (
    Result<Vec<bbmg::lattice::DependencyFunction>, String>,
    bbmg::core::LearnStats,
    Vec<Event>,
    MetricsSnapshot,
);

/// Runs `options` over `trace` with a recorder and metrics attached.
fn instrumented_run(trace: &Trace, options: LearnOptions) -> Run {
    let mut recorder = Recorder::new();
    let mut metrics = Metrics::new();
    let outcome = {
        let mut tee = Tee::new().with(&mut recorder).with(&mut metrics);
        learn_with(trace, options, &mut tee)
    };
    let (hypotheses, stats) = match outcome {
        Ok(result) => (
            Ok(result.hypotheses().to_vec()),
            result.stats().clone(),
            // events/metrics read below
        ),
        Err(e) => (Err(format!("{e:?}")), bbmg::core::LearnStats::default()),
    };
    let events: Vec<Event> = recorder
        .events()
        .iter()
        .map(|e| normalize(&e.event))
        .collect();
    (
        hypotheses,
        stats,
        events,
        normalize_metrics(metrics.snapshot()),
    )
}

/// Asserts that `options` over `trace` reproduces `baseline` exactly at
/// each of `threads`.
fn assert_reproduced(trace: &Trace, options: LearnOptions, baseline: &Run, threads: &[usize]) {
    for &threads in threads {
        let run = instrumented_run(trace, options.with_parallelism(threads));
        assert_eq!(baseline.0, run.0, "hypotheses differ at {threads} threads");
        assert_eq!(baseline.1, run.1, "stats differ at {threads} threads");
        assert_eq!(baseline.2, run.2, "events differ at {threads} threads");
        assert_eq!(baseline.3, run.3, "metrics differ at {threads} threads");
    }
}

#[test]
fn exact_blowup_is_byte_identical_across_thread_counts() {
    force_real_workers();
    let trace = blowup_trace();
    let baseline = instrumented_run(&trace, LearnOptions::exact());
    assert_reproduced(&trace, LearnOptions::exact(), &baseline, &[2, 8]);
}

#[test]
fn wide_exact_blowup_crosses_every_gate_and_stays_identical() {
    force_real_workers();
    let trace = wide_blowup_trace();
    let baseline = instrumented_run(&trace, LearnOptions::exact());
    assert!(
        baseline.1.hypotheses_generated >= 1024,
        "workload must cross the sample window, generated {}",
        baseline.1.hypotheses_generated
    );
    assert_reproduced(&trace, LearnOptions::exact(), &baseline, &[2, 4, 8]);
}

#[test]
fn bounded_parallel_generation_is_byte_identical() {
    // Bounded-mode *merging* stays sequential by design (§3.2 order
    // dependence), but child generation fans out past
    // BOUNDED_BRANCH_WORDS — merges, stats and events must still come
    // out byte-identical because the reduce consumes children in
    // generation order.
    force_real_workers();
    let trace = wide_blowup_trace();
    let baseline = instrumented_run(&trace, LearnOptions::bounded(64));
    assert!(baseline.1.merges > 0, "the bound must actually overflow");
    assert_reproduced(&trace, LearnOptions::bounded(64), &baseline, &[2, 8]);
}

#[test]
fn warm_pool_reuse_across_sequential_runs_is_stable() {
    // The persistent pool is process-wide: back-to-back runs reuse the
    // same parked workers. Every repeat must reproduce the first run
    // bit for bit — a worker carrying state across dispatches would
    // show up here.
    force_real_workers();
    let trace = wide_blowup_trace();
    let options = LearnOptions::exact().with_parallelism(4);
    let first = instrumented_run(&trace, options);
    for repeat in 0..3 {
        let again = instrumented_run(&trace, options);
        assert_eq!(first, again, "run {repeat} diverged on a warm pool");
    }
}

#[test]
fn interleaved_shards_sharing_the_pool_match_isolated_runs() {
    use bbmg::core::IncrementalLearner;

    // Serve-style usage: several incremental learners alternate periods
    // on the same process-wide pool. Interleaving dispatches from
    // different learners must leave each learner's outcome exactly what
    // an isolated run produces.
    force_real_workers();
    let wide = wide_blowup_trace();
    let small = simple::figure_2_trace();
    let options = LearnOptions::exact().with_parallelism(4);

    let isolated_wide = learn(&wide, options).unwrap();
    let isolated_small = learn(&small, options).unwrap();

    let mut shard_a = IncrementalLearner::new(wide.task_count(), options);
    let mut shard_b = IncrementalLearner::new(small.task_count(), options);
    let max_len = wide.periods().len().max(small.periods().len());
    for i in 0..max_len {
        if let Some(p) = wide.periods().get(i) {
            shard_a.push_period(p).unwrap();
        }
        if let Some(p) = small.periods().get(i) {
            shard_b.push_period(p).unwrap();
        }
    }
    let got_wide = shard_a.finish();
    let got_small = shard_b.finish();
    assert_eq!(isolated_wide.hypotheses(), got_wide.hypotheses());
    assert_eq!(isolated_small.hypotheses(), got_small.hypotheses());
}

#[test]
fn small_workload_below_fanout_threshold_is_identical_too() {
    let trace = simple::figure_2_trace();
    let baseline = instrumented_run(&trace, LearnOptions::exact());
    let run = instrumented_run(&trace, LearnOptions::exact().with_parallelism(8));
    assert_eq!(baseline, run);
}

#[test]
fn bounded_mode_is_untouched_by_thread_count() {
    // Bounded merging is sequential by design (§3.2 order dependence);
    // the parallelism knob must not perturb it in any way.
    let trace = gm::gm_trace(2007).expect("simulation succeeds").trace;
    let baseline = instrumented_run(&trace, LearnOptions::bounded(64));
    let run = instrumented_run(&trace, LearnOptions::bounded(64).with_parallelism(8));
    assert_eq!(baseline, run);
}

/// Runs `options` over `trace` at 1 thread and at each of `threads`,
/// asserting the run fails, and with the same error and event stream
/// (every budget heartbeat carries its step count) at each thread count.
fn assert_trips_identically(trace: &Trace, options: LearnOptions, threads: &[usize]) {
    let baseline = instrumented_run(trace, options);
    assert!(baseline.0.is_err(), "the limit must trip on this workload");
    for &threads in threads {
        let run = instrumented_run(trace, options.with_parallelism(threads));
        assert_eq!(baseline.0, run.0, "error differs at {threads} threads");
        assert_eq!(baseline.2, run.2, "events differ at {threads} threads");
    }
}

#[test]
fn budget_trips_at_the_same_step_at_any_thread_count() {
    let options = LearnOptions::exact().with_budget(Budget::unlimited().with_max_steps(1024));
    assert_trips_identically(&blowup_trace(), options, &[2, 8]);
}

#[test]
#[cfg_attr(
    debug_assertions,
    ignore = "a 1.6M-child exact learn; CI runs it in release"
)]
fn multi_wave_budget_and_set_limit_trip_at_the_same_step_at_any_thread_count() {
    // Both limits trip inside messages that span several generation
    // waves, so the parallel reduce stops mid-message after some waves
    // were generated and others were not.
    force_real_workers();
    let trace = random7_trace();
    let exact = LearnOptions::exact();
    let steps = exact.with_budget(Budget::unlimited().with_max_steps(300_000));
    assert_trips_identically(&trace, steps, &[2, 4]);
    assert_trips_identically(&trace, exact.with_set_limit(200_000), &[2, 4]);
}

#[test]
fn parallel_matching_agrees_with_sequential() {
    let trace = gm::gm_trace(7).expect("simulation succeeds").trace;
    let result = learn(&trace, LearnOptions::bounded(32)).unwrap();
    let lub = result.lub().unwrap();
    for threads in [1usize, 2, 8] {
        assert_eq!(
            matches_trace_parallel(&lub, &trace, threads),
            matches_trace(&lub, &trace),
            "matching verdict differs at {threads} threads"
        );
    }
    // A function that does not match must not match at any thread count.
    let bottom = bbmg::lattice::DependencyFunction::bottom(trace.task_count());
    for threads in [1usize, 2, 8] {
        assert_eq!(
            matches_trace_parallel(&bottom, &trace, threads),
            matches_trace(&bottom, &trace),
        );
    }
}

/// The identity a golden pin records: the antichain fingerprint plus the
/// work counters of one learn.
fn pin_of(trace: &Trace, options: LearnOptions) -> (u64, usize, usize, usize, Vec<usize>) {
    let result = learn(trace, options).expect("pinned workloads learn");
    let stats = result.stats();
    (
        bbmg::core::antichain_fingerprint(result.hypotheses()),
        stats.hypotheses_generated,
        stats.merges,
        stats.peak_set_size,
        stats.set_sizes_per_period.clone(),
    )
}

/// Per-period set sizes of a GM learn: `head`, then converged (one
/// hypothesis) for the rest of the 27 periods.
fn gm_sizes(head: &[usize]) -> Vec<usize> {
    let mut sizes = head.to_vec();
    sizes.resize(27, 1);
    sizes
}

#[test]
fn gm_bound_sweep_matches_golden_pins() {
    // Golden values: any change to admission, dedup or merge order
    // moves these numbers. Bounds 1 to 120 converge to the same model;
    // bound 150 merges its way to a different single hypothesis.
    const GM_MODEL: u64 = 17_045_702_320_792_801_147;
    let trace = gm::gm_trace(2007).expect("simulation succeeds").trace;
    let pins = [
        (1usize, GM_MODEL, 11_520usize, 11_179usize, gm_sizes(&[])),
        (16, GM_MODEL, 87_542, 82_169, gm_sizes(&[2, 2])),
        (100, GM_MODEL, 406_204, 374_394, gm_sizes(&[19, 2])),
        (
            150,
            2_590_677_292_866_410_309,
            590_056,
            542_654,
            gm_sizes(&[21, 3]),
        ),
    ];
    for (bound, model, generated, merges, sizes) in pins {
        assert_eq!(
            pin_of(&trace, LearnOptions::bounded(bound)),
            (model, generated, merges, bound, sizes),
            "bound {bound}"
        );
    }
}

#[test]
fn gm_union_merges_match_golden_pins() {
    // The default pins above intersect merged assumption sets; these
    // unite them, the other half of the merge kernel.
    const GM_MODEL: u64 = 17_045_702_320_792_801_147;
    let trace = gm::gm_trace(2007).expect("simulation succeeds").trace;
    let union =
        |bound| LearnOptions::bounded(bound).with_merge_assumptions(MergeAssumptions::Union);
    let pins = [
        (16usize, 53_757usize, 48_391usize, gm_sizes(&[14, 2])),
        (100, 323_480, 291_699, gm_sizes(&[24, 4])),
    ];
    for (bound, generated, merges, sizes) in pins {
        assert_eq!(
            pin_of(&trace, union(bound)),
            (GM_MODEL, generated, merges, bound, sizes),
            "bound {bound}"
        );
    }
}

#[test]
fn gm_union_merges_abort_at_bound_one() {
    // The one hypothesis accumulates every branch's pair, so the third
    // message finds all its candidates already assumed (why intersection
    // is the default; see `MergeAssumptions`).
    let trace = gm::gm_trace(2007).expect("simulation succeeds").trace;
    let union = LearnOptions::bounded(1).with_merge_assumptions(MergeAssumptions::Union);
    assert!(matches!(
        learn(&trace, union),
        Err(LearnError::Inconsistent {
            period: 0,
            message: Some(m)
        }) if m.index() == 2
    ));
}

#[test]
fn exact_blowups_match_golden_pins() {
    force_real_workers();
    let pins = [
        (
            blowup_trace(),
            8_637_582_238_857_659_655u64,
            2_080usize,
            2_016usize,
        ),
        (
            wide_blowup_trace(),
            15_846_931_744_972_794_147,
            5_050,
            4_950,
        ),
    ];
    for (trace, model, generated, size) in pins {
        for threads in [1usize, 2] {
            assert_eq!(
                pin_of(&trace, LearnOptions::exact().with_parallelism(threads)),
                (model, generated, 0, size, vec![size]),
                "{} tasks at {threads} threads",
                trace.task_count()
            );
        }
    }
}

/// Learns `trace` with `options` at 1 thread, checks that its widest
/// message spans at least three generation waves and that the learn
/// matches `pin` — `(antichain fingerprint, generated, merges, peak
/// set)`, recorded before waves existed — then that 2 and 4 threads
/// reproduce it exactly: wave boundaries must not show in the result.
fn assert_multi_wave(trace: &Trace, options: LearnOptions, pin: (u64, usize, usize, usize)) {
    force_real_workers();
    let baseline = instrumented_run(trace, options);
    let widest = widest_message_words(trace, &baseline.2);
    assert!(
        widest >= 3 * BRANCH_WAVE_WORDS,
        "the widest message must span at least 3 waves, spans {widest} words"
    );
    let hypotheses = baseline.0.as_ref().expect("pinned workloads learn");
    let stats = &baseline.1;
    assert_eq!(
        (
            bbmg::core::antichain_fingerprint(hypotheses),
            stats.hypotheses_generated,
            stats.merges,
            stats.peak_set_size,
        ),
        pin
    );
    assert_reproduced(trace, options, &baseline, &[2, 4]);
}

#[test]
#[cfg_attr(
    debug_assertions,
    ignore = "a 1.6M-child exact learn; CI runs it in release"
)]
fn multi_wave_exact_learn_is_byte_identical_and_matches_golden_pins() {
    // The traced ledger's `exact_random7` counts.
    let pin = (9_591_046_184_460_844_114, 1_646_091, 0, 539_184);
    assert_multi_wave(&random7_trace(), LearnOptions::exact(), pin);
}

#[test]
fn multi_wave_bounded_learn_is_byte_identical_and_matches_golden_pins() {
    // Bound 512 over three 10×10 messages: the third message branches
    // 512 parents × 100 candidates × 20 words, four waves, and every
    // overflow merge depends on the order the waves are reduced in.
    let pin = (5_299_162_928_085_218_573, 56_250, 55_126, 512);
    assert_multi_wave(&blowup(10, 3), LearnOptions::bounded(512), pin);
}
