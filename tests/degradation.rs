//! Cross-crate error-path coverage: resource-guard trips and fallback,
//! universe mismatches, and fault-injected CSV round trips.

use bbmg::core::{
    learn, matches_trace, robust_learn, IncrementalLearner, LearnError, LearnOptions,
    OnInconsistent,
};
use bbmg::sim::{inject_faults, FaultConfig, Simulator};
use bbmg::trace::{parse_csv, parse_csv_lenient, parse_csv_raw, write_csv_raw, RawTrace, Trace};
use bbmg::workloads::{gm, random, simple};

fn gm_trace(periods: usize, seed: u64) -> Trace {
    let model = gm::gm_model();
    let mut config = gm::gm_config(seed);
    config.periods = periods;
    Simulator::new(&model, config)
        .run()
        .expect("gm simulation succeeds")
        .trace
}

#[test]
#[ignore = "GM-scale exhaustive run (~25-100s); covered by the scheduled slow-suite CI job"]
fn set_limit_trip_on_gm_falls_back_to_bounded() {
    let trace = gm_trace(6, 3);
    let options = LearnOptions::exact().with_set_limit(8);

    // The exact algorithm blows through a tiny working-set guard...
    let err = learn(&trace, options).expect_err("branching exceeds the guard");
    assert!(matches!(err, LearnError::SetLimitExceeded { limit: 8, .. }));

    // ...while the incremental learner switches to the bounded heuristic
    // and still produces a model from the full trace.
    let result = robust_learn(&trace, options).expect("fallback rescues the run");
    assert_eq!(result.stats().fallbacks, 1);
    assert_eq!(
        result.stats().periods,
        trace.periods().len(),
        "every period learned across the fallback"
    );
    assert!(result.lub().is_some());
}

/// The capture of a 7-task random model (seed 9, 8 periods) on which the
/// exact learner trips a set limit of 256. Seeding the bounded fallback
/// from the exact antichain gives a different model than replaying the
/// accepted periods into a fresh bounded learner would.
fn seed_vs_replay_trace() -> Trace {
    let config = random::RandomModelConfig {
        tasks: 7,
        seed: 9,
        ..random::RandomModelConfig::default()
    };
    random::random_trace(&config, 8, 9)
        .expect("random simulation succeeds")
        .trace
}

#[test]
fn seeded_fallback_is_sound_and_no_more_general_than_a_replay() {
    let trace = seed_vs_replay_trace();
    let options = LearnOptions::exact()
        .with_set_limit(256)
        .with_on_inconsistent(OnInconsistent::SkipPeriod);
    let result = robust_learn(&trace, options).expect("fallback rescues the run");
    assert_eq!(result.stats().fallbacks, 1);
    assert!(result.stats().skipped_periods.is_empty());
    assert!(result.hypotheses().iter().all(|d| matches_trace(d, &trace)));

    // A replay fallback relearns every accepted period with the fallback
    // bound from scratch, which on a trace without skips is exactly a
    // bounded(64) learn. The seed keeps the exact antichain's precision:
    // its LUB lies strictly below the replay's.
    let seeded = result.lub().expect("nonempty");
    let replayed = learn(&trace, LearnOptions::bounded(64))
        .expect("bounded learn")
        .lub()
        .expect("nonempty");
    assert!(seeded.leq(&replayed));
    assert_ne!(seeded, replayed, "seed and replay differ on this capture");
}

#[test]
fn universe_mismatch_on_mixed_traces() {
    let gm = gm_trace(2, 0);
    let simple = simple::figure_2_trace();
    assert_ne!(gm.task_count(), simple.task_count());

    // The plain learner refuses periods from a different universe...
    let mut plain = bbmg::core::Learner::new(gm.task_count(), LearnOptions::bounded(4));
    plain.observe(&gm.periods()[0]).expect("matching universe");
    let err = plain.observe(&simple.periods()[0]).unwrap_err();
    assert_eq!(
        err,
        LearnError::UniverseMismatch {
            expected: gm.task_count(),
            actual: simple.task_count(),
        }
    );

    // ...and so does the incremental one: a universe mismatch is a caller
    // bug, not trace corruption, so no skip policy hides it.
    let options = LearnOptions::bounded(4).with_on_inconsistent(OnInconsistent::SkipPeriod);
    let mut incremental = IncrementalLearner::new(simple.task_count(), options);
    let err = incremental.push_period(&gm.periods()[0]).unwrap_err();
    assert!(matches!(err, LearnError::UniverseMismatch { .. }));
}

#[test]
fn faulty_csv_round_trip_accounts_for_every_period() {
    let trace = gm_trace(10, 5);
    let config = FaultConfig::uniform(0.05, 9);
    let (raw, log) = inject_faults(&trace, &config);
    assert!(!log.is_empty(), "a 5% uniform config injects something");

    // The CSV layer transports the degraded capture verbatim...
    let csv = write_csv_raw(&raw);
    let reparsed = parse_csv_raw(&csv).expect("header is present");
    assert_eq!(reparsed.skipped_rows, 0, "every degraded row serializes");
    assert_eq!(reparsed.raw.event_count(), raw.event_count());
    assert_eq!(reparsed.raw.periods.len(), raw.periods.len());

    // ...the strict parser rejects it...
    assert!(
        parse_csv(&csv).is_err(),
        "faulty capture is not strictly valid"
    );

    // ...and the lenient pipeline accounts for every period: kept plus
    // quarantined equals the input, with no silent loss.
    let lenient = parse_csv_lenient(&csv).expect("header is present");
    let report = &lenient.report;
    assert_eq!(report.total_periods, raw.periods.len());
    assert_eq!(
        report.kept_periods + report.quarantined.len(),
        report.total_periods
    );
    assert_eq!(lenient.trace.periods().len(), report.kept_periods);

    // The repaired trace must be learnable end to end.
    let options = LearnOptions::bounded(16).with_on_inconsistent(OnInconsistent::SkipPeriod);
    let result = robust_learn(&lenient.trace, options).expect("robust learning completes");
    assert_eq!(
        result.stats().periods + result.stats().skipped_periods.len(),
        lenient.trace.periods().len()
    );
}

#[test]
fn clean_fault_config_is_an_identity() {
    let trace = gm_trace(3, 1);
    let config = FaultConfig::event_drop(0.0, 7);
    assert!(config.is_noop());
    let (raw, log) = inject_faults(&trace, &config);
    assert!(log.is_empty());
    assert_eq!(
        raw.event_count(),
        RawTrace::from_trace(&trace).event_count()
    );

    // A clean capture survives the lenient pipeline untouched.
    let lenient = parse_csv_lenient(&write_csv_raw(&raw)).expect("header present");
    assert!(lenient.report.is_clean());
    assert_eq!(lenient.trace.periods().len(), trace.periods().len());
}
