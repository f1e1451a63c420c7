//! `exact_random7`: the exact algorithm on the 7-task, 8-period random
//! capture `bbmg simulate --workload random:tasks=7 --periods 8 --seed 4`
//! writes, learned at `min(2, nproc)` threads.

use std::time::Instant;

use bbmg_core::{antichain_fingerprint, matches_trace, LearnOptions};
use bbmg_sim::{SimConfig, Simulator};
use bbmg_trace::write_trace;
use bbmg_workloads::random::{random_model, RandomModelConfig};

use crate::common::{
    learn_bytes, learner_metrics, measure_setup, parse_metrics, timed_loop, times, Stopwatch, Units,
};
use crate::common::{Ctx, Relabel, Report, Rng};
use crate::ledger::{median, Ledger};

/// The CLI's `random:tasks=7` capture at seed 4, relabelled by the
/// benchmark seed.
fn setup(seed: u64, threads: usize) -> Result<String, String> {
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
    let capture = Simulator::new(&model, config)
        .run()
        .map_err(|e| e.to_string())?
        .trace;
    let relabel = Relabel::new(&capture, &mut Rng::new(seed));
    bbmg_core::pool::warm_up(threads);
    Ok(relabel.text(&write_trace(&capture)))
}

pub fn run(ctx: &Ctx) -> Result<Report, String> {
    let threads = ctx.threads;
    let mut report = Report {
        threads,
        ..Report::default()
    };
    let (setup_s, text) = measure_setup(51, |_| setup(ctx.seed, threads))?;
    let options = LearnOptions::exact().with_parallelism(threads);
    let mut ledger = Ledger::new(false);
    let mut units: Units = Vec::new();
    let mut fingerprints = Vec::new();
    let mut last = None;
    // Traced runs alternate untraced and traced learns; ten units
    // give the ledger check five of each.
    let min_units = if ctx.trace { 10 } else { 1 };
    timed_loop(ctx.seconds, min_units, |i| {
        let tracing = ctx.trace && i % 2 == 1;
        ledger.set_on(tracing);
        let clock = Stopwatch::start();
        let root = ledger.open_unit();
        let (trace, result) = learn_bytes(&mut ledger, text.as_bytes(), options)?;
        ledger.close(root);
        units.push(clock.unit(tracing));
        fingerprints.push(antichain_fingerprint(result.hypotheses()));
        last = Some((trace, result));
        Ok(())
    })?;
    let (trace, result) = last.expect("at least one learn");

    // Checks: the same antichain at 1 thread, every hypothesis matches the
    // trace, Theorem 4 (directional) against bound 1, no merges.
    ledger.set_on(false);
    let t0 = Instant::now();
    let (_, single) = learn_bytes(&mut ledger, text.as_bytes(), LearnOptions::exact())?;
    let single_s = t0.elapsed().as_secs_f64();
    let single_fp = antichain_fingerprint(single.hypotheses());
    for (i, fp) in fingerprints.iter().enumerate() {
        report.op(*fp == single_fp, || {
            format!("learn {i}: antichain {fp:016x} at {threads} threads, {single_fp:016x} at 1")
        });
    }
    let matches = result.hypotheses().iter().all(|d| matches_trace(d, &trace));
    report.op(matches && result.stats().merges == 0, || {
        format!(
            "exact result: matches trace {matches}, merges {}",
            result.stats().merges
        )
    });
    let (_, bound1) = learn_bytes(&mut ledger, text.as_bytes(), LearnOptions::bounded(1))?;
    let theorem4 = match (result.lub(), bound1.lub()) {
        (Some(exact), Some(b1)) => bound1.converged() && exact.leq(&b1),
        _ => false,
    };
    report.op(theorem4, || {
        "Theorem 4: the exact LUB is not below the bound-1 result".into()
    });
    let untraced = times(&units, false);
    report.unit_fact(&untraced);
    report
        .facts
        .push(("hypotheses", result.hypotheses().len().to_string()));

    let model_s = median(&untraced);
    if ctx.trace {
        learner_metrics(
            &mut report,
            &ledger,
            &[(result.stats(), trace.task_count())],
        );
        parse_metrics(&mut report, &ledger, text.len(), 1);
        report.metric(
            "pool.workers",
            bbmg_core::pool::WorkerPool::global().workers() as f64,
        );
        report.metric(
            "pool.speedup_2t",
            if threads == 2 {
                single_s / model_s
            } else {
                0.0
            },
        );
        report.ledger(&ledger, &units);
    } else {
        report.metric("setup_s", setup_s);
        report.metric("model_s", model_s);
        report.metric("traces_per_s", 1.0 / model_s);
        report.peak_rss();
    }
    Ok(report)
}
