//! `gm_bound_sweep`: the paper's headline table. The GM case-study
//! capture, as CSV bytes, learned once at each §3.4 bound on one thread.

use std::time::Instant;

use bbmg_analysis::properties;
use bbmg_core::{antichain_fingerprint, matches_trace_relaxed, LearnOptions, LearnResult};
use bbmg_lattice::DependencyValue;
use bbmg_trace::{write_csv, Trace};
use bbmg_workloads::gm;

use crate::common::{
    learn_bytes, learner_metrics, measure_setup, parse_metrics, timed_loop, times, Stopwatch, Units,
};
use crate::common::{Ctx, Relabel, Report, Rng};
use crate::ledger::{median, Ledger};

pub const BOUNDS: [usize; 8] = [1, 4, 16, 32, 64, 100, 120, 150];
const BOUND_METRICS: [&str; 8] = [
    "sweep.bound_s.1",
    "sweep.bound_s.4",
    "sweep.bound_s.16",
    "sweep.bound_s.32",
    "sweep.bound_s.64",
    "sweep.bound_s.100",
    "sweep.bound_s.120",
    "sweep.bound_s.150",
];

struct Input {
    csv: String,
    relabel: Relabel,
}

/// The capture is the paper's (simulation seed 2007); the benchmark seed
/// relabels it.
fn setup(seed: u64) -> Result<Input, String> {
    let capture = gm::gm_trace(2007).map_err(|e| e.to_string())?.trace;
    let relabel = Relabel::new(&capture, &mut Rng::new(seed));
    let csv = relabel.csv(&write_csv(&capture));
    bbmg_core::pool::warm_up(1);
    Ok(Input { csv, relabel })
}

struct Sweep {
    trace: Trace,
    results: Vec<LearnResult>,
    bound_s: Vec<f64>,
}

fn sweep(ledger: &mut Ledger, input: &Input) -> Result<Sweep, String> {
    let mut results = Vec::with_capacity(BOUNDS.len());
    let mut bound_s = Vec::with_capacity(BOUNDS.len());
    let mut trace = None;
    for bound in BOUNDS {
        let t0 = Instant::now();
        let (t, result) = learn_bytes(ledger, input.csv.as_bytes(), LearnOptions::bounded(bound))?;
        bound_s.push(t0.elapsed().as_secs_f64());
        results.push(result);
        trace = Some(t);
    }
    Ok(Sweep {
        trace: trace.expect("eight bounds"),
        results,
        bound_s,
    })
}

/// Output checks of one sweep; each bound's learn is one operation.
fn check(report: &mut Report, input: &Input, sweep: &Sweep, reference: &mut Vec<u64>) {
    let fingerprints: Vec<u64> = sweep
        .results
        .iter()
        .map(|r| antichain_fingerprint(r.hypotheses()))
        .collect();
    if reference.is_empty() {
        reference.clone_from(&fingerprints);
    }
    for (i, (result, &bound)) in sweep.results.iter().zip(&BOUNDS).enumerate() {
        let matches = result
            .hypotheses()
            .iter()
            .all(|d| matches_trace_relaxed(d, &sweep.trace));
        report.op(
            result.converged() && matches && fingerprints[i] == reference[i],
            || format!("bound {bound}: converged {}, matches trace {matches}, same model as the first sweep {}", result.converged(), fingerprints[i] == reference[i]),
        );
    }
    // Theorem 4: the bound-1 result is the LUB of every bound's result.
    let lubs: Vec<_> = sweep.results.iter().map(|r| r.lub()).collect();
    let theorem4 = match lubs.iter().map(Option::as_ref).collect::<Option<Vec<_>>>() {
        Some(lubs) => {
            let join = lubs[1..].iter().fold(lubs[0].clone(), |acc, d| acc.join(d));
            join == *lubs[0]
        }
        None => false,
    };
    report.op(theorem4, || {
        "Theorem 4: the bound-1 result is not the LUB of every bound's result".into()
    });
    // The published GM properties at bound 100.
    let universe = sweep.trace.universe();
    let id = |name: &str| universe.lookup(input.relabel.name(name));
    let published = match (
        lubs[5].as_ref(),
        id("A"),
        id("B"),
        id("H"),
        id("P"),
        id("Q"),
        id("L"),
        id("M"),
        id("O"),
    ) {
        (Some(d), Some(a), Some(b), Some(h), Some(p), Some(q), Some(l), Some(m), Some(o)) => {
            properties::is_disjunction_node(d, a)
                && properties::is_disjunction_node(d, b)
                && properties::is_conjunction_node(d, h)
                && properties::is_conjunction_node(d, p)
                && properties::is_conjunction_node(d, q)
                && properties::proves_always_executes(d, a, l)
                && properties::proves_always_executes(d, b, m)
                && d.value(q, o) == DependencyValue::DependsOn
        }
        _ => false,
    };
    report.op(published, || {
        "bound 100: a published GM property does not hold".into()
    });
}

pub fn run(ctx: &Ctx) -> Result<Report, String> {
    let mut report = Report {
        threads: 1,
        ..Report::default()
    };
    let (setup_s, input) = measure_setup(51, |_| setup(ctx.seed))?;
    let mut ledger = Ledger::new(false);
    let mut reference = Vec::new();
    let mut units: Units = Vec::new();
    let mut per_bound: Vec<Vec<f64>> = vec![Vec::new(); BOUNDS.len()];
    let mut last_traced = None;
    // Traced runs alternate untraced and traced sweeps; ten units
    // give the ledger check five of each.
    let min_units = if ctx.trace { 10 } else { 2 };
    timed_loop(ctx.seconds, min_units, |i| {
        let tracing = ctx.trace && i % 2 == 1;
        ledger.set_on(tracing);
        let clock = Stopwatch::start();
        let root = ledger.open_unit();
        let s = sweep(&mut ledger, &input)?;
        ledger.close(root);
        units.push(clock.unit(tracing));
        check(&mut report, &input, &s, &mut reference);
        if tracing {
            last_traced = Some(s);
        } else {
            for (slot, t) in per_bound.iter_mut().zip(&s.bound_s) {
                slot.push(*t);
            }
        }
        Ok(())
    })?;
    let bound_medians: Vec<f64> = per_bound.iter().map(|v| median(v)).collect();
    // E4 shape: per-bound time rises from bound 1 to bound 150.
    let rising = bound_medians.windows(2).all(|w| w[1] >= 0.95 * w[0])
        && bound_medians[7] >= 10.0 * bound_medians[0];
    report.check(rising, || {
        format!("E4 shape: per-bound medians {bound_medians:?} do not rise from bound 1 to 150")
    });
    report.facts.push(("bounds", format!("{BOUNDS:?}")));
    let untraced = times(&units, false);
    report.unit_fact(&untraced);
    let model_s = median(&untraced);
    if ctx.trace {
        let s = last_traced.expect("at least one traced sweep");
        let tasks = s.trace.task_count();
        let learns: Vec<_> = s.results.iter().map(|r| (r.stats(), tasks)).collect();
        learner_metrics(&mut report, &ledger, &learns);
        parse_metrics(
            &mut report,
            &ledger,
            input.csv.len() * BOUNDS.len(),
            BOUNDS.len(),
        );
        for (name, t) in BOUND_METRICS.iter().zip(&bound_medians) {
            report.metric(name, *t);
        }
        report.metric(
            "pool.workers",
            bbmg_core::pool::WorkerPool::global().workers() as f64,
        );
        report.ledger(&ledger, &units);
    } else {
        report.metric("setup_s", setup_s);
        report.metric("model_s", model_s);
        report.metric("traces_per_s", BOUNDS.len() as f64 / model_s);
        report.peak_rss();
    }
    Ok(report)
}
