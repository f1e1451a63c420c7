//! `serve_feed`: four sources, each an 8-task random model, their JSONL
//! lines interleaved period by period and fed to one `Supervisor` at bound
//! 16 with a checkpoint every 50 periods.
//!
//! Untraced runs time closed-loop passes over the whole feed. Traced runs
//! add a span per `ingest_line` call, one pass that listens to the `learn`
//! spans `bbmg serve` emits itself, open-loop feeds at 16k and 32k lines/s
//! timed from each line's due time, and a rate ladder for the sustained
//! rate.

use std::num::NonZeroUsize;
use std::path::Path;
use std::time::{Duration, Instant};

use bbmg_core::{antichain_fingerprint, learn, LearnOptions};
use bbmg_obs::{NoopObserver, Observer};
use bbmg_serve::{Line, ServeOptions, ShardSummary, Supervisor, WireKind};
use bbmg_trace::{parse_trace, write_trace, EventKind, Trace};
use bbmg_workloads::random::{random_trace, RandomModelConfig};

use crate::common::{
    checkpoint_io, measure_setup, period_metrics, timed_loop, times, work_metrics, Ctx, Relabel,
    Report, Rng, Stopwatch, Unit, Units,
};
use crate::ledger::{median, quantile, Layer, Ledger};

const SOURCES: usize = 4;
const TASKS: usize = 8;
const PERIODS: usize = 1000;
const BOUND: usize = 16;
/// Seed of the sources' random models and simulations.
const CAPTURE_SEED: u64 = 2007;
const CHECKPOINT_EVERY: usize = 50;
/// Open-loop latency limit for the sustained rate.
const LIMIT_MS: f64 = 20.0;
/// The rate ladder (lines/s): 16k times powers of √2.
const LADDER: [f64; 9] = [
    16_000.0, 22_627.0, 32_000.0, 45_255.0, 64_000.0, 90_510.0, 128_000.0, 181_019.0, 256_000.0,
];

struct Input {
    captures: Vec<Trace>,
    lines: Vec<String>,
    /// Source index of each line (`usize::MAX` for `hello`).
    source: Vec<usize>,
    /// Whether the line closes its source's open period.
    closes: Vec<bool>,
}

fn setup(seed: u64) -> Result<Input, String> {
    // The captures are fixed; the benchmark seed relabels each one (see
    // `Relabel`), so every seed costs the learner the same work. The text
    // format keeps the declared task order, which `hello` sends.
    let mut rng = Rng::new(CAPTURE_SEED);
    let mut names = Rng::new(seed);
    let mut captures = Vec::with_capacity(SOURCES);
    for _ in 0..SOURCES {
        let config = RandomModelConfig {
            tasks: TASKS,
            seed: rng.next_u64(),
            ..RandomModelConfig::default()
        };
        let capture = random_trace(&config, PERIODS, rng.next_u64())
            .map_err(|e| e.to_string())?
            .trace;
        let text = Relabel::new(&capture, &mut names).text(&write_trace(&capture));
        captures.push(parse_trace(&text).map_err(|e| e.to_string())?);
    }
    let name = |s: usize| format!("src{s}");
    let mut lines = Vec::new();
    let mut source = Vec::new();
    let mut closes = Vec::new();
    for (s, trace) in captures.iter().enumerate() {
        let tasks = trace.universe().iter().map(|(_, n)| n.to_owned()).collect();
        lines.push(
            Line::Hello {
                source: name(s),
                tasks,
            }
            .to_json(),
        );
        source.push(usize::MAX);
        closes.push(false);
    }
    for p in 0..PERIODS {
        for (s, trace) in captures.iter().enumerate() {
            let Some(period) = trace.periods().get(p) else {
                continue;
            };
            let universe = trace.universe();
            for (k, event) in period.events().iter().enumerate() {
                let (kind, subject) = match event.kind {
                    EventKind::TaskStart(t) => (WireKind::Start, universe.name(t).to_owned()),
                    EventKind::TaskEnd(t) => (WireKind::End, universe.name(t).to_owned()),
                    EventKind::MessageRise(m) => (WireKind::Rise, format!("m{}", m.index())),
                    EventKind::MessageFall(m) => (WireKind::Fall, format!("m{}", m.index())),
                };
                let line = Line::Event {
                    source: name(s),
                    period: period.index(),
                    time: event.time.micros(),
                    kind,
                    subject,
                };
                lines.push(line.to_json());
                source.push(s);
                closes.push(k == 0 && p > 0);
            }
        }
    }
    for s in 0..SOURCES {
        lines.push(Line::End { source: name(s) }.to_json());
        source.push(s);
        closes.push(true);
    }
    bbmg_core::pool::warm_up(1);
    Ok(Input {
        captures,
        lines,
        source,
        closes,
    })
}

fn options(dir: &Path) -> ServeOptions {
    ServeOptions {
        learn: LearnOptions::bounded(BOUND),
        checkpoint_every: NonZeroUsize::new(CHECKPOINT_EVERY),
        checkpoint_dir: Some(dir.to_path_buf()),
        ..ServeOptions::default()
    }
}

/// What one pass over the feed saw.
#[derive(Default)]
struct Pass {
    rejected: Vec<String>,
    summaries: Vec<ShardSummary>,
    /// Traced passes only: per-call times and checkpoint sizes.
    line_us: Vec<f64>,
    close_ms: Vec<f64>,
    ckpt_close_ms: Vec<f64>,
    memory_words_max: usize,
    ckpt_bytes: Vec<Vec<u64>>,
    /// Listening passes only: `learn` span durations (ms).
    learn_ms: Vec<f64>,
}

/// One closed-loop pass over `lines` with a fresh supervisor. With the
/// ledger on, every `ingest_line` call is a `serve` span. With `listen`,
/// the pass instead hands `bbmg serve` an observer and keeps the
/// durations of the `learn` spans it emits.
fn pass(
    ledger: &mut Ledger,
    input: &Input,
    dir: &Path,
    listen: bool,
) -> Result<(Unit, Pass), String> {
    std::fs::create_dir_all(dir).map_err(|e| e.to_string())?;
    let mut out = Pass {
        ckpt_bytes: vec![Vec::new(); SOURCES],
        ..Pass::default()
    };
    let tracing = ledger.is_on();
    let mut learn_spans = LearnSpans::default();
    let clock = Stopwatch::start();
    let root = ledger.open_unit();
    let mut supervisor = Supervisor::new(options(dir));
    for (i, line) in input.lines.iter().enumerate() {
        let span = ledger.open(Layer::Serve, "ingest_line");
        let ingested = if listen {
            supervisor.ingest_line(line, &mut learn_spans)
        } else {
            supervisor.ingest_line(line, &mut NoopObserver)
        };
        ledger.close(span);
        if let Err(e) = ingested {
            out.rejected.push(format!("line {i}: {e}"));
        }
        if !tracing {
            continue;
        }
        let secs = ledger.span_secs(span);
        if !input.closes[i] {
            out.line_us.push(secs * 1e6);
            continue;
        }
        out.close_ms.push(secs * 1e3);
        let s = input.source[i];
        let shard = supervisor.shard(&format!("src{s}"));
        if let Some(shard) = shard {
            out.memory_words_max = out.memory_words_max.max(shard.memory_words());
        }
        // A period that ends with a fresh checkpoint (or the final one a
        // closing shard writes) wrote the source's checkpoint file.
        if shard.is_none_or(|sh| sh.checkpoint_age_periods() == 0) {
            out.ckpt_close_ms.push(secs * 1e3);
            if let Ok(meta) = std::fs::metadata(dir.join(format!("src{s}.ckpt"))) {
                out.ckpt_bytes[s].push(meta.len());
            }
        }
    }
    let finished = ledger.run(Layer::Serve, "finish", || {
        supervisor.finish(&mut NoopObserver)
    });
    ledger.close(root);
    let unit = clock.unit(tracing);
    out.summaries = finished.map_err(|e| e.to_string())?;
    out.learn_ms = learn_spans.ms;
    Ok((unit, out))
}

/// Keeps the durations (ms) of the `learn` spans `bbmg serve` emits: one
/// per period a shard's learner consumed.
#[derive(Default)]
struct LearnSpans {
    open: Vec<(u64, Instant)>,
    ms: Vec<f64>,
}

impl Observer for LearnSpans {
    fn span_start(&mut self, id: u64, _parent: u64, name: String) {
        if name == "learn" {
            self.open.push((id, Instant::now()));
        }
    }

    fn span_end(&mut self, id: u64) {
        if let Some(pos) = self.open.iter().position(|&(open, _)| open == id) {
            let (_, start) = self.open.swap_remove(pos);
            self.ms.push(start.elapsed().as_secs_f64() * 1e3);
        }
    }
}

/// One open-loop feed of the first `seconds × rate` lines: per-period
/// latency from the closing line's due time to the return of its ingest
/// call, and how late the generator ran.
struct OpenLoop {
    period_ms: Vec<f64>,
    lateness_max_ms: f64,
    /// Mean lateness over the last tenth of lines minus the first tenth.
    lateness_growth_ms: f64,
    rejected: usize,
}

fn open_loop(input: &Input, rate: f64, seconds: f64, dir: &Path) -> Result<OpenLoop, String> {
    std::fs::create_dir_all(dir).map_err(|e| e.to_string())?;
    let n = ((rate * seconds) as usize).min(input.lines.len());
    let mut supervisor = Supervisor::new(options(dir));
    let mut period_ms = Vec::new();
    let mut lateness = Vec::with_capacity(n);
    let mut rejected = 0;
    let start = Instant::now();
    for i in 0..n {
        let due = start + Duration::from_secs_f64(i as f64 / rate);
        loop {
            let now = Instant::now();
            if now >= due {
                break;
            }
            let wait = due - now;
            if wait > Duration::from_micros(500) {
                std::thread::sleep(wait - Duration::from_micros(200));
            } else {
                std::hint::spin_loop();
            }
        }
        lateness.push(due.elapsed().as_secs_f64() * 1e3);
        if supervisor
            .ingest_line(&input.lines[i], &mut NoopObserver)
            .is_err()
        {
            rejected += 1;
        }
        if input.closes[i] {
            period_ms.push(due.elapsed().as_secs_f64() * 1e3);
        }
    }
    supervisor
        .finish(&mut NoopObserver)
        .map_err(|e| e.to_string())?;
    std::fs::remove_dir_all(dir).map_err(|e| e.to_string())?;
    let tenth = (n / 10).max(1);
    let head = lateness[..tenth].iter().sum::<f64>() / tenth as f64;
    let tail = lateness[n - tenth..].iter().sum::<f64>() / tenth as f64;
    Ok(OpenLoop {
        lateness_max_ms: lateness.iter().copied().fold(0.0, f64::max),
        lateness_growth_ms: tail - head,
        period_ms,
        rejected,
    })
}

pub fn run(ctx: &Ctx) -> Result<Report, String> {
    let mut report = Report {
        threads: 1,
        ..Report::default()
    };
    let (setup_s, input) = measure_setup(5, |_| setup(ctx.seed))?;
    let mut ledger = Ledger::new(false);
    let mut units: Units = Vec::new();
    let mut passes = Vec::new();
    let mut ckpt_io = None;
    // Traced runs alternate untraced and traced passes; twelve
    // units give the ledger check six of each.
    let min_units = if ctx.trace { 12 } else { 3 };
    let seconds = if ctx.trace {
        ctx.seconds / 2.0
    } else {
        ctx.seconds
    };
    timed_loop(seconds, min_units, |i| {
        let tracing = ctx.trace && i % 2 == 1;
        ledger.set_on(tracing);
        let dir = ctx.work.join(format!("ckpt-{i}"));
        let (unit, p) = pass(&mut ledger, &input, &dir, false)?;
        ledger.set_on(false);
        if tracing {
            ckpt_io = Some(checkpoint_io(&dir, &ctx.work)?);
        }
        std::fs::remove_dir_all(&dir).map_err(|e| e.to_string())?;
        units.push(unit);
        passes.push(p);
        Ok(())
    })?;
    if ctx.trace {
        // One more pass, untimed, that listens to the spans `bbmg serve`
        // emits itself: its observer costs too much to sit under the
        // ledger's units.
        let dir = ctx.work.join("listen");
        let (_, p) = pass(&mut ledger, &input, &dir, true)?;
        std::fs::remove_dir_all(&dir).map_err(|e| e.to_string())?;
        passes.push(p);
    }

    // Checks: no line rejected, no period shed, no restart, and each
    // shard's final model equals a batch learn of its capture.
    let expected: Vec<u64> = input
        .captures
        .iter()
        .map(|t| {
            learn(t, LearnOptions::bounded(BOUND))
                .map(|r| antichain_fingerprint(r.hypotheses()))
                .map_err(|e| e.to_string())
        })
        .collect::<Result<_, _>>()?;
    let lines = input.lines.len();
    for p in &passes {
        report.attempted += lines as u64;
        report.failed += p.rejected.len() as u64;
        for r in p.rejected.iter().take(3) {
            report.check(false, || format!("rejected {r}"));
        }
        for (s, (capture, want)) in input.captures.iter().zip(&expected).enumerate() {
            let summary = p.summaries.iter().find(|x| x.source == format!("src{s}"));
            let ok = summary.is_some_and(|x| {
                x.shed_periods == 0
                    && x.restarts == 0
                    && x.periods == capture.periods().len()
                    && antichain_fingerprint(x.result.hypotheses()) == *want
            });
            report.op(ok, || {
                format!("src{s}: final model differs from a batch learn, or periods were shed")
            });
        }
    }
    report.facts.push(("sources", SOURCES.to_string()));
    report
        .facts
        .push(("periods_per_source", PERIODS.to_string()));
    report.facts.push(("lines", lines.to_string()));
    let untraced = times(&units, false);
    report.unit_fact(&untraced);

    let model_s = median(&untraced);
    if !ctx.trace {
        report.metric("setup_s", setup_s);
        report.metric("model_s", model_s);
        report.metric("traces_per_s", SOURCES as f64 / model_s);
        report.peak_rss();
        return Ok(report);
    }

    let p = passes
        .iter()
        .rev()
        .find(|p| !p.line_us.is_empty())
        .expect("at least one traced pass");
    report.metric("serve.line_us_p50", quantile(&p.line_us, 0.5));
    report.metric("serve.line_us_p99", quantile(&p.line_us, 0.99));
    report.metric("serve.line_samples", p.line_us.len() as f64);
    report.metric("serve.close_ms_p99", quantile(&p.close_ms, 0.99));
    report.metric("serve.close_samples", p.close_ms.len() as f64);
    report.metric("serve.ckpt_close_ms_p99", quantile(&p.ckpt_close_ms, 0.99));
    report.metric("serve.ckpt_close_samples", p.ckpt_close_ms.len() as f64);
    report.metric("serve.memory_words_max", p.memory_words_max as f64);
    report.metric(
        "serve.shed_periods",
        p.summaries.iter().map(|s| s.shed_periods).sum::<usize>() as f64,
    );
    report.metric(
        "serve.restarts",
        p.summaries.iter().map(|s| s.restarts).sum::<usize>() as f64,
    );
    let firsts: Vec<f64> = p
        .ckpt_bytes
        .iter()
        .filter_map(|v| v.first())
        .map(|&b| b as f64)
        .collect();
    let lasts: Vec<f64> = p
        .ckpt_bytes
        .iter()
        .filter_map(|v| v.last())
        .map(|&b| b as f64)
        .collect();
    report.metric("checkpoint.bytes", crate::ledger::mean(&lasts));
    report.metric(
        "checkpoint.bytes_growth",
        crate::ledger::mean(&lasts) / crate::ledger::mean(&firsts).max(1.0),
    );
    let (load_ms, save_ms, _) = ckpt_io.expect("a traced pass timed checkpoint I/O");
    report.metric("checkpoint.load_ms", load_ms);
    report.metric("checkpoint.save_ms", save_ms);
    let learn_s: Vec<f64> = passes
        .last()
        .expect("the listening pass")
        .learn_ms
        .iter()
        .map(|ms| ms / 1e3)
        .collect();
    let busy = period_metrics(&mut report, &learn_s, 1);
    let learns: Vec<_> = p
        .summaries
        .iter()
        .map(|s| (s.result.stats(), TASKS))
        .collect();
    work_metrics(&mut report, &learns, busy);
    report.metric(
        "pool.workers",
        bbmg_core::pool::WorkerPool::global().workers() as f64,
    );
    report.ledger(&ledger, &units);

    // Open loop at the two fixed rates, then up the ladder.
    let mut lateness_max: f64 = 0.0;
    for (rate, names) in [
        (
            16_000.0,
            [
                "period_p50_ms.r16k",
                "period_p99_ms.r16k",
                "period_samples.r16k",
            ],
        ),
        (
            32_000.0,
            [
                "period_p50_ms.r32k",
                "period_p99_ms.r32k",
                "period_samples.r32k",
            ],
        ),
    ] {
        let o = open_loop(&input, rate, 2.5, &ctx.work.join("open"))?;
        report.check(o.rejected == 0, || {
            format!("open loop at {rate} lines/s rejected {} lines", o.rejected)
        });
        lateness_max = lateness_max.max(o.lateness_max_ms);
        report.metric(names[0], quantile(&o.period_ms, 0.5));
        report.metric(names[1], quantile(&o.period_ms, 0.99));
        report.metric(names[2], o.period_ms.len() as f64);
    }
    report.metric("serve.lateness_max_ms", lateness_max);
    let mut sustained = 0.0;
    for rate in LADDER {
        let o = open_loop(&input, rate, 2.0, &ctx.work.join("open"))?;
        if quantile(&o.period_ms, 0.99) > LIMIT_MS || o.lateness_growth_ms > 5.0 || o.rejected > 0 {
            break;
        }
        sustained = rate;
    }
    report.metric("sustained_lines_per_s", sustained);
    Ok(report)
}
