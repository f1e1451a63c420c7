//! What every workload shares: the run context, the report, the operation
//! tally, the timed loop, seeded input transforms and the shared learn.

use std::collections::HashMap;
use std::path::{Path, PathBuf};
use std::time::Instant;

use bbmg_core::{Checkpoint, LearnOptions, LearnResult, LearnStats, Learner};
use bbmg_lattice::DependencyFunction;
use bbmg_trace::{is_btrace, parse_btrace, parse_csv, parse_trace, Trace};

use crate::ledger::{median, quantile, Layer, Ledger};

pub struct Ctx {
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    /// `min(2, available_parallelism)`.
    pub threads: usize,
    /// Scratch directory of this run, removed at exit.
    pub work: PathBuf,
}

/// What a workload hands back: operation counts, failed checks, metrics
/// by name, extra host/run facts (JSON values) and the rendered spans.
#[derive(Default)]
pub struct Report {
    pub attempted: u64,
    pub failed: u64,
    pub problems: Vec<String>,
    pub metrics: Vec<(&'static str, f64)>,
    pub facts: Vec<(&'static str, String)>,
    pub threads: usize,
    pub spans: Option<String>,
}

impl Report {
    /// Counts one operation; it failed unless `ok`.
    pub fn op(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            if self.problems.len() < 20 {
                self.problems.push(what());
            }
        }
    }

    /// A whole-run check (not an operation of the workload).
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        if !ok && self.problems.len() < 20 {
            self.problems.push(what());
        }
    }

    pub fn metric(&mut self, name: &'static str, value: f64) {
        self.metrics.push((name, value));
    }

    /// Records the untraced unit times (the first 32) as a run fact.
    pub fn unit_fact(&mut self, times: &[f64]) {
        let shown: Vec<String> = times.iter().take(32).map(|t| format!("{t:.4}")).collect();
        self.facts
            .push(("unit_s", format!("[{}]", shown.join(","))));
    }

    /// `peak_rss_mb`: the process's peak resident set so far.
    pub fn peak_rss(&mut self) {
        self.metric("peak_rss_mb", peak_rss_mb());
    }

    /// The layer self times of `ledger`, `cli.unattributed_s`, and the
    /// ledger check: the traced units, whose spans the self times split,
    /// cost within 10% of the untraced ones. Each traced unit's CPU time is
    /// divided by the mean of its untraced neighbours' and the median ratio
    /// is checked. CPU time leaves out the time a unit waits for a CPU, so
    /// other tenants of a busy host do not read as tracing cost, and the
    /// neighbours keep a slow stretch of the run from doing so either.
    pub fn ledger(&mut self, ledger: &Ledger, units: &Units) {
        let (selfs, count) = ledger.self_times();
        for (layer, own) in Layer::ALL.iter().zip(selfs) {
            let name = match layer {
                Layer::Trace => "trace.self_s",
                Layer::Learner => "learner.self_s",
                Layer::Pool => "pool.self_s",
                Layer::Cache => "cache.self_s",
                Layer::Checkpoint => "checkpoint.self_s",
                Layer::Serve => "serve.self_s",
                Layer::Cli => "cli.unattributed_s",
            };
            self.metric(name, own);
        }
        let mut ratios = Vec::new();
        for (i, unit) in units.iter().enumerate() {
            if !unit.traced {
                continue;
            }
            let near: Vec<f64> = [i.checked_sub(1), Some(i + 1)]
                .into_iter()
                .flatten()
                .filter_map(|j| units.get(j))
                .filter(|u| !u.traced)
                .map(|u| u.cpu_s)
                .collect();
            if !near.is_empty() {
                ratios.push(unit.cpu_s / (near.iter().sum::<f64>() / near.len() as f64));
            }
        }
        let ratio = median(&ratios);
        let untraced = median(&times(units, false));
        let accounted: f64 = selfs.iter().sum();
        let error = (ratio - 1.0).abs();
        self.metric("ledger.model_s", untraced);
        self.metric("ledger.traced_model_s", median(&times(units, true)));
        self.metric("ledger.error_ratio", error);
        self.metric("tracing.overhead_s", (ratio - 1.0) * untraced);
        self.metric("units", count as f64);
        self.check(!ratios.is_empty() && error <= 0.10, || {
            format!(
                "ledger: layer self times sum to {accounted:.4} s per traced unit; traced \
                 units take {ratio:.3}x the CPU time of their untraced neighbours (limit 10%)"
            )
        });
        self.spans = Some(ledger.chrome());
    }
}

/// One unit of work: whether it was traced, its wall time and its CPU
/// time (seconds).
#[derive(Debug, Clone, Copy)]
pub struct Unit {
    pub traced: bool,
    pub wall_s: f64,
    pub cpu_s: f64,
}

/// The units of a run, in run order.
pub type Units = Vec<Unit>;

/// The wall times of the traced (or untraced) units.
pub fn times(units: &Units, traced: bool) -> Vec<f64> {
    units
        .iter()
        .filter(|u| u.traced == traced)
        .map(|u| u.wall_s)
        .collect()
}

/// Times one unit of work on the wall clock and on the process's CPU clock.
pub struct Stopwatch {
    wall: Instant,
    cpu_s: f64,
}

impl Stopwatch {
    pub fn start() -> Self {
        Stopwatch {
            wall: Instant::now(),
            cpu_s: cpu_s(),
        }
    }

    /// The unit timed since `start`.
    pub fn unit(&self, traced: bool) -> Unit {
        let wall_s = self.wall.elapsed().as_secs_f64();
        Unit {
            traced,
            wall_s,
            cpu_s: cpu_s() - self.cpu_s,
        }
    }
}

/// CPU time (seconds) the live threads of this process have run so far,
/// from `/proc/self/task/*/schedstat`. Time spent waiting for a CPU is not
/// in it. NaN when `/proc` cannot be read, which fails the ledger check; a
/// thread that exits while it is read is left out.
pub fn cpu_s() -> f64 {
    let Ok(tasks) = std::fs::read_dir("/proc/self/task") else {
        return f64::NAN;
    };
    let mut ns = 0u64;
    for task in tasks.flatten() {
        if let Some(run) = std::fs::read_to_string(task.path().join("schedstat"))
            .ok()
            .and_then(|s| s.split_whitespace().next()?.parse::<u64>().ok())
        {
            ns += run;
        }
    }
    ns as f64 * 1e-9
}

/// Runs `unit(i)` for i = 0, 1, … until `seconds` have passed and at
/// least `min_units` ran.
pub fn timed_loop(
    seconds: f64,
    min_units: usize,
    mut unit: impl FnMut(usize) -> Result<(), String>,
) -> Result<(), String> {
    let started = Instant::now();
    let mut i = 0;
    while i < min_units || started.elapsed().as_secs_f64() < seconds {
        unit(i)?;
        i += 1;
    }
    Ok(())
}

/// Runs `setup` `reps` times and returns the median time and the last
/// result.
pub fn measure_setup<T>(
    reps: usize,
    mut setup: impl FnMut(usize) -> Result<T, String>,
) -> Result<(f64, T), String> {
    let mut times = Vec::with_capacity(reps);
    let mut last = None;
    for rep in 0..reps {
        let t0 = Instant::now();
        let out = setup(rep)?;
        times.push(t0.elapsed().as_secs_f64());
        last = Some(out);
    }
    Ok((median(&times), last.expect("at least one setup repetition")))
}

/// splitmix64: the benchmark's only source of randomness, so a seed
/// fixes every generated input.
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Self {
        Rng(seed ^ 0x6262_6D67_6265_6E63)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    pub fn below(&mut self, n: u64) -> u64 {
        self.next_u64() % n
    }

    pub fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            let j = self.below(i as u64 + 1) as usize;
            items.swap(i, j);
        }
    }
}

/// A seeded relabelling of a capture: task names permuted among
/// themselves and every timestamp shifted by one offset. Task interning
/// order and relative timing are unchanged, so the learner does the same
/// work on every seed while the bytes it reads differ.
pub struct Relabel {
    names: HashMap<String, String>,
    shift: u64,
}

impl Relabel {
    pub fn new(trace: &Trace, rng: &mut Rng) -> Self {
        let original: Vec<String> = trace.universe().iter().map(|(_, n)| n.to_owned()).collect();
        let mut permuted = original.clone();
        rng.shuffle(&mut permuted);
        Relabel {
            names: original.into_iter().zip(permuted).collect(),
            shift: rng.below(1_000_000),
        }
    }

    /// The relabelled name of task `name`.
    pub fn name<'a>(&'a self, name: &'a str) -> &'a str {
        self.names.get(name).map_or(name, String::as_str)
    }

    /// Applies the relabelling to CSV (`time,kind,subject,period`).
    pub fn csv(&self, text: &str) -> String {
        let mut out = String::with_capacity(text.len() + text.len() / 8);
        for (i, line) in text.lines().enumerate() {
            let fields: Vec<&str> = line.split(',').collect();
            if i == 0 || fields.len() != 4 {
                out.push_str(line);
            } else {
                let time: u64 = fields[0].parse().expect("writer emits integer times");
                let subject = match fields[1] {
                    "start" | "end" => self.name(fields[2]),
                    _ => fields[2],
                };
                out.push_str(&format!(
                    "{},{},{subject},{}",
                    time + self.shift,
                    fields[1],
                    fields[3]
                ));
            }
            out.push('\n');
        }
        out
    }

    /// Applies the relabelling to the line-oriented text format.
    pub fn text(&self, text: &str) -> String {
        let mut out = String::with_capacity(text.len() + text.len() / 8);
        for line in text.lines() {
            let words: Vec<&str> = line.split_whitespace().collect();
            if words.first() == Some(&"tasks") {
                out.push_str("tasks");
                for name in &words[1..] {
                    out.push(' ');
                    out.push_str(self.name(name));
                }
            } else if words.len() == 3 && words[0].bytes().all(|b| b.is_ascii_digit()) {
                let time: u64 = words[0].parse().expect("checked digits");
                let subject = match words[1] {
                    "start" | "end" => self.name(words[2]),
                    _ => words[2],
                };
                out.push_str(&format!("  {} {} {subject}", time + self.shift, words[1]));
            } else {
                out.push_str(line);
            }
            out.push('\n');
        }
        out
    }
}

/// Parses a capture in any of the three formats, sniffed like the CLI.
pub fn parse_any(bytes: &[u8]) -> Result<Trace, String> {
    if is_btrace(bytes) {
        return parse_btrace(bytes).map_err(|e| e.to_string());
    }
    let text = std::str::from_utf8(bytes).map_err(|e| e.to_string())?;
    if text.starts_with("time,kind,subject,period") {
        parse_csv(text).map_err(|e| e.to_string())
    } else {
        parse_trace(text).map_err(|e| e.to_string())
    }
}

/// One learn from capture bytes already in memory: parse (trace layer),
/// then construct, observe every period and finish (learner layer).
pub fn learn_bytes(
    ledger: &mut Ledger,
    bytes: &[u8],
    options: LearnOptions,
) -> Result<(Trace, LearnResult), String> {
    let trace = ledger.run(Layer::Trace, "parse", || parse_any(bytes))?;
    let mut learner = ledger.run(Layer::Learner, "new", || {
        Learner::new(trace.task_count(), options)
    });
    for period in trace.periods() {
        ledger
            .run(Layer::Learner, "observe", || learner.observe(period))
            .map_err(|e| e.to_string())?;
    }
    let result = ledger.run(Layer::Learner, "finish", || learner.into_result());
    Ok((trace, result))
}

/// Learner metrics of a ledger whose per-period calls are `observe`
/// spans and whose final calls are `finish` spans, plus the work counts
/// of one unit's learns.
pub fn learner_metrics(report: &mut Report, ledger: &Ledger, learns: &[(&LearnStats, usize)]) {
    let (_, units) = ledger.self_times();
    let busy = period_metrics(report, &ledger.durations(Layer::Learner, "observe"), units);
    let finish = ledger.durations(Layer::Learner, "finish");
    report.metric(
        "learner.finish_s",
        finish.iter().sum::<f64>() / units.max(1) as f64,
    );
    work_metrics(report, learns, busy);
}

/// `learner.busy_s` (per unit) and the per-period latency percentiles
/// from the durations (seconds) of every per-period learner call over
/// `units` units. Returns the busy time.
pub fn period_metrics(report: &mut Report, period_s: &[f64], units: usize) -> f64 {
    let busy = period_s.iter().sum::<f64>() / units.max(1) as f64;
    let ms: Vec<f64> = period_s.iter().map(|s| s * 1e3).collect();
    report.metric("learner.busy_s", busy);
    report.metric("learner.period_p50_ms", quantile(&ms, 0.5));
    report.metric("learner.period_p95_ms", quantile(&ms, 0.95));
    report.metric("learner.period_samples", ms.len() as f64);
    busy
}

/// Work counts from the `LearnStats` of one unit's learns, each with its
/// task count; `busy_s` is that unit's learner busy time.
pub fn work_metrics(report: &mut Report, learns: &[(&LearnStats, usize)], busy_s: f64) {
    let children: usize = learns.iter().map(|(s, _)| s.hypotheses_generated).sum();
    let merges: usize = learns.iter().map(|(s, _)| s.merges).sum();
    let pairs: usize = learns.iter().map(|(s, _)| s.candidate_pairs_total).sum();
    let peak = learns
        .iter()
        .map(|(s, _)| s.peak_set_size)
        .max()
        .unwrap_or(0);
    let words: usize = learns
        .iter()
        .map(|(s, tasks)| s.hypotheses_generated * DependencyFunction::words_per_function(*tasks))
        .sum();
    report.metric("learner.children", children as f64);
    report.metric("learner.merges", merges as f64);
    report.metric(
        "learner.merge_ratio",
        merges as f64 / children.max(1) as f64,
    );
    report.metric("learner.candidate_pairs", pairs as f64);
    report.metric("learner.peak_set", peak as f64);
    report.metric(
        "learner.children_per_s",
        if busy_s > 0.0 {
            children as f64 / busy_s
        } else {
            0.0
        },
    );
    report.metric("lattice.child_words", words as f64);
}

/// Trace-layer metrics from the parse spans and the bytes parsed per unit.
pub fn parse_metrics(
    report: &mut Report,
    ledger: &Ledger,
    bytes_per_unit: usize,
    files_per_unit: usize,
) {
    let parse = ledger.durations(Layer::Trace, "parse");
    let (_, units) = ledger.self_times();
    let per_unit = parse.iter().sum::<f64>() / units.max(1) as f64;
    report.metric("trace.parse_s", per_unit);
    report.metric(
        "trace.parse_mb_per_s",
        if per_unit > 0.0 {
            bytes_per_unit as f64 / 1e6 / per_unit
        } else {
            0.0
        },
    );
    report.metric("trace.files", files_per_unit as f64);
}

/// Peak resident set of this process, from `/proc/self/status`.
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|kb| kb.parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Online CPUs as `/proc/cpuinfo` lists them (what `nproc --all` says).
pub fn online_cpus() -> usize {
    std::fs::read_to_string("/proc/cpuinfo")
        .map(|s| s.lines().filter(|l| l.starts_with("processor")).count())
        .unwrap_or(0)
}

/// Median `Checkpoint::load` and `Checkpoint::save` times (ms) and median
/// file size (bytes) over the checkpoint files in `dir`.
pub fn checkpoint_io(dir: &Path, work: &Path) -> Result<(f64, f64, f64), String> {
    let mut load = Vec::new();
    let mut save = Vec::new();
    let mut sizes = Vec::new();
    let scratch = work.join("resave.ckpt");
    for entry in std::fs::read_dir(dir).map_err(|e| e.to_string())? {
        let path = entry.map_err(|e| e.to_string())?.path();
        if path.extension().is_none_or(|e| e != "ckpt") {
            continue;
        }
        let t0 = Instant::now();
        let checkpoint = Checkpoint::load(&path).map_err(|e| e.to_string())?;
        load.push(t0.elapsed().as_secs_f64() * 1e3);
        let t0 = Instant::now();
        checkpoint.save(&scratch).map_err(|e| e.to_string())?;
        save.push(t0.elapsed().as_secs_f64() * 1e3);
        sizes.push(std::fs::metadata(&path).map_err(|e| e.to_string())?.len() as f64);
    }
    Ok((median(&load), median(&save), median(&sizes)))
}
