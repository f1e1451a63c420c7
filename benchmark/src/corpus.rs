//! `corpus_rerun`: re-analysis of a capture campaign with `bbmg corpus`
//! at bound 16 against a fresh copy of a template cache.
//!
//! Setup learns an earlier campaign into the template cache. The corpus
//! then mixes exact duplicates (CSV and btrace), prefix-extensions of
//! cached captures, unseen captures, and cached captures converted from
//! the text format to btrace. The duplicates and extensions are long
//! captures and the rest short ones, so parsing, fingerprinting and
//! checkpoint I/O dominate and the learner does little.

use std::collections::HashMap;
use std::num::NonZeroUsize;
use std::path::{Path, PathBuf};
use std::time::Instant;

use bbmg_core::{
    antichain_fingerprint, learn, trace_fingerprints, CacheHit, IncrementalLearner, LearnOptions,
    LearnStats, ModelCache, TraceFingerprints,
};
use bbmg_trace::{parse_csv, parse_trace, write_btrace, write_csv, write_trace, Trace};
use bbmg_workloads::random::{random_trace, RandomModelConfig};

use crate::common::{
    checkpoint_io, learner_metrics, measure_setup, parse_any, parse_metrics, timed_loop, times,
    Ctx, Relabel, Report, Rng, Stopwatch, Units,
};
use crate::ledger::{median, Layer, Ledger};

const BOUND: usize = 16;
/// Seed of the campaign's random models and simulations.
const CAPTURE_SEED: u64 = 2007;
const LONG: usize = 3000;
const SHORT: usize = 40;
/// Periods an extension adds to its cached capture.
const EXTRA_PERIODS: usize = 4;
/// One corpus file per entry: its kind and its capture's length. Every
/// kind but `Unseen` comes from a cached capture of the same length.
const PLAN: [(Kind, usize, usize); 5] = [
    (Kind::DupCsv, LONG, 5),
    (Kind::DupBtrace, LONG, 5),
    (Kind::Extension, LONG, 2),
    (Kind::Converted, SHORT, 4),
    (Kind::Unseen, SHORT, 2),
];
const CAPACITY: usize = 256;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Kind {
    DupCsv,
    DupBtrace,
    Extension,
    Converted,
    Unseen,
}

impl Kind {
    /// The hit classes the corpus plan allows for this kind of file.
    fn allowed(self) -> &'static [&'static str] {
        match self {
            Kind::DupCsv | Kind::DupBtrace => &["full"],
            Kind::Extension => &["prefix"],
            // The cache key depends on task interning order, which the
            // text format and CSV assign differently; a format-independent
            // key would make these full hits.
            Kind::Converted => &["full", "miss"],
            Kind::Unseen => &["miss"],
        }
    }
}

struct File {
    name: String,
    kind: Kind,
    bytes: Vec<u8>,
    /// For converted files: the name of the cached CSV they came from.
    source: Option<String>,
}

struct Input {
    corpus: PathBuf,
    template: PathBuf,
    files: Vec<File>,
    /// Cached captures as CSV, by file name (the campaign).
    campaign: Vec<(String, String)>,
}

/// A seeded random capture of `periods` periods; 5 or 6 tasks.
fn capture(rng: &mut Rng, periods: usize) -> Result<Trace, String> {
    let tasks = 5 + rng.below(2) as usize;
    let config = RandomModelConfig {
        tasks,
        seed: rng.next_u64(),
        ..RandomModelConfig::default()
    };
    random_trace(&config, periods, rng.next_u64())
        .map(|r| r.trace)
        .map_err(|e| e.to_string())
}

/// How many distinct tasks run in the first `periods` periods.
fn tasks_run(trace: &Trace, periods: usize) -> usize {
    let mut seen = vec![false; trace.task_count()];
    for period in &trace.periods()[..periods] {
        for task in period.executed_tasks().iter() {
            seen[task.index()] = true;
        }
    }
    seen.iter().filter(|&&s| s).count()
}

/// The CSV rows of `csv` whose period column is below `periods`.
fn csv_prefix(csv: &str, periods: usize) -> String {
    let mut out = String::with_capacity(csv.len());
    for (i, line) in csv.lines().enumerate() {
        let keep = i == 0
            || line
                .rsplit(',')
                .next()
                .and_then(|p| p.parse::<usize>().ok())
                .is_some_and(|p| p < periods);
        if keep {
            out.push_str(line);
            out.push('\n');
        }
    }
    out
}

fn setup(ctx: &Ctx, rep: usize) -> Result<Input, String> {
    let root = ctx.work.join(format!("setup-{rep}"));
    let campaign_dir = root.join("campaign");
    let corpus = root.join("corpus");
    let template = root.join("template");
    for dir in [&campaign_dir, &corpus] {
        std::fs::create_dir_all(dir).map_err(|e| e.to_string())?;
    }
    // The captures are fixed; the benchmark seed relabels each one (see
    // `Relabel`), so every seed costs the learner the same work.
    let mut rng = Rng::new(CAPTURE_SEED);
    let mut names = Rng::new(ctx.seed);
    let mut campaign = Vec::new();
    let mut files = Vec::new();
    let plan = PLAN
        .iter()
        .flat_map(|&(kind, periods, count)| std::iter::repeat_n((kind, periods), count));
    for (i, (kind, periods)) in plan.enumerate() {
        // An extension is a prefix hit only if its extra periods run no
        // task the cached capture never ran (CSV interns by appearance).
        let long = loop {
            let long = capture(&mut rng, periods + EXTRA_PERIODS)?;
            let grows = tasks_run(&long, periods) != tasks_run(&long, periods + EXTRA_PERIODS);
            if kind != Kind::Extension || !grows {
                break long;
            }
        };
        let relabel = Relabel::new(&long, &mut names);
        let long_csv = relabel.csv(&write_csv(&long));
        let csv = csv_prefix(&long_csv, periods);
        let name = format!("c{i:02}");
        if kind != Kind::Unseen {
            campaign.push((format!("{name}.csv"), csv.clone()));
        }
        let (file, bytes, source) = match kind {
            Kind::DupCsv => (format!("dup-{name}.csv"), csv.clone().into_bytes(), None),
            Kind::DupBtrace => {
                let cached = parse_csv(&csv).map_err(|e| e.to_string())?;
                (format!("dup-{name}.btrace"), write_btrace(&cached), None)
            }
            Kind::Extension => (format!("ext-{name}.csv"), long_csv.into_bytes(), None),
            Kind::Converted => {
                // The simulator's own capture, saved as text and converted.
                let text = relabel.text(&write_trace(&long.truncated(periods)));
                let converted = parse_trace(&text).map_err(|e| e.to_string())?;
                (
                    format!("conv-{name}.btrace"),
                    write_btrace(&converted),
                    Some(format!("{name}.csv")),
                )
            }
            Kind::Unseen => (format!("new-{name}.csv"), csv.into_bytes(), None),
        };
        files.push(File {
            name: file,
            kind,
            bytes,
            source,
        });
    }
    for (name, csv) in &campaign {
        std::fs::write(campaign_dir.join(name), csv).map_err(|e| e.to_string())?;
    }
    for file in &files {
        std::fs::write(corpus.join(&file.name), &file.bytes).map_err(|e| e.to_string())?;
    }
    bbmg_core::pool::warm_up(1);
    let mut sink = Vec::new();
    bbmg_cli::run(
        corpus_args(&campaign_dir, &template, &root.join("campaign.json")),
        &mut sink,
    )
    .map_err(|e| format!("learning the campaign: {e}"))?;
    Ok(Input {
        corpus,
        template,
        files,
        campaign,
    })
}

fn corpus_args(dir: &Path, cache: &Path, report: &Path) -> Vec<String> {
    vec![
        "corpus".into(),
        dir.display().to_string(),
        "--bound".into(),
        BOUND.to_string(),
        "--cache-dir".into(),
        cache.display().to_string(),
        "--cache-capacity".into(),
        CAPACITY.to_string(),
        "--report".into(),
        report.display().to_string(),
    ]
}

fn copy_dir(from: &Path, to: &Path) -> Result<(), String> {
    std::fs::create_dir_all(to).map_err(|e| e.to_string())?;
    for entry in std::fs::read_dir(from).map_err(|e| e.to_string())? {
        let path = entry.map_err(|e| e.to_string())?.path();
        let dest = to.join(path.file_name().expect("directory entries have names"));
        std::fs::copy(&path, dest).map_err(|e| e.to_string())?;
    }
    Ok(())
}

/// One row of the corpus report: file name → (hit class, fingerprint).
fn read_report(path: &Path) -> Result<HashMap<String, (String, u64)>, String> {
    let text = std::fs::read_to_string(path).map_err(|e| e.to_string())?;
    let doc = bbmg_obs::json::parse(text.trim()).map_err(|e| format!("{e:?}"))?;
    let entries = match doc.get("payload").and_then(|p| p.get("entries")) {
        Some(bbmg_obs::json::Json::Array(rows)) => rows,
        _ => return Err("corpus report has no entries".into()),
    };
    let mut rows = HashMap::new();
    for row in entries {
        let file = row.get("file").and_then(|v| v.as_str()).unwrap_or_default();
        let name = Path::new(file)
            .file_name()
            .map(|n| n.to_string_lossy().into_owned())
            .unwrap_or_default();
        let hit = row.get("hit").and_then(|v| v.as_str()).unwrap_or_default();
        let fp = row
            .get("model_fingerprint")
            .and_then(|v| v.as_str())
            .and_then(|s| u64::from_str_radix(s, 16).ok())
            .unwrap_or_default();
        rows.insert(name, (hit.to_owned(), fp));
    }
    Ok(rows)
}

/// What a traced pass saw: each file's hit class, the per-class
/// resolution times, the periods seeded from the cache, and the learns.
struct Mirror {
    classes: HashMap<String, &'static str>,
    class_s: HashMap<&'static str, f64>,
    seeded: usize,
    periods: usize,
    bytes: usize,
    /// Each learn's statistics (this pass's work only) and task count.
    learns: Vec<(LearnStats, usize)>,
}

/// The traced pass: the stages `bbmg corpus` runs at one thread, driven
/// call by call through the public API so each call gets a span. The
/// corpus holds no file twice, so the CLI's in-run dedup has nothing to do.
fn mirror(ledger: &mut Ledger, dir: &Path, cache_dir: &Path) -> Result<Mirror, String> {
    let options = LearnOptions::bounded(BOUND);
    let capacity = NonZeroUsize::new(CAPACITY).expect("nonzero capacity");
    let mut cache = ledger
        .run(Layer::Cache, "open", || {
            ModelCache::open(cache_dir, capacity)
        })
        .map_err(|e| e.to_string())?;
    let mut paths: Vec<PathBuf> = std::fs::read_dir(dir)
        .map_err(|e| e.to_string())?
        .filter_map(|e| e.ok().map(|e| e.path()))
        .collect();
    paths.sort();
    let mut traces = Vec::with_capacity(paths.len());
    let mut bytes = 0;
    for path in &paths {
        let data = std::fs::read(path).map_err(|e| e.to_string())?;
        bytes += data.len();
        traces.push(ledger.run(Layer::Trace, "parse", || parse_any(&data))?);
    }
    let fps: Vec<TraceFingerprints> = traces
        .iter()
        .map(|t| {
            ledger.run(Layer::Cache, "fingerprint", || {
                trace_fingerprints(t, &options)
            })
        })
        .collect();
    let mut out = Mirror {
        classes: HashMap::new(),
        class_s: HashMap::new(),
        seeded: 0,
        periods: 0,
        bytes,
        learns: Vec::new(),
    };
    for ((path, trace), fp) in paths.iter().zip(&traces).zip(&fps) {
        let name = path
            .file_name()
            .expect("named")
            .to_string_lossy()
            .into_owned();
        out.periods += fp.periods();
        let t0 = Instant::now();
        let hit = cache.classify(fp);
        let (class, seed) = match hit {
            CacheHit::Full => ("full", Some((fp.full(), fp.periods()))),
            CacheHit::Prefix { periods } => ("prefix", Some((fp.prefix(periods), periods))),
            CacheHit::Miss => ("miss", None),
        };
        let checkpoint = seed.and_then(|(key, _)| {
            ledger.run(Layer::Cache, "take_checkpoint", || {
                cache.take_checkpoint(key)
            })
        });
        let (class, mut learner) = match checkpoint {
            Some(c) => {
                out.seeded += seed.map_or(0, |(_, k)| k);
                let resumed = ledger.run(Layer::Checkpoint, "resume", || {
                    IncrementalLearner::resume(c)
                });
                (class, resumed.map_err(|e| e.to_string())?)
            }
            None => (
                "miss",
                ledger.run(Layer::Learner, "new", || {
                    IncrementalLearner::new(trace.task_count(), options)
                }),
            ),
        };
        // A resumed learner carries the cached learn's statistics; count
        // only this pass's work.
        let before = learner.stats().clone();
        let start = learner.pushed_periods();
        for period in &trace.periods()[start..] {
            ledger
                .run(Layer::Learner, "observe", || learner.push_period(period))
                .map_err(|e| e.to_string())?;
        }
        let checkpoint = ledger.run(Layer::Checkpoint, "checkpoint", || learner.checkpoint());
        let result = ledger.run(Layer::Learner, "finish", || learner.finish());
        let mut work = result.stats().clone();
        work.hypotheses_generated -= before.hypotheses_generated;
        work.merges -= before.merges;
        work.candidate_pairs_total -= before.candidate_pairs_total;
        out.learns.push((work, trace.task_count()));
        ledger
            .run(Layer::Cache, "insert", || {
                cache.insert(fp.full(), &checkpoint)
            })
            .map_err(|e| e.to_string())?;
        *out.class_s.entry(class).or_default() += t0.elapsed().as_secs_f64();
        out.classes.insert(name, class);
    }
    Ok(out)
}

/// What a file's model must be: its cold learn, or for a converted copy
/// that hit, the cold learn of the cached capture it came from.
struct Expected {
    cold: u64,
    source_cold: Option<u64>,
}

fn expectations(input: &Input) -> Result<HashMap<String, Expected>, String> {
    let cold = |bytes: &[u8]| -> Result<u64, String> {
        let trace = parse_any(bytes)?;
        let result = learn(&trace, LearnOptions::bounded(BOUND)).map_err(|e| e.to_string())?;
        Ok(antichain_fingerprint(result.hypotheses()))
    };
    let campaign: HashMap<&str, &str> = input
        .campaign
        .iter()
        .map(|(n, c)| (n.as_str(), c.as_str()))
        .collect();
    let mut expected = HashMap::new();
    for f in &input.files {
        let source_cold = match &f.source {
            Some(source) => Some(cold(campaign[source.as_str()].as_bytes())?),
            None => None,
        };
        let cold = cold(&f.bytes)?;
        expected.insert(f.name.clone(), Expected { cold, source_cold });
    }
    Ok(expected)
}

/// Checks one corpus report: every file's hit class is one the corpus
/// plan allows and its model is the expected one. Returns how many
/// converted copies missed.
fn check_report(
    report: &mut Report,
    files: &[File],
    expected: &HashMap<String, Expected>,
    table: &HashMap<String, (String, u64)>,
) -> usize {
    let mut cross_format_miss = 0;
    for f in files {
        let Some((hit, fp)) = table.get(&f.name) else {
            report.op(false, || {
                format!("{}: missing from the corpus report", f.name)
            });
            continue;
        };
        let e = &expected[&f.name];
        let want = match (e.source_cold, hit.as_str()) {
            (Some(source), "full") => source,
            _ => e.cold,
        };
        if f.kind == Kind::Converted && hit == "miss" {
            cross_format_miss += 1;
        }
        let allowed = f.kind.allowed().contains(&hit.as_str());
        report.op(allowed && *fp == want, || {
            format!(
                "{}: hit `{hit}` (plan {:?}), model {fp:016x}, cold learn {want:016x}",
                f.name,
                f.kind.allowed()
            )
        });
    }
    cross_format_miss
}

pub fn run(ctx: &Ctx) -> Result<Report, String> {
    let mut report = Report {
        threads: 1,
        ..Report::default()
    };
    let (setup_s, input) = measure_setup(3, |rep| setup(ctx, rep))?;
    let expected = expectations(&input)?;
    let mut ledger = Ledger::new(false);
    let mut units: Units = Vec::new();
    let mut first: Option<HashMap<String, (String, u64)>> = None;
    let mut cross_format_miss = 0;
    let mut last_mirror = None;
    let min_units = if ctx.trace { 4 } else { 3 };
    timed_loop(ctx.seconds, min_units, |i| {
        let cache = ctx.work.join(format!("cache-{i}"));
        copy_dir(&input.template, &cache)?;
        let tracing = ctx.trace && i % 2 == 1;
        if tracing {
            ledger.set_on(true);
            let clock = Stopwatch::start();
            let root = ledger.open_unit();
            let m = mirror(&mut ledger, &input.corpus, &cache)?;
            ledger.close(root);
            units.push(clock.unit(true));
            ledger.set_on(false);
            // The first pass is untraced, so `first` is set.
            let table = first.as_ref().expect("an untraced pass ran first");
            for (name, class) in &m.classes {
                let agrees = table.get(name).is_some_and(|(h, _)| h == class);
                report.check(agrees, || {
                    format!("{name}: traced pass classified it `{class}`, bbmg corpus did not")
                });
            }
            last_mirror = Some(m);
        } else {
            let path = ctx.work.join(format!("report-{i}.json"));
            let args = corpus_args(&input.corpus, &cache, &path);
            let mut sink = Vec::new();
            let clock = Stopwatch::start();
            let ran = bbmg_cli::run(args, &mut sink);
            units.push(clock.unit(false));
            match ran {
                Ok(()) => {
                    let table = read_report(&path)?;
                    std::fs::remove_file(&path).map_err(|e| e.to_string())?;
                    cross_format_miss = check_report(&mut report, &input.files, &expected, &table);
                    first.get_or_insert(table);
                }
                Err(e) => {
                    for f in &input.files {
                        report.op(false, || format!("{}: rejected ({e})", f.name));
                    }
                }
            }
        }
        std::fs::remove_dir_all(&cache).map_err(|e| e.to_string())?;
        Ok(())
    })?;
    report.facts.push(("files", input.files.len().to_string()));
    let untraced = times(&units, false);
    report.unit_fact(&untraced);

    let model_s = median(&untraced);
    if ctx.trace {
        let m = last_mirror.expect("at least one traced pass");
        let passes = times(&units, true).len() as f64;
        let count = |c: &str| m.classes.values().filter(|&&v| v == c).count() as f64;
        let files = m.classes.len() as f64;
        parse_metrics(&mut report, &ledger, m.bytes, m.classes.len());
        let per =
            |label: &str, layer: Layer| ledger.durations(layer, label).iter().sum::<f64>() / passes;
        report.metric("cache.open_s", per("open", Layer::Cache));
        report.metric("cache.fingerprint_s", per("fingerprint", Layer::Cache));
        report.metric("cache.hit_full", count("full"));
        report.metric("cache.hit_prefix", count("prefix"));
        report.metric("cache.miss", count("miss"));
        report.metric("cache.hit_ratio", (count("full") + count("prefix")) / files);
        report.metric("cache.seeded_ratio", m.seeded as f64 / m.periods as f64);
        report.metric(
            "cache.learn_s.full",
            m.class_s.get("full").copied().unwrap_or(0.0),
        );
        report.metric(
            "cache.learn_s.prefix",
            m.class_s.get("prefix").copied().unwrap_or(0.0),
        );
        report.metric(
            "cache.learn_s.miss",
            m.class_s.get("miss").copied().unwrap_or(0.0),
        );
        report.metric("cache.cross_format_miss", cross_format_miss as f64);
        let learns: Vec<_> = m.learns.iter().map(|(s, t)| (s, *t)).collect();
        learner_metrics(&mut report, &ledger, &learns);
        let (load_ms, save_ms, bytes) = checkpoint_io(&input.template, &ctx.work)?;
        report.metric("checkpoint.load_ms", load_ms);
        report.metric("checkpoint.save_ms", save_ms);
        report.metric("checkpoint.bytes", bytes);
        report.metric(
            "pool.workers",
            bbmg_core::pool::WorkerPool::global().workers() as f64,
        );
        report.ledger(&ledger, &units);
    } else {
        report.metric("setup_s", setup_s);
        report.metric("model_s", model_s);
        report.metric("traces_per_s", input.files.len() as f64 / model_s);
        report.peak_rss();
    }
    Ok(report)
}
