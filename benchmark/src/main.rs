//! The bbmg benchmark: four workloads driven through the public API of
//! the workspace crates, every output checked, end-to-end metrics with
//! tracing off and a per-layer ledger with tracing on.
//!
//! ```text
//! cargo run --release --manifest-path benchmark/Cargo.toml -- \
//!     --workload gm_bound_sweep --seed 2007 --seconds 25 --trace 0
//! ```
//!
//! The last line of standard output is one JSON object with the keys
//! `correct`, `attempted`, `failed` and `metrics`. See `README.md` in this
//! directory for the workloads, the metrics and the layer map.

#![forbid(unsafe_code)]

mod common;
mod corpus;
mod exact;
mod gm;
mod ledger;
mod serve;

use std::path::PathBuf;
use std::process::ExitCode;

use common::{Ctx, Report};

/// End-to-end metrics, reported with `--trace 0` on every workload.
const END_TO_END: [(&str, &str); 4] = [
    ("setup_s", "s"),
    ("model_s", "s"),
    ("traces_per_s", "1/s"),
    ("peak_rss_mb", "MB"),
];

/// Per-layer metrics, reported with `--trace 1` on every workload. A
/// layer a workload never calls reads 0 (its sample count is 0 too).
const PER_LAYER: [(&str, &str); 70] = [
    ("trace.parse_s", "s"),
    ("trace.parse_mb_per_s", "MB/s"),
    ("trace.files", "count"),
    ("trace.self_s", "s"),
    ("learner.busy_s", "s"),
    ("learner.period_p50_ms", "ms"),
    ("learner.period_p95_ms", "ms"),
    ("learner.period_samples", "count"),
    ("learner.finish_s", "s"),
    ("learner.children", "count"),
    ("learner.merges", "count"),
    ("learner.merge_ratio", "ratio"),
    ("learner.candidate_pairs", "count"),
    ("learner.peak_set", "count"),
    ("learner.children_per_s", "1/s"),
    ("learner.self_s", "s"),
    ("lattice.child_words", "words"),
    ("pool.workers", "count"),
    ("pool.speedup_2t", "ratio"),
    ("pool.self_s", "s"),
    ("cache.open_s", "s"),
    ("cache.fingerprint_s", "s"),
    ("cache.hit_full", "count"),
    ("cache.hit_prefix", "count"),
    ("cache.miss", "count"),
    ("cache.hit_ratio", "ratio"),
    ("cache.seeded_ratio", "ratio"),
    ("cache.learn_s.full", "s"),
    ("cache.learn_s.prefix", "s"),
    ("cache.learn_s.miss", "s"),
    ("cache.cross_format_miss", "count"),
    ("cache.self_s", "s"),
    ("checkpoint.bytes", "B"),
    ("checkpoint.bytes_growth", "ratio"),
    ("checkpoint.save_ms", "ms"),
    ("checkpoint.load_ms", "ms"),
    ("checkpoint.self_s", "s"),
    ("serve.line_us_p50", "us"),
    ("serve.line_us_p99", "us"),
    ("serve.line_samples", "count"),
    ("serve.close_ms_p99", "ms"),
    ("serve.close_samples", "count"),
    ("serve.ckpt_close_ms_p99", "ms"),
    ("serve.ckpt_close_samples", "count"),
    ("serve.lateness_max_ms", "ms"),
    ("serve.memory_words_max", "words"),
    ("serve.shed_periods", "count"),
    ("serve.restarts", "count"),
    ("serve.self_s", "s"),
    ("period_p50_ms.r16k", "ms"),
    ("period_p99_ms.r16k", "ms"),
    ("period_samples.r16k", "count"),
    ("period_p50_ms.r32k", "ms"),
    ("period_p99_ms.r32k", "ms"),
    ("period_samples.r32k", "count"),
    ("sustained_lines_per_s", "lines/s"),
    ("cli.unattributed_s", "s"),
    ("ledger.model_s", "s"),
    ("ledger.traced_model_s", "s"),
    ("ledger.error_ratio", "ratio"),
    ("tracing.overhead_s", "s"),
    ("sweep.bound_s.1", "s"),
    ("sweep.bound_s.4", "s"),
    ("sweep.bound_s.16", "s"),
    ("sweep.bound_s.32", "s"),
    ("sweep.bound_s.64", "s"),
    ("sweep.bound_s.100", "s"),
    ("sweep.bound_s.120", "s"),
    ("sweep.bound_s.150", "s"),
    ("units", "count"),
];

const WORKLOADS: [&str; 4] = [
    "gm_bound_sweep",
    "exact_random7",
    "corpus_rerun",
    "serve_feed",
];

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: String::new(),
        seed: 2007,
        seconds: 25.0,
        trace: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("`{flag}` needs a value"))?;
        match flag.as_str() {
            "--workload" => args.workload = value,
            "--seed" => args.seed = value.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                args.seconds = value.parse().map_err(|e| format!("--seconds: {e}"))?;
                if args.seconds.is_nan() || args.seconds <= 0.0 {
                    return Err("--seconds must be positive".into());
                }
            }
            "--trace" => {
                args.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".into()),
                }
            }
            _ => return Err(format!("unknown flag `{flag}`")),
        }
    }
    if !WORKLOADS.contains(&args.workload.as_str()) {
        return Err(format!(
            "--workload must be one of {}",
            WORKLOADS.join(", ")
        ));
    }
    Ok(args)
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("bbmg-ledger: {e}");
            return ExitCode::from(2);
        }
    };
    let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    let work =
        PathBuf::from("benchmark/work").join(format!("{}-{}", args.workload, std::process::id()));
    if let Err(e) = std::fs::create_dir_all(&work) {
        eprintln!("bbmg-ledger: cannot create {}: {e}", work.display());
        return ExitCode::from(2);
    }
    let ctx = Ctx {
        seed: args.seed,
        seconds: args.seconds,
        trace: args.trace,
        threads: cores.min(2),
        work: work.clone(),
    };
    let outcome = match args.workload.as_str() {
        "gm_bound_sweep" => gm::run(&ctx),
        "exact_random7" => exact::run(&ctx),
        "corpus_rerun" => corpus::run(&ctx),
        _ => serve::run(&ctx),
    };
    // Best effort: a leftover scratch directory is harmless.
    let _ = std::fs::remove_dir_all(&work);
    let report = match outcome {
        Ok(r) => r,
        Err(e) => {
            eprintln!("bbmg-ledger: {}: {e}", args.workload);
            return ExitCode::from(2);
        }
    };
    emit(&args, &ctx, cores, report)
}

fn emit(args: &Args, ctx: &Ctx, cores: usize, report: Report) -> ExitCode {
    if let Some(spans) = &report.spans {
        let out = PathBuf::from("benchmark/out");
        let path = out.join(format!("spans-{}.json", args.workload));
        match std::fs::create_dir_all(&out).and_then(|()| std::fs::write(&path, spans)) {
            Ok(()) => println!("spans: {}", path.display()),
            Err(e) => eprintln!("bbmg-ledger: cannot write {}: {e}", path.display()),
        }
    }
    for problem in &report.problems {
        println!("FAILED CHECK: {problem}");
    }
    let wanted: &[(&str, &str)] = if args.trace { &PER_LAYER } else { &END_TO_END };
    for (name, _) in &report.metrics {
        assert!(
            wanted.iter().any(|(w, _)| w == name),
            "workload reported `{name}`, which is not a metric of this mode"
        );
    }
    let mut metrics = String::new();
    for (i, (name, unit)) in wanted.iter().enumerate() {
        let value = report
            .metrics
            .iter()
            .find(|(n, _)| n == name)
            .map_or(0.0, |&(_, v)| v);
        let value = if value.is_finite() { value } else { 0.0 };
        println!("{name:<28} {value:>16.6} {unit}");
        if i > 0 {
            metrics.push(',');
        }
        metrics.push_str(&format!(
            "\"{name}\":{{\"value\":{value},\"unit\":\"{unit}\"}}"
        ));
    }
    let mut facts = format!(
        "{{\"workload\":\"{}\",\"seed\":{},\"seconds\":{},\"mode\":\"{}\",\"trace\":{},\
         \"nproc\":{},\"available_parallelism\":{cores},\"threads\":{},\
         \"unwitnessed\":[\"pool scaling beyond {cores} threads\"{}]",
        args.workload,
        ctx.seed,
        ctx.seconds,
        if ctx.seconds < 5.0 { "quick" } else { "full" },
        u8::from(args.trace),
        common::online_cpus(),
        report.threads,
        if cores < 2 {
            ",\"pool.speedup_2t\""
        } else {
            ""
        },
    );
    for (key, value) in &report.facts {
        facts.push_str(&format!(",\"{key}\":{value}"));
    }
    facts.push('}');
    println!("facts: {facts}");
    let correct = report.problems.is_empty() && report.failed == 0;
    println!(
        "{{\"correct\":{correct},\"attempted\":{},\"failed\":{},\"metrics\":{{{metrics}}}}}",
        report.attempted.max(1),
        report.failed
    );
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}
