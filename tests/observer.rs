//! Observer-layer integration tests: golden JSONL event stream for the
//! paper's worked example, per-event schema checks, and the guarantee
//! that instrumentation never changes what the learner computes.

use bbmg::core::{learn, learn_with, robust_learn, robust_learn_with, LearnOptions};
use bbmg::obs::{json, JsonlSink, NoopObserver, Recorder};
use bbmg::serve::{Line, ServeOptions, Supervisor, WireKind};
use bbmg::workloads::simple;

/// The exact learner's full event stream on the paper's Figure 2 trace.
/// The trace and the learner are deterministic, so the stream is a stable
/// artifact of the algorithm: 3 periods, 8 message branchings, and the
/// hypothesis-set trajectory 2-3 / 6-9 / 15-15-24-10 ending in the
/// paper's 5 most-specific hypotheses.
const GOLDEN_EXACT_STREAM: &str = r#"{"event":"period_start","period":0}
{"event":"message_branch","period":0,"message":0,"candidates":2,"feasible":2}
{"event":"hypothesis_set","period":0,"size":2}
{"event":"message_branch","period":0,"message":1,"candidates":2,"feasible":3}
{"event":"hypothesis_set","period":0,"size":3}
{"event":"period_end","period":0,"hypotheses":3}
{"event":"period_start","period":1}
{"event":"message_branch","period":1,"message":2,"candidates":2,"feasible":6}
{"event":"hypothesis_set","period":1,"size":6}
{"event":"message_branch","period":1,"message":3,"candidates":2,"feasible":9}
{"event":"hypothesis_set","period":1,"size":9}
{"event":"period_end","period":1,"hypotheses":5}
{"event":"period_start","period":2}
{"event":"message_branch","period":2,"message":4,"candidates":3,"feasible":15}
{"event":"hypothesis_set","period":2,"size":15}
{"event":"message_branch","period":2,"message":5,"candidates":3,"feasible":15}
{"event":"hypothesis_set","period":2,"size":15}
{"event":"message_branch","period":2,"message":6,"candidates":3,"feasible":24}
{"event":"hypothesis_set","period":2,"size":24}
{"event":"message_branch","period":2,"message":7,"candidates":3,"feasible":10}
{"event":"hypothesis_set","period":2,"size":10}
{"event":"period_end","period":2,"hypotheses":5}
"#;

fn jsonl_of(options: LearnOptions) -> String {
    let trace = simple::figure_2_trace();
    let mut sink = JsonlSink::new(Vec::new()).without_timestamps();
    learn_with(&trace, options, &mut sink).expect("figure 2 learns");
    String::from_utf8(sink.finish().expect("no io errors on Vec")).expect("utf8")
}

#[test]
fn golden_jsonl_stream_for_the_worked_example() {
    assert_eq!(jsonl_of(LearnOptions::exact()), GOLDEN_EXACT_STREAM);
}

#[test]
fn every_jsonl_line_conforms_to_its_event_schema() {
    // Bound 4 forces merges on the worked example (the exact run peaks at
    // 24 hypotheses), so the stream also exercises the merge schema.
    let stream = jsonl_of(LearnOptions::bounded(4));
    let mut names = Vec::new();
    for line in stream.lines() {
        let value = json::parse(line).expect("each line is a standalone json document");
        let name = value
            .get("event")
            .and_then(|v| v.as_str())
            .expect("every event carries its name")
            .to_owned();
        let required: &[&str] = match name.as_str() {
            "period_start" => &["period"],
            "period_end" => &["period", "hypotheses"],
            "message_branch" => &["period", "message", "candidates", "feasible"],
            "hypothesis_set" => &["period", "size"],
            "merge" => &["period", "weight_a", "weight_b", "merged_weight"],
            other => panic!("unexpected event `{other}` in a plain bounded run"),
        };
        for key in required {
            assert!(
                value.get(key).and_then(json::Json::as_u64).is_some(),
                "event `{name}` is missing numeric field `{key}`: {line}"
            );
        }
        names.push(name);
    }
    assert!(names.iter().any(|n| n == "merge"), "bound 4 must merge");
    assert_eq!(names.first().map(String::as_str), Some("period_start"));
    assert_eq!(names.last().map(String::as_str), Some("period_end"));
}

/// A two-period, two-task serve feed for one source; every line is
/// deterministic, so the observer stream is a stable artifact.
fn serve_feed() -> Vec<String> {
    let mut feed = vec![Line::Hello {
        source: "bus0".into(),
        tasks: vec!["a".into(), "b".into()],
    }
    .to_json()];
    for period in 0..2usize {
        let base = period as u64 * 100;
        let ev = |time, kind, subject: &str| {
            Line::Event {
                source: "bus0".into(),
                period,
                time,
                kind,
                subject: subject.into(),
            }
            .to_json()
        };
        feed.push(ev(base, WireKind::Start, "a"));
        feed.push(ev(base + 10, WireKind::End, "a"));
        feed.push(ev(base + 12, WireKind::Rise, &format!("m{period}")));
        feed.push(ev(base + 14, WireKind::Fall, &format!("m{period}")));
        feed.push(ev(base + 20, WireKind::Start, "b"));
        feed.push(ev(base + 30, WireKind::End, "b"));
    }
    feed.push(
        Line::End {
            source: "bus0".into(),
        }
        .to_json(),
    );
    feed
}

fn serve_with<O: bbmg::obs::Observer>(mut observer: O) -> (Vec<bbmg::serve::ShardSummary>, O) {
    // Checkpoint after every consumed period (in memory; no directory), so
    // the stream exercises the checkpoint span too.
    let options = ServeOptions {
        checkpoint_every: std::num::NonZeroUsize::new(1),
        ..ServeOptions::default()
    };
    let mut sup = Supervisor::new(options);
    for line in serve_feed() {
        sup.ingest_line(&line, &mut observer).expect("clean feed");
    }
    let summaries = sup.finish(&mut observer).expect("finishes");
    (summaries, observer)
}

#[test]
fn serve_stream_nests_spans_and_narrates_shard_health() {
    let (_, sink) = serve_with(JsonlSink::new(Vec::new()).without_timestamps());
    let stream = String::from_utf8(sink.finish().expect("vec io")).expect("utf8");

    // Span ids carry the shard's lane in the high bits (lane 1 for the
    // first shard), so the ids in the stream are stable numbers.
    let lane = 1u64 << bbmg::obs::SPAN_LANE_SHIFT;
    let mut opened = Vec::new();
    let mut open_depth = 0usize;
    for line in stream.lines() {
        let value = json::parse(line).expect("each line is a standalone json document");
        match value.get("event").and_then(|v| v.as_str()).expect("name") {
            "span_start" => {
                let id = value.get("id").and_then(json::Json::as_u64).expect("id");
                let parent = value
                    .get("parent")
                    .and_then(json::Json::as_u64)
                    .expect("parent");
                let name = value
                    .get("name")
                    .and_then(|v| v.as_str())
                    .expect("span name")
                    .to_owned();
                assert!(id > lane, "span ids live on the shard's lane: {line}");
                assert!(
                    parent == 0 || parent > lane,
                    "parents stay on the lane: {line}"
                );
                opened.push(name);
                open_depth += 1;
            }
            "span_end" => open_depth -= 1,
            "shard_health" | "period_start" | "period_end" | "message_branch"
            | "hypothesis_set" | "checkpoint" => {}
            other => panic!("unexpected event `{other}` in a clean serve run: {line}"),
        }
    }
    assert_eq!(open_depth, 0, "every span closes by end of feed");
    assert_eq!(
        opened,
        [
            "shard bus0",
            "ingest p0",
            "sanitize",
            "learn",
            "checkpoint",
            "ingest p1",
            "sanitize",
            "learn",
            "checkpoint"
        ],
        "the pipeline span taxonomy in opening order: {stream}"
    );

    // The health narration brackets the run.
    let health: Vec<&str> = stream
        .lines()
        .filter(|l| l.contains("\"shard_health\""))
        .collect();
    assert!(
        health
            .first()
            .is_some_and(|l| l.contains("opened with 2 tasks")),
        "{stream}"
    );
    assert!(
        health.last().is_some_and(|l| l.contains("closed")),
        "{stream}"
    );
}

#[test]
fn serve_results_are_identical_under_noop_and_recording_observers() {
    let (noop, _) = serve_with(NoopObserver);
    let (recorded, recorder) = serve_with(Recorder::new());
    assert!(!recorder.is_empty(), "the recorder saw the run");
    let render = |summaries: &[bbmg::serve::ShardSummary]| {
        summaries
            .iter()
            .map(|s| {
                format!(
                    "{} {} {} {} {} {:?}",
                    s.source,
                    s.state,
                    s.periods,
                    s.fingerprint,
                    s.shed_periods,
                    s.result.hypotheses()
                )
            })
            .collect::<Vec<_>>()
    };
    assert_eq!(
        render(&noop),
        render(&recorded),
        "instrumentation never changes what serve computes"
    );
}

#[test]
fn noop_observer_results_are_byte_identical() {
    let trace = simple::figure_2_trace();
    for options in [LearnOptions::exact(), LearnOptions::bounded(4)] {
        let plain = learn(&trace, options).expect("plain learn");
        let observed = learn_with(&trace, options, &mut NoopObserver).expect("noop learn");
        assert_eq!(
            format!("{:?}", plain.hypotheses()),
            format!("{:?}", observed.hypotheses()),
            "hypotheses identical under a no-op observer"
        );
        assert_eq!(
            format!("{:?}", plain.stats()),
            format!("{:?}", observed.stats()),
            "stats identical under a no-op observer"
        );

        let plain = robust_learn(&trace, options).expect("robust learn");
        let observed =
            robust_learn_with(&trace, options, &mut NoopObserver).expect("robust noop learn");
        assert_eq!(
            format!("{:?}", (plain.hypotheses(), plain.stats())),
            format!("{:?}", (observed.hypotheses(), observed.stats())),
            "robust_learn results identical under a no-op observer"
        );
    }
}
