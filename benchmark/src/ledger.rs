//! Spans recorded from the benchmark's own code around each call into a
//! layer, their self times, and their Chrome trace rendering.

use std::time::Instant;

use bbmg_obs::{chrome_trace, Event, TimedEvent};

/// The layers the ledger attributes wall time to.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Layer {
    Trace,
    Learner,
    Pool,
    Cache,
    Checkpoint,
    Serve,
    Cli,
}

impl Layer {
    pub const ALL: [Layer; 7] = [
        Layer::Trace,
        Layer::Learner,
        Layer::Pool,
        Layer::Cache,
        Layer::Checkpoint,
        Layer::Serve,
        Layer::Cli,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Layer::Trace => "trace",
            Layer::Learner => "learner",
            Layer::Pool => "pool",
            Layer::Cache => "cache",
            Layer::Checkpoint => "checkpoint",
            Layer::Serve => "serve",
            Layer::Cli => "cli",
        }
    }
}

/// One closed (or still open) span; times are nanoseconds since the
/// ledger was created.
#[derive(Debug, Clone)]
struct Span {
    layer: Layer,
    label: &'static str,
    start: u64,
    end: u64,
    parent: Option<usize>,
    unit: u64,
}

/// An in-memory span log. When off, every call is a no-op that reads no
/// clock, so untraced runs pay nothing.
#[derive(Debug)]
pub struct Ledger {
    base: Instant,
    on: bool,
    spans: Vec<Span>,
    stack: Vec<usize>,
    unit: u64,
}

/// Handle of an opened span (`usize::MAX` when the ledger is off).
pub type SpanId = usize;

impl Ledger {
    pub fn new(on: bool) -> Self {
        Ledger {
            base: Instant::now(),
            on,
            spans: Vec::new(),
            stack: Vec::new(),
            unit: 0,
        }
    }

    pub fn is_on(&self) -> bool {
        self.on
    }

    /// Turns recording on or off for the spans opened from now on.
    pub fn set_on(&mut self, on: bool) {
        self.on = on;
    }

    fn now(&self) -> u64 {
        u64::try_from(self.base.elapsed().as_nanos()).unwrap_or(u64::MAX)
    }

    /// Opens the root span of a new unit of work.
    pub fn open_unit(&mut self) -> SpanId {
        self.unit += 1;
        self.open(Layer::Cli, "unit")
    }

    pub fn open(&mut self, layer: Layer, label: &'static str) -> SpanId {
        if !self.on {
            return usize::MAX;
        }
        let start = self.now();
        self.push(layer, label, start)
    }

    fn push(&mut self, layer: Layer, label: &'static str, start: u64) -> SpanId {
        let id = self.spans.len();
        self.spans.push(Span {
            layer,
            label,
            start,
            end: start,
            parent: self.stack.last().copied(),
            unit: self.unit,
        });
        self.stack.push(id);
        id
    }

    pub fn close(&mut self, id: SpanId) {
        if id == usize::MAX {
            return;
        }
        let end = self.now();
        self.spans[id].end = end;
        let top = self.stack.pop();
        debug_assert_eq!(top, Some(id), "spans close in LIFO order");
    }

    /// Seconds between open and close of span `id` (0 when off).
    pub fn span_secs(&self, id: SpanId) -> f64 {
        self.spans
            .get(id)
            .map_or(0.0, |s| (s.end - s.start) as f64 * 1e-9)
    }

    /// Runs `f` inside a span.
    pub fn run<T>(&mut self, layer: Layer, label: &'static str, f: impl FnOnce() -> T) -> T {
        let id = self.open(layer, label);
        let out = f();
        self.close(id);
        out
    }

    /// Durations (seconds) of every span of `layer` whose label is `label`.
    pub fn durations(&self, layer: Layer, label: &str) -> Vec<f64> {
        self.spans
            .iter()
            .filter(|s| s.layer == layer && s.label == label)
            .map(|s| (s.end - s.start) as f64 * 1e-9)
            .collect()
    }

    /// Self time per unit (seconds) of each layer in [`Layer::ALL`] order,
    /// each the median over the units recorded so far, plus the unit
    /// count. Medians keep one slow unit (an fsync stall) from skewing
    /// the split.
    pub fn self_times(&self) -> ([f64; 7], usize) {
        let mut child_time = vec![0u64; self.spans.len()];
        for span in &self.spans {
            if let Some(p) = span.parent {
                child_time[p] += span.end - span.start;
            }
        }
        let mut per_unit: std::collections::BTreeMap<u64, [f64; 7]> = Default::default();
        for (i, span) in self.spans.iter().enumerate() {
            let own = (span.end - span.start).saturating_sub(child_time[i]);
            let slot = Layer::ALL
                .iter()
                .position(|&l| l == span.layer)
                .expect("every layer is listed");
            per_unit.entry(span.unit).or_default()[slot] += own as f64 * 1e-9;
        }
        let mut medians = [0f64; 7];
        for (slot, m) in medians.iter_mut().enumerate() {
            let values: Vec<f64> = per_unit.values().map(|u| u[slot]).collect();
            *m = median(&values);
        }
        (medians, per_unit.len())
    }

    /// Renders the spans of the last traced unit as a Chrome `trace_event`
    /// document (open it in Perfetto). Span names read `layer:label uN`,
    /// where N is the unit id.
    pub fn chrome(&self) -> String {
        let last = self.spans.last().map_or(0, |s| s.unit);
        let mut children: Vec<Vec<usize>> = vec![Vec::new(); self.spans.len()];
        let mut roots = Vec::new();
        for (i, span) in self.spans.iter().enumerate() {
            if span.unit != last {
                continue;
            }
            match span.parent {
                Some(p) => children[p].push(i),
                None => roots.push(i),
            }
        }
        let mut events = Vec::with_capacity(self.spans.len() * 2);
        let mut stack: Vec<(usize, bool)> = roots.iter().rev().map(|&r| (r, false)).collect();
        while let Some((i, done)) = stack.pop() {
            let span = &self.spans[i];
            if done {
                events.push(TimedEvent {
                    at_micros: span.end / 1000,
                    event: Event::SpanEnd { id: i as u64 + 1 },
                });
                continue;
            }
            events.push(TimedEvent {
                at_micros: span.start / 1000,
                event: Event::SpanStart {
                    id: i as u64 + 1,
                    parent: span.parent.map_or(0, |p| p as u64 + 1),
                    name: format!("{}:{} u{}", span.layer.name(), span.label, span.unit),
                },
            });
            stack.push((i, true));
            for &c in children[i].iter().rev() {
                stack.push((c, false));
            }
        }
        chrome_trace(&events)
    }
}

/// The `q`-quantile (nearest rank) of `values`; 0 for no samples.
pub fn quantile(values: &[f64], q: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let rank = ((q * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len());
    sorted[rank - 1]
}

pub fn median(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let n = sorted.len();
    if n % 2 == 1 {
        sorted[n / 2]
    } else {
        (sorted[n / 2 - 1] + sorted[n / 2]) / 2.0
    }
}

pub fn mean(values: &[f64]) -> f64 {
    if values.is_empty() {
        0.0
    } else {
        values.iter().sum::<f64>() / values.len() as f64
    }
}
