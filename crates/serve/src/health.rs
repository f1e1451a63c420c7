//! The per-shard health registry and its versioned snapshot document.
//!
//! [`HealthRegistry`] holds one [`ShardHealth`] record per source the
//! supervisor has ever opened — integer gauges copied from the shard after
//! every routed line, so refreshing an entry costs a handful of stores and
//! no locks (the serve loop is single-threaded; a multi-threaded front
//! would shard the registry the same way it shards sources). Entries for
//! closed shards are retained with `open: false`, so a snapshot always
//! tells the whole session's story.
//!
//! [`HealthRegistry::snapshot`] freezes the registry into a
//! [`HealthSnapshot`], serialized under the **`bbmg-health/1`** schema:
//!
//! ```json
//! {"schema":"bbmg-health/1","seq":3,"uptime_us":1523,"lines":120,
//!  "shards":[{"source":"bus0","state":"exact","open":true,"periods":7,
//!             "events":42,"pending_events":3,"shed_periods":0,
//!             "shed_events":0,"restarts":0,"memory_words":35,
//!             "watermark_words":1048576,"checkpoint_age_periods":7}]}
//! ```
//!
//! Parsing is strict in the `bbmg-metrics` sense: every field required,
//! unknown and duplicate fields rejected, schema tag matched exactly.
//! `seq` is a monotonic snapshot counter and `uptime_us` the registry's
//! wall-clock age, so two snapshots order and rate-derive; the watermark
//! headroom is derivable as `watermark_words - memory_words`.

use std::collections::BTreeMap;
use std::fmt;
use std::time::Instant;

use bbmg_obs::json::{self, push_escaped, Json, JsonParseError};

use crate::shard::{ShardSummary, StreamShard};

/// Schema tag stamped on every health snapshot document.
pub const HEALTH_SCHEMA: &str = "bbmg-health/1";

/// One shard's gauges, as last refreshed from the live shard (or frozen
/// from its summary when it closed).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ShardHealth {
    /// Source id the shard is keyed by.
    pub source: String,
    /// Lifecycle state word (`exact`, `degraded`, `shedding`, `backoff`,
    /// `stopped`).
    pub state: String,
    /// Whether the shard is still open (no `end` seen yet).
    pub open: bool,
    /// Periods absorbed into the model.
    pub periods: u64,
    /// Raw wire events received, shed or not.
    pub events: u64,
    /// Events buffered awaiting their period boundary — the ingest lag.
    pub pending_events: u64,
    /// Ready periods dropped while shedding.
    pub shed_periods: u64,
    /// Raw events dropped (backoff, parked, backwards periods).
    pub shed_events: u64,
    /// Watchdog restarts consumed, including recovered roster history.
    pub restarts: u64,
    /// Packed lattice words retained by the hypothesis arena.
    pub memory_words: u64,
    /// The configured watermark the arena is bounded by.
    pub watermark_words: u64,
    /// Periods consumed since the last checkpoint.
    pub checkpoint_age_periods: u64,
}

impl ShardHealth {
    /// Watermark headroom: words left before the degradation ladder fires.
    #[must_use]
    pub fn headroom_words(&self) -> u64 {
        self.watermark_words.saturating_sub(self.memory_words)
    }

    fn refresh(&mut self, shard: &StreamShard) {
        self.state.clear();
        self.state.push_str(shard.state().as_str());
        self.periods = shard.periods() as u64;
        self.events = shard.events_ingested();
        self.pending_events = shard.pending_events() as u64;
        self.shed_periods = shard.shed_periods() as u64;
        self.shed_events = shard.shed_events() as u64;
        self.restarts = shard.restarts() as u64;
        self.memory_words = shard.memory_words() as u64;
        self.watermark_words = shard.watermark_words() as u64;
        self.checkpoint_age_periods = shard.checkpoint_age_periods() as u64;
    }

    fn to_json(&self) -> String {
        let mut out = String::with_capacity(192);
        out.push_str("{\"source\":\"");
        push_escaped(&mut out, &self.source);
        out.push_str("\",\"state\":\"");
        push_escaped(&mut out, &self.state);
        out.push_str(&format!(
            "\",\"open\":{},\"periods\":{},\"events\":{},\"pending_events\":{},\
             \"shed_periods\":{},\"shed_events\":{},\"restarts\":{},\
             \"memory_words\":{},\"watermark_words\":{},\"checkpoint_age_periods\":{}}}",
            self.open,
            self.periods,
            self.events,
            self.pending_events,
            self.shed_periods,
            self.shed_events,
            self.restarts,
            self.memory_words,
            self.watermark_words,
            self.checkpoint_age_periods,
        ));
        out
    }

    fn parse(value: &Json) -> Result<Self, HealthParseError> {
        let Json::Object(fields) = value else {
            return Err(HealthParseError::Schema(
                "shard entry is not an object".into(),
            ));
        };
        let mut shard = ShardHealth::default();
        let mut seen: Vec<&str> = Vec::new();
        for (key, v) in fields {
            let known = match key.as_str() {
                "source" => {
                    shard.source = require_str(key, v)?;
                    "source"
                }
                "state" => {
                    shard.state = require_str(key, v)?;
                    "state"
                }
                "open" => {
                    shard.open = match v {
                        Json::Bool(b) => *b,
                        _ => {
                            return Err(HealthParseError::Schema(
                                "field `open` is not a boolean".into(),
                            ))
                        }
                    };
                    "open"
                }
                "periods" => set_u64(&mut shard.periods, key, v)?,
                "events" => set_u64(&mut shard.events, key, v)?,
                "pending_events" => set_u64(&mut shard.pending_events, key, v)?,
                "shed_periods" => set_u64(&mut shard.shed_periods, key, v)?,
                "shed_events" => set_u64(&mut shard.shed_events, key, v)?,
                "restarts" => set_u64(&mut shard.restarts, key, v)?,
                "memory_words" => set_u64(&mut shard.memory_words, key, v)?,
                "watermark_words" => set_u64(&mut shard.watermark_words, key, v)?,
                "checkpoint_age_periods" => set_u64(&mut shard.checkpoint_age_periods, key, v)?,
                other => return Err(HealthParseError::UnknownField(other.to_owned())),
            };
            if seen.contains(&known) {
                return Err(HealthParseError::Schema(format!(
                    "duplicate field `{known}`"
                )));
            }
            seen.push(known);
        }
        const REQUIRED: [&str; 12] = [
            "source",
            "state",
            "open",
            "periods",
            "events",
            "pending_events",
            "shed_periods",
            "shed_events",
            "restarts",
            "memory_words",
            "watermark_words",
            "checkpoint_age_periods",
        ];
        for field in REQUIRED {
            if !seen.contains(&field) {
                return Err(HealthParseError::MissingField(field));
            }
        }
        Ok(shard)
    }
}

/// A frozen view of the whole registry — the `bbmg-health/1` document.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct HealthSnapshot {
    /// Monotonic snapshot counter within one registry, starting at 1.
    pub seq: u64,
    /// Wall-clock age of the registry when the snapshot was taken, in
    /// microseconds.
    pub uptime_us: u64,
    /// Protocol lines the supervisor has processed.
    pub lines: u64,
    /// Every shard ever opened, in source-id order.
    pub shards: Vec<ShardHealth>,
}

impl HealthSnapshot {
    /// Serializes to the `bbmg-health/1` JSON document (one line, no
    /// trailing newline).
    #[must_use]
    pub fn to_json(&self) -> String {
        let mut out = String::with_capacity(128 + self.shards.len() * 192);
        out.push_str(&format!(
            "{{\"schema\":\"{HEALTH_SCHEMA}\",\"seq\":{},\"uptime_us\":{},\"lines\":{},\
             \"shards\":[",
            self.seq, self.uptime_us, self.lines
        ));
        for (i, shard) in self.shards.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str(&shard.to_json());
        }
        out.push_str("]}");
        out
    }

    /// Strictly parses a `bbmg-health/1` document: every field must be
    /// present, no field may be unknown, the schema tag must match.
    ///
    /// # Errors
    ///
    /// [`HealthParseError`] naming the offending field or JSON error.
    pub fn parse_json(text: &str) -> Result<Self, HealthParseError> {
        let root = json::parse(text)?;
        let Json::Object(fields) = &root else {
            return Err(HealthParseError::Schema("document is not an object".into()));
        };
        let mut snapshot = HealthSnapshot::default();
        let mut seen: Vec<&str> = Vec::new();
        for (key, value) in fields {
            let known = match key.as_str() {
                "schema" => {
                    if value.as_str() != Some(HEALTH_SCHEMA) {
                        return Err(HealthParseError::Schema(format!(
                            "unsupported schema tag {value:?}"
                        )));
                    }
                    "schema"
                }
                "seq" => set_u64(&mut snapshot.seq, key, value)?,
                "uptime_us" => set_u64(&mut snapshot.uptime_us, key, value)?,
                "lines" => set_u64(&mut snapshot.lines, key, value)?,
                "shards" => {
                    let Json::Array(items) = value else {
                        return Err(HealthParseError::Schema(
                            "field `shards` is not an array".into(),
                        ));
                    };
                    snapshot.shards = items
                        .iter()
                        .map(ShardHealth::parse)
                        .collect::<Result<Vec<_>, _>>()?;
                    "shards"
                }
                other => return Err(HealthParseError::UnknownField(other.to_owned())),
            };
            if seen.contains(&known) {
                return Err(HealthParseError::Schema(format!(
                    "duplicate field `{known}`"
                )));
            }
            seen.push(known);
        }
        for field in ["schema", "seq", "uptime_us", "lines", "shards"] {
            if !seen.contains(&field) {
                return Err(HealthParseError::MissingField(field));
            }
        }
        Ok(snapshot)
    }
}

fn require_u64(key: &str, value: &Json) -> Result<u64, HealthParseError> {
    value.as_u64().ok_or_else(|| {
        HealthParseError::Schema(format!("field `{key}` is not a non-negative integer"))
    })
}

fn require_str(key: &str, value: &Json) -> Result<String, HealthParseError> {
    value
        .as_str()
        .map(str::to_string)
        .ok_or_else(|| HealthParseError::Schema(format!("field `{key}` is not a string")))
}

fn set_u64<'k>(slot: &mut u64, key: &'k str, value: &Json) -> Result<&'k str, HealthParseError> {
    *slot = require_u64(key, value)?;
    Ok(key)
}

/// Why a health document failed strict validation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum HealthParseError {
    /// The text was not valid JSON.
    Json(JsonParseError),
    /// A field the schema does not define was present.
    UnknownField(String),
    /// A field the schema requires was absent.
    MissingField(&'static str),
    /// Structural problem (wrong types, duplicate fields, bad schema tag).
    Schema(String),
}

impl fmt::Display for HealthParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            HealthParseError::Json(e) => write!(f, "{e}"),
            HealthParseError::UnknownField(name) => write!(f, "unknown field `{name}`"),
            HealthParseError::MissingField(name) => write!(f, "missing field `{name}`"),
            HealthParseError::Schema(msg) => write!(f, "schema violation: {msg}"),
        }
    }
}

impl std::error::Error for HealthParseError {}

impl From<JsonParseError> for HealthParseError {
    fn from(e: JsonParseError) -> Self {
        HealthParseError::Json(e)
    }
}

/// The live registry the supervisor refreshes after every routed line.
#[derive(Debug)]
pub struct HealthRegistry {
    entries: BTreeMap<String, ShardHealth>,
    snapshots_taken: u64,
    created: Instant,
}

impl Default for HealthRegistry {
    fn default() -> Self {
        HealthRegistry {
            entries: BTreeMap::new(),
            snapshots_taken: 0,
            created: Instant::now(),
        }
    }
}

impl HealthRegistry {
    /// An empty registry; the uptime clock starts now.
    #[must_use]
    pub fn new() -> Self {
        HealthRegistry::default()
    }

    /// Creates or refreshes the entry for `shard` from its current gauges.
    pub fn observe(&mut self, shard: &StreamShard) {
        let source = shard.source();
        if let Some(entry) = self.entries.get_mut(source) {
            entry.open = true;
            entry.refresh(shard);
            return;
        }
        let mut entry = ShardHealth {
            source: source.to_string(),
            open: true,
            ..ShardHealth::default()
        };
        entry.refresh(shard);
        self.entries.insert(source.to_string(), entry);
    }

    /// Freezes the entry for a shard that just closed, from its summary.
    pub fn close(&mut self, summary: &ShardSummary) {
        if let Some(entry) = self.entries.get_mut(&summary.source) {
            entry.open = false;
            entry.state = summary.state.to_string();
            entry.periods = summary.periods as u64;
            entry.pending_events = 0;
            entry.shed_periods = summary.shed_periods as u64;
            entry.shed_events = summary.shed_events as u64;
            entry.restarts = summary.restarts as u64;
        }
    }

    /// The entry for `source`, if the registry has ever seen it.
    #[must_use]
    pub fn entry(&self, source: &str) -> Option<&ShardHealth> {
        self.entries.get(source)
    }

    /// Freezes the registry into a versioned snapshot. Each call advances
    /// the `seq` counter.
    pub fn snapshot(&mut self, lines: u64) -> HealthSnapshot {
        self.snapshots_taken += 1;
        HealthSnapshot {
            seq: self.snapshots_taken,
            uptime_us: u64::try_from(self.created.elapsed().as_micros()).unwrap_or(u64::MAX),
            lines,
            shards: self.entries.values().cloned().collect(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> HealthSnapshot {
        HealthSnapshot {
            seq: 2,
            uptime_us: 1500,
            lines: 42,
            shards: vec![
                ShardHealth {
                    source: "bus0".into(),
                    state: "exact".into(),
                    open: true,
                    periods: 7,
                    events: 42,
                    pending_events: 3,
                    shed_periods: 0,
                    shed_events: 0,
                    restarts: 0,
                    memory_words: 35,
                    watermark_words: 1 << 20,
                    checkpoint_age_periods: 7,
                },
                ShardHealth {
                    source: "bus1".into(),
                    state: "shedding".into(),
                    open: false,
                    periods: 2,
                    events: 90,
                    pending_events: 0,
                    shed_periods: 11,
                    shed_events: 4,
                    restarts: 1,
                    memory_words: 64,
                    watermark_words: 32,
                    checkpoint_age_periods: 0,
                },
            ],
        }
    }

    #[test]
    fn snapshot_json_round_trips_strictly() {
        let snapshot = sample();
        let parsed = HealthSnapshot::parse_json(&snapshot.to_json()).unwrap();
        assert_eq!(parsed, snapshot);
    }

    #[test]
    fn headroom_saturates() {
        let shards = sample().shards;
        assert_eq!(shards[0].headroom_words(), (1 << 20) - 35);
        assert_eq!(shards[1].headroom_words(), 0, "over the mark clamps to 0");
    }

    #[test]
    fn unknown_missing_and_duplicate_fields_are_rejected() {
        let good = sample().to_json();
        assert!(HealthSnapshot::parse_json(&good).is_ok());

        let unknown = good.replacen("\"lines\"", "\"linez\"", 1);
        assert!(matches!(
            HealthSnapshot::parse_json(&unknown),
            Err(HealthParseError::UnknownField(f)) if f == "linez"
        ));

        let missing = good.replacen("\"pending_events\":3,", "", 1);
        assert!(matches!(
            HealthSnapshot::parse_json(&missing),
            Err(HealthParseError::MissingField("pending_events"))
        ));

        let bad_schema = good.replacen(HEALTH_SCHEMA, "bbmg-health/9", 1);
        assert!(matches!(
            HealthSnapshot::parse_json(&bad_schema),
            Err(HealthParseError::Schema(_))
        ));

        let dup = good.replacen("\"seq\":2", "\"seq\":2,\"seq\":2", 1);
        assert!(matches!(
            HealthSnapshot::parse_json(&dup),
            Err(HealthParseError::Schema(_))
        ));
    }

    #[test]
    fn registry_snapshots_advance_seq() {
        let mut registry = HealthRegistry::new();
        let first = registry.snapshot(0);
        let second = registry.snapshot(5);
        assert_eq!(first.seq, 1);
        assert_eq!(second.seq, 2);
        assert_eq!(second.lines, 5);
        assert!(second.uptime_us >= first.uptime_us);
    }
}
