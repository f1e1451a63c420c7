//! The persisted supervisor roster (`bbmg-roster/1`).
//!
//! When a checkpoint directory is configured, the supervisor mirrors its
//! shard table into `roster.json` next to the `<source>.ckpt` files: one
//! entry per source ever opened, carrying the checkpoint file name, the
//! restart count, the periods absorbed at the last checkpoint, and the
//! last reported state. The file is rewritten atomically (temp + rename)
//! whenever an entry changes, so a crash leaves either the old roster or
//! the new one.
//!
//! On startup [`crate::Supervisor::recover`] reads the roster back; a
//! later `hello` for a listed source resumes its shard from the recorded
//! checkpoint and inherits its restart history — closing the "shards
//! recover, the roster does not" gap.
//!
//! The document is one JSON object per line of intent, parsed strictly:
//!
//! ```json
//! {"schema":"bbmg-roster/1","entries":[
//!   {"source":"bus0","checkpoint":"bus0.ckpt","restarts":1,
//!    "periods":40,"state":"exact"}]}
//! ```

use std::collections::BTreeMap;
use std::fmt;
use std::fs;
use std::io::Write as _;
use std::path::{Path, PathBuf};

use bbmg_obs::json::{self, push_escaped, Json, JsonParseError};

/// Schema tag stamped on every roster document.
pub const ROSTER_SCHEMA: &str = "bbmg-roster/1";

/// File name the roster is kept under, inside the checkpoint directory.
pub const ROSTER_FILE: &str = "roster.json";

/// One source's recorded history.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct RosterEntry {
    /// Source id.
    pub source: String,
    /// Checkpoint file name relative to the checkpoint directory.
    pub checkpoint: String,
    /// Watchdog restarts the shard has consumed across its lifetime.
    pub restarts: u64,
    /// Periods absorbed at the last checkpoint.
    pub periods: u64,
    /// Last reported lifecycle state word.
    pub state: String,
}

impl RosterEntry {
    fn to_json(&self) -> String {
        let mut out = String::with_capacity(96);
        out.push_str("{\"source\":\"");
        push_escaped(&mut out, &self.source);
        out.push_str("\",\"checkpoint\":\"");
        push_escaped(&mut out, &self.checkpoint);
        out.push_str(&format!(
            "\",\"restarts\":{},\"periods\":{},\"state\":\"",
            self.restarts, self.periods
        ));
        push_escaped(&mut out, &self.state);
        out.push_str("\"}");
        out
    }

    fn parse(value: &Json) -> Result<Self, RosterError> {
        let Json::Object(fields) = value else {
            return Err(RosterError::Schema("entry is not an object".into()));
        };
        let mut entry = RosterEntry::default();
        let mut seen: Vec<&str> = Vec::new();
        for (key, v) in fields {
            let known = match key.as_str() {
                "source" => {
                    entry.source = require_str(key, v)?;
                    "source"
                }
                "checkpoint" => {
                    entry.checkpoint = require_str(key, v)?;
                    "checkpoint"
                }
                "restarts" => {
                    entry.restarts = require_u64(key, v)?;
                    "restarts"
                }
                "periods" => {
                    entry.periods = require_u64(key, v)?;
                    "periods"
                }
                "state" => {
                    entry.state = require_str(key, v)?;
                    "state"
                }
                other => return Err(RosterError::UnknownField(other.to_owned())),
            };
            if seen.contains(&known) {
                return Err(RosterError::Schema(format!("duplicate field `{known}`")));
            }
            seen.push(known);
        }
        for field in ["source", "checkpoint", "restarts", "periods", "state"] {
            if !seen.contains(&field) {
                return Err(RosterError::MissingField(field));
            }
        }
        Ok(entry)
    }
}

/// The whole roster: entries keyed and serialized in source-id order.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Roster {
    entries: BTreeMap<String, RosterEntry>,
}

impl Roster {
    /// An empty roster.
    #[must_use]
    pub fn new() -> Self {
        Roster::default()
    }

    /// The roster file path inside `dir`.
    #[must_use]
    pub fn path(dir: &Path) -> PathBuf {
        dir.join(ROSTER_FILE)
    }

    /// The recorded entry for `source`, if any.
    #[must_use]
    pub fn entry(&self, source: &str) -> Option<&RosterEntry> {
        self.entries.get(source)
    }

    /// Iterates the recorded entries in source-id order.
    pub fn iter(&self) -> impl Iterator<Item = &RosterEntry> {
        self.entries.values()
    }

    /// Number of recorded sources.
    #[must_use]
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether the roster has no entries.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Inserts or replaces an entry; returns `true` when the roster
    /// actually changed (the caller only rewrites the file then).
    pub fn record(&mut self, entry: RosterEntry) -> bool {
        match self.entries.get(&entry.source) {
            Some(existing) if *existing == entry => false,
            _ => {
                self.entries.insert(entry.source.clone(), entry);
                true
            }
        }
    }

    /// Records `source`'s current account — checkpoint file
    /// `{source}.ckpt`, `restarts`, `periods` and `state` — like
    /// [`record`](Self::record). An unchanged account is compared in
    /// place and allocates nothing, so a supervisor can note every
    /// ingested line.
    pub(crate) fn note(&mut self, source: &str, restarts: u64, periods: u64, state: &str) -> bool {
        let current = self.entries.get(source).is_some_and(|e| {
            e.restarts == restarts
                && e.periods == periods
                && e.state == state
                && e.checkpoint.strip_suffix(".ckpt") == Some(source)
        });
        !current
            && self.record(RosterEntry {
                source: source.to_string(),
                checkpoint: format!("{source}.ckpt"),
                restarts,
                periods,
                state: state.to_string(),
            })
    }

    /// Serializes to the `bbmg-roster/1` document (one line, no trailing
    /// newline).
    #[must_use]
    pub fn to_json(&self) -> String {
        let mut out = String::with_capacity(64 + self.entries.len() * 96);
        out.push_str(&format!("{{\"schema\":\"{ROSTER_SCHEMA}\",\"entries\":["));
        for (i, entry) in self.entries.values().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str(&entry.to_json());
        }
        out.push_str("]}");
        out
    }

    /// Strictly parses a roster document.
    ///
    /// # Errors
    ///
    /// [`RosterError`] naming the offending field or JSON error.
    pub fn parse_json(text: &str) -> Result<Self, RosterError> {
        let root = json::parse(text)?;
        let Json::Object(fields) = &root else {
            return Err(RosterError::Schema("document is not an object".into()));
        };
        let mut roster = Roster::new();
        let mut seen: Vec<&str> = Vec::new();
        for (key, value) in fields {
            let known = match key.as_str() {
                "schema" => {
                    if value.as_str() != Some(ROSTER_SCHEMA) {
                        return Err(RosterError::Schema(format!(
                            "unsupported schema tag {value:?}"
                        )));
                    }
                    "schema"
                }
                "entries" => {
                    let Json::Array(items) = value else {
                        return Err(RosterError::Schema(
                            "field `entries` is not an array".into(),
                        ));
                    };
                    for item in items {
                        let entry = RosterEntry::parse(item)?;
                        if roster.entries.contains_key(&entry.source) {
                            return Err(RosterError::Schema(format!(
                                "duplicate source `{}`",
                                entry.source
                            )));
                        }
                        roster.entries.insert(entry.source.clone(), entry);
                    }
                    "entries"
                }
                other => return Err(RosterError::UnknownField(other.to_owned())),
            };
            if seen.contains(&known) {
                return Err(RosterError::Schema(format!("duplicate field `{known}`")));
            }
            seen.push(known);
        }
        for field in ["schema", "entries"] {
            if !seen.contains(&field) {
                return Err(RosterError::MissingField(field));
            }
        }
        Ok(roster)
    }

    /// Loads the roster from `dir`, returning an empty roster when no
    /// file exists yet.
    ///
    /// # Errors
    ///
    /// [`RosterError::Io`] for read failures other than absence, or any
    /// strict-parse error.
    pub fn load(dir: &Path) -> Result<Self, RosterError> {
        let path = Roster::path(dir);
        let text = match fs::read_to_string(&path) {
            Ok(text) => text,
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => return Ok(Roster::new()),
            Err(e) => return Err(RosterError::Io(format!("{}: {e}", path.display()))),
        };
        Roster::parse_json(&text)
    }

    /// Atomically rewrites the roster file in `dir` (temp + rename, like
    /// checkpoint writes).
    ///
    /// # Errors
    ///
    /// [`RosterError::Io`] for any filesystem failure.
    pub fn save(&self, dir: &Path) -> Result<(), RosterError> {
        let path = Roster::path(dir);
        let tmp = path.with_extension("json.tmp");
        let io_err = |stage: &str, e: std::io::Error| {
            RosterError::Io(format!("{stage} {}: {e}", tmp.display()))
        };
        let mut file = fs::File::create(&tmp).map_err(|e| io_err("create", e))?;
        file.write_all(self.to_json().as_bytes())
            .and_then(|()| file.write_all(b"\n"))
            .map_err(|e| io_err("write", e))?;
        file.sync_all().map_err(|e| io_err("sync", e))?;
        drop(file);
        fs::rename(&tmp, &path)
            .map_err(|e| RosterError::Io(format!("rename to {}: {e}", path.display())))
    }
}

fn require_u64(key: &str, value: &Json) -> Result<u64, RosterError> {
    value
        .as_u64()
        .ok_or_else(|| RosterError::Schema(format!("field `{key}` is not a non-negative integer")))
}

fn require_str(key: &str, value: &Json) -> Result<String, RosterError> {
    value
        .as_str()
        .map(str::to_string)
        .ok_or_else(|| RosterError::Schema(format!("field `{key}` is not a string")))
}

/// Why a roster document failed to load or save.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum RosterError {
    /// The text was not valid JSON.
    Json(JsonParseError),
    /// A field the schema does not define was present.
    UnknownField(String),
    /// A field the schema requires was absent.
    MissingField(&'static str),
    /// Structural problem (wrong types, duplicates, bad schema tag).
    Schema(String),
    /// A filesystem failure while loading or saving.
    Io(String),
}

impl fmt::Display for RosterError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RosterError::Json(e) => write!(f, "{e}"),
            RosterError::UnknownField(name) => write!(f, "unknown field `{name}`"),
            RosterError::MissingField(name) => write!(f, "missing field `{name}`"),
            RosterError::Schema(msg) => write!(f, "schema violation: {msg}"),
            RosterError::Io(msg) => write!(f, "io: {msg}"),
        }
    }
}

impl std::error::Error for RosterError {}

impl From<JsonParseError> for RosterError {
    fn from(e: JsonParseError) -> Self {
        RosterError::Json(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Roster {
        let mut roster = Roster::new();
        roster.record(RosterEntry {
            source: "bus0".into(),
            checkpoint: "bus0.ckpt".into(),
            restarts: 1,
            periods: 40,
            state: "exact".into(),
        });
        roster.record(RosterEntry {
            source: "bus1".into(),
            checkpoint: "bus1.ckpt".into(),
            restarts: 0,
            periods: 7,
            state: "degraded".into(),
        });
        roster
    }

    #[test]
    fn round_trips_strictly() {
        let roster = sample();
        assert_eq!(Roster::parse_json(&roster.to_json()).unwrap(), roster);
    }

    #[test]
    fn record_reports_change() {
        let mut roster = sample();
        let same = roster.entry("bus0").unwrap().clone();
        assert!(!roster.record(same), "identical entry is not a change");
        let mut bumped = roster.entry("bus0").unwrap().clone();
        bumped.restarts += 1;
        assert!(roster.record(bumped));
    }

    #[test]
    fn note_reports_change_like_record() {
        let mut roster = sample();
        let before = roster.to_json();
        assert!(!roster.note("bus0", 1, 40, "exact"), "same account");
        assert_eq!(roster.to_json(), before);
        assert!(roster.note("bus0", 1, 41, "exact"));
        assert!(roster.note("bus2", 0, 0, "shedding"), "new source");
        let mut expected = sample();
        for entry in [("bus0", 1, 41, "exact"), ("bus2", 0, 0, "shedding")] {
            expected.record(RosterEntry {
                source: entry.0.into(),
                checkpoint: format!("{}.ckpt", entry.0),
                restarts: entry.1,
                periods: entry.2,
                state: entry.3.into(),
            });
        }
        assert_eq!(roster, expected);
        assert!(!roster.note("bus2", 0, 0, "shedding"));
    }

    #[test]
    fn malformed_documents_are_rejected() {
        let good = sample().to_json();
        let unknown = good.replacen("\"periods\"", "\"perlods\"", 1);
        assert!(matches!(
            Roster::parse_json(&unknown),
            Err(RosterError::UnknownField(_))
        ));
        let missing = good.replacen("\"restarts\":1,", "", 1);
        assert!(matches!(
            Roster::parse_json(&missing),
            Err(RosterError::MissingField("restarts"))
        ));
        let bad_tag = good.replacen(ROSTER_SCHEMA, "bbmg-roster/9", 1);
        assert!(matches!(
            Roster::parse_json(&bad_tag),
            Err(RosterError::Schema(_))
        ));
    }

    #[test]
    fn save_and_load_round_trip_atomically() {
        let dir = std::env::temp_dir().join("bbmg-roster-test");
        std::fs::create_dir_all(&dir).unwrap();
        let _ = std::fs::remove_file(Roster::path(&dir));
        assert!(Roster::load(&dir).unwrap().is_empty(), "absent file is ok");
        let roster = sample();
        roster.save(&dir).unwrap();
        assert_eq!(Roster::load(&dir).unwrap(), roster);
        let _ = std::fs::remove_file(Roster::path(&dir));
    }
}
