//! The `BENCH_repro.json` side file as a typed, versioned schema.
//!
//! Each entry is keyed `{experiment}@{scale}@threads={N}` (or a tool
//! key like `lucent-lint@workspace@threads=4`) and carries the
//! `lucent-bench/1` value schema:
//!
//! ```json
//! { "allocs_per_event": 2.41, "events": 123456, "events_per_sec": 77722.5,
//!   "wall_secs": 1.59 }
//! ```
//!
//! `wall_secs` is mandatory; `events`, `events_per_sec` and
//! `allocs_per_event` are optional so tool entries that have no
//! simulator-event notion (the lint pass) stay representable. **Unknown
//! keys are rejected**, both on load and on upsert: the perf ratchet
//! diffs these files across commits, and a silently-carried stray key
//! would make two semantically equal files compare unequal forever.
//! Schema growth therefore has to happen here, by extending
//! [`KNOWN_KEYS`], never ad hoc at a call site.
//!
//! Everything is rendered with sorted keys and two-space indentation so
//! the committed file diffs minimally under upserts.

use std::path::Path;

use lucent_support::{Json, ToJson};

/// The value-schema version this module reads and writes.
pub const SCHEMA: &str = "lucent-bench/1";

/// Every key an entry value may carry, sorted. Extend this list (and
/// [`Entry`]) to grow the schema; anything else is a load/upsert error.
pub const KNOWN_KEYS: [&str; 4] = ["allocs_per_event", "events", "events_per_sec", "wall_secs"];

/// One benchmark measurement.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Entry {
    /// Wall-clock seconds for the whole run. Mandatory.
    pub wall_secs: f64,
    /// Simulator events processed (hub + shards). Absent for tool
    /// entries with no event notion.
    pub events: Option<u64>,
    /// Throughput, `events / wall_secs`. Absent when `events` is.
    pub events_per_sec: Option<f64>,
    /// Heap allocations (`alloc`, `alloc_zeroed` and `realloc` calls)
    /// over the whole process, divided by `events`. Absent for runs
    /// without a counting allocator.
    pub allocs_per_event: Option<f64>,
}

impl Entry {
    /// The entry's JSON value with sorted keys, omitting absent fields.
    pub fn to_json(&self) -> Json {
        let mut members = Vec::default();
        if let Some(ape) = self.allocs_per_event {
            members.push(("allocs_per_event".to_string(), ape.to_json()));
        }
        if let Some(ev) = self.events {
            members.push(("events".to_string(), ev.to_json()));
        }
        if let Some(eps) = self.events_per_sec {
            members.push(("events_per_sec".to_string(), eps.to_json()));
        }
        members.push(("wall_secs".to_string(), self.wall_secs.to_json()));
        Json::Obj(members)
    }

    /// Parse one entry value, rejecting unknown keys and non-finite or
    /// negative measurements. The finiteness check is load-bearing: a
    /// NaN would make every ratchet band comparison vacuously false,
    /// and an `inf` events_per_sec (e.g. from a `1e999` literal) would
    /// ratchet the up-only baseline to a floor no run can ever meet.
    pub fn from_json(key: &str, value: &Json) -> Result<Entry, String> {
        let Json::Obj(members) = value else {
            return Err(format!("entry {key:?}: expected an object"));
        };
        let mut wall: Option<f64> = None;
        let mut events = None;
        let mut events_per_sec = None;
        let mut allocs_per_event = None;
        for (k, v) in members {
            match k.as_str() {
                "wall_secs" => {
                    wall = Some(checked_measure(key, "wall_secs", v)?);
                }
                "events" => {
                    events = Some(
                        as_u64(v)
                            .ok_or_else(|| format!("entry {key:?}: events must be a non-negative integer"))?,
                    );
                }
                "events_per_sec" => {
                    events_per_sec = Some(checked_measure(key, "events_per_sec", v)?);
                }
                "allocs_per_event" => {
                    allocs_per_event = Some(checked_measure(key, "allocs_per_event", v)?);
                }
                other => {
                    return Err(format!(
                        "entry {key:?}: unknown key {other:?} (schema {SCHEMA} allows {KNOWN_KEYS:?})"
                    ));
                }
            }
        }
        let Some(wall_secs) = wall else {
            return Err(format!("entry {key:?}: missing wall_secs"));
        };
        Ok(Entry { wall_secs, events, events_per_sec, allocs_per_event })
    }
}

/// A measurement must be a finite, non-negative number — anything else
/// poisons the shrink/grow-only ratchet comparisons downstream.
fn checked_measure(key: &str, field: &str, v: &Json) -> Result<f64, String> {
    let n = v.as_f64().ok_or_else(|| format!("entry {key:?}: {field} must be a number"))?;
    if !n.is_finite() || n < 0.0 {
        return Err(format!(
            "entry {key:?}: {field} must be finite and non-negative, got {n}"
        ));
    }
    Ok(n)
}

fn as_u64(v: &Json) -> Option<u64> {
    match *v {
        Json::Int(n) if n >= 0 => Some(n as u64),
        Json::UInt(n) => Some(n),
        _ => None,
    }
}

/// Parse a whole bench file. Entries come back in file order; use
/// [`render`] to write them back sorted.
pub fn parse(text: &str) -> Result<Vec<(String, Entry)>, String> {
    let doc = Json::parse(text).map_err(|e| e.to_string())?;
    let Json::Obj(members) = doc else {
        return Err("bench file: expected a top-level object".to_string());
    };
    let mut entries = Vec::with_capacity(members.len());
    for (key, value) in &members {
        entries.push((key.clone(), Entry::from_json(key, value)?));
    }
    Ok(entries)
}

/// Load a bench file; a missing file is an empty set, a malformed one
/// is an error (never silently discarded — these files are ratchet
/// baselines).
pub fn load(path: &Path) -> Result<Vec<(String, Entry)>, String> {
    match std::fs::read_to_string(path) {
        Ok(text) => parse(&text),
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => Ok(Vec::new()),
        Err(e) => Err(format!("cannot read {}: {e}", path.display())),
    }
}

/// Render entries sorted by key, pretty-printed.
pub fn render(entries: &[(String, Entry)]) -> String {
    let mut sorted: Vec<&(String, Entry)> = entries.iter().collect();
    sorted.sort_by(|a, b| a.0.cmp(&b.0));
    Json::Obj(sorted.iter().map(|(k, e)| (k.clone(), e.to_json())).collect()).to_string_pretty()
}

/// Insert or replace the measurement under `key`.
pub fn upsert(entries: &mut Vec<(String, Entry)>, key: &str, entry: Entry) {
    match entries.iter_mut().find(|(k, _)| k == key) {
        Some(slot) => slot.1 = entry,
        None => entries.push((key.to_string(), entry)),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn full() -> Entry {
        Entry {
            wall_secs: 1.5,
            events: Some(3000),
            events_per_sec: Some(2000.0),
            allocs_per_event: Some(2.4072),
        }
    }

    #[test]
    fn roundtrips_and_sorts_keys() {
        let mut entries = vec![("b@tiny@threads=1".to_string(), full())];
        upsert(&mut entries, "a@tiny@threads=1", Entry { wall_secs: 0.5, ..Entry::default() });
        let text = render(&entries);
        assert!(text.find("a@tiny").unwrap() < text.find("b@tiny").unwrap(), "{text}");
        let back = parse(&text).unwrap();
        assert_eq!(back.len(), 2);
        assert_eq!(back[1].1, full());
        assert_eq!(render(&back), text, "render∘parse must be a fixpoint");
    }

    #[test]
    fn upsert_replaces_in_place() {
        let mut entries = vec![("k".to_string(), full())];
        upsert(&mut entries, "k", Entry { wall_secs: 9.0, ..Entry::default() });
        assert_eq!(entries.len(), 1);
        assert_eq!(entries[0].1.wall_secs, 9.0);
        assert_eq!(entries[0].1.events, None);
    }

    #[test]
    fn unknown_keys_are_rejected() {
        let err = parse(r#"{"k": {"wall_secs": 1.0, "cpu_secs": 2.0}}"#).unwrap_err();
        assert!(err.contains("unknown key"), "{err}");
        assert!(err.contains("cpu_secs"), "{err}");
    }

    #[test]
    fn wall_secs_is_mandatory() {
        let err = parse(r#"{"k": {"events": 5}}"#).unwrap_err();
        assert!(err.contains("missing wall_secs"), "{err}");
    }

    #[test]
    fn non_finite_measurements_are_rejected() {
        // `1e999` overflows f64 parsing to +inf — the realistic way a
        // non-finite value enters a JSON benchfile.
        let err = parse(r#"{"k": {"wall_secs": 1e999}}"#).unwrap_err();
        assert!(err.contains("finite"), "{err}");
        let err = parse(r#"{"k": {"wall_secs": 1.0, "events_per_sec": 1e999}}"#).unwrap_err();
        assert!(err.contains("events_per_sec"), "{err}");
        assert!(err.contains("finite"), "{err}");
        let err = parse(r#"{"k": {"wall_secs": 1.0, "allocs_per_event": 1e999}}"#).unwrap_err();
        assert!(err.contains("allocs_per_event"), "{err}");
        assert!(err.contains("finite"), "{err}");
    }

    #[test]
    fn negative_measurements_are_rejected() {
        let err = parse(r#"{"k": {"wall_secs": -1.0}}"#).unwrap_err();
        assert!(err.contains("non-negative"), "{err}");
        let err = parse(r#"{"k": {"wall_secs": 1.0, "events_per_sec": -2.0}}"#).unwrap_err();
        assert!(err.contains("events_per_sec"), "{err}");
        let err = parse(r#"{"k": {"wall_secs": 1.0, "allocs_per_event": -0.5}}"#).unwrap_err();
        assert!(err.contains("allocs_per_event"), "{err}");
    }

    #[test]
    fn legacy_wall_only_entries_parse() {
        let entries = parse(r#"{"lucent-lint@workspace@threads=4": {"wall_secs": 0.131}}"#).unwrap();
        assert_eq!(entries[0].1.events, None);
        assert_eq!(entries[0].1.events_per_sec, None);
        assert_eq!(entries[0].1.allocs_per_event, None);
    }
}
