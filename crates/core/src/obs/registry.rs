//! The unified metrics registry: one flat, insertion-ordered
//! `name → value` snapshot that every stats surface reads through.
//!
//! Before this module, `FocusService::stats()`, `StreamSession::stats()`
//! and the bench serializer each hand-rolled their own counter
//! plumbing; a new counter meant touching every consumer. Now each
//! producer publishes into a [`Snapshot`] under a dotted-name
//! convention and consumers (typed stats structs, the bench JSON, the
//! `trace_run` report, the planned per-shard rollups of ROADMAP
//! direction 4) read the one tree:
//!
//! * `service.*` — scheduler-wide counters (`service.jobs_done`,
//!   `service.queued.high`, `service.deficit.low`, …);
//! * `session.*` — per-stream-session counters and gauges
//!   (`session.frames_pushed`, `session.temporal.hits`,
//!   `session.scratch_bytes`, …);
//! * `obs.*` — the observability layer about itself
//!   (`obs.spans.recorded`, `obs.node.gather.p99_us`,
//!   `obs.kernel.score.count`, `obs.kernel.score.launches`, …).
//!
//! Values are deliberately only counters, gauges and small strings —
//! a snapshot is a point-in-time *reading*, not a live handle.

use std::fmt;

use super::hist::HistSummary;

/// One metric value.
#[derive(Clone, Debug, PartialEq)]
pub enum Value {
    /// A counter or gauge.
    U64(u64),
    /// A ratio or derived statistic.
    F64(f64),
    /// A small identity string (backend name, exec mode).
    Str(String),
}

impl fmt::Display for Value {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Value::U64(v) => write!(f, "{v}"),
            // Fixed precision so snapshot output is stable and the
            // dep-free schema test can parse it back.
            Value::F64(v) => write!(f, "{v:.6}"),
            Value::Str(s) => write!(f, "{s}"),
        }
    }
}

/// A flat, insertion-ordered metrics snapshot.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct Snapshot {
    entries: Vec<(String, Value)>,
}

impl Snapshot {
    /// An empty snapshot.
    pub fn new() -> Self {
        Snapshot::default()
    }

    /// Sets `name` to `value`, replacing an existing entry in place
    /// (insertion order is the publication order of first writes).
    pub fn set(&mut self, name: impl Into<String>, value: Value) {
        let name = name.into();
        match self.entries.iter_mut().find(|(n, _)| *n == name) {
            Some((_, v)) => *v = value,
            None => self.entries.push((name, value)),
        }
    }

    /// Sets a counter/gauge.
    pub fn set_u64(&mut self, name: impl Into<String>, value: u64) {
        self.set(name, Value::U64(value));
    }

    /// Sets a derived ratio.
    pub fn set_f64(&mut self, name: impl Into<String>, value: f64) {
        self.set(name, Value::F64(value));
    }

    /// Sets an identity string.
    pub fn set_str(&mut self, name: impl Into<String>, value: impl Into<String>) {
        self.set(name, Value::Str(value.into()));
    }

    /// Publishes one histogram summary under `prefix` as
    /// `{prefix}.count`, `.sum_us`, `.p50_us`, `.p99_us`, `.max_us`
    /// (skipped entirely when the histogram is empty, so quiet families
    /// don't pad the snapshot with zeros). `sum_us` is the total of the
    /// recorded samples, so shares of time follow from the registry.
    pub fn set_hist(&mut self, prefix: &str, summary: HistSummary) {
        if summary.count == 0 {
            return;
        }
        self.set_u64(format!("{prefix}.count"), summary.count);
        self.set_u64(format!("{prefix}.sum_us"), summary.sum);
        self.set_u64(format!("{prefix}.p50_us"), summary.p50);
        self.set_u64(format!("{prefix}.p99_us"), summary.p99);
        self.set_u64(format!("{prefix}.max_us"), summary.max);
    }

    /// The value of `name`, if present.
    pub fn get(&self, name: &str) -> Option<&Value> {
        self.entries
            .iter()
            .find_map(|(n, v)| (n == name).then_some(v))
    }

    /// The counter `name`, defaulting to 0 when absent or non-numeric
    /// (the typed stats structs read through this).
    pub fn u64(&self, name: &str) -> u64 {
        match self.get(name) {
            Some(Value::U64(v)) => *v,
            _ => 0,
        }
    }

    /// The ratio `name`, defaulting to 0.0 when absent (accepts `U64`
    /// entries too — a counter is a valid ratio numerator).
    pub fn f64(&self, name: &str) -> f64 {
        match self.get(name) {
            Some(Value::F64(v)) => *v,
            Some(Value::U64(v)) => *v as f64,
            _ => 0.0,
        }
    }

    /// Entries in insertion order.
    pub fn iter(&self) -> impl Iterator<Item = (&str, &Value)> {
        self.entries.iter().map(|(n, v)| (n.as_str(), v))
    }

    /// Entry count.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether the snapshot is empty.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// The snapshot as one JSON object, insertion-ordered, with `U64`
    /// as integers, `F64` at fixed `{:.6}` precision and `Str` quoted.
    /// Names are dotted identifiers and values are numbers or
    /// identifier-like strings, so no escaping is needed.
    pub fn to_json(&self) -> String {
        use std::fmt::Write as _;
        let mut out = String::with_capacity(16 + self.entries.len() * 32);
        out.push_str("{\n");
        for (i, (name, value)) in self.entries.iter().enumerate() {
            let sep = if i + 1 == self.entries.len() { "" } else { "," };
            match value {
                Value::Str(s) => {
                    let _ = writeln!(out, "  \"{name}\": \"{s}\"{sep}");
                }
                other => {
                    let _ = writeln!(out, "  \"{name}\": {other}{sep}");
                }
            }
        }
        out.push('}');
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn set_preserves_insertion_order_and_replaces_in_place() {
        let mut s = Snapshot::new();
        s.set_u64("b.second", 2);
        s.set_u64("a.first", 1);
        s.set_f64("c.third", 0.5);
        s.set_u64("b.second", 20);
        let names: Vec<&str> = s.iter().map(|(n, _)| n).collect();
        assert_eq!(names, vec!["b.second", "a.first", "c.third"]);
        assert_eq!(s.u64("b.second"), 20);
        assert_eq!(s.u64("a.first"), 1);
        assert_eq!(s.f64("c.third"), 0.5);
        assert_eq!(s.u64("missing"), 0);
    }

    #[test]
    fn to_json_is_stable_and_fixed_precision() {
        let mut s = Snapshot::new();
        s.set_u64("service.jobs_done", 12);
        s.set_f64("service.hit_rate", 0.25);
        s.set_str("service.backend", "simd");
        assert_eq!(
            s.to_json(),
            "{\n  \"service.jobs_done\": 12,\n  \"service.hit_rate\": 0.250000,\n  \"service.backend\": \"simd\"\n}"
        );
    }

    #[test]
    fn set_hist_skips_empty_and_publishes_the_quad() {
        let mut s = Snapshot::new();
        s.set_hist("obs.node.gather", HistSummary::default());
        assert!(s.is_empty());
        s.set_hist(
            "obs.node.gather",
            HistSummary {
                count: 3,
                sum: 90,
                p50: 32,
                p99: 64,
                max: 40,
            },
        );
        assert_eq!(s.u64("obs.node.gather.count"), 3);
        assert_eq!(s.u64("obs.node.gather.sum_us"), 90);
        assert_eq!(s.u64("obs.node.gather.p50_us"), 32);
        assert_eq!(s.u64("obs.node.gather.p99_us"), 64);
        assert_eq!(s.u64("obs.node.gather.max_us"), 40);
    }
}
