//! Chrome-trace (`trace_event`) export of recorded spans.
//!
//! [`render`] turns a span list into the JSON Object Format that
//! Perfetto and `chrome://tracing` load directly: each node execution
//! is a complete (`"ph":"X"`) event on its worker's track (workers as
//! `tid`s, one shared `pid`), and each job contributes an async
//! begin/end pair (`"ph":"b"`/`"e"`, `id` = job id) so a job's nodes —
//! which hop across workers — are connected by one async arrow spanning
//! its first node start to its last node end. Per-layer overlap (layer
//! *l* gather running while layer *l+1* synthesises) is then visible as
//! concurrent worker tracks.
//!
//! The JSON is hand-assembled: every field is a number or a string the
//! module itself formats from enum names and indices, so no serializer
//! dependency and no escaping concerns.
//!
//! Export hooks: [`export_to`] writes the current recorder contents to
//! a path, and [`export_if_configured`] does so only when
//! [`super::spans::TRACE_OUT_ENV`] (`FOCUS_TRACE_OUT`) names one. Only
//! a binary that calls a hook writes a trace (today `trace_run`);
//! nothing exports implicitly, and a service's teardown writes no
//! file.

use std::fmt::Write as _;
use std::path::{Path, PathBuf};

use super::spans::{self, Span};

/// The shared `pid` of every event ([`render`] emits one process).
const PID: u32 = 1;

fn event_name(span: &Span) -> String {
    let mut name = span.kind.name().to_string();
    if let Some(layer) = span.layer {
        let _ = write!(name, " L{layer}");
    }
    if let Some(stage) = span.stage {
        let _ = write!(name, " S{stage}");
    }
    name
}

fn push_complete(out: &mut String, span: &Span) {
    let _ = write!(
        out,
        concat!(
            "{{\"name\":\"{}\",\"cat\":\"node\",\"ph\":\"X\",",
            "\"ts\":{},\"dur\":{},\"pid\":{},\"tid\":{},",
            "\"args\":{{\"job\":{},\"kind\":\"{}\",\"priority\":{},\"tag\":{}"
        ),
        event_name(span),
        span.t_start_us,
        span.duration_us(),
        PID,
        span.worker,
        span.job,
        span.kind.name(),
        span.priority,
        span.tag,
    );
    if let Some(layer) = span.layer {
        let _ = write!(out, ",\"layer\":{layer}");
    }
    if let Some(stage) = span.stage {
        let _ = write!(out, ",\"stage\":{stage}");
    }
    out.push_str("}}");
}

fn push_async(out: &mut String, ph: char, job: u64, ts: u64, tid: usize) {
    let _ = write!(
        out,
        concat!(
            "{{\"name\":\"job {}\",\"cat\":\"job\",\"ph\":\"{}\",",
            "\"id\":{},\"ts\":{},\"pid\":{},\"tid\":{}}}"
        ),
        job, ph, job, ts, PID, tid,
    );
}

fn push_thread_name(out: &mut String, tid: usize) {
    let _ = write!(
        out,
        concat!(
            "{{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":{},\"tid\":{},",
            "\"args\":{{\"name\":\"worker {}\"}}}}"
        ),
        PID, tid, tid,
    );
}

/// Renders `spans` as a Chrome-trace JSON document (the Object Format:
/// `{"traceEvents": [...], "displayTimeUnit": "ms"}`). Spans may be in
/// any order; jobs' async arrows are derived from each job's earliest
/// start and latest end.
pub fn render(spans: &[Span]) -> String {
    let mut out = String::with_capacity(64 + spans.len() * 192);
    out.push_str("{\"traceEvents\":[");
    let mut first = true;
    let mut push_sep = |out: &mut String| {
        if !std::mem::take(&mut first) {
            out.push(',');
        }
    };

    let mut workers: Vec<usize> = spans.iter().map(|s| s.worker).collect();
    workers.sort_unstable();
    workers.dedup();
    for worker in workers {
        push_sep(&mut out);
        push_thread_name(&mut out, worker);
    }

    for span in spans {
        push_sep(&mut out);
        push_complete(&mut out, span);
    }

    // One async begin/end pair per job: first node start → last node
    // end, anchored to the worker of the respective endpoint span.
    type Endpoint = (u64, usize); // (timestamp µs, worker)
    let mut jobs: Vec<(u64, Endpoint, Endpoint)> = Vec::new();
    for span in spans {
        match jobs.iter_mut().find(|(job, ..)| *job == span.job) {
            Some((_, start, end)) => {
                if span.t_start_us < start.0 {
                    *start = (span.t_start_us, span.worker);
                }
                if span.t_end_us > end.0 {
                    *end = (span.t_end_us, span.worker);
                }
            }
            None => jobs.push((
                span.job,
                (span.t_start_us, span.worker),
                (span.t_end_us, span.worker),
            )),
        }
    }
    jobs.sort_unstable_by_key(|(job, ..)| *job);
    for (job, (t0, w0), (t1, w1)) in jobs {
        push_sep(&mut out);
        push_async(&mut out, 'b', job, t0, w0);
        push_sep(&mut out);
        push_async(&mut out, 'e', job, t1, w1);
    }

    out.push_str("],\"displayTimeUnit\":\"ms\"}");
    out
}

/// Drains the process recorder and writes the rendered trace to
/// `path`. A run with tracing never activated writes a valid trace
/// with zero spans.
pub fn export_to(path: &Path) -> std::io::Result<()> {
    let spans = spans::recorder()
        .map(|r| r.drain_ordered())
        .unwrap_or_default();
    std::fs::write(path, render(&spans))
}

/// Exports to the path named by `FOCUS_TRACE_OUT`, if set. Returns the
/// path written, or `None` when the variable is unset.
///
/// # Panics
///
/// Panics when the variable is set but the write fails — an export the
/// user asked for must never vanish silently.
pub fn export_if_configured() -> Option<PathBuf> {
    let path = PathBuf::from(std::env::var_os(spans::TRACE_OUT_ENV)?);
    if let Err(e) = export_to(&path) {
        panic!(
            "{}={} export failed: {e}",
            spans::TRACE_OUT_ENV,
            path.display()
        );
    }
    Some(path)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::obs::spans::SpanKind;

    fn span(job: u64, worker: usize, kind: SpanKind, layer: Option<usize>, t0: u64) -> Span {
        Span {
            job,
            kind,
            layer,
            stage: layer.map(|_| 0),
            worker,
            priority: 1,
            tag: 10,
            t_start_us: t0,
            t_end_us: t0 + 50,
        }
    }

    #[test]
    fn render_emits_complete_events_and_job_arrows() {
        let spans = [
            span(3, 0, SpanKind::Sec, Some(0), 100),
            span(3, 1, SpanKind::Finish, None, 400),
            span(4, 0, SpanKind::Gather, Some(1), 250),
        ];
        let json = render(&spans);
        assert!(json.starts_with("{\"traceEvents\":["));
        assert!(json.ends_with("],\"displayTimeUnit\":\"ms\"}"));
        assert!(json.contains("\"name\":\"sec L0 S0\""));
        assert!(json.contains("\"name\":\"gather L1 S0\""));
        assert!(json.contains("\"name\":\"finish\""));
        // Job 3 arrow: begins at its first node, ends at its last.
        assert!(
            json.contains("\"name\":\"job 3\",\"cat\":\"job\",\"ph\":\"b\",\"id\":3,\"ts\":100")
        );
        assert!(
            json.contains("\"name\":\"job 3\",\"cat\":\"job\",\"ph\":\"e\",\"id\":3,\"ts\":450")
        );
        // Worker metadata for both tids.
        assert!(json.contains("\"args\":{\"name\":\"worker 0\"}"));
        assert!(json.contains("\"args\":{\"name\":\"worker 1\"}"));
        // Balanced braces — cheap well-formedness check without a
        // JSON parser in the dep-free test suite.
        let opens = json.matches('{').count();
        let closes = json.matches('}').count();
        assert_eq!(opens, closes);
    }

    #[test]
    fn render_of_nothing_is_an_empty_valid_trace() {
        assert_eq!(
            render(&[]),
            "{\"traceEvents\":[],\"displayTimeUnit\":\"ms\"}"
        );
    }
}
