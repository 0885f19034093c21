//! `perfbench`: the repository benchmark.
//!
//! ```text
//! cargo run --release --offline --quiet --manifest-path perfbench/Cargo.toml -- \
//!     --workload <stream_eval_w2|stream_corr09_temporal|serve_grid_open> \
//!     --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! With `--trace 0` the run prints the end-to-end metrics; with
//! `--trace 1` it prints the per-layer ledger instead. Both print a
//! readable table first and, as the last line of standard output, one
//! JSON object `{"correct", "attempted", "failed", "metrics"}`. See
//! `perfbench/README.md` for the workloads, the metrics and how the
//! layer numbers map to the end-to-end ones.

mod gate;
mod layers;
mod loadgen;
mod stats;
mod workloads;

use std::process::ExitCode;

use focus_core::obs::{spans, Span, SpanKind, TraceConfig};

use crate::layers::{replay, ReplayItem};
use crate::loadgen::Stamp;
use crate::stats::{percentile, process_rss_peak_mb, ratio, Busy};
use crate::workloads::{Kind, Phase, Run, RING_CAPACITY, SERVE_RATE_PER_S};

/// The largest lateness an open-loop generator may run behind its
/// schedule before the run is refused: one arrival gap. A generator
/// that late no longer offers the load the workload names.
const MAX_GEN_LAG_US: u64 = (1e6 / SERVE_RATE_PER_S) as u64;

/// Environment overrides the program honours elsewhere. The benchmark
/// pins schedule, backend and tracing itself, and clears these so that
/// no lazily read default can change what it measures (or write a trace
/// file outside the run).
const PINNED_ENV: [&str; 4] = [
    "FOCUS_EXEC_MODE",
    "FOCUS_BACKEND",
    "FOCUS_TRACE",
    "FOCUS_TRACE_OUT",
];

struct Args {
    kind: Kind,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn usage() -> String {
    let names: Vec<&str> = Kind::ALL.iter().map(|k| k.name()).collect();
    format!(
        "usage: perfbench --workload <{}> --seed <n> --seconds <s> --trace <0|1>",
        names.join("|")
    )
}

fn parse_args(mut args: impl Iterator<Item = String>) -> Result<Args, String> {
    let (mut kind, mut seed, mut seconds, mut trace) = (None, None, None, None);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or(format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                kind = Some(Kind::parse(&value).ok_or(format!("unknown workload {value:?}"))?)
            }
            "--seed" => seed = Some(value.parse::<u64>().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                let s = value
                    .parse::<f64>()
                    .map_err(|e| format!("--seconds: {e}"))?;
                if !(1.0..=3600.0).contains(&s) {
                    return Err(format!("--seconds must be in 1..=3600, got {s}"));
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace must be 0 or 1, got {value:?}")),
                })
            }
            _ => return Err(format!("unknown argument {flag:?}")),
        }
    }
    Ok(Args {
        kind: kind.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
    })
}

/// One reported metric.
struct Metric {
    name: String,
    value: f64,
    unit: &'static str,
}

#[derive(Default)]
struct Metrics(Vec<Metric>);

impl Metrics {
    fn push(&mut self, name: impl Into<String>, value: f64, unit: &'static str) {
        self.0.push(Metric {
            name: name.into(),
            value,
            unit,
        });
    }
}

/// Per-item latencies of a phase, in ms, by the workload's rule: the
/// streams from `push_frame`'s return, the open loop from the due time.
fn latencies_ms(kind: Kind, stamps: &[Stamp]) -> Vec<f64> {
    stamps
        .iter()
        .map(|s| {
            let us = if kind.is_stream() {
                s.latency_from_admit_us()
            } else {
                s.latency_from_due_us()
            };
            us as f64 / 1e3
        })
        .collect()
}

/// Consecutive completions per throughput window (a few seconds of
/// work on every workload).
const RATE_WINDOW: usize = 20;

fn throughput(phase: &Phase) -> f64 {
    let done: Vec<u64> = phase.drive.stamps.iter().map(|s| s.done_us).collect();
    stats::completion_rate(&done, RATE_WINDOW)
}

fn need(value: Option<f64>, what: &str) -> Result<f64, String> {
    value.ok_or(format!("too few items for {what}"))
}

fn end_to_end(run: &Run, errors: usize, rss_mb: f64) -> Result<Metrics, String> {
    let phase = &run.phases[0];
    let n = phase.drive.len();
    let lat = latencies_ms(run.kind, &phase.drive.stamps);
    let mut m = Metrics::default();
    m.push("throughput_per_s", throughput(phase), "1/s");
    m.push("latency_p50_ms", need(percentile(&lat, 50), "p50")?, "ms");
    m.push("latency_p90_ms", need(percentile(&lat, 90), "p90")?, "ms");
    m.push("cpu_ms_per_item", phase.cpu_ms / n as f64, "ms");
    m.push("rss_peak_mb", rss_mb, "MiB");
    m.push("setup_s", stats::median(&run.setup_s), "s");
    m.push("success_rate", 1.0 - errors as f64 / n as f64, "ratio");
    Ok(m)
}

fn per_layer(run: &Run) -> Result<Metrics, String> {
    let [untraced, traced] = &run.phases[..] else {
        unreachable!("a traced run has two phases");
    };
    let spans: &[Span] = traced.spans.as_deref().expect("the second phase is traced");
    let items = traced.drive.len();
    let per_item = |x: f64| x / items as f64;
    let recorder = spans::recorder().expect("tracing active");
    if recorder.dropped() > 0 || spans.len() as u64 != recorder.offered() {
        return Err(format!(
            "span rings lost records ({} offered, {} read, {} dropped); raise RING_CAPACITY",
            recorder.offered(),
            spans.len(),
            recorder.dropped()
        ));
    }
    let ids = workloads::job_ids(run, traced, spans)
        .ok_or("traced spans do not match the traced items one job each")?;
    let extents = stats::job_extents(spans);
    let mut queue_wait = Vec::with_capacity(items);
    let mut exec_span = Vec::with_capacity(items);
    for (stamp, id) in traced.drive.stamps.iter().zip(&ids) {
        let &(first, last) = extents.get(id).ok_or("an item recorded no spans")?;
        queue_wait.push(first.saturating_sub(stamp.ret_us) as f64 / 1e3);
        exec_span.push((last - first) as f64 / 1e3);
    }
    let admit_wait: Vec<f64> = traced
        .drive
        .stamps
        .iter()
        .map(|s| s.admit_wait_us() as f64 / 1e3)
        .collect();
    let busy = Busy::of(spans);

    let mut m = Metrics::default();
    let workers = workloads::workers();
    let (t0, t1) = (traced.drive.start_us, traced.drive.end_us);
    m.push(
        "exec.utilization",
        stats::utilization(spans, workers, t0, t1),
        "ratio",
    );
    m.push(
        "exec.queue_wait_ms_p50",
        need(percentile(&queue_wait, 50), "queue wait")?,
        "ms",
    );
    m.push(
        "exec.exec_span_ms_p50",
        need(percentile(&exec_span, 50), "exec span")?,
        "ms",
    );
    m.push(
        "exec.stream.admit_wait_ms_p50",
        need(percentile(&admit_wait, 50), "admit wait")?,
        "ms",
    );
    m.push(
        "exec.stream.warm_reuse_ratio",
        ratio(
            traced.session.warm_reuses as f64,
            traced.session.frames_pushed as f64,
        ),
        "ratio",
    );
    m.push("exec.nodes_per_item", per_item(busy.spans as f64), "count");
    for kind in SpanKind::ALL {
        let busy_ms = busy.by_kind_us[kind.index()] as f64 / 1e3;
        m.push(
            format!("node.{}.busy_ms_per_item", kind.name()),
            per_item(busy_ms),
            "ms",
        );
    }
    for kind in SpanKind::ALL {
        m.push(
            format!("node.{}.share", kind.name()),
            busy.share(kind),
            "ratio",
        );
    }
    m.push("layer0.share", busy.layer0_share(), "ratio");

    // Staged self time, replaying the first items of the untraced phase.
    // A stream replays its warm-up frames first, untimed: they rebuild
    // the carry state a temporal stream's measured frames saw.
    let mut replay_items: Vec<ReplayItem<'_>> = run
        .warmup
        .iter()
        .map(|(workload, served)| ReplayItem {
            workload,
            served,
            timed: false,
        })
        .collect();
    for (i, out) in untraced.drive.outcomes[..run.staged_items()]
        .iter()
        .enumerate()
    {
        let Ok(workloads::ItemOut {
            kept: Some((served, _)),
            ..
        }) = out
        else {
            return Err("a replayed item kept no result".into());
        };
        replay_items.push(ReplayItem {
            workload: &run.inputs[untraced.first_input + i],
            served,
            timed: true,
        });
    }
    let engine = focus_sim::Engine::new(focus_sim::ArchConfig::focus());
    let with_engine = (run.kind == Kind::ServeGridOpen).then_some(&engine);
    let staged = replay(&replay_items, run.kind.temporal(), with_engine);
    if staged.drifted > 0 {
        eprintln!(
            "perfbench: warning: {} replayed item(s) diverged from the served result; \
             staged times may not mirror the pipeline",
            staged.drifted
        );
    }
    m.push(
        "vlm.synth_ms_per_item",
        staged.per_item(staged.synth_ms),
        "ms",
    );
    m.push(
        "tensor.convert_ms_per_item",
        staged.per_item(staged.convert_ms),
        "ms",
    );
    m.push(
        "sic.gather_ms_per_item",
        staged.per_item(staged.gather_ms),
        "ms",
    );
    m.push(
        "sec.prune_ms_per_item",
        staged.per_item(staged.prune_ms),
        "ms",
    );
    m.push(
        "sim.engine_ms_per_item",
        staged.per_item(staged.engine_ms),
        "ms",
    );

    // Counts from the served results of the traced phase.
    let outs: Vec<&workloads::ItemOut> = traced.drive.outcomes.iter().flatten().collect();
    let sum = |f: fn(&workloads::ItemOut) -> u64| outs.iter().map(|o| f(o)).sum::<u64>() as f64;
    m.push(
        "sec.kept_frac",
        ratio(sum(|o| o.sec_kept), sum(|o| o.sec_candidates)),
        "ratio",
    );
    m.push(
        "sic.comparisons_per_item",
        per_item(sum(|o| o.comparisons)),
        "count",
    );
    m.push(
        "sic.match_ratio",
        ratio(sum(|o| o.matches), sum(|o| o.comparisons)),
        "ratio",
    );
    let sparsity: f64 = outs.iter().map(|o| o.sparsity).sum();
    m.push(
        "pipeline.sparsity",
        ratio(sparsity, outs.len() as f64),
        "ratio",
    );
    let s = &traced.session;
    m.push(
        "sic.temporal.hit_rate",
        ratio(
            s.temporal_hits as f64,
            (s.temporal_hits + s.temporal_misses) as f64,
        ),
        "ratio",
    );
    m.push(
        "sic.temporal.skipped_per_item",
        per_item(s.gathers_skipped as f64),
        "count",
    );
    m.push(
        "sic.temporal.evictions_per_item",
        per_item(s.temporal_evictions as f64),
        "count",
    );

    let lag_ms = run
        .phases
        .iter()
        .map(|p| p.drive.gen_lag_max_us)
        .max()
        .unwrap_or(0) as f64
        / 1e3;
    let backlog = run
        .phases
        .iter()
        .map(|p| p.drive.backlog_max)
        .max()
        .unwrap_or(0);
    m.push("bench.gen_lag_ms_max", lag_ms, "ms");
    m.push("bench.backlog_max", backlog as f64, "count");
    m.push(
        "trace.overhead_pct",
        100.0 * (throughput(untraced) / throughput(traced) - 1.0),
        "%",
    );
    Ok(m)
}

fn json_line(correct: bool, attempted: usize, failed: usize, metrics: &Metrics) -> String {
    let body: Vec<String> = metrics
        .0
        .iter()
        .map(|m| {
            format!(
                "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                m.name, m.value, m.unit
            )
        })
        .collect();
    format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        body.join(", ")
    )
}

fn run(args: &Args) -> Result<ExitCode, String> {
    // Tracing state is set before anything reads `FOCUS_TRACE`: a
    // traced run activates rings deep enough for its traced phase and
    // records only inside it.
    if args.trace {
        spans::activate(TraceConfig {
            capacity: RING_CAPACITY,
        });
    }
    spans::set_enabled(false);

    let run = if args.kind.is_stream() {
        workloads::run_stream(args.kind, args.seed, args.seconds, args.trace)
    } else {
        workloads::run_serve(args.seed, args.seconds, args.trace)
    };
    let rss_mb = process_rss_peak_mb().ok_or("/proc/self/status unreadable")?;

    let lag_us = run
        .phases
        .iter()
        .map(|p| p.drive.gen_lag_max_us)
        .max()
        .unwrap_or(0);
    if lag_us > MAX_GEN_LAG_US {
        return Err(format!(
            "the load generator fell {:.1} ms behind its schedule (limit {:.1} ms); \
             the run did not offer the named load and is not a result",
            lag_us as f64 / 1e3,
            MAX_GEN_LAG_US as f64 / 1e3
        ));
    }

    let attempted: usize = run.phases.iter().map(|p| p.drive.len()).sum();
    let panicked: usize = run
        .phases
        .iter()
        .flat_map(|p| &p.drive.outcomes)
        .filter(|o| o.is_err())
        .count();
    for (i, err) in run
        .phases
        .iter()
        .flat_map(|p| p.drive.outcomes.iter().enumerate())
        .filter_map(|(i, o)| o.as_ref().err().map(|e| (i, e)))
    {
        eprintln!("perfbench: item {i} panicked: {err}");
    }
    let gate_t = std::time::Instant::now();
    let gate = workloads::correctness_gate(&run);
    let gate_s = gate_t.elapsed().as_secs_f64();
    let failed = panicked + gate.failed;

    let metrics = if args.trace {
        per_layer(&run)?
    } else {
        end_to_end(&run, failed, rss_mb)?
    };
    if let Some(bad) = metrics.0.iter().find(|m| !m.value.is_finite()) {
        return Err(format!("metric {} is not finite ({})", bad.name, bad.value));
    }

    println!(
        "# {} seed={} seconds={} trace={} workers={} items={} setups={:?} gate={}/{} in {:.1}s",
        args.kind.name(),
        args.seed,
        args.seconds,
        u8::from(args.trace),
        workloads::workers(),
        attempted,
        run.setup_s,
        gate.checked - gate.failed,
        gate.checked,
        gate_s,
    );
    for m in &metrics.0 {
        println!("# {:<36} {:>14.4} {}", m.name, m.value, m.unit);
    }
    println!("{}", json_line(failed == 0, attempted, failed, &metrics));
    Ok(if failed == 0 {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    })
}

fn main() -> ExitCode {
    for var in PINNED_ENV {
        std::env::remove_var(var);
    }
    let args = match parse_args(std::env::args().skip(1)) {
        Ok(args) => args,
        Err(why) => {
            eprintln!("perfbench: {why}\n{}", usage());
            return ExitCode::from(2);
        }
    };
    match run(&args) {
        Ok(code) => code,
        Err(why) => {
            eprintln!("perfbench: {why}");
            ExitCode::from(3)
        }
    }
}
