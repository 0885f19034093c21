//! Shape check of the committed `BENCH_batch.json` perf-trajectory
//! snapshot (written by `cargo bench -p focus-bench --bench batch`).
//!
//! ROADMAP item (f): until CI has a stable-timing runner the
//! *numbers* cannot be asserted, but the file's **schema** can — keys
//! present, counters positive, the snapshot taken with ≥ 2 workers so
//! the cross-layer/cross-request overlap is actually exercised. A
//! bench rework that changes or drops keys without regenerating the
//! committed snapshot fails here instead of rotting silently.
//!
//! Deliberately **no timing assertions**: values are machine-
//! dependent.

use std::path::Path;

/// Extracts a numeric field from the flat one-object snapshot (no
/// JSON parser in this offline workspace; the format is ours).
fn field(json: &str, key: &str) -> f64 {
    let tag = format!("\"{key}\":");
    let at = json
        .find(&tag)
        .unwrap_or_else(|| panic!("snapshot key {key:?} missing"));
    let rest = &json[at + tag.len()..];
    let end = rest
        .find([',', '}'])
        .unwrap_or_else(|| panic!("unterminated value for {key:?}"));
    rest[..end]
        .trim()
        .parse::<f64>()
        .unwrap_or_else(|e| panic!("value of {key:?} is not numeric: {e}"))
}

#[test]
fn bench_snapshot_has_the_expected_shape() {
    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("BENCH_batch.json");
    let json = std::fs::read_to_string(&path)
        .expect("BENCH_batch.json must be committed at the repo root");

    assert!(
        json.contains("\"bench\": \"measured_phase_fig09_grid_tiny\""),
        "snapshot must identify the tracked bench"
    );
    for key in [
        "cells",
        "threads",
        "serial_resynthesis_s",
        "graph_batched_s",
        "graph_traced_s",
        "service_staggered_s",
        "service_jobs_per_s",
        "service_workers",
        "stream_session_s",
        "stream_frames",
        "stream_window",
        "stream_frames_per_s",
        "temporal_frames_per_s_c00",
        "temporal_frames_per_s_c05",
        "temporal_frames_per_s_c09",
        "temporal_isolated_frames_per_s",
        "temporal_hit_rate_c05",
        "temporal_hit_rate_c09",
        "temporal_gathers_skipped_c09",
        "fair_served_high",
        "fair_served_normal",
        "fair_served_low",
        "synthesis_only_s",
        "synthesis_batched_s",
        "synthesis_kernel_speedup",
        "gather_phase_s",
        "gather_phase_scalar_s",
        "gather_kernel_speedup",
        "gather_share",
        "quantize_phase_s",
        "quantize_phase_scalar_s",
        "quantize_kernel_speedup",
        "synthesis_share",
    ] {
        let v = field(&json, key);
        assert!(
            v > 0.0,
            "snapshot counter {key:?} must be positive, got {v}"
        );
    }
    assert_eq!(field(&json, "cells"), 9.0, "the Fig. 9 grid has 9 cells");
    // PR 10 (observability): span tracing promises to be cheap as well
    // as bit-invisible. `obs_overhead_pct` may legitimately be slightly
    // negative (machine noise on the traced-vs-untraced pair), so it
    // lives outside the positive-keys loop — but a committed snapshot
    // showing >= 2% overhead means the disabled-path/ring design
    // regressed.
    let obs = field(&json, "obs_overhead_pct");
    assert!(
        obs < 2.0,
        "span tracing overhead must stay under 2% of the graph leg, got {obs}%"
    );
    assert!(
        field(&json, "threads") >= 2.0,
        "the snapshot must be taken with >= 2 workers (the overlap under test)"
    );
    assert!(
        field(&json, "service_workers") >= 2.0,
        "the staggered serving leg must run on a pool of >= 2 workers"
    );
    // The streaming leg: a real window (≥ 1, bounding in-flight
    // frames) over a multi-frame feed. (The fair_served_* counters are
    // covered by the positive-keys loop above: the staggered leg
    // cycles High/Normal/Low priorities, so a zero there would mean
    // the weighted fair queue stopped serving a class.)
    assert!(
        field(&json, "stream_frames") >= 2.0,
        "the stream leg must push a multi-frame feed"
    );
    assert!(
        field(&json, "stream_window") >= 1.0,
        "the stream leg must declare its in-flight window"
    );
    // Re-baseline v3 (temporal concentration): the carry cache must
    // record *zero* hits on the correlation-0 stream (every frame is a
    // scene cut, so nothing may carry — the bit-identity contract) and
    // a strictly positive, correlation-ordered hit rate once frames
    // actually repeat. Frames/s is machine noise and stays unasserted.
    assert_eq!(
        field(&json, "temporal_hit_rate_c00"),
        0.0,
        "a correlation-0 stream cuts every frame; any carry would break bit-identity"
    );
    let h05 = field(&json, "temporal_hit_rate_c05");
    let h09 = field(&json, "temporal_hit_rate_c09");
    assert!(
        h09 >= h05 && h05 > 0.0,
        "temporal hit rate must be positive and grow with correlation, got c05={h05} c09={h09}"
    );
    // Re-baseline v2 (batched synthesis kernel): the committed snapshot
    // must have been taken with the batched leg at least as fast as the
    // forced-scalar leg — a regenerate on a machine where the SIMD
    // dispatch silently fell back would record ~1.0 and fail the ratio
    // sanity here. (Still no absolute timing assertions.)
    assert!(
        field(&json, "synthesis_kernel_speedup") >= 1.0,
        "the batched kernel leg must not be slower than the scalar leg"
    );
    assert!(
        field(&json, "synthesis_batched_s") <= field(&json, "synthesis_only_s"),
        "batched/scalar legs inconsistent with the recorded speedup"
    );
    // Re-baseline v4 (backend-dispatched stage kernels): the committed
    // snapshot must show the dispatched gather-scoring and
    // fake-quantise kernels at least as fast as the scalar oracle, and
    // a gather share that is a genuine fraction of the staged walk.
    assert!(
        field(&json, "gather_kernel_speedup") >= 1.0,
        "the dispatched gather-scoring leg must not be slower than the scalar oracle"
    );
    assert!(
        field(&json, "gather_phase_s") <= field(&json, "gather_phase_scalar_s"),
        "gather dispatched/scalar legs inconsistent with the recorded speedup"
    );
    let share = field(&json, "gather_share");
    assert!(
        share > 0.0 && share < 1.0,
        "gather_share must be a fraction of the staged kernel walk, got {share}"
    );
    assert!(
        field(&json, "quantize_kernel_speedup") >= 1.0,
        "the dispatched fake-quantise leg must not be slower than the scalar oracle"
    );
}
