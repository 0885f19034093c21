//! Shape and gate check of the committed `BENCH_batch.json` snapshot
//! (written by `cargo bench -p focus-bench --bench batch`).
//!
//! The snapshot holds the two measurements the repo benchmark does not
//! take: the dispatched-vs-scalar-oracle kernel ratios and the span
//! tracing overhead, each the median of per-pair ratios over
//! order-alternating pairs. The file must hold exactly the v5 keys: a
//! bench rework that drops a key, or a stale snapshot that still holds
//! a retired one, fails here instead of rotting silently.

use std::collections::BTreeMap;
use std::path::Path;

/// Every key of a v5 snapshot.
const V5_KEYS: [&str; 12] = [
    "bench",
    "version",
    "cells",
    "threads",
    "kernel_pairs",
    "synthesis_kernel_speedup",
    "gather_kernel_speedup",
    "quantize_kernel_speedup",
    "obs_pairs",
    "graph_batched_s",
    "graph_traced_s",
    "obs_overhead_pct",
];

/// Splits the flat one-object snapshot into `key → raw value` (no JSON
/// parser in this offline workspace; the format is ours: one
/// `"key": value` per line).
fn fields(json: &str) -> BTreeMap<String, String> {
    let body = json.trim();
    let body = body
        .strip_prefix('{')
        .and_then(|b| b.strip_suffix('}'))
        .expect("the snapshot is one flat JSON object");
    body.lines()
        .map(str::trim)
        .filter(|line| !line.is_empty())
        .map(|line| {
            let (key, value) = line
                .split_once(':')
                .unwrap_or_else(|| panic!("malformed snapshot line {line:?}"));
            let key = key.trim().trim_matches('"').to_string();
            let value = value.trim().trim_end_matches(',').trim().to_string();
            (key, value)
        })
        .collect()
}

fn number(fields: &BTreeMap<String, String>, key: &str) -> f64 {
    fields[key]
        .parse::<f64>()
        .unwrap_or_else(|e| panic!("value of {key:?} is not numeric: {e}"))
}

#[test]
fn bench_snapshot_has_the_expected_shape() {
    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("BENCH_batch.json");
    let json = std::fs::read_to_string(&path)
        .expect("BENCH_batch.json must be committed at the repo root");
    let fields = fields(&json);

    let keys: Vec<&str> = fields.keys().map(String::as_str).collect();
    let mut want = V5_KEYS.to_vec();
    want.sort_unstable();
    assert_eq!(keys, want, "the snapshot must hold exactly the v5 keys");
    assert_eq!(fields["bench"], "\"fig09_grid_tiny\"");
    assert_eq!(number(&fields, "version"), 5.0);
    assert_eq!(number(&fields, "cells"), 9.0, "the Fig. 9 grid has 9 cells");
    assert!(
        number(&fields, "threads") >= 2.0,
        "the snapshot must be taken with >= 2 workers, so traced nodes \
         of concurrent jobs share the span rings"
    );

    // Dispatched kernels at least as fast as the scalar oracle: a
    // regenerate on a host where SIMD dispatch silently fell back would
    // read about 1.0 and could fail here.
    assert!(number(&fields, "kernel_pairs") >= 1.0);
    for key in [
        "synthesis_kernel_speedup",
        "gather_kernel_speedup",
        "quantize_kernel_speedup",
    ] {
        let speedup = number(&fields, key);
        assert!(
            speedup >= 1.0,
            "{key}: the dispatched kernel must not be slower than the scalar oracle, got {speedup}"
        );
    }

    // Span tracing promises to be cheap as well as bit-invisible. The
    // overhead is a median over many order-alternating pairs, because
    // the tax under test sits well below single-run noise; small
    // negative values are noise and fine.
    assert!(
        number(&fields, "obs_pairs") >= 321.0,
        "the tracing overhead needs at least 321 pairs"
    );
    assert!(number(&fields, "graph_batched_s") > 0.0);
    assert!(number(&fields, "graph_traced_s") > 0.0);
    let obs = number(&fields, "obs_overhead_pct");
    assert!(
        obs < 2.0,
        "span tracing overhead must stay under 2% of the graph leg, got {obs}%"
    );
}
