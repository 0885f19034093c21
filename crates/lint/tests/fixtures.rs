//! Every rule family demonstrated against the deliberately-violating
//! corpus in `crates/lint/fixtures/` — a miniature workspace whose
//! paths exercise the same allowlists as the real tree. Each fixture
//! file documents the exact violations it must produce; this test
//! pins the full (file, rule) multiset so a rule that goes blind (or
//! trigger-happy) fails loudly.

use std::path::Path;

#[test]
fn each_rule_fires_exactly_where_designed() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("fixtures");
    let violations = focus_lint::lint_workspace(&root).expect("fixtures readable");

    let mut got: Vec<(String, String)> = violations
        .iter()
        .map(|v| (v.file.clone(), v.rule.clone()))
        .collect();
    got.sort();

    let mut want: Vec<(String, String)> = [
        ("crates/baselines/src/d2_kernel.rs", "D2-kernel"),
        ("crates/core/src/exec/d2_kernel.rs", "D2-kernel"),
        ("crates/core/src/exec/l1_lock.rs", "L1-lock"),
        ("crates/core/src/obs/spans.rs", "D1-wallclock"),
        ("crates/core/src/s1_safety.rs", "S1-safety"),
        ("crates/core/src/tf_caller.rs", "S1-dispatch"),
        ("crates/tensor/src/tf_safe.rs", "S1-dispatch"),
        ("crates/vlm/src/d1_fma.rs", "D1-fma"),
        ("crates/vlm/src/d1_libm.rs", "D1-libm"),
        ("crates/vlm/src/d1_wallclock.rs", "D1-wallclock"),
        ("crates/vlm/src/d2_intrinsics.rs", "D2-intrinsics"),
        ("crates/vlm/src/waiver_noreason.rs", "D1-libm"),
        ("crates/vlm/src/waiver_noreason.rs", "W1-malformed-waiver"),
        ("crates/vlm/src/waiver_unused.rs", "W0-unused-waiver"),
    ]
    .into_iter()
    .map(|(f, r)| (f.to_string(), r.to_string()))
    .collect();
    want.sort();

    assert_eq!(
        got,
        want,
        "fixture corpus drifted; full report:\n{}",
        violations
            .iter()
            .map(|v| v.to_string())
            .collect::<Vec<_>>()
            .join("\n")
    );
}

#[test]
fn clean_fixtures_stay_clean() {
    // `tf_def.rs` (correct kernel declaration), `waiver_ok.rs` (live
    // reasoned waivers), `obs/clock.rs` (the one allowlisted
    // wall-clock seam) and `d2_helpers.rs` (the two allowed `math::`
    // helpers) must contribute nothing.
    let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("fixtures");
    let violations = focus_lint::lint_workspace(&root).expect("fixtures readable");
    for v in &violations {
        assert!(
            !v.file.ends_with("tf_def.rs")
                && !v.file.ends_with("waiver_ok.rs")
                && !v.file.ends_with("obs/clock.rs")
                && !v.file.ends_with("d2_helpers.rs"),
            "clean fixture flagged: {v}"
        );
    }
}

#[test]
fn fixture_corpus_is_excluded_from_the_real_workspace_walk() {
    let repo_root = Path::new(env!("CARGO_MANIFEST_DIR"))
        .parent()
        .and_then(Path::parent)
        .expect("crates/lint has a workspace root");
    let sources = focus_lint::collect_sources(repo_root).expect("workspace readable");
    assert!(
        sources
            .iter()
            .all(|p| !p.components().any(|c| c.as_os_str() == "fixtures")),
        "fixtures must never be linted as first-party source"
    );
}
