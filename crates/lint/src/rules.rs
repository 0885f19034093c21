//! The rule engine: four invariant families over scanned files.
//!
//! | id              | family | invariant |
//! |-----------------|--------|-----------|
//! | `D1-fma`        | determinism | no `.mul_add(` outside the math allowlist |
//! | `D1-libm`       | determinism | no float libm transcendentals (`.ln()`, `.cos()`, `.sin()`, `.exp()`, `.powf(`, `.sqrt()`) outside the allowlist |
//! | `D1-wallclock`  | determinism | no `Instant::now` / `SystemTime` outside sim/bench/test code |
//! | `D2-intrinsics` | kernel containment | `core::arch` intrinsics and `is_x86_feature_detected!` only in `crates/tensor/src/{math,backend}.rs` |
//! | `D2-kernel`     | kernel containment | no crate outside `crates/tensor` calls `math::` kernels directly — float inner loops route through a `BackendHandle`; only the non-dispatched helpers `math::normal_from_raw` and `math::GAMMA` are allowed |
//! | `S1-safety`     | unsafe hygiene | every `unsafe` block / `unsafe fn` carries a `// SAFETY:` (or `# Safety` doc) comment immediately above |
//! | `S1-dispatch`   | unsafe hygiene | every `#[target_feature]` fn is `unsafe` and is referenced only inside its defining dispatch module |
//! | `L1-lock`       | lock discipline | no `.lock().unwrap()` / `.lock().expect(` in `exec/` — use `lock_clean` / `wait_clean` |
//!
//! Intentional exceptions use inline waivers:
//! `// focus-lint: allow(rule-id) — reason`. A waiver must carry a
//! reason and must suppress at least one live violation, otherwise it
//! is itself reported (`W1-malformed-waiver` / `W0-unused-waiver`) —
//! waivers cannot rot.

use crate::scan::{find_in_stream, is_ident, stream_matches, Scanned};
use std::fmt;

/// Every enforceable rule id, in report order.
pub const RULE_IDS: [&str; 8] = [
    "D1-fma",
    "D1-libm",
    "D1-wallclock",
    "D2-intrinsics",
    "D2-kernel",
    "S1-safety",
    "S1-dispatch",
    "L1-lock",
];

/// One finding: `file:line: [rule] message`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Violation {
    /// Path relative to the linted root, `/`-separated.
    pub file: String,
    /// 1-based line number.
    pub line: u32,
    /// Rule id (one of [`RULE_IDS`] or a `W*` waiver meta-rule).
    pub rule: String,
    pub message: String,
}

impl fmt::Display for Violation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}:{}: [{}] {}",
            self.file, self.line, self.rule, self.message
        )
    }
}

/// A parsed `// focus-lint: allow(..)` waiver.
#[derive(Debug)]
struct Waiver {
    line: u32,
    /// The line the waiver shields (its own line for trailing
    /// waivers, the next code line for own-line waivers).
    target: u32,
    rules: Vec<String>,
    reason_ok: bool,
    used: bool,
}

/// A file queued for linting: its root-relative path and content.
pub struct Input {
    pub rel: String,
    pub scanned: Scanned,
}

impl Input {
    pub fn new(rel: impl Into<String>, src: &str) -> Self {
        Input {
            rel: rel.into(),
            scanned: crate::scan::scan(src),
        }
    }
}

// ---------------------------------------------------------------------
// Path predicates (allowlists). Paths are root-relative with `/`.
// ---------------------------------------------------------------------

/// Test/bench/example context: determinism rules don't apply — test
/// inputs built from `f32::sin` and bench wall-clock timing are fine.
fn is_test_path(rel: &str) -> bool {
    rel.split('/')
        .any(|c| c == "tests" || c == "benches" || c == "examples")
        || rel.starts_with("crates/bench/")
}

/// D1 allowlist: the deterministic-math home (`math.rs`, `half.rs`),
/// the hardware simulator (models time by design), the observability
/// layer's **single** clock seam (`obs/clock.rs` only — the rest of
/// `obs/`, spans and histograms included, must route timestamps
/// through it and stays subject to the rule), and bench/test code.
fn d1_allowed(rel: &str) -> bool {
    rel == "crates/tensor/src/math.rs"
        || rel == "crates/tensor/src/half.rs"
        || rel == "crates/core/src/obs/clock.rs"
        || rel.starts_with("crates/sim/")
        || is_test_path(rel)
}

/// D2 intrinsics allowlist: the two dispatch homes.
fn d2_intrinsics_allowed(rel: &str) -> bool {
    rel == "crates/tensor/src/math.rs" || rel == "crates/tensor/src/backend.rs"
}

/// Scheduler layer: no poison-unwrapping locks.
fn is_exec(rel: &str) -> bool {
    rel.starts_with("crates/core/src/exec/")
}

/// D2 kernel scope: every first-party crate's library and binary code
/// outside `crates/tensor`, the kernels' home. Tests, benches and
/// examples may call `math::` kernels as oracles.
fn d2_kernel_applies(rel: &str) -> bool {
    let first_party = rel.starts_with("src/") || rel.starts_with("crates/");
    first_party
        && !rel.starts_with("crates/tensor/")
        && !rel
            .split('/')
            .any(|c| c == "tests" || c == "benches" || c == "examples")
}

/// The `math::` items D2-kernel allows: scalar helpers with no kernel
/// and no backend choice behind them.
const D2_KERNEL_HELPERS: [&str; 2] = ["normal_from_raw", "GAMMA"];

/// Lines of `math::` paths that name anything but a
/// [`D2_KERNEL_HELPERS`] item (a grouped or glob import counts).
fn math_kernel_lines(s: &Scanned) -> Vec<u32> {
    const PAT: &str = "math::";
    (0..s.stream.len())
        .filter(|&at| stream_matches(s, at, PAT))
        .filter(|&at| {
            let item: String = s.stream[at + PAT.len()..]
                .iter()
                .take_while(|&&c| is_ident(c))
                .collect();
            !D2_KERNEL_HELPERS.contains(&item.as_str())
        })
        .map(|at| s.stream_lines[at])
        .collect()
}

// ---------------------------------------------------------------------
// The engine.
// ---------------------------------------------------------------------

/// Lints a set of scanned files as one unit (cross-file rules like
/// `S1-dispatch` see the whole set). Returns surviving violations:
/// waived hits are dropped, rotten waivers are added.
pub fn lint_inputs(inputs: &[Input]) -> Vec<Violation> {
    let mut raw: Vec<Violation> = Vec::new();
    for input in inputs {
        check_d1(input, &mut raw);
        check_d2(input, &mut raw);
        check_s1_safety(input, &mut raw);
        check_l1(input, &mut raw);
    }
    check_s1_dispatch(inputs, &mut raw);
    apply_waivers(inputs, raw)
}

/// True when 1-based `line` of `input` sits in a `#[cfg(test)]` item.
fn in_test_lines(input: &Input, line: u32) -> bool {
    input
        .scanned
        .lines
        .get(line as usize - 1)
        .map(|l| l.in_test)
        .unwrap_or(false)
}

fn push_hits(
    input: &Input,
    pat: &str,
    rule: &str,
    message: &str,
    skip_test_lines: bool,
    out: &mut Vec<Violation>,
) {
    let lines = find_in_stream(&input.scanned, pat);
    push_lines(input, lines, pat, rule, message, skip_test_lines, out);
}

/// Reports `rule` at each of `lines`, naming the matched `pat`.
fn push_lines(
    input: &Input,
    lines: Vec<u32>,
    pat: &str,
    rule: &str,
    message: &str,
    skip_test_lines: bool,
    out: &mut Vec<Violation>,
) {
    for line in lines {
        if skip_test_lines && in_test_lines(input, line) {
            continue;
        }
        out.push(Violation {
            file: input.rel.clone(),
            line,
            rule: rule.to_string(),
            message: format!("{message} (`{pat}`)"),
        });
    }
}

fn check_d1(input: &Input, out: &mut Vec<Violation>) {
    if d1_allowed(&input.rel) {
        return;
    }
    push_hits(
        input,
        ".mul_add(",
        "D1-fma",
        "fused multiply-add contracts rounding and breaks cross-backend bit-identity; use focus_tensor::math",
        true,
        out,
    );
    for pat in [".ln()", ".cos()", ".sin()", ".exp()", ".powf(", ".sqrt()"] {
        push_hits(
            input,
            pat,
            "D1-libm",
            "platform libm is not bit-deterministic; route through focus_tensor::math or waive with proof",
            true,
            out,
        );
    }
    for pat in ["Instant::now", "SystemTime"] {
        push_hits(
            input,
            pat,
            "D1-wallclock",
            "wall-clock reads are nondeterministic; timing belongs to sim/bench code",
            true,
            out,
        );
    }
}

fn check_d2(input: &Input, out: &mut Vec<Violation>) {
    if !d2_intrinsics_allowed(&input.rel) {
        for pat in ["core::arch", "std::arch", "is_x86_feature_detected", "_mm"] {
            push_hits(
                input,
                pat,
                "D2-intrinsics",
                "SIMD intrinsics and feature detection live only in crates/tensor/src/{math,backend}.rs",
                false,
                out,
            );
        }
    }
    if d2_kernel_applies(&input.rel) {
        push_lines(
            input,
            math_kernel_lines(&input.scanned),
            "math::",
            "D2-kernel",
            "only crates/tensor calls math:: kernels; route float work through a BackendHandle method",
            true,
            out,
        );
    }
}

/// Comment block immediately above `line` (1-based), skipping blank
/// lines and attribute-only lines, contains a SAFETY marker?
fn has_safety_above(input: &Input, line: u32) -> bool {
    let lines = &input.scanned.lines;
    let at = line as usize - 1;
    if safety_marker(&lines[at].comment) {
        return true;
    }
    let mut idx = at;
    while idx > 0 {
        idx -= 1;
        let l = &lines[idx];
        let code = l.code.trim();
        let is_attr = code.starts_with("#[") || code.starts_with("#!");
        if code.is_empty() || is_attr {
            if safety_marker(&l.comment) {
                return true;
            }
            continue;
        }
        return false;
    }
    false
}

fn safety_marker(comment: &str) -> bool {
    comment.contains("SAFETY:") || comment.contains("# Safety")
}

fn check_s1_safety(input: &Input, out: &mut Vec<Violation>) {
    let lines = &input.scanned.lines;
    for (li, l) in lines.iter().enumerate() {
        let mut from = 0usize;
        while let Some(rel_pos) = find_token(&l.code[from..], "unsafe") {
            let at = from + rel_pos;
            from = at + "unsafe".len();
            // Classify by the next token: blocks and fns need a
            // SAFETY comment; `unsafe impl` / `unsafe trait` are out
            // of scope. An `unsafe` ending its line classifies by the
            // next non-blank code line.
            let mut rest = l.code[from..].trim_start().to_string();
            if rest.is_empty() {
                for follow in lines.iter().skip(li + 1) {
                    let code = follow.code.trim();
                    if !code.is_empty() {
                        rest = code.to_string();
                        break;
                    }
                }
            }
            let what = if rest.starts_with('{') {
                "unsafe block"
            } else if rest == "fn" || rest.starts_with("fn ") {
                // (`unsafe fn(` with no space is a fn-pointer *type*,
                // not an item — no SAFETY contract to document.)
                "unsafe fn"
            } else {
                continue;
            };
            let line = li as u32 + 1;
            if !has_safety_above(input, line) {
                out.push(Violation {
                    file: input.rel.clone(),
                    line,
                    rule: "S1-safety".to_string(),
                    message: format!(
                        "{what} without an immediately preceding `// SAFETY:` comment"
                    ),
                });
            }
        }
    }
}

/// A `#[target_feature]` fn found in a file.
struct TfFn {
    file: usize,
    line: u32,
    name: String,
    is_unsafe: bool,
}

fn collect_target_feature_fns(inputs: &[Input]) -> Vec<TfFn> {
    let mut fns = Vec::new();
    for (fi, input) in inputs.iter().enumerate() {
        let lines = &input.scanned.lines;
        for (li, l) in lines.iter().enumerate() {
            if !l.code.contains("#[target_feature") {
                continue;
            }
            // The fn item follows, past further attributes/blanks.
            for decl in lines.iter().skip(li + 1).take(8) {
                let code = decl.code.trim();
                if code.is_empty() || code.starts_with("#[") {
                    continue;
                }
                if let Some(pos) = find_token(code, "fn") {
                    let name: String = code[pos + 2..]
                        .trim_start()
                        .chars()
                        .take_while(|c| c.is_alphanumeric() || *c == '_')
                        .collect();
                    let is_unsafe = find_token(&code[..pos], "unsafe").is_some();
                    if !name.is_empty() {
                        fns.push(TfFn {
                            file: fi,
                            line: li as u32 + 1,
                            name,
                            is_unsafe,
                        });
                    }
                }
                break;
            }
        }
    }
    fns
}

/// Byte offset of `tok` in `code` at identifier boundaries.
fn find_token(code: &str, tok: &str) -> Option<usize> {
    let bytes = code.as_bytes();
    let mut from = 0;
    while let Some(p) = code[from..].find(tok) {
        let at = from + p;
        let left_ok = at == 0 || !(bytes[at - 1].is_ascii_alphanumeric() || bytes[at - 1] == b'_');
        let end = at + tok.len();
        let right_ok =
            end >= bytes.len() || !(bytes[end].is_ascii_alphanumeric() || bytes[end] == b'_');
        if left_ok && right_ok {
            return Some(at);
        }
        from = at + tok.len();
    }
    None
}

fn check_s1_dispatch(inputs: &[Input], out: &mut Vec<Violation>) {
    let fns = collect_target_feature_fns(inputs);
    for f in &fns {
        if !f.is_unsafe {
            out.push(Violation {
                file: inputs[f.file].rel.clone(),
                line: f.line,
                rule: "S1-dispatch".to_string(),
                message: format!(
                    "#[target_feature] fn `{}` must be `unsafe` — safe wrappers hide the CPU-support contract",
                    f.name
                ),
            });
        }
        // Runtime-dispatch containment: the only references to a
        // #[target_feature] fn live in its defining file.
        for (fi, input) in inputs.iter().enumerate() {
            if fi == f.file {
                continue;
            }
            for line in crate::scan::find_idents_in_stream(&input.scanned, &f.name) {
                out.push(Violation {
                    file: input.rel.clone(),
                    line,
                    rule: "S1-dispatch".to_string(),
                    message: format!(
                        "`{}` is #[target_feature]-gated and reachable only via runtime dispatch in {}",
                        f.name, inputs[f.file].rel
                    ),
                });
            }
        }
    }
}

fn check_l1(input: &Input, out: &mut Vec<Violation>) {
    if !is_exec(&input.rel) {
        return;
    }
    for pat in [".lock().unwrap()", ".lock().expect("] {
        push_hits(
            input,
            pat,
            "L1-lock",
            "poison unwrap masks the original panic payload; use lock_clean/wait_clean",
            true,
            out,
        );
    }
}

// ---------------------------------------------------------------------
// Waivers.
// ---------------------------------------------------------------------

fn parse_waivers(input: &Input) -> Vec<Waiver> {
    let lines = &input.scanned.lines;
    let mut out = Vec::new();
    for (li, l) in lines.iter().enumerate() {
        // Anchored at comment start so prose *mentioning* the syntax
        // (like this crate's own docs) never parses as a waiver.
        let comment = l.comment.trim_start();
        let Some(tail) = comment.strip_prefix("focus-lint:") else {
            continue;
        };
        let rest = tail.trim_start();
        let (rules, reason_ok) = match rest.strip_prefix("allow(") {
            Some(args) => match args.find(')') {
                Some(close) => {
                    let ids: Vec<String> = args[..close]
                        .split(',')
                        .map(|s| s.trim().to_string())
                        .filter(|s| !s.is_empty())
                        .collect();
                    let reason = args[close + 1..]
                        .trim_start_matches([' ', '—', '-', '–'])
                        .trim();
                    let known =
                        !ids.is_empty() && ids.iter().all(|i| RULE_IDS.contains(&i.as_str()));
                    (ids, known && !reason.is_empty())
                }
                None => (Vec::new(), false),
            },
            None => (Vec::new(), false),
        };
        // Own-line waiver shields the next code line; trailing waiver
        // shields its own line.
        let own_line = l.code.trim().is_empty();
        let target = if own_line {
            let mut t = li + 1;
            while t < lines.len() && lines[t].code.trim().is_empty() {
                t += 1;
            }
            t as u32 + 1
        } else {
            li as u32 + 1
        };
        out.push(Waiver {
            line: li as u32 + 1,
            target,
            rules,
            reason_ok,
            used: false,
        });
    }
    out
}

fn apply_waivers(inputs: &[Input], raw: Vec<Violation>) -> Vec<Violation> {
    let mut waivers: Vec<(String, Waiver)> = inputs
        .iter()
        .flat_map(|i| {
            parse_waivers(i)
                .into_iter()
                .map(move |w| (i.rel.clone(), w))
        })
        .collect();
    let mut out = Vec::new();
    for v in raw {
        let shielded = waivers.iter_mut().any(|(file, w)| {
            let hit =
                *file == v.file && w.target == v.line && w.reason_ok && w.rules.contains(&v.rule);
            if hit {
                w.used = true;
            }
            hit
        });
        if !shielded {
            out.push(v);
        }
    }
    for (file, w) in &waivers {
        if !w.reason_ok {
            out.push(Violation {
                file: file.clone(),
                line: w.line,
                rule: "W1-malformed-waiver".to_string(),
                message: "waiver must name known rule ids and carry a reason: \
                          `// focus-lint: allow(rule-id) — reason`"
                    .to_string(),
            });
        } else if !w.used {
            out.push(Violation {
                file: file.clone(),
                line: w.line,
                rule: "W0-unused-waiver".to_string(),
                message: "waiver suppresses nothing — delete it (waivers must not rot)".to_string(),
            });
        }
    }
    out.sort_by(|a, b| (&a.file, a.line).cmp(&(&b.file, b.line)));
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn lint_one(rel: &str, src: &str) -> Vec<Violation> {
        lint_inputs(&[Input::new(rel, src)])
    }

    fn rules_of(vs: &[Violation]) -> Vec<&str> {
        vs.iter().map(|v| v.rule.as_str()).collect()
    }

    #[test]
    fn d1_libm_fires_outside_allowlist_only() {
        let src = "fn f(x: f32) -> f32 { x.exp() }\n";
        assert_eq!(
            rules_of(&lint_one("crates/core/src/sec/mod.rs", src)),
            ["D1-libm"]
        );
        assert!(lint_one("crates/tensor/src/math.rs", src).is_empty());
        assert!(lint_one("crates/sim/src/engine.rs", src).is_empty());
        assert!(lint_one("tests/pipeline_integration.rs", src).is_empty());
        assert!(lint_one("crates/bench/src/main.rs", src).is_empty());
    }

    #[test]
    fn d1_skips_cfg_test_lines() {
        let src =
            "fn live() {}\n#[cfg(test)]\nmod tests {\n    fn t(x: f32) -> f32 { x.sin() }\n}\n";
        assert!(lint_one("crates/core/src/sec/mod.rs", src).is_empty());
    }

    #[test]
    fn d1_fma_and_wallclock() {
        let v = lint_one(
            "crates/vlm/src/trace.rs",
            "fn f(a: f32) -> f32 { a.mul_add(2.0, 1.0) }\nfn t() { let _ = std::time::Instant::now(); }\n",
        );
        assert_eq!(rules_of(&v), ["D1-fma", "D1-wallclock"]);
        assert_eq!(v[0].line, 1);
        assert_eq!(v[1].line, 2);
    }

    #[test]
    fn d1_wallclock_allowlists_only_the_obs_clock_seam() {
        let src = "fn t() -> std::time::Instant { std::time::Instant::now() }\n";
        // The single seam is exempt…
        assert!(lint_one("crates/core/src/obs/clock.rs", src).is_empty());
        // …and nothing else in the obs module is.
        assert_eq!(
            rules_of(&lint_one("crates/core/src/obs/spans.rs", src)),
            ["D1-wallclock"]
        );
        assert_eq!(
            rules_of(&lint_one("crates/core/src/obs/hist.rs", src)),
            ["D1-wallclock"]
        );
        assert_eq!(
            rules_of(&lint_one("crates/core/src/obs/mod.rs", src)),
            ["D1-wallclock"]
        );
    }

    #[test]
    fn d2_intrinsics_containment() {
        let src = "use core::arch::x86_64::*;\n";
        assert_eq!(
            rules_of(&lint_one("crates/core/src/exec/graph.rs", src)),
            ["D2-intrinsics"]
        );
        assert!(lint_one("crates/tensor/src/backend.rs", src).is_empty());
        assert!(lint_one("crates/tensor/src/math.rs", src).is_empty());
    }

    #[test]
    fn d2_kernel_blocks_direct_math_calls_in_exec_and_sic() {
        let src = "fn f(xs: &mut [f32]) { focus_tensor::math::box_muller_fill(7, xs); }\n";
        assert_eq!(
            rules_of(&lint_one("crates/core/src/exec/stage.rs", src)),
            ["D2-kernel"]
        );
        assert_eq!(
            rules_of(&lint_one("crates/core/src/sic/gather.rs", src)),
            ["D2-kernel"]
        );
    }

    #[test]
    fn d2_kernel_covers_every_crate_outside_tensor() {
        let src = "fn f(a: &[f32], o: &mut [f32]) { focus_tensor::math::segment_dots(a, a, 8, &[0], o); }\n";
        for rel in [
            "crates/core/src/sec/mod.rs",
            "crates/baselines/src/cmc.rs",
            "crates/vlm/src/embedding.rs",
            "crates/bench/src/bin/ablations.rs",
            "src/lib.rs",
        ] {
            assert_eq!(rules_of(&lint_one(rel, src)), ["D2-kernel"], "{rel}");
        }
        // The kernels' home, and tests, benches and examples using the
        // kernels as oracles, are out of scope.
        for rel in [
            "crates/tensor/src/backend.rs",
            "crates/tensor/tests/math_kernel.rs",
            "tests/backend_kernels.rs",
            "crates/bench/benches/batch.rs",
            "examples/quickstart.rs",
        ] {
            assert!(lint_one(rel, src).is_empty(), "{rel}");
        }
        // A grouped import hides which items it takes, so it counts.
        let grouped = "use focus_tensor::math::{normal_from_raw, GAMMA};\n";
        assert_eq!(
            rules_of(&lint_one("crates/vlm/src/scene.rs", grouped)),
            ["D2-kernel"]
        );
    }

    #[test]
    fn d2_kernel_allows_only_the_scalar_helpers() {
        let src = "fn f(a: u64) -> (f32, u64) {\n    (focus_tensor::math::normal_from_raw(a, a), math::GAMMA)\n}\n";
        assert!(lint_one("crates/vlm/src/scene.rs", src).is_empty());
        let near = "fn f(a: u64) -> f32 { math::normal_from_raw_fast(a, a) }\n";
        assert_eq!(
            rules_of(&lint_one("crates/vlm/src/scene.rs", near)),
            ["D2-kernel"]
        );
    }

    #[test]
    fn s1_safety_requires_adjacent_comment() {
        let bare = "fn f(p: *const u8) { unsafe { p.read(); } }\n";
        assert_eq!(
            rules_of(&lint_one("crates/tensor/src/half.rs", bare)),
            ["S1-safety"]
        );
        let ok = "fn f(p: *const u8) {\n    // SAFETY: caller guarantees p is valid.\n    unsafe { p.read(); }\n}\n";
        assert!(lint_one("crates/tensor/src/half.rs", ok).is_empty());
    }

    #[test]
    fn s1_safety_comment_skips_blanks_and_attributes() {
        let src = "/// # Safety\n/// Requires AVX2.\n#[target_feature(enable = \"avx2\")]\n\nunsafe fn k() {}\n";
        // The doc `# Safety` block sits above the attribute and a blank
        // line; still counts. (`k` is unsafe so S1-dispatch passes.)
        assert!(lint_one("crates/tensor/src/math.rs", src).is_empty());
    }

    #[test]
    fn s1_safety_ignores_fn_pointer_types_and_unsafe_impl() {
        let src = "type K = unsafe fn(i32);\nunsafe impl Send for W {}\n";
        assert!(lint_one("crates/tensor/src/half.rs", src).is_empty());
    }

    #[test]
    fn s1_dispatch_demands_unsafe_and_containment() {
        let def = "/// # Safety\n/// Requires AVX2.\n#[target_feature(enable = \"avx2\")]\nunsafe fn kern8() {}\n";
        let safe_def = "#[target_feature(enable = \"avx2\")]\nfn kern8() {}\n";
        assert_eq!(
            rules_of(&lint_one("crates/tensor/src/math.rs", safe_def)),
            ["S1-dispatch"]
        );
        // A reference from another file breaks containment.
        let caller = "fn run() { kern8(); }\n";
        let v = lint_inputs(&[
            Input::new("crates/tensor/src/math.rs", def),
            Input::new("crates/core/src/exec/stage.rs", caller),
        ]);
        assert_eq!(rules_of(&v), ["S1-dispatch"]);
        assert_eq!(v[0].file, "crates/core/src/exec/stage.rs");
        // Same-file references (the dispatch wrapper) are fine.
        let with_wrapper = format!("{def}fn fill() {{ unsafe {{ kern8() }} }}\n");
        let v = lint_one("crates/tensor/src/math.rs", &with_wrapper);
        assert_eq!(
            rules_of(&v),
            ["S1-safety"],
            "only the uncommented block: {v:?}"
        );
    }

    #[test]
    fn l1_lock_exec_only_and_multiline() {
        let src = "fn f(m: &Mutex<u32>) {\n    let g = m\n        .lock()\n        .unwrap();\n}\n";
        let v = lint_one("crates/core/src/exec/executor.rs", src);
        assert_eq!(rules_of(&v), ["L1-lock"]);
        assert_eq!(v[0].line, 3, "reported where the chain starts");
        assert!(lint_one("crates/core/src/session.rs", src).is_empty());
        let expect = "fn f(m: &Mutex<u32>) { m.lock().expect(\"ok\"); }\n";
        assert_eq!(
            rules_of(&lint_one("crates/core/src/exec/graph.rs", expect)),
            ["L1-lock"]
        );
    }

    #[test]
    fn trailing_waiver_shields_its_own_line() {
        let src =
            "fn f(x: f32) -> f32 { x.sqrt() } // focus-lint: allow(D1-libm) — IEEE sqrt is exact\n";
        assert!(lint_one("crates/core/src/sec/mod.rs", src).is_empty());
    }

    #[test]
    fn own_line_waiver_shields_next_code_line() {
        let src = "// focus-lint: allow(D1-libm) — report-only f64 path\n\nfn f(x: f32) -> f32 { x.ln() }\n";
        assert!(lint_one("crates/core/src/sec/mod.rs", src).is_empty());
    }

    #[test]
    fn unused_waiver_is_reported() {
        let src = "// focus-lint: allow(D1-libm) — stale claim\nfn f() {}\n";
        assert_eq!(
            rules_of(&lint_one("crates/core/src/sec/mod.rs", src)),
            ["W0-unused-waiver"]
        );
    }

    #[test]
    fn waiver_without_reason_or_with_unknown_rule_is_malformed() {
        let bare = "fn f(x: f32) -> f32 { x.ln() } // focus-lint: allow(D1-libm)\n";
        let v = lint_one("crates/core/src/sec/mod.rs", bare);
        assert_eq!(rules_of(&v), ["D1-libm", "W1-malformed-waiver"]);
        let unknown = "fn f(x: f32) -> f32 { x.ln() } // focus-lint: allow(D9-nope) — reason\n";
        let v = lint_one("crates/core/src/sec/mod.rs", unknown);
        assert_eq!(rules_of(&v), ["D1-libm", "W1-malformed-waiver"]);
    }

    #[test]
    fn waiver_meta_rules_cannot_be_waived() {
        // `W0-unused-waiver` is not in RULE_IDS, so a waiver naming it
        // is itself malformed — the meta-rules are terminal.
        assert!(!RULE_IDS.contains(&"W0-unused-waiver"));
        let src =
            "// focus-lint: allow(W0-unused-waiver) — trying to silence the auditor\nfn f() {}\n";
        let v = lint_one("crates/core/src/sec/mod.rs", src);
        assert_eq!(rules_of(&v), ["W1-malformed-waiver"]);
    }

    #[test]
    fn prose_mentioning_the_syntax_never_parses() {
        let src = "// Waivers look like `focus-lint: allow(id)` in comments.\nfn f() {}\n";
        assert!(lint_one("crates/core/src/sec/mod.rs", src).is_empty());
    }

    #[test]
    fn patterns_inside_strings_and_comments_never_fire() {
        let src = "fn f() -> &'static str { \"x.exp() and .lock().unwrap()\" }\n// mentions .sqrt() in prose\n";
        assert!(lint_one("crates/core/src/exec/graph.rs", src).is_empty());
    }

    #[test]
    fn violation_display_format() {
        let v = Violation {
            file: "crates/a.rs".into(),
            line: 7,
            rule: "D1-libm".into(),
            message: "msg".into(),
        };
        assert_eq!(v.to_string(), "crates/a.rs:7: [D1-libm] msg");
    }
}
