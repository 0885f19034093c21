//! `focus-lint` — workspace-aware static analysis for the Focus repo.
//!
//! The repo's headline guarantee — bit-identical results across the
//! Serial/Graph schedules, Scalar/Simd backends, and temporal carry
//! replay — rests on invariants that used to live in
//! prose and proptests: transcendentals only in `focus_tensor::math`,
//! kernels never open-coded in `exec/`/`sic/`, `lock_clean` everywhere
//! in the scheduler, `#[target_feature]` fns reached only via runtime
//! dispatch. A violation compiles clean and passes clippy; it surfaces
//! as a flaky cross-backend bit mismatch under load. This crate turns
//! those invariants into a machine-checked pass: a hand-rolled scanner
//! ([`scan`]) — zero dependencies, no `syn` — and a rule engine
//! ([`rules`]) that walks every workspace `.rs` file.
//!
//! Run it three ways:
//! - library: [`lint_workspace`] returns the violations;
//! - binary: `cargo run -p focus-lint --release` (CI gate);
//! - test: the repo-root `tests/lint_clean.rs` keeps `cargo test -q`
//!   sufficient to hold the tree clean.

pub mod rules;
pub mod scan;

pub use rules::{lint_inputs, Input, Violation, RULE_IDS};

use std::fs;
use std::io;
use std::path::{Path, PathBuf};

/// Directories under the workspace root that hold first-party source.
/// `shims/` is deliberately absent: it holds an offline stand-in for
/// third-party code (proptest) that carries the upstream idioms, not
/// ours.
const WALK_ROOTS: [&str; 4] = ["crates", "src", "tests", "examples"];

/// Directory names never descended into: build output and the lint's
/// own deliberately-violating fixture corpus.
const SKIP_DIRS: [&str; 3] = ["target", "shims", "fixtures"];

/// Collects every first-party `.rs` file under `root`, paths relative
/// to `root`, sorted for deterministic reports.
pub fn collect_sources(root: &Path) -> io::Result<Vec<PathBuf>> {
    let mut files = Vec::new();
    for top in WALK_ROOTS {
        let dir = root.join(top);
        if dir.is_dir() {
            walk(&dir, &mut files)?;
        }
    }
    let mut rel: Vec<PathBuf> = files
        .into_iter()
        .filter_map(|f| f.strip_prefix(root).ok().map(Path::to_path_buf))
        .collect();
    rel.sort();
    Ok(rel)
}

fn walk(dir: &Path, out: &mut Vec<PathBuf>) -> io::Result<()> {
    for entry in fs::read_dir(dir)? {
        let entry = entry?;
        let path = entry.path();
        let name = entry.file_name();
        let name = name.to_string_lossy();
        if path.is_dir() {
            if !name.starts_with('.') && !SKIP_DIRS.contains(&name.as_ref()) {
                walk(&path, out)?;
            }
        } else if path.extension().is_some_and(|e| e == "rs") {
            out.push(path);
        }
    }
    Ok(())
}

/// Lints every first-party `.rs` file under `root` and returns the
/// surviving violations (waived hits dropped, rotten waivers added).
/// An empty result is only meaningful if files were actually scanned —
/// callers guarding CI should also assert a sane file count via
/// [`collect_sources`].
pub fn lint_workspace(root: &Path) -> io::Result<Vec<Violation>> {
    let mut inputs = Vec::new();
    for rel in collect_sources(root)? {
        let src = fs::read_to_string(root.join(&rel))?;
        let rel = rel.to_string_lossy().replace('\\', "/");
        inputs.push(Input::new(rel, &src));
    }
    Ok(lint_inputs(&inputs))
}

/// Locates the workspace root: ascends from `start` until a directory
/// whose `Cargo.toml` declares `[workspace]`.
pub fn find_workspace_root(start: &Path) -> Option<PathBuf> {
    let mut dir = Some(start.to_path_buf());
    while let Some(d) = dir {
        let manifest = d.join("Cargo.toml");
        if let Ok(text) = fs::read_to_string(&manifest) {
            if text.contains("[workspace]") {
                return Some(d);
            }
        }
        dir = d.parent().map(Path::to_path_buf);
    }
    None
}
