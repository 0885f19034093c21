//! The workspace's **single** wall-clock seam.
//!
//! Every timestamp the observability layer takes — span starts and
//! ends in the scheduler core (`exec/graph.rs`), kernel-launch timing
//! in the [`super::kernels::Timed`] backend wrapper — routes through
//! [`now_micros`], and this file is the only non-test first-party
//! source the `focus-lint` D1-wallclock rule allows `Instant::now` in
//! (the rest of `crates/core/src/obs/` is **not** allowlisted — a
//! stray clock read in `spans.rs` trips the rule, and a lint fixture
//! pins that it keeps tripping). Keeping the clock behind one seam is
//! what keeps the rule enforceable: timing can never leak into a
//! numeric path without showing up as a new call site of this module.
//!
//! Timestamps are microseconds since a process-wide epoch pinned at
//! first use — monotone (never wall-time, never adjusted), cheap
//! (`Instant::elapsed`), and directly usable as Chrome-trace `ts`
//! values.

use std::sync::OnceLock;
use std::time::Instant;

/// The process-wide epoch, pinned by the first clock read.
fn epoch() -> Instant {
    static EPOCH: OnceLock<Instant> = OnceLock::new();
    *EPOCH.get_or_init(Instant::now)
}

/// Monotone microseconds since the process epoch. The first call pins
/// the epoch and returns 0.
pub fn now_micros() -> u64 {
    epoch().elapsed().as_micros() as u64
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn clock_is_monotone() {
        let a = now_micros();
        let b = now_micros();
        let c = now_micros();
        assert!(a <= b && b <= c, "clock went backwards: {a} {b} {c}");
    }
}
