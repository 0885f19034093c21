//! `focus-obs`: structured span tracing, phase histograms, and the
//! unified metrics registry.
//!
//! The paper's argument is a phase-level cost story — SEC vs gather vs
//! synthesis vs lowering — and this module family is how a *live* run
//! tells it, not just the one-shot bench medians:
//!
//! * [`spans`] — per-worker lock-free ring buffers recording every
//!   scheduler node execution (`{job, kind, layer, worker, priority,
//!   tag, t_start, t_end}`), activated by `FOCUS_TRACE=spans[:cap]` or
//!   `ServiceConfig::trace`; the disabled path is one relaxed atomic
//!   load, and tracing is bit-invisible (proptest-proven in
//!   `tests/obs_trace.rs`).
//! * [`chrome_trace`] — drains the rings into Perfetto-loadable
//!   `trace_event` JSON (workers as tids, jobs as async arrows),
//!   written on demand or via `FOCUS_TRACE_OUT=path`.
//! * [`hist`] — fixed-bucket log2 latency histograms with
//!   p50/p99/max, one per node kind and one per kernel family.
//! * [`kernels`] — the [`kernels::Timed`] backend wrapper timing
//!   every kernel launch into its family histogram.
//! * [`registry`] — the flat `name → value` [`Snapshot`] that
//!   `FocusService::stats()`, `StreamSession::stats()` and the bench
//!   serializer all read through.
//! * [`clock`] — the single `Instant::now` seam (the only first-party
//!   non-test file the D1-wallclock lint allowlists).

pub mod chrome_trace;
pub mod clock;
pub mod hist;
pub mod kernels;
pub mod registry;
pub mod spans;

pub use hist::{HistSummary, Histogram};
pub use kernels::KernelFamily;
pub use registry::{Snapshot, Value};
pub use spans::{Span, SpanKind, SpanLabel, TraceConfig};

use focus_tensor::backend::{self, BackendHandle};

/// The backend stage workspaces should run kernels on: the process
/// default, wrapped in the launch-timing [`kernels::Timed`] shim when
/// span tracing is on. The untraced path is `spans::enabled()`'s single
/// relaxed load plus the bare handle — no wrapper, no indirection.
pub fn kernel_backend() -> BackendHandle {
    let active = backend::active();
    if spans::enabled() {
        kernels::timed(active)
    } else {
        active
    }
}

/// Publishes the observability layer's own counters into `snap` under
/// `obs.*`: span recorder totals, the non-empty node-kind and
/// kernel-family histogram summaries, and each launched kernel
/// family's exact launch count (`obs.kernel.<family>.launches`).
pub fn publish_obs(snap: &mut Snapshot) {
    if let Some(rec) = spans::recorder() {
        snap.set_u64("obs.spans.offered", rec.offered());
        snap.set_u64("obs.spans.dropped", rec.dropped());
        snap.set_u64("obs.spans.ring_capacity", rec.capacity() as u64);
        for kind in SpanKind::ALL {
            snap.set_hist(
                &format!("obs.node.{}", kind.name()),
                rec.node_histogram(kind).summary(),
            );
        }
    }
    for family in KernelFamily::ALL {
        let prefix = format!("obs.kernel.{}", family.name());
        snap.set_hist(&prefix, kernels::kernel_histogram(family).summary());
        let launches = kernels::kernel_launches(family);
        if launches > 0 {
            snap.set_u64(format!("{prefix}.launches"), launches);
        }
    }
}
