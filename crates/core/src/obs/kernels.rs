//! Kernel-launch timing and counting: a forwarding [`Backend`] wrapper
//! that counts every kernel launch per family and samples launch
//! latencies into per-family log2 histograms.
//!
//! [`Timed`] is the workspace's one record of kernel launches. It
//! forwards every call to a real backend unchanged and records *how
//! many* launches each family makes and *how long* they take (through
//! the single [`super::clock`] seam). Because the wrapped backend does
//! the numeric work verbatim, a `Timed(Simd)` run is bit-identical to a
//! bare `Simd` run — timing is observation only.
//!
//! Timing is **sampled**, not exhaustive: a traced run executes tens
//! of thousands of kernel launches per frame (the gather's row matcher
//! runs once per gathered row), and timing every one (two clock reads
//! plus shared-cache-line histogram traffic) once cost ~25% of the
//! whole graph leg. Each thread instead times the first of every
//! [`SAMPLE_EVERY`] launches of each family — the skip path is one
//! thread-local counter increment — which keeps the observability tax
//! under the snapshot's 2% gate while the hot families still collect
//! dozens of latency samples per traced tiny grid run. Histogram
//! `count()` therefore counts *samples*, not launches;
//! [`kernel_launches`] counts every launch, so a family's total kernel
//! time can be estimated as its sampled mean times its launches.
//!
//! The activation synthesiser runs on the bare backend even in a
//! traced run: a gather stage hands it [`untimed`]`(backend)`, looked
//! up once when the stage is built, in the task graph and the serial
//! walk alike. It generates the synthetic workload's activations, so
//! its kernels are not the concentration kernels this record is for,
//! and they made 573k of the 653k launches of a traced tiny fig09 grid
//! run, most of them 8-value noise fills of about 40 ns (below the
//! microsecond histograms' resolution). Wrapped, each launch paid the
//! counting and the extra dispatch, about 8 ns in situ. The `Synth`
//! node spans still time synthesis as a whole.
//!
//! The stage workspaces pick their backend through
//! [`super::kernel_backend`], which returns `timed(active())` when span
//! tracing is on and the bare backend when it is off, so the untraced
//! path never pays even the virtual-call indirection.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;

use focus_tensor::backend::{Backend, BackendHandle, MatchTile, RowRef};
use focus_tensor::f16;
use focus_tensor::matrix::Matrix;

use super::clock;
use super::hist::Histogram;

/// The kernel families timed individually — one histogram per family,
/// each covering the [`Backend`] methods named on its variant.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum KernelFamily {
    /// Norm launches (`segment_norms`): whole-row norms.
    Norms,
    /// Cosine launches (`segment_scores`): the production sweep's
    /// deferred fidelity probes and every whole-row cosine.
    Score,
    /// Matcher launches (`segment_match`): the production sweep's one
    /// launch per gathered row (segment norms, candidate cosines and
    /// the best-match fold).
    Match,
    /// INT8 fake-quantise round trips.
    FakeQuantize,
    /// FP16 rounding passes and FP16 row encodes (`f16_round`,
    /// `f16_encode`).
    F16Round,
    /// Deterministic-normal synthesis fill.
    NormalFill,
}

impl KernelFamily {
    /// Every family, in a stable order (indexing and iteration).
    pub const ALL: [KernelFamily; 6] = [
        KernelFamily::Norms,
        KernelFamily::Score,
        KernelFamily::Match,
        KernelFamily::FakeQuantize,
        KernelFamily::F16Round,
        KernelFamily::NormalFill,
    ];

    /// Stable display name (registry keys, `trace_run` output).
    pub fn name(self) -> &'static str {
        match self {
            KernelFamily::Norms => "norms",
            KernelFamily::Score => "score",
            KernelFamily::Match => "match",
            KernelFamily::FakeQuantize => "fake_quantize",
            KernelFamily::F16Round => "f16_round",
            KernelFamily::NormalFill => "normal_fill",
        }
    }

    fn index(self) -> usize {
        match self {
            KernelFamily::Norms => 0,
            KernelFamily::Score => 1,
            KernelFamily::Match => 2,
            KernelFamily::FakeQuantize => 3,
            KernelFamily::F16Round => 4,
            KernelFamily::NormalFill => 5,
        }
    }
}

/// Per-family launch-latency histograms, process-wide (kernel timing
/// is a property of the process's backends, not of one service).
static KERNEL_HISTS: [Histogram; KernelFamily::ALL.len()] = [
    Histogram::new(),
    Histogram::new(),
    Histogram::new(),
    Histogram::new(),
    Histogram::new(),
    Histogram::new(),
];

/// The launch-latency histogram of one kernel family (microseconds).
/// Counts are launch **samples** (1 in [`SAMPLE_EVERY`] per thread
/// and family), not total launches.
pub fn kernel_histogram(family: KernelFamily) -> &'static Histogram {
    &KERNEL_HISTS[family.index()]
}

/// Each thread times the first of every `SAMPLE_EVERY` launches of a
/// family. Power of two so the modulo is a mask. At 64, the samples'
/// clock reads and contended histogram updates cost about 1–2% of the
/// tiny fig09 graph leg (paired medians, `benches/batch.rs`); at 1024
/// that share is negligible, and the match family (63k launches per
/// traced grid run) still collects about 60 samples per run.
pub const SAMPLE_EVERY: u64 = 1024;

/// One thread's launch counters, one per family. Only the owning
/// thread writes them (a plain load and store, never a read-modify-write);
/// [`kernel_launches`] sums every thread's. Aligned past a cache line
/// pair so two threads' counters never share a line: every launch
/// stores to its thread's counter, and a shared line would bounce
/// between the workers' cores on each one.
#[derive(Default)]
#[repr(align(128))]
struct LaunchCounters([AtomicU64; KernelFamily::ALL.len()]);

/// Every thread's counters, registered at its first timed launch. The
/// counters are leaked, so a finished thread's launches stay counted.
static LAUNCH_COUNTERS: Mutex<Vec<&'static LaunchCounters>> = Mutex::new(Vec::new());

thread_local! {
    /// Per-thread, per-family launch ticks: the launch count and the
    /// sampling decision in one `u64` bump, the entire skip path. Each
    /// family counts its own launches, so every family is sampled 1 in
    /// [`SAMPLE_EVERY`] of *its* launches: a tick shared across
    /// families aliases with any periodic launch sequence (a family
    /// launched at a fixed offset in a period dividing `SAMPLE_EVERY`
    /// would be skipped every time). Per thread on purpose: a shared
    /// counter would put one contended cache line on every kernel
    /// launch of every worker, which is most of the overhead sampling
    /// exists to avoid.
    static LAUNCH_TICKS: &'static LaunchCounters = {
        let counters: &'static LaunchCounters = Box::leak(Box::default());
        // Every update is one push, so a poisoned list is still whole.
        LAUNCH_COUNTERS
            .lock()
            .unwrap_or_else(|p| p.into_inner())
            .push(counters);
        counters
    };
}

/// Every launch of `family` through a [`Timed`] wrapper so far, summed
/// over all threads (statistics only: relaxed reads, so a launch in
/// progress on another thread may or may not be included).
pub fn kernel_launches(family: KernelFamily) -> u64 {
    LAUNCH_COUNTERS
        .lock()
        .unwrap_or_else(|p| p.into_inner())
        .iter()
        .map(|counters| counters.0[family.index()].load(Ordering::Relaxed))
        .sum()
}

/// A timing-and-forwarding [`Backend`] wrapper: every kernel method
/// runs on the wrapped backend verbatim, with the wall time of sampled
/// launches (1 in [`SAMPLE_EVERY`] per thread and family) folded into
/// that family's histogram. Bit-invisible by construction.
#[derive(Debug)]
pub struct Timed {
    inner: BackendHandle,
}

impl Timed {
    /// Wraps `inner`; prefer [`timed`] which deduplicates wrappers.
    pub fn new(inner: BackendHandle) -> Self {
        Timed { inner }
    }

    /// The wrapped backend.
    pub fn inner(&self) -> BackendHandle {
        self.inner
    }

    fn time<R>(&self, family: KernelFamily, launch: impl FnOnce() -> R) -> R {
        let sampled = LAUNCH_TICKS.with(|ticks| {
            let tick = &ticks.0[family.index()];
            let n = tick.load(Ordering::Relaxed);
            tick.store(n.wrapping_add(1), Ordering::Relaxed);
            n % SAMPLE_EVERY == 0
        });
        if !sampled {
            return launch();
        }
        let t0 = clock::now_micros();
        let out = launch();
        KERNEL_HISTS[family.index()].record(clock::now_micros().saturating_sub(t0));
        out
    }
}

impl Backend for Timed {
    fn name(&self) -> &'static str {
        // Keep the wrapped backend's name: `Timed` changes no numeric
        // behaviour, and callers that branch on the name (tests, the
        // bench banner) must not see a different backend.
        self.inner.name()
    }

    fn segment_norms(&self, row: RowRef<'_>, seg: usize, segs: &[usize], out: &mut [f32]) {
        self.time(KernelFamily::Norms, || {
            self.inner.segment_norms(row, seg, segs, out)
        })
    }

    fn segment_scores(
        &self,
        a: RowRef<'_>,
        b: RowRef<'_>,
        seg: usize,
        segs: &[usize],
        a_norms: &[f32],
        b_norms: &[f32],
        out: &mut [f32],
    ) {
        self.time(KernelFamily::Score, || {
            self.inner
                .segment_scores(a, b, seg, segs, a_norms, b_norms, out)
        })
    }

    fn segment_match(
        &self,
        tile: &MatchTile<'_>,
        probe: usize,
        cands: &[u32],
        norms: &mut [f32],
        best: &mut [f32],
        best_cand: &mut [u32],
    ) {
        self.time(KernelFamily::Match, || {
            self.inner
                .segment_match(tile, probe, cands, norms, best, best_cand)
        })
    }

    fn fake_quantize(&self, m: &mut Matrix) {
        self.time(KernelFamily::FakeQuantize, || self.inner.fake_quantize(m))
    }

    fn f16_round(&self, m: &mut Matrix) {
        self.time(KernelFamily::F16Round, || self.inner.f16_round(m))
    }

    fn f16_encode(&self, src: &[f32], dst: &mut [f16]) {
        self.time(KernelFamily::F16Round, || self.inner.f16_encode(src, dst))
    }

    fn normal_fill(&self, seed: u64, out: &mut [f32]) {
        self.time(KernelFamily::NormalFill, || {
            self.inner.normal_fill(seed, out)
        })
    }
}

/// Every [`Timed`] wrapper made so far, with the backend it wraps.
static WRAPPERS: Mutex<Vec<(BackendHandle, &'static Timed)>> = Mutex::new(Vec::new());

/// A `'static` [`Timed`] wrapper around `inner`, deduplicated by the
/// wrapped backend's pointer identity so repeated calls never leak more
/// than one wrapper per distinct backend (the process has a handful of
/// backends, so the registry stays tiny).
pub fn timed(inner: BackendHandle) -> BackendHandle {
    let mut wrappers = WRAPPERS.lock().unwrap_or_else(|p| p.into_inner());
    if let Some((_, wrapper)) = wrappers
        .iter()
        .find(|(raw, _)| std::ptr::eq(*raw as *const dyn Backend, inner as *const dyn Backend))
    {
        return *wrapper;
    }
    let wrapper: &'static Timed = Box::leak(Box::new(Timed::new(inner)));
    wrappers.push((inner, wrapper));
    wrapper
}

/// The backend a [`timed`] wrapper forwards to, or `handle` itself
/// when it is no such wrapper.
pub fn untimed(handle: BackendHandle) -> BackendHandle {
    WRAPPERS
        .lock()
        .unwrap_or_else(|p| p.into_inner())
        .iter()
        .find(|(_, wrapper)| std::ptr::addr_eq(*wrapper as *const Timed, handle))
        .map_or(handle, |(inner, _)| *inner)
}

#[cfg(test)]
mod tests {
    use super::*;
    use focus_tensor::backend;

    /// The histograms are process-global; tests asserting exact counts
    /// must not interleave.
    static HIST_LOCK: Mutex<()> = Mutex::new(());

    #[test]
    fn timed_is_deduplicated_per_backend() {
        let inner = backend::active();
        let a = timed(inner);
        let b = timed(inner);
        assert!(
            std::ptr::eq(a as *const dyn Backend, b as *const dyn Backend),
            "same inner backend must reuse one wrapper"
        );
        assert_eq!(a.name(), inner.name(), "timing must not rename a backend");
    }

    #[test]
    fn untimed_unwraps_only_timed_wrappers() {
        let inner = backend::active();
        let wrapper = timed(inner);
        let same = |a: BackendHandle, b: BackendHandle| {
            std::ptr::addr_eq(a as *const dyn Backend, b as *const dyn Backend)
        };
        assert!(
            same(untimed(wrapper), inner),
            "a wrapper unwraps to its backend"
        );
        assert!(same(untimed(inner), inner), "a bare backend is its own");
    }

    #[test]
    fn timed_forwards_numerics_bit_exactly_and_times_the_family() {
        let _guard = HIST_LOCK.lock().unwrap_or_else(|p| p.into_inner());
        let inner = backend::active();
        let wrapper = timed(inner);
        let row = [1.0f32, -2.0, 3.0, 0.5];
        let (mut got, mut want) = ([0.0f32; 2], [0.0f32; 2]);
        wrapper.segment_norms(RowRef::F32(&row), 2, &[0, 1], &mut got);
        inner.segment_norms(RowRef::F32(&row), 2, &[0, 1], &mut want);
        assert_eq!(got.map(f32::to_bits), want.map(f32::to_bits));

        let before = kernel_histogram(KernelFamily::NormalFill).count();
        let mut a = [0.0f32; 64];
        let mut b = [0.0f32; 64];
        // A fresh thread starts its launch tick at 0, so its first
        // launch is always sampled.
        let bits: Vec<u32> = std::thread::spawn(move || {
            wrapper.normal_fill(7, &mut a);
            a.iter().map(|x| x.to_bits()).collect()
        })
        .join()
        .expect("fill thread");
        inner.normal_fill(7, &mut b);
        for (x, y) in bits.iter().zip(&b) {
            assert_eq!(*x, y.to_bits(), "timed fill diverged");
        }
        assert_eq!(
            kernel_histogram(KernelFamily::NormalFill).count(),
            before + 1,
            "a thread's first launch is sampled"
        );
    }

    #[test]
    fn launch_timing_samples_one_in_sample_every_per_thread() {
        let _guard = HIST_LOCK.lock().unwrap_or_else(|p| p.into_inner());
        let wrapper = timed(backend::active());
        let before = kernel_histogram(KernelFamily::NormalFill).count();
        std::thread::spawn(move || {
            let mut buf = [0.0f32; 8];
            for seed in 0..2 * SAMPLE_EVERY {
                wrapper.normal_fill(seed, &mut buf);
            }
        })
        .join()
        .expect("launch thread");
        assert_eq!(
            kernel_histogram(KernelFamily::NormalFill).count(),
            before + 2,
            "2×SAMPLE_EVERY launches on one fresh thread time exactly 2 samples"
        );
    }

    #[test]
    fn launches_count_every_call_while_samples_thin_them() {
        let _guard = HIST_LOCK.lock().unwrap_or_else(|p| p.into_inner());
        let wrapper = timed(backend::active());
        let calls = 2 * SAMPLE_EVERY + 5;
        let samples_before = kernel_histogram(KernelFamily::NormalFill).count();
        let launches_before = kernel_launches(KernelFamily::NormalFill);
        std::thread::spawn(move || {
            let mut buf = [0.0f32; 8];
            for seed in 0..calls {
                wrapper.normal_fill(seed, &mut buf);
            }
        })
        .join()
        .expect("launch thread");
        assert_eq!(
            kernel_launches(KernelFamily::NormalFill),
            launches_before + calls,
            "every launch is counted"
        );
        assert_eq!(
            kernel_histogram(KernelFamily::NormalFill).count(),
            samples_before + calls.div_ceil(SAMPLE_EVERY),
            "one sample per SAMPLE_EVERY launches, the first included"
        );
    }

    #[test]
    fn alternating_families_are_each_sampled() {
        // Two families interleaved with period 2: under one tick shared
        // by every family (SAMPLE_EVERY is even) the second family
        // would land on odd ticks and never be timed.
        let _guard = HIST_LOCK.lock().unwrap_or_else(|p| p.into_inner());
        let wrapper = timed(backend::active());
        let fill_before = kernel_histogram(KernelFamily::NormalFill).count();
        let round_before = kernel_histogram(KernelFamily::F16Round).count();
        std::thread::spawn(move || {
            let mut buf = [0.0f32; 8];
            let mut m = Matrix::zeros(1, 8);
            for seed in 0..2 * SAMPLE_EVERY {
                wrapper.normal_fill(seed, &mut buf);
                wrapper.f16_round(&mut m);
            }
        })
        .join()
        .expect("launch thread");
        assert_eq!(
            kernel_histogram(KernelFamily::NormalFill).count(),
            fill_before + 2
        );
        assert_eq!(
            kernel_histogram(KernelFamily::F16Round).count(),
            round_before + 2,
            "the second family of a periodic sequence must be sampled too"
        );
    }
}
