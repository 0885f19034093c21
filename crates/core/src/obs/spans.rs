//! Structured span recording for scheduler node executions.
//!
//! Every node a [`crate::exec::FocusService`] worker executes — `Sec`,
//! `Synth`, `Gather`, `FoldStats`, `Absorb`, `Lower`, `Finish` —
//! records one [`Span`] `{job, kind, layer, stage, worker, priority,
//! tag, t_start, t_end}` into that worker's [`SpanRing`]: a fixed-
//! capacity, overwrite-oldest ring of seqlock-published slots. The hot
//! path is allocation-free and lock-free (a ticket `fetch_add`, one
//! slot CAS, nine relaxed stores), and a writer that loses the slot
//! CAS to a lapping writer *drops* its span rather than tearing the
//! slot — rings are diagnostics, never a source of blocking.
//!
//! **Activation.** Tracing is compiled in but off: the disabled path
//! is the single relaxed atomic load in [`enabled`]. It turns on via
//! `FOCUS_TRACE=spans` (or `spans:CAPACITY` for a per-worker ring
//! capacity), or programmatically with [`activate`]/[`set_enabled`]
//! (the bench's traced-vs-untraced leg). Either switch is process-wide:
//! every service in the process records once it is on.
//!
//! **Bit-invisibility.** Recording is pure metadata — no numeric path
//! reads a span or a clock — so a traced run is bit-identical to an
//! untraced run (`tests/obs_trace.rs` proves it property-style across
//! exec modes and worker counts).

use std::sync::atomic::{fence, AtomicU64, AtomicU8, Ordering};
use std::sync::OnceLock;

use super::hist::Histogram;

/// Environment variable activating span tracing: `spans` (default
/// per-worker ring capacity) or `spans:CAPACITY`.
pub const TRACE_ENV: &str = "FOCUS_TRACE";

/// Environment variable naming the Chrome-trace JSON output path,
/// honoured by the `trace_run` bin and by [`crate::exec::FocusService`]
/// teardown (see [`super::chrome_trace::export_if_configured`]).
pub const TRACE_OUT_ENV: &str = "FOCUS_TRACE_OUT";

/// Span-tracing activation parameters.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct TraceConfig {
    /// Per-worker ring capacity in spans (≥ 1).
    pub capacity: usize,
}

impl Default for TraceConfig {
    fn default() -> Self {
        TraceConfig {
            capacity: TraceConfig::DEFAULT_CAPACITY,
        }
    }
}

impl TraceConfig {
    /// Per-worker ring capacity when none is given: deep enough to
    /// hold every node of a many-frame tiny-scale session, ~700 KiB
    /// per active worker.
    pub const DEFAULT_CAPACITY: usize = 8192;

    /// The forms [`TraceConfig::parse`] accepts, for error messages.
    pub const VALID_FORMS: &'static str = "`spans` or `spans:CAPACITY` (CAPACITY >= 1)";

    /// Parses a `FOCUS_TRACE` value: `spans` or `spans:CAPACITY`.
    /// Malformed input — a zero or non-numeric capacity, an unknown
    /// mode — is an error naming the valid forms, never a silent
    /// fallback.
    pub fn parse(s: &str) -> Result<TraceConfig, String> {
        let trimmed = s.trim();
        match trimmed {
            "spans" => Ok(TraceConfig::default()),
            other => {
                let Some(cap) = other.strip_prefix("spans:") else {
                    return Err(format!(
                        "unknown trace mode {other:?}; expected {}",
                        TraceConfig::VALID_FORMS
                    ));
                };
                match cap.parse::<usize>() {
                    Ok(0) => Err(format!(
                        "trace capacity must be >= 1, got {other:?}; expected {}",
                        TraceConfig::VALID_FORMS
                    )),
                    Ok(capacity) => Ok(TraceConfig { capacity }),
                    Err(e) => Err(format!(
                        "bad trace capacity {cap:?} ({e}); expected {}",
                        TraceConfig::VALID_FORMS
                    )),
                }
            }
        }
    }

    /// The tracing requested via [`TRACE_ENV`], if any.
    ///
    /// # Panics
    ///
    /// Panics when the variable is set but malformed — a silently
    /// ignored override would fake an observation.
    pub fn from_env() -> Option<TraceConfig> {
        let raw = std::env::var(TRACE_ENV).ok()?;
        match TraceConfig::parse(&raw) {
            Ok(cfg) => Some(cfg),
            Err(why) => panic!("{TRACE_ENV}={raw:?} rejected: {why}"),
        }
    }
}

/// The node kind of one recorded span — the public mirror of the
/// scheduler's node roles (`crate::exec::graph`'s `NodeKind`, which
/// stays crate-private).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum SpanKind {
    /// Semantic pruning of one layer.
    Sec,
    /// Activation synthesis for one (layer, stage).
    Synth,
    /// Similarity gather over the synthesised activations.
    Gather,
    /// Statistics fold of a layer's gathers.
    FoldStats,
    /// In-order absorption into the measured run.
    Absorb,
    /// The layer's GEMM lowering.
    Lower,
    /// Result assembly (+ optional cycle simulation).
    Finish,
}

impl SpanKind {
    /// Every kind, in scheduler-node order (indexing and iteration).
    pub const ALL: [SpanKind; 7] = [
        SpanKind::Sec,
        SpanKind::Synth,
        SpanKind::Gather,
        SpanKind::FoldStats,
        SpanKind::Absorb,
        SpanKind::Lower,
        SpanKind::Finish,
    ];

    /// Stable display name (Chrome-trace event names, registry keys).
    pub fn name(self) -> &'static str {
        match self {
            SpanKind::Sec => "sec",
            SpanKind::Synth => "synth",
            SpanKind::Gather => "gather",
            SpanKind::FoldStats => "fold_stats",
            SpanKind::Absorb => "absorb",
            SpanKind::Lower => "lower",
            SpanKind::Finish => "finish",
        }
    }

    /// Stable index into [`SpanKind::ALL`]-shaped tables.
    pub fn index(self) -> usize {
        match self {
            SpanKind::Sec => 0,
            SpanKind::Synth => 1,
            SpanKind::Gather => 2,
            SpanKind::FoldStats => 3,
            SpanKind::Absorb => 4,
            SpanKind::Lower => 5,
            SpanKind::Finish => 6,
        }
    }

    fn from_index(i: u64) -> Option<SpanKind> {
        SpanKind::ALL.get(i as usize).copied()
    }
}

/// The identity half of a span, attached to a scheduler task node at
/// graph-build time (the scheduler core itself is generic and only
/// knows labels, not pipeline roles).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct SpanLabel {
    /// Node kind.
    pub kind: SpanKind,
    /// Layer index, when the kind is per-layer (`None` for `Finish`).
    pub layer: Option<usize>,
    /// Gather-stage index, for `Synth`/`Gather` nodes.
    pub stage: Option<usize>,
}

impl SpanLabel {
    /// A label with neither layer nor stage.
    pub fn bare(kind: SpanKind) -> Self {
        SpanLabel {
            kind,
            layer: None,
            stage: None,
        }
    }
}

/// One recorded node execution.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Span {
    /// Admission id of the job the node belongs to (unique per
    /// scheduler core).
    pub job: u64,
    /// Node kind.
    pub kind: SpanKind,
    /// Layer index, when per-layer.
    pub layer: Option<usize>,
    /// Gather-stage index, for `Synth`/`Gather`.
    pub stage: Option<usize>,
    /// The worker slot that executed the node.
    pub worker: usize,
    /// The job's priority class ([`crate::exec::Priority`] index:
    /// 0 = High, 1 = Normal, 2 = Low).
    pub priority: usize,
    /// The task's virtual finish tag in the weighted fair queue.
    pub tag: u64,
    /// Start timestamp ([`super::clock::now_micros`]).
    pub t_start_us: u64,
    /// End timestamp; always `>= t_start_us` (same monotone clock).
    pub t_end_us: u64,
}

impl Span {
    /// Span duration in microseconds.
    pub fn duration_us(&self) -> u64 {
        self.t_end_us.saturating_sub(self.t_start_us)
    }
}

/// `None` encoded into a slot field.
const NONE_SENTINEL: u64 = u64::MAX;
/// Span fields per slot (see `encode`).
const FIELDS: usize = 9;

fn encode(span: &Span) -> [u64; FIELDS] {
    [
        span.job,
        span.kind.index() as u64,
        span.layer.map_or(NONE_SENTINEL, |l| l as u64),
        span.stage.map_or(NONE_SENTINEL, |s| s as u64),
        span.worker as u64,
        span.priority as u64,
        span.tag,
        span.t_start_us,
        span.t_end_us,
    ]
}

fn decode(data: [u64; FIELDS]) -> Option<Span> {
    Some(Span {
        job: data[0],
        kind: SpanKind::from_index(data[1])?,
        layer: (data[2] != NONE_SENTINEL).then_some(data[2] as usize),
        stage: (data[3] != NONE_SENTINEL).then_some(data[3] as usize),
        worker: data[4] as usize,
        priority: data[5] as usize,
        tag: data[6],
        t_start_us: data[7],
        t_end_us: data[8],
    })
}

/// One seqlock-published slot: `seq` is even when the slot holds a
/// complete span (0 = never written), odd while a writer owns it.
#[derive(Default)]
struct Slot {
    seq: AtomicU64,
    data: [AtomicU64; FIELDS],
}

/// A fixed-capacity, overwrite-oldest span ring.
///
/// Writers are lock-free: a ticket `fetch_add` claims the next slot,
/// one CAS takes the slot's seqlock, and a lost CAS (a concurrent
/// writer lapped onto the same slot) **drops** the span — counted in
/// [`SpanRing::dropped`] — instead of blocking or tearing. Readers
/// ([`SpanRing::snapshot`]) validate each slot's seqlock around the
/// field reads and skip slots that changed mid-read, so draining while
/// recording never yields a torn span.
pub struct SpanRing {
    slots: Box<[Slot]>,
    /// Monotone write tickets (total spans offered to this ring).
    head: AtomicU64,
    /// Spans dropped on slot contention.
    dropped: AtomicU64,
}

impl SpanRing {
    /// A ring of `capacity` (≥ 1) slots.
    pub fn new(capacity: usize) -> Self {
        SpanRing {
            slots: (0..capacity.max(1)).map(|_| Slot::default()).collect(),
            head: AtomicU64::new(0),
            dropped: AtomicU64::new(0),
        }
    }

    /// Slot capacity.
    pub fn capacity(&self) -> usize {
        self.slots.len()
    }

    /// Spans offered (recorded + dropped); `min(offered, capacity)`
    /// minus in-flight writes is what a snapshot can observe.
    pub fn offered(&self) -> u64 {
        self.head.load(Ordering::Relaxed)
    }

    /// Spans dropped on slot contention (non-zero only when writers
    /// race a full lap apart — diagnostics, not data loss).
    pub fn dropped(&self) -> u64 {
        self.dropped.load(Ordering::Relaxed)
    }

    /// Records one span: claim a ticket, seqlock the slot, publish.
    /// Allocation-free and wait-free (contended slots drop).
    pub fn record(&self, span: &Span) {
        let ticket = self.head.fetch_add(1, Ordering::Relaxed);
        let slot = &self.slots[(ticket % self.slots.len() as u64) as usize];
        let seq = slot.seq.load(Ordering::Relaxed);
        if seq & 1 == 1
            || slot
                .seq
                .compare_exchange(seq, seq + 1, Ordering::Acquire, Ordering::Relaxed)
                .is_err()
        {
            self.dropped.fetch_add(1, Ordering::Relaxed);
            return;
        }
        fence(Ordering::Release);
        for (field, value) in slot.data.iter().zip(encode(span)) {
            field.store(value, Ordering::Relaxed);
        }
        slot.seq.store(seq + 2, Ordering::Release);
    }

    /// Every complete span currently in the ring, oldest slot first.
    /// Safe to call while writers record: slots mid-write (or rewritten
    /// during the read) are skipped, never torn.
    pub fn snapshot(&self) -> Vec<Span> {
        let mut out = Vec::with_capacity(self.slots.len());
        for slot in self.slots.iter() {
            let before = slot.seq.load(Ordering::Acquire);
            if before == 0 || before & 1 == 1 {
                continue;
            }
            let mut data = [0u64; FIELDS];
            for (dst, field) in data.iter_mut().zip(slot.data.iter()) {
                *dst = field.load(Ordering::Relaxed);
            }
            fence(Ordering::Acquire);
            if slot.seq.load(Ordering::Relaxed) != before {
                continue;
            }
            if let Some(span) = decode(data) {
                out.push(span);
            }
        }
        out
    }
}

/// Per-worker span rings plus the per-node-kind latency histograms.
///
/// Worker slots materialise their ring on first use (one allocation,
/// then the hot path is ring writes only); worker indices past
/// [`SpanRecorder::MAX_WORKERS`] record into the last ring.
pub struct SpanRecorder {
    rings: Box<[OnceLock<SpanRing>]>,
    capacity: usize,
    node_hists: [Histogram; SpanKind::ALL.len()],
}

impl SpanRecorder {
    /// Worker slots tracked individually.
    pub const MAX_WORKERS: usize = 128;

    fn new(config: TraceConfig) -> Self {
        SpanRecorder {
            rings: (0..SpanRecorder::MAX_WORKERS)
                .map(|_| OnceLock::new())
                .collect(),
            capacity: config.capacity.max(1),
            node_hists: std::array::from_fn(|_| Histogram::new()),
        }
    }

    /// Per-worker ring capacity this recorder was activated with.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    fn ring_of(&self, worker: usize) -> &SpanRing {
        self.rings[worker.min(SpanRecorder::MAX_WORKERS - 1)]
            .get_or_init(|| SpanRing::new(self.capacity))
    }

    /// Records one span into `span.worker`'s ring and folds its
    /// duration into the node-kind histogram.
    pub fn record(&self, span: &Span) {
        self.ring_of(span.worker).record(span);
        self.node_hists[span.kind.index()].record(span.duration_us());
    }

    /// The latency histogram of one node kind.
    pub fn node_histogram(&self, kind: SpanKind) -> &Histogram {
        &self.node_hists[kind.index()]
    }

    /// Drains every worker ring into one list, ordered by start time
    /// (ties by worker). Non-destructive and safe against concurrent
    /// recording — see [`SpanRing::snapshot`].
    pub fn drain_ordered(&self) -> Vec<Span> {
        let mut spans: Vec<Span> = self
            .rings
            .iter()
            .filter_map(OnceLock::get)
            .flat_map(SpanRing::snapshot)
            .collect();
        spans.sort_by_key(|s| (s.t_start_us, s.worker, s.t_end_us));
        spans
    }

    /// Total spans offered across every ring (recorded + dropped).
    pub fn offered(&self) -> u64 {
        self.rings
            .iter()
            .filter_map(OnceLock::get)
            .map(SpanRing::offered)
            .sum()
    }

    /// Total spans dropped on slot contention across every ring.
    pub fn dropped(&self) -> u64 {
        self.rings
            .iter()
            .filter_map(OnceLock::get)
            .map(SpanRing::dropped)
            .sum()
    }
}

/// Tri-state activation flag: the disabled hot path is one relaxed
/// load of this.
const STATE_UNKNOWN: u8 = 0;
const STATE_OFF: u8 = 1;
const STATE_ON: u8 = 2;
static STATE: AtomicU8 = AtomicU8::new(STATE_UNKNOWN);
static RECORDER: OnceLock<SpanRecorder> = OnceLock::new();

/// Whether span tracing is on. The compiled-in-but-disabled path is
/// exactly this single relaxed atomic load; the first call consults
/// [`TRACE_ENV`] once.
#[inline]
pub fn enabled() -> bool {
    match STATE.load(Ordering::Relaxed) {
        STATE_ON => true,
        STATE_OFF => false,
        _ => init_from_env(),
    }
}

#[cold]
fn init_from_env() -> bool {
    match TraceConfig::from_env() {
        Some(cfg) => {
            activate(cfg);
            true
        }
        None => {
            // Another thread may have activated concurrently; never
            // downgrade ON to OFF from the env fallback.
            let _ = STATE.compare_exchange(
                STATE_UNKNOWN,
                STATE_OFF,
                Ordering::Relaxed,
                Ordering::Relaxed,
            );
            STATE.load(Ordering::Relaxed) == STATE_ON
        }
    }
}

/// Turns span tracing on with `config`. The recorder is created once
/// per process — a second activation with a different capacity keeps
/// the first recorder (rings are already live).
pub fn activate(config: TraceConfig) {
    let _ = RECORDER.get_or_init(|| SpanRecorder::new(config));
    STATE.store(STATE_ON, Ordering::Relaxed);
}

/// Toggles recording without dropping the recorder (the bench's
/// traced-vs-untraced comparison and the bit-identity proptest flip
/// this). Enabling without a prior [`activate`] activates with the
/// default config.
pub fn set_enabled(on: bool) {
    if on {
        activate(TraceConfig::default());
    } else {
        STATE.store(STATE_OFF, Ordering::Relaxed);
    }
}

/// The process recorder, if tracing was ever activated.
pub fn recorder() -> Option<&'static SpanRecorder> {
    RECORDER.get()
}

/// Records one node span (called by the scheduler core with
/// [`enabled`] already checked; harmless no-op if tracing was never
/// activated).
pub fn record(span: &Span) {
    if let Some(rec) = RECORDER.get() {
        rec.record(span);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicBool;

    fn span(job: u64, worker: usize, t0: u64, t1: u64) -> Span {
        Span {
            job,
            kind: SpanKind::Gather,
            layer: Some(3),
            stage: Some(1),
            worker,
            priority: 1,
            tag: 42,
            t_start_us: t0,
            t_end_us: t1,
        }
    }

    #[test]
    fn parse_accepts_the_valid_forms_and_rejects_junk() {
        assert_eq!(
            TraceConfig::parse("spans"),
            Ok(TraceConfig {
                capacity: TraceConfig::DEFAULT_CAPACITY
            })
        );
        assert_eq!(
            TraceConfig::parse(" spans:16 "),
            Ok(TraceConfig { capacity: 16 })
        );
        for bad in ["", "span", "spans:", "spans:0", "spans:x", "spans:16y"] {
            let err = TraceConfig::parse(bad).expect_err(bad);
            assert!(err.contains(TraceConfig::VALID_FORMS), "{bad}: {err}");
        }
    }

    #[test]
    fn ring_roundtrips_a_span() {
        let ring = SpanRing::new(8);
        let s = span(7, 2, 10, 25);
        ring.record(&s);
        assert_eq!(ring.snapshot(), vec![s]);
        assert_eq!(ring.offered(), 1);
        assert_eq!(ring.dropped(), 0);
    }

    #[test]
    fn ring_wraparound_keeps_the_newest_capacity_spans() {
        let cap = 4;
        let ring = SpanRing::new(cap);
        for i in 0..11u64 {
            ring.record(&span(i, 0, i * 10, i * 10 + 5));
        }
        let mut jobs: Vec<u64> = ring.snapshot().iter().map(|s| s.job).collect();
        jobs.sort_unstable();
        // 11 spans through 4 slots: the survivors are the last 4.
        assert_eq!(jobs, vec![7, 8, 9, 10]);
        assert_eq!(ring.offered(), 11);
        assert_eq!(ring.dropped(), 0);
    }

    #[test]
    fn concurrent_writers_never_tear_a_slot() {
        let ring = SpanRing::new(3); // tiny: force heavy lapping
        const WRITERS: u64 = 4;
        const PER_WRITER: u64 = 2000;
        std::thread::scope(|scope| {
            for w in 0..WRITERS {
                let ring = &ring;
                scope.spawn(move || {
                    for i in 0..PER_WRITER {
                        // Encode a checkable invariant across fields:
                        // job == tag == t_start, t_end = t_start + 1.
                        let t = w * PER_WRITER + i;
                        ring.record(&Span {
                            job: t,
                            kind: SpanKind::ALL[(t % 7) as usize],
                            layer: Some(t as usize),
                            stage: None,
                            worker: w as usize,
                            priority: 0,
                            tag: t,
                            t_start_us: t,
                            t_end_us: t + 1,
                        });
                    }
                });
            }
        });
        assert_eq!(ring.offered(), WRITERS * PER_WRITER);
        for s in ring.snapshot() {
            assert_eq!(s.job, s.tag, "torn slot: {s:?}");
            assert_eq!(s.job, s.t_start_us, "torn slot: {s:?}");
            assert_eq!(s.t_end_us, s.t_start_us + 1, "torn slot: {s:?}");
            assert_eq!(s.layer, Some(s.job as usize), "torn slot: {s:?}");
            assert_eq!(s.kind, SpanKind::ALL[(s.job % 7) as usize]);
        }
    }

    #[test]
    fn drain_while_recording_yields_only_complete_spans() {
        let ring = SpanRing::new(16);
        let stop = AtomicBool::new(false);
        std::thread::scope(|scope| {
            let writer = scope.spawn(|| {
                for i in 0..20_000u64 {
                    ring.record(&span(i, 0, i, i + 3));
                }
                stop.store(true, Ordering::Release);
            });
            let mut snapshots = 0u64;
            while !stop.load(Ordering::Acquire) {
                for s in ring.snapshot() {
                    assert_eq!(s.t_end_us, s.t_start_us + 3, "torn read: {s:?}");
                    assert_eq!(s.job, s.t_start_us, "torn read: {s:?}");
                }
                snapshots += 1;
            }
            writer.join().expect("writer");
            assert!(snapshots > 0);
        });
    }

    #[test]
    fn recorder_orders_across_workers_and_feeds_histograms() {
        let rec = SpanRecorder::new(TraceConfig { capacity: 32 });
        rec.record(&span(1, 3, 100, 150));
        rec.record(&span(0, 1, 40, 90));
        rec.record(&span(2, 0, 200, 260));
        let drained = rec.drain_ordered();
        assert_eq!(
            drained.iter().map(|s| s.job).collect::<Vec<_>>(),
            vec![0, 1, 2],
            "ordered by start time"
        );
        let h = rec.node_histogram(SpanKind::Gather);
        assert_eq!(h.count(), 3);
        assert_eq!(h.max(), 60);
        assert_eq!(rec.offered(), 3);
        assert_eq!(rec.dropped(), 0);
    }
}
