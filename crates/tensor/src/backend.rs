//! Pluggable execution backends for the hot stage kernels.
//!
//! The measured phase spends its time in three groups of kernels:
//! gather matching (the row-granular matcher plus the segment norm and
//! cosine kernels), the dtype kernels (INT8 fake-quantise round trip,
//! FP16 rounding and the FP16 store's row encode), and the
//! activation-synthesis fill. This module puts all of them behind one
//! [`Backend`] trait — the InfiniNN `VirtualMachine` pattern — with two
//! implementations:
//!
//! * [`ScalarRef`] — the chunked-scalar reference paths, kept as the
//!   bit-exactness oracle;
//! * [`Simd`] — the runtime-dispatched AVX2/F16C kernels from
//!   [`crate::math`] (the synthesis fill takes an AVX-512F+DQ tier
//!   before AVX2 where the CPU has it, sixteen lanes a pass), extended
//!   with the row-granular matcher ([`crate::math::segment_match`]: a
//!   probe row against up to seven candidates per register pass),
//!   segment-addressed scoring and norms (eight segments of two
//!   contiguous rows per register pass via [`crate::math::segment_dots`])
//!   and whole-row fake-quantise
//!   ([`crate::quant::fake_quantize_in_place_batched`]). **Bit-identical
//!   to [`ScalarRef`]** lane for lane under the frozen-op-order
//!   discipline (proptest-enforced in `tests/backend_kernels.rs`), so
//!   swapping backends never changes a result, only throughput.
//!
//! [`Backend::segment_match`] is the production gather sweep's one
//! launch per row: the row's segment norms, its cosines against every
//! planned candidate and the best-match fold. [`Backend::segment_norms`]
//! and [`Backend::segment_scores`] serve the sweep's deferred fidelity
//! probes and every other cosine or norm — the reference tile gather,
//! the baselines, the Fig. 2(b) similarity samples — as one segment
//! spanning the whole row, through [`row_norm`] and [`row_cosine`] or a
//! one-segment launch with caller-held norms. A single listed segment
//! always takes the chunked-scalar dot on either backend, so those
//! callers check the sweep's AVX2 passes with different code.
//!
//! A [`BackendHandle`] is the one place a kernel implementation is
//! chosen: callers that want the scalar path pass [`scalar_ref`]. The
//! process-wide default is selected once via the [`BACKEND_ENV`]
//! environment variable (`FOCUS_BACKEND=scalar|simd`) and cached by
//! [`active`]; pipelines, stages and workspaces can also carry an
//! explicit handle. Launches are counted and timed by wrapping a
//! handle (`focus_core::obs::kernels::Timed`), not by the backends.

use std::fmt;
use std::sync::OnceLock;

use crate::half::f16;
use crate::math;
use crate::matrix::Matrix;
use crate::quant;

/// Environment variable selecting the process-wide default backend
/// (`scalar` or `simd`). Unset means `simd` — which is safe as a
/// default precisely because it is bit-identical to `scalar`.
pub const BACKEND_ENV: &str = "FOCUS_BACKEND";

/// How backends are passed around: a `'static` trait-object reference,
/// so handles are `Copy`, and test-local wrappers (a counting backend,
/// say) can be created with `Box::leak`.
pub type BackendHandle = &'static dyn Backend;

/// One row operand of the segment kernels at its stored precision:
/// full-precision `f32`, or FP16 bits that the kernels widen exactly on
/// load. A row of any [`Matrix`] element type borrows as one through
/// [`Element::row_ref`](crate::matrix::Element::row_ref).
#[derive(Clone, Copy, Debug)]
pub enum RowRef<'a> {
    /// A row of `f32` values.
    F32(&'a [f32]),
    /// A row of FP16 bits.
    F16(&'a [f16]),
}

/// The rows a [`Backend::segment_match`] launch reads: one m-tile of
/// equally wide rows stored back to back, cut into `seg`-wide segments
/// (the last one ragged when `seg` does not divide the width), with
/// the tile's temporal carry flags and the match threshold.
#[derive(Clone, Copy, Debug)]
pub struct MatchTile<'a> {
    /// The tile's rows, `width` elements each, one after another.
    pub rows: RowRef<'a>,
    /// Elements per row.
    pub width: usize,
    /// Segment width.
    pub seg: usize,
    /// `carried[r · segments + s]`: segment `s` of tile row `r` is
    /// carried and takes no kernel work. Empty when nothing carries.
    pub carried: &'a [bool],
    /// The cosine a score must reach to match.
    pub threshold: f32,
}

impl<'a> MatchTile<'a> {
    /// Segments per row: `width / seg`, rounded up.
    pub fn segments(&self) -> usize {
        self.width.div_ceil(self.seg)
    }

    /// Row `r`'s carry flags, one per segment; empty when nothing
    /// carries. Segment `s` is carried iff `flags.get(s) == Some(&true)`.
    #[inline]
    pub fn carried_row(&self, r: usize) -> &'a [bool] {
        if self.carried.is_empty() {
            &[]
        } else {
            let n = self.segments();
            &self.carried[r * n..(r + 1) * n]
        }
    }
}

/// The stage-kernel surface. Every method is a whole kernel launch,
/// not a helper: callers hand the backend complete rows/matrices and
/// never open-code the inner loops, so a backend can batch however
/// it likes.
pub trait Backend: fmt::Debug + Sync {
    /// Stable lower-case name (`"scalar"`, `"simd"`).
    fn name(&self) -> &'static str;

    /// L2 norms of the listed `seg`-wide segments of `row` (the last
    /// segment ragged when `seg` does not divide the width):
    /// `out[s] = ‖row[s·seg..(s+1)·seg]‖` for every index `s` in `segs`,
    /// one slot per segment, unlisted slots untouched. An FP16 row is widened
    /// exactly on load, so its norms equal those of its widened f32
    /// copy. See [`math::segment_norms`].
    ///
    /// # Panics
    ///
    /// Panics if `seg` is 0, `out` does not hold exactly one slot per
    /// segment, or an index is out of range.
    fn segment_norms(&self, row: RowRef<'_>, seg: usize, segs: &[usize], out: &mut [f32]);

    /// Cosine scores of the listed segment pairs of two equally wide
    /// rows of one element type: `out[s] = cosine(a segment s, b
    /// segment s)` from the per-segment norms `a_norms[s]`,
    /// `b_norms[s]`, with the zero-norm and clamp conventions of
    /// [`math::cosine_from_dot`]. Unlisted slots stay untouched; see
    /// [`math::segment_cosines`]. The gather sweep's deferred fidelity
    /// probes, one launch per (row, representative).
    ///
    /// # Panics
    ///
    /// Panics if `a` and `b` differ in length or element type, `seg` is
    /// 0, the norm slices or `out` do not hold exactly one slot per
    /// segment, or an index is out of range.
    #[allow(clippy::too_many_arguments)] // two rows, their norms, the segment list and the sink
    fn segment_scores(
        &self,
        a: RowRef<'_>,
        b: RowRef<'_>,
        seg: usize,
        segs: &[usize],
        a_norms: &[f32],
        b_norms: &[f32],
        out: &mut [f32],
    );

    /// The row-granular matcher: one launch per probe row of the
    /// production gather sweep. For every segment `s` of row `probe`
    /// that is not carried, writes its L2 norm to
    /// `norms[probe · segments + s]`, then folds the cosine of every
    /// candidate row at `s` — in `cands` order, skipping a candidate
    /// carried at `s` — into `best[s]` and `best_cand[s]`: a score
    /// replaces the best so far when `cos >= threshold && cos > best`,
    /// so a tie keeps the earlier candidate and a NaN never matches.
    /// `best[s]` ends as the winning cosine (`NEG_INFINITY` when
    /// nothing matched, and at carried segments) and `best_cand[s]` as
    /// the winner's row index ([`math::NO_MATCH`] when nothing did).
    ///
    /// Candidate norms are read from `norms` (`rows × segments`,
    /// row-major), so each candidate's live segments must have been
    /// normed by an earlier launch; other slots stay untouched. Scores
    /// equal [`Backend::segment_scores`] over those norms bit for bit.
    /// A width-0 tile has no segments and the launch writes nothing.
    /// See [`math::segment_match`].
    ///
    /// # Panics
    ///
    /// Panics if `seg` is 0, the rows are not a whole number of
    /// `width`-wide rows, `carried` is neither empty nor one flag per
    /// segment of every row, `norms` does not hold one slot per
    /// segment of every row, `best` or `best_cand` does not hold one
    /// slot per segment, or a row index is out of range.
    fn segment_match(
        &self,
        tile: &MatchTile<'_>,
        probe: usize,
        cands: &[u32],
        norms: &mut [f32],
        best: &mut [f32],
        best_cand: &mut [u32],
    );

    /// In-place per-row INT8 fake-quantise round trip.
    fn fake_quantize(&self, m: &mut Matrix);

    /// In-place FP16 rounding of every element: the reference path's
    /// dtype pass over a full-precision buffer.
    fn f16_round(&self, m: &mut Matrix);

    /// Encodes one row to FP16 bits, `dst[i] = f16::from_f32(src[i])`:
    /// the FP16 store's write kernel, one launch per synthesised row.
    /// Widened, the bits equal what [`Backend::f16_round`] leaves in
    /// place (see [`math::f16_encode_fill`]).
    ///
    /// # Panics
    ///
    /// Panics if the lengths differ.
    fn f16_encode(&self, src: &[f32], dst: &mut [f16]);

    /// Fills `out` with the deterministic standard normals of the
    /// stream seeded at `seed` (the synthesis noise kernel).
    fn normal_fill(&self, seed: u64, out: &mut [f32]);
}

/// Runs `math`'s segment-norm kernel on `row` at its element type,
/// dispatched (`simd`) or chunked-scalar.
fn segment_norms_of(row: RowRef<'_>, seg: usize, segs: &[usize], out: &mut [f32], simd: bool) {
    match (row, simd) {
        (RowRef::F32(row), true) => math::segment_norms(row, seg, segs, out),
        (RowRef::F32(row), false) => math::segment_norms_scalar(row, seg, segs, out),
        (RowRef::F16(row), true) => math::segment_norms(row, seg, segs, out),
        (RowRef::F16(row), false) => math::segment_norms_scalar(row, seg, segs, out),
    }
}

/// Runs `math`'s segment-cosine kernel on two rows of one element
/// type, dispatched (`simd`) or chunked-scalar.
#[allow(clippy::too_many_arguments)] // the kernel's arguments plus the path switch
fn segment_scores_of(
    a: RowRef<'_>,
    b: RowRef<'_>,
    seg: usize,
    segs: &[usize],
    a_norms: &[f32],
    b_norms: &[f32],
    out: &mut [f32],
    simd: bool,
) {
    let (an, bn) = (a_norms, b_norms);
    match (a, b, simd) {
        (RowRef::F32(a), RowRef::F32(b), true) => {
            math::segment_cosines(a, b, seg, segs, an, bn, out)
        }
        (RowRef::F32(a), RowRef::F32(b), false) => {
            math::segment_cosines_scalar(a, b, seg, segs, an, bn, out)
        }
        (RowRef::F16(a), RowRef::F16(b), true) => {
            math::segment_cosines(a, b, seg, segs, an, bn, out)
        }
        (RowRef::F16(a), RowRef::F16(b), false) => {
            math::segment_cosines_scalar(a, b, seg, segs, an, bn, out)
        }
        _ => panic!("segment scores of mixed element types"),
    }
}

/// The explicitly-scalar reference backend: every kernel runs the
/// chunked-scalar path regardless of CPU features. The bit-exactness
/// oracle [`Simd`] is tested against.
#[derive(Debug)]
pub struct ScalarRef;

impl Backend for ScalarRef {
    fn name(&self) -> &'static str {
        "scalar"
    }

    fn segment_norms(&self, row: RowRef<'_>, seg: usize, segs: &[usize], out: &mut [f32]) {
        segment_norms_of(row, seg, segs, out, false);
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
        segment_scores_of(a, b, seg, segs, a_norms, b_norms, out, false);
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
        math::segment_match_scalar(tile, probe, cands, norms, best, best_cand);
    }

    fn fake_quantize(&self, m: &mut Matrix) {
        quant::fake_quantize_in_place(m);
    }

    fn f16_round(&self, m: &mut Matrix) {
        math::f16_round_fill_scalar(m.as_mut_slice());
    }

    fn f16_encode(&self, src: &[f32], dst: &mut [f16]) {
        math::f16_encode_fill_scalar(src, dst);
    }

    fn normal_fill(&self, seed: u64, out: &mut [f32]) {
        math::box_muller_fill_scalar(seed, out);
    }
}

/// The runtime-dispatched fast backend: AVX2/F16C when the CPU has
/// them (AVX-512F+DQ first for the synthesis fill), the chunked-scalar
/// fallback otherwise — always bit-identical to [`ScalarRef`]. The
/// matcher scores a probe against up to seven candidates per pass,
/// segment norms and scoring batch eight segments per pass, and
/// fake-quantise runs whole rows at once.
#[derive(Debug)]
pub struct Simd;

impl Backend for Simd {
    fn name(&self) -> &'static str {
        "simd"
    }

    fn segment_norms(&self, row: RowRef<'_>, seg: usize, segs: &[usize], out: &mut [f32]) {
        segment_norms_of(row, seg, segs, out, true);
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
        segment_scores_of(a, b, seg, segs, a_norms, b_norms, out, true);
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
        math::segment_match(tile, probe, cands, norms, best, best_cand);
    }

    fn fake_quantize(&self, m: &mut Matrix) {
        quant::fake_quantize_in_place_batched(m);
    }

    fn f16_round(&self, m: &mut Matrix) {
        math::f16_round_fill(m.as_mut_slice());
    }

    fn f16_encode(&self, src: &[f32], dst: &mut [f16]) {
        math::f16_encode_fill(src, dst);
    }

    fn normal_fill(&self, seed: u64, out: &mut [f32]) {
        math::box_muller_fill(seed, out);
    }
}

static SCALAR_REF: ScalarRef = ScalarRef;
static SIMD: Simd = Simd;

/// The [`ScalarRef`] oracle backend.
pub fn scalar_ref() -> BackendHandle {
    &SCALAR_REF
}

/// The runtime-dispatched [`Simd`] backend (the default).
pub fn simd() -> BackendHandle {
    &SIMD
}

/// The L2 norm of a whole row: one [`Backend::segment_norms`] launch
/// of a single segment spanning the row. An empty row has norm 0.
pub fn row_norm(backend: BackendHandle, row: &[f32]) -> f32 {
    let mut norm = [0.0f32];
    if !row.is_empty() {
        backend.segment_norms(RowRef::F32(row), row.len(), &[0], &mut norm);
    }
    norm[0]
}

/// The cosine of two equally wide rows, each taken as one segment
/// spanning it: [`row_norm`] of both, then one
/// [`Backend::segment_scores`] launch, with the conventions of
/// [`math::cosine_from_dot`]. Two empty rows score 1.0, like two zero
/// rows.
///
/// # Panics
///
/// Panics if the rows differ in length.
pub fn row_cosine(backend: BackendHandle, a: &[f32], b: &[f32]) -> f32 {
    assert_eq!(a.len(), b.len(), "cosine of mismatched lengths");
    let (na, nb) = ([row_norm(backend, a)], [row_norm(backend, b)]);
    let mut cos = [math::cosine_from_dot(0.0, 0.0, 0.0)];
    if !a.is_empty() {
        let (ra, rb) = (RowRef::F32(a), RowRef::F32(b));
        backend.segment_scores(ra, rb, a.len(), &[0], &na, &nb, &mut cos);
    }
    cos[0]
}

/// Which backend implementation a name selects.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum BackendKind {
    /// [`ScalarRef`].
    Scalar,
    /// [`Simd`].
    #[default]
    Simd,
}

impl BackendKind {
    /// The names [`BackendKind::parse`] accepts, for error messages.
    pub const VALID_FORMS: &'static str = "`scalar` or `simd`";

    /// Parses a backend name. Unknown names are an error naming the
    /// valid forms, never a silent fallback.
    pub fn parse(raw: &str) -> Result<BackendKind, String> {
        match raw {
            "scalar" => Ok(BackendKind::Scalar),
            "simd" => Ok(BackendKind::Simd),
            other => Err(format!(
                "unknown backend `{other}`; valid forms: {}",
                BackendKind::VALID_FORMS
            )),
        }
    }

    /// Reads [`BACKEND_ENV`]. `None` when unset; panics on a malformed
    /// value — an override someone bothered to set must never be
    /// silently reinterpreted.
    pub fn from_env() -> Option<BackendKind> {
        let raw = std::env::var(BACKEND_ENV).ok()?;
        match BackendKind::parse(&raw) {
            Ok(kind) => Some(kind),
            Err(why) => panic!("{BACKEND_ENV}={raw:?} rejected: {why}"),
        }
    }

    /// The handle this kind selects.
    pub fn handle(self) -> BackendHandle {
        match self {
            BackendKind::Scalar => scalar_ref(),
            BackendKind::Simd => simd(),
        }
    }
}

/// The process-wide default backend: [`BACKEND_ENV`] if set (resolved
/// once, first call wins), [`Simd`] otherwise.
pub fn active() -> BackendHandle {
    static ACTIVE: OnceLock<BackendHandle> = OnceLock::new();
    *ACTIVE.get_or_init(|| BackendKind::from_env().unwrap_or_default().handle())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parse_accepts_the_two_names() {
        assert_eq!(BackendKind::parse("scalar"), Ok(BackendKind::Scalar));
        assert_eq!(BackendKind::parse("simd"), Ok(BackendKind::Simd));
        for bad in ["trace", "avx512"] {
            let err = BackendKind::parse(bad).unwrap_err();
            assert!(
                err.contains(bad) && err.contains("`scalar` or `simd`"),
                "{err}"
            );
        }
    }

    #[test]
    fn handles_report_their_names() {
        assert_eq!(BackendKind::Scalar.handle().name(), "scalar");
        assert_eq!(BackendKind::Simd.handle().name(), "simd");
        assert_eq!(BackendKind::default(), BackendKind::Simd);
    }

    #[test]
    fn dot_and_norm_basics() {
        for be in [scalar_ref(), simd()] {
            assert_eq!(row_norm(be, &[3.0, 4.0]), 5.0, "{}", be.name());
            assert_eq!(row_norm(be, &[]), 0.0, "{}", be.name());
            let mut e = [0.0f32; 19];
            e[13] = 3.0;
            assert_eq!(row_norm(be, &e), 3.0, "{}", be.name());
        }
    }

    #[test]
    fn cosine_handles_zero_vectors() {
        for be in [scalar_ref(), simd()] {
            let name = be.name();
            assert_eq!(row_cosine(be, &[0.0, 0.0], &[0.0, 0.0]), 1.0, "{name}");
            assert_eq!(row_cosine(be, &[0.0, 0.0], &[1.0, 0.0]), 0.0, "{name}");
            assert_eq!(row_cosine(be, &[1.0, 0.0], &[0.0, 0.0]), 0.0, "{name}");
            assert_eq!(row_cosine(be, &[], &[]), 1.0, "{name}: empty rows");
            assert!((row_cosine(be, &[1.0, 1.0], &[-1.0, -1.0]) + 1.0).abs() < 1e-6);
            assert!((row_cosine(be, &[1.0, 0.0], &[2.0, 0.0]) - 1.0).abs() < 1e-6);
            assert!(row_cosine(be, &[1.0, 0.0], &[0.0, 1.0]).abs() < 1e-6);
            // Norms smaller than the true ones push the quotient past
            // ±1; the score clamps.
            let (a, b) = (RowRef::F32(&[2.0, 2.0]), RowRef::F32(&[-2.0, -2.0]));
            let mut cos = [0.0f32];
            be.segment_scores(a, a, 2, &[0], &[1.0], &[1.0], &mut cos);
            assert_eq!(cos, [1.0], "{name}: clamp from above");
            be.segment_scores(a, b, 2, &[0], &[1.0], &[1.0], &mut cos);
            assert_eq!(cos, [-1.0], "{name}: clamp from below");
        }
    }

    #[test]
    #[should_panic(expected = "mismatched lengths")]
    fn row_cosine_rejects_mismatched_widths() {
        row_cosine(simd(), &[], &[1.0]);
    }

    #[test]
    fn scalar_and_simd_agree_on_a_smoke_vector() {
        let row: Vec<f32> = (0..37).map(|i| (i as f32 * 0.37).sin()).collect();
        let cand: Vec<f32> = (0..37).map(|i| (i as f32 * 0.21).cos()).collect();
        let (s, f) = (scalar_ref(), simd());
        let all: Vec<usize> = (0..5).collect();
        let (mut na, mut nb, mut nf) = ([0.0f32; 5], [0.0f32; 5], [0.0f32; 5]);
        let (row, cand) = (RowRef::F32(&row), RowRef::F32(&cand));
        s.segment_norms(row, 8, &all, &mut na);
        s.segment_norms(cand, 8, &all, &mut nb);
        f.segment_norms(row, 8, &all, &mut nf);
        assert_eq!(na.map(f32::to_bits), nf.map(f32::to_bits));
        let mut a = [0.0f32; 5];
        let mut b = [0.0f32; 5];
        s.segment_scores(row, cand, 8, &all, &na, &nb, &mut a);
        f.segment_scores(row, cand, 8, &all, &na, &nb, &mut b);
        assert_eq!(a.map(f32::to_bits), b.map(f32::to_bits));
    }
}
