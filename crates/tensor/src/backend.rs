//! Pluggable execution backends for the hot stage kernels.
//!
//! The measured phase spends its time in five kernel families: gather
//! candidate scoring (dot + cosine-with-norms over planned candidate
//! lists), compact-norm computation, the dtype kernels (INT8
//! fake-quantise round trip, FP16 rounding and the FP16 store's row
//! encode), scatter row replay, and the activation-synthesis fill.
//! This module puts all five behind one [`Backend`] trait — the
//! InfiniNN `VirtualMachine` pattern — with two implementations:
//!
//! * [`ScalarRef`] — the chunked-scalar reference paths, kept as the
//!   bit-exactness oracle;
//! * [`Simd`] — the runtime-dispatched AVX2/F16C kernels from
//!   [`crate::math`] (the synthesis fill takes an AVX-512F+DQ tier
//!   before AVX2 where the CPU has it, sixteen lanes a pass), extended
//!   with segment-addressed gather scoring
//!   and norms (eight segments of two contiguous rows per register
//!   pass via [`crate::math::segment_dots`]; the reference tile gather's
//!   pair launches batch eight pairs or rows the same way through
//!   [`crate::math::dot_pairs_chunked`] and
//!   [`crate::math::l2_norms_chunked`]) and whole-row fake-quantise
//!   ([`crate::quant::fake_quantize_in_place_batched`]). **Bit-identical
//!   to [`ScalarRef`]** lane for lane under the frozen-op-order
//!   discipline (proptest-enforced in `tests/backend_kernels.rs`), so
//!   swapping backends never changes a result, only throughput.
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
    /// one slot per segment, unlisted slots untouched — the production
    /// gather sweep's one norm launch per row. An FP16 row is widened
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
    /// [`math::segment_cosines`]. The production gather sweep's one
    /// scoring launch per (row, candidate).
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

    /// Batched L2 norms of equally-wide rows in one launch — the
    /// reference tile gather's compact-norm pre-pass, where the SIMD
    /// backend keeps eight rows' accumulator chains in flight per pass.
    ///
    /// # Panics
    ///
    /// Panics if `rows` and `out` differ in length or row widths are
    /// mixed.
    fn row_norms(&self, rows: &[&[f32]], out: &mut [f32]);

    /// Batched cosine scores of independent equally-wide pairs:
    /// `scores[i] = cosine(a[i], b[i])` with caller-supplied norms and
    /// the zero-norm conventions of
    /// [`math::cosine_with_norms_chunked`] — the reference tile
    /// gather's scoring launch, covering every `(row, candidate)` probe
    /// of a tile at once.
    ///
    /// # Panics
    ///
    /// Panics if the five slices disagree on pair count or any slice
    /// differs in width from the first.
    fn score_pairs(
        &self,
        a: &[&[f32]],
        a_norms: &[f32],
        b: &[&[f32]],
        b_norms: &[f32],
        scores: &mut [f32],
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

    /// Replays compact rows to full positions: row `i` of `out` becomes
    /// row `reps[i]` of `partial`.
    ///
    /// # Panics
    ///
    /// Panics if `reps` and `out` disagree on row count, any index is
    /// out of bounds of `partial`, or the column counts differ.
    fn scatter_rows(&self, partial: &Matrix, reps: &[u32], out: &mut Matrix);

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

fn scatter_rows_copy(partial: &Matrix, reps: &[u32], out: &mut Matrix) {
    assert_eq!(reps.len(), out.rows(), "one representative per output row");
    assert_eq!(partial.cols(), out.cols(), "scatter of mismatched widths");
    for (i, &rep) in reps.iter().enumerate() {
        out.row_mut(i).copy_from_slice(partial.row(rep as usize));
    }
}

fn assert_pair_shapes(
    a: &[&[f32]],
    a_norms: &[f32],
    b: &[&[f32]],
    b_norms: &[f32],
    scores: &[f32],
) {
    assert_eq!(a.len(), b.len(), "one left row per right row");
    assert_eq!(a.len(), a_norms.len(), "one norm per left row");
    assert_eq!(b.len(), b_norms.len(), "one norm per right row");
    assert_eq!(a.len(), scores.len(), "one score slot per pair");
    let n = a.first().map_or(0, |s| s.len());
    for (x, y) in a.iter().zip(b) {
        assert_eq!(x.len(), n, "pair width mismatch");
        assert_eq!(y.len(), n, "pair width mismatch");
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

    fn row_norms(&self, rows: &[&[f32]], out: &mut [f32]) {
        math::l2_norms_chunked_scalar(rows, out);
    }

    fn score_pairs(
        &self,
        a: &[&[f32]],
        a_norms: &[f32],
        b: &[&[f32]],
        b_norms: &[f32],
        scores: &mut [f32],
    ) {
        assert_pair_shapes(a, a_norms, b, b_norms, scores);
        for i in 0..a.len() {
            scores[i] = math::cosine_with_norms_chunked_scalar(a[i], a_norms[i], b[i], b_norms[i]);
        }
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

    fn scatter_rows(&self, partial: &Matrix, reps: &[u32], out: &mut Matrix) {
        scatter_rows_copy(partial, reps, out);
    }

    fn normal_fill(&self, seed: u64, out: &mut [f32]) {
        math::box_muller_fill_scalar(seed, out);
    }
}

/// The runtime-dispatched fast backend: AVX2/F16C when the CPU has
/// them (AVX-512F+DQ first for the synthesis fill), the chunked-scalar
/// fallback otherwise — always bit-identical to [`ScalarRef`]. Gather norms and scoring batch eight segments,
/// rows or pairs per pass and fake-quantise runs whole rows at once.
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

    fn row_norms(&self, rows: &[&[f32]], out: &mut [f32]) {
        math::l2_norms_chunked(rows, out);
    }

    fn score_pairs(
        &self,
        a: &[&[f32]],
        a_norms: &[f32],
        b: &[&[f32]],
        b_norms: &[f32],
        scores: &mut [f32],
    ) {
        assert_pair_shapes(a, a_norms, b, b_norms, scores);
        // Batched dots first (eight independent pairs per pass), then
        // the zero-norm conventions — for a zero norm the dot is
        // ignored, so computing it eagerly cannot change any score.
        math::dot_pairs_chunked(a, b, scores);
        for (i, score) in scores.iter_mut().enumerate() {
            *score = math::cosine_from_dot(*score, a_norms[i], b_norms[i]);
        }
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

    fn scatter_rows(&self, partial: &Matrix, reps: &[u32], out: &mut Matrix) {
        scatter_rows_copy(partial, reps, out);
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
