//! Fixture: a baseline scoring a cosine straight through `math::`.
//! Expected: exactly one `D2-kernel` — every crate outside
//! `crates/tensor` scores through a `BackendHandle`, so the process
//! backend choice reaches it.

pub fn score(a: &[f32], b: &[f32], out: &mut [f32]) {
    focus_tensor::math::segment_dots(a, b, a.len(), &[0], out);
}
