//! Fixture: an open-coded kernel call in the scheduler layer.
//! Expected: exactly one `D2-kernel` — exec/ routes float inner loops
//! through a `BackendHandle`, never straight into `math::`.

pub fn synth(xs: &mut [f32]) {
    focus_tensor::math::box_muller_fill(7, xs);
}
