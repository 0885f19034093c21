//! Fixture: the two non-dispatched `math::` helpers every crate may
//! use. Expected: nothing — neither has a kernel or a backend choice
//! behind it.

pub fn draw(r1: u64, r2: u64) -> (f32, u64) {
    let next = r2.wrapping_add(focus_tensor::math::GAMMA);
    (focus_tensor::math::normal_from_raw(r1, r2), next)
}
