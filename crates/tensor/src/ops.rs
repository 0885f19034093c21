//! Vector specifications and helpers shared across the workspace.
//!
//! The semantic concentrator (paper §V-A) consumes softmax attention
//! rows and selects tokens by top-k; the similarity concentrator (paper
//! §VI-A) cuts rows into vectors. These are the reference definitions
//! both the algorithm pipeline and the hardware models call. Cosine
//! similarity and L2 norms are kernels, not helpers: they run on a
//! [`BackendHandle`](crate::backend::BackendHandle), through
//! [`row_cosine`](crate::backend::row_cosine) and
//! [`row_norm`](crate::backend::row_norm) for whole rows.

/// Numerically stable softmax over a slice, in place.
///
/// An empty slice is left untouched. All-(-inf) rows become uniform.
pub fn softmax_in_place(row: &mut [f32]) {
    if row.is_empty() {
        return;
    }
    let max = row.iter().cloned().fold(f32::NEG_INFINITY, f32::max);
    if !max.is_finite() {
        let u = 1.0 / row.len() as f32;
        row.fill(u);
        return;
    }
    let mut sum = 0.0;
    for v in row.iter_mut() {
        // focus-lint: allow(D1-libm) — reference transformer op: one definition feeds every
        // schedule and backend identically, so libm variance can shift goldens across
        // platforms but can never split schedules within a run.
        *v = (*v - max).exp();
        sum += *v;
    }
    for v in row.iter_mut() {
        *v /= sum;
    }
}

/// Splits a row of length `len` into `ceil(len / vector_len)` vectors,
/// returning the half-open element ranges. The last vector may be short —
/// the paper's hidden size 3584 divides evenly by 32, but the sweep in
/// Fig. 10(b) visits sizes that do not.
pub fn vector_ranges(len: usize, vector_len: usize) -> Vec<core::ops::Range<usize>> {
    assert!(vector_len > 0, "vector_len must be positive");
    (0..len)
        .step_by(vector_len)
        .map(|start| start..(start + vector_len).min(len))
        .collect()
}

/// Returns the indices of the `k` largest values of `scores`, in
/// descending score order, with index order breaking ties (lower index
/// wins). This is the functional specification the streaming top-k bubble
/// sorter is tested against.
pub fn top_k_indices(scores: &[f32], k: usize) -> Vec<usize> {
    let cmp = |a: &usize, b: &usize| {
        scores[*b]
            .partial_cmp(&scores[*a])
            .unwrap_or(core::cmp::Ordering::Equal)
            .then(a.cmp(b))
    };
    let mut idx: Vec<usize> = (0..scores.len()).collect();
    if k == 0 {
        return Vec::new();
    }
    if k < idx.len() {
        // Partial selection: O(n) to split off the k best, then sort
        // only those. The index tiebreak makes `cmp` a strict total
        // order (comparable scores never leave ties), so the selected
        // prefix and its sorted order match the old full sort exactly.
        idx.select_nth_unstable_by(k - 1, cmp);
        idx.truncate(k);
    }
    idx.sort_by(cmp);
    idx
}

/// Geometric mean of a slice of positive values; returns 0 for an empty
/// slice.
pub fn geometric_mean(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    // focus-lint: allow(D1-libm) — f64 accuracy *reporting* (geomean of scores); never on
    // the bit-deterministic kernel surface.
    let log_sum: f64 = values.iter().map(|v| v.max(1e-300).ln()).sum();
    // focus-lint: allow(D1-libm) — same reporting path as the ln above.
    (log_sum / values.len() as f64).exp()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn softmax_is_a_probability_distribution() {
        let mut row = vec![1.0, 2.0, 3.0, 4.0];
        softmax_in_place(&mut row);
        let sum: f32 = row.iter().sum();
        assert!((sum - 1.0).abs() < 1e-5);
        assert!(row.windows(2).all(|w| w[0] < w[1]), "monotone in logits");
    }

    #[test]
    fn softmax_is_shift_invariant_and_stable() {
        let mut a = vec![1000.0, 1001.0, 1002.0];
        let mut b = vec![0.0, 1.0, 2.0];
        softmax_in_place(&mut a);
        softmax_in_place(&mut b);
        for (x, y) in a.iter().zip(&b) {
            assert!((x - y).abs() < 1e-5);
            assert!(x.is_finite());
        }
    }

    #[test]
    fn vector_ranges_partition_exactly() {
        let ranges = vector_ranges(100, 32);
        assert_eq!(ranges.len(), 4);
        assert_eq!(ranges[3], 96..100);
        let total: usize = ranges.iter().map(|r| r.len()).sum();
        assert_eq!(total, 100);
        // Even split.
        assert_eq!(vector_ranges(3584, 32).len(), 112);
    }

    #[test]
    fn top_k_orders_by_score_then_index() {
        let scores = [0.1, 0.9, 0.9, 0.5];
        assert_eq!(top_k_indices(&scores, 3), vec![1, 2, 3]);
        assert_eq!(top_k_indices(&scores, 0), Vec::<usize>::new());
        assert_eq!(top_k_indices(&scores, 10).len(), 4, "k clamps to len");
        // A tie straddling the selection boundary: lower index wins the
        // last slot, and the kept prefix comes back fully ordered.
        let many = [5.0, 1.0, 3.0, 3.0, 2.0, 3.0, 4.0, 0.0];
        assert_eq!(top_k_indices(&many, 4), vec![0, 6, 2, 3]);
        assert_eq!(top_k_indices(&many, 8), vec![0, 6, 2, 3, 5, 4, 1, 7]);
    }

    #[test]
    fn geometric_mean_of_known_values() {
        assert!((geometric_mean(&[2.0, 8.0]) - 4.0).abs() < 1e-9);
        assert_eq!(geometric_mean(&[]), 0.0);
    }
}
