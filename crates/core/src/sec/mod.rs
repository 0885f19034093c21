//! Semantic Concentrator (SEC, paper §V).
//!
//! Token-level pruning driven by cross-modal attention: the
//! [`ImportanceAnalyzer`] folds the text→image attention block into one
//! importance score per image token, the [`TopKSorter`] selects the
//! schedule's top-k on the fly, and the [`OffsetEncoding`] preserves
//! the retained tokens' positions for the similarity concentrator
//! downstream. Pruned tokens are never loaded again: every subsequent
//! layer's GEMMs shrink from `M` to `S` rows.

pub mod importance;
pub mod offset;
pub mod policy;
pub mod topk;

pub use importance::{AnalyzerStats, ImportanceAnalyzer};
pub use offset::OffsetEncoding;
pub use policy::{SelectionOutcome, SelectionPolicy};
pub use topk::{overlap_ratio, TopKResult, TopKSorter};

use focus_tensor::Matrix;

/// Outcome of one semantic pruning step.
#[derive(Clone, Debug, PartialEq)]
pub struct PruneOutcome {
    /// Retained token indices (into the *pre-pruning* retained set),
    /// ascending, so downstream order matches the stream order.
    pub kept_local: Vec<usize>,
    /// Importance score of every candidate token.
    pub importance: Vec<f32>,
    /// Offset encoding of the retained tokens' *global* indices.
    pub offsets: OffsetEncoding,
    /// Analyzer statistics.
    pub analyzer: AnalyzerStats,
    /// Sorter cycles.
    pub sorter_cycles: u64,
    /// Sorter compare ops.
    pub sorter_ops: u64,
}

/// The semantic concentrator: analyzer + sorter + offset encoder.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct SemanticConcentrator {
    analyzer: ImportanceAnalyzer,
    sorter: TopKSorter,
}

impl SemanticConcentrator {
    /// Creates a SEC with `ways` parallel max units (Table I: 32).
    pub fn new(ways: usize) -> Self {
        SemanticConcentrator {
            analyzer: ImportanceAnalyzer::new(ways),
            sorter: TopKSorter::new(ways),
        }
    }

    /// Performs one pruning step.
    ///
    /// * `heads` — per-head text→image attention blocks (`T × M'`),
    ///   where `M'` is the current retained-token count;
    /// * `global_indices` — the global token index of each of the `M'`
    ///   candidates (needed for offset encoding);
    /// * `k` — number of tokens to retain.
    ///
    /// # Panics
    ///
    /// Panics if `global_indices.len()` differs from the heads' column
    /// count.
    pub fn prune(&self, heads: &[Matrix], global_indices: &[usize], k: usize) -> PruneOutcome {
        if let Some(first) = heads.first() {
            assert_eq!(
                first.cols(),
                global_indices.len(),
                "candidate count mismatch"
            );
        }
        let (importance, analyzer) = self.analyzer.analyze(heads);
        let top = self.sorter.select(&importance, k);
        let mut kept_local = top.indices;
        // Stream order: ascending position.
        kept_local.sort_unstable();
        let kept_global: Vec<usize> = kept_local.iter().map(|&i| global_indices[i]).collect();
        let offsets = OffsetEncoding::encode(&kept_global);
        PruneOutcome {
            kept_local,
            importance,
            offsets,
            analyzer,
            sorter_cycles: top.cycles,
            sorter_ops: top.compare_ops,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn prune_keeps_highest_importance_tokens_in_stream_order() {
        // One head, one text row: importance = that row.
        let head = Matrix::from_vec(1, 5, vec![0.1, 0.9, 0.3, 0.8, 0.05]);
        let globals = [10usize, 20, 30, 40, 50];
        let sec = SemanticConcentrator::new(4);
        let out = sec.prune(&[head], &globals, 2);
        assert_eq!(out.kept_local, vec![1, 3]); // tokens 20 and 40
        assert_eq!(out.offsets.decode(), vec![20, 40]);
        assert_eq!(out.importance.len(), 5);
    }

    #[test]
    fn prune_composes_across_rounds() {
        // Round 1 keeps 3 of 5; round 2 keeps 1 of those 3; the offset
        // encoding must still carry *global* indices.
        let sec = SemanticConcentrator::new(2);
        let h1 = Matrix::from_vec(1, 5, vec![0.5, 0.1, 0.4, 0.3, 0.2]);
        let globals: Vec<usize> = (0..5).map(|i| i * 7).collect();
        let r1 = sec.prune(&[h1], &globals, 3);
        assert_eq!(r1.kept_local, vec![0, 2, 3]);
        let g2: Vec<usize> = r1.kept_local.iter().map(|&i| globals[i]).collect();
        let h2 = Matrix::from_vec(1, 3, vec![0.0, 1.0, 0.5]);
        let r2 = sec.prune(&[h2], &g2, 1);
        assert_eq!(r2.offsets.decode(), vec![14]); // global index of local 2
    }

    #[test]
    #[should_panic(expected = "candidate count mismatch")]
    fn prune_validates_shapes() {
        let head = Matrix::zeros(1, 4);
        SemanticConcentrator::new(2).prune(&[head], &[0, 1, 2], 1);
    }

    #[test]
    fn stats_accumulate_plausibly() {
        let heads: Vec<Matrix> = (0..3).map(|_| Matrix::zeros(4, 64)).collect();
        let globals: Vec<usize> = (0..64).collect();
        let out = SemanticConcentrator::new(32).prune(&heads, &globals, 16);
        assert_eq!(out.analyzer.cycles, 3 * (4 * 64 / 32) as u64);
        assert_eq!(out.sorter_cycles, 64); // one pass of 64 candidates
        assert_eq!(out.kept_local.len(), 16);
    }
}
