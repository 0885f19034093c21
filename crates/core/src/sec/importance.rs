//! Streaming importance analyzer (paper §V-A, Fig. 5 ①–②).
//!
//! The analyzer taps the text→image block of each head's
//! `softmax(QKᵀ)` as it leaves the special function unit and reduces it
//! to a per-image-token importance score
//! `s_j = max over heads h and text rows i of I⁽ʰ⁾[i, j]`,
//! using `a` parallel max units so it consumes `a` scores per cycle. It
//! needs only an `M × 4 B` importance buffer (25 KB at M = 6 272) and
//! never touches the critical GEMM path.

use focus_tensor::Matrix;

/// Hardware statistics of one analyzer pass.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct AnalyzerStats {
    /// Cycles consumed (fully overlapped with attention GEMMs).
    pub cycles: u64,
    /// Max-compare operations performed.
    pub compare_ops: u64,
    /// Importance buffer footprint in bytes (FP32 per image token).
    pub buffer_bytes: usize,
}

/// The streaming importance analyzer.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct ImportanceAnalyzer {
    /// Parallel max units (`a`, Table I: 32).
    pub ways: usize,
}

impl ImportanceAnalyzer {
    /// Creates an analyzer with `ways` parallel max units.
    ///
    /// # Panics
    ///
    /// Panics if `ways` is zero.
    pub fn new(ways: usize) -> Self {
        assert!(ways > 0, "analyzer needs at least one max unit");
        ImportanceAnalyzer { ways }
    }

    /// Streams the text→image blocks of every head (each `T × M`) and
    /// returns `(importance, stats)` where `importance[j]` is the max
    /// attention image token `j` receives from any text token on any
    /// head.
    ///
    /// The reduction is processed in the *parallel (spatial) stream*
    /// order of Fig. 5: attention rows arrive as they leave the softmax,
    /// `ways` columns at a time, and each max unit folds its column
    /// slice into the importance buffer.
    ///
    /// # Panics
    ///
    /// Panics if heads disagree on their dimensions.
    pub fn analyze(&self, heads: &[Matrix]) -> (Vec<f32>, AnalyzerStats) {
        let Some(first) = heads.first() else {
            return (Vec::new(), AnalyzerStats::default());
        };
        let (t, m) = (first.rows(), first.cols());
        let mut importance = vec![0.0f32; m];
        for head in heads {
            assert_eq!(head.rows(), t, "head text-dim mismatch");
            assert_eq!(head.cols(), m, "head image-dim mismatch");
            for i in 0..t {
                // `ways` max units each take one score per cycle.
                for (imp, &v) in importance.iter_mut().zip(head.row(i)) {
                    if v > *imp {
                        *imp = v;
                    }
                }
            }
        }
        // Every score of every head passes one max unit once.
        let compare_ops = (heads.len() * t * m) as u64;
        // Each max unit folds one score per cycle; a T×M block over all
        // heads takes ⌈T·M/a⌉ cycles per head (Fig. 5 bottom: v =
        // M(M+T)/a covers the full softmax stream; only the text rows
        // pass through the reduction).
        let cycles = heads.len() as u64 * ((t * m) as u64).div_ceil(self.ways as u64);
        let stats = AnalyzerStats {
            cycles,
            compare_ops,
            buffer_bytes: m * core::mem::size_of::<f32>(),
        };
        (importance, stats)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn head_from(rows: &[[f32; 3]]) -> Matrix {
        Matrix::from_vec(rows.len(), 3, rows.concat())
    }

    #[test]
    fn importance_is_max_over_rows_and_heads() {
        let h0 = head_from(&[[0.1, 0.5, 0.0], [0.3, 0.2, 0.9]]);
        let h1 = head_from(&[[0.4, 0.1, 0.2], [0.0, 0.6, 0.1]]);
        let (imp, _) = ImportanceAnalyzer::new(4).analyze(&[h0, h1]);
        assert_eq!(imp, vec![0.4, 0.6, 0.9]);
    }

    #[test]
    fn cycle_model_matches_paper_formula() {
        // T=8 text rows, M=64 image tokens, 2 heads, a=32:
        // 2 × ⌈8·64/32⌉ = 32 cycles.
        let h = Matrix::zeros(8, 64);
        let (_, stats) = ImportanceAnalyzer::new(32).analyze(&[h.clone(), h]);
        assert_eq!(stats.cycles, 32);
        assert_eq!(stats.compare_ops, 2 * 8 * 64);
        assert_eq!(stats.buffer_bytes, 64 * 4);
    }

    #[test]
    fn paper_scale_buffer_is_25_kb() {
        // M = 6272 image tokens → 6272 × 4 B ≈ 25 KB (paper §V-A).
        let h = Matrix::zeros(1, 6272);
        let (_, stats) = ImportanceAnalyzer::new(32).analyze(&[h]);
        assert_eq!(stats.buffer_bytes, 25088);
    }

    #[test]
    fn empty_input_yields_empty_importance() {
        let (imp, stats) = ImportanceAnalyzer::new(32).analyze(&[]);
        assert!(imp.is_empty());
        assert_eq!(stats.cycles, 0);
    }

    #[test]
    fn analyzer_stays_off_the_critical_path() {
        // The QᵢKᵀ image-attention GEMM needs M(M+T)·h·n/(a·b) cycles;
        // the analyzer needs n·T·M/a. With h ≫ T the analyzer is far
        // faster (paper §V-B).
        let (m, t, head_dim, heads, a, b) = (6272u64, 109u64, 128u64, 28u64, 32u64, 32u64);
        let attention_cycles = m * (m + t) * head_dim * heads / (a * b);
        let analyzer_cycles = heads * t * m / a;
        assert!(analyzer_cycles * 50 < attention_cycles);
    }
}
