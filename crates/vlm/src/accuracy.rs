//! Proxy accuracy model.
//!
//! Real benchmark accuracy cannot be measured here (no models, no
//! datasets), so each concentration method is scored by
//! the mechanism the paper's accuracy results reflect: **how much
//! prompt-relevant signal reaches the language model, and how faithfully
//! merged tokens reconstruct it**. Every token receives a per-run
//! [`TokenOutcome`]; the model aggregates them into a relevance-weighted
//! coverage and maps the coverage loss to benchmark points through a
//! calibrated monotone penalty. The calibration targets only the
//! *relative* Table II structure: Focus ≈ dense at ~80 % sparsity,
//! pruning baselines losing more at lower sparsity, and codec mismatch
//! (CMC on MiniCPM/MLVU) degrading sharply.

use crate::config::ModelKind;
use crate::dataset::DatasetProfile;

/// What happened to one token during a concentrated run.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct TokenOutcome {
    /// Ground-truth prompt relevance (from
    /// [`attention::relevance`](crate::attention::relevance)).
    pub relevance: f64,
    /// Fraction of the token's information that reached the model:
    /// 1.0 for a token processed densely end-to-end; the layer-weighted
    /// survival fraction for a pruned token; the achieved reconstruction
    /// similarity for merged/concentrated tokens. *Negative* values
    /// model misinformation — a spurious replacement (e.g. a codec
    /// false match) actively misleads the model, costing more than
    /// deletion. Clamped to `[-1, 1]`.
    pub fidelity: f64,
}

impl TokenOutcome {
    /// A token that was processed densely, with no information loss.
    pub fn dense(relevance: f64) -> Self {
        TokenOutcome {
            relevance,
            fidelity: 1.0,
        }
    }
}

/// Calibrated penalty curve from coverage loss to benchmark points.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct AccuracyModel {
    /// Points lost per unit of relevance-weighted coverage loss
    /// (linear term).
    pub lambda_linear: f64,
    /// Cubic term: makes large losses (codec mismatch, aggressive
    /// uninformed pruning) disproportionately expensive — calibrated so
    /// Focus-like losses (~0.3) cost ≈1.4 points while CMC's MiniCPM/
    /// MLVU mismatch (~0.75) costs ≈12, as in Table II.
    pub lambda_cubic: f64,
    /// Small bonus (in points) per unit of *irrelevant* mass removed:
    /// pruning distractors can slightly help VQA, which is how Focus
    /// occasionally beats the dense baseline in Table II.
    pub distractor_bonus: f64,
}

impl Default for AccuracyModel {
    fn default() -> Self {
        AccuracyModel {
            lambda_linear: 3.2,
            lambda_cubic: 23.0,
            distractor_bonus: 0.9,
        }
    }
}

/// Aggregated quality statistics of a concentrated run.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct CoverageStats {
    /// Relevance-weighted fidelity: `Σ rel·fid / Σ rel` ∈ [0, 1].
    pub coverage: f64,
    /// Fraction of *irrelevant* token mass that was removed (drives the
    /// distractor bonus).
    pub irrelevant_removed: f64,
}

/// Computes coverage statistics from per-token outcomes.
///
/// Tokens with relevance below `irrelevant_threshold` (default callers
/// use 0.1) count toward the distractor pool.
pub fn coverage_stats(outcomes: &[TokenOutcome], irrelevant_threshold: f64) -> CoverageStats {
    let mut rel_total = 0.0;
    let mut rel_covered = 0.0;
    let mut irr_total = 0.0;
    let mut irr_removed = 0.0;
    for o in outcomes {
        let fid = o.fidelity.clamp(-1.0, 1.0);
        rel_total += o.relevance;
        rel_covered += o.relevance * fid;
        if o.relevance < irrelevant_threshold {
            irr_total += 1.0;
            irr_removed += (1.0 - fid).min(1.0);
        }
    }
    CoverageStats {
        coverage: if rel_total > 0.0 {
            rel_covered / rel_total
        } else {
            1.0
        },
        irrelevant_removed: if irr_total > 0.0 {
            irr_removed / irr_total
        } else {
            0.0
        },
    }
}

impl AccuracyModel {
    /// Benchmark score predicted for a run with the given outcomes, on
    /// `profile` with `model`'s dense score as the anchor.
    pub fn score(
        &self,
        profile: &DatasetProfile,
        model: ModelKind,
        outcomes: &[TokenOutcome],
    ) -> f64 {
        let stats = coverage_stats(outcomes, 0.1);
        let base = profile.base_accuracy(model);
        let loss = 1.0 - stats.coverage;
        let penalty = self.lambda_linear * loss + self.lambda_cubic * loss * loss * loss;
        let bonus = self.distractor_bonus * stats.irrelevant_removed;
        base - profile.metric_scale() * (penalty - bonus).max(-0.8)
    }

    /// The dense score (all outcomes at fidelity 1).
    pub fn dense_score(&self, profile: &DatasetProfile, model: ModelKind) -> f64 {
        profile.base_accuracy(model)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dataset::DatasetKind;

    fn profile() -> DatasetProfile {
        DatasetProfile::for_model(DatasetKind::VideoMme, ModelKind::LlavaVideo7B)
    }

    fn outcomes(rel_fid: &[(f64, f64)]) -> Vec<TokenOutcome> {
        rel_fid
            .iter()
            .map(|&(relevance, fidelity)| TokenOutcome {
                relevance,
                fidelity,
            })
            .collect()
    }

    #[test]
    fn dense_outcomes_score_the_anchor() {
        let model = AccuracyModel::default();
        let o = outcomes(&[(1.0, 1.0), (0.03, 1.0), (0.25, 1.0)]);
        let score = model.score(&profile(), ModelKind::LlavaVideo7B, &o);
        assert!((score - 64.15).abs() < 1e-9);
    }

    #[test]
    fn losing_relevant_signal_costs_points() {
        let model = AccuracyModel::default();
        let good = outcomes(&[(1.0, 1.0), (0.03, 0.0)]);
        let bad = outcomes(&[(1.0, 0.4), (0.03, 0.0)]);
        let s_good = model.score(&profile(), ModelKind::LlavaVideo7B, &good);
        let s_bad = model.score(&profile(), ModelKind::LlavaVideo7B, &bad);
        assert!(s_good > s_bad + 1.0, "{s_good} vs {s_bad}");
    }

    #[test]
    fn pruning_distractors_can_beat_dense() {
        let model = AccuracyModel::default();
        // All relevant mass kept, all irrelevant mass dropped.
        let o = outcomes(&[(1.0, 1.0), (0.03, 0.0), (0.03, 0.0)]);
        let score = model.score(&profile(), ModelKind::LlavaVideo7B, &o);
        assert!(score > 64.15, "distractor removal gives a small bonus");
        assert!(score < 64.15 + 1.5, "bonus must stay small");
    }

    #[test]
    fn penalty_is_superlinear_in_loss() {
        let model = AccuracyModel::default();
        let p = profile();
        let small = outcomes(&[(1.0, 0.9)]);
        let large = outcomes(&[(1.0, 0.5)]);
        let d_small = 64.15 - model.score(&p, ModelKind::LlavaVideo7B, &small);
        let d_large = 64.15 - model.score(&p, ModelKind::LlavaVideo7B, &large);
        // 5× the loss must cost more than 5× the points.
        assert!(d_large > 5.0 * d_small, "{d_large} vs {d_small}");
    }

    #[test]
    fn coverage_stats_handle_edges() {
        let s = coverage_stats(&[], 0.1);
        assert_eq!(s.coverage, 1.0);
        assert_eq!(s.irrelevant_removed, 0.0);
        let s = coverage_stats(&outcomes(&[(0.0, 0.0)]), 0.1);
        assert_eq!(s.coverage, 1.0, "no relevant mass → coverage is vacuous");
        assert_eq!(s.irrelevant_removed, 1.0);
    }

    #[test]
    fn mme_scale_amplifies_points() {
        let model = AccuracyModel::default();
        let mme = DatasetProfile::for_model(DatasetKind::Mme, ModelKind::Qwen25Vl7B);
        let o = outcomes(&[(1.0, 0.9)]);
        let drop =
            mme.base_accuracy(ModelKind::Qwen25Vl7B) - model.score(&mme, ModelKind::Qwen25Vl7B, &o);
        let acc_drop = 64.15 - model.score(&profile(), ModelKind::LlavaVideo7B, &o);
        assert!(
            (drop / acc_drop - 20.0).abs() < 1.0,
            "MME points are 20× finer"
        );
    }
}
