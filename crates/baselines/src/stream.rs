//! Driving token-level baselines over a correlated scene stream.
//!
//! The temporal head-to-head needs every method on the *same* feed:
//! Focus's streaming sessions carry bit-identical rows across frames
//! (`focus-core`'s temporal cache), while the token-level baselines
//! have no cross-frame state at all — they re-concentrate every frame
//! from scratch. This harness makes that contrast measurable: it
//! replays one [`SceneStream`] frame by frame through any
//! [`Concentrator`] and aggregates the per-frame results, so a bench
//! can put FrameFusion/CMC per-frame numbers next to a temporal
//! session's on identical inputs.

use focus_sim::ArchConfig;
use focus_vlm::scene::SceneStream;
use focus_vlm::{DatasetKind, ModelKind, Workload, WorkloadScale};

use crate::common::Concentrator;

/// One feed replayed through one method: aggregate of the per-frame
/// [`BaselineResult`](crate::common::BaselineResult)s.
#[derive(Clone, Debug)]
pub struct StreamRun {
    /// Method name.
    pub name: &'static str,
    /// Frames replayed.
    pub frames: u64,
    /// Effective MACs summed over the stream (paper scale).
    pub macs: u128,
    /// Dense MACs of the same stream.
    pub dense_macs: u128,
    /// Mean proxy benchmark score across frames.
    pub mean_accuracy: f64,
}

impl StreamRun {
    /// Computation sparsity over the whole stream.
    pub fn sparsity(&self) -> f64 {
        if self.dense_macs == 0 {
            0.0
        } else {
            1.0 - self.macs as f64 / self.dense_macs as f64
        }
    }
}

/// The shape of one streamed feed: fixed `(model, dataset, scale)`,
/// frames drawn from a [`SceneStream`] timeline.
#[derive(Clone, Copy, Debug)]
pub struct StreamSpec {
    /// The model every frame runs on.
    pub model: ModelKind,
    /// The benchmark profile of the feed.
    pub dataset: DatasetKind,
    /// Measured scale.
    pub scale: WorkloadScale,
    /// The correlated scene timeline.
    pub stream: SceneStream,
}

impl StreamSpec {
    /// The workload of stream frame `index`.
    pub fn frame(&self, index: u64) -> Workload {
        Workload::stream_frame(self.model, self.dataset, self.scale, self.stream, index)
    }
}

/// Replays `frames` frames of `spec` through `method`, one independent
/// run per frame — exactly how a stateless token-level design serves a
/// stream.
pub fn run_stream(
    method: &dyn Concentrator,
    arch: &ArchConfig,
    spec: &StreamSpec,
    frames: u64,
) -> StreamRun {
    let mut run = StreamRun {
        name: method.name(),
        frames,
        macs: 0,
        dense_macs: 0,
        mean_accuracy: 0.0,
    };
    for index in 0..frames {
        let wl = spec.frame(index);
        let result = method.run(&wl, arch);
        run.macs += result.macs;
        run.dense_macs += result.dense_macs;
        run.mean_accuracy += result.accuracy;
    }
    if frames > 0 {
        run.mean_accuracy /= frames as f64;
    }
    run
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cmc::CmcBaseline;
    use crate::framefusion::FrameFusionBaseline;

    fn spec(correlation: f64) -> StreamSpec {
        StreamSpec {
            model: ModelKind::LlavaVideo7B,
            dataset: DatasetKind::VideoMme,
            scale: WorkloadScale::tiny(),
            stream: SceneStream {
                seed: 7,
                correlation,
            },
        }
    }

    #[test]
    fn stream_aggregates_per_frame_runs() {
        let spec = spec(0.9);
        let run = run_stream(
            &FrameFusionBaseline::default(),
            &ArchConfig::vanilla(),
            &spec,
            3,
        );
        assert_eq!(run.frames, 3);
        assert!(run.sparsity() > 0.0, "{run:?}");
        // The aggregate is exactly the sum/mean of the per-frame runs.
        let per_frame: Vec<_> = (0..3)
            .map(|f| FrameFusionBaseline::default().run(&spec.frame(f), &ArchConfig::vanilla()))
            .collect();
        assert_eq!(run.macs, per_frame.iter().map(|r| r.macs).sum::<u128>());
        let mean = per_frame.iter().map(|r| r.accuracy).sum::<f64>() / 3.0;
        assert!((run.mean_accuracy - mean).abs() < 1e-12);
    }

    #[test]
    fn stateless_baselines_ignore_stream_correlation_structure() {
        // A token-level method has no cross-frame state: replaying the
        // same stream twice gives identical aggregates, and frame 0
        // (before any correlation can matter) is identical across
        // correlation levels of the same stream seed.
        let a = run_stream(&CmcBaseline::default(), &ArchConfig::cmc(), &spec(0.9), 2);
        let b = run_stream(&CmcBaseline::default(), &ArchConfig::cmc(), &spec(0.9), 2);
        assert_eq!(a.macs, b.macs);
        assert_eq!(a.mean_accuracy, b.mean_accuracy);
        let f0_hi = CmcBaseline::default().run(&spec(0.9).frame(0), &ArchConfig::cmc());
        let f0_lo = CmcBaseline::default().run(&spec(0.0).frame(0), &ArchConfig::cmc());
        assert_eq!(f0_hi.macs, f0_lo.macs, "frame 0 shares the segment seed");
    }
}
