//! Edge-GPU roofline baseline (NVIDIA Jetson Orin Nano).
//!
//! The paper compares against an Orin Nano running the models in FP16,
//! with and without the FrameFusion pruning algorithm. That comparison
//! is throughput-level, so a roofline model — effective compute rate
//! capped by achievable utilisation, memory time from LPDDR5 bandwidth,
//! energy from board power × runtime — reproduces it.
//! Tensor-core utilisation on prefill-style GEMMs at edge power budgets
//! is well below peak; irregular (token-pruned) workloads lose a little
//! more to gather/scatter and ragged tiles.

/// Roofline description of a GPU.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct GpuModel {
    /// Peak FP16 FMA throughput in MAC/s (1 FMA = 1 MAC here).
    pub peak_macs_per_s: f64,
    /// Sustained memory bandwidth, bytes/s.
    pub mem_bw: f64,
    /// Achievable fraction of peak on dense transformer prefill.
    pub dense_utilization: f64,
    /// Achievable fraction of peak on token-pruned (irregular) runs.
    pub sparse_utilization: f64,
    /// Board power while busy, watts.
    pub board_power_w: f64,
    /// Fixed per-run software overhead of the pruning algorithm, as a
    /// fraction of the pruned runtime (ToMe-style modules cost up to
    /// tens of percent; FrameFusion is lighter).
    pub pruning_overhead: f64,
}

impl GpuModel {
    /// Jetson Orin Nano (8 GB): ~1.28 TFLOP/s dense FP16 on the Ampere
    /// GPU = 0.64 TMAC/s, 68 GB/s LPDDR5. The power constant is the
    /// GPU-rail draw in the 7 W board mode (CPU/system rails excluded),
    /// which is what an energy comparison against a bare accelerator
    /// should charge.
    pub fn orin_nano() -> Self {
        GpuModel {
            peak_macs_per_s: 0.64e12,
            mem_bw: 68.0e9,
            dense_utilization: 0.42,
            sparse_utilization: 0.40,
            board_power_w: 3.5,
            pruning_overhead: 0.04,
        }
    }
}

/// Result of a GPU run.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct GpuReport {
    /// End-to-end runtime, seconds.
    pub seconds: f64,
    /// Total energy, joules.
    pub energy_j: f64,
}

impl GpuModel {
    /// Runs `macs` of GEMM work touching `bytes` of DRAM, dense layout.
    pub fn run_dense(&self, macs: u128, bytes: u64) -> GpuReport {
        self.run(macs, bytes, self.dense_utilization, 0.0)
    }

    /// Runs a token-pruned workload (e.g. FrameFusion output): fewer
    /// MACs and bytes, lower utilisation, plus the pruning module's own
    /// runtime.
    pub fn run_pruned(&self, macs: u128, bytes: u64) -> GpuReport {
        self.run(macs, bytes, self.sparse_utilization, self.pruning_overhead)
    }

    fn run(&self, macs: u128, bytes: u64, utilization: f64, overhead: f64) -> GpuReport {
        let compute_s = macs as f64 / (self.peak_macs_per_s * utilization);
        let memory_s = bytes as f64 / self.mem_bw;
        let seconds = compute_s.max(memory_s) * (1.0 + overhead);
        GpuReport {
            seconds,
            energy_j: seconds * self.board_power_w,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn compute_bound_prefill() {
        let g = GpuModel::orin_nano();
        // 1e12 MACs, tiny memory traffic → compute bound.
        let r = g.run_dense(1_000_000_000_000, 1_000_000);
        let expect = 1e12 / (0.64e12 * 0.42);
        assert!((r.seconds - expect).abs() / expect < 1e-9);
        assert!((r.energy_j - r.seconds * 3.5).abs() < 1e-9);
    }

    #[test]
    fn memory_bound_when_traffic_dominates() {
        let g = GpuModel::orin_nano();
        let r = g.run_dense(1_000_000, 68_000_000_000);
        assert!((r.seconds - 1.0).abs() < 1e-6);
    }

    #[test]
    fn pruning_cuts_time_sublinearly() {
        let g = GpuModel::orin_nano();
        let dense = g.run_dense(1_000_000_000_000, 1_000_000);
        // 70 % fewer MACs, but lower utilisation + overhead.
        let pruned = g.run_pruned(300_000_000_000, 1_000_000);
        let speedup = dense.seconds / pruned.seconds;
        assert!(speedup > 2.0 && speedup < 1.0 / 0.3, "speedup {speedup}");
    }
}
