//! On-chip energy model: 28 nm component constants.
//!
//! The paper reports post-synthesis power at TSMC N28HPC+, 500 MHz
//! (Table III, Fig. 9(c)). We reproduce the breakdown analytically with
//! per-event energies calibrated against those totals:
//!
//! * the vanilla systolic array burns ~720 mW on-chip while streaming
//!   ~0.46 TMAC/s → ≈0.7 pJ/MAC for the FP16×FP16+FP32 datapath plus
//!   its share of clocking — consistent with 28 nm FP16 FMA surveys;
//! * buffer accesses land near 1.1 pJ/B (large single-ported SRAM
//!   macros at 28 nm are ~0.7–1.5 pJ/B);
//! * the SFU (exp/div for softmax, rsqrt for norms) and the Focus-unit
//!   datapath (comparators, dot-product lane, map updates) are simple
//!   16-bit pipelines, ~1–4 pJ/op.
//!
//! Energy is accumulated per category so Fig. 9(b)/(c) can report the
//! same core / buffer / DRAM split the paper plots.

/// Per-event energy constants (picojoules).
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct EnergyModel {
    /// One FP16 multiply + FP32 accumulate in a PE.
    pub mac_pj: f64,
    /// One byte moved to/from an on-chip SRAM buffer.
    pub sram_pj_per_byte: f64,
    /// One special-function op (exp, div, rsqrt lane).
    pub sfu_pj_per_op: f64,
    /// One semantic-concentrator op (comparator/sorter stage).
    pub sec_pj_per_op: f64,
    /// One similarity-concentrator op (dot-product lane step, map
    /// update, scatter accumulate).
    pub sic_pj_per_op: f64,
    /// One op of a baseline's special unit (AdapTiV merge comparators,
    /// CMC codec block).
    pub aux_pj_per_op: f64,
    /// Static/leakage + clock-tree power of the on-chip design, watts.
    pub static_w: f64,
}

impl EnergyModel {
    /// Calibrated 28 nm constants (see module docs).
    pub fn n28() -> Self {
        EnergyModel {
            mac_pj: 0.75,
            sram_pj_per_byte: 1.5,
            sfu_pj_per_op: 2.4,
            sec_pj_per_op: 1.1,
            sic_pj_per_op: 1.3,
            aux_pj_per_op: 2.0,
            static_w: 0.17,
        }
    }
}

impl Default for EnergyModel {
    fn default() -> Self {
        EnergyModel::n28()
    }
}

/// Energy totals by category, in joules.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct EnergyBreakdown {
    /// PE-array MAC energy.
    pub core_j: f64,
    /// On-chip buffer access energy.
    pub buffer_j: f64,
    /// Off-chip DRAM energy.
    pub dram_j: f64,
    /// Special-function unit energy.
    pub sfu_j: f64,
    /// Semantic Concentrator energy.
    pub sec_j: f64,
    /// Similarity Concentrator (matcher + scatter) energy.
    pub sic_j: f64,
    /// Baseline special-unit energy (merge unit, codec).
    pub aux_j: f64,
    /// Static energy (static power × runtime).
    pub static_j: f64,
}

impl EnergyBreakdown {
    /// Total energy in joules.
    pub fn total_j(&self) -> f64 {
        self.core_j
            + self.buffer_j
            + self.dram_j
            + self.sfu_j
            + self.sec_j
            + self.sic_j
            + self.aux_j
            + self.static_j
    }

    /// On-chip energy (everything but DRAM).
    pub fn on_chip_j(&self) -> f64 {
        self.total_j() - self.dram_j
    }

    /// Adds another breakdown element-wise.
    pub fn accumulate(&mut self, other: &EnergyBreakdown) {
        self.core_j += other.core_j;
        self.buffer_j += other.buffer_j;
        self.dram_j += other.dram_j;
        self.sfu_j += other.sfu_j;
        self.sec_j += other.sec_j;
        self.sic_j += other.sic_j;
        self.aux_j += other.aux_j;
        self.static_j += other.static_j;
    }

    /// The three-way grouping of Fig. 9(b): `(core, buffer, dram)`
    /// where "core" folds in SFU and the Focus unit.
    pub fn fig9_groups(&self) -> (f64, f64, f64) {
        (
            self.core_j + self.sfu_j + self.sec_j + self.sic_j + self.aux_j + self.static_j,
            self.buffer_j,
            self.dram_j,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn totals_are_additive() {
        let mut a = EnergyBreakdown {
            core_j: 1.0,
            buffer_j: 2.0,
            dram_j: 3.0,
            sfu_j: 0.5,
            sec_j: 0.1,
            sic_j: 0.2,
            aux_j: 0.0,
            static_j: 0.2,
        };
        assert!((a.total_j() - 7.0).abs() < 1e-12);
        assert!((a.on_chip_j() - 4.0).abs() < 1e-12);
        let b = a;
        a.accumulate(&b);
        assert!((a.total_j() - 14.0).abs() < 1e-12);
    }

    #[test]
    fn fig9_grouping_conserves_energy() {
        let e = EnergyBreakdown {
            core_j: 1.0,
            buffer_j: 2.0,
            dram_j: 3.0,
            sfu_j: 0.5,
            sec_j: 0.1,
            sic_j: 0.2,
            aux_j: 0.1,
            static_j: 0.3,
        };
        let (core, buffer, dram) = e.fig9_groups();
        assert!((core + buffer + dram - e.total_j()).abs() < 1e-12);
    }

    #[test]
    fn dense_array_power_lands_near_table3() {
        // The vanilla array at ~92 % utilisation: 1024 PEs × 500 MHz ×
        // 0.92 ≈ 0.47 TMAC/s; MAC+SRAM power should land in the
        // 0.6–0.9 W Table III band.
        let e = EnergyModel::n28();
        let macs_per_s = 1024.0 * 500.0e6 * 0.92;
        // SRAM traffic per MAC: FP32 partial-sum RMW ≈ 8·(K/32)/K =
        // 0.25 B/MAC plus input re-reads ≈ 2/32 B/MAC.
        let sram_bytes_per_s = macs_per_s * (0.25 + 2.0 / 32.0);
        let watts = macs_per_s * e.mac_pj * 1e-12
            + sram_bytes_per_s * e.sram_pj_per_byte * 1e-12
            + e.static_w
            + macs_per_s / 1500.0 * e.sfu_pj_per_op * 1e-12;
        assert!(
            (0.6..0.85).contains(&watts),
            "modelled dense power {watts} W"
        );
    }
}
