//! The simulation engine: runs a list of [`WorkItem`]s through the
//! systolic timing model, the DRAM model and the energy model, with
//! compute/memory overlap (double buffering), and produces a
//! [`SimReport`].
//!
//! Per work item the wall time is `max(compute, DRAM, extra)` — the
//! standard double-buffered overlap assumption SCALE-sim-v2 makes; SFU
//! and Focus-unit work runs concurrently with GEMM (the paper's overlap
//! inequalities, asserted in `focus-core`, guarantee it stays off the
//! critical path) and contributes energy only.

use crate::config::ArchConfig;
use crate::dram::DramModel;
use crate::energy::{EnergyBreakdown, EnergyModel};
use crate::systolic::{GemmWork, SystolicModel};

/// One schedulable unit: a GEMM plus its memory traffic and the
/// concurrent special-function / concentrator work.
#[derive(Clone, Debug, PartialEq)]
pub struct WorkItem {
    /// The GEMM on the array.
    pub gemm: GemmWork,
    /// Bytes read from DRAM for this item (inputs + weights, after any
    /// compression).
    pub dram_read_bytes: u64,
    /// Bytes written to DRAM (outputs + similarity maps, after
    /// compression).
    pub dram_write_bytes: u64,
    /// Special-function ops (softmax exp/div, norms) overlapping this
    /// GEMM.
    pub sfu_ops: u64,
    /// Semantic-concentrator ops (max/compare/sort stages).
    pub sec_ops: u64,
    /// Similarity-concentrator ops (matcher dot lanes, map updates;
    /// scatter accumulations are added from the timing result).
    pub sic_ops: u64,
    /// Baseline special-unit ops (AdapTiV merge comparisons, CMC codec
    /// block matching).
    pub aux_ops: u64,
    /// Additional serial latency in cycles (e.g. CMC's codec block,
    /// which processes staged frames before compute can use them).
    pub extra_cycles: u64,
}

impl WorkItem {
    /// A pure GEMM item with explicit DRAM traffic and nothing else.
    pub fn gemm_only(gemm: GemmWork, dram_read_bytes: u64, dram_write_bytes: u64) -> Self {
        WorkItem {
            gemm,
            dram_read_bytes,
            dram_write_bytes,
            sfu_ops: 0,
            sec_ops: 0,
            sic_ops: 0,
            aux_ops: 0,
            extra_cycles: 0,
        }
    }
}

/// Aggregate result of a simulation.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct SimReport {
    /// Wall-clock cycles (with compute/memory overlap).
    pub cycles: u64,
    /// Wall-clock seconds.
    pub seconds: f64,
    /// MACs executed on the array.
    pub macs: u128,
    /// Total DRAM reads in bytes.
    pub dram_read_bytes: u64,
    /// Total DRAM writes in bytes.
    pub dram_write_bytes: u64,
    /// On-chip SRAM traffic in bytes.
    pub sram_bytes: u64,
    /// Energy by category.
    pub energy: EnergyBreakdown,
    /// MAC-weighted average array utilisation.
    pub avg_utilization: f64,
    /// `(retained rows, utilisation)` samples per sub-tile, for the
    /// Fig. 13 histogram.
    pub subtile_samples: Vec<(usize, f64)>,
    /// Cycles that were memory-bound (DRAM time exceeded compute time).
    pub memory_bound_cycles: u64,
}

impl SimReport {
    /// Mean power over the run, in watts (total energy / time).
    pub fn avg_power_w(&self) -> f64 {
        if self.seconds == 0.0 {
            0.0
        } else {
            self.energy.total_j() / self.seconds
        }
    }

    /// On-chip mean power (excludes DRAM), in watts — the Table III
    /// "On-chip Power" column.
    pub fn on_chip_power_w(&self) -> f64 {
        if self.seconds == 0.0 {
            0.0
        } else {
            self.energy.on_chip_j() / self.seconds
        }
    }

    /// Total DRAM traffic.
    pub fn dram_total_bytes(&self) -> u64 {
        self.dram_read_bytes + self.dram_write_bytes
    }
}

/// The engine binding an architecture, its timing model and the energy
/// constants together.
#[derive(Clone, Debug)]
pub struct Engine {
    arch: ArchConfig,
    systolic: SystolicModel,
    dram: DramModel,
    energy: EnergyModel,
}

impl Engine {
    /// Creates an engine for `arch` with default DRAM/energy models.
    pub fn new(arch: ArchConfig) -> Self {
        let dram = DramModel {
            bw_bytes_per_s: arch.dram_bw,
            ..DramModel::default()
        };
        Engine {
            systolic: SystolicModel::new(arch.pe_rows, arch.pe_cols),
            dram,
            energy: EnergyModel::default(),
            arch,
        }
    }

    /// The architecture being simulated.
    pub fn arch(&self) -> &ArchConfig {
        &self.arch
    }

    /// Runs the work list and produces the aggregate report.
    pub fn run(&self, items: &[WorkItem]) -> SimReport {
        let mut report = SimReport::default();
        let mut util_weight = 0.0f64;
        for item in items {
            let timing = self.systolic.time(&item.gemm);
            let sram_bytes = self
                .systolic
                .sram_traffic_bytes(&item.gemm, self.arch.bytes_per_elem);
            let dram_bytes = item.dram_read_bytes + item.dram_write_bytes;
            let dram_cycles =
                (self.dram.transfer_seconds(dram_bytes) * self.arch.freq_hz).ceil() as u64;
            let compute_cycles = timing.cycles + item.extra_cycles;
            let item_cycles = compute_cycles.max(dram_cycles);
            if dram_cycles > compute_cycles {
                report.memory_bound_cycles += item_cycles - compute_cycles;
            }

            report.cycles += item_cycles;
            report.macs += timing.macs;
            report.dram_read_bytes += item.dram_read_bytes;
            report.dram_write_bytes += item.dram_write_bytes;
            report.sram_bytes += sram_bytes;
            util_weight += timing.macs as f64 * timing.utilization;
            report.subtile_samples.extend(timing.subtile_samples);

            let e = &self.energy;
            report.energy.accumulate(&EnergyBreakdown {
                core_j: timing.macs as f64 * e.mac_pj * 1e-12,
                buffer_j: sram_bytes as f64 * e.sram_pj_per_byte * 1e-12,
                dram_j: self.dram.energy_j(dram_bytes),
                sfu_j: item.sfu_ops as f64 * e.sfu_pj_per_op * 1e-12,
                sec_j: item.sec_ops as f64 * e.sec_pj_per_op * 1e-12,
                sic_j: (item.sic_ops as f64 + timing.scatter_ops as f64) * e.sic_pj_per_op * 1e-12,
                aux_j: item.aux_ops as f64 * e.aux_pj_per_op * 1e-12,
                static_j: 0.0,
            });
        }
        report.seconds = self.arch.seconds(report.cycles);
        report.energy.static_j = (self.energy.static_w + self.arch.extra_static_w) * report.seconds;
        report.energy.dram_j += self.dram.background_energy_j(report.seconds);
        report.avg_utilization = if report.macs == 0 {
            0.0
        } else {
            util_weight / report.macs as f64
        };
        report
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn item(m: usize, k: usize, n: usize, read: u64, write: u64) -> WorkItem {
        WorkItem::gemm_only(GemmWork::dense("t", m, k, n, 1, 1024), read, write)
    }

    #[test]
    fn compute_bound_item_uses_gemm_cycles() {
        let engine = Engine::new(ArchConfig::focus());
        let report = engine.run(&[item(1024, 3584, 32, 1024, 1024)]);
        // 112 sub-tiles × (1024 + 62) cycles.
        assert_eq!(report.cycles, 112 * 1086);
        assert_eq!(report.memory_bound_cycles, 0);
        assert!(report.avg_utilization > 0.9);
    }

    #[test]
    fn memory_bound_item_uses_dram_cycles() {
        let engine = Engine::new(ArchConfig::focus());
        // Tiny GEMM, huge traffic: 64 MB at 64 GB/s = 1 ms = 500k cycles.
        let report = engine.run(&[item(32, 32, 32, 64_000_000, 0)]);
        assert!(report.cycles >= 500_000);
        assert!(report.memory_bound_cycles > 0);
    }

    #[test]
    fn energy_is_conserved_across_items() {
        let engine = Engine::new(ArchConfig::focus());
        let a = engine.run(&[item(256, 256, 256, 1000, 1000)]);
        let b = engine.run(&[item(512, 128, 64, 5000, 0)]);
        let ab = engine.run(&[item(256, 256, 256, 1000, 1000), item(512, 128, 64, 5000, 0)]);
        // Dynamic components add exactly; static differs only through
        // runtime (which also adds).
        assert!((ab.energy.total_j() - a.energy.total_j() - b.energy.total_j()).abs() < 1e-12);
        assert_eq!(ab.macs, a.macs + b.macs);
        assert_eq!(
            ab.dram_total_bytes(),
            a.dram_total_bytes() + b.dram_total_bytes()
        );
    }

    #[test]
    fn power_is_energy_over_time() {
        let engine = Engine::new(ArchConfig::focus());
        let r = engine.run(&[item(1024, 1024, 1024, 1_000_000, 1_000_000)]);
        assert!((r.avg_power_w() - r.energy.total_j() / r.seconds).abs() < 1e-12);
        assert!(r.on_chip_power_w() < r.avg_power_w());
    }

    #[test]
    fn empty_run_is_zero() {
        let engine = Engine::new(ArchConfig::focus());
        let r = engine.run(&[]);
        assert_eq!(r.cycles, 0);
        assert_eq!(r.macs, 0);
        assert_eq!(r.avg_power_w(), 0.0);
    }

    #[test]
    fn concentrated_work_is_faster_and_cheaper() {
        let engine = Engine::new(ArchConfig::focus());
        let dense = item(1024, 512, 512, 2_000_000, 2_000_000);
        let mut conc = dense.clone();
        conc.gemm.subtile_rows = Some(vec![300; 16]);
        conc.dram_read_bytes = 700_000;
        conc.dram_write_bytes = 700_000;
        let rd = engine.run(&[dense]);
        let rc = engine.run(&[conc]);
        assert!(rc.cycles < rd.cycles);
        assert!(rc.energy.total_j() < rd.energy.total_j());
    }
}
