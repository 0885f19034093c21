//! Architecture configurations (paper Table I and Table III).
//!
//! All four evaluated designs share frequency, technology node, operand
//! width and DRAM bandwidth; they differ in PE-array aspect ratio,
//! buffer capacity and attached special-purpose logic. The constants
//! here are the paper's, verbatim.

/// Size of one on-chip buffer, in bytes.
pub const KIB: usize = 1024;

/// The accelerator configuration a simulation runs against.
#[derive(Clone, Debug, PartialEq)]
pub struct ArchConfig {
    /// Name used in reports ("Focus", "SystolicArray", …).
    pub name: &'static str,
    /// PE array rows (the K/contraction dimension of a sub-tile).
    pub pe_rows: usize,
    /// PE array columns (the N dimension of a sub-tile).
    pub pe_cols: usize,
    /// Clock frequency in Hz (500 MHz for every design in Table III).
    pub freq_hz: f64,
    /// Input activation buffer capacity in bytes.
    pub input_buffer: usize,
    /// Weight buffer capacity in bytes.
    pub weight_buffer: usize,
    /// Output/accumulation buffer capacity in bytes.
    pub output_buffer: usize,
    /// Auxiliary buffer (Focus: the 16 KB layouter window; CMC: codec
    /// staging; AdapTiV: merge table).
    pub aux_buffer: usize,
    /// Peak DRAM bandwidth in bytes/second (64 GB/s, DDR4-2133 ×4ch).
    pub dram_bw: f64,
    /// Bytes per operand element (2 = FP16).
    pub bytes_per_elem: usize,
    /// Output-tile height `m` used for GEMM tiling (Table I: 1024).
    pub tile_m: usize,
    /// Always-on power of design-specific logic beyond the shared
    /// array/buffer/SFU (AdapTiV's merge comparator banks, CMC's codec
    /// macro), in watts. Calibrated to the Table III on-chip power gap
    /// between those designs and the vanilla array.
    pub extra_static_w: f64,
}

impl ArchConfig {
    /// The Focus configuration of Table I: 32×32 weight-stationary PEs,
    /// 734 KB of on-chip buffers, 64 GB/s of DRAM bandwidth.
    pub fn focus() -> Self {
        ArchConfig {
            name: "Focus",
            pe_rows: 32,
            pe_cols: 32,
            freq_hz: 500.0e6,
            input_buffer: 128 * KIB,
            weight_buffer: 78 * KIB,
            output_buffer: 512 * KIB,
            aux_buffer: 16 * KIB,
            dram_bw: 64.0e9,
            bytes_per_elem: 2,
            tile_m: 1024,
            extra_static_w: 0.0,
        }
    }

    /// The vanilla systolic array baseline (same array and buffers,
    /// no Focus unit, no layouter buffer).
    pub fn vanilla() -> Self {
        ArchConfig {
            name: "SystolicArray",
            aux_buffer: 16 * KIB, // Table III lists 734 KB total for both
            ..ArchConfig::focus()
        }
    }

    /// AdapTiV (MICRO'24): 16×64 PE array, 768 KB of buffers, a token
    /// merging unit.
    pub fn adaptiv() -> Self {
        ArchConfig {
            name: "Adaptiv",
            pe_rows: 16,
            pe_cols: 64,
            input_buffer: 160 * KIB,
            weight_buffer: 96 * KIB,
            output_buffer: 480 * KIB,
            aux_buffer: 32 * KIB,
            extra_static_w: 0.34,
            ..ArchConfig::focus()
        }
    }

    /// CMC (ASPLOS'24): 32×32 PE array plus an external-codec-assisted
    /// condensing block with large staging buffers (907 KB total).
    pub fn cmc() -> Self {
        ArchConfig {
            name: "CMC",
            input_buffer: 128 * KIB,
            weight_buffer: 78 * KIB,
            output_buffer: 512 * KIB,
            aux_buffer: 189 * KIB, // codec staging (up to 1.4 MB off-chip spill)
            extra_static_w: 0.07,
            ..ArchConfig::focus()
        }
    }

    /// Total on-chip buffer capacity in bytes.
    pub fn total_buffer(&self) -> usize {
        self.input_buffer + self.weight_buffer + self.output_buffer + self.aux_buffer
    }

    /// Number of processing elements.
    pub fn pe_count(&self) -> usize {
        self.pe_rows * self.pe_cols
    }

    /// Peak MAC throughput (MACs per second).
    pub fn peak_macs_per_s(&self) -> f64 {
        self.pe_count() as f64 * self.freq_hz
    }

    /// Converts a cycle count to seconds at this configuration's clock.
    pub fn seconds(&self, cycles: u64) -> f64 {
        cycles as f64 / self.freq_hz
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn focus_matches_table1() {
        let c = ArchConfig::focus();
        assert_eq!(c.pe_count(), 1024);
        assert_eq!(c.total_buffer(), 734 * KIB);
        assert_eq!(c.tile_m, 1024);
        assert_eq!(c.freq_hz, 500.0e6);
        assert_eq!(c.dram_bw, 64.0e9);
    }

    #[test]
    fn all_designs_share_pe_count_and_bandwidth() {
        // Table III: iso-PE, iso-bandwidth comparison.
        let designs = [
            ArchConfig::focus(),
            ArchConfig::vanilla(),
            ArchConfig::adaptiv(),
            ArchConfig::cmc(),
        ];
        for d in &designs {
            assert_eq!(d.pe_count(), 1024, "{}", d.name);
            assert_eq!(d.dram_bw, 64.0e9, "{}", d.name);
            assert_eq!(d.bytes_per_elem, 2, "{}", d.name);
        }
    }

    #[test]
    fn buffer_ordering_matches_table3() {
        // 734 KB (SA/Focus) < 768 KB (AdapTiV) < 907 KB (CMC).
        assert!(ArchConfig::focus().total_buffer() < ArchConfig::adaptiv().total_buffer());
        assert!(ArchConfig::adaptiv().total_buffer() < ArchConfig::cmc().total_buffer());
        assert_eq!(ArchConfig::adaptiv().total_buffer(), 768 * KIB);
        assert_eq!(ArchConfig::cmc().total_buffer(), 907 * KIB);
    }

    #[test]
    fn peak_throughput_is_half_tmac() {
        let c = ArchConfig::focus();
        assert!((c.peak_macs_per_s() - 512.0e9).abs() < 1.0);
        assert!((c.seconds(500_000_000) - 1.0).abs() < 1e-9);
    }
}
