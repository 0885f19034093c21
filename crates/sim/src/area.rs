//! 28 nm area model (paper Table III and Fig. 9(c)).
//!
//! Component densities are calibrated to the paper's post-synthesis
//! totals: the 32×32 FP16 PE array occupies 44 % of Focus's 3.21 mm²
//! (≈1 378 µm²/PE), the 734 KB of SRAM occupies 43 % (≈1.84 µm²/B,
//! within the usual 28 nm 6T-macro band), and the SFU ≈0.32 mm². The
//! Focus unit's own area comes from `focus-core`'s sub-component
//! inventory and is registered as extra components here.

/// Area density constants.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct AreaModel {
    /// One FP16-mul/FP32-acc PE with pipeline registers, µm².
    pub pe_um2: f64,
    /// SRAM density, µm² per byte (macro + periphery).
    pub sram_um2_per_byte: f64,
    /// Special function unit (exp/div/rsqrt lanes sized for a 32-wide
    /// array), mm².
    pub sfu_mm2: f64,
}

impl AreaModel {
    /// Calibrated TSMC-28-nm-class constants.
    pub fn n28() -> Self {
        AreaModel {
            pe_um2: 1378.0,
            sram_um2_per_byte: 1.84,
            sfu_mm2: 0.32,
        }
    }

    /// PE-array area in mm².
    pub fn pe_array_mm2(&self, rows: usize, cols: usize) -> f64 {
        rows as f64 * cols as f64 * self.pe_um2 / 1.0e6
    }

    /// SRAM area in mm² for a capacity in bytes.
    pub fn sram_mm2(&self, bytes: usize) -> f64 {
        bytes as f64 * self.sram_um2_per_byte / 1.0e6
    }
}

impl Default for AreaModel {
    fn default() -> Self {
        AreaModel::n28()
    }
}

/// A named component-area breakdown (Fig. 9(c) left pie).
#[derive(Clone, Debug, Default, PartialEq)]
pub struct AreaReport {
    components: Vec<(String, f64)>,
}

impl AreaReport {
    /// Creates an empty report.
    pub fn new() -> Self {
        AreaReport::default()
    }

    /// Adds a component with its area in mm².
    pub fn add(&mut self, name: impl Into<String>, mm2: f64) -> &mut Self {
        self.components.push((name.into(), mm2));
        self
    }

    /// Total area in mm².
    pub fn total_mm2(&self) -> f64 {
        self.components.iter().map(|(_, a)| a).sum()
    }

    /// Fraction of the total occupied by `name` (0 if absent).
    pub fn fraction(&self, name: &str) -> f64 {
        let total = self.total_mm2();
        if total == 0.0 {
            return 0.0;
        }
        self.components
            .iter()
            .filter(|(n, _)| n == name)
            .map(|(_, a)| a)
            .sum::<f64>()
            / total
    }

    /// Iterates `(name, mm²)` entries in insertion order.
    pub fn iter(&self) -> impl Iterator<Item = (&str, f64)> {
        self.components.iter().map(|(n, a)| (n.as_str(), *a))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn vanilla_array_area_matches_table3() {
        // Table III: systolic-array baseline = 3.12 mm².
        let m = AreaModel::n28();
        let total = m.pe_array_mm2(32, 32) + m.sram_mm2(734 * 1024) + m.sfu_mm2;
        assert!((total - 3.12).abs() < 0.1, "modelled {total} mm²");
    }

    #[test]
    fn pe_array_share_is_near_44_percent() {
        let m = AreaModel::n28();
        let mut r = AreaReport::new();
        r.add("Systolic Array", m.pe_array_mm2(32, 32));
        r.add("Buffer", m.sram_mm2(734 * 1024));
        r.add("SFU", m.sfu_mm2);
        let f = r.fraction("Systolic Array");
        assert!((0.40..0.50).contains(&f), "{f}");
    }

    #[test]
    fn report_totals_and_fractions() {
        let mut r = AreaReport::new();
        r.add("a", 1.0).add("b", 3.0);
        assert!((r.total_mm2() - 4.0).abs() < 1e-12);
        assert!((r.fraction("b") - 0.75).abs() < 1e-12);
        assert_eq!(r.fraction("missing"), 0.0);
        assert_eq!(r.iter().count(), 2);
    }

    #[test]
    fn sram_density_is_in_28nm_band() {
        // 0.15–0.35 mm² per Mbit is the published 28 nm macro range.
        let m = AreaModel::n28();
        let mm2_per_mbit = m.sram_mm2(1024 * 1024 / 8);
        assert!((0.1..0.4).contains(&mm2_per_mbit), "{mm2_per_mbit}");
    }
}
