//! Rate arithmetic for the SONET line rates in play.
//!
//! Every throughput claim in the experiments is measured against the
//! numbers defined here, and they are *derived* from frame geometry, not
//! written down as magic constants: an STS-Nc frame is 9 rows × 90·N
//! columns every 125 µs; payload columns are what remains after transport
//! overhead (3·N columns), path overhead (1 column) and fixed stuff
//! (N/3 − 1 columns).

use hni_sim::Duration;

/// The line rates the simulated plant can run at. The paper evaluates
/// OC-3 and OC-12; OC-48 and OC-192 are the growth rates the burst-mode
/// delineator leaves headroom for (same frame geometry formulas, larger
/// N).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum LineRate {
    /// STS-3c / OC-3: 155.52 Mb/s line, 149.76 Mb/s payload.
    Oc3,
    /// STS-12c / OC-12: 622.08 Mb/s line, 599.04 Mb/s payload.
    Oc12,
    /// STS-48c / OC-48: 2488.32 Mb/s line, 2396.16 Mb/s payload.
    Oc48,
    /// STS-192c / OC-192: 9953.28 Mb/s line, 9584.64 Mb/s payload.
    Oc192,
}

/// Frames per second: one frame every 125 µs.
pub const FRAMES_PER_SECOND: u64 = 8000;

impl LineRate {
    /// The STS level N (3, 12, 48 or 192).
    pub const fn sts_n(self) -> usize {
        match self {
            LineRate::Oc3 => 3,
            LineRate::Oc12 => 12,
            LineRate::Oc48 => 48,
            LineRate::Oc192 => 192,
        }
    }

    /// Columns per row (90·N).
    pub const fn columns(self) -> usize {
        90 * self.sts_n()
    }

    /// Octets per frame (9 rows × 90·N columns).
    pub const fn frame_octets(self) -> usize {
        9 * self.columns()
    }

    /// Transport-overhead columns (3·N).
    pub const fn toh_columns(self) -> usize {
        3 * self.sts_n()
    }

    /// Fixed-stuff columns in the SPE (N/3 − 1).
    pub const fn fixed_stuff_columns(self) -> usize {
        self.sts_n() / 3 - 1
    }

    /// Payload columns available to ATM cells
    /// (90·N − 3·N − 1 POH − fixed stuff).
    pub const fn payload_columns(self) -> usize {
        self.columns() - self.toh_columns() - 1 - self.fixed_stuff_columns()
    }

    /// Payload octets per frame.
    pub const fn payload_octets_per_frame(self) -> usize {
        9 * self.payload_columns()
    }

    /// Line rate in bits per second (exact).
    pub fn line_bps(self) -> f64 {
        (self.frame_octets() as u64 * 8 * FRAMES_PER_SECOND) as f64
    }

    /// ATM payload rate in bits per second (exact).
    pub fn payload_bps(self) -> f64 {
        (self.payload_octets_per_frame() as u64 * 8 * FRAMES_PER_SECOND) as f64
    }

    /// Mean cell slot rate the interface must sustain: payload rate
    /// divided by 424 bits per cell.
    pub fn cell_slots_per_second(self) -> f64 {
        self.payload_bps() / 424.0
    }

    /// Mean time between cell slots at full payload rate — the per-cell
    /// processing budget of the paper's delay analysis.
    pub fn cell_slot_time(self) -> Duration {
        Duration::for_bits(424, self.payload_bps())
    }

    /// Time for one cell at raw line rate (53 octets at line speed) —
    /// the figure usually quoted ("2.7 µs at 155, 0.68 µs at 622").
    pub fn cell_line_time(self) -> Duration {
        Duration::for_bits(424, self.line_bps())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn oc3_geometry() {
        let r = LineRate::Oc3;
        assert_eq!(r.columns(), 270);
        assert_eq!(r.frame_octets(), 2430);
        assert_eq!(r.toh_columns(), 9);
        assert_eq!(r.fixed_stuff_columns(), 0);
        assert_eq!(r.payload_columns(), 260);
        assert_eq!(r.payload_octets_per_frame(), 2340);
    }

    #[test]
    fn oc12_geometry() {
        let r = LineRate::Oc12;
        assert_eq!(r.columns(), 1080);
        assert_eq!(r.frame_octets(), 9720);
        assert_eq!(r.toh_columns(), 36);
        assert_eq!(r.fixed_stuff_columns(), 3);
        assert_eq!(r.payload_columns(), 1040);
        assert_eq!(r.payload_octets_per_frame(), 9360);
    }

    #[test]
    fn oc48_geometry() {
        let r = LineRate::Oc48;
        assert_eq!(r.columns(), 4320);
        assert_eq!(r.frame_octets(), 38_880);
        assert_eq!(r.toh_columns(), 144);
        assert_eq!(r.fixed_stuff_columns(), 15);
        assert_eq!(r.payload_columns(), 4160);
        assert_eq!(r.payload_octets_per_frame(), 37_440);
    }

    #[test]
    fn oc192_geometry() {
        let r = LineRate::Oc192;
        assert_eq!(r.columns(), 17_280);
        assert_eq!(r.frame_octets(), 155_520);
        assert_eq!(r.toh_columns(), 576);
        assert_eq!(r.fixed_stuff_columns(), 63);
        assert_eq!(r.payload_columns(), 16_640);
        assert_eq!(r.payload_octets_per_frame(), 149_760);
    }

    #[test]
    fn canonical_rates() {
        assert_eq!(LineRate::Oc3.line_bps(), 155.52e6);
        assert_eq!(LineRate::Oc12.line_bps(), 622.08e6);
        assert_eq!(LineRate::Oc48.line_bps(), 2488.32e6);
        assert_eq!(LineRate::Oc192.line_bps(), 9953.28e6);
        assert_eq!(LineRate::Oc3.payload_bps(), 149.76e6);
        assert_eq!(LineRate::Oc12.payload_bps(), 599.04e6);
        assert_eq!(LineRate::Oc48.payload_bps(), 2396.16e6);
        assert_eq!(LineRate::Oc192.payload_bps(), 9584.64e6);
    }

    #[test]
    fn cell_budget_numbers() {
        // The paper-era headline numbers.
        let t3 = LineRate::Oc3.cell_line_time();
        let t12 = LineRate::Oc12.cell_line_time();
        assert!((t3.as_us_f64() - 2.726).abs() < 0.001, "{t3}");
        assert!((t12.as_ns_f64() - 681.584).abs() < 0.01, "{t12}");
        // Slot time at payload rate is slightly longer than line-rate
        // cell time (overhead removed).
        assert!(LineRate::Oc12.cell_slot_time() > t12);
    }

    #[test]
    fn cell_slot_rate() {
        // 599.04 Mb/s / 424 b ≈ 1.4128 M cells/s.
        let r = LineRate::Oc12.cell_slots_per_second();
        assert!((r - 1_412_830.0).abs() < 1000.0, "{r}");
        // The growth rates: ≈ 5.65 M and ≈ 22.6 M cells/s.
        let r48 = LineRate::Oc48.cell_slots_per_second();
        assert!((r48 - 5_651_321.0).abs() < 1000.0, "{r48}");
        let r192 = LineRate::Oc192.cell_slots_per_second();
        assert!((r192 - 22_605_283.0).abs() < 1000.0, "{r192}");
    }
}
