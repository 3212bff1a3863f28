//! The baseline the architecture displaces: **host-software SAR** with a
//! dumb (cell-FIFO) interface.
//!
//! Before on-board segmentation engines, the obvious ATM interface was a
//! pair of cell FIFOs on the bus: the *host CPU* builds every 53-octet
//! cell — segmentation arithmetic, header, HEC, the frame CRC — and
//! pushes it to the device with programmed I/O, word by word; receive is
//! the mirror image. The per-cell cost lands entirely on the CPU that is
//! also supposed to run the application.
//!
//! This module prices that design with the same style of cost table as
//! the adaptor engine, so experiment R-F4 can put the two architectures
//! on one axis: host CPU utilization versus offered throughput.

use crate::cpu::HostCpu;
use hni_sim::Duration;

/// Cost table for host-software SAR (instructions, except data touching).
#[derive(Clone, Copy, Debug)]
pub struct SoftSarCosts {
    /// Per packet: socket/stack entry, AAL trailer setup.
    pub per_packet_instr: u64,
    /// Per cell: segmentation arithmetic, header build, HEC.
    pub per_cell_instr: u64,
    /// Per cell: programmed-I/O words pushed to the device FIFO
    /// (53 octets → 14 words, each a full uncached bus access).
    pub pio_words_per_cell: u64,
    /// Bus access time per PIO word (uncached, ~handshake-limited).
    pub pio_word_time: Duration,
    /// Whether the CRC-32 is computed by the host (true for AAL5 on a
    /// dumb interface — nobody else is there to do it).
    pub host_crc: bool,
}

impl Default for SoftSarCosts {
    fn default() -> Self {
        SoftSarCosts {
            per_packet_instr: 300,
            per_cell_instr: 40,
            pio_words_per_cell: 14,
            pio_word_time: Duration::from_ns(400),
            host_crc: true,
        }
    }
}

/// The host-software SAR model.
#[derive(Clone, Copy, Debug)]
pub struct SoftSar {
    /// The CPU doing all of it.
    pub cpu: HostCpu,
    /// Cost table.
    pub costs: SoftSarCosts,
}

impl SoftSar {
    /// Baseline on a workstation.
    pub fn workstation() -> Self {
        SoftSar {
            cpu: HostCpu::workstation(),
            costs: SoftSarCosts::default(),
        }
    }

    /// CPU time to segment and emit one packet of `len` octets
    /// (`cells` = cells it occupies).
    pub fn packet_time(&self, len: usize, cells: usize) -> Duration {
        let mut t = self.cpu.instr_time(self.costs.per_packet_instr);
        t += self
            .cpu
            .instr_time(self.costs.per_cell_instr * cells as u64);
        // PIO: every cell crosses the bus a word at a time.
        t += self.costs.pio_word_time * (self.costs.pio_words_per_cell * cells as u64);
        if self.costs.host_crc {
            // CRC touches every payload octet once at copy-like speed
            // (table lookup per octet ≈ memory-bound).
            t += self.cpu.copy_time(len);
        }
        t
    }

    /// Maximum goodput (bits/s) the host can sustain doing SAR itself,
    /// for fixed `len`-octet packets, spending the whole CPU on it.
    pub fn max_goodput_bps(&self, len: usize, cells: usize) -> f64 {
        (len as f64 * 8.0) / self.packet_time(len, cells).as_s_f64()
    }

    /// CPU utilization needed to sustain `offered_bps` of goodput with
    /// `len`-octet packets (may exceed 1.0 = infeasible).
    pub fn cpu_util_at(&self, offered_bps: f64, len: usize, cells: usize) -> f64 {
        let pkts_per_s = offered_bps / (len as f64 * 8.0);
        pkts_per_s * self.packet_time(len, cells).as_s_f64()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const LEN: usize = 9180;
    const CELLS: usize = 192; // AAL5 cells for 9180 octets

    #[test]
    fn host_sar_cannot_reach_oc3() {
        // The motivating fact: a 25 MIPS workstation doing SAR in
        // software tops out well below 149.76 Mb/s payload rate.
        let s = SoftSar::workstation();
        let max = s.max_goodput_bps(LEN, CELLS);
        assert!(
            max < 100e6,
            "host SAR should be < 100 Mb/s, got {:.1} Mb/s",
            max / 1e6
        );
        assert!(max > 10e6, "but not absurdly slow: {:.1} Mb/s", max / 1e6);
    }

    #[test]
    fn util_scales_linearly_with_load() {
        let s = SoftSar::workstation();
        let u1 = s.cpu_util_at(10e6, LEN, CELLS);
        let u2 = s.cpu_util_at(20e6, LEN, CELLS);
        assert!((u2 - 2.0 * u1).abs() < 1e-9);
    }

    #[test]
    fn oc12_is_infeasible() {
        let s = SoftSar::workstation();
        assert!(s.cpu_util_at(599.04e6, LEN, CELLS) > 1.0);
    }

    #[test]
    fn crc_dominates_large_packets() {
        let mut s = SoftSar::workstation();
        let with_crc = s.packet_time(LEN, CELLS);
        s.costs.host_crc = false;
        let without = s.packet_time(LEN, CELLS);
        assert!(with_crc > without);
        assert!(
            (with_crc - without).as_us_f64() > 100.0,
            "CRC of 9180 B at copy speed ≈ 183 µs"
        );
    }

    #[test]
    fn pio_cost_is_material() {
        // 192 cells × 14 words × 400 ns ≈ 1.08 ms per packet — PIO alone
        // caps goodput near 68 Mb/s. This is why DMA mattered.
        let s = SoftSar::workstation();
        let pio = s.costs.pio_word_time * (s.costs.pio_words_per_cell * CELLS as u64);
        assert!((pio.as_us_f64() - 1075.2).abs() < 0.1);
    }
}
