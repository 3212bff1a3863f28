//! R-F3: unloaded end-to-end latency, decomposed by component.
//!
//! One packet, idle system, host A application to host B application:
//!
//! ```text
//! tx engine setup → first DMA burst → first-cell segmentation
//!   → cells × link slot (serialization) → propagation
//!   → last-cell receive work → validate → delivery DMA → complete
//!   → host interrupt + stack + copy/remap
//! ```
//!
//! Store-and-forward happens at *cell* granularity in the interface (a
//! cell can be on the line while the next is still being fetched), so
//! the pipeline fill terms are one burst and one cell of work — not one
//! whole packet — on each side. Delivery to the host, in contrast, waits
//! for the whole frame (reassembly cannot hand over early), which is why
//! the receive-side DMA term scales with packet length.

use hni_aal::AalType;
use hni_core::bus::BusConfig;
use hni_core::engine::{HwPartition, ProtocolEngine, TaskKind};
use hni_sim::Duration;
use hni_sonet::LineRate;

/// Latency decomposition for one packet.
#[derive(Clone, Copy, Debug)]
pub struct LatencyBreakdown {
    /// Packet length, octets.
    pub len: usize,
    /// Transmit engine: packet setup.
    pub tx_setup: Duration,
    /// First DMA burst (pipeline fill).
    pub tx_first_burst: Duration,
    /// First cell's segmentation work.
    pub tx_first_cell: Duration,
    /// Serialization: cells × payload slot.
    pub serialization: Duration,
    /// Light in the fibre.
    pub propagation: Duration,
    /// Last cell's receive-side work.
    pub rx_last_cell: Duration,
    /// Frame validation.
    pub rx_validate: Duration,
    /// Delivery DMA of the whole frame.
    pub rx_delivery_dma: Duration,
    /// Completion processing.
    pub rx_complete: Duration,
    /// Total.
    pub total: Duration,
}

impl LatencyBreakdown {
    /// The components as (label, duration) pairs, in path order.
    pub fn components(&self) -> [(&'static str, Duration); 9] {
        [
            ("tx setup", self.tx_setup),
            ("tx first burst", self.tx_first_burst),
            ("tx first cell", self.tx_first_cell),
            ("serialization", self.serialization),
            ("propagation", self.propagation),
            ("rx last cell", self.rx_last_cell),
            ("rx validate", self.rx_validate),
            ("rx delivery dma", self.rx_delivery_dma),
            ("rx complete", self.rx_complete),
        ]
    }
}

/// Compute the unloaded latency breakdown.
pub fn unloaded_latency(
    len: usize,
    partition: &HwPartition,
    mips: f64,
    bus: &BusConfig,
    rate: LineRate,
    aal: AalType,
    propagation: Duration,
) -> LatencyBreakdown {
    let e = ProtocolEngine::new(mips, partition);
    let cells = aal.cells_for_sdu(len);

    let tx_setup = e.task_time(TaskKind::TxPacketSetup);
    let tx_first_burst = if len == 0 {
        Duration::ZERO
    } else {
        e.task_time(TaskKind::TxDmaBurst) + bus.burst_time(bus.burst_words(len, 0))
    };
    let tx_first_cell = e.task_time(TaskKind::TxCellSegment)
        + e.task_time(TaskKind::TxCellCrc)
        + e.task_time(TaskKind::TxHec);
    let serialization = rate.cell_slot_time() * cells as u64;
    let rx_last_cell = e.task_time(TaskKind::RxHec)
        + e.task_time(TaskKind::RxVciLookup)
        + e.task_time(TaskKind::RxCellEnqueue)
        + e.task_time(TaskKind::RxCellCrc);
    let rx_validate = e.task_time(TaskKind::RxPacketValidate);
    let mut rx_delivery_dma = Duration::ZERO;
    if len > 0 {
        for b in 0..bus.bursts_for(len) {
            rx_delivery_dma +=
                e.task_time(TaskKind::RxDmaBurst) + bus.burst_time(bus.burst_words(len, b));
        }
    }
    let rx_complete = e.task_time(TaskKind::RxPacketComplete);

    let total = tx_setup
        + tx_first_burst
        + tx_first_cell
        + serialization
        + propagation
        + rx_last_cell
        + rx_validate
        + rx_delivery_dma
        + rx_complete;

    LatencyBreakdown {
        len,
        tx_setup,
        tx_first_burst,
        tx_first_cell,
        serialization,
        propagation,
        rx_last_cell,
        rx_validate,
        rx_delivery_dma,
        rx_complete,
        total,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn bd(len: usize) -> LatencyBreakdown {
        unloaded_latency(
            len,
            &HwPartition::paper_split(),
            25.0,
            &BusConfig::default(),
            LineRate::Oc12,
            AalType::Aal5,
            Duration::from_us(5), // ~1 km of fibre
        )
    }

    #[test]
    fn total_is_sum_of_components() {
        let b = bd(9180);
        let sum: Duration = b.components().iter().map(|&(_, d)| d).sum();
        assert_eq!(sum, b.total);
    }

    #[test]
    fn serialization_dominates_large_packets() {
        let b = bd(65000);
        // 1355 cells × 708 ns ≈ 959 µs — far beyond every other term.
        assert!(b.serialization.as_us_f64() > 900.0);
        assert!(b.serialization.as_ps() > b.total.as_ps() / 2);
    }

    #[test]
    fn small_packet_latency_dominated_by_fixed_costs() {
        let b = bd(64);
        assert!(b.serialization < Duration::from_us(2)); // 2 cells
                                                         // Total still tens of µs due to fixed work + propagation.
        assert!(b.total > Duration::from_us(5));
        assert!(b.total < Duration::from_us(50));
    }

    #[test]
    fn oc3_serializes_4x_slower() {
        let b12 = bd(9180);
        let b3 = unloaded_latency(
            9180,
            &HwPartition::paper_split(),
            25.0,
            &BusConfig::default(),
            LineRate::Oc3,
            AalType::Aal5,
            Duration::from_us(5),
        );
        let ratio = b3.serialization.as_s_f64() / b12.serialization.as_s_f64();
        assert!((ratio - 4.0).abs() < 0.01, "ratio {ratio}");
    }

    #[test]
    fn delivery_dma_scales_with_length() {
        assert!(bd(65000).rx_delivery_dma > bd(1000).rx_delivery_dma * 20);
    }

    #[test]
    fn zero_length_packet_has_no_dma_terms() {
        let b = bd(0);
        assert_eq!(b.tx_first_burst, Duration::ZERO);
        assert_eq!(b.rx_delivery_dma, Duration::ZERO);
        assert!(b.total > Duration::ZERO);
    }
}
