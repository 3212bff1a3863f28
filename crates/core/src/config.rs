//! The single configuration type the whole interface hangs off.

use crate::bufpool::{DiscardPolicy, PoolConfig};
use crate::bus::BusConfig;
use crate::engine::HwPartition;
use crate::rxsim::RxConfig;
use crate::txsim::TxConfig;
use hni_aal::AalType;
use hni_sim::{BusFaultPlan, Duration, FaultPlan};
use hni_sonet::LineRate;

/// Full host-interface configuration: one struct feeds the timing
/// simulations ([`crate::txsim`], [`crate::rxsim`]) and the functional
/// data path ([`crate::nic`]).
#[derive(Clone, Debug)]
pub struct NicConfig {
    /// SONET line rate.
    pub rate: LineRate,
    /// Protocol engine speed, MIPS (per direction — the architecture
    /// provisions one engine each way).
    pub mips: f64,
    /// Hardware-assist partition.
    pub partition: HwPartition,
    /// Host bus parameters.
    pub bus: BusConfig,
    /// Transmit output FIFO, in cells.
    pub tx_fifo_cells: usize,
    /// Receive input FIFO, in cells.
    pub rx_fifo_cells: usize,
    /// Receive reassembly buffer pool.
    pub pool: PoolConfig,
    /// Adaptation layer for user VCs.
    pub aal: AalType,
    /// Per-VC GCRA pacing on transmit.
    pub pacing: bool,
    /// CAM capacity (simultaneous open VCs).
    pub cam_capacity: usize,
    /// Largest SDU accepted.
    pub max_sdu: usize,
    /// Receive reassembly timeout.
    pub reassembly_timeout: Duration,
}

impl NicConfig {
    /// The architecture's design point.
    pub fn paper(rate: LineRate) -> Self {
        NicConfig {
            rate,
            mips: 25.0,
            partition: HwPartition::paper_split(),
            bus: BusConfig::default(),
            tx_fifo_cells: 16,
            rx_fifo_cells: 16,
            pool: PoolConfig {
                total_buffers: 256,
                cells_per_buffer: 32,
            },
            aal: AalType::Aal5,
            pacing: false,
            cam_capacity: 256,
            max_sdu: 65535,
            reassembly_timeout: Duration::from_ms(10),
        }
    }

    /// Derive the transmit-simulation view of this configuration.
    pub fn tx_config(&self) -> TxConfig {
        TxConfig {
            rate: self.rate,
            mips: self.mips,
            partition: self.partition,
            bus: self.bus,
            fifo_cells: self.tx_fifo_cells,
            pacing: self.pacing,
            aal: self.aal,
        }
    }

    /// Derive the receive-simulation view of this configuration.
    pub fn rx_config(&self) -> RxConfig {
        RxConfig {
            rate: self.rate,
            mips: self.mips,
            partition: self.partition,
            bus: self.bus,
            fifo_cells: self.rx_fifo_cells,
            pool: self.pool,
            aal: self.aal,
            policy: DiscardPolicy::DropTail,
            reassembly_timeout: self.reassembly_timeout,
            bus_faults: BusFaultPlan::NONE,
            link_faults: FaultPlan::NONE,
            link_seed: 0,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn derived_views_carry_fields() {
        let c = NicConfig::paper(LineRate::Oc3);
        assert_eq!(c.tx_config().fifo_cells, c.tx_fifo_cells);
        assert_eq!(c.rx_config().pool, c.pool);
        assert_eq!(c.tx_config().rate, LineRate::Oc3);
    }
}
