//! R-F1 / R-F2 analytic overlays: goodput versus packet size from the
//! three resource bounds.
//!
//! In steady state with packets pipelining through the interface, each
//! serial resource imposes `len·8 / time_it_spends_per_packet` on the
//! goodput; the achievable rate is the minimum:
//!
//! * **engine**: per-packet work + cells × per-cell work (+ per-burst
//!   work if DMA management is in software);
//! * **bus**: bursts × burst time;
//! * **link**: cells × payload slot time.
//!
//! Small packets are per-packet-overhead-bound (engine), large packets
//! are link-bound if the partition is viable — the knee is the design
//! story. The simulations reproduce these curves with queueing effects
//! included; EXPERIMENTS.md overlays the two.

use hni_aal::AalType;
use hni_core::bus::BusConfig;
use hni_core::engine::{HwPartition, ProtocolEngine, TaskKind};
use hni_sonet::LineRate;

/// A predicted point with its governing bound.
#[derive(Clone, Copy, Debug)]
pub struct ThroughputPrediction {
    /// Packet length, octets.
    pub len: usize,
    /// Cells per packet.
    pub cells: usize,
    /// Engine-bound goodput, bits/s.
    pub engine_bound_bps: f64,
    /// Bus-bound goodput, bits/s.
    pub bus_bound_bps: f64,
    /// Link-bound goodput, bits/s.
    pub link_bound_bps: f64,
    /// The achievable goodput (minimum of the three).
    pub achievable_bps: f64,
    /// Which bound governs: "engine", "bus" or "link".
    pub bottleneck: &'static str,
}

#[allow(clippy::too_many_arguments)]
fn predict(
    len: usize,
    per_packet_instr: u32,
    per_cell_instr: u32,
    per_burst_instr: u32,
    mips: f64,
    bus: &BusConfig,
    rate: LineRate,
    aal: AalType,
) -> ThroughputPrediction {
    let cells = aal.cells_for_sdu(len);
    let bursts = if len == 0 { 0 } else { bus.bursts_for(len) };

    // Engine seconds per packet.
    let instr = per_packet_instr as f64
        + cells as f64 * per_cell_instr as f64
        + bursts as f64 * per_burst_instr as f64;
    let t_engine = instr / (mips * 1e6);

    // Bus seconds per packet.
    let mut t_bus = 0.0;
    for b in 0..bursts {
        t_bus += bus.burst_time(bus.burst_words(len, b)).as_s_f64();
    }

    // Link seconds per packet.
    let t_link = cells as f64 * rate.cell_slot_time().as_s_f64();

    let bits = len as f64 * 8.0;
    let eb = if t_engine > 0.0 {
        bits / t_engine
    } else {
        f64::INFINITY
    };
    let bb = if t_bus > 0.0 {
        bits / t_bus
    } else {
        f64::INFINITY
    };
    let lb = if t_link > 0.0 {
        bits / t_link
    } else {
        f64::INFINITY
    };
    let (achievable, bottleneck) = if eb <= bb && eb <= lb {
        (eb, "engine")
    } else if bb <= lb {
        (bb, "bus")
    } else {
        (lb, "link")
    };
    ThroughputPrediction {
        len,
        cells,
        engine_bound_bps: eb,
        bus_bound_bps: bb,
        link_bound_bps: lb,
        achievable_bps: achievable,
        bottleneck,
    }
}

/// Transmit-direction prediction.
pub fn predict_tx(
    len: usize,
    partition: &HwPartition,
    mips: f64,
    bus: &BusConfig,
    rate: LineRate,
    aal: AalType,
) -> ThroughputPrediction {
    let e = ProtocolEngine::new(mips, partition);
    predict(
        len,
        e.tx_per_packet_instructions(),
        e.tx_per_cell_instructions(),
        partition.engine_instructions(&e.costs, TaskKind::TxDmaBurst),
        mips,
        bus,
        rate,
        aal,
    )
}

/// Receive-direction prediction.
pub fn predict_rx(
    len: usize,
    partition: &HwPartition,
    mips: f64,
    bus: &BusConfig,
    rate: LineRate,
    aal: AalType,
) -> ThroughputPrediction {
    let e = ProtocolEngine::new(mips, partition);
    predict(
        len,
        e.rx_per_packet_instructions(),
        e.rx_per_cell_instructions(),
        partition.engine_instructions(&e.costs, TaskKind::RxDmaBurst),
        mips,
        bus,
        rate,
        aal,
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    fn paper_tx(len: usize, rate: LineRate) -> ThroughputPrediction {
        predict_tx(
            len,
            &HwPartition::paper_split(),
            25.0,
            &BusConfig::default(),
            rate,
            AalType::Aal5,
        )
    }

    #[test]
    fn large_packets_link_bound_in_paper_config() {
        let p = paper_tx(65000, LineRate::Oc12);
        assert_eq!(p.bottleneck, "link");
        // Link bound = payload rate × (48-octet payload fraction of the
        // slot) × AAL efficiency. Sanity: between 70% and 100% of payload.
        assert!(p.achievable_bps > 0.7 * LineRate::Oc12.payload_bps());
        assert!(p.achievable_bps < LineRate::Oc12.payload_bps());
    }

    #[test]
    fn small_packets_engine_bound() {
        let p = paper_tx(64, LineRate::Oc12);
        assert_eq!(p.bottleneck, "engine");
        // 85 per-packet + 2×12 per-cell instructions at 25 MIPS bound a
        // 512-bit packet near 117 Mb/s — a fifth of the link payload.
        assert!(p.achievable_bps < 0.25 * LineRate::Oc12.payload_bps());
    }

    #[test]
    fn all_software_engine_bound_even_for_large() {
        let p = predict_tx(
            65000,
            &HwPartition::all_software(),
            25.0,
            &BusConfig::default(),
            LineRate::Oc12,
            AalType::Aal5,
        );
        assert_eq!(p.bottleneck, "engine");
        assert!(p.achievable_bps < 0.2 * LineRate::Oc12.payload_bps());
    }

    #[test]
    fn small_bursts_make_bus_the_bottleneck() {
        // Cripple the bus to 8-word bursts: 53 MB/s < OC-12 payload.
        let bus = BusConfig {
            max_burst_words: 8,
            ..BusConfig::default()
        };
        let p = predict_tx(
            65000,
            &HwPartition::paper_split(),
            25.0,
            &bus,
            LineRate::Oc12,
            AalType::Aal5,
        );
        assert_eq!(p.bottleneck, "bus");
    }

    #[test]
    fn monotone_in_len_until_link_bound() {
        let mut prev = 0.0;
        for len in [64, 256, 1024, 4096, 16384, 65000] {
            let p = paper_tx(len, LineRate::Oc12);
            assert!(p.achievable_bps >= prev, "len {len}");
            prev = p.achievable_bps;
        }
    }

    #[test]
    fn rx_is_costlier_than_tx_per_cell_all_software() {
        let tx = predict_tx(
            9180,
            &HwPartition::all_software(),
            25.0,
            &BusConfig::default(),
            LineRate::Oc12,
            AalType::Aal5,
        );
        let rx = predict_rx(
            9180,
            &HwPartition::all_software(),
            25.0,
            &BusConfig::default(),
            LineRate::Oc12,
            AalType::Aal5,
        );
        assert!(
            rx.achievable_bps < tx.achievable_bps,
            "receive per-cell work (202) exceeds transmit (172)"
        );
    }

    #[test]
    fn prediction_matches_simulation_when_link_bound() {
        // Cross-validation: analytic link-bound prediction vs the DES.
        let p = paper_tx(40_000, LineRate::Oc12);
        let cfg = hni_core::txsim::TxConfig::paper(LineRate::Oc12);
        let r = hni_core::txsim::run_tx(
            &cfg,
            &hni_core::txsim::greedy_workload(30, 40_000, hni_atm_vc()),
        );
        let rel = (r.goodput_bps - p.achievable_bps).abs() / p.achievable_bps;
        assert!(
            rel < 0.05,
            "sim {} vs analysis {}",
            r.goodput_bps,
            p.achievable_bps
        );
    }

    fn hni_atm_vc() -> hni_atm::VcId {
        hni_atm::VcId::new(0, 32)
    }
}

/// Steady-state goodput including the **per-packet pipeline bubble**.
///
/// The plain bounds above assume perfect pipelining across packets. In
/// the implemented transmit machine (as in the hardware it models) the
/// *engine* serializes one packet's control work with its own data
/// dependencies — setup, then a stall for the first DMA burst, then
/// per-cell work racing the remaining bursts, then completion — while
/// the output FIFO lets the *link* stream continuously across packet
/// boundaries. Steady-state cycle time per packet is therefore
///
/// ```text
///   t_cycle = max( t_link,                 -- cells × slot
///                  t_bus,                  -- all bursts end to end
///                  t_setup + t_fill        -- engine's serial cycle:
///                    + max(t_cells, t_bus_rest)
///                    + t_complete )
/// ```
///
/// For large packets the streaming terms dominate and the plain bound
/// re-emerges; for small packets the engine's serial cycle is most of
/// the time — the divergence EXPERIMENTS.md R-F1 documents, made
/// quantitative. `prediction_with_bubble_matches_simulation` verifies
/// this model tracks the DES within ~12% across the whole grid.
pub fn predict_tx_with_bubble(
    len: usize,
    partition: &HwPartition,
    mips: f64,
    bus: &BusConfig,
    rate: LineRate,
    aal: AalType,
) -> f64 {
    use hni_core::engine::{ProtocolEngine, TaskKind};
    let e = ProtocolEngine::new(mips, partition);
    let cells = aal.cells_for_sdu(len);
    let bursts = if len == 0 { 0 } else { bus.bursts_for(len) };

    let t_setup = e.task_time(TaskKind::TxPacketSetup).as_s_f64();
    let t_complete = e.task_time(TaskKind::TxPacketComplete).as_s_f64();
    let t_burst_engine = e.task_time(TaskKind::TxDmaBurst).as_s_f64();

    // Engine's serial cycle: setup, first-burst stall, then per-cell
    // work racing the remaining bursts, then completion.
    let t_fill = if bursts == 0 {
        0.0
    } else {
        t_burst_engine + bus.burst_time(bus.burst_words(len, 0)).as_s_f64()
    };
    let t_cells = e.tx_per_cell_instructions() as f64 * cells as f64 / (mips * 1e6)
        + t_burst_engine * bursts.saturating_sub(1) as f64;
    let mut t_bus_rest = 0.0;
    for b in 1..bursts {
        t_bus_rest += bus.burst_time(bus.burst_words(len, b)).as_s_f64();
    }
    let t_engine_cycle = t_setup + t_fill + t_cells.max(t_bus_rest) + t_complete;

    // Streaming bounds across packet boundaries (FIFO-decoupled).
    let t_link = cells as f64 * rate.cell_slot_time().as_s_f64();
    let t_bus = if bursts == 0 {
        0.0
    } else {
        bus.burst_time(bus.burst_words(len, 0)).as_s_f64() + t_bus_rest
    };

    let t_cycle = t_link.max(t_bus).max(t_engine_cycle);
    len as f64 * 8.0 / t_cycle
}

#[cfg(test)]
mod bubble_tests {
    use super::*;
    use hni_atm::VcId;
    use hni_core::txsim::{greedy_workload, run_tx, TxConfig};

    #[test]
    fn prediction_with_bubble_matches_simulation() {
        // The refined model must track the DES closely where the plain
        // bounds ran 35% high — across sizes, rates, partitions.
        for rate in [LineRate::Oc3, LineRate::Oc12] {
            for partition in [HwPartition::paper_split(), HwPartition::full_hardware()] {
                for len in [64usize, 256, 1024, 4096, 9180, 65000] {
                    let mut cfg = TxConfig::paper(rate);
                    cfg.partition = partition;
                    let sim = run_tx(&cfg, &greedy_workload(15, len, VcId::new(0, 32)));
                    let model =
                        predict_tx_with_bubble(len, &partition, cfg.mips, &cfg.bus, rate, cfg.aal);
                    let ratio = sim.goodput_bps / model;
                    assert!(
                        (0.88..=1.12).contains(&ratio),
                        "{rate:?}/{}/{len}: sim {:.1} vs bubble model {:.1} Mb/s (ratio {ratio:.3})",
                        partition.name,
                        sim.goodput_bps / 1e6,
                        model / 1e6
                    );
                }
            }
        }
    }

    #[test]
    fn bubble_model_never_exceeds_plain_bound() {
        for len in [64usize, 1024, 9180, 65000] {
            let p = predict_tx(
                len,
                &HwPartition::paper_split(),
                25.0,
                &BusConfig::default(),
                LineRate::Oc12,
                AalType::Aal5,
            );
            let b = predict_tx_with_bubble(
                len,
                &HwPartition::paper_split(),
                25.0,
                &BusConfig::default(),
                LineRate::Oc12,
                AalType::Aal5,
            );
            assert!(
                b <= p.achievable_bps * 1.001,
                "len {len}: {b} > {}",
                p.achievable_bps
            );
        }
    }
}
