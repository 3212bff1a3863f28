//! R-F2: receive goodput and loss versus packet size, per partition,
//! plus the host-side interrupt-coalescing comparison.

use crate::table::{fmt_bps, fmt_pct, Table};
use crate::Run;
use hni_aal::AalType;
use hni_core::engine::HwPartition;
use hni_core::rxsim::{run_rx, run_rx_full, RxConfig, RxWorkload};
use hni_host::{DriverCosts, HostCpu, InterruptMode, RxHostModel};
use hni_sim::{Duration, Time};
use hni_sonet::LineRate;
use hni_telemetry::{Profiler, Tracer};

/// Packet sizes swept (octets).
pub const SIZES: [usize; 5] = [64, 1024, 4096, 9180, 65000];

/// One receive point.
pub struct Point {
    /// Partition name.
    pub partition: &'static str,
    /// Packet size.
    pub len: usize,
    /// Simulated goodput.
    pub sim_bps: f64,
    /// Cells dropped (FIFO + pool) as a fraction of offered.
    pub drop_fraction: f64,
    /// Packets delivered / offered.
    pub delivery_fraction: f64,
}

/// Sweep receive throughput at full line load, OC-12. Points run in
/// parallel under the `HNI_JOBS` worker pool; the output order is the
/// serial grid order.
pub fn sweep(pkts_per_vc: usize) -> Vec<Point> {
    let mut grid = Vec::new();
    for partition in [
        HwPartition::all_software(),
        HwPartition::paper_split(),
        HwPartition::full_hardware(),
    ] {
        for &len in &SIZES {
            grid.push((partition, len));
        }
    }
    crate::par_sweep(&grid, |&(partition, len)| {
        let mut cfg = RxConfig::paper(LineRate::Oc12);
        cfg.partition = partition;
        let wl = RxWorkload::uniform(LineRate::Oc12, AalType::Aal5, 4, pkts_per_vc, len, 1.0);
        let r = run_rx(&cfg, &wl);
        Point {
            partition: partition.name,
            len,
            sim_bps: r.goodput_bps,
            drop_fraction: (r.dropped_fifo + r.dropped_pool) as f64 / r.cells_offered.max(1) as f64,
            delivery_fraction: r.delivered_packets as f64 / wl.pkts.len() as f64,
        }
    })
}

/// The canonical run (paper split, OC-12 full line load, 4 VCs ×
/// 9180-octet packets) with the caller's probes attached.
pub fn canonical_run(tracer: &mut dyn Tracer, profiler: &mut dyn Profiler) -> Run {
    let cfg = RxConfig::paper(LineRate::Oc12);
    let wl = RxWorkload::uniform(LineRate::Oc12, AalType::Aal5, 4, 5, 9180, 1.0);
    Run::Rx(run_rx_full(&cfg, &wl, tracer, profiler))
}

/// Host-side comparison: CPU utilization delivering 9180-octet packets
/// at the given fraction of OC-12 payload rate, per interrupt mode.
pub fn host_interrupt_comparison(load: f64) -> Vec<(String, f64, u64)> {
    let len = 9180usize;
    let rate_bps = LineRate::Oc12.payload_bps() * load;
    let pkts_per_s = rate_bps / (len as f64 * 8.0);
    let gap = Duration::from_s_f64(1.0 / pkts_per_s);
    let arrivals: Vec<(Time, usize)> = (0..400).map(|i| (Time::ZERO + gap * i, len)).collect();
    let modes: [(String, InterruptMode); 3] = [
        ("per-packet".into(), InterruptMode::PerPacket),
        (
            "coalesce 8 / 1 ms".into(),
            InterruptMode::Coalesced {
                max_packets: 8,
                max_delay: Duration::from_ms(1),
            },
        ),
        (
            "coalesce 32 / 4 ms".into(),
            InterruptMode::Coalesced {
                max_packets: 32,
                max_delay: Duration::from_ms(4),
            },
        ),
    ];
    modes
        .into_iter()
        .map(|(name, mode)| {
            let m = RxHostModel {
                cpu: HostCpu::workstation(),
                costs: DriverCosts::default(),
                interrupts: mode,
            };
            let r = m.process(&arrivals);
            (name, r.cpu_util, r.interrupts)
        })
        .collect()
}

/// Render the figure.
pub fn run() -> String {
    let mut t = Table::new([
        "partition",
        "pkt octets",
        "sim goodput",
        "cell drops",
        "pkts delivered",
    ]);
    for p in sweep(20) {
        t.row([
            p.partition.to_string(),
            p.len.to_string(),
            fmt_bps(p.sim_bps),
            fmt_pct(p.drop_fraction),
            fmt_pct(p.delivery_fraction),
        ]);
    }
    let mut h = Table::new(["interrupt mode", "host CPU util", "interrupts"]);
    for (name, util, ints) in host_interrupt_comparison(0.5) {
        h.row([name, fmt_pct(util), ints.to_string()]);
    }
    format!(
        "R-F2 — Receive goodput vs packet size at OC-12 line load\n\n{}\n\
         Host CPU cost of delivery at 50% OC-12 payload load (9180-octet packets):\n{}",
        t.render(),
        h.render()
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_split_delivers_everything_software_does_not() {
        let pts = sweep(10);
        let split_big = pts
            .iter()
            .find(|p| p.partition == "paper-split" && p.len == 9180)
            .unwrap();
        assert!(split_big.delivery_fraction > 0.999);
        let sw_big = pts
            .iter()
            .find(|p| p.partition == "all-software" && p.len == 9180)
            .unwrap();
        assert!(
            sw_big.delivery_fraction < 0.5,
            "got {}",
            sw_big.delivery_fraction
        );
    }

    #[test]
    fn coalescing_lowers_cpu_util() {
        let rows = host_interrupt_comparison(0.5);
        let per_packet = rows[0].1;
        let coalesced = rows[2].1;
        assert!(coalesced < per_packet);
        assert!(rows[2].2 < rows[0].2 / 8);
    }
}
