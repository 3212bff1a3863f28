//! End-to-end timing composition: transmit pipeline → propagation →
//! receive pipeline, as one measurement.
//!
//! The closed-form latency breakdown (R-F3) sums component terms for an
//! *unloaded* path. This composition replays the transmit simulation's
//! actual cell departure times — including every engine, bus, FIFO and
//! pacing interaction — into the receive simulation as the arrival
//! schedule, so end-to-end latency and its *distribution under load*
//! come out of the same machinery the throughput experiments use.
//!
//! What the composition deliberately keeps: the ordering and spacing of
//! cells on the wire (that IS the link). What it abstracts: the SONET
//! frame boundaries (cells ride a continuous slot stream; framing
//! overhead is already accounted in the slot rate).

use crate::rxsim::{run_rx_full, CellArrival, RxConfig, RxPktMeta, RxWorkload};
use crate::txsim::{run_tx_full, CellDeparture, TxConfig, TxPacket};
use hni_aal::AalType;
use hni_sim::{Duration, Histogram, Time};
use hni_telemetry::{NullProfiler, NullTracer, Profiler, TailReservoir, Tracer};

/// End-to-end results.
#[derive(Clone, Debug)]
pub struct E2eReport {
    /// Packets offered.
    pub offered: u64,
    /// Packets delivered into host B memory.
    pub delivered: u64,
    /// Descriptor-at-A → completion-at-B latency, ps: exact count, mean,
    /// min and max, plus the always-on log₂ p50/p90/p99/p999 bands.
    pub latency_hist: Histogram,
    /// Tail exemplars for the end-to-end latency: slowest packets'
    /// identities plus a deterministic identity sample. Joins back to
    /// traces/waterfalls via the packet id (always on, fixed capacity).
    pub tail: TailReservoir,
    /// End-to-end goodput, bits/s.
    pub goodput_bps: f64,
    /// The transmit-side report.
    pub tx: crate::txsim::TxReport,
    /// The receive-side report.
    pub rx: crate::rxsim::RxReport,
}

/// Run packets end to end: transmit pipeline at A, `propagation` of
/// fibre, receive pipeline at B.
pub fn run_e2e(
    tx_cfg: &TxConfig,
    rx_cfg: &RxConfig,
    packets: &[TxPacket],
    propagation: Duration,
) -> E2eReport {
    run_e2e_full(
        tx_cfg,
        rx_cfg,
        packets,
        propagation,
        &mut NullTracer,
        &mut NullProfiler,
    )
}

/// [`run_e2e`] with probes attached to both pipeline halves on one
/// shared clock. Receive-side trace events carry wire-arrival clocks, so
/// a single stream spans descriptor fetch at A through completion at B
/// (the R-F3 waterfall's raw material). The transmit adaptor's resources
/// are profiled as `tx.*` and the receive adaptor's as `rx.*`, so one
/// profile ranks every path resource against the others (the R-O1
/// bottleneck table).
///
/// The receive configuration's [`RxConfig::link_faults`] stand between
/// the two adaptors: the transmit side's actual departures pass through
/// the fault process before becoming the receive side's arrivals, and
/// `report.rx.link` records what the link did.
pub fn run_e2e_full(
    tx_cfg: &TxConfig,
    rx_cfg: &RxConfig,
    packets: &[TxPacket],
    propagation: Duration,
    tracer: &mut dyn Tracer,
    profiler: &mut dyn Profiler,
) -> E2eReport {
    assert_eq!(
        tx_cfg.aal, rx_cfg.aal,
        "both ends must speak the same adaptation layer"
    );
    let tx_report = run_tx_full(tx_cfg, packets, tracer, profiler);
    let wl = rx_workload_from_departures(tx_cfg.aal, packets, &tx_report.departures, propagation);
    let rx_report = run_rx_full(rx_cfg, &wl, tracer, profiler);
    assemble_report(packets, tx_report, rx_report)
}

/// [`run_e2e_full`] with only a tracer. Kept as a one-line forwarder for
/// the external wall-clock benchmark, which imports it by name; it is
/// deleted with its last caller.
pub fn run_e2e_instrumented(
    tx_cfg: &TxConfig,
    rx_cfg: &RxConfig,
    packets: &[TxPacket],
    propagation: Duration,
    tracer: &mut dyn Tracer,
) -> E2eReport {
    run_e2e_full(
        tx_cfg,
        rx_cfg,
        packets,
        propagation,
        tracer,
        &mut NullProfiler,
    )
}

/// [`run_e2e_full`] with only a profiler. Kept as a one-line forwarder
/// for the external wall-clock benchmark, which imports it by name; it
/// is deleted with its last caller.
pub fn run_e2e_profiled(
    tx_cfg: &TxConfig,
    rx_cfg: &RxConfig,
    packets: &[TxPacket],
    propagation: Duration,
    profiler: &mut dyn Profiler,
) -> E2eReport {
    run_e2e_full(
        tx_cfg,
        rx_cfg,
        packets,
        propagation,
        &mut NullTracer,
        profiler,
    )
}

/// Turn the transmit side's cell departures into the receive side's
/// arrival schedule: connection indices assigned per VC, cell counts
/// from the AAL arithmetic, arrival clocks shifted by `propagation`.
fn rx_workload_from_departures(
    aal: AalType,
    packets: &[TxPacket],
    departures: &[CellDeparture],
    propagation: Duration,
) -> RxWorkload {
    // VC → connection index through the sharded connection table (same
    // assignment order as the old HashMap entry API: first-seen wins).
    let mut conn_of: hni_atm::VcTable<u16> = hni_atm::VcTable::new();
    let pkts: Vec<RxPktMeta> = packets
        .iter()
        .map(|p| {
            let next = conn_of.len() as u16;
            let conn = *conn_of
                .get_or_insert_with(p.vc.cam_key() as u64, || next)
                .expect("unbounded table never refuses")
                .1;
            RxPktMeta {
                conn,
                len: p.len,
                cells: aal_cells(aal, p.len),
            }
        })
        .collect();
    let arrivals: Vec<CellArrival> = departures
        .iter()
        .map(|d| CellArrival {
            at: d.at + propagation,
            pkt: d.pkt,
            is_last: d.is_last,
            corrupted: false,
        })
        .collect();
    RxWorkload { arrivals, pkts }
}

/// Fold the two half-pipeline reports into the end-to-end measurement.
fn assemble_report(
    packets: &[TxPacket],
    tx_report: crate::txsim::TxReport,
    rx_report: crate::rxsim::RxReport,
) -> E2eReport {
    let mut latency_hist = Histogram::new();
    let mut tail = TailReservoir::paper();
    let mut delivered_octets = 0u64;
    for (i, done) in rx_report.completions.iter().enumerate() {
        if let Some(t) = done {
            let lat = t.saturating_since(packets[i].arrival);
            latency_hist.record_duration(lat);
            tail.record(packets[i].vc.cam_key(), i as u32, lat, *t);
            delivered_octets += packets[i].len as u64;
        }
    }
    let end = rx_report.finished_at;
    let elapsed = end.saturating_since(Time::ZERO).as_s_f64();
    E2eReport {
        offered: packets.len() as u64,
        delivered: rx_report.delivered_packets,
        latency_hist,
        tail,
        goodput_bps: if elapsed > 0.0 {
            delivered_octets as f64 * 8.0 / elapsed
        } else {
            0.0
        },
        tx: tx_report,
        rx: rx_report,
    }
}

fn aal_cells(aal: AalType, len: usize) -> usize {
    aal.cells_for_sdu(len).max(1)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::txsim::greedy_workload;
    use hni_atm::VcId;
    use hni_sim::FaultPlan;
    use hni_sonet::LineRate;

    fn paper_pair() -> (TxConfig, RxConfig) {
        (
            TxConfig::paper(LineRate::Oc12),
            RxConfig::paper(LineRate::Oc12),
        )
    }

    #[test]
    fn everything_arrives_unloaded() {
        let (txc, rxc) = paper_pair();
        let r = run_e2e(
            &txc,
            &rxc,
            &greedy_workload(10, 9180, VcId::new(0, 32)),
            Duration::from_us(5),
        );
        assert_eq!(r.delivered, 10);
        assert_eq!(r.rx.failed_packets, 0);
        assert!(r.latency_hist.count() == 10);
    }

    #[test]
    fn single_packet_latency_close_to_analytic_total() {
        let (txc, rxc) = paper_pair();
        let prop = Duration::from_us(5);
        let r = run_e2e(
            &txc,
            &rxc,
            &greedy_workload(1, 9180, VcId::new(0, 32)),
            prop,
        );
        let analytic = hni_analysis_total_us(9180, prop);
        let measured = r.latency_hist.mean() / 1e6;
        let rel = (measured - analytic).abs() / analytic;
        assert!(
            rel < 0.15,
            "e2e sim {measured} µs vs analytic {analytic} µs"
        );
    }

    /// Recompute the analytic total here rather than depending on
    /// hni-analysis (which depends on this crate).
    fn hni_analysis_total_us(len: usize, prop: Duration) -> f64 {
        use crate::bus::BusConfig;
        use crate::engine::{HwPartition, ProtocolEngine, TaskKind};
        let e = ProtocolEngine::new(25.0, &HwPartition::paper_split());
        let bus = BusConfig::default();
        let cells = AalType::Aal5.cells_for_sdu(len);
        let mut total = e.task_time(TaskKind::TxPacketSetup)
            + e.task_time(TaskKind::TxDmaBurst)
            + bus.burst_time(bus.burst_words(len, 0))
            + e.task_time(TaskKind::TxCellSegment)
            + LineRate::Oc12.cell_slot_time() * cells as u64
            + prop
            + e.task_time(TaskKind::RxCellEnqueue)
            + e.task_time(TaskKind::RxPacketValidate)
            + e.task_time(TaskKind::RxPacketComplete);
        for b in 0..bus.bursts_for(len) {
            total += e.task_time(TaskKind::RxDmaBurst) + bus.burst_time(bus.burst_words(len, b));
        }
        total.as_us_f64()
    }

    #[test]
    fn propagation_adds_linearly() {
        let (txc, rxc) = paper_pair();
        let near = run_e2e(
            &txc,
            &rxc,
            &greedy_workload(1, 4096, VcId::new(0, 32)),
            Duration::from_us(5),
        );
        let far = run_e2e(
            &txc,
            &rxc,
            &greedy_workload(1, 4096, VcId::new(0, 32)),
            Duration::from_ms(5),
        );
        let delta = far.latency_hist.mean() / 1e6 - near.latency_hist.mean() / 1e6;
        assert!((delta - 4995.0).abs() < 1.0, "delta {delta}");
    }

    #[test]
    fn latency_under_load_exceeds_unloaded() {
        let (txc, rxc) = paper_pair();
        let unloaded = run_e2e(
            &txc,
            &rxc,
            &greedy_workload(1, 9180, VcId::new(0, 32)),
            Duration::ZERO,
        );
        let loaded = run_e2e(
            &txc,
            &rxc,
            &greedy_workload(40, 9180, VcId::new(0, 32)),
            Duration::ZERO,
        );
        // Queueing: the mean latency of a deep backlog is far above one
        // packet's pipeline latency (packets wait for the link).
        assert!(
            loaded.latency_hist.mean() > 3.0 * unloaded.latency_hist.mean(),
            "loaded {} vs unloaded {}",
            loaded.latency_hist.mean(),
            unloaded.latency_hist.mean()
        );
        // And the max is near the whole transfer duration.
        assert!(loaded.latency_hist.max() as f64 > 10.0 * unloaded.latency_hist.mean());
    }

    #[test]
    fn faultless_plan_reproduces_clean_e2e_exactly() {
        let (txc, rxc) = paper_pair();
        let pkts = greedy_workload(12, 9180, VcId::new(0, 32));
        let clean = run_e2e(&txc, &rxc, &pkts, Duration::from_us(5));
        let seeded = RxConfig {
            link_seed: 1,
            ..rxc
        };
        let faulted = run_e2e(&txc, &seeded, &pkts, Duration::from_us(5));
        assert_eq!(
            faulted.rx.link.rng_draws, 0,
            "faultless path must not touch the RNG"
        );
        assert_eq!(format!("{clean:?}"), format!("{faulted:?}"));
    }

    #[test]
    fn faulted_e2e_loses_frames_and_reconciles() {
        let (txc, mut rxc) = paper_pair();
        rxc.link_faults = FaultPlan::loss(0.01);
        rxc.link_seed = 7;
        let pkts = greedy_workload(40, 9180, VcId::new(0, 32));
        let r = run_e2e(&txc, &rxc, &pkts, Duration::from_us(5));
        assert!(
            r.rx.link.dropped > 0,
            "1% loss over 40 jumbo frames should hit"
        );
        assert!(r.delivered < r.offered);
        assert_eq!(r.delivered + r.rx.failed_packets, r.offered);
        assert!(
            r.rx.ledger.reconciles(),
            "cell ledger must balance: {:?}",
            r.rx.ledger
        );
    }

    #[test]
    fn e2e_conserves_packets_across_vcs() {
        let (txc, rxc) = paper_pair();
        let mut pkts = Vec::new();
        for v in 0..6u16 {
            for i in 0..5usize {
                pkts.push(TxPacket {
                    vc: VcId::new(0, 40 + v),
                    len: 1000 + i * 500,
                    arrival: Time::from_us((v as u64) * 7 + i as u64),
                    pcr: None,
                });
            }
        }
        let r = run_e2e(&txc, &rxc, &pkts, Duration::from_us(25));
        assert_eq!(r.delivered, 30);
        assert_eq!(r.offered, 30);
    }
}
