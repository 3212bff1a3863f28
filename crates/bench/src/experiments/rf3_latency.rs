//! R-F3: unloaded end-to-end latency breakdown versus packet size,
//! analytic decomposition cross-checked against the transmit DES.

use crate::table::Table;
use crate::Run;
use hni_aal::AalType;
use hni_analysis::latency::unloaded_latency;
use hni_atm::VcId;
use hni_core::bus::BusConfig;
use hni_core::e2esim::{run_e2e, run_e2e_full, E2eReport};
use hni_core::engine::HwPartition;
use hni_core::rxsim::RxConfig;
use hni_core::txsim::{greedy_workload, run_tx, TxConfig};
use hni_sim::Duration;
use hni_sonet::LineRate;
use hni_telemetry::{NullProfiler, NullTracer, Profiler, TraceEvent, Tracer, VecTracer};

/// Packet sizes swept.
pub const SIZES: [usize; 5] = [64, 1024, 9180, 32768, 65000];
/// Propagation delay assumed (≈ 1 km of fibre).
pub const PROPAGATION: Duration = Duration::from_us(5);
/// Canonical traced packet size (the IP-over-ATM default MTU row).
pub const TRACE_LEN: usize = 9180;

/// Capture the full event trace of one unloaded end-to-end run — the
/// raw material `hni_telemetry::PacketSpans` turns back into this
/// experiment's per-stage breakdown.
pub fn trace_run(len: usize) -> Vec<TraceEvent> {
    let mut tracer = VecTracer::new();
    run_e2e_full(
        &TxConfig::paper(LineRate::Oc12),
        &RxConfig::paper(LineRate::Oc12),
        &greedy_workload(1, len, VcId::new(0, 32)),
        PROPAGATION,
        &mut tracer,
        &mut NullProfiler,
    );
    tracer.into_events()
}

/// The canonical loaded end-to-end run (20 × 9180-octet packets) with
/// the caller's probes attached. Unlike the single-packet trace, a
/// steady-state backlog gives every path resource a meaningful
/// utilization to rank and the tail attributor a tail to explain.
pub fn canonical_run(tracer: &mut dyn Tracer, profiler: &mut dyn Profiler) -> E2eReport {
    run_e2e_full(
        &TxConfig::paper(LineRate::Oc12),
        &RxConfig::paper(LineRate::Oc12),
        &greedy_workload(20, TRACE_LEN, VcId::new(0, 32)),
        PROPAGATION,
        tracer,
        profiler,
    )
}

/// Render the breakdown table.
pub fn run() -> String {
    let mut t = Table::new([
        "pkt octets",
        "tx setup",
        "tx 1st burst",
        "tx 1st cell",
        "serialize",
        "propagate",
        "rx cell",
        "validate",
        "deliver dma",
        "complete",
        "TOTAL",
        "tx sim (meas)",
        "e2e sim (meas)",
    ]);
    for &len in &SIZES {
        let b = unloaded_latency(
            len,
            &HwPartition::paper_split(),
            25.0,
            &BusConfig::default(),
            LineRate::Oc12,
            AalType::Aal5,
            PROPAGATION,
        );
        // Measured transmit-side latency of a single unloaded packet:
        // descriptor arrival → last cell on the line. Comparable to the
        // tx-side analytic terms (setup + first burst + first cell +
        // serialization).
        let cfg = TxConfig::paper(LineRate::Oc12);
        let sim = run_tx(&cfg, &greedy_workload(1, len, VcId::new(0, 32)));
        // And the full-path measurement: tx DES departures fed through
        // propagation into the rx DES (includes receive-side queueing the
        // analytic breakdown approximates term by term).
        let e2e = run_e2e(
            &cfg,
            &RxConfig::paper(LineRate::Oc12),
            &greedy_workload(1, len, VcId::new(0, 32)),
            PROPAGATION,
        );
        let us = |d: Duration| format!("{:.2}", d.as_us_f64());
        t.row([
            len.to_string(),
            us(b.tx_setup),
            us(b.tx_first_burst),
            us(b.tx_first_cell),
            us(b.serialization),
            us(b.propagation),
            us(b.rx_last_cell),
            us(b.rx_validate),
            us(b.rx_delivery_dma),
            us(b.rx_complete),
            us(b.total),
            format!("{:.2}", sim.latency_hist.mean() / 1e6),
            format!("{:.2}", e2e.latency_hist.mean() / 1e6),
        ]);
    }
    // Percentile waterfall of the loaded canonical run: the unloaded
    // table above shows means; under a 20-packet backlog the tail is
    // the story, and the always-on histograms have it for free.
    let loaded = Run::E2e(canonical_run(&mut NullTracer, &mut NullProfiler));
    let w = crate::pct_table("loaded latency", &loaded.plane().latency);
    format!(
        "R-F3 — Unloaded end-to-end latency breakdown (µs), OC-12, paper split\n\
         ('tx sim' = measured descriptor→line latency from the transmit DES;\n\
          'e2e sim' = full-path DES composition — compare against TOTAL)\n\n{}\n\
         Loaded percentile waterfall (20 × 9180-octet greedy burst, same path;\n\
          always-on histograms — p50/p99 bands are log2-bucket upper bounds,\n\
          max is exact; see EXPERIMENTS.md \"Percentile methodology\"):\n{}",
        t.render(),
        w.render()
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn e2e_sim_close_to_analytic_total() {
        for &len in &SIZES {
            let b = unloaded_latency(
                len,
                &HwPartition::paper_split(),
                25.0,
                &BusConfig::default(),
                LineRate::Oc12,
                AalType::Aal5,
                PROPAGATION,
            );
            let e2e = run_e2e(
                &TxConfig::paper(LineRate::Oc12),
                &RxConfig::paper(LineRate::Oc12),
                &greedy_workload(1, len, VcId::new(0, 32)),
                PROPAGATION,
            );
            let measured = e2e.latency_hist.mean() / 1e6;
            let analytic = b.total.as_us_f64();
            let rel = (measured - analytic).abs() / analytic;
            assert!(
                rel < 0.20,
                "len {len}: e2e sim {measured} vs analytic total {analytic}"
            );
        }
    }

    #[test]
    fn waterfall_reproduces_breakdown_within_tolerance() {
        let events = trace_run(TRACE_LEN);
        let spans = hni_telemetry::PacketSpans::from_events(&events);
        let life = spans.life(0).expect("packet 0 traced");
        assert!(life.is_complete(), "packet 0 fully traced");
        let stages = life.breakdown();
        let total = life.total().expect("complete life has a total");
        let b = unloaded_latency(
            TRACE_LEN,
            &HwPartition::paper_split(),
            25.0,
            &BusConfig::default(),
            LineRate::Oc12,
            AalType::Aal5,
            PROPAGATION,
        );
        // The trace-derived total must sit within the same tolerance the
        // e2e simulation itself is held to against the analytic total.
        let measured = total.as_us_f64();
        let analytic = b.total.as_us_f64();
        let rel = (measured - analytic).abs() / analytic;
        assert!(
            rel < 0.20,
            "waterfall total {measured} vs analytic {analytic}"
        );
        // Stage-level spot checks: propagation is exact by construction,
        // serialization is the dominant term and must match closely.
        let stage_us = |label: &str| {
            let stage = stages.iter().find(|s| s.label == label).expect(label);
            stage.total().as_us_f64()
        };
        assert!((stage_us("propagate") - b.propagation.as_us_f64()).abs() < 1e-9);
        let ser = stage_us("serialize");
        let ser_analytic = b.serialization.as_us_f64();
        assert!(
            (ser - ser_analytic).abs() / ser_analytic < 0.20,
            "serialize {ser} vs analytic {ser_analytic}"
        );
        // And the telescoping invariant: the stages sum to the total.
        let sum = stages.iter().fold(Duration::ZERO, |a, s| a + s.total());
        assert_eq!(sum, total);
    }

    #[test]
    fn sim_tx_latency_close_to_analytic_tx_terms() {
        for &len in &SIZES {
            let b = unloaded_latency(
                len,
                &HwPartition::paper_split(),
                25.0,
                &BusConfig::default(),
                LineRate::Oc12,
                AalType::Aal5,
                PROPAGATION,
            );
            let analytic_tx =
                (b.tx_setup + b.tx_first_burst + b.tx_first_cell + b.serialization).as_us_f64();
            let cfg = TxConfig::paper(LineRate::Oc12);
            let sim = run_tx(&cfg, &greedy_workload(1, len, VcId::new(0, 32)));
            let measured = sim.latency_hist.mean() / 1e6;
            let rel = (measured - analytic_tx).abs() / analytic_tx;
            assert!(
                rel < 0.30,
                "len {len}: sim {measured} vs analytic {analytic_tx}"
            );
        }
    }
}
