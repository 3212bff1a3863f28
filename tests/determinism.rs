//! Reproducibility: identical seeds and configurations must yield
//! bit-identical results across every layer of the workspace — the
//! property EXPERIMENTS.md numbers rest on.

use hni_aal::AalType;
use hni_atm::VcId;
use hni_bench::experiments::{rf7_delineation, rt4_pacing};
use hni_core::rxsim::{run_rx, RxConfig, RxWorkload};
use hni_core::txsim::{greedy_workload, run_tx, TxConfig};
use hni_sim::{FaultInjector, FaultPlan, Time};
use hni_sonet::LineRate;

#[test]
fn tx_pipeline_deterministic() {
    let cfg = TxConfig::paper(LineRate::Oc12);
    let wl = greedy_workload(25, 9180, VcId::new(0, 32));
    let a = run_tx(&cfg, &wl);
    let b = run_tx(&cfg, &wl);
    assert_eq!(a.cells_sent, b.cells_sent);
    assert_eq!(a.finished_at, b.finished_at);
    assert_eq!(a.engine_busy, b.engine_busy);
    assert_eq!(a.bus_busy, b.bus_busy);
    assert_eq!(a.fifo_peak, b.fifo_peak);
}

#[test]
fn rx_pipeline_deterministic() {
    let cfg = RxConfig::paper(LineRate::Oc12);
    let wl = RxWorkload::uniform(LineRate::Oc12, AalType::Aal5, 8, 6, 4096, 0.95);
    let a = run_rx(&cfg, &wl);
    let b = run_rx(&cfg, &wl);
    assert_eq!(a.delivered_packets, b.delivered_packets);
    assert_eq!(a.dropped_fifo, b.dropped_fifo);
    assert_eq!(a.finished_at, b.finished_at);
    assert_eq!(a.pool_peak, b.pool_peak);
}

#[test]
fn lossy_injector_deterministic_per_seed() {
    let run = |seed: u64| {
        let mut inj = FaultInjector::seeded(FaultPlan::iid(0.01, 1e-6), seed);
        (0..2000).map(|_| inj.fate(424)).collect::<Vec<_>>()
    };
    assert_eq!(run(7), run(7));
    assert_ne!(run(7), run(8), "different seeds must differ");
}

#[test]
fn experiment_outputs_are_reproducible() {
    // Rendered experiment reports are pure functions of their inputs.
    let a = rt4_pacing::run();
    let b = rt4_pacing::run();
    assert_eq!(a, b);
    let c = rf7_delineation::measure(1e-4, 1500, 77);
    let d = rf7_delineation::measure(1e-4, 1500, 77);
    assert_eq!(c.delivered, d.delivered);
    assert_eq!(c.corrected, d.corrected);
}

#[test]
fn functional_path_deterministic() {
    use hni_core::{Nic, NicConfig, NicEvent};
    let run = || {
        let cfg = NicConfig::paper(LineRate::Oc3);
        let mut a = Nic::new(cfg.clone());
        let mut b = Nic::new(cfg);
        let vc = VcId::new(0, 40);
        a.open_vc(vc).unwrap();
        b.open_vc(vc).unwrap();
        let mut trace = Vec::new();
        for _ in 0..12 {
            let f = a.frame_tick();
            b.receive_line_octets(&f, Time::ZERO);
        }
        for i in 0..10u32 {
            a.send(vc, vec![i as u8; 1000], Time::ZERO).unwrap();
        }
        for _ in 0..20 {
            let f = a.frame_tick();
            trace.extend_from_slice(&f[..8]); // sample of the line bytes
            b.receive_line_octets(&f, Time::ZERO);
            while let Some(e) = b.poll() {
                if let NicEvent::PacketReceived { data, .. } = e {
                    trace.push(data.len() as u8);
                }
            }
        }
        trace
    };
    assert_eq!(run(), run());
}
