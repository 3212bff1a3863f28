//! Chaos invariants: randomly generated (but seeded) fault plans pushed
//! through the receive pipeline and the end-to-end composition must
//! never panic, and every injected cell must reconcile to exactly one
//! fate — delivered, dropped(reason) or discarded(reason) — both in the
//! run's own [`CellLedger`] and in the metrics registry derived from
//! the telemetry stream.
//!
//! Seeds come from `HNI_CHAOS_SEEDS` (comma-separated) when set — ci.sh
//! pins two — and default to a small sweep otherwise. Every seed is
//! printed on failure, so any counterexample is a one-line repro.

use hni_core::e2esim::run_e2e;
use hni_core::rxsim::{run_rx_full, RxConfig, RxWorkload};
use hni_core::txsim::{greedy_workload, TxConfig};
use hni_core::DiscardPolicy;
use hni_faults::chaos;
use hni_sim::Duration;
use hni_sonet::LineRate;
use hni_telemetry::{Metric, MetricsRegistry, NullProfiler, VecTracer};

fn seeds() -> Vec<u64> {
    match std::env::var("HNI_CHAOS_SEEDS") {
        Ok(s) => s
            .split(',')
            .map(|x| x.trim().parse().expect("HNI_CHAOS_SEEDS: bad seed"))
            .collect(),
        Err(_) => (0..24).collect(),
    }
}

/// Vary the degradation policy and pool pressure with the seed so the
/// chaos sweep exercises drop-tail, EPD and PPD under both roomy and
/// starved pools, behind a random link fault plan from the same seed.
fn rx_cfg_for(seed: u64) -> RxConfig {
    let mut cfg = RxConfig::paper(LineRate::Oc12);
    cfg.link_faults = chaos::random_plan(seed);
    cfg.link_seed = seed;
    cfg.policy = match seed % 3 {
        0 => DiscardPolicy::DropTail,
        1 => DiscardPolicy::Epd { threshold: 2 },
        _ => DiscardPolicy::Ppd,
    };
    if seed % 2 == 1 {
        cfg.pool.total_buffers = 16;
    }
    if seed % 4 == 2 {
        cfg.bus_faults = chaos::random_bus_plan(seed);
    }
    cfg
}

fn counter(reg: &MetricsRegistry, name: &str) -> (u64, u64) {
    match reg.get(name) {
        Some(Metric::Counter(c)) => (c.events(), c.bytes()),
        None => (0, 0),
        other => panic!("{name}: unexpected metric {other:?}"),
    }
}

#[test]
fn chaotic_rx_runs_reconcile_ledger_and_registry() {
    let wl = RxWorkload::uniform(LineRate::Oc12, hni_aal::AalType::Aal5, 16, 4, 9180, 1.0);
    for seed in seeds() {
        let cfg = rx_cfg_for(seed);
        let mut tracer = VecTracer::new();
        let report = run_rx_full(&cfg, &wl, &mut tracer, &mut NullProfiler);
        let (l, lf) = (report.ledger, report.link);
        assert!(
            l.reconciles(),
            "seed {seed}: ledger does not balance: {l:?}"
        );
        assert_eq!(
            l.injected,
            lf.offered + lf.duplicated,
            "seed {seed}: injected ≠ offered+duplicated"
        );
        assert_eq!(l.dropped_link, lf.dropped, "seed {seed}");

        // The registry is a query over the telemetry stream; it must
        // agree with the run's own accounting cell for cell.
        let reg = MetricsRegistry::from_trace(tracer.events(), report.run_end);
        let (cells, _) = counter(&reg, "nic.rx.cells");
        assert_eq!(
            cells,
            l.injected - l.dropped_link,
            "seed {seed}: nic.rx.cells ≠ cells reaching the interface"
        );
        let (fifo, _) = counter(&reg, "nic.rx.drops.fifo");
        assert_eq!(fifo, l.dropped_fifo, "seed {seed}: fifo drops");
        let (pool, _) = counter(&reg, "nic.rx.drops.pool");
        assert_eq!(pool, l.dropped_pool, "seed {seed}: pool drops");
        let (_, epd) = counter(&reg, "nic.rx.discards.epd");
        assert_eq!(epd, l.discarded_epd, "seed {seed}: EPD discards");
        let (_, ppd) = counter(&reg, "nic.rx.discards.ppd");
        assert_eq!(ppd, l.discarded_ppd, "seed {seed}: PPD discards");
        let (_, stale) = counter(&reg, "nic.rx.discards.stale");
        assert_eq!(stale, l.discarded_stale, "seed {seed}: stale discards");
        let (_, expired) = counter(&reg, "nic.rx.discards.expired");
        assert_eq!(expired, l.discarded_expired, "seed {seed}: expiries");
        let (validate_fails, _) = counter(&reg, "nic.rx.validate.failures");
        if l.discarded_crc > 0 {
            assert!(
                validate_fails > 0,
                "seed {seed}: crc discards without validate failures"
            );
        }

        // Packet conservation on top of cell conservation.
        assert!(
            report.delivered_packets + report.failed_packets <= wl.pkts.len() as u64,
            "seed {seed}: more packet outcomes than packets"
        );
    }
}

#[test]
fn chaotic_e2e_runs_never_panic_and_conserve_packets() {
    let txc = TxConfig::paper(LineRate::Oc12);
    let pkts = greedy_workload(30, 9180, hni_atm::VcId::new(0, 32));
    for seed in seeds() {
        let rxc = rx_cfg_for(seed);
        let r = run_e2e(&txc, &rxc, &pkts, Duration::from_us(25));
        let lf = r.rx.link;
        assert!(
            r.rx.ledger.reconciles(),
            "seed {seed}: e2e ledger does not balance: {:?}",
            r.rx.ledger
        );
        assert_eq!(
            r.delivered + r.rx.failed_packets,
            r.offered,
            "seed {seed}: every offered packet must be delivered or failed"
        );
        assert_eq!(r.rx.ledger.dropped_link, lf.dropped, "seed {seed}");
        assert!(
            r.rx.ledger.delivered_cells <= r.rx.ledger.injected,
            "seed {seed}: delivered more cells than injected"
        );
    }
}

/// With the closed-loop transport enabled, recovery *re-injects* cells
/// — retransmitted frames and late duplicates of already-delivered
/// ones — and the ledger must still reconcile every injected cell to
/// exactly one fate, with `injected_retx` carrying the provenance and
/// `discarded_superseded` the fate of redundant deliveries.
#[test]
fn chaotic_transport_runs_conserve_cells_with_retransmission() {
    use hni_faults::{scenarios, DelayModel};
    use hni_transport::{run_transport, TransportConfig};
    for seed in seeds() {
        let mut cfg = TransportConfig::paper(LineRate::Oc12);
        cfg.n_vcs = 2;
        cfg.frames_per_vc = 6;
        cfg.frame_len = 1536;
        cfg.policy = match seed % 3 {
            0 => DiscardPolicy::DropTail,
            1 => DiscardPolicy::Epd { threshold: 2 },
            _ => DiscardPolicy::Ppd,
        };
        if seed % 2 == 1 {
            cfg.pool.total_buffers = 8;
        }
        cfg.fwd_plan = chaos::random_plan(seed);
        cfg.rev_plan = chaos::random_plan(seed ^ 0x5EED);
        cfg.seed = seed;
        let path = match seed % 4 {
            0 => DelayModel::NONE,
            1 => scenarios::lan_path(),
            _ => scenarios::wan_path(),
        };
        let cfg = cfg.with_path(path);
        let r = run_transport(&cfg);
        let l = &r.ledger;
        assert!(
            l.reconciles(),
            "seed {seed}: ledger does not balance: {l:?}"
        );
        assert!(
            l.injected_retx <= l.injected,
            "seed {seed}: more retransmitted cells than cells: {l:?}"
        );
        // Every retransmitted frame contributes its full cell count to
        // the provenance bucket; wire duplication of a retransmitted
        // cell can only push it higher.
        let retx_cells = r.retransmits * cfg.cells_per_frame() as u64;
        assert!(
            l.injected_retx >= retx_cells,
            "seed {seed}: retransmit provenance lost cells: {} < {retx_cells}",
            l.injected_retx
        );
        assert!(
            retx_cells > 0 || l.injected_retx == 0,
            "seed {seed}: retransmit provenance without retransmissions"
        );
        if r.duplicate_frames > 0 {
            assert!(
                l.discarded_superseded > 0,
                "seed {seed}: duplicate deliveries left no superseded cells: {l:?}"
            );
        }
        // Frame conservation above cell conservation: the sender must
        // resolve every offered frame, one way or the other.
        assert!(r.completed, "seed {seed}: transfer did not terminate");
        assert_eq!(
            r.acked_frames + r.abandoned_frames,
            r.offered_frames,
            "seed {seed}: every offered frame must be acked or abandoned"
        );
    }
}

#[test]
fn chaos_is_reproducible_per_seed() {
    let wl = RxWorkload::uniform(LineRate::Oc12, hni_aal::AalType::Aal5, 8, 4, 9180, 1.0);
    for seed in [3u64, 17] {
        let cfg = rx_cfg_for(seed);
        let mut t1 = VecTracer::new();
        let mut t2 = VecTracer::new();
        let a = run_rx_full(&cfg, &wl, &mut t1, &mut NullProfiler);
        let b = run_rx_full(&cfg, &wl, &mut t2, &mut NullProfiler);
        assert_eq!(format!("{a:?}"), format!("{b:?}"), "seed {seed}");
        assert_eq!(a.link, b.link, "seed {seed}");
        assert_eq!(t1.events(), t2.events(), "seed {seed}: traces diverged");
    }
}
