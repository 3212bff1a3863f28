//! Golden proofs for the cycle-accounting profiler:
//!
//! 1. **Observation does not perturb** — running any pipeline under a
//!    live `CycleProfiler` (and a live tracer) yields byte-identical
//!    reports, departure schedules and completion clocks included, to
//!    the unprobed run, on clean and faulted links alike.
//! 2. **Off means free** — with the profiler disabled the simulations
//!    perform exactly as many heap allocations as they ever did: the
//!    instrumentation is a branch on `enabled()` and nothing else.
//! 3. **The charges add up** — profiler totals reconcile exactly with
//!    the reports' own busy-time counters, and folded stacks render
//!    deterministically.

use hni_atm::VcId;
use hni_core::e2esim::{run_e2e, run_e2e_full};
use hni_core::rxsim::{run_rx, run_rx_full, RxConfig, RxWorkload};
use hni_core::txsim::{greedy_workload, run_tx, run_tx_full, TxConfig};
use hni_sim::{Duration, FaultPlan};
use hni_sonet::LineRate;
use hni_telemetry::{
    Activity, Component, CycleProfiler, NullProfiler, NullTracer, Profiler, Tracer, VecTracer,
};
use hni_transport::{run_transport, run_transport_full, TransportConfig};

#[path = "support/alloc_counter.rs"]
mod alloc_counter;
use alloc_counter::allocs_during;

fn tx_cfg() -> TxConfig {
    TxConfig::paper(LineRate::Oc12)
}

fn rx_parts() -> (RxConfig, RxWorkload) {
    let cfg = RxConfig::paper(LineRate::Oc12);
    let wl = RxWorkload::uniform(LineRate::Oc12, hni_aal::AalType::Aal5, 4, 5, 9180, 1.0);
    (cfg, wl)
}

#[test]
fn profiled_tx_run_is_byte_identical() {
    let cfg = tx_cfg();
    let wl = greedy_workload(12, 9180, VcId::new(0, 32));
    let plain = run_tx(&cfg, &wl);
    let mut prof = CycleProfiler::new();
    let profiled = run_tx_full(&cfg, &wl, &mut NullTracer, &mut prof);
    assert_eq!(format!("{plain:?}"), format!("{profiled:?}"));
}

#[test]
fn profiled_rx_run_is_byte_identical() {
    let (cfg, wl) = rx_parts();
    let plain = run_rx(&cfg, &wl);
    let mut prof = CycleProfiler::new();
    let profiled = run_rx_full(&cfg, &wl, &mut NullTracer, &mut prof);
    assert_eq!(format!("{plain:?}"), format!("{profiled:?}"));
}

#[test]
fn profiled_e2e_run_is_byte_identical() {
    let txc = tx_cfg();
    let rxc = RxConfig::paper(LineRate::Oc12);
    let wl = greedy_workload(8, 9180, VcId::new(0, 32));
    let prop = Duration::from_us(5);
    let plain = run_e2e(&txc, &rxc, &wl, prop);
    let mut prof = CycleProfiler::new();
    let profiled = run_e2e_full(&txc, &rxc, &wl, prop, &mut NullTracer, &mut prof);
    assert_eq!(format!("{plain:?}"), format!("{profiled:?}"));
}

/// Check one pipeline three ways: `plain` is the report of its plain
/// entry point; `probed` runs its `_full` entry point with the given
/// probes. Null probes and live probes must both reproduce `plain`
/// exactly, and the live probes must actually have observed the run.
fn assert_probes_invisible<R: std::fmt::Debug>(
    what: &str,
    plain: &R,
    probed: impl Fn(&mut dyn Tracer, &mut dyn Profiler) -> R,
) {
    let plain = format!("{plain:?}");
    let null = format!("{:?}", probed(&mut NullTracer, &mut NullProfiler));
    assert_eq!(plain, null, "{what}: null probes changed the report");
    let mut tracer = VecTracer::new();
    let mut prof = CycleProfiler::new();
    let live = format!("{:?}", probed(&mut tracer, &mut prof));
    assert_eq!(plain, live, "{what}: live probes changed the report");
    assert!(!tracer.is_empty(), "{what}: the live tracer saw nothing");
}

#[test]
fn probes_never_change_a_report() {
    let txc = tx_cfg();
    let pkts = greedy_workload(8, 9180, VcId::new(0, 32));
    let prop = Duration::from_us(5);
    let (rx_clean, rwl) = rx_parts();
    let tr_clean = TransportConfig::paper(LineRate::Oc12);

    // The transmit pipeline has no link in front of it: one pass.
    assert_probes_invisible("tx", &run_tx(&txc, &pkts), |t, p| {
        run_tx_full(&txc, &pkts, t, p)
    });

    // Everything with a link runs clean and under loss + bit errors.
    for (name, plan) in [
        ("clean", FaultPlan::NONE),
        ("faulted", FaultPlan::iid(0.01, 1e-5)),
    ] {
        let rxc = RxConfig {
            link_faults: plan,
            link_seed: 1991,
            ..rx_clean.clone()
        };
        let rx = run_rx(&rxc, &rwl);
        assert_eq!(
            rx.link.dropped > 0,
            !plan.is_none(),
            "{name}: {:?}",
            rx.link
        );
        assert_probes_invisible(&format!("rx {name}"), &rx, |t, p| {
            run_rx_full(&rxc, &rwl, t, p)
        });

        let e2e = run_e2e(&txc, &rxc, &pkts, prop);
        assert_eq!(e2e.rx.link.dropped > 0, !plan.is_none(), "{name}");
        assert_probes_invisible(&format!("e2e {name}"), &e2e, |t, p| {
            run_e2e_full(&txc, &rxc, &pkts, prop, t, p)
        });

        let trc = TransportConfig {
            fwd_plan: plan,
            rev_plan: plan,
            seed: 1991,
            ..tr_clean
        };
        let tr = run_transport(&trc);
        assert_eq!(tr.ledger.dropped_link > 0, !plan.is_none(), "{name}");
        assert_probes_invisible(&format!("transport {name}"), &tr, |t, p| {
            run_transport_full(&trc, t, p)
        });
    }
}

#[test]
fn disabled_profiler_adds_zero_allocations() {
    let cfg = tx_cfg();
    let wl = greedy_workload(12, 9180, VcId::new(0, 32));
    // Warm up once (lazy statics, first-touch growth), then baseline
    // against the plain entry point — identical work minus the probes.
    let _ = run_tx(&cfg, &wl);
    let (_, base) = allocs_during(|| run_tx(&cfg, &wl));
    // The NullProfiler path must allocate *exactly* what the plain run
    // does — the gate compiles to a constant-false branch.
    let (_, gated) = allocs_during(|| {
        let mut off = NullProfiler;
        run_tx_full(&cfg, &wl, &mut NullTracer, &mut off)
    });
    assert_eq!(base, gated, "NullProfiler run allocated {gated} vs {base}");
    // And the run itself is allocation-deterministic (the comparison
    // above is meaningful).
    let (_, again) = allocs_during(|| run_tx(&cfg, &wl));
    assert_eq!(base, again);

    let (rcfg, rwl) = rx_parts();
    let _ = run_rx(&rcfg, &rwl);
    let (_, rbase) = allocs_during(|| run_rx(&rcfg, &rwl));
    let (_, rgated) = allocs_during(|| {
        let mut off = NullProfiler;
        run_rx_full(&rcfg, &rwl, &mut NullTracer, &mut off)
    });
    assert_eq!(rbase, rgated);
}

/// The allocation gate counts only the measuring thread: sibling
/// threads allocating in a tight loop throughout the window must not
/// move the count (a process-wide counter fails this every time).
#[test]
fn allocation_gate_ignores_sibling_threads() {
    use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
    use std::sync::Barrier;

    let cfg = tx_cfg();
    let wl = greedy_workload(12, 9180, VcId::new(0, 32));
    let _ = run_tx(&cfg, &wl);
    let (_, quiet) = allocs_during(|| run_tx(&cfg, &wl));

    let stop = AtomicBool::new(false);
    let sibling_allocs = AtomicU64::new(0);
    let started = Barrier::new(3);
    let (noisy, idle) = std::thread::scope(|s| {
        for _ in 0..2 {
            s.spawn(|| {
                started.wait();
                while !stop.load(Ordering::Relaxed) {
                    std::hint::black_box(vec![0u8; 64]);
                    sibling_allocs.fetch_add(1, Ordering::Relaxed);
                }
            });
        }
        started.wait();
        // Measure until the siblings have demonstrably allocated
        // alongside the measuring windows.
        let before = sibling_allocs.load(Ordering::Relaxed);
        let mut noisy = Vec::new();
        while noisy.len() < 20 || sibling_allocs.load(Ordering::Relaxed) < before + 1000 {
            noisy.push(allocs_during(|| run_tx(&cfg, &wl)).1);
        }
        let (_, idle) = allocs_during(|| std::hint::black_box(0u64));
        stop.store(true, Ordering::Relaxed);
        (noisy, idle)
    });
    assert!(
        noisy.iter().all(|&n| n == quiet),
        "counts moved under sibling allocation: {noisy:?} vs {quiet}"
    );
    assert_eq!(idle, 0, "an allocation-free window counted {idle}");
}

#[test]
fn tx_profile_reconciles_with_report_counters() {
    let cfg = tx_cfg();
    let wl = greedy_workload(12, 9180, VcId::new(0, 32));
    let mut prof = CycleProfiler::new();
    let r = run_tx_full(&cfg, &wl, &mut NullTracer, &mut prof);
    let p = prof.snapshot(r.finished_at);
    // Engine busy: the profiler charged exactly the report's counter.
    assert_eq!(p.total(Component::TxEngine, Activity::Busy), r.engine_busy);
    // Bus: transfer + arbitration partition the bus busy time exactly.
    let bus = p.total(Component::TxBus, Activity::Transfer)
        + p.total(Component::TxBus, Activity::Arbitration);
    assert_eq!(bus, r.bus_busy);
    // Link: one cell slot of transfer per cell put on the line.
    assert_eq!(
        p.total(Component::TxLink, Activity::Transfer),
        cfg.rate.cell_slot_time() * r.cells_sent
    );
    // Activity split is exhaustive: active + stalls + idle cover every
    // charged pair (nothing charged outside the enum).
    assert!(p.active_time(Component::TxEngine) >= r.engine_busy);
}

#[test]
fn rx_profile_reconciles_with_report_counters() {
    let (cfg, wl) = rx_parts();
    let mut prof = CycleProfiler::new();
    let r = run_rx_full(&cfg, &wl, &mut NullTracer, &mut prof);
    let p = prof.snapshot(r.run_end);
    // Link transfer: one slot per offered cell.
    assert_eq!(
        p.total(Component::RxLink, Activity::Transfer),
        cfg.rate.cell_slot_time() * r.cells_offered
    );
    // Pool gauge agrees with the report's peak.
    assert_eq!(p.gauge(Component::RxPool).peak, r.pool_peak);
    // Fifo gauge saw the same peak the report counted.
    assert_eq!(p.gauge(Component::RxFifo).peak, r.fifo_peak);
}

#[test]
fn folded_stacks_render_deterministically() {
    let render = || {
        let cfg = tx_cfg();
        let wl = greedy_workload(8, 9180, VcId::new(0, 32));
        let mut prof = CycleProfiler::new();
        let r = run_tx_full(&cfg, &wl, &mut NullTracer, &mut prof);
        prof.snapshot(r.finished_at).folded_stacks()
    };
    let a = render();
    let b = render();
    assert_eq!(a, b);
    assert!(a.lines().any(|l| l.starts_with("tx.engine;busy ")), "{a}");
    assert!(a.lines().any(|l| l.starts_with("tx.link;transfer ")), "{a}");
}
