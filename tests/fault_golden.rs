//! Golden proofs for the fault-injection layer:
//!
//! 1. **Faultless means free** — with `FaultPlan::NONE` every injection
//!    point (the fault injector, bus, receive pipeline, end-to-end
//!    composition) makes *zero* RNG draws: the clean path never pays for
//!    the machinery.
//! 2. **Faultless means identical** — a `NONE`-plan run produces
//!    byte-identical reports whatever its link seed, so enabling the
//!    fault layer cannot perturb any published number.
//! 3. **Seeds pin everything** — a faulted run is a pure function of
//!    (plan, seed): same inputs, same ledger, same report; different
//!    seeds genuinely differ.

use hni_atm::VcId;
use hni_core::e2esim::run_e2e;
use hni_core::rxsim::{run_rx, RxConfig, RxWorkload};
use hni_core::txsim::{greedy_workload, TxConfig};
use hni_core::{Bus, BusConfig};
use hni_sim::{BusFaultPlan, Duration, FaultInjector, FaultPlan, Time};
use hni_sonet::LineRate;
use hni_telemetry::{Component, NullProfiler};

#[test]
fn faultless_injector_never_touches_the_rng() {
    let mut inj = FaultInjector::seeded(FaultPlan::NONE, 1234);
    for _ in 0..10_000 {
        let fate = inj.fate(424);
        assert!(!fate.lost && !fate.duplicated);
        assert_eq!(fate.displaced, 0);
        assert!(fate.flipped_bits.is_empty());
    }
    assert_eq!(inj.rng_draws(), 0);
}

#[test]
fn faultless_bus_never_touches_the_rng() {
    let cfg = BusConfig::default();
    let mut plain = Bus::new(cfg);
    let mut gated = Bus::with_faults(cfg, BusFaultPlan::NONE);
    let mut now = Time::ZERO;
    for i in 0..2_000u32 {
        let a = plain.grant(now, 32, Component::RxBus, &mut NullProfiler);
        let b = gated.grant(now, 32, Component::RxBus, &mut NullProfiler);
        assert_eq!(a, b, "grant {i} diverged");
        now = a;
    }
    assert_eq!(gated.fault_rng_draws(), 0);
    assert_eq!(gated.stalls(), 0);
    assert_eq!(gated.retries(), 0);
}

#[test]
fn faultless_rx_run_is_byte_identical_and_draw_free() {
    let cfg = RxConfig::paper(LineRate::Oc12);
    let wl = RxWorkload::uniform(LineRate::Oc12, hni_aal::AalType::Aal5, 8, 6, 9180, 0.95);
    let plain = run_rx(&cfg, &wl);
    let seeded = RxConfig {
        link_faults: FaultPlan::NONE,
        link_seed: 7,
        ..cfg
    };
    let faulted = run_rx(&seeded, &wl);
    let lf = faulted.link;
    assert_eq!(lf.rng_draws, 0, "faultless rx path drew randomness");
    assert_eq!(lf.dropped + lf.corrupted + lf.duplicated + lf.reordered, 0);
    assert_eq!(format!("{plain:?}"), format!("{faulted:?}"));
    assert!(faulted.ledger.reconciles(), "{:?}", faulted.ledger);
}

#[test]
fn faultless_e2e_run_is_byte_identical_and_draw_free() {
    let txc = TxConfig::paper(LineRate::Oc12);
    let rxc = RxConfig::paper(LineRate::Oc12);
    let pkts = greedy_workload(16, 9180, VcId::new(0, 32));
    let prop = Duration::from_us(5);
    let plain = run_e2e(&txc, &rxc, &pkts, prop);
    let seeded = RxConfig {
        link_faults: FaultPlan::NONE,
        link_seed: 3,
        ..rxc
    };
    let faulted = run_e2e(&txc, &seeded, &pkts, prop);
    assert_eq!(
        faulted.rx.link.rng_draws, 0,
        "faultless e2e path drew randomness"
    );
    assert_eq!(format!("{plain:?}"), format!("{faulted:?}"));
}

#[test]
fn faulted_runs_are_pure_functions_of_plan_and_seed() {
    let wl = RxWorkload::uniform(LineRate::Oc12, hni_aal::AalType::Aal5, 8, 6, 9180, 0.95);
    let seeded = |link_seed| RxConfig {
        link_faults: FaultPlan::iid(0.01, 1e-6)
            .with_duplication(0.01)
            .with_reorder(0.02, 4),
        link_seed,
        ..RxConfig::paper(LineRate::Oc12)
    };
    let a = run_rx(&seeded(42), &wl);
    let b = run_rx(&seeded(42), &wl);
    assert_eq!(format!("{a:?}"), format!("{b:?}"));
    let (la, lb) = (a.link, b.link);
    assert_eq!(la, lb);
    let lc = run_rx(&seeded(43), &wl).link;
    assert_ne!(la, lc, "different seeds must produce different faults");
    assert!(a.ledger.reconciles(), "{:?}", a.ledger);
}
