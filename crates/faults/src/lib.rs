//! # hni-faults — the deterministic fault-injection layer
//!
//! One vocabulary for everything that can go wrong on the path from
//! host memory at A to host memory at B, shared by every injection
//! point in the workspace:
//!
//! * the **line**: a [`FaultPlan`] — loss, bit corruption, duplication,
//!   bounded reordering, with i.i.d. or bursty Gilbert–Elliott
//!   processes — bound to a [`FaultInjector`] yields one [`UnitFate`]
//!   per cell, SONET frame or byte stream, and the caller applies its
//!   flipped bits with `hni_sim::link::apply_bit_errors`;
//! * the **bus** (`hni_core::Bus`) consumes a [`BusFaultPlan`] —
//!   arbitration stalls and aborted-then-retried bursts;
//! * the **NIC ingress** (`hni_core::Nic::inject_cell_faulted`) runs
//!   raw cells through a [`FaultInjector`] before injection;
//! * the **receive pipeline** (`hni_core::RxConfig::link_faults`, used
//!   by `run_rx` and `run_e2e` alike) perturbs the arrival schedule with
//!   a plan and reconciles every injected cell to exactly one drop or
//!   delivery reason.
//!
//! The primitive types live in `hni_sim::faults` (the bottom layer, so
//! every crate above can use them); this crate re-exports them and adds
//! the policy surface: named [`scenarios`] with literature-grounded
//! parameters, and the [`chaos`] generator that turns a bare seed into
//! a random but *bounded* plan — the fuel for the chaos invariant tests.
//!
//! Everything here is deterministic per seed. No wall clock, no OS
//! entropy, no global state.

pub use hni_sim::faults::{
    BusFaultPlan, DelayLine, DelayModel, FaultInjector, FaultPlan, FaultProcess, GeParams, UnitFate,
};

/// Named fault scenarios with parameters grounded in the ATM
/// literature, so experiments and examples agree on what "bursty
/// congestion" or "a satellite hop" means.
pub mod scenarios {
    use super::*;

    /// Bursty congestion: a Gilbert–Elliott loss chain whose Bad state
    /// models a switch buffer overflowing for `burst_cells` cells on
    /// average, entered rarely enough that the long-run loss rate is
    /// roughly `mean_loss`.
    pub fn bursty_congestion(mean_loss: f64, burst_cells: f64) -> FaultPlan {
        assert!(mean_loss > 0.0 && mean_loss < 1.0);
        assert!(burst_cells >= 1.0);
        let bad = 0.9; // near-total loss while the buffer is full
        let p_bad_to_good = 1.0 / burst_cells;
        // Stationary Bad occupancy π_b satisfies π_b·bad = mean_loss.
        let pi_b = (mean_loss / bad).min(0.5);
        let p_good_to_bad = (pi_b * p_bad_to_good / (1.0 - pi_b)).min(1.0);
        FaultPlan::bursty_loss(GeParams {
            p_good_to_bad,
            p_bad_to_good,
            good: 0.0,
            bad,
        })
    }

    /// A campus/LAN path: ~5 µs one way (a kilometre of fibre plus a
    /// switch), no jitter. Feedback is essentially immediate at cell
    /// timescales, so window dynamics barely bite.
    pub const fn lan_path() -> DelayModel {
        DelayModel::fixed(hni_sim::Duration::from_us(5))
    }

    /// A continental WAN path: 25 ms one way (≈ 50 ms RTT) with up to
    /// 500 µs of seeded jitter from queueing along the way.
    pub const fn wan_path() -> DelayModel {
        DelayModel::jittered(
            hni_sim::Duration::from_ms(25),
            hni_sim::Duration::from_us(500),
        )
    }

    /// A geostationary satellite hop, after Goyal/Jain's satellite-ATM
    /// scenario: 280 ms one way (≥ 560 ms RTT, comfortably past the
    /// 500 ms the literature treats as the long-delay regime) with up
    /// to 1 ms of seeded jitter. Timeout and backoff policy, not line
    /// rate, dominates goodput here.
    pub const fn satellite_path() -> DelayModel {
        DelayModel::jittered(
            hni_sim::Duration::from_ms(280),
            hni_sim::Duration::from_ms(1),
        )
    }
}

/// Seed → random but bounded fault plan, for chaos testing.
pub mod chaos {
    use super::*;
    use hni_sim::Rng;

    /// Generate a random fault plan from a seed. Parameters are drawn
    /// from ranges wide enough to exercise every mechanism (including
    /// its absence) but bounded so runs terminate and invariants are
    /// checkable: loss ≤ 30%, BER ≤ 1e-3, duplication ≤ 10%,
    /// reordering ≤ 20% over spans ≤ 8.
    ///
    /// The same seed always yields the same plan; nearby seeds yield
    /// unrelated plans (the RNG seeds through SplitMix64).
    pub fn random_plan(seed: u64) -> FaultPlan {
        let mut rng = Rng::new(seed ^ 0xC0FF_EE00_D15E_A5E5);
        let loss = random_process(&mut rng, 0.3);
        let errors = random_process(&mut rng, 1e-3);
        let duplication = if rng.chance(0.5) {
            0.1 * rng.f64()
        } else {
            0.0
        };
        let (reorder_probability, reorder_span) = if rng.chance(0.5) {
            (0.2 * rng.f64(), 1 + rng.below(8) as u32)
        } else {
            (0.0, 0)
        };
        let plan = FaultPlan {
            loss,
            errors,
            duplication,
            reorder_probability,
            reorder_span,
        };
        plan.validate();
        plan
    }

    /// Random bus-fault plan for the same chaos campaigns.
    pub fn random_bus_plan(seed: u64) -> BusFaultPlan {
        let mut rng = Rng::new(seed ^ 0xB005_FAA7_0000_0001);
        let plan = if rng.chance(0.5) {
            BusFaultPlan {
                stall_probability: 0.2 * rng.f64(),
                stall_cycles: 1 + rng.below(16) as u32,
                retry_probability: 0.05 * rng.f64(),
                seed: rng.next_u64(),
            }
        } else {
            BusFaultPlan::NONE
        };
        plan.validate();
        plan
    }

    fn random_process(rng: &mut Rng, max_rate: f64) -> FaultProcess {
        match rng.below(3) {
            0 => FaultProcess::Off,
            1 => FaultProcess::Iid(max_rate * rng.f64()),
            _ => {
                let bad = max_rate * (0.5 + 0.5 * rng.f64());
                FaultProcess::Ge(GeParams {
                    p_good_to_bad: 0.05 * rng.f64(),
                    p_bad_to_good: 0.05 + 0.45 * rng.f64(),
                    good: 0.0,
                    bad,
                })
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scenarios_are_valid_plans() {
        let plan = scenarios::bursty_congestion(0.01, 12.0);
        plan.validate();
        assert!(!plan.is_none());
    }

    #[test]
    fn delay_presets_are_ordered_and_satellite_is_long() {
        let lan = scenarios::lan_path();
        let wan = scenarios::wan_path();
        let sat = scenarios::satellite_path();
        assert_eq!(lan.jitter, hni_sim::Duration::ZERO);
        assert!(lan.base < wan.base && wan.base < sat.base);
        // The satellite preset must put the round trip past the 500 ms
        // long-delay threshold even with zero jitter drawn.
        assert!(sat.base.times(2) >= hni_sim::Duration::from_ms(500));
    }

    #[test]
    fn bursty_congestion_hits_requested_mean_loss() {
        let plan = scenarios::bursty_congestion(0.02, 16.0);
        let mut inj = FaultInjector::seeded(plan, 3);
        let n = 400_000;
        let lost = (0..n).filter(|_| inj.fate(424).lost).count();
        let rate = lost as f64 / n as f64;
        assert!(
            (rate - 0.02).abs() / 0.02 < 0.25,
            "long-run loss {rate} far from 0.02"
        );
    }

    #[test]
    fn chaos_plans_are_deterministic_and_valid() {
        for seed in 0..500u64 {
            let a = chaos::random_plan(seed);
            let b = chaos::random_plan(seed);
            assert_eq!(a, b, "seed {seed} not deterministic");
            a.validate(); // would panic on an out-of-range parameter
            let bus = chaos::random_bus_plan(seed);
            assert_eq!(bus, chaos::random_bus_plan(seed));
            bus.validate();
        }
        // Different seeds do explore the space.
        assert_ne!(chaos::random_plan(1), chaos::random_plan(2));
    }

    #[test]
    fn chaos_space_covers_every_mechanism() {
        let mut saw = (false, false, false, false, false); // loss, ber, dup, reorder, none
        for seed in 0..200u64 {
            let p = chaos::random_plan(seed);
            saw.0 |= !p.loss.is_off();
            saw.1 |= !p.errors.is_off();
            saw.2 |= p.duplication > 0.0;
            saw.3 |= p.reorder_probability > 0.0 && p.reorder_span > 0;
            saw.4 |= p.is_none();
        }
        assert!(
            saw.0 && saw.1 && saw.2 && saw.3,
            "mechanism never drawn: {saw:?}"
        );
        assert!(saw.4, "the empty plan must be reachable too");
    }
}
