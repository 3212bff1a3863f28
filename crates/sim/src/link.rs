//! A point-to-point link model with fault injection.
//!
//! The link is payload-agnostic: callers hand it a *size in bits* and it
//! answers with the unit's fate — when it finishes arriving at the far
//! end, and which bit positions (if any) were inverted in flight. The
//! caller owns the bytes and applies the corruption itself; this keeps the
//! link reusable for cells, frames, and whole SONET rows.
//!
//! Faults come from a seeded [`FaultPlan`] (see [`crate::faults`]):
//! whole-unit loss and bit errors — i.i.d. or bursty Gilbert–Elliott —
//! plus duplication and bounded reordering. Bit errors are drawn with
//! geometric gap sampling, so a BER of 1e-9 costs O(errors), not
//! O(bits). Reordering is expressed in time: a displaced unit arrives
//! late by a bounded number of unit-times, so successors overtake it. A
//! duplicated unit arrives again one unit-time after its first copy.
//!
//! The link serializes: a unit cannot start transmitting before the
//! previous one has finished (`next_free`). Propagation delay is added
//! after serialization, classic `tx_time + prop` semantics.

use crate::faults::{FaultInjector, FaultPlan};
use crate::rng::Rng;
use crate::time::{Duration, Time};

/// The fate of one transmitted unit.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum LinkDelivery {
    /// The unit arrives complete at `at`, with the listed bit positions
    /// (0 = first bit on the wire) inverted. An empty list is a clean
    /// delivery. If the fault plan duplicated the unit, a second copy
    /// arrives at `duplicate_at`: the unit as sent, since the flips hit
    /// the first copy only (see [`crate::UnitFate::duplicated`]).
    Delivered {
        at: Time,
        flipped_bits: Vec<u64>,
        duplicate_at: Option<Time>,
    },
    /// The unit was lost; it never arrives.
    Lost,
}

/// A serializing point-to-point link with rate, propagation delay and
/// fault injection.
#[derive(Debug)]
pub struct Link {
    bits_per_second: f64,
    propagation: Duration,
    injector: FaultInjector,
    next_free: Time,
}

impl Link {
    /// A link with the given line rate, one-way propagation delay, fault
    /// plan and RNG stream.
    pub fn new(bits_per_second: f64, propagation: Duration, plan: FaultPlan, rng: Rng) -> Self {
        assert!(bits_per_second > 0.0);
        Link {
            bits_per_second,
            propagation,
            injector: FaultInjector::new(plan, rng),
            next_free: Time::ZERO,
        }
    }

    /// One-way propagation delay.
    pub fn propagation(&self) -> Duration {
        self.propagation
    }

    /// Earliest time the link can begin serializing another unit.
    pub fn next_free(&self) -> Time {
        self.next_free
    }

    /// Transmit a unit of `bits` bits, offered at time `now`.
    ///
    /// Serialization begins at `max(now, next_free)`; the base arrival
    /// time is serialization end plus propagation delay. The fault plan
    /// then decides the unit's fate: loss, corruption, a late
    /// (reordered) arrival displaced by whole unit-times, or a
    /// duplicate copy one unit-time behind the first.
    pub fn send(&mut self, now: Time, bits: u64) -> LinkDelivery {
        assert!(bits > 0, "cannot transmit a zero-length unit");
        let start = now.max(self.next_free);
        let ser = Duration::for_bits(bits, self.bits_per_second);
        self.next_free = start + ser;

        let fate = self.injector.fate(bits);
        if fate.lost {
            return LinkDelivery::Lost;
        }
        let at = self.next_free + self.propagation + ser * fate.displaced as u64;
        LinkDelivery::Delivered {
            at,
            duplicate_at: fate.duplicated.then(|| at + ser),
            flipped_bits: fate.flipped_bits,
        }
    }

    /// Units the fault plan destroyed.
    pub fn lost_units(&self) -> u64 {
        self.injector.lost()
    }
    /// Raw RNG values the fault plan has consumed (zero when the plan
    /// is [`FaultPlan::NONE`] — the faultless fast path is free).
    pub fn rng_draws(&self) -> u64 {
        self.injector.rng_draws()
    }
}

/// Apply a list of flipped bit positions (as returned by
/// [`Link::send`]) to a byte buffer, MSB-first within each byte —
/// matching the on-the-wire bit order of ATM/SONET.
pub fn apply_bit_errors(buf: &mut [u8], flipped_bits: &[u64]) {
    for &pos in flipped_bits {
        let byte = (pos / 8) as usize;
        if byte < buf.len() {
            buf[byte] ^= 0x80 >> (pos % 8);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn mk(bps: f64, plan: FaultPlan) -> Link {
        Link::new(bps, Duration::from_us(10), plan, Rng::new(1))
    }

    #[test]
    fn clean_delivery_timing() {
        let mut l = mk(1e9, FaultPlan::NONE); // 1 Gb/s
        match l.send(Time::ZERO, 8000) {
            LinkDelivery::Delivered {
                at,
                flipped_bits,
                duplicate_at,
            } => {
                // 8000 bits at 1 Gb/s = 8 µs + 10 µs propagation.
                assert_eq!(at, Time::from_us(18));
                assert!(flipped_bits.is_empty());
                assert!(duplicate_at.is_none());
            }
            LinkDelivery::Lost => panic!("should not lose"),
        }
    }

    #[test]
    fn faultless_link_draws_no_randomness() {
        let mut l = mk(1e9, FaultPlan::NONE);
        for i in 0..1000 {
            l.send(Time::from_us(i * 10), 424);
        }
        assert_eq!(l.rng_draws(), 0);
    }

    #[test]
    fn serialization_backpressure() {
        let mut l = mk(1e9, FaultPlan::NONE);
        l.send(Time::ZERO, 8000); // occupies link until 8 µs
        match l.send(Time::from_us(1), 8000) {
            LinkDelivery::Delivered { at, .. } => {
                // Starts at 8 µs, ser 8 µs, prop 10 µs.
                assert_eq!(at, Time::from_us(26));
            }
            _ => panic!(),
        }
        assert_eq!(l.next_free(), Time::from_us(16));
    }

    #[test]
    fn loss_rate_statistical() {
        let mut l = mk(1e9, FaultPlan::loss(0.3));
        let n = 20_000;
        let mut lost = 0;
        let mut t = Time::ZERO;
        for _ in 0..n {
            if matches!(l.send(t, 424), LinkDelivery::Lost) {
                lost += 1;
            }
            t = l.next_free();
        }
        let rate = lost as f64 / n as f64;
        assert!((rate - 0.3).abs() < 0.02, "rate={rate}");
        assert_eq!(l.lost_units(), lost);
    }

    #[test]
    fn ber_statistical() {
        let ber = 1e-3;
        let mut l = mk(1e9, FaultPlan::ber(ber));
        let bits_per_unit = 424;
        let n = 50_000u64;
        let mut flips = 0u64;
        let mut t = Time::ZERO;
        for _ in 0..n {
            if let LinkDelivery::Delivered { flipped_bits, .. } = l.send(t, bits_per_unit) {
                for &b in &flipped_bits {
                    assert!(b < bits_per_unit);
                }
                flips += flipped_bits.len() as u64;
            }
            t = l.next_free();
        }
        let observed = flips as f64 / (n * bits_per_unit) as f64;
        assert!(
            (observed - ber).abs() / ber < 0.1,
            "observed BER {observed} vs {ber}"
        );
    }

    #[test]
    fn duplicates_arrive_one_unit_later() {
        let mut l = mk(1e9, FaultPlan::NONE.with_duplication(1.0));
        match l.send(Time::ZERO, 8000) {
            LinkDelivery::Delivered {
                at, duplicate_at, ..
            } => {
                assert_eq!(at, Time::from_us(18));
                assert_eq!(duplicate_at, Some(Time::from_us(26)));
            }
            _ => panic!(),
        }
    }

    #[test]
    fn reordered_units_arrive_late_but_bounded() {
        let span = 6u32;
        let mut l = mk(1e9, FaultPlan::NONE.with_reorder(1.0, span));
        let ser = Duration::for_bits(8000, 1e9);
        let mut t = Time::ZERO;
        for _ in 0..200 {
            match l.send(t, 8000) {
                LinkDelivery::Delivered { at, .. } => {
                    let base = l.next_free() + l.propagation();
                    let late = at.saturating_since(base);
                    assert!(late >= ser, "every unit must be displaced here");
                    assert!(late <= ser * span as u64, "displacement beyond span");
                }
                _ => panic!(),
            }
            t = l.next_free();
        }
    }

    #[test]
    fn bursty_plan_produces_loss_runs() {
        let g = crate::faults::GeParams {
            p_good_to_bad: 0.002,
            p_bad_to_good: 0.05,
            good: 0.0,
            bad: 1.0,
        };
        let mut l = mk(1e9, FaultPlan::bursty_loss(g));
        let mut t = Time::ZERO;
        let mut longest = 0u32;
        let mut run = 0u32;
        for _ in 0..100_000 {
            if matches!(l.send(t, 424), LinkDelivery::Lost) {
                run += 1;
                longest = longest.max(run);
            } else {
                run = 0;
            }
            t = l.next_free();
        }
        assert!(l.lost_units() > 100, "chain never went Bad");
        assert!(longest >= 5, "losses not bursty (longest run {longest})");
    }

    #[test]
    fn apply_bit_errors_msb_first() {
        let mut buf = [0u8; 2];
        apply_bit_errors(&mut buf, &[0, 8, 15]);
        assert_eq!(buf, [0x80, 0x81]);
        // Out-of-range positions are ignored.
        apply_bit_errors(&mut buf, &[100]);
        assert_eq!(buf, [0x80, 0x81]);
    }

    #[test]
    fn deterministic_given_seed() {
        let run = || {
            let mut l = Link::new(1e9, Duration::ZERO, FaultPlan::loss(0.5), Rng::new(99));
            (0..100)
                .map(|i| matches!(l.send(Time::from_us(i * 10), 424), LinkDelivery::Lost))
                .collect::<Vec<_>>()
        };
        assert_eq!(run(), run());
    }
}
