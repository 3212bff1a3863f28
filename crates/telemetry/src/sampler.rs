//! Deterministic 1-in-N trace sampling.
//!
//! Full-fidelity tracing cannot stay on at line rate: 9180-byte SDUs at
//! 622 Mb/s are ~1.6M cells/s, and every cell emits several events. The
//! [`Sampler`] keeps the trace format usable at that rate by keeping
//! roughly one cell in N — but the keep/drop decision is a **pure
//! function of the event's identity**, not of arrival order:
//!
//! ```text
//! keep(vc, pkt, cell) = mix(seed ⊕ mix((vc‖pkt) ⊕ mix(cell))) % N == 0
//! ```
//!
//! Because no stream position or RNG state is involved, the same cell is
//! kept or dropped regardless of which `par_sweep` worker processes it,
//! how many workers there are (`HNI_JOBS` 1 vs 4), or how many times the
//! run is repeated — sampled traces are byte-identical across all of
//! them. Events that carry no cell/packet identity (run-level instants)
//! are always kept: they are rare and anchor the trace.
//!
//! A given (vc, pkt, cell) triple always resolves the same way, so every
//! stage a sampled cell passes through appears in the trace and its
//! spans still pair up.

use crate::event::NO_ID;

/// Fixed 64-bit finalizer (splitmix64) — the same keyed mix everywhere,
/// so sampling is reproducible across platforms and versions. Shared
/// with the per-VC shard assignment and with `report exemplars`, which
/// samples packet identities under the same guarantee.
#[inline]
pub fn mix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
    x = (x ^ (x >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    x ^ (x >> 31)
}

/// The keep/drop predicate of deterministic 1-in-N trace sampling: a
/// seeded content hash of the event identity.
#[derive(Clone, Copy, Debug)]
pub struct Sampler {
    seed: u64,
    one_in: u64,
}

impl Sampler {
    /// Keep one event identity in `one_in` (clamped to ≥ 1; 1 keeps
    /// everything) under `seed`.
    pub fn new(one_in: u64, seed: u64) -> Self {
        Self {
            seed,
            one_in: one_in.max(1),
        }
    }

    /// Pure keep/drop decision for an identity triple under this
    /// sampler's seed and rate. Order- and worker-independent.
    #[inline]
    pub fn keeps(&self, vc: u32, pkt: u32, cell: u32) -> bool {
        if self.one_in == 1 {
            return true;
        }
        // Run-level events with no identity always pass: they are rare
        // (setup, report boundaries) and anchor the sampled trace.
        if vc == NO_ID && pkt == NO_ID && cell == NO_ID {
            return true;
        }
        let id = ((vc as u64) << 32 | pkt as u64) ^ mix64(cell as u64);
        mix64(self.seed ^ mix64(id)).is_multiple_of(self.one_in)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::{Stage, TraceEvent};
    use hni_sim::Time;

    fn ev(vc: u32, pkt: u32, cell: u32) -> TraceEvent {
        let mut e = TraceEvent::instant(Time::from_ns(cell as u64), Stage::TxFramer);
        e.vc = vc;
        e.pkt = pkt;
        e.cell = cell;
        e
    }

    fn kept_cells(order: &[(u32, u32, u32)], one_in: u64, seed: u64) -> Vec<u32> {
        let sampler = Sampler::new(one_in, seed);
        order
            .iter()
            .map(|&(vc, pkt, cell)| ev(vc, pkt, cell))
            .filter(|e| sampler.keeps(e.vc, e.pkt, e.cell))
            .map(|e| e.cell)
            .collect()
    }

    #[test]
    fn decision_is_order_independent() {
        let forward: Vec<(u32, u32, u32)> = (0..4096).map(|c| (7, c / 192, c)).collect();
        let mut shuffled = forward.clone();
        shuffled.reverse();
        let mut interleaved: Vec<(u32, u32, u32)> = Vec::new();
        for pair in forward.chunks(2) {
            interleaved.extend(pair.iter().rev());
        }
        let mut a = kept_cells(&forward, 64, 42);
        let mut b = kept_cells(&shuffled, 64, 42);
        let mut c = kept_cells(&interleaved, 64, 42);
        a.sort_unstable();
        b.sort_unstable();
        c.sort_unstable();
        assert_eq!(a, b, "reversal changed the sampled set");
        assert_eq!(a, c, "interleave changed the sampled set");
        assert!(!a.is_empty());
    }

    #[test]
    fn rerun_is_byte_identical() {
        let order: Vec<(u32, u32, u32)> = (0..2048).map(|c| (3, c / 100, c)).collect();
        assert_eq!(kept_cells(&order, 128, 9), kept_cells(&order, 128, 9));
    }

    #[test]
    fn seed_and_rate_change_the_sample() {
        let order: Vec<(u32, u32, u32)> = (0..4096).map(|c| (1, 0, c)).collect();
        let s1 = kept_cells(&order, 64, 1);
        let s2 = kept_cells(&order, 64, 2);
        assert_ne!(s1, s2, "different seeds picked identical samples");
        let all = kept_cells(&order, 1, 1);
        assert_eq!(all.len(), 4096, "one_in=1 must keep everything");
    }

    #[test]
    fn rate_is_roughly_one_in_n() {
        let order: Vec<(u32, u32, u32)> = (0..100_000).map(|c| (c % 977, c / 977, c)).collect();
        let kept = kept_cells(&order, 1024, 7).len();
        // Binomial(100k, 1/1024): mean ~97.7, sd ~9.9. Allow ±5 sd.
        assert!(
            (48..=148).contains(&kept),
            "kept {kept} of 100k at 1-in-1024"
        );
    }

    #[test]
    fn identityless_events_always_pass_and_counters_track() {
        let sampler = Sampler::new(1_000_000, 5);
        let offered: Vec<TraceEvent> =
            std::iter::once(TraceEvent::instant(Time::ZERO, Stage::TxSetup))
                .chain((0..100).map(|c| ev(1, 0, c)))
                .collect();
        let kept: Vec<&TraceEvent> = offered
            .iter()
            .filter(|e| sampler.keeps(e.vc, e.pkt, e.cell))
            .collect();
        assert_eq!(offered.len(), 101);
        assert!(!kept.is_empty(), "identityless instant must be kept");
        assert_eq!(kept[0].stage, Stage::TxSetup);
    }
}
