//! The host bus: a TURBOchannel-class 32-bit synchronous I/O channel
//! with burst DMA.
//!
//! The interface moves every packet across this bus twice-removed from
//! the link: transmit data is DMA-read out of host memory, received
//! frames are DMA-written back in. The bus is therefore the third
//! candidate bottleneck (with the engine and the link), and the one
//! whose efficiency depends on a *tunable* — the burst size:
//!
//! ```text
//!   burst of w words costs (setup + w + turnaround) cycles
//!   efficiency = w / (setup + w + turnaround)
//! ```
//!
//! At the default 25 MHz × 4-byte words the peak is 100 MB/s = 800 Mb/s;
//! with 5 + 2 overhead cycles, an 8-word burst delivers only 53% of
//! that — less than OC-12 needs — while a 64-word burst delivers 90%.
//! Finding that crossover is experiment R-F6.
//!
//! The bus is a serial resource shared by the transmit and receive DMA
//! engines; requests are served strictly in arrival order (FCFS — the
//! fairness the real channel's central arbiter provided round-robin is
//! approximated by the fine interleaving of cell-scale requests).

use hni_sim::{BusFaultPlan, Duration, Rng, Time};
use hni_telemetry::{Activity, Component, Profiler};

/// Bus timing and width parameters.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct BusConfig {
    /// Bus clock in MHz (one word transfers per cycle while bursting).
    pub clock_mhz: f64,
    /// Bytes per bus word.
    pub word_bytes: usize,
    /// Cycles of address/arbitration setup before each burst.
    pub burst_setup_cycles: u32,
    /// Dead cycles after each burst (bus turnaround).
    pub turnaround_cycles: u32,
    /// Maximum words per burst.
    pub max_burst_words: u32,
}

impl Default for BusConfig {
    fn default() -> Self {
        // TURBOchannel-class: 25 MHz, 32-bit, modest burst ceiling.
        BusConfig {
            clock_mhz: 25.0,
            word_bytes: 4,
            burst_setup_cycles: 5,
            turnaround_cycles: 2,
            max_burst_words: 32,
        }
    }
}

impl BusConfig {
    /// Duration of one bus cycle.
    pub fn cycle(&self) -> Duration {
        Duration::from_s_f64(1.0 / (self.clock_mhz * 1e6))
    }

    /// Time one burst of `words` data words occupies the bus.
    pub fn burst_time(&self, words: u32) -> Duration {
        assert!(words > 0 && words <= self.max_burst_words);
        self.cycle()
            .times((self.burst_setup_cycles + words + self.turnaround_cycles) as u64)
    }

    /// Effective data bandwidth (bytes/s) when all bursts carry `words`.
    pub fn effective_bytes_per_second(&self, words: u32) -> f64 {
        let t = self.burst_time(words).as_s_f64();
        (words as usize * self.word_bytes) as f64 / t
    }

    /// Number of bursts to move `bytes` (last burst may be short).
    pub fn bursts_for(&self, bytes: usize) -> u32 {
        let per = self.max_burst_words as usize * self.word_bytes;
        bytes.div_ceil(per).max(1) as u32
    }

    /// Words in burst number `i` (0-based) of a `bytes`-byte transfer.
    pub fn burst_words(&self, bytes: usize, i: u32) -> u32 {
        let per = self.max_burst_words as usize * self.word_bytes;
        let start = i as usize * per;
        debug_assert!(start < bytes.max(1));
        let remain = bytes.saturating_sub(start).min(per);
        (remain.div_ceil(self.word_bytes) as u32).max(1)
    }
}

/// The serial bus resource: hands out time grants FCFS.
///
/// Faults are opt-in via [`Bus::with_faults`]: a seeded
/// [`BusFaultPlan`] can stall arbitration for extra cycles before a
/// burst, or abort a burst so it runs twice (the bus stays busy for
/// both attempts). A fault-free bus draws zero random values — the
/// plain constructor and the empty plan are bit-identical in behaviour.
#[derive(Debug)]
pub struct Bus {
    cfg: BusConfig,
    faults: BusFaultPlan,
    rng: Rng,
    next_free: Time,
    busy: Duration,
    stalls: u64,
    retries: u64,
}

impl Bus {
    /// A free, fault-free bus with the given parameters.
    pub fn new(cfg: BusConfig) -> Self {
        Bus::with_faults(cfg, BusFaultPlan::NONE)
    }

    /// A bus whose grants suffer the given fault plan (seeded from the
    /// plan itself, so the whole scenario is one value).
    pub fn with_faults(cfg: BusConfig, faults: BusFaultPlan) -> Self {
        faults.validate();
        Bus {
            cfg,
            faults,
            rng: Rng::new(faults.seed),
            next_free: Time::ZERO,
            busy: Duration::ZERO,
            stalls: 0,
            retries: 0,
        }
    }

    /// Draw this grant's faults: extra stall time before the burst and
    /// whether the burst aborts and retries. Free when the plan is
    /// empty.
    fn draw_faults(&mut self) -> (Duration, bool) {
        if self.faults.is_none() {
            return (Duration::ZERO, false);
        }
        let stall = if self.rng.chance(self.faults.stall_probability) {
            self.stalls += 1;
            self.cfg.cycle().times(self.faults.stall_cycles as u64)
        } else {
            Duration::ZERO
        };
        let retry = self.rng.chance(self.faults.retry_probability);
        if retry {
            self.retries += 1;
        }
        (stall, retry)
    }

    /// Request the bus at `now` for a burst of `words` data words.
    /// Returns when the burst completes (including any injected stall
    /// or retry).
    ///
    /// Cycle accounting: the burst's setup and turnaround cycles are
    /// charged as [`Activity::Arbitration`] and its data cycles as
    /// [`Activity::Transfer`] on `component` (`TxBus` or `RxBus`, since
    /// each adaptor has its own channel). Charges start when the burst
    /// actually begins — after any FCFS queueing delay — so bus charges
    /// never overlap.
    pub fn grant(
        &mut self,
        now: Time,
        words: u32,
        component: Component,
        profiler: &mut dyn Profiler,
    ) -> Time {
        let start = now.max(self.next_free);
        let (stall, retry) = self.draw_faults();
        let burst = self.cfg.burst_time(words);
        let held = stall + burst + if retry { burst } else { Duration::ZERO };
        if profiler.enabled() {
            let cycle = self.cfg.cycle();
            let setup = cycle.times(self.cfg.burst_setup_cycles as u64);
            let data = cycle.times(words as u64);
            let turnaround = cycle.times(self.cfg.turnaround_cycles as u64);
            let mut cursor = start;
            if stall > Duration::ZERO {
                // An injected stall is arbitration the burst lost.
                profiler.charge(component, Activity::Arbitration, cursor, stall);
                cursor += stall;
            }
            for _ in 0..if retry { 2 } else { 1 } {
                profiler.charge(component, Activity::Arbitration, cursor, setup);
                profiler.charge(component, Activity::Transfer, cursor + setup, data);
                profiler.charge(
                    component,
                    Activity::Arbitration,
                    cursor + setup + data,
                    turnaround,
                );
                cursor += burst;
            }
        }
        self.next_free = start + held;
        self.busy += held;
        self.next_free
    }

    /// Total time the bus has been occupied.
    pub fn busy_time(&self) -> Duration {
        self.busy
    }
    /// Grants that suffered an injected arbitration stall.
    pub fn stalls(&self) -> u64 {
        self.stalls
    }
    /// Grants whose burst aborted and ran twice.
    pub fn retries(&self) -> u64 {
        self.retries
    }
    /// Random values the fault plan has consumed — zero for a
    /// fault-free bus, always.
    pub fn fault_rng_draws(&self) -> u64 {
        self.rng.draws()
    }
    /// Utilization over `[0, end]`.
    pub fn utilization(&self, end: Time) -> f64 {
        if end == Time::ZERO {
            0.0
        } else {
            self.busy.as_s_f64() / end.saturating_since(Time::ZERO).as_s_f64()
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hni_telemetry::NullProfiler;

    #[test]
    fn peak_bandwidth() {
        let cfg = BusConfig::default();
        // 4-octet words every 40 ns: 100 MB/s with zero overhead.
        assert_eq!(cfg.word_bytes, 4);
        assert_eq!(cfg.cycle(), Duration::from_ns(40));
    }

    #[test]
    fn burst_time_includes_overhead() {
        let cfg = BusConfig::default();
        // 5 setup + 8 words + 2 turnaround = 15 cycles × 40 ns = 600 ns.
        assert_eq!(cfg.burst_time(8), Duration::from_ns(600));
    }

    #[test]
    fn efficiency_rises_with_burst_size() {
        let cfg = BusConfig {
            max_burst_words: 128,
            ..BusConfig::default()
        };
        let e8 = cfg.effective_bytes_per_second(8);
        let e32 = cfg.effective_bytes_per_second(32);
        let e128 = cfg.effective_bytes_per_second(128);
        assert!(e8 < e32 && e32 < e128);
        // 8 words: 32 bytes / 600 ns = 53.3 MB/s.
        assert!((e8 - 53.33e6).abs() < 0.1e6);
        // Asymptote: 100 MB/s.
        assert!(e128 > 94e6);
    }

    #[test]
    fn oc12_needs_large_bursts() {
        // OC-12 payload is 599.04 Mb/s ≈ 74.88 MB/s; an 8-word burst
        // regime (53 MB/s) cannot carry it, 32-word (82 MB/s) can.
        let cfg = BusConfig {
            max_burst_words: 128,
            ..BusConfig::default()
        };
        let need = 599.04e6 / 8.0;
        assert!(cfg.effective_bytes_per_second(8) < need);
        assert!(cfg.effective_bytes_per_second(32) > need);
    }

    #[test]
    fn bursts_for_and_words() {
        let cfg = BusConfig::default(); // 128 bytes per full burst
        assert_eq!(cfg.bursts_for(128), 1);
        assert_eq!(cfg.bursts_for(129), 2);
        assert_eq!(
            cfg.bursts_for(0),
            1,
            "zero-length still needs a descriptor touch"
        );
        assert_eq!(cfg.burst_words(129, 0), 32);
        assert_eq!(cfg.burst_words(129, 1), 1); // 1 byte → 1 word
        assert_eq!(cfg.burst_words(130, 1), 1);
        assert_eq!(cfg.burst_words(133, 1), 2);
    }

    #[test]
    fn bus_serializes_fcfs() {
        let mut bus = Bus::new(BusConfig::default());
        let end1 = bus.grant(Time::ZERO, 8, Component::TxBus, &mut NullProfiler); // 600 ns
        let end2 = bus.grant(Time::ZERO, 8, Component::TxBus, &mut NullProfiler); // queued behind
        assert_eq!(end1, Time::from_ns(600));
        assert_eq!(end2, Time::from_ns(1200));
        assert_eq!(bus.busy_time(), Duration::from_ns(1200));
    }

    #[test]
    fn profiled_grant_matches_plain_and_splits_overhead() {
        use hni_telemetry::CycleProfiler;

        let mut plain = Bus::new(BusConfig::default());
        let mut profiled = Bus::new(BusConfig::default());
        let mut prof = CycleProfiler::new();
        let e1 = plain.grant(Time::ZERO, 8, Component::TxBus, &mut NullProfiler);
        let e2 = profiled.grant(Time::ZERO, 8, Component::TxBus, &mut prof);
        assert_eq!(e1, e2);
        assert_eq!(plain.busy_time(), profiled.busy_time());
        let p = prof.snapshot(e2);
        // 8 data cycles × 40 ns, 7 overhead cycles × 40 ns.
        assert_eq!(
            p.total(Component::TxBus, Activity::Transfer),
            Duration::from_ns(320)
        );
        assert_eq!(
            p.total(Component::TxBus, Activity::Arbitration),
            Duration::from_ns(280)
        );
        // Transfer + arbitration account for the whole grant.
        assert_eq!(p.active_time(Component::TxBus), profiled.busy_time());
    }

    #[test]
    fn profiled_grant_charges_from_queued_start() {
        use hni_telemetry::CycleProfiler;

        let mut bus = Bus::new(BusConfig::default());
        let mut prof = CycleProfiler::with_window(Duration::from_ns(600));
        bus.grant(Time::ZERO, 8, Component::RxBus, &mut prof);
        // Requested at 0 but queued behind the first burst: charges must
        // land in [600, 1200) ns, i.e. the second 600 ns window.
        bus.grant(Time::ZERO, 8, Component::RxBus, &mut prof);
        let p = prof.snapshot(Time::from_ns(1200));
        let s = p.series(Component::RxBus);
        assert_eq!(s.busy(0), Duration::from_ns(600));
        assert_eq!(s.busy(1), Duration::from_ns(600));
    }

    #[test]
    fn fault_free_bus_draws_no_randomness() {
        let mut bus = Bus::new(BusConfig::default());
        for _ in 0..1000 {
            bus.grant(Time::ZERO, 8, Component::TxBus, &mut NullProfiler);
        }
        assert_eq!(bus.fault_rng_draws(), 0);
        assert_eq!(bus.stalls() + bus.retries(), 0);
    }

    #[test]
    fn empty_fault_plan_is_bit_identical_to_plain_bus() {
        let mut plain = Bus::new(BusConfig::default());
        let mut faulty = Bus::with_faults(BusConfig::default(), BusFaultPlan::NONE);
        for i in 0..100u64 {
            let now = Time::from_ns(i * 50);
            let a = plain.grant(now, 8, Component::TxBus, &mut NullProfiler);
            let b = faulty.grant(now, 8, Component::TxBus, &mut NullProfiler);
            assert_eq!(a, b);
        }
        assert_eq!(plain.busy_time(), faulty.busy_time());
    }

    #[test]
    fn stalls_add_exactly_their_cycles() {
        let plan = BusFaultPlan {
            stall_probability: 1.0,
            stall_cycles: 10,
            retry_probability: 0.0,
            seed: 5,
        };
        let mut bus = Bus::with_faults(BusConfig::default(), plan);
        // 15 burst cycles + 10 stall cycles = 25 × 40 ns.
        let end = bus.grant(Time::ZERO, 8, Component::TxBus, &mut NullProfiler);
        assert_eq!(end, Time::from_ns(1000));
        assert_eq!(bus.stalls(), 1);
    }

    #[test]
    fn retries_double_the_burst() {
        let plan = BusFaultPlan {
            stall_probability: 0.0,
            stall_cycles: 0,
            retry_probability: 1.0,
            seed: 5,
        };
        let mut bus = Bus::with_faults(BusConfig::default(), plan);
        let end = bus.grant(Time::ZERO, 8, Component::TxBus, &mut NullProfiler);
        assert_eq!(end, Time::from_ns(1200), "burst runs twice");
        assert_eq!(bus.retries(), 1);
        assert_eq!(bus.busy_time(), Duration::from_ns(1200));
    }

    #[test]
    fn faulty_grants_deterministic_and_profiled_matches_plain() {
        use hni_telemetry::CycleProfiler;
        let plan = BusFaultPlan {
            stall_probability: 0.3,
            stall_cycles: 6,
            retry_probability: 0.2,
            seed: 42,
        };
        let run = |profiled: bool| {
            let mut bus = Bus::with_faults(BusConfig::default(), plan);
            let mut prof = CycleProfiler::new();
            let probe: &mut dyn Profiler = if profiled {
                &mut prof
            } else {
                &mut NullProfiler
            };
            (0..200u64)
                .map(|i| bus.grant(Time::from_ns(i * 2000), 8, Component::RxBus, probe))
                .collect::<Vec<_>>()
        };
        assert_eq!(run(false), run(false), "not deterministic");
        // The profiled path draws the same faults in the same order.
        assert_eq!(run(false), run(true), "profiling perturbed the faults");
    }

    #[test]
    fn profiled_fault_charges_cover_the_whole_grant() {
        use hni_telemetry::CycleProfiler;
        let plan = BusFaultPlan {
            stall_probability: 1.0,
            stall_cycles: 10,
            retry_probability: 1.0,
            seed: 9,
        };
        let mut bus = Bus::with_faults(BusConfig::default(), plan);
        let mut prof = CycleProfiler::new();
        let end = bus.grant(Time::ZERO, 8, Component::RxBus, &mut prof);
        let p = prof.snapshot(end);
        assert_eq!(p.active_time(Component::RxBus), bus.busy_time());
        // Two data phases of 8 cycles each.
        assert_eq!(
            p.total(Component::RxBus, Activity::Transfer),
            Duration::from_ns(2 * 320)
        );
    }

    #[test]
    fn idle_gap_not_counted_busy() {
        let mut bus = Bus::new(BusConfig::default());
        for now in [Time::ZERO, Time::from_us(10)] {
            bus.grant(now, 8, Component::TxBus, &mut NullProfiler);
        }
        assert_eq!(bus.busy_time(), Duration::from_ns(1200));
        let util = bus.utilization(Time::from_us(10) + Duration::from_ns(600));
        assert!((util - 1200.0 / 10_600.0).abs() < 1e-9);
    }
}
