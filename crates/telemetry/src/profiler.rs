//! Cycle-accounting profiler: charge every simulated interval to a
//! `(component, activity)` pair.
//!
//! Davie's analysis is an accounting exercise — where do the cycles go
//! between the link, the protocol engines, the FIFOs, the bus and the
//! host. This module makes that accounting continuous: the simulations
//! charge each interval of work (or stall) to a [`Component`] and
//! [`Activity`] through the [`Profiler`] sink trait, and the recording
//! [`CycleProfiler`] accumulates exact per-pair totals, windowed
//! utilization [`TimeSeries`] and occupancy gauges. A [`Profile`]
//! snapshot is what the attribution engine
//! ([`attribute`](crate::attribution::attribute)) and the exposition
//! formats (folded stacks, Prometheus text) are computed from.
//!
//! Like the [`Tracer`](crate::Tracer) layer, the profiler is strictly
//! zero-cost when disabled: every instrumentation point is gated on
//! [`Profiler::enabled`], and [`NullProfiler`] compiles the whole layer
//! away (golden tests prove byte-identical reports and zero extra
//! allocations).

use crate::timeseries::TimeSeries;
use hni_sim::stats::OccupancyTracker;
use hni_sim::{Duration, Time};

/// A resource simulated time can be charged to.
///
/// TX and RX keep separate bus/link components because an end-to-end run
/// simulates *two* adaptors — one per host — and merging their charges
/// would double-count a resource that exists once per interface.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
#[repr(usize)]
pub enum Component {
    /// Transmit protocol engine (segmentation side).
    TxEngine,
    /// TURBOchannel bus on the transmit adaptor.
    TxBus,
    /// Transmit cell FIFO (occupancy gauge).
    TxFifo,
    /// SONET link, transmit direction.
    TxLink,
    /// SONET link, receive direction.
    RxLink,
    /// Receive cell FIFO (occupancy gauge).
    RxFifo,
    /// Receive protocol engine (reassembly side).
    RxEngine,
    /// Receive buffer pool (occupancy gauge).
    RxPool,
    /// TURBOchannel bus on the receive adaptor.
    RxBus,
}

impl Component {
    /// Number of components (array dimension).
    pub const COUNT: usize = 9;

    /// Every component, in canonical (pipeline) order. This order is the
    /// deterministic tie-break everywhere components are ranked or
    /// rendered.
    pub const ALL: [Component; Component::COUNT] = [
        Component::TxEngine,
        Component::TxBus,
        Component::TxFifo,
        Component::TxLink,
        Component::RxLink,
        Component::RxFifo,
        Component::RxEngine,
        Component::RxPool,
        Component::RxBus,
    ];

    /// Stable hierarchical name (used in folded stacks and the
    /// Prometheus exposition).
    pub const fn name(self) -> &'static str {
        match self {
            Component::TxEngine => "tx.engine",
            Component::TxBus => "tx.bus",
            Component::TxFifo => "tx.fifo",
            Component::TxLink => "tx.link",
            Component::RxLink => "rx.link",
            Component::RxFifo => "rx.fifo",
            Component::RxEngine => "rx.engine",
            Component::RxPool => "rx.pool",
            Component::RxBus => "rx.bus",
        }
    }
}

/// What a component was doing during a charged interval.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
#[repr(usize)]
pub enum Activity {
    /// Engine executing protocol instructions.
    Busy,
    /// Data moving (bus data cycles, link cell slots).
    Transfer,
    /// Bus overhead: burst setup and turnaround cycles.
    Arbitration,
    /// Ready to work but waiting on an outstanding bus transfer.
    StalledBus,
    /// Ready to work but waiting on FIFO space.
    StalledFifo,
    /// Nothing to do.
    Idle,
}

impl Activity {
    /// Number of activities (array dimension).
    pub const COUNT: usize = 6;

    /// Every activity, in rendering order.
    pub const ALL: [Activity; Activity::COUNT] = [
        Activity::Busy,
        Activity::Transfer,
        Activity::Arbitration,
        Activity::StalledBus,
        Activity::StalledFifo,
        Activity::Idle,
    ];

    /// Stable name.
    pub const fn name(self) -> &'static str {
        match self {
            Activity::Busy => "busy",
            Activity::Transfer => "transfer",
            Activity::Arbitration => "arbitration",
            Activity::StalledBus => "stalled.bus",
            Activity::StalledFifo => "stalled.fifo",
            Activity::Idle => "idle",
        }
    }

    /// Whether this activity counts as the component actively consuming
    /// its resource (the numerator of utilization). Stalls and idle time
    /// are accounted but do not saturate anything.
    pub const fn is_active(self) -> bool {
        matches!(
            self,
            Activity::Busy | Activity::Transfer | Activity::Arbitration
        )
    }
}

/// The sink trait the simulations charge intervals into.
///
/// Mirrors the [`Tracer`](crate::Tracer) contract: every call site in a
/// simulation is gated on `enabled()`, so a disabled profiler costs one
/// inlined branch and nothing else.
pub trait Profiler {
    /// Whether charges will be kept. Instrumentation points test this
    /// before doing any work to build a charge.
    #[inline]
    fn enabled(&self) -> bool {
        true
    }

    /// Charge `dur` of `activity` on `component`, starting at `from`.
    fn charge(&mut self, component: Component, activity: Activity, from: Time, dur: Duration);

    /// Sample an occupancy gauge (FIFO depth, pool buffers in use) for
    /// `component` at time `now`.
    fn gauge(&mut self, component: Component, now: Time, value: u64);
}

/// The do-nothing profiler: `enabled()` is `false` and the compiler
/// removes every gated charge.
#[derive(Clone, Copy, Debug, Default)]
pub struct NullProfiler;

impl Profiler for NullProfiler {
    #[inline(always)]
    fn enabled(&self) -> bool {
        false
    }

    #[inline(always)]
    fn charge(&mut self, _: Component, _: Activity, _: Time, _: Duration) {}

    #[inline(always)]
    fn gauge(&mut self, _: Component, _: Time, _: u64) {}
}

/// Occupancy gauge statistics captured into a [`Profile`].
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct GaugeStats {
    /// Highest value ever sampled.
    pub peak: u64,
    /// Time-weighted mean over the run.
    pub mean: f64,
}

/// Default utilization window: fine enough to see per-packet structure
/// at OC-12 (a 9180-byte packet occupies the link for ~136 µs), coarse
/// enough that a millisecond run stays a few dozen buckets.
pub const DEFAULT_WINDOW: Duration = Duration::from_us(50);

/// The recording profiler: exact `(component, activity)` totals, one
/// utilization [`TimeSeries`] and one [`OccupancyTracker`] gauge per
/// component.
#[derive(Clone, Debug)]
pub struct CycleProfiler {
    totals: [[Duration; Activity::COUNT]; Component::COUNT],
    gauges: [OccupancyTracker; Component::COUNT],
    series: Vec<TimeSeries>, // indexed by component
}

impl Default for CycleProfiler {
    fn default() -> Self {
        Self::new()
    }
}

impl CycleProfiler {
    /// A profiler with the default utilization window.
    pub fn new() -> Self {
        Self::with_window(DEFAULT_WINDOW)
    }

    /// A profiler with an explicit utilization window.
    pub fn with_window(window: Duration) -> Self {
        CycleProfiler {
            totals: [[Duration::ZERO; Activity::COUNT]; Component::COUNT],
            gauges: std::array::from_fn(|_| OccupancyTracker::new()),
            series: (0..Component::COUNT)
                .map(|_| TimeSeries::new(window))
                .collect(),
        }
    }

    /// Snapshot the accumulated accounting as of `end` (normally the
    /// simulation's `finished_at`). `end` is the denominator of every
    /// utilization in the snapshot.
    pub fn snapshot(&self, end: Time) -> Profile {
        Profile {
            end,
            totals: self.totals,
            gauges: std::array::from_fn(|i| GaugeStats {
                peak: self.gauges[i].peak(),
                mean: self.gauges[i].mean(end),
            }),
            series: self.series.clone(),
        }
    }
}

impl Profiler for CycleProfiler {
    fn charge(&mut self, component: Component, activity: Activity, from: Time, dur: Duration) {
        self.totals[component as usize][activity as usize] += dur;
        if activity.is_active() {
            self.series[component as usize].charge(from, dur);
        }
    }

    fn gauge(&mut self, component: Component, now: Time, value: u64) {
        self.gauges[component as usize].set(now, value);
    }
}

/// An immutable snapshot of a run's cycle accounting.
#[derive(Clone, Debug)]
pub struct Profile {
    end: Time,
    totals: [[Duration; Activity::COUNT]; Component::COUNT],
    gauges: [GaugeStats; Component::COUNT],
    series: Vec<TimeSeries>,
}

impl Profile {
    /// The run span (simulation start to `end`).
    pub fn span(&self) -> Duration {
        self.end.saturating_since(Time::ZERO)
    }

    /// Total time charged to `(component, activity)`.
    pub fn total(&self, component: Component, activity: Activity) -> Duration {
        self.totals[component as usize][activity as usize]
    }

    /// Total *active* time on a component (the sum over activities with
    /// [`Activity::is_active`]).
    pub fn active_time(&self, component: Component) -> Duration {
        Activity::ALL
            .iter()
            .filter(|a| a.is_active())
            .map(|&a| self.total(component, a))
            .sum()
    }

    /// Mean utilization of a component over the run: active time over
    /// span. Zero for an empty span.
    pub fn utilization(&self, component: Component) -> f64 {
        let span = self.span().as_s_f64();
        if span <= 0.0 {
            0.0
        } else {
            self.active_time(component).as_s_f64() / span
        }
    }

    /// Occupancy gauge statistics for a component.
    pub fn gauge(&self, component: Component) -> GaugeStats {
        self.gauges[component as usize]
    }

    /// The windowed utilization series for a component.
    pub fn series(&self, component: Component) -> &TimeSeries {
        &self.series[component as usize]
    }

    /// The busiest window of a component: `(window index, utilization)`.
    pub fn high_watermark(&self, component: Component) -> Option<(usize, f64)> {
        self.series(component).high_watermark()
    }

    /// Folded-stacks rendering (flamegraph collapse format): one line
    /// per charged `(component, activity)` pair —
    /// `component;activity <nanoseconds>` — in canonical order.
    pub fn folded_stacks(&self) -> String {
        let mut out = String::new();
        for c in Component::ALL {
            for a in Activity::ALL {
                let t = self.total(c, a);
                if t > Duration::ZERO {
                    out.push_str(c.name());
                    out.push(';');
                    out.push_str(a.name());
                    out.push(' ');
                    out.push_str(&(t.as_ps() / 1_000).to_string());
                    out.push('\n');
                }
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn component_all_is_complete_and_named_uniquely() {
        assert_eq!(Component::ALL.len(), Component::COUNT);
        let mut names: Vec<&str> = Component::ALL.iter().map(|c| c.name()).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), Component::COUNT, "duplicate component name");
        for (i, c) in Component::ALL.iter().enumerate() {
            assert_eq!(*c as usize, i, "ALL order must match discriminants");
        }
    }

    #[test]
    fn activity_all_is_complete_and_active_set_is_right() {
        assert_eq!(Activity::ALL.len(), Activity::COUNT);
        for (i, a) in Activity::ALL.iter().enumerate() {
            assert_eq!(*a as usize, i);
        }
        let active: Vec<Activity> = Activity::ALL
            .into_iter()
            .filter(|a| a.is_active())
            .collect();
        assert_eq!(
            active,
            vec![Activity::Busy, Activity::Transfer, Activity::Arbitration]
        );
        assert!(!Activity::StalledBus.is_active());
        assert!(!Activity::StalledFifo.is_active());
        assert!(!Activity::Idle.is_active());
    }

    #[test]
    fn null_profiler_is_disabled() {
        let p = NullProfiler;
        assert!(!p.enabled());
    }

    #[test]
    fn cycle_profiler_accumulates_exact_totals() {
        let mut p = CycleProfiler::new();
        assert!(p.enabled());
        p.charge(
            Component::TxEngine,
            Activity::Busy,
            Time::ZERO,
            Duration::from_us(30),
        );
        p.charge(
            Component::TxEngine,
            Activity::Busy,
            Time::from_us(40),
            Duration::from_us(10),
        );
        p.charge(
            Component::TxEngine,
            Activity::Idle,
            Time::from_us(30),
            Duration::from_us(10),
        );
        p.charge(
            Component::TxBus,
            Activity::Transfer,
            Time::ZERO,
            Duration::from_us(25),
        );
        let prof = p.snapshot(Time::from_us(100));
        assert_eq!(
            prof.total(Component::TxEngine, Activity::Busy),
            Duration::from_us(40)
        );
        assert_eq!(prof.active_time(Component::TxEngine), Duration::from_us(40));
        assert!((prof.utilization(Component::TxEngine) - 0.4).abs() < 1e-12);
        // Idle is accounted but does not count toward utilization.
        assert_eq!(
            prof.total(Component::TxEngine, Activity::Idle),
            Duration::from_us(10)
        );
        assert!((prof.utilization(Component::TxBus) - 0.25).abs() < 1e-12);
        assert!((prof.utilization(Component::RxEngine)).abs() < 1e-12);
    }

    #[test]
    fn gauges_capture_peak_and_mean() {
        let mut p = CycleProfiler::new();
        p.gauge(Component::RxFifo, Time::ZERO, 4);
        p.gauge(Component::RxFifo, Time::from_us(1), 12);
        p.gauge(Component::RxFifo, Time::from_us(2), 0);
        let prof = p.snapshot(Time::from_us(4));
        let g = prof.gauge(Component::RxFifo);
        assert_eq!(g.peak, 12);
        // 4 for 1µs + 12 for 1µs + 0 for 2µs over 4µs = 4.0
        assert!((g.mean - 4.0).abs() < 1e-9, "mean={}", g.mean);
        assert_eq!(prof.gauge(Component::TxFifo), GaugeStats::default());
    }

    #[test]
    fn windowed_series_and_watermark() {
        let mut p = CycleProfiler::with_window(Duration::from_us(10));
        // Window 0: 4 µs busy. Window 1: saturated.
        p.charge(
            Component::RxEngine,
            Activity::Busy,
            Time::ZERO,
            Duration::from_us(4),
        );
        p.charge(
            Component::RxEngine,
            Activity::Busy,
            Time::from_us(10),
            Duration::from_us(10),
        );
        // Stalls do not enter the utilization series.
        p.charge(
            Component::RxEngine,
            Activity::StalledBus,
            Time::from_us(4),
            Duration::from_us(6),
        );
        let prof = p.snapshot(Time::from_us(20));
        let (idx, u) = prof.high_watermark(Component::RxEngine).unwrap();
        assert_eq!(idx, 1);
        assert!((u - 1.0).abs() < 1e-12);
        assert!((prof.series(Component::RxEngine).utilization(0) - 0.4).abs() < 1e-12);
    }

    #[test]
    fn folded_stacks_renders_charged_pairs_in_order() {
        let mut p = CycleProfiler::new();
        p.charge(
            Component::RxEngine,
            Activity::Busy,
            Time::ZERO,
            Duration::from_us(3),
        );
        p.charge(
            Component::TxEngine,
            Activity::Busy,
            Time::ZERO,
            Duration::from_ns(1500),
        );
        p.charge(
            Component::TxEngine,
            Activity::StalledFifo,
            Time::from_us(2),
            Duration::from_us(1),
        );
        let prof = p.snapshot(Time::from_us(10));
        let folded = prof.folded_stacks();
        // Canonical order: tx.engine lines before rx.engine.
        assert_eq!(
            folded,
            "tx.engine;busy 1500\ntx.engine;stalled.fifo 1000\nrx.engine;busy 3000\n"
        );
    }

    #[test]
    fn empty_profile_renders_empty() {
        let prof = CycleProfiler::new().snapshot(Time::ZERO);
        assert_eq!(prof.folded_stacks(), "");
        assert_eq!(prof.utilization(Component::TxEngine), 0.0);
    }
}
