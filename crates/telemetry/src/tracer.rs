//! Trace sinks: the `Tracer` trait and its in-memory implementations.

use crate::event::TraceEvent;

/// Where instrumented simulations emit [`TraceEvent`]s.
///
/// Instrumentation points must gate on [`Tracer::enabled`] before
/// constructing an event:
///
/// ```
/// # use hni_telemetry::{Tracer, NullTracer, TraceEvent, Stage, Time};
/// # let mut tracer = NullTracer;
/// # let now = Time::ZERO;
/// if tracer.enabled() {
///     tracer.record(TraceEvent::instant(now, Stage::TxFramer).cell(0));
/// }
/// ```
///
/// With the [`NullTracer`] that branch is constant-false, so the
/// steady-state per-cell path does no work and no allocation — results
/// are bit-identical to an uninstrumented run.
pub trait Tracer {
    /// Whether events should be constructed and recorded at all.
    fn enabled(&self) -> bool {
        true
    }

    /// Record one event. Events arrive in simulation order.
    fn record(&mut self, ev: TraceEvent);
}

/// The zero-overhead sink: tracing off.
#[derive(Clone, Copy, Debug, Default)]
pub struct NullTracer;

impl Tracer for NullTracer {
    #[inline(always)]
    fn enabled(&self) -> bool {
        false
    }

    #[inline(always)]
    fn record(&mut self, _ev: TraceEvent) {}
}

/// Unbounded recording sink: captures the full event stream for export
/// and reduction.
#[derive(Clone, Debug, Default)]
pub struct VecTracer {
    events: Vec<TraceEvent>,
}

impl VecTracer {
    /// New empty sink.
    pub fn new() -> Self {
        Self::default()
    }

    /// The recorded stream, in emission order.
    pub fn events(&self) -> &[TraceEvent] {
        &self.events
    }

    /// Consume the sink, returning the stream.
    pub fn into_events(self) -> Vec<TraceEvent> {
        self.events
    }

    /// Number of events recorded.
    pub fn len(&self) -> usize {
        self.events.len()
    }

    /// Whether nothing was recorded.
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }
}

impl Tracer for VecTracer {
    fn record(&mut self, ev: TraceEvent) {
        self.events.push(ev);
    }
}

/// Bounded flight recorder: a preallocated ring that keeps the most
/// recent `capacity` events. Recording into a warmed ring never
/// allocates, so it can stay on in long steady-state runs.
#[derive(Clone, Debug)]
pub struct RingTracer {
    buf: Vec<TraceEvent>,
    capacity: usize,
    next: usize,
    recorded: u64,
}

impl RingTracer {
    /// Ring holding the last `capacity` events (`capacity > 0`).
    pub fn new(capacity: usize) -> Self {
        assert!(capacity > 0, "ring capacity must be non-zero");
        RingTracer {
            buf: Vec::with_capacity(capacity),
            capacity,
            next: 0,
            recorded: 0,
        }
    }

    /// Total events ever recorded (≥ what the ring still holds).
    pub fn recorded(&self) -> u64 {
        self.recorded
    }

    /// The retained events, oldest first.
    pub fn events(&self) -> Vec<TraceEvent> {
        if self.buf.len() < self.capacity {
            self.buf.clone()
        } else {
            let mut out = Vec::with_capacity(self.capacity);
            out.extend_from_slice(&self.buf[self.next..]);
            out.extend_from_slice(&self.buf[..self.next]);
            out
        }
    }
}

impl Tracer for RingTracer {
    fn record(&mut self, ev: TraceEvent) {
        self.recorded += 1;
        if self.buf.len() < self.capacity {
            self.buf.push(ev);
        } else {
            self.buf[self.next] = ev;
            self.next = (self.next + 1) % self.capacity;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::Stage;
    use hni_sim::Time;

    fn ev(i: u64) -> TraceEvent {
        TraceEvent::instant(Time::from_ns(i), Stage::TxFramer).cell(i)
    }

    #[test]
    fn null_tracer_is_disabled() {
        let t = NullTracer;
        assert!(!t.enabled());
    }

    #[test]
    fn vec_tracer_records_in_order() {
        let mut t = VecTracer::new();
        for i in 0..5 {
            t.record(ev(i));
        }
        assert_eq!(t.len(), 5);
        assert_eq!(t.events()[3].cell, 3);
    }

    #[test]
    fn ring_keeps_most_recent() {
        let mut t = RingTracer::new(4);
        for i in 0..10 {
            t.record(ev(i));
        }
        assert_eq!(t.recorded(), 10);
        let kept: Vec<u32> = t.events().iter().map(|e| e.cell).collect();
        assert_eq!(kept, vec![6, 7, 8, 9]);
    }

    #[test]
    fn ring_invariants_hold_across_many_wraps() {
        // Overfill a small ring several times over with a count that is
        // not a multiple of the capacity, checking the snapshot after
        // every record: bounded size, oldest→newest ordering with no
        // gaps, and a recorded count that includes the dropped events.
        let cap = 5usize;
        let mut t = RingTracer::new(cap);
        for i in 0u64..23 {
            t.record(ev(i));
            let kept: Vec<u64> = t.events().iter().map(|e| e.cell as u64).collect();
            assert!(kept.len() <= cap, "ring grew past capacity at i={i}");
            let first = (i + 1).saturating_sub(cap as u64);
            let expected: Vec<u64> = (first..=i).collect();
            assert_eq!(kept, expected, "snapshot out of order at i={i}");
            assert_eq!(t.recorded(), i + 1);
        }
        // 23 records through a 5-slot ring: 4 full wraps plus 3.
        assert_eq!(t.recorded(), 23);
    }

    #[test]
    fn ring_under_capacity_is_plain() {
        let mut t = RingTracer::new(8);
        for i in 0..3 {
            t.record(ev(i));
        }
        let kept: Vec<u32> = t.events().iter().map(|e| e.cell).collect();
        assert_eq!(kept, vec![0, 1, 2]);
    }
}
