//! Allocation-count proofs for the tracing and profiling hot paths.
//!
//! A thread-filtered counting global allocator (the workspace's
//! `tests/support/alloc_counter.rs`) wraps `System`; the tests assert
//! that recording through a `NullTracer` and charging through a
//! `NullProfiler` perform zero heap allocations, which is what makes it
//! safe to leave instrumentation in the per-cell steady-state path.

use hni_telemetry::{
    Activity, Component, Duration, NullProfiler, NullTracer, Profiler, Stage, Time, TraceEvent,
    Tracer,
};

#[path = "../../../tests/support/alloc_counter.rs"]
mod alloc_counter;
use alloc_counter::allocs_during;

fn ev(i: u64) -> TraceEvent {
    TraceEvent::instant(Time::from_ns(i), Stage::TxFramer)
        .vc(64)
        .cell(i)
}

#[test]
fn null_tracer_records_without_allocating() {
    let mut t = NullTracer;
    let (_, n) = allocs_during(|| {
        for i in 0..10_000 {
            if t.enabled() {
                t.record(ev(i));
            }
        }
    });
    assert_eq!(n, 0, "NullTracer hot path allocated {n} times");
}

#[test]
fn null_profiler_charges_without_allocating() {
    // The exact shape of every profiler call site in the simulations:
    // gate on enabled(), then charge or gauge.
    let mut p = NullProfiler;
    let (_, n) = allocs_during(|| {
        for i in 0..100_000u64 {
            if p.enabled() {
                p.charge(
                    Component::RxEngine,
                    Activity::Busy,
                    Time::from_ns(i),
                    Duration::from_ns(600),
                );
                p.gauge(Component::RxFifo, Time::from_ns(i), i % 16);
            }
        }
    });
    assert_eq!(n, 0, "NullProfiler hot path allocated {n} times");
}
