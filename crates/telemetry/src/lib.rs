//! # hni-telemetry — the observability backbone
//!
//! The evaluation of the host-interface architecture is fundamentally an
//! *attribution* exercise: which stage of the pipeline — DMA,
//! segmentation, FIFO, link, reassembly, delivery — eats the cycles at
//! 622 Mb/s. This crate makes that attribution first-class instead of
//! ad-hoc per-run accounting:
//!
//! * [`TraceEvent`] — a fixed-size, `Copy` record of one cell- or
//!   packet-lifecycle event: simulated [`Time`], pipeline [`Stage`],
//!   span [`Phase`], VC, packet/cell sequence ids, and one
//!   stage-specific argument.
//! * [`Tracer`] — the sink trait the simulations emit into. The
//!   [`NullTracer`] is a no-op whose `enabled()` gate lets every
//!   instrumentation point vanish from the steady-state path: no
//!   allocation, no buffering, bit-identical simulation results.
//! * [`VecTracer`] — the in-memory sink: a growing buffer for full-run
//!   capture.
//! * [`jsonl`] — a line-per-event JSON export, the interchange format
//!   `report trace <id>` emits.
//! * [`Profiler`] / [`CycleProfiler`] — cycle accounting: every
//!   simulated interval charged to a `(Component, Activity)` pair, with
//!   windowed utilization [`TimeSeries`] and occupancy gauges; the
//!   [`NullProfiler`] makes the layer free when disabled, exactly like
//!   the tracer.
//! * [`attribution`] — ranks a [`Profile`]'s resources by utilization
//!   and computes the throughput ceiling each implies, naming the
//!   bottleneck (`report bottleneck <id>`).
//! * [`expfmt`] — a Prometheus-style text exposition of a profile
//!   snapshot; [`Profile::folded_stacks`] emits flamegraph-collapse
//!   lines for `report profile <id>`; histogram families and a
//!   conformance [`validate`](expfmt::validate)r for CI linting.
//!
//! The always-on telemetry plane adds the pieces that stay on at line
//! rate with bounded overhead. Every pipeline report carries them, next
//! to its cell ledger, and `report metrics <id>` dumps them; a run's
//! metrics are read from the report, not rebuilt from a trace:
//!
//! * [`hni_sim::Histogram`] — fixed 64-bucket log₂ latency histograms
//!   with p50/p90/p99/p999 bands and exact min and max.
//! * [`topk`] — per-VC accounting at bounded cardinality: exact
//!   sharded volume counters plus a space-saving top-K heavy-hitter
//!   tracker, O(K) memory at million-VC scale.
//! * [`Sampler`] — deterministic 1-in-N trace sampling whose keep/drop
//!   decision is a pure function of cell identity, so sampled traces
//!   are byte-identical across reruns and worker counts.
//! * [`json`] — the workspace's single JSON string escaper, shared by
//!   every hand-rolled JSON writer.
//!
//! The tail-anatomy layer turns "p99 regressed" into "this stage
//! regressed":
//!
//! * [`spans`] — [`PacketSpans`], the one-pass per-packet span index
//!   that rebuilds the R-F3 per-stage latency breakdown directly from
//!   trace spans, splitting every stage into queue-wait vs service
//!   time; partial lives (dropped packets) stay attributable. `report
//!   exemplars <id>` names the slowest traced lives from this index.
//! * [`tailattr`] — [`attribute_tail`], the cohort critical-path
//!   attributor: tail vs median cohorts over the span index, stages
//!   ranked by excess, rendered as a blame table and Prometheus
//!   gauges (`report tail <id>`).

pub mod attribution;
pub mod event;
pub mod expfmt;
pub mod json;
pub mod jsonl;
pub mod profiler;
pub mod sampler;
pub mod spans;
pub mod tailattr;
pub mod timeseries;
pub mod topk;
pub mod tracer;

pub use attribution::{attribute, Attribution, ResourceShare};
pub use event::{Phase, Stage, TraceEvent, NO_ID};
pub use profiler::{
    Activity, Component, CycleProfiler, GaugeStats, NullProfiler, Profile, Profiler,
};
pub use sampler::Sampler;
pub use spans::{PacketLife, PacketSpans, SpanStage, STAGE_LABELS};
pub use tailattr::{attribute_tail, StageShare, TailAttribution};
pub use timeseries::TimeSeries;
pub use topk::{TopEntry, TopK, VcMetrics, VcShards};
pub use tracer::{NullTracer, Tracer, VecTracer};

pub use hni_sim::{Duration, Time};
