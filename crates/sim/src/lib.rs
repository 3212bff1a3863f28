//! # hni-sim — deterministic discrete-event simulation substrate
//!
//! This crate is the simulation kernel underneath the whole `hni` workspace.
//! It deliberately contains **no networking knowledge**: just time, a
//! deterministic event queue, a deterministic PRNG, statistics collectors,
//! occupancy accounting, and a lossy/erroring link model that higher layers
//! parameterise with their own payload types.
//!
//! ## Design rules
//!
//! * **Determinism.** Given the same seed and the same sequence of calls, a
//!   simulation produces bit-identical results on every platform. The event
//!   queue breaks timestamp ties by insertion order; the PRNG is a
//!   hand-rolled xoshiro256** (so no external crate version can change the
//!   stream); no wall-clock or OS entropy is consulted anywhere.
//! * **Picosecond clock.** Time is a `u64` count of picoseconds. At ATM
//!   rates the natural quanta are sub-nanosecond (one bit at 622.08 Mb/s
//!   lasts ≈ 1607.5 ps), so nanoseconds would accumulate rounding error in
//!   exactly the quantities the paper's delay analysis cares about. A `u64`
//!   of picoseconds spans ~213 days of simulated time — far beyond any
//!   experiment here.
//! * **No allocation on the hot path.** Statistics are fixed-size; event
//!   entries are moved, not boxed (the event payload type is chosen by the
//!   embedding simulation).
//!
//! ## Non-goals
//!
//! No threads, no async, no I/O. Simulations in this workspace are
//! CPU-bound and single-threaded by construction; reproducibility beats
//! parallelism for an evaluation harness.

pub mod event;
pub mod faults;
pub mod link;
pub mod rng;
pub mod stats;
pub mod time;

pub use event::EventQueue;
pub use faults::{
    BusFaultPlan, DelayLine, DelayModel, FaultInjector, FaultPlan, FaultProcess, GeParams, UnitFate,
};
pub use link::{Link, LinkDelivery};
pub use rng::{Rng, Zipf};
pub use stats::{Histogram, OccupancyTracker, Pcts, Summary, HIST_BUCKETS};
pub use time::{Duration, Time};
