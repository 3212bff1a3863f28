//! # hni-host — the workstation on the other side of the bus
//!
//! The host interface exists because the *host* is slow: a
//! workstation-class CPU of the era sustains a few tens of MIPS and its
//! memory system moves tens of megabytes per second. This crate models
//! that machine — the second half of every end-to-end number in the
//! evaluation:
//!
//! * [`cpu`] — CPU instruction rate and memory-copy bandwidth.
//! * [`driver`] — what receiving a packet costs the kernel: interrupt
//!   entry/exit, descriptor ring work, protocol stack, and delivery to
//!   the application by copy or by page remap; interrupt coalescing.
//! * [`softsar`] — the baseline architecture the paper argues against:
//!   segmentation and reassembly done *by the host CPU itself*, with
//!   per-cell programmed I/O to a dumb interface.

pub mod cpu;
pub mod driver;
pub mod softsar;

pub use cpu::HostCpu;
pub use driver::{DriverCosts, HostRxReport, InterruptMode, RxHostModel};
pub use softsar::SoftSar;
