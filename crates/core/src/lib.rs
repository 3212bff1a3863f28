//! # hni-core — the host-network interface architecture
//!
//! The paper's primary contribution, reconstructed: a programmable ATM
//! host interface for a TURBOchannel-class workstation on SONET OC-3 /
//! OC-12, built around per-direction protocol engines with hardware
//! assists for the per-cell fast path.
//!
//! Two complementary faces:
//!
//! * **Timing** — [`txsim`] and [`rxsim`] are discrete-event
//!   simulations of the transmit and receive pipelines over packet
//!   *metadata*: engine instruction budgets ([`engine`]), bus/DMA burst
//!   timing ([`bus`]), FIFO backpressure, per-VC pacing, reassembly
//!   buffer pressure ([`bufpool`]), connection lookup ([`cam`]). These
//!   regenerate the paper-style delay/throughput analysis.
//! * **Data path** — [`nic`] is the byte-exact functional interface:
//!   real AAL5/AAL3-4 segmentation, real cells, real SONET TC framing,
//!   driving `hni-aal` + `hni-sonet` end to end. The integration tests
//!   and examples run packets through two of these back-to-back.
//!
//! [`config::NicConfig`] configures the data path. The simulations take
//! their own [`txsim::TxConfig`] and [`rxsim::RxConfig`];
//! [`NicConfig::rx_config`] derives the receive one from a `Nic`'s
//! settings.

pub mod bufpool;
pub mod bus;
pub mod cam;
pub mod config;
pub mod driver;
pub mod e2esim;
pub mod engine;
pub mod fate;
pub mod nic;
pub mod rxsim;
pub mod txsim;

pub use bufpool::{BufferPool, DiscardPolicy, PoolConfig, PoolError};
pub use bus::{Bus, BusConfig};
pub use cam::{Cam, CamResult};
pub use config::NicConfig;
pub use driver::{DriverConfig, DriverError, HostDriver, RxPacket};
pub use e2esim::{run_e2e, run_e2e_full, E2eReport};
pub use engine::{HwPartition, ProtocolEngine, TaskCosts, TaskKind};
pub use fate::CellLedger;
pub use nic::{Nic, NicEvent};
pub use rxsim::{apply_faults, run_rx, run_rx_full, LinkFaults, RxConfig, RxReport, RxWorkload};
pub use txsim::{greedy_workload, run_tx, run_tx_full, TxConfig, TxPacket, TxReport};
