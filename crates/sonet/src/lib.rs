//! # hni-sonet — the SONET transmission substrate
//!
//! The physical path under the host interface: SONET STS-3c (155.52 Mb/s,
//! "OC-3") and STS-12c (622.08 Mb/s, "OC-12") framing with ATM cells
//! mapped into the synchronous payload envelope. The 622 Mb/s STS-12c
//! path is the design point of the host-interface architecture under
//! study; STS-3c is the comparison point its delay analysis keeps
//! returning to.
//!
//! Modules:
//!
//! * [`rates`] — the rate arithmetic everything else quotes: line rate,
//!   payload rate (149.76 / 599.04 Mb/s), cell time, cell slot rate.
//! * [`frame`] — STS-Nc frame construction/parsing: transport overhead
//!   (A1/A2 alignment, J0, B1/B2 parity, H1–H3 pointer with
//!   concatenation indications), path overhead (J1, B3, C2 = 0x13 "ATM
//!   mapping", H4 cell-offset), fixed stuff, payload extraction, all
//!   as nine row runs with word-wide parity.
//! * [`scramble`] — the frame-synchronous 1 + x⁶ + x⁷ section scrambler,
//!   applied from a compile-time table of its 127-octet keystream period.
//! * [`sync`] — receiver frame alignment (A1A2 hunting) state machine.
//! * [`tc`] — the ATM transmission-convergence sublayer: cells →
//!   payload byte stream (with idle-cell insertion and x⁴³+1 payload
//!   scrambling) and back (frame sync → payload extraction → cell
//!   delineation → payload descrambling → idle removal).
//!
//! ## Documented simplifications
//!
//! Real SONET lets the SPE float via the H1/H2 pointer and adjust with
//! positive/negative stuffing. This model operates **locked**: the SPE
//! occupies exactly the payload columns of each frame and the pointer
//! carries a fixed value. Clock wander/jitter and pointer movements are
//! transmission-plant phenomena with no bearing on the host-interface
//! questions this workspace studies; the *rates* and *overhead geometry*
//! — which do matter, because they set the cell slot rate the interface
//! must keep up with — are exact. B2 is computed per STS-1 slice over
//! the non-SOH rows, B1 over the previous scrambled frame, B3 over the
//! previous SPE, all per GR-253 definitions.

pub mod frame;
pub mod rates;
pub mod scramble;
pub mod sync;
pub mod tc;

pub use frame::{FrameBuilder, FrameError, FrameParser, ParsedFrame};
pub use rates::LineRate;
pub use scramble::FrameScrambler;
pub use sync::{FrameAligner, FrameSyncState};
pub use tc::{TcReceiver, TcTransmitter};

#[cfg(test)]
mod reference;
