//! # hni-aal — ATM adaptation layers
//!
//! Segmentation and reassembly between variable-length service data units
//! (SDUs — the packets the host hands the interface) and fixed 48-octet
//! cell payloads. Two adaptation layers are implemented, matching the two
//! the host-interface literature of the era weighs against each other:
//!
//! * [`aal5`] — the Simple and Efficient Adaptation Layer: no per-cell
//!   overhead, an 8-octet CPCS trailer (UU/CPI/Length/CRC-32) in the last
//!   cell, end-of-frame signalled by the PTI user-indication bit. All 48
//!   payload octets carry data → higher efficiency, but errors are only
//!   detected at frame end.
//! * [`aal1`] — AAL1: constant-bit-rate circuit emulation — a 1-octet
//!   SAR header (sequence count protected by CRC-3 + parity) over a
//!   47-octet slice of a byte stream; loss is *detected and compensated*
//!   (fill insertion), never retransmitted, preserving stream timing.
//! * [`aal34`] — AAL3/4: 4 octets of SAR overhead per cell (ST/SN/MID
//!   header, LI/CRC-10 trailer) leaving 44 octets of payload, plus a
//!   CPCS header/trailer (BTag/ETag/BAsize/Length). Costlier, but each
//!   cell is individually checked (CRC-10) and sequence-numbered, errors
//!   are detected mid-frame, and the MID field lets frames from multiple
//!   sources interleave on one VC.
//!
//! The CRCs live in [`crc`]: both a bit-by-bit reference and table-driven
//! implementations, cross-checked in tests (the table version is what the
//! hardware-assist model in `hni-core` charges zero engine instructions
//! for).
//!
//! Reassembly is per-VC (and per-MID for AAL3/4), with an explicit error
//! taxonomy ([`ReassemblyError`]) covering every way a frame can die:
//! CRC failure, length mismatch, sequence gaps, oversize, interleaving
//! violations, and receiver-driven timeout.

pub mod aal1;
pub mod aal34;
pub mod aal5;
pub mod crc;

use core::fmt;
use hni_atm::VcId;

/// Which adaptation layer a connection uses.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum AalType {
    /// AAL5: 48 data octets per cell, frame-level CRC-32.
    Aal5,
    /// AAL3/4: 44 data octets per cell, cell-level CRC-10, MID muxing.
    Aal34,
}

impl AalType {
    /// Data octets carried per cell payload.
    pub fn payload_per_cell(self) -> usize {
        match self {
            AalType::Aal5 => 48,
            AalType::Aal34 => 44,
        }
    }

    /// Number of cells needed to carry an SDU of `len` octets. Never
    /// zero: an empty SDU still takes one cell for the AAL5 trailer or
    /// the AAL3/4 CPCS envelope.
    pub fn cells_for_sdu(self, len: usize) -> usize {
        match self {
            // Payload + 8-octet trailer, padded to a multiple of 48.
            AalType::Aal5 => (len + aal5::TRAILER_SIZE).div_ceil(48),
            // CPCS adds 4 header + pad(0..3) + 4 trailer octets, then 44
            // octets ride in each cell.
            AalType::Aal34 => {
                let cpcs = aal34::cpcs_pdu_len(len);
                cpcs.div_ceil(44)
            }
        }
    }

    /// Fraction of link payload capacity that is SDU data for SDUs of
    /// `len` octets (cell payloads only; cell headers are accounted at
    /// the ATM layer).
    pub fn efficiency(self, len: usize) -> f64 {
        let cells = self.cells_for_sdu(len);
        if cells == 0 {
            return 0.0;
        }
        len as f64 / (cells * 48) as f64
    }
}

impl fmt::Display for AalType {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            AalType::Aal5 => write!(f, "AAL5"),
            AalType::Aal34 => write!(f, "AAL3/4"),
        }
    }
}

/// Why a frame under reassembly was abandoned.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum ReassemblyError {
    /// Frame-level CRC-32 mismatch (AAL5).
    Crc32,
    /// Cell-level CRC-10 mismatch (AAL3/4).
    Crc10,
    /// Length field disagrees with the octets actually received.
    LengthMismatch,
    /// SAR sequence number discontinuity (AAL3/4) — a cell was lost.
    SequenceGap,
    /// Frame exceeds the receiver's maximum SDU size.
    TooLong,
    /// A continuation/end cell arrived with no frame in progress.
    NoFrameInProgress,
    /// A begin cell arrived while a frame was already in progress
    /// (the in-progress frame is the casualty).
    UnexpectedBegin,
    /// BTag in the CPCS header does not match ETag in the trailer (AAL3/4).
    TagMismatch,
    /// CPCS header/trailer was malformed (AAL3/4).
    MalformedCpcs,
    /// The receiver's reassembly timer expired.
    Timeout,
}

impl fmt::Display for ReassemblyError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            ReassemblyError::Crc32 => "CPCS CRC-32 mismatch",
            ReassemblyError::Crc10 => "SAR CRC-10 mismatch",
            ReassemblyError::LengthMismatch => "length field mismatch",
            ReassemblyError::SequenceGap => "SAR sequence number gap",
            ReassemblyError::TooLong => "frame exceeds maximum SDU size",
            ReassemblyError::NoFrameInProgress => "continuation without begin",
            ReassemblyError::UnexpectedBegin => "begin while frame in progress",
            ReassemblyError::TagMismatch => "BTag/ETag mismatch",
            ReassemblyError::MalformedCpcs => "malformed CPCS envelope",
            ReassemblyError::Timeout => "reassembly timeout",
        };
        f.write_str(s)
    }
}

impl std::error::Error for ReassemblyError {}

/// A successfully reassembled SDU.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ReassembledSdu {
    /// The VC it arrived on.
    pub vc: VcId,
    /// AAL3/4 multiplexing identifier (0 for AAL5).
    pub mid: u16,
    /// The SDU octets.
    pub data: Vec<u8>,
    /// AAL5 CPCS-UU byte (0 for AAL3/4).
    pub user_to_user: u8,
}

/// A reassembly failure report.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ReassemblyFailure {
    /// The VC the frame was arriving on.
    pub vc: VcId,
    /// AAL3/4 multiplexing identifier (0 for AAL5).
    pub mid: u16,
    /// What killed the frame.
    pub error: ReassemblyError,
    /// Octets of partial frame discarded.
    pub discarded_octets: usize,
}

/// The outcome of offering one cell to a reassembler.
pub type ReassemblyOutcome = Option<Result<ReassembledSdu, ReassemblyFailure>>;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cells_for_sdu_aal5_boundaries() {
        // An empty SDU still carries the 8-octet trailer → 1 cell.
        assert_eq!(AalType::Aal5.cells_for_sdu(0), 1);
        // 40 data + 8 trailer = 48 → exactly 1 cell.
        assert_eq!(AalType::Aal5.cells_for_sdu(40), 1);
        // 41 data + 8 trailer = 49 → 2 cells.
        assert_eq!(AalType::Aal5.cells_for_sdu(41), 2);
        // Classic IP MTU over AAL5: 9180 → (9180+8)/48 → 192 cells.
        assert_eq!(AalType::Aal5.cells_for_sdu(9180), 192);
        // Maximum AAL5 SDU.
        assert_eq!(AalType::Aal5.cells_for_sdu(65535), 1366);
    }

    #[test]
    fn cells_for_sdu_aal34() {
        // Empty: CPCS = 4 header + 4 trailer = 8 → 1 cell.
        assert_eq!(AalType::Aal34.cells_for_sdu(0), 1);
        // 36 data: CPCS = 4 + 36 + 0 pad + 4 = 44 → 1 cell (SSM).
        assert_eq!(AalType::Aal34.cells_for_sdu(36), 1);
        // 37 data: CPCS = 4 + 37 + 3 + 4 = 48 → 2 cells.
        assert_eq!(AalType::Aal34.cells_for_sdu(37), 2);
    }

    #[test]
    fn efficiency_ordering() {
        // AAL5 is strictly more efficient for large frames.
        let e5 = AalType::Aal5.efficiency(9180);
        let e34 = AalType::Aal34.efficiency(9180);
        assert!(e5 > e34, "e5={e5} e34={e34}");
        assert!(e5 > 0.95);
        assert!(e34 < 0.92);
    }

    #[test]
    fn zero_length_sdu_efficiency_is_zero() {
        assert_eq!(AalType::Aal5.efficiency(0), 0.0);
    }
}
