//! The 53-octet ATM cell: wire format wrapper and owned header
//! representation, in the smoltcp `Packet`/`Repr` idiom.
//!
//! Wire layout of the 5-octet header (UNI format):
//!
//! ```text
//!  octet 0:  GFC(4)        | VPI(11..8)
//!  octet 1:  VPI(7..4)     | VCI(15..12)
//!  octet 2:  VCI(11..4)
//!  octet 3:  VCI(3..0)     | PTI(3) | CLP(1)
//!  octet 4:  HEC
//! ```
//!
//! At the NNI the GFC field is an extra four high-order VPI bits. Both
//! formats are supported; the host interface under study sits at a UNI.

use crate::hec;
use crate::vc::VcId;
use core::fmt;

/// Total cell size on the wire, in octets.
pub const CELL_SIZE: usize = 53;
/// Header size, in octets.
pub const HEADER_SIZE: usize = 5;
/// Payload size, in octets.
pub const PAYLOAD_SIZE: usize = 48;

/// Which header layout is in use.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Default)]
pub enum HeaderFormat {
    /// User-network interface: 4-bit GFC, 8-bit VPI.
    #[default]
    Uni,
    /// Network-node interface: 12-bit VPI, no GFC.
    Nni,
}

/// Payload Type Indicator: the 3 PTI bits, decoded.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Pti {
    /// User data cell. `congestion` is the EFCI bit; `last` is the
    /// ATM-user-to-ATM-user indication bit — AAL5 uses it to mark the
    /// final cell of a CPCS-PDU.
    UserData { congestion: bool, last: bool },
    /// OAM F5 segment cell.
    OamSegment,
    /// OAM F5 end-to-end cell.
    OamEndToEnd,
    /// Resource management cell (e.g. ABR RM cells).
    ResourceManagement,
    /// Reserved PTI value 7.
    Reserved,
}

impl Pti {
    /// Decode from the 3 PTI bits.
    pub fn from_bits(bits: u8) -> Pti {
        match bits & 0b111 {
            0b000 => Pti::UserData {
                congestion: false,
                last: false,
            },
            0b001 => Pti::UserData {
                congestion: false,
                last: true,
            },
            0b010 => Pti::UserData {
                congestion: true,
                last: false,
            },
            0b011 => Pti::UserData {
                congestion: true,
                last: true,
            },
            0b100 => Pti::OamSegment,
            0b101 => Pti::OamEndToEnd,
            0b110 => Pti::ResourceManagement,
            _ => Pti::Reserved,
        }
    }

    /// Encode to the 3 PTI bits.
    pub fn to_bits(self) -> u8 {
        match self {
            Pti::UserData { congestion, last } => ((congestion as u8) << 1) | (last as u8),
            Pti::OamSegment => 0b100,
            Pti::OamEndToEnd => 0b101,
            Pti::ResourceManagement => 0b110,
            Pti::Reserved => 0b111,
        }
    }

    /// Whether this is a user-data cell.
    pub fn is_user_data(self) -> bool {
        matches!(self, Pti::UserData { .. })
    }

    /// Whether this user-data cell carries the end-of-frame indication
    /// (false for non-user-data cells).
    pub fn is_last(self) -> bool {
        matches!(self, Pti::UserData { last: true, .. })
    }
}

/// Errors from decoding a header.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum HeaderError {
    /// HEC check failed uncorrectably.
    Hec,
    /// VPI exceeds the format's field width (emit only).
    VpiRange,
    /// GFC exceeds 4 bits (emit only).
    GfcRange,
}

impl fmt::Display for HeaderError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            HeaderError::Hec => write!(f, "uncorrectable HEC error"),
            HeaderError::VpiRange => write!(f, "VPI out of range for header format"),
            HeaderError::GfcRange => write!(f, "GFC out of range"),
        }
    }
}

impl std::error::Error for HeaderError {}

/// Owned, high-level representation of a cell header.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct HeaderRepr {
    /// UNI or NNI layout.
    pub format: HeaderFormat,
    /// Generic flow control (UNI only; must be 0..16). Ignored at NNI.
    pub gfc: u8,
    /// Virtual path identifier (8 bits at UNI, 12 at NNI).
    pub vpi: u16,
    /// Virtual channel identifier (16 bits).
    pub vci: u16,
    /// Payload type.
    pub pti: Pti,
    /// Cell loss priority: `true` = low priority (discard-eligible).
    pub clp: bool,
}

impl HeaderRepr {
    /// A user-data header on `vc`, UNI format, high priority.
    pub fn data(vc: VcId, last: bool) -> Self {
        HeaderRepr {
            format: HeaderFormat::Uni,
            gfc: 0,
            vpi: vc.vpi,
            vci: vc.vci,
            pti: Pti::UserData {
                congestion: false,
                last,
            },
            clp: false,
        }
    }

    /// The VC this header addresses.
    pub fn vc(&self) -> VcId {
        VcId {
            vpi: self.vpi,
            vci: self.vci,
        }
    }

    /// Parse a 5-octet header. The HEC must already be valid (run
    /// [`hec::check`]/[`hec::HecReceiver`] first); this decodes fields
    /// only and fails if the stored HEC mismatches, as a safety net.
    pub fn parse(bytes: &[u8; HEADER_SIZE], format: HeaderFormat) -> Result<Self, HeaderError> {
        if hec::syndrome(bytes) != 0 {
            return Err(HeaderError::Hec);
        }
        let (gfc, vpi) = match format {
            HeaderFormat::Uni => (
                bytes[0] >> 4,
                (((bytes[0] & 0x0F) as u16) << 4) | ((bytes[1] >> 4) as u16),
            ),
            HeaderFormat::Nni => (0, ((bytes[0] as u16) << 4) | ((bytes[1] >> 4) as u16)),
        };
        let vci = (((bytes[1] & 0x0F) as u16) << 12)
            | ((bytes[2] as u16) << 4)
            | ((bytes[3] >> 4) as u16);
        let pti = Pti::from_bits((bytes[3] >> 1) & 0b111);
        let clp = bytes[3] & 1 != 0;
        Ok(HeaderRepr {
            format,
            gfc,
            vpi,
            vci,
            pti,
            clp,
        })
    }

    /// Emit the 5-octet header, computing the HEC.
    pub fn emit(&self, bytes: &mut [u8; HEADER_SIZE]) -> Result<(), HeaderError> {
        match self.format {
            HeaderFormat::Uni => {
                if self.gfc > 0x0F {
                    return Err(HeaderError::GfcRange);
                }
                if self.vpi > 0xFF {
                    return Err(HeaderError::VpiRange);
                }
                bytes[0] = (self.gfc << 4) | ((self.vpi >> 4) as u8);
            }
            HeaderFormat::Nni => {
                if self.vpi > 0xFFF {
                    return Err(HeaderError::VpiRange);
                }
                bytes[0] = (self.vpi >> 4) as u8;
            }
        }
        bytes[1] = (((self.vpi & 0x0F) as u8) << 4) | ((self.vci >> 12) as u8);
        bytes[2] = (self.vci >> 4) as u8;
        bytes[3] = (((self.vci & 0x0F) as u8) << 4) | (self.pti.to_bits() << 1) | (self.clp as u8);
        let mut h4 = [0u8; 4];
        h4.copy_from_slice(&bytes[..4]);
        bytes[4] = hec::compute(&h4);
        Ok(())
    }
}

/// An owned 53-octet cell.
///
/// The bytes are always a structurally complete cell; header-field access
/// goes through [`HeaderRepr`]. Payload access is direct.
#[derive(Clone, PartialEq, Eq)]
pub struct Cell {
    bytes: [u8; CELL_SIZE],
}

impl Cell {
    /// Build a cell from a header representation and exactly 48 payload
    /// octets.
    pub fn new(header: &HeaderRepr, payload: &[u8; PAYLOAD_SIZE]) -> Result<Self, HeaderError> {
        let mut bytes = [0u8; CELL_SIZE];
        let mut h = [0u8; HEADER_SIZE];
        header.emit(&mut h)?;
        bytes[..HEADER_SIZE].copy_from_slice(&h);
        bytes[HEADER_SIZE..].copy_from_slice(payload);
        Ok(Cell { bytes })
    }

    /// The standard idle cell (VPI=0, VCI=0, PTI=0, CLP=1, payload 0x6A).
    ///
    /// Idle cells are inserted by the transmission convergence sublayer
    /// when no assigned cell is available, to fill the synchronous
    /// payload.
    pub fn idle() -> Self {
        let mut bytes = [0x6A; CELL_SIZE];
        bytes[0] = 0x00;
        bytes[1] = 0x00;
        bytes[2] = 0x00;
        bytes[3] = 0x01;
        bytes[4] = 0x52; // HEC of 00 00 00 01
        Cell { bytes }
    }

    /// Whether this is the idle cell (header match only).
    pub fn is_idle(&self) -> bool {
        self.bytes[..4] == [0x00, 0x00, 0x00, 0x01]
    }

    /// Whether this cell is unassigned (VPI=0, VCI=0, CLP=0 pattern).
    pub fn is_unassigned(&self) -> bool {
        self.bytes[..4] == [0x00, 0x00, 0x00, 0x00]
    }

    /// Wrap 53 raw octets. No validation — call
    /// [`Cell::header`] to find out whether the header survives parsing.
    pub fn from_bytes(bytes: [u8; CELL_SIZE]) -> Self {
        Cell { bytes }
    }

    /// The raw 53 octets.
    pub fn as_bytes(&self) -> &[u8; CELL_SIZE] {
        &self.bytes
    }

    /// Mutable access to the raw octets (for fault injection).
    pub fn as_bytes_mut(&mut self) -> &mut [u8; CELL_SIZE] {
        &mut self.bytes
    }

    /// The 5 header octets.
    pub fn header_bytes(&self) -> [u8; HEADER_SIZE] {
        let mut h = [0u8; HEADER_SIZE];
        h.copy_from_slice(&self.bytes[..HEADER_SIZE]);
        h
    }

    /// Parse the header as UNI format.
    pub fn header(&self) -> Result<HeaderRepr, HeaderError> {
        HeaderRepr::parse(&self.header_bytes(), HeaderFormat::Uni)
    }

    /// Overwrite the header (recomputes HEC).
    pub fn set_header(&mut self, header: &HeaderRepr) -> Result<(), HeaderError> {
        let mut h = [0u8; HEADER_SIZE];
        header.emit(&mut h)?;
        self.bytes[..HEADER_SIZE].copy_from_slice(&h);
        Ok(())
    }

    /// The 48 payload octets.
    pub fn payload(&self) -> &[u8] {
        &self.bytes[HEADER_SIZE..]
    }

    /// Mutable payload access.
    pub fn payload_mut(&mut self) -> &mut [u8] {
        &mut self.bytes[HEADER_SIZE..]
    }
}

impl fmt::Debug for Cell {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self.header() {
            Ok(h) => write!(
                f,
                "Cell {{ vpi: {}, vci: {}, pti: {:?}, clp: {} }}",
                h.vpi, h.vci, h.pti, h.clp
            ),
            Err(_) => write!(f, "Cell {{ invalid header {:02X?} }}", &self.bytes[..5]),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn vc(vpi: u16, vci: u16) -> VcId {
        VcId { vpi, vci }
    }

    #[test]
    fn header_roundtrip_uni() {
        let h = HeaderRepr {
            format: HeaderFormat::Uni,
            gfc: 0xA,
            vpi: 0xBC,
            vci: 0xDEF1,
            pti: Pti::UserData {
                congestion: true,
                last: true,
            },
            clp: true,
        };
        let mut b = [0u8; 5];
        h.emit(&mut b).unwrap();
        let parsed = HeaderRepr::parse(&b, HeaderFormat::Uni).unwrap();
        assert_eq!(parsed, h);
    }

    #[test]
    fn header_roundtrip_nni() {
        let h = HeaderRepr {
            format: HeaderFormat::Nni,
            gfc: 0,
            vpi: 0xABC, // needs 12 bits
            vci: 0x1234,
            pti: Pti::OamEndToEnd,
            clp: false,
        };
        let mut b = [0u8; 5];
        h.emit(&mut b).unwrap();
        let parsed = HeaderRepr::parse(&b, HeaderFormat::Nni).unwrap();
        assert_eq!(parsed, h);
    }

    #[test]
    fn emit_range_checks() {
        let mut h = HeaderRepr::data(vc(0x100, 0), false); // VPI > 8 bits
        let mut b = [0u8; 5];
        assert_eq!(h.emit(&mut b), Err(HeaderError::VpiRange));
        h.vpi = 1;
        h.gfc = 16;
        assert_eq!(h.emit(&mut b), Err(HeaderError::GfcRange));
    }

    #[test]
    fn parse_rejects_bad_hec() {
        let h = HeaderRepr::data(vc(1, 42), false);
        let mut b = [0u8; 5];
        h.emit(&mut b).unwrap();
        b[4] ^= 0xFF;
        assert_eq!(
            HeaderRepr::parse(&b, HeaderFormat::Uni),
            Err(HeaderError::Hec)
        );
    }

    #[test]
    fn pti_bits_roundtrip() {
        for bits in 0..8u8 {
            assert_eq!(Pti::from_bits(bits).to_bits(), bits);
        }
    }

    #[test]
    fn pti_semantics() {
        assert!(Pti::from_bits(0b001).is_last());
        assert!(!Pti::from_bits(0b000).is_last());
        assert!(!Pti::OamSegment.is_last());
        assert!(Pti::from_bits(0b011).is_user_data());
        assert!(!Pti::ResourceManagement.is_user_data());
    }

    #[test]
    fn idle_cell_is_valid_and_recognized() {
        let c = Cell::idle();
        assert!(c.is_idle());
        assert!(!c.is_unassigned());
        let h = c.header().unwrap();
        assert_eq!(h.vpi, 0);
        assert_eq!(h.vci, 0);
        assert!(h.clp);
        assert_eq!(c.payload()[0], 0x6A);
    }

    #[test]
    fn cell_build_and_payload() {
        let payload = [0x42u8; PAYLOAD_SIZE];
        let c = Cell::new(&HeaderRepr::data(vc(3, 77), true), &payload).unwrap();
        assert_eq!(c.payload(), &payload);
        let h = c.header().unwrap();
        assert_eq!(h.vc(), vc(3, 77));
        assert!(h.pti.is_last());
    }

    #[test]
    fn set_header_recomputes_hec() {
        let mut c = Cell::idle();
        c.set_header(&HeaderRepr::data(vc(9, 9), false)).unwrap();
        let h5 = c.header_bytes();
        assert_eq!(crate::hec::syndrome(&h5), 0);
        assert_eq!(c.header().unwrap().vc(), vc(9, 9));
    }

    #[test]
    fn vci_field_spans_octets() {
        // VCI bits straddle octets 1..3; verify a walking-ones pattern.
        for shift in 0..16 {
            let vci = 1u16 << shift;
            let h = HeaderRepr::data(vc(0, vci), false);
            let mut b = [0u8; 5];
            h.emit(&mut b).unwrap();
            let parsed = HeaderRepr::parse(&b, HeaderFormat::Uni).unwrap();
            assert_eq!(parsed.vci, vci);
        }
    }

    #[test]
    fn vpi_field_spans_octets_uni() {
        for shift in 0..8 {
            let vpi = 1u16 << shift;
            let h = HeaderRepr::data(vc(vpi, 0), false);
            let mut b = [0u8; 5];
            h.emit(&mut b).unwrap();
            assert_eq!(HeaderRepr::parse(&b, HeaderFormat::Uni).unwrap().vpi, vpi);
        }
    }
}
