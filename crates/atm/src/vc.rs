//! Virtual connection identifiers.

use core::fmt;

/// A virtual connection: the (VPI, VCI) pair that identifies a cell's
/// connection on a link.
///
/// VCI values 0–31 are reserved by ITU-T for layer functions (idle cells,
/// OAM, signalling, link management); user data connections use VCI ≥ 32 — see
/// [`VcId::FIRST_USER_VCI`].
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct VcId {
    /// Virtual path identifier (8 bits at UNI, 12 at NNI).
    pub vpi: u16,
    /// Virtual channel identifier (16 bits).
    pub vci: u16,
}

impl VcId {
    /// The lowest VCI available to user connections.
    pub const FIRST_USER_VCI: u16 = 32;

    /// Construct a VC identifier.
    pub const fn new(vpi: u16, vci: u16) -> Self {
        VcId { vpi, vci }
    }

    /// The 24-bit concatenated VPI·VCI value used as a CAM search key in
    /// the receive pipeline (UNI: 8-bit VPI + 16-bit VCI).
    pub fn cam_key(&self) -> u32 {
        ((self.vpi as u32) << 16) | self.vci as u32
    }
}

impl fmt::Display for VcId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}/{}", self.vpi, self.vci)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cam_key_packs() {
        let vc = VcId::new(0xAB, 0xCDEF);
        assert_eq!(vc.cam_key(), 0x00AB_CDEF);
    }

    #[test]
    fn cam_key_edges() {
        // Max UNI VPI (8-bit) with max VCI fills exactly 24 bits.
        assert_eq!(VcId::new(255, 65535).cam_key(), 0x00FF_FFFF);
        // Max VCI alone occupies the low 16 bits only.
        assert_eq!(VcId::new(0, 65535).cam_key(), 0x0000_FFFF);
        // Max VPI alone occupies bits 16..24 only.
        assert_eq!(VcId::new(255, 0).cam_key(), 0x00FF_0000);
        assert_eq!(VcId::new(0, 0).cam_key(), 0);
    }

    #[test]
    fn cam_key_16_bit_boundary_does_not_alias() {
        // (vpi=0, vci=65535) vs (vpi=1, vci=0): adjacent across the
        // 16-bit boundary — a packing that added instead of OR-ing, or
        // shifted by the wrong width, would collide them.
        assert_ne!(VcId::new(0, 65535).cam_key(), VcId::new(1, 0).cam_key());
        assert_eq!(VcId::new(1, 0).cam_key(), VcId::new(0, 65535).cam_key() + 1);
        // The 24-bit corner vs the would-be 25th bit pattern.
        assert_ne!(VcId::new(255, 65535).cam_key(), VcId::new(0, 0).cam_key());
    }

    #[test]
    fn cam_key_edge_pairs_distinct_in_table() {
        // The corner keys must survive the VcTable's hash round trip as
        // distinct entries (guards against silent truncation in any
        // future key transform).
        let corners = [
            VcId::new(0, 0),
            VcId::new(0, 65535),
            VcId::new(1, 0),
            VcId::new(255, 0),
            VcId::new(255, 65535),
        ];
        let mut t: crate::VcTable<usize> = crate::VcTable::new();
        for (i, vc) in corners.iter().enumerate() {
            t.insert(vc.cam_key() as u64, i);
        }
        assert_eq!(t.len(), corners.len());
        for (i, vc) in corners.iter().enumerate() {
            assert_eq!(t.get_by_key(vc.cam_key() as u64), Some(&i), "{vc}");
        }
    }

    #[test]
    fn display() {
        assert_eq!(VcId::new(1, 42).to_string(), "1/42");
    }

    #[test]
    fn ordering_is_vpi_major() {
        assert!(VcId::new(1, 0) > VcId::new(0, 65535));
    }
}
