//! AAL1 — constant-bit-rate circuit emulation (ITU-T I.363.1).
//!
//! AAL1 carries an unstructured byte *stream* (voice trunks, video) at a
//! constant rate. Each cell spends one octet on the SAR header and
//! carries 47 octets of stream:
//!
//! ```text
//!  ┌─────┬────────────────┬──────────────────────────────┐
//!  │ CSI │ SC (3-bit seq) │ SNP: CRC-3 over CSI+SC, then │
//!  │ 1b  │                │ even parity over all 7 bits  │
//!  └─────┴────────────────┴──────────────────────────────┘   + 47 octets
//! ```
//!
//! The 3-bit sequence count cannot *recover* anything — there are no
//! retransmissions in a constant-rate circuit — but it detects lost and
//! misinserted cells so the receiver can compensate (insert fill for
//! lost payload, discard strays) and keep the stream's *timing*
//! skeleton intact. The SN field itself is protected by the SNP (a
//! CRC-3 plus even parity, distance 3 over 8 bits) so a corrupted
//! header is not mistaken for a sequence jump.
//!
//! Scope: unstructured data transfer service. The structured-data
//! pointer format and SRTS clock recovery are out of scope (they address
//! plesiochronous clocking, which this workspace's links don't model).

use hni_atm::{Cell, HeaderRepr, VcId, PAYLOAD_SIZE};

/// Stream octets carried per cell.
pub const PAYLOAD_PER_CELL: usize = 47;

/// CRC-3 generator x³ + x + 1 over the 4 SN bits (CSI ∥ SC).
fn crc3(sn_bits: u8) -> u8 {
    debug_assert!(sn_bits < 16);
    let mut reg: u8 = 0;
    for i in (0..4).rev() {
        let bit = (sn_bits >> i) & 1;
        let top = (reg >> 2) & 1;
        reg = (reg << 1) & 0b111;
        if top ^ bit != 0 {
            reg ^= 0b011;
        }
    }
    reg
}

/// Encode the SAR header octet for (csi, sc).
pub fn encode_header(csi: bool, sc: u8) -> u8 {
    debug_assert!(sc < 8);
    let sn = ((csi as u8) << 3) | sc;
    let mut octet = (sn << 4) | (crc3(sn) << 1);
    // Even parity over the whole octet.
    if (octet.count_ones() & 1) == 1 {
        octet |= 1;
    }
    octet
}

/// Decode and verify a SAR header octet. Returns `(csi, sc)` or `None`
/// if the SNP check fails.
pub fn decode_header(octet: u8) -> Option<(bool, u8)> {
    if octet.count_ones() & 1 != 0 {
        return None; // parity
    }
    let sn = octet >> 4;
    if crc3(sn) != (octet >> 1) & 0b111 {
        return None; // CRC-3
    }
    Some((sn & 0b1000 != 0, sn & 0b111))
}

/// Segments a byte stream into AAL1 cells.
pub struct Aal1Segmenter {
    vc: VcId,
    sc: u8,
    buffered: Vec<u8>,
}

impl Aal1Segmenter {
    /// A segmenter for `vc` starting at sequence count 0.
    pub fn new(vc: VcId) -> Self {
        Aal1Segmenter {
            vc,
            sc: 0,
            buffered: Vec::new(),
        }
    }

    /// Offer stream octets; complete cells are appended to `out`.
    /// Octets short of a full 47-octet payload stay buffered.
    pub fn push(&mut self, data: &[u8], out: &mut Vec<Cell>) {
        self.buffered.extend_from_slice(data);
        while self.buffered.len() >= PAYLOAD_PER_CELL {
            let mut payload = [0u8; PAYLOAD_SIZE];
            payload[0] = encode_header(false, self.sc);
            payload[1..].copy_from_slice(&self.buffered[..PAYLOAD_PER_CELL]);
            self.buffered.drain(..PAYLOAD_PER_CELL);
            out.push(
                Cell::new(&HeaderRepr::data(self.vc, false), &payload)
                    .expect("user VC header encodable"),
            );
            self.sc = (self.sc + 1) & 0b111;
        }
    }

    /// Stream octets awaiting a full cell.
    pub fn buffered(&self) -> usize {
        self.buffered.len()
    }
}

/// What the receiver noticed about the sequence.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Aal1Event {
    /// `n` cells (1–6) were lost; fill octets were substituted so the
    /// stream keeps its length/timing.
    CellsLost(u8),
    /// A cell whose header failed the SNP check was discarded (its
    /// payload position is treated as lost).
    HeaderDamaged,
}

/// Reassembles the byte stream, detecting losses by sequence count.
pub struct Aal1Receiver {
    expected_sc: Option<u8>,
    /// Octet substituted for lost payload (silence / mid-scale grey).
    pub fill_octet: u8,
    stream: Vec<u8>,
    events: Vec<Aal1Event>,
    cells_ok: u64,
    cells_lost: u64,
    cells_damaged: u64,
}

impl Default for Aal1Receiver {
    fn default() -> Self {
        Self::new()
    }
}

impl Aal1Receiver {
    /// A receiver awaiting the first cell.
    pub fn new() -> Self {
        Aal1Receiver {
            expected_sc: None,
            fill_octet: 0,
            stream: Vec::new(),
            events: Vec::new(),
            cells_ok: 0,
            cells_lost: 0,
            cells_damaged: 0,
        }
    }

    /// Offer one cell's payload (the caller has already demultiplexed
    /// the VC).
    pub fn push(&mut self, cell: &Cell) {
        let payload = cell.payload();
        let Some((_csi, sc)) = decode_header(payload[0]) else {
            // Unusable header: the safest interpretation is one lost
            // position (we cannot trust the sequence field).
            self.events.push(Aal1Event::HeaderDamaged);
            self.cells_damaged += 1;
            self.stream
                .extend(std::iter::repeat_n(self.fill_octet, PAYLOAD_PER_CELL));
            if let Some(e) = self.expected_sc {
                self.expected_sc = Some((e + 1) & 0b111);
            }
            return;
        };
        if let Some(expected) = self.expected_sc {
            let gap = (sc + 8 - expected) & 0b111;
            if gap != 0 {
                // `gap` cells went missing (ambiguous mod 8; 1..=7 is
                // reported as-is — an 8-cell loss aliases to 0 and is
                // undetectable, a known AAL1 limitation).
                self.events.push(Aal1Event::CellsLost(gap));
                self.cells_lost += gap as u64;
                self.stream.extend(std::iter::repeat_n(
                    self.fill_octet,
                    PAYLOAD_PER_CELL * gap as usize,
                ));
            }
        }
        self.stream.extend_from_slice(&payload[1..]);
        self.expected_sc = Some((sc + 1) & 0b111);
        self.cells_ok += 1;
    }

    /// Take the reassembled stream so far (drains).
    pub fn take_stream(&mut self) -> Vec<u8> {
        std::mem::take(&mut self.stream)
    }
    /// Take the pending events (drains).
    pub fn take_events(&mut self) -> Vec<Aal1Event> {
        std::mem::take(&mut self.events)
    }
    /// Cells accepted.
    pub fn cells_ok(&self) -> u64 {
        self.cells_ok
    }
    /// Cells inferred lost.
    pub fn cells_lost(&self) -> u64 {
        self.cells_lost
    }
    /// Cells with damaged headers.
    pub fn cells_damaged(&self) -> u64 {
        self.cells_damaged
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn vc() -> VcId {
        VcId::new(0, 300)
    }

    #[test]
    fn header_roundtrip_all_values() {
        for csi in [false, true] {
            for sc in 0..8 {
                let h = encode_header(csi, sc);
                assert_eq!(decode_header(h), Some((csi, sc)));
                assert_eq!(h.count_ones() % 2, 0, "even parity");
            }
        }
    }

    #[test]
    fn header_detects_every_single_bit_error() {
        for csi in [false, true] {
            for sc in 0..8 {
                let h = encode_header(csi, sc);
                for bit in 0..8 {
                    let bad = h ^ (1 << bit);
                    assert_eq!(decode_header(bad), None, "h={h:08b} bit={bit}");
                }
            }
        }
    }

    #[test]
    fn header_detects_every_double_bit_error() {
        // CRC-3 + parity give distance ≥ 3 over the 8-bit codeword.
        for sc in 0..8 {
            let h = encode_header(false, sc);
            for b1 in 0..8 {
                for b2 in (b1 + 1)..8 {
                    let bad = h ^ (1 << b1) ^ (1 << b2);
                    // A double error may alias to ANOTHER valid header —
                    // distance 3 only guarantees it's not undetected as
                    // the SAME one. What must never happen: decoding back
                    // to the original (that would be an undetected error).
                    if let Some((c, s)) = decode_header(bad) {
                        assert!((c, s) != (false, sc), "double error undetected for sc={sc}");
                    }
                }
            }
        }
    }

    #[test]
    fn stream_roundtrip() {
        let data: Vec<u8> = (0..47 * 10).map(|i| (i % 256) as u8).collect();
        let mut seg = Aal1Segmenter::new(vc());
        let mut cells = Vec::new();
        seg.push(&data, &mut cells);
        assert_eq!(cells.len(), 10);
        let mut rx = Aal1Receiver::new();
        for c in &cells {
            rx.push(c);
        }
        assert_eq!(rx.take_stream(), data);
        assert!(rx.take_events().is_empty());
    }

    #[test]
    fn partial_cells_stay_buffered() {
        let mut seg = Aal1Segmenter::new(vc());
        let mut cells = Vec::new();
        seg.push(&[1u8; 46], &mut cells);
        assert!(cells.is_empty());
        assert_eq!(seg.buffered(), 46);
        seg.push(&[2u8; 2], &mut cells);
        assert_eq!(cells.len(), 1);
        assert_eq!(seg.buffered(), 1);
    }

    #[test]
    fn sequence_counts_wrap_mod_8() {
        let mut seg = Aal1Segmenter::new(vc());
        let mut cells = Vec::new();
        seg.push(&vec![0u8; 47 * 20], &mut cells);
        for (i, c) in cells.iter().enumerate() {
            let (_, sc) = decode_header(c.payload()[0]).unwrap();
            assert_eq!(sc as usize, i % 8);
        }
    }

    #[test]
    fn lost_cells_detected_and_filled() {
        let data: Vec<u8> = (0..47 * 8).map(|i| (i % 251) as u8).collect();
        let mut seg = Aal1Segmenter::new(vc());
        let mut cells = Vec::new();
        seg.push(&data, &mut cells);
        let mut rx = Aal1Receiver::new();
        rx.fill_octet = 0xEE;
        for (i, c) in cells.iter().enumerate() {
            if i == 3 || i == 4 {
                continue; // lose two consecutive cells
            }
            rx.push(c);
        }
        assert_eq!(rx.take_events(), vec![Aal1Event::CellsLost(2)]);
        let stream = rx.take_stream();
        assert_eq!(stream.len(), data.len(), "timing skeleton preserved");
        // Fill where the loss was, original data elsewhere.
        assert_eq!(&stream[..47 * 3], &data[..47 * 3]);
        assert!(stream[47 * 3..47 * 5].iter().all(|&b| b == 0xEE));
        assert_eq!(&stream[47 * 5..], &data[47 * 5..]);
        assert_eq!(rx.cells_lost(), 2);
    }

    #[test]
    fn damaged_header_is_one_lost_position() {
        let mut seg = Aal1Segmenter::new(vc());
        let mut cells = Vec::new();
        seg.push(&[7u8; 47 * 4], &mut cells);
        // Corrupt the SAR header of cell 1 (single bit → SNP catches it).
        cells[1].payload_mut()[0] ^= 0x10;
        let mut rx = Aal1Receiver::new();
        for c in &cells {
            rx.push(c);
        }
        assert_eq!(rx.cells_damaged(), 1);
        assert_eq!(rx.take_stream().len(), 47 * 4);
        assert_eq!(rx.take_events(), vec![Aal1Event::HeaderDamaged]);
    }

    #[test]
    fn efficiency_between_aal5_and_aal34() {
        // AAL1 carries 47/48 of each payload: between AAL3/4 (44) and
        // AAL5 (48), as the overhead ordering goes.
        const { assert!(PAYLOAD_PER_CELL > 44 && PAYLOAD_PER_CELL < 48) };
    }
}
