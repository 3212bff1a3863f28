//! STS-Nc frame construction and parsing.
//!
//! A frame is 9 rows × 90·N columns of octets, transmitted row-major,
//! every 125 µs. Column layout (this model, locked SPE):
//!
//! ```text
//!  cols 0..3N-1        : transport overhead (TOH)
//!  col  3N             : path overhead (POH): J1,B3,C2,G1,F2,H4,Z3..Z5
//!  cols 3N+1..3N+stuff : fixed stuff (N/3−1 columns, pattern 0x00)
//!  remaining columns   : ATM cell payload
//! ```
//!
//! TOH rows: A1·N, A2·N, J0/Z0·N (row 0 — never scrambled); B1/E1/F1
//! (row 1); D1–D3 (row 2); H1·N, H2·N, H3·N pointer (row 3); B2·N, K1,
//! K2 (row 4); D4–D12 (rows 5–7); S1/M1/E2 (row 8).
//!
//! Parity (computed here exactly as GR-253 defines the coverage):
//!
//! * **B1** — BIP-8 over the *previous* frame after scrambling.
//! * **B2\[i\]** — BIP-8 per STS-1 slice (columns ≡ i mod N) over the
//!   previous frame minus the section-overhead region, before scrambling.
//! * **B3** — BIP-8 over the previous SPE (POH + stuff + payload),
//!   before scrambling.
//!
//! C2 carries 0x13, the code point for ATM cell mapping; H4 carries the
//! offset to the next cell boundary so a receiver *could* shortcut
//! delineation (ours delineates by HEC, as real interfaces did —
//! trusting H4 couples you to the far framer's honesty).

use crate::rates::LineRate;
use crate::scramble::FrameScrambler;
use core::fmt;

/// A1 framing octet.
pub const A1: u8 = 0xF6;
/// A2 framing octet.
pub const A2: u8 = 0x28;
/// C2 code point for ATM mapping.
pub const C2_ATM: u8 = 0x13;
/// H1 octet, first STS-1: normal NDF, pointer value 0 (locked SPE).
pub const H1_LOCKED: u8 = 0x60;
/// H2 octet, first STS-1.
pub const H2_LOCKED: u8 = 0x00;
/// H1 concatenation indication (STS-1s 2..N of an STS-Nc).
pub const H1_CONCAT: u8 = 0x93;
/// H2 concatenation indication.
pub const H2_CONCAT: u8 = 0xFF;

/// Geometry helpers for one line rate.
#[derive(Clone, Copy, Debug)]
pub struct FrameGeometry {
    /// The line rate this geometry describes.
    pub rate: LineRate,
}

impl FrameGeometry {
    /// Geometry for `rate`.
    pub fn new(rate: LineRate) -> Self {
        FrameGeometry { rate }
    }

    /// Octet index of (row, col) in the serialized frame.
    #[inline]
    pub fn index(&self, row: usize, col: usize) -> usize {
        debug_assert!(row < 9 && col < self.rate.columns());
        row * self.rate.columns() + col
    }

    /// Whether `col` is a transport-overhead column.
    #[inline]
    pub fn is_toh(&self, col: usize) -> bool {
        col < self.rate.toh_columns()
    }

    /// The path-overhead column.
    #[inline]
    pub fn poh_col(&self) -> usize {
        self.rate.toh_columns()
    }

    /// Whether `col` carries ATM payload.
    #[inline]
    pub fn is_payload(&self, col: usize) -> bool {
        col >= self.poh_col() + 1 + self.rate.fixed_stuff_columns() && col < self.rate.columns()
    }

    /// Whether octet (row, col) is in the section-overhead region
    /// (rows 0–2 of the TOH columns) — excluded from B2 coverage.
    #[inline]
    pub fn is_soh(&self, row: usize, col: usize) -> bool {
        row < 3 && self.is_toh(col)
    }

    /// Whether octet (row, col) escapes scrambling (row 0 of TOH:
    /// A1/A2/J0 octets).
    #[inline]
    pub fn is_unscrambled(&self, row: usize, col: usize) -> bool {
        row == 0 && self.is_toh(col)
    }

    /// Whether (row, col) is part of the SPE (POH + stuff + payload).
    #[inline]
    pub fn is_spe(&self, col: usize) -> bool {
        col >= self.poh_col()
    }
}

fn bip8(acc: u8, octets: impl Iterator<Item = u8>) -> u8 {
    octets.fold(acc, |a, b| a ^ b)
}

/// Errors a [`FrameParser`] can report.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum FrameError {
    /// Buffer length is not one frame at this rate.
    BadSize { expected: usize, got: usize },
    /// A1/A2 pattern not found where expected (out-of-frame).
    BadAlignment,
    /// The pointer octets are neither locked value nor concatenation.
    BadPointer,
    /// C2 does not indicate ATM mapping.
    BadSignalLabel(u8),
}

impl fmt::Display for FrameError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FrameError::BadSize { expected, got } => {
                write!(f, "frame size {got}, expected {expected}")
            }
            FrameError::BadAlignment => write!(f, "A1/A2 alignment lost"),
            FrameError::BadPointer => write!(f, "unexpected H1/H2 pointer"),
            FrameError::BadSignalLabel(c2) => write!(f, "C2 {c2:#04x} is not ATM"),
        }
    }
}

impl std::error::Error for FrameError {}

/// Builds successive frames around caller-supplied payload octets.
///
/// Stateful across frames: parity octets describe the *previous* frame,
/// and the J1 path trace increments.
pub struct FrameBuilder {
    geo: FrameGeometry,
    frame_count: u64,
    b1_next: u8,
    b2_next: Vec<u8>,
    b3_next: u8,
}

impl FrameBuilder {
    /// A builder for `rate`. The first frame carries zero parity octets
    /// (nothing preceded it), as a freshly enabled framer would.
    pub fn new(rate: LineRate) -> Self {
        FrameBuilder {
            geo: FrameGeometry::new(rate),
            frame_count: 0,
            b1_next: 0,
            b2_next: vec![0; rate.sts_n()],
            b3_next: 0,
        }
    }

    /// Build one frame. `payload` must be exactly
    /// [`LineRate::payload_octets_per_frame`] octets; `h4_cell_offset` is
    /// the octet offset from the first payload octet of the *next* frame
    /// to the next cell boundary (mod 53).
    pub fn build(&mut self, payload: &[u8], h4_cell_offset: u8) -> Vec<u8> {
        let rate = self.geo.rate;
        let n = rate.sts_n();
        let cols = rate.columns();
        assert_eq!(
            payload.len(),
            rate.payload_octets_per_frame(),
            "payload must fill the frame exactly"
        );

        let mut f = vec![0u8; rate.frame_octets()];
        let geo = self.geo;

        // Row 0: A1 ×N, A2 ×N, J0/Z0.
        for i in 0..n {
            f[geo.index(0, i)] = A1;
            f[geo.index(0, n + i)] = A2;
            // J0 carries a section trace; Z0 growth octets numbered.
            f[geo.index(0, 2 * n + i)] = if i == 0 { 0x01 } else { 0xCC };
        }
        // Row 1: B1 (parity of previous scrambled frame).
        f[geo.index(1, 0)] = self.b1_next;
        // Row 3: pointer.
        f[geo.index(3, 0)] = H1_LOCKED;
        f[geo.index(3, n)] = H2_LOCKED;
        for i in 1..n {
            f[geo.index(3, i)] = H1_CONCAT;
            f[geo.index(3, n + i)] = H2_CONCAT;
        }
        // Row 4: B2 ×N.
        for i in 0..n {
            f[geo.index(4, i)] = self.b2_next[i];
        }

        // POH column.
        let poh = geo.poh_col();
        f[geo.index(0, poh)] = (self.frame_count & 0x3F) as u8 | 0x40; // J1 trace tick
        f[geo.index(1, poh)] = self.b3_next;
        f[geo.index(2, poh)] = C2_ATM;
        f[geo.index(5, poh)] = h4_cell_offset;

        // Payload columns, row-major.
        let mut p = 0;
        for row in 0..9 {
            for col in 0..cols {
                if geo.is_payload(col) {
                    f[geo.index(row, col)] = payload[p];
                    p += 1;
                }
            }
        }
        debug_assert_eq!(p, payload.len());

        // Parity for the NEXT frame: B3 over this SPE, B2 per slice over
        // non-SOH octets — both pre-scrambling.
        let mut b3 = 0u8;
        let mut b2 = vec![0u8; n];
        for row in 0..9 {
            for col in 0..cols {
                let b = f[geo.index(row, col)];
                if geo.is_spe(col) {
                    b3 ^= b;
                }
                if !geo.is_soh(row, col) {
                    b2[col % n] ^= b;
                }
            }
        }
        self.b3_next = b3;
        self.b2_next = b2;

        // Scramble everything except row 0 of TOH. The scrambler clocks
        // only on scrambled octets: it starts on the octet after the
        // last J0/Z0.
        let mut scr = FrameScrambler::new();
        for row in 0..9 {
            for col in 0..cols {
                if !geo.is_unscrambled(row, col) {
                    f[geo.index(row, col)] ^= scr.next_octet();
                }
            }
        }

        // B1 for the next frame: over this frame post-scrambling.
        self.b1_next = bip8(0, f.iter().copied());
        self.frame_count += 1;
        f
    }
}

/// What a parsed frame yields.
#[derive(Clone, Debug)]
pub struct ParsedFrame {
    /// The extracted ATM payload octets.
    pub payload: Vec<u8>,
    /// Bits mismatching in B1 (0–8); section-layer errors.
    pub b1_errors: u32,
    /// Bits mismatching across all B2 octets; line-layer errors.
    pub b2_errors: u32,
    /// Bits mismatching in B3; path-layer errors.
    pub b3_errors: u32,
    /// The H4 cell-offset octet as received.
    pub h4: u8,
}

/// Parses successive frames, tracking parity across them.
pub struct FrameParser {
    geo: FrameGeometry,
    /// Parity computed from the previous frame, to compare with the
    /// B1/B2/B3 octets carried in the current one.
    b1_expect: Option<u8>,
    b2_expect: Option<Vec<u8>>,
    b3_expect: Option<u8>,
    total_b1_errors: u64,
    total_b2_errors: u64,
    total_b3_errors: u64,
}

impl FrameParser {
    /// A parser for `rate`.
    pub fn new(rate: LineRate) -> Self {
        FrameParser {
            geo: FrameGeometry::new(rate),
            b1_expect: None,
            b2_expect: None,
            b3_expect: None,
            total_b1_errors: 0,
            total_b2_errors: 0,
            total_b3_errors: 0,
        }
    }

    /// Cumulative B1 bit errors.
    pub fn total_b1_errors(&self) -> u64 {
        self.total_b1_errors
    }
    /// Cumulative B2 bit errors.
    pub fn total_b2_errors(&self) -> u64 {
        self.total_b2_errors
    }
    /// Cumulative B3 bit errors.
    pub fn total_b3_errors(&self) -> u64 {
        self.total_b3_errors
    }

    /// Parse one aligned frame.
    pub fn parse(&mut self, frame: &[u8]) -> Result<ParsedFrame, FrameError> {
        let rate = self.geo.rate;
        let n = rate.sts_n();
        let cols = rate.columns();
        if frame.len() != rate.frame_octets() {
            return Err(FrameError::BadSize {
                expected: rate.frame_octets(),
                got: frame.len(),
            });
        }
        let geo = self.geo;

        // Alignment check on the unscrambled row 0.
        for i in 0..n {
            if frame[geo.index(0, i)] != A1 || frame[geo.index(0, n + i)] != A2 {
                return Err(FrameError::BadAlignment);
            }
        }

        // B1 compares against the received (still-scrambled) previous
        // frame; compute over this frame as received for the next round.
        let b1_of_this = bip8(0, frame.iter().copied());

        // Descramble a working copy.
        let mut f = frame.to_vec();
        let mut scr = FrameScrambler::new();
        for row in 0..9 {
            for col in 0..cols {
                if !geo.is_unscrambled(row, col) {
                    f[geo.index(row, col)] ^= scr.next_octet();
                }
            }
        }

        // Pointer sanity.
        let h1 = f[geo.index(3, 0)];
        let h2 = f[geo.index(3, n)];
        if (h1, h2) != (H1_LOCKED, H2_LOCKED) {
            return Err(FrameError::BadPointer);
        }
        for i in 1..n {
            if (f[geo.index(3, i)], f[geo.index(3, n + i)]) != (H1_CONCAT, H2_CONCAT) {
                return Err(FrameError::BadPointer);
            }
        }

        let poh = geo.poh_col();
        let c2 = f[geo.index(2, poh)];
        if c2 != C2_ATM {
            return Err(FrameError::BadSignalLabel(c2));
        }
        let h4 = f[geo.index(5, poh)];

        // Parity comparison with what the previous frame predicted.
        let b1_errors = match self.b1_expect {
            Some(exp) => (exp ^ f[geo.index(1, 0)]).count_ones(),
            None => 0,
        };
        let b2_errors = match &self.b2_expect {
            Some(exp) => (0..n)
                .map(|i| (exp[i] ^ f[geo.index(4, i)]).count_ones())
                .sum(),
            None => 0,
        };
        let b3_errors = match self.b3_expect {
            Some(exp) => (exp ^ f[geo.index(1, poh)]).count_ones(),
            None => 0,
        };

        // Compute this frame's parity for the next comparison.
        let mut b3 = 0u8;
        let mut b2 = vec![0u8; n];
        for row in 0..9 {
            for col in 0..cols {
                let b = f[geo.index(row, col)];
                if geo.is_spe(col) {
                    b3 ^= b;
                }
                if !geo.is_soh(row, col) {
                    b2[col % n] ^= b;
                }
            }
        }
        self.b1_expect = Some(b1_of_this);
        self.b2_expect = Some(b2);
        self.b3_expect = Some(b3);

        // Extract payload.
        let mut payload = Vec::with_capacity(rate.payload_octets_per_frame());
        for row in 0..9 {
            for col in 0..cols {
                if geo.is_payload(col) {
                    payload.push(f[geo.index(row, col)]);
                }
            }
        }

        self.total_b1_errors += b1_errors as u64;
        self.total_b2_errors += b2_errors as u64;
        self.total_b3_errors += b3_errors as u64;
        Ok(ParsedFrame {
            payload,
            b1_errors,
            b2_errors,
            b3_errors,
            h4,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn payload_for(rate: LineRate, seed: u8) -> Vec<u8> {
        (0..rate.payload_octets_per_frame())
            .map(|i| (i as u8).wrapping_mul(31).wrapping_add(seed))
            .collect()
    }

    #[test]
    fn roundtrip_payload_oc3() {
        roundtrip_payload(LineRate::Oc3);
    }

    #[test]
    fn roundtrip_payload_oc12() {
        roundtrip_payload(LineRate::Oc12);
    }

    fn roundtrip_payload(rate: LineRate) {
        let mut b = FrameBuilder::new(rate);
        let mut p = FrameParser::new(rate);
        for seed in 0..5u8 {
            let payload = payload_for(rate, seed);
            let frame = b.build(&payload, seed);
            let parsed = p.parse(&frame).expect("clean frame parses");
            assert_eq!(parsed.payload, payload, "seed {seed}");
            assert_eq!(parsed.h4, seed);
            assert_eq!(parsed.b1_errors, 0);
            assert_eq!(parsed.b2_errors, 0);
            assert_eq!(parsed.b3_errors, 0);
        }
    }

    #[test]
    fn frame_has_framing_pattern_in_clear() {
        let mut b = FrameBuilder::new(LineRate::Oc3);
        let frame = b.build(&payload_for(LineRate::Oc3, 0), 0);
        assert_eq!(&frame[0..3], &[A1, A1, A1]);
        assert_eq!(&frame[3..6], &[A2, A2, A2]);
    }

    #[test]
    fn scrambler_starts_on_the_octet_after_the_last_j0_z0() {
        // GR-253 §5.3: that octet is J1 (row 0, column 3N), and it takes
        // keystream octet 0 (0xFE). The first frame's J1 is 0x40.
        assert_eq!(FrameScrambler::new().next_octet(), 0xFE);
        for rate in [LineRate::Oc3, LineRate::Oc12] {
            let geo = FrameGeometry::new(rate);
            let j1 = geo.index(0, geo.poh_col());
            assert_eq!(j1, 3 * rate.sts_n());
            let frame = FrameBuilder::new(rate).build(&payload_for(rate, 0), 0);
            assert_eq!(frame[j1], 0xBE, "{rate:?}: J1 0x40 ^ 0xFE");
        }
    }

    #[test]
    fn scrambled_region_differs_from_plaintext() {
        // Statistical smoke test: payload octets on the wire should not
        // equal the plaintext payload (except rare coincidences).
        let mut b = FrameBuilder::new(LineRate::Oc3);
        let payload = vec![0u8; LineRate::Oc3.payload_octets_per_frame()];
        let frame = b.build(&payload, 0);
        let nonzero = frame[270..].iter().filter(|&&x| x != 0).count();
        assert!(
            nonzero > 1500,
            "scrambling must whiten zeros, got {nonzero}"
        );
    }

    #[test]
    fn corrupted_payload_bit_shows_in_b1_b2_b3() {
        let rate = LineRate::Oc3;
        let mut b = FrameBuilder::new(rate);
        let mut p = FrameParser::new(rate);
        let f0 = b.build(&payload_for(rate, 0), 0);
        p.parse(&f0).unwrap();
        // Corrupt one payload bit of frame 1, then parse frame 2 to see
        // the parity report (parity for frame k is carried in frame k+1).
        let mut f1 = b.build(&payload_for(rate, 1), 0);
        let geo = FrameGeometry::new(rate);
        let idx = geo.index(5, geo.poh_col() + 5); // a payload octet
        f1[idx] ^= 0x10;
        p.parse(&f1).unwrap();
        let f2 = b.build(&payload_for(rate, 2), 0);
        let parsed = p.parse(&f2).unwrap();
        assert_eq!(parsed.b1_errors, 1, "B1 covers everything");
        assert_eq!(parsed.b2_errors, 1, "payload is in B2 coverage");
        assert_eq!(parsed.b3_errors, 1, "payload is in the SPE");
    }

    #[test]
    fn corrupted_soh_octet_shows_only_in_b1() {
        let rate = LineRate::Oc3;
        let mut b = FrameBuilder::new(rate);
        let mut p = FrameParser::new(rate);
        p.parse(&b.build(&payload_for(rate, 0), 0)).unwrap();
        let mut f1 = b.build(&payload_for(rate, 1), 0);
        let geo = FrameGeometry::new(rate);
        f1[geo.index(2, 1)] ^= 0x01; // D-channel octet in SOH (scrambled, but B2/B3-exempt)
        p.parse(&f1).unwrap();
        let parsed = p.parse(&b.build(&payload_for(rate, 2), 0)).unwrap();
        assert_eq!(parsed.b1_errors, 1);
        assert_eq!(parsed.b2_errors, 0, "SOH is outside B2 coverage");
        assert_eq!(parsed.b3_errors, 0, "SOH is outside the SPE");
    }

    #[test]
    fn bad_alignment_detected() {
        let mut b = FrameBuilder::new(LineRate::Oc3);
        let mut frame = b.build(&payload_for(LineRate::Oc3, 0), 0);
        frame[0] = 0x00;
        let mut p = FrameParser::new(LineRate::Oc3);
        assert!(matches!(p.parse(&frame), Err(FrameError::BadAlignment)));
    }

    #[test]
    fn bad_size_detected() {
        let mut p = FrameParser::new(LineRate::Oc3);
        let err = p.parse(&[0u8; 100]).unwrap_err();
        assert!(matches!(
            err,
            FrameError::BadSize {
                expected: 2430,
                got: 100
            }
        ));
    }

    #[test]
    fn c2_must_be_atm() {
        let rate = LineRate::Oc3;
        let mut b = FrameBuilder::new(rate);
        let mut frame = b.build(&payload_for(rate, 0), 0);
        // Flip C2 through the scrambler: locate and XOR both. The
        // keystream starts after row 0's 3N unscrambled TOH octets.
        let geo = FrameGeometry::new(rate);
        let mut scr = FrameScrambler::new();
        let mut keys = vec![0u8; rate.frame_octets()];
        for k in keys[3 * rate.sts_n()..].iter_mut() {
            *k = scr.next_octet();
        }
        let idx = geo.index(2, geo.poh_col());
        frame[idx] = 0xFF ^ keys[idx]; // 0xFF before scrambling
        let mut p = FrameParser::new(rate);
        assert!(matches!(
            p.parse(&frame),
            Err(FrameError::BadSignalLabel(0xFF))
        ));
    }

    #[test]
    fn geometry_classification_partitions_columns() {
        for rate in [LineRate::Oc3, LineRate::Oc12] {
            let geo = FrameGeometry::new(rate);
            let mut toh = 0;
            let mut poh = 0;
            let mut stuff = 0;
            let mut pay = 0;
            for col in 0..rate.columns() {
                let classes = [geo.is_toh(col), col == geo.poh_col(), geo.is_payload(col)];
                assert!(
                    classes.iter().filter(|&&c| c).count() <= 1,
                    "column {col} must be at most one class"
                );
                if classes[0] {
                    toh += 1
                } else if classes[1] {
                    poh += 1
                } else if classes[2] {
                    pay += 1
                } else {
                    // Neither overhead nor payload: fixed stuff, which
                    // follows the path-overhead column.
                    assert!(col > geo.poh_col(), "column {col} unclassified");
                    stuff += 1
                }
            }
            assert_eq!(toh, rate.toh_columns());
            assert_eq!(poh, 1);
            assert_eq!(stuff, rate.fixed_stuff_columns());
            assert_eq!(pay, rate.payload_columns());
        }
    }
}
