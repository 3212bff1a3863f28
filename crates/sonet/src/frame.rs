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
//!
//! ## Row runs
//!
//! The payload columns are contiguous within a row, so a frame's payload
//! is nine runs of [`LineRate::payload_columns`] octets, each starting
//! at column 3N + N/3 of its row; the 3N + N/3 octets before a run (TOH,
//! POH and fixed stuff) are the row's head. Build and parse move the
//! payload as nine run copies and touch overhead octets one by one, and
//! nothing walks the frame octet by octet:
//!
//! * Scrambling covers frame indices 3N.. in one pass, keystream octet
//!   `i` on index `3N + i` (see [`crate::scramble`]).
//! * B1 and B3 fold a word at a time.
//! * B2 slice `i` covers the octets at frame indices ≡ i (mod N), since
//!   90·N columns per row keep the column's slice. Each N divides 192,
//!   the widest slice count, so the covered octets XOR first into a
//!   192-octet window by index mod 192, a vector at a time, and the
//!   window folds into the N slices once per frame.
//!
//! Receive descrambles each row's head into a stack buffer and its
//! payload run straight into the caller's buffer, so the frame itself
//! is never copied.

use crate::rates::LineRate;
use crate::scramble::{keystream_octet, scramble_at};
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

/// Rows 0–2 of the TOH columns are section overhead: B2 skips them.
const SOH_ROWS: usize = 3;
/// The widest STS level; every rate's N divides it.
const MAX_STS_N: usize = LineRate::Oc192.sts_n();
/// The widest row head (TOH, POH and fixed stuff), at OC-192.
const MAX_HEAD: usize = first_payload_column(LineRate::Oc192);

/// The column where each row's payload run starts: 3N + N/3.
const fn first_payload_column(rate: LineRate) -> usize {
    rate.columns() - rate.payload_columns()
}

/// The first column B2 covers on `row`.
fn b2_from(rate: LineRate, row: usize) -> usize {
    if row < SOH_ROWS {
        rate.toh_columns()
    } else {
        0
    }
}

fn xor_into(dst: &mut [u8], src: &[u8]) {
    for (d, s) in dst.iter_mut().zip(src) {
        *d ^= s;
    }
}

/// BIP-8 of `octets`, folded a word at a time.
fn bip8(octets: &[u8]) -> u8 {
    let mut words = octets.chunks_exact(8);
    let wide = words.by_ref().fold(0u64, |acc, w| {
        acc ^ u64::from_ne_bytes(w.try_into().expect("8-octet chunk"))
    });
    wide.to_ne_bytes()
        .iter()
        .chain(words.remainder())
        .fold(0, |acc, b| acc ^ b)
}

/// The parity one frame computes for the next to carry.
#[derive(Clone, Copy)]
struct Parity {
    b1: u8,
    /// B2's covered octets, folded by frame index mod [`MAX_STS_N`].
    b2_window: [u8; MAX_STS_N],
    b3: u8,
}

impl Parity {
    const ZERO: Parity = Parity {
        b1: 0,
        b2_window: [0; MAX_STS_N],
        b3: 0,
    };

    /// Fold row `row`'s unscrambled octets into B2 and B3: `head` runs
    /// from the first column B2 covers to the payload run, `payload` is
    /// the run.
    fn fold_row(&mut self, rate: LineRate, row: usize, head: &[u8], payload: &[u8]) {
        let run_at = row * rate.columns() + first_payload_column(rate);
        let spe_head = first_payload_column(rate) - rate.toh_columns();
        self.fold_b2(run_at - head.len(), head);
        self.fold_b2(run_at, payload);
        self.b3 ^= bip8(&head[head.len() - spe_head..]) ^ bip8(payload);
    }

    /// XOR the octets at frame indices `at..` into the B2 window.
    fn fold_b2(&mut self, at: usize, octets: &[u8]) {
        let lead = (MAX_STS_N - at % MAX_STS_N).min(octets.len());
        xor_into(&mut self.b2_window[at % MAX_STS_N..], &octets[..lead]);
        for chunk in octets[lead..].chunks(MAX_STS_N) {
            xor_into(&mut self.b2_window, chunk);
        }
    }

    /// The N B2 octets, in the first N places.
    fn b2(&self, n: usize) -> [u8; MAX_STS_N] {
        let mut b2 = [0; MAX_STS_N];
        for slices in self.b2_window.chunks_exact(n) {
            xor_into(&mut b2, slices);
        }
        b2
    }
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
    rate: LineRate,
    frame_count: u64,
    next: Parity,
}

impl FrameBuilder {
    /// A builder for `rate`. The first frame carries zero parity octets
    /// (nothing preceded it), as a freshly enabled framer would.
    pub fn new(rate: LineRate) -> Self {
        FrameBuilder {
            rate,
            frame_count: 0,
            next: Parity::ZERO,
        }
    }

    /// Build one frame. `payload` must be exactly
    /// [`LineRate::payload_octets_per_frame`] octets; `h4_cell_offset` is
    /// the octet offset from the first payload octet of the *next* frame
    /// to the next cell boundary (mod 53).
    pub fn build(&mut self, payload: &[u8], h4_cell_offset: u8) -> Vec<u8> {
        let rate = self.rate;
        let (n, cols, poh) = (rate.sts_n(), rate.columns(), rate.toh_columns());
        let first = first_payload_column(rate);
        assert_eq!(
            payload.len(),
            rate.payload_octets_per_frame(),
            "payload must fill the frame exactly"
        );

        let mut f = vec![0u8; rate.frame_octets()];
        // Row 0: A1 ×N, A2 ×N, J0/Z0. J0 carries a section trace; Z0
        // growth octets numbered.
        f[..n].fill(A1);
        f[n..2 * n].fill(A2);
        f[2 * n] = 0x01;
        f[2 * n + 1..3 * n].fill(0xCC);
        // Row 1: B1 (parity of previous scrambled frame).
        f[cols] = self.next.b1;
        // Row 3: pointer.
        let ptr = 3 * cols;
        f[ptr] = H1_LOCKED;
        f[ptr + 1..ptr + n].fill(H1_CONCAT);
        f[ptr + n] = H2_LOCKED;
        f[ptr + n + 1..ptr + 2 * n].fill(H2_CONCAT);
        // Row 4: B2 ×N.
        f[4 * cols..4 * cols + n].copy_from_slice(&self.next.b2(n)[..n]);

        // POH column.
        f[poh] = (self.frame_count & 0x3F) as u8 | 0x40; // J1 trace tick
        f[cols + poh] = self.next.b3;
        f[2 * cols + poh] = C2_ATM;
        f[5 * cols + poh] = h4_cell_offset;

        // Payload runs, and parity for the NEXT frame: B3 over this SPE,
        // B2 per slice over non-SOH octets — both pre-scrambling.
        let mut next = Parity::ZERO;
        for (row, run) in payload.chunks_exact(rate.payload_columns()).enumerate() {
            let at = row * cols;
            f[at + first..at + cols].copy_from_slice(run);
            next.fold_row(rate, row, &f[at + b2_from(rate, row)..at + first], run);
        }

        // Scramble everything except row 0 of TOH: the keystream starts
        // on the octet after the last J0/Z0.
        scramble_at(0, &mut f[poh..]);

        // B1 for the next frame: over this frame post-scrambling.
        next.b1 = bip8(&f);
        self.next = next;
        self.frame_count += 1;
        f
    }
}

/// What a parsed frame yields.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
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
    rate: LineRate,
    /// Parity computed from the previous frame, to compare with the
    /// B1/B2/B3 octets carried in the current one.
    expect: Option<Parity>,
    total_b1_errors: u64,
    total_b2_errors: u64,
    total_b3_errors: u64,
}

impl FrameParser {
    /// A parser for `rate`.
    pub fn new(rate: LineRate) -> Self {
        FrameParser {
            rate,
            expect: None,
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
        let mut parsed = ParsedFrame::default();
        self.parse_into(frame, &mut parsed).map(|()| parsed)
    }

    /// [`FrameParser::parse`] into `parsed`, whose payload buffer is
    /// reused. On an error `parsed` and the parity state are untouched.
    pub(crate) fn parse_into(
        &mut self,
        frame: &[u8],
        parsed: &mut ParsedFrame,
    ) -> Result<(), FrameError> {
        let rate = self.rate;
        let (n, cols, poh) = (rate.sts_n(), rate.columns(), rate.toh_columns());
        let first = first_payload_column(rate);
        if frame.len() != rate.frame_octets() {
            return Err(FrameError::BadSize {
                expected: rate.frame_octets(),
                got: frame.len(),
            });
        }

        // Alignment check on the unscrambled row 0.
        if frame[..n].iter().any(|&b| b != A1) || frame[n..2 * n].iter().any(|&b| b != A2) {
            return Err(FrameError::BadAlignment);
        }

        // The descrambled overhead octet at frame index `k`.
        let clear = |k: usize| frame[k] ^ keystream_octet(k - poh);

        // Pointer sanity.
        let ptr = 3 * cols;
        if (clear(ptr), clear(ptr + n)) != (H1_LOCKED, H2_LOCKED)
            || (1..n).any(|i| (clear(ptr + i), clear(ptr + n + i)) != (H1_CONCAT, H2_CONCAT))
        {
            return Err(FrameError::BadPointer);
        }

        let c2 = clear(2 * cols + poh);
        if c2 != C2_ATM {
            return Err(FrameError::BadSignalLabel(c2));
        }
        parsed.h4 = clear(5 * cols + poh);

        // Parity comparison with what the previous frame predicted.
        (parsed.b1_errors, parsed.b2_errors, parsed.b3_errors) = match &self.expect {
            Some(exp) => (
                (exp.b1 ^ clear(cols)).count_ones(),
                exp.b2(n)[..n]
                    .iter()
                    .enumerate()
                    .map(|(i, b2)| (b2 ^ clear(4 * cols + i)).count_ones())
                    .sum(),
                (exp.b3 ^ clear(cols + poh)).count_ones(),
            ),
            None => (0, 0, 0),
        };

        // Extract the payload runs descrambled, and compute this frame's
        // parity for the next comparison: B1 over the frame as received.
        let payload = &mut parsed.payload;
        payload.clear();
        payload.reserve_exact(rate.payload_octets_per_frame());
        let mut head_buf = [0u8; MAX_HEAD];
        let mut this = Parity::ZERO;
        for row in 0..9 {
            let at = row * cols;
            let from = at + b2_from(rate, row);
            let head = &mut head_buf[..at + first - from];
            head.copy_from_slice(&frame[from..at + first]);
            scramble_at(from - poh, head);
            let run = payload.len();
            payload.extend_from_slice(&frame[at + first..at + cols]);
            scramble_at(at + first - poh, &mut payload[run..]);
            this.fold_row(rate, row, head, &payload[run..]);
        }
        this.b1 = bip8(frame);
        self.expect = Some(this);

        self.total_b1_errors += parsed.b1_errors as u64;
        self.total_b2_errors += parsed.b2_errors as u64;
        self.total_b3_errors += parsed.b3_errors as u64;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::reference::Geometry;
    use crate::scramble::FrameScrambler;

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
            let j1 = rate.toh_columns();
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
        let idx = 5 * rate.columns() + rate.toh_columns() + 5; // a payload octet
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
        f1[2 * rate.columns() + 1] ^= 0x01; // D-channel octet in SOH (scrambled, but B2/B3-exempt)
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
        let mut scr = FrameScrambler::new();
        let mut keys = vec![0u8; rate.frame_octets()];
        for k in keys[3 * rate.sts_n()..].iter_mut() {
            *k = scr.next_octet();
        }
        let idx = 2 * rate.columns() + rate.toh_columns();
        frame[idx] = 0xFF ^ keys[idx]; // 0xFF before scrambling
        let mut p = FrameParser::new(rate);
        assert!(matches!(
            p.parse(&frame),
            Err(FrameError::BadSignalLabel(0xFF))
        ));
    }

    #[test]
    fn geometry_classification_partitions_columns() {
        // The row runs agree with the per-column classes of the reference
        // geometry: each row is a head of TOH, POH and fixed stuff, then
        // one payload run; B2 starts past the TOH on the section-overhead
        // rows; and the B2 window and head buffer fit every rate.
        for rate in [
            LineRate::Oc3,
            LineRate::Oc12,
            LineRate::Oc48,
            LineRate::Oc192,
        ] {
            let geo = Geometry::new(rate);
            let first = first_payload_column(rate);
            for col in 0..rate.columns() {
                assert_eq!(
                    geo.is_toh(col),
                    col < rate.toh_columns(),
                    "{rate:?} col {col}"
                );
                assert_eq!(
                    geo.is_spe(col),
                    col >= rate.toh_columns(),
                    "{rate:?} col {col}"
                );
                assert_eq!(geo.is_payload(col), col >= first, "{rate:?} col {col}");
                for row in 0..9 {
                    assert_eq!(
                        !geo.is_soh(row, col),
                        col >= b2_from(rate, row),
                        "{rate:?} ({row}, {col})"
                    );
                }
            }
            assert_eq!(first, rate.toh_columns() + 1 + rate.fixed_stuff_columns());
            assert_eq!(first - rate.toh_columns(), rate.sts_n() / 3);
            assert_eq!(
                9 * (rate.columns() - first),
                rate.payload_octets_per_frame()
            );
            assert_eq!(
                MAX_STS_N % rate.sts_n(),
                0,
                "{rate:?}: N divides the window"
            );
            assert!(first <= MAX_HEAD, "{rate:?}: the widest head fits");
        }
    }
}
