//! The per-octet transmission-convergence layers the closed-form ones
//! replaced, kept as their test oracle, and the seeded fuzz suite that
//! proves the two byte-identical.
//!
//! [`Builder`] and [`Parser`] walk every octet of a frame through the
//! [`Geometry`] column predicates and clock the 1 + x⁶ + x⁷ scrambler
//! one octet at a time; [`Transmitter`] and [`Receiver`] are the TC
//! sublayer on top of them, feeding the x⁴³ + 1 cell scrambler one
//! octet per call, which always takes its bit-serial path. The suite
//! compares, per seed:
//!
//! * frames: the built frames, and every parse result (`ParsedFrame`
//!   fields or `FrameError`) and running B1/B2/B3 error total, over 64
//!   consecutive frames at each of the four rates, with random payload,
//!   random H4 and random bit flips anywhere, the framing, pointer, C2
//!   and parity octets included;
//! * the keystream table against [`FrameScrambler::next_octet`];
//! * the cell scrambler and descrambler against the same stream fed one
//!   octet at a time;
//! * the whole TC path under ragged chunking and line bit errors.

#![cfg(test)]

use crate::frame::{
    FrameError, ParsedFrame, A1, A2, C2_ATM, H1_CONCAT, H1_LOCKED, H2_CONCAT, H2_LOCKED,
};
use crate::rates::LineRate;
use crate::scramble::FrameScrambler;
use crate::sync::FrameAligner;
use hni_atm::{Cell, Delineator, Descrambler, Scrambler, CELL_SIZE, HEADER_SIZE};
use std::collections::VecDeque;

/// Per-column classes of one rate's frame.
#[derive(Clone, Copy, Debug)]
pub(crate) struct Geometry {
    rate: LineRate,
}

impl Geometry {
    pub(crate) fn new(rate: LineRate) -> Self {
        Geometry { rate }
    }

    /// Octet index of (row, col) in the serialized frame.
    fn index(&self, row: usize, col: usize) -> usize {
        debug_assert!(row < 9 && col < self.rate.columns());
        row * self.rate.columns() + col
    }

    /// Whether `col` is a transport-overhead column.
    pub(crate) fn is_toh(&self, col: usize) -> bool {
        col < self.rate.toh_columns()
    }

    /// The path-overhead column.
    fn poh_col(&self) -> usize {
        self.rate.toh_columns()
    }

    /// Whether `col` carries ATM payload.
    pub(crate) fn is_payload(&self, col: usize) -> bool {
        col >= self.poh_col() + 1 + self.rate.fixed_stuff_columns() && col < self.rate.columns()
    }

    /// Whether octet (row, col) is in the section-overhead region
    /// (rows 0–2 of the TOH columns) — excluded from B2 coverage.
    pub(crate) fn is_soh(&self, row: usize, col: usize) -> bool {
        row < 3 && self.is_toh(col)
    }

    /// Whether octet (row, col) escapes scrambling (row 0 of TOH:
    /// A1/A2/J0 octets).
    fn is_unscrambled(&self, row: usize, col: usize) -> bool {
        row == 0 && self.is_toh(col)
    }

    /// Whether (row, col) is part of the SPE (POH + stuff + payload).
    pub(crate) fn is_spe(&self, col: usize) -> bool {
        col >= self.poh_col()
    }

    /// XOR the frame scrambler over every scrambled octet, clocking it
    /// once per octet.
    fn scramble(&self, f: &mut [u8]) {
        let mut scr = FrameScrambler::new();
        for row in 0..9 {
            for col in 0..self.rate.columns() {
                if !self.is_unscrambled(row, col) {
                    f[self.index(row, col)] ^= scr.next_octet();
                }
            }
        }
    }

    /// B3 over the SPE and B2 per slice over the non-SOH octets.
    fn parity(&self, f: &[u8]) -> (u8, Vec<u8>) {
        let n = self.rate.sts_n();
        let mut b3 = 0u8;
        let mut b2 = vec![0u8; n];
        for row in 0..9 {
            for col in 0..self.rate.columns() {
                let b = f[self.index(row, col)];
                if self.is_spe(col) {
                    b3 ^= b;
                }
                if !self.is_soh(row, col) {
                    b2[col % n] ^= b;
                }
            }
        }
        (b3, b2)
    }
}

fn bip8(octets: &[u8]) -> u8 {
    octets.iter().fold(0, |a, b| a ^ b)
}

/// The per-octet frame builder.
struct Builder {
    geo: Geometry,
    frame_count: u64,
    b1_next: u8,
    b2_next: Vec<u8>,
    b3_next: u8,
}

impl Builder {
    fn new(rate: LineRate) -> Self {
        Builder {
            geo: Geometry::new(rate),
            frame_count: 0,
            b1_next: 0,
            b2_next: vec![0; rate.sts_n()],
            b3_next: 0,
        }
    }

    fn build(&mut self, payload: &[u8], h4_cell_offset: u8) -> Vec<u8> {
        let geo = self.geo;
        let rate = geo.rate;
        let n = rate.sts_n();
        assert_eq!(payload.len(), rate.payload_octets_per_frame());
        let mut f = vec![0u8; rate.frame_octets()];
        for i in 0..n {
            f[geo.index(0, i)] = A1;
            f[geo.index(0, n + i)] = A2;
            f[geo.index(0, 2 * n + i)] = if i == 0 { 0x01 } else { 0xCC };
        }
        f[geo.index(1, 0)] = self.b1_next;
        f[geo.index(3, 0)] = H1_LOCKED;
        f[geo.index(3, n)] = H2_LOCKED;
        for i in 1..n {
            f[geo.index(3, i)] = H1_CONCAT;
            f[geo.index(3, n + i)] = H2_CONCAT;
        }
        for i in 0..n {
            f[geo.index(4, i)] = self.b2_next[i];
        }
        let poh = geo.poh_col();
        f[geo.index(0, poh)] = (self.frame_count & 0x3F) as u8 | 0x40;
        f[geo.index(1, poh)] = self.b3_next;
        f[geo.index(2, poh)] = C2_ATM;
        f[geo.index(5, poh)] = h4_cell_offset;
        let mut p = 0;
        for row in 0..9 {
            for col in 0..rate.columns() {
                if geo.is_payload(col) {
                    f[geo.index(row, col)] = payload[p];
                    p += 1;
                }
            }
        }
        (self.b3_next, self.b2_next) = geo.parity(&f);
        geo.scramble(&mut f);
        self.b1_next = bip8(&f);
        self.frame_count += 1;
        f
    }
}

/// The per-octet frame parser.
struct Parser {
    geo: Geometry,
    b1_expect: Option<u8>,
    b2_expect: Option<Vec<u8>>,
    b3_expect: Option<u8>,
    total_b1_errors: u64,
    total_b2_errors: u64,
    total_b3_errors: u64,
}

impl Parser {
    fn new(rate: LineRate) -> Self {
        Parser {
            geo: Geometry::new(rate),
            b1_expect: None,
            b2_expect: None,
            b3_expect: None,
            total_b1_errors: 0,
            total_b2_errors: 0,
            total_b3_errors: 0,
        }
    }

    fn parse(&mut self, frame: &[u8]) -> Result<ParsedFrame, FrameError> {
        let geo = self.geo;
        let rate = geo.rate;
        let n = rate.sts_n();
        if frame.len() != rate.frame_octets() {
            return Err(FrameError::BadSize {
                expected: rate.frame_octets(),
                got: frame.len(),
            });
        }
        for i in 0..n {
            if frame[geo.index(0, i)] != A1 || frame[geo.index(0, n + i)] != A2 {
                return Err(FrameError::BadAlignment);
            }
        }
        let b1_of_this = bip8(frame);
        let mut f = frame.to_vec();
        geo.scramble(&mut f);
        if (f[geo.index(3, 0)], f[geo.index(3, n)]) != (H1_LOCKED, H2_LOCKED) {
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
        let (b3, b2) = geo.parity(&f);
        self.b1_expect = Some(b1_of_this);
        self.b2_expect = Some(b2);
        self.b3_expect = Some(b3);
        let mut payload = Vec::with_capacity(rate.payload_octets_per_frame());
        for row in 0..9 {
            for col in 0..rate.columns() {
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

/// Clock `bytes` through the cell scrambler one octet per call.
fn scramble_serially(s: &mut Scrambler, bytes: &mut [u8]) {
    for b in bytes {
        s.scramble(std::slice::from_mut(b));
    }
}

/// Clock `bytes` through the cell descrambler one octet per call.
fn descramble_serially(d: &mut Descrambler, bytes: &mut [u8]) {
    for b in bytes {
        d.descramble(std::slice::from_mut(b));
    }
}

/// The TC transmitter over the per-octet builder.
struct Transmitter {
    rate: LineRate,
    builder: Builder,
    scrambler: Scrambler,
    queue: VecDeque<u8>,
    consumed: u64,
}

impl Transmitter {
    fn new(rate: LineRate) -> Self {
        Transmitter {
            rate,
            builder: Builder::new(rate),
            scrambler: Scrambler::new(),
            queue: VecDeque::new(),
            consumed: 0,
        }
    }

    fn push_cell(&mut self, cell: &Cell) {
        let mut bytes = *cell.as_bytes();
        scramble_serially(&mut self.scrambler, &mut bytes[HEADER_SIZE..]);
        self.queue.extend(bytes);
    }

    fn pull_frame(&mut self) -> Vec<u8> {
        let need = self.rate.payload_octets_per_frame();
        while self.queue.len() < need {
            self.push_cell(&Cell::idle());
        }
        let payload: Vec<u8> = self.queue.drain(..need).collect();
        self.consumed += need as u64;
        let phase = (self.consumed % CELL_SIZE as u64) as u8;
        let h4 = if phase == 0 {
            0
        } else {
            CELL_SIZE as u8 - phase
        };
        self.builder.build(&payload, h4)
    }
}

/// The TC receiver over the per-octet parser.
struct Receiver {
    aligner: FrameAligner,
    parser: Parser,
    delineator: Delineator,
    descrambler: Descrambler,
    frame_errors: u64,
    data_cells: u64,
}

impl Receiver {
    fn new(rate: LineRate) -> Self {
        Receiver {
            aligner: FrameAligner::new(rate),
            parser: Parser::new(rate),
            delineator: Delineator::new().with_idle_cells(),
            descrambler: Descrambler::new(),
            frame_errors: 0,
            data_cells: 0,
        }
    }

    fn push_bytes(&mut self, bytes: &[u8], out: &mut Vec<Cell>) {
        let mut frames = Vec::new();
        self.aligner.push(bytes, &mut frames);
        let mut cells = Vec::new();
        for frame in &frames {
            match self.parser.parse(frame) {
                Ok(parsed) => self.delineator.push_slice(&parsed.payload, &mut cells),
                Err(_) => self.frame_errors += 1,
            }
        }
        for mut cell in cells {
            descramble_serially(&mut self.descrambler, cell.payload_mut());
            if !cell.is_idle() && !cell.is_unassigned() {
                self.data_cells += 1;
                out.push(cell);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::frame::{FrameBuilder, FrameParser};
    use crate::scramble::{keystream_octet, scramble_at, PERIOD};
    use crate::tc::{TcReceiver, TcTransmitter};
    use hni_atm::{HeaderRepr, VcId, PAYLOAD_SIZE};
    use hni_sim::Rng;
    use std::collections::BTreeSet;

    fn random_bytes(rng: &mut Rng, len: usize) -> Vec<u8> {
        (0..len).map(|_| rng.next_u64() as u8).collect()
    }

    fn flip_bit(rng: &mut Rng, octets: &mut [u8], index: usize) {
        octets[index] ^= 1 << rng.below(8);
    }

    /// Damage frame `k` of a chain. Every eight frames run each kind of
    /// damage once, and the aimed flips rotate through their targets, so
    /// each 64-frame chain meets every parse error and parity octet.
    fn damage(rng: &mut Rng, rate: LineRate, f: &mut Vec<u8>, k: usize) {
        let (n, cols, poh) = (rate.sts_n(), rate.columns(), rate.toh_columns());
        let mut pick = |bound: usize| rng.below(bound as u64) as usize;
        let aimed = [
            pick(2 * n),            // A1/A2
            3 * cols + pick(2 * n), // H1/H2
            2 * cols + poh,         // C2
            5 * cols + poh,         // H4
            cols,                   // B1
            4 * cols + pick(n),     // B2
            cols + poh,             // B3
            2 * cols + pick(poh),   // section overhead, outside B2 and B3
        ];
        match k % 8 {
            0..=2 => {}
            3 | 4 => {
                for _ in 0..=rng.below(4) {
                    let at = rng.below(f.len() as u64) as usize;
                    flip_bit(rng, f, at);
                }
            }
            5 => flip_bit(rng, f, aimed[k / 8 % aimed.len()]),
            6 => {
                // Parity octets only: the chain must carry the damage.
                for at in [aimed[4], aimed[5], aimed[6]] {
                    flip_bit(rng, f, at);
                }
            }
            _ if (k / 8).is_multiple_of(4) => f.truncate(rng.below(f.len() as u64) as usize),
            _ => {
                let at = rng.below(f.len() as u64) as usize;
                f[at] = rng.next_u64() as u8;
            }
        }
    }

    /// 64 consecutive frames per seed: equal frames out of both builders
    /// and equal results and running totals out of both parsers.
    fn frames_match_reference(rate: LineRate, seeds: std::ops::Range<u64>) {
        let mut seen = BTreeSet::new();
        for seed in seeds {
            let mut rng = Rng::new(seed);
            let (mut fast_b, mut ref_b) = (FrameBuilder::new(rate), Builder::new(rate));
            let (mut fast_p, mut ref_p) = (FrameParser::new(rate), Parser::new(rate));
            for k in 0..64 {
                let payload = random_bytes(&mut rng, rate.payload_octets_per_frame());
                let h4 = rng.next_u64() as u8;
                let mut frame = fast_b.build(&payload, h4);
                assert_eq!(
                    frame,
                    ref_b.build(&payload, h4),
                    "{rate:?} seed {seed} frame {k}"
                );
                damage(&mut rng, rate, &mut frame, k);
                let parsed = fast_p.parse(&frame);
                assert_eq!(
                    parsed,
                    ref_p.parse(&frame),
                    "{rate:?} seed {seed} frame {k}"
                );
                seen.extend(outcomes(&parsed));
                let totals = (
                    fast_p.total_b1_errors(),
                    fast_p.total_b2_errors(),
                    fast_p.total_b3_errors(),
                );
                let ref_totals = (
                    ref_p.total_b1_errors,
                    ref_p.total_b2_errors,
                    ref_p.total_b3_errors,
                );
                assert_eq!(totals, ref_totals, "{rate:?} seed {seed} frame {k}");
            }
        }
        let every = [
            "B1",
            "B2",
            "B3",
            "BadSize",
            "BadAlignment",
            "BadPointer",
            "BadSignalLabel",
        ];
        assert_eq!(
            seen,
            every.into(),
            "{rate:?}: the chain must meet every outcome"
        );
    }

    /// What a parse result shows: its error, or which parities failed.
    fn outcomes(parsed: &Result<ParsedFrame, FrameError>) -> Vec<&'static str> {
        match parsed {
            Ok(p) => [
                ("B1", p.b1_errors),
                ("B2", p.b2_errors),
                ("B3", p.b3_errors),
            ]
            .into_iter()
            .filter(|&(_, errors)| errors > 0)
            .map(|(parity, _)| parity)
            .collect(),
            Err(FrameError::BadSize { .. }) => vec!["BadSize"],
            Err(FrameError::BadAlignment) => vec!["BadAlignment"],
            Err(FrameError::BadPointer) => vec!["BadPointer"],
            Err(FrameError::BadSignalLabel(_)) => vec!["BadSignalLabel"],
        }
    }

    #[test]
    fn frames_match_reference_oc3() {
        frames_match_reference(LineRate::Oc3, 0..8);
    }

    #[test]
    fn frames_match_reference_oc12() {
        frames_match_reference(LineRate::Oc12, 100..104);
    }

    #[test]
    fn frames_match_reference_oc48() {
        frames_match_reference(LineRate::Oc48, 200..201);
    }

    #[test]
    fn frames_match_reference_oc192() {
        frames_match_reference(LineRate::Oc192, 300..301);
    }

    #[test]
    fn keystream_table_matches_the_scrambler() {
        let mut s = FrameScrambler::new();
        for i in 0..2 * PERIOD {
            assert_eq!(keystream_octet(i), s.next_octet(), "keystream octet {i}");
        }
        // Runs from any keystream position, longer than one table slice.
        let mut rng = Rng::new(7);
        for at in [0, 1, 126, 127, 128, 3 * PERIOD + 5, 9_720] {
            let len = 2_000 + rng.below(500) as usize;
            let clear = random_bytes(&mut rng, len);
            let mut fast = clear.clone();
            scramble_at(at, &mut fast);
            let mut s = FrameScrambler::new();
            (0..at).for_each(|_| {
                s.next_octet();
            });
            let serial: Vec<u8> = clear.iter().map(|b| b ^ s.next_octet()).collect();
            assert_eq!(fast, serial, "run from keystream octet {at}");
        }
    }

    #[test]
    fn cell_scramblers_match_octet_at_a_time() {
        for seed in 0..16u64 {
            let mut rng = Rng::new(seed);
            let len = 1 + rng.below(2_000) as usize;
            let clear = random_bytes(&mut rng, len);
            let (mut fast_s, mut ref_s) = (Scrambler::new(), Scrambler::new());
            let (mut fast_d, mut ref_d) = (Descrambler::new(), Descrambler::new());
            let mut line = clear.clone();
            let mut reference = clear.clone();
            let mut at = 0;
            while at < line.len() {
                // Cell payloads, whole words and ragged tails alike.
                let take = match rng.below(3) {
                    0 => PAYLOAD_SIZE,
                    1 => 4 * (1 + rng.below(20) as usize),
                    _ => 1 + rng.below(13) as usize,
                }
                .min(line.len() - at);
                fast_s.scramble(&mut line[at..at + take]);
                at += take;
            }
            scramble_serially(&mut ref_s, &mut reference);
            assert_eq!(line, reference, "seed {seed}: scrambled");

            // Line bit errors, then descramble both ways.
            for _ in 0..=rng.below(4) {
                let at = rng.below(line.len() as u64) as usize;
                flip_bit(&mut rng, &mut line, at);
            }
            let mut reference = line.clone();
            for chunk in line.chunks_mut(1 + rng.below(60) as usize) {
                fast_d.descramble(chunk);
            }
            descramble_serially(&mut ref_d, &mut reference);
            assert_eq!(line, reference, "seed {seed}: descrambled");
        }
    }

    fn random_cell(rng: &mut Rng) -> Cell {
        let vci = 32 + rng.below(1000) as u16;
        let payload: [u8; PAYLOAD_SIZE] = std::array::from_fn(|_| rng.next_u64() as u8);
        Cell::new(
            &HeaderRepr::data(VcId::new(0, vci), rng.chance(0.3)),
            &payload,
        )
        .unwrap()
    }

    /// Cells through both TC pairs: the same frames on the line, then
    /// the same cells, parity totals and counters out of the receivers,
    /// the fast one fed the damaged line in ragged chunks.
    fn tc_matches_reference(rate: LineRate, seed: u64, frames: usize) {
        let mut rng = Rng::new(seed);
        let (mut fast_tx, mut ref_tx) = (TcTransmitter::new(rate), Transmitter::new(rate));
        let (mut fast_rx, mut ref_rx) = (TcReceiver::new(rate), Receiver::new(rate));
        let (mut fast_out, mut ref_out) = (Vec::new(), Vec::new());
        let cells_per_frame = rate.payload_octets_per_frame() / CELL_SIZE;
        let mut line = Vec::new();
        for k in 0..frames {
            // Idle stretches, light load and overload alike.
            for _ in 0..rng.below(2 * cells_per_frame as u64) {
                let cell = random_cell(&mut rng);
                fast_tx.push_cell(&cell);
                ref_tx.push_cell(&cell);
            }
            let frame = fast_tx.pull_frame();
            assert_eq!(frame, ref_tx.pull_frame(), "{rate:?} seed {seed} frame {k}");
            line.extend_from_slice(&frame);
        }
        // Line bit errors at about 1e-5, with a few dense bursts.
        let bits = line.len() as u64 * 8;
        for _ in 0..bits / 100_000 + rng.below(4) {
            let at = rng.below(line.len() as u64) as usize;
            flip_bit(&mut rng, &mut line, at);
        }
        for _ in 0..rng.below(3) {
            let at = rng.below(line.len() as u64 - 64) as usize;
            for i in 0..64 {
                if rng.chance(0.2) {
                    flip_bit(&mut rng, &mut line, at + i);
                }
            }
        }
        let mut at = 0;
        while at < line.len() {
            let take =
                (1 + rng.below(2 * rate.frame_octets() as u64) as usize).min(line.len() - at);
            fast_rx.push_bytes(&line[at..at + take], &mut fast_out);
            at += take;
        }
        for frame in line.chunks(rate.frame_octets()) {
            ref_rx.push_bytes(frame, &mut ref_out);
        }

        let case = format!("{rate:?} seed {seed}");
        assert!(fast_rx.data_cells() > 0, "{case}: nothing delivered");
        assert_eq!(fast_out.len(), ref_out.len(), "{case}: cell count");
        for (i, (a, b)) in fast_out.iter().zip(&ref_out).enumerate() {
            assert_eq!(a.as_bytes(), b.as_bytes(), "{case}: cell {i}");
        }
        assert_eq!(fast_rx.data_cells(), ref_rx.data_cells, "{case}");
        assert_eq!(fast_rx.frame_errors(), ref_rx.frame_errors, "{case}");
        let parser = fast_rx.parser();
        assert_eq!(
            (
                parser.total_b1_errors(),
                parser.total_b2_errors(),
                parser.total_b3_errors()
            ),
            (
                ref_rx.parser.total_b1_errors,
                ref_rx.parser.total_b2_errors,
                ref_rx.parser.total_b3_errors
            ),
            "{case}: parity totals"
        );
        assert_eq!(fast_rx.aligner().state(), ref_rx.aligner.state(), "{case}");
        assert_eq!(
            fast_rx.delineator().state(),
            ref_rx.delineator.state(),
            "{case}"
        );
        assert_eq!(
            fast_rx.delineator().hec_receiver().corrected(),
            ref_rx.delineator.hec_receiver().corrected(),
            "{case}"
        );
    }

    #[test]
    fn tc_path_matches_reference_under_ragged_chunks_and_bit_errors() {
        for seed in 0..6 {
            tc_matches_reference(LineRate::Oc3, seed, 40);
        }
        for seed in 10..13 {
            tc_matches_reference(LineRate::Oc12, seed, 30);
        }
        tc_matches_reference(LineRate::Oc48, 20, 16);
    }
}
