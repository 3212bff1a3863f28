//! The ATM transmission convergence (TC) sublayer: cells ⇄ SONET payload.
//!
//! **Transmit** ([`TcTransmitter`]): data cells are queued; each frame
//! tick pulls exactly one frame's payload worth of octets, inserting idle
//! cells whenever the queue runs dry (the payload is synchronous — it
//! cannot wait). Cell payloads are scrambled with the self-synchronising
//! x⁴³+1 scrambler in stream order; headers travel in the clear (the HEC
//! protects them, and delineation needs them predictable). The H4 POH
//! octet is maintained with the offset to the next cell boundary.
//!
//! **Receive** ([`TcReceiver`]): octets → frame alignment → frame
//! parsing (overhead checks, parity accounting) → payload extraction →
//! HEC cell delineation → payload descrambling → idle-cell removal →
//! data cells out.
//!
//! ## Model note
//!
//! The payload descrambler is clocked by delineated cell payloads. A
//! cell whose header the HEC machine *discards* never reaches us, so its
//! 384 payload bits don't clock the descrambler; the self-synchronising
//! register then corrupts the first 43 bits of the *next* cell's payload
//! before re-tracking. Real bit-position-driven hardware would not
//! corrupt that neighbour. The divergence only occurs for cells already
//! being discarded for header damage — a condition in which the
//! neighbouring frame is almost always already doomed at the AAL layer —
//! and is documented here rather than papered over.

use crate::frame::{FrameBuilder, FrameParser, ParsedFrame};
use crate::rates::LineRate;
use crate::sync::FrameAligner;
use hni_atm::{Cell, Delineator, Descrambler, Scrambler, CELL_SIZE, HEADER_SIZE};
use std::collections::VecDeque;

/// Cells → frames.
pub struct TcTransmitter {
    rate: LineRate,
    builder: FrameBuilder,
    scrambler: Scrambler,
    /// Octet queue awaiting frame payload slots (already scrambled).
    queue: VecDeque<u8>,
    /// Reusable frame payload, drained from `queue` each frame.
    payload: Vec<u8>,
    /// Octets consumed into frames so far (for H4 phase).
    consumed: u64,
    data_cells: u64,
    idle_cells: u64,
}

impl TcTransmitter {
    /// A transmitter for `rate`.
    pub fn new(rate: LineRate) -> Self {
        TcTransmitter {
            rate,
            builder: FrameBuilder::new(rate),
            scrambler: Scrambler::new(),
            queue: VecDeque::new(),
            payload: Vec::new(),
            consumed: 0,
            data_cells: 0,
            idle_cells: 0,
        }
    }

    /// Data cells queued so far.
    pub fn data_cells(&self) -> u64 {
        self.data_cells
    }
    /// Idle cells inserted so far.
    pub fn idle_cells(&self) -> u64 {
        self.idle_cells
    }
    /// Octets currently queued (cells waiting for payload slots).
    pub fn backlog_octets(&self) -> usize {
        self.queue.len()
    }
    /// Cells currently queued.
    pub fn backlog_cells(&self) -> usize {
        self.queue.len() / CELL_SIZE
    }

    fn enqueue(&mut self, cell: &Cell) {
        // Header in the clear, payload through the stream scrambler.
        let mut bytes = *cell.as_bytes();
        self.scrambler.scramble(&mut bytes[HEADER_SIZE..]);
        self.queue.extend(&bytes);
    }

    /// Queue a data cell for transmission.
    pub fn push_cell(&mut self, cell: &Cell) {
        self.data_cells += 1;
        self.enqueue(cell);
    }

    /// Produce the next 125 µs frame. Idle cells are inserted if the
    /// queue cannot fill the payload.
    pub fn pull_frame(&mut self) -> Vec<u8> {
        let need = self.rate.payload_octets_per_frame();
        while self.queue.len() < need {
            let idle = Cell::idle();
            self.idle_cells += 1;
            self.enqueue(&idle);
        }
        self.payload.clear();
        self.payload.extend(self.queue.drain(..need));
        self.consumed += need as u64;
        // Offset from the next frame's first payload octet to the next
        // cell boundary.
        let phase = (self.consumed % CELL_SIZE as u64) as u8;
        let h4 = if phase == 0 {
            0
        } else {
            CELL_SIZE as u8 - phase
        };
        self.builder.build(&self.payload, h4)
    }
}

/// Frames → cells.
pub struct TcReceiver {
    aligner: FrameAligner,
    parser: FrameParser,
    delineator: Delineator,
    descrambler: Descrambler,
    frame_errors: u64,
    data_cells: u64,
    /// Reusable frame scratch (outer Vec capacity persists across calls).
    frames: Vec<Vec<u8>>,
    /// Reusable parse output: its payload buffer persists across frames.
    parsed: ParsedFrame,
    /// Reusable delineated-cell scratch.
    cells: Vec<Cell>,
}

impl TcReceiver {
    /// A receiver for `rate`.
    pub fn new(rate: LineRate) -> Self {
        TcReceiver {
            aligner: FrameAligner::new(rate),
            parser: FrameParser::new(rate),
            delineator: Delineator::new().with_idle_cells(),
            descrambler: Descrambler::new(),
            frame_errors: 0,
            data_cells: 0,
            frames: Vec::new(),
            parsed: ParsedFrame::default(),
            cells: Vec::new(),
        }
    }

    /// Access to the frame aligner (state, acquisition stats).
    pub fn aligner(&self) -> &FrameAligner {
        &self.aligner
    }
    /// Access to the frame parser (B1/B2/B3 error accounting).
    pub fn parser(&self) -> &FrameParser {
        &self.parser
    }
    /// Access to the cell delineator (sync state, HEC stats).
    pub fn delineator(&self) -> &Delineator {
        &self.delineator
    }
    /// Frames that failed overhead checks and were skipped.
    pub fn frame_errors(&self) -> u64 {
        self.frame_errors
    }
    /// Data cells delivered.
    pub fn data_cells(&self) -> u64 {
        self.data_cells
    }

    /// Feed received line octets; recovered data cells are appended to
    /// `out`.
    pub fn push_bytes(&mut self, bytes: &[u8], out: &mut Vec<Cell>) {
        self.frames.clear();
        self.aligner.push(bytes, &mut self.frames);
        for frame in &self.frames {
            match self.parser.parse_into(frame, &mut self.parsed) {
                Ok(()) => self
                    .delineator
                    .push_slice(&self.parsed.payload, &mut self.cells),
                Err(_) => {
                    // Skip the frame; the delineator simply sees a gap in
                    // the payload stream (as hardware would on a bad frame).
                    self.frame_errors += 1;
                }
            }
        }
        for mut cell in self.cells.drain(..) {
            self.descrambler.descramble(cell.payload_mut());
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
    use hni_atm::{HeaderRepr, VcId, PAYLOAD_SIZE};

    fn data_cell(vci: u16, fill: u8) -> Cell {
        Cell::new(
            &HeaderRepr::data(VcId::new(0, vci), false),
            &[fill; PAYLOAD_SIZE],
        )
        .unwrap()
    }

    /// Run enough idle frames through to establish alignment + delineation.
    fn warmed_up(rate: LineRate) -> (TcTransmitter, TcReceiver) {
        let mut tx = TcTransmitter::new(rate);
        let mut rx = TcReceiver::new(rate);
        let mut sink = Vec::new();
        for _ in 0..12 {
            let f = tx.pull_frame();
            rx.push_bytes(&f, &mut sink);
        }
        assert!(rx.aligner().is_synced(), "warm-up must align frames");
        assert!(rx.delineator().is_synced(), "warm-up must delineate");
        assert!(sink.is_empty(), "idle cells must not be delivered");
        (tx, rx)
    }

    #[test]
    fn end_to_end_cells_over_frames_oc3() {
        end_to_end(LineRate::Oc3);
    }

    #[test]
    fn end_to_end_cells_over_frames_oc12() {
        end_to_end(LineRate::Oc12);
    }

    #[test]
    fn end_to_end_cells_over_frames_oc48() {
        end_to_end(LineRate::Oc48);
    }

    #[test]
    fn end_to_end_cells_over_frames_oc192() {
        end_to_end(LineRate::Oc192);
    }

    fn end_to_end(rate: LineRate) {
        let (mut tx, mut rx) = warmed_up(rate);
        let sent: Vec<Cell> = (0..200)
            .map(|i| data_cell(32 + (i % 100), i as u8))
            .collect();
        for c in &sent {
            tx.push_cell(c);
        }
        let mut got = Vec::new();
        // Enough frames to flush 200 cells (200×53 = 10600 octets).
        for _ in 0..(10_600 / rate.payload_octets_per_frame() + 2) {
            let f = tx.pull_frame();
            rx.push_bytes(&f, &mut got);
        }
        assert_eq!(got.len(), sent.len());
        for (g, s) in got.iter().zip(&sent) {
            assert_eq!(g.as_bytes(), s.as_bytes(), "cells must survive verbatim");
        }
    }

    #[test]
    fn idle_fill_accounting() {
        let rate = LineRate::Oc3;
        let (mut tx, _rx) = warmed_up(rate);
        let idle_before = tx.idle_cells();
        tx.push_cell(&data_cell(40, 1));
        let _ = tx.pull_frame();
        // One frame = 2340 octets = ~44.15 cells; 1 data cell queued, so
        // at least 43 idles must have been inserted.
        assert!(tx.idle_cells() - idle_before >= 43);
        assert_eq!(tx.data_cells(), 1);
    }

    #[test]
    fn cells_straddle_frame_boundaries() {
        // 2340 % 53 ≠ 0, so straddling happens constantly; verify payload
        // integrity across many frames with patterned payloads.
        let rate = LineRate::Oc3;
        let (mut tx, mut rx) = warmed_up(rate);
        let sent: Vec<Cell> = (0..100)
            .map(|i| {
                let mut p = [0u8; PAYLOAD_SIZE];
                for (j, b) in p.iter_mut().enumerate() {
                    *b = (i * 13 + j as u16) as u8;
                }
                Cell::new(&HeaderRepr::data(VcId::new(1, 500), i % 2 == 0), &p).unwrap()
            })
            .collect();
        for c in &sent {
            tx.push_cell(c);
        }
        let mut got = Vec::new();
        for _ in 0..5 {
            let f = tx.pull_frame();
            rx.push_bytes(&f, &mut got);
        }
        assert_eq!(got.len(), 100);
        for (g, s) in got.iter().zip(&sent) {
            assert_eq!(g.as_bytes(), s.as_bytes());
        }
    }

    #[test]
    fn backlog_reported() {
        let mut tx = TcTransmitter::new(LineRate::Oc3);
        for i in 0..10 {
            tx.push_cell(&data_cell(40, i));
        }
        assert_eq!(tx.backlog_cells(), 10);
        assert_eq!(tx.backlog_octets(), 530);
        let _ = tx.pull_frame();
        assert_eq!(tx.backlog_cells(), 0, "one OC-3 frame swallows 10 cells");
    }

    #[test]
    fn no_parity_errors_on_clean_path() {
        let rate = LineRate::Oc12;
        let (mut tx, mut rx) = warmed_up(rate);
        for i in 0..500 {
            tx.push_cell(&data_cell(32 + (i % 64), i as u8));
        }
        let mut got = Vec::new();
        for _ in 0..6 {
            let f = tx.pull_frame();
            rx.push_bytes(&f, &mut got);
        }
        assert_eq!(rx.parser().total_b1_errors(), 0);
        assert_eq!(rx.parser().total_b2_errors(), 0);
        assert_eq!(rx.parser().total_b3_errors(), 0);
        assert_eq!(rx.frame_errors(), 0);
    }
}
